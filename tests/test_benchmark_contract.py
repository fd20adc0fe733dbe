"""The names the benchmark in perfbench/ reads from the package must exist.

perfbench/spans.py patches the public functions it traces by name, and
perfbench/run.py reports kernels.HAVE_NUMBA. A rename here would otherwise
surface only inside a benchmark run.
"""

import importlib.util
from pathlib import Path

from morphmix import kernels

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _load_spans()._targets()
    assert targets
    for owner, attr, name, *_ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr!r}"


def test_have_numba_constant_is_false():
    assert kernels.HAVE_NUMBA is False
