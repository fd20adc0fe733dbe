"""The names the benchmark in perfbench/ reads from the package must exist.

perfbench/spans.py patches the public functions it traces by name,
perfbench/run.py reports kernels.HAVE_NUMBA, and perfbench/checks.py reads
the outputs back through the package. A rename here would otherwise
surface only inside a benchmark run. The traced metrics must also see the
program's work as it is: the per-clip store reads of eval and the one
log-mel STFT per clip of embed-mock are two of them.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

from morphmix import cli, evaluate, kernels
from morphmix.audio_io import Waveform, save_wav
from morphmix.dsp import AugmentParams
from morphmix.evaluate import EvalClip
from morphmix.metrics import _STFT_BLOCK, Embedding, gaussian_stats
from morphmix.store import EmbeddingStore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(stem):
    """perfbench/<stem>.py as a module named <stem>, the name perfbench's own imports use."""
    spec = importlib.util.spec_from_file_location(stem, PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _load("spans")._targets()
    assert targets
    for owner, attr, name, *_ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr!r}"


def test_have_numba_constant_is_false():
    assert kernels.HAVE_NUMBA is False


def test_traced_eval_reads_shared_entries_once(tmp_path):
    spans = _load("spans")
    rng = np.random.default_rng(3)
    store = EmbeddingStore(tmp_path / "store")
    shared = ("tx", "ty", "pi", "pr")
    for entry_id in shared:
        store.put(entry_id, rng.uniform(0.1, 1.0, size=(1, 8)))
    clips = []
    for i in range(10):
        store.put(f"c{i}.audio", rng.uniform(0.1, 1.0, size=(1, 8)))
        store.put(f"c{i}.latents", rng.normal(size=(12, 8)))
        clips.append(EvalClip(f"c{i}", f"c{i}.audio", f"c{i}.latents", *shared))
    reference = gaussian_stats([Embedding(rng.normal(size=8)) for _ in range(5)])
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        row = evaluate.evaluate_corpus(clips, store, reference)
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert row.count == 10
    assert metrics["store.read_mxeb.calls"] == 2 * 10 + 4
    # six entries per clip when every clip read all of its own
    assert metrics["evaluate.reads_per_clip"] == 2.4 < 6


def test_traced_embed_counts_each_clip_stft_once(tmp_path):
    spans = _load("spans")
    rng = np.random.default_rng(5)
    lengths = (4000, 9000, 30001)
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    for i, n in enumerate(lengths):
        data = rng.uniform(-0.3, 0.3, size=(1, n)).astype(np.float32)
        save_wav(Waveform(data, 48000), audio_dir / f"c{i}.wav", bit_depth=32)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        code = cli.main(["embed-mock", str(audio_dir), "--out-store", str(tmp_path / "st"),
                         "--latents"])
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert code == 0
    # one rfft per block of _STFT_BLOCK 2048-point frames at hop 512, under a
    # traced mock_* span
    assert metrics["metrics.fft.calls"] == sum(
        math.ceil(((n - 2048) // 512 + 1) / _STFT_BLOCK) for n in lengths)
    assert metrics["metrics.mock_embed.calls"] == metrics["metrics.mock_latents.calls"] == 3


def test_benchmark_checks_pass_on_small_workloads(tmp_path, monkeypatch):
    corpus = _load("corpus")
    monkeypatch.setitem(sys.modules, "corpus", corpus)  # checks.py imports it by this name
    checks = _load("checks")
    seed = 3

    built = corpus.build_corpus(seed, tmp_path / "b", pairs_per_mode=1)
    out = tmp_path / "b_out"
    assert cli.main(["build", str(built["pairs"]), "--out-dir", str(out),
                     "--seed", str(seed)]) == 0
    peak = AugmentParams().output_peak
    assert checks.check_build(built, out, seed, peak, {}) == set()

    clips = corpus.embed_corpus(seed, tmp_path / "e", n_clips=8)
    out = tmp_path / "e_out"
    assert cli.main(["embed-mock", str(clips["audio_dir"]), "--out-store", str(out),
                     "--latents"]) == 0
    assert checks.check_embed(clips, out) == set()

    scored = corpus.eval_corpus(seed, tmp_path / "v", n_clips=20)
    rows = []  # the EvalRow check_eval reads; the CLI prints only the rounded report
    score = evaluate.evaluate_corpus

    def keep_row(*args, **kwargs):
        rows.append(score(*args, **kwargs))
        return rows[-1]

    monkeypatch.setattr(evaluate, "evaluate_corpus", keep_row)
    out = tmp_path / "report.csv"
    assert cli.main(["eval", str(scored["clips"]), "--store", str(scored["store"]),
                     "--reference", str(scored["reference"]), "--format", "csv",
                     "--out", str(out)]) == 0
    assert checks.check_eval(scored, rows[0], out) == 0
