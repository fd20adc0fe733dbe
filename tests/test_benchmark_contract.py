"""The names the benchmark in perfbench/ reads from the package must exist.

perfbench/spans.py patches the public functions it traces by name, and
perfbench/run.py reports kernels.HAVE_NUMBA. A rename here would otherwise
surface only inside a benchmark run. The traced metrics must also see the
program's work as it is: the per-clip store reads of eval and the one
log-mel STFT per clip of embed-mock are two of them.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from morphmix import cli, evaluate, kernels
from morphmix.audio_io import Waveform, save_wav
from morphmix.evaluate import EvalClip
from morphmix.metrics import _STFT_BLOCK, Embedding, gaussian_stats
from morphmix.store import EmbeddingStore

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


def test_traced_eval_reads_shared_entries_once(tmp_path):
    spans = _load_spans()
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
    spans = _load_spans()
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
