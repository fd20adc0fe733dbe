"""Golden digests of the three pipelines' outputs on a small seeded corpus.

The inputs come from perfbench/corpus.py, loaded by path, plus one item per
command that fails on its own: a silent pair, a clip too short for latents
and a truncated store entry. Each command runs through cli.main, and the
test compares the SHA-256 of every file it writes, of its stdout and of its
stderr (with the temporary directory's path replaced), and its exit code,
with the digests in tests/golden_digests.json. A second build run holds two
pairs whose primaries have a prime length, where spectral_interpolate takes
both spectra from one complex FFT. Float results can move by an ulp between
numpy versions, so a mismatch names the numpy version the digests were
recorded with.

The report prints each mean to three places, so a second digest covers the
values themselves: the repr of every score_clip result and of the EvalRow
fields on the same eval corpus, each float at full precision.

After a deliberate change to the outputs, record new digests with

    PYTHONPATH=src python tests/test_golden.py

which rewrites tests/golden_digests.json and prints the values digest to paste
into EVAL_VALUES_SHA256.
"""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from morphmix import cli, evaluate, store
from morphmix.errors import MorphmixError

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "perfbench" / "corpus.py"
DIGESTS = HERE / "golden_digests.json"
SEED = 5
EVAL_VALUES_SHA256 = "b6c87ea3400e03e85a53ba947ac10ceb11dd857225d8ef870c39452a83be21fa"


def _load_corpus():
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _run(root, argv, out_dir=None):
    """Exit code, stdout and stderr digests, and the digest of each file under out_dir."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([str(a) for a in argv])
    run = {"code": code}
    for name, text in (("stdout", stdout), ("stderr", stderr)):
        run[name] = _sha(text.getvalue().replace(str(root), "<root>").encode())
    if out_dir is not None:
        run["files"] = {f.relative_to(out_dir).as_posix(): _sha(f.read_bytes())
                        for f in sorted(Path(out_dir).rglob("*")) if f.is_file()}
    return run


def _eval_inputs(corpus, root):
    """The 20-clip eval corpus under root/eval, with one clip's latents truncated."""
    scored = corpus.eval_corpus(SEED, root / "eval", n_clips=20)
    entry = scored["store"] / "clip00003.latents.mxeb"
    entry.write_bytes(entry.read_bytes()[:-4])
    return scored


def _bluestein_pairs(corpus, root):
    """pairs.jsonl of one spectral and one both pair, each primary of a prime length.

    The build corpus's lengths (48,000 and 120,000 samples) never take both
    spectra from one complex FFT; these pairs do. Their outputs quantize to the
    same bytes as the two-rfft path's, so the key pins this path's outputs
    rather than telling the two paths apart. Ids are drawn until build, at
    seed 3, samples each of the two modes once.
    """
    from morphmix import dataset

    root.mkdir(parents=True)
    ids, k = {}, 0
    while len(ids) < 2:
        pid = f"prime{k:03d}"
        mode = dataset.sample_mode(dataset.pair_rng(3, pid), dataset.ModeDistribution()).value
        if mode in ("spectral", "both"):
            ids.setdefault(mode, pid)
        k += 1
    lines = []
    # (samples, channels) of each input: build downmixes both to mono, so the
    # channels change only the samples; the secondary is looped, then truncated
    shapes = (((24007, 2), (10000, 1)), ((24029, 1), (30000, 2)))
    for i, ((mode, pid), shape) in enumerate(zip(sorted(ids.items()), shapes)):
        rng = corpus.rng_for(SEED, 100 + i)
        paths = [root / f"{pid}_{role}.wav" for role in ("p", "s")]
        for path, (n, channels) in zip(paths, shape):
            path.write_bytes(corpus.encode_wav(corpus.synth(rng, n, channels), "pcm16"))
        lines.append(json.dumps({"id": pid, "primary_path": str(paths[0]), "primary_label": mode,
                                 "secondary_path": str(paths[1]), "secondary_label": "prime"}))
    path = root / "pairs.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def golden_runs(root):
    """Build the corpus under root and run build, embed-mock and eval over it."""
    corpus = _load_corpus()
    root = Path(root)
    built = corpus.build_corpus(SEED, root / "build", pairs_per_mode=2)
    silent = root / "build" / "in" / "silent.wav"
    silent.write_bytes(corpus.encode_wav(np.zeros((1, 4800)), "pcm16"))
    with open(built["pairs"], "a", encoding="utf-8") as f:
        f.write(json.dumps({"id": "silent", "primary_path": str(silent), "primary_label": "hush",
                            "secondary_path": str(silent), "secondary_label": "still"}) + "\n")
    clips = corpus.embed_corpus(SEED, root / "embed", n_clips=8)
    (clips["audio_dir"] / "short.wav").write_bytes(
        corpus.encode_wav(np.full((1, 2000), 0.25), "float32"))
    scored = _eval_inputs(corpus, root)
    eval_args = ["eval", scored["clips"], "--store", scored["store"],
                 "--reference", scored["reference"], "--model-name", "golden"]
    return {
        "build": _run(root, ["build", built["pairs"], "--out-dir", root / "built",
                             "--jobs", "2", "--seed", "3"], root / "built"),
        "build bluestein": _run(root, ["build", _bluestein_pairs(corpus, root / "prime"),
                                       "--out-dir", root / "built prime", "--jobs", "2",
                                       "--seed", "3"], root / "built prime"),
        "embed-mock": _run(root, ["embed-mock", clips["audio_dir"], "--out-store",
                                  root / "store", "--latents"], root / "store"),
        "eval csv": _run(root, eval_args + ["--format", "csv"]),
        "eval markdown": _run(root, eval_args + ["--format", "markdown",
                                                 "--out", root / "report" / "r.md"],
                              root / "report"),
    }


def eval_values_digest(root):
    """SHA-256 of the repr of each clip's score_clip result (its audio embedding and
    scores, or its error's class) and of the EvalRow fields, floats at full precision."""
    scored = _eval_inputs(_load_corpus(), Path(root))
    clips = evaluate.load_eval_clips(scored["clips"])
    emb_store = store.EmbeddingStore(scored["store"])
    results = []
    for clip in clips:
        try:
            audio, scores = evaluate.score_clip(clip, emb_store, shared=emb_store.embedding)
        except MorphmixError as e:
            results.append((clip.clip_id, type(e).__name__))
            continue
        results.append((clip.clip_id, audio.values.tolist(),
                        {key: float(value) for key, value in scores.items()}))
    row = evaluate.evaluate_corpus(clips, emb_store, store.read_gaussian_stats(scored["reference"]),
                                   model_name="golden")
    fields = [float(v) if isinstance(v, float) else v for v in dataclasses.astuple(row)]
    return _sha(repr((results, fields)).encode())


def _record():
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "report").mkdir()
        runs = golden_runs(tmp)
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "seed": SEED, "runs": runs},
                                  indent=2, sort_keys=True) + "\n", encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        print(f"EVAL_VALUES_SHA256 = {eval_values_digest(tmp)!r}")


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    (tmp_path / "report").mkdir()
    runs = golden_runs(tmp_path)
    for name, expect in golden["runs"].items():
        assert runs[name] == expect, (
            f"{name}: outputs differ from the digests recorded with numpy "
            f"{golden['numpy']} (this is numpy {np.__version__})")
    assert sorted(runs) == sorted(golden["runs"])


def test_eval_values_match_golden_digest(tmp_path):
    assert eval_values_digest(tmp_path) == EVAL_VALUES_SHA256, (
        f"eval values differ from the digest recorded with numpy 2.4.6 "
        f"(this is numpy {np.__version__})")


def test_numpy_floor_has_the_major_version_the_digests_were_recorded_with():
    # the byte-identity contract holds for the recorded numpy; a floor of another
    # major version would admit a numpy the code was never run against
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((HERE.parent / "pyproject.toml").read_text(encoding="utf-8"))
    floors = [re.fullmatch(r"numpy\s*>=\s*(\d+)(\.\d+)*", dep)
              for dep in project["project"]["dependencies"]]
    floors = [m.group(1) for m in floors if m]
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))["numpy"]
    assert floors == [recorded.split(".")[0]], (
        f"numpy floor majors {floors} vs digests recorded with numpy {recorded}")


if __name__ == "__main__":
    sys.exit(_record())
