"""Output checks; each returns the ids of the items whose output is wrong.

They test only properties every correct implementation keeps, never a
golden digest, so a change that moves output bits within the program's
tolerances still passes. The one byte-level test compares passes of the same
run with each other: the build output must not depend on the pass.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from corpus import decode_wav

PEAK_SLACK = 1e-6  # float32 rounding of a peak normalized in float64


def check_build(corpus, out_dir, seed, output_peak, digests):
    """Failed pair ids of one build pass.

    digests maps a file's path relative to out_dir to its SHA-256 from the
    first pass; a later pass must reproduce it. An empty dict is filled.
    """
    from morphmix import dataset

    out_dir = Path(out_dir)
    expected = corpus["expected"]
    try:
        manifest = (out_dir / "manifest.jsonl").read_bytes()
        entries = {e["id"]: e for e in map(json.loads, manifest.decode("utf-8").splitlines())}
    except (OSError, ValueError, KeyError):
        return set(expected)
    if _digest_changed(digests, "manifest.jsonl", manifest):
        return set(expected)
    dist = dataset.ModeDistribution()
    failed = set()
    for pid, exp in expected.items():
        e = entries.get(pid)
        mode = dataset.sample_mode(dataset.pair_rng(seed, pid), dist)
        if (e is None or e.get("error") or e.get("mode") != mode.value
                or e.get("caption") != dataset.caption_for(mode, *exp["labels"])):
            failed.add(pid)
            continue
        try:
            blob = (out_dir / e["audio_path"]).read_bytes()
            samples, _ = decode_wav(blob)
        except (OSError, ValueError):
            failed.add(pid)
            continue
        if (samples.shape[1] != exp["n_samples"] or not np.all(np.isfinite(samples))
                or np.max(np.abs(samples)) > output_peak + PEAK_SLACK
                or _digest_changed(digests, e["audio_path"], blob)):
            failed.add(pid)
    return failed


def _digest_changed(digests, key, blob):
    digest = hashlib.sha256(blob).hexdigest()
    return digests.setdefault(key, digest) != digest


def latent_frames(n_samples, frame=2048, hop=512):
    return (n_samples - frame) // hop + 1


def check_embed(corpus, store_dir, dim=64, latent_dim=32):
    """Failed clip ids: each must be indexed and read back with the expected shape."""
    from morphmix import store
    from morphmix.errors import MorphmixError

    try:
        st = store.EmbeddingStore(store_dir)
    except (OSError, ValueError, KeyError):
        return set(corpus["expected"])
    failed = set()
    for cid, n in corpus["expected"].items():
        try:
            emb = st.embedding(cid).values
            lat = st.latents(f"{cid}.latents").data
        except (MorphmixError, OSError, ValueError):
            failed.add(cid)
            continue
        if (emb.shape != (dim,) or lat.shape != (latent_frames(n), latent_dim)
                or not np.all(np.isfinite(emb)) or not np.all(np.isfinite(lat))):
            failed.add(cid)
    return failed


def check_eval(corpus, row, report_path):
    """Number of failed clips: all of them if the row is wrong, else the excluded ones."""
    n = corpus["n_clips"]
    values = []
    if row is not None:
        values = [row.lcs, row.correspondence, row.intermediateness, row.directionality, row.fad]
    try:
        lines = Path(report_path).read_text(encoding="utf-8").splitlines()
        cells = [float(c) for c in lines[1].split(",")[1:]]
    except (OSError, IndexError, ValueError):
        return n
    if (row is None or row.count + row.excluded != n or len(lines) != 2 or len(cells) != 5
            or not all(math.isfinite(v) for v in values + cells)):
        return n
    return row.excluded
