"""Seeded synthetic corpora for the three workloads, and a small WAV codec.

The seed decides the signal content, the build pair ids and which concept
pair each eval clip belongs to. Everything that sets the amount of work is
fixed across seeds: sample counts (including one prime length), channel
counts, encodings, the mode of every build pair and the latent frame counts.
So two seeds give different bytes but the same work, and a run-to-run spread
measures the program, not the draw.

The WAV codec here is independent of ``morphmix.audio_io`` so that the inputs
do not change when the program's encoder changes, and so that the output
checker does not trust the decoder it is checking.
"""

import json
import struct
from pathlib import Path

import numpy as np

SR = 48000
ENCODINGS = ("pcm16", "pcm24", "float32")

# build: every mode gets these primary durations. Each gives a 2-3-5-smooth
# sample count at 48 kHz, as round-second recordings do.
# The spectral set swaps its 5 s entry for a prime sample count 7 samples
# longer, the slowest FFT length, so that one pair in 18 has the property and
# the prime metric isolates it.
BUILD_PRIMARY_S = (1.0, 2.5, 4.0, 5.0, 9.0, 12.0)
BUILD_PRIME_SLOT = 3
BUILD_PRIME = 240_007
BUILD_MODES = ("rms", "spectral", "both")
# secondary length relative to its primary: < 1 is looped, > 1 is truncated
BUILD_SECONDARY_RATIO = (0.4, 1.7, 0.75, 1.3)
# embed: clip lengths, all well under 2 s and above mock_latents' 3-frame minimum
EMBED_CLIP_S = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 1.1, 1.25)
# eval: latent frame counts (T) per clip
EVAL_FRAMES = (40, 64, 96, 128, 160, 200)
EVAL_AUDIO_DIM = 64
EVAL_LATENT_DIM = 32


def rng_for(seed, *key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


# --- WAV codec ---

def encode_wav(data, encoding, sample_rate=SR):
    """RIFF/WAVE bytes for a (channels, samples) float array in [-1, 1]."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    channels = data.shape[0]
    frames = data.T.ravel()
    if encoding == "float32":
        tag, bits, payload = 3, 32, frames.astype("<f4").tobytes()
    elif encoding == "pcm16":
        q = np.clip(np.round(frames * 32768.0), -32768, 32767)
        tag, bits, payload = 1, 16, q.astype("<i2").tobytes()
    elif encoding == "pcm24":
        q = np.clip(np.round(frames * 8388608.0), -8388608, 8388607).astype("<i4")
        tag, bits = 1, 24
        payload = q.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, sample_rate, sample_rate * block, block, bits)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload
            + (b"\x00" if len(payload) & 1 else b""))
    return b"RIFF" + struct.pack("<I", len(body)) + body


def decode_wav(blob):
    """(samples as (channels, n) float64, sample_rate); raises ValueError on bad input."""
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    fmt = data = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        payload = blob[pos + 8:pos + 8 + size]
        if len(payload) < size:
            raise ValueError(f"chunk {cid!r} declares {size} bytes, {len(payload)} present")
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", payload)
        elif cid == b"data":
            data = payload
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError("missing fmt or data chunk")
    tag, channels, sample_rate, _, block, bits = fmt
    if len(data) % block:
        raise ValueError(f"data length {len(data)} is not a whole number of frames")
    if (tag, bits) == (3, 32):
        x = np.frombuffer(data, dtype="<f4").astype(np.float64)
    elif (tag, bits) == (1, 16):
        x = np.frombuffer(data, dtype="<i2") / 32768.0
    elif (tag, bits) == (1, 24):
        b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        ints = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        x = np.where(ints >= 1 << 23, ints - (1 << 24), ints) / 8388608.0
    else:
        raise ValueError(f"unsupported format tag {tag} with {bits} bits")
    return x.reshape(-1, channels).T, sample_rate


def synth(rng, n, channels):
    """A few partials plus noise under a slow random envelope, peak 0.5."""
    t = np.arange(n) / SR
    freqs = rng.uniform(80.0, 4000.0, size=3)
    phases = rng.uniform(0.0, 2 * np.pi, size=3)
    x = sum(np.sin(2 * np.pi * f * t + p) for f, p in zip(freqs, phases))
    out = np.empty((channels, n))
    knots = np.arange(0, n + SR // 5, SR // 5)
    for c in range(channels):
        env = np.interp(np.arange(n), knots, rng.uniform(0.05, 1.0, size=len(knots)))
        out[c] = env * (x + rng.standard_normal(n))
    return 0.5 * out / np.max(np.abs(out))


def _write(path, blob, stats):
    Path(path).write_bytes(blob)
    stats["bytes"] += len(blob)


# --- workloads ---

def build_corpus(seed, root, pairs_per_mode=len(BUILD_PRIMARY_S)):
    """Audio files plus pairs.jsonl; pairs interleave the modes, one third each.

    Pair ids are drawn until every mode's quota is filled, using the mode
    the program itself will sample for (seed, id), so each mode always gets
    the same lengths whatever the seed.
    """
    from morphmix import dataset

    root = Path(root)
    (root / "in").mkdir(parents=True)
    dist = dataset.ModeDistribution()
    ids = {m: [] for m in BUILD_MODES}
    k = 0
    while any(len(v) < pairs_per_mode for v in ids.values()):
        pid = f"pair{k:05d}"
        mode = dataset.sample_mode(dataset.pair_rng(seed, pid), dist).value
        if mode in ids and len(ids[mode]) < pairs_per_mode:
            ids[mode].append(pid)
        k += 1

    stats = {"items": 0, "audio_s": 0.0, "bytes": 0}
    expected = {}
    lines = []
    # longest pairs first, so the two workers finish close together
    for slot in reversed(range(pairs_per_mode)):
        for m_i, mode in enumerate(BUILD_MODES):
            pid = ids[mode][slot]
            j = slot * len(BUILD_MODES) + m_i
            n = round(BUILD_PRIMARY_S[slot] * SR)
            if mode == "spectral" and slot == BUILD_PRIME_SLOT:
                n = BUILD_PRIME
            n_sec = round(n * BUILD_SECONDARY_RATIO[j % len(BUILD_SECONDARY_RATIO)])
            rng = rng_for(seed, j)
            paths = {}
            for role, length, channels, enc in (
                ("p", n, 1 + j % 2, ENCODINGS[j % 3]),
                ("s", n_sec, 1 + (j // 2) % 2, ENCODINGS[(j + 1) % 3]),
            ):
                paths[role] = root / "in" / f"{pid}_{role}.wav"
                _write(paths[role], encode_wav(synth(rng, length, channels), enc), stats)
            labels = (f"sound {j} one", f"sound {j} two")
            lines.append(json.dumps({
                "id": pid, "primary_path": str(paths["p"]), "primary_label": labels[0],
                "secondary_path": str(paths["s"]), "secondary_label": labels[1],
            }))
            expected[pid] = {"n_samples": n, "labels": labels}
            stats["items"] += 1
            stats["audio_s"] += n / SR
    (root / "pairs.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"stats": stats, "pairs": root / "pairs.jsonl", "expected": expected}


def embed_corpus(seed, root, n_clips=300):
    """n_clips short WAVs, mono and stereo, in all three encodings."""
    root = Path(root)
    audio = root / "clips"
    audio.mkdir(parents=True)
    stats = {"items": 0, "audio_s": 0.0, "bytes": 0}
    expected = {}
    for k in range(n_clips):
        n = round(EMBED_CLIP_S[k % len(EMBED_CLIP_S)] * SR)
        cid = f"clip{k:05d}"
        x = synth(rng_for(seed, k), n, 1 + (k // 3) % 2)
        _write(audio / f"{cid}.wav", encode_wav(x, ENCODINGS[k % 3]), stats)
        expected[cid] = n
        stats["items"] += 1
        stats["audio_s"] += n / SR
    return {"stats": stats, "audio_dir": audio, "expected": expected}


def eval_corpus(seed, root, n_clips=1000):
    """A store of audio embeddings, latents, text and prompt embeddings, plus clips.jsonl.

    Text and prompt embeddings are non-negative and each audio embedding is a
    positive blend of its pair's two text embeddings plus noise, so every
    similarity is positive and no clip is excluded.
    """
    from morphmix import evaluate, store
    from morphmix.metrics import GaussianStats

    root = Path(root)
    st = store.EmbeddingStore(root / "store")
    pairs = evaluate.bundled_concept_pairs()
    prompts = evaluate.expand_prompts(pairs)
    rng = rng_for(seed, 0)
    labels = sorted({p.x_label for p in pairs} | {p.y_label for p in pairs})
    text_ids = {label: f"text{i:03d}" for i, label in enumerate(labels)}
    text = {label: np.abs(rng.standard_normal(EVAL_AUDIO_DIM)) for label in labels}
    for label in labels:
        st.put(text_ids[label], text[label][None])
    for i in range(len(prompts)):
        st.put(f"prompt{i:03d}", np.abs(rng.standard_normal((1, EVAL_AUDIO_DIM))))

    lines = []
    for k in range(n_clips):
        p = int(rng.integers(len(pairs)))
        tx, ty = text[pairs[p].x_label], text[pairs[p].y_label]
        a, b = rng.uniform(0.3, 1.0, size=2)
        cid = f"clip{k:05d}"
        st.put(f"{cid}.audio", (a * tx + b * ty + 0.3 * rng.standard_normal(EVAL_AUDIO_DIM))[None])
        frames = EVAL_FRAMES[k % len(EVAL_FRAMES)]
        st.put(f"{cid}.latents", rng.standard_normal((frames, EVAL_LATENT_DIM)))
        lines.append(json.dumps({
            "clip_id": cid, "audio_id": f"{cid}.audio", "latents_id": f"{cid}.latents",
            "text_x_id": text_ids[pairs[p].x_label], "text_y_id": text_ids[pairs[p].y_label],
            "prompt_intended_id": f"prompt{2 * p:03d}",
            "prompt_reversed_id": f"prompt{2 * p + 1:03d}",
        }))
    (root / "clips.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    x = rng.standard_normal((256, EVAL_AUDIO_DIM))
    ref = GaussianStats(x.mean(axis=0), np.cov(x, rowvar=False), count=len(x))
    store.write_gaussian_stats(root / "reference.mxeb", ref)

    files = [f for f in root.rglob("*") if f.is_file()]
    stats = {"items": n_clips, "audio_s": 0.0, "bytes": sum(f.stat().st_size for f in files)}
    return {"stats": stats, "clips": root / "clips.jsonl", "store": root / "store",
            "reference": root / "reference.mxeb", "n_clips": n_clips}


CORPORA = {"build": build_corpus, "embed": embed_corpus, "eval": eval_corpus}
