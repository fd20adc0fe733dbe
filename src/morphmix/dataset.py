"""Dataset builder: mode sampling, captions, timestep windows, manifests.

Reproducibility contract: the build output is a pure function of
(inputs, seed). Every pair gets its own PCG64 generator seeded from
SHA-256(seed, pair id), so the amount of parallelism cannot perturb the
draw sequence of any pair.
"""

import dataclasses
import hashlib
import io
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import load_wav, save_wav, to_mono
from .dsp import AugmentationMode, AugmentParams, augment_pair
from .errors import (BadId, EmptyLabel, InvalidDistribution, MorphmixError, check_fields,
                     check_id, make_dirs, read_bytes, write_atomic)

CAPTION_TEMPLATES = {
    AugmentationMode.RMS_ONLY: "The behavior of {x} with textures from {x} and {y}",
    AugmentationMode.SPECTRAL_ONLY: "A spectral blend of {x} and {y}",
    AugmentationMode.BOTH: "The behavior of {x} with a spectral blend of {x} and {y}",
    AugmentationMode.NONE: "A mix of {x} and {y}",
}


@dataclass(frozen=True)
class PairSpec:
    id: str
    primary_path: str
    primary_label: str
    secondary_path: str
    secondary_label: str


@dataclass(frozen=True)
class ModeDistribution:
    """Probability per augmentation mode.

    Each field is named after an AugmentationMode value; sample_mode draws
    over the fields in the order they are declared here.
    """

    rms: float = 1 / 3
    spectral: float = 1 / 3
    both: float = 1 / 3
    none: float = 0.0

    def __post_init__(self):
        check_fields(self)
        probs = dataclasses.astuple(self)
        if any(p < 0 for p in probs):
            raise InvalidDistribution(f"negative probability in {probs}")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise InvalidDistribution(f"probabilities sum to {sum(probs)!r}, expected 1")


@dataclass(frozen=True)
class TimestepWindow:
    """Diffusion timestep range the surrogate examples are allocated to."""

    t_start: float = 0.5
    t_end: float = 1.0

    def __post_init__(self):
        check_fields(self)
        if not (0.0 <= self.t_start < self.t_end <= 1.0):
            raise ValueError(f"need 0 <= t_start < t_end <= 1, got [{self.t_start}, {self.t_end}]")


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    audio_path: str
    mode: AugmentationMode
    caption: str
    window: TimestepWindow
    primary_label: str
    secondary_label: str
    params: AugmentParams
    seed: int
    error: str = ""

    @property
    def failed(self):
        return bool(self.error)

    def to_dict(self):
        return {**dataclasses.asdict(self), "mode": self.mode.value}

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; keys that are not fields are ignored, a missing error is ""."""
        kw = {f.name: d[f.name] for f in dataclasses.fields(cls) if f.name in d}
        kw.update(mode=AugmentationMode(d["mode"]), window=TimestepWindow(**d["window"]),
                  params=AugmentParams(**d["params"]))
        return cls(**kw)


def pair_seed(seed, pair_id):
    """Derive a per-pair sub-seed by hashing (seed, pair id)."""
    digest = hashlib.sha256(f"{seed}:{pair_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def pair_rng(seed, pair_id):
    return np.random.Generator(np.random.PCG64(pair_seed(seed, pair_id)))


def sample_mode(rng, dist):
    """Draw a mode by inverse CDF over dist's fields, in the order they are declared."""
    u = rng.random()
    acc = 0.0
    for name, p in dataclasses.asdict(dist).items():
        acc += p
        if p > 0:
            last = name
        if u < acc:
            return AugmentationMode(name)
    # u landed in the rounding gap above the sum: the last mode that can be drawn
    return AugmentationMode(last)


def caption_for(mode, x, y):
    """Render the caption template for a mode with concept labels X and Y."""
    if not x or not y:
        raise EmptyLabel("caption labels must be non-empty")
    return CAPTION_TEMPLATES[mode].format(x=x, y=y)


def sample_training_timestep(rng, entry):
    """Draw the diffusion timestep this example would train at: uniform in its window."""
    w = entry.window
    return float(w.t_start + (w.t_end - w.t_start) * rng.random())


def read_jsonl(path):
    """The objects of a JSON-lines file, one per non-blank line: IoFailure if the file
    cannot be read, ValueError naming path:line for a line that is not a JSON object."""
    # newline=None: a \r or \r\n ends a line, as in a file opened as text, but U+2028 does not
    lines = io.StringIO(read_bytes(path).decode("utf-8"), newline=None)
    records = []
    for n, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as e:
            raise ValueError(f"{path}:{n}: {e}") from e
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{n}: not a JSON object")
        records.append(record)
    return records


def load_pairs(path):
    """Read a JSON-lines file of PairSpec objects; check_pair_ids checks their fields."""
    return [PairSpec(**d) for d in read_jsonl(path)]


def check_pair_ids(pairs):
    """Raise TypeError for an audio path that is neither a str nor os.PathLike, BadId
    for a pair id that is not a string or an int, is not one path component, is
    not UTF-8 text or repeats, and EmptyLabel for a label that is not a non-empty
    string.

    Each id names audio/<id>.wav, so a repeated id would overwrite an
    earlier pair's WAV and a path id would write outside audio/; an int
    audio path would be opened, and closed, as a file descriptor.
    """
    seen = set()
    for pair in pairs:
        if not all(isinstance(p, (str, os.PathLike))
                   for p in (pair.primary_path, pair.secondary_path)):
            raise TypeError(f"pair {pair.id!r}: audio paths must be strings or os.PathLike")
        if isinstance(pair.id, bool) or not isinstance(pair.id, (str, int)):
            raise BadId(f"pair id {pair.id!r} is not a string or an integer")
        check_id(pair.id)
        try:
            str(pair.id).encode("utf-8")  # pair_seed hashes these bytes
        except UnicodeEncodeError:
            raise BadId(f"pair id {pair.id!r} is not UTF-8 text") from None
        for label in (pair.primary_label, pair.secondary_label):
            if not (isinstance(label, str) and label):
                raise EmptyLabel(f"pair {pair.id!r}: label {label!r} is not a non-empty string")
        if str(pair.id) in seen:  # ids 5 and "5" both name audio/5.wav
            raise BadId(f"pair id {pair.id!r} appears more than once")
        seen.add(str(pair.id))


def _build_one(pair, dist, window, params, seed, audio_dir):
    mode = sample_mode(pair_rng(seed, pair.id), dist)
    caption = caption_for(mode, pair.primary_label, pair.secondary_label)
    # manifest paths are relative to out_dir so reruns into different
    # directories stay byte-identical and the dataset is relocatable
    out_path = audio_dir / f"{pair.id}.wav"
    rel_path = f"audio/{pair.id}.wav"
    try:
        primary = to_mono(load_wav(pair.primary_path))
        secondary = to_mono(load_wav(pair.secondary_path))
        rendered = augment_pair(primary, secondary, mode, params)
        save_wav(rendered, out_path, bit_depth=32)
        error = ""
    except MorphmixError as e:
        error = f"{type(e).__name__}: {e}"
    return ManifestEntry(
        id=pair.id,
        audio_path=rel_path if not error else "",
        mode=mode,
        caption=caption,
        window=window,
        primary_label=pair.primary_label,
        secondary_label=pair.secondary_label,
        params=params,
        seed=pair_seed(seed, pair.id),
        error=error,
    )


def build_dataset(pairs, dist, window, params, seed, out_dir, jobs=1):
    """Render every pair and write manifest.jsonl plus audio/<id>.wav.

    Failed pairs become manifest entries with an error field; the build
    continues. Manifest order always matches input order. jobs (>= 1) is
    the number of worker threads. Bad pair ids and labels raise before
    anything is written; a manifest that cannot be written raises IoFailure and
    leaves the previous one in place.
    """
    check_pair_ids(pairs)
    out_dir = Path(out_dir)
    audio_dir = out_dir / "audio"
    make_dirs(audio_dir)

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        entries = list(pool.map(
            lambda p: _build_one(p, dist, window, params, seed, audio_dir), pairs))

    manifest = "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in entries)
    write_atomic(out_dir / "manifest.jsonl", manifest.encode("utf-8"))
    return entries


def load_manifest(path):
    return [ManifestEntry.from_dict(d) for d in read_jsonl(path)]
