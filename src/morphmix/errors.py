"""Exception hierarchy shared across the package, the id and record field checks,
and the whole-file read and atomic write behind IoFailure."""

import contextlib
import dataclasses
import io
import math
import os


class MorphmixError(Exception):
    """Base class for all morphmix errors."""


# --- audio I/O ---

class MalformedHeader(MorphmixError):
    """File is not a RIFF/WAVE container."""


class UnsupportedEncoding(MorphmixError):
    """WAV encoding outside PCM 16/24-bit or IEEE-float 32-bit, or >2 channels."""


class TruncatedData(MorphmixError):
    """Data chunk shorter than its declared size."""


class IoFailure(MorphmixError):
    """Underlying file read or write failed."""


class InvalidWaveform(MorphmixError):
    """Waveform samples not a 1-D or 2-D array, or a sample rate that is not positive."""


class NonFiniteInput(MorphmixError):
    """Input holds a NaN or infinite value."""


# --- DSP ---

class EmptyInput(MorphmixError):
    """Operation requires a non-empty input."""


class SilentPrimary(MorphmixError):
    """Primary RMS below the epsilon floor; equal-power scaling undefined."""


class SilentSecondary(MorphmixError):
    """Secondary RMS below the epsilon floor; equal-power scaling undefined."""


class LengthMismatch(MorphmixError):
    """Sequences expected to have equal length differ."""


class SizeMismatch(MorphmixError):
    """EQ curve FFT size does not match the signal length."""


class SampleRateMismatch(MorphmixError):
    """Waveforms with different sample rates cannot be combined."""


# --- dataset builder ---

class InvalidDistribution(MorphmixError):
    """Mode probabilities invalid (negative or not summing to 1)."""


class EmptyLabel(MorphmixError):
    """Caption labels must be non-empty."""


# --- metrics ---

class ZeroVector(MorphmixError):
    """Cosine similarity undefined for a zero vector."""


class DimMismatch(MorphmixError):
    """Embedding dimensions differ."""


class BothNonpositive(MorphmixError):
    """Both similarities at or below the clamp floor; comparison meaningless."""


class DegenerateMatrix(MorphmixError):
    """Latent matrix has zero total variance."""


class TooFewFrames(MorphmixError):
    """Latent matrix too small for PCA (needs T >= 3, D >= 3)."""


class TooFewSamples(MorphmixError):
    """Gaussian statistics need at least two embeddings."""


class NonSymmetric(MorphmixError):
    """Covariance not symmetric PSD within tolerance."""


class ConstantInput(MorphmixError):
    """Rank correlation undefined for a constant sequence."""


class SingleClass(MorphmixError):
    """ROC-AUC needs both positive and negative labels."""


class TooShort(MorphmixError):
    """Signal too short to produce the minimum number of frames."""


# --- store / evaluator ---

class BadFormat(MorphmixError):
    """MXEB file malformed."""


class MissingEmbedding(MorphmixError):
    """Embedding store has no entry for a requested id."""


class BadId(MorphmixError):
    """A pair or store id that cannot name one file, or a repeated pair id."""


def check_id(entry_id):
    """Raise BadId unless str(entry_id), the stem of its file, is one path component
    that the file system can encode.

    String tests only: the store calls this on every put. The stems of file
    names that are not UTF-8 (surrogates U+DC80-U+DCFF) encode back to their bytes.
    """
    name = str(entry_id)
    if name in ("", ".", "..") or "/" in name or "\\" in name or "\0" in name:
        raise BadId(f"id {entry_id!r} is not a single path component")
    try:
        os.fsencode(name)
    except UnicodeEncodeError:
        raise BadId(f"id {entry_id!r} cannot name a file") from None


def check_fields(record):
    """TypeError for an int or str field of another type or a bool in an int or float
    field, ValueError for a non-finite float."""
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        # JSON true is not a number
        bool_number = f.type in (int, float) and isinstance(value, bool)
        if bool_number or (f.type in (int, str) and not isinstance(value, f.type)):
            raise TypeError(f"{f.name} must be {f.type.__name__}, got {value!r}")
        if f.type is float and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def read_bytes(path):
    """The bytes of the file at path; IoFailure if it cannot be read."""
    try:
        with io.FileIO(path) as f:  # unbuffered: one read of the whole file
            return f.read()
    except (OSError, ValueError) as e:  # ValueError: a path with a NUL or a lone surrogate
        raise IoFailure(f"{path}: {e}") from e


def write_atomic(path, *chunks):
    """Write the chunks, each bytes-like, in order to <path>.tmp and rename it over path:
    path holds the old file or the new one.

    A failed write or rename removes the temp file and raises IoFailure.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except (OSError, ValueError) as e:  # ValueError: as in read_bytes
        with contextlib.suppress(OSError, ValueError):
            os.unlink(tmp)
        raise IoFailure(f"{path}: {e}") from e
