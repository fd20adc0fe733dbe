"""Exception hierarchy shared across the package, the id and record checks, and the
package's only file-system calls: the whole-file reads, the atomic write and the
directory make behind IoFailure."""

import contextlib
import dataclasses
import io
import math
import numbers
import os
import sys
from pathlib import Path


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
    """A malformed input file or record, named by its path (and line), or not UTF-8 text."""


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
    """TypeError for an int, str or float field of another type (a bool is none of them;
    any real is a float), ValueError for a NaN, infinite or too large float field."""
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        kind = numbers.Real if f.type is float else f.type
        if f.type in (int, str, float) and (isinstance(value, bool) or not isinstance(value, kind)):
            raise TypeError(f"{f.name} must be {f.type.__name__}, got {value!r}")
        big = isinstance(value, int) and abs(value) > sys.float_info.max  # isfinite overflows
        if f.type is float and (big or not math.isfinite(value)):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def record(where, make, /, *args, **fields):
    """make(*args, **fields), such as a record that checks itself or parsed JSON; its
    TypeError, ValueError or MorphmixError becomes BadFormat naming where it came from."""
    try:
        return make(*args, **fields)
    except (TypeError, ValueError, MorphmixError) as e:
        raise BadFormat(f"{where}: {e}") from e


def read_bytes(path):
    """The bytes of the file at path; IoFailure if it cannot be read."""
    try:
        # unbuffered: one read of the whole file; a str path, so a message names it as text
        with io.FileIO(os.fspath(path)) as f:
            return f.read()
    except (OSError, ValueError) as e:  # ValueError: a path with a NUL or a lone surrogate
        raise IoFailure(f"{path}: {e}") from e


def read_text(path):
    """The UTF-8 text of the file at path; IoFailure if it cannot be read, BadFormat
    naming path if its bytes are not UTF-8."""
    return record(f"{path}: not UTF-8 text", bytes.decode, read_bytes(path), "utf-8")


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


def make_dirs(path):
    """Make the directory path and its parents; IoFailure if one cannot be made."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except FileExistsError:  # with exist_ok, a file or other non-directory is at path
        raise IoFailure(f"not a directory: {path}") from None
    except (OSError, ValueError) as e:  # ValueError: as in read_bytes
        raise IoFailure(f"{path}: {e}") from e
