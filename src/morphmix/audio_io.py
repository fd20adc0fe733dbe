"""RIFF/WAVE reading and writing with uniform float32 samples.

Supports PCM 16-bit, PCM 24-bit and IEEE-float 32-bit, mono or stereo,
under their own format tags or WAVE_FORMAT_EXTENSIBLE. Integer PCM is scaled
by 2^(bits-1) so integer files round-trip exactly.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInput,
    InvalidWaveform,
    MalformedHeader,
    MorphmixError,
    NonFiniteInput,
    TruncatedData,
    UnsupportedEncoding,
    read_bytes,
    write_atomic,
)

_FMT_PCM = 1
_FMT_IEEE_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE
# an extensible SubFormat GUID is a uint32 format tag followed by these 12 bytes
_KSDATAFORMAT_TAIL = bytes.fromhex("0000 1000 8000 00aa00389b71")
_PCM24 = np.dtype([("lo", "<u2"), ("hi", "i1")])


@dataclass(frozen=True)
class Waveform:
    """Decoded audio: (channels, samples) float32 array plus sample rate.

    It holds at least one sample (EmptyInput) and only finite ones (NonFiniteInput);
    each stage of a mix returns a new Waveform, so an overflow fails where it happens.
    """

    data: np.ndarray  # shape (n_channels, n_samples), float32
    sample_rate: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim == 1:
            data = data[np.newaxis, :]
        if data.ndim != 2:
            raise InvalidWaveform(f"expected 1-D or 2-D sample array, got ndim={data.ndim}")
        if data.size == 0:
            raise EmptyInput("waveform has no samples")
        if not np.isfinite(data).all():
            raise NonFiniteInput("waveform has a non-finite sample")
        data = np.ascontiguousarray(data)
        if data.base is not None:
            # a view: its base could still be written through another reference,
            # and results derived from a Waveform (mock_latents frames lent to
            # mock_embed) are only valid while its samples stay the same
            data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        if self.sample_rate <= 0:
            raise InvalidWaveform(f"sample_rate must be positive, got {self.sample_rate}")

    @property
    def n_channels(self):
        return self.data.shape[0]

    @property
    def n_samples(self):
        return self.data.shape[1]


def _read_chunks(blob):
    """Yield (chunk_id, declared size, payload) from the body of a RIFF file.

    blob is a memoryview, so each payload is a view of the file's bytes, not
    a copy. The payload is cut short when the blob ends before the declared size.
    """
    pos = 0
    while pos + 8 <= len(blob):
        cid = bytes(blob[pos:pos + 4])
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        payload = blob[pos + 8:pos + 8 + size]
        yield cid, size, payload
        pos += 8 + size + (size & 1)  # chunks are word-aligned


def _extensible_subformat(path, fmt):
    """The format tag named by a WAVE_FORMAT_EXTENSIBLE fmt chunk's SubFormat GUID."""
    if len(fmt) < 40 or struct.unpack_from("<H", fmt, 16)[0] < 22:
        raise MalformedHeader(f"{path}: WAVE_FORMAT_EXTENSIBLE fmt chunk too short")
    (tag,) = struct.unpack_from("<I", fmt, 24)
    if fmt[28:40] != _KSDATAFORMAT_TAIL or tag not in (_FMT_PCM, _FMT_IEEE_FLOAT):
        raise UnsupportedEncoding(f"{path}: extensible SubFormat {fmt[24:40].hex()} not supported")
    return tag


def load_wav(path):
    """Decode a WAV file into a Waveform.

    Raises MalformedHeader, UnsupportedEncoding or TruncatedData on bad input,
    IoFailure if the file cannot be read, and Waveform's errors (EmptyInput,
    NonFiniteInput, InvalidWaveform) with the path in their message.
    """
    raw = read_bytes(path)
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedHeader(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    for cid, size, payload in _read_chunks(memoryview(raw)[12:]):
        if cid == b"fmt " and fmt is None:
            if len(payload) < 16:
                raise MalformedHeader(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", payload, 0)
            if fmt[0] == _FMT_EXTENSIBLE:
                fmt = (_extensible_subformat(path, payload),) + fmt[1:]
        elif cid == b"data" and data is None:
            if len(payload) < size:
                raise TruncatedData(
                    f"{path}: data chunk declares {size} bytes, {len(payload)} present"
                )
            data = payload

    if fmt is None or data is None:
        raise MalformedHeader(f"{path}: missing fmt or data chunk")

    audio_format, n_channels, sample_rate, _, block_align, bits = fmt
    if audio_format not in (_FMT_PCM, _FMT_IEEE_FLOAT):
        raise UnsupportedEncoding(f"{path}: format tag {audio_format} not supported")
    if n_channels not in (1, 2):
        raise UnsupportedEncoding(f"{path}: {n_channels} channels not supported")
    if block_align != n_channels * bits // 8:  # samples are decoded as packed frames
        raise UnsupportedEncoding(f"{path}: block align {block_align} for {n_channels}x{bits} bits")

    # float and 16-bit samples are views of the file's bytes (24-bit ones an
    # int32 array) until they are scaled into the (channels, samples) float32
    # array that the Waveform keeps without another copy; no view of the file's
    # bytes outlives the call
    if audio_format == _FMT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedEncoding(f"{path}: {bits}-bit float not supported")
        samples, scale = np.frombuffer(data, dtype="<f4", count=len(data) // 4), 1.0
    elif bits == 16:
        samples, scale = np.frombuffer(data, dtype="<i2", count=len(data) // 2), 32768.0
    elif bits == 24:
        # a little-endian sample is an unsigned low 16 bits and a signed top byte
        b = np.frombuffer(data, dtype=_PCM24, count=len(data) // 3)
        samples = b["hi"].astype(np.int32)
        samples <<= 16
        samples |= b["lo"]
        scale = float(1 << 23)
    else:
        raise UnsupportedEncoding(f"{path}: {bits}-bit PCM not supported")

    n_frames = len(samples) // n_channels
    frames = samples[:n_frames * n_channels].reshape(n_frames, n_channels)
    out = np.empty((n_channels, n_frames), dtype=np.float32)
    np.divide(frames.T, scale, out=out, dtype=np.float32)
    try:
        return Waveform(out, sample_rate)
    except MorphmixError as e:
        raise type(e)(f"{path}: {e}") from None


def _quantize(x, bits, dtype):
    """Clamp to [-1, 1] and round half away from zero to a C-ordered signed int of dtype."""
    scale = float(1 << (bits - 1))
    # one float64 copy, rounded in place: floor(|y| + 0.5) with y's sign is
    # floor(y + 0.5) for y >= 0 and ceil(y - 0.5) below
    q = x.astype(np.float64, order="C")
    np.clip(q, -1.0, 1.0, out=q)
    q *= scale
    np.abs(q, out=q)
    q += 0.5
    np.floor(q, out=q)
    np.copysign(q, x, out=q)
    np.clip(q, -scale, scale - 1, out=q)
    return q.astype(dtype)


def save_wav(w, path, bit_depth=32):
    """Write a Waveform as WAV. bit_depth 16 or 24 is integer PCM, 32 is IEEE float."""
    if bit_depth not in (16, 24, 32):
        raise ValueError(f"bit_depth must be 16, 24 or 32, got {bit_depth}")

    # the payload is a C-ordered array of interleaved frames, written as it is
    frames = w.data.T  # (n_samples, n_channels)
    if bit_depth == 32:
        payload = np.ascontiguousarray(frames, dtype="<f4")
        fmt_tag = _FMT_IEEE_FLOAT
    elif bit_depth == 16:
        payload = _quantize(frames, 16, "<i2")
        fmt_tag = _FMT_PCM
    else:
        q = _quantize(frames, 24, np.int32).ravel()
        payload = np.empty(len(q), _PCM24)
        payload["lo"] = q & 0xFFFF
        payload["hi"] = q >> 16
        fmt_tag = _FMT_PCM

    n_channels = w.n_channels
    block_align = n_channels * bit_depth // 8
    byte_rate = w.sample_rate * block_align
    pad = payload.nbytes & 1
    # "WAVE", the 8-byte fmt chunk header and its 16 bytes, the data chunk header
    riff_size = 4 + 8 + 16 + 8 + payload.nbytes + pad
    for name, value, limit in (("block align", block_align, 0xFFFF),
                               ("byte rate", byte_rate, 0xFFFFFFFF),
                               ("RIFF size", riff_size, 0xFFFFFFFF)):
        if value > limit:
            raise UnsupportedEncoding(f"{path}: {name} {value} does not fit a WAV header")
    header = (
        b"RIFF" + struct.pack("<I", riff_size) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, fmt_tag, n_channels, w.sample_rate,
                                byte_rate, block_align, bit_depth)
        + b"data" + struct.pack("<I", payload.nbytes)
    )
    write_atomic(path, header, payload, b"\x00" * pad)


def to_mono(w):
    """Average stereo channels to one; mono is returned unchanged."""
    if w.n_channels == 1:
        return w
    mono = w.data.mean(axis=0, dtype=np.float64, keepdims=True)
    return Waveform(mono.astype(np.float32), w.sample_rate)

