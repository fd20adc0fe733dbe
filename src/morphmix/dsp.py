"""Surrogate-morph DSP: temporal (RMS anchoring) and spectral augmentation.

All operations are pure functions over immutable Waveforms. Multichannel
waveforms are processed jointly: scalar RMS values pool all channels, the
RMS envelope is measured across channels per frame, and spectral operations
run per channel with a shared target spectrum.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .audio_io import Waveform, _waveform_reports, to_mono
from .errors import (
    LengthMismatch,
    SampleRateMismatch,
    SilentPrimary,
    SilentSecondary,
    SizeMismatch,
    check_fields,
)


class AugmentationMode(enum.Enum):
    RMS_ONLY = "rms"
    SPECTRAL_ONLY = "spectral"
    BOTH = "both"
    NONE = "none"


@dataclass(frozen=True)
class AugmentParams:
    """Tunables for the augmentation pipeline."""

    rms_frame_size: int = 2048
    rms_hop: int = 512
    eq_smooth_window: int = 101
    epsilon: float = 1e-8
    output_peak: float = 0.95

    def __post_init__(self):
        check_fields(self)
        if not (1 <= self.rms_hop <= self.rms_frame_size):
            raise ValueError("need rms_frame_size >= rms_hop >= 1")
        if self.eq_smooth_window < 1 or self.eq_smooth_window % 2 == 0:
            raise ValueError("eq_smooth_window must be odd and >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not (0 < self.output_peak <= 1):
            raise ValueError("output_peak must be in (0, 1]")


@dataclass(frozen=True)
class RmsEnvelope:
    """Framed RMS contour; frame k covers samples [k*hop, k*hop+frame_size)."""

    frame_rms: np.ndarray
    frame_size: int
    hop: int
    source_length: int

    def __post_init__(self):
        object.__setattr__(self, "frame_rms", np.asarray(self.frame_rms, dtype=np.float64))


@dataclass(frozen=True)
class EqCurve:
    """Per-bin gain mask for a length-fft_size real FFT (fft_size//2+1 bins)."""

    gains: np.ndarray
    fft_size: int

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=np.float64)
        object.__setattr__(self, "gains", gains)
        if len(gains) != self.fft_size // 2 + 1:
            raise ValueError(
                f"expected {self.fft_size // 2 + 1} gains for fft_size {self.fft_size}, "
                f"got {len(gains)}"
            )


def full_rms(w):
    """RMS over every sample of every channel."""
    return float(np.sqrt(np.mean(np.square(w.data, dtype=np.float64))))


def loop_or_truncate(w, target_len):
    """Force a waveform to target_len samples: slice if longer, tile if shorter."""
    if target_len < 1:
        raise ValueError("target_len must be >= 1")
    n = w.n_samples
    if n == target_len:
        return w
    if n > target_len:
        return Waveform(w.data[:, :target_len], w.sample_rate)
    reps = math.ceil(target_len / n)
    return Waveform(np.tile(w.data, (1, reps))[:, :target_len], w.sample_rate)


def _float32(ufunc, x, y):
    """ufunc(x, y) in float64, rounded once into a new float32 array of the broadcast shape."""
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)), np.float32)
    return ufunc(x, y, out=out, dtype=np.float64)


@_waveform_reports
def equal_power_mix(primary, secondary, epsilon=1e-8):
    """Sum primary with secondary rescaled to the primary's full-clip RMS (0 dB SNR)."""
    _check_compatible(primary, secondary)
    matched = np.multiply(secondary.data, _power_gain(primary, secondary, epsilon),
                          dtype=np.float64)
    return Waveform(_float32(np.add, primary.data, matched), primary.sample_rate)


def _power_gain(primary, secondary, epsilon):
    """The gain that brings the secondary to the primary's full-clip RMS."""
    rp = full_rms(primary)
    rs = full_rms(secondary)
    if rp < epsilon:
        raise SilentPrimary(f"primary RMS {rp:g} below epsilon {epsilon:g}")
    if rs < epsilon:
        raise SilentSecondary(f"secondary RMS {rs:g} below epsilon {epsilon:g}")
    return rp / rs


def rms_envelope(w, frame_size, hop):
    """Framed RMS of a waveform; windows past the end are zero-padded."""
    n_frames = math.ceil(w.n_samples / hop)
    # pool channels: per-frame mean square averages over channels too
    if w.n_channels == 1:
        vals = kernels.frame_rms(w.data[0], frame_size, hop, n_frames)
    else:
        sq = np.mean(np.square(w.data, dtype=np.float64), axis=0)
        np.sqrt(sq, out=sq)
        # frame_rms squares its input, so feed the per-sample cross-channel RMS
        vals = kernels.frame_rms(sq, frame_size, hop, n_frames)
    return RmsEnvelope(vals, frame_size, hop, w.n_samples)


@_waveform_reports
def apply_rms_envelope(target, w, epsilon=1e-8):
    """Rescale w frame-by-frame so its RMS envelope follows the target.

    Per-frame gains target/(self+epsilon) are linearly interpolated between
    frame centers to avoid stepwise gain jumps.
    """
    if target.source_length != w.n_samples:
        raise LengthMismatch(
            f"envelope measured over {target.source_length} samples, waveform has {w.n_samples}"
        )
    own = rms_envelope(w, target.frame_size, target.hop)
    gains = target.frame_rms / (own.frame_rms + epsilon)
    per_sample = kernels.interp_frame_gains(gains, target.frame_size, target.hop, w.n_samples)
    return Waveform(_float32(np.multiply, w.data, per_sample), w.sample_rate)


def spectral_target(mag1, mag2):
    """Averaged magnitude spectrum: 0.5*mag1 + 0.5*mag2."""
    mag1 = np.asarray(mag1, dtype=np.float64)
    mag2 = np.asarray(mag2, dtype=np.float64)
    if mag1.shape != mag2.shape:
        raise LengthMismatch(f"magnitude shapes differ: {mag1.shape} vs {mag2.shape}")
    return 0.5 * mag1 + 0.5 * mag2


def eq_curve(target_mag, source_mag, smooth_window=101, epsilon=1e-8, *, fft_size):
    """Per-bin gain target/(source+epsilon), smoothed by a centered moving average.

    fft_size is the length of the signal the curve filters: an odd length
    has the same number of bins as the even length below it.
    """
    target_mag = np.asarray(target_mag, dtype=np.float64)
    source_mag = np.asarray(source_mag, dtype=np.float64)
    if target_mag.shape != source_mag.shape:
        raise LengthMismatch(f"magnitude shapes differ: {target_mag.shape} vs {source_mag.shape}")
    if smooth_window < 1 or smooth_window % 2 == 0:
        raise ValueError("smooth_window must be odd and >= 1")
    raw = target_mag / (source_mag + epsilon)
    smoothed = kernels.moving_average(raw, smooth_window)
    return EqCurve(smoothed, fft_size=fft_size)


@_waveform_reports
def apply_eq(w, curve):
    """Filter by multiplying each FFT bin's magnitude by its gain, phase untouched."""
    if curve.fft_size != w.n_samples:
        raise SizeMismatch(f"curve fft_size {curve.fft_size} != signal length {w.n_samples}")
    spec = _spectrum(w) * curve.gains
    return Waveform(np.fft.irfft(spec, n=curve.fft_size, axis=1), w.sample_rate)


def _spectrum(w):
    return np.fft.rfft(w.data.astype(np.float64), axis=1)


# numpy's FFT of a length whose largest prime factor p has p*p > n runs
# Bluestein's algorithm on a complex copy, so one complex transform costs
# about one rfft there. p must also exceed 500: below it pocketfft often
# factors n directly (4097 = 17*241), and one complex FFT took 0.44-1.9x the
# time of two rffts; above it, about half (0.39-0.76x) on every length
# measured between 4,800 and 600,000 samples (numpy 2.4.6, 2 vCPU).
_BLUESTEIN_MIN_PRIME = 500


def _is_bluestein_length(n):
    """Whether n's largest prime factor p has p*p > n and p > _BLUESTEIN_MIN_PRIME."""
    p, d = n, 2
    while d * d <= p:
        if p % d:
            d += 1
        else:
            p //= d
    return p > _BLUESTEIN_MIN_PRIME and p * p > n


def _spectra(w1, w2):
    """Both signals' float64 rffts; at a Bluestein length, from one complex FFT.

    z = x1 + i*x2 has Z[k] = X1[k] + i*X2[k], and a real signal's spectrum has
    X[-k] = conj X[k], so X1[k] = (Z[k] + conj Z[-k])/2 and
    X2[k] = (Z[k] - conj Z[-k])/(2i). A mono w2 is broadcast across w1's
    channels, so both spectra then have w1's channel count.
    """
    n = w1.n_samples
    if not _is_bluestein_length(n):
        return _spectrum(w1), _spectrum(w2)
    z = np.empty(w1.data.shape, np.complex128)
    z.real = w1.data
    z.imag = w2.data
    z = np.fft.fft(z, axis=1)
    m = n // 2 + 1
    head = z[:, :m]
    spec2 = np.empty_like(head)  # conj Z[-k] until it becomes X2
    spec2[:, 0] = z[:, 0]
    spec2[:, 1:] = z[:, :n - m:-1]
    np.conjugate(spec2, out=spec2)
    spec1 = head + spec2
    spec1 /= 2
    np.subtract(head, spec2, out=spec2)
    del z, head
    spec2 /= 2j
    return spec1, spec2


@_waveform_reports
def spectral_interpolate(w1, w2, params=AugmentParams()):
    """Filter both signals toward their averaged magnitude spectrum and sum.

    w2 is mono or has w1's channels; the output has w1's channels.
    """
    _check_compatible(w1, w2)
    if w2.n_channels not in (1, w1.n_channels):  # the output has w1's channels
        raise ValueError(f"{w2.n_channels} channels cannot be summed into {w1.n_channels}")
    n = w1.n_samples
    # each input's spectrum: its pooled magnitudes set the curves, then it is filtered
    spec1, spec2 = _spectra(w1, w2)
    mag1 = np.abs(spec1).mean(axis=0)
    mag2 = np.abs(spec2).mean(axis=0)
    target = spectral_target(mag1, mag2)
    # each array is dropped once used, so no dead spectrum, magnitude or curve
    # is held through the later stages; the filtered spectra are summed in place
    spec2 *= eq_curve(target, mag2, params.eq_smooth_window, params.epsilon, fft_size=n).gains
    del mag2
    spec1 *= eq_curve(target, mag1, params.eq_smooth_window, params.epsilon, fft_size=n).gains
    del mag1, target
    spec1 += spec2
    del spec2
    out = np.fft.irfft(spec1, n=n, axis=1)
    del spec1
    return Waveform(out, w1.sample_rate)


def peak_normalize(w, peak):
    """Scale down so the absolute peak does not exceed `peak`; never scales up."""
    m = float(max(w.data.max(), -w.data.min()))
    if m <= peak or m == 0.0:
        return w
    return Waveform(_float32(np.multiply, w.data, peak / m), w.sample_rate)


@_waveform_reports
def augment_pair(primary, secondary, mode, params=AugmentParams()):
    """Render one surrogate morph from a (primary, secondary) pair.

    The secondary is first looped or truncated to the primary's length, and
    downmixed to mono if it has more channels than the primary. The mode then
    picks two stages: the secondary's timbre enters through spectral
    interpolation (spectral, both) or a plain equal-power mix (none, rms), and
    the result is then RMS-anchored to the primary's envelope (rms, both).
    """
    if not isinstance(mode, AugmentationMode):
        raise ValueError(f"unknown mode {mode!r}")
    secondary = loop_or_truncate(secondary, primary.n_samples)
    if secondary.n_channels > primary.n_channels:  # the output has the primary's channels
        secondary = to_mono(secondary)
    _check_compatible(primary, secondary)  # before _power_gain: a rate mismatch is not silence

    if mode in (AugmentationMode.SPECTRAL_ONLY, AugmentationMode.BOTH):
        # the power-matched copy replaces the looped one
        gain = _power_gain(primary, secondary, params.epsilon)
        secondary = Waveform(_float32(np.multiply, secondary.data, gain), secondary.sample_rate)
        out = spectral_interpolate(primary, secondary, params)
    else:
        out = equal_power_mix(primary, secondary, params.epsilon)
    del secondary  # often a looped copy: free it before the envelope stage
    if mode in (AugmentationMode.RMS_ONLY, AugmentationMode.BOTH):
        out = apply_rms_envelope(
            rms_envelope(primary, params.rms_frame_size, params.rms_hop), out, params.epsilon)
    return peak_normalize(out, params.output_peak)


def _check_compatible(a, b):
    if a.n_samples != b.n_samples:
        raise LengthMismatch(f"lengths differ: {a.n_samples} vs {b.n_samples}")
    if a.sample_rate != b.sample_rate:
        raise SampleRateMismatch(
            f"{a.sample_rate} Hz vs {b.sample_rate} Hz; resampling is not performed")
