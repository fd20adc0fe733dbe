"""Morphing evaluation metrics over embeddings and latent frame matrices.

Covers the five clip metrics (latent compressibility, correspondence,
intermediateness, directionality, Fréchet distance) plus the rank statistics
used to validate the compressibility score, and a deterministic mock
embedder that stands in for neural encoders in tests and offline runs.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .audio_io import to_mono
from .errors import (
    BothNonpositive,
    ConstantInput,
    DegenerateMatrix,
    DimMismatch,
    LengthMismatch,
    NonFiniteInput,
    NonSymmetric,
    SingleClass,
    TooFewFrames,
    TooFewSamples,
    TooShort,
    ZeroVector,
    check_fields,
)

SIM_FLOOR = 1e-6  # clamp floor applied to similarities before ratio formulas


@dataclass(frozen=True)
class Embedding:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).ravel()
        if v.size < 1 or not np.all(np.isfinite(v)):
            raise ValueError("embedding must be a non-empty finite vector")
        object.__setattr__(self, "values", v)

    @property
    def dim(self):
        return len(self.values)


@dataclass(frozen=True)
class LatentMatrix:
    """T frames by D latent dimensions."""

    data: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.data, dtype=np.float64)
        if m.ndim != 2 or not np.all(np.isfinite(m)):
            raise ValueError("latent matrix must be a finite 2-D array")
        object.__setattr__(self, "data", m)


@dataclass(frozen=True)
class GaussianStats:
    """Finite mean and PSD covariance of embeddings (symmetric within 1e-9, stored symmetrized)."""

    mean: np.ndarray
    covariance: np.ndarray
    count: int = 2

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).ravel()
        cov = np.asarray(self.covariance, dtype=np.float64)
        if len(mean) < 1 or cov.shape != (len(mean), len(mean)):
            raise DimMismatch(f"need D >= 1 and a D x D covariance, got D={len(mean)}, {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise NonFiniteInput("Gaussian stats hold a NaN or infinite value")
        if not np.allclose(cov, cov.T, atol=1e-9):
            raise NonSymmetric("covariance not symmetric within 1e-9")
        cov = 0.5 * (cov + cov.T)
        eig = np.linalg.eigvalsh(cov)
        # MXEB stores float32, whose round-off moves an eigenvalue by <= 2^-24·‖cov‖_F <= D·2^-24·λmax
        if eig[0] < -len(mean) * 2.0 ** -24 * max(eig[-1], 1e-300):
            raise NonSymmetric(f"covariance not PSD: eigenvalue {eig[0]:g}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self):
        return len(self.mean)


@dataclass(frozen=True)
class DirectionalityParams:
    temperature: float = 0.05

    def __post_init__(self):
        check_fields(self)
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


def cosine_sim(a, b):
    """Cosine similarity between two embeddings."""
    if a.dim != b.dim:
        raise DimMismatch(f"dims differ: {a.dim} vs {b.dim}")
    na = np.linalg.norm(a.values)
    nb = np.linalg.norm(b.values)
    if na == 0.0 or nb == 0.0:
        raise ZeroVector("cosine similarity undefined for a zero vector")
    return float(np.dot(a.values, b.values) / (na * nb))


def _clamp_sim(s):
    return min(max(float(s), SIM_FLOOR), 1.0)


def correspondence(sim_x, sim_y):
    """Harmonic mean of the two concept similarities (clamped positive)."""
    a = _clamp_sim(sim_x)
    b = _clamp_sim(sim_y)
    return 2.0 * a * b / (a + b)


def intermediateness(sim_x, sim_y):
    """Balance between concepts: 1 - |simX - simY| / max(simX, simY)."""
    a = _clamp_sim(sim_x)
    b = _clamp_sim(sim_y)
    m = max(a, b)
    if m <= SIM_FLOOR:
        raise BothNonpositive("both similarities at the clamp floor")
    return 1.0 - abs(a - b) / m


def directionality(s_int, s_rev, params=DirectionalityParams()):
    """Softmax preference for the intended prompt, mapped to [-1, 1].

    2*sigmoid(d/T) - 1 == tanh(d/(2T)), which is the numerically stable form.
    """
    return float(math.tanh((s_int - s_rev) / (2.0 * params.temperature)))


def lcs(latents):
    """Latent compressibility: variance fraction of the first two PCs."""
    m = latents.data
    t, d = m.shape
    if t < 3:
        raise TooFewFrames(f"need at least 3 frames, got {t}")
    if d < 3:
        raise TooFewFrames(f"need at least 3 latent dimensions, got {d}")
    centered = m - m.mean(axis=0)
    cov = centered.T @ centered / (t - 1)
    eig = np.linalg.eigvalsh(cov)
    total = float(eig.sum())
    if total <= 0.0:
        raise DegenerateMatrix("all latent dimensions are constant")
    return float((eig[-1] + eig[-2]) / total)


def gaussian_stats(embeddings):
    """Sample mean and covariance (divisor count-1) of a set of embeddings."""
    if len(embeddings) < 2:
        raise TooFewSamples(f"need at least 2 embeddings, got {len(embeddings)}")
    dims = {e.dim for e in embeddings}
    if len(dims) > 1:
        raise DimMismatch(f"mixed embedding dims: {sorted(dims)}")
    x = np.stack([e.values for e in embeddings])
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (len(embeddings) - 1)
    return GaussianStats(mean, cov, count=len(embeddings))


def _psd_sqrt(mat):
    """Square root of a symmetric PSD matrix via eigendecomposition; round-off negatives clipped."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def frechet_distance(a, b):
    """Fréchet distance between two Gaussians (the FAD formula)."""
    if a.dim != b.dim:
        raise DimMismatch(f"dims differ: {a.dim} vs {b.dim}")
    root_a = _psd_sqrt(a.covariance)
    cross = _psd_sqrt(root_a @ b.covariance @ root_a)
    diff = a.mean - b.mean
    d2 = float(diff @ diff + np.trace(a.covariance) + np.trace(b.covariance)
               - 2.0 * np.trace(cross))
    return max(d2, 0.0)


def _ranks(x, what):
    """Average-tie ranks, 1-based, of a 1-D float64 array; NonFiniteInput for NaN or inf."""
    if x.ndim != 1:
        raise LengthMismatch(f"{what} must be 1-D, got shape {x.shape}")
    if not np.isfinite(x).all():  # they would be ranked as ordinary values
        raise NonFiniteInput(f"{what} has a NaN or infinite value")
    _, inv, cnt = np.unique(x, return_inverse=True, return_counts=True)
    # a tie group ends at rank cumsum(cnt); its mean rank lies (cnt - 1) / 2 below that
    return (np.cumsum(cnt) - (cnt - 1) / 2.0)[inv]


def spearman_rho(x, y):
    """Spearman rank correlation: Pearson correlation of average-tie ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LengthMismatch(f"shapes differ: {x.shape} vs {y.shape}")
    rx = _ranks(x, "x")
    ry = _ranks(y, "y")
    if len(x) < 3:
        raise LengthMismatch("need at least 3 points")
    sx = rx.std()
    sy = ry.std()
    if sx == 0.0 or sy == 0.0:
        raise ConstantInput("rank correlation undefined for constant input")
    return float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy))


def roc_auc(scores, labels):
    """Mann-Whitney AUC: P(score_pos > score_neg) + 0.5*P(equal)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise LengthMismatch(f"shapes differ: {scores.shape} vs {labels.shape}")
    ranks = _ranks(scores, "scores")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("both classes must be present")
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


# --- deterministic mock embedder ---

@functools.lru_cache(maxsize=32)
def _mel_filterbank(n_bands, n_bins, sample_rate):
    """Triangular mel filters over rfft bins, rows normalized to unit sum.

    Cached and read-only: every caller shares the returned array.
    """
    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    nyquist = sample_rate / 2.0
    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), n_bands + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_freqs = np.linspace(0.0, nyquist, n_bins)
    fb = np.zeros((n_bands, n_bins))
    for i in range(n_bands):
        lo, mid, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        rise = (bin_freqs - lo) / max(mid - lo, 1e-12)
        fall = (hi - bin_freqs) / max(hi - mid, 1e-12)
        fb[i] = np.clip(np.minimum(rise, fall), 0.0, None)
        s = fb[i].sum()
        if s > 0:
            fb[i] /= s
    fb.setflags(write=False)
    return fb


@functools.lru_cache(maxsize=8)
def _hann(frame):
    """np.hanning(frame), cached and read-only like _mel_filterbank."""
    win = np.hanning(frame)
    win.setflags(write=False)
    return win


_LOG_FLOOR = 1e-10
_FRAME, _HOP = 2048, 512  # STFT frame and hop of the mock embedder, in samples
# Frames per rfft call. A block keeps each intermediate near 128 KB at frame
# 2048; whole-clip batches made the multiply and abs about 3x slower per element.
_STFT_BLOCK = 8


def _logmel_frames(w, n_bands, frame, hop):
    """Log-mel power per frame, (n_frames, n_bands).

    The mel step is a stacked matmul, one matrix-vector product per frame:
    power @ fb.T would sum in another order and move results by ~1e-15.
    """
    x = to_mono(w).data[0].astype(np.float64)
    n_frames = max((len(x) - frame) // hop + 1, 0)
    if n_frames < 1:  # sliding_window_view raises when frame > len(x)
        return np.empty((0, n_bands))
    fb = _mel_filterbank(n_bands, frame // 2 + 1, w.sample_rate)
    win = _hann(frame)
    frames = np.lib.stride_tricks.sliding_window_view(x, frame)[::hop]
    out = np.empty((n_frames, n_bands))
    for s in range(0, n_frames, _STFT_BLOCK):
        power = np.abs(np.fft.rfft(frames[s:s + _STFT_BLOCK] * win, axis=1)) ** 2
        out[s:s + _STFT_BLOCK] = np.matmul(fb, power[:, :, None])[:, :, 0]
    return np.log(out + _LOG_FLOOR)


def mock_embed(w, dim=64, latents=None):
    """Deterministic embedding from log-mel band statistics.

    Not a perceptual model; a reproducible stand-in for neural encoders so
    the metric pipeline can run end to end without external weights.
    latents=mock_latents(w) lends its frames in place of an STFT when they
    are the ones this call takes; the result is the same.
    """
    frame = min(_FRAME, max(w.n_samples, 16))
    hop = min(_HOP, frame)
    n_bands = max(dim // 2, 4)
    n_frames = (w.n_samples - frame) // hop + 1
    if latents is not None and latents.data.shape == (n_frames, n_bands):
        frames = latents.data
    else:
        frames = _logmel_frames(w, n_bands, frame, hop)
    if frames.shape[0] == 0:
        frames = _logmel_frames(w, n_bands, max(w.n_samples // 2, 8), max(w.n_samples // 4, 4))
    if frames.shape[0] == 0:
        frames = np.zeros((1, n_bands))
    feats = np.concatenate([frames.mean(axis=0), frames.std(axis=0)])
    feats = feats - feats.mean()
    norm = np.linalg.norm(feats)
    if norm > 0:
        feats = feats / norm
    else:
        feats = np.full_like(feats, 1.0 / math.sqrt(len(feats)))
    reps = math.ceil(dim / len(feats))
    return Embedding(np.tile(feats, reps)[:dim])


def mock_latents(w, dim=32):
    """Deterministic per-frame log-mel latent matrix (stand-in for codec latents)."""
    if w.n_samples < _FRAME + 2 * _HOP:
        raise TooShort(
            f"need at least {_FRAME + 2 * _HOP} samples for 3 frames, got {w.n_samples}"
        )
    return LatentMatrix(_logmel_frames(w, dim, _FRAME, _HOP))
