"""Hot numeric kernels in vectorized numpy, computed in float64."""

import numpy as np

# Always False: there is no compiled path. perfbench/run.py reports it in its environment.
HAVE_NUMBA = False


def frame_rms(x, frame_size, hop, n_frames):
    """Per-frame RMS over windows [k*hop, k*hop+frame_size), zero-padded."""
    x = np.asarray(x)
    # cumulative sum of squares gives each window sum in O(1); windows past
    # the end are zero-padded, so the divisor stays frame_size. The float64
    # squares are written into the sum's own buffer and summed in place.
    n = len(x)
    sq = np.zeros(n + 1)
    np.square(x, out=sq[1:], dtype=np.float64)
    np.cumsum(sq[1:], out=sq[1:])
    starts = np.minimum(np.arange(n_frames) * hop, n)
    stops = np.minimum(starts + frame_size, n)
    return np.sqrt((sq[stops] - sq[starts]) / frame_size)


def _gain_anchors(gains, frame_size, hop, n_samples):
    """Anchor positions/values for per-sample gain interpolation.

    Each frame's gain is anchored at the centroid of the samples it actually
    measures. For interior frames that is the window center; for tail frames
    whose windows run past the signal it is the centroid of the in-signal
    part, which keeps every anchor inside the signal so the final frames'
    gains are really applied to the samples they were measured on.
    """
    starts = np.arange(len(gains), dtype=np.float64) * hop
    ends = np.minimum(starts + frame_size, n_samples)
    xp = (starts + ends - 1.0) / 2.0
    fp = np.asarray(gains, dtype=np.float64)
    if len(gains) >= 2 and ends[-1] - starts[-1] < frame_size:
        # The final frame is zero-padded, so its gain is estimated from few
        # samples and can sit far from its neighbours'. Step to it exactly at
        # the start of its real samples: the energy that gain adds there is
        # precisely what the preceding overlapping frames' targets already
        # account for, whereas ramping toward it would bleed amplified energy
        # into earlier samples and break their re-measured RMS.
        pre = starts[-1] - 0.5
        value = np.interp(pre, xp[:-1], fp[:-1])
        keep = xp[:-1] < pre
        xp = np.concatenate([xp[:-1][keep], [pre, starts[-1]]])
        fp = np.concatenate([fp[:-1][keep], [value, fp[-1]]])
    return xp, fp


def interp_frame_gains(gains, frame_size, hop, n_samples):
    """Expand per-frame gains to per-sample gains by linear interpolation."""
    gains = np.ascontiguousarray(gains, dtype=np.float64)
    xp, fp = _gain_anchors(gains, frame_size, hop, n_samples)
    return np.interp(np.arange(n_samples, dtype=np.float64), xp, fp)


def moving_average(x, window):
    """Centered moving average of odd width, renormalized at the edges."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if window == 1:
        return x.copy()
    half = window // 2
    n = len(x)
    cs = np.zeros(n + 1)
    np.cumsum(x, out=cs[1:])
    if n <= 2 * half:
        return _truncated_mean(cs, np.arange(n), half, n)
    # full windows in the interior are plain slices; only the two edge runs
    # of `half` samples have truncated windows and need index arithmetic
    out = np.empty(n)
    interior = out[half:n - half]
    np.subtract(cs[window:], cs[:n + 1 - window], out=interior)
    interior /= window
    out[:half] = _truncated_mean(cs, np.arange(half), half, n)
    out[n - half:] = _truncated_mean(cs, np.arange(n - half, n), half, n)
    return out


def _truncated_mean(cs, idx, half, n):
    """Means at positions idx over windows clipped to [0, n), from cumulative sums cs."""
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    return (cs[hi] - cs[lo]) / (hi - lo)
