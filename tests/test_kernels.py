"""Kernel tests: each vectorized kernel against a direct reference path.

The references are a loop over frames (frame RMS), a loop over samples
between gain anchors (gain interpolation) and a mean over each truncated
window (moving average). The moving average is also held bit-equal to the
fancy-indexed cumulative-sum formula it used over every bin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphmix import kernels


def _rms_loop(x, frame, hop, n_frames):
    padded = np.concatenate([x, np.zeros(frame + n_frames * hop)])
    return np.array([np.sqrt(np.mean(padded[k * hop:k * hop + frame] ** 2))
                     for k in range(n_frames)])


def _interp_loop(xp, fp, n_samples):
    out = np.empty(n_samples)
    seg = 0
    for t in range(n_samples):
        if t <= xp[0]:
            out[t] = fp[0]
        elif t >= xp[-1]:
            out[t] = fp[-1]
        else:
            while xp[seg + 1] < t:
                seg += 1
            frac = (t - xp[seg]) / (xp[seg + 1] - xp[seg])
            out[t] = fp[seg] * (1.0 - frac) + fp[seg + 1] * frac
    return out


@pytest.mark.parametrize("n,frame,hop", [(1000, 64, 16), (100, 256, 256), (5, 8, 2)])
def test_frame_rms_paths_agree(rng, n, frame, hop):
    x = rng.normal(size=n)
    n_frames = -(-n // hop)
    got = kernels.frame_rms(x, frame, hop, n_frames)
    assert np.allclose(got, _rms_loop(x, frame, hop, n_frames), rtol=1e-12)
    # frames that start past the end read 0
    past = kernels.frame_rms(x, frame, hop, n_frames + 3)
    assert np.array_equal(past[:n_frames], got)
    assert np.array_equal(past[n_frames:], np.zeros(3))


def test_frame_rms_direct_loop_oracle(rng):
    x = rng.normal(size=333)
    frame, hop = 32, 8
    n_frames = -(-333 // hop)
    got = kernels.frame_rms(x, frame, hop, n_frames)
    padded = np.concatenate([x, np.zeros(frame)])
    expect = [np.sqrt(np.mean(padded[k * hop:k * hop + frame] ** 2)) for k in range(n_frames)]
    assert np.allclose(got, expect, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2000),
    hop=st.integers(1, 64),
    extra=st.integers(0, 256),
    frames_past=st.integers(-5, 5),
)
def test_frame_rms_matches_direct_loop_property(seed, n, hop, extra, frames_past):
    frame = hop + extra
    n_frames = max(-(-n // hop) + frames_past, 0)
    x = np.random.default_rng(seed).normal(size=n)
    got = kernels.frame_rms(x, frame, hop, n_frames)
    expect = _rms_loop(x, frame, hop, n_frames)
    assert got.shape == (n_frames,)
    # the two sides differ only in summation order: the cumulative sums carry
    # a rounding error of at most n * eps times the total energy
    atol = 4 * n * np.finfo(np.float64).eps * float(np.sum(x * x))
    assert np.allclose(frame * got ** 2, frame * expect ** 2, rtol=1e-12, atol=atol)
    starts_past = np.arange(n_frames) * hop >= n
    assert np.array_equal(got[starts_past], np.zeros(int(starts_past.sum())))


@pytest.mark.parametrize("n_frames", [1, 2, 10])
def test_interp_gains_paths_agree(rng, n_frames):
    gains = rng.uniform(0.1, 3.0, n_frames)
    xp, fp = kernels._gain_anchors(gains, 64, 16, 200)
    got = kernels.interp_frame_gains(gains, 64, 16, 200)
    assert np.array_equal(got, np.interp(np.arange(200), xp, fp))
    assert np.allclose(got, _interp_loop(xp, fp, 200), rtol=1e-12)


def test_interp_gains_matches_np_interp_oracle(rng):
    gains = rng.uniform(0.1, 3.0, 12)
    frame, hop, n = 64, 16, 300
    got = kernels.interp_frame_gains(gains, frame, hop, n)
    xp, fp = kernels._gain_anchors(gains, frame, hop, n)
    assert np.allclose(got, np.interp(np.arange(n), xp, fp), rtol=1e-12)


def test_interp_gains_endpoints(rng):
    gains = np.array([2.0, 4.0])
    out = kernels.interp_frame_gains(gains, 4, 4, 16)
    assert out[0] == 2.0  # before first frame center: constant extrapolation
    assert out[-1] == 4.0


def test_interp_gains_tail_reaches_final_gain():
    # the final frame's gain must actually be applied at the signal end,
    # even when its center lies beyond the last sample
    gains = np.array([1.0, 1.0, 5.0])
    out = kernels.interp_frame_gains(gains, 8, 4, 12)
    assert out[-1] == pytest.approx(5.0)


@pytest.mark.parametrize("window", [1, 3, 7, 101])
def test_moving_average_paths_agree(rng, window):
    x = rng.normal(size=250)
    half = window // 2
    expect = [np.mean(x[max(i - half, 0):i + half + 1]) for i in range(len(x))]
    assert np.allclose(kernels.moving_average(x, window), expect, rtol=1e-12, atol=1e-12)


def test_moving_average_edge_renormalization():
    got = kernels.moving_average(np.array([1.0, 4.0, 1.0, 1.0]), 3)
    assert np.allclose(got, [2.5, 2.0, 2.0, 1.0])


def _moving_average_fancy(x, window):
    """The fancy-indexed formula moving_average used over every bin."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if window == 1:
        return x.copy()
    half = window // 2
    n = len(x)
    cs = np.zeros(n + 1)
    np.cumsum(x, out=cs[1:])
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    return (cs[hi] - cs[lo]) / (hi - lo)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_moving_average_bit_equal_to_fancy_indexed_formula(data, n, seed):
    # odd windows up to 2n+3, so windows wider than the signal are covered
    window = 2 * data.draw(st.integers(0, n + 1)) + 1
    x = np.random.default_rng(seed).normal(size=n)
    got = kernels.moving_average(x, window)
    assert np.array_equal(got, _moving_average_fancy(x, window)), (n, window)
