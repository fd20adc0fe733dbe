import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphmix import dsp, errors
from morphmix.audio_io import Waveform
from morphmix.dsp import (
    AugmentParams,
    AugmentationMode,
    apply_eq,
    apply_rms_envelope,
    augment_pair,
    eq_curve,
    equal_power_mix,
    full_rms,
    loop_or_truncate,
    rms_envelope,
    spectral_interpolate,
    spectral_target,
)

from conftest import make_wave, random_wave


# --- loop_or_truncate ---

def test_loop_identity():
    w = make_wave([1.0, 2.0, 3.0])
    assert loop_or_truncate(w, 3) is w


def test_loop_tiling():
    w = make_wave([1.0, 2.0, 3.0])
    assert list(loop_or_truncate(w, 7).data[0]) == [1, 2, 3, 1, 2, 3, 1]


def test_truncate_prefix_slice_oracle(rng):
    w = random_wave(rng, 48000)
    got = loop_or_truncate(w, 24000)
    assert np.array_equal(got.data, w.data[:, :24000])


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("target", [24000, 100001])  # a truncation and a tiling
def test_loop_result_shares_no_memory_with_its_input(rng, channels, target):
    # loop_or_truncate passes a slice to Waveform, which copies it
    w = random_wave(rng, 48000, channels=channels)
    got = loop_or_truncate(w, target)
    assert not np.shares_memory(got.data, w.data)
    assert got.data.flags.c_contiguous and not got.data.flags.writeable


def test_loop_empty_raises():
    with pytest.raises(errors.MorphmixError):
        loop_or_truncate(Waveform(np.zeros((1, 0), dtype=np.float32), 48000), 5)


@given(n=st.integers(1, 50), target=st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_loop_length_property(n, target):
    w = make_wave(np.linspace(-0.5, 0.5, n))
    assert loop_or_truncate(w, target).n_samples == target


# --- equal_power_mix ---

def test_mix_identical_doubles():
    w = make_wave([0.1, -0.2, 0.3])
    assert np.allclose(equal_power_mix(w, w).data, 2 * w.data, atol=1e-7)


def test_mix_scale_ratio():
    p = make_wave(np.full(100, 0.5))
    s = make_wave(np.full(100, 0.1))
    mixed = equal_power_mix(p, s)
    # secondary scaled by 5.0 before summing
    assert np.allclose(mixed.data, 0.5 + 0.5, atol=1e-6)


def test_mix_rms_recomputation_oracle(rng):
    for _ in range(20):
        p = random_wave(rng, 2048, amp=rng.uniform(0.05, 0.8))
        s = random_wave(rng, 2048, amp=rng.uniform(0.05, 0.8))
        scaled = mixed = equal_power_mix(p, s)
        residual = mixed.data.astype(np.float64) - p.data
        rp = full_rms(p)
        assert np.sqrt(np.mean(residual ** 2)) == pytest.approx(rp, rel=1e-6)


@pytest.mark.parametrize("p_channels,s_channels", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_mix_broadcasts_channels_like_the_float64_formula(rng, p_channels, s_channels):
    p = random_wave(rng, 1000, channels=p_channels)
    s = random_wave(rng, 1000, amp=0.1, channels=s_channels)
    scaled = s.data.astype(np.float64) * (full_rms(p) / full_rms(s))
    expect = (p.data.astype(np.float64) + scaled).astype(np.float32)
    assert np.array_equal(equal_power_mix(p, s).data, expect)


def test_mix_silent_inputs():
    loud = make_wave(np.full(64, 0.5))
    quiet = make_wave(np.zeros(64))
    with pytest.raises(errors.SilentSecondary):
        equal_power_mix(loud, quiet)
    with pytest.raises(errors.SilentPrimary):
        equal_power_mix(quiet, loud)


# --- rms_envelope ---

def test_envelope_constant_signal():
    w = make_wave(np.full(4096, 0.4))
    env = rms_envelope(w, 1024, 256)
    inner = env.frame_rms[: (4096 - 1024) // 256]
    assert np.allclose(inner, 0.4, atol=1e-6)


def test_envelope_zero_signal():
    env = rms_envelope(make_wave(np.zeros(1000)), 256, 64)
    assert np.all(env.frame_rms == 0)


def test_envelope_frame_count():
    env = rms_envelope(make_wave(np.zeros(1000)), 256, 64)
    assert len(env.frame_rms) == int(np.ceil(1000 / 64))


def test_envelope_direct_window_oracle(rng):
    w = random_wave(rng, 1500)
    env = rms_envelope(w, 200, 70)
    padded = np.concatenate([w.data[0].astype(np.float64), np.zeros(200)])
    for k, val in enumerate(env.frame_rms):
        expect = np.sqrt(np.mean(padded[k * 70:k * 70 + 200] ** 2))
        assert val == pytest.approx(expect, rel=1e-9)


# --- apply_rms_envelope ---

def test_apply_own_envelope_is_identity(rng):
    w = random_wave(rng, 8000, amp=0.4)
    env = rms_envelope(w, 1024, 256)
    out = apply_rms_envelope(env, w)
    assert np.allclose(out.data, w.data, atol=1e-4)


def test_apply_zero_envelope(rng):
    w = random_wave(rng, 4000)
    env = rms_envelope(w, 1024, 256)
    zero = dsp.RmsEnvelope(np.zeros_like(env.frame_rms), 1024, 256, 4000)
    out = apply_rms_envelope(zero, w)
    assert np.max(np.abs(out.data)) < 1e-6


def test_apply_envelope_remeasurement_oracle(rng):
    # transferring another signal's envelope: re-measured RMS within 5%
    eps = 1e-8
    w = random_wave(rng, 48000, amp=0.3)
    other = Waveform(
        (random_wave(rng, 48000, amp=0.3).data
         * (0.5 + 0.4 * np.sin(np.linspace(0, 6, 48000)))).astype(np.float32),
        48000,
    )
    target = rms_envelope(other, 2048, 512)
    out = apply_rms_envelope(target, w, epsilon=eps)
    remeasured = rms_envelope(out, 2048, 512)
    mask = (target.frame_rms > 10 * eps) & (rms_envelope(w, 2048, 512).frame_rms > 10 * eps)
    rel = np.abs(remeasured.frame_rms[mask] - target.frame_rms[mask]) / target.frame_rms[mask]
    assert np.max(rel) < 0.05


@pytest.mark.parametrize("tail", [1, 2, 7, 100, 511, 512])
def test_apply_envelope_tracks_for_any_tail_size(rng, tail):
    # lengths that leave very few real samples in the last frame are the
    # hard case: that frame's gain is a noisy small-sample estimate
    eps = 1e-8
    n = 20 * 512 + tail
    w = random_wave(rng, n, amp=0.3)
    other = random_wave(rng, n, amp=0.2)
    target = rms_envelope(other, 2048, 512)
    out = apply_rms_envelope(target, w, epsilon=eps)
    remeasured = rms_envelope(out, 2048, 512)
    mask = (target.frame_rms > 10 * eps) & (rms_envelope(w, 2048, 512).frame_rms > 10 * eps)
    rel = np.abs(remeasured.frame_rms[mask] - target.frame_rms[mask]) / target.frame_rms[mask]
    assert np.max(rel) < 0.05


def test_apply_envelope_length_mismatch(rng):
    w = random_wave(rng, 100)
    env = rms_envelope(random_wave(rng, 200), 64, 16)
    with pytest.raises(errors.LengthMismatch):
        apply_rms_envelope(env, w)


# --- spectral ops ---

def test_spectral_target_basics():
    assert np.allclose(spectral_target([2, 0], [0, 4]), [1, 2])
    m = np.array([1.0, 2.0, 3.0])
    assert np.allclose(spectral_target(m, m), m)


def test_spectral_target_mean_oracle(rng):
    a = rng.uniform(0, 5, 100)
    b = rng.uniform(0, 5, 100)
    assert np.allclose(spectral_target(a, b), (a + b) / 2)


def test_eq_curve_identity_limit():
    m = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    curve = eq_curve(m, m, smooth_window=1, epsilon=1e-15, fft_size=8)
    assert np.allclose(curve.gains, 1.0, atol=1e-9)


def test_eq_curve_window_one_is_raw_ratio(rng):
    t = rng.uniform(0.1, 2, 33)
    s = rng.uniform(0.1, 2, 33)
    eps = 1e-8
    curve = eq_curve(t, s, smooth_window=1, epsilon=eps, fft_size=64)
    assert np.allclose(curve.gains, t / (s + eps))


def test_eq_curve_smoothing_oracle():
    t = np.array([1.0, 4.0, 1.0, 1.0])
    s = np.ones(4)
    curve = eq_curve(t, s, smooth_window=3, epsilon=1e-15, fft_size=6)
    assert np.allclose(curve.gains, [2.5, 2.0, 2.0, 1.0], atol=1e-9)


def test_eq_curve_gains_finite_nonnegative(rng):
    for _ in range(10):
        t = rng.uniform(0, 10, 64)
        s = rng.uniform(0, 10, 64)
        curve = eq_curve(t, s, smooth_window=5, fft_size=126)
        assert np.all(np.isfinite(curve.gains))
        assert np.all(curve.gains >= 0)


def test_apply_eq_unit_curve_identity(rng):
    w = random_wave(rng, 4096, amp=0.9)
    curve = dsp.EqCurve(np.ones(4096 // 2 + 1), 4096)
    out = apply_eq(w, curve)
    assert np.max(np.abs(out.data - w.data)) < 1e-6


def test_apply_eq_zero_curve(rng):
    w = random_wave(rng, 1024)
    out = apply_eq(w, dsp.EqCurve(np.zeros(513), 1024))
    assert np.max(np.abs(out.data)) < 1e-6


def test_apply_eq_magnitude_remeasurement(rng):
    # with no smoothing the filtered magnitude must hit the target
    w1 = random_wave(rng, 8192, amp=0.4)
    w2 = random_wave(rng, 8192, amp=0.4)
    mag1 = np.abs(np.fft.rfft(w1.data[0].astype(np.float64)))
    mag2 = np.abs(np.fft.rfft(w2.data[0].astype(np.float64)))
    target = spectral_target(mag1, mag2)
    curve = eq_curve(target, mag1, smooth_window=1, epsilon=1e-10, fft_size=8192)
    out_mag = np.abs(np.fft.rfft(apply_eq(w1, curve).data[0].astype(np.float64)))
    mask = mag1 > 1e-6
    assert np.allclose(out_mag[mask], target[mask], rtol=1e-4)


def test_apply_eq_size_mismatch(rng):
    w = random_wave(rng, 100)
    with pytest.raises(errors.SizeMismatch):
        apply_eq(w, dsp.EqCurve(np.ones(65), 128))


def test_spectral_interpolate_identical_inputs(rng):
    w = random_wave(rng, 4096, amp=0.3)
    out = spectral_interpolate(w, w, AugmentParams(eq_smooth_window=1))
    assert np.max(np.abs(out.data - 2 * w.data)) < 1e-5


def test_spectral_interpolate_zero_second_input(rng):
    w = random_wave(rng, 2048, amp=0.3)
    z = make_wave(np.zeros(2048))
    out = spectral_interpolate(w, z, AugmentParams(eq_smooth_window=1))
    assert np.all(np.isfinite(out.data))
    # zero input contributes nothing; output is w filtered toward half magnitude
    assert full_rms(out) == pytest.approx(0.5 * full_rms(w), rel=0.01)


def _rfft_spectra(w1, w2):
    return (np.fft.rfft(w1.data.astype(np.float64), axis=1),
            np.fft.rfft(w2.data.astype(np.float64), axis=1))


def _complex_spectra(w1, w2):
    """Both rffts from one FFT of z = x1 + i*x2, through X[-k] = conj X[k] of a real signal."""
    n = w1.n_samples
    big = np.fft.fft(w1.data.astype(np.float64) + 1j * w2.data.astype(np.float64), axis=1)
    k = np.arange(n // 2 + 1)
    mirror = np.conj(big[:, -k])
    return (big[:, k] + mirror) / 2, (big[:, k] - mirror) / 2j


def _composed(spec1, spec2, n, params):
    """The public steps after the transforms: channel-pooled magnitudes, the two
    curves, both spectra scaled by their gains and summed, one irfft, float32."""
    mag1 = np.abs(spec1).mean(axis=0)
    mag2 = np.abs(spec2).mean(axis=0)
    target = spectral_target(mag1, mag2)
    c1 = eq_curve(target, mag1, params.eq_smooth_window, params.epsilon, fft_size=n)
    c2 = eq_curve(target, mag2, params.eq_smooth_window, params.epsilon, fft_size=n)
    summed = spec1 * c1.gains + spec2 * c2.gains
    return np.fft.irfft(summed, n=n, axis=1).astype(np.float32), c1, c2


def test_spectral_interpolate_compositional_oracle(rng):
    # bit-exact against the public steps; at the prime length both spectra come
    # from one complex FFT, elsewhere from one rfft each
    params = AugmentParams(eq_smooth_window=7, epsilon=1e-8)
    for n, channels in ((4096, 1), (4096, 2), (4097, 1), (12347, 2)):  # 12347 is prime
        w1 = random_wave(rng, n, amp=0.4, channels=channels)
        w2 = random_wave(rng, n, amp=0.4, channels=channels)
        got = spectral_interpolate(w1, w2, params)
        spectra = _complex_spectra if n == 12347 else _rfft_spectra
        expect = _composed(*spectra(w1, w2), n, params)[0]
        assert np.array_equal(got.data, expect), (n, channels)
        # the time-domain sum of the two apply_eq outputs rounds each filtered
        # half to float32 first; it stays within a few ulps of the larger peak
        _, c1, c2 = _composed(*_rfft_spectra(w1, w2), n, params)
        half1 = apply_eq(w1, c1).data.astype(np.float64)
        half2 = apply_eq(w2, c2).data.astype(np.float64)
        peak = max(np.max(np.abs(half1)), np.max(np.abs(half2)))
        ulp = float(np.spacing(np.float32(peak)))
        assert np.max(np.abs(got.data - (half1 + half2))) <= 4 * ulp, (n, channels)


@pytest.mark.parametrize("n", [4096, 12347])  # two rffts, and one complex FFT
def test_spectral_interpolate_rejects_more_channels_in_the_second_input(rng, n):
    with pytest.raises(ValueError, match="2 channels cannot be summed into 1"):
        spectral_interpolate(random_wave(rng, n), random_wave(rng, n, channels=2))


@pytest.mark.parametrize("n,expect", [
    (48000, False), (240000, False), (576000, False),  # 2-3-5-smooth
    (4097, False),  # 17 * 241: 241^2 > n, but numpy factors it directly
    (998, False),  # 2 * 499: 499^2 > n, and 499 is not above 500
    (253009, False),  # 503^2: 503 is not above the square root
    (12347, True), (240007, True),  # primes
    (6054, True),  # 2 * 3 * 1009
])
def test_bluestein_length_table(n, expect):
    assert dsp._is_bluestein_length(n) is expect


@pytest.mark.parametrize("n,channels", [
    (12347, (1, 1)), (12347, (2, 2)), (12347, (2, 1)), (6054, (1, 1)),
    (240007, (1, 1)),
])
def test_spectral_interpolate_one_complex_fft_oracle(rng, n, channels):
    # exact against the complex composition, and within 2 float32 ulps of the
    # peak of the two-rfft composition it replaces; a mono w2 is broadcast
    params = AugmentParams()
    w1 = random_wave(rng, n, amp=0.4, channels=channels[0])
    w2 = random_wave(rng, n, amp=0.4, channels=channels[1])
    got = spectral_interpolate(w1, w2, params)
    assert np.array_equal(got.data, _composed(*_complex_spectra(w1, w2), n, params)[0])
    old = _composed(*_rfft_spectra(w1, w2), n, params)[0]
    assert got.data.shape == old.shape == (channels[0], n)
    ulp = float(np.spacing(np.max(np.abs(old))))
    assert np.max(np.abs(got.data.astype(np.float64) - old)) <= 2 * ulp


def _count_transforms(monkeypatch):
    calls = {"rfft": 0, "fft": 0, "irfft": 0}

    def counted(name):
        original = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.fft, name, counted(name))
    return calls


def test_spectral_interpolate_transforms_each_input_once(rng, monkeypatch):
    calls = _count_transforms(monkeypatch)
    spectral_interpolate(random_wave(rng, 4097, channels=2), random_wave(rng, 4097, channels=2))
    assert calls == {"rfft": 2, "fft": 0, "irfft": 1}


def test_spectral_interpolate_one_complex_fft_at_a_bluestein_length(rng, monkeypatch):
    calls = _count_transforms(monkeypatch)
    spectral_interpolate(random_wave(rng, 12347), random_wave(rng, 12347))  # 12347 is prime
    assert calls == {"rfft": 0, "fft": 1, "irfft": 1}


@pytest.mark.parametrize("mode,expect", [
    (AugmentationMode.SPECTRAL_ONLY, {"rfft": 2, "fft": 0, "irfft": 1}),
    (AugmentationMode.BOTH, {"rfft": 2, "fft": 0, "irfft": 1}),
    (AugmentationMode.RMS_ONLY, {"rfft": 0, "fft": 0, "irfft": 0}),
    (AugmentationMode.NONE, {"rfft": 0, "fft": 0, "irfft": 0}),
])
def test_augment_pair_transform_counts_per_mode(rng, monkeypatch, mode, expect):
    # perfbench counts dsp.fft.calls through np.fft.rfft/irfft; this pins that count
    primary = random_wave(rng, 4800, amp=0.3)
    secondary = random_wave(rng, 3000, amp=0.3)
    calls = _count_transforms(monkeypatch)
    augment_pair(primary, secondary, mode)
    assert calls == expect


# --- augment_pair ---

def test_augment_none_doubles_and_normalizes(rng):
    w = random_wave(rng, 4096, amp=0.8)
    out = augment_pair(w, w, AugmentationMode.NONE)
    peak = np.max(np.abs(w.data))
    expect = 2 * w.data.astype(np.float64)
    if 2 * peak > 0.95:
        expect *= 0.95 / (2 * peak)
    assert np.allclose(out.data, expect, atol=1e-6)


def test_augment_rms_only_tracks_primary_envelope(rng):
    eps = 1e-8
    params = AugmentParams()
    primary = Waveform(
        (random_wave(rng, 48000, amp=0.25).data
         * (0.6 + 0.35 * np.sin(np.linspace(0, 9, 48000)))).astype(np.float32),
        48000,
    )
    secondary = random_wave(rng, 30000, amp=0.25)
    out = augment_pair(primary, secondary, AugmentationMode.RMS_ONLY, params)
    target = rms_envelope(primary, params.rms_frame_size, params.rms_hop)
    got = rms_envelope(out, params.rms_frame_size, params.rms_hop)
    mask = (target.frame_rms > 10 * eps) & (got.frame_rms > 10 * eps)
    rel = np.abs(got.frame_rms[mask] - target.frame_rms[mask]) / target.frame_rms[mask]
    assert np.max(rel) < 0.05


def test_augment_both_compositional_oracle(rng):
    params = AugmentParams(eq_smooth_window=11)
    primary = random_wave(rng, 16384, amp=0.25)
    secondary = random_wave(rng, 10000, amp=0.25)
    got = augment_pair(primary, secondary, AugmentationMode.BOTH, params)
    sec = loop_or_truncate(secondary, 16384)
    # power-matched in float64 and rounded once
    gain = dsp.full_rms(primary) / dsp.full_rms(sec)
    sec = Waveform((sec.data.astype(np.float64) * gain).astype(np.float32), 48000)
    comp = spectral_interpolate(primary, sec, params)
    env = rms_envelope(primary, params.rms_frame_size, params.rms_hop)
    expect = dsp.peak_normalize(apply_rms_envelope(env, comp, params.epsilon), params.output_peak)
    assert np.array_equal(got.data, expect.data)


@pytest.mark.parametrize("mode", list(AugmentationMode))
def test_augment_empty_primary_is_empty_input(rng, mode):
    # Waveform states the rule, so no empty primary reaches augment_pair
    with pytest.raises(errors.EmptyInput, match="no samples"):
        augment_pair(Waveform(np.zeros((1, 0), dtype=np.float32), 48000),
                     random_wave(rng, 1000), mode)


def test_augment_rejects_sample_rate_mismatch(rng):
    a = random_wave(rng, 1000, sr=48000)
    b = random_wave(rng, 1000, sr=44100)
    with pytest.raises(errors.SampleRateMismatch):
        augment_pair(a, b, AugmentationMode.NONE)


@pytest.mark.parametrize("mode", list(AugmentationMode))
@pytest.mark.parametrize("channels,silent", [(1, True), (2, False)],
                         ids=["silent-mono", "stereo-on-mono"])
def test_augment_checks_the_sample_rate_before_the_secondary_power(rng, mode, channels, silent):
    # the rate is checked before the power gain, so a silent secondary at another rate is
    # a rate mismatch, not a SilentSecondary; the looped and downmixed copy keeps its rate
    primary = random_wave(rng, 1000, sr=48000)
    amp = 0.0 if silent else 0.3
    secondary = random_wave(rng, 700, sr=44100, amp=amp, channels=channels)
    with pytest.raises(errors.SampleRateMismatch, match="resampling is not performed"):
        augment_pair(primary, secondary, mode)


@pytest.mark.parametrize("stage", [equal_power_mix, spectral_interpolate])
def test_stages_reject_a_sample_rate_mismatch_without_resampling(rng, stage):
    with pytest.raises(errors.SampleRateMismatch,
                       match="48000 Hz vs 44100 Hz; resampling is not performed"):
        stage(random_wave(rng, 1000, sr=48000), random_wave(rng, 1000, sr=44100))


def test_augment_rejects_unknown_mode_before_any_work(rng):
    a = random_wave(rng, 1000, sr=48000)
    b = random_wave(rng, 1000, sr=44100)  # a SampleRateMismatch, had the mode been checked later
    with pytest.raises(ValueError, match="unknown mode 'rms'"):
        augment_pair(a, b, "rms")


def test_augment_deterministic(rng):
    a = random_wave(rng, 8192, amp=0.3)
    b = random_wave(rng, 5000, amp=0.3)
    for mode in AugmentationMode:
        x = augment_pair(a, b, mode)
        y = augment_pair(a, b, mode)
        assert np.array_equal(x.data, y.data)


def test_augment_output_peak_bounded(rng):
    for _ in range(5):
        a = random_wave(rng, 4096, amp=0.9)
        b = random_wave(rng, 4096, amp=0.9)
        for mode in AugmentationMode:
            out = augment_pair(a, b, mode)
            assert np.max(np.abs(out.data)) <= 0.95 + 1e-6


def _enveloped_noise(rng, n, channels, amp, sr=48000):
    """Uniform noise times 0.6 + 0.35*sin(9 rad/s * t + phase): a slow, known envelope."""
    t = np.arange(n) / sr
    env = 0.6 + 0.35 * np.sin(9.0 * t + rng.uniform(0.0, 2.0 * np.pi))
    return Waveform((rng.uniform(-amp, amp, size=(channels, n)) * env).astype(np.float32), sr)


@st.composite
def augment_cases(draw, min_len=1, modes=tuple(AugmentationMode)):
    """A primary (enveloped noise), a shorter or longer secondary, a mode and params."""
    n = draw(st.one_of(st.integers(min_len, 20_000), st.just(12_347)))  # 12,347 is prime
    m = draw(st.one_of(st.integers(1, n), st.integers(n, 2 * n + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    primary = _enveloped_noise(rng, n, draw(st.sampled_from([1, 2])), draw(st.floats(0.01, 2.0)))
    secondary = random_wave(rng, m, amp=draw(st.floats(0.01, 2.0)),
                            channels=draw(st.sampled_from([1, 2])))
    params = AugmentParams(output_peak=draw(st.floats(0.05, 1.0)))
    return primary, secondary, draw(st.sampled_from(modes)), params


@given(augment_cases())
@settings(max_examples=60, deadline=None)
def test_augment_pair_output_contract(case):
    primary, secondary, mode, params = case
    out = augment_pair(primary, secondary, mode, params)
    assert out.data.shape == primary.data.shape and out.data.dtype == np.float32
    assert np.isfinite(out.data).all()
    assert np.max(np.abs(out.data)) <= params.output_peak


@given(augment_cases(min_len=8192, modes=(AugmentationMode.RMS_ONLY, AugmentationMode.BOTH)))
@settings(max_examples=30, deadline=None)
def test_augment_pair_follows_the_primary_envelope(case):
    primary, secondary, mode, params = case
    out = augment_pair(primary, secondary, mode, params)
    target = rms_envelope(primary, params.rms_frame_size, params.rms_hop).frame_rms
    got = rms_envelope(out, params.rms_frame_size, params.rms_hop).frame_rms
    mask = (target > 10 * params.epsilon) & (got > 10 * params.epsilon)
    ratio = got[mask] / target[mask]
    # peak_normalize applies one gain to every frame; the median ratio is that gain
    assert np.max(np.abs(ratio / np.median(ratio) - 1.0)) < 0.05


@pytest.mark.parametrize("mode", list(AugmentationMode))
@pytest.mark.parametrize("which", ["primary", "secondary"])
def test_augment_rejects_non_finite(rng, mode, which):
    data = {"primary": random_wave(rng, 4096).data, "secondary": random_wave(rng, 3000).data}
    data[which] = data[which].copy()
    data[which][0, 100] = np.nan
    # Waveform states the rule, so no NaN reaches augment_pair
    with pytest.raises(errors.NonFiniteInput, match="non-finite sample"):
        augment_pair(Waveform(data["primary"], 48000), Waveform(data["secondary"], 48000), mode)


@pytest.mark.parametrize("mode", list(AugmentationMode))
def test_augment_float32_overflow_is_non_finite_input(mode):
    # the float64 mix or filter rounds to +-inf in float32; the stage's Waveform refuses it
    primary = Waveform(np.array([-3e38, 1, 3e38, 1], dtype=np.float32), 48000)
    secondary = Waveform(np.array([0.5, -0.25, 0.1], dtype=np.float32), 48000)
    with pytest.raises(errors.NonFiniteInput):
        augment_pair(primary, secondary, mode)


_TINY_EPSILON_PAIRS = {
    # the mix cancels, so the envelope gain target / epsilon overflows to inf, and 0 * inf is NaN
    "cancelling": (np.full(4096, 0.5), np.full(4096, -0.5),
                   {AugmentationMode.RMS_ONLY, AugmentationMode.BOTH}),
    # the constant secondary has no energy above DC: its EQ gains overflow, and inf - inf
    # in the smoothing and 0 * inf in the filter are NaN
    "constant secondary": (np.random.default_rng(5).uniform(-0.3, 0.3, 4096), np.full(4096, 0.5),
                           {AugmentationMode.SPECTRAL_ONLY, AugmentationMode.BOTH}),
}


@pytest.mark.parametrize("mode", list(AugmentationMode))
@pytest.mark.parametrize("pair", list(_TINY_EPSILON_PAIRS))
def test_augment_tiny_epsilon_nan_is_non_finite_input_without_a_warning(mode, pair):
    primary, secondary, failing = _TINY_EPSILON_PAIRS[pair]
    params = AugmentParams(epsilon=1e-320)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the Waveform's NonFiniteInput is the only report
        if mode in failing:
            with pytest.raises(errors.NonFiniteInput):
                augment_pair(make_wave(primary), make_wave(secondary), mode, params)
        else:
            out = augment_pair(make_wave(primary), make_wave(secondary), mode, params)
            assert np.isfinite(out.data).all()


_HUGE = [-3e38, 1, 3e38, 1]
_ALTERNATING = [3e38, -3e38, 3e38, -3e38]


@pytest.mark.parametrize("stage", [
    lambda: equal_power_mix(make_wave(_HUGE), make_wave(_HUGE)),
    lambda: apply_rms_envelope(rms_envelope(make_wave([3e38] * 4), 2, 1),
                               make_wave([1e-30, 1e-30, 1, 1])),
    lambda: apply_eq(make_wave([3e38] * 4), eq_curve([1e10] * 3, [1] * 3, 1, fft_size=4)),
    lambda: spectral_interpolate(make_wave(_ALTERNATING), make_wave(_ALTERNATING),
                                 AugmentParams(eq_smooth_window=1)),
], ids=["equal_power_mix", "apply_rms_envelope", "apply_eq", "spectral_interpolate"])
def test_public_stage_float32_overflow_is_non_finite_input_without_a_warning(stage):
    # each stage, not only augment_pair, leaves the report to the Waveform it returns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.NonFiniteInput):
            stage()


@pytest.mark.parametrize("call,error,text", [
    (lambda: equal_power_mix(make_wave([1.0, 2.0]), make_wave([1.0, 2.0, 3.0])),
     errors.LengthMismatch, "lengths differ: 2 vs 3"),
    (lambda: loop_or_truncate(make_wave([1.0]), 0), ValueError, "target_len must be >= 1"),
    (lambda: eq_curve([1.0] * 3, [1.0] * 3, 4, fft_size=4), ValueError, "must be odd"),
    (lambda: eq_curve([1.0] * 3, [1.0] * 2, 1, fft_size=4), errors.LengthMismatch,
     "shapes differ"),
    (lambda: spectral_target([1.0] * 3, [1.0] * 2), errors.LengthMismatch, "shapes differ"),
    (lambda: dsp.EqCurve(np.ones(4), fft_size=4), ValueError, "expected 3 gains"),
], ids=["equal_power_mix of two lengths", "loop_or_truncate to 0", "eq_curve even window",
        "eq_curve mismatched shapes", "spectral_target mismatched shapes",
        "EqCurve of the wrong length"])
def test_stage_input_checks(call, error, text):
    with pytest.raises(error, match=text):
        call()
