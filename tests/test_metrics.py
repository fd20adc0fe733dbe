import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphmix import errors, metrics
from morphmix.audio_io import Waveform
from morphmix.metrics import (
    DirectionalityParams,
    Embedding,
    GaussianStats,
    LatentMatrix,
    correspondence,
    cosine_sim,
    directionality,
    frechet_distance,
    gaussian_stats,
    intermediateness,
    lcs,
    mock_embed,
    mock_latents,
    roc_auc,
    spearman_rho,
)

from conftest import make_wave, per_frame_logmel, random_wave

sims = st.floats(-1.0, 1.0, allow_nan=False)


# --- cosine similarity ---

def test_cosine_self_is_one(rng):
    e = Embedding(rng.normal(size=16))
    assert cosine_sim(e, e) == pytest.approx(1.0)


def test_cosine_orthogonal():
    a = Embedding([1.0, 0.0, 0.0])
    b = Embedding([0.0, 1.0, 0.0])
    assert cosine_sim(a, b) == pytest.approx(0.0)


def test_cosine_direct_formula_oracle(rng):
    for _ in range(20):
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        expect = float(np.dot(x, y) / (np.linalg.norm(x) * np.linalg.norm(y)))
        assert cosine_sim(Embedding(x), Embedding(y)) == pytest.approx(expect, abs=1e-9)


def test_cosine_errors():
    with pytest.raises(errors.DimMismatch):
        cosine_sim(Embedding([1, 2]), Embedding([1, 2, 3]))
    with pytest.raises(errors.ZeroVector):
        cosine_sim(Embedding([0.0, 0.0]), Embedding([1.0, 0.0]))


# --- correspondence / intermediateness / directionality ---

def test_correspondence_closed_forms():
    assert correspondence(0.8, 0.4) == pytest.approx(2 * 0.32 / 1.2, abs=1e-9)
    assert correspondence(0.6, 0.6) == pytest.approx(0.6, abs=1e-12)
    assert correspondence(-0.2, 0.5) == pytest.approx(2e-6, rel=0.01)


def test_intermediateness_closed_forms():
    assert intermediateness(0.8, 0.4) == pytest.approx(0.5, abs=1e-9)
    assert intermediateness(0.7, 0.7) == pytest.approx(1.0)
    assert intermediateness(0.9, 0.0) == pytest.approx(0.0, abs=1e-5)


def test_intermediateness_both_floor():
    with pytest.raises(errors.BothNonpositive):
        intermediateness(-0.5, -0.3)


@given(a=sims, b=sims)
@settings(max_examples=300, deadline=None)
def test_pair_metric_symmetry(a, b):
    assert correspondence(a, b) == pytest.approx(correspondence(b, a), rel=1e-12)
    try:
        left = intermediateness(a, b)
    except errors.BothNonpositive:
        with pytest.raises(errors.BothNonpositive):
            intermediateness(b, a)
        return
    assert left == pytest.approx(intermediateness(b, a), rel=1e-12)


@given(a=st.floats(0.01, 1.0), b=st.floats(0.01, 1.0))
@settings(max_examples=200, deadline=None)
def test_correspondence_harmonic_mean_bounds(a, b):
    c = correspondence(a, b)
    assert min(a, b) - 1e-12 <= c <= max(a, b) + 1e-12


def test_directionality_values():
    assert directionality(0.5, 0.5) == 0.0
    # difference of one temperature unit through the logistic map
    expect = 2 / (1 + math.exp(-1)) - 1
    assert directionality(0.55, 0.50) == pytest.approx(expect, abs=1e-9)
    assert expect == pytest.approx(0.46212, abs=1e-5)


@given(a=sims, b=sims)
@settings(max_examples=300, deadline=None)
def test_directionality_antisymmetric(a, b):
    assert directionality(a, b) == pytest.approx(-directionality(b, a), abs=1e-12)


def test_directionality_saturates_and_monotone():
    assert directionality(1.0, -1.0) == pytest.approx(1.0, abs=1e-8)
    assert directionality(-1.0, 1.0) == pytest.approx(-1.0, abs=1e-8)
    xs = np.linspace(-1, 1, 50)
    vals = [directionality(x, 0.0) for x in xs]
    assert np.all(np.diff(vals) > 0)


def test_directionality_params_validation():
    with pytest.raises(ValueError):
        DirectionalityParams(temperature=0.0)


# --- LCS ---

def test_lcs_rank1_matrix(rng):
    base = rng.normal(size=8)
    scales = rng.normal(size=20)
    m = LatentMatrix(np.outer(scales, base))
    assert lcs(m) == pytest.approx(1.0, abs=1e-9)


def test_lcs_rank2_matrix(rng):
    u = rng.normal(size=(20, 2))
    v = rng.normal(size=(2, 8))
    assert lcs(LatentMatrix(u @ v)) == pytest.approx(1.0, abs=1e-9)


def test_lcs_isotropic_gaussian_monte_carlo():
    # isotropic 16-d noise: two of sixteen equal variance directions
    rng = np.random.default_rng(7)
    m = LatentMatrix(rng.normal(size=(10000, 16)))
    assert lcs(m) == pytest.approx(2 / 16, abs=0.01)


def test_lcs_scale_and_translation_invariance(rng):
    m = rng.normal(size=(50, 6))
    base = lcs(LatentMatrix(m))
    assert lcs(LatentMatrix(m * 37.5)) == pytest.approx(base, abs=1e-9)
    assert lcs(LatentMatrix(m + rng.normal(size=6))) == pytest.approx(base, abs=1e-9)


def test_lcs_errors(rng):
    with pytest.raises(errors.TooFewFrames):
        lcs(LatentMatrix(rng.normal(size=(2, 8))))
    with pytest.raises(errors.TooFewFrames):
        lcs(LatentMatrix(rng.normal(size=(8, 2))))
    with pytest.raises(errors.DegenerateMatrix):
        lcs(LatentMatrix(np.ones((5, 5))))


# --- Gaussian stats / Frechet ---

def test_gaussian_stats_mean_zero():
    e = Embedding([1.0, -2.0, 3.0])
    neg = Embedding([-1.0, 2.0, -3.0])
    stats = gaussian_stats([e, neg])
    assert np.allclose(stats.mean, 0.0)


def test_gaussian_stats_identical_embeddings():
    e = Embedding([1.0, 2.0, 3.0])
    stats = gaussian_stats([e, e, e])
    assert np.allclose(stats.covariance, 0.0)


def test_gaussian_stats_two_pass_oracle(rng):
    xs = [rng.normal(size=5) for _ in range(40)]
    stats = gaussian_stats([Embedding(x) for x in xs])
    arr = np.array(xs)
    mean = arr.sum(axis=0) / len(xs)
    cov = np.zeros((5, 5))
    for x in xs:
        d = x - mean
        cov += np.outer(d, d)
    cov /= len(xs) - 1
    assert np.allclose(stats.mean, mean, atol=1e-9)
    assert np.allclose(stats.covariance, cov, atol=1e-9)


def test_gaussian_stats_errors():
    with pytest.raises(errors.TooFewSamples):
        gaussian_stats([Embedding([1.0, 2.0])])
    with pytest.raises(errors.DimMismatch):
        gaussian_stats([Embedding([1.0, 2.0]), Embedding([1.0, 2.0, 3.0])])


def test_frechet_identical_is_zero(rng):
    x = [Embedding(rng.normal(size=6)) for _ in range(30)]
    stats = gaussian_stats(x)
    assert frechet_distance(stats, stats) == pytest.approx(0.0, abs=1e-6)


def test_frechet_1d_closed_form():
    a = GaussianStats([0.0], [[1.0]])
    b = GaussianStats([1.0], [[4.0]])
    # 1 + (1 + 4 - 2*2) = 2
    assert frechet_distance(a, b) == pytest.approx(2.0, abs=1e-9)


def test_frechet_diagonal_closed_form(rng):
    for dim in (3, 16, 64):
        mu = rng.normal(size=dim)
        nu = rng.normal(size=dim)
        s = rng.uniform(0.5, 2.0, dim)
        t = rng.uniform(0.5, 2.0, dim)
        a = GaussianStats(mu, np.diag(s ** 2))
        b = GaussianStats(nu, np.diag(t ** 2))
        expect = float(np.sum((mu - nu) ** 2) + np.sum((s - t) ** 2))
        assert frechet_distance(a, b) == pytest.approx(expect, abs=1e-6)


def test_frechet_symmetric_nonnegative(rng):
    xa = [Embedding(rng.normal(size=5)) for _ in range(25)]
    xb = [Embedding(rng.normal(size=5) + 0.3) for _ in range(25)]
    a = gaussian_stats(xa)
    b = gaussian_stats(xb)
    d1 = frechet_distance(a, b)
    d2 = frechet_distance(b, a)
    assert d1 >= 0
    assert d1 == pytest.approx(d2, abs=1e-6)


def test_frechet_rejects_asymmetric():
    with pytest.raises(errors.NonSymmetric):
        bad = GaussianStats([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])
        frechet_distance(bad, bad)


def test_gaussian_stats_need_dim_at_least_one():
    with pytest.raises(errors.DimMismatch):
        GaussianStats(np.zeros(0), np.zeros((0, 0)))


def test_gaussian_stats_store_the_symmetrized_covariance():
    # round-off asymmetry passes allclose's rtol and is averaged away exactly once
    cov = np.array([[2.0, 0.5 + 1e-12], [0.5, 1.0]])
    stats = GaussianStats([0.0, 0.0], cov)
    assert np.array_equal(stats.covariance, 0.5 * (cov + cov.T))
    assert np.array_equal(stats.covariance, stats.covariance.T)


@pytest.mark.parametrize("mean,cov", [
    ([np.nan, 0.0], np.eye(2)),
    ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]]),
    ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]]),
], ids=["nan-mean", "nan-covariance", "inf-diagonal"])
def test_gaussian_stats_reject_non_finite_values(mean, cov):
    with pytest.raises(errors.NonFiniteInput):
        GaussianStats(mean, cov)


def test_gaussian_stats_reject_an_indefinite_covariance():
    cov = np.eye(3)
    cov[0, 1] = cov[1, 0] = 2.0
    with pytest.raises(errors.NonSymmetric, match="covariance not PSD: eigenvalue -1"):
        GaussianStats(np.zeros(3), cov)


def test_gaussian_stats_psd_tolerance_is_d_float32_roundings_of_lambda_max():
    d = 4
    vecs = np.linalg.qr(np.random.default_rng(3).normal(size=(d, d)))[0]
    tol = d * 2.0 ** -24
    for lam_min, ok in ((-0.5 * tol, True), (-2.0 * tol, False)):
        cov = (vecs * [lam_min, 0.2, 0.5, 1.0]) @ vecs.T
        if ok:
            GaussianStats(np.zeros(d), cov)
        else:
            with pytest.raises(errors.NonSymmetric, match="not PSD"):
                GaussianStats(np.zeros(d), cov)


# --- rank statistics ---

def test_spearman_monotone_cases():
    x = [1.0, 2.0, 5.0, 9.0]
    assert spearman_rho(x, [2.0, 3.0, 7.0, 8.0]) == pytest.approx(1.0)
    assert spearman_rho(x, [8.0, 7.0, 3.0, 2.0]) == pytest.approx(-1.0)


def test_spearman_tied_hand_ranked_oracle():
    # x=[1,2,2,3] -> ranks [1, 2.5, 2.5, 4]; y=[1,3,2,4] -> ranks [1,3,2,4]
    rx = np.array([1.0, 2.5, 2.5, 4.0])
    ry = np.array([1.0, 3.0, 2.0, 4.0])
    expect = float(np.corrcoef(rx, ry)[0, 1])
    assert spearman_rho([1, 2, 2, 3], [1, 3, 2, 4]) == pytest.approx(expect, abs=1e-12)


def test_spearman_monotone_transform_invariance(rng):
    x = rng.normal(size=100)
    y = rng.normal(size=100)
    base = spearman_rho(x, y)
    assert spearman_rho(np.exp(x), y) == pytest.approx(base, abs=1e-12)
    assert spearman_rho(x, y ** 3) == pytest.approx(base, abs=1e-12)


def test_spearman_errors():
    with pytest.raises(errors.ConstantInput):
        spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(errors.LengthMismatch):
        spearman_rho([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rank_statistics_reject_non_finite(bad):
    with pytest.raises(errors.NonFiniteInput, match="^x has"):
        spearman_rho([1, 2, bad, 4], [1, 2, 3, 4])
    with pytest.raises(errors.NonFiniteInput, match="^y has"):
        spearman_rho([1, 2, 3, 4], [1, bad, 3, 4])
    with pytest.raises(errors.NonFiniteInput, match="^scores has"):
        roc_auc([0.1, bad, 0.3, 0.2], [0, 1, 1, 0])


def _ranks_by_tie_walk(x):
    """Average-tie ranks by walking the sorted ties: the reference for metrics._ranks."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(values=st.one_of(st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=60),
                        st.lists(st.one_of(_finite, st.sampled_from([0.0, -0.0, 1.0])),
                                 min_size=1, max_size=60)))
@settings(max_examples=200, deadline=None)
def test_ranks_match_the_tie_walk_bit_for_bit(values):
    x = np.array(values, dtype=np.float64)
    assert metrics._ranks(x, "x").tobytes() == _ranks_by_tie_walk(x).tobytes()


def test_roc_auc_cases(rng):
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert roc_auc([0.5] * 10, [1] * 5 + [0] * 5) == 0.5
    scores = rng.normal(size=5000)
    labels = rng.random(5000) < 0.5
    assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.02)


def test_roc_auc_single_class():
    with pytest.raises(errors.SingleClass):
        roc_auc([0.1, 0.2], [1, 1])


@pytest.mark.parametrize("shape", [(3, 2), ()])
def test_rank_statistics_take_only_1d_input(shape):
    x = np.arange(float(np.prod(shape))).reshape(shape)
    labels = (np.arange(x.size) % 2 == 0).reshape(shape)
    with pytest.raises(errors.LengthMismatch, match="1-D"):
        spearman_rho(x, -x)
    with pytest.raises(errors.LengthMismatch, match="1-D"):
        roc_auc(x, labels)


# --- mock embedder ---

def test_mock_embed_deterministic(rng):
    w = random_wave(rng, 20000)
    a = mock_embed(w, dim=64)
    b = mock_embed(w, dim=64)
    assert np.array_equal(a.values, b.values)
    assert a.dim == 64


def test_mock_embed_silence_finite():
    e = mock_embed(make_wave(np.zeros(8000)), dim=32)
    assert np.all(np.isfinite(e.values))


def test_mock_embed_distinguishes_noise_from_tone(rng):
    t = np.arange(48000) / 48000
    tone = make_wave(0.5 * np.sin(2 * np.pi * 440 * t))
    noise = random_wave(rng, 48000, amp=0.5)
    sim = cosine_sim(mock_embed(tone, 64), mock_embed(noise, 64))
    assert sim < 0.99


@pytest.mark.parametrize("n", [8, 11, 15])
def test_mock_embed_clip_under_16_samples_falls_back_to_frame_8_hop_4(rng, logmel_calls, n):
    emb = mock_embed(random_wave(rng, n))
    # the 16-sample frame holds no frame of the clip, so it is framed again
    assert logmel_calls == [(32, 16, 16), (32, 8, 4)]
    assert np.linalg.norm(emb.values) == pytest.approx(1.0)
    assert np.ptp(emb.values) > 0


@pytest.mark.parametrize("n", [1, 7])
def test_mock_embed_clip_under_8_samples_is_constant(rng, n):
    assert np.array_equal(mock_embed(random_wave(rng, n), dim=64).values, np.full(64, 0.125))


def test_mock_latents_shapes_and_determinism(rng):
    w = random_wave(rng, 2048 + 2 * 512)
    m = mock_latents(w, dim=16)
    assert m.data.shape == (3, 16)
    m2 = mock_latents(w, dim=16)
    assert np.array_equal(m.data, m2.data)


def test_mock_latents_stationary_sine_high_lcs():
    t = np.arange(48000) / 48000
    w = make_wave(0.5 * np.sin(2 * np.pi * 440 * t))
    assert lcs(mock_latents(w, dim=32)) > 0.9


def test_mock_latents_too_short(rng):
    with pytest.raises(errors.TooShort):
        mock_latents(random_wave(rng, 1000), dim=16)


def test_mock_latents_three_frame_boundary(rng):
    n = metrics._FRAME + 2 * metrics._HOP
    with pytest.raises(errors.TooShort):
        mock_latents(random_wave(rng, n - 1), dim=16)
    assert mock_latents(random_wave(rng, n), dim=16).data.shape == (3, 16)


@pytest.mark.parametrize("fn", [mock_embed, mock_latents])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mock_rejects_non_finite(rng, fn, bad):
    data = random_wave(rng, 8000).data.copy()
    data[0, 4000] = bad
    with pytest.raises(errors.NonFiniteInput):
        fn(Waveform(data, 48000))


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("dim, shared", [(64, True), (128, False)])
def test_mock_latents_after_mock_embed_matches_uncached(rng, logmel_calls, channels, dim, shared):
    w = random_wave(rng, 30000, channels=channels)
    emb = mock_embed(w, dim=dim, latents=mock_latents(w, 32))
    # dim=64 frames with 32 bands, as latent_dim=32 does; dim=128 needs 64 bands
    assert len(logmel_calls) == (1 if shared else 2)
    assert np.array_equal(emb.values, mock_embed(w, dim=dim).values)


@pytest.mark.parametrize("frame, hop", [(1024, 512), (2048, 256)])
def test_mock_embed_frames_itself_when_latents_frame_differently(rng, logmel_calls, frame, hop):
    w = random_wave(rng, 30000)
    # 32 bands, as mock_embed's 64 dims take, but 57 or 110 frames where it takes 55
    latents = LatentMatrix(per_frame_logmel(w, 32, frame, hop))
    emb = mock_embed(w, latents=latents)
    assert logmel_calls == [(32, 2048, 512)]
    assert np.array_equal(emb.values, mock_embed(w).values)


def test_mel_filterbank_cached_read_only():
    fb = metrics._mel_filterbank(32, 1025, 48000)
    assert metrics._mel_filterbank(32, 1025, 48000) is fb
    assert not fb.flags.writeable


def test_hann_window_cached_read_only():
    win = metrics._hann(2048)
    assert metrics._hann(2048) is win
    assert not win.flags.writeable
    assert np.array_equal(win, np.hanning(2048))


@st.composite
def _stft_cases(draw):
    """(n_samples, channels, n_bands, frame, hop) over 0 to 40 frames.

    Half the cases use the short-clip frame and hop mock_embed falls back to.
    """
    channels = draw(st.integers(1, 2))
    n_bands = draw(st.integers(4, 64))
    if draw(st.booleans()):
        n = draw(st.integers(1, 4000))
        return n, channels, n_bands, max(n // 2, 8), max(n // 4, 4)
    frame, hop = 2048, 512
    n_frames = draw(st.integers(0, 40))
    n = frame + (n_frames - 1) * hop + draw(st.integers(0, hop - 1))
    return n, channels, n_bands, frame, hop


@given(case=_stft_cases(), seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_blocked_logmel_equals_per_frame_stft(case, seed):
    n, channels, n_bands, frame, hop = case
    w = random_wave(np.random.default_rng(seed), n, channels=channels)
    got = metrics._logmel_frames(w, n_bands, frame, hop)
    assert np.array_equal(got, per_frame_logmel(w, n_bands, frame, hop))


@pytest.mark.parametrize("channels", [1, 2])
def test_blocked_logmel_every_block_remainder(rng, channels):
    # 0..40 frames covers each remainder mod the block size several times
    for n_frames in range(41):
        n = 2048 + (n_frames - 1) * 512 + 100
        w = random_wave(rng, n, channels=channels)
        got = metrics._logmel_frames(w, 32, 2048, 512)
        assert got.shape == (n_frames, 32)
        assert np.array_equal(got, per_frame_logmel(w, 32, 2048, 512)), n_frames


@pytest.mark.parametrize("call,error,text", [
    (lambda: frechet_distance(GaussianStats([0.0], [[1.0]]), GaussianStats([0.0, 0.0], np.eye(2))),
     errors.DimMismatch, "dims differ: 1 vs 2"),
    (lambda: spearman_rho([1.0, 2.0], [2.0, 1.0]), errors.LengthMismatch, "at least 3 points"),
    (lambda: roc_auc([0.1, 0.2, 0.3], [1, 0]), errors.LengthMismatch, "shapes differ"),
], ids=["frechet_distance of two dims", "spearman_rho of 2 points",
        "roc_auc of mismatched shapes"])
def test_metric_input_checks(call, error, text):
    with pytest.raises(error, match=text):
        call()
