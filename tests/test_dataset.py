import dataclasses
import json
import os
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from morphmix import errors
from morphmix.audio_io import Waveform, save_wav
from morphmix.dataset import (
    CAPTION_TEMPLATES,
    ManifestEntry,
    ModeDistribution,
    PairSpec,
    TimestepWindow,
    build_dataset,
    caption_for,
    load_manifest,
    load_pairs,
    pair_rng,
    pair_seed,
    read_jsonl,
    sample_mode,
    sample_training_timestep,
)
from morphmix.dsp import AugmentParams, AugmentationMode
from morphmix.evaluate import load_eval_clips

from conftest import HalfWriter, file_tree, float_wav, random_wave

THREE_WAY = ModeDistribution(1 / 3, 1 / 3, 1 / 3, 0.0)


def test_distribution_validation():
    with pytest.raises(errors.InvalidDistribution):
        ModeDistribution(0.5, 0.4, 0.0, 0.0)
    with pytest.raises(errors.InvalidDistribution):
        ModeDistribution(1.2, -0.2, 0.0, 0.0)


def test_window_validation():
    with pytest.raises(ValueError):
        TimestepWindow(0.8, 0.5)
    with pytest.raises(ValueError):
        TimestepWindow(-0.1, 0.5)


def test_sample_mode_degenerate():
    rng = np.random.default_rng(0)
    dist = ModeDistribution(1.0, 0.0, 0.0, 0.0)
    assert all(sample_mode(rng, dist) is AugmentationMode.RMS_ONLY for _ in range(100))


@pytest.mark.parametrize("mode", list(AugmentationMode))
def test_sample_mode_field_names_its_mode(mode):
    # ModeDistribution's field names are the AugmentationMode values sample_mode returns
    names = [f.name for f in dataclasses.fields(ModeDistribution)]
    assert sorted(names) == sorted(m.value for m in AugmentationMode)
    dist = ModeDistribution(**{name: float(name == mode.value) for name in names})
    rng = np.random.default_rng(0)
    assert all(sample_mode(rng, dist) is mode for _ in range(100))


def test_sample_mode_frequencies_three_way():
    rng = np.random.default_rng(99)
    counts = {m: 0 for m in AugmentationMode}
    n = 100000
    for _ in range(n):
        counts[sample_mode(rng, THREE_WAY)] += 1
    assert counts[AugmentationMode.NONE] == 0
    for mode in (AugmentationMode.RMS_ONLY, AugmentationMode.SPECTRAL_ONLY, AugmentationMode.BOTH):
        assert abs(counts[mode] / n - 1 / 3) < 0.02
    observed = [counts[m] for m in list(AugmentationMode)[:3]]
    _, p = scipy_stats.chisquare(observed)
    assert p > 0.001


def _fixed_draw(u):
    """A generator stub whose every draw is u."""
    return SimpleNamespace(random=lambda: u)


def test_sample_mode_rounding_gap_draws_a_mode_that_can_occur():
    dist = ModeDistribution(0.7, 0.2, 0.1, 0.0)
    u = 1 - 2**-53  # the largest draw Generator.random returns
    assert sum(dataclasses.astuple(dist)) <= u  # the probabilities sum below it
    assert sample_mode(_fixed_draw(u), dist) is AugmentationMode.BOTH
    assert sample_mode(_fixed_draw(0.95), dist) is AugmentationMode.BOTH


def test_sample_mode_deterministic_given_seed():
    r1 = np.random.default_rng(42)
    r2 = np.random.default_rng(42)
    seq1 = [sample_mode(r1, THREE_WAY) for _ in range(50)]
    seq2 = [sample_mode(r2, THREE_WAY) for _ in range(50)]
    assert seq1 == seq2


def test_caption_templates_exact():
    assert caption_for(AugmentationMode.RMS_ONLY, "a dog barking", "a car horn") == \
        "The behavior of a dog barking with textures from a dog barking and a car horn"
    assert caption_for(AugmentationMode.NONE, "X", "Y") == "A mix of X and Y"
    assert caption_for(AugmentationMode.BOTH, "rain", "choir") == \
        "The behavior of rain with a spectral blend of rain and choir"
    assert caption_for(AugmentationMode.SPECTRAL_ONLY, "rain", "choir") == \
        "A spectral blend of rain and choir"


def test_caption_empty_label():
    with pytest.raises(errors.EmptyLabel):
        caption_for(AugmentationMode.NONE, "", "y")


def test_caption_regenerates_bit_identically():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = "label-" + str(rng.integers(1000))
        y = "label-" + str(rng.integers(1000))
        for mode in AugmentationMode:
            assert caption_for(mode, x, y) == CAPTION_TEMPLATES[mode].format(x=x, y=y)


def test_timestep_window_bounds():
    rng = np.random.default_rng(11)
    entry = _entry(window=TimestepWindow(0.5, 1.0))
    draws = np.array([sample_training_timestep(rng, entry) for _ in range(100000)])
    assert draws.min() >= 0.5
    assert draws.max() <= 1.0


def test_timestep_uniform_mean():
    rng = np.random.default_rng(12)
    entry = _entry(window=TimestepWindow(0.0, 1.0))
    draws = np.array([sample_training_timestep(rng, entry) for _ in range(100000)])
    assert abs(draws.mean() - 0.5) < 0.01


def test_timestep_narrow_window():
    rng = np.random.default_rng(13)
    entry = _entry(window=TimestepWindow(0.75, 1.0))
    draws = [sample_training_timestep(rng, entry) for _ in range(1000)]
    assert all(0.75 <= t <= 1.0 for t in draws)


def _entry(window=TimestepWindow()):
    return ManifestEntry(
        id="t", audio_path="", mode=AugmentationMode.RMS_ONLY, caption="c",
        window=window, primary_label="x", secondary_label="y",
        params=AugmentParams(), seed=0,
    )


def test_manifest_roundtrip(tmp_path):
    entry = _entry()
    d = entry.to_dict()
    assert ManifestEntry.from_dict(json.loads(json.dumps(d))) == entry


def test_manifest_from_dict_ignores_unknown_keys_and_defaults_error():
    d = _entry().to_dict()
    del d["error"]
    d["comment"] = "not a field"
    assert ManifestEntry.from_dict(d) == _entry()


# --- build_dataset ---

def _write_corpus(tmp_path, n_pairs, n_samples=12000, seed=0):
    rng = np.random.default_rng(seed)
    audio = tmp_path / "in"
    audio.mkdir(exist_ok=True)
    pairs = []
    for i in range(n_pairs):
        p = audio / f"p{i}.wav"
        s = audio / f"s{i}.wav"
        save_wav(random_wave(rng, n_samples, amp=0.3), p, bit_depth=16)
        save_wav(random_wave(rng, n_samples // 2, amp=0.3), s, bit_depth=16)
        pairs.append(PairSpec(f"pair{i:03d}", str(p), f"thing {i}", str(s), f"other {i}"))
    return pairs


def test_build_empty(tmp_path):
    entries = build_dataset([], THREE_WAY, TimestepWindow(), AugmentParams(), 1, tmp_path / "out")
    assert entries == []
    assert (tmp_path / "out" / "manifest.jsonl").read_text() == ""


def test_build_degenerate_distribution(tmp_path):
    pairs = _write_corpus(tmp_path, 1)
    entries = build_dataset(
        pairs, ModeDistribution(1, 0, 0, 0), TimestepWindow(0.5, 1.0),
        AugmentParams(), 7, tmp_path / "out",
    )
    assert len(entries) == 1
    e = entries[0]
    assert e.mode is AugmentationMode.RMS_ONLY
    assert e.window == TimestepWindow(0.5, 1.0)
    assert e.caption.startswith("The behavior of thing 0 with textures from")
    assert (tmp_path / "out" / e.audio_path).exists()


def test_build_reproducible_and_parallel_invariant(tmp_path):
    pairs = _write_corpus(tmp_path, 8)
    dirs = [tmp_path / f"out{i}" for i in range(3)]
    build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), 42, dirs[0], jobs=1)
    build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), 42, dirs[1], jobs=1)
    build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), 42, dirs[2], jobs=4)
    for other in dirs[1:]:
        assert (dirs[0] / "manifest.jsonl").read_bytes() == (other / "manifest.jsonl").read_bytes()
        for wav in sorted((dirs[0] / "audio").glob("*.wav")):
            assert wav.read_bytes() == (other / "audio" / wav.name).read_bytes()


def test_build_partial_failure(tmp_path):
    pairs = _write_corpus(tmp_path, 2)
    bad = PairSpec("bad", str(tmp_path / "missing.wav"), "x", pairs[0].secondary_path, "y")
    entries = build_dataset(
        [pairs[0], bad, pairs[1]], THREE_WAY, TimestepWindow(), AugmentParams(), 1,
        tmp_path / "out",
    )
    assert [e.id for e in entries] == ["pair000", "bad", "pair001"]
    assert entries[1].failed and "missing.wav" in entries[1].error
    assert not entries[0].failed and not entries[2].failed


def test_build_non_finite_pair_is_an_error_entry(tmp_path):
    pairs = _write_corpus(tmp_path, 3)
    nan_path = tmp_path / "in" / "nan.wav"
    data = random_wave(np.random.default_rng(3), 12000).data.copy()
    data[0, 6000] = np.nan
    float_wav(nan_path, data.T)
    pairs[1] = PairSpec("nan", str(nan_path), "x", pairs[1].secondary_path, "y")
    manifests = []
    for jobs in (1, 2):
        out = tmp_path / f"out{jobs}"
        entries = build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), 4, out, jobs=jobs)
        assert entries[1].error == f"NonFiniteInput: {nan_path}: waveform has a non-finite sample"
        assert entries[1].audio_path == ""
        assert not (out / "audio" / "nan.wav").exists()
        assert not entries[0].failed and not entries[2].failed
        manifests.append((out / "manifest.jsonl").read_bytes())
    assert manifests[0] == manifests[1]


KINDS = ["long", "short", "stereo", "missing", "silent", "nan"]


@pytest.fixture(scope="module")
def input_kinds(tmp_path_factory):
    """One short WAV per kind of input; a missing path for the missing kind."""
    root = tmp_path_factory.mktemp("kinds")
    rng = np.random.default_rng(11)
    nan = random_wave(rng, 1500).data.copy()
    nan[0, 700] = np.nan
    waves = {
        "long": random_wave(rng, 2400),
        "short": random_wave(rng, 900),
        "stereo": random_wave(rng, 1700, channels=2),
        "silent": Waveform(np.zeros((1, 1200), dtype=np.float32), 48000),
    }
    paths = {"missing": str(root / "missing.wav"), "nan": str(root / "nan.wav")}
    for kind, w in waves.items():
        paths[kind] = str(root / f"{kind}.wav")
        save_wav(w, paths[kind], bit_depth=32)
    float_wav(root / "nan.wav", nan.T)
    return paths


@settings(max_examples=30, deadline=None)
@given(
    kinds=st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
                   min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_build_jobs_invariant_with_failing_pairs(input_kinds, kinds, seed):
    pairs = [PairSpec(f"pair{i}", input_kinds[p], p, input_kinds[s], s)
             for i, (p, s) in enumerate(kinds)]
    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        for jobs in (1, 2):
            out = Path(tmp) / f"out{jobs}"
            build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), seed, out, jobs=jobs)
            trees.append({f.relative_to(out): f.read_bytes() for f in out.rglob("*") if f.is_file()})
    assert trees[0] == trees[1]
    failing = sum(any(k in ("missing", "silent", "nan") for k in pair) for pair in kinds)
    assert len(trees[0]) == 1 + len(kinds) - failing


def test_build_manifest_parses_back(tmp_path):
    pairs = _write_corpus(tmp_path, 3)
    entries = build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), 5, tmp_path / "out")
    loaded = load_manifest(tmp_path / "out" / "manifest.jsonl")
    assert loaded == entries



def test_build_manifest_failure_keeps_previous_manifest(tmp_path, monkeypatch):
    pairs = _write_corpus(tmp_path, 3)
    out = tmp_path / "out"
    build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), 5, out)
    before = (out / "manifest.jsonl").read_bytes()

    def open_manifest_half(path, mode):
        f = open(path, mode)
        return HalfWriter(f) if path.endswith("manifest.jsonl.tmp") else f

    # the fault is injected into the atomic writer, for the manifest only
    monkeypatch.setattr(errors, "open", open_manifest_half, raising=False)
    with pytest.raises(errors.IoFailure):
        build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), 6, out)
    assert (out / "manifest.jsonl").read_bytes() == before
    monkeypatch.undo()
    build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), 6, out)
    assert (out / "manifest.jsonl").read_bytes() != before


def test_build_leaves_no_temp_files(tmp_path):
    pairs = _write_corpus(tmp_path, 4)
    out = tmp_path / "out"
    build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), 5, out, jobs=2)
    names = sorted(p.name for p in out.rglob("*"))
    assert names == ["audio", "manifest.jsonl"] + [f"pair{i:03d}.wav" for i in range(4)]

def test_load_pairs_roundtrip(tmp_path):
    pairs = _write_corpus(tmp_path, 2)
    path = tmp_path / "pairs.jsonl"
    with open(path, "w") as f:
        for p in pairs:
            f.write(json.dumps(p.__dict__) + "\n")
    assert load_pairs(path) == pairs


@pytest.mark.parametrize("blocker", ["out_dir", "audio"])
def test_build_dataset_out_dir_blocked_by_a_file_is_io_failure(tmp_path, blocker):
    p0, = _write_corpus(tmp_path, 1)
    out = tmp_path / "out"
    if blocker == "out_dir":
        out.write_text("a file")
    else:
        out.mkdir()
        (out / "audio").write_text("a file")
    before = file_tree(tmp_path)
    with pytest.raises(errors.IoFailure) as info:
        build_dataset([p0], THREE_WAY, TimestepWindow(), AugmentParams(), 5, out)
    assert str(out / "audio") in str(info.value)
    assert file_tree(tmp_path) == before


@pytest.mark.parametrize("name", ["", "gone.jsonl"])  # the directory itself, a missing file
@pytest.mark.parametrize("load", [load_pairs, load_eval_clips])
def test_loading_a_directory_or_a_missing_file_is_io_failure(tmp_path, load, name):
    with pytest.raises(errors.IoFailure, match=re.escape(str(tmp_path / name))):
        load(tmp_path / name)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_read_jsonl_ends_a_line_at_each_newline_but_not_at_u2028(tmp_path, end):
    path = tmp_path / "a.jsonl"
    path.write_bytes(end.join(['{"a": "x\u2028y"}', "", '{"a": 2}', ""]).encode("utf-8"))
    assert read_jsonl(path) == [{"a": "x\u2028y"}, {"a": 2}]


@pytest.mark.parametrize("line, text", [("{not json", "Expecting property name"),
                                        ("[1]", "not a JSON object"),
                                        ("7", "not a JSON object")])
def test_read_jsonl_names_the_path_and_line_of_a_bad_line(tmp_path, line, text):
    path = tmp_path / "a.jsonl"
    path.write_text(f'{{"a": 1}}\n\n{line}\n{{"a": 2}}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {text}"):
        read_jsonl(path)


def test_pair_rng_stable_across_processes():
    # sub-seed derivation is a pure hash; draw sequence depends only on (seed, id)
    a = pair_rng(9, "clip-1").random(4)
    b = pair_rng(9, "clip-1").random(4)
    c = pair_rng(9, "clip-2").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_build_draws_each_mode_from_pair_rng(tmp_path):
    # perfbench predicts each pair's mode from pair_rng and checks the manifest against it
    pairs = _write_corpus(tmp_path, 6)
    entries = build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), 8, tmp_path / "out")
    for pair, entry in zip(pairs, entries):
        assert entry.mode is sample_mode(pair_rng(8, pair.id), THREE_WAY)
        assert entry.seed == pair_seed(8, pair.id)


@pytest.mark.parametrize("ids", [["p0", "p1", "p0"], ["p0", "../p1"], ["sub/p0"], [""]])
def test_build_dataset_rejects_bad_ids_before_writing(tmp_path, ids):
    p, s = tmp_path / "p.wav", tmp_path / "s.wav"
    pairs = [PairSpec(pid, str(p), "x", str(s), "y") for pid in ids]
    with pytest.raises(errors.BadId):
        build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), 5, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_build_dataset_rejects_a_file_descriptor_path(tmp_path):
    # an int path would be opened (and closed) as a file descriptor
    p0, = _write_corpus(tmp_path, 1)
    fd = os.open(tmp_path / "keep", os.O_RDWR | os.O_CREAT)
    try:
        pairs = [PairSpec("x", fd, "dog", p0.secondary_path, "horn")]
        with pytest.raises(TypeError, match="audio paths must be strings"):
            build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), 5, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        os.fstat(fd)  # still open
    finally:
        os.close(fd)


def test_build_dataset_accepts_path_objects(tmp_path):
    p0, = _write_corpus(tmp_path, 1)
    pairs = [PairSpec("x", Path(p0.primary_path), "dog", Path(p0.secondary_path), "horn")]
    entries = build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), 5, tmp_path / "out")
    assert not entries[0].failed


def test_build_dataset_accepts_numeric_and_dotted_ids(tmp_path):
    # a JSON pairs file may give ids as numbers; each still names one file
    p0, p1 = _write_corpus(tmp_path, 2)
    pairs = [PairSpec(7, p0.primary_path, "x", p0.secondary_path, "y"),
             PairSpec("...", p1.primary_path, "x", p1.secondary_path, "y")]
    entries = build_dataset(pairs, THREE_WAY, TimestepWindow(), AugmentParams(), 5, tmp_path / "out")
    assert not any(e.failed for e in entries)
    assert sorted(p.name for p in (tmp_path / "out" / "audio").iterdir()) == ["....wav", "7.wav"]
