import argparse
import contextlib
import csv
import dataclasses
import io
import json
import re
import struct
import sys
import tempfile
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphmix import cli, dsp, evaluate, metrics
from morphmix.audio_io import load_wav, save_wav
from morphmix.cli import main
from morphmix.dsp import AugmentParams
from morphmix.metrics import Embedding, gaussian_stats, mock_embed, mock_latents
from morphmix.store import EmbeddingStore, read_gaussian_stats, write_gaussian_stats, write_mxeb

from conftest import file_tree, float_wav, fresh_python, per_frame_logmel, random_wave


@pytest.fixture
def wav_pair(tmp_path, rng):
    p = tmp_path / "primary.wav"
    s = tmp_path / "secondary.wav"
    save_wav(random_wave(rng, 12000, amp=0.3), p, bit_depth=16)
    save_wav(random_wave(rng, 8000, amp=0.3), s, bit_depth=16)
    return p, s


def test_augment_rms(tmp_path, wav_pair, capsys):
    p, s = wav_pair
    out = tmp_path / "out.wav"
    code = main(["augment", str(p), str(s), "--mode", "rms", "--out", str(out),
                 "--primary-label", "a dog", "--secondary-label", "a horn"])
    assert code == 0
    assert out.exists()
    cap = capsys.readouterr()
    assert cap.out.strip() == "The behavior of a dog with textures from a dog and a horn"


def test_augment_none_identical_inputs(tmp_path, wav_pair):
    p, _ = wav_pair
    out = tmp_path / "out.wav"
    assert main(["augment", str(p), str(p), "--mode", "none", "--out", str(out)]) == 0
    w = load_wav(p)
    got = load_wav(out)
    expect = 2 * w.data.astype(np.float64)
    peak = np.abs(expect).max()
    if peak > 0.95:
        expect *= 0.95 / peak
    assert np.allclose(got.data, expect, atol=1e-6)


def test_augment_missing_file(tmp_path, wav_pair, capsys):
    p, _ = wav_pair
    code = main(["augment", str(p), str(tmp_path / "nope.wav"),
                 "--out", str(tmp_path / "o.wav")])
    assert code == 2
    assert "nope.wav" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["none", "rms", "spectral", "both"])
@pytest.mark.parametrize("channels", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_augment_per_channel_keeps_the_primary_channels(tmp_path, rng, mode, channels):
    paths = [tmp_path / "p.wav", tmp_path / "s.wav"]
    for path, n, c in zip(paths, (6000, 4000), channels):
        save_wav(random_wave(rng, n, channels=c), path, bit_depth=16)
    out = tmp_path / "o.wav"
    assert main(["augment", *map(str, paths), "--mode", mode, "--per-channel",
                 "--out", str(out)]) == 0
    assert load_wav(out).n_channels == channels[0]


@pytest.mark.parametrize("mode", ["spectral", "both"])
def test_augment_per_channel_stereo_over_mono_at_a_bluestein_length(tmp_path, rng, monkeypatch,
                                                                    mode):
    # 12347 is prime: one complex FFT takes both spectra, the mono secondary
    # broadcast across the primary's channels; the two-rfft output is the reference
    paths = [tmp_path / "p.wav", tmp_path / "s.wav"]
    for path, c in zip(paths, (2, 1)):
        save_wav(random_wave(rng, 12347, channels=c), path)
    argv = ["augment", *map(str, paths), "--mode", mode, "--per-channel", "--out"]
    assert main(argv + [str(tmp_path / "one.wav")]) == 0
    monkeypatch.setattr(dsp, "_is_bluestein_length", lambda n: False)
    assert main(argv + [str(tmp_path / "two.wav")]) == 0
    got, old = load_wav(tmp_path / "one.wav").data, load_wav(tmp_path / "two.wav").data
    assert got.shape == old.shape == (2, 12347)
    ulp = float(np.spacing(np.max(np.abs(old))))
    assert np.max(np.abs(got.astype(np.float64) - old)) <= 2 * ulp


def _pairs_file(tmp_path, wav_pair, n=4):
    p, s = wav_pair
    path = tmp_path / "pairs.jsonl"
    with open(path, "w") as f:
        for i in range(n):
            f.write(json.dumps({
                "id": f"pair{i}", "primary_path": str(p), "primary_label": f"x{i}",
                "secondary_path": str(s), "secondary_label": f"y{i}",
            }) + "\n")
    return path


def test_build_reproducible_across_jobs_at_a_bluestein_length(tmp_path, rng):
    # a prime-length primary, every pair spectral or both; build downmixes both
    # inputs to mono, so stereo over mono is covered through augment --per-channel
    for name, n, c in (("primary", 12347, 2), ("secondary", 5000, 1)):
        save_wav(random_wave(rng, n, channels=c), tmp_path / f"{name}.wav")
    pairs = _pairs_file(tmp_path, (tmp_path / "primary.wav", tmp_path / "secondary.wav"), n=6)
    config = tmp_path / "config.json"
    config.write_text('{"mode_distribution": {"rms": 0.0, "spectral": 0.5, "both": 0.5}}')
    dirs = [tmp_path / "d1", tmp_path / "d2"]
    for out, jobs in zip(dirs, ("1", "2")):
        assert main(["build", str(pairs), "--out-dir", str(out), "--seed", "3",
                     "--config", str(config), "--jobs", jobs]) == 0
    manifest = (dirs[0] / "manifest.jsonl").read_text(encoding="utf-8")
    assert {json.loads(line)["mode"] for line in manifest.splitlines()} == {"spectral", "both"}
    assert manifest == (dirs[1] / "manifest.jsonl").read_text(encoding="utf-8")
    for wav in sorted((dirs[0] / "audio").glob("*.wav")):
        assert wav.read_bytes() == (dirs[1] / "audio" / wav.name).read_bytes()


def test_build_reproducible_across_jobs(tmp_path, wav_pair, capsys):
    pairs = _pairs_file(tmp_path, wav_pair)
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["build", str(pairs), "--out-dir", str(d1), "--seed", "3", "--jobs", "1"]) == 0
    assert main(["build", str(pairs), "--out-dir", str(d2), "--seed", "3", "--jobs", "8"]) == 0
    assert (d1 / "manifest.jsonl").read_bytes() == (d2 / "manifest.jsonl").read_bytes()
    for wav in sorted((d1 / "audio").glob("*.wav")):
        assert wav.read_bytes() == (d2 / "audio" / wav.name).read_bytes()
    assert "4 built, 0 failed" in capsys.readouterr().out


def test_build_empty_pairs(tmp_path, capsys):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("")
    assert main(["build", str(pairs), "--out-dir", str(tmp_path / "out")]) == 0
    assert "0 built" in capsys.readouterr().out


def test_build_invalid_distribution_config(tmp_path, wav_pair, capsys):
    pairs = _pairs_file(tmp_path, wav_pair)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mode_distribution": {"rms": 0.5, "spectral": 0.4,
                                                        "both": 0.0, "none": 0.0}}))
    code = main(["build", str(pairs), "--out-dir", str(tmp_path / "out"),
                 "--config", str(config)])
    assert code == 2


def test_readme_config_example_runs(tmp_path, wav_pair, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    config = tmp_path / "config.json"
    config.write_text(next(b for b in blocks if "augment_params" in b))
    pairs = _pairs_file(tmp_path, wav_pair, n=2)
    assert main(["build", str(pairs), "--out-dir", str(tmp_path / "out"),
                 "--config", str(config)]) == 0
    p, s = wav_pair
    assert main(["augment", str(p), str(s), "--mode", "both", "--out", str(tmp_path / "o.wav"),
                 "--config", str(config)]) == 0


def test_readme_names_every_long_flag():
    # AugmentParams fields become flags, so a new field adds a flag without a README edit
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {opt for p in sub.choices.values() for opt in p._option_string_actions
             if opt.startswith("--") and opt != "--help"}
    assert {"--out", "--rms-frame-size", "--latent-dim"} <= flags
    # "--out" must appear on its own, not only inside "--out-dir"
    assert sorted(f for f in flags if not re.search(re.escape(f) + r"(?![\w-])", readme)) == []


@pytest.mark.parametrize("argv,code", [(["build"], 2), (["--help"], 0), (["build", "--help"], 0)])
def test_argparse_exit_is_an_exit_code(capsys, argv, code):
    assert main(argv) == code


def test_config_window_not_an_object_is_usage_error(tmp_path, wav_pair, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"timestep_window": [0.5, 1.0]}))
    pairs = _pairs_file(tmp_path, wav_pair, n=1)
    assert main(["build", str(pairs), "--out-dir", str(tmp_path / "out"),
                 "--config", str(config)]) == 2
    p, s = wav_pair
    assert main(["augment", str(p), str(s), "--out", str(tmp_path / "o.wav"),
                 "--config", str(config)]) == 2


# a config value and a different flag value for each AugmentParams field
PARAM_VALUES = {"rms_frame_size": (4096, 1024), "rms_hop": (256, 128),
                "eq_smooth_window": (51, 31), "epsilon": (1e-6, 1e-7), "output_peak": (0.9, 0.5)}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(AugmentParams)])
def test_build_param_flag_overrides_config(tmp_path, wav_pair, capsys, name):
    config_value, flag_value = PARAM_VALUES[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"augment_params": {name: config_value}}))
    pairs = _pairs_file(tmp_path, wav_pair, n=1)
    out = tmp_path / "out"
    assert main(["build", str(pairs), "--out-dir", str(out), "--config", str(config),
                 "--" + name.replace("_", "-"), str(flag_value)]) == 0
    params = json.loads((out / "manifest.jsonl").read_text())["params"]
    assert params == {**dataclasses.asdict(AugmentParams()), name: flag_value}


def test_build_invalid_param_flag_is_usage_error(tmp_path, wav_pair, capsys):
    pairs = _pairs_file(tmp_path, wav_pair, n=1)
    out = tmp_path / "out"
    assert main(["build", str(pairs), "--out-dir", str(out), "--eq-smooth-window", "4"]) == 2
    assert "eq_smooth_window" in capsys.readouterr().err
    assert not (out / "manifest.jsonl").exists()


# a config that AugmentParams rejects, and a flag that makes it valid
@pytest.mark.parametrize("config_params,flag,value", [
    ({"rms_hop": 4096}, "--rms-frame-size", 8192),
    ({"eq_smooth_window": 4}, "--eq-smooth-window", 5),
], ids=["hop past the config frame", "even config window"])
def test_build_checks_the_config_params_after_the_flags_replace_them(
        tmp_path, wav_pair, capsys, config_params, flag, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"augment_params": config_params}))
    pairs = _pairs_file(tmp_path, wav_pair, n=1)
    out = tmp_path / "out"
    argv = ["build", str(pairs), "--out-dir", str(out), "--config", str(config)]
    assert main(argv) == 2
    assert not (out / "manifest.jsonl").exists()
    assert main(argv + [flag, str(value)]) == 0
    params = json.loads((out / "manifest.jsonl").read_text())["params"]
    assert params == {**dataclasses.asdict(AugmentParams()), **config_params,
                      flag[2:].replace("-", "_"): value}


def test_build_unwritable_manifest_is_an_error_line(tmp_path, wav_pair, capsys):
    pairs = _pairs_file(tmp_path, wav_pair, n=2)
    out = tmp_path / "out"
    (out / "manifest.jsonl.tmp").mkdir(parents=True)
    assert main(["build", str(pairs), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest.jsonl" in err
    assert not (out / "manifest.jsonl").exists()
    assert (out / "manifest.jsonl.tmp").is_dir()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_build_rejects_jobs_below_one(tmp_path, wav_pair, capsys, jobs):
    pairs = _pairs_file(tmp_path, wav_pair)
    out = tmp_path / "out"
    assert main(["build", str(pairs), "--out-dir", str(out), "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (out / "manifest.jsonl").exists()


def test_embed_mock_deterministic(tmp_path, wav_pair):
    p, s = wav_pair
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    (audio_dir / "a.wav").write_bytes(p.read_bytes())
    (audio_dir / "b.wav").write_bytes(s.read_bytes())
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["embed-mock", str(audio_dir), "--out-store", str(s1), "--latents"]) == 0
    assert main(["embed-mock", str(audio_dir), "--out-store", str(s2), "--latents"]) == 0
    for f in sorted(s1.iterdir()):
        assert f.read_bytes() == (s2 / f.name).read_bytes()


def test_embed_mock_latents_matches_library_calls(tmp_path, rng):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    for name, channels, bits in (("a", 1, 16), ("b", 2, 24), ("c", 2, 32)):
        save_wav(random_wave(rng, 9000, channels=channels), audio_dir / f"{name}.wav", bits)
    out = tmp_path / "st"
    assert main(["embed-mock", str(audio_dir), "--out-store", str(out), "--latents"]) == 0
    expect = tmp_path / "expect"
    expect.mkdir()
    for name in "abc":
        path = audio_dir / f"{name}.wav"
        # plain library calls, each framing the clip itself
        write_mxeb(expect / f"{name}.mxeb", mock_embed(load_wav(path)).values[None, :])
        write_mxeb(expect / f"{name}.latents.mxeb", mock_latents(load_wav(path)).data)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [p.name for p in expect.iterdir()] + ["index.json"])
    for f in expect.iterdir():
        assert (out / f.name).read_bytes() == f.read_bytes(), f.name


def test_embed_mock_latents_matches_per_frame_stft(tmp_path, rng, monkeypatch):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    # 10, 55 (7 mod 8) and 90 frames at hop 512
    for name, n, channels, bits in (("a", 6700, 1, 16), ("b", 30001, 2, 24), ("c", 47700, 2, 32)):
        save_wav(random_wave(rng, n, channels=channels), audio_dir / f"{name}.wav", bits)
    out = tmp_path / "st"
    assert main(["embed-mock", str(audio_dir), "--out-store", str(out), "--latents"]) == 0
    monkeypatch.setattr(metrics, "_logmel_frames", per_frame_logmel)
    for name in "abc":
        w = load_wav(audio_dir / f"{name}.wav")
        expect = tmp_path / "expect.mxeb"
        write_mxeb(expect, mock_embed(w).values[None, :])
        assert (out / f"{name}.mxeb").read_bytes() == expect.read_bytes(), name
        write_mxeb(expect, mock_latents(w).data)
        assert (out / f"{name}.latents.mxeb").read_bytes() == expect.read_bytes(), name


@pytest.mark.parametrize("flags", [
    ["--dim", "0"], ["--dim", "-3"],
    ["--latent-dim", "-1", "--latents"], ["--latent-dim", "0", "--latents"],
])
def test_embed_mock_rejects_dims_below_one(tmp_path, wav_pair, capsys, flags):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    (audio_dir / "a.wav").write_bytes(wav_pair[0].read_bytes())
    out = tmp_path / "st"
    assert main(["embed-mock", str(audio_dir), "--out-store", str(out)] + flags) == 2
    assert capsys.readouterr().err == f"error: {flags[0]} must be >= 1, got {flags[1]}\n"
    assert not out.exists()


@pytest.mark.parametrize("latents", [False, True])
def test_embed_mock_non_finite_clip(tmp_path, rng, capsys, latents):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    save_wav(random_wave(rng, 9000), audio_dir / "a.wav", bit_depth=32)
    data = random_wave(rng, 9000).data.copy()
    data[0, 4500] = np.nan
    float_wav(audio_dir / "b.wav", data.T)
    save_wav(random_wave(rng, 9000), audio_dir / "c.wav", bit_depth=32)
    argv = ["embed-mock", str(audio_dir), "--out-store", str(tmp_path / "st")]
    assert main(argv + (["--latents"] if latents else [])) == 1
    assert "failed b.wav: " in capsys.readouterr().err
    good = ["a", "a.latents", "c", "c.latents"] if latents else ["a", "c"]
    assert EmbeddingStore(tmp_path / "st").ids() == good


def test_embed_mock_block_align_other_than_packed_frames_fails_its_clip(tmp_path, rng, capsys):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    for name in "abc":
        save_wav(random_wave(rng, 9000, channels=2), audio_dir / f"{name}.wav", bit_depth=16)
    raw = bytearray((audio_dir / "b.wav").read_bytes())
    struct.pack_into("<H", raw, 32, 3)  # the fmt chunk's block align; packed frames are 4
    (audio_dir / "b.wav").write_bytes(raw)
    assert main(["embed-mock", str(audio_dir), "--out-store", str(tmp_path / "st")]) == 1
    failed = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("failed ")]
    assert len(failed) == 1 and failed[0].startswith("failed b.wav: ")
    assert EmbeddingStore(tmp_path / "st").ids() == ["a", "c"]


def test_embed_mock_short_clip_stores_its_embedding_only(tmp_path, rng, capsys):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    save_wav(random_wave(rng, 9000), audio_dir / "normal.wav", bit_depth=32)
    # under mock_latents' 3-frame minimum of 2048 + 2 * 512 samples
    save_wav(random_wave(rng, 2000), audio_dir / "short.wav", bit_depth=32)
    out = tmp_path / "st"
    assert main(["embed-mock", str(audio_dir), "--out-store", str(out), "--latents"]) == 1
    failed = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("failed ")]
    assert len(failed) == 1 and failed[0].startswith("failed short.wav: ")
    assert EmbeddingStore(out).ids() == ["normal", "normal.latents", "short"]
    expect = mock_embed(load_wav(audio_dir / "short.wav")).values
    assert np.array_equal(EmbeddingStore(out).embedding("short").values, expect.astype("f4"))


@pytest.mark.parametrize("latents", [True, False])
def test_embed_mock_stem_beside_its_latents_stem(tmp_path, rng, capsys, latents):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    for stem in ("a", "a.latents"):
        save_wav(random_wave(rng, 9000), audio_dir / f"{stem}.wav", bit_depth=32)
    out = tmp_path / "st"
    code = main(["embed-mock", str(audio_dir), "--out-store", str(out)]
                + (["--latents"] if latents else []))
    if latents:  # clip a's latents would overwrite clip a.latents's embedding
        assert code == 2
        assert capsys.readouterr().err == (
            "error: a.wav and a.latents.wav both name store entry a.latents\n")
        assert not out.exists()
    else:
        assert code == 0
        assert EmbeddingStore(out).ids() == ["a", "a.latents"]
        assert EmbeddingStore(out).embedding("a.latents").dim == 64


def test_embed_mock_latents_frames_each_clip_once(tmp_path, rng, logmel_calls):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    for name in "abc":
        save_wav(random_wave(rng, 9000), audio_dir / f"{name}.wav", bit_depth=32)
    out = tmp_path / "st"
    assert main(["embed-mock", str(audio_dir), "--out-store", str(out), "--latents"]) == 0
    assert logmel_calls == [(32, 2048, 512)] * 3
    assert len(EmbeddingStore(out).ids()) == 6


@pytest.mark.parametrize("index", ["{not json", "[1]", '{"entries": []}', "\xff"])
def test_embed_mock_malformed_store_index(tmp_path, wav_pair, capsys, index):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    (audio_dir / "a.wav").write_bytes(wav_pair[0].read_bytes())
    out = tmp_path / "bad"
    out.mkdir()
    (out / "index.json").write_bytes(index.encode("latin-1"))
    assert main(["embed-mock", str(audio_dir), "--out-store", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in out.iterdir()) == ["index.json"]


def test_embed_mock_unwritable_entry_fails_its_clip(tmp_path, rng, capsys):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    for name in "ab":
        save_wav(random_wave(rng, 9000), audio_dir / f"{name}.wav", bit_depth=32)
    (tmp_path / "st" / "a.mxeb").mkdir(parents=True)
    assert main(["embed-mock", str(audio_dir), "--out-store", str(tmp_path / "st")]) == 1
    assert "failed a.wav: " in capsys.readouterr().err
    assert EmbeddingStore(tmp_path / "st").ids() == ["b"]


def test_embed_mock_directory_named_wav(tmp_path, rng, capsys):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    save_wav(random_wave(rng, 9000), audio_dir / "a.wav", bit_depth=32)
    (audio_dir / "x.wav").mkdir()
    save_wav(random_wave(rng, 9000), audio_dir / "y.wav", bit_depth=32)
    assert main(["embed-mock", str(audio_dir), "--out-store", str(tmp_path / "st")]) == 1
    assert "failed x.wav: " in capsys.readouterr().err
    assert EmbeddingStore(tmp_path / "st").ids() == ["a", "y"]


def test_augment_directory_input(tmp_path, wav_pair, capsys):
    p, _ = wav_pair
    (tmp_path / "dir.wav").mkdir()
    code = main(["augment", str(p), str(tmp_path / "dir.wav"), "--out", str(tmp_path / "o.wav")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o.wav").exists()


def test_embed_mock_empty_dir(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["embed-mock", str(empty), "--out-store", str(tmp_path / "st")]) == 0
    index = json.loads((tmp_path / "st" / "index.json").read_text())
    assert index["entries"] == {}


def test_embed_mock_corrupt_wav(tmp_path, wav_pair, capsys):
    p, _ = wav_pair
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    (audio_dir / "good.wav").write_bytes(p.read_bytes())
    (audio_dir / "bad.wav").write_bytes(b"not a wav file at all")
    code = main(["embed-mock", str(audio_dir), "--out-store", str(tmp_path / "st")])
    assert code == 1
    cap = capsys.readouterr()
    assert "bad.wav" in cap.err
    index = json.loads((tmp_path / "st" / "index.json").read_text())
    assert "good" in index["entries"]



def test_embed_mock_counts_the_entries_it_writes_into_a_filled_store(tmp_path, rng, capsys):
    out = tmp_path / "st"
    for name in ("one", "two"):
        (tmp_path / name).mkdir()
        save_wav(random_wave(rng, 9000), tmp_path / name / f"{name}.wav", bit_depth=32)
    for name, flags, written in (("one", [], 1), ("two", [], 1), ("two", ["--latents"], 2)):
        assert main(["embed-mock", str(tmp_path / name), "--out-store", str(out)] + flags) == 0
        assert capsys.readouterr().out == f"{written} entries written\n"
    assert EmbeddingStore(out).ids() == ["one", "two", "two.latents"]


def test_embed_mock_reports_failures_in_sorted_clip_order(tmp_path, rng, capsys):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    out = tmp_path / "st"
    save_wav(random_wave(rng, 9000), audio_dir / "a.wav", bit_depth=32)
    (audio_dir / "b.wav").write_bytes(b"not a wav file at all")
    data = random_wave(rng, 9000).data.copy()
    data[0, 4500] = np.nan
    float_wav(audio_dir / "c.wav", data.T)
    save_wav(random_wave(rng, 9000), audio_dir / "d.wav", bit_depth=32)
    (out / "d.mxeb").mkdir(parents=True)
    save_wav(random_wave(rng, 2000), audio_dir / "e.wav", bit_depth=32)  # TooShort for latents
    save_wav(random_wave(rng, 9000), audio_dir / "f.wav", bit_depth=32)
    assert main(["embed-mock", str(audio_dir), "--out-store", str(out), "--latents"]) == 1
    cap = capsys.readouterr()
    assert cap.err.splitlines() == [
        f"failed b.wav: {audio_dir / 'b.wav'}: not a RIFF/WAVE file",
        f"failed c.wav: {audio_dir / 'c.wav'}: waveform has a non-finite sample",
        f"failed d.wav: {out / 'd.mxeb'}: [Errno 21] Is a directory: "
        f"'{out / 'd.mxeb.tmp'}' -> '{out / 'd.mxeb'}'",
        "failed e.wav: need at least 3072 samples for 3 frames, got 2000",
    ]
    assert cap.out == "5 entries written\n"
    assert EmbeddingStore(out).ids() == ["a", "a.latents", "e", "f", "f.latents"]


def test_embed_mock_loads_at_most_two_clips_ahead_of_its_writes(tmp_path, rng, monkeypatch):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    stems = [f"c{k}" for k in range(6)]
    for stem in stems:
        save_wav(random_wave(rng, 9000), audio_dir / f"{stem}.wav", bit_depth=32)
    log = []  # list.append is atomic, so the worker's loads and this thread's puts interleave safely
    load, put = cli.load_wav, EmbeddingStore.put

    def logged_load(path):
        log.append(("load", Path(path).stem))
        return load(path)

    def logged_put(self, entry_id, matrix):
        log.append(("put", entry_id))
        time.sleep(0.01)  # slow writes, so that a worker left unbounded would run ahead
        return put(self, entry_id, matrix)

    monkeypatch.setattr(cli, "load_wav", logged_load)
    monkeypatch.setattr(EmbeddingStore, "put", logged_put)
    assert main(["embed-mock", str(audio_dir), "--out-store", str(tmp_path / "st"),
                 "--latents"]) == 0
    assert [e for e in log if e[0] == "load"] == [("load", stem) for stem in stems]
    assert [e for e in log if e[0] == "put"] == [
        ("put", entry) for stem in stems for entry in (stem, f"{stem}.latents")]
    for k in range(len(stems) - 3):
        assert log.index(("put", stems[k])) < log.index(("load", stems[k + 3])), log


def test_embed_mock_error_in_the_worker_stops_it_and_indexes_the_clips_before(
        tmp_path, rng, monkeypatch):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    for k in range(5):
        save_wav(random_wave(rng, 9000), audio_dir / f"c{k}.wav", bit_depth=32)
    embed, calls = metrics.mock_embed, []

    def failing_embed(w, *args, **kwargs):
        calls.append(w)
        if len(calls) == 3:
            raise RuntimeError("embedder crashed")
        return embed(w, *args, **kwargs)

    monkeypatch.setattr(metrics, "mock_embed", failing_embed)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="embedder crashed"):
        main(["embed-mock", str(audio_dir), "--out-store", str(tmp_path / "st")])
    assert threading.active_count() == threads
    index = json.loads((tmp_path / "st" / "index.json").read_text())
    assert index["entries"] == {"c0": "c0.mxeb", "c1": "c1.mxeb"}


def _wav_at_rate(path, rng, sample_rate):
    """A 4,000-sample PCM16 WAV whose header names sample_rate."""
    save_wav(random_wave(rng, 4000, amp=0.3), path, bit_depth=16)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<II", blob, 24, sample_rate, sample_rate * 2)
    path.write_bytes(bytes(blob))


def test_build_sample_rate_past_the_header_fails_its_pair(tmp_path, rng, capsys):
    # a float32 output at 2^30 Hz has a byte rate of 2^32, one past a uint32
    p, s = tmp_path / "p.wav", tmp_path / "s.wav"
    _wav_at_rate(p, rng, 1 << 30)
    _wav_at_rate(s, rng, 1 << 30)
    pairs = _pairs_file(tmp_path, (p, s), n=1)
    out = tmp_path / "out"
    assert main(["build", str(pairs), "--out-dir", str(out)]) == 1
    cap = capsys.readouterr()
    assert "0 built, 1 failed" in cap.out
    assert cap.err.startswith("failed pair0: UnsupportedEncoding: ") and "byte rate" in cap.err
    entry = json.loads((out / "manifest.jsonl").read_text())
    assert entry["error"].startswith("UnsupportedEncoding: ")
    assert list((out / "audio").iterdir()) == []


def test_augment_sample_rate_past_the_header_is_an_error_line(tmp_path, rng, capsys):
    p = tmp_path / "p.wav"
    _wav_at_rate(p, rng, 1 << 30)
    out = tmp_path / "o.wav"
    assert main(["augment", str(p), str(p), "--mode", "spectral", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "byte rate" in err and len(err.splitlines()) == 1
    assert not out.exists() and not (tmp_path / "o.wav.tmp").exists()


def test_augment_empty_primary_is_an_error_line(tmp_path, wav_pair, capsys):
    p = tmp_path / "empty.wav"
    float_wav(p, [])
    out = tmp_path / "o.wav"
    assert main(["augment", str(p), str(wav_pair[1]), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {p}: waveform has no samples\n"
    assert not out.exists()


def test_build_empty_primary_fails_its_pair(tmp_path, wav_pair, capsys):
    empty = tmp_path / "empty.wav"
    float_wav(empty, [])
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(json.dumps({
        "id": pid, "primary_path": str(p), "primary_label": "x",
        "secondary_path": str(wav_pair[1]), "secondary_label": "y",
    }) + "\n" for pid, p in (("empty", empty), ("ok", wav_pair[0]))))
    out = tmp_path / "out"
    assert main(["build", str(pairs), "--out-dir", str(out)]) == 1
    cap = capsys.readouterr()
    assert "1 built, 1 failed" in cap.out
    assert cap.err == f"failed empty: EmptyInput: {empty}: waveform has no samples\n"
    entries = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
    assert [e["error"] for e in entries] == [f"EmptyInput: {empty}: waveform has no samples", ""]
    assert [p.name for p in (out / "audio").iterdir()] == ["ok.wav"]


def _mode_config(path, mode):
    """A config whose mode distribution draws only mode."""
    path.write_text(json.dumps({"mode_distribution": {
        m: float(m == mode) for m in ("rms", "spectral", "both", "none")}}))
    return path


def _wav_samples(path):
    """The samples of a float32 WAV that save_wav wrote, read past its 44-byte header."""
    return np.frombuffer(path.read_bytes()[44:], dtype="<f4")


@pytest.mark.parametrize("mode", ["none", "rms", "spectral", "both"])
def test_float32_overflow_writes_no_wav(tmp_path, wav_pair, capsys, mode):
    # the float64 mix or filter rounds to +-inf in float32; it once became a NaN WAV, exit 0
    p = tmp_path / "huge.wav"
    float_wav(p, [(-3e38,), (1,), (3e38,), (1,)])
    out = tmp_path / "o.wav"
    pairs = _pairs_file(tmp_path, (p, wav_pair[1]), n=1)
    # pyproject makes numpy's RuntimeWarning an error in every thread, build's workers too
    assert main(["augment", str(p), str(wav_pair[1]), "--mode", mode, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: waveform has a non-finite sample\n"
    assert main(["build", str(pairs), "--out-dir", str(tmp_path / "out"),
                 "--config", str(_mode_config(tmp_path / "config.json", mode))]) == 1
    assert capsys.readouterr().err == (
        "failed pair0: NonFiniteInput: waveform has a non-finite sample\n")
    assert not out.exists()
    entry = json.loads((tmp_path / "out" / "manifest.jsonl").read_text())  # one line
    assert entry["error"] == "NonFiniteInput: waveform has a non-finite sample"
    assert list((tmp_path / "out" / "audio").iterdir()) == []


@pytest.mark.parametrize("warning_flags", [[], ["-W", "error::RuntimeWarning"]],
                         ids=["default-filters", "warnings-as-errors"])
def test_float32_overflow_is_reported_once_by_a_fresh_cli(tmp_path, wav_pair, warning_flags):
    # the NonFiniteInput line is the only report: numpy prints no overflow warning beside it,
    # and as an error no such warning ends build in a traceback before its manifest
    p = tmp_path / "huge.wav"
    float_wav(p, [(-3e38,), (1,), (3e38,), (1,)])
    pairs = _pairs_file(tmp_path, (p, wav_pair[1]), n=1)
    out = tmp_path / "out"
    build = fresh_python(*warning_flags, "-m", "morphmix.cli", "build", str(pairs),
                         "--out-dir", str(out))
    assert (build.returncode, build.stderr) == (
        1, "failed pair0: NonFiniteInput: waveform has a non-finite sample\n")
    entry = json.loads((out / "manifest.jsonl").read_text())  # one line
    assert entry["error"] == "NonFiniteInput: waveform has a non-finite sample"
    assert list((out / "audio").iterdir()) == []
    wav = tmp_path / "o.wav"
    augment = fresh_python(*warning_flags, "-m", "morphmix.cli", "augment", str(p),
                           str(wav_pair[1]), "--mode", "spectral", "--out", str(wav))
    assert (augment.returncode, augment.stderr) == (1, "error: waveform has a non-finite sample\n")
    assert not wav.exists()


@pytest.mark.parametrize("warning_flags", [[], ["-W", "error::RuntimeWarning"]],
                         ids=["default-filters", "warnings-as-errors"])
@pytest.mark.parametrize("pair,mode", [("cancelling", "rms"), ("constant-secondary", "spectral")])
def test_tiny_epsilon_nan_is_reported_once_by_a_fresh_cli(tmp_path, rng, warning_flags, pair,
                                                          mode):
    # target / epsilon overflows to inf and 0 * inf is NaN: numpy's invalid-value warning once
    # printed beside the NonFiniteInput line, and as an error ended build in a traceback
    p, s = tmp_path / "p.wav", tmp_path / "s.wav"
    float_wav(p, np.full(4096, 0.5) if pair == "cancelling" else rng.uniform(-0.3, 0.3, 4096))
    float_wav(s, np.full(4096, -0.5 if pair == "cancelling" else 0.5))
    out = tmp_path / "out"
    build = fresh_python(*warning_flags, "-m", "morphmix.cli", "build",
                         str(_pairs_file(tmp_path, (p, s), n=1)), "--out-dir", str(out),
                         "--epsilon", "1e-320",
                         "--config", str(_mode_config(tmp_path / "config.json", mode)))
    assert (build.returncode, build.stderr) == (
        1, "failed pair0: NonFiniteInput: waveform has a non-finite sample\n")
    entry = json.loads((out / "manifest.jsonl").read_text())  # one line
    assert entry["error"] == "NonFiniteInput: waveform has a non-finite sample"
    assert list((out / "audio").iterdir()) == []


@pytest.mark.parametrize("name", ["base, v2", 'say "hi"'])
def test_eval_csv_quotes_the_model_name(tmp_path, rng, capsys, name):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    assert main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path), "--format", "csv", "--model-name", name]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [len(r) for r in rows] == [6, 6]
    assert rows[1][0] == name


def test_eval_markdown_escapes_a_pipe_in_the_model_name(tmp_path, rng, capsys):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    assert main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path), "--model-name", "a|b"]) == 0
    row = capsys.readouterr().out.splitlines()[2]
    assert row.startswith("| a\\|b | ")
    # an escaped pipe does not end a cell: the row has the header's six cells
    assert len(re.split(r"(?<!\\)\|", row)) - 2 == 6


def _eval_setup(tmp_path, rng, n_clips=3):
    store = EmbeddingStore(tmp_path / "store")
    clips = []
    pooled = []
    for i in range(n_clips):
        cid = f"c{i}"
        vecs = {k: rng.uniform(0.1, 1.0, 8) for k in ("audio", "tx", "ty", "pi", "pr")}
        for k, v in vecs.items():
            store.put(f"{cid}.{k}", v[None, :])
        store.put(f"{cid}.lat", rng.normal(size=(10, 8)))
        pooled.append(Embedding(vecs["audio"]))
        clips.append({
            "clip_id": cid, "audio_id": f"{cid}.audio", "latents_id": f"{cid}.lat",
            "text_x_id": f"{cid}.tx", "text_y_id": f"{cid}.ty",
            "prompt_intended_id": f"{cid}.pi", "prompt_reversed_id": f"{cid}.pr",
        })
    clips_path = tmp_path / "clips.jsonl"
    with open(clips_path, "w") as f:
        for c in clips:
            f.write(json.dumps(c) + "\n")
    ref_path = tmp_path / "ref.mxeb"
    write_gaussian_stats(ref_path, gaussian_stats(pooled))
    return store, clips_path, ref_path


def test_eval_corpus_equals_reference(tmp_path, rng, capsys):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    code = main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path), "--format", "csv"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split(",")[-1] == "0.000"


def test_eval_missing_embedding(tmp_path, rng, capsys):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    with open(clips_path, "a") as f:
        f.write(json.dumps({
            "clip_id": "ghost", "audio_id": "ghost.audio", "latents_id": "ghost.lat",
            "text_x_id": "ghost.tx", "text_y_id": "ghost.ty",
            "prompt_intended_id": "ghost.pi", "prompt_reversed_id": "ghost.pr",
        }) + "\n")
    code = main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path)])
    assert code == 1
    assert "ghost" in capsys.readouterr().err


def test_eval_formats_agree(tmp_path, rng, capsys):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    assert main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path), "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path), "--format", "markdown"]) == 0
    md_out = capsys.readouterr().out
    csv_vals = csv_out.strip().splitlines()[1].split(",")[1:]
    md_vals = [c.strip().strip("*") for c in
               md_out.strip().splitlines()[2].split("|")[2:-1]]
    assert csv_vals == md_vals


def test_eval_report_in_missing_directory(tmp_path, rng, capsys):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    out = tmp_path / "nodir" / "r.md"
    assert main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("line", ["[1, 2]", '"x"', "5"])
def test_eval_clips_line_not_an_object(tmp_path, rng, capsys, line):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    clips_path.write_text(line + "\n")
    assert main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_asymmetric_reference_is_usage_error(tmp_path, rng, capsys):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    cov = np.eye(8)
    cov[0, 1], cov[1, 0] = 5.0, -3.0
    write_mxeb(ref_path, np.vstack([np.zeros((1, 8)), cov]))
    assert main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path)]) == 2
    cap = capsys.readouterr()
    assert cap.err.startswith("error: ") and "ref.mxeb" in cap.err
    assert "not symmetric" in cap.err and cap.out == ""


def _write_indefinite_reference(ref_path):
    cov = np.eye(8)
    cov[0, 1] = cov[1, 0] = 2.0  # eigenvalues 3 and -1 in the first two dimensions
    write_mxeb(ref_path, np.vstack([np.zeros((1, 8)), cov]))


def _eval_argv(store, clips_path, ref_path, *flags):
    return ["eval", str(clips_path), "--store", str(store.root), "--reference", str(ref_path),
            *flags]


def test_eval_indefinite_reference_is_usage_error(tmp_path, rng, capsys):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    _write_indefinite_reference(ref_path)
    assert main(_eval_argv(store, clips_path, ref_path)) == 2
    cap = capsys.readouterr()
    assert cap.err.splitlines() == [f"error: {ref_path}: covariance not PSD: eigenvalue -1"]
    assert cap.out == ""


def test_eval_indefinite_reference_fails_before_any_clip_is_scored(tmp_path, rng, capsys):
    # 12 clips in D = 8 give a full-rank pooled fit, so the FAD arithmetic would see the -1
    store, clips_path, ref_path = _eval_setup(tmp_path, rng, n_clips=12)
    _write_indefinite_reference(ref_path)
    with mock.patch.object(evaluate, "score_clip", wraps=evaluate.score_clip) as score_clip:
        assert main(_eval_argv(store, clips_path, ref_path)) == 2
    assert score_clip.call_count == 0
    cap = capsys.readouterr()
    assert cap.err.splitlines() == [f"error: {ref_path}: covariance not PSD: eigenvalue -1"]
    assert cap.out == ""


def test_eval_rank_deficient_float32_reference_scores_as_before(tmp_path, rng, capsys):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    # 5 samples in D = 8: rank 4, and float32 round-off leaves eigenvalues just below 0
    fit = gaussian_stats([Embedding(rng.uniform(0.1, 1.0, 8)) for _ in range(5)])
    write_gaussian_stats(ref_path, fit)
    reference = read_gaussian_stats(ref_path)
    assert np.linalg.eigvalsh(reference.covariance)[0] < 0
    assert main(_eval_argv(store, clips_path, ref_path, "--format", "csv")) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[-1] == "0.652"
    row = evaluate.evaluate_corpus(evaluate.load_eval_clips(clips_path), store, reference)
    # recorded while only _psd_sqrt checked PSD-ness: the read-time rule moves no value
    assert row.fad.hex() == "0x1.4db69db7a2c82p-1"


def _pairs_with_ids(tmp_path, wav_pair, ids):
    p, s = wav_pair
    path = tmp_path / "pairs.jsonl"
    path.write_text("".join(json.dumps({
        "id": pid, "primary_path": str(p), "primary_label": "x",
        "secondary_path": str(s), "secondary_label": "y",
    }) + "\n" for pid in ids))
    return path


@pytest.mark.parametrize("ids, bad", [
    (["dup", "ok", "dup"], "dup"),
    (["ok", "../escaped"], "../escaped"),
    (["a/b"], "a/b"),
    (["a\\b"], "a\\b"),
    ([""], ""),
    (["."], "."),
    ([".."], ".."),
    ([5, "5"], "5"),
    (["\ud800x"], "\ud800x"),  # no file name holds a lone high surrogate
    (["ok", "\udcffx"], "\udcffx"),  # a file name, but pair_seed hashes UTF-8 text
])
def test_build_rejects_bad_pair_ids_before_any_work(tmp_path, wav_pair, capsys, ids, bad):
    pairs = _pairs_with_ids(tmp_path, wav_pair, ids)
    out = tmp_path / "out"
    assert main(["build", str(pairs), "--out-dir", str(out), "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(bad) in err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.jsonl", "primary.wav", "secondary.wav"]


@pytest.mark.parametrize("name", ["p\0.wav", "p\ud800.wav"])
def test_build_audio_path_that_cannot_name_a_file_fails_its_pair(tmp_path, name):
    _write_inputs(tmp_path)
    _edit(tmp_path / "pairs.jsonl", {"primary_path": str(tmp_path / "in" / name)})
    # str sinks: the error line names the path, and the real stderr escapes a surrogate
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main([str(a) for a in _argv("build", tmp_path)]) == 1
    assert out.getvalue() == "0 built, 1 failed\n"
    assert err.getvalue().startswith("failed p0: IoFailure: ")
    assert len(err.getvalue().splitlines()) == 1
    manifest = (tmp_path / "out" / "manifest.jsonl").read_text(encoding="utf-8")
    assert json.loads(manifest)["error"].startswith("IoFailure: ")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["audio", "manifest.jsonl"]
    assert list((tmp_path / "out" / "audio").iterdir()) == []


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
def test_eval_model_name_that_is_not_utf8_writes_no_report(tmp_path, rng, capsys, fmt):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    before = file_tree(tmp_path)
    # a command-line byte that is not UTF-8 reaches Python as a lone surrogate
    assert main(["eval", str(clips_path), "--store", str(store.root), "--reference",
                 str(ref_path), "--format", fmt, "--model-name", "ab\udcff",
                 "--out", str(tmp_path / "r.txt")]) == 2
    cap = capsys.readouterr()
    assert cap.err.startswith("error: --model-name must be UTF-8 text")
    assert cap.out == ""
    assert file_tree(tmp_path) == before


@pytest.mark.parametrize("where", ["out_dir", "audio"])
def test_build_output_path_is_a_file(tmp_path, wav_pair, capsys, where):
    pairs = _pairs_file(tmp_path, wav_pair, n=1)
    out = tmp_path / "out"
    if where == "out_dir":
        out.write_text("a file")
    else:
        out.mkdir()
        (out / "audio").write_text("a file")
    assert main(["build", str(pairs), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "manifest.jsonl").exists()


def test_embed_mock_out_store_is_a_file(tmp_path, wav_pair, capsys):
    audio_dir = tmp_path / "clips"
    audio_dir.mkdir()
    (audio_dir / "a.wav").write_bytes(wav_pair[0].read_bytes())
    out = tmp_path / "afile"
    out.write_text("a file")
    assert main(["embed-mock", str(audio_dir), "--out-store", str(out)]) == 2
    assert capsys.readouterr().err == f"error: not a directory: {out}\n"
    assert out.read_text() == "a file"


def test_embed_mock_audio_dir_that_does_not_exist_is_usage_error(tmp_path, capsys):
    audio_dir, out = tmp_path / "gone", tmp_path / "st"
    assert main(["embed-mock", str(audio_dir), "--out-store", str(out)]) == 2
    assert capsys.readouterr().err == f"error: not a directory: {audio_dir}\n"
    assert not out.exists()


@pytest.mark.parametrize("entry", ["c1.audio", "c1.lat", "c1.pr"])
def test_eval_non_finite_entry_excludes_clip(tmp_path, rng, capsys, entry):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    rows = 10 if entry.endswith(".lat") else 1
    data = np.ones((rows, 8))
    data[0, 2] = np.nan
    write_mxeb(store.root / f"{entry}.mxeb", data)
    assert main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path), "--format", "csv"]) == 0
    cap = capsys.readouterr()
    assert cap.err.startswith("excluded c1: ")
    assert len(cap.out.splitlines()) == 2


def test_eval_vanished_entry_file_excludes_clip(tmp_path, rng, capsys):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    (store.root / "c0.tx.mxeb").unlink()
    assert main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path), "--format", "csv"]) == 0
    assert capsys.readouterr().err.startswith("excluded c0: ")


def test_eval_malformed_store_index(tmp_path, rng, capsys):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    (store.root / "index.json").write_text("{not json")
    assert main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path)]) == 2
    cap = capsys.readouterr()
    assert cap.err.startswith("error: ") and cap.out == ""


def test_eval_unreadable_store_index_is_usage_error(tmp_path, rng, capsys):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    index = store.root / "index.json"
    index.unlink()
    index.mkdir()
    assert main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path)]) == 2
    cap = capsys.readouterr()
    assert cap.err == f"error: {index}: [Errno 21] Is a directory: '{index}'\n"
    assert cap.out == ""


@pytest.mark.parametrize("kind", ["missing", "file", "empty directory"])
def test_eval_store_that_is_not_a_directory_is_usage_error(tmp_path, rng, capsys, kind):
    _, clips_path, ref_path = _eval_setup(tmp_path, rng)
    store_path = tmp_path / "other"
    if kind == "file":
        store_path.write_text("a file")
    elif kind == "empty directory":
        store_path.mkdir()
    code = main(["eval", str(clips_path), "--store", str(store_path),
                 "--reference", str(ref_path)])
    cap = capsys.readouterr()
    assert cap.out == ""
    if kind == "empty directory":  # a valid store that holds none of the clips' entries
        assert (code, cap.err) == (1, "error: clip 'c0': no store entry for id 'c0.audio'\n")
    else:
        assert (code, cap.err) == (2, f"error: not a directory: {store_path}\n")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eval_non_finite_reference_is_usage_error(tmp_path, rng, capsys, bad):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    write_mxeb(ref_path, np.full((9, 8), bad))
    assert main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path)]) == 2
    cap = capsys.readouterr()
    assert cap.err.startswith("error: ") and "ref.mxeb" in cap.err
    assert "excluded" not in cap.err and cap.out == ""


@pytest.mark.parametrize("rows_cols", [(65536, 65536), (0xFFFFFFFF, 0xFFFFFFFF)])
def test_eval_huge_entry_header_excludes_clip(tmp_path, rng, capsys, rows_cols):
    store, clips_path, ref_path = _eval_setup(tmp_path, rng)
    (store.root / "c1.audio.mxeb").write_bytes(b"MXEB\x01" + struct.pack("<II", *rows_cols))
    assert main(["eval", str(clips_path), "--store", str(store.root),
                 "--reference", str(ref_path), "--format", "csv"]) == 0
    cap = capsys.readouterr()
    assert cap.err.startswith("excluded c1: ") and "payload bytes" in cap.err
    assert len(cap.out.splitlines()) == 2


# each mutated input and the commands that read it
READERS = {
    "pairs.jsonl": ("build",), "config.json": ("build", "augment"),
    "clips.jsonl": ("eval",), "store/index.json": ("eval", "embed-mock"),
    "store/c0.audio.mxeb": ("eval",), "store/c1.lat.mxeb": ("eval",),
    "store/c2.pr.mxeb": ("eval",), "ref.mxeb": ("eval",),
    "in/p.wav": ("build", "augment", "embed-mock"), "in/s.wav": ("build", "augment"),
}


def _write_inputs(root):
    """Valid inputs for every command under root."""
    rng = np.random.default_rng(0)
    (root / "in").mkdir()
    save_wav(random_wave(rng, 4000), root / "in" / "p.wav", bit_depth=16)
    save_wav(random_wave(rng, 3500, channels=2), root / "in" / "s.wav", bit_depth=24)
    (root / "pairs.jsonl").write_text(json.dumps({
        "id": "p0", "primary_path": str(root / "in" / "p.wav"), "primary_label": "a dog",
        "secondary_path": str(root / "in" / "s.wav"), "secondary_label": "a horn"}) + "\n")
    (root / "config.json").write_text(json.dumps({
        "seed": 7, "augment_params": {"rms_frame_size": 1024, "rms_hop": 256},
        "mode_distribution": {"rms": 0.25, "spectral": 0.25, "both": 0.5},
        "timestep_window": {"t_start": 0.5, "t_end": 1.0}}))
    _eval_setup(root, rng)


def _argv(command, root):
    return {
        "build": ["build", root / "pairs.jsonl", "--out-dir", root / "out",
                  "--config", root / "config.json", "--jobs", "2"],
        "augment": ["augment", root / "in" / "p.wav", root / "in" / "s.wav", "--mode", "both",
                    "--out", root / "o.wav", "--config", root / "config.json"],
        "eval": ["eval", root / "clips.jsonl", "--store", root / "store",
                 "--reference", root / "ref.mxeb"],
        "embed-mock": ["embed-mock", root / "in", "--out-store", root / "store", "--latents"],
    }[command]


def _edit(path, change):
    """Replace a file's text (str), update its first JSON object (dict), or make it a directory."""
    if change is None:
        path.mkdir()
    elif isinstance(change, str):
        path.write_text(change)
    else:
        first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text("".join([json.dumps({**json.loads(first), **change}) + "\n", *rest]))


# name: (command, input file, its change, extra flags, exit code, text of the error line)
EXIT_CASES = {
    "config not an object": ("build", "config.json", "[1]", [], 2, "must be a JSON object"),
    "augment config not an object": ("augment", "config.json", "[1]", [], 2,
                                     "must be a JSON object"),
    "seed overflows": ("build", "config.json", '{"seed": 1e400}', [], 2, "infinity"),
    "null audio path": ("build", "pairs.jsonl", {"primary_path": None}, [], 2,
                        "audio paths must be strings"),
    "numeric audio path": ("build", "pairs.jsonl", {"secondary_path": 0}, [], 2,
                           "audio paths must be strings"),
    "empty pair label": ("build", "pairs.jsonl", {"primary_label": ""}, [], 2, "label ''"),
    "numeric pair label": ("build", "pairs.jsonl", {"secondary_label": 5}, [], 2, "label 5"),
    "fractional seed": ("build", "config.json", '{"seed": 2.5}', [], 2,
                        "seed must be an integer"),
    "string seed": ("build", "config.json", '{"seed": "2"}', [], 2, "seed must be an integer"),
    "bool seed": ("build", "config.json", '{"seed": true}', [], 2, "seed must be an integer"),
    "null pair id": ("build", "pairs.jsonl", {"id": None}, [], 2, "pair id None"),
    "bool pair id": ("build", "pairs.jsonl", {"id": True}, [], 2, "pair id True"),
    "list pair id": ("build", "pairs.jsonl", {"id": [1]}, [], 2, "pair id [1]"),
    "float pair id": ("build", "pairs.jsonl", {"id": 1.5}, [], 2, "pair id 1.5"),
    "bool int parameter": ("build", "config.json", '{"augment_params": {"rms_hop": true}}', [],
                           2, "rms_hop must be int"),
    "bool float parameter": ("augment", "config.json", '{"augment_params": {"epsilon": true}}',
                             [], 2, "epsilon must be float"),
    "bool mode probabilities": ("build", "config.json",
                                '{"mode_distribution": {"rms": true, "spectral": false, '
                                '"both": false}}', [], 2, "rms must be float"),
    "bool timestep window": ("build", "config.json",
                             '{"timestep_window": {"t_start": false, "t_end": true}}', [], 2,
                             "t_start must be float"),
    "fractional frame size": ("build", "config.json",
                              '{"augment_params": {"rms_frame_size": 2048.5}}', [], 2,
                              "rms_frame_size must be int"),
    "hop past the frame": ("build", None, None, ["--rms-hop", "4096"], 2,
                           "need rms_frame_size >= rms_hop >= 1"),
    "zero epsilon": ("build", None, None, ["--epsilon", "0"], 2, "epsilon must be positive"),
    "output peak past 1": ("build", None, None, ["--output-peak", "1.5"], 2,
                           "output_peak must be in (0, 1]"),
    "nan epsilon": ("build", None, None, ["--epsilon", "nan"], 2, "epsilon must be finite"),
    "inf epsilon": ("build", None, None, ["--epsilon", "inf"], 2, "epsilon must be finite"),
    "augment nan epsilon": ("augment", None, None, ["--epsilon", "nan"], 2,
                            "epsilon must be finite"),
    "augment inf epsilon": ("augment", None, None, ["--epsilon", "inf"], 2,
                            "epsilon must be finite"),
    "nan mode probability": ("build", "config.json", '{"mode_distribution": {"rms": NaN}}', [],
                             2, "rms must be finite"),
    "model name with a newline": ("eval", None, None, ["--model-name", "two\nlines"], 2,
                                  "--model-name must be one line"),
    "model name with a carriage return": ("eval", None, None, ["--model-name", "a\rb"], 2,
                                          "--model-name must be one line"),
    "model name that is not UTF-8": ("eval", None, None, ["--model-name", "ab\udcff"], 2,
                                     "--model-name must be UTF-8 text"),
    "nan temperature": ("eval", None, None, ["--temperature", "nan"], 2,
                        "temperature must be finite"),
    "empty augment label": ("augment", None, None, ["--primary-label", ""], 2, "non-empty"),
    "primary label that is not UTF-8": ("augment", None, None, ["--primary-label", "ab\udcff"],
                                        2, "--primary-label must be UTF-8 text"),
    "secondary label that is not UTF-8": ("augment", None, None,
                                          ["--secondary-label", "ab\udcff"], 2,
                                          "--secondary-label must be UTF-8 text"),
    "list clip id": ("eval", "clips.jsonl", {"audio_id": ["c0.audio"]}, [], 2,
                     "audio_id must be str"),
    "null index file name": ("eval", "store/index.json", '{"entries": {"c0.audio": null}}', [],
                             2, "file names"),
    "index file name outside the store": ("eval", "store/index.json",
                                          '{"entries": {"c0.audio": "../ref.mxeb"}}', [], 2,
                                          "'../ref.mxeb'"),
    "index file name with a lone surrogate": ("eval", "store/index.json",
                                              '{"entries": {"c0.audio": "\\ud800.mxeb"}}', [],
                                              2, "cannot name a file"),
    "embed index file name with a lone surrogate": ("embed-mock", "store/index.json",
                                                    '{"entries": {"a": "\\ud800.mxeb"}}', [],
                                                    2, "cannot name a file"),
    "pair id with a lone surrogate": ("build", "pairs.jsonl", {"id": "\ud800x"}, [], 2,
                                      "cannot name a file"),
    "pair id that is not UTF-8": ("build", "pairs.jsonl", {"id": "\udcffx"}, [], 2,
                                  "is not UTF-8 text"),
    "zero-column reference": ("eval", "ref.mxeb", "MXEB\x01" + struct.pack("<II", 1, 0).decode(),
                              [], 2, "need D >= 1 and a D x D covariance"),
    "unwritable store index": ("embed-mock", "store/index.json.tmp", None, [], 1,
                               "index.json"),
    "pairs line that is not JSON": ("build", "pairs.jsonl", "{not json\n", [], 2,
                                    "pairs.jsonl:1: "),
    "pairs line that is not an object": ("build", "pairs.jsonl", "[1]\n", [], 2,
                                         "pairs.jsonl:1: not a JSON object"),
    "clips line that is not JSON": ("eval", "clips.jsonl", "{not json\n", [], 2,
                                    "clips.jsonl:1: "),
    "clips line that is not an object": ("eval", "clips.jsonl", "[1]\n", [], 2,
                                         "clips.jsonl:1: not a JSON object"),
}


@pytest.mark.parametrize("case", EXIT_CASES)
def test_bad_input_exit_code(tmp_path, capsys, case):
    command, name, change, flags, code, text = EXIT_CASES[case]
    _write_inputs(tmp_path)
    if name is not None:
        _edit(tmp_path / name, change)
    before = file_tree(tmp_path)
    assert main([str(a) for a in _argv(command, tmp_path)] + flags) == code
    cap = capsys.readouterr()
    assert cap.err.startswith("error: ") and len(cap.err.splitlines()) == 1
    assert text in cap.err
    assert cap.out == ""
    assert file_tree(tmp_path) == before


@pytest.mark.parametrize("command, name", [("build", "pairs.jsonl"), ("eval", "clips.jsonl"),
                                           ("eval", "ref.mxeb")])
def test_missing_input_file_is_usage_error(tmp_path, capsys, command, name):
    _write_inputs(tmp_path)
    (tmp_path / name).unlink()
    before = file_tree(tmp_path)
    assert main([str(a) for a in _argv(command, tmp_path)]) == 2
    cap = capsys.readouterr()
    assert cap.err.startswith("error: ") and len(cap.err.splitlines()) == 1
    assert str(tmp_path / name) in cap.err
    assert cap.out == ""
    assert file_tree(tmp_path) == before


JSON_TOKENS = [b"null", b"0", b"-1", b"1e400", b"NaN", b"-Infinity", b"[]", b"{}", b'""',
               b"true", b"2048.5", b'"x"', b"[1]", b'"\\u0000"', b'"\\ud800"', b'"\\udcff"']
# a JSON string or number, for the "token" edit
TOKEN = re.compile(rb'"[^"\\]*"|-?[0-9][0-9.eE+-]*')
EDITS = st.lists(st.tuples(
    st.sampled_from(("replace", "insert", "delete", "truncate", "token")),
    st.one_of(st.integers(0, 48), st.integers(0, 1 << 16)),
    st.one_of(st.binary(min_size=1, max_size=6), st.sampled_from(JSON_TOKENS)),
), min_size=1, max_size=3)


def _mutate(data, edits):
    data = bytearray(data)
    for kind, pos, chunk in edits:
        pos %= len(data) + 1
        tokens = list(TOKEN.finditer(data)) if kind == "token" else None
        if tokens:
            token = tokens[pos % len(tokens)]
            data[token.start():token.end()] = chunk
        elif kind == "replace":
            data[pos:pos + len(chunk)] = chunk
        elif kind == "insert":
            data[pos:pos] = chunk
        elif kind == "delete":
            del data[pos:pos + len(chunk)]
        elif kind == "truncate":
            del data[pos:]
    return bytes(data)


@settings(max_examples=60, deadline=None)
@given(target=st.sampled_from(sorted(READERS)), edits=EDITS)
def test_mutated_input_ends_in_an_exit_code(target, edits):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_inputs(root)
        path = root / target
        path.write_bytes(_mutate(path.read_bytes(), edits))
        closed = io.StringIO()
        closed.close()
        sink = io.StringIO()
        with mock.patch.object(sys, "stdin", closed), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            for command in READERS[target]:
                code = main([str(a) for a in _argv(command, root)])
                assert code in (0, 1, 2), (command, sink.getvalue())


# every finite float32, subnormals and values near the float32 maximum included; 0 frames
# is an empty data chunk
TINY_WAV = st.integers(1, 2).flatmap(lambda channels: st.lists(
    st.tuples(*[st.floats(width=32, allow_nan=False, allow_infinity=False)] * channels),
    max_size=20))


@settings(max_examples=40, deadline=None)
@given(primary=TINY_WAV, secondary=TINY_WAV)
def test_tiny_inputs_end_in_an_exit_code(primary, secondary):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        p, s, o = root / "p.wav", root / "s.wav", root / "o.wav"
        float_wav(p, primary)
        float_wav(s, secondary)
        pairs = _pairs_file(root, (p, s), n=2)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for mode in ("none", "rms", "spectral", "both"):
                for flags in ([], ["--per-channel"]):
                    o.unlink(missing_ok=True)
                    code = main(["augment", str(p), str(s), "--mode", mode, "--out", str(o), *flags])
                    assert code in (0, 1, 2), (mode, flags, sink.getvalue())
                    assert not o.exists() or np.isfinite(_wav_samples(o)).all(), (mode, flags)
                out = root / mode
                code = main(["build", str(pairs), "--out-dir", str(out),
                             "--config", str(_mode_config(root / "config.json", mode))])
                assert code in (0, 1, 2), (mode, sink.getvalue())
                assert len((out / "manifest.jsonl").read_text().splitlines()) == 2
                for wav in (out / "audio").iterdir():
                    assert np.isfinite(_wav_samples(wav)).all(), (mode, wav.name)
