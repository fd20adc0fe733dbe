import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphmix import errors
from morphmix.audio_io import Waveform, load_wav, save_wav, to_mono

from conftest import HalfWriter, float_wav, make_wave, random_wave, raw_wav


def data_chunk(path):
    raw = path.read_bytes()
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        if cid == b"data":
            return raw[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)
    raise AssertionError("no data chunk")


def test_16bit_scaling(tmp_path):
    path = tmp_path / "a.wav"
    save_wav(make_wave([0.5]), path, bit_depth=16)
    ints = np.frombuffer(data_chunk(path), dtype="<i2")
    assert ints[0] == 16384
    w = load_wav(path)
    assert w.data[0, 0] == pytest.approx(0.5)


def test_metadata_preserved(tmp_path):
    path = tmp_path / "a.wav"
    rng = np.random.default_rng(0)
    save_wav(random_wave(rng, 48000, sr=48000), path, bit_depth=16)
    w = load_wav(path)
    assert w.n_samples == 48000
    assert w.sample_rate == 48000
    assert w.n_channels == 1


def test_quantizer_boundaries(tmp_path):
    path = tmp_path / "a.wav"
    save_wav(make_wave([0.5, 1.5, -1.0, -1.5]), path, bit_depth=16)
    ints = np.frombuffer(data_chunk(path), dtype="<i2")
    assert list(ints) == [16384, 32767, -32768, -32768]


def test_quantizer_matches_direct_formula(tmp_path, rng):
    # oracle: round half away from zero of clip(x)*32768, clipped to int16 range
    x = rng.uniform(-1.2, 1.2, 500)
    path = tmp_path / "a.wav"
    save_wav(make_wave(x), path, bit_depth=16)
    stored = np.frombuffer(data_chunk(path), dtype="<i2").astype(np.int64)
    c = np.clip(np.asarray(x, dtype=np.float32).astype(np.float64), -1, 1) * 32768
    expect = np.where(c >= 0, np.floor(c + 0.5), np.ceil(c - 0.5))
    expect = np.clip(expect, -32768, 32767).astype(np.int64)
    assert np.array_equal(stored, expect)


@pytest.mark.parametrize("bits", [16, 24])
def test_quantizer_rounds_halves_away_from_zero(tmp_path, bits):
    # k + 1/2 steps of 2^-(bits-1) are exact in float32, so each is a true tie
    scale = 2.0 ** (bits - 1)
    halves = [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, -0.25, 0.25]
    path = tmp_path / "a.wav"
    save_wav(make_wave([h / scale for h in halves]), path, bit_depth=bits)
    assert list(load_wav(path).data[0] * scale) == [1, -1, 2, -2, 3, -3, 0, 0]


@pytest.mark.parametrize("sample_rate,channels,bits,field", [
    (1 << 30, 1, 32, "byte rate"),
    ((1 << 31) - 1, 2, 16, "byte rate"),
])
def test_header_field_past_its_width_is_unsupported(tmp_path, sample_rate, channels, bits, field):
    path = tmp_path / "a.wav"
    w = Waveform(np.zeros((channels, 10), np.float32), sample_rate)
    with pytest.raises(errors.UnsupportedEncoding, match=field):
        save_wav(w, path, bit_depth=bits)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bits", [16, 24])
def test_roundtrip_byte_identical_int_pcm(tmp_path, rng, bits):
    # save->load->save must reproduce the data chunk byte for byte
    f1 = tmp_path / "one.wav"
    f2 = tmp_path / "two.wav"
    for trial in range(5):
        w = random_wave(rng, 1000 + trial, amp=0.99, channels=1 + trial % 2)
        save_wav(w, f1, bit_depth=bits)
        save_wav(load_wav(f1), f2, bit_depth=bits)
        assert data_chunk(f1) == data_chunk(f2)


def test_roundtrip_float32_bit_exact(tmp_path, rng):
    path = tmp_path / "a.wav"
    w = random_wave(rng, 4000, channels=2)
    save_wav(w, path, bit_depth=32)
    assert np.array_equal(load_wav(path).data, w.data)


def test_roundtrip_16bit_within_quantization_error(tmp_path, rng):
    path = tmp_path / "a.wav"
    w = random_wave(rng, 4000, amp=0.9)
    save_wav(w, path, bit_depth=16)
    assert np.max(np.abs(load_wav(path).data - w.data)) <= 2 ** -15


def test_24bit_roundtrip_values(tmp_path):
    path = tmp_path / "a.wav"
    save_wav(make_wave([0.5, -1.0, 0.25]), path, bit_depth=24)
    w = load_wav(path)
    assert w.data[0, 0] == pytest.approx(0.5)
    assert w.data[0, 1] == pytest.approx(-1.0)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.sampled_from([16, 24, 32]),
    channels=st.integers(1, 2),
    n=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
)
def test_roundtrip_property_every_format(bits, channels, n, seed):
    # samples beyond [-1, 1] exercise the quantizer's clamp
    w = random_wave(np.random.default_rng(seed), n, sr=44100, amp=1.1, channels=channels)
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "a.wav", Path(tmp) / "b.wav"
        save_wav(w, path, bit_depth=bits)
        got = load_wav(path)
        save_wav(got, again, bit_depth=bits)
        payload = data_chunk(path)
        assert data_chunk(again) == payload
    assert got.sample_rate == 44100
    assert got.data.shape == (channels, n)
    if bits == 32:
        assert np.array_equal(got.data, w.data)
    else:
        # oracle: round half away from zero of clip(x) * 2^(bits-1), clamped to the int range
        scale = float(1 << (bits - 1))
        c = np.clip(w.data.astype(np.float64), -1, 1) * scale
        q = np.clip(np.where(c >= 0, np.floor(c + 0.5), np.ceil(c - 0.5)), -scale, scale - 1)
        assert np.array_equal(got.data, (q / scale).astype(np.float32))
    if bits == 24:
        # oracle encoder: three masked byte columns per little-endian sample, frame-major
        u = q.T.ravel().astype(np.int64) & 0xFFFFFF
        columns = np.stack([u & 0xFF, (u >> 8) & 0xFF, (u >> 16) & 0xFF], axis=1)
        assert payload == columns.astype(np.uint8).tobytes()


def _pcm24_reference(payload, channels):
    """Decode 24-bit little-endian PCM one byte at a time; a partial sample is dropped."""
    values = []
    for i in range(0, len(payload) - 2, 3):
        v = payload[i] | payload[i + 1] << 8 | payload[i + 2] << 16
        if v >= 1 << 23:
            v -= 1 << 24
        values.append(v / float(1 << 23))
    n_frames = len(values) // channels
    frames = [values[k * channels:(k + 1) * channels] for k in range(n_frames)]
    return np.array(frames, dtype=np.float64).reshape(n_frames, channels).T.astype(np.float32)


@settings(max_examples=100, deadline=None)
@given(
    codes=st.lists(st.one_of(st.sampled_from([0x800000, 0x7FFFFF, 0xFFFFFF, 0x000000, 0x000001]),
                             st.integers(0, 0xFFFFFF)), max_size=64),
    tail=st.binary(max_size=2),
    channels=st.integers(1, 2),
)
def test_pcm24_decode_matches_bytewise_reference(codes, tail, channels):
    payload = b"".join(c.to_bytes(3, "little") for c in codes) + tail
    expect = _pcm24_reference(payload, channels)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.wav"
        raw_wav(path, payload, channels, bits=24)
        if expect.shape[1] == 0:
            with pytest.raises(errors.EmptyInput, match=re.escape(str(path))):
                load_wav(path)
            return
        got = load_wav(path)
    assert got.data.shape == expect.shape
    assert np.array_equal(got.data, expect)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("bits, sample, error", [
    (16, None, errors.EmptyInput),
    (24, None, errors.EmptyInput),
    (32, None, errors.EmptyInput),
    (32, np.nan, errors.NonFiniteInput),
    (32, np.inf, errors.NonFiniteInput),
    (32, -np.inf, errors.NonFiniteInput),
], ids=["16-bit-empty", "24-bit-empty", "32-bit-empty", "nan", "+inf", "-inf"])
def test_wav_without_samples_or_with_a_non_finite_one_names_its_file(
        tmp_path, bits, sample, error, channels):
    path = tmp_path / "a.wav"
    if sample is None:
        raw_wav(path, b"", channels, bits)
    else:
        frames = np.full((3, channels), 0.25, dtype="<f4")
        frames[1, -1] = sample
        float_wav(path, frames)
    with pytest.raises(error, match=re.escape(str(path))):
        load_wav(path)


def test_unreadable_path_is_io_failure(tmp_path):
    (tmp_path / "x.wav").mkdir()
    for path in (tmp_path / "x.wav", tmp_path / "missing.wav"):
        with pytest.raises(errors.IoFailure, match=path.name):
            load_wav(path)


def test_not_riff_raises(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"OggS" + b"\x00" * 100)
    with pytest.raises(errors.MalformedHeader):
        load_wav(path)


def test_unsupported_encoding(tmp_path):
    path = tmp_path / "law.wav"
    raw_wav(path, b"\x00" * 4, fmt=struct.pack("<HHIIHH", 7, 1, 8000, 8000, 1, 8))  # mu-law
    with pytest.raises(errors.UnsupportedEncoding):
        load_wav(path)



@pytest.mark.parametrize("fmt,error,text", [
    (struct.pack("<HHIIH", 1, 1, 8000, 16000, 2), errors.MalformedHeader, "fmt chunk too short"),
    (struct.pack("<HHIIHH", 1, 3, 8000, 48000, 6, 16), errors.UnsupportedEncoding,
     "3 channels not supported"),
    (struct.pack("<HHIIHH", 3, 1, 8000, 64000, 8, 64), errors.UnsupportedEncoding,
     "64-bit float not supported"),
    (struct.pack("<HHIIHH", 1, 1, 8000, 8000, 1, 8), errors.UnsupportedEncoding,
     "8-bit PCM not supported"),
], ids=["14-byte fmt chunk", "3 channels", "64-bit float", "8-bit PCM"])
def test_fmt_chunk_outside_the_supported_encodings(tmp_path, fmt, error, text):
    path = tmp_path / "a.wav"
    raw_wav(path, b"\x00" * 24, fmt=fmt)
    with pytest.raises(error, match=text):
        load_wav(path)


def test_waveform_of_a_3d_array_is_invalid():
    with pytest.raises(errors.InvalidWaveform, match="ndim=3"):
        Waveform(np.zeros((1, 1, 4), dtype=np.float32), 48000)


def test_save_wav_8_bit_is_value_error(tmp_path):
    with pytest.raises(ValueError, match="bit_depth must be 16, 24 or 32, got 8"):
        save_wav(make_wave([0.5, -0.5]), tmp_path / "a.wav", bit_depth=8)
    assert not (tmp_path / "a.wav").exists()


@pytest.mark.parametrize("bits,channels,block_align",
                         [(16, 2, 3), (16, 2, 8), (16, 2, 2), (16, 1, 4), (24, 1, 4), (32, 2, 4)])
def test_block_align_other_than_packed_frames_is_unsupported(tmp_path, rng, bits, channels,
                                                             block_align):
    path = tmp_path / "a.wav"
    save_wav(random_wave(rng, 100, channels=channels), path, bit_depth=bits)
    raw = bytearray(path.read_bytes())  # save_wav writes the fmt chunk first
    assert struct.unpack_from("<H", raw, 32) == (channels * bits // 8,)
    struct.pack_into("<H", raw, 32, block_align)
    path.write_bytes(raw)
    with pytest.raises(errors.UnsupportedEncoding, match="block align"):
        load_wav(path)


def extensible_copy(src, dst, subformat, fmt_len=40, cb_size=22):
    """Rewrite src's fmt chunk as WAVE_FORMAT_EXTENSIBLE naming `subformat`."""
    _, ch, sr, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", src.read_bytes(), 20)
    guid = struct.pack("<I", subformat) + bytes.fromhex("0000 1000 8000 00aa00389b71")
    fmt = struct.pack("<HHIIHH", 0xFFFE, ch, sr, byte_rate, block_align, bits)
    fmt = (fmt + struct.pack("<HHI", cb_size, bits, 0) + guid)[:fmt_len]
    raw_wav(dst, data_chunk(src), fmt=fmt)


@pytest.mark.parametrize("bits,channels,subformat", [(16, 1, 1), (24, 2, 1), (32, 2, 3)])
def test_extensible_decodes_like_plain_tag(tmp_path, rng, bits, channels, subformat):
    plain, ext = tmp_path / "plain.wav", tmp_path / "ext.wav"
    save_wav(random_wave(rng, 1001, channels=channels), plain, bit_depth=bits)
    extensible_copy(plain, ext, subformat)
    a, b = load_wav(plain), load_wav(ext)
    assert np.array_equal(a.data, b.data)
    assert a.sample_rate == b.sample_rate


def test_extensible_rejects_other_subformat(tmp_path, rng):
    plain, ext = tmp_path / "plain.wav", tmp_path / "alaw.wav"
    save_wav(random_wave(rng, 100), plain, bit_depth=16)
    extensible_copy(plain, ext, 6)  # A-law
    with pytest.raises(errors.UnsupportedEncoding):
        load_wav(ext)


@pytest.mark.parametrize("fmt_len,cb_size", [(24, 22), (40, 0)])
def test_extensible_short_fmt_chunk(tmp_path, rng, fmt_len, cb_size):
    plain, ext = tmp_path / "plain.wav", tmp_path / "short.wav"
    save_wav(random_wave(rng, 100), plain, bit_depth=16)
    extensible_copy(plain, ext, 1, fmt_len=fmt_len, cb_size=cb_size)
    with pytest.raises(errors.MalformedHeader):
        load_wav(ext)


def test_save_wav_failure_keeps_previous_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "a.wav"
    save_wav(random_wave(rng, 1000), path, bit_depth=16)
    before = path.read_bytes()

    # the fault is injected into the atomic writer that save_wav calls
    monkeypatch.setattr(errors, "open", lambda p, mode: HalfWriter(open(p, mode)),
                        raising=False)
    with pytest.raises(errors.IoFailure):
        save_wav(random_wave(rng, 2000), path, bit_depth=32)
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]

def test_truncated_data(tmp_path):
    path = tmp_path / "t.wav"
    save_wav(make_wave(np.zeros(100)), path, bit_depth=16)
    path.write_bytes(path.read_bytes()[:-50])
    with pytest.raises(errors.TruncatedData):
        load_wav(path)


def test_to_mono_identity_and_average():
    mono = make_wave([0.1, 0.2])
    assert to_mono(mono) is mono
    stereo = Waveform(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32), 48000)
    assert np.allclose(to_mono(stereo).data, [[0.5, 0.5]])


def test_to_mono_elementwise_mean_oracle(rng):
    w = random_wave(rng, 777, channels=2)
    got = to_mono(w).data[0]
    expect = np.array([(w.data[0, i] + w.data[1, i]) / 2 for i in range(777)])
    assert np.allclose(got, expect, atol=1e-7)


def test_to_mono_idempotent(rng):
    w = random_wave(rng, 100, channels=2)
    once = to_mono(w)
    assert np.array_equal(to_mono(once).data, once.data)


def test_invalid_waveform():
    with pytest.raises(errors.InvalidWaveform):
        Waveform(np.zeros((1, 4), dtype=np.float32), 0)


@pytest.mark.parametrize("shape", [(1000,), (2, 1000)])
def test_waveform_rounds_a_float64_array_once_to_float32(rng, shape):
    # the stages pass their float64 results to Waveform uncast
    x64 = rng.normal(size=shape)
    got = Waveform(x64, 48000).data
    expect = Waveform(x64.astype(np.float32), 48000).data
    assert got.dtype == np.float32 and got.tobytes() == expect.tobytes()
    assert got.flags.c_contiguous and not got.flags.writeable


@pytest.mark.parametrize("view", [lambda b: b, lambda b: b[:4], lambda b: b.reshape(2, 4)])
def test_waveform_samples_cannot_change(view):
    buf = np.zeros(8, dtype=np.float32)
    w = Waveform(view(buf), 48000)
    with pytest.raises(ValueError):
        w.data[0, 0] = 1.0
    buf[0] = 1.0
    assert w.data[0, 0] == 0.0
