import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from morphmix import metrics
from morphmix.audio_io import Waveform, to_mono


def fresh_python(*args):
    """A fresh interpreter run on args; it imports morphmix from src/ and starts with the
    default warning filters, so only args set one."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def run_python(code):
    """The stdout of code run by a fresh interpreter that imports morphmix from src/."""
    result = fresh_python("-c", code)
    result.check_returncode()
    return result.stdout


def raw_wav(path, payload, channels=1, bits=32, fmt=None):
    """Write payload bytes as they are under a WAV header: IEEE float for 32 bits, PCM
    for 16 and 24, or the fmt chunk bytes given. save_wav cannot write the empty or
    non-finite files that load_wav rejects."""
    if fmt is None:
        block = channels * bits // 8
        fmt = struct.pack("<HHIIHH", 3 if bits == 32 else 1, channels, 48000, 48000 * block,
                          block, bits)
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload + b"\x00" * (len(payload) & 1)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def float_wav(path, frames):
    """A float32 WAV of frames: equal-length sample tuples or an (n_frames, channels) array."""
    frames = np.asarray(frames, dtype="<f4")
    raw_wav(path, frames.tobytes(), frames.shape[1] if frames.ndim == 2 else 1)


def file_tree(root):
    """Every path under root, with its bytes if it is a file."""
    return {f.relative_to(root): f.is_file() and f.read_bytes() for f in root.rglob("*")}


def make_wave(samples, sr=48000):
    return Waveform(np.asarray(samples, dtype=np.float32), sr)


def random_wave(rng, n, sr=48000, amp=0.3, channels=1):
    data = rng.uniform(-amp, amp, size=(channels, n)).astype(np.float32)
    return Waveform(data, sr)


class HalfWriter:
    """A file whose write stores half the bytes, then fails like a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, b):
        self.f.write(b[:len(b) // 2])
        raise OSError("disk full")


def per_frame_logmel(w, n_bands, frame, hop):
    """Reference log-mel: one rfft and one mel matrix-vector product per frame.

    metrics._logmel_frames takes its frames in blocks and must match this
    bit for bit.
    """
    x = to_mono(w).data[0].astype(np.float64)
    n_frames = max((len(x) - frame) // hop + 1, 0)
    if n_frames < 1:
        return np.empty((0, n_bands))
    fb = metrics._mel_filterbank(n_bands, frame // 2 + 1, w.sample_rate)
    win = np.hanning(frame)
    out = np.empty((n_frames, n_bands))
    for k in range(n_frames):
        power = np.abs(np.fft.rfft(x[k * hop:k * hop + frame] * win)) ** 2
        out[k] = np.log(fb @ power + metrics._LOG_FLOOR)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def logmel_calls(monkeypatch):
    """The (n_bands, frame, hop) of each log-mel STFT taken while the test runs."""
    calls = []
    compute = metrics._logmel_frames

    def counting(w, n_bands, frame, hop):
        calls.append((n_bands, frame, hop))
        return compute(w, n_bands, frame, hop)

    monkeypatch.setattr(metrics, "_logmel_frames", counting)
    return calls
