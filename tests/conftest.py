import numpy as np
import pytest

from morphmix import metrics
from morphmix.audio_io import Waveform


def make_wave(samples, sr=48000):
    return Waveform(np.asarray(samples, dtype=np.float32), sr)


def random_wave(rng, n, sr=48000, amp=0.3, channels=1):
    data = rng.uniform(-amp, amp, size=(channels, n)).astype(np.float32)
    return Waveform(data, sr)


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
