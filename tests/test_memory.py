"""Peak memory of one pair's stages, in multiples of the signal's float32 bytes.

tracemalloc counts every numpy data allocation, so each peak is the same on
every run and the bounds can sit just above the measured values. The bounds
hold the working set that `build` needs per worker thread: an extra copy of
the signal in any stage moves its peak by at least one unit (a float64 copy
by two) and fails here. One test reads peak RSS in MB instead, for the FFT
scratch that tracemalloc does not see.
"""

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from morphmix.audio_io import Waveform, load_wav, save_wav
from morphmix.dsp import AugmentationMode, augment_pair

from conftest import run_python

N = 120_000  # 2.5 s at 48 kHz: large enough that the fixed costs are under 0.1 unit


def _peak_units(fn, signal_bytes):
    """Peak bytes allocated while fn runs, its result included, over signal_bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / signal_bytes


def _noise(rng, shape):
    return (0.3 * rng.standard_normal(shape)).astype(np.float32)


# measured 4.28, 5.04, 11.29 and 11.01; with a float64 temporary per stage they read
# 5.14, 8.03, 14.29 and 14.01
@pytest.mark.parametrize("mode,bound", [
    (AugmentationMode.NONE, 4.5),
    (AugmentationMode.RMS_ONLY, 5.5),
    (AugmentationMode.SPECTRAL_ONLY, 11.5),
    (AugmentationMode.BOTH, 11.5),
])
def test_augment_pair_peak(rng, mode, bound):
    primary = Waveform(_noise(rng, N), 48000)
    secondary = Waveform(_noise(rng, 50_000), 48000)  # looped, as most build pairs are
    units = _peak_units(lambda: augment_pair(primary, secondary, mode), primary.data.nbytes)
    assert units < bound


# a prime length takes both spectra from one complex FFT: measured 11.01 for both
# modes, the eq_curve peak of the smooth length; the transforms peak below it
@pytest.mark.parametrize("mode", [AugmentationMode.SPECTRAL_ONLY, AugmentationMode.BOTH])
def test_augment_pair_peak_at_a_bluestein_length(rng, mode):
    primary = Waveform(_noise(rng, N + 11), 48000)  # 120,011 is prime
    secondary = Waveform(_noise(rng, 50_000), 48000)
    units = _peak_units(lambda: augment_pair(primary, secondary, mode), primary.data.nbytes)
    assert units < 11.5


# tracemalloc does not see the scratch that pocketfft allocates itself, most of the
# peak at a Bluestein length, so this reads the peak RSS that one spectral pair
# adds in a fresh process after a 1 s warm-up pair
_RSS_SCRIPT = """
import resource
import numpy as np
from morphmix.audio_io import Waveform
from morphmix.dsp import AugmentationMode, augment_pair

rng = np.random.default_rng(0)
warm, primary, secondary = (Waveform((0.3 * rng.standard_normal(n)).astype(np.float32), 48000)
                            for n in (48_000, 240_007, 240_000))
augment_pair(warm, secondary, AugmentationMode.SPECTRAL_ONLY)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
augment_pair(primary, secondary, AugmentationMode.SPECTRAL_ONLY)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


# measured 35.6 MB; the bound is 1.5 times the 39.5 MB first measured
@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kilobytes on Linux")
def test_augment_pair_peak_rss_at_a_bluestein_length():
    assert int(run_python(_RSS_SCRIPT)) / 1024 < 60


# measured (stereo) 1.54, 2.79 and 2.00; with a copy of the file's bytes and float64
# temporaries they read 3.0, 4.5 and 4.0
@pytest.mark.parametrize("bits,bound", [(16, 2.0), (24, 3.25), (32, 2.5)])
def test_load_wav_peak(tmp_path, rng, bits, bound):
    w = Waveform(_noise(rng, (2, N)), 48000)
    path = tmp_path / "a.wav"
    save_wav(w, path, bit_depth=bits)
    assert _peak_units(lambda: load_wav(path), w.data.nbytes) < bound


# the 32-bit float save that build makes: measured 1.01 (stereo); with the payload
# copied by tobytes and two bytes concatenations it read 3.0
def test_save_wav_peak(tmp_path, rng):
    w = Waveform(_noise(rng, (2, N)), 48000)
    assert _peak_units(lambda: save_wav(w, tmp_path / "a.wav"), w.data.nbytes) < 1.5


# the integer saves round one float64 copy in place: measured (stereo) 2.50 and
# 3.00; with a float64 temporary per rounding step both read 8.25
@pytest.mark.parametrize("bits,bound", [(16, 2.6), (24, 3.1)])
def test_save_wav_integer_peak(tmp_path, rng, bits, bound):
    w = Waveform(_noise(rng, (2, N)), 48000)
    units = _peak_units(lambda: save_wav(w, tmp_path / "a.wav", bit_depth=bits), w.data.nbytes)
    assert units < bound
