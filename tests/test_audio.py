import numpy as np
import pytest
from scipy.io import wavfile

from wwspot import audio
from wwspot.audio import AudioClip, parallel_map, read_wav, rms_power, write_wav
from wwspot.tsv import DataError


def test_full_scale_int16_maps_to_one(tmp_path):
    path = tmp_path / "fs.wav"
    wavfile.write(path, 16000, np.array([32767, -32768], dtype=np.int16))
    clip = read_wav(path)
    assert clip.samples[0] == pytest.approx(32767 / 32768, abs=1e-12)
    assert clip.samples[1] == pytest.approx(-1.0, abs=1e-12)


def test_stereo_averages_to_mono(tmp_path):
    path = tmp_path / "st.wav"
    frames = np.tile(np.array([[1.0, 0.0]], dtype=np.float32), (10, 1))
    wavfile.write(path, 16000, frames)
    clip = read_wav(path)
    assert np.allclose(clip.samples, 0.5)


def test_rejects_other_sample_rates(tmp_path):
    path = tmp_path / "8k.wav"
    wavfile.write(path, 8000, np.zeros(100, dtype=np.int16) + 5)
    with pytest.raises(DataError, match="unsupported sample rate"):
        read_wav(path)


def test_rejects_missing_and_non_wav(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        read_wav(tmp_path / "absent.wav")
    junk = tmp_path / "junk.wav"
    junk.write_text("definitely not RIFF")
    with pytest.raises(DataError, match="junk.wav: not a readable PCM WAV"):
        read_wav(junk)


def test_rejects_zero_length(tmp_path):
    path = tmp_path / "empty.wav"
    wavfile.write(path, 16000, np.zeros(0, dtype=np.int16))
    with pytest.raises(DataError, match="zero-length"):
        read_wav(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rejects_non_finite_float_samples(tmp_path, dtype):
    path = tmp_path / "nan.wav"
    frames = np.zeros((100, 2), dtype=dtype)
    frames[40, 1] = np.nan  # one channel is enough, before the mono mix
    wavfile.write(path, 16000, frames)
    with pytest.raises(DataError, match=f"{path}: non-finite samples"):
        read_wav(path)


def test_write_peak_normalizes_above_one(tmp_path):
    clip = AudioClip(np.array([2.0, -1.0, 0.5]))
    path = tmp_path / "peak.wav"
    write_wav(clip, path)
    back = read_wav(path)
    assert np.max(np.abs(back.samples)) == pytest.approx(0.999, abs=1e-4)
    # all samples scaled by 0.999/2.0
    assert back.samples[1] == pytest.approx(-0.4995, abs=1e-4)
    assert back.samples[2] == pytest.approx(0.24975, abs=1e-4)


def test_write_below_one_is_untouched(tmp_path):
    clip = AudioClip(np.array([0.5, -0.25, 0.125]))
    path = tmp_path / "flat.wav"
    write_wav(clip, path)
    back = read_wav(path)
    assert np.max(np.abs(back.samples - clip.samples)) <= 1 / 32768


def test_round_trip_within_quantization_step(tmp_path):
    # quantization-bound oracle: |round(x*2^15)/2^15 - x| <= 2^-15 for |x| <= 1
    rng = np.random.default_rng(11)
    for i in range(20):
        samples = rng.uniform(-1.0, 1.0, size=1000)
        clip = AudioClip(samples, id=f"rt{i}")
        path = tmp_path / f"rt{i}.wav"
        write_wav(clip, path)
        back = read_wav(path)
        assert np.max(np.abs(back.samples - samples)) <= 2**-15 + 1e-15


def test_rms_power_basics():
    assert rms_power(np.full(100, 0.5)) == pytest.approx(0.25)
    assert rms_power(np.zeros(64)) == 0.0


def test_rms_power_unit_sine_whole_periods():
    # analytic oracle: mean of sin^2 over whole periods is 1/2
    t = np.arange(16000) / 16000
    sine = np.sin(2 * np.pi * 100 * t)  # exactly 100 periods
    assert rms_power(sine) == pytest.approx(0.5, abs=1e-6)


def test_rms_power_scale_equivariance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(500)
    base = rms_power(x)
    for k in (0.1, 2.0, 17.5):
        scaled = rms_power(k * x)
        assert scaled == pytest.approx(k * k * base, rel=1e-9)


def test_empty_clip_rejected():
    with pytest.raises(DataError, match="clip is empty"):
        AudioClip(np.zeros(0))
    with pytest.raises(DataError, match="cannot compute power of an empty clip"):
        rms_power(np.zeros(0))


def _add(context, item):
    return context + item


def test_parallel_map_pool_never_outnumbers_the_items(monkeypatch):
    sizes = []

    class InProcessPool:
        """Records the pool size and maps in this process; starts no worker."""

        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(audio, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(audio, "_WORKER", None)
    assert parallel_map(_add, [1, 2, 3], 64, 10) == [11, 12, 13]
    assert parallel_map(_add, [1, 2, 3], 2, 10) == [11, 12, 13]
    # one item or one job stays in-process
    assert parallel_map(_add, [1], 64, 10) == [11]
    assert parallel_map(_add, [1, 2], 1, 10) == [11, 12]
    assert parallel_map(_add, [], 64, 10) == []
    assert sizes == [3, 2]
