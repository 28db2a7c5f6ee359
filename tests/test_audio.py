import re
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.io import wavfile

from wwspot import audio
from wwspot.audio import AudioClip, parallel_map, read_wav, rms_power, wav_samples, write_wav
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


def _fmt(tag, channels, bits, extensible=False):
    """A `fmt ` body at 16 kHz; extensible names `tag` in its subformat GUID."""
    align = channels * bits // 8
    body = struct.pack(
        "<HHIIHH", 0xFFFE if extensible else tag, channels, 16000, 16000 * align, align, bits
    )
    if extensible:
        guid = struct.pack("<I", tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        body += struct.pack("<HHI", 22, bits, 0) + guid
    return body


def _riff(*chunks):
    """A WAV file's bytes from (name, body) chunks, each padded to an even length."""
    body = b"WAVE" + b"".join(
        struct.pack("<4sI", name, len(data)) + data + b"\0" * (len(data) % 2)
        for name, data in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _scipy_samples(path):
    """The oracle: scipy's samples, scaled and averaged to mono as read_wav promises."""
    _, data = wavfile.read(path)
    samples = data.astype(np.float64)
    if data.dtype == np.int16:
        samples = samples / 32768.0
    return samples.mean(axis=1) if samples.ndim == 2 else samples


# more frames than two read blocks, so block boundaries and a short last block are read
_rng = np.random.default_rng(21)
_INT16 = _rng.integers(-32768, 32768, (2 * audio._BLOCK_FRAMES + 3, 2)).astype("<i2")
_FLOAT = _rng.standard_normal((2 * audio._BLOCK_FRAMES + 5, 2))


@pytest.mark.parametrize(
    "wav",
    [
        pytest.param(_riff((b"fmt ", _fmt(1, 1, 16)), (b"data", _INT16[:, 0].tobytes())), id="int16-mono"),
        pytest.param(_riff((b"fmt ", _fmt(1, 2, 16)), (b"data", _INT16.tobytes())), id="int16-stereo"),
        pytest.param(
            _riff((b"fmt ", _fmt(3, 1, 32)), (b"data", _FLOAT[:, 0].astype("<f4").tobytes())),
            id="float32",
        ),
        pytest.param(_riff((b"fmt ", _fmt(3, 2, 64)), (b"data", _FLOAT.tobytes())), id="float64-stereo"),
        pytest.param(_riff((b"fmt ", _fmt(1, 1, 16)), (b"data", b"\x01\x80")), id="one-frame"),
        pytest.param(
            _riff(
                (b"fmt ", _fmt(1, 1, 16)),
                (b"LIST", b"INFOISFT\x03\x00\x00\x00ab\x00"),
                (b"LIST", b"odd"),
                (b"fact", struct.pack("<I", len(_INT16))),
                (b"data", _INT16[:, 1].tobytes()),
            ),
            id="odd-LIST-chunks",
        ),
        pytest.param(
            _riff((b"fmt ", _fmt(3, 2, 32, extensible=True)), (b"data", _FLOAT.astype("<f4").tobytes())),
            id="extensible-float32",
        ),
        pytest.param(
            _riff((b"fmt ", _fmt(1, 1, 16, extensible=True)), (b"data", _INT16[:, 0].tobytes())),
            id="extensible-int16",
        ),
    ],
)
def test_samples_equal_scipy_byte_for_byte(tmp_path, wav):
    path = tmp_path / "x.wav"
    path.write_bytes(wav)
    expected = _scipy_samples(path)
    assert read_wav(path).samples.tobytes() == expected.tobytes()
    assert wav_samples(path) == expected.size


def _written(tmp_path, n=27162):
    """A WAV of n samples as write_wav writes it, and its samples as read back."""
    path = tmp_path / "u.wav"
    write_wav(AudioClip(np.random.default_rng(n).uniform(-0.9, 0.9, n)), path)
    return path, read_wav(path).samples


def test_a_riff_size_field_of_4_is_walked_by_the_file_size(tmp_path):
    # scipy stopped at the RIFF size field and raised UnboundLocalError
    path, expected = _written(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 4)
    path.write_bytes(raw)
    assert read_wav(path).samples.tobytes() == expected.tobytes()
    assert wav_samples(path) == expected.size


@pytest.mark.parametrize("reader", [read_wav, wav_samples])
def test_zero_channels_rejected_by_both_readers(tmp_path, reader):
    # scipy divided the block align by the channel count: ZeroDivisionError
    path, _ = _written(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[22:24] = b"\0\0"
    path.write_bytes(raw)
    with pytest.raises(DataError, match=re.escape(f"{path}: not a readable PCM WAV (0 channels")):
        reader(path)


@pytest.mark.parametrize("reader", [read_wav, wav_samples])
def test_truncated_data_rejected_by_both_readers(tmp_path, reader):
    # scipy's read returned 27,111 of the 27,162 samples with a warning,
    # while its memory-mapped header pass refused the file
    path, _ = _written(tmp_path)
    path.write_bytes(path.read_bytes()[:-101])
    with pytest.raises(DataError, match=re.escape(f"{path}: truncated WAV")):
        reader(path)


@pytest.mark.parametrize("reader", [read_wav, wav_samples])
def test_mutated_headers_give_samples_or_a_data_error(tmp_path, reader):
    path, _ = _written(tmp_path, 2000)
    clean = path.read_bytes()
    rng = np.random.default_rng(18)
    for _ in range(300):
        raw = bytearray(clean)
        for i in rng.integers(0, 64, rng.integers(1, 4)):
            raw[i] = int(rng.integers(0, 256))
        raw = raw[: int(rng.integers(0, len(raw) + 1))] if rng.random() < 0.3 else raw
        path.write_bytes(raw)
        try:
            reader(path)
        except DataError as exc:
            assert str(exc).startswith(f"{path}: ")


def test_read_wav_allocates_the_clip_and_one_block(tmp_path):
    n = 480_000
    path, _ = _written(tmp_path, n)
    tracemalloc.start()
    try:
        clip = read_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert clip.samples.size == n
    # one block's rows as float64 covers the int16 block and the file buffer;
    # an int16 copy of the whole file would add 2 * n
    assert peak <= 8 * n + 8 * audio._BLOCK_FRAMES


@pytest.mark.parametrize(
    "samples",
    [
        pytest.param(np.random.default_rng(1).uniform(-0.5, 0.5, 1601), id="quiet"),
        pytest.param(np.array([1.0, -1.0, 32767 / 32768, 0.0]), id="full-scale"),
        pytest.param(np.random.default_rng(2).standard_normal(4000), id="peak-normalized"),
        pytest.param(np.array([0.25]), id="one-sample"),
    ],
)
def test_write_wav_bytes_equal_scipy(tmp_path, samples):
    ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
    write_wav(AudioClip(samples), ours)
    peak = np.max(np.abs(samples))
    scaled = samples * (audio.WRITE_PEAK / peak) if peak > 1.0 else samples
    wavfile.write(theirs, 16000, np.clip(np.round(scaled * 32768), -32768, 32767).astype(np.int16))
    assert ours.read_bytes() == theirs.read_bytes()


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
