import math

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.io import wavfile
from scipy.signal import fftconvolve
from oracles import naive_convolve_truncated, oracle_rir_taps

from wwspot.audio import SAMPLE_RATE, AudioClip, read_wav, rms_power
from wwspot.augment import (
    CONDITIONS,
    CorruptionSpec,
    MixRecipe,
    RirFilter,
    RoomSpec,
    _fft_size,
    build_mixed_dataset,
    corrupt,
    read_manifest,
    reverberate,
    rir_from_wav,
    rir_to_wav,
    synthesize_rir,
    write_manifest,
)
from wwspot.tsv import DataError

SR = SAMPLE_RATE
SPEED = 343.0


def test_anechoic_room_single_direct_path_tap():
    room = RoomSpec((5, 4, 3), (1, 1, 1), (3, 2, 1.5), reflection_coeff=0.0, max_order=3)
    rir = synthesize_rir(room)
    d = math.dist(room.source_pos, room.mic_pos)
    expected_delay = int(d * SR / SPEED + 0.5)
    nonzero = np.flatnonzero(rir.taps)
    assert list(nonzero) == [expected_delay]
    assert rir.taps[expected_delay] == pytest.approx(1 / (4 * math.pi * d), rel=1e-12)


def test_order_zero_equals_anechoic():
    a = synthesize_rir(RoomSpec((5, 4, 3), (1, 1, 1), (3, 2, 1.5), 0.0, 3))
    b = synthesize_rir(RoomSpec((5, 4, 3), (1, 1, 1), (3, 2, 1.5), 0.7, 0))
    assert a.taps.size == b.taps.size
    assert np.allclose(a.taps, b.taps, rtol=1e-12)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_image_source_matches_enumeration_oracle(order):
    room = RoomSpec((5, 4, 3), (1.3, 2.1, 1.1), (3.6, 0.9, 1.9), 0.5, order)
    rir = synthesize_rir(room)
    expected = oracle_rir_taps(room)
    assert rir.taps.size == expected.size
    assert np.array_equal(np.flatnonzero(rir.taps), np.flatnonzero(expected))
    assert np.allclose(rir.taps, expected, rtol=1e-12, atol=1e-15)


def test_room_validation():
    with pytest.raises(DataError, match="inside the room"):
        RoomSpec((5, 4, 3), (6, 1, 1), (3, 2, 1.5), 0.7, 3)
    with pytest.raises(DataError, match="coincide"):
        RoomSpec((5, 4, 3), (1, 1, 1), (1, 1, 1), 0.7, 3)
    with pytest.raises(DataError, match="max_order"):
        RoomSpec((5, 4, 3), (1, 1, 1), (3, 2, 1.5), 0.7, 11)


def test_rir_wav_round_trip(tmp_path):
    room = RoomSpec((5, 4, 3), (1.3, 2.1, 1.1), (3.6, 0.9, 1.9), 0.6, 2)
    rir = synthesize_rir(room, id="r0")
    path = tmp_path / "r0.wav"
    rir_to_wav(rir, path)
    back = rir_from_wav(path)
    assert back.taps.size == rir.taps.size
    assert np.max(np.abs(back.taps - rir.taps)) <= 2**-15


# --- reverberation -------------------------------------------------------------


def test_reverberate_identity_impulse():
    rng = np.random.default_rng(0)
    clip = AudioClip(rng.uniform(-0.5, 0.5, 2000))
    out = reverberate(clip, RirFilter(np.array([1.0])))
    assert np.max(np.abs(out.samples - clip.samples)) <= 1e-9


def test_reverberate_shifted_scaled_impulse():
    rng = np.random.default_rng(1)
    clip = AudioClip(rng.uniform(-0.5, 0.5, 2000))
    taps = np.zeros(101)
    taps[100] = 0.5
    out = reverberate(clip, RirFilter(taps))
    assert np.max(np.abs(out.samples[:100])) <= 1e-12
    assert np.allclose(out.samples[100:], 0.5 * clip.samples[:-100], atol=1e-9)


def test_reverberate_matches_naive_convolution():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, 1000)
        taps = rng.uniform(-0.2, 0.2, 50)
        taps[0] = 0.5  # keep the filter and the peak bounded
        out = reverberate(AudioClip(x), RirFilter(taps))
        assert np.max(np.abs(out.samples - naive_convolve_truncated(x, taps))) < 1e-7


def test_fft_size_is_scipys_real_fast_length():
    sizes = list(range(1, 20001)) + np.random.default_rng(9).integers(1, 5_000_001, 500).tolist()
    assert [_fft_size(n) for n in sizes] == [next_fast_len(n, real=True) for n in sizes]


def test_reverberate_equals_fftconvolve_bit_for_bit():
    rng = np.random.default_rng(8)
    # a minute-long recording, then random clip and RIR lengths
    pairs = [(60 * SR, 4000)] + [tuple(rng.integers(1, (40000, 8000))) for _ in range(40)]
    for n, k in pairs:
        x = rng.uniform(-0.1, 0.1, n)
        taps = rng.normal(0.0, 0.01, k)
        taps[0] = 0.3  # a direct path keeps some tap non-zero
        out = reverberate(AudioClip(x), RirFilter(taps)).samples
        assert np.array_equal(out, fftconvolve(x, taps)[:n]), (n, k)


def test_reverberate_linearity():
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.05, 0.05, 500)
    taps = rng.uniform(-0.3, 0.3, 20)
    rir = RirFilter(taps)
    a = reverberate(AudioClip(3.0 * x), rir).samples
    b = 3.0 * reverberate(AudioClip(x), rir).samples
    assert np.max(np.abs(a - b)) < 1e-9


def test_reverberate_peak_guard():
    clip = AudioClip(np.full(100, 0.9))
    out = reverberate(clip, RirFilter(np.array([1.0, 1.0, 1.0])))
    assert np.max(np.abs(out.samples)) == pytest.approx(0.999, abs=1e-12)


# --- corruption ----------------------------------------------------------------


def _tone(freq, n, amp=0.4):
    return AudioClip(amp * np.sin(2 * np.pi * freq * np.arange(n) / SR))


def test_corrupt_single_source_realizes_target_exactly():
    rng = np.random.default_rng(0)
    clip = _tone(440, SR)
    noise = AudioClip(rng.standard_normal(SR) * 0.3, id="n")
    spec = CorruptionSpec(10.0, 0.0, 1.0, rng_seed=5)
    out, realized = corrupt(clip, noise, None, spec, np.random.default_rng(spec.rng_seed))
    assert realized == pytest.approx(10.0, abs=1e-9)
    # decomposition oracle: music share is exactly zero
    interference = out.samples - clip.samples
    snr = 10 * np.log10(rms_power(clip.samples) / rms_power(interference))
    assert snr == pytest.approx(realized, abs=0.01)


def test_corrupt_alpha_matches_closed_form():
    # unit-power interference, P=1 signal, 10 dB target -> alpha ~ 0.3162
    clip = AudioClip(np.sin(2 * np.pi * 250 * np.arange(SR) / SR))
    # make the signal power exactly 1.0
    clip = AudioClip(clip.samples / np.sqrt(rms_power(clip.samples)))
    noise = AudioClip(np.where(np.arange(SR) % 2 == 0, 1.0, -1.0), id="sq")
    assert rms_power(noise.samples) == pytest.approx(1.0)
    spec = CorruptionSpec(10.0, 0.0, 1.0, rng_seed=1)
    out, realized = corrupt(clip, noise, None, spec, np.random.default_rng(spec.rng_seed))
    interference = out.samples - clip.samples
    alpha = np.max(np.abs(interference))  # square wave: |alpha * n| peak = alpha
    assert alpha == pytest.approx(np.sqrt(1 / 10 ** (10 / 10)), rel=1e-6)
    assert realized == pytest.approx(10.0, abs=0.1)


def test_corrupt_degenerate_draw_is_exact_mean():
    rng = np.random.default_rng(9)
    clip = _tone(300, SR)
    noise = AudioClip(rng.standard_normal(SR), id="n")
    music = AudioClip(np.sin(2 * np.pi * 523 * np.arange(SR) / SR), id="m")
    spec = CorruptionSpec(10.0, 0.0, 0.5, rng_seed=2)
    shared = np.random.default_rng(2)
    for _ in range(20):
        _, realized = corrupt(clip, noise, music, spec, shared)
        assert realized == pytest.approx(10.0, abs=0.1)


def test_corrupt_split_preserves_power_ratio():
    rng = np.random.default_rng(4)
    clip = _tone(350, SR)
    noise = AudioClip(rng.standard_normal(SR), id="n")
    music = AudioClip(np.sin(2 * np.pi * 600 * np.arange(SR) / SR), id="m")
    for split in (0.25, 0.5, 0.75):
        spec = CorruptionSpec(8.0, 0.0, split, rng_seed=3)
        out, realized = corrupt(clip, noise, music, spec, np.random.default_rng(spec.rng_seed))
        interference = out.samples - clip.samples
        assert 10 * np.log10(rms_power(clip.samples) / rms_power(interference)) == pytest.approx(
            realized, abs=0.01
        )
        assert realized == pytest.approx(8.0, abs=1e-9)


def test_corrupt_tiles_short_and_crops_long_interference():
    clip = _tone(200, SR)
    short = AudioClip(np.sin(2 * np.pi * 700 * np.arange(1000) / SR) + 0.01, id="s")
    long = AudioClip(np.sin(2 * np.pi * 800 * np.arange(3 * SR) / SR) + 0.01, id="l")
    spec = CorruptionSpec(12.0, 0.0, 1.0, rng_seed=4)
    for source in (short, long):
        out, realized = corrupt(clip, source, None, spec, np.random.default_rng(spec.rng_seed))
        assert out.samples.size == clip.samples.size
        assert realized == pytest.approx(12.0, abs=1e-9)


def test_corrupt_zero_power_interference_rejected():
    clip = _tone(200, 4000)
    silent = AudioClip(np.zeros(4000) + 0.0, id="z")
    silent.samples[:] = 0.0
    spec = CorruptionSpec(10.0, 0.0, 1.0, rng_seed=0)
    with pytest.raises(DataError, match="zero power"):
        corrupt(clip, silent, None, spec, np.random.default_rng(spec.rng_seed))


def test_corrupt_snr_draw_is_clamped():
    clip = _tone(320, 8000)
    noise = AudioClip(np.random.default_rng(0).standard_normal(8000), id="n")
    spec = CorruptionSpec(-100.0, 0.0, 1.0, rng_seed=0)
    _, realized = corrupt(clip, noise, None, spec, np.random.default_rng(spec.rng_seed))
    assert realized == pytest.approx(-5.0, abs=1e-9)


# --- recipe and builder ----------------------------------------------------------


def test_table_rows_scale():
    assert MixRecipe.from_table_row("200K", 0.001).counts == (20, 60, 60, 60)
    assert MixRecipe.from_table_row("50K", 0.001).counts == (10, 14, 14, 14)
    assert MixRecipe.from_table_row("350K", 0.001).counts == (35, 105, 105, 105)
    assert MixRecipe.from_table_row("500K", 1.0).counts == (50000, 150000, 150000, 150000)


def test_unequal_augmented_counts_rejected():
    with pytest.raises(DataError, match="equal"):
        MixRecipe(10, 14, 15, 14)
    with pytest.raises(DataError, match="unknown recipe row"):
        MixRecipe.from_table_row("99K", 1.0)


def _builder_inputs():
    rng = np.random.default_rng(0)
    clean = [
        AudioClip(0.3 * np.sin(2 * np.pi * f * np.arange(2000) / SR), id=f"c{i}")
        for i, f in enumerate((300, 440, 550))
    ]
    rirs = [
        synthesize_rir(RoomSpec((4, 3, 2.5), (1, 1, 1), (2.5, 2, 1.2), 0.5, 2), id="r0"),
        synthesize_rir(RoomSpec((6, 5, 3), (2, 2, 1), (4, 3, 2), 0.6, 2), id="r1"),
    ]
    noises = [AudioClip(rng.standard_normal(2000), id=f"n{i}") for i in range(2)]
    musics = [AudioClip(np.sin(2 * np.pi * 660 * np.arange(2000) / SR), id="m0")]
    return clean, rirs, noises, musics


def test_build_mixed_dataset_counts_and_labels(tmp_path):
    clean, rirs, noises, musics = _builder_inputs()
    recipe = MixRecipe(4, 3, 3, 3)
    spec = CorruptionSpec(10.0, 3.0, 0.5, rng_seed=7)
    rows = build_mixed_dataset(clean, rirs, noises, musics, recipe, spec, tmp_path)
    assert len(rows) == 13
    by_cond = {c: [r for r in rows if r.condition == c] for c in CONDITIONS}
    assert [len(by_cond[c]) for c in CONDITIONS] == [4, 3, 3, 3]
    # clean portion repeats the pool cyclically
    assert [r.source_id for r in by_cond["CTM"]] == ["c0", "c1", "c2", "c0"]
    for r in rows:
        assert (r.snr_db is not None) == (r.condition in ("CTM+N", "CTM+RN"))
        assert (r.rir_id is not None) == (r.condition in ("CTM+R", "CTM+RN"))
        assert (tmp_path / r.wav_path).is_file()
        clip = read_wav(tmp_path / r.wav_path)
        assert clip.samples.size == 2000


def test_build_mixed_dataset_deterministic(tmp_path):
    clean, rirs, noises, musics = _builder_inputs()
    recipe = MixRecipe(2, 2, 2, 2)
    spec = CorruptionSpec(10.0, 3.0, 0.5, rng_seed=11)
    rows_a = build_mixed_dataset(clean, rirs, noises, musics, recipe, spec, tmp_path / "a")
    rows_b = build_mixed_dataset(clean, rirs, noises, musics, recipe, spec, tmp_path / "b")
    write_manifest(rows_a, tmp_path / "a.tsv")
    write_manifest(rows_b, tmp_path / "b.tsv")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    for ra, rb in zip(rows_a, rows_b):
        wav_a = (tmp_path / "a" / ra.wav_path).read_bytes()
        wav_b = (tmp_path / "b" / rb.wav_path).read_bytes()
        assert wav_a == wav_b


def test_build_mixed_dataset_leaves_the_clean_clips_unchanged(tmp_path):
    # each job's clip shares its source's samples, so nothing may write into them
    clean, rirs, noises, musics = _builder_inputs()
    clean.append(AudioClip(4.0 * clean[0].samples, id="loud"))  # peak 1.2: normalized on write
    before = [c.samples.copy() for c in clean]
    spec = CorruptionSpec(10.0, 3.0, 0.5, rng_seed=3)
    rows = build_mixed_dataset(clean, rirs, noises, musics, MixRecipe(4, 4, 4, 4), spec, tmp_path)
    for clip, samples in zip(clean, before):
        np.testing.assert_array_equal(clip.samples, samples)
    for r in rows:
        assert wavfile.read(tmp_path / r.wav_path)[0] == SAMPLE_RATE


def test_build_mixed_dataset_empty_pool_rejected(tmp_path):
    clean, rirs, noises, musics = _builder_inputs()
    recipe = MixRecipe(1, 1, 1, 1)
    spec = CorruptionSpec(10.0, 0.0, 0.5, rng_seed=0)
    with pytest.raises(DataError, match="RIR pool"):
        build_mixed_dataset(clean, [], noises, musics, recipe, spec, tmp_path)
    with pytest.raises(DataError, match="music pool"):
        build_mixed_dataset(clean, rirs, noises, [], recipe, spec, tmp_path)


def test_manifest_round_trip(tmp_path):
    clean, rirs, noises, musics = _builder_inputs()
    recipe = MixRecipe(1, 1, 1, 1)
    spec = CorruptionSpec(10.0, 0.0, 1.0, rng_seed=1)
    rows = build_mixed_dataset(clean, rirs, noises, [], recipe, spec, tmp_path)
    write_manifest(rows, tmp_path / "m.tsv")
    back = read_manifest(tmp_path / "m.tsv")
    assert [r.utt_id for r in back] == [r.utt_id for r in rows]
    assert [r.condition for r in back] == [r.condition for r in rows]
