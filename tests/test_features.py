import numpy as np
import pytest
from oracles import stack_context, whole_matrix_lfbe

from wwspot.audio import SAMPLE_RATE, AudioClip
from wwspot.evaluate import FRAMES_PER_HOUR
from wwspot.features import (
    CHUNK_FRAMES,
    CONTEXT_WIDTH,
    FFT_SIZE,
    FRAMES_PER_S,
    HOP_S,
    HOP_SAMPLES,
    LEFT_CONTEXT,
    LOG_FLOOR,
    MEL_HIGH_HZ,
    MEL_LOW_HZ,
    NUM_MEL_BINS,
    RIGHT_CONTEXT,
    WINDOW_SAMPLES,
    compute_lfbe,
    hz_to_mel,
    mel_filterbank,
)
from wwspot.model import SpotterConfig
from wwspot.tsv import DataError


def test_frame_count_one_second():
    clip = AudioClip(np.random.default_rng(0).standard_normal(SAMPLE_RATE) * 0.1)
    feat = compute_lfbe(clip)
    assert feat.shape == (1 + (SAMPLE_RATE - WINDOW_SAMPLES) // HOP_SAMPLES, NUM_MEL_BINS)
    assert feat.shape == (98, 20)


def test_frame_constants_agree():
    assert FRAMES_PER_HOUR == FRAMES_PER_S * 3600
    assert HOP_S * SAMPLE_RATE == HOP_SAMPLES
    assert CONTEXT_WIDTH * NUM_MEL_BINS == SpotterConfig().input_dim == 620


@pytest.mark.parametrize(
    "frames", [1, CHUNK_FRAMES - 1, CHUNK_FRAMES, CHUNK_FRAMES + 1, 2 * CHUNK_FRAMES + 7]
)
def test_blocked_lfbe_matches_whole_matrix_oracle(frames):
    # block edges fall at every multiple of CHUNK_FRAMES; BLAS may round a
    # short remainder block differently, hence atol rather than equality
    rng = np.random.default_rng(frames)
    tail = int(rng.integers(HOP_SAMPLES))  # samples short of one more frame
    n = WINDOW_SAMPLES + (frames - 1) * HOP_SAMPLES + tail
    clip = AudioClip(rng.standard_normal(n) * 0.1)
    feat = compute_lfbe(clip)
    assert feat.shape == (frames, NUM_MEL_BINS)
    np.testing.assert_allclose(feat, whole_matrix_lfbe(clip), rtol=0, atol=1e-12)


def test_all_zero_clip_hits_log_floor():
    feat = compute_lfbe(AudioClip(np.zeros(10 * HOP_SAMPLES)))
    assert np.allclose(feat, np.log(LOG_FLOOR))


def test_too_short_clip_rejected():
    with pytest.raises(DataError, match="shorter than one"):
        compute_lfbe(AudioClip(np.zeros(WINDOW_SAMPLES - 1)))


def test_pure_tone_peaks_in_its_mel_bin():
    # filterbank-response oracle: the row max must land in the filter with
    # the largest response at 1 kHz
    fb = mel_filterbank()
    freqs = np.arange(fb.shape[1]) * SAMPLE_RATE / FFT_SIZE
    bin_1k = int(np.argmin(np.abs(freqs - 1000.0)))
    expected = int(np.argmax(fb[:, bin_1k]))
    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    clip = AudioClip(0.5 * np.sin(2 * np.pi * 1000 * t))
    feat = compute_lfbe(clip)
    assert np.all(np.argmax(feat, axis=1) == expected)


def test_filterbank_weights_bounded():
    fb = mel_filterbank()
    assert fb.shape == (NUM_MEL_BINS, FFT_SIZE // 2 + 1)
    assert np.all(fb >= 0)
    assert np.all(fb.sum(axis=0) <= 1 + 1e-6)
    # every filter overlaps only its neighbours: interior bins between the
    # first and last centers sum to ~1
    edges = np.linspace(hz_to_mel(MEL_LOW_HZ), hz_to_mel(MEL_HIGH_HZ), NUM_MEL_BINS + 2)
    freqs_mel = hz_to_mel(np.arange(FFT_SIZE // 2 + 1) * SAMPLE_RATE / FFT_SIZE)
    interior = (freqs_mel > edges[1]) & (freqs_mel < edges[-2])
    assert np.allclose(fb.sum(axis=0)[interior], 1.0, atol=1e-9)


def test_shift_by_one_hop_shifts_rows():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(SAMPLE_RATE) * 0.2
    delayed = np.concatenate([np.zeros(HOP_SAMPLES), x])
    a = compute_lfbe(AudioClip(x))
    b = compute_lfbe(AudioClip(delayed))
    assert np.allclose(b[1 : a.shape[0]], a[: a.shape[0] - 1], atol=1e-6)


def test_stack_single_frame_replicates():
    feat = np.arange(float(NUM_MEL_BINS))[None, :]
    stacked = stack_context(feat)
    assert stacked.shape == (1, 620)
    assert np.array_equal(
        stacked.reshape(CONTEXT_WIDTH, NUM_MEL_BINS), np.tile(feat, (CONTEXT_WIDTH, 1))
    )


def test_stack_interior_is_exact_concatenation():
    rng = np.random.default_rng(1)
    feat = rng.standard_normal((100, NUM_MEL_BINS))
    stacked = stack_context(feat)
    assert np.array_equal(stacked[50], feat[50 - LEFT_CONTEXT : 51 + RIGHT_CONTEXT].reshape(-1))


def test_stack_matches_bruteforce_gather():
    # index-arithmetic oracle with explicit clamping
    rng = np.random.default_rng(2)
    feat = rng.standard_normal((40, NUM_MEL_BINS))
    stacked = stack_context(feat)
    assert stacked.shape == (40, 620)
    for t in range(40):
        span = range(t - LEFT_CONTEXT, t + RIGHT_CONTEXT + 1)
        rows = [feat[min(max(i, 0), 39)] for i in span]
        assert np.array_equal(stacked[t], np.concatenate(rows))


def test_stack_dimension_is_always_620():
    rng = np.random.default_rng(3)
    for frames in (1, 2, 31, 77):
        stacked = stack_context(rng.standard_normal((frames, NUM_MEL_BINS)))
        assert stacked.shape == (frames, 620)


def test_stack_rejects_empty():
    with pytest.raises(DataError, match=r"expected a non-empty \(frames, bins\) matrix"):
        stack_context(np.zeros((0, NUM_MEL_BINS)))
