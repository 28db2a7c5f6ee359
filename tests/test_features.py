import numpy as np
import pytest
from oracles import whole_matrix_lfbe

from wwspot.audio import AudioClip
from wwspot.features import (
    CHUNK_FRAMES,
    FeatureError,
    LfbeConfig,
    compute_lfbe,
    hz_to_mel,
    mel_filterbank,
    stack_context,
)

CFG = LfbeConfig()


def test_frame_count_one_second():
    clip = AudioClip(np.random.default_rng(0).standard_normal(16000) * 0.1)
    feat = compute_lfbe(clip, CFG)
    assert feat.shape == (1 + (16000 - 400) // 160, 20)
    assert feat.shape[0] == 98


@pytest.mark.parametrize(
    "frames", [1, CHUNK_FRAMES - 1, CHUNK_FRAMES, CHUNK_FRAMES + 1, 2 * CHUNK_FRAMES + 7]
)
def test_blocked_lfbe_matches_whole_matrix_oracle(frames):
    # block edges fall at every multiple of CHUNK_FRAMES; BLAS may round a
    # short remainder block differently, hence atol rather than equality
    rng = np.random.default_rng(frames)
    tail = int(rng.integers(160))  # samples short of one more frame
    clip = AudioClip(rng.standard_normal(400 + (frames - 1) * 160 + tail) * 0.1)
    feat = compute_lfbe(clip, CFG)
    assert feat.shape == (frames, 20)
    np.testing.assert_allclose(feat, whole_matrix_lfbe(clip, CFG), rtol=0, atol=1e-12)


def test_all_zero_clip_hits_log_floor():
    feat = compute_lfbe(AudioClip(np.zeros(1600)), CFG)
    assert np.allclose(feat, np.log(1e-10))


def test_too_short_clip_rejected():
    with pytest.raises(FeatureError, match="shorter than one"):
        compute_lfbe(AudioClip(np.zeros(399)), CFG)


def test_pure_tone_peaks_in_its_mel_bin():
    # filterbank-response oracle: the row max must land in the filter with
    # the largest response at 1 kHz
    fb = mel_filterbank(CFG, 16000)
    freqs = np.arange(fb.shape[1]) * 16000 / 512
    bin_1k = int(np.argmin(np.abs(freqs - 1000.0)))
    expected = int(np.argmax(fb[:, bin_1k]))
    t = np.arange(16000) / 16000
    clip = AudioClip(0.5 * np.sin(2 * np.pi * 1000 * t))
    feat = compute_lfbe(clip, CFG)
    assert np.all(np.argmax(feat, axis=1) == expected)


def test_filterbank_weights_bounded():
    fb = mel_filterbank(CFG, 16000)
    assert fb.shape == (20, 257)
    assert np.all(fb >= 0)
    assert np.all(fb.sum(axis=0) <= 1 + 1e-6)
    # every filter overlaps only its neighbours: interior bins between the
    # first and last centers sum to ~1
    edges = np.linspace(hz_to_mel(20.0), hz_to_mel(7600.0), 22)
    freqs_mel = hz_to_mel(np.arange(257) * 16000 / 512)
    interior = (freqs_mel > edges[1]) & (freqs_mel < edges[-2])
    assert np.allclose(fb.sum(axis=0)[interior], 1.0, atol=1e-9)


def test_shift_by_one_hop_shifts_rows():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(16000) * 0.2
    delayed = np.concatenate([np.zeros(160), x])
    a = compute_lfbe(AudioClip(x), CFG)
    b = compute_lfbe(AudioClip(delayed), CFG)
    assert np.allclose(b[1 : a.shape[0]], a[: a.shape[0] - 1], atol=1e-6)


def test_stack_single_frame_replicates():
    feat = np.arange(20.0)[None, :]
    stacked = stack_context(feat)
    assert stacked.shape == (1, 620)
    assert np.array_equal(stacked.reshape(31, 20), np.tile(feat, (31, 1)))


def test_stack_interior_is_exact_concatenation():
    rng = np.random.default_rng(1)
    feat = rng.standard_normal((100, 20))
    stacked = stack_context(feat)
    assert np.array_equal(stacked[50], feat[30:61].reshape(-1))


def test_stack_matches_bruteforce_gather():
    # index-arithmetic oracle with explicit clamping
    rng = np.random.default_rng(2)
    feat = rng.standard_normal((40, 20))
    stacked = stack_context(feat)
    assert stacked.shape == (40, 620)
    for t in range(40):
        rows = [feat[min(max(i, 0), 39)] for i in range(t - 20, t + 11)]
        assert np.array_equal(stacked[t], np.concatenate(rows))


def test_stack_dimension_is_always_620():
    rng = np.random.default_rng(3)
    for frames in (1, 2, 31, 77):
        stacked = stack_context(rng.standard_normal((frames, 20)))
        assert stacked.shape == (frames, 620)


def test_stack_rejects_empty():
    with pytest.raises(FeatureError):
        stack_context(np.zeros((0, 20)))

