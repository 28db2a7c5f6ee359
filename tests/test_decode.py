import tracemalloc

import numpy as np
import pytest
from oracles import merging_detect_peaks, serial_lfbe, serial_trace, whole_utterance_trace

import wwspot.decode
import wwspot.features
from wwspot.audio import SAMPLE_RATE, AudioClip
from wwspot.decode import (
    DecodeConfig,
    detect_peaks,
    posterior_trace,
    read_detections,
    smooth,
    write_detections,
)
from wwspot.demo import average_duration_frames
from wwspot.features import CHUNK_FRAMES, RIGHT_CONTEXT, RUN_FRAMES, compute_lfbe
from wwspot.mining import NEGATIVE, POSITIVE, MinedExample
from wwspot.model import FeatureScaler, SpotterConfig, init_model

# full 620-dimensional input, small layers: decoding cost is the input's
SMALL_SPOTTER = SpotterConfig(bottleneck=6, hidden=12)


def _spotter(config, seed):
    rng = np.random.default_rng(seed)
    scaler = FeatureScaler(rng.standard_normal(620), rng.uniform(0.5, 2.0, 620))
    return init_model(config, rng, scaler)


def small_spotter(seed=0):
    return _spotter(SMALL_SPOTTER, seed)


def test_smooth_constant_is_identity():
    trace = np.full(40, 0.37)
    assert np.allclose(smooth(trace, 9), 0.37, atol=1e-12)


def test_smooth_impulse_plateau():
    trace = np.zeros(21)
    trace[10] = 1.0
    out = smooth(trace, 5)
    assert np.allclose(out[8:13], 0.2, atol=1e-12)
    assert np.allclose(out[:8], 0.0) and np.allclose(out[13:], 0.0)


def test_smooth_matches_sliding_oracle():
    # direct windowed mean with the same (left w//2, right (w-1)//2) span
    rng = np.random.default_rng(0)
    trace = rng.random(73)
    w = 7
    out = smooth(trace, w)
    for t in range(73):
        lo = max(0, t - w // 2)
        hi = min(73, t + (w - 1) // 2 + 1)
        assert out[t] == pytest.approx(trace[lo:hi].mean(), abs=1e-9)


@pytest.mark.parametrize("n,w", [(1, 2), (10, 48), (46, 48), (7, 8), (3, 51)])
def test_smooth_keeps_a_trace_shorter_than_its_window(n, w):
    # mode="same" would return w values, the last ones past the trace
    trace = np.random.default_rng(n).random(n)
    out = smooth(trace, w)
    assert out.shape == (n,)
    for t in range(n):
        lo = max(0, t - w // 2)
        hi = min(n, t + (w - 1) // 2 + 1)
        assert out[t] == pytest.approx(trace[lo:hi].mean(), abs=1e-12)


def test_smooth_never_exceeds_trace_max():
    rng = np.random.default_rng(1)
    for w in (1, 4, 11):
        trace = rng.random(50)
        assert smooth(trace, w).max() <= trace.max() + 1e-12


def test_detect_nothing_below_threshold():
    cfg = DecodeConfig(5, 0.5, 30)
    assert detect_peaks(np.full(100, 0.4), cfg) == []


def test_detect_two_separated_plateaus():
    cfg = DecodeConfig(5, 0.5, 30)
    trace = np.zeros(300)
    trace[50:71] = 0.8
    trace[60] = 0.9  # peak of region 1
    trace[171:191] = 0.7  # 100 sub-threshold frames in between
    dets = detect_peaks(trace, cfg, "u")
    assert len(dets) == 2
    first, second = dets
    assert (first.start_frame, first.end_frame, first.peak_frame) == (50, 70, 60)
    assert first.peak_score == pytest.approx(0.9)
    assert (second.start_frame, second.end_frame) == (171, 190)
    assert second.peak_frame == 171  # earliest frame wins the tie


def test_detect_merges_close_regions():
    cfg = DecodeConfig(5, 0.5, 30)
    trace = np.zeros(100)
    trace[10:20] = 0.8
    trace[30:40] = 0.9  # gap of 10 < 30 -> merged
    dets = detect_peaks(trace, cfg, "u")
    assert len(dets) == 1
    assert (dets[0].start_frame, dets[0].end_frame, dets[0].peak_frame) == (10, 39, 30)


def test_detections_disjoint_ordered_and_above_threshold():
    rng = np.random.default_rng(3)
    cfg = DecodeConfig(5, 0.6, 8)
    trace = rng.random(500)
    dets = detect_peaks(trace, cfg, "u")
    prev_end = -1
    for d in dets:
        assert d.start_frame > prev_end
        assert d.start_frame <= d.peak_frame <= d.end_frame
        assert d.peak_score >= 0.6
        prev_end = d.end_frame


@pytest.mark.parametrize("min_gap", [0, 1, 2, 3, 7, 30, 39])
def test_detect_peaks_matches_the_merging_loop(min_gap):
    # scores on a coarse grid, so plateaus tie and runs and gaps of every
    # short length occur
    rng = np.random.default_rng(min_gap)
    for n in range(1, 200):
        trace = rng.integers(0, 5, n) / 4.0
        cfg = DecodeConfig(5, 0.5, min_gap)
        assert detect_peaks(trace, cfg, "u") == merging_detect_peaks(trace, cfg, "u")


def test_average_duration_frames():
    examples = [
        MinedExample("a", POSITIVE, "w", (0.0, 0.50), 0.9),
        MinedExample("b", POSITIVE, "w", (1.0, 1.70), 0.9),
        MinedExample("c", NEGATIVE, "x", (0.0, 9.99), 0.9),
    ]
    assert average_duration_frames(examples) == 60


def test_detections_file_round_trip(tmp_path):
    cfg = DecodeConfig(5, 0.5, 10)
    trace = np.zeros(50)
    trace[20:30] = 0.75
    dets = detect_peaks(trace, cfg, "utt-7")
    path = tmp_path / "d.tsv"
    write_detections(dets, path)
    back = read_detections(path)
    assert back == dets


# --- posterior trace -------------------------------------------------------------


@pytest.mark.parametrize(
    "frames",
    [
        1,
        30,  # shorter than the 31-frame context
        CHUNK_FRAMES - 1,
        CHUNK_FRAMES,
        CHUNK_FRAMES + 1,
        2 * CHUNK_FRAMES + 7,
        2 * CHUNK_FRAMES + RIGHT_CONTEXT - 1,  # the second block's span clips one row
        2 * CHUNK_FRAMES + RIGHT_CONTEXT,  # the second block's span needs no clipping
    ],
)
def test_blocked_trace_matches_whole_utterance_oracle(frames):
    # context rows that cross a block edge must come from the neighbouring
    # block, and the utterance's own ends must still replicate
    rng = np.random.default_rng(frames)
    model = small_spotter(frames)
    lfbe = rng.standard_normal((frames, 20)) * 3.0 - 5.0
    trace = posterior_trace(model, lfbe)
    assert trace.shape == (frames,)
    # float32 against the float64 oracle: a one-row context shift moves
    # the trace by orders of magnitude more than this
    np.testing.assert_allclose(trace, whole_utterance_trace(model, lfbe), rtol=0, atol=1e-6)


def test_trace_folds_the_scaler_once_and_runs_float32_blocks(monkeypatch):
    folds, blocks = [], []
    fold, forward_body = wwspot.decode._fold_scaler, wwspot.decode._forward

    def counting_fold(model, dtype):
        folds.append(dtype)
        return fold(model, dtype)

    def recording(params, x, cache=None):
        blocks.append((x.dtype, x.shape, {a.dtype for a in params.values()}, cache))
        return forward_body(params, x, cache)

    monkeypatch.setattr(wwspot.decode, "_fold_scaler", counting_fold)
    monkeypatch.setattr(wwspot.decode, "_forward", recording)
    frames = 2 * CHUNK_FRAMES + 40
    lfbe = np.random.default_rng(5).standard_normal((frames, 20))
    # every whole block runs as two 256-frame tiles at any worker count
    shapes = [(RUN_FRAMES, 620)] * 4 + [(40, 620)]
    for workers in (1, 2):
        monkeypatch.setattr(wwspot.features, "WORKERS", workers)
        folds.clear()
        blocks.clear()
        trace = posterior_trace(small_spotter(5), lfbe)
        assert folds == [np.float32]
        # a block's tiles go at once, so they may record in either order
        assert sorted(shape for _, shape, _, _ in blocks) == sorted(shapes)
        for dtype, _, param_dtypes, cache in blocks:
            assert dtype == np.float32 and param_dtypes == {np.dtype(np.float32)}
            assert cache is None
        assert trace.dtype == np.float64 and np.isfinite(trace).all()


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_trace_bytes_do_not_depend_on_the_worker_count(monkeypatch, workers):
    # every worker count computes the same tiles, so the trace is the
    # serial one bit for bit on any BLAS kernel, even where a kernel
    # rounds a row by how many rows share its product
    rng = np.random.default_rng(workers)
    spotter, narrow = _spotter(SpotterConfig(), workers), small_spotter(workers)
    for frames in [
        1,
        CHUNK_FRAMES // 2 - 1,
        CHUNK_FRAMES // 2 + 1,
        CHUNK_FRAMES - 1,
        CHUNK_FRAMES + 1,
        2 * CHUNK_FRAMES + 7,
        3000,
    ]:
        lfbe = rng.standard_normal((frames, 20)) * 3.0 - 5.0
        for model in (spotter, narrow):
            monkeypatch.setattr(wwspot.features, "WORKERS", 1)
            serial = posterior_trace(model, lfbe)
            monkeypatch.setattr(wwspot.features, "WORKERS", workers)
            assert np.array_equal(posterior_trace(model, lfbe), serial)


def _traced_peak(fn, *args):
    """fn's result and the peak bytes it allocated while running."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_memory_is_flat_against_length():
    # 15 s against 60 s of audio: only the outputs (one LFBE row and one
    # posterior per frame) may grow; whole-utterance windows, spectra or
    # stacked inputs would add tens of MB
    rng = np.random.default_rng(0)
    model = small_spotter()
    compute_lfbe(AudioClip(np.zeros(SAMPLE_RATE)))  # fill the filterbank cache
    peaks = {}
    for seconds in (15, 60):
        clip = AudioClip(rng.standard_normal(SAMPLE_RATE * seconds) * 0.1)
        lfbe, lfbe_peak = _traced_peak(compute_lfbe, clip)
        trace, trace_peak = _traced_peak(posterior_trace, model, lfbe)
        peaks[seconds] = (lfbe_peak, lfbe.nbytes, trace_peak, trace.nbytes)
    short, long = peaks[15], peaks[60]
    slack = 2**20
    assert long[0] - short[0] <= long[1] - short[1] + slack
    assert long[2] - short[2] <= long[3] - short[3] + slack


def test_decode_memory_does_not_grow_with_the_worker_count(monkeypatch):
    # at every worker count the tiles in flight make at most one block of
    # frames, as the one-block loops hold; a full block per worker would
    # add one block of windows, spectra or stacked inputs each
    rng = np.random.default_rng(1)
    model = _spotter(SpotterConfig(), 1)
    clip = AudioClip(rng.standard_normal(SAMPLE_RATE * 60).astype(np.float32) * 0.1)
    compute_lfbe(AudioClip(np.zeros(SAMPLE_RATE)))  # fill the filterbank cache
    lfbe, lfbe_bound = _traced_peak(serial_lfbe, clip)
    _, trace_bound = _traced_peak(serial_trace, model, lfbe)
    slack = 2**18
    for workers in (1, 2, 8):
        monkeypatch.setattr(wwspot.features, "WORKERS", workers)
        _, lfbe_peak = _traced_peak(compute_lfbe, clip)
        _, trace_peak = _traced_peak(posterior_trace, model, lfbe)
        assert lfbe_peak <= lfbe_bound + slack
        assert trace_peak <= trace_bound + slack
