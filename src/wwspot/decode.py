"""Posterior traces, smoothing and thresholded peak detection.

The wake-word posterior trace is computed CHUNK_FRAMES frames at a
time in float32: the feature scaler is folded into the network's first
layer once per recording, and each block's fixed tiles, dealt to the
features module's worker threads, stack their own raw inputs, so
decoding holds one block of inputs and activations whatever the
recording's length, and gives the same bytes whatever the core count.
The trace, one float per frame, is then smoothed by a moving average
whose width should match the typical wake-word duration, and maximal
supra-threshold regions (merged across short gaps) become detections
carrying their peak frame and score.
Smoothing and peak picking run on the whole trace: it is small, and a
streaming smoother would add state and save nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .features import CONTEXT_WIDTH, LEFT_CONTEXT, RIGHT_CONTEXT, over_blocks
from .model import SpotterModel, _fold_scaler, _forward
from .tsv import DataError, read_tsv, write_tsv


@dataclass(frozen=True)
class DecodeConfig:
    smooth_window_frames: int
    threshold: float
    min_gap_frames: int

    def __post_init__(self):
        if self.smooth_window_frames < 1:
            raise DataError("smooth_window_frames must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise DataError("threshold must be in (0, 1)")
        if self.min_gap_frames < 0:
            raise DataError("min_gap_frames must be >= 0")


@dataclass(frozen=True)
class Detection:
    utt_id: str
    start_frame: int
    end_frame: int  # inclusive
    peak_frame: int
    peak_score: float


def smooth(trace: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge shrinking.

    Frame t averages frames t - window // 2 .. t + (window - 1) // 2.
    Boundary windows are truncated and divided by the actual sample
    count, so constant traces stay constant all the way to the edges.
    The output has the trace's length even when the window is longer.
    """
    ones = np.ones(window)
    frames = slice((window - 1) // 2, (window - 1) // 2 + trace.size)
    sums = np.convolve(trace, ones)[frames]
    counts = np.convolve(np.ones(trace.size), ones)[frames]
    return sums / counts


def detect_peaks(
    trace: np.ndarray, cfg: DecodeConfig, utt_id: str = ""
) -> list[Detection]:
    """Maximal regions with score >= threshold, merged across gaps
    shorter than min_gap_frames; the peak is the earliest argmax.

    Merging can consolidate neighbouring events, so detection counts are
    only guaranteed monotone across a threshold sweep while regions stay
    separated by at least the merge gap.
    """
    above = np.flatnonzero(trace >= cfg.threshold)
    if above.size == 0:
        return []
    # a gap of b - a - 1 frames between neighbours a < b of `above`
    # splits two regions unless it is shorter than min_gap_frames
    breaks = np.flatnonzero(np.diff(above) > max(cfg.min_gap_frames, 1))
    starts = above[np.concatenate(([0], breaks + 1))]
    ends = above[np.concatenate((breaks, [above.size - 1]))]
    detections = []
    for s, e in zip(starts.tolist(), ends.tolist()):
        peak = s + int(np.argmax(trace[s : e + 1]))
        detections.append(Detection(utt_id, s, e, peak, float(trace[peak])))
    return detections


def posterior_trace(model: SpotterModel, lfbe: np.ndarray) -> np.ndarray:
    """Per-frame wake-word posterior for one utterance's LFBE matrix.

    Equals the tests' float64 oracle `whole_utterance_trace` within 1e-6,
    computed in float32: the scaler is folded into a float32 copy of the
    parameters once, and `over_blocks` hands each span of frames to the
    cache-free forward. A span gathers only its own LFBE rows plus
    context, ends replicated, and copies its float32 stacked rows as
    windows of that span through a strided view; each span has its own
    rows, as tiles go at once on two threads. The trace is float64.
    """
    n, bins = lfbe.shape
    params = _fold_scaler(model, np.float32)
    trace = np.empty(n)

    def run(lo, hi):
        # frame t's row is span rows t-lo .. t-lo+CONTEXT_WIDTH-1, contiguous in
        # memory; the span is cast once, so the window copy casts nothing
        span = lfbe[np.clip(np.arange(lo - LEFT_CONTEXT, hi + RIGHT_CONTEXT), 0, n - 1)]
        span = span.astype(np.float32).reshape(-1)
        rows = sliding_window_view(span, CONTEXT_WIDTH * bins)[::bins].copy()
        trace[lo:hi] = _forward(params, rows)[:, 1]

    over_blocks(run, n)
    return trace


def write_detections(detections: list[Detection], path: str | os.PathLike) -> None:
    rows = (
        (d.utt_id, str(d.start_frame), str(d.end_frame), str(d.peak_frame),
         f"{d.peak_score:.6f}")
        for d in detections
    )
    write_tsv(path, rows)


def _detection(utt_id: str, start: int, end: int, peak: int, score: float) -> Detection:
    if not 0 <= start <= peak <= end:
        raise ValueError(f"frames need 0 <= start <= peak <= end, got {start}, {peak}, {end}")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"peak score {score} out of [0, 1]")
    return Detection(utt_id, start, end, peak, score)


def read_detections(path: str | os.PathLike) -> list[Detection]:
    detections: list[Detection] = []
    read_tsv(path, (str, int, int, int, float), lambda *row: detections.append(_detection(*row)))
    return detections
