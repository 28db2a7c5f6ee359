"""Posterior traces, smoothing and thresholded peak detection.

The wake-word posterior trace is computed CHUNK_FRAMES frames at a
time in float32: the feature scaler is folded into the network's first
layer once per recording, and each block refills one float32 buffer of
stacked raw inputs, so decoding holds one block of inputs and
activations whatever the recording's length. The trace, one float per
frame, is then smoothed by a moving average whose width should match
the typical wake-word duration, and maximal supra-threshold regions
(merged across short gaps) become detections carrying their peak frame
and score.
Smoothing and peak picking run on the whole trace: it is small, and a
streaming smoother would add state and save nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .features import (
    CHUNK_FRAMES,
    CONTEXT_WIDTH,
    HOP_S,
    LEFT_CONTEXT,
    RIGHT_CONTEXT,
    FeatureError,
)
from .mining import MinedExample, POSITIVE
from .model import SpotterModel, _check_input_dim, _fold_scaler, _forward
from .tsv import DataError, read_tsv, write_tsv


class DecodeError(DataError):
    pass


@dataclass(frozen=True)
class DecodeConfig:
    smooth_window_frames: int
    threshold: float
    min_gap_frames: int

    def __post_init__(self):
        if self.smooth_window_frames < 1:
            raise DecodeError("smooth_window_frames must be >= 1")
        if not 0.0 < self.threshold < 1.0:
            raise DecodeError("threshold must be in (0, 1)")
        if self.min_gap_frames < 0:
            raise DecodeError("min_gap_frames must be >= 0")


@dataclass(frozen=True)
class Detection:
    utt_id: str
    start_frame: int
    end_frame: int  # inclusive
    peak_frame: int
    peak_score: float


def smooth(trace: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge shrinking.

    Boundary windows are truncated and divided by the actual sample
    count, so constant traces stay constant all the way to the edges.
    """
    if window < 1:
        raise DecodeError("window must be >= 1")
    trace = np.asarray(trace, dtype=np.float64)
    if trace.ndim != 1 or trace.size == 0:
        raise DecodeError("trace must be a non-empty vector")
    ones = np.ones(window)
    sums = np.convolve(trace, ones, mode="same")
    counts = np.convolve(np.ones(trace.size), ones, mode="same")
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
    trace = np.asarray(trace, dtype=np.float64)
    above = np.flatnonzero(trace >= cfg.threshold)
    if above.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(above) > 1)
    starts = above[np.concatenate(([0], breaks + 1))]
    ends = above[np.concatenate((breaks, [above.size - 1]))]
    merged: list[list[int]] = [[int(starts[0]), int(ends[0])]]
    for s, e in zip(starts[1:], ends[1:]):
        if s - merged[-1][1] - 1 < cfg.min_gap_frames:
            merged[-1][1] = int(e)
        else:
            merged.append([int(s), int(e)])
    detections = []
    for s, e in merged:
        peak = s + int(np.argmax(trace[s : e + 1]))
        detections.append(Detection(utt_id, s, e, peak, float(trace[peak])))
    return detections


def average_duration_frames(examples: list[MinedExample]) -> int:
    """Mean trigger duration of the positive examples, in frames; the
    natural smoothing-window width for decoding."""
    spans = [
        e.trigger_span[1] - e.trigger_span[0]
        for e in examples
        if e.polarity == POSITIVE
    ]
    if not spans:
        raise DecodeError("no positive examples to measure")
    return max(1, int(round(float(np.mean(spans)) / HOP_S)))


def posterior_trace(model: SpotterModel, lfbe: np.ndarray) -> np.ndarray:
    """Per-frame wake-word posterior for one utterance's LFBE matrix.

    Equals the tests' float64 oracle `whole_utterance_trace` within 1e-6,
    computed in float32: the scaler is folded into a float32 copy of the
    parameters once, and each block of CHUNK_FRAMES frames refills one
    reusable float32 buffer of stacked inputs and goes through the
    cache-free forward. A block gathers only its own LFBE rows plus
    context, ends replicated, and its stacked rows are copied as windows
    of that span through a strided view. The trace is float64.
    """
    lfbe = np.asarray(lfbe, dtype=np.float64)
    if lfbe.ndim != 2 or lfbe.shape[0] < 1:
        raise FeatureError("expected a non-empty (frames, bins) matrix")
    n, bins = lfbe.shape
    _check_input_dim(model, CONTEXT_WIDTH * bins)
    params = _fold_scaler(model, np.float32)
    trace = np.empty(n)
    buf = np.empty((min(n, CHUNK_FRAMES), CONTEXT_WIDTH * bins), dtype=np.float32)
    for lo in range(0, n, CHUNK_FRAMES):
        hi = min(lo + CHUNK_FRAMES, n)
        rows = buf[: hi - lo]
        # frame t's row is span rows t-lo .. t-lo+CONTEXT_WIDTH-1, contiguous in
        # memory; the span is cast once, so the window copy casts nothing
        span = lfbe[np.clip(np.arange(lo - LEFT_CONTEXT, hi + RIGHT_CONTEXT), 0, n - 1)]
        span = span.astype(np.float32).reshape(-1)
        rows[:] = sliding_window_view(span, CONTEXT_WIDTH * bins)[::bins]
        trace[lo:hi] = _forward(params, rows)[:, 1]
    return trace


def write_detections(detections: list[Detection], path: str | os.PathLike) -> None:
    rows = (
        (d.utt_id, str(d.start_frame), str(d.end_frame), str(d.peak_frame),
         f"{d.peak_score:.6f}")
        for d in detections
    )
    write_tsv(path, rows, DecodeError)


def _detection(utt_id: str, start: int, end: int, peak: int, score: float) -> Detection:
    if not 0 <= start <= peak <= end:
        raise ValueError(f"frames need 0 <= start <= peak <= end, got {start}, {peak}, {end}")
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"peak score {score} out of [0, 1]")
    return Detection(utt_id, start, end, peak, score)


def read_detections(path: str | os.PathLike) -> list[Detection]:
    return read_tsv(path, (str, int, int, int, float), _detection, DecodeError)
