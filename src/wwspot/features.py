"""Log filterbank energy features and context stacking.

A 20-bin LFBE vector (mel bands from 20 to 7600 Hz over a 512-point
FFT) is computed every 10 ms from a 25 ms Hann window of 16 kHz audio,
then 31 consecutive frames (20 left, 10 right, edges replicated) are
concatenated into the 620-dimensional network input.

Decoding works in blocks of CHUNK_FRAMES frames: `compute_lfbe` fills
its output one block of windows at a time, and the decoder stacks the
context of one block of frames at a time, so neither the window
matrix, the spectrum nor the stacked inputs of a whole recording are
ever held at once. Memory is O(block) plus the output, one row per
frame, however long the audio. The output may be rows the caller
owns: a training set's build featurizes each utterance straight into
its rows of the dataset.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .audio import SAMPLE_RATE, AudioClip
from .tsv import DataError

# The front end is fixed: every checkpoint is trained on these inputs,
# and frame targets, FA/hour and the decoder's frame times all assume
# this hop. No other module states any of these values.
WINDOW_SAMPLES = 400  # 25 ms
HOP_SAMPLES = 160  # 10 ms
FFT_SIZE = 512
NUM_MEL_BINS = 20
MEL_LOW_HZ = 20.0
MEL_HIGH_HZ = 7600.0
LOG_FLOOR = 1e-10
LEFT_CONTEXT = 20
RIGHT_CONTEXT = 10
CONTEXT_WIDTH = LEFT_CONTEXT + 1 + RIGHT_CONTEXT
HOP_S = HOP_SAMPLES / SAMPLE_RATE
FRAMES_PER_S = SAMPLE_RATE // HOP_SAMPLES
CHUNK_FRAMES = 512  # frames per decode block (5.12 s of audio)


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


@cache
def mel_filterbank() -> np.ndarray:
    """Triangular filters, equally spaced in mel, over the rfft bins.

    Triangles are evaluated in the mel domain, so adjacent filters sum to
    at most 1 at every FFT bin and each weight is non-negative.
    """
    bin_mels = hz_to_mel(np.arange(FFT_SIZE // 2 + 1) * SAMPLE_RATE / FFT_SIZE)
    edges = np.linspace(hz_to_mel(MEL_LOW_HZ), hz_to_mel(MEL_HIGH_HZ), NUM_MEL_BINS + 2)
    left = edges[:-2, None]
    center = edges[1:-1, None]
    right = edges[2:, None]
    rising = (bin_mels[None, :] - left) / (center - left)
    falling = (right - bin_mels[None, :]) / (right - center)
    return np.clip(np.minimum(rising, falling), 0.0, 1.0)


@cache
def _hann_window() -> np.ndarray:
    window = np.hanning(WINDOW_SAMPLES)
    window.flags.writeable = False
    return window


def num_frames(n_samples: int) -> int:
    """`compute_lfbe`'s frame count for n_samples of audio:
    1 + floor((n_samples - window) / hop), at least one window long."""
    if n_samples < WINDOW_SAMPLES:
        raise DataError(
            f"clip of {n_samples} samples is shorter than one {WINDOW_SAMPLES}-sample window"
        )
    return 1 + (n_samples - WINDOW_SAMPLES) // HOP_SAMPLES


def compute_lfbe(clip: AudioClip, out: np.ndarray | None = None) -> np.ndarray:
    """LFBE matrix of shape (num_frames(samples), NUM_MEL_BINS).

    Per frame: Hann window, magnitude-squared rfft, mel filterbank,
    natural log of (energy + LOG_FLOOR). The frames are strided views
    of the samples, transformed CHUNK_FRAMES at a time into the output:
    `out` when given (a dataset's rows, say), which must have that
    shape, else a new matrix.
    """
    x = clip.samples
    shape = (num_frames(x.size), NUM_MEL_BINS)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"output of shape {out.shape} for LFBE of shape {shape}")
    frames = np.lib.stride_tricks.sliding_window_view(x, WINDOW_SAMPLES)[::HOP_SAMPLES]
    hann = _hann_window()
    fbank = mel_filterbank().T
    for lo in range(0, shape[0], CHUNK_FRAMES):
        block = slice(lo, lo + CHUNK_FRAMES)
        spectrum = np.abs(np.fft.rfft(frames[block] * hann, FFT_SIZE, axis=1)) ** 2
        np.log(spectrum @ fbank + LOG_FLOOR, out=out[block])
    return out


def context_indices(n_frames: int) -> np.ndarray:
    """Gather indices with edge replication, shape (n_frames, CONTEXT_WIDTH).

    The rows are sliding windows over the edge-padded frame indices, so
    the result is a read-only view that allocates n_frames + CONTEXT_WIDTH
    - 1 indices rather than a CONTEXT_WIDTH-fold matrix.
    """
    if n_frames < 1:
        raise DataError("empty feature matrix")
    padded = np.clip(np.arange(-LEFT_CONTEXT, n_frames + RIGHT_CONTEXT), 0, n_frames - 1)
    return np.lib.stride_tricks.sliding_window_view(padded, CONTEXT_WIDTH)
