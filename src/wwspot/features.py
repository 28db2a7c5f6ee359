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

`over_blocks` cuts each whole block into fixed tiles of RUN_FRAMES and
deals them to up to MAX_WORKERS threads, one per usable core, so a long
recording's blocks use two cores while at most one block of frames is
in flight. numpy releases the GIL in pocketfft and BLAS. A tile is the
same rows at every worker count, so no output depends on the cores.
These threads are decode's only parallelism: the CLI decodes its
recordings one after another.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import cache

import numpy as np

from .audio import CORES, SAMPLE_RATE, AudioClip
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
# every whole block runs as tiles of RUN_FRAMES at any worker count: BLAS
# may round a row by how many rows share its product, and shorter tiles
# cost it more per frame
RUN_FRAMES = 256
MAX_WORKERS = CHUNK_FRAMES // RUN_FRAMES
# over_blocks uses at most MAX_WORKERS of the usable cores, starting its
# threads per call, so one core starts none and none outlives a call
WORKERS = CORES


def over_blocks(fn, n: int) -> None:
    """Call fn(lo, hi) on spans of frames that cover [0, n) once each.

    Each whole block of CHUNK_FRAMES is cut into tiles of RUN_FRAMES, and
    with W = min(WORKERS, MAX_WORKERS, tiles) worker k takes tiles k,
    k + W, and so on, the caller's thread being worker 0 (the only one
    when W is 1): one tile in flight per worker is at most one block of
    frames in all, and a worker starts once per call, not per tile. The
    part-block at the end then runs whole on the caller's thread. So fn
    gets the same spans at every W. fn must write only rows lo..hi of
    its outputs.
    """
    whole = n - n % CHUNK_FRAMES
    tiles = range(0, whole, RUN_FRAMES)
    workers = max(1, min(WORKERS, MAX_WORKERS, len(tiles)))

    def share(k):
        for lo in tiles[k::workers]:
            fn(lo, lo + RUN_FRAMES)

    if workers == 1:
        share(0)
    else:
        with ThreadPoolExecutor(workers - 1, thread_name_prefix="wwspot-block") as pool:
            shares = [pool.submit(share, k) for k in range(1, workers)]
            share(0)
        for done in shares:
            done.result()
    if whole < n:
        fn(whole, n)


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
    of the samples, transformed a span of `over_blocks` at a time into
    the output: `out` when given (a dataset's rows, say), which must
    have that shape, else a new matrix.
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

    def run(lo, hi):
        spectrum = np.abs(np.fft.rfft(frames[lo:hi] * hann, FFT_SIZE, axis=1))
        np.square(spectrum, out=spectrum)
        np.log(spectrum @ fbank + LOG_FLOOR, out=out[lo:hi])

    over_blocks(run, shape[0])
    return out
