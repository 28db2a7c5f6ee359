"""Log filterbank energy features and context stacking.

A 20-bin LFBE vector is computed every 10 ms from a 25 ms Hann window,
then 31 consecutive frames (20 left, 10 right, edges replicated) are
concatenated into the 620-dimensional network input.

Decoding works in blocks of CHUNK_FRAMES frames: `compute_lfbe` fills
its output one block of windows at a time, and the decoder stacks the
context of one block of frames at a time, so neither the window
matrix, the spectrum nor the stacked inputs of a whole recording are
ever held at once. Memory is O(block) plus the output, one row per
frame, however long the audio.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import AudioClip
from .tsv import DataError

LEFT_CONTEXT = 20
RIGHT_CONTEXT = 10
CHUNK_FRAMES = 512  # frames per decode block (5.12 s of audio)


class FeatureError(DataError):
    pass


@dataclass(frozen=True)
class LfbeConfig:
    window_ms: float = 25.0
    hop_ms: float = 10.0
    num_mel_bins: int = 20
    mel_low_hz: float = 20.0
    mel_high_hz: float = 7600.0
    log_floor: float = 1e-10

    def __post_init__(self):
        if not self.window_ms > self.hop_ms > 0:
            raise FeatureError("need window_ms > hop_ms > 0")
        if self.num_mel_bins < 1:
            raise FeatureError("num_mel_bins must be >= 1")
        if not 0 <= self.mel_low_hz < self.mel_high_hz:
            raise FeatureError("need 0 <= mel_low_hz < mel_high_hz")
        if self.log_floor <= 0:
            raise FeatureError("log_floor must be positive")

    def window_len(self, sample_rate: int) -> int:
        return int(round(self.window_ms * sample_rate / 1000.0))

    def hop_len(self, sample_rate: int) -> int:
        return int(round(self.hop_ms * sample_rate / 1000.0))

    def fft_size(self, sample_rate: int) -> int:
        n = 1
        while n < self.window_len(sample_rate):
            n *= 2
        return n


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


@lru_cache(maxsize=8)
def mel_filterbank(cfg: LfbeConfig, sample_rate: int) -> np.ndarray:
    """Triangular filters, equally spaced in mel, over the rfft bins.

    Triangles are evaluated in the mel domain, so adjacent filters sum to
    at most 1 at every FFT bin and each weight is non-negative.
    """
    if cfg.mel_high_hz > sample_rate / 2:
        raise FeatureError("mel_high_hz above Nyquist")
    nfft = cfg.fft_size(sample_rate)
    bin_mels = hz_to_mel(np.arange(nfft // 2 + 1) * sample_rate / nfft)
    edges = np.linspace(
        hz_to_mel(cfg.mel_low_hz), hz_to_mel(cfg.mel_high_hz), cfg.num_mel_bins + 2
    )
    left = edges[:-2, None]
    center = edges[1:-1, None]
    right = edges[2:, None]
    rising = (bin_mels[None, :] - left) / (center - left)
    falling = (right - bin_mels[None, :]) / (right - center)
    return np.clip(np.minimum(rising, falling), 0.0, 1.0)


def compute_lfbe(clip: AudioClip, cfg: LfbeConfig = LfbeConfig()) -> np.ndarray:
    """LFBE matrix of shape (frames, num_mel_bins).

    Per frame: Hann window, magnitude-squared rfft, mel filterbank,
    natural log of (energy + log_floor). Frame count is
    1 + floor((num_samples - window) / hop). The frames are strided
    views of the samples, transformed CHUNK_FRAMES at a time into the
    preallocated output.
    """
    sr = clip.sample_rate
    window = cfg.window_len(sr)
    hop = cfg.hop_len(sr)
    x = clip.samples
    if x.size < window:
        raise FeatureError(
            f"clip of {x.size} samples is shorter than one {window}-sample window"
        )
    frames = np.lib.stride_tricks.sliding_window_view(x, window)[::hop]
    hann = np.hanning(window)
    nfft = cfg.fft_size(sr)
    fbank = mel_filterbank(cfg, sr).T
    out = np.empty((frames.shape[0], cfg.num_mel_bins))
    for lo in range(0, frames.shape[0], CHUNK_FRAMES):
        block = slice(lo, lo + CHUNK_FRAMES)
        spectrum = np.abs(np.fft.rfft(frames[block] * hann, nfft, axis=1)) ** 2
        np.log(spectrum @ fbank + cfg.log_floor, out=out[block])
    return out


def context_indices(
    n_frames: int, left: int = LEFT_CONTEXT, right: int = RIGHT_CONTEXT
) -> np.ndarray:
    """Gather indices with edge replication, shape (n_frames, left+1+right)."""
    if n_frames < 1:
        raise FeatureError("empty feature matrix")
    offsets = np.arange(-left, right + 1)
    idx = np.arange(n_frames)[:, None] + offsets[None, :]
    return np.clip(idx, 0, n_frames - 1).astype(np.int64)


def stack_context(
    feat: np.ndarray, left: int = LEFT_CONTEXT, right: int = RIGHT_CONTEXT
) -> np.ndarray:
    """Concatenate frames t-left .. t+right per row; edges replicate.

    A (T, B) matrix becomes (T, (left+1+right)*B); each source frame's
    bins stay contiguous in the output row.
    """
    feat = np.asarray(feat, dtype=np.float64)
    if feat.ndim != 2 or feat.shape[0] < 1:
        raise FeatureError("expected a non-empty (frames, bins) matrix")
    idx = context_indices(feat.shape[0], left, right)
    width = left + 1 + right
    return feat[idx].reshape(feat.shape[0], width * feat.shape[1])
