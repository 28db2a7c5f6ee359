"""WAV I/O, clip-level power helpers, and the per-utterance worker pool.

Everything downstream works on mono float64 samples at 16 kHz. Readers
reject other sample rates outright; there is no resampler here.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .tsv import DataError

SAMPLE_RATE = 16000
WRITE_PEAK = 0.999
_FULL_SCALE = 32768.0


class AudioError(DataError):
    """Unreadable, malformed, or out-of-contract audio."""


@dataclass
class AudioClip:
    """Mono PCM samples at SAMPLE_RATE plus an opaque utterance id."""

    samples: np.ndarray
    id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise AudioError("clip samples must be one-dimensional")
        if self.samples.size == 0:
            raise AudioError("clip is empty")

    @property
    def duration_s(self) -> float:
        return self.samples.size / SAMPLE_RATE


def read_wav(path: str | os.PathLike) -> AudioClip:
    """Read a PCM WAV file as a mono clip scaled to [-1, 1], its id the
    file's stem.

    Accepts 16-bit integer or 32/64-bit float encodings, and float
    samples must be finite; multi-channel audio is averaged down to
    mono. Integer full scale maps to magnitude 1.0 (32767 reads as
    32767/32768).
    """
    path = os.fspath(path)
    if not os.path.isfile(path):
        raise AudioError(f"{path}: no such file")
    try:
        rate, data = wavfile.read(path)
    except (ValueError, EOFError) as exc:
        raise AudioError(f"{path}: not a readable PCM WAV ({exc})") from exc
    if data.size == 0:
        raise AudioError(f"{path}: zero-length audio")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / _FULL_SCALE
    elif data.dtype in (np.float32, np.float64):
        if not np.isfinite(data).all():
            raise AudioError(f"{path}: non-finite samples")
        samples = data.astype(np.float64)
    else:
        raise AudioError(
            f"{path}: unsupported sample encoding {data.dtype}; "
            "expected 16-bit PCM or 32-bit float"
        )
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if rate != SAMPLE_RATE:
        raise AudioError(
            f"{path}: unsupported sample rate {rate} (expected {SAMPLE_RATE})"
        )
    return AudioClip(samples, id=os.path.splitext(os.path.basename(path))[0])


def write_wav(clip: AudioClip, path: str | os.PathLike) -> None:
    """Write a clip as 16-bit PCM mono.

    Clips whose peak exceeds 1.0 (augmentation sums can overshoot) are
    peak-normalized to 0.999 before quantization, so written samples
    always fit full scale.
    """
    samples = clip.samples
    peak = float(np.max(np.abs(samples)))
    if peak > 1.0:
        samples = samples * (WRITE_PEAK / peak)
    quantized = np.clip(
        np.round(samples * _FULL_SCALE), -32768, 32767
    ).astype(np.int16)
    try:
        wavfile.write(os.fspath(path), SAMPLE_RATE, quantized)
    except OSError as exc:
        raise AudioError(f"{path}: cannot write ({exc})") from exc


def rms_power(clip: AudioClip | np.ndarray) -> float:
    """Mean squared amplitude of a clip (zero only for all-zero input)."""
    samples = clip.samples if isinstance(clip, AudioClip) else np.asarray(clip)
    if samples.size == 0:
        raise AudioError("cannot compute power of an empty clip")
    return float(np.mean(np.square(samples, dtype=np.float64)))


_WORKER = None  # parallel_map's (fn, context), set once in each pool worker


def _init_worker(fn, context) -> None:
    global _WORKER
    _WORKER = fn, context


def _call(item):
    fn, context = _WORKER
    return fn(context, item)


def parallel_map(fn, items, jobs, context):
    """`fn(context, item)` for each item of a list; one job or one item stays
    in-process, and a pool of at most one worker per item sends `context` to
    each worker once. Results keep input order, so any N gives the same bytes."""
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(context, item) for item in items]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(fn, context)
    ) as pool:
        return list(pool.map(_call, items, chunksize=8))
