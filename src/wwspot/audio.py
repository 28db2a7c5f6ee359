"""WAV I/O, clip-level power helpers, and the per-utterance worker pool.

Clips hold mono samples at 16 kHz: float32 where float32 holds a WAV's
samples exactly (mono 16-bit PCM or 32-bit float), float64 otherwise.
Every stage computes in float64 whatever the clip holds, so the storage
type never changes a result. Readers reject other sample rates
outright; there is no resampler here.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import BinaryIO, Iterator, NamedTuple

import numpy as np

from .tsv import DataError, open_input

SAMPLE_RATE = 16000
WRITE_PEAK = 0.999
_FULL_SCALE = 32768.0

# RIFF layouts, all little-endian: the file header ("RIFF", size, "WAVE"),
# a chunk header (name, length), the 16 bytes every `fmt ` body starts with
# (format tag, channels, rate, byte rate, block align, bits per sample),
# and the whole 16-bit PCM mono header `write_wav` writes
_RIFF = struct.Struct("<4sI4s")
_CHUNK = struct.Struct("<4sI")
_FMT = struct.Struct("<HHIIHH")
_PCM_HEADER = struct.Struct("<4sI4s4sIHHIIHH4sI")
_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# a WAVE_FORMAT_EXTENSIBLE body is 40 bytes; its real format tag is the
# first 4 bytes of the subformat GUID at bytes 24-40, whose last 12 are fixed
_FMT_EXTENSIBLE_SIZE = 40
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample) -> the stored sample type read_wav accepts
_ENCODINGS = {
    (_PCM, 16): np.dtype("<i2"),
    (_FLOAT, 32): np.dtype("<f4"),
    (_FLOAT, 64): np.dtype("<f8"),
}
_BLOCK_FRAMES = 32768  # frames per read; one block is all read_wav holds beyond the clip


@dataclass
class AudioClip:
    """Mono PCM samples at SAMPLE_RATE plus an opaque utterance id.

    float32 samples are kept as they are; any other type becomes float64.
    """

    samples: np.ndarray
    id: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples)
        self.samples = samples if samples.dtype == np.float32 else samples.astype(np.float64, copy=False)
        if self.samples.ndim != 1:
            raise DataError("clip samples must be one-dimensional")
        if self.samples.size == 0:
            raise DataError("clip is empty")

    @property
    def duration_s(self) -> float:
        return self.samples.size / SAMPLE_RATE


def _unreadable(path: str, reason: str) -> DataError:
    return DataError(f"{path}: not a readable PCM WAV ({reason})")


class _DataChunk(NamedTuple):
    """Where a WAV's samples are: their stored type, the channels per
    frame, the byte offset of the first frame and the number of frames."""

    dtype: np.dtype
    channels: int
    offset: int
    frames: int


def _encoding(fmt: bytes, path: str) -> tuple[np.dtype, int]:
    """The stored sample type and channel count a `fmt ` chunk's body
    declares, after checking that `read_wav` accepts them."""
    if len(fmt) < _FMT.size:
        raise _unreadable(path, f"fmt chunk of {len(fmt)} bytes")
    tag, channels, rate, _, block_align, bits = _FMT.unpack_from(fmt)
    if tag == _EXTENSIBLE and fmt[28:40] == _GUID_TAIL:
        tag = int.from_bytes(fmt[24:28], "little")
    dtype = _ENCODINGS.get((tag, bits))
    if dtype is None:
        raise DataError(
            f"{path}: unsupported sample encoding (format tag {tag:#06x}, {bits}-bit); "
            "expected 16-bit PCM or 32/64-bit IEEE float"
        )
    if channels == 0 or block_align != channels * dtype.itemsize:
        raise _unreadable(
            path, f"{channels} channels of {bits}-bit samples in {block_align}-byte frames"
        )
    if rate != SAMPLE_RATE:
        raise DataError(
            f"{path}: unsupported sample rate {rate} (expected {SAMPLE_RATE})"
        )
    return dtype, channels


def _data_chunk(fh: BinaryIO, path: str) -> _DataChunk:
    """One walk over the RIFF chunks up to `data`, reading only chunk
    headers and `fmt `, and skipping any other chunk (LIST, fact, ...).
    The walk is bounded by the file's real size, not by the RIFF size
    field. Every fault, a data chunk that runs past the end of the file
    included, raises a DataError naming the file."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(_RIFF.size)
    if len(head) < _RIFF.size or head[:4] != b"RIFF" or head[8:] != b"WAVE":
        raise _unreadable(path, "no RIFF/WAVE header")
    fmt, pos = None, _RIFF.size
    while pos + _CHUNK.size <= size:
        fh.seek(pos)
        name, length = _CHUNK.unpack(fh.read(_CHUNK.size))
        pos += _CHUNK.size
        if name == b"fmt ":
            fmt = fh.read(min(length, _FMT_EXTENSIBLE_SIZE))
        elif name == b"data":
            if fmt is None:
                raise _unreadable(path, "no fmt chunk before the data chunk")
            dtype, channels = _encoding(fmt, path)
            if pos + length > size:
                raise DataError(
                    f"{path}: truncated WAV: its data chunk ends at byte "
                    f"{pos + length}, the file has {size}"
                )
            frames = length // (channels * dtype.itemsize)
            if frames == 0:
                raise DataError(f"{path}: zero-length audio")
            return _DataChunk(dtype, channels, pos, frames)
        pos += length + (length & 1)  # chunks are padded to an even length
    raise _unreadable(path, "no data chunk")


def _blocks(fh: BinaryIO, data: _DataChunk, path: str) -> Iterator[tuple[int, np.ndarray]]:
    """(first frame, frames) for consecutive blocks of at most
    _BLOCK_FRAMES frames of the data chunk, one row per frame, each
    block read into the same buffer."""
    buf = np.empty((min(_BLOCK_FRAMES, data.frames), data.channels), data.dtype)
    fh.seek(data.offset)
    for lo in range(0, data.frames, _BLOCK_FRAMES):
        block = buf[: data.frames - lo]
        if fh.readinto(block) != block.nbytes:  # the file shrank since its header was read
            raise DataError(f"{path}: truncated WAV")
        yield lo, block


def wav_samples(path: str | os.PathLike) -> int:
    """The number of samples per channel `read_wav` would return, from
    the chunk headers alone: no sample is read."""
    path = os.fspath(path)
    with open_input(path) as fh:
        return _data_chunk(fh, path).frames


def read_wav(path: str | os.PathLike) -> AudioClip:
    """Read a PCM WAV file as a mono clip scaled to [-1, 1], its id the
    file's stem.

    Accepts 16-bit integer or 32/64-bit float encodings, also under
    WAVE_FORMAT_EXTENSIBLE, and float samples must be finite;
    multi-channel audio is averaged down to mono. Integer full scale maps
    to magnitude 1.0 (32767 reads as 32767/32768). The samples are read
    in blocks straight into the clip, so the only memory beyond the clip
    is one block. A mono 16-bit or 32-bit float WAV reads into float32,
    which holds its samples exactly (4 B per sample); a multi-channel
    mean or a 64-bit sample needs float64.
    """
    path = os.fspath(path)
    with open_input(path) as fh:
        data = _data_chunk(fh, path)
        floats = data.dtype.kind == "f"
        # 2**-15 is a power of two, so multiplying by it rounds exactly as
        # dividing by 32768 does, and runs faster
        scale = 1.0 if floats else 1.0 / _FULL_SCALE
        exact32 = data.channels == 1 and data.dtype.itemsize <= 4
        samples = np.empty(data.frames, np.float32 if exact32 else np.float64)
        for lo, block in _blocks(fh, data, path):
            if floats and not np.isfinite(block).all():
                raise DataError(f"{path}: non-finite samples")
            rows = samples[lo : lo + len(block)]
            if data.channels > 1:
                np.multiply(block, scale, dtype=np.float64).mean(axis=1, out=rows)
            else:
                # a cast copy needs no scratch, a mixed-type product does; an
                # int16 times 2**-15 is exact in float32 too
                rows[:] = block[:, 0]
                rows *= scale
    return AudioClip(samples, id=os.path.splitext(os.path.basename(path))[0])


def write_wav(clip: AudioClip, path: str | os.PathLike) -> None:
    """Write a clip as 16-bit PCM mono with the canonical 44-byte header.

    Clips whose peak exceeds 1.0 (augmentation sums can overshoot) are
    peak-normalized to 0.999 before quantization, so written samples
    always fit full scale.
    """
    samples = clip.samples
    peak = float(np.max(np.abs(samples)))
    if peak > 1.0:
        # in float64: a float32 clip times a float would round in float32
        # (the product by 2**15 below is exact in either type)
        samples = np.multiply(samples, WRITE_PEAK / peak, dtype=np.float64)
    quantized = np.clip(
        np.round(samples * _FULL_SCALE), -32768, 32767
    ).astype("<i2")
    nbytes = quantized.nbytes
    header = _PCM_HEADER.pack(
        b"RIFF", _PCM_HEADER.size - 8 + nbytes, b"WAVE",
        b"fmt ", _FMT.size, _PCM, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16,
        b"data", nbytes,
    )
    # through the file object, not ndarray.tofile's C stdio, so a short write raises
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(memoryview(quantized))


def rms_power(samples: np.ndarray) -> float:
    """Mean squared amplitude of samples (zero only for all-zero input)."""
    if samples.size == 0:
        raise DataError("cannot compute power of an empty clip")
    return float(np.mean(np.square(samples, dtype=np.float64)))


# the cores this process may run on, which bound every pool's size
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_WORKER = None  # parallel_map's (fn, context), set once in each pool worker


def _init_worker(fn, context) -> None:
    global _WORKER
    _WORKER = fn, context


def _call(item):
    fn, context = _WORKER
    return fn(context, item)


def parallel_map(fn, items, jobs, context):
    """`fn(context, item)` for each item of a list; one job, one item or one
    core stays in-process, and a pool of at most one worker per item and per
    core sends `context` to each worker once. Results keep input order, so
    any N gives the same bytes."""
    workers = min(jobs, len(items), CORES)
    if workers <= 1:
        return [fn(context, item) for item in items]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(fn, context)
    ) as pool:
        chunk = min(8, max(1, len(items) // (4 * workers)))  # few items reach every worker
        return list(pool.map(_call, items, chunksize=chunk))
