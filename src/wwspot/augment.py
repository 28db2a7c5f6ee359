"""Stratified multi-condition augmentation.

Three operations generate the far-field / noisy renditions of clean
close-talk audio: image-source room impulse responses, convolutional
reverberation, and additive noise+music corruption at a drawn target
SNR. `build_mixed_dataset` combines them into the four-condition
training mix (clean, +reverb, +noise, +reverb+noise).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .audio import SAMPLE_RATE, AudioClip, WRITE_PEAK, parallel_map, rms_power, read_wav, write_wav
from .tsv import DataError, read_tsv, write_tsv

SNR_CLAMP_DB = (-5.0, 40.0)
TAIL_ENERGY_FRACTION = 1e-4
SPEED_OF_SOUND = 343.0  # m/s

CONDITIONS = ("CTM", "CTM+R", "CTM+N", "CTM+RN")
_CONDITION_SLUGS = {"CTM": "ctm", "CTM+R": "rev", "CTM+N": "noi", "CTM+RN": "rvn"}


# --- room impulse responses --------------------------------------------------


@dataclass(frozen=True)
class RoomSpec:
    """Shoebox room for the image-source synthesizer.

    `reflection_coeff` applies uniformly to all six walls and
    `max_order` caps the reflection count per axis; the order guard
    keeps the image grid small.
    """

    dimensions: tuple[float, float, float]
    source_pos: tuple[float, float, float]
    mic_pos: tuple[float, float, float]
    reflection_coeff: float
    max_order: int

    def __post_init__(self):
        dims = np.asarray(self.dimensions, dtype=np.float64)
        src = np.asarray(self.source_pos, dtype=np.float64)
        mic = np.asarray(self.mic_pos, dtype=np.float64)
        if dims.shape != (3,) or src.shape != (3,) or mic.shape != (3,):
            raise DataError("room geometry needs 3-D dimensions and positions")
        if not np.all(dims > 0):
            raise DataError("room dimensions must be positive")
        for name, pos in (("source_pos", src), ("mic_pos", mic)):
            if not (np.all(pos > 0) and np.all(pos < dims)):
                raise DataError(f"{name} must lie strictly inside the room")
        if np.array_equal(src, mic):
            raise DataError("source and microphone positions coincide")
        if not 0.0 <= self.reflection_coeff < 1.0:
            raise DataError("reflection_coeff must be in [0, 1)")
        if not 0 <= self.max_order <= 10:
            raise DataError("max_order must be in 0..10")


@dataclass
class RirFilter:
    """Finite impulse response taps at the pipeline sample rate."""

    taps: np.ndarray
    id: str = ""

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 1 or self.taps.size == 0:
            raise DataError("RIR taps must be a non-empty vector")
        if not np.any(self.taps):
            raise DataError("RIR has no non-zero tap")
        if not np.isfinite(self.taps).all():
            raise DataError("RIR taps must be finite")


def _axis_images(pos: float, length: float, max_order: int):
    """1-D image coordinates and reflection counts along one axis.

    Images at 2nL + p carry 2|n| reflections, images at 2nL - p carry
    |2n - 1|; everything with a count above max_order is dropped.
    """
    coords = []
    counts = []
    for n in range(-(max_order + 1), max_order + 2):
        c_even = 2 * abs(n)
        if c_even <= max_order:
            coords.append(2.0 * n * length + pos)
            counts.append(c_even)
        c_odd = abs(2 * n - 1)
        if c_odd <= max_order:
            coords.append(2.0 * n * length - pos)
            counts.append(c_odd)
    return np.asarray(coords, dtype=np.float64), np.asarray(counts, dtype=np.int64)


def _truncate_tail(taps: np.ndarray) -> np.ndarray:
    energy = taps * taps
    total = energy.sum()
    tail = np.cumsum(energy[::-1])[::-1]
    keep = np.flatnonzero(tail >= TAIL_ENERGY_FRACTION * total)
    return taps[: keep[-1] + 1]


def synthesize_rir(room: RoomSpec, id: str = "") -> RirFilter:
    """Image-source RIR: each image adds beta^reflections / (4*pi*d) at
    the sample nearest d / SPEED_OF_SOUND, then the tail holding less
    than 1e-4 of the total energy is cut."""
    dims = np.asarray(room.dimensions, dtype=np.float64)
    src = np.asarray(room.source_pos, dtype=np.float64)
    mic = np.asarray(room.mic_pos, dtype=np.float64)
    xs, cx = _axis_images(src[0], dims[0], room.max_order)
    ys, cy = _axis_images(src[1], dims[1], room.max_order)
    zs, cz = _axis_images(src[2], dims[2], room.max_order)
    dist = np.sqrt(
        ((xs - mic[0]) ** 2)[:, None, None]
        + ((ys - mic[1]) ** 2)[None, :, None]
        + ((zs - mic[2]) ** 2)[None, None, :]
    ).ravel()
    counts = (cx[:, None, None] + cy[None, :, None] + cz[None, None, :]).ravel()
    # an image on the microphone would have unbounded amplitude
    keep = dist > 1e-9
    dist = dist[keep]
    amps = np.power(room.reflection_coeff, counts[keep]) / (4.0 * np.pi * dist)
    delays = (dist * SAMPLE_RATE / SPEED_OF_SOUND + 0.5).astype(np.int64)
    taps = np.bincount(delays, weights=amps)
    return RirFilter(_truncate_tail(taps), id=id)


def rir_to_wav(rir: RirFilter, path: str | os.PathLike) -> None:
    """Store taps as 16-bit WAV (peak-normalized if any tap exceeds 1)."""
    write_wav(AudioClip(rir.taps, id=rir.id), path)


def rir_from_wav(path: str | os.PathLike) -> RirFilter:
    clip = read_wav(path)
    return RirFilter(clip.samples, id=clip.id)


# --- reverberation ------------------------------------------------------------


def _fft_size(n: int) -> int:
    """The smallest 2·3·5-smooth integer >= n, the real-FFT length that
    pocketfft factors fastest (`scipy.fft.next_fast_len(n, real=True)`)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def reverberate(clip: AudioClip, rir: RirFilter) -> AudioClip:
    """Convolve the clip with the RIR, keeping the original length.

    Truncating to the input length keeps any frame-level targets of the
    source utterance aligned. The output is rescaled only when its peak
    exceeds 1.0. The full convolution runs through real FFTs of the
    smooth length scipy's `fftconvolve` picks, so the samples equal
    `fftconvolve(x, h)[:len(x)]` bit for bit (numpy 2 and scipy share
    pocketfft).
    """
    # widened, since numpy.fft transforms float32 input in float32
    x, h = clip.samples.astype(np.float64, copy=False), rir.taps
    size = _fft_size(x.size + h.size - 1)
    out = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(h, size), size)[: x.size]
    peak = float(np.max(np.abs(out)))
    if peak > 1.0:
        out = out * (WRITE_PEAK / peak)
    return AudioClip(out, id=clip.id)


# --- additive corruption -------------------------------------------------------


@dataclass(frozen=True)
class CorruptionSpec:
    """Target-SNR draw parameters and the noise/music power split.

    noise_music_split is the fraction of total interference power given
    to the noise source; the remainder goes to music. 1.0 or 0.0 yields
    single-source corruption.
    """

    snr_mean_db: float
    snr_std_db: float
    noise_music_split: float
    rng_seed: int = 0

    def __post_init__(self):
        if self.snr_std_db < 0:
            raise DataError("snr_std_db must be >= 0")
        if not 0.0 <= self.noise_music_split <= 1.0:
            raise DataError("noise_music_split must be in [0, 1]")


def _fit_to_length(samples: np.ndarray, length: int, rng: np.random.Generator) -> np.ndarray:
    """Tile shorter interference, random-offset crop longer."""
    if samples.size == length:
        return samples.astype(np.float64)
    if samples.size < length:
        reps = -(-length // samples.size)
        return np.tile(samples, reps)[:length].astype(np.float64)
    offset = int(rng.integers(0, samples.size - length + 1))
    return samples[offset : offset + length].astype(np.float64)


def corrupt(
    clip: AudioClip,
    noise: AudioClip | None,
    music: AudioClip | None,
    spec: CorruptionSpec,
    rng: np.random.Generator,
) -> tuple[AudioClip, float]:
    """Add noise and music at a target SNR drawn from the spec.

    The per-source scales follow the power split, then both are rescaled
    jointly so the combined interference realizes the drawn SNR exactly
    (the draw is clamped to [-5, 40] dB); a source may be None only where
    its share is 0. Returns the corrupted clip and the realized SNR in dB.
    """
    target = float(rng.normal(spec.snr_mean_db, spec.snr_std_db))
    target = float(np.clip(target, *SNR_CLAMP_DB))

    x = clip.samples.astype(np.float64, copy=False)  # so the mix and the sum are float64
    signal_power = rms_power(x)
    if signal_power == 0.0:
        raise DataError(f"{clip.id or 'clip'}: silent input has undefined SNR")
    interference_power = signal_power / 10.0 ** (target / 10.0)

    split = spec.noise_music_split
    mix = np.zeros_like(x)
    for source, share, label in ((noise, split, "noise"), (music, 1.0 - split, "music")):
        if share == 0.0:
            continue
        segment = _fit_to_length(source.samples, x.size, rng)
        power = rms_power(segment)
        if power == 0.0:
            raise DataError(f"{label} source {source.id!r} has zero power")
        mix += np.sqrt(share * interference_power / power) * segment

    mix_power = rms_power(mix)
    if mix_power == 0.0:
        raise DataError("interference mix has zero power")
    mix *= np.sqrt(interference_power / mix_power)

    realized = 10.0 * np.log10(signal_power / rms_power(mix))
    return AudioClip(x + mix, id=clip.id), float(realized)


# --- the four-condition mix ---------------------------------------------------

# Preset per-condition counts (CTM, CTM+R, CTM+N, CTM+RN). The 50K row
# deliberately sums to 52K; the label is a name, not an arithmetic claim.
TABLE_ROWS = {
    "50K": (10000, 14000, 14000, 14000),
    "200K": (20000, 60000, 60000, 60000),
    "350K": (35000, 105000, 105000, 105000),
    "500K": (50000, 150000, 150000, 150000),
}


@dataclass(frozen=True)
class MixRecipe:
    """Per-condition counts for the mixed training set.

    The three augmented conditions must be equally sized; the clean
    portion is produced by cyclic repetition of the source pool.
    """

    ctm: int
    reverb: int
    noise: int
    reverb_noise: int

    def __post_init__(self):
        counts = (self.ctm, self.reverb, self.noise, self.reverb_noise)
        if any(c < 0 for c in counts):
            raise DataError("recipe counts must be non-negative")
        if sum(counts) == 0:
            raise DataError("recipe is empty")
        if not self.reverb == self.noise == self.reverb_noise:
            raise DataError("augmented condition counts must be equal")

    @property
    def total(self) -> int:
        return self.ctm + self.reverb + self.noise + self.reverb_noise

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.ctm, self.reverb, self.noise, self.reverb_noise)

    @classmethod
    def from_table_row(cls, row: str, scale: float) -> "MixRecipe":
        if row not in TABLE_ROWS:
            raise DataError(
                f"unknown recipe row {row!r}; choose from {sorted(TABLE_ROWS)}"
            )
        counts = [int(round(c * scale)) for c in TABLE_ROWS[row]]
        return cls(*counts)


@dataclass(frozen=True)
class ManifestRow:
    utt_id: str
    condition: str
    source_id: str
    wav_path: str
    snr_db: float | None
    rir_id: str | None


def write_manifest(rows: list[ManifestRow], path: str | os.PathLike) -> None:
    fields = (
        (r.utt_id, r.condition, r.source_id, r.wav_path,
         "NA" if r.snr_db is None else f"{r.snr_db:.4f}",
         "NA" if r.rir_id is None else r.rir_id)
        for r in rows
    )
    write_tsv(path, fields)


def _or_na(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    return lambda field: None if field == "NA" else parse(field)


def read_manifest(path: str | os.PathLike) -> list[ManifestRow]:
    rows: list[ManifestRow] = []
    fields = (str, str, str, str, _or_na(float), _or_na(str))
    read_tsv(path, fields, lambda *row: rows.append(ManifestRow(*row)))
    return rows


def _run_job(context, job: tuple[int, str, int]) -> ManifestRow:
    clean, rirs, noises, musics, spec, out_dir = context
    index, condition, k = job
    rng = np.random.default_rng([spec.rng_seed, index])
    utt_id = f"{_CONDITION_SLUGS[condition]}-{k:06d}"
    snr = None
    rir_id = None
    if condition == "CTM":
        source = clean[k % len(clean)]
    else:
        source = clean[int(rng.integers(len(clean)))]
    # shares the source's samples: reverberate and corrupt return new clips
    out = AudioClip(source.samples, id=utt_id)
    if condition in ("CTM+R", "CTM+RN"):
        rir = rirs[int(rng.integers(len(rirs)))]
        out = reverberate(out, rir)
        rir_id = rir.id
    if condition in ("CTM+N", "CTM+RN"):
        noise = noises[int(rng.integers(len(noises)))]
        music = musics[int(rng.integers(len(musics)))] if musics else None
        out, snr = corrupt(out, noise, music, spec, rng)
    wav_path = os.path.join("wav", f"{utt_id}.wav")
    write_wav(out, os.path.join(out_dir, wav_path))
    return ManifestRow(utt_id, condition, source.id, wav_path, snr, rir_id)


def build_mixed_dataset(
    clean: list[AudioClip],
    rirs: list[RirFilter],
    noises: list[AudioClip],
    musics: list[AudioClip],
    recipe: MixRecipe,
    spec: CorruptionSpec,
    out_dir: str | os.PathLike,
    jobs: int = 1,
) -> list[ManifestRow]:
    """Emit the recipe's per-condition counts under out_dir/wav.

    Clean entries repeat the source pool cyclically; augmented entries
    sample source, RIR, and interference uniformly with an RNG seeded
    from (spec.rng_seed, job index), so any worker count reproduces the
    same bytes. Returns manifest rows in job order; the caller persists
    them with `write_manifest`.
    """
    if recipe.reverb > 0 and not rirs:
        raise DataError("reverb conditions requested but RIR pool is empty")
    if recipe.noise > 0 and not noises:
        raise DataError("noise conditions requested but noise pool is empty")
    if recipe.noise > 0 and spec.noise_music_split < 1.0 and not musics:
        raise DataError("music share requested but music pool is empty")

    out_dir = os.fspath(out_dir)
    os.makedirs(os.path.join(out_dir, "wav"), exist_ok=True)
    jobs_list: list[tuple[int, str, int]] = []
    for condition, count in zip(CONDITIONS, recipe.counts):
        for k in range(count):
            jobs_list.append((len(jobs_list), condition, k))

    context = (clean, rirs, noises, musics, spec, out_dir)
    return parallel_map(_run_job, jobs_list, jobs, context)
