"""Self-contained synthetic keyword corpus.

Words are short sequences of formant-like syllables (stacked sinusoids
with an amplitude envelope and per-utterance pitch/formant jitter), so
the end-to-end demo needs no external audio, lexicon, or transcripts.
The generator emits WAV files, JSONL hypotheses with word spans and
synthetic confidences, a lexicon, and word frequencies.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from scipy.signal import lfilter

from .audio import SAMPLE_RATE, AudioClip, write_wav
from .augment import RoomSpec
from .tsv import write_tsv

# Formant triples (Hz) for the syllable inventory.
SYLLABLES = {
    "AA": (720.0, 1090.0, 2440.0),
    "IY": (270.0, 2290.0, 3010.0),
    "UW": (300.0, 870.0, 2240.0),
    "EH": (530.0, 1840.0, 2480.0),
    "OW": (570.0, 840.0, 2410.0),
    "ER": (490.0, 1350.0, 1690.0),
    "MM": (250.0, 1000.0, 2100.0),
}

WAKE_WORD = "calypso"

# token -> syllable sequence; the first six non-wake entries sit within
# edit distance 2 of the wake word, the rest are fillers.
WORDS: dict[str, tuple[str, ...]] = {
    "calypso": ("AA", "IY", "OW"),
    "caleeda": ("AA", "IY", "UW"),
    "caly": ("AA", "IY"),
    "molipso": ("MM", "IY", "OW"),
    "cawenso": ("AA", "EH", "OW"),
    "calypser": ("AA", "IY", "OW", "ER"),
    "cowesser": ("AA", "EH", "ER"),
    "mooner": ("MM", "UW", "ER"),
    "ermoo": ("ER", "MM"),
    "wooshmm": ("UW", "EH", "MM"),
}

WORD_COUNTS = {
    "calypso": 9000,
    "caleeda": 4200,
    "caly": 3900,
    "molipso": 3600,
    "cawenso": 3300,
    "calypser": 3000,
    "cowesser": 2700,
    "mooner": 2400,
    "ermoo": 2100,
    "wooshmm": 1800,
}

_FORMANT_GAINS = (1.0, 0.55, 0.3)
_NOISE_FLOOR = 10 ** (-55 / 20)


@dataclass
class SynthUtterance:
    utt_id: str
    clip: AudioClip
    words: list[tuple[str, float, float]]  # (token, start_s, end_s)

    def wake_spans(self) -> list[tuple[float, float]]:
        return [(s, e) for t, s, e in self.words if t == WAKE_WORD]


def _syllable_wave(name: str, dur_s: float, f0: float, rng: np.random.Generator) -> np.ndarray:
    n = int(dur_s * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    wave = np.zeros(n)
    for gain, formant in zip(_FORMANT_GAINS, SYLLABLES[name]):
        freq = formant * (1.0 + rng.uniform(-0.04, 0.04))
        wave += gain * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    # voicing: amplitude modulation at the fundamental
    wave *= (1.0 + 0.35 * np.sin(2 * np.pi * f0 * t)) / 1.35
    ramp = max(1, int(0.02 * SAMPLE_RATE))
    env = np.ones(n)
    env[:ramp] = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    env[-ramp:] = env[:ramp][::-1]
    return wave * env


def _word_wave(token: str, f0: float, rng: np.random.Generator) -> np.ndarray:
    parts = [
        _syllable_wave(s, rng.uniform(0.13, 0.19), f0, rng) for s in WORDS[token]
    ]
    return np.concatenate(parts)


def make_utterance(
    utt_id: str, tokens: list[str], rng: np.random.Generator
) -> SynthUtterance:
    """Assemble words with silences around them; spans are exact."""
    f0 = rng.uniform(110.0, 230.0)
    amplitude = rng.uniform(0.25, 0.5)
    pieces = [np.zeros(int(rng.uniform(0.08, 0.2) * SAMPLE_RATE))]
    spans = []
    for i, token in enumerate(tokens):
        if i:
            pieces.append(np.zeros(int(rng.uniform(0.04, 0.12) * SAMPLE_RATE)))
        wave = _word_wave(token, f0, rng)
        start = sum(p.size for p in pieces)
        spans.append((token, start / SAMPLE_RATE, (start + wave.size) / SAMPLE_RATE))
        pieces.append(wave)
    pieces.append(np.zeros(int(rng.uniform(0.08, 0.2) * SAMPLE_RATE)))
    samples = np.concatenate(pieces) * amplitude
    samples += _NOISE_FLOOR * rng.standard_normal(samples.size)
    return SynthUtterance(utt_id, AudioClip(samples, id=utt_id), spans)


def _pick_tokens(rng: np.random.Generator, with_wake: bool) -> list[str]:
    others = [w for w in WORDS if w != WAKE_WORD]
    if with_wake:
        tokens = [WAKE_WORD]
        if rng.random() < 0.5:
            tokens.insert(0, others[int(rng.integers(len(others)))])
        if rng.random() < 0.35:
            tokens.append(others[int(rng.integers(len(others)))])
        return tokens
    count = 1 + int(rng.integers(3))
    return [others[int(rng.integers(len(others)))] for _ in range(count)]


def _confidence(rng: np.random.Generator) -> float:
    if rng.random() < 0.15:
        return float(rng.uniform(0.25, 0.6))
    return float(rng.uniform(0.6, 0.98))


def stream_utterances(
    prefix: str, count: int, wake_fraction: float, rng: np.random.Generator
) -> Iterator[SynthUtterance]:
    """Utterances `<prefix>-00000` onwards, each synthesized when asked for."""
    for i in range(count):
        tokens = _pick_tokens(rng, rng.random() < wake_fraction)
        yield make_utterance(f"{prefix}-{i:05d}", tokens, rng)


def generate_utterances(
    prefix: str, count: int, wake_fraction: float, rng: np.random.Generator
) -> list[SynthUtterance]:
    """All of `stream_utterances` at once, for a caller that draws more
    from `rng` before it is done with them."""
    return list(stream_utterances(prefix, count, wake_fraction, rng))


def write_corpus(
    utterances: Iterable[SynthUtterance],
    wav_dir: str | os.PathLike,
    hypotheses_path: str | os.PathLike,
    rng: np.random.Generator,
) -> None:
    """Write each utterance's WAV as it arrives, keeping only its id and
    word spans, then the hypotheses with each `audio_path` relative to the
    hypothesis file's directory. The confidences are drawn from `rng` after
    the last utterance, so `stream_utterances` on the same `rng` writes the
    bytes that `generate_utterances` does."""
    os.makedirs(wav_dir, exist_ok=True)
    hyp_dir = os.path.dirname(os.path.abspath(hypotheses_path))
    kept = []
    for utt in utterances:
        path = os.path.join(os.fspath(wav_dir), f"{utt.utt_id}.wav")
        write_wav(utt.clip, path)
        kept.append((utt.utt_id, os.path.relpath(path, hyp_dir), utt.words))
    with open(hypotheses_path, "w", encoding="utf-8") as fh:
        for utt_id, audio_path, words in kept:
            record = {
                "utt_id": utt_id,
                "audio_path": audio_path,
                "words": [
                    {"w": t, "conf": _confidence(rng), "start": round(s, 6), "end": round(e, 6)}
                    for t, s, e in words
                ],
            }
            fh.write(json.dumps(record) + "\n")


def write_lexicon_files(
    lexicon_path: str | os.PathLike, frequency_path: str | os.PathLike
) -> None:
    write_tsv(lexicon_path, [(word, " ".join(syl)) for word, syl in WORDS.items()])
    write_tsv(frequency_path, [(word, str(count)) for word, count in WORD_COUNTS.items()])


# --- interference and rooms for the demo -------------------------------------


def make_babble(dur_s: float, rng: np.random.Generator) -> AudioClip:
    """Overlapping random syllables; spectrally matched interference."""
    n = int(dur_s * SAMPLE_RATE)
    out = np.zeros(n)
    names = list(SYLLABLES)
    for _ in range(8):
        f0 = rng.uniform(100.0, 250.0)
        wave = _syllable_wave(
            names[int(rng.integers(len(names)))], rng.uniform(0.12, 0.2), f0, rng
        )
        offset = int(rng.integers(0, max(1, n - wave.size)))
        out[offset : offset + wave.size] += wave
    out += 0.05 * rng.standard_normal(n)
    return AudioClip(out / max(1e-9, np.max(np.abs(out))), id="babble")


def make_hum(dur_s: float, rng: np.random.Generator) -> AudioClip:
    """Lowpassed noise, household-appliance flavoured."""
    n = int(dur_s * SAMPLE_RATE)
    white = rng.standard_normal(n)
    out = lfilter([0.04], [1.0, -0.96], white)
    return AudioClip(out / max(1e-9, np.max(np.abs(out))), id="hum")


def make_chords(dur_s: float, rng: np.random.Generator) -> AudioClip:
    """Slowly changing triads as stand-in music."""
    n = int(dur_s * SAMPLE_RATE)
    t = np.arange(n) / SAMPLE_RATE
    out = np.zeros(n)
    segment = int(0.5 * SAMPLE_RATE)
    for lo in range(0, n, segment):
        root = 196.0 * 2.0 ** (int(rng.integers(0, 12)) / 12.0)
        chord = np.zeros(min(segment, n - lo))
        tt = t[lo : lo + chord.size]
        for ratio in (1.0, 1.25, 1.5):
            chord += np.sin(2 * np.pi * root * ratio * tt)
        out[lo : lo + chord.size] = chord
    return AudioClip(out / max(1e-9, np.max(np.abs(out))), id="chords")


def make_noise_pool(count: int, dur_s: float, rng: np.random.Generator) -> list[AudioClip]:
    pool = []
    for i in range(count):
        maker = make_babble if i % 2 == 0 else make_hum
        clip = maker(dur_s, rng)
        pool.append(AudioClip(clip.samples, id=f"noise-{i:03d}"))
    return pool


def make_music_pool(count: int, dur_s: float, rng: np.random.Generator) -> list[AudioClip]:
    return [
        AudioClip(make_chords(dur_s, rng).samples, id=f"music-{i:03d}")
        for i in range(count)
    ]


def make_room_pool(
    count: int,
    rng: np.random.Generator,
    max_order: int = 5,
    beta_min: float = 0.55,
    beta_max: float = 0.8,
) -> list[RoomSpec]:
    """Random shoebox rooms, each with its reflection coefficient drawn
    from [beta_min, beta_max). The defaults are the fixed rooms of the
    demo's test set, which stays the same whatever `rir` says."""
    rooms = []
    for _ in range(count):
        dims = (
            float(rng.uniform(3.0, 7.0)),
            float(rng.uniform(2.5, 6.0)),
            float(rng.uniform(2.4, 3.2)),
        )
        margin = 0.4

        def point():
            return tuple(
                float(rng.uniform(margin, d - margin)) for d in dims
            )

        src = point()
        mic = point()
        while np.allclose(src, mic):
            mic = point()
        rooms.append(
            RoomSpec(
                dimensions=dims,
                source_pos=src,
                mic_pos=mic,
                reflection_coeff=float(rng.uniform(beta_min, beta_max)),
                max_order=max_order,
            )
        )
    return rooms
