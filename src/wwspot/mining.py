"""Confidence-gated example mining from automatic transcripts.

Hypotheses arrive as JSON-lines records carrying word tokens with
confidences and time spans. An utterance becomes a positive example when
it contains the wake word above the positive threshold (anywhere in the
utterance), otherwise a negative when it contains a confusable word
above the negative threshold; each utterance yields at most one example.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .features import HOP_S
from .lexicon import ConfusableSet
from .tsv import DataError, byte_lines, read_tsv, write_tsv

log = logging.getLogger(__name__)

POSITIVE = "positive"
NEGATIVE = "negative"


class MiningError(DataError):
    pass


@dataclass(frozen=True)
class WordHyp:
    token: str
    confidence: float
    start_s: float
    end_s: float


@dataclass
class UtteranceHypothesis:
    utt_id: str
    audio_path: str
    words: list[WordHyp]

    def validate(self) -> None:
        prev_end = 0.0
        for w in self.words:
            if not 0.0 <= w.confidence <= 1.0:
                raise MiningError(f"{self.utt_id}: confidence out of [0, 1]")
            if not -math.inf < w.start_s < w.end_s < math.inf:
                raise MiningError(f"{self.utt_id}: word span is not finite with start < end")
            if w.start_s < prev_end - 1e-9:
                raise MiningError(f"{self.utt_id}: overlapping word spans")
            prev_end = w.end_s


@dataclass(frozen=True)
class MinedExample:
    utt_id: str
    polarity: str
    trigger_word: str
    trigger_span: tuple[float, float]
    confidence: float


def load_hypotheses(path: str | os.PathLike) -> tuple[list[UtteranceHypothesis], int]:
    """Parse a JSONL hypothesis file; malformed records are skipped.

    Each line is an object with utt_id, audio_path, and words, where a
    word is {"w": token, "conf": c, "start": s, "end": e}. A line that is
    not UTF-8, and a utt_id that repeats an earlier record's or holds a
    tab or a line break (it could not be written as one TSV field), also
    count as malformed;
    the first record of an id is kept. Returns the parsed hypotheses and
    the count of skipped records.
    """
    hyps: list[UtteranceHypothesis] = []
    seen: set[str] = set()
    skipped = 0
    for raw in byte_lines(path):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            rec = json.loads(line)
            words = [
                WordHyp(
                    str(w["w"]),
                    float(w["conf"]),
                    float(w["start"]),
                    float(w["end"]),
                )
                for w in rec["words"]
            ]
            hyp = UtteranceHypothesis(str(rec["utt_id"]), str(rec["audio_path"]), words)
            hyp.validate()
        except (KeyError, TypeError, ValueError):  # a JSON or UTF-8 error is a ValueError
            skipped += 1
            continue
        if hyp.utt_id in seen or any(c in hyp.utt_id for c in "\t\n\r"):
            skipped += 1
            continue
        seen.add(hyp.utt_id)
        hyps.append(hyp)
    if skipped:
        log.warning("%s: skipped %d malformed hypothesis records", path, skipped)
    return hyps, skipped


def _best_hit(words: list[WordHyp], wanted, threshold: float) -> WordHyp | None:
    hits = [w for w in words if w.token.lower() in wanted and w.confidence >= threshold]
    if not hits:
        return None
    return min(hits, key=lambda w: (-w.confidence, w.start_s))


def mine_examples(
    hyps,
    wake_word: str,
    confusables: ConfusableSet,
    pos_threshold: float = 0.5,
    neg_threshold: float = 0.5,
) -> list[MinedExample]:
    """One example per qualifying utterance, positives taking precedence.

    The highest-confidence occurrence (earliest on ties) defines the
    trigger span. Threshold comparison is inclusive. Output is sorted by
    utterance id, so merging from concurrent readers is deterministic.
    """
    for name, value in (("pos_threshold", pos_threshold), ("neg_threshold", neg_threshold)):
        if not 0.0 <= value <= 1.0:
            raise MiningError(f"{name} must be in [0, 1], got {value}")
    wake = {wake_word.lower()}
    confusable_words = confusables.words()
    out: list[MinedExample] = []
    for hyp in hyps:
        hit = _best_hit(hyp.words, wake, pos_threshold)
        polarity = POSITIVE
        if hit is None:
            hit = _best_hit(hyp.words, confusable_words, neg_threshold)
            polarity = NEGATIVE
        if hit is None:
            continue
        out.append(
            MinedExample(
                hyp.utt_id,
                polarity,
                hit.token.lower(),
                (hit.start_s, hit.end_s),
                hit.confidence,
            )
        )
    out.sort(key=lambda e: e.utt_id)
    return out


def balance_examples(
    examples: list[MinedExample], target_ratio: float = 1.0, rng_seed: int = 0
) -> list[MinedExample]:
    """Downsample the over-represented polarity to positives:negatives =
    target_ratio (within one example), preserving input order."""
    if target_ratio <= 0:
        raise MiningError("target_ratio must be positive")
    pos_idx = [i for i, e in enumerate(examples) if e.polarity == POSITIVE]
    neg_idx = [i for i, e in enumerate(examples) if e.polarity == NEGATIVE]
    if not pos_idx or not neg_idx:
        raise MiningError("both polarities are required for balancing")
    rng = np.random.default_rng(rng_seed)
    keep: set[int] = set(range(len(examples)))
    n_pos, n_neg = len(pos_idx), len(neg_idx)
    if n_pos > target_ratio * n_neg:
        want = int(round(target_ratio * n_neg))
        drop = rng.choice(len(pos_idx), size=n_pos - want, replace=False)
        keep -= {pos_idx[i] for i in drop}
    elif n_neg > n_pos / target_ratio:
        want = int(round(n_pos / target_ratio))
        drop = rng.choice(len(neg_idx), size=n_neg - want, replace=False)
        keep -= {neg_idx[i] for i in drop}
    return [e for i, e in enumerate(examples) if i in keep]


def make_frame_targets(example: MinedExample, frame_count: int) -> np.ndarray:
    """Frame labels for one utterance: 1 where the frame center (the
    middle of its 10 ms hop slot) falls inside the trigger span of a
    positive example, 0 everywhere else and for negatives."""
    if frame_count < 1:
        raise MiningError("frame_count must be >= 1")
    targets = np.zeros(frame_count, dtype=np.uint8)
    if example.polarity == NEGATIVE:
        return targets
    start, end = example.trigger_span
    if end <= start:
        raise MiningError(f"{example.utt_id}: degenerate trigger span")
    duration = frame_count * HOP_S
    if start < 0 or end > duration + HOP_S:
        raise MiningError(
            f"{example.utt_id}: span ({start:.3f}, {end:.3f}) outside "
            f"{duration:.2f}s of audio"
        )
    centers = (np.arange(frame_count) + 0.5) * HOP_S
    inside = (centers >= start) & (centers < end)
    if not inside.any():
        raise MiningError(f"{example.utt_id}: span covers no frame center")
    targets[inside] = 1
    return targets


def write_mined(examples: list[MinedExample], path: str | os.PathLike) -> None:
    rows = (
        (e.utt_id, e.polarity, e.trigger_word, f"{e.trigger_span[0]:.6f}",
         f"{e.trigger_span[1]:.6f}", f"{e.confidence:.6f}")
        for e in examples
    )
    write_tsv(path, rows, MiningError)


def _mined_example(
    utt_id: str, polarity: str, word: str, start: float, end: float, confidence: float
) -> MinedExample:
    if polarity not in (POSITIVE, NEGATIVE):
        raise ValueError(f"polarity {polarity!r} is not {POSITIVE}|{NEGATIVE}")
    if not -math.inf < start < end < math.inf:
        raise ValueError(f"trigger span ({start}, {end}) is not finite with start < end")
    if not 0.0 <= confidence <= 1.0:
        raise ValueError(f"confidence {confidence} out of [0, 1]")
    return MinedExample(utt_id, polarity, word, (start, end), confidence)


def read_mined(path: str | os.PathLike) -> list[MinedExample]:
    """One example per utterance: a repeated utt_id is an error, since
    its two rows would give the same audio two sets of targets."""
    seen: set[str] = set()

    def row(*fields) -> MinedExample:
        example = _mined_example(*fields)
        if example.utt_id in seen:
            raise ValueError(f"duplicate utt_id {example.utt_id!r}")
        seen.add(example.utt_id)
        return example

    return read_tsv(path, (str, str, str, float, float, float), row, MiningError)
