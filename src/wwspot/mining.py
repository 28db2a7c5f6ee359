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
from array import array
from dataclasses import dataclass

import numpy as np

from .features import HOP_S
from .lexicon import ConfusableSet
from .tsv import DataError, byte_lines, read_tsv, write_tsv

log = logging.getLogger(__name__)

POSITIVE = "positive"
NEGATIVE = "negative"


@dataclass(slots=True)
class Hypotheses:
    """Word hypotheses of many utterances, held as columns. The words of
    utterance `u` are rows `first[u]:first[u + 1]` of `token`, `conf`,
    `start` and `end`; `token` indexes `tokens`, which holds each distinct
    token string once."""

    utt_ids: list[str]
    first: np.ndarray  # int64, one offset per utterance plus one
    tokens: list[str]
    token: np.ndarray  # int32
    conf: np.ndarray  # float64
    start: np.ndarray  # float64, seconds
    end: np.ndarray  # float64, seconds

    def __len__(self) -> int:
        return len(self.utt_ids)


@dataclass(frozen=True, slots=True)
class MinedExample:
    utt_id: str
    polarity: str
    trigger_word: str
    trigger_span: tuple[float, float]
    confidence: float


def _valid_words(words: list[tuple[str, float, float, float]]) -> bool:
    """Confidences in [0, 1], finite spans with start < end, and no span
    starting more than 1e-9 s before the previous one ends (or before 0)."""
    prev_end = 0.0
    for _, conf, start, end in words:
        if not 0.0 <= conf <= 1.0 or not prev_end - 1e-9 <= start < end < math.inf:
            return False
        prev_end = end
    return True


def load_hypotheses(path: str | os.PathLike) -> tuple[Hypotheses, int]:
    """Parse a JSONL hypothesis file; malformed records are skipped.

    Each line is an object with utt_id, audio_path, and words, where a
    word is {"w": token, "conf": c, "start": s, "end": e}. audio_path must
    be present, but nothing reads it. A line that is not UTF-8, and a
    utt_id that repeats an earlier record's or holds a tab or a line
    break (it could not be written as one TSV field), also count as
    malformed; the first record of an id is kept. Returns the parsed
    hypotheses and the count of skipped records.
    """
    utt_ids: list[str] = []
    seen: set[str] = set()
    index: dict[str, int] = {}  # transcripts repeat a vocabulary: one string per token
    first, token = array("q", [0]), array("i")
    conf, start, end = array("d"), array("d"), array("d")
    skipped = 0
    for raw in byte_lines(path):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            rec = json.loads(line)
            words = [
                (str(w["w"]), float(w["conf"]), float(w["start"]), float(w["end"]))
                for w in rec["words"]
            ]
            utt_id = str(rec["utt_id"])
            if "audio_path" not in rec:
                raise KeyError("audio_path")
        # a JSON or UTF-8 error is a ValueError; an integer beyond float range an OverflowError
        except (KeyError, TypeError, ValueError, OverflowError):
            skipped += 1
            continue
        if not _valid_words(words) or utt_id in seen or any(c in utt_id for c in "\t\n\r"):
            skipped += 1
            continue
        seen.add(utt_id)
        utt_ids.append(utt_id)
        for w, c, s, e in words:
            token.append(index.setdefault(w, len(index)))
            conf.append(c)
            start.append(s)
            end.append(e)
        first.append(len(token))
    if skipped:
        log.warning("%s: skipped %d malformed hypothesis records", path, skipped)
    hyps = Hypotheses(
        utt_ids, np.array(first, dtype=np.int64), list(index), np.array(token, dtype=np.int32),
        np.array(conf), np.array(start), np.array(end),
    )
    return hyps, skipped


def mine_examples(
    hyps: Hypotheses,
    wake_word: str,
    confusables: ConfusableSet,
    pos_threshold: float,
    neg_threshold: float,
) -> list[MinedExample]:
    """One example per qualifying utterance, positives taking precedence.

    A word is a positive hit when it is the wake word (in any case) at a
    confidence of at least `pos_threshold`, and a negative hit when it is
    a confusable at least `neg_threshold` in an utterance with no positive
    hit. The highest-confidence hit (the earliest start on ties, then the
    first word) defines the trigger span. Output is sorted by utterance
    id, so merging from concurrent readers is deterministic.
    """
    lowered = [t.lower() for t in hyps.tokens]
    wake = wake_word.lower()
    confusable_words = confusables.words()
    is_wake = np.array([t == wake for t in lowered], dtype=bool)[hyps.token]
    is_confusable = np.array([t in confusable_words for t in lowered], dtype=bool)[hyps.token]
    utt = np.repeat(np.arange(len(hyps)), np.diff(hyps.first))
    positive = is_wake & (hyps.conf >= pos_threshold)
    has_positive = np.zeros(len(hyps), dtype=bool)
    has_positive[utt[positive]] = True
    negative = is_confusable & (hyps.conf >= neg_threshold) & ~has_positive[utt]
    hit = np.flatnonzero(positive | negative)
    hit = hit[np.lexsort((hit, hyps.start[hit], -hyps.conf[hit], utt[hit]))]
    best = hit[np.diff(utt[hit], prepend=-1) != 0]
    out = [
        MinedExample(hyps.utt_ids[u], POSITIVE if is_pos else NEGATIVE, lowered[t], (s, e), c)
        for u, is_pos, t, s, e, c in zip(
            utt[best].tolist(), positive[best].tolist(), hyps.token[best].tolist(),
            hyps.start[best].tolist(), hyps.end[best].tolist(), hyps.conf[best].tolist(),
        )
    ]
    out.sort(key=lambda e: e.utt_id)
    return out


def balance_examples(
    examples: list[MinedExample], target_ratio: float, rng_seed: int
) -> list[MinedExample]:
    """Downsample the over-represented polarity to positives:negatives =
    target_ratio (within one example), preserving input order. A ratio
    that would keep no example of one polarity is an error, as training
    needs both."""
    pos_idx = [i for i, e in enumerate(examples) if e.polarity == POSITIVE]
    neg_idx = [i for i, e in enumerate(examples) if e.polarity == NEGATIVE]
    if not pos_idx or not neg_idx:
        raise DataError("both polarities are required for balancing")
    n_pos, n_neg = len(pos_idx), len(neg_idx)
    if n_pos > target_ratio * n_neg:
        idx, want = pos_idx, int(round(target_ratio * n_neg))
    elif n_neg > n_pos / target_ratio:
        idx, want = neg_idx, int(round(n_pos / target_ratio))
    else:
        return list(examples)
    if want == 0:
        raise DataError(
            f"target_ratio {target_ratio} keeps no {examples[idx[0]].polarity} example "
            f"of {n_pos} positive and {n_neg} negative"
        )
    rng = np.random.default_rng(rng_seed)
    drop = {idx[i] for i in rng.choice(len(idx), size=len(idx) - want, replace=False)}
    return [e for i, e in enumerate(examples) if i not in drop]


def make_frame_targets(example: MinedExample, frame_count: int) -> np.ndarray:
    """Frame labels for one utterance: 1 where the frame center (the
    middle of its 10 ms hop slot) falls inside the trigger span of a
    positive example, 0 everywhere else and for negatives."""
    targets = np.zeros(frame_count, dtype=np.uint8)
    if example.polarity == NEGATIVE:
        return targets
    start, end = example.trigger_span
    if end <= start:
        raise DataError(f"{example.utt_id}: degenerate trigger span")
    duration = frame_count * HOP_S
    if start < 0 or end > duration + HOP_S:
        raise DataError(
            f"{example.utt_id}: span ({start:.3f}, {end:.3f}) outside "
            f"{duration:.2f}s of audio"
        )
    centers = (np.arange(frame_count) + 0.5) * HOP_S
    inside = (centers >= start) & (centers < end)
    if not inside.any():
        raise DataError(f"{example.utt_id}: span covers no frame center")
    targets[inside] = 1
    return targets


def write_mined(examples: list[MinedExample], path: str | os.PathLike) -> None:
    rows = (
        (e.utt_id, e.polarity, e.trigger_word, f"{e.trigger_span[0]:.6f}",
         f"{e.trigger_span[1]:.6f}", f"{e.confidence:.6f}")
        for e in examples
    )
    write_tsv(path, rows)


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

    return read_tsv(path, (str, str, str, float, float, float), row)
