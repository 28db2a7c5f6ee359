"""Pronunciation lexicon and the phoneme-distance confusable filter.

Confusable words for a wake word are the vocabulary entries whose
phoneme-level edit distance to the wake word falls in [1, d_max],
optionally restricted to the most frequent words.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .tsv import DataError, read_tsv, write_tsv


@dataclass
class Lexicon:
    """word -> pronunciations (each a tuple of phoneme symbols).

    frequency_rank maps word -> rank with 1 the most frequent; it is
    None when no frequency data was supplied.
    """

    entries: dict[str, list[tuple[str, ...]]]
    frequency_rank: dict[str, int] | None = None

    def pronunciations(self, word: str) -> list[tuple[str, ...]]:
        try:
            return self.entries[word.lower()]
        except KeyError:
            raise DataError(f"word {word!r} not in lexicon") from None

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def _word_values(path: str | os.PathLike, check) -> dict[str, int]:
    """`word<TAB>integer` lines, one per word, the words lower-cased;
    `check(word, value)` raises ValueError on a row it refuses."""
    values: dict[str, int] = {}

    def row(word: str, value: int) -> None:
        word = word.strip().lower()
        check(word, value)
        if word in values:
            raise ValueError(f"duplicate word {word!r}")
        values[word] = value

    read_tsv(path, (str, int), row)
    return values


def load_lexicon(
    path: str | os.PathLike, frequency_path: str | os.PathLike | None = None
) -> Lexicon:
    """Parse `word<TAB>PH1 PH2 ...` lines; repeated words add alternates.

    The optional frequency file holds `word<TAB>count` lines, one per
    word; ranks are assigned by descending count with lexicographic
    tie-breaking.
    """
    # ~10^5 pronunciations spell with a few dozen phoneme symbols, so
    # `symbols` keeps one string per symbol for all of them to share
    symbols: dict[str, str] = {}

    def pronunciation(word: str, phonemes: str) -> tuple[str, tuple[str, ...]]:
        parts = phonemes.split()
        word, phones = word.strip().lower(), tuple(map(symbols.setdefault, parts, parts))
        if not word or not phones:
            raise ValueError("empty word or phoneme field")
        return word, phones

    entries: dict[str, list[tuple[str, ...]]] = {}
    for word, phonemes in read_tsv(path, (str, str), pronunciation):
        prons = entries.setdefault(word, [])
        if phonemes not in prons:
            prons.append(phonemes)
    if not entries:
        raise DataError(f"{path}: empty lexicon")

    ranks = None
    if frequency_path is not None:
        counts = _word_values(frequency_path, lambda word, count: None)
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        # a lexicon word's rank is keyed by its entry's own string, so the
        # frequency file's copy of the word is dropped with `counts`
        keys = {word: word for word in entries}
        ranks = {keys.get(word, word): rank for rank, (word, _) in enumerate(ordered, 1)}
    return Lexicon(entries, ranks)


def _encode_batch(
    seqs: list[tuple[str, ...]], table: dict[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Codes padded with -1 (never a phoneme code) into one matrix, and
    the length of each row."""
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    padded = np.full((len(seqs), int(lengths.max())), -1, dtype=np.int64)
    padded[np.arange(padded.shape[1]) < lengths[:, None]] = [
        table.setdefault(p, len(table)) for seq in seqs for p in seq
    ]
    return padded, lengths


def _distances(wake: np.ndarray, words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Unit-cost edit distance from `wake` to every row of the padded
    `words` batch, one vectorized DP row per word position.

    Row i holds, for every word, the distances from its first i symbols
    to each prefix of `wake`. The in-row dependency
    cur[j] = min(base[j], cur[j-1] + 1) is resolved as a running minimum
    of base[j] - j. A word's distance is read off the row at its own
    length, so the padding beyond it never counts.
    """
    idx = np.arange(wake.size + 1, dtype=np.int64)
    prev = np.tile(idx, (words.shape[0], 1))
    cur = np.empty_like(prev)
    out = np.empty(words.shape[0], dtype=np.int64)
    for i in range(1, words.shape[1] + 1):
        cur[:, 0] = i
        np.minimum(
            prev[:, 1:] + 1, prev[:, :-1] + (words[:, i - 1, None] != wake), out=cur[:, 1:]
        )
        cur[:, 1:] -= idx[1:]
        np.minimum.accumulate(cur, axis=1, out=cur)
        cur += idx
        done = lengths == i
        out[done] = cur[done, -1]
        prev, cur = cur, prev
    return out


def levenshtein(a, b) -> int:
    """Unit-cost edit distance between two phoneme sequences."""
    a = tuple(a)
    b = tuple(b)
    if not a or not b:
        raise DataError("cannot compare empty phoneme sequences")
    table: dict[str, int] = {}
    return int(_distances(_encode_batch([a], table)[0][0], *_encode_batch([b], table))[0])


@dataclass
class ConfusableSet:
    """Words within edit distance [1, d_max] of the wake word, with distances."""

    members: dict[str, int]

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.members

    def __len__(self) -> int:
        return len(self.members)

    def words(self) -> set[str]:
        return set(self.members)


def build_confusable_set(
    lex: Lexicon, wake_word: str, d_max: int, top_n_frequent: int
) -> ConfusableSet:
    """Scan the (frequency-capped) vocabulary for confusable words.

    A word's distance is the minimum over all pronunciation pairs with
    the wake word; the wake word itself and exact homophones (distance
    0) are excluded. Without frequency data every word is considered.
    """
    wake = wake_word.lower()
    if wake not in lex:
        raise DataError(f"wake word {wake_word!r} not in lexicon")

    words = [
        w for w in lex.entries
        if w != wake
        and (
            lex.frequency_rank is None
            or lex.frequency_rank.get(w, top_n_frequent + 1) <= top_n_frequent
        )
    ]
    if not words:
        return ConfusableSet({})
    prons = [p for w in words for p in lex.entries[w]]
    # each word's pronunciations are contiguous in `prons`
    first = np.cumsum([0] + [len(lex.entries[w]) for w in words[:-1]])
    table: dict[str, int] = {}
    wake_codes = [_encode_batch([p], table)[0][0] for p in lex.pronunciations(wake)]
    padded, lengths = _encode_batch(prons, table)
    per_pron = np.min([_distances(w, padded, lengths) for w in wake_codes], axis=0)
    dist = np.minimum.reduceat(per_pron, first)
    keep = np.flatnonzero((dist >= 1) & (dist <= d_max))
    members = {words[k]: int(dist[k]) for k in keep}
    return ConfusableSet(members)


def write_confusables(confusables: ConfusableSet, path: str | os.PathLike) -> None:
    members = confusables.members
    write_tsv(path, ((w, str(members[w])) for w in sorted(members)))


def read_confusables(path: str | os.PathLike, wake_word: str) -> ConfusableSet:
    """Parse `word<TAB>distance` lines, one per word. A row naming the wake
    word is an error: mining would turn its hits below the positive gate
    into negatives."""
    wake = wake_word.lower()

    def check(word: str, distance: int) -> None:
        if distance < 1:
            raise ValueError(f"distance {distance} is below 1")
        if word == wake:
            raise ValueError(f"{word!r} is the wake word")

    return ConfusableSet(_word_values(path, check))
