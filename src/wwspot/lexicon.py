"""Pronunciation lexicon and the phoneme-distance confusable filter.

Confusable words for a wake word are the vocabulary entries whose
phoneme-level edit distance to the wake word falls in [1, d_max],
optionally restricted to the most frequent words.

The lexicon is held as columns: each word's string once, each phoneme
as a small integer code, and offset and rank vectors. So a word costs
its string, its index entry and a few bytes per phoneme, not a list, a
tuple per pronunciation and a rank-dict entry, and the confusable scan
reads the codes as they are.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass

import numpy as np

from .tsv import DataError, read_tsv, write_tsv


@dataclass
class Lexicon:
    """Every word's pronunciations, as columns of phoneme codes.

    `index` maps each word to its row, rows in order of first
    appearance. Code c spells the phoneme `symbols[c]`. Pronunciation p
    is `codes[pron_first[p]:pron_first[p + 1]]`, and row r's
    pronunciations are `word_first[r]` up to `word_first[r + 1]`, in
    file order. `codes` has the smallest unsigned dtype that holds
    `len(symbols)`, so the symbol count is never a code. `rank[r]` is
    row r's frequency rank with 1 the most frequent and 0 for a word the
    frequency file lacks; `rank` is None when no frequency data was
    supplied.
    """

    index: dict[str, int]
    symbols: tuple[str, ...]
    codes: np.ndarray
    pron_first: np.ndarray
    word_first: np.ndarray
    rank: np.ndarray | None

    def _pron_codes(self, row: int) -> list[np.ndarray]:
        """Row `row`'s pronunciations as views of `codes`, in file order."""
        bounds = self.pron_first[self.word_first[row] : self.word_first[row + 1] + 1].tolist()
        return [self.codes[a:b] for a, b in zip(bounds, bounds[1:])]

    def pronunciations(self, word: str) -> list[tuple[str, ...]]:
        try:
            row = self.index[word.lower()]
        except KeyError:
            raise DataError(f"word {word!r} not in lexicon") from None
        # rebuilt on each call: the lexicon holds codes, not tuples
        symbol = self.symbols.__getitem__
        return [tuple(map(symbol, c.tolist())) for c in self._pron_codes(row)]

    def __eq__(self, other: object) -> bool:
        """The same words in the same rows, the same symbols and equal columns."""
        if not isinstance(other, Lexicon):
            return NotImplemented
        columns = ("codes", "pron_first", "word_first", "rank")
        return (
            self.index == other.index
            and self.symbols == other.symbols
            and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in columns)
        )

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.index

    def __len__(self) -> int:
        return len(self.index)


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


class _Codes(dict):
    """symbol -> code, each new symbol taking the next code."""

    def __missing__(self, symbol: str) -> int:
        self[symbol] = code = len(self)
        return code


def load_lexicon(
    path: str | os.PathLike, frequency_path: str | os.PathLike | None = None
) -> Lexicon:
    """Parse `word<TAB>PH1 PH2 ...` lines; repeated words add alternates,
    and a pronunciation the word already has is dropped.

    The optional frequency file holds `word<TAB>count` lines, one per
    word; ranks are assigned over all its words by descending count with
    lexicographic tie-breaking, and each lexicon word keeps its own.
    """
    index: dict[str, int] = {}
    table = _Codes()
    # per line its word's row and its length, and all lines' codes back to back
    line_row, line_len, line_codes = array("q"), array("q"), array("q")

    def line(word: str, phonemes: str) -> None:
        word, parts = word.strip().lower(), phonemes.split()
        if not word or not parts:
            raise ValueError("empty word or phoneme field")
        line_row.append(index.setdefault(word, len(index)))
        line_len.append(len(parts))
        line_codes.extend(map(table.__getitem__, parts))

    read_tsv(path, (str, str), line)
    if not index:
        raise DataError(f"{path}: empty lexicon")
    rows, lengths, codes = map(np.asarray, (line_row, line_len, line_codes))
    starts = np.cumsum(lengths) - lengths
    # each word's lines together, in file order; only a word on more than
    # one line can repeat a pronunciation
    order = np.argsort(rows, kind="stable")
    lines_per_word = np.bincount(rows)
    first = np.cumsum(lines_per_word) - lines_per_word
    keep = np.ones(order.size, dtype=bool)
    for row in np.flatnonzero(lines_per_word > 1):
        seen = set()
        for k in range(first[row], first[row] + lines_per_word[row]):
            i = order[k]
            spelled = codes[starts[i] : starts[i] + lengths[i]].tobytes()
            keep[k] = spelled not in seen
            seen.add(spelled)
    order = order[keep]
    pron_first = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum(lengths[order], out=pron_first[1:])
    word_first = np.zeros(len(index) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[order]), out=word_first[1:])
    gather = np.repeat(starts[order] - pron_first[:-1], lengths[order])
    gather += np.arange(pron_first[-1])
    codes = codes[gather].astype(np.min_scalar_type(len(table)))

    rank = None
    if frequency_path is not None:
        counts = _word_values(frequency_path, lambda word, count: None)
        rank = np.zeros(len(index), dtype=np.int64)
        for place, word in enumerate(sorted(counts, key=lambda w: (-counts[w], w)), 1):
            row = index.get(word)
            if row is not None:
                rank[row] = place
    return Lexicon(index, tuple(table), codes, pron_first, word_first, rank)


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
    table = _Codes()
    x, y = (np.array([table[p] for p in seq]) for seq in (a, b))
    return int(_distances(x, y[None], np.array([y.size]))[0])


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

    wake_row = lex.index[wake]
    if lex.rank is None:
        scanned = np.ones(len(lex), dtype=bool)
    else:
        scanned = (lex.rank >= 1) & (lex.rank <= top_n_frequent)
    scanned[wake_row] = False
    rows = np.flatnonzero(scanned)
    if not rows.size:
        return ConfusableSet({})
    prons_per_word = np.diff(lex.word_first)
    all_lengths = np.diff(lex.pron_first)
    chosen = np.repeat(scanned, prons_per_word)
    lengths = all_lengths[chosen]
    # padded with the symbol count, never a code; filled row by row, so
    # each chosen pronunciation's codes land in its own row
    padded = np.full((lengths.size, int(lengths.max())), len(lex.symbols), dtype=lex.codes.dtype)
    padded[np.arange(padded.shape[1]) < lengths[:, None]] = lex.codes[
        np.repeat(chosen, all_lengths)
    ]
    per_pron = np.min([_distances(w, padded, lengths) for w in lex._pron_codes(wake_row)], axis=0)
    # each scanned word's pronunciations are contiguous in `padded`
    first = np.cumsum(prons_per_word[rows]) - prons_per_word[rows]
    dist = np.minimum.reduceat(per_pron, first)
    near = (dist >= 1) & (dist <= d_max)
    words = list(lex.index)
    members = {words[r]: d for r, d in zip(rows[near].tolist(), dist[near].tolist())}
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
