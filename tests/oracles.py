"""Independent reference implementations shared by the test modules.

Each oracle recomputes an operation from its definition along a
different code path than the library (recursion instead of iterative DP,
reflection chains instead of closed-form image indices, direct sums
instead of FFTs, whole matrices instead of frame blocks), so agreement
is meaningful.
"""

import json
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from wwspot.audio import SAMPLE_RATE
from wwspot.augment import SPEED_OF_SOUND, RoomSpec
from wwspot.features import (
    CONTEXT_WIDTH,
    FFT_SIZE,
    HOP_SAMPLES,
    LEFT_CONTEXT,
    LOG_FLOOR,
    RIGHT_CONTEXT,
    WINDOW_SAMPLES,
    context_indices,
    mel_filterbank,
)
from wwspot.mining import NEGATIVE, POSITIVE, MinedExample
from wwspot.model import NUM_BLOCKS, FeatureScaler, FrameDataset, init_model, posteriors
from wwspot.tsv import DataError, byte_lines


def recursive_distance(a: tuple, b: tuple) -> int:
    """Textbook recursive edit-distance definition (memoized for speed;
    the recurrence itself is untouched)."""

    @cache
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            rec(i - 1, j) + 1,
            rec(i, j - 1) + 1,
            rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
        )

    return rec(len(a), len(b))


def oracle_axis_images(pos, length, max_order):
    """Enumerate 1-D images by simulating the two alternating-wall
    reflection chains instead of the closed-form index formula."""
    out = [(pos, 0)]
    for first_wall in (0.0, length):
        p = pos
        wall = first_wall
        for k in range(1, max_order + 1):
            p = 2 * wall - p
            out.append((p, k))
            wall = length if wall == 0.0 else 0.0
    return out


def oracle_rir_taps(room: RoomSpec) -> np.ndarray:
    """Exhaustive image enumeration with the documented amplitude, delay
    rounding, and tail-energy truncation rules."""
    lx, ly, lz = room.dimensions
    sx, sy, sz = room.source_pos
    mic = room.mic_pos
    taps: dict[int, float] = {}
    for x, cx in oracle_axis_images(sx, lx, room.max_order):
        for y, cy in oracle_axis_images(sy, ly, room.max_order):
            for z, cz in oracle_axis_images(sz, lz, room.max_order):
                d = math.dist((x, y, z), mic)
                if d <= 1e-9:
                    continue
                amp = room.reflection_coeff ** (cx + cy + cz) / (4 * math.pi * d)
                delay = int(d * SAMPLE_RATE / SPEED_OF_SOUND + 0.5)
                taps[delay] = taps.get(delay, 0.0) + amp
    vec = np.zeros(max(taps) + 1)
    for k, v in taps.items():
        vec[k] = v
    energy = vec * vec
    total = energy.sum()
    tail = np.cumsum(energy[::-1])[::-1]
    keep = np.flatnonzero(tail >= 1e-4 * total)
    return vec[: keep[-1] + 1]


def naive_convolve_truncated(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Direct convolution sum, truncated to len(x)."""
    out = np.zeros(x.size)
    for k in range(taps.size):
        if k < x.size:
            out[k:] += taps[k] * x[: x.size - k]
    return out


def pre_activations(model, x):
    """Every block's ReLU input, evaluated straight from the parameters."""
    p = model.params
    out = []
    h = x
    for i in range(1, NUM_BLOCKS + 1):
        a = h @ p[f"bottleneck{i}"] @ p[f"weight{i}"] + p[f"bias{i}"]
        out.append(a)
        h = np.where(a > 0, a, 0.0)
    return out


def kink_free_batch(model, rng, n, dim, margin=5e-3):
    """Frames whose pre-activations stay `margin` away from the ReLU
    kink, so a +-1e-4 parameter step cannot flip an activation pattern
    and a central difference measures the true local derivative."""
    rows = []
    while len(rows) < n:
        x = rng.standard_normal((1, dim))
        if min(np.abs(a).min() for a in pre_activations(model, x)) > margin:
            rows.append(x[0])
    x = np.array(rows)
    y = rng.integers(0, 2, n).astype(np.uint8)
    pos = rng.random(n) < 0.5
    return x, (y & pos).astype(np.uint8), pos


def whole_matrix_lfbe(clip):
    """The LFBE definition applied to every frame at once: an explicit
    (frames, window) gather of the samples, then Hann window, |rfft|^2,
    mel matmul and log over the whole matrix."""
    window, hop = WINDOW_SAMPLES, HOP_SAMPLES
    n = 1 + (clip.samples.size - window) // hop
    frames = clip.samples[np.arange(n)[:, None] * hop + np.arange(window)[None, :]]
    spectrum = np.abs(np.fft.rfft(frames * np.hanning(window), FFT_SIZE, axis=1)) ** 2
    return np.log(spectrum @ mel_filterbank().T + LOG_FLOOR)


def unscaled_model(config, seed=0):
    """A freshly initialized model whose scaler leaves inputs unchanged."""
    identity = FeatureScaler(np.zeros(config.input_dim), np.ones(config.input_dim))
    return init_model(config, np.random.default_rng(seed), identity)


def standardize(scaler, x):
    """The scaler's definition: each dimension less its mean, over its std."""
    return (x - scaler.mean) / scaler.std


def stack_context(feat: np.ndarray) -> np.ndarray:
    """Concatenate frames t-LEFT_CONTEXT .. t+RIGHT_CONTEXT per row;
    edges replicate.

    A (T, B) matrix becomes (T, CONTEXT_WIDTH*B); each source frame's
    bins stay contiguous in the output row.
    """
    feat = np.asarray(feat, dtype=np.float64)
    if feat.ndim != 2 or feat.shape[0] < 1:
        raise DataError("expected a non-empty (frames, bins) matrix")
    idx = context_indices(feat.shape[0])
    return feat[idx].reshape(feat.shape[0], CONTEXT_WIDTH * feat.shape[1])


def dataset_from_vectors(x, targets, is_positive_utt):
    """A FrameDataset whose records are the rows of x, each gathering
    only itself."""
    x = np.asarray(x, dtype=np.float64)
    gather = np.arange(x.shape[0], dtype=np.int64)[:, None]
    return FrameDataset(x, gather, targets, is_positive_utt)


def whole_utterance_trace(model, lfbe):
    """Wake-word posteriors of the whole utterance's stacked inputs,
    scaled and run through the network as one batch."""
    return posteriors(model, stack_context(lfbe))[:, 1]


def concatenated_dataset(utterances):
    """The dataset's base, gather, targets and polarity built the
    concatenating way: per utterance its frames, its int64 context
    indices (frame t gathers t-LEFT_CONTEXT .. t+RIGHT_CONTEXT, clipped
    to the utterance) shifted by the frames before it, its targets and
    its polarity, then one concatenation per array."""
    bases, gathers, targets, polarity = [], [], [], []
    offset = 0
    for lfbe, utt_targets, is_pos in utterances:
        lfbe = np.asarray(lfbe, dtype=np.float64)
        n = lfbe.shape[0]
        bases.append(lfbe)
        window = np.arange(n)[:, None] + np.arange(-LEFT_CONTEXT, RIGHT_CONTEXT + 1)
        gathers.append(np.clip(window, 0, n - 1) + offset)
        targets.append(np.asarray(utt_targets, dtype=np.uint8))
        polarity.append(np.full(n, bool(is_pos)))
        offset += n
    return tuple(np.concatenate(parts) for parts in (bases, gathers, targets, polarity))


@dataclass(frozen=True, slots=True)
class WordHyp:
    token: str
    confidence: float
    start_s: float
    end_s: float


@dataclass(slots=True)
class UtteranceHypothesis:
    utt_id: str
    audio_path: str
    words: list[WordHyp]

    def validate(self) -> None:
        prev_end = 0.0
        for w in self.words:
            if not 0.0 <= w.confidence <= 1.0:
                raise DataError(f"{self.utt_id}: confidence out of [0, 1]")
            if not -math.inf < w.start_s < w.end_s < math.inf:
                raise DataError(f"{self.utt_id}: word span is not finite with start < end")
            if w.start_s < prev_end - 1e-9:
                raise DataError(f"{self.utt_id}: overlapping word spans")
            prev_end = w.end_s


def per_object_hypotheses(path) -> tuple[list[UtteranceHypothesis], int]:
    """The hypothesis file read record by record into one object per word
    and per utterance, each record checked as a whole; returns the kept
    hypotheses and the skipped count."""
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
                WordHyp(str(w["w"]), float(w["conf"]), float(w["start"]), float(w["end"]))
                for w in rec["words"]
            ]
            hyp = UtteranceHypothesis(str(rec["utt_id"]), str(rec["audio_path"]), words)
            hyp.validate()
        except (KeyError, TypeError, ValueError, OverflowError):
            skipped += 1
            continue
        if hyp.utt_id in seen or any(c in hyp.utt_id for c in "\t\n\r"):
            skipped += 1
            continue
        seen.add(hyp.utt_id)
        hyps.append(hyp)
    return hyps, skipped


def _best_hit(words: list[WordHyp], wanted, threshold: float) -> WordHyp | None:
    hits = [w for w in words if w.token.lower() in wanted and w.confidence >= threshold]
    if not hits:
        return None
    return min(hits, key=lambda w: (-w.confidence, w.start_s))


def per_object_mine(hyps, wake_word, confusables, pos_threshold, neg_threshold):
    """Mining utterance by utterance: the best wake-word hit at the
    positive gate, else the best confusable hit at the negative gate,
    best being the highest confidence, then the earliest start, then the
    first word (`min` keeps the first of equal keys); sorted by id."""
    out = []
    for hyp in hyps:
        hit = _best_hit(hyp.words, {wake_word.lower()}, pos_threshold)
        polarity = POSITIVE
        if hit is None:
            hit = _best_hit(hyp.words, confusables.words(), neg_threshold)
            polarity = NEGATIVE
        if hit is not None:
            span = (hit.start_s, hit.end_s)
            out.append(MinedExample(hyp.utt_id, polarity, hit.token.lower(), span, hit.confidence))
    out.sort(key=lambda e: e.utt_id)
    return out
