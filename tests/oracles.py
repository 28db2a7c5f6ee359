"""Independent reference implementations shared by the test modules.

Each oracle recomputes an operation from its definition along a
different code path than the library (recursion instead of iterative DP,
reflection chains instead of closed-form image indices, direct sums
instead of FFTs, whole matrices instead of frame blocks), so agreement
is meaningful.
"""

import json
import math
import resource
import signal
import struct
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from wwspot.audio import SAMPLE_RATE
from wwspot.augment import SPEED_OF_SOUND, RoomSpec
from wwspot.decode import Detection
from wwspot.features import (
    CHUNK_FRAMES,
    CONTEXT_WIDTH,
    FFT_SIZE,
    HOP_SAMPLES,
    LEFT_CONTEXT,
    LOG_FLOOR,
    NUM_MEL_BINS,
    RIGHT_CONTEXT,
    WINDOW_SAMPLES,
    mel_filterbank,
    num_frames,
)
from wwspot.mining import NEGATIVE, POSITIVE, MinedExample
from wwspot.model import (
    INPUT_DIM,
    NUM_BLOCKS,
    FeatureScaler,
    FrameDataset,
    _fold_scaler,
    _forward,
    gradient,
    init_model,
    posteriors,
)
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


def serial_lfbe(clip):
    """The single-threaded block loop: each CHUNK_FRAMES block of windows
    goes through window, |rfft|^2, mel matmul and log on its own. The
    threaded `compute_lfbe` must match it bit for bit."""
    x = clip.samples
    out = np.empty((num_frames(x.size), NUM_MEL_BINS))
    frames = sliding_window_view(x, WINDOW_SAMPLES)[::HOP_SAMPLES]
    hann = np.hanning(WINDOW_SAMPLES)
    fbank = mel_filterbank().T
    for lo in range(0, out.shape[0], CHUNK_FRAMES):
        block = slice(lo, lo + CHUNK_FRAMES)
        spectrum = np.abs(np.fft.rfft(frames[block] * hann, FFT_SIZE, axis=1))
        np.square(spectrum, out=spectrum)
        np.log(spectrum @ fbank + LOG_FLOOR, out=out[block])
    return out


def serial_trace(model, lfbe):
    """The single-threaded block loop of the float32 trace: one reusable
    buffer of stacked inputs per CHUNK_FRAMES block, each block through
    the cache-free forward. The threaded `posterior_trace` must match it
    bit for bit wherever BLAS rounds a row alike in blocks of 64 frames
    and more."""
    n, bins = lfbe.shape
    params = _fold_scaler(model, np.float32)
    trace = np.empty(n)
    buf = np.empty((min(n, CHUNK_FRAMES), CONTEXT_WIDTH * bins), dtype=np.float32)
    for lo in range(0, n, CHUNK_FRAMES):
        hi = min(lo + CHUNK_FRAMES, n)
        rows = buf[: hi - lo]
        span = lfbe[np.clip(np.arange(lo - LEFT_CONTEXT, hi + RIGHT_CONTEXT), 0, n - 1)]
        span = span.astype(np.float32).reshape(-1)
        rows[:] = sliding_window_view(span, CONTEXT_WIDTH * bins)[::bins]
        trace[lo:hi] = _forward(params, rows)[:, 1]
    return trace


def unscaled_model(config, seed=0):
    """A freshly initialized model whose scaler leaves inputs unchanged."""
    identity = FeatureScaler(np.zeros(INPUT_DIM), np.ones(INPUT_DIM))
    return init_model(config, np.random.default_rng(seed), identity)


def handwritten_checkpoint(path, input_dim, bottleneck=4, hidden=8, seed=0):
    """A text checkpoint written out by hand for inputs `input_dim` wide:
    its header, its array list and its arrays all agree on that width, so
    only the width itself can be refused. Every value is drawn from
    [0.5, 1.5), which keeps the scaler's std positive."""
    shapes, fan_in = [], input_dim
    for i in range(1, NUM_BLOCKS + 1):
        shapes += [(f"bottleneck{i}", (fan_in, bottleneck)), (f"weight{i}", (bottleneck, hidden))]
        shapes.append((f"bias{i}", (hidden,)))
        fan_in = hidden
    shapes += [("weight_out", (hidden, 2)), ("bias_out", (2,))]
    shapes += [("scaler_mean", (input_dim,)), ("scaler_std", (input_dim,))]
    meta = {
        "input_dim": input_dim, "bottleneck": bottleneck, "hidden": hidden,
        "num_blocks": NUM_BLOCKS, "num_classes": 2, "nonlinearity": "relu",
        "arrays": [[name, list(shape)] for name, shape in shapes],
    }
    rng = np.random.default_rng(seed)
    lines = ["wwspot-checkpoint v1 text", json.dumps(meta)]
    for _, shape in shapes:
        rows = rng.uniform(0.5, 1.5, shape).reshape(shape[0] if len(shape) == 2 else 1, -1)
        lines += [" ".join(repr(float(v)) for v in row) for row in rows]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def standardize(scaler, x):
    """The scaler's definition: each dimension less its mean, over its std."""
    return (x - scaler.mean) / scaler.std


def clipped_window(n_frames):
    """Frame t of an n-frame utterance gathers t-LEFT_CONTEXT ..
    t+RIGHT_CONTEXT, each frame past an edge replaced by that edge frame:
    an (n_frames, CONTEXT_WIDTH) matrix of frame indices."""
    t = np.arange(n_frames)[:, None]
    return np.clip(t + np.arange(-LEFT_CONTEXT, RIGHT_CONTEXT + 1), 0, n_frames - 1)


def stack_context(feat: np.ndarray) -> np.ndarray:
    """Concatenate frames t-LEFT_CONTEXT .. t+RIGHT_CONTEXT per row;
    edges replicate.

    A (T, B) matrix becomes (T, CONTEXT_WIDTH*B); each source frame's
    bins stay contiguous in the output row.
    """
    feat = np.asarray(feat, dtype=np.float64)
    if feat.ndim != 2 or feat.shape[0] < 1:
        raise DataError("expected a non-empty (frames, bins) matrix")
    return feat[clipped_window(feat.shape[0])].reshape(feat.shape[0], CONTEXT_WIDTH * feat.shape[1])


def dataset_from_vectors(x, targets, is_positive_utt):
    """A FrameDataset whose records are the rows of x, each a one-frame
    utterance, so a record's input is its row repeated CONTEXT_WIDTH
    times."""
    utts = [(row[None, :], [y], pos) for row, y, pos in zip(np.asarray(x), targets, is_positive_utt)]
    return FrameDataset.from_utterances(utts)


class AbsoluteIndexDataset(FrameDataset):
    """A FrameDataset that batches and fits its scaler from the absolute
    int64 frame indices it was given, not from its bounds: a batch is
    the fancy-index take of its records' index rows, and scaler column k
    weights each frame by how often index column k names it."""

    def __init__(self, base, gather, targets, is_positive_utt):
        super().__init__(base, gather, targets, is_positive_utt)
        self.indices = np.array(gather, dtype=np.int64)

    def batch(self, idx, base=None):
        base = self.base if base is None else base
        x = np.take(base, self.indices[idx], axis=0).reshape(len(idx), self.dim)
        return x, self.targets[idx], self.is_positive[idx]

    def fit_scaler(self):
        frames = self.base.shape[0]
        squares = np.square(self.base)
        mean, sq = [], []
        for column in self.indices.T:
            w = np.bincount(column, minlength=frames) / len(self)
            mean.append(w @ self.base)
            sq.append(w @ squares)
        mean, sq = np.concatenate(mean), np.concatenate(sq)
        std = np.sqrt(np.maximum(sq - mean**2, 0.0))
        std[std < 1e-12] = 1.0
        return FeatureScaler(mean, std)


def straight_line_train(dataset, cfg, model_cfg):
    """Shuffled minibatch descent written out over the public `gradient`:
    the fitted scaler and an initialization drawn from the seed's
    generator, then per epoch one permutation and per minibatch the
    float64 gather cast to float32, its gradient, and a float64 step of
    learning_rate / batch size times each gradient. Returns the model
    and the per-epoch mean frame loss."""
    rng = np.random.default_rng(cfg.rng_seed)
    model = init_model(model_cfg, rng, dataset.fit_scaler())
    n = len(dataset)
    log = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.minibatch_size):
            idx = order[lo : lo + cfg.minibatch_size]
            x, y, pos = dataset.batch(idx)
            loss, grads = gradient(model, x.astype(np.float32), y, pos)
            total += loss
            for name, g in grads.items():
                step = (cfg.learning_rate / len(idx)) * g.astype(np.float64)
                model.params[name] = model.params[name] - step
        log.append(total / n)
    return model, log


def merging_detect_peaks(trace, cfg, utt_id=""):
    """Detections by walking the maximal above-threshold runs in order and
    merging each into the region before it when fewer than
    min_gap_frames frames lie between them; the peak is the earliest
    argmax of the merged region."""
    above = np.flatnonzero(trace >= cfg.threshold)
    if above.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(above) > 1)
    starts = above[np.concatenate(([0], breaks + 1))]
    ends = above[np.concatenate((breaks, [above.size - 1]))]
    merged = [[int(starts[0]), int(ends[0])]]
    for s, e in zip(starts[1:], ends[1:]):
        if s - merged[-1][1] - 1 < cfg.min_gap_frames:
            merged[-1][1] = int(e)
        else:
            merged.append([int(s), int(e)])
    detections = []
    for s, e in merged:
        peak = s + int(np.argmax(trace[s : e + 1]))
        detections.append(Detection(utt_id, s, e, peak, float(trace[peak])))
    return detections


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
        gathers.append(clipped_window(n) + offset)
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


def wav_fmt(tag, channels, bits, extensible=False):
    """A `fmt ` body at 16 kHz; extensible names `tag` in its subformat GUID."""
    align = channels * bits // 8
    body = struct.pack(
        "<HHIIHH", 0xFFFE if extensible else tag, channels, 16000, 16000 * align, align, bits
    )
    if extensible:
        guid = struct.pack("<I", tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        body += struct.pack("<HHI", 22, bits, 0) + guid
    return body


def riff(*chunks):
    """A WAV file's bytes from (name, body) chunks, each padded to an even length."""
    body = b"WAVE" + b"".join(
        struct.pack("<4sI", name, len(data)) + data + b"\0" * (len(data) % 2)
        for name, data in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def limit_file_size(nbytes):
    """A subprocess `preexec_fn` capping the child's files at `nbytes`, with
    SIGXFSZ ignored, so a write past the cap fails with EFBIG as on a full disk."""

    def limit():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, nbytes))

    return limit
