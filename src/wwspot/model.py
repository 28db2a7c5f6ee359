"""The compact feed-forward spotter and its trainer.

The network maps a 620-dimensional stacked-LFBE vector through three
blocks of (linear bottleneck -> affine -> ReLU) to a 2-way softmax whose
second component is the wake-word posterior. That shape is fixed
(NUM_BLOCKS, NUM_CLASSES); only the input and layer widths vary. The
loss is frame-level cross entropy in which the positive term is gated
by the polarity of the source utterance, so frames from negative
utterances can only ever contribute background evidence. Training is
shuffled minibatch descent on the analytic gradient, whose one forward
pass per step also gives the loss; it is deterministic under a fixed
seed. Parameters and checkpoints are float64, and so is `posteriors`;
a checkpoint is one text file of %.17g decimals. Training steps and the
decoder's posterior trace compute in float32 over the float64
parameters. A training step gathers its batch from one float32 copy of
the frames, standardizes it into one float32 buffer, casts the
parameters once per step and computes the softmax and the loss in
float64. Inference folds the feature scaler into the first bottleneck
instead, once per call or recording, so it never standardizes a copy
of its input. Both go through one forward body, which adds each bias
and applies each ReLU in place: the gradient asks it to keep each
block's activations for backprop, while inference keeps none, so
decoding a block of frames holds only the activations of the layer
being computed.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass

import numpy as np

from .features import CONTEXT_WIDTH, NUM_MEL_BINS, context_indices
from .tsv import DataError, open_input

Q_CLAMP = 1e-7
NUM_BLOCKS = 3
NUM_CLASSES = 2
CHECKPOINT_MAGIC = "wwspot-checkpoint"
CHECKPOINT_VERSION = "v1"
CHECKPOINT_MODE = "text"
# header fields that every checkpoint records and the loader holds to these values
FIXED_HEADER = {"num_blocks": NUM_BLOCKS, "num_classes": NUM_CLASSES, "nonlinearity": "relu"}
# FrameDataset's int32 context indices address frames 0 .. MAX_FRAMES - 1
MAX_FRAMES = 2**31


def _all_finite(a: np.ndarray) -> bool:
    # min and max propagate NaN, so both are finite exactly when every
    # entry is; np.isfinite(a).all() would allocate a mask the size of a
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class SpotterConfig:
    input_dim: int = CONTEXT_WIDTH * NUM_MEL_BINS
    bottleneck: int = 87
    hidden: int = 400

    def __post_init__(self):
        for name in ("input_dim", "bottleneck", "hidden"):
            value = getattr(self, name)
            # bool is an int subclass; a float size would fail deep in the loader
            if isinstance(value, bool) or not isinstance(value, int):
                raise DataError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise DataError(f"{name} must be >= 1")

    def array_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """Parameter names and shapes in canonical (checkpoint) order."""
        shapes: list[tuple[str, tuple[int, ...]]] = []
        in_dim = self.input_dim
        for i in range(1, NUM_BLOCKS + 1):
            shapes.append((f"bottleneck{i}", (in_dim, self.bottleneck)))
            shapes.append((f"weight{i}", (self.bottleneck, self.hidden)))
            shapes.append((f"bias{i}", (self.hidden,)))
            in_dim = self.hidden
        shapes.append(("weight_out", (self.hidden, NUM_CLASSES)))
        shapes.append(("bias_out", (NUM_CLASSES,)))
        return shapes


@dataclass
class FeatureScaler:
    """Per-dimension standardization fitted on the training features."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise DataError("scaler mean/std must be matching vectors")
        if not np.all(self.std > 0):
            raise DataError("scaler std entries must be positive")


@dataclass
class SpotterModel:
    config: SpotterConfig
    params: dict[str, np.ndarray]
    scaler: FeatureScaler

    def __post_init__(self):
        for name, shape in self.config.array_shapes():
            if name not in self.params:
                raise DataError(f"missing parameter {name}")
            if self.params[name].shape != shape:
                raise DataError(
                    f"parameter {name} has shape {self.params[name].shape}, "
                    f"expected {shape}"
                )
        if self.scaler.mean.size != self.config.input_dim:
            raise DataError("scaler dimension does not match input_dim")


def init_model(
    config: SpotterConfig, rng: np.random.Generator, scaler: FeatureScaler
) -> SpotterModel:
    """Scaled-uniform fan-in initialization; biases start at zero."""
    params: dict[str, np.ndarray] = {}
    for name, shape in config.array_shapes():
        if name.startswith("bias"):
            params[name] = np.zeros(shape, dtype=np.float64)
        else:
            bound = 1.0 / np.sqrt(shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape)
    return SpotterModel(config, params, scaler)


def _forward(
    params: dict[str, np.ndarray], x: np.ndarray, cache: dict | None = None
) -> np.ndarray:
    """The network's one forward body: float64 class posteriors of x,
    computed in the dtype of x and `params` up to the logits. Given a
    cache ({"h": [x], "z": []}), it appends each block's output h and
    bottleneck output z for backprop; without one, each block's
    activations are dropped once the next block has read them."""
    # non-finite intermediates can only come from diverged parameters;
    # the trainer's loss guard reports those, so silence the warnings
    p = params
    h = x
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, NUM_BLOCKS + 1):
            z = h @ p[f"bottleneck{i}"]
            h = z @ p[f"weight{i}"]
            h += p[f"bias{i}"]
            np.maximum(h, 0.0, out=h)
            if cache is not None:
                cache["z"].append(z)
                cache["h"].append(h)
        logits = (h @ p["weight_out"] + p["bias_out"]).astype(np.float64, copy=False)
        shifted = logits - logits.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        return expd / expd.sum(axis=1, keepdims=True)


def _check_input_dim(model: SpotterModel, dim: int) -> None:
    if dim != model.config.input_dim:
        raise DataError(f"input dim {dim} does not match model {model.config.input_dim}")


def _fold_scaler(model: SpotterModel, dtype) -> dict[str, np.ndarray]:
    """The model's parameters in `dtype`, with the scaler folded into the
    first block so that they take raw stacked features:
    ((x - mean) / std) @ B1 = x @ (B1 / std) - c with c = (mean / std) @ B1,
    and c goes into bias1 as b1 - c @ W1."""
    mean, std = model.scaler.mean, model.scaler.std
    p = dict(model.params)
    # diverged parameters overflow the cast; the trainer's loss guard reports them
    with np.errstate(over="ignore", invalid="ignore"):
        c = (mean / std) @ p["bottleneck1"]
        p["bias1"] = p["bias1"] - c @ p["weight1"]
        p["bottleneck1"] = p["bottleneck1"] / std[:, None]
        return {name: a.astype(dtype, copy=False) for name, a in p.items()}


def posteriors(model: SpotterModel, raw_x: np.ndarray) -> np.ndarray:
    """Forward pass on raw stacked features. The stored scaler is folded
    into the first bottleneck, so no standardized copy of raw_x is made."""
    x = np.atleast_2d(np.asarray(raw_x, dtype=np.float64))
    _check_input_dim(model, x.shape[1])
    p = _fold_scaler(model, np.float64)
    return _forward(p, x)


def ssl_loss(q_ww: np.ndarray, targets: np.ndarray, is_positive_utt: np.ndarray) -> float:
    """Summed frame loss.

    Per frame with effective target ye = y AND (utterance is positive):
    -(ye * log q + (1 - ye) * log(1 - q)), with q clamped away from 0/1.
    Gating y by polarity makes the loss invariant to target values on
    frames of negative utterances.
    """
    q = np.clip(np.asarray(q_ww, dtype=np.float64), Q_CLAMP, 1.0 - Q_CLAMP)
    y_eff = np.asarray(targets, dtype=np.float64) * np.asarray(
        is_positive_utt, dtype=np.float64
    )
    per_frame = -(y_eff * np.log(q) + (1.0 - y_eff) * np.log1p(-q))
    return float(per_frame.sum())


def gradient(
    model: SpotterModel,
    x: np.ndarray,
    targets: np.ndarray,
    is_positive_utt: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Summed frame loss (`ssl_loss` of the posteriors) and its analytic
    gradient for every weight and bias, both from one forward pass.

    `x` holds raw stacked features, as for `posteriors`. The compute
    dtype follows x: float32 x is computed in float32 and anything else
    in float64. x is standardized by the model's scaler into one fresh
    buffer in that dtype, and the parameters are cast to it, so the
    backward pass yields the gradients of the model's own parameters.
    The posteriors, the loss and the logit gradient are float64 either
    way; the gradients come back in the compute dtype."""
    x = np.atleast_2d(np.asarray(x))
    dtype = np.float32 if x.dtype == np.float32 else np.float64
    xs = np.subtract(x, model.scaler.mean.astype(dtype, copy=False), dtype=dtype)
    xs /= model.scaler.std.astype(dtype, copy=False)
    # diverged parameters overflow the cast; the trainer's loss guard reports them
    with np.errstate(over="ignore"):
        p = {name: a.astype(dtype, copy=False) for name, a in model.params.items()}
    cache = {"h": [xs], "z": []}
    probs = _forward(p, xs, cache)
    q = probs[:, 1]
    loss = ssl_loss(q, targets, is_positive_utt)
    y_eff = np.asarray(targets, dtype=np.float64) * np.asarray(
        is_positive_utt, dtype=np.float64
    )
    qc = np.clip(q, Q_CLAMP, 1.0 - Q_CLAMP)
    active = (q > Q_CLAMP) & (q < 1.0 - Q_CLAMP)
    dq = (-y_eff / qc + (1.0 - y_eff) / (1.0 - qc)) * active
    dlogit1 = dq * q * (1.0 - q)
    dlogits = np.stack([-dlogit1, dlogit1], axis=1).astype(dtype, copy=False)

    grads: dict[str, np.ndarray] = {}
    h_last = cache["h"][-1]
    grads["weight_out"] = h_last.T @ dlogits
    grads["bias_out"] = dlogits.sum(axis=0)
    dh = dlogits @ p["weight_out"].T
    for i in range(NUM_BLOCKS, 0, -1):
        # h = max(a, 0), so h > 0 is exactly the ReLU mask a > 0
        da = np.multiply(dh, cache["h"][i] > 0, out=dh)
        grads[f"weight{i}"] = cache["z"][i - 1].T @ da
        grads[f"bias{i}"] = da.sum(axis=0)
        dz = da @ p[f"weight{i}"].T
        grads[f"bottleneck{i}"] = cache["h"][i - 1].T @ dz
        if i > 1:  # nothing reads the gradient of the input itself
            dh = dz @ p[f"bottleneck{i}"].T
    return loss, grads


# --- training -----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    minibatch_size: int
    epochs: int
    rng_seed: int

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be positive")
        if self.minibatch_size < 1:
            raise DataError("minibatch_size must be >= 1")
        if self.epochs < 0:
            raise DataError("epochs must be >= 0")


class FrameDataset:
    """Frame-level training records with lazy context stacking.

    Rows of `base` are single feature frames; `gather` holds, per training
    record, the int32 indices of the frames that concatenate into its
    input vector, so 620-dimensional vectors never need to be
    materialized for the whole dataset at once. `build` makes
    one record per frame, so a record costs one float64 frame plus
    CONTEXT_WIDTH int32 indices; `base` holds fewer than MAX_FRAMES frames.
    """

    def __init__(
        self,
        base: np.ndarray,
        gather: np.ndarray,
        targets: np.ndarray,
        is_positive_utt: np.ndarray,
    ):
        self.base = np.asarray(base, dtype=np.float64)
        gather = np.asarray(gather)
        self.targets = np.asarray(targets, dtype=np.uint8)
        self.is_positive = np.asarray(is_positive_utt, dtype=bool)
        if self.base.ndim != 2:
            raise DataError(f"base must be a (frames, bins) matrix, got shape {self.base.shape}")
        if gather.ndim != 2 or gather.shape[1] < 1 or not np.issubdtype(gather.dtype, np.integer):
            raise DataError(
                "gather must be a 2-D integer matrix with at least one column, "
                f"got {gather.dtype} of shape {gather.shape}"
            )
        n = gather.shape[0]
        if not (self.targets.shape == self.is_positive.shape == (n,)):
            raise DataError("dataset arrays disagree on the record count")
        if n == 0:
            raise DataError("dataset is empty")
        frames = self.base.shape[0]
        if frames >= MAX_FRAMES:
            raise DataError(
                f"dataset has {frames} frames; int32 indices address fewer than {MAX_FRAMES}"
            )
        # checked before the cast, which would wrap an index of 2**31 or more
        if gather.min() < 0 or gather.max() >= frames:
            raise DataError(f"gather indices must lie in [0, {frames})")
        self.gather = gather.astype(np.int32, copy=False)
        if not _all_finite(self.base):
            raise DataError("dataset contains non-finite feature values")
        self.dim = self.gather.shape[1] * self.base.shape[1]

    def __len__(self) -> int:
        return self.gather.shape[0]

    @classmethod
    def from_utterances(cls, utterances) -> "FrameDataset":
        """Build from (lfbe_matrix, frame_targets, is_positive) triples
        through `build`, each triple's matrix copied into its rows."""
        utterances = list(utterances)
        if not utterances:
            raise DataError("dataset is empty")
        shapes = [np.shape(lfbe) for lfbe, _, _ in utterances]
        for i, (shape, (_, utt_targets, _)) in enumerate(zip(shapes, utterances)):
            if len(shape) != 2:
                raise DataError(
                    f"utterance {i}: features must be a (frames, bins) matrix, got shape {shape}"
                )
            if shape[1] != shapes[0][1]:
                raise DataError(
                    f"utterance {i}: {shape[1]} bins per frame, utterance 0 has {shapes[0][1]}"
                )
            if shape[0] != len(utt_targets):
                raise DataError("frame targets do not match the feature length")

        def copy(i, rows):
            lfbe, utt_targets, is_pos = utterances[i]
            rows[:] = lfbe
            return utt_targets, is_pos

        return cls.build([n for n, _ in shapes], shapes[0][1], copy)

    @classmethod
    def build(cls, lengths: list[int], bins: int, fill) -> "FrameDataset":
        """The one build: utterance i has lengths[i] frames of `bins` bins,
        and `fill(i, rows)` writes its frames into `rows`, its slice of
        `base`, and returns its frame targets and polarity. The arrays are
        allocated once at their final size (286 B per 20-bin frame) and
        filled one utterance at a time, so no second copy of the dataset
        is ever held; context windows never cross utterance boundaries."""
        frames = sum(lengths)
        base = np.empty((frames, bins))
        gather = np.empty((frames, CONTEXT_WIDTH), dtype=np.int32)
        targets = np.empty(frames, dtype=np.uint8)
        is_positive = np.empty(frames, dtype=bool)
        lo = 0
        for i, n in enumerate(lengths):
            rows = slice(lo, lo + n)
            targets[rows], is_positive[rows] = fill(i, base[rows])
            gather[rows] = context_indices(n)
            gather[rows] += lo
            lo += n
        return cls(base, gather, targets, is_positive)

    def batch(
        self, idx: np.ndarray, base: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked inputs, targets and polarity of the records idx. The
        inputs are gathered from `base`, a copy of self.base in another
        dtype, when one is given."""
        base = self.base if base is None else base
        x = np.take(base, self.gather[idx], axis=0).reshape(len(idx), self.dim)
        return x, self.targets[idx], self.is_positive[idx]

    def effective_targets(self) -> np.ndarray:
        return (self.targets.astype(bool) & self.is_positive).astype(np.uint8)

    def fit_scaler(self) -> FeatureScaler:
        """Per-dimension mean/std over the stacked vectors. Context column
        k averages the frames it gathers, so it is the frames weighted by
        how often column k gathers each of them; no column is materialized.
        Constant dimensions get std 1 so standardization stays defined."""
        n, width = self.gather.shape
        frames = self.base.shape[0]
        squares = np.square(self.base)
        mean, sq = [], []
        for k in range(width):
            w = np.bincount(self.gather[:, k], minlength=frames) / n
            mean.append(w @ self.base)
            sq.append(w @ squares)
        mean, sq = np.concatenate(mean), np.concatenate(sq)
        var = np.maximum(sq - mean**2, 0.0)
        std = np.sqrt(var)
        std[std < 1e-12] = 1.0
        return FeatureScaler(mean, std)


def train(
    dataset: FrameDataset, cfg: TrainConfig, model_cfg: SpotterConfig
) -> tuple[SpotterModel, list[float]]:
    """Fit the scaler, initialize, and run shuffled minibatch descent.

    Returns the trained model and the per-epoch mean frame loss. Raises
    TrainingDiverged as soon as a non-finite loss shows up.
    """
    y_eff = dataset.effective_targets()
    if y_eff.min() == y_eff.max():
        raise DataError("training data has a single target class")

    rng = np.random.default_rng(cfg.rng_seed)
    model = init_model(model_cfg, rng, dataset.fit_scaler())
    n = len(dataset)
    # one float32 copy of the frames, so each step gathers its batch once
    base32 = dataset.base.astype(np.float32)
    log: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, cfg.minibatch_size):
            idx = order[lo : lo + cfg.minibatch_size]
            x, y, pos = dataset.batch(idx, base32)
            loss, grads = gradient(model, x, y, pos)
            if not np.isfinite(loss):
                raise TrainingDiverged("loss became non-finite; lower the learning rate")
            epoch_loss += loss
            scale = cfg.learning_rate / len(idx)
            for name, g in grads.items():
                # in float64, like the parameters it updates: a float32 step
                # would round the update and overflow (with a warning) on a diverging run
                model.params[name] -= np.multiply(scale, g, dtype=np.float64)
        log.append(epoch_loss / n)
    return model, log


# --- checkpoints ---------------------------------------------------------------


def save_model(model: SpotterModel, path: str | os.PathLike) -> None:
    """Single self-describing checkpoint file: a magic line, a JSON header
    with the layer sizes, the fixed shape and the array list, then every
    array as rows of %.17g decimals (lossless for float64 and
    byte-reproducible)."""
    c = model.config
    arrays = [(name, model.params[name]) for name, _ in c.array_shapes()]
    arrays.append(("scaler_mean", model.scaler.mean))
    arrays.append(("scaler_std", model.scaler.std))
    meta = {
        "input_dim": c.input_dim,
        "bottleneck": c.bottleneck,
        "hidden": c.hidden,
        **FIXED_HEADER,
        "arrays": [[name, list(a.shape)] for name, a in arrays],
    }
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION} {CHECKPOINT_MODE}\n".encode("ascii"))
        fh.write((json.dumps(meta, sort_keys=True) + "\n").encode("ascii"))
        for _, a in arrays:
            rows = np.atleast_2d(a)
            text = "\n".join(" ".join(f"{v:.17g}" for v in row) for row in rows)
            fh.write((text + "\n").encode("ascii"))


def _read_text_array(
    fh: io.BufferedReader, shape: tuple[int, ...], path: str | os.PathLike
) -> np.ndarray:
    # reads line by line, so a header naming more rows than the file holds
    # ends at end of file instead of allocating them
    rows = shape[0] if len(shape) == 2 else 1
    values = []
    for _ in range(rows):
        line = fh.readline()
        if not line:
            raise DataError(f"{path}: truncated checkpoint")
        try:
            values.append(np.asarray(line.split(), dtype=np.float64))
        except ValueError:
            raise DataError(f"{path}: non-numeric value in checkpoint") from None
    out = np.concatenate(values)
    if out.size != int(np.prod(shape)):
        raise DataError(f"{path}: truncated checkpoint")
    return out.reshape(shape)


def load_model(path: str | os.PathLike) -> SpotterModel:
    with open_input(path) as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if len(header) != 3 or header[0] != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a spotter checkpoint")
        if header[1] != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {header[1]}")
        if header[2] != CHECKPOINT_MODE:
            raise DataError(f"{path}: unknown checkpoint mode {header[2]!r}")
        try:
            meta = json.loads(fh.readline().decode("ascii"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: corrupt checkpoint header") from exc
        try:
            config = SpotterConfig(
                input_dim=meta["input_dim"],
                bottleneck=meta["bottleneck"],
                hidden=meta["hidden"],
            )
            for key, value in FIXED_HEADER.items():
                # by type as well, since True == 1 and 3.0 == 3
                if type(meta[key]) is not type(value) or meta[key] != value:
                    raise DataError(f"unsupported {key} {meta[key]!r}")
            listed = [(name, tuple(shape)) for name, shape in meta["arrays"]]
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: corrupt checkpoint header") from exc
        expected = config.array_shapes() + [
            ("scaler_mean", (config.input_dim,)),
            ("scaler_std", (config.input_dim,)),
        ]
        if listed != expected:
            raise DataError(f"{path}: checkpoint arrays do not match its shape header")
        loaded: dict[str, np.ndarray] = {}
        for name, shape in expected:
            loaded[name] = _read_text_array(fh, shape, path)
            if not np.isfinite(loaded[name]).all():
                raise DataError(f"{path}: non-finite values in {name}")
    scaler = FeatureScaler(loaded.pop("scaler_mean"), loaded.pop("scaler_std"))
    return SpotterModel(config, loaded, scaler)
