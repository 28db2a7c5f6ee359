import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import (
    concatenated_dataset,
    dataset_from_vectors,
    kink_free_batch,
    pre_activations,
    standardize,
    unscaled_model,
)

import wwspot.model
from wwspot.features import CONTEXT_WIDTH, LEFT_CONTEXT, NUM_MEL_BINS, RIGHT_CONTEXT
from wwspot.model import (
    NUM_BLOCKS,
    FeatureScaler,
    FrameDataset,
    SpotterConfig,
    SpotterModel,
    TrainConfig,
    TrainingDiverged,
    gradient,
    init_model,
    load_model,
    posteriors,
    save_model,
    ssl_loss,
    train,
)
from wwspot.tsv import DataError

TINY = SpotterConfig(input_dim=10, bottleneck=4, hidden=8)


def tiny_model(seed=0, config=TINY):
    return unscaled_model(config, seed)


def random_batch(rng, n, dim):
    x = rng.standard_normal((n, dim))
    y = rng.integers(0, 2, n).astype(np.uint8)
    pos = rng.random(n) < 0.5
    y = (y & pos).astype(np.uint8)  # valid data: y=1 only on positive utts
    return x, y, pos


# --- forward -------------------------------------------------------------------


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    model = tiny_model()
    probs = posteriors(model, rng.standard_normal((50, 10)) * 3)
    assert np.all(probs > 0)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-6


def test_zero_weights_give_uniform_posteriors():
    model = tiny_model()
    for name in model.params:
        model.params[name][:] = 0.0
    probs = posteriors(model, np.random.default_rng(1).standard_normal((7, 10)))
    assert np.allclose(probs, 0.5)


def test_forward_matches_straight_line_recomputation():
    # independent by-hand evaluation of the block structure
    rng = np.random.default_rng(2)
    model = tiny_model(seed=3)
    x = rng.standard_normal((5, 10))
    p = model.params
    h = x
    for i in (1, 2, 3):
        z = h @ p[f"bottleneck{i}"]
        a = z @ p[f"weight{i}"] + p[f"bias{i}"]
        h = np.where(a > 0, a, 0.0)
    logits = h @ p["weight_out"] + p["bias_out"]
    expected = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    assert np.max(np.abs(posteriors(model, x) - expected)) <= 1e-6


def test_forward_equals_the_cached_pass_inside_gradient(monkeypatch):
    rng = np.random.default_rng(12)
    model = tiny_model(5)
    x, y, pos = random_batch(rng, 40, 10)
    x *= 3.0
    passes = []
    forward_body = wwspot.model._forward

    def recording(params, x, cache=None):
        probs = forward_body(params, x, cache)
        passes.append((cache, probs))
        return probs

    monkeypatch.setattr(wwspot.model, "_forward", recording)
    gradient(model, x, y, pos)
    [(cache, cached_probs)] = passes
    assert np.array_equal(posteriors(model, x), cached_probs)
    assert passes[1][0] is None  # inference keeps no activations
    # the cache holds the standardized input (the identity scaler's is x
    # itself), then each block's ReLU output and bottleneck output, as
    # recomputed from the parameters
    assert np.array_equal(cache["h"][0], standardize(model.scaler, x))
    assert len(cache["h"]) == len(cache["z"]) + 1 == NUM_BLOCKS + 1
    for i, a in enumerate(pre_activations(model, x), start=1):
        assert np.allclose(cache["h"][i], np.maximum(a, 0.0), rtol=0, atol=1e-12)
        assert np.array_equal(cache["z"][i - 1], cache["h"][i - 1] @ model.params[f"bottleneck{i}"])


def test_forward_shape_mismatch():
    with pytest.raises(DataError, match="input dim"):
        posteriors(tiny_model(), np.zeros((3, 11)))


def test_posteriors_applies_scaler():
    # per-dimension statistics, so a fold that mixed up dimensions shows
    rng = np.random.default_rng(4)
    model = tiny_model()
    mean, std = rng.standard_normal(10) * 5.0, rng.uniform(0.5, 3.0, 10)
    model.scaler = FeatureScaler(mean, std)
    raw = rng.standard_normal((6, 10)) * std + mean
    np.testing.assert_allclose(
        posteriors(model, raw), posteriors(tiny_model(), standardize(model.scaler, raw)),
        rtol=0, atol=1e-12,
    )


# --- loss ----------------------------------------------------------------------


def test_loss_perfect_positive_is_zero():
    total = ssl_loss(np.array([1.0]), np.array([1]), np.array([True]))
    assert total == pytest.approx(0.0, abs=1e-6)


def test_loss_half_posterior_background_is_log2():
    total = ssl_loss(np.full(10, 0.5), np.zeros(10), np.zeros(10, bool))
    assert total == pytest.approx(10 * math.log(2), rel=1e-12)


def test_loss_matches_scalar_loop_oracle():
    rng = np.random.default_rng(5)
    q = rng.uniform(0.01, 0.99, 200)
    y = rng.integers(0, 2, 200)
    pos = rng.random(200) < 0.5
    y = y & pos  # valid targets
    expected = 0.0
    for i in range(200):
        if pos[i] and y[i]:
            expected += math.log(1.0 / q[i])
        if not y[i]:
            expected += math.log(1.0 / (1.0 - q[i]))
    assert ssl_loss(q, y, pos) == pytest.approx(expected, rel=1e-12)


def test_loss_invariant_to_targets_on_negative_utterances():
    rng = np.random.default_rng(6)
    q = rng.uniform(0.05, 0.95, 100)
    pos = rng.random(100) < 0.4
    y = (rng.integers(0, 2, 100) & pos).astype(np.uint8)
    base = ssl_loss(q, y, pos)
    flipped = y.copy()
    flipped[~pos] = 1  # corrupt targets of negative-utterance frames
    after = ssl_loss(q, flipped, pos)
    assert after == pytest.approx(base, rel=1e-12)


# --- gradients -------------------------------------------------------------------


def loss_of(model, x, y, pos):
    probs, = (posteriors(model, x),)
    return ssl_loss(probs[:, 1], y, pos)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_central_finite_differences(seed):
    rng = np.random.default_rng(seed)
    model = tiny_model(seed=seed + 10)
    x, y, pos = kink_free_batch(model, rng, 12, 10)
    loss, grads = gradient(model, x, y, pos)
    assert loss == ssl_loss(posteriors(model, x)[:, 1], y, pos)
    h = 1e-4
    for name, g in grads.items():
        param = model.params[name]
        flat_g = g.reshape(-1)
        flat_p = param.reshape(-1)
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + h
            up = loss_of(model, x, y, pos)
            flat_p[j] = orig - h
            down = loss_of(model, x, y, pos)
            flat_p[j] = orig
            fd = (up - down) / (2 * h)
            err = abs(flat_g[j] - fd)
            assert err <= 1e-4 * max(abs(flat_g[j]), abs(fd)) + 1e-7, (
                f"{name}[{j}]: analytic {flat_g[j]} vs fd {fd}"
            )


def test_negative_utterance_positive_targets_contribute_nothing():
    rng = np.random.default_rng(9)
    model = tiny_model(seed=4)
    x = rng.standard_normal((8, 10))
    pos = np.zeros(8, bool)
    _, g_zero = gradient(model, x, np.zeros(8, np.uint8), pos)
    _, g_one = gradient(model, x, np.ones(8, np.uint8), pos)
    for name in g_zero:
        assert np.array_equal(g_zero[name], g_one[name])


def test_gradient_step_decreases_loss():
    rng = np.random.default_rng(11)
    model = tiny_model(seed=5)
    x, y, pos = random_batch(rng, 32, 10)
    before = loss_of(model, x, y, pos)
    _, grads = gradient(model, x, y, pos)
    for name, g in grads.items():
        model.params[name] -= 1e-3 * g
    assert loss_of(model, x, y, pos) < before


def scaled_pair(seed):
    # one network twice: with a non-trivial scaler and with the identity,
    # plus raw frames and their standardized copy
    rng = np.random.default_rng(seed)
    scaled = tiny_model(seed=seed + 20)
    scaled.scaler = FeatureScaler(rng.normal(3.0, 2.0, 10), rng.uniform(0.5, 3.0, 10))
    plain = tiny_model(seed=seed + 20)
    x, y, pos = random_batch(rng, 64, 10)
    raw = x * scaled.scaler.std + scaled.scaler.mean
    return scaled, plain, raw, standardize(scaled.scaler, raw), y, pos


@pytest.mark.parametrize("seed", [0, 1])
def test_gradient_of_raw_input_equals_the_identity_model_on_standardized_input(seed):
    scaled, plain, raw, standardized, y, pos = scaled_pair(seed)
    loss, grads = gradient(scaled, raw, y, pos)
    ref_loss, ref_grads = gradient(plain, standardized, y, pos)
    assert loss == pytest.approx(ref_loss, rel=1e-10)
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        ref = ref_grads[name]
        assert np.allclose(g, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max()), name


def assert_float32_gradient_agrees_with_float64(model, raw, y, pos):
    loss64, grads64 = gradient(model, raw, y, pos)
    loss32, grads32 = gradient(model, raw.astype(np.float32), y, pos)
    assert isinstance(loss32, float)
    assert loss32 == pytest.approx(loss64, rel=1e-5)
    for name, g in grads32.items():
        assert g.dtype == np.float32, name
        ref = grads64[name]
        assert np.abs(g - ref).max() <= 1e-4 * np.abs(ref).max(), name


@pytest.mark.parametrize("seed", [0, 1])
def test_float32_gradient_agrees_with_float64(seed):
    scaled, _, raw, _, y, pos = scaled_pair(seed)
    assert_float32_gradient_agrees_with_float64(scaled, raw, y, pos)


def lfbe_like_utterances(rng, lengths, bins=2):
    # log filterbank energies sit far from zero: mean about -10, std about 3
    return [
        (rng.standard_normal((n, bins)) * rng.uniform(2.5, 3.5, bins) + rng.uniform(-11, -9, bins),
         rng.integers(0, 2, n).astype(np.uint8), n % 2 == 0)
        for n in lengths
    ]


@pytest.mark.parametrize("seed", [0, 1])
def test_float32_gradient_agrees_with_float64_under_an_lfbe_like_scaler(seed):
    rng = np.random.default_rng(seed + 40)
    dataset = FrameDataset.from_utterances(lfbe_like_utterances(rng, (90, 120, 70), bins=20))
    config = SpotterConfig(bottleneck=16, hidden=32)
    model = init_model(config, rng, dataset.fit_scaler())
    assert np.all((-12.0 < model.scaler.mean) & (model.scaler.mean < -8.0))
    assert np.all((2.0 < model.scaler.std) & (model.scaler.std < 4.5))
    x, y, pos = dataset.batch(rng.permutation(len(dataset))[:256])
    assert_float32_gradient_agrees_with_float64(model, x, y, pos)


# --- training ---------------------------------------------------------------------


def separable_toy_dataset(seed=0, n=200, dim=8):
    # points on both sides of a known hyperplane with a hard margin; the
    # generating plane itself is the witness that a perfect linear
    # classifier exists
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    xs, ys = [], []
    while len(xs) < n:
        x = rng.standard_normal(dim)
        m = float(x @ w)
        if abs(m) < 0.3:
            continue
        xs.append(x)
        ys.append(1 if m > 0 else 0)
    x = np.array(xs)
    y = np.array(ys, np.uint8)
    margins = (x @ w) * np.where(y == 1, 1.0, -1.0)
    assert margins.min() > 0  # separability oracle
    return dataset_from_vectors(x, y, y.astype(bool))


TOY_CFG = SpotterConfig(input_dim=8, bottleneck=4, hidden=16)


def test_train_fits_separable_toy_set():
    dataset = separable_toy_dataset()
    cfg = TrainConfig(learning_rate=0.5, minibatch_size=32, epochs=50, rng_seed=0)
    model, log = train(dataset, cfg, TOY_CFG)
    assert len(log) == 50
    assert log[-1] < 0.1
    x, y, pos = dataset.batch(np.arange(len(dataset)))
    probs = posteriors(model, x)
    accuracy = np.mean((probs[:, 1] >= 0.5) == (y == 1))
    assert accuracy >= 0.99


def test_full_batch_descent_is_monotone():
    # with the whole set in one batch and a small step, plain gradient
    # descent cannot increase the loss it just measured
    dataset = separable_toy_dataset(seed=4, n=120)
    cfg = TrainConfig(learning_rate=0.05, minibatch_size=120, epochs=30, rng_seed=2)
    _, log = train(dataset, cfg, TOY_CFG)
    diffs = np.diff(log)
    assert np.all(diffs <= 1e-12)


def test_train_runs_one_forward_pass_per_step(monkeypatch):
    calls = []
    forward_body = wwspot.model._forward

    def counting(params, x, cache=None):
        calls.append(len(x))
        return forward_body(params, x, cache)

    monkeypatch.setattr(wwspot.model, "_forward", counting)
    dataset = separable_toy_dataset(seed=5, n=100)
    cfg = TrainConfig(learning_rate=0.3, minibatch_size=32, epochs=3, rng_seed=1)
    train(dataset, cfg, TOY_CFG)
    assert len(calls) == cfg.epochs * math.ceil(len(dataset) / cfg.minibatch_size)
    assert sum(calls) == cfg.epochs * len(dataset)


def test_train_computes_in_float32_over_float64_parameters(monkeypatch):
    # every batch gradient sees is the float64 gather of its records, cast
    # to float32; context stacking makes the gather non-trivial
    indices, inputs = [], []
    batch_fn = FrameDataset.batch
    gradient_fn = wwspot.model.gradient

    def recording_batch(self, idx, base=None):
        indices.append(np.array(idx))
        return batch_fn(self, idx, base)

    def recording(model, x, targets, is_positive_utt):
        inputs.append(x.copy())
        return gradient_fn(model, x, targets, is_positive_utt)

    monkeypatch.setattr(FrameDataset, "batch", recording_batch)
    monkeypatch.setattr(wwspot.model, "gradient", recording)
    rng = np.random.default_rng(6)
    dataset = FrameDataset.from_utterances(
        [(rng.standard_normal((n, 2)) * 3.0 - 5.0, rng.integers(0, 2, n), n % 2 == 0)
         for n in (30, 41, 52)]
    )
    cfg = TrainConfig(learning_rate=0.3, minibatch_size=32, epochs=2, rng_seed=1)
    model, _ = train(dataset, cfg, replace(TOY_CFG, input_dim=CONTEXT_WIDTH * 2))
    assert len(inputs) == len(indices) == cfg.epochs * math.ceil(len(dataset) / 32)
    for idx, x in zip(indices, inputs):
        assert x.dtype == np.float32
        assert np.array_equal(x, batch_fn(dataset, idx)[0].astype(np.float32))
    assert all(a.dtype == np.float64 for a in model.params.values())


def test_train_is_deterministic():
    dataset = separable_toy_dataset(seed=1)
    cfg = TrainConfig(learning_rate=0.3, minibatch_size=16, epochs=5, rng_seed=7)
    m1, log1 = train(dataset, cfg, TOY_CFG)
    m2, log2 = train(dataset, cfg, TOY_CFG)
    assert log1 == log2
    for name in m1.params:
        assert m1.params[name].tobytes() == m2.params[name].tobytes()


def test_train_zero_epochs_returns_initialized_model():
    dataset = separable_toy_dataset(seed=2)
    cfg = TrainConfig(learning_rate=0.3, minibatch_size=256, epochs=0, rng_seed=3)
    model, log = train(dataset, cfg, TOY_CFG)
    assert log == []
    reference = unscaled_model(TOY_CFG, 3)
    for name in model.params:
        assert np.array_equal(model.params[name], reference.params[name])


def test_train_rejects_single_class():
    x = np.random.default_rng(0).standard_normal((50, 8))
    dataset = dataset_from_vectors(x, np.zeros(50, np.uint8), np.zeros(50, bool))
    with pytest.raises(DataError, match="single target class"):
        train(dataset, TrainConfig(learning_rate=0.5, minibatch_size=256, epochs=1, rng_seed=0), TOY_CFG)


def test_train_divergence_guard():
    dataset = separable_toy_dataset(seed=3)
    cfg = TrainConfig(learning_rate=1e150, minibatch_size=32, epochs=3, rng_seed=0)
    with pytest.raises(TrainingDiverged):
        train(dataset, cfg, TOY_CFG)


def test_dataset_lazy_stacking_matches_explicit():
    rng = np.random.default_rng(12)
    utts = []
    for n in (9, 13):
        lfbe = rng.standard_normal((n, 2))
        targets = np.zeros(n, np.uint8)
        targets[3:5] = 1
        utts.append((lfbe, targets, True))
    dataset = FrameDataset.from_utterances(utts)
    assert dataset.dim == 62
    x, y, pos = dataset.batch(np.arange(len(dataset)))
    # frame 0 of the second utterance replicates its own edge, not the
    # previous utterance's frames
    first_of_second = x[9]
    lfbe2 = utts[1][0]
    expected = np.concatenate(
        [lfbe2[0]] * (LEFT_CONTEXT + 1) + [lfbe2[1 : RIGHT_CONTEXT + 1].reshape(-1)]
    )
    assert np.array_equal(first_of_second, expected)


@pytest.mark.parametrize(
    "lengths",
    [(1,), (1, 4, 40, 2, 1), (30, 31, 32, 90, 7)],
    ids=["one-frame", "shorter-than-the-context", "mixed-polarity"],
)
def test_from_utterances_matches_the_concatenating_build(lengths):
    utts = lfbe_like_utterances(np.random.default_rng(17), lengths, bins=NUM_MEL_BINS)
    dataset = FrameDataset.from_utterances(utts)
    base, gather, targets, polarity = concatenated_dataset(utts)
    assert dataset.base.tobytes() == base.tobytes()
    assert dataset.targets.tobytes() == targets.tobytes()
    assert dataset.is_positive.tobytes() == polarity.tobytes()
    assert dataset.gather.dtype == np.int32
    assert np.array_equal(dataset.gather, gather)


@pytest.mark.parametrize(
    "utts, message",
    [
        pytest.param(
            [(np.zeros((4, 2)), np.zeros(4), True), (np.zeros((4, 3)), np.zeros(4), False)],
            "utterance 1: 3 bins per frame, utterance 0 has 2",
            id="widths-differ",
        ),
        pytest.param(
            [(np.zeros(4), np.zeros(4), True)],
            r"utterance 0: features must be a \(frames, bins\) matrix",
            id="one-dimensional",
        ),
        pytest.param(
            [(np.zeros((4, 2)), np.zeros(3), True)],
            "frame targets do not match the feature length",
            id="length-mismatch",
        ),
        pytest.param([], "dataset is empty", id="empty"),
    ],
)
def test_from_utterances_rejects_malformed_input(utts, message):
    with pytest.raises(DataError, match=message):
        FrameDataset.from_utterances(utts)


def test_from_utterances_holds_one_copy_of_the_dataset():
    # the build may hold the final arrays (per frame: a float64 frame,
    # CONTEXT_WIDTH int32 indices, a target byte and a polarity byte), at
    # most one utterance's int64 context-index matrix and a fixed slack; a
    # build that concatenates per-utterance int64 indices holds them for
    # every frame, twice over
    rng = np.random.default_rng(18)
    lengths = rng.integers(100, 300, 100)
    utts = lfbe_like_utterances(rng, lengths, bins=NUM_MEL_BINS)
    tracemalloc.start()
    try:
        FrameDataset.from_utterances(utts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_frame = NUM_MEL_BINS * 8 + CONTEXT_WIDTH * 4 + 2
    temporaries = int(lengths.max()) * CONTEXT_WIDTH * 8
    assert peak < per_frame * int(lengths.sum()) + temporaries + 2**16


@pytest.mark.parametrize("index", [-1, 5, 2**31], ids=["negative", "len-base", "beyond-int32"])
def test_dataset_rejects_a_gather_outside_the_frames(index):
    base = np.arange(10.0).reshape(5, 2)
    gather = np.array([[index], [0]], dtype=np.int64)
    with pytest.raises(DataError, match=r"gather indices must lie in \[0, 5\)"):
        FrameDataset(base, gather, np.zeros(2, np.uint8), np.zeros(2, bool))


@pytest.mark.parametrize(
    "gather",
    [np.zeros(2, np.int64), np.zeros((2, 0), np.int64), np.zeros((2, 1))],
    ids=["one-dimensional", "no-columns", "float"],
)
def test_dataset_rejects_a_gather_that_is_not_an_index_matrix(gather):
    with pytest.raises(DataError, match="gather must be a 2-D integer matrix"):
        FrameDataset(np.zeros((5, 2)), gather, np.zeros(2, np.uint8), np.zeros(2, bool))


def test_dataset_rejects_more_frames_than_int32_indices_address():
    base = np.broadcast_to(np.zeros((1, 1)), (2**31, 1))  # a view: allocates nothing
    with pytest.raises(DataError, match="dataset has 2147483648 frames"):
        FrameDataset(base, np.zeros((1, 1), np.int64), np.zeros(1, np.uint8), np.zeros(1, bool))


def test_fit_scaler_matches_direct_computation():
    rng = np.random.default_rng(13)
    utts = [(rng.standard_normal((20, 2)) * 3 + 1, np.zeros(20, np.uint8), False),
            (rng.standard_normal((11, 2)), np.ones(11, np.uint8), True)]
    dataset = FrameDataset.from_utterances(utts)
    scaler = dataset.fit_scaler()
    x, _, _ = dataset.batch(np.arange(len(dataset)))
    assert np.allclose(scaler.mean, x.mean(axis=0), atol=1e-12)
    assert np.allclose(scaler.std, x.std(axis=0), atol=1e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batch_is_the_fancy_index_gather(dtype):
    rng = np.random.default_rng(14)
    dataset = FrameDataset.from_utterances(lfbe_like_utterances(rng, (7, 40, 3)))
    base = dataset.base.astype(dtype)
    idx = np.array([31, 2, 2, 49, 0, 31, 17, 5, 5, 5])  # repeated and unsorted
    x, y, pos = dataset.batch(idx, base)
    expected = base[dataset.gather[idx]].reshape(len(idx), dataset.dim)
    assert x.dtype == dtype
    assert x.tobytes() == expected.tobytes()
    assert np.array_equal(y, dataset.targets[idx])
    assert np.array_equal(pos, dataset.is_positive[idx])


def per_column_scaler_oracle(dataset):
    # every stacked vector materialized, then each column's own statistics
    x = dataset.base[dataset.gather].reshape(len(dataset), dataset.dim)
    return x.mean(axis=0), x.std(axis=0)


def subsampled(dataset, n_records):
    # the first records only, as the train benchmark trims its set
    return FrameDataset(
        dataset.base,
        dataset.gather[:n_records],
        dataset.targets[:n_records],
        dataset.is_positive[:n_records],
    )


@pytest.mark.parametrize(
    "make",
    [
        # utterances shorter than the context window replicate their edges
        lambda rng: FrameDataset.from_utterances(lfbe_like_utterances(rng, (1, 5, 40, 1))),
        lambda rng: dataset_from_vectors(
            rng.standard_normal((50, 6)) * 3.0 - 10.0, np.arange(50) % 2, np.ones(50, bool)
        ),
        lambda rng: subsampled(FrameDataset.from_utterances(lfbe_like_utterances(rng, (60, 45))), 70),
    ],
    ids=["short-utterances", "from-vectors", "subsampled"],
)
def test_fit_scaler_matches_the_per_column_oracle(make):
    dataset = make(np.random.default_rng(15))
    scaler = dataset.fit_scaler()
    mean, std = per_column_scaler_oracle(dataset)
    np.testing.assert_allclose(scaler.mean, mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(scaler.std, std, rtol=0, atol=1e-12)


# --- checkpoints --------------------------------------------------------------------


def test_text_checkpoint_round_trip_is_exact(tmp_path):
    model = tiny_model(seed=6)
    model.scaler = FeatureScaler(np.random.default_rng(0).standard_normal(10), np.full(10, 1.5))
    path = tmp_path / "m.ckpt"
    save_model(model, path)
    # the fixed shape is still written out, so readers that check it load the file
    magic, header = path.read_bytes().split(b"\n")[:2]
    assert magic == b"wwspot-checkpoint v1 text"
    meta = json.loads(header)
    assert (meta["num_blocks"], meta["num_classes"], meta["nonlinearity"]) == (3, 2, "relu")
    back = load_model(path)
    x = np.random.default_rng(1).standard_normal((20, 10))
    assert np.max(np.abs(posteriors(back, x) - posteriors(model, x))) <= 1e-9
    for name in model.params:
        assert np.array_equal(back.params[name], model.params[name])
    assert np.array_equal(back.scaler.mean, model.scaler.mean)


def test_truncated_checkpoint_rejected(tmp_path):
    model = tiny_model(seed=8)
    path = tmp_path / "t.ckpt"
    save_model(model, path)
    data = path.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(data[: len(data) // 2])
    with pytest.raises(DataError, match="trunc.ckpt: truncated checkpoint"):
        load_model(tmp_path / "trunc.ckpt")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_checkpoint_rejected(tmp_path, bad):
    model = tiny_model(seed=9)
    name = next(iter(model.params))
    model.params[name][0, 0] = bad
    path = tmp_path / "bad.ckpt"
    save_model(model, path)
    with pytest.raises(DataError, match=f"non-finite values in {name}"):
        load_model(path)


def test_non_numeric_checkpoint_token_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_model(tiny_model(seed=10), path)
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"abc " + lines[2].split(b" ", 1)[1]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(DataError, match="m.ckpt: non-numeric value in checkpoint"):
        load_model(path)


def test_non_checkpoint_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"hello world\n more garbage\n")
    with pytest.raises(DataError, match="not a spotter checkpoint"):
        load_model(path)


@pytest.mark.parametrize("value", [8.0, True, "8"])
def test_config_rejects_a_size_that_is_not_an_int(value):
    with pytest.raises(DataError, match="hidden must be an integer"):
        SpotterConfig(input_dim=10, bottleneck=4, hidden=value)


def _edit_header(path, **fields):
    lines = path.read_bytes().split(b"\n", 2)
    meta = json.loads(lines[1])
    meta.update(fields)
    lines[1] = json.dumps(meta, sort_keys=True).encode("ascii")
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"hidden": 8.0}, "hidden must be an integer, got 8.0"),
        # the fixed shape is held by type too: True == 1 and 3.0 == 3
        ({"num_blocks": True}, "unsupported num_blocks True"),
        ({"nonlinearity": "tanh"}, "unsupported nonlinearity 'tanh'"),
        ({"arrays": [["bias1", [8], 3]]}, "corrupt checkpoint header"),
        ({"num_blocks": 3.0}, "unsupported num_blocks 3.0"),
        ({"num_blocks": 2}, "unsupported num_blocks 2"),
        ({"num_classes": 3}, "unsupported num_classes 3"),
    ],
)
def test_corrupt_header_values_rejected(tmp_path, fields, message):
    path = tmp_path / "m.ckpt"
    save_model(tiny_model(seed=11), path)
    _edit_header(path, **fields)
    with pytest.raises(DataError, match=f"m.ckpt: {message}"):
        load_model(path)


def test_f32_checkpoint_header_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_model(tiny_model(seed=13), path)
    path.write_bytes(path.read_bytes().replace(b" v1 text\n", b" v1 f32\n", 1))
    with pytest.raises(DataError, match="m.ckpt: unknown checkpoint mode 'f32'"):
        load_model(path)


def test_layer_sizes_beyond_the_file_rejected(tmp_path):
    # the reader must not try to allocate what a corrupt header names
    path = tmp_path / "m.ckpt"
    save_model(tiny_model(seed=12), path)
    huge = SpotterConfig(input_dim=10, bottleneck=4, hidden=10**15)
    arrays = [[name, list(shape)] for name, shape in huge.array_shapes()]
    _edit_header(path, hidden=10**15, arrays=arrays + [["scaler_mean", [10]], ["scaler_std", [10]]])
    with pytest.raises(DataError, match="m.ckpt: truncated checkpoint"):
        load_model(path)
