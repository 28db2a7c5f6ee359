"""Acceptance gate: one test per criterion, tolerances pinned.

The conftest hook prints one [PASS]/[FAIL] line per criterion at the end
of the run.
"""

import json
import math
import time

import numpy as np
import pytest
from oracles import (
    kink_free_batch,
    naive_convolve_truncated,
    oracle_rir_taps,
    recursive_distance,
    unscaled_model,
)

from wwspot.audio import SAMPLE_RATE, AudioClip, rms_power
from wwspot.augment import (
    CorruptionSpec,
    MixRecipe,
    RirFilter,
    RoomSpec,
    build_mixed_dataset,
    corrupt,
    reverberate,
    synthesize_rir,
    write_manifest,
)
from wwspot.config import load_config
from wwspot.decode import DecodeConfig, detect_peaks, smooth
from wwspot.demo import run_demo, run_demo_suite
from wwspot.evaluate import det_curve
from wwspot.lexicon import ConfusableSet, build_confusable_set, levenshtein, load_lexicon
from wwspot.mining import NEGATIVE, POSITIVE, load_hypotheses, mine_examples
from wwspot.model import INPUT_DIM, SpotterConfig, gradient, posteriors, ssl_loss

SR = SAMPLE_RATE


# --- criterion: SNR fidelity ------------------------------------------------------


def _random_signal(rng, n):
    t = np.arange(n) / SR
    x = np.zeros(n)
    for _ in range(3):
        x += rng.uniform(0.1, 0.4) * np.sin(2 * np.pi * rng.uniform(100, 3000) * t)
    return AudioClip(x)


def test_snr_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    targets = [0.0, 5.0, 10.0, 20.0]
    for target in targets:
        spec = CorruptionSpec(target, 0.0, 1.0, rng_seed=1)
        for _ in range(125):
            clip = _random_signal(rng, 8000)
            noise = AudioClip(rng.standard_normal(8000), id="n")
            out, realized = corrupt(clip, noise, None, spec, rng)
            # power-ratio oracle on the stored decomposition
            interference = out.samples - clip.samples
            oracle = 10 * math.log10(rms_power(clip.samples) / rms_power(interference))
            assert abs(oracle - target) <= 0.1
            assert abs(oracle - realized) <= 0.01

    spec = CorruptionSpec(10.0, 3.0, 1.0, rng_seed=2)
    draw_rng = np.random.default_rng(7)
    clip = _random_signal(rng, 2000)
    noise = AudioClip(rng.standard_normal(2000), id="n")
    draws = [corrupt(clip, noise, None, spec, draw_rng)[1] for _ in range(2000)]
    assert abs(np.mean(draws) - 10.0) <= 0.2
    assert time.monotonic() - start < 60


# --- criterion: reverberation -----------------------------------------------------


def test_reverberation():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    clip = AudioClip(rng.uniform(-0.5, 0.5, 4000))
    out = reverberate(clip, RirFilter(np.array([1.0])))
    assert np.max(np.abs(out.samples - clip.samples)) <= 1e-9

    for _ in range(100):
        x = rng.uniform(-0.4, 0.4, 1000)
        taps = rng.uniform(-0.15, 0.15, int(rng.integers(2, 51)))
        taps[0] = rng.uniform(0.3, 0.6)
        out = reverberate(AudioClip(x), RirFilter(taps))
        expected = naive_convolve_truncated(x, taps)
        assert np.max(np.abs(out.samples - expected)) <= 1e-7
    assert time.monotonic() - start < 60


# --- criterion: image-source RIR --------------------------------------------------


def test_image_source_rir():
    start = time.monotonic()
    room_anechoic = RoomSpec((5, 4, 3), (1.2, 2.3, 1.4), (3.4, 1.1, 1.9), 0.0, 4)
    rir = synthesize_rir(room_anechoic)
    d = math.dist(room_anechoic.source_pos, room_anechoic.mic_pos)
    nonzero = np.flatnonzero(rir.taps)
    assert list(nonzero) == [int(d * SR / 343.0 + 0.5)]
    assert rir.taps[nonzero[0]] == pytest.approx(1 / (4 * math.pi * d), rel=1e-12)

    for order in (0, 1, 2):
        room = RoomSpec((5, 4, 3), (1.2, 2.3, 1.4), (3.4, 1.1, 1.9), 0.5, order)
        taps = synthesize_rir(room).taps
        expected = oracle_rir_taps(room)
        assert taps.size == expected.size
        assert np.array_equal(np.flatnonzero(taps), np.flatnonzero(expected))
        assert np.allclose(taps, expected, rtol=1e-12, atol=1e-15)
    assert time.monotonic() - start < 10


# --- criterion: Table-1 recipe ----------------------------------------------------


def _build_pools():
    rng = np.random.default_rng(5)
    clean = [
        AudioClip(0.3 * np.sin(2 * np.pi * f * np.arange(1600) / SR), id=f"c{i}")
        for i, f in enumerate((250, 330, 440, 550, 660))
    ]
    rirs = [
        synthesize_rir(RoomSpec((4, 3, 2.5), (1, 1, 1), (2.6, 1.9, 1.3), 0.5, 2), id="r0"),
        synthesize_rir(RoomSpec((6, 4, 3), (2, 1.5, 1.1), (4.1, 2.8, 2.0), 0.6, 2), id="r1"),
    ]
    noises = [AudioClip(rng.standard_normal(1600), id=f"n{i}") for i in range(2)]
    musics = [AudioClip(np.sin(2 * np.pi * 520 * np.arange(1600) / SR), id="m0")]
    return clean, rirs, noises, musics


@pytest.mark.parametrize(
    "row,expected",
    [("200K", (20, 60, 60, 60)), ("50K", (10, 14, 14, 14))],
)
def test_table1_recipe(tmp_path, row, expected):
    clean, rirs, noises, musics = _build_pools()
    recipe = MixRecipe.from_table_row(row, scale=0.001)
    assert recipe.counts == expected
    spec = CorruptionSpec(10.0, 3.0, 0.5, rng_seed=9)
    rows_a = build_mixed_dataset(clean, rirs, noises, musics, recipe, spec, tmp_path / "a")
    counts = {c: 0 for c in ("CTM", "CTM+R", "CTM+N", "CTM+RN")}
    for r in rows_a:
        counts[r.condition] += 1
    assert tuple(counts[c] for c in ("CTM", "CTM+R", "CTM+N", "CTM+RN")) == expected

    rows_b = build_mixed_dataset(clean, rirs, noises, musics, recipe, spec, tmp_path / "b")
    write_manifest(rows_a, tmp_path / "a.tsv")
    write_manifest(rows_b, tmp_path / "b.tsv")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


# --- criterion: lexicon filter ----------------------------------------------------


def test_lexicon_filter(tmp_path):
    start = time.monotonic()
    phones = ["AA", "IY", "UW", "EH", "OW", "K", "S", "L"]
    rng = np.random.default_rng(123)

    def seq(max_len=8):
        n = int(rng.integers(1, max_len + 1))
        return tuple(phones[i] for i in rng.integers(0, len(phones), n))

    for _ in range(1000):
        a, b = seq(), seq()
        assert levenshtein(a, b) == recursive_distance(a, b)

    lines = ["wakeword\tK AA L IY P S"]
    for i in range(49):
        lines.append(f"word{i:02d}\t{' '.join(seq(7))}")
    path = tmp_path / "lex.txt"
    path.write_text("\n".join(lines) + "\n")
    lex = load_lexicon(path)
    wake_prons = lex.pronunciations("wakeword")
    sets = {}
    for d_max in (1, 2):
        cs = build_confusable_set(lex, "wakeword", d_max, 10000)
        expected = {}
        for word in lex.index:
            if word == "wakeword":
                continue
            prons = lex.pronunciations(word)
            d = min(recursive_distance(p, w) for p in prons for w in wake_prons)
            if 1 <= d <= d_max:
                expected[word] = d
        assert cs.members == expected
        sets[d_max] = cs.words()
    assert sets[1] <= sets[2]
    assert time.monotonic() - start < 10


# --- criterion: SSL mining --------------------------------------------------------

WAKE = "wakeword"
CONFUSABLES = ConfusableSet({"confusayble": 1, "confuzorb": 2})


def _mining_fixture(path):
    """200 hypotheses, written to `path` and loaded, whose expected mining
    outcome is fixed at construction time, case by case."""
    rng = np.random.default_rng(77)
    records = []
    expected = []

    def word(token, conf, at):
        return {"w": token, "conf": round(conf, 4), "start": at, "end": at + 0.5}

    for i in range(200):
        utt = f"utt-{i:04d}"
        case = i % 8
        words = []
        if case == 0:  # clear positive
            conf = float(rng.uniform(0.5, 0.95))
            words = [word("filler", 0.9, 0.0), word(WAKE, conf, 0.6)]
            expected.append((utt, POSITIVE, WAKE, 0.6, round(conf, 4)))
        elif case == 1:  # wake word below threshold, nothing else
            words = [word(WAKE, float(rng.uniform(0.0, 0.4999)), 0.0)]
        elif case == 2:  # confusable above threshold
            conf = float(rng.uniform(0.5, 0.95))
            words = [word("confusayble", conf, 0.0)]
            expected.append((utt, NEGATIVE, "confusayble", 0.0, round(conf, 4)))
        elif case == 3:  # both above: positive wins
            conf = float(rng.uniform(0.5, 0.95))
            words = [word("confuzorb", 0.9, 0.0), word(WAKE, conf, 0.6)]
            expected.append((utt, POSITIVE, WAKE, 0.6, round(conf, 4)))
        elif case == 4:  # weak wake word, strong confusable: negative
            conf = float(rng.uniform(0.5, 0.95))
            words = [word(WAKE, 0.45, 0.0), word("confuzorb", conf, 0.6)]
            expected.append((utt, NEGATIVE, "confuzorb", 0.6, round(conf, 4)))
        elif case == 5:  # fillers only
            words = [word("filler", 0.99, 0.0), word("other", 0.8, 0.6)]
        elif case == 6:  # two wake words: highest confidence wins
            words = [word(WAKE, 0.6, 0.0), word(WAKE, 0.8, 0.6)]
            expected.append((utt, POSITIVE, WAKE, 0.6, 0.8))
        else:  # confusable below threshold
            words = [word("confusayble", float(rng.uniform(0.0, 0.4999)), 0.0)]
        records.append({"utt_id": utt, "audio_path": f"{utt}.wav", "words": words})
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    hyps, skipped = load_hypotheses(path)
    assert skipped == 0
    return hyps, expected


def test_ssl_mining(tmp_path):
    hyps, expected = _mining_fixture(tmp_path / "hypotheses.jsonl")
    mined = mine_examples(hyps, WAKE, CONFUSABLES, 0.5, 0.5)
    got = [
        (e.utt_id, e.polarity, e.trigger_word, e.trigger_span[0], round(e.confidence, 4))
        for e in mined
    ]
    assert got == sorted(expected)

    # monotone filtering: each threshold only ever shrinks its own side
    pos_counts = []
    neg_counts = []
    for th in (0.3, 0.5, 0.7):
        by_pos = mine_examples(hyps, WAKE, CONFUSABLES, th, 0.5)
        pos_counts.append(sum(1 for e in by_pos if e.polarity == POSITIVE))
        by_neg = mine_examples(hyps, WAKE, CONFUSABLES, 0.5, th)
        neg_counts.append(sum(1 for e in by_neg if e.polarity == NEGATIVE))
    assert pos_counts == sorted(pos_counts, reverse=True)
    assert neg_counts == sorted(neg_counts, reverse=True)
    for e in mined:
        assert e.confidence >= 0.5


# --- criterion: model and loss ----------------------------------------------------


def test_model_loss_gradients():
    tiny = SpotterConfig(bottleneck=4, hidden=8)
    # softmax normalization
    model = unscaled_model(tiny, 0)
    probs = posteriors(model, np.random.default_rng(1).standard_normal((100, INPUT_DIM)) * 2)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-6

    # loss equals the term-by-term scalar loop
    rng = np.random.default_rng(2)
    q = rng.uniform(0.01, 0.99, 300)
    pos = rng.random(300) < 0.5
    y = (rng.integers(0, 2, 300) & pos).astype(np.uint8)
    expected = 0.0
    for i in range(300):
        if pos[i] and y[i]:
            expected += math.log(1.0 / q[i])
        if not y[i]:
            expected += math.log(1.0 / (1.0 - q[i]))
    total = ssl_loss(q, y, pos)
    assert total == pytest.approx(expected, rel=1e-12)

    # indicator invariance: flipping targets on negative utterances is a no-op
    flipped = y.copy()
    flipped[~pos] = 1
    assert ssl_loss(q, flipped, pos) == pytest.approx(total, rel=1e-12)

    # analytic gradient vs central finite differences on 3 random models
    h = 1e-4
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        model = unscaled_model(tiny, seed + 10)
        x, y, pos = kink_free_batch(model, rng, 12, INPUT_DIM)
        _, grads = gradient(model, x, y, pos)

        def loss_now():
            return ssl_loss(posteriors(model, x)[:, 1], y, pos)

        for name, g in grads.items():
            flat_p = model.params[name].reshape(-1)
            flat_g = g.reshape(-1)
            for j in range(flat_p.size):
                orig = flat_p[j]
                flat_p[j] = orig + h
                up = loss_now()
                flat_p[j] = orig - h
                down = loss_now()
                flat_p[j] = orig
                fd = (up - down) / (2 * h)
                assert abs(flat_g[j] - fd) <= 1e-4 * max(abs(flat_g[j]), abs(fd)) + 1e-7


# --- criterion: decoder -----------------------------------------------------------


def test_decoder():
    window = 20
    cfg = DecodeConfig(window, 0.5, 30)
    trace = np.full(800, 0.05)
    trace[150:190] = 0.9  # event 1 center 170
    trace[500:540] = 0.8  # event 2 center 520
    smoothed = smooth(trace, window)
    detections = detect_peaks(smoothed, cfg, "u")
    assert len(detections) == 2
    assert abs(detections[0].peak_frame - 170) <= window / 2
    assert abs(detections[1].peak_frame - 520) <= window / 2

    traces = {"u": trace, "quiet": np.full(800, 0.05)}
    references = {"u": [(150, 190), (500, 540)], "quiet": []}
    results = det_curve(traces, references, DecodeConfig(window, 0.5, 30), np.linspace(0.85, 0.1, 12), 50)
    fas = [r.false_accepts for r in results]
    frrs = [r.frr for r in results]
    assert fas == sorted(fas)
    assert frrs == sorted(frrs, reverse=True)


# --- criterion: end-to-end directional check ---------------------------------------


def test_e2e_directional(tmp_path):
    start = time.monotonic()
    suite = run_demo_suite(tmp_path / "suite", [0, 1, 2], load_config(None))
    elapsed = time.monotonic() - start
    assert suite["mean_frr_mct"] <= 0.8 * suite["mean_frr_clean"], suite
    assert suite["relative_frr_reduction"] >= 0.20
    assert elapsed < 600, f"directional check took {elapsed:.0f}s"


# --- criterion: determinism ---------------------------------------------------------


def test_e2e_determinism(tmp_path):
    cfg = load_config(
        None,
        ["demo.n_train=120", "demo.n_test=48", "demo.epochs=4", "demo.bottleneck=24",
         "demo.hidden=48"],
    )
    run1, run2 = tmp_path / "run1", tmp_path / "run2"
    run_demo(run1, 3, cfg)
    run_demo(run2, 3, cfg)
    wavs = [sorted(p.name for p in (run / "mct" / "wav").iterdir()) for run in (run1, run2)]
    assert wavs[0] and wavs[0] == wavs[1]
    # run1 and run2 are two output directories: no file may record which
    names = ["hypotheses.jsonl", "det_clean.csv", "det_mct.csv", "det_compare.svg",
             "mct/manifest.tsv"]
    for name in names + [f"mct/wav/{w}" for w in wavs[0]]:
        a = (run1 / name).read_bytes()
        b = (run2 / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    summaries = [json.loads((run / "summary.json").read_text()) for run in (run1, run2)]
    for summary in summaries:
        del summary["wall_seconds"]
    assert summaries[0] == summaries[1]
