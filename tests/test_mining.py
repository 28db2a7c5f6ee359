import glob
import json

import numpy as np
import pytest

from wwspot.cli import main
from wwspot.lexicon import ConfusableSet
from wwspot.mining import (
    NEGATIVE,
    POSITIVE,
    MinedExample,
    UtteranceHypothesis,
    WordHyp,
    balance_examples,
    load_hypotheses,
    make_frame_targets,
    mine_examples,
    read_mined,
    write_mined,
)
from wwspot.tsv import DataError

WAKE = "calypso"
CONFUSABLES = ConfusableSet({"caleeda": 1, "caly": 1, "cowesser": 2})


def hyp(utt_id, words):
    return UtteranceHypothesis(
        utt_id, f"/audio/{utt_id}.wav", [WordHyp(*w) for w in words]
    )


def test_wake_word_above_threshold_is_positive():
    h = hyp("u1", [("hello", 0.9, 0.0, 0.4), (WAKE, 0.6, 0.5, 1.0)])
    out = mine_examples([h], WAKE, CONFUSABLES, 0.5, 0.5)
    assert len(out) == 1
    ex = out[0]
    assert ex.polarity == POSITIVE
    assert ex.trigger_word == WAKE
    assert ex.trigger_span == (0.5, 1.0)
    assert ex.confidence == 0.6


def test_wake_word_below_threshold_no_confusable_yields_nothing():
    h = hyp("u1", [(WAKE, 0.4, 0.0, 0.5)])
    assert mine_examples([h], WAKE, CONFUSABLES, 0.5, 0.5) == []


def test_confusable_above_threshold_is_negative():
    h = hyp("u1", [("caleeda", 0.7, 0.2, 0.8)])
    out = mine_examples([h], WAKE, CONFUSABLES, 0.5, 0.5)
    assert out[0].polarity == NEGATIVE
    assert out[0].trigger_word == "caleeda"


def test_positive_takes_precedence_and_one_example_per_utterance():
    h = hyp("u1", [("caleeda", 0.9, 0.0, 0.4), (WAKE, 0.8, 0.5, 1.0)])
    out = mine_examples([h], WAKE, CONFUSABLES, 0.5, 0.5)
    assert len(out) == 1
    assert out[0].polarity == POSITIVE


def test_low_wake_word_can_still_yield_negative():
    h = hyp("u1", [(WAKE, 0.3, 0.0, 0.4), ("caly", 0.8, 0.5, 0.9)])
    out = mine_examples([h], WAKE, CONFUSABLES, 0.5, 0.5)
    assert out[0].polarity == NEGATIVE


def test_highest_confidence_occurrence_wins_earliest_on_ties():
    h = hyp(
        "u1",
        [(WAKE, 0.7, 0.0, 0.4), (WAKE, 0.9, 1.0, 1.4), (WAKE, 0.9, 2.0, 2.4)],
    )
    out = mine_examples([h], WAKE, CONFUSABLES, 0.5, 0.5)
    assert out[0].trigger_span == (1.0, 1.4)


def test_mid_utterance_wake_word_accepted():
    h = hyp("u1", [("caly", 0.9, 0.0, 0.4), (WAKE, 0.8, 0.5, 1.0), ("mooner", 0.9, 1.1, 1.5)])
    out = mine_examples([h], WAKE, CONFUSABLES, 0.5, 0.5)
    assert out[0].polarity == POSITIVE


def test_threshold_monotonicity():
    rng = np.random.default_rng(5)
    hyps = []
    for i in range(100):
        token = WAKE if i % 2 == 0 else "caleeda"
        hyps.append(hyp(f"u{i:03d}", [(token, float(rng.uniform(0, 1)), 0.1, 0.6)]))
    counts = []
    for th in (0.3, 0.5, 0.7):
        out = mine_examples(hyps, WAKE, CONFUSABLES, th, th)
        counts.append(
            (
                sum(1 for e in out if e.polarity == POSITIVE),
                sum(1 for e in out if e.polarity == NEGATIVE),
            )
        )
    assert counts[0][0] >= counts[1][0] >= counts[2][0]
    assert counts[0][1] >= counts[1][1] >= counts[2][1]


def test_emitted_confidences_respect_thresholds():
    rng = np.random.default_rng(6)
    hyps = [
        hyp(f"u{i}", [(WAKE if i % 3 else "caly", float(rng.uniform(0, 1)), 0.0, 0.5)])
        for i in range(60)
    ]
    out = mine_examples(hyps, WAKE, CONFUSABLES, 0.5, 0.6)
    for e in out:
        assert e.confidence >= (0.5 if e.polarity == POSITIVE else 0.6)


def test_invalid_thresholds_rejected():
    with pytest.raises(DataError, match=r"pos_threshold must be in \[0, 1\], got 1.01"):
        mine_examples([], WAKE, CONFUSABLES, 1.01, 0.5)
    with pytest.raises(DataError, match=r"neg_threshold must be in \[0, 1\], got -0.1"):
        mine_examples([], WAKE, CONFUSABLES, 0.5, -0.1)


def test_load_hypotheses_skips_malformed(tmp_path):
    path = tmp_path / "hyp.jsonl"
    good = {
        "utt_id": "u1",
        "audio_path": "a.wav",
        "words": [{"w": WAKE, "conf": 0.8, "start": 0.0, "end": 0.5}],
    }
    bad_conf = {
        "utt_id": "u2",
        "audio_path": "b.wav",
        "words": [{"w": WAKE, "conf": 1.8, "start": 0.0, "end": 0.5}],
    }
    overlap = {
        "utt_id": "u3",
        "audio_path": "c.wav",
        "words": [
            {"w": "a", "conf": 0.5, "start": 0.0, "end": 0.6},
            {"w": "b", "conf": 0.5, "start": 0.5, "end": 0.9},
        ],
    }
    nan_start = {
        "utt_id": "u5",
        "audio_path": "d.wav",
        "words": [{"w": WAKE, "conf": 0.8, "start": float("nan"), "end": 0.5}],
    }
    infinite_end = {
        "utt_id": "u6",
        "audio_path": "e.wav",
        "words": [{"w": WAKE, "conf": 0.8, "start": 0.0, "end": float("inf")}],
    }
    repeated = dict(good, audio_path="f.wav")
    tab_id = dict(good, utt_id="u\t7")
    newline_id = dict(good, utt_id="u8\n")
    lines = [
        json.dumps(good),
        "{not json",
        json.dumps(bad_conf),
        json.dumps({"utt_id": "u4"}),
        json.dumps(overlap),
        json.dumps(nan_start),
        json.dumps(infinite_end),
        json.dumps(repeated),
        json.dumps(tab_id),
        json.dumps(newline_id),
    ]
    not_utf8 = json.dumps(dict(good, utt_id="u9")).encode().replace(b"u9", b"u\xff")
    path.write_bytes(("\n".join(lines) + "\n").encode() + not_utf8 + b"\n")
    hyps, skipped = load_hypotheses(path)
    assert [(h.utt_id, h.audio_path) for h in hyps] == [("u1", "a.wav")]
    assert skipped == 10


def test_mine_on_a_repeated_utt_id_writes_a_file_read_mined_accepts(tmp_path):
    hyp_path = tmp_path / "hyp.jsonl"
    records = [
        {"utt_id": "u0", "audio_path": "a.wav",
         "words": [{"w": WAKE, "conf": 0.9, "start": 0.1, "end": 0.6}]},
        {"utt_id": "u0", "audio_path": "b.wav",
         "words": [{"w": "caly", "conf": 0.8, "start": 0.2, "end": 0.5}]},
        {"utt_id": "u1", "audio_path": "c.wav",
         "words": [{"w": "caly", "conf": 0.8, "start": 0.2, "end": 0.5}]},
    ]
    hyp_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    conf_path = tmp_path / "confusables.tsv"
    conf_path.write_text("caly\t1\n")
    out = tmp_path / "runs"
    argv = ["mine", "--hypotheses", str(hyp_path), "--confusables", str(conf_path),
            "--wake-word", WAKE, "--no-balance", "--out", str(out)]
    assert main(argv) == 0
    [mined_path] = glob.glob(str(out / "mine-*" / "mined.tsv"))
    mined = read_mined(mined_path)
    assert [(e.utt_id, e.polarity) for e in mined] == [("u0", POSITIVE), ("u1", NEGATIVE)]


def test_balance_downsamples_majority():
    rng = np.random.default_rng(0)
    examples = [
        MinedExample(f"p{i:04d}", POSITIVE, WAKE, (0.0, 0.5), 0.9) for i in range(700)
    ] + [
        MinedExample(f"n{i:04d}", NEGATIVE, "caly", (0.0, 0.5), 0.8) for i in range(300)
    ]
    out = balance_examples(examples, 1.0, rng_seed=1)
    assert sum(1 for e in out if e.polarity == POSITIVE) == 300
    assert sum(1 for e in out if e.polarity == NEGATIVE) == 300


def test_balance_noop_preserves_order():
    examples = [
        MinedExample("a", POSITIVE, WAKE, (0.0, 0.5), 0.9),
        MinedExample("b", NEGATIVE, "caly", (0.0, 0.5), 0.9),
        MinedExample("c", POSITIVE, WAKE, (0.0, 0.5), 0.9),
        MinedExample("d", NEGATIVE, "caly", (0.0, 0.5), 0.9),
    ]
    out = balance_examples(examples, 1.0, rng_seed=0)
    assert out == examples


def test_balance_ratio_two_to_one():
    examples = [
        MinedExample(f"p{i}", POSITIVE, WAKE, (0.0, 0.5), 0.9) for i in range(500)
    ] + [
        MinedExample(f"n{i}", NEGATIVE, "caly", (0.0, 0.5), 0.9) for i in range(500)
    ]
    out = balance_examples(examples, 2.0, rng_seed=3)
    assert sum(1 for e in out if e.polarity == POSITIVE) == 500
    assert sum(1 for e in out if e.polarity == NEGATIVE) == 250


def test_balance_deterministic_and_order_preserving():
    rng = np.random.default_rng(1)
    examples = [
        MinedExample(
            f"u{i:03d}",
            POSITIVE if rng.random() < 0.7 else NEGATIVE,
            WAKE,
            (0.0, 0.5),
            0.9,
        )
        for i in range(200)
    ]
    a = balance_examples(examples, 1.0, rng_seed=9)
    b = balance_examples(examples, 1.0, rng_seed=9)
    assert a == b
    ids = [e.utt_id for e in a]
    assert ids == sorted(ids)  # input order was sorted, so output must stay sorted


def test_balance_requires_both_polarities():
    examples = [MinedExample("a", POSITIVE, WAKE, (0.0, 0.5), 0.9)]
    with pytest.raises(DataError, match="both polarities"):
        balance_examples(examples, 1.0, rng_seed=0)


@pytest.mark.parametrize("ratio, lost", [(0.1, POSITIVE), (20.0, NEGATIVE)])
def test_balance_refuses_to_drop_a_whole_polarity(ratio, lost):
    examples = [MinedExample(f"p{i}", POSITIVE, WAKE, (0.0, 0.5), 0.9) for i in range(3)] + [
        MinedExample(f"n{i}", NEGATIVE, "caly", (0.0, 0.5), 0.9) for i in range(5)
    ]
    with pytest.raises(
        DataError, match=rf"target_ratio {ratio} keeps no {lost} example of 3 positive and 5 negative"
    ):
        balance_examples(examples, ratio, rng_seed=0)


def test_frame_targets_span_oracle():
    # frame-center arithmetic: centers at (t + 0.5) * 10 ms
    ex = MinedExample("u", POSITIVE, WAKE, (1.00, 1.50), 0.9)
    targets = make_frame_targets(ex, 300)
    assert targets.shape == (300,)
    on = np.flatnonzero(targets)
    assert on[0] == 100 and on[-1] == 149 and on.size == 50


def test_frame_targets_negative_all_zero():
    ex = MinedExample("u", NEGATIVE, "caly", (1.0, 1.5), 0.9)
    assert not make_frame_targets(ex, 200).any()


def test_frame_targets_degenerate_span_rejected():
    ex = MinedExample("u", POSITIVE, WAKE, (1.0, 1.0), 0.9)
    with pytest.raises(DataError, match="degenerate"):
        make_frame_targets(ex, 200)


def test_frame_targets_span_outside_audio_rejected():
    ex = MinedExample("u", POSITIVE, WAKE, (1.0, 2.5), 0.9)
    with pytest.raises(DataError, match="outside"):
        make_frame_targets(ex, 200)


def test_frame_targets_stable_under_small_perturbation():
    # sum of targets equals the number of centers inside the span and is
    # stable for shifts below half a hop
    base = MinedExample("u", POSITIVE, WAKE, (1.00, 1.50), 0.9)
    expected = make_frame_targets(base, 300).sum()
    for eps in (-0.004, -0.002, 0.002, 0.004):
        ex = MinedExample("u", POSITIVE, WAKE, (1.00 + eps, 1.50 + eps), 0.9)
        assert make_frame_targets(ex, 300).sum() == expected


def test_mined_manifest_round_trip(tmp_path):
    examples = [
        MinedExample("u1", POSITIVE, WAKE, (0.5, 1.0), 0.875),
        MinedExample("u2", NEGATIVE, "caly", (0.25, 0.75), 0.625),
    ]
    path = tmp_path / "mined.tsv"
    write_mined(examples, path)
    back = read_mined(path)
    assert [e.utt_id for e in back] == ["u1", "u2"]
    assert back[0].trigger_span == (0.5, 1.0)
    assert back[1].confidence == 0.625
