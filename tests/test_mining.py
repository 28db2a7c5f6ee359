import glob
import json
import tracemalloc

import numpy as np
import pytest

from wwspot.cli import main
from wwspot.lexicon import ConfusableSet
from wwspot.mining import (
    NEGATIVE,
    POSITIVE,
    MinedExample,
    balance_examples,
    load_hypotheses,
    make_frame_targets,
    mine_examples,
    read_mined,
    write_mined,
)
from wwspot.tsv import DataError

from oracles import per_object_hypotheses, per_object_mine

WAKE = "calypso"
CONFUSABLES = ConfusableSet({"caleeda": 1, "caly": 1, "cowesser": 2})


def hyp(utt_id, words):
    return {
        "utt_id": utt_id,
        "audio_path": f"/audio/{utt_id}.wav",
        "words": [{"w": w, "conf": c, "start": s, "end": e} for w, c, s, e in words],
    }


def table(tmp_path, records):
    """The records written as a hypothesis file and loaded, none skipped."""
    path = tmp_path / "hyp.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    hyps, skipped = load_hypotheses(path)
    assert skipped == 0
    return hyps


def test_wake_word_above_threshold_is_positive(tmp_path):
    h = hyp("u1", [("hello", 0.9, 0.0, 0.4), (WAKE, 0.6, 0.5, 1.0)])
    out = mine_examples(table(tmp_path, [h]), WAKE, CONFUSABLES, 0.5, 0.5)
    assert len(out) == 1
    ex = out[0]
    assert ex.polarity == POSITIVE
    assert ex.trigger_word == WAKE
    assert ex.trigger_span == (0.5, 1.0)
    assert ex.confidence == 0.6


def test_wake_word_below_threshold_no_confusable_yields_nothing(tmp_path):
    h = hyp("u1", [(WAKE, 0.4, 0.0, 0.5)])
    assert mine_examples(table(tmp_path, [h]), WAKE, CONFUSABLES, 0.5, 0.5) == []


def test_confusable_above_threshold_is_negative(tmp_path):
    h = hyp("u1", [("caleeda", 0.7, 0.2, 0.8)])
    out = mine_examples(table(tmp_path, [h]), WAKE, CONFUSABLES, 0.5, 0.5)
    assert out[0].polarity == NEGATIVE
    assert out[0].trigger_word == "caleeda"


def test_positive_takes_precedence_and_one_example_per_utterance(tmp_path):
    h = hyp("u1", [("caleeda", 0.9, 0.0, 0.4), (WAKE, 0.8, 0.5, 1.0)])
    out = mine_examples(table(tmp_path, [h]), WAKE, CONFUSABLES, 0.5, 0.5)
    assert len(out) == 1
    assert out[0].polarity == POSITIVE


def test_low_wake_word_can_still_yield_negative(tmp_path):
    h = hyp("u1", [(WAKE, 0.3, 0.0, 0.4), ("caly", 0.8, 0.5, 0.9)])
    out = mine_examples(table(tmp_path, [h]), WAKE, CONFUSABLES, 0.5, 0.5)
    assert out[0].polarity == NEGATIVE


def test_highest_confidence_occurrence_wins_earliest_on_ties(tmp_path):
    h = hyp(
        "u1",
        [(WAKE, 0.7, 0.0, 0.4), (WAKE, 0.9, 1.0, 1.4), (WAKE, 0.9, 2.0, 2.4)],
    )
    out = mine_examples(table(tmp_path, [h]), WAKE, CONFUSABLES, 0.5, 0.5)
    assert out[0].trigger_span == (1.0, 1.4)


def test_mid_utterance_wake_word_accepted(tmp_path):
    h = hyp("u1", [("caly", 0.9, 0.0, 0.4), (WAKE, 0.8, 0.5, 1.0), ("mooner", 0.9, 1.1, 1.5)])
    out = mine_examples(table(tmp_path, [h]), WAKE, CONFUSABLES, 0.5, 0.5)
    assert out[0].polarity == POSITIVE


def test_threshold_monotonicity(tmp_path):
    rng = np.random.default_rng(5)
    hyps = []
    for i in range(100):
        token = WAKE if i % 2 == 0 else "caleeda"
        hyps.append(hyp(f"u{i:03d}", [(token, float(rng.uniform(0, 1)), 0.1, 0.6)]))
    hyps = table(tmp_path, hyps)
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


def test_emitted_confidences_respect_thresholds(tmp_path):
    rng = np.random.default_rng(6)
    hyps = [
        hyp(f"u{i}", [(WAKE if i % 3 else "caly", float(rng.uniform(0, 1)), 0.0, 0.5)])
        for i in range(60)
    ]
    out = mine_examples(table(tmp_path, hyps), WAKE, CONFUSABLES, 0.5, 0.6)
    for e in out:
        assert e.confidence >= (0.5 if e.polarity == POSITIVE else 0.6)


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
    repeated = dict(good, words=[{"w": "caly", "conf": 0.9, "start": 0.1, "end": 0.4}])
    tab_id = dict(good, utt_id="u\t7")
    newline_id = dict(good, utt_id="u8\n")
    no_audio_path = {"utt_id": "u10", "words": good["words"]}
    huge_conf = dict(good, utt_id="u11", words=[dict(good["words"][0], conf=10**400)])
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
        json.dumps(no_audio_path),
        json.dumps(huge_conf),
    ]
    not_utf8 = json.dumps(dict(good, utt_id="u9")).encode().replace(b"u9", b"u\xff")
    path.write_bytes(("\n".join(lines) + "\n").encode() + not_utf8 + b"\n")
    hyps, skipped = load_hypotheses(path)
    # the repeated id is told apart by its words: the first record's are kept
    assert hyps.utt_ids == ["u1"]
    assert [hyps.tokens[t] for t in hyps.token] == [WAKE]
    assert hyps.first.tolist() == [0, 1]
    assert (hyps.conf.tolist(), hyps.start.tolist(), hyps.end.tolist()) == ([0.8], [0.0], [0.5])
    assert skipped == 12


# cases differ from the wake word and the confusables, and two gates sit on drawn values
ORACLE_VOCAB = [WAKE, "Calypso", "CALYPSO", "caly", "Caleeda", "cowesser", "hello", "mooner"]
ORACLE_CONFS = [0.0, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0]
ORACLE_GATES = [(0.5, 0.6), (0.6, 0.5), (0.75, 0.75), (0.0, 0.0), (1.0, 1.0)]


def _random_words(rng):
    """Spans in order; some words share a confidence and a start (the
    earlier one shorter than the 1e-9 s overlap tolerance), some end up to
    that tolerance after the next one starts."""
    words, t = [], float(rng.uniform(0.0, 0.2))
    for _ in range(int(rng.integers(0, 6))):
        conf = float(rng.choice(ORACLE_CONFS) if rng.random() < 0.7 else rng.random())
        token = ORACLE_VOCAB[rng.integers(len(ORACLE_VOCAB))]
        if words and rng.random() < 0.2:
            prev = words[-1]
            prev["end"] = prev["start"] + 1e-10
            token, conf, t = prev["w"], prev["conf"], prev["start"]
        elif words and rng.random() < 0.1:
            t = words[-1]["end"] - 5e-10
        end = t + float(rng.uniform(0.05, 0.5))
        words.append({"w": token, "conf": conf, "start": t, "end": end})
        t = end + float(rng.uniform(0.0, 0.2))
    return words


def _malformed(rng, record, ids):
    """One line that breaks one rule of the format, chosen by `rng`."""
    words = record["words"] or [{"w": WAKE, "conf": 0.9, "start": 0.0, "end": 0.5}]
    word = dict(words[0])
    kind = int(rng.integers(13))
    if kind == 0:
        return json.dumps(record).encode().replace(b'"utt_id": "', b'"utt_id": "\xff', 1)
    if kind == 1 or kind == 7 and not ids:
        return json.dumps(record)[:-1].encode()
    if kind == 2:
        key = ("utt_id", "audio_path", "words")[rng.integers(3)]
        return json.dumps({k: v for k, v in record.items() if k != key}).encode()
    if kind == 3:
        del word[("w", "conf", "start", "end")[rng.integers(4)]]
    elif kind == 4:  # json writes nan and inf as NaN and Infinity
        word["conf"] = (-0.01, 1.01, float("nan"), float("inf"), None)[rng.integers(5)]
    elif kind == 5:
        word["start"], word["end"] = (
            (float("nan"), 0.5), (0.0, float("inf")), (-float("inf"), 0.5), (0.5, 0.5), (0.6, 0.5)
        )[rng.integers(5)]
    elif kind == 6:  # starts 2e-9 s before the last word ends
        start = words[-1]["end"] - 2e-9
        words = words + [{"w": "hello", "conf": 0.5, "start": start, "end": start + 0.3}]
        return json.dumps(dict(record, words=words)).encode()
    elif kind == 7:
        return json.dumps(dict(record, utt_id=ids[rng.integers(len(ids))])).encode()
    elif kind == 8:
        utt_id = record["utt_id"] + "\t\r\n"[rng.integers(3)]
        return json.dumps(dict(record, utt_id=utt_id)).encode()
    elif kind == 9:
        return json.dumps([record]).encode()
    elif kind == 10:
        return json.dumps(dict(record, words={"w": WAKE})).encode()
    elif kind == 11:  # an integer beyond float range
        word[("conf", "start", "end")[rng.integers(3)]] = 10**400
    else:
        word["start"] = -1e-8
    return json.dumps(dict(record, words=[word] + words[1:])).encode()


@pytest.mark.parametrize("seed", range(6))
def test_table_mining_matches_the_per_object_oracle(tmp_path, seed):
    rng = np.random.default_rng([seed, 22])
    lines, ids = [], []
    for i in range(400):
        record = {"utt_id": f"u{rng.integers(10**6):06d}", "audio_path": f"a{i}.wav",
                  "words": _random_words(rng)}
        roll = rng.random()
        if roll < 0.25:
            lines.append(_malformed(rng, record, ids))
        elif roll < 0.3 and ids:  # a repeated id with its own words
            lines.append(json.dumps(dict(record, utt_id=ids[rng.integers(len(ids))])).encode())
        elif roll < 0.32:
            lines.append(b"  ")
        else:
            ids.append(record["utt_id"])
            lines.append(json.dumps(record).encode())
    path = tmp_path / "hyp.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")

    hyps, skipped = load_hypotheses(path)
    expected, expected_skipped = per_object_hypotheses(path)
    assert skipped == expected_skipped > 0
    assert hyps.utt_ids == [h.utt_id for h in expected]
    words = [hyps.tokens[t] for t in hyps.token]
    assert list(zip(words, hyps.conf.tolist(), hyps.start.tolist(), hyps.end.tolist())) == [
        (w.token, w.confidence, w.start_s, w.end_s) for h in expected for w in h.words
    ]
    assert np.diff(hyps.first).tolist() == [len(h.words) for h in expected]
    for pos, neg in ORACLE_GATES:
        mined = mine_examples(hyps, WAKE, CONFUSABLES, pos, neg)
        assert mined == per_object_mine(expected, WAKE, CONFUSABLES, pos, neg)
        assert {e.polarity for e in mined} == {POSITIVE, NEGATIVE}


def test_load_hypotheses_holds_at_most_64_bytes_per_word(tmp_path):
    # the columns hold 28 B per word; one object per word held 166 B here
    rng = np.random.default_rng(3)
    n_utts, n_words = 2000, 12
    path = tmp_path / "hyp.jsonl"
    with open(path, "w") as fh:
        for i in range(n_utts):
            words = [(f"w{rng.integers(20)}", float(rng.random()), j, j + 0.5) for j in range(n_words)]
            fh.write(json.dumps(hyp(f"utt-{i:06d}", words)) + "\n")
    tracemalloc.start()
    try:
        hyps, _ = load_hypotheses(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(hyps) == n_utts
    assert held <= 64 * n_utts * n_words + 200 * n_utts + 64 * 1024


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
            "--set", f"lexicon.wake_word={WAKE}", "--no-balance", "--out", str(out)]
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
    # read_mined refuses such a span at the boundary; one built in code
    # lies inside the audio but covers no frame center
    for span in ((1.0, 1.0), (1.5, 1.0)):
        ex = MinedExample("u", POSITIVE, WAKE, span, 0.9)
        with pytest.raises(DataError, match="covers no frame center"):
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
