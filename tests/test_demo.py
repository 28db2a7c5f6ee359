import filecmp
import json
import os
import tracemalloc

import numpy as np
import pytest

from wwspot import demo
from wwspot.config import load_config
from wwspot.demo import frr_at_far, median_operating_far
from wwspot.evaluate import EvalResult
from wwspot.synth import generate_utterances, stream_utterances, write_corpus

MIB = 2**20


def _point(false_accepts: int, false_rejects: int, hours: float = 1.0) -> EvalResult:
    """A DET point with FAR false_accepts/hours per hour and FRR false_rejects/10."""
    return EvalResult(0.5, 10 - false_rejects, false_rejects, false_accepts, hours)


def test_frr_at_far_takes_the_lower_envelope_of_a_shared_far():
    curve = [_point(2, 6), _point(2, 3), _point(2, 9), _point(0, 10)]
    assert frr_at_far(curve, 2.0) == pytest.approx(0.3)


def test_frr_at_far_interpolates_linearly_between_fars():
    curve = [_point(4, 4), _point(0, 8)]
    assert frr_at_far(curve, 1.0) == pytest.approx(0.7)
    assert frr_at_far(curve, 3.0) == pytest.approx(0.5)


def test_frr_at_far_clamps_outside_the_swept_range():
    curve = [_point(1, 7), _point(3, 2), _point(5, 1)]
    assert frr_at_far(curve, 0.0) == pytest.approx(0.7)
    assert frr_at_far(curve, 50.0) == pytest.approx(0.1)


def test_median_operating_far_is_the_median_of_the_positive_fars():
    clean = [_point(0, 9), _point(1, 5), _point(3, 2)]
    mct = [_point(0, 8), _point(5, 1, hours=0.5)]
    assert median_operating_far(clean, mct) == 3.0


def test_median_operating_far_falls_back_to_zero_when_every_far_is_zero():
    assert median_operating_far([_point(0, 9), _point(0, 4)], [_point(0, 7)]) == 0.0


def test_demo_holds_one_arm_at_a_time(tmp_path, monkeypatch):
    # test_e2e_determinism's settings. Holding every test clip and both arms'
    # sets at once puts ~62 MiB in use at each train call and peaks at ~65 MiB.
    held = []
    train = demo.train

    def spy(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return train(*args, **kwargs)

    monkeypatch.setattr(demo, "train", spy)
    cfg = load_config(
        None,
        ["demo.n_train=120", "demo.n_test=48", "demo.epochs=4", "demo.bottleneck=24",
         "demo.hidden=48"],
    )
    tracemalloc.start()
    try:
        demo.run_demo(tmp_path / "run", 0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(held) == 2
    for arm, nbytes in zip(("clean", "mct"), held):
        assert nbytes <= 20 * MIB, f"{arm} arm started training with {nbytes / MIB:.1f} MiB held"
    assert peak <= 45 * MIB, f"run_demo peaked at {peak / MIB:.1f} MiB"


def test_streamed_corpus_writes_the_listed_bytes_holding_one_utterance(tmp_path):
    # 60 utterances of about 1.5 s are ~11 MiB of float64 samples as a list
    runs = {}
    for name, make in (("listed", generate_utterances), ("streamed", stream_utterances)):
        rng = np.random.default_rng([0, 1])
        runs[name] = tmp_path / name
        tracemalloc.start()
        try:
            write_corpus(make("train", 60, 0.55, rng), runs[name] / "wav",
                         runs[name] / "hypotheses.jsonl", rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if name == "streamed":
            assert peak <= 2 * MIB, f"streamed corpus peaked at {peak / MIB:.1f} MiB"
    wavs = sorted(os.listdir(runs["listed"] / "wav"))
    assert len(wavs) == 60 and wavs == sorted(os.listdir(runs["streamed"] / "wav"))
    match, mismatch, errors = filecmp.cmpfiles(
        runs["listed"], runs["streamed"], ["hypotheses.jsonl"] + [f"wav/{w}" for w in wavs],
        shallow=False,
    )
    assert (mismatch, errors) == ([], [])
    first = (runs["streamed"] / "hypotheses.jsonl").read_text().splitlines()[0]
    assert json.loads(first)["audio_path"] == "wav/train-00000.wav"


def test_rir_settings_reach_the_multi_condition_rooms_only(tmp_path):
    # epochs=0: each arm's model is its initialization and scaler, so the clean
    # arm's DET depends only on the clean clips and the test set
    tiny = ["demo.n_train=40", "demo.n_test=10", "demo.epochs=0", "demo.bottleneck=8",
            "demo.hidden=16"]
    runs = {}
    for name, extra in (("default", []), ("order-1", ["rir.max_order=1"])):
        runs[name] = tmp_path / name
        demo.run_demo(runs[name], 0, load_config(None, tiny + extra))

    def same(rel):
        return filecmp.cmp(runs["default"] / rel, runs["order-1"] / rel, shallow=False)

    wavs = sorted(os.listdir(runs["default"] / "mct" / "wav"))
    assert wavs and wavs == sorted(os.listdir(runs["order-1"] / "mct" / "wav"))
    assert not all(same(os.path.join("mct", "wav", f)) for f in wavs)
    for f in sorted(os.listdir(runs["default"] / "train_wav")):
        assert same(os.path.join("train_wav", f))
    assert same("det_clean.csv")
