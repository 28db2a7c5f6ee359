"""Tests of the benchmark itself: span arithmetic, output checks, the
metric list in BENCHMARK.json, and a tiny-size run of every workload."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from pipebench import tracing  # noqa: E402
from pipebench.harness import END_TO_END_UNITS, run_workload  # noqa: E402
from pipebench.workloads import TINY_SIZES, WORKLOADS  # noqa: E402


# --- spans --------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],  # holds a grandchild
        ["a.x", 2.0, 3.0, 1, None],
        ["b", 3.5, 5.0, 0, None],  # overlaps a by 0.5
        ["c", 9.0, 12.0, 0, None],  # runs past its parent's end
        ["other", 20.0, 21.0, -1, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - (4 - 1) - (5 - 4) - (10 - 9), 2.0, 1.0, 1.5, 3.0, 1.0])


def test_tail_is_the_highest_sample_with_ten_beyond_it():
    assert tracing.tail_rank(100) == 89
    assert tracing.tail_rank(21) == 10
    assert tracing.tail_rank(20) == 19  # maximum below 21 samples
    metrics = tracing.layer_metrics(
        [["model.gradient", 0.0, i / 1000, -1, None] for i in range(1, 101)], {}, passes=4
    )
    assert metrics["model.gradient.ms"] == pytest.approx(50.5)
    assert metrics["model.gradient.ms.tail"] == pytest.approx(90.0)
    assert metrics["model.gradient.ms.n"] == 100
    assert metrics["model.gradient.calls"] == 25
    assert metrics["decode.smooth.ms"] == 0.0  # idle layer


def test_tracer_wraps_where_callers_look_and_restores():
    from wwspot import model, pipeline

    originals = (model.gradient, pipeline.read_wav, model.FrameDataset.__dict__["from_utterances"])
    targets = tracing.TARGETS + (tracing.Target("wwspot.model", "no_such_name", "x"),)
    with tracing.Tracer(targets) as tracer:
        assert model.gradient is not originals[0]
        assert pipeline.read_wav is not originals[1]
        assert isinstance(model.FrameDataset.__dict__["from_utterances"], classmethod)
    assert (model.gradient, pipeline.read_wav, model.FrameDataset.__dict__["from_utterances"]) == originals
    assert tracer.spans == []


# --- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_json_lists_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])


# --- output checks --------------------------------------------------------------


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """One tiny-size state and pass output per workload."""
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls(TINY_SIZES[name])
        state = workload.setup(5, str(tmp_path_factory.mktemp(name)))
        out[name] = (workload, state, workload.run(state)[1])
    return out


def _failures(passes, name, corrupt):
    workload, state, out = passes[name]
    bad = corrupt(copy.deepcopy(out), state)
    return {op: f for op, f in workload.check(state, bad, out).items() if f}


def test_checks_accept_the_real_outputs(passes):
    for name in WORKLOADS:
        assert _failures(passes, name, lambda out, state: out) == {}


def _inverted_posteriors(out, state):
    # negating the output layer swaps the two class posteriors
    params = out[2].params
    params["weight_out"], params["bias_out"] = -params["weight_out"], -params["bias_out"]
    return out


def test_train_check_rejects_bad_losses_and_changed_parameters(passes):
    assert _failures(passes, "train", lambda o, s: ([o[0][0], math.nan], o[1], o[2]))
    assert _failures(passes, "train", lambda o, s: ([o[0][0], o[0][0]], o[1], o[2]))
    assert _failures(passes, "train", lambda o, s: (o[0], "0" * 64, o[2]))
    assert _failures(passes, "train", _inverted_posteriors)


def _nan_in_trace(out, state):
    trace = next(iter(out[0].values()))
    trace[3] = math.nan
    return out


def _short_trace(out, state):
    key = next(iter(out[0]))
    out[0][key] = out[0][key][:-1]
    return out


def _changed_det_row(out, state):
    out[1][0] = (out[1][0][0], out[1][0][1] + 1) + out[1][0][2:]
    return out


def _span_lost_from_det_rows(out, state):
    # the same change on every row, so the rows still match each other;
    # only the generator's span count shows it
    out[1][:] = [(th, tp, fr - 1, fa, h) for th, tp, fr, fa, h in out[1]]
    return out


def _det_hours_wrong(out, state):
    out[1][:] = [(th, tp, fr, fa, h * 1.01) for th, tp, fr, fa, h in out[1]]
    return out


def _nothing_found(out, state):
    out[1][:] = [(th, 0, tp + fr, fa, h) for th, tp, fr, fa, h in out[1]]
    return out


@pytest.mark.parametrize("corrupt", [_nan_in_trace, _short_trace, _changed_det_row])
def test_decode_check_rejects_corrupted_output(passes, corrupt):
    assert _failures(passes, "decode", corrupt)


@pytest.mark.parametrize("corrupt", [_span_lost_from_det_rows, _det_hours_wrong, _nothing_found])
def test_decode_check_holds_det_rows_to_the_ground_truth(passes, corrupt):
    # rejected even when the reference pass is equally wrong
    workload, state, out = passes["decode"]
    bad = corrupt(copy.deepcopy(out), state)
    assert workload.check(state, bad, bad)["det"]


def _recipe_count_off_by_one(out, state):
    lex, conf, skipped, mined, balanced, rows, records = out
    return lex, conf, skipped, mined, balanced, rows[:-1], records


def _snr_outside_clamp(out, state):
    lex, conf, skipped, mined, balanced, rows, records = out
    i = next(i for i, r in enumerate(rows) if r.snr_db is not None)
    rows[i] = dataclasses.replace(rows[i], snr_db=41.0)
    return out


def _confusable_distance_wrong(out, state):
    word = next(iter(out[1].members))
    out[1].members[word] += 1
    return out


def _confusable_extra_member(out, state):
    word = next(w for w in sorted(state.scanned) if w not in out[1].members)
    out[1].members[word] = 1
    return out


def _positive_without_wake_word(out, state):
    lex, conf, skipped, mined, balanced, rows, records = out
    i = next(i for i, e in enumerate(mined) if e.polarity == "positive")
    fake = next(f"hyp-{k:06d}" for k in range(10**6) if f"hyp-{k:06d}" not in state.truth)
    mined[i] = dataclasses.replace(mined[i], utt_id=fake)
    return out


def _skipped_miscounted(out, state):
    lex, conf, skipped, mined, balanced, rows, records = out
    return lex, conf, skipped + 1, mined, balanced, rows, records


def _records_off_by_one(out, state):
    lex, conf, skipped, mined, balanced, rows, records = out
    return lex, conf, skipped, mined, balanced, rows, records - 1


@pytest.mark.parametrize(
    "corrupt, op",
    [
        (_recipe_count_off_by_one, "augment"),
        (_snr_outside_clamp, "augment"),
        (_confusable_distance_wrong, "confusables"),
        (_confusable_extra_member, "confusables"),
        (_positive_without_wake_word, "mining"),
        (_skipped_miscounted, "mining"),
        (_records_off_by_one, "featurize"),
    ],
)
def test_prep_check_rejects_corrupted_output(passes, corrupt, op):
    assert op in _failures(passes, "prep", corrupt)


# --- runs -------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(tmp_path, name, trace):
    result = run_workload(name, 3, 0.2, trace, str(tmp_path / "work"), TINY_SIZES[name])
    assert result.correct, result.failures
    assert result.report["failed_ops_frac"][0] == 0
    expected = tracing.metric_units() if trace else END_TO_END_UNITS
    assert {k: u for k, (v, u) in result.metrics.items()} == expected
    assert all(math.isfinite(v) for v, _ in result.metrics.values())
    if not trace:
        assert all(v > 0 for v, _ in result.metrics.values())
    line = json.loads(result.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert not (tmp_path / "work").exists()


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "pipebench"), tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
