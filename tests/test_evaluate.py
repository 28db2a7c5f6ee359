import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from wwspot.decode import DecodeConfig, Detection, detect_peaks, smooth
from wwspot.evaluate import (
    det_curve,
    det_svg,
    score,
    write_det_csv,
)
from wwspot.tsv import DataError


def det(utt, peak, score_=0.8):
    return Detection(utt, peak - 5, peak + 5, peak, score_)


def test_frr_is_one_minus_recall():
    detections = {}
    references = {}
    frames = {}
    for i in range(100):
        utt = f"u{i:03d}"
        references[utt] = [(100, 150)]
        frames[utt] = 300
        if i < 90:
            detections[utt] = [det(utt, 126)]
    result = score(detections, references, frames, 50)
    assert result.true_positives == 90
    assert result.false_rejects == 10
    assert result.frr == pytest.approx(0.10)


def test_far_per_hour_normalization():
    # 5 false accepts over 2.5 h of audio -> 2.0 per hour
    frames_per_utt = 900000  # 2.5 h / 1 utt
    references = {"u0": []}
    frames = {"u0": frames_per_utt}
    detections = {"u0": [det("u0", p) for p in (100, 5000, 10000, 20000, 40000)]}
    result = score(detections, references, frames, 50)
    assert result.false_accepts == 5
    assert result.total_audio_hours == pytest.approx(2.5)
    assert result.far_per_hour == pytest.approx(2.0)


def test_tolerance_boundary_rejects_far_match():
    references = {"u0": [(100, 150)]}  # center 125
    frames = {"u0": 400}
    detections = {"u0": [det("u0", 185)]}  # 60 frames away > 50
    result = score(detections, references, frames, 50)
    assert result.false_rejects == 1
    assert result.false_accepts == 1
    assert result.true_positives == 0
    just_inside = score({"u0": [det("u0", 175)]}, references, frames, 50)
    assert just_inside.true_positives == 1


def test_greedy_matching_is_one_to_one_ascending_distance():
    references = {"u0": [(90, 110), (200, 220)]}  # centers 100, 210
    frames = {"u0": 500}
    detections = {"u0": [det("u0", 102), det("u0", 104), det("u0", 260)]}
    result = score(detections, references, frames, 50)
    # 102 takes center 100; 104 cannot reuse it; 260 takes center 210
    assert result.true_positives == 2
    assert result.false_accepts == 1
    assert result.false_rejects == 0


def test_score_validates_references_and_utts():
    with pytest.raises(DataError, match="outside the eval set"):
        score({"ghost": [det("ghost", 10)]}, {"u0": []}, {"u0": 100}, 50)


def test_score_is_permutation_symmetric():
    rng = np.random.default_rng(0)
    references = {}
    detections = {}
    frames = {}
    for i in range(30):
        utt = f"u{i}"
        references[utt] = [(50, 100)] if i % 2 else []
        frames[utt] = 200
        if rng.random() < 0.7:
            detections[utt] = [det(utt, int(rng.integers(0, 200)))]
    a = score(detections, references, frames, 50)
    rev = dict(reversed(list(references.items())))
    b = score(detections, rev, frames, 50)
    assert (a.true_positives, a.false_rejects, a.false_accepts) == (
        b.true_positives,
        b.false_rejects,
        b.false_accepts,
    )


def _two_event_trace():
    trace = np.zeros(600)
    trace[100:140] = 0.95
    trace[400:440] = 0.75
    return trace


def _bump(trace, center, height, half_width=10):
    lo = center - half_width
    shape = height * (1 - np.abs(np.arange(-half_width, half_width + 1)) / (half_width + 1))
    trace[lo : lo + shape.size] = np.maximum(trace[lo : lo + shape.size], shape)


def test_det_sweep_monotone_counts():
    # isolated bumps spaced far beyond the merge gap: descending the
    # threshold can only add detections, never merge them away
    rng = np.random.default_rng(1)
    traces = {}
    references = {}
    for i in range(12):
        utt = f"u{i}"
        trace = np.full(600, 0.02)
        for center in (80, 220, 360):
            _bump(trace, center, float(rng.uniform(0.15, 0.85)))
        if i % 2:
            _bump(trace, 500, 0.97)
            references[utt] = [(480, 520)]
        else:
            references[utt] = []
        traces[utt] = trace
    cfg = DecodeConfig(9, 0.5, 30)
    thresholds = np.linspace(0.9, 0.1, 15)
    results = det_curve(traces, references, cfg, thresholds, 50)
    fas = [r.false_accepts for r in results]
    tps = [r.true_positives for r in results]
    frrs = [r.frr for r in results]
    assert fas == sorted(fas)
    assert tps == sorted(tps)
    assert frrs == sorted(frrs, reverse=True)
    assert fas[-1] > fas[0]  # the sweep actually exercises the range


def test_det_extreme_thresholds():
    traces = {"u0": _two_event_trace(), "u1": np.full(600, 0.3)}
    references = {"u0": [(100, 140), (400, 440)], "u1": []}
    cfg = DecodeConfig(5, 0.5, 30)
    results = det_curve(traces, references, cfg, [0.995, 0.005], 50)
    assert results[0].frr == 1.0 and results[0].false_accepts == 0
    assert results[1].false_accepts >= results[0].false_accepts


def test_det_separable_traces_reach_zero_zero():
    # positives plateau at 0.9, background stays at 0.1: a mid threshold
    # must score perfectly
    traces = {}
    references = {}
    for i in range(8):
        utt = f"u{i}"
        trace = np.full(500, 0.1)
        if i % 2:
            trace[200:250] = 0.9
            references[utt] = [(200, 250)]
        else:
            references[utt] = []
        traces[utt] = trace
    cfg = DecodeConfig(5, 0.5, 30)
    results = det_curve(traces, references, cfg, np.linspace(0.8, 0.2, 7), 50)
    perfect = [r for r in results if r.frr == 0.0 and r.false_accepts == 0]
    assert perfect


def test_det_csv_round_trip(tmp_path):
    traces = {"u0": _two_event_trace()}
    references = {"u0": [(100, 140), (400, 440)]}
    cfg = DecodeConfig(5, 0.5, 30)
    results = det_curve(traces, references, cfg, [0.9, 0.5, 0.1], 50)
    path = tmp_path / "det.csv"
    write_det_csv(results, path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["threshold", "far_per_hour", "frr"]
        rows = [[float(field) for field in row] for row in reader]
    assert len(rows) == 3
    assert rows[0][0] == pytest.approx(0.9)
    assert [r[2] for r in rows] == [r.frr for r in results]


def test_det_svg_is_wellformed_xml(tmp_path):
    traces = {"u0": _two_event_trace()}
    references = {"u0": [(100, 140), (400, 440)]}
    cfg = DecodeConfig(5, 0.5, 30)
    results = det_curve(traces, references, cfg, [0.9, 0.5, 0.1], 50)
    path = tmp_path / "det.svg"
    det_svg([("a", results), ("b", results)], path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 2


def test_det_curve_finds_no_detection_past_a_short_trace():
    # every 48-frame window covers the whole 10-frame trace, so each frame
    # scores the trace's mean, 0.5; a smoother that returned 48 values
    # would score frame 47 at 0.72 and accept it at 0.6
    trace = np.linspace(0.0, 1.0, 10)
    cfg = DecodeConfig(48, 0.45, 5)
    above, below = det_curve({"u": trace}, {"u": []}, cfg, [0.6, 0.45], 5)
    assert above.false_accepts == 0
    assert below.false_accepts == 1
    [detection] = detect_peaks(smooth(trace, 48), cfg, "u")
    assert detection.end_frame == 9
