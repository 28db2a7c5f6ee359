"""FRR/FAR scoring and DET-curve emission.

A detection matches a reference wake-word span when its peak frame lies
within a tolerance of the span center; matching is greedy one-to-one in
ascending distance. FRR is false rejects over all references (1 minus
recall); FAR is false accepts per hour of evaluated audio.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .decode import DecodeConfig, Detection, detect_peaks, smooth
from .features import FRAMES_PER_S
from .tsv import DataError

FRAMES_PER_HOUR = FRAMES_PER_S * 3600


@dataclass(frozen=True)
class EvalResult:
    threshold: float
    true_positives: int
    false_rejects: int
    false_accepts: int
    total_audio_hours: float

    @property
    def frr(self) -> float:
        total = self.true_positives + self.false_rejects
        return self.false_rejects / total if total else 0.0

    @property
    def far_per_hour(self) -> float:
        return self.false_accepts / self.total_audio_hours


def score(
    detections: Mapping[str, Sequence[Detection]],
    references: Mapping[str, Sequence[tuple[int, int]]],
    utt_frames: Mapping[str, int],
    tolerance_frames: int,
    threshold: float = float("nan"),
) -> EvalResult:
    """Tally matches over the evaluation set defined by `references`.

    Every evaluated utterance needs a frame count and a (possibly empty)
    list of disjoint reference spans; detections elsewhere are an error.
    Unmatched references count as false rejects, unmatched detections as
    false accepts.
    """
    unknown = set(detections) - set(references)
    if unknown:
        raise DataError(f"detections for utterances outside the eval set: {sorted(unknown)[:3]}")

    tp = fr = fa = 0
    for utt_id, spans in references.items():
        dets = list(detections.get(utt_id, ()))
        centers = [(s + e) / 2.0 for s, e in spans]
        pairs = []
        for di, det in enumerate(dets):
            for ri, center in enumerate(centers):
                dist = abs(det.peak_frame - center)
                if dist <= tolerance_frames:
                    pairs.append((dist, di, ri))
        pairs.sort()
        used_d: set[int] = set()
        used_r: set[int] = set()
        for _, di, ri in pairs:
            if di in used_d or ri in used_r:
                continue
            used_d.add(di)
            used_r.add(ri)
        tp += len(used_r)
        fr += len(centers) - len(used_r)
        fa += len(dets) - len(used_d)

    hours = sum(utt_frames[u] for u in references) / FRAMES_PER_HOUR
    if hours <= 0:
        raise DataError("evaluation set has no audio")
    return EvalResult(threshold, tp, fr, fa, hours)


def det_curve(
    traces: Mapping[str, np.ndarray],
    references: Mapping[str, Sequence[tuple[int, int]]],
    cfg: DecodeConfig,
    thresholds: Sequence[float],
    tolerance_frames: int,
) -> list[EvalResult]:
    """One EvalResult per threshold over identically smoothed traces.

    `references` keys the traces' utterances. Thresholds are evaluated in the
    given order (a descending sweep); frame counts are the trace lengths.
    """
    smoothed = {u: smooth(tr, cfg.smooth_window_frames) for u, tr in traces.items()}
    utt_frames = {u: len(tr) for u, tr in traces.items()}
    results = []
    for th in thresholds:
        th_cfg = DecodeConfig(cfg.smooth_window_frames, float(th), cfg.min_gap_frames)
        dets = {u: detect_peaks(tr, th_cfg, u) for u, tr in smoothed.items()}
        results.append(score(dets, references, utt_frames, tolerance_frames, float(th)))
    return results


def write_det_csv(results: Sequence[EvalResult], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("threshold,far_per_hour,frr\n")
        for r in results:
            fh.write(f"{r.threshold:.6f},{r.far_per_hour:.6f},{r.frr:.6f}\n")


def det_svg(
    series: Sequence[tuple[str, Sequence[EvalResult]]],
    path: str | os.PathLike,
    title: str = "DET curve",
) -> None:
    """Standalone SVG line plot of FRR (y) against FAR per hour (x)."""
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    far_max = max(r.far_per_hour for _, results in series for r in results)
    far_max = far_max if far_max > 0 else 1.0

    def sx(far: float) -> float:
        return ml + pw * far / far_max

    def sy(frr: float) -> float:
        return mt + ph * (1.0 - frr)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw / 2:.0f}" y="{height - 12}" text-anchor="middle">false accepts / hour</text>',
        f'<text x="16" y="{mt + ph / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.0f})">false reject rate</text>',
    ]
    for i in range(5):
        far = far_max * i / 4
        frr = i / 4
        parts.append(
            f'<text x="{sx(far):.1f}" y="{mt + ph + 16}" text-anchor="middle">{far:.2f}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{sy(frr) + 4:.1f}" text-anchor="end">{frr:.2f}</text>'
        )
        parts.append(
            f'<line x1="{ml}" y1="{sy(frr):.1f}" x2="{ml + pw}" y2="{sy(frr):.1f}" '
            f'stroke="#dddddd"/>'
        )
    for i, (label, results) in enumerate(series):
        color = colors[i % len(colors)]
        pts = " ".join(f"{sx(r.far_per_hour):.1f},{sy(r.frr):.1f}" for r in results)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{ml + pw - 8}" y="{mt + 16 + 16 * i}" text-anchor="end" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
