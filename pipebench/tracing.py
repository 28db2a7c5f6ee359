"""Span tracing by wrapping public wwspot functions, and the per-layer
metrics computed from the spans.

A ``Tracer`` puts a wrapper into the namespace where each caller looks a
name up (``wwspot.model.gradient`` as ``train`` sees it,
``wwspot.augment.write_wav`` as the augment job sees it) and restores the
originals when it is closed. Each wrapped call records one span: name,
start, end, parent and an optional size (audio seconds or training
steps). Kernels called tens of thousands of times per pass get a
counter instead (calls and busy time), so tracing them stays cheap.
Spans are kept in memory and written out by the caller at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

HOP_S = 0.01


def _clip_seconds(args, result):
    return args[0].duration_s


def _result_seconds(args, result):
    return result.duration_s


def _feature_seconds(args, result):
    return np.shape(args[0])[0] * HOP_S


def _model_input_seconds(args, result):
    return np.shape(args[1])[0] * HOP_S


def _train_steps(args, result):
    dataset, cfg = args[0], args[1]
    return cfg.epochs * -(-len(dataset) // cfg.minibatch_size)


@dataclass(frozen=True)
class Target:
    """One name to wrap: ``attr`` is ``function`` or ``Class.method`` in
    ``module``; ``size`` maps (args, result) to the call's size."""

    module: str
    attr: str
    span: str
    size: Callable | None = None
    counter: bool = False


TARGETS = (
    Target("wwspot.model", "train", "model.train", _train_steps),
    Target("wwspot.model", "init_model", "model.init_model"),
    Target("wwspot.model", "gradient", "model.gradient"),
    Target("wwspot.model", "ssl_loss", "model.ssl_loss"),
    Target("wwspot.model", "FrameDataset.batch", "model.FrameDataset.batch"),
    Target("wwspot.model", "FrameDataset.fit_scaler", "model.FrameDataset.fit_scaler"),
    Target("wwspot.model", "FrameDataset.from_utterances", "model.FrameDataset.from_utterances"),
    Target("wwspot.model", "FeatureScaler.apply", "model.FeatureScaler.apply"),
    Target("wwspot.audio", "read_wav", "audio.read_wav", _result_seconds),
    Target("wwspot.features", "compute_lfbe", "features.compute_lfbe", _clip_seconds),
    Target("wwspot.decode", "posterior_trace", "decode.posterior_trace", _model_input_seconds),
    Target("wwspot.decode", "stack_context", "features.stack_context", _feature_seconds),
    Target("wwspot.decode", "posteriors", "model.posteriors", _model_input_seconds),
    Target("wwspot.evaluate", "det_curve", "evaluate.det_curve"),
    Target("wwspot.evaluate", "smooth", "decode.smooth"),
    Target("wwspot.evaluate", "detect_peaks", "decode.detect_peaks", counter=True),
    Target("wwspot.evaluate", "score", "evaluate.score"),
    Target("wwspot.lexicon", "load_lexicon", "lexicon.load_lexicon"),
    Target("wwspot.lexicon", "build_confusable_set", "lexicon.build_confusable_set"),
    Target("wwspot._accel", "levenshtein_codes", "accel.levenshtein_codes", counter=True),
    Target("wwspot._accel", "image_source_taps", "accel.image_source_taps"),
    Target("wwspot.mining", "load_hypotheses", "mining.load_hypotheses"),
    Target("wwspot.mining", "mine_examples", "mining.mine_examples"),
    Target("wwspot.mining", "balance_examples", "mining.balance_examples"),
    Target("wwspot.augment", "synthesize_rir", "augment.synthesize_rir"),
    Target("wwspot.augment", "build_mixed_dataset", "augment.build_mixed_dataset"),
    Target("wwspot.augment", "reverberate", "augment.reverberate"),
    Target("wwspot.augment", "corrupt", "augment.corrupt"),
    Target("wwspot.augment", "write_wav", "audio.write_wav"),
    Target("wwspot.pipeline", "dataset_from_manifest", "pipeline.dataset_from_manifest"),
    Target("wwspot.pipeline", "read_wav", "audio.read_wav", _result_seconds),
    Target("wwspot.pipeline", "compute_lfbe", "features.compute_lfbe", _clip_seconds),
)


class Tracer:
    """Installs the wrappers on ``__enter__`` and removes them on exit.

    ``spans`` holds ``[name, start, end, parent_index, size]`` lists, with
    parent -1 at the top level; ``counters`` maps a name to
    ``[calls, busy_seconds]``. Names missing from the program are skipped,
    so a layer that a later version removes reads as idle.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            try:
                owner = importlib.import_module(target.module)
            except ImportError:
                continue
            *path, name = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            try:
                original = inspect.getattr_static(owner, name)
            except AttributeError:
                continue
            self._restore.append((owner, name, original))
            setattr(owner, name, self._wrap(target, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap(self, target: Target, fn):
        if isinstance(fn, (classmethod, staticmethod)):
            return type(fn)(self._wrap(target, fn.__func__))
        if target.counter:
            slot = self.counters.setdefault(target.span, [0, 0.0])

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    slot[0] += 1
                    slot[1] += time.perf_counter() - start

            return counted

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [target.span, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if target.size is not None:
                record[4] = target.size(args, result)
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, size in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, size) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def tail_rank(n: int) -> int:
    """Index, in ascending order, of the highest sample with at least ten
    samples beyond it. Below 21 samples that sample would sit under the
    median, so the maximum stands in."""
    return n - 11 if n >= 21 else n - 1


# (metric, span, kind): "ms"/"s" is duration per call, "self_s" and
# "self_ms_per_step" subtract child spans, "ms_per_audio_s" divides by
# the call's audio seconds, "calls" counts calls per traced pass and
# "us_per_call" is a counter's busy time per call.
LAYER_METRICS = (
    ("model.FrameDataset.batch.ms", "model.FrameDataset.batch", "ms"),
    ("model.FeatureScaler.apply.ms", "model.FeatureScaler.apply", "ms"),
    ("model.ssl_loss.ms", "model.ssl_loss", "ms"),
    ("model.gradient.ms", "model.gradient", "ms"),
    ("model.gradient.calls", "model.gradient", "calls"),
    ("model.train.self_ms_per_step", "model.train", "self_ms_per_step"),
    ("model.FrameDataset.fit_scaler.s", "model.FrameDataset.fit_scaler", "s"),
    ("audio.read_wav.ms_per_audio_s", "audio.read_wav", "ms_per_audio_s"),
    ("features.compute_lfbe.ms_per_audio_s", "features.compute_lfbe", "ms_per_audio_s"),
    ("features.stack_context.ms_per_audio_s", "features.stack_context", "ms_per_audio_s"),
    ("model.posteriors.ms_per_audio_s", "model.posteriors", "ms_per_audio_s"),
    ("decode.smooth.ms", "decode.smooth", "ms"),
    ("decode.detect_peaks.calls", "decode.detect_peaks", "calls"),
    ("evaluate.score.ms", "evaluate.score", "ms"),
    ("evaluate.det_curve.self_s", "evaluate.det_curve", "self_s"),
    ("lexicon.load_lexicon.s", "lexicon.load_lexicon", "s"),
    ("lexicon.build_confusable_set.s", "lexicon.build_confusable_set", "s"),
    ("accel.levenshtein_codes.calls", "accel.levenshtein_codes", "calls"),
    ("accel.levenshtein_codes.us_per_call", "accel.levenshtein_codes", "us_per_call"),
    ("mining.load_hypotheses.s", "mining.load_hypotheses", "s"),
    ("mining.mine_examples.s", "mining.mine_examples", "s"),
    ("augment.synthesize_rir.ms", "augment.synthesize_rir", "ms"),
    ("accel.image_source_taps.ms", "accel.image_source_taps", "ms"),
    ("augment.reverberate.ms", "augment.reverberate", "ms"),
    ("augment.corrupt.ms", "augment.corrupt", "ms"),
    ("audio.write_wav.ms", "audio.write_wav", "ms"),
    ("augment.build_mixed_dataset.self_s", "augment.build_mixed_dataset", "self_s"),
    ("audio.read_wav.ms", "audio.read_wav", "ms"),
    ("model.FrameDataset.from_utterances.s", "model.FrameDataset.from_utterances", "s"),
)

_UNITS = {
    "ms": "ms", "s": "s", "self_s": "s", "self_ms_per_step": "ms",
    "ms_per_audio_s": "ms/s", "calls": "count", "us_per_call": "us",
}
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit. A timed metric is the
    median and comes with a ``.tail`` (see ``tail_rank``); its sample
    count ``.n`` goes to the report only, since it has no better side."""
    units = {}
    for name, _, kind in LAYER_METRICS:
        units[name] = _UNITS[kind]
        if kind not in ("calls", "us_per_call"):
            units[f"{name}.tail"] = _UNITS[kind]
    units[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
    return units


def layer_metrics(spans: list[list], counters: dict[str, list], passes: int) -> dict[str, float]:
    """Per-layer values over ``passes`` traced passes; a layer that never
    ran reads 0."""
    selfs = self_times(spans)
    samples: dict[tuple[str, str], list[float]] = defaultdict(list)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, selfs):
        name, start, end, _, size = span
        calls[name] += 1
        for kind, value in (
            ("ms", (end - start) * 1e3),
            ("s", end - start),
            ("self_s", own),
            ("self_ms_per_step", own * 1e3 / size if size else None),
            ("ms_per_audio_s", (end - start) * 1e3 / size if size else None),
        ):
            if value is not None:
                samples[name, kind].append(value)
    for name, (count, _) in counters.items():
        calls[name] += count
    out: dict[str, float] = {}
    for metric, span, kind in LAYER_METRICS:
        if kind == "calls":
            out[metric] = calls.get(span, 0) / max(passes, 1)
            continue
        if kind == "us_per_call":
            count, busy = counters.get(span, (0, 0.0))
            out[metric] = busy * 1e6 / count if count else 0.0
            continue
        values = np.sort(samples.get((span, kind), []))
        n = values.size
        out[metric] = float(np.median(values)) if n else 0.0
        out[f"{metric}.tail"] = float(values[tail_rank(n)]) if n else 0.0
        out[f"{metric}.n"] = n
    return out
