"""Measurement loop, result assembly and the environment record.

Untraced run (``trace=False``), which gives the end-to-end metrics:

1. Set-up is repeated ``SETUPS`` times from scratch with the same seed;
   the median of those times is kept.
2. One cold pass follows. It is not part of ``pass_s``: a CLI user pays
   it on every invocation, so its wall time is added to ``setup_s``,
   where work moved out of the timed passes still shows.
3. Timed passes run back to back until ``seconds`` have elapsed (at
   least ``MIN_PASSES``); ``pass_s`` and the workload's own rates are
   medians over them. A pass's time is the sum of its timed parts, so
   untimed housekeeping between passes stays out of it.
4. One more pass runs under ``tracemalloc`` for ``peak_mb``, the peak of
   memory allocated during the pass, so the timed passes are not slowed.
   The workload may add its own memory figures after it (``decode``
   gives the peak per recording length).

On a shared host the speed of one core drifts by tens of percent over
minutes, which would swamp the differences between two commits. So a
``ReferenceKernel`` that does not touch wwspot is timed right before
every set-up and pass, each of those times is scaled by the kernel's
reference time over its measured time, and ``setup_s`` and ``pass_s``
are built from the scaled times. The report keeps the wall times
(``setup_wall_s``, ``pass_wall_s``) and the workload's own rates
unscaled.

Traced run (``trace=True``), which gives the per-layer metrics: one
set-up and a cold pass, then untraced and traced passes alternate until
``seconds`` have elapsed; the spans of the traced passes give the layer
metrics and the ratio of the two pass medians is the tracing overhead.

Every pass's outputs are checked; an operation that raised or failed its
check counts into ``failed`` and makes the result incorrect.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy

from . import tracing, workloads
from .workloads import FULL_SIZES, WORKLOADS

END_TO_END_UNITS = {"setup_s": "s", "peak_mb": "MB", "pass_s": "s"}
SETUPS = 3
MIN_PASSES = 3


class ReferenceKernel:
    """A fixed float64 matmul chain shaped like training steps
    (256 x 620 -> 87 -> 400). Each call times it once and returns the
    time; ``times`` keeps every call for the result file."""

    # roughly the kernel's median on a 2.1 GHz Xeon with one BLAS thread;
    # only ratios between runs matter
    REFERENCE_S = 0.135

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((256, 620))
        self.w1 = rng.standard_normal((620, 87))
        self.w2 = rng.standard_normal((87, 400))
        self.times: list[float] = []

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(90):
            np.maximum((self.x @ self.w1) @ self.w2, 0.0)
        self.times.append(time.perf_counter() - start)
        return self.times[-1]

    def scaled(self, seconds: float, kernel_s: float) -> float:
        """``seconds`` measured when the kernel took ``kernel_s``, at the
        kernel's reference speed."""
        return seconds * self.REFERENCE_S / kernel_s


@dataclass
class Result:
    workload: str
    trace: bool
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    pass_times: dict[str, list[float]] = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def line(self) -> str:
        """The one-line JSON summary the benchmark prints last."""
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


class _Passes:
    """Runs passes, checks their outputs and tallies operations."""

    def __init__(self, workload, state, result: Result, kernel: ReferenceKernel):
        self.workload, self.state, self.result, self.kernel = workload, state, result, kernel
        self.reference = None

    def run(self, tracer: tracing.Tracer | None = None, memory: bool = False):
        """One pass; returns (seconds, part seconds, peak bytes, kernel
        seconds just before), or None when the pass raised."""
        kernel_s = self.kernel()
        gc.collect()
        if memory:
            tracemalloc.start()
        try:
            if tracer is None:
                parts, out = self.workload.run(self.state)
            else:
                with tracer:
                    parts, out = self.workload.run(self.state)
        except Exception:
            ops = self.workload.operations(self.state)
            self.result.attempted += len(ops)
            self.result.failed += len(ops)
            self.result.failures.append(traceback.format_exc())
            print(traceback.format_exc(), file=sys.stderr)
            return None
        finally:
            peak = tracemalloc.get_traced_memory()[1] if memory else 0
            if memory:
                tracemalloc.stop()
        if self.reference is None:
            self.reference = out
        for op, failures in self.workload.check(self.state, out, self.reference).items():
            self.result.attempted += 1
            if failures:
                self.result.failed += 1
                self.result.failures.extend(f"{op}: {f}" for f in failures)
        return sum(parts.values()), parts, peak, kernel_s


def _median_parts(passes) -> dict[str, float]:
    return {k: float(np.median([p[1][k] for p in passes])) for k in passes[0][1]}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    sizes=None,
) -> Result:
    """One benchmark run of workload ``name``; scratch files go under
    ``workdir``, which is removed afterwards."""
    sizes = sizes or FULL_SIZES[name]
    workload = WORKLOADS[name](sizes)
    result = Result(name, trace)
    kernel = ReferenceKernel()
    try:
        setup_times, setup_scaled = [], []
        for i in range(1 if trace else SETUPS):
            path = os.path.join(workdir, f"setup-{i}")
            os.makedirs(path)
            kernel_s = kernel()
            start = time.perf_counter()
            state = workload.setup(seed, path)
            setup_times.append(time.perf_counter() - start)
            setup_scaled.append(kernel.scaled(setup_times[-1], kernel_s))
        passes = _Passes(workload, state, result, kernel)
        cold = passes.run()
        if cold is None:
            raise RuntimeError("the cold pass failed")
        cold_s = cold[0]
        setup_wall = float(np.median(setup_times)) + cold_s
        setup_scaled_s = float(np.median(setup_scaled)) + kernel.scaled(cold_s, cold[3])
        timed, traced = [], []
        tracer = tracing.Tracer()
        begin, rounds = time.perf_counter(), 0
        while time.perf_counter() - begin < seconds or rounds < MIN_PASSES:
            rounds += 1
            p = passes.run()
            if p:
                timed.append(p)
            if trace:
                p = passes.run(tracer)
                if p:
                    traced.append(p)
        if not timed or (trace and not traced):
            raise RuntimeError("no pass completed")
        result.pass_times = {
            "untraced": [p[0] for p in timed],
            "traced": [p[0] for p in traced],
            "reference_kernel": kernel.times,
        }
        pass_wall = float(np.median(result.pass_times["untraced"]))
        result.report["setup_s"] = (setup_scaled_s, "s")
        result.report["pass_s"] = (float(np.median([kernel.scaled(p[0], p[3]) for p in timed])), "s")
        result.report["setup_wall_s"] = (setup_wall, "s")
        result.report["cold_pass_wall_s"] = (cold_s, "s")
        result.report["pass_wall_s"] = (pass_wall, "s")
        result.report["reference_kernel_s"] = (float(np.median(kernel.times)), "s")
        if trace:
            overhead = float(np.median(result.pass_times["traced"])) / pass_wall
            units = tracing.metric_units()
            values = tracing.layer_metrics(tracer.spans, tracer.counters, len(traced))
            values[tracing.OVERHEAD_METRIC[0]] = overhead
            result.metrics = {k: (values[k], units[k]) for k in units}
            result.report.update((k, (v, "count")) for k, v in values.items() if k.endswith(".n"))
            result.spans = tracer.spans
        else:
            memory = passes.run(memory=True)
            if memory is None:
                raise RuntimeError("the memory pass failed")
            result.report["peak_mb"] = (memory[2] / 2**20, "MB")
            result.report.update(workload.memory_report(state))
            result.metrics = {k: (result.report[k][0], u) for k, u in END_TO_END_UNITS.items()}
        result.report.update(workload.rates(state, _median_parts(timed)))
        result.report["failed_ops_frac"] = (result.failed / max(result.attempted, 1), "ratio")
        result.env = environment(name, seed, seconds, trace, sizes, len(setup_times))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": None}


def environment(name, seed, seconds, trace, sizes, setups) -> dict:
    """Machine, library and kernel record stored with every result."""
    import wwspot

    src = os.path.dirname(os.path.dirname(os.path.abspath(wwspot.__file__)))
    try:
        from wwspot import _accel
    except ImportError:
        _accel = None
    kernels = {
        k: getattr(getattr(_accel, k, None), "__name__", None)
        for k in ("levenshtein_codes", "image_source_taps")
    }
    return {
        "commit": _git_commit(os.path.dirname(src)),
        "src_sha256": _source_digest(src),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": _blas(),
        "blas_threads": {
            v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_enabled": getattr(_accel, "NUMBA_ENABLED", None),
        "kernels": kernels,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": asdict(sizes),
        "settings": {
            k: getattr(workloads, k)
            for k in (
                "TRAIN_EPOCHS", "DECODE_TRAIN_UTTERANCES", "DECODE_TRAIN_EPOCHS",
                "SCAN_TOP_N", "RIR_MAX_ORDER",
            )
        },
        "model": asdict(workloads.model.SpotterConfig()),
        "setup_repeats": setups,
        "cold_pass_timed": False,
    }
