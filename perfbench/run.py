#!/usr/bin/env python3
"""linident benchmark.

    python3 perfbench/run.py --workload {mc-sweep,ident-short,cli-long}
                             --seed N --seconds S --trace {0,1}

Runs one workload against src/ of this checkout as a closed loop: one client
in one process pinned to one CPU, no worker threads, one BLAS thread, the
next request sent only when the previous one has returned. Every input comes from --seed.
Every output is checked; a request that raises, exits non-zero or fails its
check counts as failed.

--trace 0 times the loop for S seconds and reports the end-to-end metrics,
with timings scaled to a reference machine speed (see common.CAL_REF_S).
--trace 1 replays the workload for S seconds, each request twice: untraced
and with span tracing around the library's public functions. It reports
the per-layer metrics and the tracing overhead; the spans are written to
.perfbench_out/ when the run ends.

Each metric is printed on its own line as ``name = value unit (n=samples)``,
and the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. metrics.py lists every metric and,
for the per-layer ones, which end-to-end metric they should move.
"""

from __future__ import annotations

import os

from common import BLAS_THREAD_VARS

for _var in BLAS_THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (CAL_REF_S, OUT, SRC, calibration_s, environment, peak_rss_mb, pin_to_one_cpu,
                    run_python, tail_quantile)
from metrics import END_TO_END, PER_LAYER

SETUP_REPEATS = 5
STARTUP_REPEATS = 5
TRACE_CHAINS = 3
CALIBRATE_EVERY_S = 0.25
WORKLOADS = ("mc-sweep", "ident-short", "cli-long")


@dataclass
class Loop:
    times: list = field(default_factory=list)
    failed: int = 0
    scale: list = field(default_factory=list)  # per request: CAL_REF_S / calibration time

    def step(self, run, check, i: int) -> None:
        """Time run(i), then check its output untimed. Outputs are not kept,
        so the benchmark's own memory does not grow with the request count."""
        t0 = time.perf_counter()
        try:
            out = run(i)
            elapsed = time.perf_counter() - t0
            ok = check(i, out)
        except Exception:  # a request that raises counts as failed; keep measuring
            traceback.print_exc()
            elapsed, ok = time.perf_counter() - t0, False
        self.times.append(elapsed)
        self.failed += not ok

    def scaled(self) -> list:
        return [t * f for t, f in zip(self.times, self.scale)]


def closed_loop(run, check, seconds=None, align=1, count=None) -> Loop:
    """Request 0, 1, ... one at a time. Stops after ``count`` requests, or
    once ``seconds`` have passed and the count is a multiple of ``align``.
    The calibration kernel runs before the first request, then after every
    CALIBRATE_EVERY_S of requests and after the last; each request is scaled
    by the mean of the two calibrations around it."""
    loop = Loop()
    start = time.perf_counter()
    marks = [(0, calibration_s())]
    last = time.perf_counter()
    i = 0
    while i < count if count is not None else (time.perf_counter() - start < seconds or i % align):
        loop.step(run, check, i)
        i += 1
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            marks.append((i, calibration_s()))
            last = time.perf_counter()
    if marks[-1][0] != i:
        marks.append((i, calibration_s()))
    for (a, cal_a), (b, cal_b) in zip(marks, marks[1:]):
        loop.scale.extend([2.0 * CAL_REF_S / (cal_a + cal_b)] * (b - a))
    return loop


def load_workload(name: str):
    if name == "mc-sweep":
        import mc_sweep as module
    elif name == "ident-short":
        import ident_short as module
    else:
        import cli_long as module
    return module.Workload


def python_ms(code: str) -> float:
    """Median wall time of a fresh ``python3 -c code``, in ms."""
    samples = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        proc = run_python(["-c", code])
        samples.append((time.perf_counter() - t0) * 1e3)
        if proc.returncode != 0:
            raise RuntimeError(f"python3 -c {code!r} failed: {proc.stderr.strip()}")
    return float(np.median(samples))


def set_up(workload_cls, seed: int, workdir: Path):
    """Median over SETUP_REPEATS of (fresh interpreter importing linident +
    generating the workload's inputs), each scaled by the calibrations
    before and after it; and the last workload built."""
    samples = []
    cal_before = calibration_s()
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = run_python(["-c", "import linident"])
        if proc.returncode != 0:
            raise RuntimeError(f"import linident failed: {proc.stderr.strip()}")
        d = workdir / f"setup{k}"
        d.mkdir()
        workload = workload_cls(seed, d)
        elapsed = time.perf_counter() - t0
        cal_after = calibration_s()
        samples.append(elapsed * 2.0 * CAL_REF_S / (cal_before + cal_after))
        cal_before = cal_after
    return float(np.median(samples)), workload


def show(name: str, value, unit: str, n=None) -> None:
    print(f"{name} = {value} {unit}" + (f" (n={n})" if n is not None else ""))


def end_to_end(workload, args, workdir: Path):
    setup_s, w = set_up(workload, args.seed, workdir)
    loop = closed_loop(w.run, w.check, seconds=args.seconds, align=w.align)
    attempted, failed = w.finish()
    attempted += len(loop.times)
    failed += loop.failed
    ops_per_s, latency_ms, named = w.summary(loop.scaled())
    # On cli-long the CLI commands are the system under test, so their peak
    # counts, not that of the benchmark process checking their output.
    peak = w.peak_rss_mb() if w.spawns_children else peak_rss_mb()
    values = {"ops_per_s": ops_per_s, "latency_ms_p50": float(np.median(latency_ms)),
              "peak_rss_mb": peak, "setup_s": setup_s}
    metrics = {name: (values[name], unit) for name, unit, _better in END_TO_END}
    for name, (value, unit) in metrics.items():
        show(name, value, unit, len(latency_ms) if name.startswith("latency") else None)
    tail = tail_quantile(len(latency_ms))
    if tail is not None:
        show(f"latency_ms_{tail[0]}", float(np.quantile(latency_ms, tail[1])), "ms", len(latency_ms))
    for name, (value, unit, n) in named.items():
        show(name, value, unit, n)
    show("failed_frac", failed / attempted, "ratio", attempted)
    wall_ops_per_s, wall_latency_ms, _ = w.summary(loop.times)
    show("wall_clock.ops_per_s", wall_ops_per_s, "1/s")
    show("wall_clock.latency_ms_p50", float(np.median(wall_latency_ms)), "ms", len(wall_latency_ms))
    show("machine_speed", float(np.median(loop.scale)), "x", len(loop.scale))
    show("peak_rss_mb.benchmark_process", peak_rss_mb(), "MB")
    return metrics, attempted, failed


def per_layer(workload, args, workdir: Path):
    from tracing import Tracer, span_metrics  # imports linident, so only once src/ is on the path

    w = workload(args.seed, workdir)
    values = {"cli.interp_start_ms": python_ms("pass")}
    values["cli.import_ms"] = python_ms("import linident.cli") - values["cli.interp_start_ms"]
    attempted = failed = 0
    if w.spawns_children:
        chains = closed_loop(w.run, w.check, count=TRACE_CHAINS * w.align)
        attempted, failed = len(chains.times), chains.failed
    # warm-up, so lazy set-up is not timed
    closed_loop(w.trace_run, w.trace_check, count=w.align)
    # Each request runs untraced and traced, back to back, so that drift in
    # the machine's speed does not land in the overhead figure; which goes
    # first alternates, as the second run finds the allocator and file
    # cache warm.
    tracer = Tracer()
    plain, traced = Loop(), Loop()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds or i % w.align:
        for loop in (plain, traced) if i % 2 == 0 else (traced, plain):
            if loop is traced:
                tracer.current_request = -1 if w.request_is_trial else i
                tracer.install()
            loop.step(w.trace_run, w.trace_check, i)
            tracer.uninstall()
        i += 1
    extra_attempted, extra_failed = w.finish()
    attempted += len(plain.times) + len(traced.times) + extra_attempted
    failed += plain.failed + traced.failed + extra_failed
    values.update(span_metrics(tracer))
    values.update(w.layer_metrics(plain.times))
    values["trace.overhead_pct"] = (sum(traced.times) / sum(plain.times) - 1.0) * 100.0
    spans_path = OUT / f"spans-{w.name}-seed{args.seed}.jsonl"
    tracer.dump(spans_path)
    print(f"spans written to {spans_path.relative_to(OUT.parent)}")
    metrics = {}
    for name, unit, _better, _moves in PER_LAYER:
        metrics[name] = (values.get(name, 0), unit)
        show(name, metrics[name][0], unit)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import linident
    except ImportError as exc:
        print(f"perfbench: cannot import linident from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(linident.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: linident resolved to {linident.__file__}, not {SRC}", file=sys.stderr)
        return 2

    pin_to_one_cpu()
    print("env", json.dumps(environment(), sort_keys=True))
    workload = load_workload(args.workload)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
