"""Helpers shared by the workloads: timing statistics, subprocess set-up and
the environment record printed with every result."""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch space for temporary files and span dumps; listed in .gitignore.
OUT = ROOT / ".perfbench_out"

# numpy wheels link scipy-openblas, which would start up to 64 threads per
# process. One BLAS thread keeps the closed loop single-threaded, in this
# process and in every subprocess it starts.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SUBPROCESS_TIMEOUT_S = 60  # a chain command takes about a second

# The machines this runs on are shared: the same work can take twice as long
# when other tenants are busy. Timings are therefore scaled to a reference
# machine speed, measured by a fixed calibration kernel that runs next to the
# work: a timing t becomes t * CAL_REF_S / (calibration time around it). The
# kernel uses no linident code, so a change to the library cannot move it.
CAL_REF_S = 0.025
_CAL_REPS = 600


def calibration_s() -> float:
    """Wall time of the calibration kernel: small numpy calls and an
    interpreted loop, the mix the library spends its time in."""
    import numpy as np

    base = np.linspace(-1.0, 1.0, 64).reshape(8, 8) + np.eye(8)
    a = base.copy()
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(_CAL_REPS):
        acc += float(np.linalg.svd(a, compute_uv=False)[0])
        a = a @ base / np.abs(a).max()
        acc += float(np.polyval(a[0], 0.5))
        for j in range(40):
            acc += j * 0.5
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration kernel diverged")
    return elapsed


def pin_to_one_cpu() -> int:
    """Run this process, and the subprocesses it starts, on one CPU, so that
    the calibration kernel measures the CPU the work runs on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    """Environment for subprocesses: this checkout's src/ first, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_python(args) -> subprocess.CompletedProcess:
    """Run ``python3 <args>`` to completion; raises on timeout after killing it."""
    return subprocess.run([sys.executable, *args], env=child_env(),
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
                          check=False)


def tail_quantile(n: int):
    """(label, q) of the highest of p90/p99/p999 with at least ten samples
    beyond it, or None."""
    best = None
    for label, q in (("p90", 0.9), ("p99", 0.99), ("p999", 0.999)):
        if n * (1.0 - q) >= 10:
            best = label, q
    return best


def peak_rss_mb() -> float:
    """Peak resident set of this process; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
    }
