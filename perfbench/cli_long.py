"""cli-long: the command-line pipeline over long series files.

One chain is five ``linident`` subprocesses in a scratch directory:
simulate -> identify -> identify --overdetermined -> predict -> spectrum,
each over about 1e5 samples, and one request is one command of a chain. The hidden system is continuous with a purely
imaginary spectrum (two rotations conjugated by a random similarity), so the
long series neither blows up nor decays to zero. Only this workload pays
interpreter start-up and imports, parses and writes MB-sized series files,
and runs the per-sample Python loops of ident and dynsys at length.

Every chain runs the same inputs, so every chain must write byte-identical
files; the first chain's model and predicted series must also equal an
in-process read_series/identify/predict on the same file at 17 significant
digits.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from pathlib import Path

import numpy as np

from linident import cli, ident, io
from linident.dynsys import SystemSpec

from common import run_python

ORDER = 4
LENGTH = 100_000
STEP = 0.1
COMMANDS = ("simulate", "identify", "identify-overdetermined", "predict", "spectrum")
OUTPUTS = ("series.txt", "model.json", "model_od.json", "predicted.txt", "spectrum.json")

# ``python -m linident.cli``, plus a last line on standard error giving the
# peak resident set of the command's own address space (VmHWM). getrusage
# cannot give that figure: a child started with vfork, as subprocess does,
# inherits the parent's peak as its starting maximum.
CLI = """import atexit, runpy, sys
def _peak():
    with open("/proc/self/status") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write(f"\\nVmHWM {kib}\\n")
atexit.register(_peak)
runpy.run_module("linident.cli", run_name="__main__", alter_sys=True)
"""


def _csv(values) -> str:
    return ",".join(format(float(v), ".17g") for v in values)


def _tail_values(path: Path, count: int) -> list[float]:
    """Last ``count`` samples of a series file, read from its end."""
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        fh.seek(max(0, fh.tell() - 64 * (count + 1)))
        lines = fh.read().decode("ascii").split()
    return [float(v) for v in lines[-count:]]


def _digests(d: Path) -> list[str]:
    return [hashlib.sha256((d / name).read_bytes()).hexdigest() for name in OUTPUTS]


class Workload:
    name = "cli-long"
    # One request is one command, so that the machine-speed calibration also
    # runs between the commands of a chain; stop only after whole chains.
    align = len(COMMANDS)
    spawns_children = True
    request_is_trial = False

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        w1, w2 = rng.uniform(0.5, 1.0), rng.uniform(1.5, 2.5)
        j = np.zeros((ORDER, ORDER))
        j[0, 1], j[1, 0], j[2, 3], j[3, 2] = w1, -w1, w2, -w2
        t = np.eye(ORDER) + rng.uniform(-0.3, 0.3, (ORDER, ORDER))
        a = t @ j @ np.linalg.inv(t)
        self.spec = SystemSpec("continuous", a, rng.uniform(-1.0, 1.0, ORDER), step=STEP)
        self.x0 = rng.uniform(-1.0, 1.0, ORDER)
        self.workdir = Path(workdir)
        self.system_path = self.workdir / "system.json"
        io.write_system(self.spec, self.system_path)
        self.first = None
        self.command_ms = {c: [] for c in COMMANDS}
        self.peak_kib = 0

    def _argv(self, command: str, d: Path):
        if command == "simulate":
            return ["simulate", "--system", str(self.system_path), f"--x0={_csv(self.x0)}",
                    "--len", str(LENGTH), "--out", str(d / "series.txt")]
        if command == "identify":
            return ["identify", "--series", str(d / "series.txt"), "--n", str(ORDER),
                    "--out", str(d / "model.json")]
        if command == "identify-overdetermined":
            return ["identify", "--series", str(d / "series.txt"), "--n", str(ORDER),
                    "--overdetermined", "--out", str(d / "model_od.json")]
        if command == "predict":
            window = _tail_values(d / "series.txt", ORDER)
            return ["predict", "--model", str(d / "model.json"), f"--seed-window={_csv(window)}",
                    "--steps", str(LENGTH), "--out", str(d / "predicted.txt")]
        return ["spectrum", "--model", str(d / "model_od.json"), "--out", str(d / "spectrum.json")]

    def _chain_dir(self, name: str, i: int) -> Path:
        """The directory chains run in, emptied as each chain starts, so that
        any command can run again on the files the previous ones left."""
        d = self.workdir / name
        if i % len(COMMANDS) == 0:
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir()
        return d

    def run(self, i: int):
        """Command i % 5 of chain i // 5, as a subprocess; returns the chain's
        directory and the exit code."""
        command = COMMANDS[i % len(COMMANDS)]
        d = self._chain_dir("chain", i)
        t0 = time.perf_counter()
        proc = run_python(["-c", CLI, *self._argv(command, d)])
        self.command_ms[command].append((time.perf_counter() - t0) * 1e3)
        if proc.returncode != 0:
            print(f"cli-long: {command} exited {proc.returncode}: {proc.stderr.strip()}")
        else:
            self.peak_kib = max(self.peak_kib, int(proc.stderr.rsplit("VmHWM ", 1)[1]))
        return d, proc.returncode

    def trace_run(self, i: int):
        """The same command in process: one ``cli.main`` call."""
        d = self._chain_dir("replay", i)
        return d, cli.main(self._argv(COMMANDS[i % len(COMMANDS)], d))

    def check(self, i: int, out) -> bool:
        """Each command must exit 0; the last of a chain checks its files."""
        d, code = out
        if code != 0 or i % len(COMMANDS) < len(COMMANDS) - 1:
            return code == 0
        files = _digests(d)
        if self.first is None:
            self.first = files
            return self._matches_in_process(d)
        return files == self.first

    trace_check = check

    def _matches_in_process(self, d: Path) -> bool:
        series = io.read_series(d / "series.txt")
        model = io.dumps(io.model_to_dict(ident.identify(series, ORDER)))
        od = io.dumps(io.model_to_dict(ident.identify(series, ORDER, overdetermined=True)))
        predicted = ident.predict(io.read_model(d / "model.json"), series.values[-ORDER:], LENGTH)
        # 17 significant digits round-trip doubles exactly, so equal text is equal values.
        written = io.read_series(d / "predicted.txt")
        return (model == (d / "model.json").read_text()
                and od == (d / "model_od.json").read_text()
                and written.step == predicted.step
                and np.array_equal(written.values, predicted.values))

    def peak_rss_mb(self) -> float:
        """Peak resident set of the largest CLI command run so far."""
        return self.peak_kib / 1024.0

    def finish(self) -> tuple[int, int]:
        return 0, 0

    def summary(self, times):
        """Chains per second, and the time of one chain: its five commands."""
        chains = [sum(times[k:k + len(COMMANDS)]) for k in range(0, len(times), len(COMMANDS))]
        named = {"cli_chain_s_p50": (float(np.median(chains)), "s", len(chains))}
        return len(chains) / sum(times), [t * 1e3 for t in chains], named

    def layer_metrics(self, times) -> dict:
        return {f"cli.{c}.ms_p50": float(np.median(v)) for c, v in self.command_ms.items() if v}
