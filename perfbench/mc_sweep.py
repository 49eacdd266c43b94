"""mc-sweep: the paper's measure-1 Monte Carlo experiment.

One request is one ``experiments.mc_estimate`` call (a cell): one property at
one n, TRIALS trials, box [-1, 1], default tolerance and condition cap. A
round visits all 20 cells, and its wall time is the latency reported. Round
r draws with a seed derived from (workload seed, r), so every round samples
fresh systems. Draws come only from ``draw_sample``: nothing is filtered, so
the known false failures of distinct-eigenvalues at n >= 8 and the
rejections of end-to-end-continuous at n >= 4 stay in the figures.
"""

from __future__ import annotations

import numpy as np

from linident import experiments, io

NS = (2, 4, 8, 12)
TRIALS = 200
CELLS = tuple((prop, n) for prop in experiments.PROPERTIES for n in NS)


class Workload:
    name = "mc-sweep"
    align = len(CELLS)  # stop only after whole rounds, so the cell mix is fixed
    spawns_children = False
    request_is_trial = True  # trial spans take their id from draw_sample

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.counts = {}      # request -> (failures, numerical rejections)
        self.round_zero = {}  # round-0 request -> report document

    def config(self, i: int) -> tuple[str, experiments.TrialConfig]:
        prop, n = CELLS[i % len(CELLS)]
        round_seed = int(np.random.SeedSequence([self.seed, i // len(CELLS)]).generate_state(1)[0])
        return prop, experiments.TrialConfig(n=n, trials=TRIALS, seed=round_seed)

    def run(self, i: int):
        prop, config = self.config(i)
        return experiments.mc_estimate(prop, config)

    trace_run = run

    def check(self, i: int, report) -> bool:
        if i < len(CELLS):
            self.round_zero[i] = io.dumps(report.to_dict())
        self.counts[i] = (report.failures, report.numerical_rejections)
        counts = report.successes + report.failures + report.numerical_rejections
        return counts == report.trials == TRIALS

    trace_check = check

    def finish(self) -> tuple[int, int]:
        """Re-run one round-0 cell with the same seed; its report document
        must be byte-identical. Returns (attempted, failed)."""
        i = self.seed % len(CELLS)
        return 1, int(io.dumps(self.run(i).to_dict()) != self.round_zero[i])

    def summary(self, times):
        """Trials per second, and the latency of one full round: the wait for
        the whole measure-1 table at TRIALS trials per cell."""
        done = [self.counts[i] for i in range(len(times)) if i in self.counts]
        trials = TRIALS * len(done)
        round_ms = [sum(times[k:k + len(CELLS)]) * 1e3 for k in range(0, len(times), len(CELLS))]
        named = {
            "mc_trials_per_s": (trials / sum(times), "1/s", trials),
            "mc_failure_frac": (sum(f for f, _ in done) / trials, "ratio", trials),
            "mc_rejection_frac": (sum(r for _, r in done) / trials, "ratio", trials),
        }
        return trials / sum(times), round_ms, named

    def layer_metrics(self, times) -> dict:
        """Per-cell throughput and per-property decided share, untraced."""
        out = {}
        decided = dict.fromkeys(experiments.PROPERTIES, 0)
        total = dict.fromkeys(experiments.PROPERTIES, 0)
        for k, (prop, n) in enumerate(CELLS):
            requests = range(k, len(times), len(CELLS))
            out[f"experiments.{prop}.n{n}.trials_per_s"] = (
                TRIALS * len(requests) / sum(times[i] for i in requests))
            decided[prop] += sum(TRIALS - self.counts[i][1] for i in requests)
            total[prop] += TRIALS * len(requests)
        for prop in experiments.PROPERTIES:
            out[f"experiments.{prop}.decided_frac"] = decided[prop] / total[prop]
        return out
