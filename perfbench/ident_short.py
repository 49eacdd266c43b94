"""ident-short: many small identification problems at the paper's data budget.

One request is the full pipeline on one problem: identify (2n samples) or
identify_affine (2n+1), estimate_order, verify_conjugacy, assess_stability,
recover_continuous_spectrum for continuous problems, and a short predict.
estimate_order needs one extra window beyond the budget to see the rank drop
(two for affine series, whose homogeneous order is n+1), so it gets a longer
prefix of the same trajectory.

The pool is stratified: PER_CELL problems for each (kind, n), so the mix of
sizes does not depend on the seed, and shuffled, so that a run which stops
part-way through a pass still sees that mix. Problem cost still varies with
the draw (root-finder sweeps, for one); PER_CELL is large enough to average
that out. Inputs are rejection-sampled with the library's own
``condition_estimate`` so that every problem is well-posed; the first problem
is the Fibonacci smoke case.
Continuous problems use n <= 4 and STEP = 0.5: at step 0.01 every n >= 4
window exceeds the condition cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from linident import dynsys, ident, numkit
from linident.dynsys import SystemSpec, TimeSeries

KINDS = (("discrete", range(2, 13)), ("affine", range(2, 13)), ("continuous", range(2, 5)))
PER_CELL = 40
STEP = 0.5
HORIZON = 5
COND_LIMIT = 1e8
STABILITY_GAP = 1e-3  # spectral radius kept this far from 1 so the class is unambiguous
COEFF_RTOL = 1e-6
OUTPUT_RTOL = 1e-6


@dataclass
class Problem:
    kind: str
    n: int
    sys: SystemSpec | None
    budget: TimeSeries        # what identify / identify_affine sees
    order_series: TimeSeries  # budget plus the windows estimate_order needs
    order: int
    seed_window: np.ndarray
    future: np.ndarray        # true continuation after the budget
    truth: np.ndarray | None  # char_poly_of_sampled coefficients
    offset: float | None
    stability: str | None
    spectrum: np.ndarray | None


def _stability(rho: float) -> str:
    return "asymptotically-stable" if rho < 1.0 else "unstable"


def _draw(rng, kind: str, n: int) -> Problem | None:
    """One candidate problem, or None when it fails the well-posedness screen."""
    a = rng.uniform(-1.0, 1.0, (n, n))
    c = rng.uniform(-1.0, 1.0, n)
    x0 = rng.uniform(-1.0, 1.0, n)
    if kind == "continuous":
        spec = SystemSpec("continuous", a, c, step=STEP)
        eig = np.linalg.eigvals(a)
        rho = float(np.exp(STEP * eig.real.max()))
    else:
        b = rng.uniform(-1.0, 1.0, n) if kind == "affine" else None
        spec = SystemSpec("discrete", a, c, b=b)
        rho = float(np.abs(np.linalg.eigvals(a)).max())
    if abs(rho - 1.0) < STABILITY_GAP:
        return None
    budget_len = 2 * n + 1 if kind == "affine" else 2 * n
    order = n + 1 if kind == "affine" else n
    length = max(budget_len, 2 * order + 1) + HORIZON
    if kind == "continuous":
        y = dynsys.sample_continuous(spec, x0, length).values
    else:
        y = dynsys.simulate_discrete(spec, x0, length).values
    # Well-posed means: the identification window and every leading Hankel
    # up to the order are well conditioned. estimate_order returns the first
    # numerical rank drop, so a nearly singular intermediate Hankel would make
    # it report a smaller order, as its docstring defines.
    series = TimeSeries(y)
    windows = [ident.hankel(series, 0, m) for m in range(1, order + 1)]
    if kind == "affine":
        windows.append(np.column_stack([np.lib.stride_tricks.sliding_window_view(y[:2 * n], n),
                                        np.ones(n + 1)]))
    if any(numkit.condition_estimate(w) >= COND_LIMIT for w in reversed(windows)):
        return None
    step = STEP if kind == "continuous" else None
    return Problem(
        kind=kind, n=n, sys=spec,
        budget=TimeSeries(y[:budget_len], step=step),
        order_series=TimeSeries(y[:2 * order + 1], step=step),
        order=order,
        seed_window=y[budget_len - n:budget_len],
        future=y[budget_len:budget_len + HORIZON],
        truth=dynsys.char_poly_of_sampled(spec).coeffs,
        offset=dynsys.affine_offset(a, spec.b, c) if kind == "affine" else None,
        stability=_stability(rho),
        spectrum=eig if kind == "continuous" else None,
    )


def _fibonacci() -> Problem:
    return Problem(kind="fibonacci", n=2, sys=None, budget=TimeSeries([1, 1, 2, 3, 5]),
                   order_series=TimeSeries([1, 1, 2, 3, 5]), order=2,
                   seed_window=np.array([5.0, 8.0]), future=np.array([13.0, 21.0, 34.0]),
                   truth=None, offset=None, stability=None, spectrum=None)


def _close(got, want, rtol: float) -> bool:
    got = np.asarray(got)
    want = np.asarray(want)
    return bool(np.abs(got - want).max() <= rtol * max(1.0, float(np.abs(want).max())))


def _spectrum_error(found, expected) -> float:
    """Largest distance after greedily pairing each found value with the
    nearest unused expected one."""
    remaining = list(expected)
    worst = 0.0
    for z in found:
        j = int(np.argmin([abs(z - w) for w in remaining]))
        worst = max(worst, abs(z - remaining.pop(j)))
    return worst


class Workload:
    name = "ident-short"
    align = 1
    spawns_children = False
    request_is_trial = False

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(seed)
        pool = []
        for kind, ns in KINDS:
            for n in ns:
                cell = []
                while len(cell) < PER_CELL:
                    p = _draw(rng, kind, n)
                    if p is not None:
                        cell.append(p)
                pool.extend(cell)
        self.pool = [_fibonacci()] + [pool[j] for j in rng.permutation(len(pool))]

    def run(self, i: int):
        p = self.pool[i % len(self.pool)]
        if p.kind == "fibonacci":
            model = ident.identify(p.budget, 2).model
            return {"model": model, "predicted": ident.predict(model, p.seed_window, 3).values}
        if p.kind == "affine":
            report = ident.identify_affine(p.budget, p.n)
        else:
            report = ident.identify(p.budget, p.n)
        model = report.model
        out = {
            "model": model,
            "order": ident.estimate_order(p.order_series, p.order),
            "conjugacy": ident.verify_conjugacy(model, p.sys),
            "stability": ident.assess_stability(model),
            "predicted": ident.predict(model, p.seed_window, HORIZON).values,
        }
        if p.kind == "continuous":
            out["spectrum"] = ident.recover_continuous_spectrum(model)
        return out

    trace_run = run

    def check(self, i: int, out) -> bool:
        p = self.pool[i % len(self.pool)]
        model = out["model"]
        if p.kind == "fibonacci":
            return (tuple(model.coeffs) == (-1.0, -1.0)
                    and tuple(out["predicted"]) == (13.0, 21.0, 34.0))
        ok = (_close(model.coeffs, p.truth, COEFF_RTOL)
              and out["order"] == p.order
              and out["conjugacy"].coeff_error == float(np.abs(model.coeffs - p.truth).max())
              and out["stability"] == p.stability
              and _close(out["predicted"], p.future, OUTPUT_RTOL))
        if p.kind == "affine":
            ok = ok and _close([model.offset], [p.offset], COEFF_RTOL)
        if p.kind == "continuous":
            spectrum = out["spectrum"]
            scale = max(1.0, float(np.abs(p.spectrum).max()))
            ok = (ok and not spectrum.aliasing_risk
                  and _spectrum_error(spectrum.values, p.spectrum) <= COEFF_RTOL * scale)
        return ok

    trace_check = check

    def finish(self) -> tuple[int, int]:
        return 0, 0

    def summary(self, times):
        ms = [t * 1e3 for t in times]
        named = {"ident_problems_per_s": (len(times) / sum(times), "1/s", len(times))}
        return len(times) / sum(times), ms, named

    def layer_metrics(self, times) -> dict:
        return {}
