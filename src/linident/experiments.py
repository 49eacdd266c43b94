"""Seeded Monte Carlo estimators for the almost-sure identifiability claims.

Each trial draws (c, A, x0) uniformly from a box and checks one genericity
property. Uniform-on-box stands in for the Lebesgue-induced law: it is
absolutely continuous with respect to Lebesgue measure, so full-measure
events keep probability 1.

Draws come from a counter-based generator (Philox, Salmon et al., SC'11)
keyed on the seed. Each counter value yields 4 doubles, and trial i owns the
``stride = ceil((2n + n*n) / 4)`` counter values that follow ``i * stride``:
its draw depends only on (seed, i), not on the block it is drawn in or on the
trial count. So one generator call draws a whole block, any trial can be
regenerated on its own (``draw_sample``), and reports are bit-reproducible.

Trials are evaluated in blocks stacked into (T, n) and (T, n, n) arrays:
each kernel runs once per block, and every trial gets the outcome it gets
when evaluated alone (``evaluate_property`` is the block of one). A block
holds ``_block_trials(n)`` draws, sized by matrix entries: as many as 128
trials hold at n = 12, and never fewer than 128 trials. Since a trial's
draw and outcome do not depend on its block, neither does any report. Each
property decides a block as one int code array indexing OUTCOMES; a
trial's diagnostics dict is built only when it is reported.

A draw is judged after division by its box's 2^e, 2^(e-1) < max(|lo|, |hi|)
<= 2^e: exact, once per box, before any product can overflow or underflow.
A keeps its scale for end-to-end-continuous, whose step acts on it. So the
success rule rel <= success_tol * max(1, |truth|) applies to A / 2^e.

Floating-point pathology (ill conditioning, overflow, pipeline errors) is
counted as ``numerical_rejection``, a third outcome kept separate from
mathematical failure: the underlying claims are exact-arithmetic statements
and must not be falsified by rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatch
from .dynsys import _iterate, krylov_matrix, observability_matrix
from .ident import SINGULAR_CONDITION_CAP, _cap_exceeded, _hankel, _lu_solve
from .numkit import (DEFAULT_RANK_TOL, _as_vector, _cond_bracket, _positive, char_poly,
                     condition_estimate, discriminant, mat_exp, numerical_rank)

SUCCESS = "success"
FAILURE = "failure"
NUMERICAL_REJECTION = "numerical_rejection"
OUTCOMES = (SUCCESS, FAILURE, NUMERICAL_REJECTION)  # indexed by the outcome codes 0, 1, 2

PROPERTIES = (
    "distinct-eigenvalues",
    "observable",
    "krylov-independent",
    "end-to-end-identifiable",
    "end-to-end-continuous",
)

CONTINUOUS_STEP = 0.01
DISCRIMINANT_FLOOR = 1e-12

__all__ = [
    "FAILURE",
    "NUMERICAL_REJECTION",
    "PROPERTIES",
    "SUCCESS",
    "ExperimentReport",
    "SamplingBox",
    "TrialConfig",
    "draw_sample",
    "evaluate_property",
    "mc_estimate",
]


@dataclass(frozen=True)
class SamplingBox:
    """Every sampled scalar is drawn uniformly from [lo, hi]."""

    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        _as_vector([self.lo, self.hi], what="box bounds")
        if not self.lo < self.hi:
            raise ValueError("box needs lo < hi")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError("box width hi - lo must be finite")


@dataclass(frozen=True)
class TrialConfig:
    """Dimension, trial count, seed and thresholds for one experiment; draws
    are judged divided by the box's 2^e, so ``success_tol`` applies to A / 2^e."""

    n: int
    trials: int
    seed: int = 0
    box: SamplingBox = field(default_factory=SamplingBox)
    success_tol: float = 1e-6
    cond_cap: float = SINGULAR_CONDITION_CAP

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _positive(self.success_tol, "success_tol")
        if not self.cond_cap > 1:
            raise ValueError("cond_cap must exceed 1")
        if self.cond_cap > SINGULAR_CONDITION_CAP:  # _end_to_end rejects every trial above it
            raise ValueError(f"cond_cap must not exceed {SINGULAR_CONDITION_CAP:g}")


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated outcome counts for one property."""

    property: str
    n: int
    trials: int
    successes: int
    failures: int
    numerical_rejections: int
    seed: int
    box: SamplingBox
    success_tol: float
    cond_cap: float
    worst_cases: tuple = ()

    @property
    def decided(self) -> int:
        """Trials not numerically rejected: the estimate's denominator."""
        return self.trials - self.numerical_rejections

    @property
    def estimate(self) -> float | None:
        """Successes over decided trials; None when no trial was decided."""
        return self.successes / self.decided if self.decided else None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "decided": self.decided, "estimate": self.estimate, "box": [self.box.lo, self.box.hi],
            "sampling_law": "uniform-on-box", "worst_cases": list(self.worst_cases)}


def draw_sample(config: TrialConfig, trial_index: int):
    """Deterministic (c, A, x0) draw for one trial: the block of one.

    The draw is the first n + n*n + n doubles of the trial's own Philox
    counter range (c, then A row by row, then x0), keyed on (seed,
    trial_index) only. So any trial can be regenerated in isolation, and it
    is bit-equal to the same trial drawn inside ``mc_estimate``'s blocks.
    """
    c, a, x0 = _draw_block(config, trial_index, 1)
    return c[0], a[0], x0[0]


def _draw_block(config: TrialConfig, start: int, count: int):
    """Stacked (c, A, x0) of trials start .. start+count-1 from one
    generator call: shapes (count, n), (count, n, n) and (count, n)."""
    if not 0 <= start < start + count <= config.trials:
        raise ValueError(f"trials {start}..{start + count - 1} out of range "
                         f"for {config.trials} trials")
    n = config.n
    stride = -(-(2 * n + n * n) // 4)  # Philox counter values per trial, 4 doubles each
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed),
                                               counter=start * stride))
    draw = rng.uniform(config.box.lo, config.box.hi, (count, 4 * stride))
    return draw[:, :n], draw[:, n:n + n * n].reshape(count, n, n), draw[:, n + n * n:2 * n + n * n]


def evaluate_property(prop: str, c, a, x0, config: TrialConfig):
    """(outcome, diagnostics) of one draw over the box's 2^e; never raises on pipeline errors."""
    codes, diagnostics = _evaluate(prop, *(np.asarray(v, dtype=float)[None] for v in (c, a, x0)),
                                   config)
    return OUTCOMES[codes[0]], diagnostics(0)


def _evaluate(prop: str, c, a, x0, config: TrialConfig):
    """Outcome codes (indices into OUTCOMES) of T stacked draws, and trial
    i's diagnostics builder: c and x0 of shape (T, n), a of shape (T, n, n),
    with n = config.n.

    Each step runs once per block, on the trials whose outcome it can still
    decide: the SVD only where the LU bracket ``_cond_bracket`` leaves a
    rank or the cap undecided, the solve and the truth polynomial only
    within the cap. A trial whose intermediate results overflow is a
    numerical rejection with error "NonFinite"; a trial whose Hankel window
    exceeds the condition cap is rejected before the solve. So no trial can
    make the block raise.
    """
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}")
    c, a, x0 = (np.asarray(v, dtype=float) for v in (c, a, x0))
    n = config.n
    if a.shape[1:] != (n, n) or c.shape != (len(a), n) or x0.shape != c.shape:
        raise DimensionMismatch(f"draws of shapes {c.shape}, {a.shape}, {x0.shape} "
                                f"for n={n}")
    # the box's 2^e, 2^(e-1) < max(|lo|, |hi|) <= 2^e; e = 0 for (-1, 1)
    mantissa, e = math.frexp(max(abs(config.box.lo), abs(config.box.hi)))
    e -= mantissa == 0.5
    if e:
        c, x0 = np.ldexp(c, -e), np.ldexp(x0, -e)
        a = a if prop == "end-to-end-continuous" else np.ldexp(a, -e)
    with np.errstate(over="ignore", invalid="ignore"):
        if prop == "distinct-eigenvalues":
            return _distinct_eigenvalues(a, n)
        if prop == "observable":
            return _full_rank(observability_matrix(a, c), "observability matrix")
        if prop == "krylov-independent":
            return _full_rank(krylov_matrix(a, x0), "Krylov matrix")
        return _end_to_end(prop, c, a, x0, config)


def _non_finite(what: str) -> dict:
    return {"error": "NonFinite", "message": f"{what} is not finite"}


def _distinct_eigenvalues(a, n: int):
    coeffs = char_poly(a)
    scale = np.maximum(1.0, np.abs(coeffs).max(axis=-1)) ** (2 * n - 2)
    finite = np.isfinite(coeffs).all(axis=-1) & np.isfinite(scale)
    d = np.ones(len(a))
    if n >= 2:
        d[finite] = discriminant(coeffs[finite])
        finite &= np.isfinite(d)
    codes = np.where(finite, np.abs(d) <= DISCRIMINANT_FLOOR * scale, 2)
    return codes, lambda i: ({"discriminant": float(d[i])} if finite[i]
                             else _non_finite("discriminant"))


def _full_rank(m, what: str):
    finite = np.isfinite(m).all(axis=(-2, -1))
    rank = np.full(len(m), m.shape[-1])
    # cond <= 1/(2 tol) proves full rank past the SVD's p(n) eps cond error
    band = finite.copy()
    band[finite] = _cond_bracket(m[finite])[1] > 0.5 / DEFAULT_RANK_TOL
    rank[band] = numerical_rank(m[band])
    codes = np.where(finite, rank != m.shape[-1], 2)
    return codes, lambda i: {"rank": int(rank[i])} if finite[i] else _non_finite(what)


def _end_to_end(prop: str, c, a, x0, config: TrialConfig):
    n, cap = config.n, config.cond_cap
    sampled = a if prop == "end-to-end-identifiable" else mat_exp(a, CONTINUOUS_STEP)
    y = _iterate(sampled, None, c, x0, 2 * n)
    finite = np.isfinite(y).all(axis=-1) & np.isfinite(sampled).all(axis=(-2, -1))
    h = _hankel(y[finite], 0, n)
    # a factor 2 off the cap decides cond <= cap as the SVD does; only the band between runs it
    lo, hi = _cond_bracket(h)
    within = hi <= cap / 2
    band = ~within & (lo <= 2 * cap)
    within[band] = condition_estimate(h[band]) <= cap
    judged = np.zeros(len(a), dtype=bool)
    judged[finite] = within  # a singular window is over cap <= SINGULAR_CONDITION_CAP too
    sol = _lu_solve(h[within], y[finite][within, n:])
    truth = char_poly(sampled[judged])
    rel = np.full(len(a), np.nan)
    rel[judged] = np.abs(-sol - truth).max(axis=-1) / np.maximum(1.0, np.abs(truth).max(axis=-1))
    codes = np.where(judged & np.isfinite(rel), rel > config.success_tol, 2)

    def diagnostics(i: int) -> dict:
        if not finite[i]:
            return _non_finite("simulated series")
        cond = condition_estimate(_hankel(y[i], 0, n))
        if cond > SINGULAR_CONDITION_CAP:  # where identify raises SingularHankel
            return {"error": "SingularHankel", "message": str(_cap_exceeded("Hankel", cond))}
        if not judged[i]:
            return {"condition_estimate": float(cond)}
        if not np.isfinite(rel[i]):
            return _non_finite("characteristic polynomial")
        return {"relative_coeff_error": float(rel[i]), "condition_estimate": float(cond)}

    return codes, diagnostics


def _block_trials(n: int) -> int:
    """Trials stacked per kernel call at dimension n: 128 * 144 matrix
    entries, as in the n = 12 block of 128, so small matrices share each
    call's fixed dispatch cost; past n = 12, 128 trials, as before."""
    return max(128, 128 * 144 // (n * n))


def mc_estimate(prop: str, config: TrialConfig) -> ExperimentReport:
    """Evaluate the trials in index-ordered blocks of ``_block_trials(n)``
    stacked draws and aggregate the outcome counts.

    ``worst_cases`` keeps the first ten failures in trial order.
    """
    counts = np.zeros(len(OUTCOMES), dtype=int)
    worst = []
    block = _block_trials(config.n)
    for start in range(0, config.trials, block):
        c, a, x0 = _draw_block(config, start, min(block, config.trials - start))
        codes, diagnostics = _evaluate(prop, c, a, x0, config)
        counts += np.bincount(codes, minlength=len(OUTCOMES))
        for j in np.flatnonzero(codes == 1)[:10 - len(worst)]:
            worst.append({"trial_index": start + int(j), "c": c[j].tolist(),
                          "A": a[j].tolist(), "x0": x0[j].tolist(),
                          "diagnostics": diagnostics(j)})
    successes, failures, rejections = counts.tolist()
    return ExperimentReport(property=prop, successes=successes, failures=failures,
                            numerical_rejections=rejections, worst_cases=tuple(worst),
                            **vars(config))
