"""Prediction-model identification from scalar time series.

The pipeline: slice Hankel windows out of the series, solve the window
equations for the recurrence coefficients, wrap them as a companion-form
prediction model, then predict (past a length, by simulating its companion
realisation), classify stability, certify conjugacy with a known system, or
map the model back to a continuous-time spectrum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientData,
    MissingStep,
    NoOrderFound,
    SingularHankel,
    ZeroRoot,
)
from . import dynsys
from .dynsys import SystemSpec, TimeSeries, _require_finite, char_poly_of_sampled
from .numkit import (
    MonicPolynomial,
    _as_vector,
    _binary_exponent,
    _dd,
    _dd_matmul,
    _positive,
    condition_estimate,
    numerical_rank,
    poly_roots,
    sort_complex_lex,
)

SINGULAR_CONDITION_CAP = 1e10
STABILITY_MARGIN = 1e-8
ALIASING_MARGIN = 1e-6
RANK_BLOCK = 8  # leading Hankels ranked per stacked call in estimate_order

__all__ = [
    "ConjugacyReport",
    "ContinuousSpectrum",
    "IdentReport",
    "PredictionModel",
    "assess_stability",
    "estimate_order",
    "hankel",
    "identify",
    "identify_affine",
    "predict",
    "recover_continuous_spectrum",
    "verify_conjugacy",
]


@dataclass(frozen=True)
class PredictionModel:
    """Recurrence y_{m+n} = -a_0 y_m - ... - a_{n-1} y_{m+n-1} (+ offset)."""

    coeffs: np.ndarray
    offset: float | None = None
    step: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_vector(self.coeffs, what="coefficients"))
        if self.offset is not None and not math.isfinite(self.offset):
            raise ValueError("offset must be finite")
        if self.step is not None:
            _positive(self.step, "step")

    @property
    def order(self) -> int:
        return self.coeffs.size

    @property
    def polynomial(self) -> MonicPolynomial:
        return MonicPolynomial(self.coeffs)

    @property
    def companion(self) -> np.ndarray:
        """Companion matrix: superdiagonal ones, last row (-a_0, ..., -a_{n-1})."""
        a = np.eye(self.order, k=1)
        a[-1] = -self.coeffs
        return a


@dataclass(frozen=True)
class IdentReport:
    """An identified model plus solve-quality metadata."""

    model: PredictionModel
    window_start: int
    residual: float
    condition_estimate: float


@dataclass(frozen=True)
class ConjugacyReport:
    """Coefficient agreement between a model and a system."""

    coeff_error: float
    conjugate: bool


@dataclass(frozen=True)
class ContinuousSpectrum:
    """Recovered continuous-time eigenvalues with an aliasing warning."""

    values: np.ndarray
    aliasing_risk: bool


def _check_window(n: int, k: int) -> None:
    if k < 0:
        raise ValueError("k must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")


def hankel(series: TimeSeries, k: int, n: int) -> np.ndarray:
    """n x n window with entry (i, j) = y_{k+i+j}, as a new array."""
    _check_window(n, k)
    return _hankel(series.values, k, n).copy()


def _hankel(y, k: int, n: int, rows: int | None = None) -> np.ndarray:
    """Read-only view of the rows x n windows y[..., k+i+j] (rows defaults
    to n, the square window); leading axes of ``y`` stack series.

    Every window matrix in this module is a view from here: the exact,
    overdetermined and affine solves, the residual check and prediction.
    """
    rows = n if rows is None else rows
    if y.shape[-1] < k + rows + n - 1:  # numpy bounds the view by the whole stack only
        raise InsufficientData(f"need {k + rows + n - 1} samples for {rows} windows of "
                               f"length {n} from k={k}, have {y.shape[-1]}")
    y = np.ascontiguousarray(y[..., k:])
    # np.ndarray on y's buffer rather than as_strided, whose helper objects
    # raise the peak resident set by about 1.5 MB over many calls
    h = np.ndarray(y.shape[:-1] + (rows, n), y.dtype, y, 0, y.strides + y.strides[-1:])
    h.flags.writeable = False
    return h


def _solve_windows(h, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Condition estimates of the stacked square windows h (T, m, m), and
    the solutions of h x = rhs for the windows within
    SINGULAR_CONDITION_CAP; the other rows of the solution are NaN.

    Only windows under the cap reach the LU solve, so one singular window
    never fails the stack.
    """
    cond = condition_estimate(h)
    solved = cond <= SINGULAR_CONDITION_CAP
    sol = np.full(rhs.shape, np.nan)
    sol[solved] = _lu_solve(h[solved], rhs[solved])
    return sol, cond


def _lu_solve(h, b) -> np.ndarray:
    """LU solutions of the stacked h x = b, each slice as if solved alone.

    LU does not rescale, and an infinite pivot gives a finite, wrong
    solution; partial pivoting grows entries at most 2^(m-1)-fold, so a
    window whose largest |entry| times 2^m would overflow is solved with its
    rhs divided by 2^e; every other window keeps its bits.
    """
    e = _binary_exponent(h)
    near_limit = e > np.finfo(float).maxexp - h.shape[-1]
    if near_limit.any():
        e = np.where(near_limit, e, 0)
        h, b = np.ldexp(h, -e[..., None, None]), np.ldexp(b, -e[..., None])
    return np.linalg.solve(h, b[..., None])[..., 0]


def _cap_exceeded(what: str, cond: float) -> SingularHankel:
    return SingularHankel(f"{what} condition estimate {cond:.3e} exceeds cap")


def identify(series: TimeSeries, n: int, k: int = 0,
             overdetermined: bool = False) -> IdentReport:
    """Solve the Hankel window equations for the order-n recurrence.

    The exactly-determined solve consumes 2n samples starting at index k.
    With ``overdetermined=True``, every available window row enters a
    least-squares solve instead.
    """
    return _identify(series, n, k, overdetermined=overdetermined)


def identify_affine(series: TimeSeries, n: int, k: int = 0) -> IdentReport:
    """Identify an affine recurrence y_{m+n} = -sum a_i y_{m+i} + offset.

    Solves the (n+1) x (n+1) system whose rows append a constant-1 column
    to consecutive length-n windows.
    """
    return _identify(series, n, k, affine=True)


def _identify(series: TimeSeries, n: int, k: int, affine: bool = False,
              overdetermined: bool = False) -> IdentReport:
    """The body of both entry points: one view whose row i is the window
    y_{k+i}, ..., y_{k+i+n-1} followed by the sample it predicts."""
    _check_window(n, k)
    y = series.values
    v = _hankel(y, k, n + 1, max(n + affine, len(y) - n - k))  # the one length check
    if overdetermined:
        cond = condition_estimate(v[:, :n])
        if cond <= SINGULAR_CONDITION_CAP:  # a window rejected below is never solved
            sol, *_ = np.linalg.lstsq(v[:, :n], v[:, n], rcond=None)
    else:
        lead = v[:n + affine]
        h = np.column_stack((lead[:, :n], np.ones(n + 1))) if affine else lead[:, :n]
        sol, cond = _solve_windows(h[None], lead[None, :, n])
        sol, cond = sol[0], float(cond[0])
    if cond > SINGULAR_CONDITION_CAP:
        what = "window" if overdetermined else "augmented window" if affine else "Hankel"
        raise _cap_exceeded(what, cond)
    _require_finite(sol, "identification", "solution entry")
    coeffs = -sol[:n]
    offset = float(sol[n]) if affine else None
    model = PredictionModel(coeffs=coeffs, offset=offset, step=series.step)
    residual = _window_residual(y, k, n, coeffs, offset)
    return IdentReport(model=model, window_start=k, residual=residual,
                       condition_estimate=cond)


def _window_residual(y, k, n, coeffs, offset) -> float:
    """Max equation defect y_{j+n} + coeffs · (y_j, ..., y_{j+n-1}) - offset
    over every window from j = k on; ``fmax`` skips a NaN defect.

    ``np.vecdot`` runs the same dot kernel per row as ``coeffs @ window``,
    so each defect is bit-equal to the one-window product; a matrix product
    (``h @ coeffs``) is not.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as inf
        defect = y[k + n:] + np.vecdot(_hankel(y, k, n, len(y) - n - k), coeffs)
        if offset:  # x - 0.0 is x, bit for bit: skip the pass
            defect -= offset
    return float(np.fmax.reduce(np.abs(defect), initial=0.0))


def predict(model: PredictionModel, seed, steps: int) -> TimeSeries:
    """Continue the recurrence past the last n observed values.

    The loop: step i is offset - coeffs · w_i in float64, w_i being the n
    values before it. Where ``dynsys._blocks`` gives a series for the
    companion realisation (A the companion matrix, drive offset e_n,
    c = e_n, x0 the seed, steps + 1 states), the prediction is that series,
    kept only if ``_accepted``: then it solves the recurrence as closely as
    the loop, step by step. Otherwise the loop runs from the start, and a
    diverging prediction raises NonFinite naming its first non-finite step.
    """
    window = _as_vector(seed, model.order, "seed window")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    coeffs, n = model.coeffs, model.order
    offset = 0.0 if model.offset is None else model.offset
    buf = np.empty(n + steps)
    buf[:n] = window
    out = buf[n:]
    with np.errstate(over="ignore", invalid="ignore"):
        last = np.eye(n)[-1]
        y = dynsys._blocks(model.companion, offset * last if offset else None, last, window, steps + 1)
        if y is not None:
            out[:] = y[1:]
        if y is None or not _accepted(coeffs, offset, buf):
            # window i is buf[i:i + n]: its last entry, out[i - 1], was written by
            # the step before. coeffs.dot runs the same 1-D kernel as coeffs @ w.
            dot = coeffs.dot
            for i, w in enumerate(_hankel(buf, 0, n, steps)):
                out[i] = offset - dot(w)
    _require_finite(out, "prediction", "step")
    return TimeSeries(out, step=model.step)


def _accepted(coeffs, offset, buf) -> bool:
    """Whether every step of buf[n:] has a defect y_{i+n} + coeffs · w_i -
    offset, in double-double, within the loop's own rounding bound
    (n+1) u (|offset| + |coeffs| · |w_i|), u = 2^-53. A non-finite value
    fails: the first one has a finite window, so its defect is inf or NaN.
    Chunks of 4096 steps bound the double-double temporaries."""
    n = coeffs.size
    u = (n + 1) * np.finfo(float).epsneg
    row = _dd(np.append(coeffs, 1.0)[:, None])
    for j in range(0, buf.size - n, 4096):
        y = buf[j:j + 4096 + n]
        m = y.size - n
        hi, lo, _ = _dd_matmul(_dd(_hankel(y, 0, n + 1, m)), row)
        defect = np.abs((hi[:, 0] - offset) + lo[:, 0])
        bound = _hankel(np.abs(y), 0, n, m) @ (u * np.abs(coeffs)) + u * abs(offset)
        if not np.all(defect <= bound):
            return False
    return True


def estimate_order(series: TimeSeries, n_max: int) -> int:
    """Smallest n whose n x n Hankel is full rank while the (n+1) one is not."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    need = 2 * n_max + 1
    if len(series) < need:
        raise InsufficientData(f"need {need} samples to scan orders up to {n_max}")
    # H_1 ... H_{n_max+1}, RANK_BLOCK sizes per stacked SVD: zero-padding H_m
    # to the block's largest size adds only exact zero singular values, and
    # blocks, not one stack, bound the padded work when n_max >> order
    rank = -1  # of H_{m-1}; no H_0, so m = 1 decides nothing
    for lo in range(1, n_max + 2, RANK_BLOCK):
        sizes = np.arange(lo, min(lo + RANK_BLOCK, n_max + 2))
        i = np.arange(sizes[-1])
        inside = np.maximum.outer(i, i) < sizes[:, None, None]
        padded = np.where(inside, _hankel(series.values, 0, sizes[-1]), 0.0)
        ranks = numerical_rank(padded)
        for m, next_rank in zip(sizes.tolist(), ranks.tolist()):
            if rank == m - 1 and next_rank < m:
                return m - 1
            rank = next_rank
    raise NoOrderFound(f"no order up to {n_max} fits the Hankel rank criterion")


def verify_conjugacy(model: PredictionModel, sys: SystemSpec,
                     tol: float = 1e-8) -> ConjugacyReport:
    """Coefficient agreement of the model with the characteristic polynomial
    of A, or of the sampled matrix exp(step*A) for a continuous system:
    conjugate when no coefficient differs by more than ``tol``."""
    _positive(tol, "tol")
    if model.order != sys.order:
        raise DimensionMismatch(f"model order {model.order} != system order {sys.order}")
    coeff_error = float(np.abs(model.coeffs - char_poly_of_sampled(sys).coeffs).max())
    return ConjugacyReport(coeff_error=coeff_error, conjugate=coeff_error <= tol)


def assess_stability(model: PredictionModel) -> str:
    """Classify by spectral radius: below 1 stable, above 1 unstable."""
    rho = float(np.abs(np.roots(model.polynomial.descending())).max())  # no need to sort
    if rho < 1.0 - STABILITY_MARGIN:
        return "asymptotically-stable"
    if rho > 1.0 + STABILITY_MARGIN:
        return "unstable"
    return "marginal"


def recover_continuous_spectrum(model: PredictionModel) -> ContinuousSpectrum:
    """Continuous-time eigenvalues log(mu)/step of the companion roots.

    Principal branch; an |Arg mu| at (or numerically at) pi flags aliasing
    because the sampled spectrum is no longer injective there.
    """
    if model.step is None:
        raise MissingStep("model carries no sampling step")
    roots = poly_roots(model.polynomial)
    scale = 1.0 + float(np.abs(roots).max())
    if np.any(np.abs(roots) <= 1e-14 * scale):
        raise ZeroRoot("zero companion root: sampled systems are nonsingular, "
                       "so the model order is likely mis-specified")
    aliasing = bool(np.any(np.abs(np.angle(roots)) >= math.pi - ALIASING_MARGIN))
    values = np.array([(math.log(abs(mu)) + 1j * cmath.phase(mu)) / model.step
                       for mu in roots])
    _require_finite(values, "continuous spectrum", "eigenvalue")
    return ContinuousSpectrum(values=sort_complex_lex(values), aliasing_risk=aliasing)
