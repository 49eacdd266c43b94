"""Hidden-system model: trajectory simulation and observability machinery.

A system is an (A, c) pair with an optional affine drive b (discrete time
only) or a sampling step (continuous time only). All outputs are scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingStep, NonFinite, NotObservable
from .numkit import (
    MonicPolynomial,
    _as_square,
    _as_vector,
    _binary_exponent,
    _positive,
    char_poly,
    mat_exp,
    numerical_rank,
)

__all__ = [
    "SystemSpec",
    "TimeSeries",
    "affine_offset",
    "is_observable",
    "krylov_matrix",
    "observability_matrix",
    "output_row_G",
    "sample_continuous",
    "simulate_discrete",
]


@dataclass(frozen=True)
class SystemSpec:
    """Description of a hidden linear system with scalar output c x.

    kind is "discrete" (x <- A x + b) or "continuous" (xdot = A x, sampled
    at multiples of ``step``). The affine drive b exists only in discrete
    time; the sampling step only in continuous time.
    """

    kind: str
    a: np.ndarray
    c: np.ndarray
    b: np.ndarray | None = None
    step: float | None = None

    def __post_init__(self):
        if self.kind not in ("discrete", "continuous"):
            raise ValueError(f"unknown system kind {self.kind!r}")
        a = _as_square(self.a)
        n = a.shape[0]
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", _as_vector(self.c, n, "c"))
        if self.b is not None:
            if self.kind == "continuous":
                raise ValueError("continuous systems are homogeneous (no b)")
            object.__setattr__(self, "b", _as_vector(self.b, n, "b"))
        if self.step is not None:
            if self.kind == "discrete":
                raise ValueError("discrete systems carry no sampling step")
            _positive(self.step, "sampling step")

    @property
    def order(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class TimeSeries:
    """Ordered scalar samples, with the sampling step when known."""

    values: np.ndarray
    step: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _as_vector(self.values, what="series values"))
        if self.step is not None:
            _positive(self.step, "step")

    def __len__(self) -> int:
        return self.values.size


def simulate_discrete(sys: SystemSpec, x0, length: int) -> TimeSeries:
    """Outputs y_i = c x_i of x_{i+1} = A x_i (+ b), starting from x0."""
    return _simulate(sys, "discrete", x0, length)


def sample_continuous(sys: SystemSpec, x0, length: int) -> TimeSeries:
    """Outputs y_i = c exp(i*step*A) x0 of the continuous flow."""
    return _simulate(sys, "continuous", x0, length)


def _simulate(sys: SystemSpec, kind: str, x0, length: int) -> TimeSeries:
    """Either kind's series; raises NonFinite naming the first bad sample."""
    if sys.kind != kind:
        raise ValueError(f"{kind} simulation needs a {kind} system")
    with np.errstate(over="ignore", invalid="ignore"):
        a = _sampled_matrix(sys)
        if length < 1:
            raise ValueError("length must be >= 1")
        y = _iterate(a, sys.b, sys.c, _as_vector(x0, sys.order, "x0"), length)
    _require_finite(y, "simulation", "sample")
    return TimeSeries(y, step=sys.step)


def _require_finite(values, what: str, item: str) -> None:
    """Raise NonFinite naming the first (1-based) non-finite entry."""
    finite = np.isfinite(values)
    if not finite.all():
        first = int(np.argmin(finite)) + 1
        raise NonFinite(f"{what} diverges: {item} {first} of {finite.size} is not finite")


_BLOCK = 64  # states per block of a long series; a power of two
# long double is wider than float64, and narrow enough for a float64 pair
# hi + lo to hold it exactly: x87's 63 bits, not IEEE quad's 112
_EXTENDED = 52 < np.finfo(np.longdouble).nmant < 106
# largest max(|x| |P|) / max|x P| over the first block's states x at which
# the blocks run. Each block rounds to about eps |x| |P|, so past it they
# lose digits the loop keeps: companion matrices of slow rotations reach
# 1e2 to 1e5; the rotation systems of the tests and of cli-long stay below 3.
_CANCELLATION = 8


def _powers(a, x, length: int, b=None) -> np.ndarray:
    """States x_0 = x, x_{i+1} = a x_i (+ b), i < length, stacked on axis -2;
    leading axes of ``a`` and ``x`` broadcast. The one power engine: it serves
    simulation, the rows c A^i, the columns A^i x0 and the affine offset.

    The first _BLOCK states come from the loop. In a long series, each
    later block is the block before it mapped through ``_block_map``; where
    that map is not taken, the loop runs to the end."""
    n = x.shape[-1]
    states = np.empty(np.broadcast_shapes(a.shape[:-2], x.shape[:-1]) + (length, n))
    states[..., 0, :] = x
    head = min(length, _BLOCK)
    _steps(a, b, x, states, 1, head)
    block = _block_map(a, b, states[..., :head, :], length)
    if block is None:
        _steps(a, b, states[..., head - 1, :], states, head, length)
        return states
    p, q = block
    rows = states[..., None, :, :]  # the hi and lo products go on the new axis
    both = np.empty(states.shape[:-2] + (2, _BLOCK, n))
    for j in range(_BLOCK, length, _BLOCK):
        m = min(_BLOCK, length - j)
        prod = np.matmul(rows[..., j - _BLOCK:j - _BLOCK + m, :], p, out=both[..., :m, :])
        if q is not None:
            prod += q
        np.add(prod[..., 0, :, :], prod[..., 1, :, :], out=states[..., j:j + m, :])
    return states


def _steps(a, b, x, states, start: int, stop: int) -> None:
    """The loop of ``_powers``: states start..stop-1, from x = state start-1."""
    for i in range(start, stop):
        x = np.matvec(a, x, out=states[..., i, :])
        if b is not None:
            x += b


def _block_map(a, b, head, length: int):
    """(P, q), the map x_{i+_BLOCK} = x_i P_hi + x_i P_lo (+ q_hi + q_lo) of
    row states: P stacks (A^_BLOCK)ᵀ = P_hi + P_lo on axis -3, and q stacks
    the drive's sum over _BLOCK steps in the same way (None without a drive).
    The power of [[A, b], [0, 1]] is taken in long double by repeated
    squaring and split into float64 hi and lo parts.

    None, so that the loop runs on, when
    - the series is too short: the map costs about n^3 / 32 loop steps (long
      double has no BLAS), so it is taken only past two blocks and twice that;
    - long double is not extended precision;
    - hi + lo does not give back that power exactly: it overflows or is
      subnormal in float64, or A is not finite;
    - on the first block's states ``head``, |x| |P| (+ |q|) exceeds
      _CANCELLATION times |x P (+ q)| for any stacked system."""
    n = a.shape[-1]
    if not _EXTENDED or length <= 2 * _BLOCK + n**3 // 16:
        return None
    if b is None:
        m = a.astype(np.longdouble)
    else:
        m = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-1]) + (n + 1, n + 1), np.longdouble)
        m[..., :n, :n], m[..., :n, n], m[..., n, n] = a, b, 1
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_BLOCK.bit_length() - 1):
            m = m @ m
        hi = m.astype(float)
        lo = (m - hi).astype(float)
        if not np.array_equal(hi + lo.astype(np.longdouble), m):
            return None
        p = np.swapaxes(hi[..., :n, :n], -1, -2)
        bound, near = np.abs(head) @ np.abs(p), head @ p
        if b is not None:
            bound += np.abs(hi[..., None, :n, n])
            near += hi[..., None, :n, n]
        if (bound.max(axis=(-2, -1)) > _CANCELLATION * np.abs(near).max(axis=(-2, -1))).any():
            return None
    pair = np.stack((hi, lo), axis=-3)
    p = np.swapaxes(pair[..., :n, :n], -1, -2)
    return p, None if b is None else pair[..., None, :n, n]


def _iterate(a, b, c, x, length: int) -> np.ndarray:
    """Outputs c x_i of the ``_powers`` states; leading axes stack systems."""
    states = _powers(a, x, length, b)
    y = np.vecdot(states, c[..., None, :])
    nan = np.isnan(y)
    if nan.any():  # 0 * inf: recompute without the entries c weights by 0
        s, w = states[nan], np.broadcast_to(c[..., None, :], states.shape)[nan]
        y[nan] = np.vecdot(np.where(w != 0, s, 0.0), w)
    return y


def observability_matrix(a, c) -> np.ndarray:
    """Rows c A^i, i = 0..n-1; leading axes of ``a`` and ``c`` stack
    systems. Entries are not checked for overflow."""
    a = _as_square(a, stacked=True)
    n = a.shape[-1]
    return _powers(np.swapaxes(a, -1, -2), _as_vector(c, n, "c", stacked=True), n)


def krylov_matrix(a, x0) -> np.ndarray:
    """Columns A^j x0, j = 0..n-1; leading axes stack systems, as for
    ``observability_matrix``."""
    a = _as_square(a, stacked=True)
    n = a.shape[-1]
    states = _powers(a, _as_vector(x0, n, "x0", stacked=True), n)
    # C-contiguous: numpy kernels can round a strided operand differently
    return np.ascontiguousarray(np.swapaxes(states, -1, -2))


def _power_scaled(m, a, axis: int) -> np.ndarray:
    """Q (axis -2) or K (axis -1) with its power k, row c A^k or column
    A^k x0, divided by 2^(k e) for e = ``_binary_exponent(A)``: the matrix
    of A / 2^e, exact barring underflow, whose rank does not see the |A|^k
    growth of the powers. Leading axes stack systems."""
    shift = np.arange(m.shape[-1]) * _binary_exponent(a)[..., None]
    if not np.count_nonzero(shift):  # e = 0, as for most draws from (-1, 1): ldexp is slow
        return m
    return np.ldexp(m, -(shift[..., :, None] if axis == -2 else shift[..., None, :]))


def _observability(a, c) -> tuple[np.ndarray, int]:
    """The observability matrix Q, checked for overflow, and its rank,
    taken on the ``_power_scaled`` Q."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = observability_matrix(a, c)
        scaled = _power_scaled(q, a, -2)
    _require_finite(scaled, "observability matrix", "entry")
    return q, numerical_rank(scaled)


def is_observable(a, c) -> tuple[bool, int]:
    """(full-rank flag, numerical rank) of the observability matrix;
    NonFinite when the matrix overflows."""
    q, rank = _observability(a, c)
    return rank == q.shape[-1], rank


def output_row_G(a, c) -> np.ndarray:
    """The row G = c A^n Q^{-1} closing the output recurrence.

    By Cayley-Hamilton this equals (-a_0, ..., -a_{n-1}) for the
    characteristic coefficients of A. Raises NotObservable exactly when
    ``is_observable`` reports (A, c) unobservable.
    """
    a = _as_square(a)
    n = a.shape[0]
    q, rank = _observability(a, c)
    if rank < n:
        raise NotObservable("observability matrix is numerically singular")
    # Q / 2^e keeps G and its bits; c A^n and the LU pivots stay finite
    q = np.ldexp(q, -_binary_exponent(q))
    return np.linalg.solve(q.T, q[n - 1] @ a)  # c A^{n-1} is the last row of Q


def affine_offset(a, b, c) -> float:
    """Constant term of the affine output recurrence y_n = G y + offset.

    Closed form: p_n b - G (p_0 b, ..., p_{n-1} b) for the partial sums
    p_0 = 0, p_{j+1} = p_j A + c = c (A^j + ... + I).
    """
    a = _as_square(a)
    n = a.shape[0]
    bv = _as_vector(b, n, "b")
    cv = _as_vector(c, n, "c")
    g = output_row_G(a, cv)
    sums = _powers(a.T, np.zeros(n), n + 1, cv)
    return float(sums[n] @ bv - g @ (sums[:n] @ bv))


def _sampled_matrix(sys: SystemSpec) -> np.ndarray:
    """A (discrete) or exp(step*A) (continuous): the map between samples."""
    if sys.kind == "discrete":
        return sys.a
    if sys.step is None:
        raise MissingStep("continuous system has no sampling step")
    return mat_exp(sys.a, sys.step)


def char_poly_of_sampled(sys: SystemSpec) -> MonicPolynomial:
    """char_poly of A (discrete) or of exp(step*A) (continuous); NonFinite
    when the sampled matrix or the polynomial overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = _sampled_matrix(sys)
        _require_finite(m, "sampled matrix", "entry")
        coeffs = char_poly(m[None])[0]  # the stacked form returns unchecked coefficients
    _require_finite(coeffs, "characteristic polynomial", "coefficient")
    return MonicPolynomial(coeffs)
