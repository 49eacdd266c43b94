"""Hidden-system model: trajectory simulation and observability machinery.

A system is an (A, c) pair with an optional affine drive b (discrete time
only) or a sampling step (continuous time only). All outputs are scalar.
"""

from __future__ import annotations

import functools
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


_BLOCK = 64  # outputs per block of a long series; a power of two
# long double is wider than float64 (x87's 63 bits, IEEE quad's 112): the
# chain of block states runs in it
_EXTENDED = np.finfo(np.longdouble).nmant > 52
# largest ratio of max |s| |M| to max |M s| (M: A^_BLOCK over the chain's
# states s, or Φ over the requested outputs) at which a simulation keeps its
# blocks. Each product rounds to about eps |s| |M|, so past it they lose
# digits the loop keeps: companion matrices of the tests' rotation systems
# reach 15 to 1e4 at n = 4 and 8; the rotation systems of the tests and of
# cli-long stay below 3.
_CANCELLATION = 8


def _powers(a, x, length: int, b=None) -> np.ndarray:
    """States x_0 = x, x_{i+1} = a x_i (+ b), i < length, stacked on axis -2
    in the dtype of ``a`` and ``x``; leading axes of ``a`` and ``x``
    broadcast. The one power loop: it serves short simulations, the rows
    c A^i (of Q and of a block operator), the columns A^i x0 and the affine
    offset."""
    n = x.shape[-1]
    shape = np.broadcast_shapes(a.shape[:-2], x.shape[:-1]) + (length, n)
    states = np.empty(shape, np.result_type(a, x))
    states[..., 0, :] = x
    for i in range(1, length):
        x = np.matvec(a, x, out=states[..., i, :])
        if b is not None:
            x += b
    return states


def _chain(p, phi, out, s, tails=None) -> np.ndarray:
    """Add Φ s_b to row b of ``out`` (axis -2: blocks; axis -1: the outputs
    of a block), Φ = ``phi`` in float64, for the chain s_0 = ``s``,
    s_{b+1} = P s_b (+ ``tails`` row b on its last entries), P = ``p``.
    Returns s_0 ... s_B in long double; leading axes stack systems.

    The one block kernel of long series. Only the chain is sequential, one
    long-double matvec per block: the tail rides in the row, against the
    columns [P | I], so the chain's rounding is too small to grow along the
    series. One float64 matrix product per _BLOCK blocks then fills them.
    """
    m, blocks = p.shape[-1], out.shape[-2]
    t = 0 if tails is None else tails.shape[-1]
    z = np.zeros(np.broadcast_shapes(p.shape[:-2], s.shape[:-1]) + (blocks + 1, m + t),
                 np.longdouble)
    z[..., 0, :m] = s
    if t:
        z[..., :-1, m:] = tails
    step = np.concatenate((p, np.broadcast_to(np.eye(m)[:, m - t:], p.shape[:-1] + (t,))), -1)
    rows = np.moveaxis(z, -2, 0)
    # ndarray.dot, the cheaper call, takes one system only
    apply = step.dot if z.ndim == 2 else functools.partial(np.matvec, step)
    for row, after in zip(rows, rows[1:, ..., :m]):
        apply(row, out=after)
    states, phi = z[..., :-1, :m].astype(float), np.swapaxes(phi, -1, -2)
    for b in range(0, blocks, _BLOCK):
        out[..., b:b + _BLOCK, :] += states[..., b:b + _BLOCK, :] @ phi
    return z[..., :m]


def _iterate(a, b, c, x, length: int) -> np.ndarray:
    """Outputs c x_i of x_{i+1} = A x_i (+ b), i < length; leading axes
    stack systems. A long series takes ``_blocks``; a short one, or one
    whose blocks give way, runs the ``_powers`` loop from the start."""
    if _EXTENDED and length > 2 * _BLOCK + a.shape[-1] ** 3 // 16:
        y = _blocks(a, b, c, x, length)
        if y is not None:
            return y
    states = _powers(a, x, length, b)
    y = np.vecdot(states, c[..., None, :])
    nan = np.isnan(y)
    if nan.any():  # 0 * inf: recompute without the entries c weights by 0
        s, w = states[nan], np.broadcast_to(c[..., None, :], states.shape)[nan]
        y[nan] = np.vecdot(np.where(w != 0, s, 0.0), w)
    return y


def _blocks(a, b, c, x, length: int):
    """The outputs through ``_chain``: P = A^_BLOCK by repeated squaring and
    row k of Φ = c A^k, both in long double. Series of up to two blocks and
    n^3 / 16 more (order n) never come here: P costs about n^3 / 32 loop
    steps, since long double has no BLAS.

    None, so that the loop runs, when
    - an entry of Φ overflows or is subnormal in float64;
    - a requested output is NaN;
    - for any stacked system, max |s_b| |P| over the chain exceeds
      _CANCELLATION times max |P s_b|, or max |s_b| |Φ| over the requested
      outputs exceeds _CANCELLATION times max |y|."""
    n = a.shape[-1]
    m = a.astype(np.longdouble)
    if b is not None:  # an affine drive is one more state entry, fixed at 1
        m = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-1]) + (n + 1, n + 1), np.longdouble)
        m[..., :n, :n], m[..., :n, n], m[..., n, n] = a, b, 1
        c = np.append(c, np.zeros(c.shape[:-1] + (1,)), axis=-1)
        x = np.append(x, np.ones(x.shape[:-1] + (1,)), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _powers(np.swapaxes(m, -1, -2), c.astype(np.longdouble), _BLOCK)
        mag = np.abs(phi)
        if not np.all((mag == 0) | (mag >= np.finfo(float).tiny) & (mag <= np.finfo(float).max)):
            return None
        phi, p = phi.astype(float), m
        for _ in range(_BLOCK.bit_length() - 1):
            p = p @ p
        out = np.zeros(np.broadcast_shapes(phi.shape[:-2], x.shape[:-1])
                       + (-(-length // _BLOCK), _BLOCK))
        s = _chain(p, phi, out, x)
        y = out.reshape(out.shape[:-2] + (-1,))[..., :length]
        if np.isnan(y).any():
            return None
        chain = np.abs(s[..., :-1, :]) @ np.abs(np.swapaxes(p, -1, -2))
        fill = np.abs(s[..., :-1, :].astype(float)) @ np.abs(np.swapaxes(phi, -1, -2))
        fill = fill.reshape(y.shape[:-1] + (-1,))[..., :length]
        if ((chain.max(axis=(-2, -1)) > _CANCELLATION * np.abs(s[..., 1:, :]).max(axis=(-2, -1)))
                | (fill.max(axis=-1) > _CANCELLATION * np.abs(y).max(axis=-1))).any():
            return None
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


def _observability(a, c) -> tuple[np.ndarray, int]:
    """Q, checked for overflow, and its rank, taken on Q with row k, c A^k,
    divided by 2^(k e), e = ``_binary_exponent(A)``: the exact Q of A / 2^e
    (barring underflow), blind to the |A|^k growth of the powers."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = observability_matrix(a, c)
        scaled = np.ldexp(q, -np.arange(q.shape[-1])[:, None] * _binary_exponent(a)[..., None, None])
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
