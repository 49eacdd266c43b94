"""Hidden-system model: trajectory simulation and observability machinery.

A system is an (A, c) pair with an optional affine drive b (discrete time
only) or a sampling step (continuous time only). All outputs are scalar. A
long series runs in double-double blocks whose bytes no BLAS kernel moves.
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
    _char_coeffs,
    _dd,
    _dd_matmul,
    _positive,
    _solve,
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
_FILL = 256  # blocks per fill product: its temporaries are (64, 256)
# largest max |u| |v| / max |u v| of a block product u v of one system: it
# errs by about 2^-106 |u| |v|, so past this it might lose the loop's bits
_CANCELLATION = 2.0**26


def _loop_length(m: int) -> int:
    """Longest series, states of order m, that the loop runs: past it the
    blocks' fixed cost (1.5 ms at m <= 4, 14 ms at 32, 0.15 s at 64) is at
    most a few ms above the loop's (0.8 to 1.5 us a step)."""
    return 1024 + m**3 // 4


def _loops(length: int, n: int, drive: bool) -> bool:
    """True for a series of ``length`` states of an order-n system, with an
    affine drive or not, that ``_blocks`` leaves to the loop by length alone:
    the one length rule, which lets a caller skip building the system."""
    return length <= _loop_length(n + drive)


def _powers(a, x, length: int, b=None) -> np.ndarray:
    """States x_0 = x, x_{i+1} = a x_i (+ b), i < length, stacked on axis -2;
    leading axes of ``a`` and ``x`` broadcast. The one power loop: it serves
    short simulations, the rows c A^i of Q, the columns A^i x0 and the
    affine offset."""
    n = x.shape[-1]
    shape = np.broadcast_shapes(a.shape[:-2], x.shape[:-1]) + (length, n)
    states = np.empty(shape)
    states[..., 0, :] = x
    for i in range(1, length):
        x = np.matvec(a, x, out=states[..., i, :])
        if b is not None:
            x += b
    return states


def _kept(hi, mag) -> bool:
    """Max ``mag`` is finite and at most _CANCELLATION max |hi|."""
    top = mag.max()
    return bool(np.isfinite(top) and top <= _CANCELLATION * np.abs(hi).max())


def _doubling(rows, q, count: int, square_last: bool):
    """(r_0 ... r_{count-1}, Q^(2^i), kept), r_{j + 2^i} = r_j Q^(2^i): round
    i is one product [r_0; ...; r_{2^i - 1}; Q^(2^i)] Q^(2^i), whose last
    rows square Q^(2^i) (in the last round only if ``square_last``); the
    rounds stop at the first part that is not ``_kept``."""
    kept = True
    while kept and (have := rows.shape[-2]) < count:
        new = min(have, count - have)
        top = rows[..., :new, :]
        if square_last or have + new < count:
            top = np.concatenate((top, q), axis=-2)
        hi, lo, mag = _dd_matmul(top, q)
        kept = _kept(hi[:new], mag[:new]) and (new == len(hi) or _kept(hi[new:], mag[new:]))
        out = np.stack((hi, lo))
        rows, q = np.concatenate((rows, out[..., :new, :]), axis=-2), out[..., new:, :]
    return rows, q, kept


def _chain(p, phi, s, length: int):
    """(y, kept): ``length`` outputs y_{64b + k} = Φ_k s_b, s_b = P^b s, for
    double-double P = A^_BLOCK (2, m, m) and Φ_k = c A^k (2, 64, m); the
    fills stop at the first product that is not ``_kept``. The states come
    by doubling (Q = P^T): 11 products, not 1 562 steps, for 1e5 outputs.
    Φ s_b is correctly rounded but for cancellation."""
    blocks = -(-length // _BLOCK)
    y = np.empty(length)  # first: an oversized request fails here
    states, _, kept = _doubling(_dd(s[None]), np.swapaxes(p, -1, -2), blocks, False)
    for b in range(0, blocks, _FILL):
        if not kept:
            break
        part = y[b * _BLOCK:(b + _FILL) * _BLOCK]
        rows = states[:, b:b + _FILL]
        # s_b / 2^e_b, max |s_b| in [2^(e_b - 1), 2^e_b), as columns: no product
        # overflows unless its output does; outer products run in unit strides
        e = _binary_exponent(rows[0][:, None, :])
        hi, _, mag = _dd_matmul(phi, np.ldexp(np.swapaxes(rows, -1, -2), -e).copy())
        hi, mag, y_b = (v.T.ravel()[:part.size] for v in (hi, mag, np.ldexp(hi, e)))
        kept = _kept(hi, mag)
        part[:] = y_b
    return y, kept


def _iterate(a, b, c, x, length: int) -> np.ndarray:
    """Outputs c x_i of x_{i+1} = A x_i (+ b), i < length; leading axes
    stack systems. The series of ``_blocks`` where it gives one; otherwise
    the ``_powers`` loop from the start."""
    if (y := _blocks(a, b, c, x, length)) is not None:
        return y
    states = _powers(a, x, length, b)
    y = np.vecdot(states, c[..., None, :])
    nan = np.isnan(y)
    if nan.any():  # 0 * inf: recompute without the entries c weights by 0
        s, w = states[nan], np.broadcast_to(c[..., None, :], states.shape)[nan]
        y[nan] = np.vecdot(np.where(w != 0, s, 0.0), w)
    return y


def _blocks(a, b, c, x, length: int):
    """The outputs of one system's x_{i+1} = A x_i (+ b), i < length,
    through ``_chain``, or None where the loop runs instead: for a stack of
    systems, a series of at most ``_loop_length`` states, an entry of Φ that
    overflows or is subnormal in float64, or a product on the way that
    cancels past _CANCELLATION or is not finite. The one place that picks
    blocks or loop; its length rule is ``_loops``, which a caller may ask
    first. An affine drive is one more state entry, fixed at 1;
    Φ_k = c A^k and P = A^_BLOCK come by doubling."""
    n, drive = a.shape[-1], b is not None
    if _loops(length, n, drive) or a.ndim > 2 or max(np.ndim(b), c.ndim, x.ndim) > 1:
        return None
    if drive:
        a = np.block([[a, b[:, None]], [np.zeros((1, n)), np.ones((1, 1))]])
        c, x = np.append(c, 0.0), np.append(x, 1.0)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        phi, p, kept = _doubling(_dd(c[None]), _dd(a), _BLOCK, True)
        mag = np.abs(phi[0])
        normal = (mag == 0) | (mag >= np.finfo(float).tiny) & (mag <= np.finfo(float).max)
        if kept and normal.all():
            y, kept = _chain(p, phi, x, length)
            return y if kept else None
    return None


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
    return _solve(q.T, q[n - 1] @ a)  # c A^{n-1} is the last row of Q


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
    """char_poly of A (discrete) or of exp(step*A) (continuous), from its
    unchecked coefficients; NonFinite when the sampled matrix or the
    polynomial overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = _sampled_matrix(sys)
        _require_finite(m, "sampled matrix", "entry")
        coeffs = _char_coeffs(m)
    _require_finite(coeffs, "characteristic polynomial", "coefficient")
    return MonicPolynomial(coeffs)
