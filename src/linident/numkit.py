"""Dense linear-algebra and polynomial kernel.

Everything here is deterministic: Faddeev-LeVerrier characteristic
polynomials, scaling-and-squaring matrix exponentials and Sylvester-matrix
discriminants; roots, ranks and condition numbers come from LAPACK
(``np.roots``, ``np.linalg.matrix_rank``, ``np.linalg.cond``).
``_cond_bracket`` bounds each condition number from one stacked LU inverse,
for less than an SVD costs, so a caller needs the SVD only where the bounds
straddle its threshold. Targets small dense problems (n up to a few tens);
no sparsity. Double-double (a float64 pair hi + lo, |lo| <= ulp(hi) / 2)
serves long series: ``_dd`` builds one from a float64 array, and
``_two_sum``, ``_split`` and ``_dd_matmul`` are plain ufuncs whose bits no
BLAS kernel moves.

``char_poly``, ``mat_exp``, ``discriminant``, ``numerical_rank`` and
``condition_estimate`` also take stacks: leading axes in front of the matrix
(or coefficient) axes, each slice handled as if it were passed alone. A
single matrix is the unstacked case and keeps its scalar or
``MonicPolynomial`` result. One rescale serves every rank, condition estimate,
bracket, solve and block state: the exact division by 2^e, e =
``_binary_exponent``; a rank or condition number whose sigma_max overflows
is redone after it, and a bracket always starts from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

DEFAULT_RANK_TOL = 1e-9

__all__ = [
    "DEFAULT_RANK_TOL",
    "MonicPolynomial",
    "as_matrix",
    "char_poly",
    "condition_estimate",
    "discriminant",
    "mat_exp",
    "numerical_rank",
    "poly_roots",
]


def as_matrix(a, stacked: bool = False) -> np.ndarray:
    """Validate and return ``a`` as a 2-D float array with finite entries.

    With ``stacked=True`` leading axes may stack several matrices.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 and not (stacked and m.ndim > 2):
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[-2] < 1 or m.shape[-1] < 1:
        raise DimensionMismatch(f"empty matrix of shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _as_square(a, stacked: bool = False) -> np.ndarray:
    m = as_matrix(a, stacked)
    if m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _as_vector(v, n: int | None = None, what: str = "vector",
               stacked: bool = False) -> np.ndarray:
    """Validate and return ``v`` as a 1-D float array with finite entries,
    of length ``n`` when given; ``stacked=True`` lets leading axes stack
    vectors. C order keeps a dot over ``v`` on one kernel whatever the
    caller's layout (a strided operand takes another, with other bits)."""
    x = np.ascontiguousarray(v, dtype=float)
    if x.ndim != 1 and not stacked:
        raise DimensionMismatch(f"{what} must be 1-D, got ndim={x.ndim}")
    if x.shape[-1] < 1:
        raise DimensionMismatch(f"{what} must be non-empty")
    if n is not None and x.shape[-1] != n:
        raise DimensionMismatch(f"{what} has length {x.shape[-1]}, expected {n}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x


def _positive(x, what: str) -> None:
    """ValueError unless ``x`` is positive and finite: every step and tolerance."""
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"{what} must be positive and finite")


@dataclass(frozen=True)
class MonicPolynomial:
    """Monic polynomial l^n + a_{n-1} l^{n-1} + ... + a_1 l + a_0.

    ``coeffs`` stores (a_0, ..., a_{n-1}); the leading 1 is implicit.
    """

    coeffs: np.ndarray = field()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_vector(self.coeffs, what="coefficients"))

    def descending(self) -> np.ndarray:
        """Coefficients in descending-power order, leading 1 included."""
        return np.concatenate(([1.0], self.coeffs[::-1]))

    def __call__(self, x):
        return np.polyval(self.descending(), x)


def _norm1(m) -> np.ndarray:
    """Max absolute column sum of each matrix in the stack (einsum: sum's small axes are slow)."""
    return np.einsum("...ij->...j", np.abs(m)).max(axis=-1)


def mat_exp(m, t: float = 1.0) -> np.ndarray:
    """exp(t*m) by scaling and squaring with a truncated Taylor series.

    Each x = t*m is scaled by 2^-s, s = max(0, ceil(log2 |x|_1) + 1), with
    ``ldexp`` (exact, so s may pass 1023), and its series squared s times;
    past s of about 50 that amplifies an oscillatory slice's rounding 2^s-fold
    (a rotation at step 1e300 comes out as zeros). Every matrix of a stack
    gets its own scaling, series length and squarings, so a slice comes out
    as it would alone; one for which t*m overflows comes out NaN.
    """
    a = _as_square(m, stacked=True)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    x = t * a
    with np.errstate(divide="ignore"):  # a zero matrix needs no scaling: log2(0) = -inf
        s = np.maximum(0, np.ceil(np.log2(_norm1(x))) + 1)
    finite = np.isfinite(s)
    s = np.where(finite, s, 0).astype(int)
    x = np.where(finite[..., None, None], np.ldexp(x, -s[..., None, None]), np.nan)
    # term 1 is x, not I @ x: they differ in signs of zeros, which total and the norms lose
    term, total = x, x + np.eye(a.shape[-1])
    active = np.ones(a.shape[:-2], dtype=bool)
    adding = active[..., None, None]  # a view: follows the updates of active
    for k in range(2, 60):
        active &= _norm1(term) > 1e-17 * _norm1(total)
        if not np.count_nonzero(active):
            break
        term = term @ x
        term /= k
        np.add(total, term, out=total, where=adding)
    for j in range(int(s.max(initial=0))):
        part = total[s > j]
        total[s > j] = part @ part
    return total


def char_poly(m):
    """Characteristic polynomial det(lI - m) via Faddeev-LeVerrier.

    A stack of matrices (..., n, n) gives the (..., n) array of ascending
    coefficients (a_0, ..., a_{n-1}) instead of a MonicPolynomial; its
    entries are not checked for overflow.
    """
    a = _as_square(m, stacked=True)
    n = a.shape[-1]
    eye = np.eye(n)
    desc = np.empty(a.shape[:-1])
    mk = eye
    for k in range(1, n + 1):
        am = a @ mk
        ck = -am.trace(axis1=-2, axis2=-1) / k
        desc[..., k - 1] = ck
        if k < n:
            mk = am + ck[..., None, None] * eye
    coeffs = desc[..., ::-1]
    return MonicPolynomial(coeffs) if a.ndim == 2 else coeffs


def poly_roots(p: MonicPolynomial) -> np.ndarray:
    """All complex roots of ``p`` (with multiplicity), as the eigenvalues of
    its companion matrix, sorted lexicographically by (real, imag)."""
    return sort_complex_lex(np.roots(p.descending()))


def sort_complex_lex(z: np.ndarray) -> np.ndarray:
    """Sort by (re, im); the real key is snapped to a small grid so that
    rounding noise cannot reorder conjugate pairs."""
    z = np.asarray(z, dtype=complex)
    grid = 1e-12 * (1.0 + np.abs(z).max())
    order = np.lexsort((z.imag, np.round(z.real / grid) * grid))
    return z[order]


def discriminant(p):
    """Discriminant of a monic polynomial: (-1)^{n(n-1)/2} times the
    determinant of the Sylvester matrix of p and p'.

    ``p`` is a MonicPolynomial, or a (..., n) array of its ascending
    coefficients (a_0, ..., a_{n-1}) as ``char_poly`` returns for a stack.
    """
    coeffs = p.coeffs if isinstance(p, MonicPolynomial) else np.asarray(p, dtype=float)
    n = coeffs.shape[-1]
    if n < 2:
        raise ValueError("discriminant requires degree >= 2")
    sign = -1.0 if (n * (n - 1) // 2) % 2 else 1.0
    desc = np.concatenate((np.ones(coeffs.shape[:-1] + (1,)), coeffs[..., ::-1]), axis=-1)
    der = desc[..., :-1] * np.arange(n, 0, -1)  # p' descending: n, (n-1) a_{n-1}, ..., a_1
    s = np.zeros(coeffs.shape[:-1] + (2 * n - 1, 2 * n - 1))
    for i in range(n - 1):
        s[..., i, i:i + n + 1] = desc
    for i in range(n):
        s[..., n - 1 + i, i:i + n] = der
    det = np.linalg.det(s)
    return sign * (float(det) if s.ndim == 2 else det)


def _binary_exponent(m) -> np.ndarray:
    """Each stacked matrix's e with max|entry| in [2^(e-1), 2^e); 0 if zero."""
    return np.frexp(np.abs(m).max(axis=(-2, -1)))[1]


def _scale_free(f, m, overflowed):
    """f(m) for a scale-invariant function f of the singular values of each
    matrix (rank, condition number). A slice whose result is ``overflowed``
    (what an infinite sigma_max gives) is redone after division by 2^e;
    every other slice keeps its exact bits."""
    a = as_matrix(m, stacked=True)
    r = f(a)
    hit = r == overflowed
    if (np.count_nonzero(hit) if a.ndim > 2 else hit):  # a scalar test costs ~50 ns
        r = np.array(r)
        r[hit] = f(np.ldexp(a[hit], -_binary_exponent(a[hit])[..., None, None]))
    return r if a.ndim > 2 else r.item()


def numerical_rank(m, tol: float = DEFAULT_RANK_TOL):
    """Number of singular values above ``tol`` times the largest one.

    A stack of matrices gives an integer array of ranks.
    """
    _positive(tol, "tol")
    return _scale_free(lambda a: np.linalg.matrix_rank(a, rtol=tol), m, 0)


def condition_estimate(m):
    """2-norm condition number; inf for numerically singular input.

    A stack of matrices gives an array of estimates.
    """
    return _scale_free(np.linalg.cond, m, math.inf)


def _cond_bracket(m) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo <= cond_2 <= hi for each stacked square matrix, from
    one stacked LU inverse X of m / 2^e. With slack = 2n eps |m|_F |X|_F and
    r = |I - mX|_F + slack <= 1/2, the inverse X (I - R)^-1 gives
    hi = |m|_F |X|_F / (1 - r); X = m^-1 (mX) gives lo = (largest column
    norm of m) |X|_F / (sqrt(n) (|mX|_F + slack)). A slice with an exact
    zero pivot, or a non-finite X, gets (0, inf); its neighbours keep theirs."""
    a = np.ldexp(m, -_binary_exponent(m)[..., None, None])
    n = a.shape[-1]
    try:
        x = np.linalg.inv(a)
    except np.linalg.LinAlgError:  # raised for the whole stack by one zero pivot
        x = np.full_like(a, np.nan)
        regular = np.linalg.slogdet(a)[0] != 0
        x[regular] = np.linalg.inv(a[regular])
    with np.errstate(over="ignore", invalid="ignore"):
        p = a @ x
        fm, fx, fp = (np.sqrt(np.einsum("...ij,...ij->...", v, v)) for v in (a, x, p))
        slack = 2 * n * np.finfo(float).eps * fm * fx
        p[..., range(n), range(n)] -= 1.0
        r = np.sqrt(np.einsum("...ij,...ij->...", p, p)) + slack
        col = np.sqrt(np.einsum("...ij,...ij->...j", a, a).max(axis=-1))
        lo = col * fx / (math.sqrt(n) * (fp + slack))
        hi = np.where(r <= 0.5, fm * fx / (1 - r), np.inf)
    return np.where(lo < np.inf, lo, 0.0), hi


def _two_sum(a, b):
    """(s, e): s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _split(x):
    """(hi, lo): hi + lo = x in at most 26 significant bits each (Dekker,
    Numer. Math. 1971), so a product of parts is exact. |x| > 2^996 is split
    over 2^28, so x (2^27 + 1) cannot overflow; |x| >= 2^1024 - 2^997 gives
    an infinite hi."""
    big = np.abs(x) > 2.0**996
    scale = np.where(big, 2.0**28, 1.0) if big.any() else None
    if scale is not None:
        x = x / scale
    t = x * (2.0**27 + 1)
    hi = t - (t - x)
    return (hi, x - hi) if scale is None else (hi * scale, (x - hi) * scale)


def _dd(v) -> np.ndarray:
    """The double-double array (v, 0): axis 0 holds (hi, lo)."""
    return np.stack((v, np.zeros_like(v)))


def _dd_matmul(a, b):
    """(hi, lo, mag): a @ b in double-double, a = (hi, lo) (..., k, m) and
    b = (hi, lo) (..., m, j), leading axes broadcast; mag = |a_hi| @ |b_hi|
    shows cancellation. Per index of the sum, one outer product split into
    its rounded value and exact error (Dekker), a_hi b_lo + a_lo b_hi joining
    the error; values summed by ``_two_sum``, errors in float64 (Dot2: Ogita,
    Rump & Oishi, SIAM J. Sci. Comput. 2005). Error about m 2^-106 mag."""
    (ah, al), (bh, bl) = a, b
    cols = [v[..., :, :, None] for v in (ah, al, *_split(ah))]
    hi = lo = mag = 0.0
    for i in range(ah.shape[-1]):
        (x, xl, x1, x2), y, yl = (v[..., i, :] for v in cols), bh[..., None, i, :], bl[..., None, i, :]
        y1, y2 = _split(y)
        p = x * y
        hi, t = _two_sum(hi, p) if i else (p, 0.0)
        lo = lo + t + (x1 * y1 - p + x1 * y2 + x2 * y1 + x2 * y2 + x * yl + xl * y)
        mag = mag + np.abs(p)
    return (*_two_sum(hi, lo), mag)
