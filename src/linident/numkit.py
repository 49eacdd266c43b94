"""Dense linear-algebra and polynomial kernel.

Everything here is deterministic: Faddeev-LeVerrier characteristic
polynomials, scaling-and-squaring matrix exponentials and Sylvester-matrix
discriminants. An exponential's Taylor series, at scaled norm r <= 1/2, ends
at the first term k with r^(k+1)/(k+1)! <= 2^-57, leaving out less than
u |e^x|_1. Roots, ranks, condition numbers, solves and determinants
come from LAPACK: every call runs numpy's own gufunc through ``_per_slice``,
without ``np.linalg``'s per-call wrapper, and keeps the wrapper's bits and
its LinAlgError. Two screens let a caller decide cond_2 > cap for a stack
as ``condition_estimate`` does, running the SVD only on what they leave
open: ``_gram_certified`` proves cond_2 <= cap / 2, up to about 1e7, from
one shifted Cholesky of the Gram matrix; ``_cond_bracket`` bounds cond_2
from one LU inverse, proving it <= cap / 2 or > 2 cap. The factors of 2
exceed the SVD's own p(n) eps cond error for any cap up to 1e10. A slice
that fails in either screen is NaN, and its neighbours keep their bits.
Targets small dense problems (n up to a few tens); no sparsity. Double-double
(a float64 pair hi + lo, |lo| <= ulp(hi) / 2) serves long series: ``_dd``
builds one from a float64 array, and ``_two_sum``, ``_split`` and
``_dd_matmul`` are plain ufuncs whose bits no BLAS kernel moves.

``char_poly``, ``mat_exp``, ``discriminant``, ``numerical_rank`` and
``condition_estimate`` also take stacks: leading axes in front of the matrix
(or coefficient) axes, each slice handled as if it were passed alone. A
single matrix is the unstacked case and keeps its scalar or
``MonicPolynomial`` result. One Faddeev-LeVerrier loop, ``_char_coeffs``,
serves both; ``char_poly`` on a stack (for ``experiments``) and
``dynsys.char_poly_of_sampled`` (which raises NonFinite) take its
coefficients unchecked for overflow. One rescale serves every rank,
condition estimate, certificate, bracket, solve and block state: the exact
division by 2^e, e = ``_binary_exponent``; a rank or condition number
whose sigma_max overflows or is below 2^-969 is redone after it, and a
certificate or bracket always starts from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch

DEFAULT_RANK_TOL = 1e-9
# r_k, r_k^(k+1)/(k+1)! = 2^-57: mat_exp's series to term k serves scaled norms up to r_k
_TAYLOR_REACH = np.exp([(math.lgamma(k + 2) - 57 * math.log(2)) / (k + 1) for k in range(1, 16)])

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
    (a rotation at step 1e300 comes out as zeros). At r = |x 2^-s|_1 <= 1/2
    the series ends at the first term k with r^(k+1)/(k+1)! <= 2^-57 (Higham,
    SIAM J. Matrix Anal. Appl. 2005): its tail, below 2^-56, is under u |e^x|_1.
    Every matrix of a stack gets its own scaling, series length and
    squarings, so a slice comes out as it would alone; one for which t*m
    overflows comes out NaN.
    """
    a = _as_square(m, stacked=True)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    x = t * a
    norm = _norm1(x)
    with np.errstate(divide="ignore"):  # a zero matrix needs no scaling: log2(0) = -inf
        s = np.maximum(0, np.ceil(np.log2(norm)) + 1)
    finite = np.isfinite(s)
    s = np.where(finite, s, 0).astype(int)
    x = np.where(finite[..., None, None], np.ldexp(x, -s[..., None, None]), np.nan)
    last = 1 + np.searchsorted(_TAYLOR_REACH, np.where(finite, np.ldexp(norm, -s), 0.0))
    top, steps = int(np.max(last, initial=1)), int(s.max(initial=0))
    # every slice sums terms up to ``full`` and squares ``fewest`` times: no mask there
    full, fewest = int(np.min(last, initial=top)), int(s.min(initial=steps))
    # term 1 is x, not I @ x: they differ in signs of zeros, which total loses
    term, total = x, x + np.eye(a.shape[-1])
    for k in range(2, top + 1):
        term = term @ x
        term /= k
        np.add(total, term, out=total, where=k <= full or (last >= k)[..., None, None])
    for j in range(steps):
        live = ... if j < fewest else s > j  # ...: every slice, as a view
        part = total[live]
        total[live] = part @ part
    return total


def char_poly(m):
    """Characteristic polynomial det(lI - m) via Faddeev-LeVerrier.

    A stack of matrices (..., n, n) gives the (..., n) array of ascending
    coefficients (a_0, ..., a_{n-1}) instead of a MonicPolynomial; its
    entries are not checked for overflow. ``dynsys.char_poly_of_sampled``
    takes them unchecked too, from ``_char_coeffs``, and checks them itself.
    """
    a = _as_square(m, stacked=True)
    coeffs = _char_coeffs(a)
    return MonicPolynomial(coeffs) if a.ndim == 2 else coeffs


def _char_coeffs(a) -> np.ndarray:
    """Ascending coefficients of det(lI - a), a finite square matrix or
    stack, unchecked for overflow: a_{n-k} = -tr(a M_k) / k, M_1 = I,
    M_{k+1} = a M_k + a_{n-k} I; src holds a M_k, and two buffers swap."""
    n = a.shape[-1]
    flat = a.shape[:-2] + (n * n,)
    desc = np.empty(a.shape[:-1])
    src, dst = a.copy(), np.empty(a.shape)  # src = a @ I
    diag, spare = src.reshape(flat)[..., ::n + 1], dst.reshape(flat)[..., ::n + 1]
    for k in range(1, n + 1):
        # sum is trace's own add.reduce; negating first keeps a NaN's sign bit
        ck = np.divide(-diag.sum(-1), k, out=desc[..., k - 1])
        if k < n:  # M_{k+1} = src + ck I, in place on src's diagonal; dst = a M_{k+1}
            diag += ck[..., None]
            np.matmul(a, src, out=dst)
            src, dst, diag, spare = dst, src, spare, diag
    return desc[..., ::-1]


def poly_roots(p: MonicPolynomial) -> np.ndarray:
    """All complex roots of ``p`` (with multiplicity), as the eigenvalues of
    its companion matrix, sorted lexicographically by (real, imag)."""
    return sort_complex_lex(_roots(p.coeffs))


def _roots(coeffs) -> np.ndarray:
    """``np.roots`` of the monic polynomial with ascending ``coeffs``, bit for
    bit: after k leading zeros a_0 = ... = a_{k-1} = 0, k exact zero roots
    follow the eigenvalues (real if all are) of np.roots' companion matrix."""
    nonzero = np.flatnonzero(coeffs)
    if not nonzero.size:
        return np.zeros(coeffs.size)
    p = coeffs[nonzero[0]:]
    a = np.eye(p.size, k=-1)
    a[0] = -p[::-1]
    w = _per_slice(_umath_linalg.eigvals, a, signature="d->D", error="Eigenvalues did not converge")
    w = w if w.imag.any() else w.real
    return w if p.size == coeffs.size else np.concatenate((w, np.zeros(coeffs.size - p.size)))


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
    det = _per_slice(_umath_linalg.det, s)
    return sign * (float(det) if s.ndim == 2 else det)


def _binary_exponent(m) -> np.ndarray:
    """Each stacked matrix's e with max|entry| in [2^(e-1), 2^e); 0 if zero."""
    return np.frexp(np.abs(m).max(axis=(-2, -1)))[1]


def _scale_free(f, m):
    """f(s) for a scale-invariant function f of the singular values s of each
    matrix (rank, condition number). A slice whose sigma_max overflows, or is
    below 2^-969, where singular values at its rounding level underflow, is
    redone after division by 2^e; every other slice keeps its exact bits."""
    a = as_matrix(m, stacked=True)
    s = _singular_values(a)
    top = s[..., 0] if a.ndim > 2 else s[0]  # scalars compare in ~50 ns, 0-d arrays in ~500
    hit = (top == np.inf) | ((top > 0) & (top < 2.0**-969))
    if np.count_nonzero(hit) if a.ndim > 2 else hit:
        s[hit] = _singular_values(np.ldexp(a[hit], -_binary_exponent(a[hit])[..., None, None]))
    r = f(s)
    return r if a.ndim > 2 else r.item()


def _singular_values(a) -> np.ndarray:
    return _per_slice(_umath_linalg.svd, a, error="SVD did not converge")


def numerical_rank(m, tol: float = DEFAULT_RANK_TOL):
    """Number of singular values above ``tol`` times the largest one.

    A stack of matrices gives an integer array of ranks.
    """
    _positive(tol, "tol")
    return _scale_free(lambda s: (s > s[..., :1] * tol).sum(axis=-1), m)  # s descends


def condition_estimate(m):
    """2-norm condition number; inf for numerically singular input.

    A stack of matrices gives an array of estimates.
    """
    return _scale_free(_cond, m)


def _cond(s):
    """s_max / s_min; fmin turns NaN (0 / 0, inf / inf) into inf."""
    with np.errstate(all="ignore"):
        return np.fmin(s[..., 0] / s[..., -1], np.inf)


def _solve(a, b) -> np.ndarray:
    """LU solution of a x = b for a vector b (..., m), stacks broadcast, as
    ``np.linalg.solve`` gives it: LinAlgError for an exactly singular a."""
    return _per_slice(_umath_linalg.solve1, a, b, signature="dd->d", error="Singular matrix")


def _per_slice(f, *ops, signature="d->d", error=None) -> np.ndarray:
    """numpy's LAPACK gufunc f (``_umath_linalg.inv``, ``.svd``, ...) on each
    slice of the operands: a failed slice is NaN. Given an ``error``, a
    failure raises LinAlgError(error) for the stack instead, as in
    ``np.linalg``: the gufunc flags it, and only it, as an invalid operation."""
    with np.errstate(all="ignore", invalid="raise" if error else "ignore"):
        try:
            return f(*ops, signature=signature)
        except FloatingPointError:
            raise np.linalg.LinAlgError(error) from None


def _gram_certified(m, cond) -> np.ndarray:
    """True for each stacked square matrix whose cond_2 <= ``cond`` is proved:
    float Cholesky completes on G^ - s I, G^ = fl(a^T a), a = m / 2^e,
    s = tr(G^) (gamma + cond^-2), gamma = 3 (n + 2) eps. That clears cond_2 up
    to about gamma^-1/2, some 1e7 at n <= 12. Proof (u = eps / 2, g_k =
    k u / (1 - k u), G = a^T a, t = tr(G) >= 1/4): the triangle Cholesky reads
    is G + F, |F|_2 <= g_n t (Higham 2002, 3.5); lowering the diagonal adds E,
    |E|_2 <= u t; completion gives R^T R = G + F - s I + E + D >= 0 with
    |D|_2 <= g_{n+1} tr(R^T R) (Higham Thm 10.5; Rump, BIT 2006). As fl(s) >=
    (1 - (2n + 3) u) t (gamma + cond^-2), lambda_min(G) >= t / cond^2 +
    (2n + 7) u t - O(n^2 u^2 t) >= sigma_max^2 / cond^2. Underflow, in a or
    either product, moves this by less than (n + 1)^2 2^-1069, far below
    (2n + 7) u t. A singular slice gives False; m must be finite."""
    a = np.ldexp(m, -_binary_exponent(m)[..., None, None])
    n = a.shape[-1]
    g = a.swapaxes(-2, -1) @ a
    d = np.einsum("...ii->...i", g)  # a writeable view of the diagonal
    d -= d.sum(axis=-1, keepdims=True) * (3 * (n + 2) * np.finfo(float).eps + cond**-2.0)
    return ~np.isnan(_per_slice(_umath_linalg.cholesky_lo, g)[..., -1, -1])


def _cond_bracket(m) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo <= cond_2 <= hi for each stacked square matrix, from
    one LU inverse X per slice of m / 2^e. With slack = 2n eps |m|_F |X|_F and
    r = |I - mX|_F + slack <= 1/2, the inverse X (I - R)^-1 gives
    hi = |m|_F |X|_F / (1 - r); X = m^-1 (mX) gives |X|_F <= |m^-1|_2 |mX|_F,
    and |mX|_F <= sqrt(n) + r, so lo = (largest column norm of m) |X|_F /
    (sqrt(n) + r). A slice with an exact zero pivot, or a non-finite X, gets
    (0, inf); its neighbours keep theirs."""
    a = np.ldexp(m, -_binary_exponent(m)[..., None, None])
    n = a.shape[-1]
    x = _per_slice(_umath_linalg.inv, a)
    with np.errstate(over="ignore", invalid="ignore"):
        cols = np.einsum("...ij,...ij->...j", a, a)
        fm, fx = np.sqrt(cols.sum(axis=-1)), np.sqrt(np.einsum("...ij,...ij->...", x, x))
        p = a @ x - np.eye(n)
        r = np.sqrt(np.einsum("...ij,...ij->...", p, p)) + 2 * n * np.finfo(float).eps * fm * fx
        lo = np.sqrt(cols.max(axis=-1)) * fx / (math.sqrt(n) + r)
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
