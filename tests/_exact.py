"""The test suite's one exact reference: float64 inputs are dyadic
rationals, so results come in ``Fraction`` or integer arithmetic, and for
long series, whose exact values grow thousands of digits, in 40-digit
``decimal`` (about 1e-40 relative, far below float64's 1.1e-16)."""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np


def exact(x):
    """A float, or an array of them as an object array, as exact Fractions."""
    if np.ndim(x) == 0:
        return Fraction(float(x))
    return np.vectorize(Fraction, otypes=[object])(np.asarray(x, dtype=float))


def dyadic(values):
    """(integers, e): each float of ``values`` is exactly its integer / 2^e."""
    fractions = [Fraction(float(v)) for v in values]
    e = max(f.denominator.bit_length() - 1 for f in fractions)
    return [int(f * 2**e) for f in fractions], e


def exact_solve(h, rhs):
    """The x with h x = rhs for float h and rhs, by Gauss-Jordan in exact
    rational arithmetic; the least-squares x, through the normal equations,
    when h has more rows than columns. A list of Fractions."""
    h, rhs = exact(h).tolist(), exact(rhs).tolist()
    cols = len(h[0])
    if len(h) > cols:
        h, rhs = ([[sum(r[p] * r[q] for r in h) for q in range(cols)] for p in range(cols)],
                  [sum(r[p] * b for r, b in zip(h, rhs)) for p in range(cols)])
    m = [row + [b] for row, b in zip(h, rhs)]
    for i in range(len(m)):
        m[i:] = sorted(m[i:], key=lambda row: row[i] == 0)  # a nonzero pivot first
        m[i] = [t / m[i][i] for t in m[i]]
        for r in range(len(m)):
            if r != i:
                m[r] = [a - m[r][i] * b for a, b in zip(m[r], m[i])]
    return [row[-1] for row in m]


def exact_char_poly(a):
    """Ascending coefficients (a_0, ..., a_{n-1}) of det(lI - A), as
    Fractions: Faddeev-LeVerrier on the integer matrix B = 2^e A, whose
    coefficients are integers, so each division by k is exact; the
    coefficient of l^(n-k) is B's over 2^(e k)."""
    n = len(a)
    ints, e = dyadic(np.ravel(a))
    b, eye = np.array(ints, dtype=object).reshape(n, n), np.identity(n, dtype=object)
    desc, mk = [], eye
    for k in range(1, n + 1):
        bm = b @ mk
        ck, rest = divmod(-np.trace(bm), k)
        assert rest == 0
        desc.append(Fraction(ck, 2 ** (e * k)))
        mk = bm + ck * eye
    return desc[::-1]


def exact_series(a, b, c, x, length):
    """The outputs c x_i of one system's x_{i+1} = A x_i (+ b), i < length,
    in 40-digit decimal arithmetic on the float64 inputs (b may be None)."""
    to_decimal = np.vectorize(lambda v: Decimal(float(v)), otypes=[object])
    with localcontext(prec=40):
        a, b, c, x = (to_decimal(0.0 if v is None else v) for v in (a, b, c, x))
        y = np.empty(length, dtype=object)
        for i in range(length):
            y[i] = c @ x
            x = a @ x + b
    return y.astype(float)


def fibonacci(length):
    """The exact integers F_1, ..., F_length (F_1 = F_2 = 1)."""
    f = [1, 1]
    while len(f) < length:
        f.append(f[-2] + f[-1])
    return f[:length]


def bitwise_equal(x, y):
    """Same shape and the same bits in every entry (so -0.0 is not 0.0)."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def significant_bits(x: float) -> int:
    """Number of bits from the leading to the last set bit of |x|; 0 for 0."""
    num = abs(Fraction(x).numerator)
    return (num >> ((num & -num).bit_length() - 1)).bit_length() if num else 0
