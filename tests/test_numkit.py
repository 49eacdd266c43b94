import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from linident import (
    DimensionMismatch,
    MonicPolynomial,
    PredictionModel,
    assess_stability,
    char_poly,
    condition_estimate,
    discriminant,
    mat_exp,
    numerical_rank,
    poly_roots,
)
from linident import numkit
from linident.dynsys import _iterate, krylov_matrix, observability_matrix
from linident.experiments import CONTINUOUS_STEP, TrialConfig, _draw_block
from linident.ident import _hankel, _lu_solve
from linident.numkit import (DEFAULT_RANK_TOL, _binary_exponent, _cond_bracket, _dd, _dd_matmul,
                             _gram_certified, _norm1, _roots, _split, _two_sum, as_matrix)
from _exact import bitwise_equal, exact, exact_char_poly, exact_exp, significant_bits


# exponents across float64's range, the split's pre-scaled top (|x| > 2^996),
# the largest double whose 26-bit parts stay finite, subnormals, signed zeros
EDGES = [1.5e308, -2.0**1000 * 1.2345, (2 - 2.0**-25) * 2.0**1023, 2.0**996, 2.0**997,
         5e-324, -3e-310, 2.0**-1022, 0.0, -0.0, 1.0, -1.0 / 3]
# (windows, length) of a read-only Hankel view of a series as the left operand
WINDOWS = (40, 7)


class TestDoubleDouble:
    """The double-double kernels against exact rational arithmetic."""

    def values(self, count=400):
        rng = np.random.default_rng(12)
        x = rng.uniform(1, 2, count) * np.exp2(rng.integers(-1070, 1020, count))
        return np.concatenate((np.where(rng.random(count) < 0.5, -x, x), EDGES))

    def test_two_sum_is_exact(self):
        a = self.values()
        b = np.random.default_rng(13).permutation(a) * 2.0**-30
        s, e = _two_sum(a, b)
        assert np.array_equal(s, a + b)
        for x, y, hi, lo in zip(a, b, s, e):
            assert exact(hi) + exact(lo) == exact(x) + exact(y)

    def test_two_sum_of_signed_zeros(self):
        s, e = _two_sum(np.array([-0.0, -0.0, 0.0]), np.array([-0.0, 0.0, -0.0]))
        assert np.signbit(s).tolist() == [True, False, False]
        assert (e == 0).all()

    def test_split_is_exact_in_26_bits(self):
        x = self.values()
        hi, lo = _split(x)
        assert np.isfinite(hi).all() and np.isfinite(lo).all()
        for v, h, l in zip(x, hi, lo):
            assert exact(h) + exact(l) == exact(v)
            if abs(v) >= 2.0**-969:  # lo normal: a product of parts is exact
                assert significant_bits(h) <= 26 and significant_bits(l) <= 26
        assert np.signbit(_split(np.array([-0.0]))[0]).all()

    @pytest.mark.parametrize("shape_a, shape_b", [((4, 5), (5, 3)), ((3, 2, 6), (6, 1)),
                                                  ((1, 3), (2, 3, 7)), (WINDOWS, (7, 1))])
    def test_product_against_the_exact_one(self, shape_a, shape_b):
        """hi + lo errs by at most m 2^-104 |a||b| (measured: 3 * 2^-106), hi is
        the correctly rounded exact product, and mag is |a_hi| @ |b_hi|;
        leading axes broadcast. WINDOWS multiplies the read-only, overlapping
        Hankel view of a series, every low part zero, by a column."""
        rng = np.random.default_rng(14)
        if shape_a == WINDOWS:
            k = sum(shape_a) - 1
            y = rng.standard_normal(k) * 10.0 ** rng.integers(-200, 200, k)
            a, b = _dd(_hankel(y, 0, shape_a[1], shape_a[0])), _dd(rng.standard_normal(shape_b))
        else:
            a, b = (np.stack((h, h * rng.uniform(-1, 1, h.shape) * 2.0**-53))
                    for h in (rng.standard_normal(shape_a) * 10.0 ** rng.integers(-200, 200, shape_a),
                              rng.standard_normal(shape_b)))
        hi, lo, mag = _dd_matmul(a, b)
        assert hi.shape == lo.shape == mag.shape == np.broadcast_shapes(shape_a[:-1] + (1,),
                                                                        shape_b[:-2] + (1, shape_b[-1]))
        np.testing.assert_allclose(mag, np.abs(a[0]) @ np.abs(b[0]), rtol=1e-15)
        want = (exact(a[0]) + exact(a[1])) @ (exact(b[0]) + exact(b[1]))
        for i in np.ndindex(hi.shape):
            assert abs(exact(hi[i]) + exact(lo[i]) - want[i]) <= shape_a[-1] * 2.0**-104 * mag[i]
            assert hi[i] == float(want[i])


class TestMatExp:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(mat_exp(np.zeros((3, 3)), 17.0), np.eye(3))

    def test_rotation_generator(self):
        lam = 0.7
        e = mat_exp([[0, 1], [-1, 0]], lam)
        expect = [[math.cos(lam), math.sin(lam)], [-math.sin(lam), math.cos(lam)]]
        np.testing.assert_allclose(e, expect, atol=1e-14)

    def test_diagonal(self):
        e = mat_exp(np.diag([1.0, 2.0]), 1.0)
        np.testing.assert_allclose(e, np.diag([math.e, math.e ** 2]), rtol=1e-14)

    def test_semigroup(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            m = rng.standard_normal((n, n))
            m /= max(1.0, np.linalg.norm(m))
            s, t = rng.uniform(-1, 1, 2)
            lhs = mat_exp(m, s + t)
            rhs = mat_exp(m, s) @ mat_exp(m, t)
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_liouville_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            m = rng.standard_normal((n, n))
            t = rng.uniform(-1, 1)
            det = np.linalg.det(mat_exp(m, t))
            expect = math.exp(t * np.trace(m))
            assert abs(det - expect) <= 1e-9 * abs(expect)

    def test_huge_step_scales_exactly(self):
        # t = 2^1023 needs s = 1024: 2^s overflows, 2^-s is exact
        t = 2.0**1023
        np.testing.assert_array_equal(mat_exp([[-1.0]], t), [[0.0]])
        with np.errstate(over="ignore"):
            assert not np.isfinite(mat_exp([[1.0]], t)).any()

    def test_huge_slice_leaves_the_stack_alone(self):
        rng = np.random.default_rng(23)
        stack = rng.uniform(-1, 1, (5, 3, 3))
        stack[2] = np.diag([-2.0**1023, -2.0**1022, -2.0**1000])
        e = mat_exp(stack, 1.0)
        np.testing.assert_array_equal(e[2], np.zeros((3, 3)))
        for i in (0, 1, 3, 4):
            assert e[i].tobytes() == mat_exp(stack[i], 1.0).tobytes()

    @staticmethod
    def with_norm(n, r, rng):
        """An n x n float matrix of 1-norm r to about 2^-33: 19-bit entries
        times a 34-bit factor, so every entry is an exact product."""
        m = rng.integers(-2**19, 2**19, (n, n)) / 2.0**19
        mantissa, e = math.frexp(r / _norm1(m))
        return m * math.ldexp(round(math.ldexp(mantissa, 34)), e - 34)

    @pytest.mark.parametrize("n", [2, 3])
    def test_accuracy_where_the_series_length_changes(self, n):
        """Just below the reach r_k of the series ending at term k, and just
        above it, where one term more runs; r = 0 gives exactly I, r = 1/2
        ends at term 15, and past 1/2 (r_15 = 0.576) x is scaled first. Each
        result is within 4 (n + 1) u |e^x|_1 of the exact exponential."""
        rng = np.random.default_rng(n)
        assert mat_exp(np.zeros((n, n))).tobytes() == np.eye(n).tobytes()
        cases = [self.with_norm(n, 0.5, rng)]
        for reach in numkit._TAYLOR_REACH:
            below, above = (self.with_norm(n, reach * f, rng) for f in (1 - 2**-20, 1 + 2**-20))
            assert _norm1(below) <= reach < _norm1(above)
            cases += [below, above]
        for x in cases:
            want = exact_exp(x)
            error = max(sum(map(abs, col)) for col in (exact(mat_exp(x)) - want).T)
            assert error <= 4 * (n + 1) * 2.0**-53 * max(sum(map(abs, col)) for col in want.T)


@pytest.mark.parametrize("shape", [(40, 1, 1), (40, 2, 2), (40, 3, 3), (40, 8, 8),
                                   (40, 12, 12), (33, 33), (130, 130)])
def test_norm1_matches_column_sum_bits(shape):
    """Bit-equal to the plain column-sum expression over entries spanning
    2^-500 .. 2^500, with signed zeros, infinities and NaN mixed in."""
    rng = np.random.default_rng(sum(shape))
    stages = [rng.uniform(-1, 1, shape) * np.exp2(rng.integers(-500, 501, shape))]
    for special in (0.0, -0.0, math.inf, -math.inf, math.nan):
        stages.append(np.where(rng.uniform(size=shape) < 0.02, special, stages[-1]))
    for m in stages:
        assert _norm1(m).tobytes() == np.abs(m).sum(axis=-2).max(axis=-1).tobytes()


class TestCharPoly:
    def test_identity(self):
        p = char_poly(np.eye(2))
        np.testing.assert_allclose(p.coeffs, [1, -2], atol=1e-14)

    def test_fibonacci_matrix(self):
        p = char_poly([[0, 1], [1, 1]])
        np.testing.assert_allclose(p.coeffs, [-1, -1], atol=1e-14)

    def test_companion_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            p = MonicPolynomial(rng.uniform(-2, 2, n))
            back = char_poly(PredictionModel(p.coeffs).companion)
            assert np.abs(back.coeffs - p.coeffs).max() <= 1e-10

    @pytest.mark.parametrize("n, bound", [(8, 1e-14), (12, 2e-13), (16, 5e-12)])
    def test_against_exact_faddeev_leverrier(self, n, bound):
        """The Monte Carlo truth's accuracy on uniform(-1, 1) matrices: the
        largest coefficient error relative to the largest exact coefficient
        (measured over 200 draws per n under four BLAS kernels: at most
        2.0e-15, 3.8e-14 and 5.8e-13)."""
        assert exact_char_poly([[0.5, 1.0], [1.0, 1.0]]) == [-0.5, -1.5]  # l^2 - 1.5 l - 0.5
        rng = np.random.default_rng(n)
        for _ in range(10):
            a = rng.uniform(-1, 1, (n, n))
            want = exact_char_poly(a)
            error = max(abs(exact(g) - w) for g, w in zip(char_poly(a).coeffs, want))
            assert error <= bound * max(map(abs, want))


    @staticmethod
    def shifted_by_sum(a):
        """Faddeev-LeVerrier with the shift written as a sum over every entry,
        mk = am + ck I, and the first product a @ I: ascending coefficients."""
        n = a.shape[-1]
        eye = np.eye(n)
        desc, mk = np.empty(a.shape[:-1]), eye
        for k in range(1, n + 1):
            am = a @ mk
            ck = -am.trace(axis1=-2, axis2=-1) / k
            desc[..., k - 1] = ck
            mk = am + ck[..., None, None] * eye
        return desc[..., ::-1]

    @pytest.mark.parametrize("n", range(1, 17))
    def test_in_place_shift_keeps_the_bits(self, n):
        """The diagonal shifted in place gives the sum's bits, single matrices
        and stacks alike (both run the same matmul, so under every kernel)."""
        rng = np.random.default_rng(n)
        jordan = np.eye(n, k=1) - 0.75 * np.eye(n)
        cases = [np.zeros((n, n)), np.eye(n), jordan, np.eye(n, k=1)]
        for scale in (1e-3, 1.0, 1e3):
            cases += [rng.uniform(-1, 1, shape + (n, n)) * scale for shape in ((), (1,), (7,), (200,))]
        for a in cases:
            given = a.copy()
            got = char_poly(a)
            assert bitwise_equal(a, given)  # the shift writes to a copy
            assert bitwise_equal(got.coeffs if a.ndim == 2 else got, self.shifted_by_sum(a))

    @pytest.mark.parametrize("n", [2, 3, 6, 12, 16])
    def test_overflow_turns_the_same_coefficient_non_finite(self, n):
        """Entries about 1e200 overflow a coefficient: the first non-finite one
        (in the order Faddeev-LeVerrier computes them, a_{n-1} first) is the
        sum's, and every one before it keeps the sum's bits. The later ones
        may differ: the sum adds ck * 0 = NaN to every entry of an infinite
        ck's shift, where the in-place shift touches only the diagonal and may
        leave +-inf."""
        a = np.random.default_rng(n).uniform(-1, 1, (50, n, n)) * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = char_poly(a)[:, ::-1], self.shifted_by_sum(a)[:, ::-1]
        first = np.argmin(np.isfinite(want), axis=-1)
        assert not np.isfinite(want).all(axis=-1).any()
        np.testing.assert_array_equal(np.argmin(np.isfinite(got), axis=-1), first)
        before = np.arange(n) < first[:, None]
        assert bitwise_equal(got[before], want[before])


class TestCompanionMatrix:
    def test_square_minus_one(self):
        np.testing.assert_array_equal(
            PredictionModel([-1, 0]).companion, [[0, 1], [1, 0]])

    def test_fibonacci(self):
        np.testing.assert_array_equal(
            PredictionModel([-1, -1]).companion, [[0, 1], [1, 1]])

    def test_degree_one(self):
        np.testing.assert_array_equal(PredictionModel([5]).companion, [[-5]])


class TestPolyRoots:
    def test_plus_minus_one(self):
        roots = poly_roots(MonicPolynomial([-1, 0]))
        np.testing.assert_allclose(roots, [-1, 1], atol=1e-10)

    def test_imaginary_pair(self):
        roots = poly_roots(MonicPolynomial([1, 0]))
        np.testing.assert_allclose(roots, [-1j, 1j], atol=1e-10)

    def test_one_two_three(self):
        # (l-1)(l-2)(l-3) = l^3 - 6 l^2 + 11 l - 6
        p = MonicPolynomial([-6, 11, -6])
        roots = poly_roots(p)
        np.testing.assert_allclose(roots, [1, 2, 3], atol=1e-8)
        assert np.abs(p(roots)).max() <= 1e-8

    def test_sorted_and_conjugate_paired(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            roots = poly_roots(MonicPolynomial(rng.uniform(-2, 2, n)))
            tol = 1e-10 * (1.0 + np.abs(roots).max())
            for a, b in zip(roots, roots[1:]):
                assert b.real > a.real - tol
                assert abs(b.real - a.real) > tol or b.imag >= a.imag
            nonreal = roots[np.abs(roots.imag) > 1e-8]
            paired = sorted(nonreal, key=lambda z: (z.real, abs(z.imag), z.imag))
            for a, b in zip(paired[::2], paired[1::2]):
                assert abs(a - np.conj(b)) <= 1e-7

    def test_diagonal_spectrum(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            while True:
                diag = np.sort(rng.uniform(-3, 3, n))
                if np.diff(diag).min() >= 0.1:
                    break
            roots = poly_roots(char_poly(np.diag(diag)))
            np.testing.assert_allclose(roots.real, diag, atol=1e-8)
            assert np.abs(roots.imag).max() <= 1e-8

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_known_spectrum_at_higher_degree(self, n):
        chebyshev = np.sort(np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n)))
        for diag in (chebyshev, np.linspace(-3, 2, n)):
            roots = poly_roots(char_poly(np.diag(diag)))
            np.testing.assert_allclose(roots.real, diag, atol=1e-9)
            assert np.abs(roots.imag).max() <= 1e-9

    def test_degree_one_is_exact(self):
        for a0 in (5.0, -0.1, 1e-30, 3.7e12):
            assert poly_roots(MonicPolynomial([a0])).tolist() == [complex(-a0)]

    def test_zero_polynomial_roots(self):
        assert poly_roots(MonicPolynomial([0, 0])).tolist() == [0j, 0j]


class TestResultantDiscriminant:
    def test_quadratic_derivative(self):
        # disc(l^2 + a l + b) = a^2 - 4b, through the Sylvester matrix of p and p' = 2l + a
        for a, b in [(0.5, 2.0), (-1.25, 0.75), (3.0, -2.0)]:
            assert discriminant(MonicPolynomial([b, a])) == pytest.approx(a * a - 4 * b, rel=1e-12)

    def test_discriminant_quadratics(self):
        assert discriminant(MonicPolynomial([-1, 0])) == pytest.approx(4.0)
        assert discriminant(MonicPolynomial([1, -2])) == pytest.approx(0.0, abs=1e-12)
        assert discriminant(MonicPolynomial([1, 0])) == pytest.approx(-4.0)

    def test_discriminant_detects_repeated_roots(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            while True:
                roots = np.sort(rng.uniform(-2, 2, n))
                if n == 1 or np.diff(roots).min() >= 0.1:
                    break
            coeffs = np.poly(roots)  # descending, independent construction
            p = MonicPolynomial(coeffs[1:][::-1])
            scale = max(1.0, np.abs(p.coeffs).max()) ** (2 * n - 2)
            assert abs(discriminant(p)) > 1e-12 * scale
            # force a repeated root
            doubled = np.concatenate((roots[:-1], [roots[0]]))
            pd = MonicPolynomial(np.poly(doubled)[1:][::-1])
            assert abs(discriminant(pd)) <= 1e-9 * scale


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(4)) == 4

    def test_one_independent_row(self):
        assert numerical_rank([[1, 1], [0, 0]]) == 1

    def test_near_duplicate_rows(self):
        eps = 1e-14
        assert numerical_rank([[1, 1], [1, 1 + eps]]) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 2))) == 0


class TestNearFloatLimit:
    """Rank and condition number are scale-invariant, also for finite
    matrices whose largest singular value overflows."""

    # the observability matrix of A = [[1.5, 1.5], [-1.5, 1.5]], c = (1e308, 0)
    Q = np.array([[1e308, 0.0], [1.5e308, 1.5e308]])

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_rank_and_condition(self):
        assert numerical_rank(self.Q) == 2
        assert condition_estimate(self.Q) == pytest.approx(np.linalg.cond(self.Q / 1e300))

    def test_rank_one(self):
        m = np.full((2, 2), 1e308)
        assert numerical_rank(m) == 1
        assert condition_estimate(m) > 1e15

    def test_rectangular(self):
        m = np.vstack((self.Q, [1e308, -1e308]))
        assert numerical_rank(m) == 2
        assert numerical_rank(m.T) == 2
        assert math.isfinite(condition_estimate(m))

    def test_one_svd_unless_out_of_range(self, monkeypatch):
        """One SVD per call unless sigma_max overflows or is tiny: a zero
        matrix's rank 0 and cond inf are the first SVD's answers."""
        calls, svd = [], numkit._singular_values
        monkeypatch.setattr(numkit, "_singular_values", lambda a: calls.append(a.shape) or svd(a))
        for call, m in ((numerical_rank, np.zeros((3, 3))), (numerical_rank, np.zeros((4, 3, 3))),
                        (condition_estimate, np.zeros((3, 3)))):
            calls.clear()
            call(m)
            assert len(calls) == 1
        calls.clear()
        assert numerical_rank(np.stack((np.eye(2), self.Q, np.ldexp(np.eye(2), -1000)))).tolist() == [2, 2, 2]
        assert calls == [(3, 2, 2), (2, 2, 2)]

    @pytest.mark.parametrize("k", [-1000, -1060, -1074])
    def test_tiny_matrix_reads_as_at_scale_one(self, k):
        """Integer matrices times 2^k, entries down to subnormal: sigma_max
        below 2^-969 is redone after division by 2^e, so rank and condition
        number are those at scale 1, single and stacked. Unscaled, the
        nonsingular one (det -1, cond about 4e6) loses its smallest singular
        value to underflow at k = -1074, and its condition number's digits
        at k = -1060."""
        m = np.array([[[1000.0, 999.0], [999.0, 998.0]], [[3.0, 1.0], [3.0, 1.0]]])
        tiny = np.ldexp(m, k)
        assert numerical_rank(tiny).tolist() == numerical_rank(m).tolist() == [2, 1]
        assert bitwise_equal(condition_estimate(tiny), condition_estimate(m))
        for one, alone in zip(tiny, m):
            assert numerical_rank(one) == numerical_rank(alone)
            assert condition_estimate(one) == condition_estimate(alone)

    def test_stack_slices_as_alone(self):
        rng = np.random.default_rng(23)
        stack = rng.uniform(-1, 1, (5, 2, 2))
        stack[1] = self.Q
        stack[3] = 0.0  # rank 0 and condition inf without an overflow
        ranks, conds = numerical_rank(stack), condition_estimate(stack)
        for m, r, k in zip(stack, ranks, conds):
            assert r == numerical_rank(m)
            assert k == condition_estimate(m)
        assert ranks.tolist() == [2, 2, 2, 0, 2]
        assert math.isfinite(conds[1]) and math.isinf(conds[3])
        for i in (0, 2, 4):  # ordinary slices keep numpy's bits
            assert conds[i] == np.linalg.cond(stack[i])


class TestCondBracket:
    """_cond_bracket's (lo, hi) holds the SVD's condition number of each slice."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @staticmethod
    def assert_brackets(m):
        lo, hi = _cond_bracket(m)
        cond = condition_estimate(m)
        assert np.all(lo <= cond) and np.all(cond <= hi)
        return lo, hi

    @pytest.mark.parametrize("n", range(1, 17))
    def test_uniform(self, n):
        lo, hi = self.assert_brackets(np.random.default_rng(n).uniform(-1, 1, (100, n, n)))
        assert np.all(lo > 0) and np.all(np.isfinite(hi))

    @pytest.mark.parametrize("step", [None, CONTINUOUS_STEP], ids=["discrete", "continuous"])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_hankel_windows_of_draws(self, n, step):
        c, a, x0 = _draw_block(TrialConfig(n=n, trials=100, seed=n), 0, 100)
        sampled = a if step is None else mat_exp(a, step)
        self.assert_brackets(_hankel(_iterate(sampled, None, c, x0, 2 * n), 0, n))

    @pytest.mark.parametrize("cond", [1e6, 1e8, 1e10, 1e12, 1e14])
    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_ill_conditioned(self, n, cond):
        rng = np.random.default_rng(n)
        u, v = np.linalg.qr(rng.standard_normal((2, 50, n, n)))[0]
        m = u * np.geomspace(1, 1 / cond, n) @ v.swapaxes(-2, -1)
        lo, hi = self.assert_brackets(m)
        assert np.all(lo > 0)
        assert cond > 1e12 or np.all(np.isfinite(hi))  # r <= 1/2 while cond eps is small

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_identity_lower_bound(self, n):
        # |X|_F = sqrt(n) = |mX|_F: lo falls short of cond = 1 only by r's slack
        lo, hi = self.assert_brackets(np.eye(n))
        assert lo > 0.99

    def test_singular_slice_gets_zero_to_inf(self):
        # Q of A = I repeats c: an exact zero pivot, as does a zero row
        rng = np.random.default_rng(31)
        m = rng.uniform(-1, 1, (6, 3, 3))
        m[1] = observability_matrix(np.eye(3), m[1, 0])
        m[4, 2] = 0.0
        lo, hi = _cond_bracket(m)
        assert lo[[1, 4]].tolist() == [0.0, 0.0] and np.isinf(hi[[1, 4]]).all()
        regular = [0, 2, 3, 5]
        alone = _cond_bracket(m[regular])
        np.testing.assert_array_equal(lo[regular], alone[0])
        np.testing.assert_array_equal(hi[regular], alone[1])

    def test_zero_pivot_costs_one_inverse(self, monkeypatch):
        # one LAPACK inverse per slice: a zero pivot leaves no inverse to redo and no slogdet
        calls = []

        def counting(name, f):
            def call(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return call

        lapack = numkit._umath_linalg
        monkeypatch.setattr(numkit, "_umath_linalg", SimpleNamespace(
            inv=counting("inv", lapack.inv), cholesky_lo=counting("cholesky", lapack.cholesky_lo)))
        for name in ("inv", "slogdet"):
            monkeypatch.setattr(np.linalg, name, counting(f"np.linalg.{name}", getattr(np.linalg, name)))
        m = np.random.default_rng(33).uniform(-1, 1, (5, 4, 4))
        m[2] = observability_matrix(np.eye(4), m[2, 0])
        lo, hi = _cond_bracket(m)
        assert calls == ["inv"]
        assert lo[2] == 0.0 and np.isinf(hi[2])
        alone = _cond_bracket(m[[0, 1, 3, 4]])
        np.testing.assert_array_equal(lo[[0, 1, 3, 4]], alone[0])
        np.testing.assert_array_equal(hi[[0, 1, 3, 4]], alone[1])

    def test_scale_free(self):
        m = np.random.default_rng(37).uniform(-1, 1, (20, 4, 4))
        want = _cond_bracket(m)
        near_limit = np.ldexp(m, 1024 - _binary_exponent(m)[:, None, None])
        assert np.abs(near_limit).max() > 1e308
        for scaled in (np.ldexp(m, 600), np.ldexp(m, -600), near_limit):
            got = _cond_bracket(scaled)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])


class TestGramCertificate:
    """_gram_certified proves cond_2 <= cond: every slice it certifies has an
    SVD condition number within cond."""

    CAP = 0.5 / DEFAULT_RANK_TOL  # what _full_rank asks it to prove

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @staticmethod
    def assert_certifies(m, cond):
        certified = _gram_certified(m, cond)
        assert certified.shape == m.shape[:-2]
        assert np.all(condition_estimate(m[certified]) <= cond)
        return certified

    @pytest.mark.parametrize("n", range(1, 17))
    def test_uniform(self, n):
        m = np.random.default_rng(n).uniform(-1, 1, (100, n, n))
        for cond in (10.0, 100.0):  # where the cond^-2 term of the shift decides
            self.assert_certifies(m, cond)
        assert self.assert_certifies(m, self.CAP).all()

    @pytest.mark.parametrize("n", range(2, 13))
    def test_monte_carlo_matrices(self, n):
        c, a, x0 = _draw_block(TrialConfig(n=n, trials=100, seed=n), 0, 100)
        window = _hankel(_iterate(a, None, c, x0, 2 * n), 0, n)
        for m in (observability_matrix(a, c), krylov_matrix(a, x0)):
            assert self.assert_certifies(m, self.CAP).all()
        assert self.assert_certifies(window, self.CAP).any()  # 14 of 100 at n = 12

    @pytest.mark.parametrize("cond", [1e4, 1e6, 1e7, 3e7, 1e9, 1e12])
    @pytest.mark.parametrize("n", [2, 5, 12, 16])
    def test_ill_conditioned(self, n, cond):
        rng = np.random.default_rng(n)
        u, v = np.linalg.qr(rng.standard_normal((2, 50, n, n)))[0]
        m = u * np.geomspace(1, 1 / cond, n) @ v.swapaxes(-2, -1)
        m = np.ldexp(m, rng.integers(-599, 600, (50, 1, 1)))
        certified = self.assert_certifies(m, self.CAP)
        # the shift clears cond_2 up to about (3 (n + 2) eps)^-1/2
        if cond >= 3e7:
            assert not certified.any()
        elif cond <= 1e6 or n <= 12:
            assert certified.all()

    def test_singular_slice_is_not_certified(self):
        # Q of A = I repeats c, as a zero row repeats nothing
        rng = np.random.default_rng(31)
        m = rng.uniform(-1, 1, (6, 3, 3))
        m[1] = observability_matrix(np.eye(3), m[1, 0])
        m[4, 2] = 0.0
        certified = _gram_certified(m, self.CAP)
        assert certified.tolist() == [True, False, True, True, False, True]
        np.testing.assert_array_equal(_gram_certified(m[[0, 2, 3, 5]], self.CAP), certified[[0, 2, 3, 5]])
        assert not _gram_certified(np.zeros((3, 3)), self.CAP)

    def test_scale_free(self):
        rng = np.random.default_rng(37)
        m = rng.uniform(-1, 1, (40, 4, 4))
        m[::2, :, 0] = m[::2, :, 1] * (1 + rng.uniform(-1e-7, 1e-7, (20, 4)))  # cond about 1e7 and up
        want = _gram_certified(m, self.CAP)
        assert 0 < want.sum() < len(m)
        near_limit = np.ldexp(m, 1024 - _binary_exponent(m)[:, None, None])
        assert np.abs(near_limit).max() > 1e308
        for scaled in (np.ldexp(m, 600), np.ldexp(m, -600), near_limit):
            np.testing.assert_array_equal(_gram_certified(scaled, self.CAP), want)


def failing(gufunc):
    """``gufunc`` as LAPACK failing on every slice: a NaN result, flagged as
    an invalid operation (inf - inf here)."""
    def call(*ops, signature):
        return np.subtract(np.full_like(gufunc(*ops, signature=signature), np.inf), np.inf)
    return call


class TestLapackPath:
    """numkit's direct gufunc calls give np.linalg's and np.roots' bits, and
    its LinAlgError exactly where np.linalg raises one."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @staticmethod
    def matrices(n, rng):
        """30 n x n matrices over many scales: full rank, rank n - 1 and
        rank 1 (a repeated column, an outer product), and the zero matrix."""
        m = rng.standard_normal((30, n, n)) * 10.0 ** rng.uniform(-100, 100, (30, 1, 1))
        if n > 1:
            m[3:8, :, 0] = m[3:8, :, 1]
        m[8:12] = rng.standard_normal((4, n, 1)) * rng.standard_normal((4, 1, n))
        m[12] = 0.0
        return m

    @pytest.mark.parametrize("n", range(1, 17))
    def test_rank_and_condition(self, n):
        stack = self.matrices(n, np.random.default_rng(n))
        assert bitwise_equal(condition_estimate(stack), np.linalg.cond(stack))
        for tol in (1e-9, 1e-3):
            assert bitwise_equal(numerical_rank(stack, tol), np.linalg.matrix_rank(stack, rtol=tol))
        for m in stack[::3]:
            assert condition_estimate(m) == float(np.linalg.cond(m))
            assert numerical_rank(m, 1e-3) == int(np.linalg.matrix_rank(m, rtol=1e-3))
        assert condition_estimate(stack[12]) == math.inf and numerical_rank(stack[12]) == 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_lu_solve_and_discriminant_stacks(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        h, b = rng.standard_normal((40, n, n)), rng.standard_normal((40, n))
        assert bitwise_equal(_lu_solve(h, b), np.linalg.solve(h, b[..., None])[..., 0])
        if n >= 2:
            coeffs = rng.standard_normal((40, n))
            got = discriminant(coeffs)
            # the same Sylvester matrices through np.linalg.det
            monkeypatch.setattr(numkit, "_umath_linalg", SimpleNamespace(det=lambda s, signature: np.linalg.det(s)))
            assert bitwise_equal(got, discriminant(coeffs))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_roots(self, n):
        rng = np.random.default_rng(n)
        cases = [np.zeros(n), rng.standard_normal(n), np.round(rng.uniform(-3, 3, (50, n)))]
        for zeros in (1, 2):  # a_0 = 0, a_0 = a_1 = 0
            cases.append(np.concatenate((np.zeros(zeros), rng.standard_normal(n)))[:n])
        for coeffs in np.vstack(cases):
            want = np.roots(MonicPolynomial(coeffs).descending())
            assert bitwise_equal(_roots(coeffs), want)
            assert bitwise_equal(poly_roots(MonicPolynomial(coeffs)), numkit.sort_complex_lex(want))
        assert _roots(np.zeros(n)).tolist() == [0.0] * n

    def test_singular_solve_raises(self):
        h = np.random.default_rng(5).standard_normal((4, 3, 3))
        h[2, :, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            _lu_solve(h, np.ones((4, 3)))

    def test_nan_from_a_successful_solve_is_not_an_error(self):
        # LU succeeds but forward substitution overflows (inf - inf): np.linalg.solve
        # returns the NaNs without raising, and so does the direct call
        h = np.array([[3.0, 3.0, -4.0], [3.0, -4.0, 2.0], [-3.0, 3.0, 0.0]])
        b = np.array([1e308, -1e308, 1e308])
        got = _lu_solve(h, b)
        assert np.isnan(got).all()
        with np.errstate(over="ignore", invalid="ignore"):
            assert bitwise_equal(got, np.linalg.solve(h, b))

    def test_failed_svd_and_eigenvalues_raise(self, monkeypatch):
        lapack = numkit._umath_linalg
        monkeypatch.setattr(numkit, "_umath_linalg", SimpleNamespace(
            svd=failing(lapack.svd), eigvals=failing(lapack.eigvals)))
        m = np.random.default_rng(6).standard_normal((3, 4, 4))
        for call in (condition_estimate, numerical_rank):
            for arg in (m, m[0]):
                with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                    call(arg)
        p = MonicPolynomial([0.5, -1.0, 0.25])
        for call in (lambda: poly_roots(p), lambda: assess_stability(PredictionModel(p.coeffs))):
            with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
                call()


class TestStackedKernels:
    """A stack of matrices gives each slice exactly its single-matrix result."""

    @pytest.fixture
    def stack(self):
        rng = np.random.default_rng(21)
        m = rng.uniform(-1, 1, (7, 4, 4))
        m[2] *= 40.0  # needs squaring steps the others do not
        m[5] = np.eye(4)  # repeated eigenvalue, singular difference
        return m

    def test_char_poly(self, stack):
        coeffs = char_poly(stack)
        assert coeffs.shape == (7, 4)
        for m, row in zip(stack, coeffs):
            np.testing.assert_array_equal(row, char_poly(m).coeffs)

    def test_discriminant(self, stack):
        d = discriminant(char_poly(stack))
        for m, v in zip(stack, d):
            assert v == discriminant(char_poly(m))
        assert d[5] == pytest.approx(0.0, abs=1e-12)

    def test_mat_exp(self, stack):
        # sparse slices over many scales stop their series after different terms
        rng = np.random.default_rng(22)
        sparse = rng.uniform(-1, 1, (32, 5, 5)) * (rng.uniform(size=(32, 5, 5)) < 0.6)
        for m in (stack, sparse * 10.0 ** rng.uniform(-12, 1, (32, 1, 1))):
            e = mat_exp(m, 0.7)
            for one, v in zip(m, e):
                np.testing.assert_array_equal(v, mat_exp(one, 0.7))

    def test_mat_exp_overflow_is_nan_only_in_its_slice(self, stack):
        stack[3] *= 1e306
        with np.errstate(over="ignore", invalid="ignore"):
            e = mat_exp(stack, 100.0)
        assert np.isnan(e[3]).all()
        np.testing.assert_array_equal(e[0], mat_exp(stack[0], 100.0))

    def test_rank_and_condition(self, stack):
        ranks = numerical_rank(stack)
        conds = condition_estimate(stack)
        assert ranks.dtype.kind == "i"
        for m, r, k in zip(stack, ranks, conds):
            assert r == numerical_rank(m)
            assert k == condition_estimate(m)
        assert math.isinf(condition_estimate(np.zeros((2, 3, 3)))[1])

    def test_single_matrix_results_keep_their_types(self):
        assert isinstance(char_poly(np.eye(2)), MonicPolynomial)
        assert isinstance(numerical_rank(np.eye(2)), int)
        assert isinstance(condition_estimate(np.eye(2)), float)
        assert isinstance(discriminant(MonicPolynomial([-1, 0])), float)


@pytest.mark.parametrize("call, error, message", [
    (lambda: as_matrix([1.0, 2.0]), DimensionMismatch, "expected a 2-D matrix, got ndim=1"),
    (lambda: as_matrix(np.zeros((0, 3))), DimensionMismatch, r"empty matrix of shape \(0, 3\)"),
    (lambda: mat_exp(np.eye(2), math.nan), ValueError, "t must be finite"),
    (lambda: mat_exp(np.eye(2), math.inf), ValueError, "t must be finite"),
    (lambda: discriminant(MonicPolynomial([2.0])), ValueError, "requires degree >= 2"),
], ids=["matrix-1d", "matrix-empty", "mat-exp-t-nan", "mat-exp-t-inf", "discriminant-degree-1"])
def test_invalid_input_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
