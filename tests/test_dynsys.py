import math
import warnings

import numpy as np
import pytest

from linident import (
    MissingStep,
    NonFinite,
    NotObservable,
    SystemSpec,
    affine_offset,
    char_poly,
    hankel,
    identify_affine,
    is_observable,
    krylov_matrix,
    mat_exp,
    observability_matrix,
    output_row_G,
    sample_continuous,
    simulate_discrete,
)
from linident.dynsys import _iterate, _powers
from _exact import bitwise_equal, fibonacci
from _util import draw_discrete


ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])
FIB = np.array([[0.0, 1.0], [1.0, 1.0]])
# observable (det Q = 6936422406069107955972 exactly), but the rows c A^k
# grow like 2000^k, so an unscaled Q has numerical rank 3
INT_A = np.array([[-445.0, 631, 342, -994], [-212, 714, 109, -932],
                  [530, 459, 693, -648], [-821, 726, -955, 83]])
INT_C = np.array([-8.0, -4, 0, -1])


class TestSimulateDiscrete:
    def test_fixed_dynamics(self):
        sys = SystemSpec("discrete", np.eye(2), [1, 0])
        np.testing.assert_array_equal(simulate_discrete(sys, [3, 4], 4).values,
                                      [3, 3, 3, 3])

    def test_fibonacci(self):
        sys = SystemSpec("discrete", FIB, [1, 0])
        np.testing.assert_array_equal(simulate_discrete(sys, [1, 1], 6).values,
                                      [1, 1, 2, 3, 5, 8])

    def test_affine_doubling(self):
        sys = SystemSpec("discrete", [[2.0]], [1.0], b=[1.0])
        np.testing.assert_array_equal(simulate_discrete(sys, [0.0], 5).values,
                                      [0, 1, 3, 7, 15])

    def test_no_step_recorded(self):
        sys = SystemSpec("discrete", FIB, [1, 0])
        assert simulate_discrete(sys, [1, 1], 4).step is None

    def test_continuous_system_is_rejected(self):
        sys = SystemSpec("continuous", ROT, [1, 0], step=0.1)
        with pytest.raises(ValueError, match="discrete simulation needs a discrete system"):
            simulate_discrete(sys, [1, 0], 4)

    def test_divergence_is_non_finite_without_warnings(self):
        sys = SystemSpec("discrete", FIB, [1, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # F_1477 is the first Fibonacci number above the largest double
            with pytest.raises(NonFinite, match="^simulation diverges: sample 1477 of 2000 "
                                                "is not finite$"):
                simulate_discrete(sys, [1, 1], 2000)

    def test_zero_weight_ignores_an_overflowed_entry(self):
        # the last state is (F_1476, inf): c = (1, 0) reads only the finite entry
        y = simulate_discrete(SystemSpec("discrete", FIB, [1, 0]), [1, 1], 1476).values
        with np.errstate(over="ignore"):
            assert _iterate(FIB, None, np.array([0.0, 1.0]), np.ones(2), 1476)[-1] == math.inf
        # the double-double blocks round every F_k correctly, F_1476 included
        np.testing.assert_array_equal(y, [float(f) for f in fibonacci(1476)])

    def test_zero_weight_in_a_stack(self):
        # a stack runs the loop: each c reads one entry of the same states,
        # the first ignoring the second's overflow in the last state
        c = np.array([[1.0, 0.0], [0.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            y = _iterate(np.stack([FIB, FIB]), None, c, np.ones((2, 2)), 1476)
            states = _powers(FIB, np.ones(2), 1476)
        np.testing.assert_array_equal(y, states.T)
        assert np.isfinite(y[0]).all() and y[1, -1] == math.inf


class TestStackedSystems:
    """Leading axes stack systems; each slice matches the single-system call."""

    @pytest.fixture
    def systems(self):
        rng = np.random.default_rng(31)
        return rng.uniform(-1, 1, (5, 3, 3)), rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, (5, 3))

    def test_observability_and_krylov(self, systems):
        a, c, x0 = systems
        q, m = observability_matrix(a, c), krylov_matrix(a, x0)
        for i in range(len(a)):
            np.testing.assert_array_equal(q[i], observability_matrix(a[i], c[i]))
            np.testing.assert_array_equal(m[i], krylov_matrix(a[i], x0[i]))

    def test_simulation(self, systems):
        a, c, x0 = systems
        y = _iterate(a, None, c, x0, 6)
        for i in range(len(a)):
            single = simulate_discrete(SystemSpec("discrete", a[i], c[i]), x0[i], 6)
            np.testing.assert_array_equal(y[i], single.values)


class TestSampleContinuous:
    def test_frozen_flow(self):
        sys = SystemSpec("continuous", np.zeros((2, 2)), [2, -1], step=0.5)
        series = sample_continuous(sys, [1, 3], 3)
        np.testing.assert_allclose(series.values, [-1, -1, -1], atol=1e-15)

    def test_rotation_flow(self):
        sys = SystemSpec("continuous", ROT, [1, 0], step=0.3)
        series = sample_continuous(sys, [1, 0], 4)
        expect = [math.cos(0.3 * i) for i in range(4)]
        np.testing.assert_allclose(series.values, expect, atol=1e-14)
        assert series.step == 0.3

    def test_divergence_is_non_finite_without_warnings(self):
        # exp(1000) overflows in mat_exp itself: every sample after x0's is NaN
        sys = SystemSpec("continuous", [[1000.0]], [1.0], step=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="sample 2 of 3 is not finite"):
                sample_continuous(sys, [1.0], 3)

    @pytest.mark.parametrize("rate", [-1.0, 1.0])
    def test_step_past_the_scaling_limit(self, rate):
        # step 2^1023 scales A by 2^-1024: a decay reaches 0, a growth diverges
        sys = SystemSpec("continuous", [[rate]], [1.0], step=2.0**1023)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if rate < 0:
                assert sample_continuous(sys, [1.0], 3).values.tolist() == [1.0, 0.0, 0.0]
            else:
                with pytest.raises(NonFinite, match="sample 2 of 3 is not finite"):
                    sample_continuous(sys, [1.0], 3)

    def test_missing_step(self):
        sys = SystemSpec("continuous", ROT, [1, 0])
        with pytest.raises(MissingStep, match="continuous system has no sampling step"):
            sample_continuous(sys, [1, 0], 4)

    def test_scalar_decay(self):
        sys = SystemSpec("continuous", [[-1.0]], [1.0], step=0.5)
        series = sample_continuous(sys, [1.0], 3)
        np.testing.assert_allclose(series.values, [1, math.exp(-0.5), math.exp(-1)],
                                   rtol=1e-14)

    def test_matches_matrix_exponential_flow(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, n))
            c = rng.standard_normal(n)
            x0 = rng.standard_normal(n)
            lam = rng.uniform(0.05, 0.5)
            sys = SystemSpec("continuous", a, c, step=lam)
            series = sample_continuous(sys, x0, 6)
            for i, y in enumerate(series.values):
                direct = c @ mat_exp(a, i * lam) @ x0
                assert abs(y - direct) <= 1e-9 * max(1.0, abs(direct))


class TestSystemSpec:
    def test_continuous_rejects_affine_drive(self):
        with pytest.raises(ValueError):
            SystemSpec("continuous", np.eye(2), [1, 0], b=[1, 0], step=0.1)

    def test_discrete_rejects_step(self):
        with pytest.raises(ValueError):
            SystemSpec("discrete", np.eye(2), [1, 0], step=0.1)


class TestObservability:
    def test_identity_hides_second_coordinate(self):
        q = observability_matrix(np.eye(2), [1, 0])
        np.testing.assert_array_equal(q, [[1, 0], [1, 0]])
        assert is_observable(np.eye(2), [1, 0]) == (False, 1)

    def test_rotation_and_fibonacci_are_observable(self):
        for a in (ROT, FIB):
            np.testing.assert_array_equal(observability_matrix(a, [1, 0]), np.eye(2))
            assert is_observable(a, [1, 0]) == (True, 2)

    def test_identity_rank_one_for_any_c(self):
        rng = np.random.default_rng(9)
        for n in range(2, 6):
            c = rng.standard_normal(n)
            assert is_observable(np.eye(n), c)[1] == 1

    def test_rank_does_not_see_the_growth_of_the_powers(self):
        assert is_observable(INT_A, INT_C) == (True, 4)
        for k in (-20, 20):  # the rank of (A 2^k, c) is the rank of (A, c)
            assert is_observable(np.ldexp(INT_A, k), INT_C) == (True, 4)


class TestKrylov:
    def test_eigenvector_start_is_singular(self):
        m = krylov_matrix(np.diag([1.0, 2.0]), [1, 0])
        np.testing.assert_array_equal(m, [[1, 1], [0, 0]])
        assert abs(np.linalg.det(m)) == 0.0

    def test_generic_start(self):
        np.testing.assert_array_equal(krylov_matrix(np.diag([1.0, 2.0]), [1, 1]),
                                      [[1, 1], [1, 2]])
        np.testing.assert_array_equal(krylov_matrix(FIB, [1, 1]), [[1, 1], [1, 2]])


class TestOutputRowG:
    def test_fibonacci(self):
        np.testing.assert_allclose(output_row_G(FIB, [1, 0]), [1, 1], atol=1e-12)

    def test_rotation(self):
        np.testing.assert_allclose(output_row_G(ROT, [1, 0]), [-1, 0], atol=1e-12)

    def test_unobservable_raises(self):
        with pytest.raises(NotObservable):
            output_row_G(np.eye(2), [1, 0])

    def test_cayley_hamilton_consistency(self):
        # G must equal the negated characteristic coefficients, whatever c is
        rng = np.random.default_rng(10)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            a, c, _ = draw_discrete(rng, n)
            g = output_row_G(a, c)
            assert np.abs(g + char_poly(a).coeffs).max() <= 1e-8

    def test_near_the_float_limit(self):
        # Q is finite and observable, but sigma_max, c A^n and an unscaled
        # LU pivot overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, c in (([[1.5, 1.5], [-1.5, 1.5]], [1e308, 0]), ([[1, 1], [1, -1]], [1.7e308, 0])):
                g = output_row_G(a, c)
                np.testing.assert_allclose(g, -char_poly(np.array(a, float)).coeffs, atol=1e-15)

    def test_integer_system_with_fast_growing_powers(self):
        g = output_row_G(INT_A, INT_C)
        np.testing.assert_allclose(g, -char_poly(INT_A).coeffs, rtol=1e-12)

    def test_nearly_unobservable_raises_like_is_observable(self):
        # Q = [[1, 0], [1, 1e-11]] is not exactly singular, but has rank 1
        # at the default tolerance.
        a = [[1.0, 1e-11], [0.0, 1.0]]
        assert is_observable(a, [1, 0]) == (False, 1)
        with pytest.raises(NotObservable):
            output_row_G(a, [1, 0])

    def test_raises_exactly_when_unobservable(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            a = rng.uniform(-1, 1, (n, n))
            c = rng.uniform(-1, 1, n)
            if rng.random() < 0.5:  # unobservable: c orthogonal to an eigenvector
                a = np.diag(rng.uniform(-1, 1, n))
                c[int(rng.integers(n))] = 0.0
            if is_observable(a, c)[0]:
                assert np.isfinite(output_row_G(a, c)).all()
            else:
                with pytest.raises(NotObservable):
                    output_row_G(a, c)

    def test_overflowing_observability_matrix_is_non_finite(self):
        a, c = [[1e308, 1e308], [1e308, 1e308]], [1e308, 1]  # c A overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: is_observable(a, c), lambda: output_row_G(a, c),
                         lambda: affine_offset(a, [1, 1], c)):
                with pytest.raises(NonFinite, match="^observability matrix diverges: "
                                                    "entry 3 of 4 is not finite$"):
                    call()


class TestAffineOffset:
    def test_zero_drive(self):
        assert affine_offset(FIB, [0, 0], [1, 0]) == pytest.approx(0.0, abs=1e-15)

    def test_scalar_system(self):
        assert affine_offset([[2.0]], [1.0], [1.0]) == pytest.approx(1.0)

    def test_matches_identified_offset(self):
        sys = SystemSpec("discrete", FIB, [1, 0], b=[1, 0])
        series = simulate_discrete(sys, [1, 1], 8)
        report = identify_affine(series, 2)
        expect = affine_offset(FIB, [1, 0], [1, 0])
        assert report.model.offset == pytest.approx(expect, abs=1e-9)

    def test_matches_identified_offset_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a, c, x0 = draw_discrete(rng, n)
            b = rng.uniform(-1, 1, n)
            sys = SystemSpec("discrete", a, c, b=b)
            series = simulate_discrete(sys, x0, 2 * n + 2)
            expect = affine_offset(a, b, c)
            try:
                got = identify_affine(series, n).model.offset
            except Exception:
                continue  # occasionally singular augmented window
            assert got == pytest.approx(expect, abs=1e-6 * max(1.0, abs(expect)))


class TestHankelFactorization:
    def test_factorizes_through_observability_and_krylov(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            a, c, x0 = draw_discrete(rng, n)
            sys = SystemSpec("discrete", a, c)
            series = simulate_discrete(sys, x0, 2 * n + 5)
            q = observability_matrix(a, c)
            m = krylov_matrix(a, x0)
            ak = np.eye(n)
            for k in range(6):
                h = hankel(series, k, n)
                expect = q @ ak @ m
                scale = max(1.0, np.abs(h).max())
                assert np.abs(h - expect).max() <= 1e-9 * scale
                ak = ak @ a


def reference_observability(a, c):
    n = a.shape[-1]
    row = c
    q = np.empty(np.broadcast_shapes(a.shape[:-2], c.shape[:-1]) + (n, n))
    for i in range(n):
        q[..., i, :] = row
        row = np.vecmat(row, a)
    return q


def reference_krylov(a, x0):
    n = a.shape[-1]
    col = x0
    m = np.empty(np.broadcast_shapes(a.shape[:-2], x0.shape[:-1]) + (n, n))
    for j in range(n):
        m[..., :, j] = col
        col = np.matvec(a, col)
    return m


def reference_affine_offset(a, b, c):
    n = a.shape[0]
    g = output_row_G(a, c)
    rows = np.zeros((n, n))
    partial = c.copy()
    for j in range(1, n):
        rows[j] = partial
        partial = partial @ a + c
    return float(partial @ b - g @ (rows @ b))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
class TestPowerKernel:
    """The builders over the one power loop equal, bit for bit, the
    per-row loops they replaced."""

    @pytest.mark.parametrize("stack, shared", [((), False), ((6,), False), ((2, 3), False),
                                               ((6,), True)],
                             ids=["single", "stacked", "stacked-2d", "shared-vector"])
    def test_observability_and_krylov(self, n, stack, shared):
        rng = np.random.default_rng(40 + n)
        a = rng.uniform(-2, 2, stack + (n, n))
        c, x0 = rng.uniform(-1, 1, (2,) + (() if shared else stack) + (n,))
        q, m = observability_matrix(a, c), krylov_matrix(a, x0)
        assert bitwise_equal(q, reference_observability(a, c))
        assert bitwise_equal(m, reference_krylov(a, x0))
        assert q.flags.c_contiguous and m.flags.c_contiguous

    def test_affine_offset(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(20):
            a, b, c = rng.uniform(-1, 1, (n, n)), rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
            assert bitwise_equal(affine_offset(a, b, c), reference_affine_offset(a, b, c))
