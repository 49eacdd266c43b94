import dataclasses
import math
import warnings

import numpy as np
import pytest

from linident import ident, io, numerical_rank, numkit
from linident import (
    ConjugacyReport,
    DimensionMismatch,
    InsufficientData,
    MissingStep,
    MonicPolynomial,
    NoOrderFound,
    NonFinite,
    PredictionModel,
    SingularHankel,
    SystemSpec,
    TimeSeries,
    ZeroRoot,
    assess_stability,
    char_poly,
    estimate_order,
    hankel,
    identify,
    identify_affine,
    predict,
    recover_continuous_spectrum,
    sample_continuous,
    simulate_discrete,
    verify_conjugacy,
)
from _exact import exact, exact_solve
from _util import draw_continuous, draw_discrete, greedy_spectrum_distance


FIB = np.array([[0.0, 1.0], [1.0, 1.0]])
ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def fib_series(length=6):
    return simulate_discrete(SystemSpec("discrete", FIB, [1, 0]), [1, 1], length)


class TestHankel:
    def test_fibonacci_window(self):
        series = TimeSeries([1, 1, 2, 3, 5])
        np.testing.assert_array_equal(hankel(series, 0, 2), [[1, 1], [1, 2]])

    def test_shifted_window(self):
        series = TimeSeries([1, 1, 2, 3, 5, 8])
        np.testing.assert_array_equal(hankel(series, 1, 2), [[1, 2], [2, 3]])

    def test_constant_series_is_singular(self):
        h = hankel(TimeSeries([7, 7, 7]), 0, 2)
        np.testing.assert_array_equal(h, [[7, 7], [7, 7]])
        assert np.linalg.matrix_rank(h) == 1

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            hankel(TimeSeries([1, 2]), 0, 2)


class TestIdentify:
    def test_fibonacci_exact(self):
        report = identify(TimeSeries([1, 1, 2, 3, 5]), 2)
        assert tuple(report.model.coeffs) == (-1.0, -1.0)
        assert report.residual == 0.0

    def test_geometric(self):
        r = 0.5
        report = identify(TimeSeries([1, r, r ** 2, r ** 3]), 1)
        assert report.model.coeffs[0] == pytest.approx(-0.5, abs=1e-15)

    def test_constant_series_singular(self):
        with pytest.raises(SingularHankel):
            identify(TimeSeries([7, 7, 7, 7]), 2)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            identify(TimeSeries([1, 1, 2]), 2)

    def test_singular_overdetermined_window_is_not_solved(self, monkeypatch):
        def no_lstsq(*args, **kwargs):
            raise AssertionError("a rejected window was solved")

        monkeypatch.setattr(ident.np.linalg, "lstsq", no_lstsq)
        with pytest.raises(SingularHankel, match="^window condition estimate .+ exceeds cap$"):
            identify(TimeSeries([7] * 8), 2, overdetermined=True)

    def test_window_near_the_float_limit(self):
        # sigma_max of the window overflows, its condition number is 1.125
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = identify(TimeSeries([1e307, 1.7e308, 1e307, 1e300]), 2)
        assert report.condition_estimate == pytest.approx(1.125)
        scaled = -np.linalg.solve([[1e7, 1.7e8], [1.7e8, 1e7]], [1e7, 1.0])  # series / 1e300
        np.testing.assert_allclose(report.model.coeffs, scaled, rtol=1e-12)

    def test_pivot_near_the_float_limit(self):
        # unscaled LU of [[a, a], [a, -a]] gets the pivot -a - a = -inf and a
        # finite, wrong solution; the model is y_{m+2} = -(y_m + y_{m+1}) / 2
        a = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = identify(TimeSeries([a, a, -a, 0]), 2)
            over = identify(TimeSeries([a, a, -a, 0, 0]), 2, overdetermined=True)
        np.testing.assert_allclose(exact.model.coeffs, [0.5, 0.5], rtol=1e-15)
        assert exact.residual == 0.0
        np.testing.assert_allclose(over.model.coeffs, [1 / 3, 1 / 2], rtol=1e-12)

    def test_solve_stack_slices_as_alone(self):
        rng = np.random.default_rng(29)
        h = rng.uniform(-1, 1, (4, 2, 2))
        rhs = rng.uniform(-1, 1, (4, 2))
        h[2], rhs[2] = [[1.7e308, 1.7e308], [1.7e308, -1.7e308]], [-1.7e308, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = ident._lu_solve(h, rhs)
            for i in range(4):
                assert sol[i].tolist() == ident._lu_solve(h[i], rhs[i]).tolist()
        np.testing.assert_allclose(sol[2], [-0.5, -0.5], rtol=1e-15)
        for i in (0, 1, 3):  # ordinary windows keep the bits of the unscaled solve
            unscaled = np.linalg.solve(h[i:i + 1], rhs[i:i + 1, :, None])[0, :, 0]
            assert sol[i].tolist() == unscaled.tolist()

    def test_exact_recovery_random_systems(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            a, c, x0 = draw_discrete(rng, n)
            series = simulate_discrete(SystemSpec("discrete", a, c), x0, 2 * n)
            report = identify(series, n)
            truth = char_poly(a).coeffs
            scale = max(1.0, np.abs(truth).max())
            assert np.abs(report.model.coeffs - truth).max() <= 1e-7 * scale

    def test_window_independence(self):
        # each window's solve errs by about n * cond * eps relative to the
        # coefficients, whatever kernel the BLAS picks; the two add up
        eps = np.finfo(float).eps
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a, c, x0 = draw_discrete(rng, n)
            series = simulate_discrete(SystemSpec("discrete", a, c), x0, 2 * n + 3)
            r0, r3 = identify(series, n, k=0), identify(series, n, k=3)
            c0, c3 = r0.model.coeffs, r3.model.coeffs
            scale = max(1.0, np.abs(c0).max())
            bound = n * (r0.condition_estimate + r3.condition_estimate) * eps
            assert np.abs(c0 - c3).max() <= bound * scale

    def test_overdetermined_mode(self):
        rng = np.random.default_rng(15)
        a, c, x0 = draw_discrete(rng, 3)
        series = simulate_discrete(SystemSpec("discrete", a, c), x0, 20)
        report = identify(series, 3, overdetermined=True)
        truth = char_poly(a).coeffs
        assert np.abs(report.model.coeffs - truth).max() <= 1e-7

    def test_step_copied_from_series(self):
        sys = SystemSpec("continuous", ROT, [1, 0], step=0.3)
        series = sample_continuous(sys, [1, 0], 4)
        assert identify(series, 2).model.step == 0.3

    @pytest.mark.parametrize("form, values, message", [
        (identify, [1e-300, 1e300, 1e300], "solution entry 1 of 1 is not finite"),
        (identify_affine, [1, 2, 1e308, 1e308], "solution entry 1 of 2 is not finite"),
    ], ids=["exact", "affine"])
    def test_overflowing_solve_is_non_finite(self, form, values, message):
        # the solve overflows: a domain error, not a rejected input
        with pytest.raises(NonFinite, match=message):
            form(TimeSeries(values), 1)

    def test_overflowing_residual_is_inf_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = identify(TimeSeries([1, 1e308, -1e308]), 1)
        assert report.model.coeffs.tolist() == [-1e308]
        assert report.residual == math.inf


class TestIdentifyAffine:
    def test_doubling_plus_one(self):
        report = identify_affine(TimeSeries([0, 1, 3, 7, 15]), 1)
        assert report.model.coeffs[0] == pytest.approx(-2.0, abs=1e-12)
        assert report.model.offset == pytest.approx(1.0, abs=1e-12)

    def test_homogeneous_series_has_zero_offset(self):
        series = fib_series(8)
        report = identify_affine(series, 2)
        assert abs(report.model.offset) <= 1e-9 * np.abs(series.values).max()

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            identify_affine(TimeSeries([0, 1, 3, 7]), 2)


FORMS = {
    "exact": (identify, 0),
    "overdetermined": (lambda series, n, k: identify(series, n, k, overdetermined=True), 0),
    "affine": (identify_affine, 1),
}


class TestIdentifyForms:
    """The exact, overdetermined and affine forms share one body."""

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("form", FORMS)
    def test_shortest_series(self, form, k):
        fit, extra = FORMS[form]
        n = 3
        need = k + 2 * n + extra
        y = np.random.default_rng(5).standard_normal(need)
        with pytest.raises(InsufficientData):
            fit(TimeSeries(y[:-1]), n, k)
        report = fit(TimeSeries(y), n, k)
        assert report.model.order == n and report.window_start == k

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("form", FORMS)
    def test_model_document_bits(self, form, k):
        """Two calls write the same bytes (criterion 11), and the model is
        within n cond eps of the exact solve of the same float window: the
        first-order error bound of a backward-stable solve of order n = 4.
        Its bits depend on the BLAS kernel; this bound does not (measured:
        at most 0.2 cond eps under the SkylakeX, Haswell, Sandybridge and
        Nehalem kernels)."""
        a, c, x0 = draw_continuous(np.random.default_rng(404), 4)
        fit = FORMS[form][0]
        docs, reports = [], []
        for _ in range(2):
            series = sample_continuous(SystemSpec("continuous", a, c, step=0.01), x0, 200)
            reports.append(fit(series, 4, k))
            docs.append(io.dumps(io.model_to_dict(reports[-1])))
        assert docs[0] == docs[1]
        model = reports[0].model
        got = list(model.coeffs) + ([model.offset] if form == "affine" else [])
        y, n = series.values, 4
        rows = len(y) - n - k if form == "overdetermined" else n + (form == "affine")
        windows = [list(y[k + i:k + i + n]) + [1.0] * (form == "affine") for i in range(rows)]
        sol = exact_solve(windows, y[k + n:k + n + rows])  # least squares if rows > n
        want = [-t for t in sol[:n]] + sol[n:]
        bound = 4 * reports[0].condition_estimate * np.finfo(float).eps * max(map(abs, want))
        assert max(abs(exact(g) - w) for g, w in zip(got, want)) <= bound


class TestPredict:
    def test_fibonacci_continuation(self):
        model = PredictionModel([-1.0, -1.0])
        np.testing.assert_array_equal(predict(model, [5, 8], 3).values, [13, 21, 34])

    def test_identity_recurrence(self):
        model = PredictionModel([-1.0])
        np.testing.assert_array_equal(predict(model, [4.5], 5).values, [4.5] * 5)

    def test_affine_recurrence(self):
        model = PredictionModel([-2.0], offset=1.0)
        np.testing.assert_array_equal(predict(model, [15.0], 2).values, [31, 63])

    def test_seed_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            predict(PredictionModel([-1.0, -1.0]), [1.0], 3)

    def test_matches_held_out_series(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            a, c, x0 = draw_discrete(rng, n)
            horizon = 20
            full = simulate_discrete(SystemSpec("discrete", a, c), x0, 2 * n + horizon)
            model = identify(TimeSeries(full.values[:2 * n]), n).model
            future = predict(model, full.values[n:2 * n], horizon)
            growth = np.maximum.accumulate(np.abs(full.values[2 * n:]))
            tol = 1e-6 * np.maximum(1.0, growth)
            assert np.all(np.abs(future.values - full.values[2 * n:]) <= tol)

    def test_agrees_with_companion_iteration(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            model = PredictionModel(rng.uniform(-1, 1, n))
            seed = rng.uniform(-1, 1, n)
            steps = 12
            by_recurrence = predict(model, seed, steps).values
            z = seed.copy()
            by_companion = []
            for _ in range(steps):
                z = model.companion @ z
                by_companion.append(z[-1])
            scale = np.maximum(1.0, np.abs(by_recurrence))
            assert np.abs(by_recurrence - by_companion).max() <= (1e-12 * scale).max()


class TestEstimateOrder:
    def test_fibonacci(self):
        assert estimate_order(fib_series(9), 4) == 2

    def test_geometric(self):
        series = TimeSeries(0.5 ** np.arange(8))
        assert estimate_order(series, 3) == 1

    def test_zero_series(self):
        with pytest.raises(NoOrderFound):
            estimate_order(TimeSeries(np.zeros(9)), 4)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            estimate_order(fib_series(6), 3)

    def test_n_max_below_one(self):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            estimate_order(fib_series(9), 0)

    @staticmethod
    def _record_ranks(monkeypatch):
        ranked = []

        def recording_rank(m, *tol):
            ranks = numerical_rank(m, *tol)
            ranked.append((m, ranks))
            return ranks

        monkeypatch.setattr(ident, "numerical_rank", recording_rank)
        return ranked

    # (order, n_max) -> the stacks ranked: sizes 1-8, then 9-16, ..., up to
    # the block holding H_{order+1}
    BLOCKS = {
        (2, 2): [(3, 3, 3)],
        (2, 5): [(6, 6, 6)],
        (2, 40): [(8, 8, 8)],
        (4, 6): [(7, 7, 7)],
        (8, 8): [(8, 8, 8), (1, 9, 9)],  # decided by H_8's rank, carried over
        (9, 9): [(8, 8, 8), (2, 10, 10)],
        (10, 40): [(8, 8, 8), (8, 16, 16)],
    }

    @pytest.mark.parametrize("order, n_max", BLOCKS)
    def test_one_stacked_rank_call_per_block(self, monkeypatch, order, n_max):
        ranked = self._record_ranks(monkeypatch)
        rng = np.random.default_rng(order)
        a, c, x0 = draw_discrete(rng, order, cond_cap=1e8)
        series = simulate_discrete(SystemSpec("discrete", a, c), x0, 2 * n_max + 1)
        assert estimate_order(series, n_max) == order
        assert [m.shape for m, _ in ranked] == self.BLOCKS[order, n_max]

    def test_padded_ranks_match_unpadded_windows(self, monkeypatch):
        rng = np.random.default_rng(17)
        cases = []
        for _ in range(12):
            n, n_max = int(rng.integers(1, 8)), int(rng.integers(1, 20))
            a, c, x0 = draw_discrete(rng, n)
            cases.append((simulate_discrete(SystemSpec("discrete", a, c), x0, 2 * n_max + 1),
                          n_max))
        for _ in range(6):
            n, n_max = int(rng.integers(1, 5)), int(rng.integers(1, 20))
            a, c, x0 = draw_continuous(rng, n, box=3.0)
            cases.append((sample_continuous(SystemSpec("continuous", a, c, step=0.1), x0,
                                            2 * n_max + 1), n_max))
        cases += [(fib_series(2 * 17 + 1), 17), (TimeSeries(0.5 ** np.arange(21)), 10),
                  (TimeSeries(np.zeros(33)), 16),
                  (TimeSeries(1e300 * rng.standard_normal(25)), 12),
                  # sigma_max overflows: numkit's per-slice power-of-two redo
                  (TimeSeries(1.7e308 * rng.uniform(-1, 1, 25)), 12)]
        redone = []
        exponent = numkit._binary_exponent
        monkeypatch.setattr(numkit, "_binary_exponent", lambda a: redone.append(a) or exponent(a))
        ranked = self._record_ranks(monkeypatch)
        for series, n_max in cases:
            ranked.clear()
            redone.clear()
            try:
                estimate_order(series, n_max)
            except NoOrderFound:
                pass
            size = 0
            for m, ranks in ranked:
                for padded, rank in zip(m, ranks):
                    size += 1
                    window = hankel(series, 0, size)
                    np.testing.assert_array_equal(padded[:size, :size], window)
                    assert not padded[size:].any() and not padded[:, size:].any()
                    assert rank == numerical_rank(window)
            assert size >= 2
        assert redone  # the last, overflowing series took the redo

    def test_padding_masks_are_cached_and_read_only(self):
        mask = ident._padding(9, 14)
        assert mask is ident._padding(9, 14)
        assert mask.shape == (5, 13, 13) and not mask.flags.writeable
        assert [int(m.sum()) for m in mask] == [k * k for k in range(9, 14)]
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0, 0] = False
        ident._padding.cache_clear()
        with pytest.raises(NoOrderFound):  # blocks H_1-H_8, ..., H_57-H_64, H_65-H_71
            estimate_order(TimeSeries(np.zeros(141)), 70)
        assert ident._padding.cache_info().currsize == 8

    def test_geometric_series_stops_after_the_first_block(self, monkeypatch):
        ranked = self._record_ranks(monkeypatch)
        assert estimate_order(TimeSeries(0.5 ** np.arange(401)), 200) == 1
        assert [m.shape for m, _ in ranked] == [(8, 8, 8)]


class TestVerifyConjugacy:
    def test_fibonacci_exact(self):
        model = identify(fib_series(5), 2).model
        report = verify_conjugacy(model, SystemSpec("discrete", FIB, [1, 0]))
        assert report.coeff_error == 0.0
        assert report.conjugate

    def test_report_fields(self):
        assert [f.name for f in dataclasses.fields(ConjugacyReport)] == ["coeff_error",
                                                                          "conjugate"]

    def test_decided_without_roots(self, monkeypatch):
        def no_roots(p):
            raise AssertionError("verify_conjugacy computed roots")

        monkeypatch.setattr(ident, "poly_roots", no_roots)
        model = identify(fib_series(5), 2).model
        report = verify_conjugacy(model, SystemSpec("discrete", FIB, [1, 0]))
        assert report.coeff_error == 0.0
        assert report.conjugate

    def test_rotation_sampled(self):
        sys = SystemSpec("continuous", ROT, [1, 0], step=0.3)
        model = identify(sample_continuous(sys, [1, 0], 4), 2).model
        np.testing.assert_allclose(model.coeffs, [1.0, -2 * math.cos(0.3)], atol=1e-9)
        report = verify_conjugacy(model, sys, tol=1e-9)
        assert report.conjugate

    def test_mismatched_model(self):
        model = PredictionModel([-1.0, -1.0])
        report = verify_conjugacy(model, SystemSpec("discrete", np.eye(2), [1, 0]))
        assert not report.conjugate
        assert report.coeff_error == pytest.approx(2.0)

    def test_order_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify_conjugacy(PredictionModel([-1.0]), SystemSpec("discrete", FIB, [1, 0]))

    @pytest.mark.parametrize("tol", [math.nan, 0.0, math.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        model = identify(fib_series(5), 2).model
        with pytest.raises(ValueError, match="^tol must be positive and finite$"):
            verify_conjugacy(model, SystemSpec("discrete", FIB, [1, 0]), tol=tol)

    @pytest.mark.parametrize("sys, message", [
        (SystemSpec("continuous", [[800, 0], [0, 1]], [1, 1], step=1.0),
         "sampled matrix diverges: entry 1 of 4 is not finite"),
        (SystemSpec("discrete", [[1e200, 0], [0, 1e200]], [1, 1]),
         "characteristic polynomial diverges: coefficient 1 of 2 is not finite"),
    ], ids=["exp-overflow", "char-poly-overflow"])
    def test_overflow_is_non_finite(self, sys, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match=f"^{message}$"):
                verify_conjugacy(PredictionModel([1.0, 1.0]), sys)


class TestAssessStability:
    def test_contracting_scalar(self):
        assert assess_stability(PredictionModel([-0.5])) == "asymptotically-stable"

    def test_fibonacci_unstable(self):
        assert assess_stability(PredictionModel([-1.0, -1.0])) == "unstable"

    def test_rotation_marginal(self):
        model = PredictionModel([1.0, -2 * math.cos(0.3)])
        assert assess_stability(model) == "marginal"


class TestRecoverContinuousSpectrum:
    def test_scalar_decay(self):
        model = PredictionModel([-math.exp(-0.5)], step=0.5)
        spectrum = recover_continuous_spectrum(model)
        np.testing.assert_allclose(spectrum.values, [-1.0], atol=1e-12)
        assert not spectrum.aliasing_risk

    def test_rotation(self):
        model = PredictionModel([1.0, -2 * math.cos(0.3)], step=0.3)
        spectrum = recover_continuous_spectrum(model)
        np.testing.assert_allclose(spectrum.values, [-1j, 1j], atol=1e-12)
        assert not spectrum.aliasing_risk

    def test_missing_step(self):
        with pytest.raises(MissingStep):
            recover_continuous_spectrum(PredictionModel([-0.5]))

    def test_zero_root(self):
        with pytest.raises(ZeroRoot):
            recover_continuous_spectrum(PredictionModel([0.0, -1.0], step=0.1))

    def test_overflowing_eigenvalue_is_non_finite(self):
        # log(2) / 1e-310 overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="eigenvalue 1 of 1 is not finite"):
                recover_continuous_spectrum(PredictionModel([-2.0], step=1e-310))

    def test_aliasing_flagged_at_pi(self):
        # sampled root exactly on the negative real axis: Arg = pi
        model = PredictionModel([0.25], step=1.0)  # root -0.25
        assert recover_continuous_spectrum(model).aliasing_risk

    def test_round_trip_random_continuous(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a, c, x0 = draw_continuous(rng, n)
            sys = SystemSpec("continuous", a, c, step=0.01)
            series = sample_continuous(sys, x0, 2 * n)
            model = identify(series, n).model
            spectrum = recover_continuous_spectrum(model)
            truth = np.linalg.eigvals(a)
            assert greedy_spectrum_distance(spectrum.values, truth) <= 1e-6


class TestInputValues:
    """Every vector and every step goes through one rule, whichever type
    or function receives it."""

    @pytest.mark.parametrize("value, error, message", [
        ([], DimensionMismatch, "must be non-empty"),
        ([[1.0, 2.0]], DimensionMismatch, "must be 1-D"),
        ([1.0, math.nan], ValueError, "must be finite"),
    ], ids=["empty", "matrix", "nan"])
    @pytest.mark.parametrize("make", [
        lambda v: TimeSeries(v),
        lambda v: PredictionModel(v),
        lambda v: MonicPolynomial(v),
        lambda v: SystemSpec("discrete", np.eye(2), v),
        lambda v: predict(PredictionModel([-1.0, -1.0]), v, 1),
    ], ids=["TimeSeries", "PredictionModel", "MonicPolynomial", "SystemSpec-c", "predict-seed"])
    def test_vector_rule(self, make, value, error, message):
        with pytest.raises(error, match=message):
            make(value)

    @pytest.mark.parametrize("step", [0.0, math.nan, math.inf])
    @pytest.mark.parametrize("make", [
        lambda step: TimeSeries([1.0, 2.0], step=step),
        lambda step: PredictionModel([-1.0], step=step),
        lambda step: SystemSpec("continuous", np.eye(2), [1, 0], step=step),
    ], ids=["TimeSeries", "PredictionModel", "SystemSpec"])
    def test_step_must_be_positive_and_finite(self, make, step):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            make(step)
