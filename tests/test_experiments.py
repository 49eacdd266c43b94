import numpy as np
import pytest

from linident import (
    ExperimentReport,
    SamplingBox,
    TrialConfig,
    draw_sample,
    evaluate_property,
    mc_estimate,
)
from linident.experiments import FAILURE, NUMERICAL_REJECTION, SUCCESS, _draw_block


def config(**kw):
    base = dict(n=3, trials=100, seed=42, box=SamplingBox(-1, 1))
    base.update(kw)
    return TrialConfig(**base)


class TestDrawSample:
    def test_deterministic(self):
        cfg = config()
        first = draw_sample(cfg, 7)
        second = draw_sample(cfg, 7)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_stream_separation(self):
        cfg = config(seed=42)
        c0, a0, x0 = draw_sample(cfg, 0)
        c1, a1, x1 = draw_sample(cfg, 1)
        assert not np.array_equal(c0, c1)
        assert not np.array_equal(a0, a1)

    def test_order_independence(self):
        cfg = config()
        backwards = [draw_sample(cfg, i) for i in reversed(range(10))]
        forwards = [draw_sample(cfg, i) for i in range(10)]
        for (c1, a1, x1), (c2, a2, x2) in zip(reversed(backwards), forwards):
            np.testing.assert_array_equal(a1, a2)

    def test_uniform_law(self):
        cfg = config(n=2, trials=10_000)
        total = 0.0
        count = 0
        for i in range(cfg.trials):
            c, a, x0 = draw_sample(cfg, i)
            total += c.sum() + a.sum() + x0.sum()
            count += c.size + a.size + x0.size
        assert -0.05 < total / count < 0.05

    @pytest.mark.parametrize("n", [1, 2, 3, 12])  # 2n + n*n: 3, 8, 15, 168
    @pytest.mark.parametrize("start", [0, 37])
    def test_block_equals_single_draws(self, n, start):
        cfg = config(n=n, trials=120)
        count = cfg.trials - start
        block = _draw_block(cfg, start, count)
        assert [v.shape for v in block] == [(count, n), (count, n, n), (count, n)]
        for j in range(count):
            for stacked, single in zip(block, draw_sample(cfg, start + j)):
                np.testing.assert_array_equal(stacked[j], single)

    def test_draw_does_not_depend_on_trial_count(self):
        few, many = draw_sample(config(trials=300), 7), draw_sample(config(trials=1000), 7)
        for a, b in zip(few, many):
            np.testing.assert_array_equal(a, b)

    def test_pinned_draw(self):
        # any change to the draw law changes every seeded report; it must fail here
        c, a, x0 = draw_sample(TrialConfig(n=2, trials=1, seed=0), 0)
        assert c.tolist() == [-0.9718659286687046, -0.48446550875076455]
        assert a.tolist() == [[-0.05686923796942067, -0.8171606577852626],
                              [0.9582690001308065, -0.48783219346132434]]
        assert x0.tolist() == [0.871185546514005, -0.619894730657208]

    @pytest.mark.parametrize("index", [-1, 100])
    def test_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="out of range"):
            draw_sample(config(), index)

    def test_bounds(self):
        cfg = config(box=SamplingBox(2.0, 3.0), trials=50)
        for i in range(cfg.trials):
            for arr in draw_sample(cfg, i):
                assert np.all((arr >= 2.0) & (arr <= 3.0))


class TestEvaluateProperty:
    def test_repeated_eigenvalue_fails(self):
        cfg = config(n=2)
        outcome, diag = evaluate_property("distinct-eigenvalues",
                                          np.array([1.0, 0.0]), np.eye(2),
                                          np.array([1.0, 1.0]), cfg)
        assert outcome == FAILURE
        assert diag["discriminant"] == pytest.approx(0.0, abs=1e-12)

    def test_identity_unobservable(self):
        cfg = config(n=2)
        outcome, diag = evaluate_property("observable", np.array([0.3, 0.7]),
                                          np.eye(2), np.array([1.0, 1.0]), cfg)
        assert outcome == FAILURE
        assert diag["rank"] == 1

    def test_eigenvector_start_fails_krylov(self):
        cfg = config(n=2)
        outcome, _ = evaluate_property("krylov-independent", np.array([1.0, 0.0]),
                                       np.diag([1.0, 2.0]), np.array([1.0, 0.0]), cfg)
        assert outcome == FAILURE

    def test_end_to_end_success_on_generic_draw(self):
        cfg = config(n=3)
        c, a, x0 = draw_sample(cfg, 0)
        outcome, diag = evaluate_property("end-to-end-identifiable", c, a, x0, cfg)
        assert outcome in (SUCCESS, NUMERICAL_REJECTION)

    def test_non_finite_characteristic_polynomial_is_rejected(self):
        # A is nilpotent and every product is exact, so the series is finite and its
        # Hankel window well conditioned, but Faddeev-LeVerrier overflows to NaN;
        # powers of two keep matvec rounding (FMA) from overflowing the series first
        e = 2.0 ** 530
        outcome, diag = evaluate_property("end-to-end-identifiable", [1.0, 0.0],
                                          [[e, e], [-e, -e]], [2.0 ** -330, 2.0 ** -331],
                                          config(n=2, trials=1))
        assert (outcome, diag) == (NUMERICAL_REJECTION, {
            "error": "NonFinite", "message": "characteristic polynomial is not finite"})

    def test_unknown_property(self):
        cfg = config()
        with pytest.raises(ValueError):
            evaluate_property("no-such-property", *draw_sample(cfg, 0), cfg)


class TestMcEstimate:
    def test_counting_identity(self):
        report = mc_estimate("end-to-end-identifiable", config(trials=200))
        assert (report.successes + report.failures + report.numerical_rejections
                == report.trials)
        assert 0.0 <= report.estimate <= 1.0

    def test_reproducible_reports(self):
        cfg = config(trials=150)
        a = mc_estimate("observable", cfg)
        b = mc_estimate("observable", cfg)
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_single_known_failure(self):
        # the identity draw is forced through a 1-trial config
        cfg = config(n=2, trials=1, seed=0)
        report = ExperimentReport(
            property="observable", n=2, trials=1, successes=0, failures=1,
            numerical_rejections=0, seed=0, box=cfg.box,
            success_tol=cfg.success_tol, cond_cap=cfg.cond_cap)
        assert report.estimate == 0.0

    def test_failure_draws_are_persisted(self):
        # center the box on a repeated-eigenvalue region? not constructible
        # uniformly, so check the bookkeeping path via a tight success_tol
        cfg = config(n=4, trials=300, success_tol=1e-16)
        report = mc_estimate("end-to-end-identifiable", cfg)
        if report.failures:
            assert report.worst_cases
            case = report.worst_cases[0]
            assert {"trial_index", "c", "A", "x0", "diagnostics"} <= set(case)
            assert len(report.worst_cases) <= 10

    def test_tolerance_monotonicity(self):
        loose = mc_estimate("end-to-end-identifiable", config(trials=200, success_tol=1e-4))
        tight = mc_estimate("end-to-end-identifiable", config(trials=200, success_tol=1e-10))
        assert loose.successes >= tight.successes

    def test_nothing_decided_gives_null_estimate(self):
        # every trial of the n=8 continuous cell exceeds the Hankel condition cap
        report = mc_estimate("end-to-end-continuous", TrialConfig(n=8, trials=50, seed=90))
        assert report.numerical_rejections == 50
        assert report.decided == 0
        assert report.estimate is None
        doc = report.to_dict()
        assert doc["decided"] == 0
        assert doc["estimate"] is None

    def test_decided_count(self):
        report = mc_estimate("end-to-end-identifiable", config(trials=200))
        assert report.decided == report.trials - report.numerical_rejections
        assert report.to_dict()["decided"] == report.decided
        assert report.estimate == report.successes / report.decided

    def test_measure_one_algebraic_properties(self):
        # smaller trial count here; the full 1e4-draw sweep runs in acceptance
        for prop in ("distinct-eigenvalues", "observable", "krylov-independent"):
            for n in (2, 5):
                report = mc_estimate(prop, config(n=n, trials=300))
                assert report.failures == 0, (prop, n, report.worst_cases)

    @pytest.mark.parametrize("prop", ["distinct-eigenvalues", "observable", "krylov-independent"])
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 12])
    def test_exact_properties_do_not_depend_on_a_power_of_two_box(self, prop, n):
        # uniform(-L, L) is exactly L * uniform(-1, 1) for a power of two L,
        # and no exact property of (c, A, x0) changes under that scaling
        def counts(width):
            report = mc_estimate(prop, config(n=n, trials=300, seed=7,
                                              box=SamplingBox(-width, width)))
            return report.successes, report.failures, report.numerical_rejections

        unit = counts(1.0)
        for width in (2.0 ** -10, 2.0 ** 10, 2.0 ** 40):
            assert counts(width) == unit, width

    @pytest.mark.parametrize("prop", ["distinct-eigenvalues", "observable", "krylov-independent",
                                      "end-to-end-identifiable"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_reports_do_not_depend_on_a_power_of_two_box(self, prop, n):
        # each draw is judged divided by its box's 2^k, where products of
        # 2^k-sized entries would underflow or overflow; a tight tolerance
        # gives end-to-end worst cases to compare
        def report(k):
            return mc_estimate(prop, config(n=n, trials=300, seed=7, success_tol=1e-14,
                                            box=SamplingBox(-2.0 ** k, 2.0 ** k)))

        def outcome(case):
            return case["trial_index"], case["diagnostics"]

        unit = report(0)
        for k in (-600, -10, 10, 600):
            got = report(k)
            assert ((got.successes, got.failures, got.numerical_rejections)
                    == (unit.successes, unit.failures, unit.numerical_rejections)), k
            assert [outcome(w) for w in got.worst_cases] == [
                outcome(w) for w in unit.worst_cases], k
            for w, u in zip(got.worst_cases, unit.worst_cases):
                for name in ("c", "A", "x0"):
                    assert np.array_equal(w[name], np.ldexp(u[name], k)), (k, name)

    def test_continuous_draws_keep_the_scale_of_a(self):
        # the sampling step acts on A, so exp(0.01 A) of a +-1e200 box overflows
        cfg = config(trials=20, box=SamplingBox(-1e200, 1e200))
        assert mc_estimate("end-to-end-continuous", cfg).numerical_rejections == 20
        outcome, diag = evaluate_property("end-to-end-continuous", *draw_sample(cfg, 0), cfg)
        assert (outcome, diag["error"]) == (NUMERICAL_REJECTION, "NonFinite")
