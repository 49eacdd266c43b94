"""The block evaluator against the per-trial reference.

``reference_evaluate`` is the per-trial evaluation the Monte Carlo engine
ran before it stacked trials into blocks, written over the single-matrix
public functions. Every trial must get the same outcome from the block
evaluator as from this loop.
"""

import warnings

import numpy as np
import pytest

from linident import (
    LinIdentError,
    SamplingBox,
    SystemSpec,
    TrialConfig,
    char_poly,
    discriminant,
    draw_sample,
    evaluate_property,
    identify,
    is_observable,
    krylov_matrix,
    mc_estimate,
    numerical_rank,
    sample_continuous,
    simulate_discrete,
)
from linident import experiments, io
from linident.dynsys import char_poly_of_sampled
from linident.experiments import (
    CONTINUOUS_STEP,
    DISCRIMINANT_FLOOR,
    FAILURE,
    NUMERICAL_REJECTION,
    OUTCOMES,
    PROPERTIES,
    SUCCESS,
    _evaluate,
)

SEED = 90
TRIALS = 300
BLOCK = 128  # this test's own blocks: TRIALS crosses two of their boundaries
NS = (2, 4, 8, 12)


def reference_evaluate(prop, c, a, x0, config):
    """One trial at a time, as the engine ran before blocks."""
    try:
        if prop == "distinct-eigenvalues":
            p = char_poly(a)
            scale = max(1.0, float(np.abs(p.coeffs).max())) ** (2 * config.n - 2)
            d = discriminant(p) if config.n >= 2 else 1.0
            return SUCCESS if abs(d) > DISCRIMINANT_FLOOR * scale else FAILURE
        if prop == "observable":
            return SUCCESS if is_observable(a, c)[0] else FAILURE
        if prop == "krylov-independent":
            return SUCCESS if numerical_rank(krylov_matrix(a, x0)) == config.n else FAILURE
        if prop == "end-to-end-identifiable":
            sys = SystemSpec("discrete", a, c)
            series = simulate_discrete(sys, x0, 2 * config.n)
        else:
            sys = SystemSpec("continuous", a, c, step=CONTINUOUS_STEP)
            series = sample_continuous(sys, x0, 2 * config.n)
        report = identify(series, config.n)
        if report.condition_estimate > config.cond_cap:
            return NUMERICAL_REJECTION
        truth = char_poly_of_sampled(sys).coeffs
        err = float(np.abs(report.model.coeffs - truth).max())
        rel = err / max(1.0, float(np.abs(truth).max()))
        return SUCCESS if rel <= config.success_tol else FAILURE
    except LinIdentError:
        return NUMERICAL_REJECTION


def evaluate_block(prop, c, a, x0, config):
    """(outcome, diagnostics) for each stacked draw, from the block engine."""
    codes, diagnostics = _evaluate(prop, c, a, x0, config)
    return [(OUTCOMES[k], diagnostics(i)) for i, k in enumerate(codes)]


def stacked(draws):
    return tuple(np.stack(part) for part in zip(*draws))


# a cond_cap under SINGULAR_CONDITION_CAP rejects the trials between the two
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("prop, cond_cap", [(p, TrialConfig.cond_cap) for p in PROPERTIES] + [
    ("end-to-end-identifiable", 1e6), ("end-to-end-continuous", 1e6)],
    ids=[*PROPERTIES, "end-to-end-identifiable-cap-1e6", "end-to-end-continuous-cap-1e6"])
def test_blocks_match_reference(prop, cond_cap, n):
    config = TrialConfig(n=n, trials=TRIALS, seed=SEED, cond_cap=cond_cap)
    draws = [draw_sample(config, i) for i in range(TRIALS)]
    expected = [reference_evaluate(prop, *draw, config) for draw in draws]
    got = []
    for start in range(0, TRIALS, BLOCK):
        block = stacked(draws[start:start + BLOCK])
        got.extend(outcome for outcome, _ in evaluate_block(prop, *block, config))
    mismatched = [i for i, (e, g) in enumerate(zip(expected, got)) if e != g]
    assert not mismatched, [(i, expected[i], got[i]) for i in mismatched]

    report = mc_estimate(prop, config)
    assert (report.successes, report.failures, report.numerical_rejections) == (
        expected.count(SUCCESS), expected.count(FAILURE), expected.count(NUMERICAL_REJECTION))
    failed = [i for i, e in enumerate(expected) if e == FAILURE][:10]
    assert [case["trial_index"] for case in report.worst_cases] == failed
    assert [case["diagnostics"] for case in report.worst_cases] == [
        evaluate_block(prop, *stacked(draws[i - i % BLOCK:][:BLOCK]), config)[i % BLOCK][1]
        for i in failed]


# n = 8 end to end: every continuous window is over the cap, so some blocks
# judge no trial and build no truth polynomial
@pytest.mark.parametrize("box", [(-1.0, 1.0), (0.0, 1.0)], ids=["box-1-1", "box0-1"])
@pytest.mark.parametrize("prop, n", [(p, n) for p in PROPERTIES for n in (2, 12)] + [
    (p, 8) for p in ("end-to-end-identifiable", "end-to-end-continuous")])
def test_reports_do_not_depend_on_the_partition(prop, n, box, monkeypatch):
    """Blocks forced to 1, 7 or 128 trials give the default blocks' report
    byte for byte: at 300 trials, and at a count past the default's first
    boundary (4653 at n = 2, too many to run one trial at a time)."""
    def report(trials):
        config = TrialConfig(n=n, trials=trials, seed=SEED, box=SamplingBox(*box))
        return io.dumps(mc_estimate(prop, config).to_dict())

    for trials, sizes in ((300, (1, 7, 128)), (experiments._block_trials(n) + 45, (128,))):
        expected = report(trials)
        for size in sizes:
            with monkeypatch.context() as patch:
                patch.setattr(experiments, "_block_trials", lambda n: size)
                assert report(trials) == expected, (trials, size)


def truth_slices(monkeypatch):
    """The matrices the engine passes to char_poly, in call order."""
    passed = []

    def recording(m):
        passed.extend(np.asarray(m).reshape(-1, *np.shape(m)[-2:]))
        return char_poly(m)

    monkeypatch.setattr(experiments, "char_poly", recording)
    return passed


def test_no_truth_for_trials_over_the_cap(monkeypatch):
    config = TrialConfig(n=8, trials=200, seed=1)
    passed = truth_slices(monkeypatch)
    report = mc_estimate("end-to-end-continuous", config)
    assert report.numerical_rejections == config.trials
    assert passed == []


def test_truth_only_for_trials_within_the_cap(monkeypatch):
    config = TrialConfig(n=8, trials=200, seed=1, cond_cap=1e6)
    draws = [draw_sample(config, i) for i in range(config.trials)]
    within = [a for c, a, x0 in draws if evaluate_property(
        "end-to-end-identifiable", c, a, x0, config)[1]["condition_estimate"] <= config.cond_cap]
    assert 0 < len(within) < config.trials
    passed = truth_slices(monkeypatch)
    mc_estimate("end-to-end-identifiable", config)
    np.testing.assert_array_equal(passed, within)


def svd_slices(monkeypatch):
    """The matrices the engine passes to numerical_rank or condition_estimate."""
    passed = []

    def recording(f):
        def record(m, *args):
            passed.extend(np.asarray(m).reshape(-1, *np.shape(m)[-2:]))
            return f(m, *args)
        return record

    for name in ("numerical_rank", "condition_estimate"):
        monkeypatch.setattr(experiments, name, recording(getattr(experiments, name)))
    return passed


@pytest.mark.parametrize("prop", ["observable", "krylov-independent", "end-to-end-identifiable"])
def test_bracket_decides_without_svd(prop, monkeypatch):
    """At the default box and cap the LU condition bracket decides every
    n = 8 rank and window: no slice reaches the SVD."""
    passed = svd_slices(monkeypatch)
    report = mc_estimate(prop, TrialConfig(n=8, trials=200, seed=1))
    assert report.successes == 200
    assert passed == []


def test_svd_band_and_lu_solve_of_judged_trials(monkeypatch):
    """Under cond_cap = 1e6 some windows fall within a factor 2 of the cap
    and reach the SVD; the LU solve sees exactly the judged windows."""
    config = TrialConfig(n=8, trials=200, seed=1, cond_cap=1e6)
    draws = [draw_sample(config, i) for i in range(config.trials)]
    within = [experiments._hankel(experiments._iterate(a, None, c, x0, 16), 0, 8)
              for c, a, x0 in draws if evaluate_property(
                  "end-to-end-identifiable", c, a, x0, config)[1]["condition_estimate"] <= 1e6]
    passed, solved = svd_slices(monkeypatch), []

    def recording_solve(h, b):
        solved.extend(h)
        return lu_solve(h, b)

    lu_solve = experiments._lu_solve
    monkeypatch.setattr(experiments, "_lu_solve", recording_solve)
    mc_estimate("end-to-end-identifiable", config)
    assert 0 < len(passed) < config.trials
    assert 0 < len(within) < config.trials
    np.testing.assert_array_equal(solved, within)


def mixed_block(n):
    """Generic draws plus an exactly singular trial (A = I) and a trial from
    a box so wide that every property overflows."""
    config = TrialConfig(n=n, trials=6, seed=SEED)
    draws = [draw_sample(config, i) for i in range(config.trials)]
    c, _, x0 = draws[1]
    draws[1] = (c, np.eye(n), x0)
    draws[4] = draw_sample(TrialConfig(n=n, trials=1, seed=SEED, box=SamplingBox(-1e200, 1e200)), 0)
    return config, stacked(draws)


@pytest.mark.parametrize("n", (2, 3, 5))
@pytest.mark.parametrize("prop", PROPERTIES)
def test_mixed_block_matches_single_trials(prop, n):
    config, (c, a, x0) = mixed_block(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = evaluate_block(prop, c, a, x0, config)
        alone = [evaluate_property(prop, c[i], a[i], x0[i], config) for i in range(len(a))]
    assert block == alone
    assert block[1][0] in (FAILURE, NUMERICAL_REJECTION)
    assert block[4] == (NUMERICAL_REJECTION, block[4][1])
    assert block[4][1]["error"] == "NonFinite"


def test_singular_trial_outcomes():
    config, (c, a, x0) = mixed_block(3)
    assert evaluate_block("distinct-eigenvalues", c, a, x0, config)[1][0] == FAILURE
    assert evaluate_block("observable", c, a, x0, config)[1] == (FAILURE, {"rank": 1})
    outcome, diag = evaluate_block("end-to-end-identifiable", c, a, x0, config)[1]
    assert outcome == NUMERICAL_REJECTION
    assert diag["error"] == "SingularHankel"


def test_block_shape_mismatch_raises():
    config = TrialConfig(n=3, trials=2)
    c, a, x0 = stacked([draw_sample(config, i) for i in range(2)])
    with pytest.raises(LinIdentError):
        evaluate_block("observable", c, a[:, :2, :2], x0, config)
