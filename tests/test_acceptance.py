"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or on failure). Random draws are seeded and rejection-sampled
away from the measure-zero degeneracies, mirroring how each criterion is
stated.
"""

import math
import time
import timeit

import numpy as np

from linident import (
    PredictionModel,
    SamplingBox,
    SystemSpec,
    TimeSeries,
    TrialConfig,
    affine_offset,
    assess_stability,
    char_poly,
    hankel,
    identify,
    identify_affine,
    krylov_matrix,
    mat_exp,
    mc_estimate,
    numerical_rank,
    observability_matrix,
    output_row_G,
    predict,
    recover_continuous_spectrum,
    sample_continuous,
    simulate_discrete,
)
from linident.cli import main as cli_main
from _util import draw_continuous, draw_discrete, greedy_spectrum_distance


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} [{status}] {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


def test_criterion_01_fibonacci_exactness():
    series = TimeSeries([1, 1, 2, 3, 5])
    model = identify(series, 2).model
    exact = tuple(model.coeffs) == (-1.0, -1.0)
    future = predict(model, [5, 8], 3)
    exact = exact and list(future.values) == [13.0, 21.0, 34.0]
    elapsed = min(timeit.repeat(
        lambda: predict(identify(series, 2).model, [5, 8], 3),
        number=1, repeat=20))
    report(1, "Fibonacci exactness", exact and elapsed < 1e-3,
           f"runtime {elapsed * 1e6:.0f} us")


def test_criterion_02_data_budget():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        a, c, x0 = draw_discrete(rng, 4)
        series = simulate_discrete(SystemSpec("discrete", a, c), x0, 8)
        model = identify(series, 4).model
        truth = char_poly(a).coeffs
        rel = np.abs(model.coeffs - truth).max() / max(1.0, np.abs(truth).max())
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(2, "2n-sample data budget", worst <= 1e-7 and elapsed < 1.0,
           f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_window_independence():
    rng = np.random.default_rng(2024)  # same 100 systems as criterion 2
    worst = 0.0
    for _ in range(100):
        a, c, x0 = draw_discrete(rng, 4)
        series = simulate_discrete(SystemSpec("discrete", a, c), x0, 11)
        c0 = identify(series, 4, k=0).model.coeffs
        c3 = identify(series, 4, k=3).model.coeffs
        worst = max(worst, np.abs(c0 - c3).max() / max(1.0, np.abs(c0).max()))
    report(3, "window independence (k=0 vs k=3)", worst <= 1e-7,
           f"worst rel gap {worst:.2e}")


def test_criterion_04_hankel_factorization():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        a, c, x0 = draw_discrete(rng, n)
        series = simulate_discrete(SystemSpec("discrete", a, c), x0, 2 * n + 3)
        q = observability_matrix(a, c)
        m = krylov_matrix(a, x0)
        ak = np.eye(n)
        for k in range(4):
            h = hankel(series, k, n)
            gap = np.abs(h - q @ ak @ m).max() / max(1.0, np.abs(h).max())
            worst = max(worst, gap)
            ak = ak @ a
    report(4, "Hankel factorization H_k = Q A^k M", worst <= 1e-9,
           f"worst entry gap {worst:.2e}")


def test_criterion_05_cayley_hamilton():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        a, c, _ = draw_discrete(rng, n)
        worst = max(worst, np.abs(output_row_G(a, c) + char_poly(a).coeffs).max())
    report(5, "output row equals negated characteristic coefficients",
           worst <= 1e-8, f"worst gap {worst:.2e}")


def test_criterion_06_affine_pipeline():
    series = simulate_discrete(
        SystemSpec("discrete", [[2.0]], [1.0], b=[1.0]), [0.0], 5)
    model = identify_affine(series, 1).model
    exact = (abs(model.coeffs[0] + 2.0) <= 1e-12
             and abs(model.offset - 1.0) <= 1e-12)
    rng = np.random.default_rng(6)
    worst = 0.0
    count = 0
    while count < 50:
        n = int(rng.integers(1, 5))
        a, c, x0 = draw_discrete(rng, n)
        b = rng.uniform(-1, 1, n)
        sys = SystemSpec("discrete", a, c, b=b)
        try:
            got = identify_affine(simulate_discrete(sys, x0, 2 * n + 2), n).model.offset
        except Exception:
            continue  # degenerate augmented window: resample
        expect = affine_offset(a, b, c)
        worst = max(worst, abs(got - expect) / max(1.0, abs(expect)))
        count += 1
    report(6, "affine pipeline (offset recovery)", exact and worst <= 1e-6,
           f"worst rel err {worst:.2e}")


def test_criterion_07_continuous_round_trip():
    rot = SystemSpec("continuous", [[0, 1], [-1, 0]], [1, 0], step=0.3)
    model = identify(sample_continuous(rot, [1, 0], 4), 2).model
    coeffs_ok = np.abs(model.coeffs - [1.0, -2 * math.cos(0.3)]).max() <= 1e-9
    spectrum = recover_continuous_spectrum(model)
    rot_ok = greedy_spectrum_distance(spectrum.values, [1j, -1j]) <= 1e-6

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a, c, x0 = draw_continuous(rng, n, lam=0.01)
        sys = SystemSpec("continuous", a, c, step=0.01)
        m = identify(sample_continuous(sys, x0, 2 * n), n).model
        got = recover_continuous_spectrum(m).values
        worst = max(worst, greedy_spectrum_distance(got, np.linalg.eigvals(a)))
    report(7, "continuous-time spectrum round trip",
           coeffs_ok and rot_ok and worst <= 1e-5,
           f"worst abs err {worst:.2e}")


def test_criterion_08_rank_preservation_under_sampling():
    rng = np.random.default_rng(8)
    full = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a, c, _ = draw_continuous(rng, n, lam=0.01)
        p = observability_matrix(mat_exp(a, 0.01), c)
        if numerical_rank(p) == n:
            full += 1
    report(8, "sampled observability keeps full rank", full == 100,
           f"{full}/100 full rank")


def test_criterion_09_measure_one_monte_carlo():
    start = time.perf_counter()
    lines = []
    ok = True
    for prop in ("distinct-eigenvalues", "observable", "krylov-independent"):
        for n in (2, 3, 4):
            rep = mc_estimate(prop, TrialConfig(
                n=n, trials=10_000, seed=90, box=SamplingBox(-1, 1)))
            ok = ok and rep.failures == 0
            lines.append(f"{prop}/n={n}: failures={rep.failures}")
    for n in (2, 3, 4):
        rep = mc_estimate("end-to-end-identifiable", TrialConfig(
            n=n, trials=10_000, seed=90, box=SamplingBox(-1, 1),
            success_tol=1e-6, cond_cap=1e10))
        rej_frac = rep.numerical_rejections / rep.trials
        ok = ok and rep.estimate >= 0.95 and rej_frac < 0.05
        lines.append(f"end-to-end/n={n}: estimate={rep.estimate:.4f} rej={rej_frac:.3%}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report(9, "measure-1 Monte Carlo", ok,
           "; ".join(lines) + f"; {elapsed:.1f}s")


def test_criterion_10_stability_classification():
    fib = identify(TimeSeries([1, 1, 2, 3, 5]), 2).model
    scalar = PredictionModel([-0.5])
    rot = PredictionModel([1.0, -2 * math.cos(0.3)])
    verdicts = (assess_stability(fib), assess_stability(scalar), assess_stability(rot))
    report(10, "stability classification",
           verdicts == ("unstable", "asymptotically-stable", "marginal"),
           str(verdicts))


def test_criterion_11_reproducible_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["montecarlo", "--property", "end-to-end-identifiable", "--n", "3",
            "--trials", "500", "--seed", "77", "--box=-1,1"]
    code1 = cli_main(args + ["--out", str(a)])
    code2 = cli_main(args + ["--out", str(b)])
    report(11, "byte-identical seeded Monte Carlo reports",
           code1 == 0 and code2 == 0 and a.read_bytes() == b.read_bytes())
