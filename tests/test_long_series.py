"""The long-series paths against the per-sample loops they replaced.

The reference functions below are the loops that identification, the
residual check, prediction, simulation and the series writer ran one sample
at a time. The vectorised paths of identification and the writer do the
same arithmetic in the same order, so on a long series each of their
results must be bitwise equal to its loop. Simulation and prediction do not
repeat their loops' arithmetic. For one system past ``dynsys._loop_length``
states both run one block path, ``dynsys._blocks``, in double-double: a
doubling scan of the states between blocks of 64 outputs, each block filled
by one correctly rounded product; a prediction is the simulation of the
model's companion realisation, kept only if ``ident._accepted``. ``_blocks``
alone decides between blocks and loop, and the threshold is pinned on both
sides for both callers. Both are held to the exact series instead,
``_exact.exact_series`` (40-digit decimal): simulation's error must be at
most twice the loop's, on rotation systems and on their non-normal
companion matrices alike, and prediction's within half an ulp of its
largest value. Where their blocks cannot be used (a stack of systems, a
short series), would cancel, or fail prediction's acceptance test, each
must equal its loop bit for bit.
"""

import math

import numpy as np
import pytest

from linident import (
    InsufficientData,
    NonFinite,
    ParseError,
    TimeSeries,
    identify,
    identify_affine,
    io,
    predict,
)
from linident import dynsys, ident
from linident.cli import _emit_series
from linident.dynsys import _iterate
from linident.ident import PredictionModel, _hankel, _solve_windows, _window_residual
from linident.numkit import char_poly, condition_estimate, mat_exp
from _exact import bitwise_equal, dyadic, exact_series

LENGTH = 20_000
EXACT_LENGTH = 5_000  # steps of the 40-digit reference
STEP = 0.5
NS = (1, 2, 4, 8)
K = 3
OFFSET = 0.375


def reference_residual(y, k, n, coeffs, offset):
    rows = len(y) - n - k
    worst = 0.0
    off = 0.0 if offset is None else offset
    for j in range(rows):
        defect = y[k + n + j] + coeffs @ y[k + j:k + j + n] - off
        worst = max(worst, abs(defect))
    return worst


def reference_overdetermined(y, k, n):
    """(coefficients, condition estimate) of the least-squares fit."""
    rows = len(y) - n - k
    h = np.empty((rows, n))
    for j in range(rows):
        h[j] = y[k + j:k + j + n]
    rhs = y[k + n:k + n + rows]
    sol, *_ = np.linalg.lstsq(h, rhs, rcond=None)
    return -sol, condition_estimate(h)


def reference_affine(y, k, n):
    """(coefficients, offset, condition estimate) of the affine solve."""
    h = np.empty((n + 1, n + 1))
    for j in range(n + 1):
        h[j, :n] = y[k + j:k + j + n]
        h[j, n] = 1.0
    sol, cond = _solve_windows(h[None], y[None, k + n:k + 2 * n + 1])
    return -sol[0, :n], float(sol[0, n]), float(cond[0])


def reference_predict(model, seed, steps):
    offset = 0.0 if model.offset is None else model.offset
    window = np.asarray(seed, dtype=float)
    out = np.empty(steps)
    for i in range(steps):
        out[i] = -(model.coeffs @ window) + offset
        window = np.concatenate((window[1:], out[i:i + 1]))
    return out


def reference_iterate(a, b, c, x, length):
    states = np.empty(x.shape[:-1] + (length, x.shape[-1]))
    for i in range(length):
        states[..., i, :] = x
        if i + 1 < length:
            x = np.matvec(a, x) if b is None else np.matvec(a, x) + b
    return np.vecdot(states, c[..., None, :])


def reference_format(series):
    lines = [] if series.step is None else [f"# step={format(series.step, '.17g')}"]
    lines.extend(format(v, ".17g") for v in series.values)
    return "\n".join(lines) + "\n"


def rotations(n, rng):
    """Generator of a continuous order-n flow: rotations (and one zero
    eigenvalue for odd n) conjugated by a random similarity, so that the
    sampled series neither grows nor decays."""
    a = np.zeros((n, n))
    for i, w in zip(range(0, n - 1, 2), rng.uniform(0.2, 2.8, n // 2)):
        a[i, i + 1], a[i + 1, i] = w, -w
    t = np.eye(n) + rng.uniform(-0.3, 0.3, (n, n))
    return t @ a @ np.linalg.inv(t)


@pytest.fixture(scope="module")
def series():
    """A continuous order-8 series of LENGTH samples, plus OFFSET."""
    rng = np.random.default_rng(301)
    sampled = mat_exp(rotations(8, rng), STEP)
    y = _iterate(sampled, None, rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8), LENGTH)
    return TimeSeries(y + OFFSET, step=STEP)


@pytest.mark.parametrize("n", NS)
class TestIdentification:
    def test_windows_are_the_loop_rows(self, series, n):
        y = series.values
        rows = len(y) - n - K
        loop = np.array([y[K + j:K + j + n] for j in range(rows)])
        assert bitwise_equal(_hankel(y, K, n, rows), loop)
        assert bitwise_equal(_hankel(y, K, n), loop[:n])

    def test_windows_never_run_past_a_stacked_series(self, n):
        y = np.arange(40.0).reshape(2, 20)
        assert _hankel(y, K, n, 18 - n).shape == (2, 18 - n, n)
        with pytest.raises(InsufficientData):
            _hankel(y, K, n, 19 - n)

    @pytest.mark.parametrize("offset", [None, OFFSET])
    @pytest.mark.parametrize("k", [0, K])
    def test_residual(self, series, n, k, offset):
        y = series.values
        coeffs = np.random.default_rng(n).uniform(-1, 1, n)
        got = _window_residual(y, k, n, coeffs, offset)
        assert bitwise_equal(got, reference_residual(y, k, n, coeffs, offset))

    @pytest.mark.parametrize("spike", ["first-window", "last-sample"])
    def test_residual_covers_every_window(self, n, spike):
        y = np.zeros(40)
        y[K if spike == "first-window" else -1] = 1.0
        assert _window_residual(y, K, n, np.ones(n), None) == 1.0

    def test_overdetermined(self, series, n):
        report = identify(series, n, k=K, overdetermined=True)
        coeffs, cond = reference_overdetermined(series.values, K, n)
        assert bitwise_equal(report.model.coeffs, coeffs)
        assert report.condition_estimate == cond
        assert bitwise_equal(report.residual,
                             reference_residual(series.values, K, n, coeffs, None))

    def test_affine(self, series, n):
        coeffs, offset, cond = reference_affine(series.values, K, n)
        report = identify_affine(series, n, k=K)
        assert bitwise_equal(report.model.coeffs, coeffs)
        assert report.model.offset == offset
        assert report.condition_estimate == cond
        assert bitwise_equal(report.residual,
                             reference_residual(series.values, K, n, coeffs, offset))


def unit_circle_model(n, offset):
    """A model whose roots lie on the unit circle, so that long predictions
    stay bounded."""
    rng = np.random.default_rng(n)
    angles = rng.uniform(0.1, 3.0, n // 2)
    roots = np.concatenate((np.exp(1j * angles), np.exp(-1j * angles), [-1.0] * (n % 2)))
    return PredictionModel(np.poly(roots)[::-1][:-1].real, offset=offset, step=STEP)


@pytest.fixture
def block_results(monkeypatch):
    """For each prediction that built blocks (``dynsys._blocks`` ran
    ``_doubling``): True where they were kept (``_blocks`` gave a series and
    ``ident._accepted`` held)."""
    results, built = [], []
    blocks, doubling, accepted = dynsys._blocks, dynsys._doubling, ident._accepted

    def spy_blocks(*args):
        built.clear()
        y = blocks(*args)
        if y is None and built:
            results.append(False)
        return y

    def spy_doubling(*args):
        built.append(True)
        return doubling(*args)

    def spy_accepted(*args):
        results.append(accepted(*args))
        return results[-1]

    monkeypatch.setattr(dynsys, "_blocks", spy_blocks)
    monkeypatch.setattr(dynsys, "_doubling", spy_doubling)
    monkeypatch.setattr(ident, "_accepted", spy_accepted)
    return results


def companion_realisation(model):
    """(A, b, c) of the system whose outputs from x0 = seed are the seed's
    last value and then the prediction: the realisation ``predict`` runs."""
    last = np.eye(model.order)[-1]
    return model.companion, None if model.offset is None else model.offset * last, last


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("offset", [None, OFFSET])
def test_predict(series, block_results, n, offset):
    """Past the loop length, the blocks are kept, and their error against
    the exact continuation is at most the loop's and within half an ulp of
    the largest value: the blocks round each exact value correctly (the
    loop's error: up to 5e-13)."""
    model = unit_circle_model(n, offset)
    seed = series.values[-n:]
    got = predict(model, seed, EXACT_LENGTH)
    assert got.step == STEP
    assert block_results == [True]
    exact = exact_series(*companion_realisation(model), seed, EXACT_LENGTH + 1)[1:]
    error = relative_error(got.values, exact)
    assert error <= relative_error(reference_predict(model, seed, EXACT_LENGTH), exact)
    assert error <= np.finfo(float).epsneg


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("offset", [None, OFFSET])
def test_short_predictions_are_the_loop(series, block_results, n, offset):
    model = unit_circle_model(n, offset)
    seed = series.values[-n:]
    for steps in (1, 3, dynsys._loop_length(n + (offset is not None)) - 1):
        got = predict(model, seed, steps)
        assert bitwise_equal(got.values, reference_predict(model, seed, steps))
    assert block_results == []


@pytest.mark.parametrize("n", NS)
def test_acceptance_bound_is_the_loops_rounding(series, n):
    """The loop's own steps pass; a step moved by three times its bound fails."""
    model = unit_circle_model(n, OFFSET)
    seed = series.values[-n:]
    buf = np.concatenate((seed, reference_predict(model, seed, LENGTH)))
    assert ident._accepted(model.coeffs, OFFSET, buf)
    j = n + LENGTH // 2
    buf[j] += 3 * (n + 1) * 2.0**-53 * (OFFSET + np.abs(model.coeffs) @ np.abs(buf[j - n:j]))
    assert not ident._accepted(model.coeffs, OFFSET, buf)


def test_clustered_slow_rotations_run_the_loop(block_results):
    """The companion of three slow rotations at nearly the same angle: its
    block products cancel past _CANCELLATION (ratio 3e8 and more), so the
    loop runs from the start."""
    rng = np.random.default_rng(18)
    angles = rng.uniform(0.01, 0.05, 3)
    roots = np.concatenate((np.exp(1j * angles), np.exp(-1j * angles)))
    model = PredictionModel(np.poly(roots)[::-1][:-1].real)
    seed = rng.uniform(-1, 1, 6)
    got = predict(model, seed, LENGTH)
    assert block_results == [False]
    want = reference_predict(model, seed, LENGTH)
    assert np.isfinite(want).all()
    assert bitwise_equal(got.values, want)


def test_refused_blocks_give_the_loop(series, block_results):
    """Three pairs of roots clustered near -1 (moduli 1, 0.998 and 1.001):
    ``_blocks`` gives a series, but its defects exceed the acceptance bound
    some 2000-fold, so ``predict`` returns the loop's bits, which differ
    from the blocks'. (The refused blocks err by 1.3e-12 of the largest
    value against the exact series; the loop by 4.3e-9.)"""
    poly = np.ones(1)
    for p, q in [(2 - 2**-6, 1 + 2**-9), (2 - 2**-5, 1 - 2**-8), (2 - 2**-5, 1.0)]:
        poly = np.convolve(poly, [1.0, p, q])  # exact: few-bit dyadic coefficients
    model = PredictionModel(poly[:0:-1])
    seed = series.values[-6:]
    got = predict(model, seed, EXACT_LENGTH)
    want = reference_predict(model, seed, EXACT_LENGTH)
    assert bitwise_equal(got.values, want)
    assert block_results == [False]
    y = dynsys._blocks(*companion_realisation(model), seed, EXACT_LENGTH + 1)
    assert y is not None and not np.array_equal(y[1:], want)


def test_cancelling_blocks_give_way_per_system():
    """Simulating that companion realisation (c = e_n): its block products
    cancel past _CANCELLATION, so the system runs the loop, bit for bit,
    while a rotation system alone keeps its blocks."""
    rng = np.random.default_rng(18)
    angles = rng.uniform(0.01, 0.05, 3)
    roots = np.concatenate((np.exp(1j * angles), np.exp(-1j * angles)))
    slow = PredictionModel(np.poly(roots)[::-1][:-1].real).companion
    fast = mat_exp(rotations(6, rng), STEP)
    c, x = np.eye(6)[-1], rng.uniform(-1, 1, 6)
    assert dynsys._blocks(slow, None, c, x, LENGTH) is None
    assert bitwise_equal(_iterate(slow, None, c, x, LENGTH), reference_iterate(slow, None, c, x, LENGTH))
    y = dynsys._blocks(fast, None, c, x, LENGTH)
    assert y is not None
    assert bitwise_equal(_iterate(fast, None, c, x, LENGTH), y)


def test_diverging_prediction_names_the_loops_step(block_results):
    """y_i = 1.5^i overflows within the blocks too; the loop runs from the
    start, so NonFinite names its first non-finite step."""
    model = PredictionModel([-1.5])
    with np.errstate(over="ignore"):
        first = int(np.argmin(np.isfinite(reference_predict(model, [1.0], 3000)))) + 1
    assert 1700 < first < 1800  # 1.5^1751 > 1.8e308
    with pytest.raises(NonFinite, match=f"^prediction diverges: step {first} of 3000 is not finite$"):
        predict(model, [1.0], 3000)
    assert block_results == [False]


@pytest.mark.parametrize("n", [64, 70, 130])
def test_high_orders_run_the_loop(block_results, n):
    """At orders 64 to 130 the blocks' fixed cost (0.15 to 0.9 s) is far
    above 1e4 loop steps (about 15 ms): such a prediction runs the loop, with
    its bits, and never builds the m x m double-double powers."""
    rng = np.random.default_rng(n)
    model = PredictionModel(rng.uniform(-1, 1, n) * 0.5 / n, offset=1.0)  # a contraction
    seed = rng.uniform(-1, 1, n)
    assert dynsys._loop_length(n + 1) > 10_000
    got = predict(model, seed, 10_000)
    assert block_results == []
    assert bitwise_equal(got.values, reference_predict(model, seed, 10_000))


def relative_error(y, exact):
    """Largest |y - exact|, relative to the largest |exact|."""
    return np.abs(y - exact).max() / np.abs(exact).max()


def iterate_case(n, drive, stack=()):
    """A sampled rotation system (stacked on ``stack``), its drive or None,
    c and x0."""
    rng = np.random.default_rng(7 + n)
    a = np.stack([mat_exp(rotations(n, rng), STEP) for _ in range(math.prod(stack))])
    a = a.reshape(stack + (n, n))
    b = rng.uniform(-0.1, 0.1, stack + (n,)) if drive else None
    c, x = rng.uniform(-1, 1, stack + (n,)), rng.uniform(-1, 1, stack + (n,))
    return a, b, c, x


def companion(a):
    """The companion matrix of each A of a stack: the identified form."""
    n = a.shape[-1]
    comp = np.broadcast_to(np.eye(n, k=1), a.shape).copy()
    comp[..., -1, :] = -char_poly(a.reshape(-1, n, n)).reshape(a.shape[:-1])
    return comp


def assert_loop_accuracy(a, b, c, x):
    """``_iterate``'s error against the exact series is at most twice the
    loop's; returns that error."""
    exact = exact_series(a, b, c, x, EXACT_LENGTH)
    got = relative_error(_iterate(a, b, c, x, EXACT_LENGTH), exact)
    loop = relative_error(reference_iterate(a, b, c, x, EXACT_LENGTH), exact)
    assert got <= 2 * loop, (got, loop)
    return got


# one system each (the ids keep "single"): a stack runs the loop, bit for
# bit, as test_stacked_long_series_is_the_loop checks
SINGLE = pytest.mark.parametrize("drive", [False, True], ids=["single-homogeneous", "single-affine"])


@pytest.mark.parametrize("n", NS)
@SINGLE
def test_iterate(n, drive):
    a, b, c, x = iterate_case(n, drive)
    if n == 1 and not drive:  # A = exp(0) = [[1]]: every path is exact
        assert bitwise_equal(_iterate(a, b, c, x, LENGTH), reference_iterate(a, b, c, x, LENGTH))
    assert_loop_accuracy(a, b, c, x)


@pytest.mark.parametrize("n", [2, 4, 8])
@SINGLE
def test_iterate_companion(n, drive):
    """Non-normal systems: a companion matrix C of slow rotations has |C^64|
    far above |C^64 x|. The blocks must still hold the loop's accuracy; at
    n = 8, where their cancellation ratio reaches 1e3 to 1e4, they are kept
    and err by at most an ulp of the largest sample (the loop: 4e-12 to
    2e-10)."""
    a, b, c, x = iterate_case(n, drive)
    a = companion(a)
    error = assert_loop_accuracy(a, b, c, x)
    if n == 8:  # then _iterate's series is the blocks'
        assert dynsys._blocks(a, b, c, x, EXACT_LENGTH) is not None
        assert error <= np.finfo(float).eps


@pytest.mark.parametrize("tails", [False, True], ids=["no-tails", "tails"])
def test_chain(tails):
    """``_chain`` against the exact outputs Φ_k P^b s, in integer arithmetic
    on the floats' exact binary values: every output is the correctly
    rounded exact value, whether the series ends on a whole block or in a
    tail of 37 outputs (300 blocks in all, 9 scan rounds). P is a
    double-double rotation of order 3, Φ random."""
    rng = np.random.default_rng(19)
    m, blocks = 3, 300
    length = blocks * dynsys._BLOCK - (dynsys._BLOCK - 37 if tails else 0)
    hi = np.linalg.qr(rng.standard_normal((m, m)))[0]
    p = np.stack((hi, hi * rng.uniform(-1, 1, hi.shape) * 2.0**-54))
    phi = rng.uniform(-1, 1, (dynsys._BLOCK, m))
    s = rng.uniform(-1, 1, m)
    y, kept = dynsys._chain(p, np.stack((phi, np.zeros_like(phi))), s, length)
    assert y.shape == (length,)
    assert kept is True
    # P = hi + lo as one integer matrix over 2^ep
    pm, ep = dyadic(np.concatenate((p[0].ravel(), p[1].ravel())))
    pm = [[pm[r * m + j] + pm[m * m + r * m + j] for j in range(m)] for r in range(m)]
    f, ef = dyadic(phi.ravel())
    state, es = dyadic(s)
    want = []
    for b in range(blocks):  # int / int rounds correctly
        scale = 1 << (ef + es + b * ep)
        want.extend(sum(f[k * m + j] * state[j] for j in range(m)) / scale
                    for k in range(dynsys._BLOCK))
        state = [sum(a * v for a, v in zip(row, state)) for row in pm]
    assert y.tolist() == want[:length]


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("drive", [False, True], ids=["homogeneous", "affine"])
def test_stacked_long_series_is_the_loop(n, drive):
    """``_blocks`` serves one system: a long series of a stack, whether A,
    or only b, c and x0 carry the stack, and for rotation systems and their
    companion matrices alike, runs the loop, bit for bit, one state past
    the length at which a single system takes the blocks."""
    a, b, c, x = iterate_case(n, drive, (3,))
    length = dynsys._loop_length(n + drive) + 1
    for a in (a, companion(a), a[0]):
        assert dynsys._blocks(a, b, c, x, length) is None
        assert bitwise_equal(_iterate(a, b, c, x, length), reference_iterate(a, b, c, x, length))


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("drive", [False, True], ids=["homogeneous", "affine"])
def test_threshold_edge(series, block_results, n, drive):
    """``_blocks`` owns the threshold L = ``_loop_length(m)``, m = n + 1 with
    a drive or offset: a simulation of L states is the loop's, of L + 1 the
    blocks'; a prediction of L - 1 steps (L states with the seed's last) is
    the loop's, of L steps the blocks', kept."""
    rng = np.random.default_rng(23)
    a = mat_exp(rotations(n, rng), STEP)
    b = rng.uniform(-1, 1, n) if drive else None
    c, x = rng.uniform(-1, 1, (2, n))
    edge = dynsys._loop_length(n + drive)
    assert dynsys._blocks(a, b, c, x, edge) is None
    assert bitwise_equal(_iterate(a, b, c, x, edge), reference_iterate(a, b, c, x, edge))
    y = dynsys._blocks(a, b, c, x, edge + 1)
    assert y is not None
    assert bitwise_equal(_iterate(a, b, c, x, edge + 1), y)

    model = unit_circle_model(n, OFFSET if drive else None)
    seed = series.values[-n:]
    got = predict(model, seed, edge - 1)
    assert block_results == []
    assert bitwise_equal(got.values, reference_predict(model, seed, edge - 1))
    got = predict(model, seed, edge)
    assert block_results == [True]
    y = dynsys._blocks(*companion_realisation(model), seed, edge + 1)
    assert bitwise_equal(got.values, y[1:])


@pytest.mark.parametrize("n", NS)
def test_two_blocks_are_the_loop(n):
    """Short series (windows, Q, K, Monte Carlo draws) keep the loop's bits,
    up to the longest the loop runs."""
    rng = np.random.default_rng(5)
    a = mat_exp(rotations(n, rng), STEP)
    b, c, x = rng.uniform(-1, 1, (3, n))
    for length in (2 * dynsys._BLOCK, dynsys._loop_length(n + 1)):
        assert bitwise_equal(_iterate(a, b, c, x, length), reference_iterate(a, b, c, x, length))


@pytest.mark.parametrize("a, x, length", [
    ([[1e5, 0.0], [0.0, 0.5]], [0.0, 1.0], 2000),  # c A^63 overflows float64
    ([[1e-5, 0.0], [0.0, 0.5]], [1e300, 1.0], 2000),  # c A^63 is subnormal
    # a scalar series of this kind stays finite only while it is too short for blocks
    ([[1e5]], [1e-300], 120),
    ([[1e-5]], [1e300], 100),
], ids=["overflow", "subnormal", "overflow-scalar", "subnormal-scalar"])
def test_power_outside_float64_runs_the_loop(a, x, length):
    """A finite series with an entry of Φ, a row c A^k (k < 64), outside
    float64's normal range is the loop's."""
    a, x = np.array(a), np.array(x)
    c = np.ones_like(x)
    got = _iterate(a, None, c, x, length)
    assert np.isfinite(got).all()
    assert bitwise_equal(got, reference_iterate(a, None, c, x, length))


class TestWriter:
    VALUES = [1.0, -0.0, 1 / 3, 5e-324, -1.7976931348623157e308, 12345678901234567.0, 0.1 + 0.2]

    @pytest.mark.parametrize("step", [None, 0.1])
    def test_all_writers_match_the_loop(self, tmp_path, capsys, series, step):
        for s in (TimeSeries(self.VALUES, step=step), TimeSeries(series.values, step=step)):
            want = reference_format(s)
            io.write_series(s, None)
            assert capsys.readouterr().out == want
            io.write_series(s, tmp_path / "io.txt")
            _emit_series(s, tmp_path / "cli.txt")
            assert (tmp_path / "io.txt").read_text() == want
            assert (tmp_path / "cli.txt").read_text() == want
            back = io.read_series(tmp_path / "io.txt")
            assert bitwise_equal(back.values, s.values)
            assert back.step == step


class TestReader:
    def test_comments_blanks_and_late_step_header(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1.5\n\n  # a comment\n 2.5 \n#step=0.25\n\t\n-3e-2\n#\n4\n")
        got = io.read_series(p)
        assert got.values.tolist() == [1.5, 2.5, -0.03, 4.0]
        assert got.step == 0.25

    @pytest.mark.parametrize("bad, message", [("abc", "bad sample 'abc'"),
                                              ("nan", "non-finite sample"),
                                              ("-inf", "non-finite sample"),
                                              ("1e400", "non-finite sample")])
    def test_bad_sample_at_line_10001(self, tmp_path, bad, message):
        lines = ["# step=0.1"] + [repr(math.sin(i)) for i in range(9997)] + ["", "# note", bad, "1"]
        p = tmp_path / "s.txt"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"{message} at line 10001") as exc:
            io.read_series(p)
        assert exc.value.line == 10001

    def test_nan_in_mid_file(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# step=1\n1\n\n# c\n2\nnan\n3\n")
        with pytest.raises(ParseError) as exc:
            io.read_series(p)
        assert exc.value.line == 6

    @pytest.mark.parametrize("later", ["abc", "# step=0"])
    def test_earlier_non_finite_sample_is_reported_first(self, tmp_path, later):
        p = tmp_path / "s.txt"
        p.write_text(f"1\ninf\n2\n{later}\n")
        with pytest.raises(ParseError, match="non-finite sample at line 2"):
            io.read_series(p)

    @pytest.mark.parametrize("padding, message", [
        (b"", "not UTF-8 text"),  # one decode chunk: it fails before line 2 is read
        (b"0.5\n" * 5000, "non-finite sample at line 2"),  # the byte is 2 chunks of 8 KB on
    ], ids=["same-chunk", "later-chunk"])
    def test_non_finite_sample_before_a_non_utf8_byte(self, tmp_path, padding, message):
        p = tmp_path / "s.txt"
        p.write_bytes(b"1\ninf\n" + padding + b"\xff\n")
        with pytest.raises(ParseError, match=message):
            io.read_series(p)
