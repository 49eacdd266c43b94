import json
import math
import warnings

import numpy as np
import pytest

from linident import SystemSpec, identify, predict, simulate_discrete
from linident import io
from linident.cli import main
from _exact import fibonacci


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fib_system(tmp_path):
    path = tmp_path / "fib.json"
    io.write_system(SystemSpec("discrete", [[0, 1], [1, 1]], [1, 0]), path)
    return path


@pytest.fixture
def fib_series(tmp_path):
    path = tmp_path / "fib.txt"
    path.write_text("1\n1\n2\n3\n5\n")
    return path


class TestIdentifyCommand:
    def test_fibonacci_model(self, capsys, tmp_path, fib_series):
        out = tmp_path / "model.json"
        code, _, _ = run(capsys, "identify", "--series", str(fib_series),
                         "--n", "2", "--out", str(out))
        assert code == 0
        doc = io.read_report(out)
        assert doc["coeffs"] == [-1.0, -1.0]
        assert doc["residual"] == 0.0

    def test_singular_series_exits_one(self, capsys, tmp_path):
        p = tmp_path / "const.txt"
        p.write_text("7\n7\n7\n7\n")
        code, _, err = run(capsys, "identify", "--series", str(p), "--n", "2")
        assert code == 1
        assert "SingularHankel" in err

    def test_bad_series_exits_two(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1\nabc\n")
        code, _, err = run(capsys, "identify", "--series", str(p), "--n", "2")
        assert code == 2
        assert "ParseError" in err

    @pytest.mark.parametrize("flag, message", [
        (["--n", "0"], "n must be >= 1"),
        (["--n", "2", "--k", "-3"], "k must be >= 0"),
        (["--n", "2", "--k", "-3", "--overdetermined"], "k must be >= 0"),
        (["--n", "2", "--k", "-3", "--affine"], "k must be >= 0"),
    ], ids=["n", "k", "k-overdetermined", "k-affine"])
    def test_invalid_window_exits_two(self, capsys, fib_series, flag, message):
        code, out, err = run(capsys, "identify", "--series", str(fib_series), *flag)
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == f"UsageError: {message}"

    def test_affine_and_overdetermined_exclude_each_other(self, capsys, fib_series):
        code, out, err = run(capsys, "identify", "--series", str(fib_series), "--n", "2",
                             "--affine", "--overdetermined")
        assert code == 2
        assert out == ""
        assert err.startswith("usage: linident identify")
        assert "argument --overdetermined: not allowed with argument --affine" in err

    @pytest.mark.parametrize("values, flags, message", [
        ("1e-300\n1e300\n1e300\n", [], "identification diverges: solution entry 1 of 1 is not finite"),
        ("1\n2\n1e308\n1e308\n", ["--affine"],
         "identification diverges: solution entry 1 of 2 is not finite"),
        ("1\n1e308\n-1e308\n", [], "document field residual is not finite: inf"),
    ], ids=["solve", "affine-solve", "residual"])
    def test_overflow_exits_one_and_writes_nothing(self, capsys, tmp_path, values, flags, message):
        p = tmp_path / "s.txt"
        p.write_text(values)
        model = tmp_path / "model.json"
        for out in ([], ["--out", str(model)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = run(capsys, "identify", "--series", str(p), "--n", "1", *flags, *out)
            assert result == (1, "", f"NonFinite: {message}\n")
        assert not model.exists()

    def test_window_near_the_float_limit(self, capsys, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1e307\n1.7e308\n1e307\n1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "identify", "--series", str(p), "--n", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["condition_estimate"] == pytest.approx(1.125)

    def test_pivot_near_the_float_limit(self, capsys, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1.7e308\n1.7e308\n-1.7e308\n0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "identify", "--series", str(p), "--n", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["coeffs"] == pytest.approx([0.5, 0.5], rel=1e-15)

    def test_zero_step_header_exits_two(self, capsys, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# sampled series\n# step=0\n1\n2\n3\n")
        code, _, err = run(capsys, "identify", "--series", str(p), "--n", "1")
        assert code == 2
        assert err.startswith("ParseError: ")
        assert "at line 2" in err.splitlines()[0]

    def test_non_utf8_series_exits_two(self, capsys, tmp_path):
        p = tmp_path / "s.txt"
        p.write_bytes(b"\xff\xfe1\x00\n\x002\x00\n\x00")
        code, out, err = run(capsys, "identify", "--series", str(p), "--n", "1")
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == (f"ParseError: series file {p} is not UTF-8 text: "
                                       "invalid start byte")


class TestPredictCommand:
    def test_continuation(self, capsys, tmp_path, fib_series):
        model = tmp_path / "model.json"
        run(capsys, "identify", "--series", str(fib_series), "--n", "2",
            "--out", str(model))
        code, out, _ = run(capsys, "predict", "--model", str(model),
                           "--seed-window", "5,8", "--steps", "3")
        assert code == 0
        assert [float(v) for v in out.split()] == [13, 21, 34]

    def test_mismatched_window_exits_two(self, capsys, tmp_path, fib_series):
        model = tmp_path / "model.json"
        run(capsys, "identify", "--series", str(fib_series), "--n", "2",
            "--out", str(model))
        code, _, err = run(capsys, "predict", "--model", str(model),
                           "--seed-window", "5", "--steps", "3")
        assert code == 2
        assert "usage" in err

    def test_zero_steps_exits_two(self, capsys, tmp_path, fib_series):
        model = tmp_path / "model.json"
        run(capsys, "identify", "--series", str(fib_series), "--n", "2",
            "--out", str(model))
        code, _, err = run(capsys, "predict", "--model", str(model),
                           "--seed-window", "5,8", "--steps", "0")
        assert code == 2
        assert err.splitlines()[0] == "UsageError: steps must be >= 1"

    def test_non_finite_window_exits_two(self, capsys, tmp_path, fib_series):
        model = tmp_path / "model.json"
        run(capsys, "identify", "--series", str(fib_series), "--n", "2",
            "--out", str(model))
        code, out, err = run(capsys, "predict", "--model", str(model),
                             "--seed-window", "nan,1", "--steps", "3")
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == "UsageError: seed window must be finite"

    def test_divergent_model_exits_one(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text('{"format_version": 1, "coeffs": [-10]}\n')
        code, out, err = run(capsys, "predict", "--model", str(model),
                             "--seed-window", "1", "--steps", "400")
        assert code == 1
        assert out == ""
        # y_i = 10^i first overflows at 10^309
        assert err == "NonFinite: prediction diverges: step 309 of 400 is not finite\n"

    def test_unknown_format_version_exits_two(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text('{"format_version": 99, "coeffs": [-1, -1]}\n')
        code, _, err = run(capsys, "predict", "--model", str(model),
                           "--seed-window", "5,8", "--steps", "3")
        assert code == 2
        assert "format_version 99" in err.splitlines()[0]

    @pytest.mark.parametrize("order", ["3", "1", "true", "2.0"])
    def test_order_that_is_not_the_coefficient_count_exits_two(self, capsys, tmp_path, order):
        model = tmp_path / "model.json"
        model.write_text('{"format_version": 1, "order": ' + order + ', "coeffs": [1, -1]}\n')
        code, out, err = run(capsys, "predict", "--model", str(model), "--seed-window", "1,2",
                             "--steps", "3")
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == (f"ParseError: model document: order {json.loads(order)!r} "
                                       "does not match 2 coefficients")


class TestObservabilityCommand:
    def test_unobservable_identity(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        io.write_system(SystemSpec("discrete", np.eye(2), [1, 0]), path)
        code, out, _ = run(capsys, "observability", "--system", str(path))
        assert code == 0
        assert '"observable": false' in out
        assert '"rank": 1' in out

    def test_observable_system(self, capsys, fib_system):
        code, out, _ = run(capsys, "observability", "--system", str(fib_system))
        assert code == 0
        assert '"observable": true' in out

    def test_observable_near_the_float_limit(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text('{"format_version": 1, "kind": "discrete", '
                        '"A": [[1.5, 1.5], [-1.5, 1.5]], "c": [1e308, 0]}\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run(capsys, "observability", "--system", str(path))
        assert result == (0, '{"format_version": 1, "observable": true, "order": 2, '
                             '"rank": 2}\n', "")

    def test_integer_system_with_fast_growing_powers(self, capsys, tmp_path):
        # det Q = 6936422406069107955972, with rows c A^k that grow like 2000^k
        path = tmp_path / "sys.json"
        path.write_text('{"format_version": 1, "kind": "discrete", "A": [[-445, 631, 342, -994], '
                        '[-212, 714, 109, -932], [530, 459, 693, -648], [-821, 726, -955, 83]], '
                        '"c": [-8, -4, 0, -1]}\n')
        assert run(capsys, "observability", "--system", str(path)) == (
            0, '{"format_version": 1, "observable": true, "order": 4, "rank": 4}\n', "")

    def test_unknown_kind_exits_two(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text('{"format_version": 1, "kind": "weird", "A": [[1]], "c": [1]}\n')
        code, out, err = run(capsys, "observability", "--system", str(path))
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == (f"ParseError: system file {path}: "
                                       "unknown system kind 'weird'")

    def test_overflowing_matrix_exits_one(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text('{"format_version": 1, "kind": "discrete", '
                        '"A": [[1e308, 1e308], [1e308, 1e308]], "c": [1e308, 1]}\n')
        report = tmp_path / "report.json"
        for out in ([], ["--out", str(report)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = run(capsys, "observability", "--system", str(path), *out)
            assert result == (1, "", "NonFinite: observability matrix diverges: "
                                     "entry 3 of 4 is not finite\n")
        assert not report.exists()


class TestSpectrumCommand:
    def test_rotation(self, capsys, tmp_path):
        import math
        series = tmp_path / "rot.txt"
        lines = ["# step=0.3"] + [format(math.cos(0.3 * i), ".17g") for i in range(4)]
        series.write_text("\n".join(lines) + "\n")
        model = tmp_path / "model.json"
        run(capsys, "identify", "--series", str(series), "--n", "2",
            "--out", str(model))
        out_path = tmp_path / "spec.json"
        code, _, _ = run(capsys, "spectrum", "--model", str(model),
                         "--out", str(out_path))
        assert code == 0
        doc = io.read_report(out_path)
        eig = np.array(doc["eigenvalues"])
        np.testing.assert_allclose(sorted(eig[:, 1]), [-1, 1], atol=1e-9)
        assert doc["aliasing_risk"] is False

    def test_missing_step_exits_one(self, capsys, tmp_path, fib_series):
        model = tmp_path / "model.json"
        run(capsys, "identify", "--series", str(fib_series), "--n", "2",
            "--out", str(model))
        code, _, err = run(capsys, "spectrum", "--model", str(model))
        assert code == 1
        assert "MissingStep" in err

    def test_overflowing_eigenvalue_exits_one(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text('{"format_version": 1, "coeffs": [-2], "step": 1e-310}\n')
        spectrum = tmp_path / "spectrum.json"
        for out in ([], ["--out", str(spectrum)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = run(capsys, "spectrum", "--model", str(model), *out)
            assert result == (1, "", "NonFinite: continuous spectrum diverges: "
                                     "eigenvalue 1 of 1 is not finite\n")
        assert not spectrum.exists()

    def test_overflowing_coefficient_exits_two(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text('{"format_version": 1, "coeffs": [1e400], "step": 0.1}\n')
        code, out, err = run(capsys, "spectrum", "--model", str(model))
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == "ParseError: model document: coefficients must be finite"


class TestSimulatePipeline:
    def test_cli_matches_library_exactly(self, capsys, tmp_path, fib_system):
        series_path = tmp_path / "series.txt"
        code, _, _ = run(capsys, "simulate", "--system", str(fib_system),
                         "--x0", "1,1", "--len", "8", "--out", str(series_path))
        assert code == 0
        lib_series = simulate_discrete(
            SystemSpec("discrete", [[0, 1], [1, 1]], [1, 0]), [1, 1], 8)
        np.testing.assert_array_equal(io.read_series(series_path).values,
                                      lib_series.values)

        model_path = tmp_path / "model.json"
        run(capsys, "identify", "--series", str(series_path), "--n", "2",
            "--out", str(model_path))
        lib_report = identify(lib_series, 2)
        cli_model = io.read_model(model_path)
        np.testing.assert_array_equal(cli_model.coeffs, lib_report.model.coeffs)

        code, out, _ = run(capsys, "predict", "--model", str(model_path),
                           "--seed-window", "8,13", "--steps", "5")
        lib_future = predict(lib_report.model, [8, 13], 5)
        np.testing.assert_array_equal([float(v) for v in out.split()],
                                      lib_future.values)


class TestSimulateCommand:
    @pytest.mark.parametrize("kind, flags, message", [
        ("discrete", ["--x0", "1,1", "--len", "0"], "length must be >= 1"),
        ("discrete", ["--x0", "nan,1", "--len", "3"], "x0 must be finite"),
        ("discrete", ["--x0", "1,abc", "--len", "3"], "bad --x0: '1,abc'"),
        ("discrete", ["--x0", "1", "--len", "3"], "--x0 needs exactly 2 values, got 1"),
        ("discrete", ["--x0", "1,1", "--len", "3", "--lambda", "0.1"],
         "discrete systems carry no sampling step"),
        ("continuous", ["--x0", "1,0", "--len", "3", "--lambda", "0"],
         "sampling step must be positive and finite"),
        ("continuous", ["--x0", "1,0", "--len", "3", "--lambda", "nan"],
         "sampling step must be positive and finite"),
    ], ids=["len-0", "x0-nan", "x0-abc", "x0-short", "lambda-discrete", "lambda-0",
            "lambda-nan"])
    def test_invalid_input_exits_two(self, capsys, tmp_path, kind, flags, message):
        path = tmp_path / "system.json"
        io.write_system(SystemSpec(kind, [[0, 1], [1, 1]], [1, 0],
                                   step=0.1 if kind == "continuous" else None), path)
        code, out, err = run(capsys, "simulate", "--system", str(path), *flags)
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == f"UsageError: {message}"


    def test_missing_step_exits_one(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        io.write_system(SystemSpec("continuous", [[0, 1], [-1, 0]], [1, 0]), path)
        code, out, err = run(capsys, "simulate", "--system", str(path), "--x0", "1,0",
                             "--len", "3")
        assert (code, out) == (1, "")
        assert err == "MissingStep: continuous system has no sampling step\n"

    @pytest.mark.parametrize("command, flag, body", [
        ("simulate", "--system",
         '"kind": "continuous", "A": [[0, 1], [-1, 0]], "c": [true, false], "step": "0.5"'),
        ("spectrum", "--model", '"coeffs": [true, true], "offset": false, "step": true'),
    ], ids=["system", "model"])
    def test_non_number_field_exits_two(self, capsys, tmp_path, command, flag, body):
        path = tmp_path / "doc.json"
        path.write_text('{"format_version": 1, ' + body + "}\n")
        extra = ["--x0", "1,0", "--len", "3"] if command == "simulate" else []
        code, out, err = run(capsys, command, flag, str(path), *extra)
        assert (code, out) == (2, "")
        assert err.startswith("ParseError: ")
        assert "holds a bool where a float (a JSON number) belongs" in err

    def test_divergence_exits_one_without_warnings(self, capsys, fib_system):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "simulate", "--system", str(fib_system),
                                 "--x0", "1,1", "--len", "2000")
        assert code == 1
        assert out == ""
        assert err == "NonFinite: simulation diverges: sample 1477 of 2000 is not finite\n"

    def test_decay_at_a_huge_step(self, capsys, tmp_path):
        # exp(-2^1023): the scaled slice is -1/2, not a zero matrix
        path = tmp_path / "decay.json"
        io.write_system(SystemSpec("continuous", [[-1.0]], [1.0], step=2.0**1023), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "simulate", "--system", str(path),
                                 "--x0", "1", "--len", "4")
        assert (code, err) == (0, "")
        assert out.splitlines() == ["# step=8.9884656743115795e+307", "1", "0", "0", "0"]

    def test_last_finite_fibonacci_sample(self, capsys, tmp_path, fib_system):
        # the last state is (F_1476, inf); c = (1, 0) gives 1 * F_1476 + 0 * inf
        out = tmp_path / "fib.txt"
        code, _, err = run(capsys, "simulate", "--system", str(fib_system),
                           "--x0", "1,1", "--len", "1476", "--out", str(out))
        assert (code, err) == (0, "")
        y = io.read_series(out).values
        assert y.size == 1476
        # every sample is the correctly rounded F_k, the last one included
        assert y.tolist() == [float(f) for f in fibonacci(1476)]


class TestMonteCarloCommand:
    def test_report_fields(self, capsys, tmp_path):
        out = tmp_path / "mc.json"
        code, _, _ = run(capsys, "montecarlo", "--property", "observable",
                         "--n", "3", "--trials", "50", "--seed", "9",
                         "--out", str(out))
        assert code == 0
        doc = io.read_report(out)
        assert doc["trials"] == 50
        assert doc["successes"] + doc["failures"] + doc["numerical_rejections"] == 50
        assert doc["seed"] == 9
        assert doc["sampling_law"] == "uniform-on-box"

    def test_seeded_runs_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["montecarlo", "--property", "krylov-independent", "--n", "3",
                "--trials", "200", "--seed", "123"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_bad_box_exits_two(self, capsys):
        code, _, err = run(capsys, "montecarlo", "--property", "observable",
                           "--n", "3", "--trials", "10", "--box", "1")
        assert code == 2

    @pytest.mark.parametrize("flag, message", [
        (["--trials", "0"], "trials must be >= 1"),
        (["--n", "0"], "n must be >= 1"),
        (["--box=1,0"], "box needs lo < hi"),
        (["--box=nan,1"], "box bounds must be finite"),
        (["--box=-1e308,1e308"], "box width hi - lo must be finite"),
        (["--cond-cap", "0.5"], "cond_cap must exceed 1"),
        (["--cond-cap", "1e12"], "cond_cap must not exceed 1e+10"),
        (["--cond-cap", "inf"], "cond_cap must not exceed 1e+10"),
        (["--tol", "0"], "success_tol must be positive and finite"),
        (["--tol", "inf"], "success_tol must be positive and finite"),
        (["--seed", "-1"], "seed must be >= 0"),
    ], ids=["trials", "n", "box", "box-nan", "box-overflow", "cond-cap", "cond-cap-1e12",
            "cond-cap-inf", "tol-0", "tol-inf", "seed"])
    def test_invalid_config_exits_two(self, capsys, flag, message):
        code, out, err = run(capsys, "montecarlo", "--property", "observable",
                             "--n", "3", "--trials", "10", *flag)
        assert code == 2
        assert out == ""
        assert err.splitlines()[0] == f"UsageError: {message}"
        assert "Traceback" not in err

    def test_extreme_boxes_decide_every_trial(self, capsys):
        # each draw is judged divided by its box's 2^e, so products of
        # entries near 1e200 or 1e-320 neither overflow nor underflow
        for box in ("--box=-1e200,1e200", "--box=0,1e-320"):
            code, out, _ = run(capsys, "montecarlo", "--property", "observable",
                               "--n", "3", "--trials", "20", box)
            assert code == 0
            assert '"failures": 0,' in out and '"numerical_rejections": 0,' in out, box

    def test_undecided_run_reports_null_estimate(self, capsys):
        code, out, _ = run(capsys, "montecarlo", "--property", "end-to-end-continuous",
                           "--n", "8", "--trials", "20", "--seed", "90")
        assert code == 0
        assert '"decided": 0' in out
        assert '"estimate": null' in out


class TestUsage:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag", [["--seed", "99"], ["--tol", "123"]], ids=["seed", "tol"])
    @pytest.mark.parametrize("command", ["simulate", "identify", "predict", "observability",
                                         "spectrum"])
    def test_monte_carlo_flags_rejected_elsewhere(self, capsys, tmp_path, fib_system,
                                                  fib_series, command, flag):
        model = tmp_path / "model.json"
        model.write_text('{"format_version": 1, "coeffs": [-1, -1], "step": 0.1}\n')
        args = {
            "simulate": ["--system", str(fib_system), "--x0", "1,1", "--len", "5"],
            "identify": ["--series", str(fib_series), "--n", "2"],
            "predict": ["--model", str(model), "--seed-window", "1,1", "--steps", "3"],
            "observability": ["--system", str(fib_system)],
            "spectrum": ["--model", str(model)],
        }[command]
        code, out, err = run(capsys, command, *args, *flag)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    @pytest.mark.parametrize("command, args", [
        ("simulate", ["--x0", "1,1", "--len", str(2**45)]),
        ("predict", ["--seed-window", "1,1", "--steps", str(2**45)]),
        ("montecarlo", ["--property", "observable", "--n", str(2**23), "--trials", "1"]),
    ], ids=["simulate", "predict", "montecarlo"])
    def test_oversized_request_exits_two(self, capsys, tmp_path, fib_system, command, args):
        """A request too large to hold is a usage error, not a traceback.
        Each asks for one float64 array of more than 2^47 bytes, past the
        address range Linux maps for a process by default on x86-64, so
        the allocation fails before any memory is touched."""
        model = tmp_path / "model.json"
        model.write_text('{"format_version": 1, "coeffs": [-1, -1]}\n')
        source = {"simulate": ["--system", str(fib_system)],
                  "predict": ["--model", str(model)], "montecarlo": []}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, *source, *args)
        assert code == 2
        assert out == ""
        first, usage = err.splitlines()
        assert first.startswith("UsageError: ")
        assert usage == f"usage: linident {command} --help for details"

    def test_missing_input_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "identify", "--series",
                           str(tmp_path / "nope.txt"), "--n", "2")
        assert code == 1
        assert "IoError" in err
