import math

import numpy as np
import pytest

from linident import EmptySeries, NonFinite, ParseError, TimeSeries, identify
from linident import io


class TestReadSeries:
    def test_plain_values(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1\n1\n2\n3\n5\n")
        series = io.read_series(p)
        np.testing.assert_array_equal(series.values, [1, 1, 2, 3, 5])
        assert series.step is None

    def test_step_header(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# step=0.3\n1.0\n0.955\n")
        series = io.read_series(p)
        np.testing.assert_array_equal(series.values, [1.0, 0.955])
        assert series.step == 0.3

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("1\nabc\n")
        with pytest.raises(ParseError) as exc:
            io.read_series(p)
        assert exc.value.line == 2

    def test_empty_series(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# just a comment\n")
        with pytest.raises(EmptySeries):
            io.read_series(p)

    @pytest.mark.parametrize("header", ["step=0", "step=-0.5", "step=inf", "step=nan", "step=abc"])
    def test_bad_step_names_its_line(self, tmp_path, header):
        p = tmp_path / "s.txt"
        p.write_text(f"1\n# {header}\n2\n")
        with pytest.raises(ParseError) as exc:
            io.read_series(p)
        assert exc.value.line == 2

    @pytest.mark.parametrize("header, reason", [
        ("step=abc", "could not convert string to float: 'abc'"),
        ("step=0", "step must be positive and finite"),
    ])
    def test_bad_step_message(self, tmp_path, header, reason):
        p = tmp_path / "s.txt"
        p.write_text(f"1\n# {header}\n2\n")
        with pytest.raises(ParseError) as exc:
            io.read_series(p)
        assert str(exc.value) == f"bad step value at line 2: {reason}"

    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_bytes(b"1\n2\n\xff\xfe3\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            io.read_series(p)

    def test_round_trip(self, tmp_path):
        series = TimeSeries([1.0, 1 / 3, 0.955], step=0.125)
        p = tmp_path / "s.txt"
        io.write_series(series, p)
        back = io.read_series(p)
        np.testing.assert_array_equal(back.values, series.values)
        assert back.step == series.step

    @pytest.mark.parametrize("length", [8191, 8192, 8193, 2 * 8192 + 5])
    @pytest.mark.parametrize("step", [None, 0.1])
    def test_chunked_writes_match_one_string(self, tmp_path, capsys, length, step):
        rng = np.random.default_rng(length)
        values = rng.standard_normal(length) * 10.0 ** rng.integers(-300, 300, length)
        series = TimeSeries(values, step=step)
        expected = ("" if step is None else "# step=0.10000000000000001\n") + (
            "%.17g\n" * length) % tuple(values.tolist())
        p = tmp_path / "s.txt"
        io.write_series(series, p)
        assert p.read_bytes() == expected.encode()
        capsys.readouterr()
        io.write_series(series, None)
        assert capsys.readouterr().out == expected


class TestReports:
    def test_byte_identical_writes(self, tmp_path):
        doc = {"b": 1 / 3, "a": [1.0, 2.5e-17], "nested": {"z": True, "y": None}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        io.write_report(doc, p1)
        io.write_report(doc, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_exact(self, tmp_path):
        doc = {"x": 0.1 + 0.2, "ints": [1, 2, 3], "s": "text"}
        p = tmp_path / "r.json"
        io.write_report(doc, p)
        back = io.read_report(p)
        assert back["x"] == doc["x"]
        assert back["ints"] == doc["ints"]

    def test_every_value_type(self):
        doc = {"b": True, "f": np.float64(0.1), "i": 3, "j": np.int64(3), "n": None,
               "s": "x", "t": (1, 2.5)}
        assert io.dumps(doc) == ('{"b": true, "f": 0.10000000000000001, "i": 3, "j": 3, '
                                 '"n": null, "s": "x", "t": [1, 2.5]}\n')

    @pytest.mark.parametrize("value", [math.inf, np.float64("nan"), [1.0, -math.inf],
                                       {"x": np.array([math.nan])}])
    def test_non_finite_float_writes_nothing(self, tmp_path, value):
        p = tmp_path / "r.json"
        with pytest.raises(NonFinite, match="document field x is not finite"):
            io.write_report({"x": value}, p)
        assert not p.exists()

    def test_unsupported_type(self):
        with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
            io.dumps({"x": {1}})

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            io.write_report({"a": 1}, tmp_path / "missing" / "r.json")


class TestModelDocuments:
    def test_model_round_trip(self, tmp_path):
        series = TimeSeries([1, 1, 2, 3, 5])
        report = identify(series, 2)
        p = tmp_path / "model.json"
        io.write_model(report, p)
        model = io.read_model(p)
        np.testing.assert_array_equal(model.coeffs, report.model.coeffs)
        assert model.offset is None
        assert model.step is None
        doc = io.read_report(p)
        assert doc["format_version"] == 1
        assert doc["order"] == 2

    def test_system_round_trip(self, tmp_path):
        from linident import SystemSpec
        sys = SystemSpec("continuous", [[0, 1], [-1, 0]], [1, 0], step=0.3)
        p = tmp_path / "sys.json"
        io.write_system(sys, p)
        back = io.read_system(p)
        np.testing.assert_array_equal(back.a, sys.a)
        np.testing.assert_array_equal(back.c, sys.c)
        assert back.step == sys.step
        assert back.kind == "continuous"


class TestFormatVersion:
    MODEL = '"coeffs": [-1.0, -1.0]'
    SYSTEM = '"kind": "discrete", "A": [[0, 1], [1, 1]], "c": [1, 0]'

    @pytest.mark.parametrize("version", ['"format_version": 99, ', '"format_version": "1", ', "",
                                         '"format_version": true, ', '"format_version": 1.0, '],
                             ids=["99", "string", "missing", "true", "float"])
    @pytest.mark.parametrize("reader, body", [(io.read_model, MODEL), (io.read_system, SYSTEM)],
                             ids=["model", "system"])
    def test_other_versions_are_rejected(self, tmp_path, reader, body, version):
        p = tmp_path / "doc.json"
        p.write_text("{" + version + body + "}\n")
        with pytest.raises(ParseError, match="format_version"):
            reader(p)
        p.write_text('{"format_version": 1, ' + body + "}\n")
        reader(p)

    def test_non_object_document_is_rejected(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text("[1, 2]\n")
        with pytest.raises(ParseError):
            io.read_model(p)


class TestInvalidValues:
    @pytest.mark.parametrize("reader, body, message", [
        (io.read_system, '"kind": "weird", "A": [[1]], "c": [1]', "unknown system kind"),
        (io.read_system, '"kind": "discrete", "A": [[1e400]], "c": [1]', "must be finite"),
        (io.read_system, '"kind": "discrete", "A": [[1, 2]], "c": [1]', "square matrix"),
        (io.read_system, '"kind": "discrete", "A": {"a": 1}, "c": [1]', "float"),
        (io.read_model, '"coeffs": [1e400]', "coefficients must be finite"),
        (io.read_model, '"coeffs": [1.0], "step": -1', "step must be positive"),
        (io.read_model, '"coeffs": [1.0], "offset": [1]', "float"),
        (io.read_model, '"coeffs": [1.0], "step": 1e400', "step must be positive and finite"),
        (io.read_model, '"coeffs": [1.0], "offset": 1e400', "offset must be finite"),
        (io.read_model, '"coeffs": [1.0], "offset": NaN', "offset must be finite"),
        (io.read_model, '"coeffs": []', "coefficients must be non-empty"),
        (io.read_model, '"coeffs": [[1, 2]]', "coefficients must be 1-D"),
        (io.read_system, '"kind": "discrete", "A": [[0, 1], [1, 1]], "c": [true, false]',
         "c holds a bool where a float"),
        (io.read_system, '"kind": "continuous", "A": [[0, 1], [1, 1]], "c": [1, 0], "step": "0.5"',
         "step holds a str where a float"),
        (io.read_system, '"kind": "discrete", "A": [[0, 1], [1, null]], "c": [1, 0]',
         "A holds a NoneType where a float"),
        (io.read_model, '"coeffs": [true, true]', "coeffs holds a bool where a float"),
        (io.read_model, '"coeffs": [1.0], "offset": false', "offset holds a bool where a float"),
        (io.read_model, '"coeffs": [1.0], "step": true', "step holds a bool where a float"),
        (io.read_model, '"coeffs": [1' + "0" * 400 + "]", "int too large to convert to float"),
        (io.read_model, '"coeffs": [1.0', "bad document .*: Expecting"),
        (io.read_system, '"kind": "discrete", "A": [[1]]', "is missing field 'c'"),
        (io.read_model, '"step": 0.5', "is missing field 'coeffs'"),
        (io.read_model, '"order": 3, "coeffs": [1.0, -1.0]', "order 3 does not match 2 coefficients"),
        (io.read_model, '"order": true, "coeffs": [1.0]', "order True does not match 1 coefficients"),
        (io.read_model, '"order": 1.0, "coeffs": [1.0]', "order 1.0 does not match 1 coefficients"),
    ], ids=["kind", "inf-entry", "shape", "object-matrix", "inf-coeff", "step", "list-offset",
            "inf-step", "inf-offset", "nan-offset", "empty-coeffs", "matrix-coeffs", "bool-c",
            "string-step", "null-entry", "bool-coeffs", "bool-offset", "bool-step", "huge-int",
            "truncated", "no-c", "no-coeffs", "wrong-order", "bool-order", "float-order"])
    def test_failed_validation_is_a_parse_error(self, tmp_path, reader, body, message):
        p = tmp_path / "doc.json"
        p.write_text('{"format_version": 1, ' + body + "}\n")
        with pytest.raises(ParseError, match=message):
            reader(p)

    def test_non_utf8_document(self, tmp_path):
        p = tmp_path / "doc.json"
        p.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError, match="not UTF-8"):
            io.read_model(p)
