"""Stable on-disk formats: series files and structured JSON documents.

Series files are plain text, one decimal number per line; lines starting
with '#' are comments, and a ``# step=<float>`` header records the sampling
step. Structured documents (system specs, models, reports) are JSON with a
``format_version`` field, sorted keys and floats printed to 17 significant
digits, which makes serialization byte-deterministic and doubles round-trip
losslessly.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, EmptySeries, NonFinite, ParseError
from .dynsys import SystemSpec, TimeSeries
from .ident import IdentReport, PredictionModel
from .numkit import _positive

FORMAT_VERSION = 1
_CHUNK = 8192  # samples formatted per write: a long series is never one string

__all__ = [
    "FORMAT_VERSION",
    "document",
    "dumps",
    "model_to_dict",
    "read_model",
    "read_report",
    "read_series",
    "read_system",
    "write_model",
    "write_report",
    "write_series",
    "write_system",
]


def read_series(path) -> TimeSeries:
    """Parse a series file; reports the 1-based line of the first bad value.

    Sample lines go straight to ``float``; only the lines it rejects are
    checked for blanks, comments and the step header.
    """
    values = array("d")
    step = None
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, 1):
                try:
                    x = float(raw)
                except ValueError:
                    pass
                else:
                    if not math.isfinite(x):
                        raise ParseError(f"non-finite sample at line {lineno}", line=lineno)
                    values.append(x)
                    continue
                line = raw.strip()
                if not line:
                    continue
                if not line.startswith("#"):
                    raise ParseError(f"bad sample {line!r} at line {lineno}", line=lineno)
                body = line.lstrip("#").strip()
                if body.startswith("step="):
                    try:
                        step = float(body[len("step="):])
                        _positive(step, "step")
                    except ValueError as exc:
                        raise ParseError(f"bad step value at line {lineno}: {exc}",
                                         line=lineno) from exc
    except UnicodeDecodeError as exc:  # raised by the line iterator, a chunk at a time
        raise ParseError(f"series file {path} is not UTF-8 text: {exc.reason}") from exc
    if not values:
        raise EmptySeries(f"no samples in {path}")
    return TimeSeries(np.frombuffer(values), step=step)


def write_series(series: TimeSeries, path) -> None:
    """Series file text to ``path`` (None: standard output): the step header
    when known, then one sample per line at 17 significant digits, formatted
    and written _CHUNK samples at a time."""
    head = "" if series.step is None else f"# step={_fmt(series.step, 'step')}\n"
    values = series.values
    parts = (values[i:i + _CHUNK].tolist() for i in range(0, len(values), _CHUNK))
    _write(chain((head,), (("%.17g\n" * len(part)) % tuple(part) for part in parts)), path)


def _write(chunks, path) -> None:
    """The one file writer: the strings of ``chunks`` in turn; a ``path`` of
    None means standard output."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _fmt(x: float, key: str) -> str:
    """The one float writer of documents; JSON has no inf or nan."""
    if not math.isfinite(x):
        raise NonFinite(f"document field {key} is not finite: {float(x)}")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, 17-digit floats; built whole before any write."""
    return _dump(obj) + "\n"


def _dump(obj, key="value") -> str:
    """Floats go through ``_fmt``; any other leaf, numpy scalars unwrapped, to json.dumps."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ", ".join(json.dumps(str(k)) + ": " + _dump(v, k) for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_dump(v, key) for v in obj) + "]"
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj, key)
    return json.dumps(obj.item() if isinstance(obj, np.generic) else obj)


def write_report(report: dict, path) -> None:
    """Write any dict-shaped document deterministically."""
    _write((dumps(report),), path)


def document(**fields) -> dict:
    """``fields`` stamped with this format_version: every document's header."""
    return {"format_version": FORMAT_VERSION, **fields}


def read_report(path) -> dict:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad document {path}: {exc}", line=exc.lineno) from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"document {path} is not UTF-8 text: {exc.reason}") from exc


def write_system(spec: SystemSpec, path) -> None:
    optional = {"b": spec.b, "step": spec.step}
    write_report(document(kind=spec.kind, A=spec.a, c=spec.c,
                          **{k: v for k, v in optional.items() if v is not None}), path)


def _read_document(path) -> dict:
    """A structured document of this format_version, or ParseError. Only
    the JSON integer counts: true and 1.0 compare equal to 1 in Python."""
    doc = read_report(path)
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"{path} has format_version {version!r}, expected {FORMAT_VERSION}")
    return doc


def _from_document(what: str, build):
    """``build()``, with a missing field or a value it rejects raised as
    ParseError naming ``what``."""
    try:
        return build()
    except KeyError as exc:
        raise ParseError(f"{what} is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError, DimensionMismatch) as exc:
        raise ParseError(f"{what}: {exc}") from exc


def _number(doc: dict, key: str, nested: bool = False):
    """Field ``key`` as a float, or with ``nested`` as a float array of
    (nested) lists. Only JSON numbers count: float() would also take true,
    false and numeric strings."""
    todo = [doc[key]]
    while todo:
        v = todo.pop()
        if nested and type(v) is list:
            todo.extend(v)
        elif type(v) not in (int, float):
            raise TypeError(f"{key} holds a {type(v).__name__} where a float (a JSON number) belongs")
    return np.array(doc[key], dtype=float) if nested else float(doc[key])


def read_system(path) -> SystemSpec:
    doc = _read_document(path)
    return _from_document(f"system file {path}", lambda: SystemSpec(
        kind=doc["kind"],
        a=_number(doc, "A", nested=True),
        c=_number(doc, "c", nested=True),
        b=_number(doc, "b", nested=True) if "b" in doc else None,
        step=_number(doc, "step") if "step" in doc else None,
    ))


def model_to_dict(report: IdentReport) -> dict:
    model = report.model
    optional = {"offset": model.offset, "step": model.step}
    return document(order=model.order, coeffs=model.coeffs, residual=report.residual,
                    condition_estimate=report.condition_estimate,
                    window_start=report.window_start,
                    **{k: v for k, v in optional.items() if v is not None})


def write_model(report: IdentReport, path) -> None:
    write_report(model_to_dict(report), path)


def read_model(path) -> PredictionModel:
    """A model document's model; an ``order`` must be the JSON integer len(coeffs)."""
    doc = _read_document(path)
    model = _from_document("model document", lambda: PredictionModel(
        coeffs=_number(doc, "coeffs", nested=True),
        offset=_number(doc, "offset") if "offset" in doc else None,
        step=_number(doc, "step") if "step" in doc else None,
    ))
    if type(order := doc.get("order", model.order)) is not int or order != model.order:
        raise ParseError(f"model document: order {order!r} does not match {model.order} coefficients")
    return model
