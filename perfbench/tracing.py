"""Span tracing around the library's public functions, from outside src/.

``install`` replaces every public function of the linident modules, in every
linident namespace that binds it, with a wrapper that records a span: name,
start, end, parent span and request id. Calls between modules (experiments
into dynsys into numkit, say) therefore nest. Spans are kept in flat arrays
in memory and written out once, when the run ends.

``as_matrix`` is left unwrapped: it validates the argument of every numkit
kernel, so its spans would mostly time the tracer. ``cli._emit_series`` is
wrapped too, though private: it is where the CLI writes series files.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from array import array

import numpy as np

import linident
from linident import cli, dynsys, experiments, ident, io, numkit

LAYERS = (numkit, dynsys, ident, experiments, io)
NAMESPACES = (linident, numkit, dynsys, ident, experiments, io, cli)
UNWRAPPED = {"as_matrix"}
EXTRA = ((cli, "_emit_series"),)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.size: dict[int, int] = {}  # span -> bytes handled or steps taken
        self._stack: list[int] = []
        self.current_request = -1
        self._next_trial = 0
        self._bindings = self._bind()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        short = name.split(".", 1)[1]
        base = self._id(name)
        overdetermined = self._id(name + ".overdetermined") if short == "identify" else None
        size_of = _SIZE_OF.get(name)
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            if overdetermined is not None and (kwargs.get("overdetermined") or len(args) > 3 and args[3]):
                nid = overdetermined
            elif short == "evaluate_property":
                nid = self._id(f"{name}.{args[0]}")
            else:
                nid = base
            if short == "draw_sample":
                self.current_request = self._next_trial
                self._next_trial += 1
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self.current_request)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if size_of is not None:
                self.size[idx] = size_of(args, kwargs, result)
            return result

        return traced

    def _bind(self) -> list:
        """(namespace, attribute, original, wrapper) for every binding of a
        public layer function, or of an EXTRA one, in a linident namespace."""
        wrapped = {}
        for module in LAYERS:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in UNWRAPPED):
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        for module, attr in EXTRA:
            fn = getattr(module, attr)
            wrapped[fn] = self.wrap(f"{module.__name__.rsplit('.', 1)[1]}.{attr}", fn)
        return [(namespace, attr, value, wrapped[value])
                for namespace in NAMESPACES
                for attr, value in vars(namespace).items()
                if inspect.isfunction(value) and value in wrapped]

    def install(self) -> None:
        """Route every public function of the linident layers through its wrapper."""
        for namespace, attr, _original, wrapper in self._bindings:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original, _wrapper in self._bindings:
            setattr(namespace, attr, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: a header naming the columns and the
        span names, then one [name, start_s, end_s, parent, request] per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["name", "start_s", "end_s", "parent", "request"],
                                 "names": self.names}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.request):
                fh.write(json.dumps(row) + "\n")


_SIZE_OF = {
    "io.read_series": lambda args, kwargs, result: os.path.getsize(args[0]),
    "cli._emit_series": lambda args, kwargs, result: os.path.getsize(args[1]),
    "io.dumps": lambda args, kwargs, result: len(result),
    "ident.predict": lambda args, kwargs, result: len(result),
}


def span_metrics(tracer: Tracer) -> dict:
    """Per span name: calls, inclusive busy ms and median inclusive us, plus
    per-layer self ms (span time not covered by child spans), bytes read and
    written and per-step time for predict."""
    name, start, end, parent = (np.asarray(a) for a in
                                (tracer.name, tracer.start, tracer.end, tracer.parent))
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    out = {}
    layer_self = {}
    for nid, span_name in enumerate(tracer.names):
        mask = name == nid
        calls = int(mask.sum())
        out[f"{span_name}.calls"] = calls
        out[f"{span_name}.busy_ms"] = float(dur[mask].sum() * 1e3)
        out[f"{span_name}.us_p50"] = float(np.median(dur[mask]) * 1e6) if calls else 0.0
        layer = span_name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + float(self_time[mask].sum() * 1e3)
    for layer, ms in layer_self.items():
        out[f"{layer}.self_ms"] = ms
    for span_name in ("io.read_series", "cli._emit_series", "io.dumps"):
        nid = tracer._ids.get(span_name)
        out[f"{span_name}.bytes"] = sum(v for k, v in tracer.size.items() if tracer.name[k] == nid)
    nid = tracer._ids.get("ident.predict")
    steps = sum(v for k, v in tracer.size.items() if tracer.name[k] == nid)
    out["ident.predict.us_per_step"] = out["ident.predict.busy_ms"] * 1e3 / steps if steps else 0.0
    out["trace.spans"] = len(tracer.name)
    return out
