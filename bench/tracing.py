"""Layer spans and counters, installed on the library from outside.

`Tracer.install` replaces the public entry points of each layer in every
`qdurrmeyer` namespace that holds them (a function imported into several
modules is wrapped wherever it was imported) and on the classes that define
them, reflected aliases such as `Scalar.__radd__ = __add__` included.
`lru_cache` functions are wrapped outside the cache, so hits and misses come
from `cache_info()` deltas.  Each span is kept in memory as (name, start,
end, parent, request) and written out by `dump`; `uninstall` puts every
original object back.

Self time is a span's duration minus the durations of its direct children,
accumulated online per layer.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# layer metric prefix -> (module, attribute path) of the wrapped callables
SPANS = {
    "qcore.qtable": [("qcore", "QContext.q_int"), ("qcore", "QContext.q_fact"),
                     ("qcore", "QContext.q_power")],
    "qcore.jackson": [("qcore", "jackson_series")],
    "polyalg.mul": [("polyalg", "Polynomial.__mul__")],
    "polyalg.eval": [("polyalg", "Polynomial.eval")],
    "polyalg.compose_affine": [("polyalg", "Polynomial.compose_affine")],
    "operators.apply_poly": [("operators", "durrmeyer_apply_poly")],
    "operators.basis_polynomial": [("operators", "basis_polynomial")],
    "operators.bernstein_basis": [("operators", "bernstein_basis")],
    "operators.apply_fn": [("operators", "durrmeyer_apply_fn")],
    "operators.stancu_apply": [("operators", "stancu_apply")],
    "moments.raw_brute": [("moments", "raw_moment_brute")],
    "moments.raw_closed": [("moments", "raw_moment_closed")],
    "moments.recurrence": [("moments", "recurrence_reports")],
    "moments.central": [("moments", "central_moment")],
    "moments.stancu": [("moments", "stancu_moment")],
    "moments.audit": [("moments", "transcription_audit")],
    "asymptotics.lhs": [("asymptotics", "voronovskaja_lhs")],
    "asymptotics.table": [("asymptotics", "convergence_table")],
    "verify.report": [("verify", "build_report")],
    "cli.main": [("cli", "main")],
}

SCALAR_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__abs__")

CACHED = ("moments.raw_brute", "moments.raw_closed", "moments.recurrence")

PACKAGE = "qdurrmeyer"


def _resolve(module: str, path: str):
    """(owner, object) for `module:path`, or None when the program has no such entry point."""
    owner = sys.modules.get(f"{PACKAGE}.{module}")
    *classes, name = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
    if owner is None or name not in vars(owner):
        return None
    return owner, vars(owner)[name]


class Tracer:
    def __init__(self):
        self.layers = list(SPANS)
        self.calls = [0] * len(self.layers)
        self.self_s = [0.0] * len(self.layers)
        # one span per wrapped call, in call order
        self.span_layer = array("H")
        self.span_parent = array("i")
        self.span_request = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.request = 0
        self._stack: list[list] = []  # [span index, child time]
        self.counts = {"qcore.scalar_ops": 0, "qcore.contexts": 0,
                       "qcore.jackson.nodes": 0, "polyalg.mul.coeff_products": 0}
        self._undo: list[tuple] = []
        self._cached: dict = {}  # layer -> (lru_cache function, cache_info at install)
        self.notes: list[str] = []  # entry points the program no longer has

    # -- wrappers -------------------------------------------------------------

    def _span(self, layer_id: int, fn, after=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        s_layer, s_parent, s_request = self.span_layer, self.span_parent, self.span_request
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(s_start)
            s_layer.append(layer_id)
            s_parent.append(stack[-1][0] if stack else -1)
            s_request.append(self.request)
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                s_start[idx], s_end[idx] = t0, t1
                dur = t1 - t0
                calls[layer_id] += 1
                self_s[layer_id] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _jackson(self, fn):
        counts = self.counts

        def wrapper(integrand, ctx, *args, **kwargs):
            def node(t):
                counts["qcore.jackson.nodes"] += 1
                return integrand(t)

            return fn(node, ctx, *args, **kwargs)

        return wrapper

    def _count_products(self, args, result):
        a, b = args
        if a.coeffs and b.coeffs:
            nonzero = sum(1 for c in a.coeffs if c.value != 0)
            self.counts["polyalg.mul.coeff_products"] += nonzero * len(b.coeffs)

    # -- install / uninstall ----------------------------------------------------

    def _replace_everywhere(self, owner, original, replacement) -> None:
        """Bind `replacement` wherever `original` is bound: on `owner` under
        every alias, and in every module namespace of the package."""
        targets = [owner] + [m for name, m in list(sys.modules.items())
                             if name == PACKAGE or name.startswith(PACKAGE + ".")]
        seen = set()
        for target in targets:
            if id(target) in seen:
                continue
            seen.add(id(target))
            for name, value in list(vars(target).items()):
                if value is original:
                    self._undo.append((target, name, original))
                    setattr(target, name, replacement)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        qcore = sys.modules[f"{PACKAGE}.qcore"]
        scalar = vars(qcore.Scalar)
        for fn in dict.fromkeys(scalar[name] for name in SCALAR_ARITHMETIC if name in scalar):
            self._replace_everywhere(qcore.Scalar, fn, self._counter("qcore.scalar_ops", fn))
        init = vars(qcore.QContext)["__init__"]
        self._replace_everywhere(qcore.QContext, init, self._counter("qcore.contexts", init))
        for layer_id, layer in enumerate(self.layers):
            for module, path in SPANS[layer]:
                found = _resolve(module, path)
                if found is None:
                    self.notes.append(f"{layer}: no {module}.{path}; its metrics read 0")
                    continue
                owner, original = found
                inner, after = original, None
                if layer == "qcore.jackson":
                    inner = self._jackson(original)
                elif layer == "polyalg.mul":
                    after = self._count_products
                if layer in CACHED:
                    if hasattr(original, "cache_info"):
                        self._cached[layer] = (original, original.cache_info())
                    else:
                        self.notes.append(f"{layer}: {path} is not an lru_cache; misses count every call")
                self._replace_everywhere(owner, original, self._span(layer_id, inner, after))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Aggregates keyed by per-layer metric name."""
        out = {}
        for layer_id, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = self.calls[layer_id]
            out[f"{layer}.self_s"] = self.self_s[layer_id]
        out.update(self.counts)
        hits = misses = entries = 0
        for layer in CACHED:
            if layer not in self._cached:
                delta_hits, delta_misses = 0, out[f"{layer}.calls"]
            else:
                fn, before = self._cached[layer]
                after = fn.cache_info()
                delta_hits, delta_misses = after.hits - before.hits, after.misses - before.misses
                entries += after.currsize
            out[f"{layer}.misses"] = delta_misses
            hits += delta_hits
            misses += delta_misses
        out["moments.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["moments.cache_entries"] = entries
        out["trace.spans"] = len(self.span_start)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the five arrays."""
        header = {"layers": self.layers, "count": len(self.span_start),
                  "arrays": [["layer", "H"], ["parent", "i"], ["request", "I"],
                             ["start", "d"], ["end", "d"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_layer, self.span_parent, self.span_request,
                        self.span_start, self.span_end):
                arr.tofile(fh)


def read_spans(path: Path) -> tuple[list[str], list[tuple]]:
    """Spans written by `Tracer.dump` as (layer, start, end, parent, request)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for name, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            cols[name] = arr
    layers = header["layers"]
    spans = list(zip((layers[i] for i in cols["layer"]), cols["start"], cols["end"],
                     cols["parent"], cols["request"]))
    return layers, spans
