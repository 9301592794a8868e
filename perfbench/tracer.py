"""Per-layer spans recorded from outside wittforge.

``Tracer.install`` replaces public functions of the wittforge modules with
wrappers that record one span per call.  The source tree is not touched: a
wrapper is bound in every loaded wittforge module namespace that held the
original object, so calls made through ``module.func`` and through the
module's own globals both pass through it.

Self time of a span is its duration minus the time covered by its child
spans.  Sizes come from returned objects: term counts of Witt and ramified
coordinates and of structural tables.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, function, span name); span names are the per-layer metric stems
SPANS = (
    ("base_rings", "mul", "base_rings.mul"),
    ("base_rings", "add", "base_rings.add"),
    ("base_rings", "frobenius", "base_rings.frobenius"),
    ("base_rings", "evaluate", "base_rings.evaluate"),
    ("base_rings", "format_element", "cli_io.format"),
    ("witt_core", "witt_arith", "witt_core.witt_arith"),
    ("witt_core", "structural_polys", "witt_core.structural_polys"),
    ("witt_core", "verify_table", "witt_core.verify_table"),
    ("witt_core", "compile_table", "witt_core.compile_table"),
    ("witt_ramified", "rw_arith", None),  # named by op, see _rw_arith_name
    ("witt_ramified", "divide_by_pi", "witt_ramified.divide_by_pi"),
    ("witt_ramified", "digit_expand", "witt_ramified.digit_expand"),
    ("witt_ramified", "digits_assemble", "witt_ramified.digits_assemble"),
    ("witt_ramified", "rw_ord", "witt_ramified.rw_ord"),
    ("witt_ramified", "embed_expr", "witt_ramified.embed_expr"),
    ("lifting", "hensel_lift_verbose", "lifting.hensel_lift"),
    ("cli_io", "main", "cli_io.main"),
    ("cli_io", "build_parser", "cli_io.build_parser"),
    ("cli_io", "parse_witt", "cli_io.parse"),
    ("cli_io", "parse_base", "cli_io.parse"),
    ("cli_io", "parse_rw", "cli_io.parse"),
    ("cli_io", "parse_digits", "cli_io.parse"),
    ("cli_io", "parse_fontaine", "cli_io.parse"),
    ("cli_io", "parse_poly_x", "cli_io.parse"),
    ("cli_io", "format_witt", "cli_io.format"),
    ("cli_io", "format_rw", "cli_io.format"),
)

# every public function defined in frobenius_lab is one span name
LAB_SPAN = "frobenius_lab"

# names reported as "<name>.calls" / "<name>.self_ms"
CALL_METRICS = (
    "base_rings.mul", "base_rings.add", "base_rings.frobenius",
    "witt_core.witt_arith", "witt_ramified.rw_mul",
    "witt_ramified.divide_by_pi", "witt_ramified.rw_ord", "frobenius_lab",
    "cli_io.main",
)
TIME_METRICS = (
    "base_rings.mul", "base_rings.add", "base_rings.frobenius",
    "base_rings.evaluate", "witt_core.witt_arith",
    "witt_core.structural_polys", "witt_core.verify_table",
    "witt_core.compile_table", "witt_core.table_eval",
    "witt_ramified.rw_mul", "witt_ramified.divide_by_pi",
    "witt_ramified.digit_expand", "witt_ramified.embed_expr",
    "lifting.hensel_lift", "frobenius_lab", "cli_io.build_parser",
    "cli_io.parse", "cli_io.format",
)
SIZE_METRICS = (
    ("witt_core.result_terms.max", "count"),
    ("witt_core.table_terms", "count"),
    ("witt_ramified.coord_terms.max", "count"),
    ("lifting.newton_steps", "count"),
    ("cli_io.stdout_bytes", "bytes"),
)


def _witt_terms(w) -> int:
    return max((len(c.terms) for c in w.coords), default=0)


def _rw_terms(x) -> int:
    return max((_witt_terms(w) for w in x.coords), default=0)


def _rw_arith_name(op):
    return f"witt_ramified.rw_{op}"


class Tracer:
    def __init__(self):
        self.calls: dict = {}
        self.self_s: dict = {}
        self.sizes: dict = {name: 0 for name, _ in SIZE_METRICS}
        self._stack: list = []  # child-time accumulators of the open spans
        self._seen_tables: set = set()
        self.enabled = False

    # -- span bookkeeping ---------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child

    def _wrap(self, name, fn, sizer):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name if name is not None else _rw_arith_name(args[0])
            with tracer.span(span_name):
                out = fn(*args, **kwargs)
            if sizer is not None:
                sizer(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def add_size(self, key, n):
        if self.enabled:
            self.sizes[key] += n

    def _max(self, key, value):
        if value > self.sizes[key]:
            self.sizes[key] = value

    def _size_witt(self, w):
        self._max("witt_core.result_terms.max", _witt_terms(w))

    def _size_rw(self, x):
        if hasattr(x, "coords") and hasattr(x, "precision"):
            self._max("witt_ramified.coord_terms.max", _rw_terms(x))

    def _size_table(self, t):
        key = (t.p, t.kind, t.level)
        if key not in self._seen_tables:
            self._seen_tables.add(key)
            self.sizes["witt_core.table_terms"] += sum(len(q) for q in t.polys)

    def _size_lift(self, out):
        self.sizes["lifting.newton_steps"] += len(out[1])

    def _wrap_parser(self, build):
        tracer = self
        inner = self._wrap("cli_io.build_parser", build, None)

        def build_parser(*args, **kwargs):
            parser = inner(*args, **kwargs)
            parser.parse_args = tracer._wrap("cli_io.parse", parser.parse_args, None)
            return parser

        build_parser.__wrapped__ = build
        return build_parser

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the listed public functions of the loaded wittforge modules.

        Sizes read the public fields ``RingElement.terms``,
        ``WittVector.coords``, ``RamifiedWitt.coords`` and
        ``StructuralPolynomialTable.polys``.
        """
        sizers = {
            "witt_core.witt_arith": self._size_witt,
            "witt_core.structural_polys": self._size_table,
            "lifting.hensel_lift": self._size_lift,
        }
        mods = {k.split(".")[-1]: m for k, m in sys.modules.items()
                if k.startswith("wittforge.") and m is not None}
        plan = []
        for mod, fname, name in SPANS:
            fn = getattr(mods[mod], fname, None)
            if fn is None:  # renamed or removed upstream: its rows read 0
                continue
            if fname == "build_parser":
                plan.append((fn, self._wrap_parser(fn)))
                continue
            sizer = sizers.get(name)
            if mod == "witt_ramified" and name != "witt_ramified.rw_ord":
                sizer = self._size_rw
            plan.append((fn, self._wrap(name, fn, sizer)))
        lab = mods["frobenius_lab"]
        for fname, fn in vars(lab).items():
            if (callable(fn) and not fname.startswith("_") and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == lab.__name__):
                plan.append((fn, self._wrap(LAB_SPAN, fn, None)))
        for orig, wrapper in plan:
            for m in mods.values():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)

    # -- report -------------------------------------------------------------

    def metrics(self, overhead_pct: float) -> dict:
        out = {}
        for n in CALL_METRICS:
            out[f"{n}.calls"] = {"value": self.calls.get(n, 0), "unit": "count"}
        for n in TIME_METRICS:
            out[f"{n}.self_ms"] = {"value": self.self_s.get(n, 0.0) * 1000.0,
                                   "unit": "ms"}
        for n, unit in SIZE_METRICS:
            out[n] = {"value": self.sizes[n], "unit": unit}
        out["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
        return out
