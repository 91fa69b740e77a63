"""In-memory span tracing around the public functions of each hecke2d layer.

The tracer wraps functions and methods from outside the package: nothing
under ``src/`` knows it exists.  Every binding of a wrapped function is
replaced, not just the defining one, because ``suites`` and ``cli`` hold their
own ``from .product import mul`` copies and ``HeckeElement.__mul__`` looks
``product.mul`` up when it is called.

A span is five numbers kept in typed arrays: name id, parent span index, op
id, start and end (``time.perf_counter`` seconds).  Self time is a span's
duration minus the durations of its direct children.  Hot calls that need no
time (``Coeff`` constructions, ``FieldElem2`` products) are only counted.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import hecke2d
from hecke2d import cli, coeff, element, oracle, presets, product, suites

LAYERS = ("coeff", "element", "product", "presets", "oracle", "suites", "cli")
_MODULES = (hecke2d, coeff, element, product, presets, oracle, suites, cli)
_SUBCOMMANDS = ("mul", "coeff", "classify", "reps", "oracle", "verify")
_QS = (2, 3, 5)


def _is_ray(x) -> bool:
    return any(
        not isinstance(series.support_min, int) or not isinstance(series.support_max, int)
        for _, series in x.rows
    )


def _mul_label(args, kwargs) -> str:
    x, y = args[0], args[1]
    rays = _is_ray(x) + _is_ray(y)
    return ("product.mul.ff", "product.mul.rf", "product.mul.rr")[rays]


def _counts_label(args, kwargs) -> str:
    return f"oracle.product_counts.q{args[2]}"


def _main_label(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    sub = argv[0] if argv else None
    return f"cli.main.{sub if sub in _SUBCOMMANDS else 'invalid'}"


class Tracer:
    """Records spans and counters for the calls made while it is installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self._left = None  # left factor of the product_counts call in progress

    def set_op(self, op_id: int) -> None:
        self._op[0] = op_id

    def _nid(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    # -- wrappers -------------------------------------------------------------

    def span(self, fn, label, before=None, after=None):
        """Wrap fn in a span; label is a name or a function of the call's arguments."""
        name, parent, op, start, end = self.name, self.parent, self.op, self.start, self.end
        stack, op_cell, clock = self._stack, self._op, time.perf_counter
        fixed = self._nid(label) if isinstance(label, str) else None
        nid_of = self._nid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(fixed if fixed is not None else nid_of(label(args, kwargs)))
            parent.append(stack[-1])
            op.append(op_cell[0])
            start.append(0.0)
            end.append(0.0)
            if before is not None:
                before(args)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                end[idx] = clock()
                stack.pop()
                if after is not None:
                    after(args, exc.code)
                raise
            except BaseException:
                end[idx] = clock()
                stack.pop()
                raise
            end[idx] = clock()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def counter(self, fn, label):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks ----------------------------------------------------------------

    def _enter_counts(self, args) -> None:
        self._left = tuple(args[0])

    def _leave_counts(self, args, result) -> None:
        self._left = None

    def _after_classify(self, args, result) -> None:
        if self._left is not None:
            self.counts["oracle.classify.in_product"] += 1
            self.counts["oracle.classify.hits"] += tuple(result) == self._left

    def _after_reps(self, args, result) -> None:
        self.counts["oracle.reps.count"] += len(result)

    def _after_main(self, args, code) -> None:
        self.counts["cli.exit2.count"] += code == 2

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function and method, once per process."""
        C, H = coeff.Coeff, element.HeckeElement
        M, F = oracle.LocalFieldMatrix, oracle.FieldElem2
        for attr in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
        ):
            setattr(C, attr, self.span(getattr(C, attr), "coeff.arith"))
        C.__pow__ = self.span(C.__pow__, "coeff.pow")
        C.parse = staticmethod(self.span(C.parse, "coeff.parse"))
        C.eval_at_q = self.span(C.eval_at_q, "coeff.eval")
        C.eval_at_s = self.span(C.eval_at_s, "coeff.eval")
        C.__str__ = self.span(C.__str__, "coeff.str")
        C.__init__ = self.counter(C.__init__, "coeff.new.calls")

        H.__init__ = self.span(H.__init__, "element.build")
        H.__eq__ = self.span(H.__eq__, "element.eq")
        H.coefficient_at = self.span(H.coefficient_at, "element.coefficient_at")
        _patch_fn(element.equals, self.span(element.equals, "element.eq"))
        _patch_fn(element.coefficient_at, self.span(element.coefficient_at, "element.coefficient_at"))
        _patch_fn(element.element_to_json, self.span(element.element_to_json, "element.json"))
        _patch_fn(element.element_from_json, self.span(element.element_from_json, "element.json"))

        _patch_fn(product.mul, self.span(product.mul, _mul_label))
        _patch_fn(product.mul_basis, self.span(product.mul_basis, "product.mul_basis"))
        _patch_fn(
            product.coeff_of_product,
            self.span(product.coeff_of_product, "product.coeff_of_product"),
        )

        _patch_fn(presets.theta_monomial, self.span(presets.theta_monomial, "presets.theta_monomial"))
        for fn in (presets.chi, presets.phi, presets.theta, presets.iota, presets.preset):
            _patch_fn(fn, self.span(fn, "presets.build"))

        _patch_fn(
            oracle.product_counts,
            self.span(oracle.product_counts, _counts_label, self._enter_counts, self._leave_counts),
        )
        _patch_fn(
            oracle.enumerate_reps,
            self.span(oracle.enumerate_reps, "oracle.enumerate_reps", after=self._after_reps),
        )
        _patch_fn(
            oracle.classify,
            self.span(oracle.classify, "oracle.classify", after=self._after_classify),
        )
        M.__mul__ = self.span(M.__mul__, "oracle.LocalFieldMatrix.mul")
        M.inverse = self.span(M.inverse, "oracle.LocalFieldMatrix.inverse")
        F.__mul__ = self.counter(F.__mul__, "oracle.FieldElem2.mul.calls")

        _patch_fn(suites.run_suite, self.span(suites.run_suite, "suites.run_suite"))

        _patch_fn(cli.main, self.span(cli.main, _main_label, after=self._after_main))
        _patch_fn(cli.parse_element, self.span(cli.parse_element, "cli.parse_element"))
        _patch_fn(cli.format_element, self.span(cli.format_element, "cli.format_element"))

    # -- output ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """One JSON header line, then the five arrays in header order."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name:H", "parent:i", "op:i", "start:d", "end:d"],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Calls, self seconds and busy (inclusive) seconds per span name."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        busy: dict[str, float] = defaultdict(float)
        names, parent, nm = self.names, self.parent, self.name
        for i in range(n):
            label = names[nm[i]]
            calls[label] += 1
            self_s[label] += dur[i] - child[i]
            p = parent[i]
            if p < 0 or names[nm[p]] != label:
                busy[label] += dur[i]
        return calls, self_s, busy

    def layer_metrics(self, loop_wall: float) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json, from the recorded spans."""
        calls, self_s, busy = self.totals()
        out: dict[str, float] = {}

        def group(prefix: str) -> list[str]:
            return [k for k in calls if k == prefix or k.startswith(prefix + ".")]

        def calls_and_self(*names: str) -> None:
            for name in names:
                keys = group(name)
                out[f"{name}.calls"] = sum(calls[k] for k in keys)
                out[f"{name}.self_s"] = sum(self_s[k] for k in keys)

        calls_and_self("coeff.arith", "coeff.pow", "coeff.parse", "coeff.eval", "coeff.str")
        out["coeff.new.calls"] = self.counts["coeff.new.calls"]
        calls_and_self("element.build", "element.eq", "element.coefficient_at", "element.json")
        calls_and_self("product.mul", "product.mul.ff", "product.mul.rf", "product.mul.rr",
                       "product.mul_basis", "product.coeff_of_product")
        info = product._basis_product.cache_info()
        out["product.basis_cache.hits"] = info.hits
        out["product.basis_cache.misses"] = info.misses
        lookups = info.hits + info.misses
        out["product.basis_cache.hit_ratio"] = info.hits / lookups if lookups else 0.0
        calls_and_self("presets.theta_monomial", "presets.build")
        counts_keys = group("oracle.product_counts")
        out["oracle.product_counts.calls"] = sum(calls[k] for k in counts_keys)
        out["oracle.product_counts.busy_s"] = sum(busy[k] for k in counts_keys)
        for q in _QS:
            out[f"oracle.product_counts.q{q}.busy_s"] = busy.get(f"oracle.product_counts.q{q}", 0.0)
        calls_and_self("oracle.enumerate_reps")
        out["oracle.reps.count"] = self.counts["oracle.reps.count"]
        calls_and_self("oracle.classify")
        tried = self.counts["oracle.classify.in_product"]
        out["oracle.classify.hit_ratio"] = self.counts["oracle.classify.hits"] / tried if tried else 0.0
        calls_and_self("oracle.LocalFieldMatrix.mul", "oracle.LocalFieldMatrix.inverse")
        out["oracle.FieldElem2.mul.calls"] = self.counts["oracle.FieldElem2.mul.calls"]
        out["suites.run_suite.calls"] = calls.get("suites.run_suite", 0)
        out["suites.run_suite.busy_s"] = busy.get("suites.run_suite", 0.0)
        out["cli.main.calls"] = sum(calls[k] for k in group("cli.main"))
        for sub in (*_SUBCOMMANDS, "invalid"):
            out[f"cli.main.{sub}.busy_s"] = busy.get(f"cli.main.{sub}", 0.0)
        calls_and_self("cli.parse_element", "cli.format_element")
        out["cli.exit2.count"] = self.counts["cli.exit2.count"]
        for layer in LAYERS:
            spent = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
            out[f"share.{layer}"] = spent / loop_wall
        out["trace.spans"] = len(self.start)
        return out


def _patch_fn(original, wrapper) -> None:
    """Replace every module-level binding of original in the package."""
    for mod in _MODULES:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
