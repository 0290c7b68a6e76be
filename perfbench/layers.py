"""Per-layer tracing of cflab, done from outside the program.

A :class:`Tracer` replaces public functions of the ``cflab`` modules with
wrappers that count calls and accumulate inclusive and self time.  Self time
is a call's duration minus the part covered by wrapped calls made inside it,
so every second of a traced round lands in exactly one layer.

Per-point boundaries (form evaluation, kernel coefficients, expression
evaluation, cycle maps) are kept as counts and accumulated times, because a
span per grid point would cost more than the work it measures.  Operations,
checks and ``cycles.integrate`` calls are also recorded as spans with parent
ids.  cflab is single-threaded, so no layer ever waits on another and no wait
time is recorded.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import sys
import time
from contextlib import contextmanager

# Layer metrics: (name, unit, better).  Times are seconds per round.
LAYER_METRICS = (
    ("cycles.integrate_calls", "count", "lower"),
    ("cycles.grid_points", "count", "lower"),
    ("cycles.integrate_s", "s", "lower"),
    ("cycles.integrate_self_s", "s", "lower"),
    ("cycles.map_tangent_s", "s", "lower"),
    ("cycles.orientation_s", "s", "lower"),
    ("cycles.pole_errors", "count", "lower"),
    ("forms.pullback_calls", "count", "lower"),
    ("forms.evaluate_calls", "count", "lower"),
    ("forms.evaluate_self_s", "s", "lower"),
    ("forms.d_numeric_calls", "count", "lower"),
    ("forms.d_numeric_s", "s", "lower"),
    ("kernels.coeff_calls", "count", "lower"),
    ("kernels.coeff_self_s", "s", "lower"),
    ("kernels.build_s", "s", "lower"),
    ("exprlang.eval_calls", "count", "lower"),
    ("exprlang.eval_s", "s", "lower"),
    ("exprlang.parse_calls", "count", "lower"),
    ("exprlang.parse_s", "s", "lower"),
    ("exprlang.evals_per_point", "ratio", "lower"),
    ("casebook.checks", "count", "higher"),
    ("casebook.checks_failed", "count", "lower"),
    ("casebook.self_s", "s", "lower"),
    ("casebook.oracle_s", "s", "lower"),
    ("casebook.check_s.first_n2_const", "s", "lower"),
    ("casebook.check_s.first_n2_poly", "s", "lower"),
    ("casebook.check_s.necessary_D", "s", "lower"),
    ("casebook.check_s.necessary_D_eps_invariance", "s", "lower"),
    ("casebook.check_s.necessary_E", "s", "lower"),
    ("geometry.margin_calls", "count", "lower"),
    ("geometry.margin_s", "s", "lower"),
    ("geometry.sample_calls", "count", "lower"),
    ("geometry.sample_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("report.render_s", "s", "lower"),
    ("report.bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

HEAVY_CHECKS = ("first_n2_const", "first_n2_poly", "necessary_D",
                "necessary_D_eps_invariance", "necessary_E")

# Wrapped module functions, by layer.  Every cflab namespace that holds the
# same function object (``from .x import f`` copies) is patched too.
CASEBOOK_CHECKS = ("first_formula", "second_formula_n1", "third_formula_case",
                   "necessary_condition_case",
                   "necessary_condition_eps_invariance", "identity_suite",
                   "fibration_check_C2", "transversality_suite", "full_report")
POINT_FUNCS = (
    ("cycles", "orientation_sign", "cycles.orientation"),
    ("forms", "pullback_integrand", "forms.pullback"),
    ("forms", "d_numeric", "forms.d_numeric"),
    ("exprlang", "eval_expr", "exprlang.eval"),
    ("exprlang", "parse_expr", "exprlang.parse"),
    ("casebook", "residue_oracle_D", "casebook.oracle"),
    ("casebook", "residue_oracle_E", "casebook.oracle"),
    ("geometry", "transversality_margin", "geometry.margin"),
    ("geometry", "sample_on_surface", "geometry.sample"),
)
KERNEL_BUILDERS = ("phi", "psi", "casebook_form")

# Counts snapshotted around each integrate span (per-grid-point work).
_INTEGRATE_COUNTS = ("exprlang.eval", "forms.evaluate", "kernels.coeff")


class Tracer:
    """Call counts, inclusive and self times, and spans for one round."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s, depth]
        self.frames: list[list] = []      # open calls: [start, child_s]
        self.spans: list[dict] = []
        self.span_stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _stat(self, key):
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0])

    def timed(self, key, fn):
        """Count calls of ``fn`` and accumulate its inclusive and self time."""
        stat = self._stat(key)
        frames, clock = self.frames, self.clock

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            frames.append(frame)
            stat[3] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                frames.pop()
                stat[3] -= 1
                stat[0] += 1
                stat[2] += dur - frame[1]
                if not stat[3]:
                    stat[1] += dur
                if frames:
                    frames[-1][1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def spanned(self, key, fn, enter=None, leave=None):
        """Like :meth:`timed`, and also record a span with its parent id.

        ``enter(args, kwargs, attrs)`` may return replacement arguments;
        ``leave(result, exc, attrs)`` runs when the call ends either way.
        """
        inner = self.timed(key, fn)

        def wrapper(*args, **kwargs):
            attrs: dict = {}
            if enter is not None:
                args, kwargs = enter(args, kwargs, attrs)
            span = self.open_span(key, attrs)
            result = exc = None
            try:
                result = inner(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                if leave is not None:
                    leave(result, exc, attrs)
                self.close_span(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def open_span(self, name, attrs=None) -> dict:
        span = {"id": len(self.spans),
                "parent": self.span_stack[-1] if self.span_stack else None,
                "op": self.op, "name": name,
                "start_s": self.clock() - self.origin, "end_s": None,
                "attrs": attrs if attrs is not None else {}}
        self.spans.append(span)
        self.span_stack.append(span["id"])
        return span

    def close_span(self, span):
        span["end_s"] = self.clock() - self.origin
        self.span_stack.pop()

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def calls(self, key) -> int:
        return self.stats.get(key, (0,))[0]

    # -- installing into cflab --------------------------------------------

    def _patch(self, namespaces, original, replacement):
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, name, original))
                    setattr(ns, name, replacement)

    def install(self, cflab):
        """Wrap the public functions of every cflab layer."""
        mods = {name: getattr(cflab, name) for name in
                ("cli", "report", "casebook", "cycles", "forms", "kernels",
                 "exprlang", "geometry")}
        namespaces = [cflab] + list(mods.values())

        for mod, name, key in POINT_FUNCS:
            fn = getattr(mods[mod], name)
            self._patch(namespaces, fn, self.timed(key, fn))

        kform = mods["forms"].KForm
        self._patches.append((kform, "evaluate", vars(kform)["evaluate"]))
        kform.evaluate = self.timed("forms.evaluate", kform.evaluate)

        for name in KERNEL_BUILDERS:
            fn = getattr(mods["kernels"], name)
            self._patch(namespaces, fn, self._kernel_builder(fn, kform))

        for name in CASEBOOK_CHECKS:
            fn = getattr(mods["casebook"], name)
            self._patch(namespaces, fn, self.spanned(
                "casebook.check", fn, leave=self._leave_check))

        integrate = mods["cycles"].integrate
        self._integrate_sig = inspect.signature(integrate)
        self._patch(namespaces, integrate, self.spanned(
            "cycles.integrate", integrate, enter=self._enter_integrate,
            leave=self._leave_integrate))

        render = mods["report"].render
        self._patch(namespaces, render, self.spanned(
            "report.render", render, leave=self._leave_render))

        run_cli = mods["cli"].run_cli
        self._patch(namespaces, run_cli, self.spanned("cli.run_cli", run_cli))

    def uninstall(self):
        for ns, name, original in reversed(self._patches):
            setattr(ns, name, original)
        self._patches.clear()

    @contextmanager
    def installed(self, cflab):
        try:
            self.install(cflab)
            yield self
        finally:
            self.uninstall()

    # -- layer-specific hooks ----------------------------------------------

    def _kernel_builder(self, fn, kform):
        # Only the outermost builder wraps the returned form's coefficients,
        # so nested builders do not count one coefficient call twice.
        build = self.timed("kernels.build", fn)
        stat = self._stat("kernels.build")

        def wrapper(*args, **kwargs):
            outermost = stat[3] == 0
            form = build(*args, **kwargs)
            if not outermost or form.terms is None:
                return form
            terms = {key: self.timed("kernels.coeff", coeff)
                     for key, coeff in form.terms.items()}
            return kform(form.degree, form.dim, terms=terms)

        wrapper.__wrapped__ = fn
        return wrapper

    def _leave_check(self, result, exc, attrs):
        if result is None:
            return
        reports = result if isinstance(result, list) else [result]
        attrs["ids"] = [r.id for r in reports]
        attrs["failed"] = [r.id for r in reports if not r.passed]
        if self._stat("casebook.check")[3] == 0:
            self.count("casebook.checks", len(reports))
            self.count("casebook.checks_failed", len(attrs["failed"]))

    def _enter_integrate(self, args, kwargs, attrs):
        bound = self._integrate_sig.bind(*args, **kwargs)
        cycle = bound.arguments["cycle"]
        bound.arguments["cycle"] = self._traced_cycle(cycle)
        points = grid_points(bound.arguments["quad"], cycle.dim)
        attrs["grid_points"] = points
        attrs["_before"] = [self.calls(k) for k in _INTEGRATE_COUNTS]
        self.count("cycles.grid_points", points)
        return bound.args, bound.kwargs

    def _leave_integrate(self, result, exc, attrs):
        before = attrs.pop("_before")
        for key, n0 in zip(_INTEGRATE_COUNTS, before):
            attrs[key + "_calls"] = self.calls(key) - n0
        if exc is not None:
            attrs["error"] = type(exc).__name__
            if type(exc).__name__ == "PoleError":
                self.count("cycles.pole_errors")

    def _traced_cycle(self, cycle):
        return dataclasses.replace(
            cycle, map=self.timed("cycles.map_tangent", cycle.map),
            tangent=self.timed("cycles.map_tangent", cycle.tangent))

    def _leave_render(self, result, exc, attrs):
        if isinstance(result, str):
            attrs["bytes"] = len(result.encode("utf-8"))
            self.count("report.bytes", attrs["bytes"])

    # -- results -------------------------------------------------------------

    def self_s(self, *keys) -> float:
        return sum(self.stats.get(k, (0, 0.0, 0.0))[2] for k in keys)

    def total_s(self, key) -> float:
        return self.stats.get(key, (0, 0.0))[1]

    def evals_per_point(self, check_prefix: str) -> float:
        """Expression evaluations per grid point, over the integrate spans
        whose enclosing check has an id starting with ``check_prefix``.

        0.0 when no such integral ran.
        """
        by_id = {s["id"]: s for s in self.spans}
        evals = points = 0
        for span in self.spans:
            if span["name"] != "cycles.integrate":
                continue
            parent = by_id.get(span["parent"])
            while parent is not None and parent["name"] != "casebook.check":
                parent = by_id.get(parent["parent"])
            ids = parent["attrs"].get("ids", []) if parent else []
            if any(i.startswith(check_prefix) for i in ids):
                evals += span["attrs"]["exprlang.eval_calls"]
                points += span["attrs"]["grid_points"]
        return evals / points if points else 0.0

    def check_s(self, check_id: str) -> float:
        """Summed duration of the check spans that produced ``check_id``."""
        return sum((s["end_s"] - s["start_s"] for s in self.spans
                   if s["name"] == "casebook.check"
                   and s["attrs"].get("ids") == [check_id]), 0.0)

    def layer_metrics(self, check_prefix: str) -> dict[str, float]:
        """Every layer metric of :data:`LAYER_METRICS` but the overhead."""
        c = self.calls
        m = {
            "cycles.integrate_calls": c("cycles.integrate"),
            "cycles.grid_points": self.counters.get("cycles.grid_points", 0),
            "cycles.integrate_s": self.total_s("cycles.integrate"),
            "cycles.integrate_self_s": self.self_s("cycles.integrate"),
            "cycles.map_tangent_s": self.total_s("cycles.map_tangent"),
            "cycles.orientation_s": self.total_s("cycles.orientation"),
            "cycles.pole_errors": self.counters.get("cycles.pole_errors", 0),
            "forms.pullback_calls": c("forms.pullback"),
            "forms.evaluate_calls": c("forms.evaluate"),
            "forms.evaluate_self_s": self.self_s("forms.evaluate"),
            "forms.d_numeric_calls": c("forms.d_numeric"),
            "forms.d_numeric_s": self.total_s("forms.d_numeric"),
            "kernels.coeff_calls": c("kernels.coeff"),
            "kernels.coeff_self_s": self.self_s("kernels.coeff"),
            "kernels.build_s": self.total_s("kernels.build"),
            "exprlang.eval_calls": c("exprlang.eval"),
            "exprlang.eval_s": self.total_s("exprlang.eval"),
            "exprlang.parse_calls": c("exprlang.parse"),
            "exprlang.parse_s": self.total_s("exprlang.parse"),
            "exprlang.evals_per_point": self.evals_per_point(check_prefix),
            "casebook.checks": self.counters.get("casebook.checks", 0),
            "casebook.checks_failed":
                self.counters.get("casebook.checks_failed", 0),
            "casebook.self_s": self.self_s("casebook.check", "casebook.oracle"),
            "casebook.oracle_s": self.total_s("casebook.oracle"),
            "geometry.margin_calls": c("geometry.margin"),
            "geometry.margin_s": self.total_s("geometry.margin"),
            "geometry.sample_calls": c("geometry.sample"),
            "geometry.sample_s": self.total_s("geometry.sample"),
            "cli.self_s": self.self_s("cli.run_cli"),
            "report.render_s": self.total_s("report.render"),
            "report.bytes": self.counters.get("report.bytes", 0),
        }
        for check_id in HEAVY_CHECKS:
            m["casebook.check_s." + check_id] = self.check_s(check_id)
        return m

    def dump(self) -> dict:
        """Spans, per-key call statistics and counters, for writing out."""
        return {
            "spans": self.spans,
            "calls": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
        }


def grid_points(quad, dim: int) -> int:
    """Exact node count of a quadrature argument of ``cycles.integrate``."""
    sizes = getattr(quad, "sizes", quad)
    if isinstance(sizes, int):
        return sizes ** dim
    return math.prod(int(n) for n in sizes)


def patched_attributes(cflab) -> list[str]:
    """Names of cflab attributes that are currently benchmark wrappers."""
    found = []
    namespaces = [cflab] + [m for name, m in sorted(sys.modules.items())
                            if name.startswith("cflab.")]
    namespaces.append(cflab.forms.KForm)
    for ns in namespaces:
        for name, value in vars(ns).items():
            if callable(value) and hasattr(value, "__wrapped__") \
                    and getattr(value, "__module__", "") == __name__:
                found.append(f"{getattr(ns, '__name__', ns)}.{name}")
    return found
