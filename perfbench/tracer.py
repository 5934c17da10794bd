"""Outside-in tracing of bcdyn: wrap library functions by attribute name on
the modules that import them, so nothing under ``src/`` changes.

A function is patched on the module whose code calls it (``sweep.find_all``
is the binding ``run_sweep`` uses, ``model.validate_params`` the one the
model's own functions look up).  Layer functions record spans (name, parent
span, start, end) in memory; hot leaf functions (parameter validation, the
vector field, the Jacobian) only increment a counter, so tracing does not
swamp the calls it measures.  An attribute a later version removes is
listed in ``absent`` instead of failing the run.
"""
from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter

# (module, attribute, span name, extra counter or None)
SPANS = (
    ("bcdyn", "find_all", "equilibria.find_all", None),
    ("bcdyn", "classify", "stability.classify", None),
    ("bcdyn", "integrate", "integrator.integrate", None),
    ("bcdyn", "run_sweep", "sweep.run_sweep", None),
    ("bcdyn", "run_bifurcate", "sweep.run_bifurcate", None),
    ("bcdyn.sweep", "find_all", "equilibria.find_all", "sweep.solves"),
    ("bcdyn.sweep", "classify", "stability.classify", None),
    ("bcdyn.equilibria", "tumor_free", "equilibria.tumor_free", None),
    ("bcdyn.equilibria", "dead_type1", "equilibria.dead1", None),
    ("bcdyn.equilibria", "dead_type2", "equilibria.dead2", None),
    ("bcdyn.equilibria", "coexisting", "equilibria.coexisting", None),
    ("bcdyn.equilibria", "poly_roots", "numerics.poly_roots", None),
    ("bcdyn.stability", "poly_roots", "numerics.poly_roots", None),
    ("bcdyn.stability", "char_poly", "numerics.char_poly", None),
)

# (module, attribute, counter)
COUNTS = (
    ("bcdyn.model", "validate_params", "model.validate_calls"),
    ("bcdyn.equilibria", "validate_params", "model.validate_calls"),
    ("bcdyn.integrator", "validate_params", "model.validate_calls"),
    ("bcdyn.equilibria", "rhs", "model.rhs_calls"),
    ("bcdyn.equilibria", "jacobian", "model.jacobian_calls"),
    ("bcdyn.stability", "jacobian", "model.jacobian_calls"),
)

# (module, counter of evaluations of the closures its make_rhs returns)
MAKE_RHS = (
    ("bcdyn.model", "model.rhs_evals"),
    ("bcdyn.integrator", "integrator.rhs_evals"),
)

NEWTON = ("bcdyn.equilibria", "newton_solve", "numerics.newton_solve")

# Span results that feed a counter.
_OBSERVE = {
    "equilibria.find_all": lambda counts, catalog: counts.update(
        {"equilibria.confirmed": sum(1 for eq in catalog if eq.confirmed)}
    ),
    "stability.classify": lambda counts, report: counts.update(
        {"stability.inconclusive": int(report.verdict == "inconclusive")}
    ),
    "sweep.run_bifurcate": lambda counts, results: counts.update(
        {"sweep.crossings": len(results)}
    ),
    "integrator.integrate": lambda counts, traj: counts.update(
        {
            "integrator.accepted_steps": getattr(traj, "accepted_steps", 0),
            "integrator.rejected_steps": getattr(traj, "rejected_steps", 0),
        }
    ),
}


class Tracer:
    """Patches bcdyn while installed; use as a context manager."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.absent: list[str] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for modname, attr, name, counter in SPANS:
            self._patch(modname, attr, lambda fn, n=name, c=counter: self._span(n, fn, c))
        for modname, attr, counter in COUNTS:
            self._patch(modname, attr, lambda fn, c=counter: self._count(c, fn))
        for modname, counter in MAKE_RHS:
            self._patch(modname, "make_rhs", lambda fn, c=counter: self._make_rhs(c, fn))
        modname, attr, name = NEWTON
        self._patch(modname, attr, lambda fn: self._newton(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _patch(self, modname: str, attr: str, make_wrapper) -> None:
        try:
            module = importlib.import_module(modname)
        except ImportError:
            self.absent.append(f"{modname}.{attr}")
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(f"{modname}.{attr}")
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def _span(self, name: str, fn, counter: str | None):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = _OBSERVE.get(name)

        def wrapper(*args, **kwargs):
            record = [name, stack[-1], perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if counter is not None:
                counts[counter] += 1
            if observe is not None:
                observe(counts, result)
            return result

        return wrapper

    def _count(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _make_rhs(self, counter: str, make_rhs):
        counts = self.counts

        def wrapper(*args, **kwargs):
            f = make_rhs(*args, **kwargs)

            def counted(*state):
                counts[counter] += 1
                return f(*state)

            return counted

        return wrapper

    def _newton(self, name: str, newton_solve):
        counts = self.counts

        def newton(F, J, *args, **kwargs):
            def counted_J(x):
                counts["numerics.newton_iters"] += 1
                return J(x)

            try:
                return newton_solve(F, counted_J, *args, **kwargs)
            except Exception:
                counts["numerics.newton_failures"] += 1
                raise

        return self._span(name, newton, None)

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds), where self
        time excludes the time of direct child spans."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return {name: tuple(v) for name, v in totals.items()}

    def write(self, path) -> None:
        """Write every span and counter as one JSON document."""
        doc = {
            "fields": ["name", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, grid_points: int) -> dict[str, tuple[float, str]]:
    """Per-module metrics of a traced run; ``grid_points`` is the number of
    sweep and bifurcation grid points the run requested."""
    spans = tracer.span_totals()
    c = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    steps = c["integrator.accepted_steps"]
    attempted_steps = steps + c["integrator.rejected_steps"]
    return {
        "model.validate_calls": (c["model.validate_calls"], "count"),
        "model.rhs_evals": (c["model.rhs_evals"] + c["integrator.rhs_evals"], "count"),
        "model.jacobian_calls": (c["model.jacobian_calls"], "count"),
        "numerics.newton_calls": (calls("numerics.newton_solve"), "count"),
        "numerics.newton_failures": (c["numerics.newton_failures"], "count"),
        "numerics.newton_iters": (c["numerics.newton_iters"], "count"),
        "numerics.newton_s": (secs("numerics.newton_solve"), "s"),
        "numerics.poly_roots_calls": (calls("numerics.poly_roots"), "count"),
        "numerics.poly_roots_s": (secs("numerics.poly_roots"), "s"),
        "equilibria.find_all_calls": (calls("equilibria.find_all"), "count"),
        "equilibria.find_all_s": (secs("equilibria.find_all"), "s"),
        "equilibria.tumor_free_s": (secs("equilibria.tumor_free"), "s"),
        "equilibria.dead1_s": (secs("equilibria.dead1"), "s"),
        "equilibria.dead2_s": (secs("equilibria.dead2"), "s"),
        "equilibria.coexisting_s": (secs("equilibria.coexisting"), "s"),
        "equilibria.self_s": (spans.get("equilibria.find_all", (0, 0.0, 0.0))[2], "s"),
        "equilibria.confirmed": (c["equilibria.confirmed"], "count"),
        "equilibria.newton_yield": (
            ratio(c["equilibria.confirmed"], calls("numerics.newton_solve")), "ratio"
        ),
        "stability.classify_calls": (calls("stability.classify"), "count"),
        "stability.classify_s": (secs("stability.classify"), "s"),
        "stability.inconclusive": (c["stability.inconclusive"], "count"),
        "sweep.run_sweep_s": (secs("sweep.run_sweep"), "s"),
        "sweep.run_bifurcate_s": (secs("sweep.run_bifurcate"), "s"),
        "sweep.solves": (c["sweep.solves"], "count"),
        "sweep.solves_per_point": (ratio(c["sweep.solves"], grid_points), "ratio"),
        "sweep.crossings": (c["sweep.crossings"], "count"),
        "integrator.calls": (calls("integrator.integrate"), "count"),
        "integrator.s": (secs("integrator.integrate"), "s"),
        "integrator.accepted_steps": (steps, "count"),
        "integrator.rejected_steps": (c["integrator.rejected_steps"], "count"),
        "integrator.rhs_evals_per_step": (
            ratio(c["integrator.rhs_evals"], attempted_steps), "ratio"
        ),
        "integrator.us_per_step": (ratio(secs("integrator.integrate"), steps) * 1e6, "us"),
    }
