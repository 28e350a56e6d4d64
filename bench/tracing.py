"""Per-layer spans recorded from outside the solver.

Each layer's entry point is wrapped under the name its caller looks up, e.g.
``dual_solver.solve_max_assignment`` (what ``solve_lrp`` calls), not
``assignment.solve_max_assignment``. Spans are kept in memory and written
when the run ends. A hook whose attribute no longer exists is reported as
absent and the run carries on without it.
"""
from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict

# (module, attribute the caller looks up, span name)
HOOKS = (
    ("channel", "build_gain_table", "channel.build_gain_table"),
    ("dual_solver", "solve", "dual_solver.solve"),
    ("dual_solver", "build_pair_gain_table", "dual_solver.build_pair_gain_table"),
    ("dual_solver", "solve_lrp", "dual_solver.solve_lrp"),
    ("dual_solver", "lrp_metrics", "dual_solver.lrp_metrics"),
    ("dual_solver", "solve_max_assignment", "assignment.solve_max_assignment"),
    ("dual_solver", "_materialize", "dual_solver.materialize"),
    ("dual_solver", "evaluate_wsr", "dual_solver.evaluate_wsr"),
    ("dual_solver", "_refill", "dual_solver.refill"),
)
SCALAR_MODULE = "pair_gains"


class Tracer:
    """Records a span per call of each hooked entry point.

    A span is [name, start, end, parent span index, solve index]; spans of
    one ``solve`` call share the solve index.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.scalar_calls = 0
        self._stack: list[int] = []
        self._solve = -1
        self._scalar_depth = 0
        self._saved: list[tuple[object, str, object]] = []
        self.absent = sorted(
            name for mod, attr, name in HOOKS
            if not callable(getattr(modules.get(mod), attr, None)))
        scalar_mod = modules.get(SCALAR_MODULE)
        self.scalar_names = [] if scalar_mod is None else sorted(
            n for n, f in vars(scalar_mod).items()
            if inspect.isfunction(f) and f.__module__ == scalar_mod.__name__)
        if not self.scalar_names:
            self.absent.append(f"{SCALAR_MODULE}.scalar")

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "dual_solver.solve":
                self._solve += 1
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self._solve]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def _count(self, fn):
        # Counts only outermost calls: pair_gains functions call each other.
        def counted(*args, **kwargs):
            if self._scalar_depth == 0:
                self.scalar_calls += 1
            self._scalar_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._scalar_depth -= 1
        return counted

    def install(self) -> None:
        for mod, attr, name in HOOKS:
            if name not in self.absent:
                self._patch(self.modules[mod], attr, self._span(name, getattr(
                    self.modules[mod], attr)))
        scalar_mod = self.modules.get(SCALAR_MODULE)
        for attr in self.scalar_names:
            self._patch(scalar_mod, attr, self._count(getattr(scalar_mod, attr)))

    def _patch(self, obj, attr: str, wrapper) -> None:
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def layer_metrics(self) -> dict[str, float | None]:
        """Per-layer figures from the recorded spans; None where absent."""
        total = Counter()
        calls = Counter()
        child = Counter()
        lrp_per_solve = Counter()
        for name, t0, t1, parent, solve in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += t1 - t0
            if name == "dual_solver.solve_lrp":
                lrp_per_solve[solve] += 1
        solves = calls["dual_solver.solve"]
        trials = calls["channel.build_gain_table"]

        def present(name):
            return name not in self.absent and solves > 0

        def per_call_ms(name):
            return 1e3 * total[name] / calls[name] if calls[name] else 0.0

        def per_solve_ms(name):
            return 1e3 * total[name] / solves

        def self_ms(name):
            return (1e3 * (total[name] - child[name]) / calls[name]
                    if calls[name] else 0.0)

        lrp = "dual_solver.solve_lrp"
        evals = [lrp_per_solve[s] for s in range(solves)]
        m: dict[str, float | None] = {
            "dual_solver.lrp_evals_per_solve":
                sum(evals) / solves if present(lrp) else None,
            "dual_solver.lrp_evals_max":
                max(evals) if present(lrp) else None,
            "dual_solver.solve_lrp.self_ms":
                self_ms(lrp) if present(lrp) else None,
            "dual_solver.solve.self_ms":
                self_ms("dual_solver.solve") if present("dual_solver.solve")
                else None,
            "channel.build_gain_table.ms":
                1e3 * total["channel.build_gain_table"] / trials
                if trials else None,
            "pair_gains.scalar_calls_per_solve":
                self.scalar_calls / solves if self.scalar_names and solves
                else None,
        }
        for name in ("dual_solver.lrp_metrics",
                     "assignment.solve_max_assignment"):
            m[f"{name}.ms"] = per_call_ms(name) if present(name) else None
            m[f"{name}.calls_per_solve"] = (calls[name] / solves
                                            if present(name) else None)
        for name in ("dual_solver.build_pair_gain_table",
                     "dual_solver.materialize", "dual_solver.evaluate_wsr",
                     "dual_solver.refill"):
            m[f"{name}.ms"] = per_solve_ms(name) if present(name) else None
        return m

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
