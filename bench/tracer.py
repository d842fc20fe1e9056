"""In-memory span tracer installed from outside the fairteams package.

The tracer wraps public functions and SolverState methods and rebinds each
wrapper in every fairteams module that holds the original under some name
(harness imports fmhc, gmbf, compute_benefit_matrix and objective directly,
so patching only the defining module would miss those calls). Nothing under
src/ is edited; uninstall() puts every original back.

A span is [name, start, end, parent index, operation id]. Spans stay in
memory until write_spans() dumps them at the end of a run.

PassCounter is the one wrapper that untraced runs install: it hands fmhc a
stats dict (one call per solve, no timing) so that fern_n400 can report time
per refinement pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import weakref
from collections import defaultdict

# module.function, also the span name
FUNCTIONS = (
    "cli.main", "cli.write_assignment", "datagen.load_instance",
    "datagen.generate_dataset", "core.compute_benefit_matrix",
    "core.objective", "initial.gmbf", "refine.fmhc",
    "baselines.genetic_algorithm", "baselines.uniform_kmeans",
    "harness.solve_instance", "harness.evaluate_solution",
    "harness.write_metrics_csv",
)

# SolverState method -> span name; __init__ is where the caches are built
STATE_METHODS = {
    "__init__": "refine.SolverState.build",
    "apply": "refine.SolverState.apply",
    "clone": "refine.SolverState.clone",
    "gain": "refine.SolverState.gain",
    "gain_matrix": "refine.SolverState.gain_matrix",
}

SPAN_NAMES = FUNCTIONS + tuple(STATE_METHODS.values())

COUNTERS = ("refine.SolverState.gain_matrix.cells", "refine.moves_tried",
            "refine.moves_committed", "baselines.ga.evals")


def rebind(package: str, module: str, attr: str, make_wrapper, undo: list):
    """Replace package.module.attr with make_wrapper(original) in every
    loaded package module that holds the original, recording what to undo."""
    original = getattr(sys.modules[f"{package}.{module}"], attr)
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package
                               or name.startswith(package + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, original))
                setattr(mod, key, wrapper)


def restore(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
    undo.clear()


class PassCounter:
    """Sums fmhc's own pass count over every solve while installed."""

    def __init__(self):
        self.passes = 0
        self._undo: list = []

    def install(self, package: str = "fairteams") -> None:
        rebind(package, "refine", "fmhc", self._wrap, self._undo)

    def uninstall(self) -> None:
        restore(self._undo)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, stats=None, **kwargs):
            stats = {} if stats is None else stats
            result = fn(*args, stats=stats, **kwargs)
            self.passes += stats["passes"]
            return result
        return wrapper


class Tracer:
    """Collects spans and counters while active; a no-op pass-through
    otherwise, so the benchmark can run untraced operations in between."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # states returned by clone(): applies on them are tentative moves
        self._tentative = weakref.WeakSet()
        self._hooks = {
            "refine.SolverState.gain_matrix": self._count_cells,
            "refine.SolverState.apply": self._count_move,
            "refine.SolverState.clone": self._tag_clone,
            "baselines.genetic_algorithm": self._count_evals,
        }

    # -- installation -----------------------------------------------------

    def install(self, package: str = "fairteams") -> None:
        for span in FUNCTIONS:
            module, attr = span.split(".")
            rebind(package, module, attr,
                   lambda fn, span=span: self._wrap(span, fn), self._undo)
        state_cls = sys.modules[f"{package}.refine"].SolverState
        for method, span in STATE_METHODS.items():
            original = state_cls.__dict__[method]
            self._undo.append((state_cls, method, original))
            setattr(state_cls, method, self._wrap(span, original))

    def uninstall(self) -> None:
        restore(self._undo)

    def _wrap(self, span: str, fn):
        tracer = self
        hook = self._hooks.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [span, time.perf_counter(), 0.0, parent, tracer.op_id]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result

        return wrapper

    # -- counters ---------------------------------------------------------

    def _count_cells(self, fn, args, kwargs, result):
        self.counts["refine.SolverState.gain_matrix.cells"] += int(result.size)

    def _count_move(self, fn, args, kwargs, result):
        key = ("refine.moves_tried" if args[0] in self._tentative
               else "refine.moves_committed")
        self.counts[key] += 1

    def _tag_clone(self, fn, args, kwargs, result):
        self._tentative.add(result)

    def _count_evals(self, fn, args, kwargs, result):
        params = inspect.signature(fn).bind(*args, **kwargs).arguments.get(
            "params") or sys.modules[fn.__module__].GAParams()
        self.counts["baselines.ga.evals"] += (
            params.population_size * (params.generations + 1))

    # -- operations -------------------------------------------------------

    def start_op(self, op_id: int) -> dict[str, int]:
        self.op_id = op_id
        self.active = True
        return dict(self.counts)

    def stop_op(self, before: dict[str, int]) -> dict[str, int]:
        """Stop recording; return the counter increments of this operation."""
        self.active = False
        return {name: self.counts.get(name, 0) - before.get(name, 0)
                for name in COUNTERS}

    def summarize(self, op_id: int) -> dict[str, float]:
        """calls, busy seconds (inclusive) and self seconds per span name
        for one operation."""
        ops = [i for i, s in enumerate(self.spans) if s[4] == op_id]
        child_time: dict[int, float] = defaultdict(float)
        for i in ops:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for i in ops:
            name, start, end, parent, _ = self.spans[i]
            duration = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += duration - child_time[i]
            if not self._has_ancestor_named(parent, name):
                out[f"{name}.s"] += duration
        return out

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def write_spans(self, path) -> None:
        """One JSON object per line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")
