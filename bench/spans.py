"""Spans around p_potential's public functions, recorded from outside.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper in
every ``p_potential`` module namespace that holds a reference to it, and
replaces ``scipy.sparse.linalg.splu``, which ``dirichlet`` reaches by
attribute lookup, so the wrapper sees every call.  Nothing under ``src/``
changes.  A span is (name, start, end, parent, op, error); spans stay in
memory and are written to a trace file when the run ends, never into the
program's outputs.

Counters that need a call's result (Newton iterations, factor sizes, path
counts) run in a ``trace.count`` span of their own, so their cost shows as
tracing overhead instead of as a layer's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

CRITERION = ("volume_series_terms", "cut_series_terms", "extrapolate_cut_tail",
             "exponent_identity", "cut_volume_check", "dyadic_blocks",
             "midrange_cut_bound", "classify")

TARGETS = (
    [("graphs", "load_graph"), ("graphs", "ball_profile"),
     ("dirichlet", "minimize_p_dirichlet"),
     ("green", "solve_green"), ("green", "capacity"),
     ("green", "green_normalization_check"), ("green", "parabolicity_probe"),
     ("flows", "orient_flow"),
     ("flows", "decompose_paths"), ("flows", "edge_marginals"),
     ("flows", "empirical_lower_bound"),
     ("verify", "run_suites"), ("verify", "shoot_radial_supersolution")]
    + [("criterion", name) for name in CRITERION])

OP_SPAN = "cli"
SPLU_SPAN = "dirichlet.splu"
COUNT_SPAN = "trace.count"

# per-layer metric -> the spans whose self time it sums
SELF_TIME = {
    "graphs.load_graph_s": ["graphs.load_graph"],
    "graphs.ball_profile_s": ["graphs.ball_profile"],
    "dirichlet.self_s": ["dirichlet.minimize_p_dirichlet"],
    "dirichlet.splu_s": [SPLU_SPAN],
    "green.solve_green_s": ["green.solve_green"],
    "green.capacity_s": ["green.capacity"],
    "green.normalization_check_s": ["green.green_normalization_check"],
    "green.probe_s": ["green.parabolicity_probe"],
    "flows.orient_flow_s": ["flows.orient_flow"],
    "flows.decompose_paths_s": ["flows.decompose_paths"],
    "flows.audit_s": ["flows.empirical_lower_bound"],
    "flows.edge_marginals_s": ["flows.edge_marginals"],
    "criterion.s": [f"criterion.{name}" for name in CRITERION],
    "verify.run_suites_s": ["verify.run_suites"],
    "verify.shoot_s": ["verify.shoot_radial_supersolution"],
    "cli.self_s": [OP_SPAN],
}

# per-layer metric -> the spans whose calls it counts
CALLS = {
    "graphs.ball_profile_calls": "graphs.ball_profile",
    "dirichlet.minimize_calls": "dirichlet.minimize_p_dirichlet",
    "dirichlet.splu_calls": SPLU_SPAN,
    "green.solve_green_calls": "green.solve_green",
    "green.capacity_calls": "green.capacity",
}

# counters filled from call results, plus cli.output_bytes from the worker
COUNTS = ("dirichlet.newton_iters", "dirichlet.lu_nnz", "flows.paths",
          "flows.path_vertices", "flows.orient_flow_failures",
          "cli.output_bytes")


def _count_minimize(counts, result):
    counts["dirichlet.newton_iters"] += result[1].total_iterations


def _count_splu(counts, lu):
    counts["dirichlet.lu_nnz"] += lu.L.nnz + lu.U.nnz


def _count_paths(counts, measure):
    counts["flows.paths"] += len(measure)
    counts["flows.path_vertices"] += sum(len(path) for path in measure.paths)


HOOKS = {
    "dirichlet.minimize_p_dirichlet": _count_minimize,
    SPLU_SPAN: _count_splu,
    "flows.decompose_paths": _count_paths,
}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, error]
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op,
                           False])
        self._stack.append(index)
        return index

    def _close(self, index: int, error: bool = False) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = error
        self._stack.pop()

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) as op ``op_id``, inside a root span."""
        self.op = op_id
        index = self._open(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(index)
            self.op = None

    def op_seconds(self, op_id) -> float:
        """Duration of the root span of op ``op_id``."""
        return sum(end - start for name, start, end, parent, op, _ in self.spans
                   if parent is None and op == op_id)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, error=True)
                raise
            self._close(index)
            if hook is not None:
                count = self._open(COUNT_SPAN)
                try:
                    hook(self.counts, result)
                finally:
                    self._close(count)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded p_potential namespace."""
        import scipy.sparse.linalg as spla

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "p_potential" or name.startswith("p_potential.")]
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[f"p_potential.{module_name}"], attr)
            wrapper = self.wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        spla.splu = self.wrap(SPLU_SPAN, spla.splu)

    def self_times(self) -> list:
        """Self time per span: its duration minus its children's."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict:
        own = self.self_times()
        by_name = defaultdict(float)
        calls = defaultdict(int)
        failures = 0
        for span, seconds in zip(self.spans, own):
            by_name[span[0]] += seconds
            calls[span[0]] += 1
            if span[0] == "flows.orient_flow" and span[5]:
                failures += 1
        metrics = {metric: sum(by_name[name] for name in names)
                   for metric, names in SELF_TIME.items()}
        metrics.update({metric: calls[name] for metric, name in CALLS.items()})
        counts = dict(self.counts, **{"flows.orient_flow_failures": failures})
        metrics.update({name: counts.get(name, 0) for name in COUNTS})
        metrics["trace.count_s"] = by_name[COUNT_SPAN]
        return metrics

    def write(self, path: str, header: dict) -> None:
        """Append this process's spans to a JSON-lines trace file."""
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, start, end, parent, op, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "error": error}) + "\n")
