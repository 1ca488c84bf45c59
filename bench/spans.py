"""Span tracing wrapped around the program from outside.

The traced run rebinds module attributes of ``looptest`` at run time: each
target is either a span (name, start, end, parent id) or a bare call
counter, for calls too frequent to time one by one.  Spans and counters
are named after their target, ``module.attribute``.  A target missing from
the program (a later change may remove it) is reported as absent, and the
metrics that read it are left out instead of crashing.

Per-layer metrics are derived from one operation's spans: a layer's self
time is its span durations minus the part covered by its child spans.
Spans are timed on the process's CPU clock, like the operations.
"""

from __future__ import annotations

import collections
import importlib
import time

# simulate_lasso and eval_on_lasso are imported by name into testgen and
# runner, so those bindings are the ones the pipeline calls.
SPAN_TARGETS = (
    "dsl.parse_model", "dsl.parse_reqs", "dsl.parse_suite",
    "dsl.serialize_suite",
    "testgen.generate_suite", "testgen.BoundedExplorer.find",
    "testgen.simulate_lasso",
    "runner.execute_suite", "runner.simulate_lasso", "runner.eval_on_lasso",
    "ltl.position_envs",
)
COUNT_TARGETS = ("sim.step", "testgen.eval_expr")

# Metrics that are counts: they must repeat exactly from run to run.
COUNTS = ("testgen.find_calls", "testgen.states", "testgen.depth",
          "testgen.scan_evals", "testgen.covered", "testgen.subsumed",
          "testgen.unreachable", "sim.lassos", "sim.positions",
          "model.steps", "ltl.evals", "ltl.envs_calls")


class Absent(Exception):
    """A metric reads a target that is not in the program."""


def _resolve(target: str):
    """(owner object, attribute name) for a module.attribute target, or
    None."""
    module, *path, last = target.split(".")
    owner = importlib.import_module(f"looptest.{module}")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, last):
        return None
    return owner, last


class Tracer:
    """Holds the spans and counters of the operation being traced."""

    def __init__(self):
        self.spans = []       # [name, parent index, start, end]
        self.counts = collections.Counter()
        self.positions = collections.Counter()  # per simulate_lasso target
        self.outcomes = collections.Counter()
        self.explorer = None
        self.absent = []      # targets not found
        self._current = -1
        self._undo = []

    # -- installing wrappers

    def install(self):
        self.absent = []
        for target in SPAN_TARGETS:
            self._wrap(target, self._span)
        for target in COUNT_TARGETS:
            self._wrap(target, self._count)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def _wrap(self, target: str, make):
        found = _resolve(target)
        if found is None:
            self.absent.append(target)
            return
        owner, last = found
        original = getattr(owner, last)
        self._undo.append((owner, last, original))
        setattr(owner, last, make(target, original))

    def _span(self, name: str, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            parent = self._current
            record = [name, parent, time.process_time(), 0.0]
            self._current = len(spans)
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.process_time()
                self._current = parent
            self._observe(name, args, result)
            return result
        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _observe(self, name: str, args, result):
        if name == "testgen.BoundedExplorer.find":
            self.explorer = args[0]
        elif name.endswith(".simulate_lasso"):
            self.positions[name] += result.positions
        elif name == "testgen.generate_suite":
            self.outcomes.update(out.status for out in result[1].outcomes)

    # -- one operation

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.outcomes.clear()
        self.positions.clear()
        self.explorer = None

    def run(self, fn, *args):
        """Call fn as the root span "op"."""
        return self._span("op", fn)(*args)

    def metrics(self) -> dict:
        """Per-layer metrics of the operation traced since reset(), without
        those that read an absent target."""
        view = _View(self)
        out = {}
        for name, compute in METRICS.items():
            try:
                out[name] = compute(view)
            except Absent:
                pass
        return out

    def span_records(self) -> list:
        return [{"id": i, "name": name, "parent": parent,
                 "start": start, "end": end}
                for i, (name, parent, start, end) in enumerate(self.spans)]


class _View:
    """Totals of one traced operation, read by target name.  Reading a
    target that was never installed raises Absent."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        spans = tracer.spans
        dur = [end - start for _, _, start, end in spans]
        child = [0.0] * len(spans)
        for i, (_, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
        # (name, parent name) -> total, self time, calls
        self._total = collections.defaultdict(float)
        self._self = collections.defaultdict(float)
        self._calls = collections.Counter()
        for i, (name, parent, _, _) in enumerate(spans):
            key = (name, spans[parent][0] if parent >= 0 else None)
            self._total[key] += dur[i]
            self._self[key] += dur[i] - child[i]
            self._calls[key] += 1

    def _check(self, *targets):
        for target in targets:
            if target in self._tracer.absent:
                raise Absent(target)

    def _sum(self, table, name, parent):
        self._check(name, *([parent] if parent else []))
        return sum(v for (n, p), v in table.items()
                   if n == name and (parent is None or p == parent))

    def total(self, name: str, parent: str = None) -> float:
        return self._sum(self._total, name, parent)

    def self_s(self, name: str) -> float:
        return self._sum(self._self, name, None)

    def calls(self, name: str, parent: str = None) -> int:
        return self._sum(self._calls, name, parent)

    def count(self, name: str) -> int:
        self._check(name)
        return self._tracer.counts[name]

    def positions(self, name: str) -> int:
        self._check(name)
        return self._tracer.positions[name]

    def outcomes(self, status: str) -> int:
        self._check("testgen.generate_suite")
        return self._tracer.outcomes[status]

    def explorer(self) -> tuple:
        """(states, deepest depth) of the last explorer searched."""
        self._check("testgen.BoundedExplorer.find")
        per_depth, depth = explorer_counts(self._tracer.explorer)
        return sum(per_depth.values()), depth


def _per_s(count: int, seconds: float) -> float:
    return count / seconds if seconds else 0.0


FIND = "testgen.BoundedExplorer.find"
GEN = "testgen.generate_suite"
EVAL = "runner.eval_on_lasso"
LASSO = "runner.simulate_lasso"
GEN_LASSO = "testgen.simulate_lasso"

# Every per-layer metric, computed from one operation's _View.
METRICS = {
    "testgen.explore_s": lambda v: v.total(FIND),
    "testgen.states_per_s": lambda v: _per_s(v.explorer()[0],
                                             v.total(FIND)),
    "testgen.find_calls": lambda v: v.calls(FIND),
    "testgen.states": lambda v: v.explorer()[0],
    "testgen.depth": lambda v: v.explorer()[1],
    # Self time of generate_suite: goal enumeration and goal scans.
    "testgen.goals_s": lambda v: v.self_s(GEN),
    # Subsumption replays: the lassos and environments generate_suite builds.
    "testgen.subsume_s": lambda v: (
        v.total(GEN_LASSO, GEN)
        + v.total("ltl.position_envs", GEN)),
    "testgen.scan_evals": lambda v: v.count("testgen.eval_expr"),
    "testgen.covered": lambda v: v.outcomes("COVERED"),
    "testgen.subsumed": lambda v: v.outcomes("SUBSUMED"),
    "testgen.unreachable": lambda v: v.outcomes("UNREACHABLE"),
    "sim.lasso_s": lambda v: v.total(LASSO) + v.total(GEN_LASSO),
    "sim.lassos": lambda v: v.calls(LASSO) + v.calls(GEN_LASSO),
    "sim.positions": lambda v: (v.positions(LASSO)
                                + v.positions(GEN_LASSO)),
    "sim.positions_per_s": lambda v: _per_s(
        v.positions(LASSO) + v.positions(GEN_LASSO),
        v.total(LASSO) + v.total(GEN_LASSO)),
    "model.steps": lambda v: v.count("sim.step"),
    "ltl.eval_s": lambda v: v.self_s(EVAL),
    "ltl.evals": lambda v: v.calls(EVAL),
    "ltl.envs_s": lambda v: v.total("ltl.position_envs", EVAL),
    "ltl.envs_calls": lambda v: v.calls("ltl.position_envs", EVAL),
    "runner.self_s": lambda v: v.self_s("runner.execute_suite"),
    "dsl.parse_s": lambda v: (v.total("dsl.parse_model")
                              + v.total("dsl.parse_reqs")
                              + v.total("dsl.parse_suite")),
    "dsl.serialize_s": lambda v: v.total("dsl.serialize_suite"),
}


def explorer_counts(explorer) -> tuple:
    """({depth: new states}, deepest depth) from the explorer's public
    ``nodes`` and ``parents`` lists (parents precede their children)."""
    if explorer is None:
        return {}, 0
    depth = [0] * len(explorer.nodes)
    for i, parent in enumerate(explorer.parents):
        if parent >= 0:
            depth[i] = depth[parent] + 1
    per_depth = collections.Counter(depth)
    return dict(sorted(per_depth.items())), max(depth)
