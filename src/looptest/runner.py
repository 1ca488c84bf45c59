"""Suite execution: check every requirement on every test's lasso.

Fixing a test's nondet matrix makes the closed loop deterministic, so each
test unwinds to exactly one ultimately periodic trace.  A requirement passes
on the suite when it holds at position 0 of every trace; the first failing
test (in suite order) is reported as the violation witness.  Passing on a
suite is weaker than a proof: it says nothing about inputs the suite never
plays.

Checking is trace-major: each trace's positions and subformula tables
are built once, into the holder ltl.lasso_rows makes (for a generated
test, by its generation), and every requirement still undecided on the
trace is evaluated with it (see ltl.eval_on_lasso).  Nothing outlives
the call.
"""

from __future__ import annotations

from collections import namedtuple

from . import ltl
from .ltl import eval_on_lasso
from .model import ClosedLoopModel, ModelError
from .sim import DEFAULT_STEP_CAP, TestSuite, dump_trace, simulate_lasso


class ReqVerdict(namedtuple("ReqVerdict", "rid status test_id trace message",
                            defaults=(None, None, None))):
    """status is "pass", "violated" or "error"."""

    __slots__ = ()


class ExecutionReport(namedtuple("ExecutionReport", "verdicts")):
    __slots__ = ()

    @property
    def violated(self) -> int:
        return sum(1 for v in self.verdicts if v.status == "violated")

    @property
    def passed(self) -> int:
        return sum(1 for v in self.verdicts if v.status == "pass")

    @property
    def errored(self) -> int:
        return sum(1 for v in self.verdicts if v.status == "error")

    def text(self) -> str:
        lines = []
        # requirements violated by the same test share its trace; render it
        # once (keyed by identity: the verdicts keep every trace alive)
        dumps = {}
        for v in self.verdicts:
            if v.status == "pass":
                lines.append(f"REQ {v.rid} PASS-ON-SUITE")
            elif v.status == "violated":
                lines.append(f"REQ {v.rid} VIOLATED test={v.test_id}")
                key = id(v.trace)
                if key not in dumps:
                    dumps[key] = dump_trace(v.trace).rstrip("\n")
                lines.append(dumps[key])
            else:
                lines.append(f"REQ {v.rid} ERROR {v.message}")
        lines.append(f"violated={self.violated} passed={self.passed} "
                     f"errored={self.errored}")
        return "\n".join(lines) + "\n"

    def expectation_misses(self, reqs: list) -> list:
        """Requirements whose tagged expectation disagrees with the verdict.

        Returns (rid, expectation, verdict-word) triples, in requirement
        order.  Untagged requirements and errors never count as misses.
        """
        by_id = {v.rid: v for v in self.verdicts}
        misses = []
        for req in reqs:
            if req.expectation is None:
                continue
            verdict = by_id.get(req.rid)
            if verdict is None or verdict.status == "error":
                continue
            want = "pass" if req.expectation == "expect-pass" else "violated"
            if verdict.status != want:
                word = ("PASS-ON-SUITE" if verdict.status == "pass"
                        else "VIOLATED")
                misses.append((req.rid, req.expectation, word))
        return misses


def execute_suite(model: ClosedLoopModel, reqs: list, suite: TestSuite,
                  step_cap: int = DEFAULT_STEP_CAP):
    """Run every requirement against every test.  Returns ExecutionReport.

    Every test is unwound first; if one fails, its error becomes every
    verdict.  The traces are then checked in suite order, each against the
    requirements not yet decided, so a requirement is decided by the first
    test that violates it or raises while it is checked.

    A test of a suite generate_suite returned for this model object is not
    unwound again where its lasso is within step_cap: the lasso_rows built
    to scan its goals are evaluated on, with the same verdicts.  A parsed
    suite or a replay is unwound here, and execution keeps nothing.
    """
    lassos = getattr(suite, "_lassos", {})  # see sim.TestSuite
    traces = []  # (trace, its lasso_rows from generation or None)
    for case in suite.cases:
        held = lassos.get(case.tid)
        if held and held[0].case is case and held[0].model is model \
                and held[0].positions <= step_cap:
            traces.append((held[0], held))
            continue
        try:
            traces.append((simulate_lasso(model, case, step_cap=step_cap),
                           None))
        except ModelError as err:
            broken = f"test={case.tid} {err}"
            return ExecutionReport(verdicts=tuple(
                ReqVerdict(req.rid, "error", message=broken)
                for req in reqs))

    decided = {}  # requirement index -> verdict
    orders = {}  # the postorders of the traces unwound here
    for trace, held in traces:
        if len(decided) == len(reqs):
            break
        if held is None:
            held = ltl.lasso_rows(trace, orders)
        for i, req in enumerate(reqs):
            if i in decided:
                continue
            try:
                holds = eval_on_lasso(req.formula, trace, 0, held)
            except ModelError as err:
                decided[i] = ReqVerdict(
                    req.rid, "error", message=f"test={trace.case.tid} {err}")
                continue
            if not holds:
                decided[i] = ReqVerdict(req.rid, "violated",
                                        test_id=trace.case.tid, trace=trace)
    return ExecutionReport(verdicts=tuple(
        decided.get(i, ReqVerdict(req.rid, "pass"))
        for i, req in enumerate(reqs)))
