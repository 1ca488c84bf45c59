"""The benchmark's workloads: their inputs, one timed operation, and checks.

Every operation starts from text, as the command line does: it parses the
model and requirements (and, for replay, the suite) on each call, so
per-model work such as a lowering or a symbolic encoding is paid every time.

The model and requirement files under ``inputs/`` are the output of
``casegen.elevator(3)`` and ``casegen.pnp(3)`` at the commit that defined
the benchmark; keeping them as data means a change to ``casegen`` cannot
silently change what is measured.  The replay suite is generated here from
the seed, and the program only ever sees its ``.cts`` text.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
INPUT_DIR = os.path.join(BENCH_DIR, "inputs")
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")

# Replay suites: one test of each of these lengths (rows).
REPLAY_LENGTHS = range(3, 31, 3)
# Seed N replays suite N mod REPLAY_SUITES; pins.json pins every one of them.
REPLAY_SUITES = 64


@dataclass(frozen=True)
class Workload:
    name: str
    case: str            # basename of the .clm/.ltl pair under inputs/
    kind: str            # "generate" | "replay"
    bound: int = 0       # generation bound (max test length)
    goals: str = ""      # generation goal mode


WORKLOADS = {
    w.name: w for w in (
        # The three ERT_1_f goals are unreachable, so the search runs to the
        # full bound: exploration dominates.
        Workload("elevator3-saturate", "elevator3", "generate", 15,
                 "maximal"),
        # Every goal is met within 2 of the 11 layers, so the search stops
        # early: time splits between a shallow search, goal scans and LTL.
        Workload("pnp3-lazy", "pnp3", "generate", 11, "all"),
        # Stored random suite: no search, long lassos, simulation and LTL.
        Workload("pnp3-replay", "pnp3", "replay"),
    )
}


@dataclass
class Inputs:
    model_text: str
    reqs_text: str
    suite_text: Optional[str] = None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def read_input(name: str) -> str:
    with open(os.path.join(INPUT_DIR, name), encoding="utf-8") as handle:
        return handle.read()


# --------------------------------------------------------------------------
# Seeded replay suites

_NONDET_DECL = re.compile(
    r"^nondet\s+(\w+)(?:\[(\d+)\])?\s*:\s*(bool|int\s+(-?\d+)\.\.(-?\d+))\s*;",
    re.MULTILINE)


def nondet_columns(model_text: str) -> list:
    """(surface name, value texts) per nondet column, in declaration order.

    Read straight from the model text, so the generator does not depend on
    the program's own model classes.  Handles bool and int-range nondets,
    which is all the case studies use.
    """
    columns = []
    for match in _NONDET_DECL.finditer(model_text):
        name, size, kind, lo, hi = match.groups()
        if kind == "bool":
            values = ["0", "1"]
        else:
            values = [str(v) for v in range(int(lo), int(hi) + 1)]
        if size is None:
            columns.append((name, values))
        else:
            columns.extend((f"{name}[{i}]", values) for i in range(int(size)))
    if not columns:
        raise ValueError("model declares no nondet variables")
    return columns


def replay_suite_text(model_text: str, seed: int) -> str:
    """A seeded random suite: one test of each length in REPLAY_LENGTHS,
    shortest first, every value drawn uniformly from its domain.

    The lasso length of a test is set mostly by its row count, so fixing
    the lengths keeps the work per suite nearly equal across seeds (with
    uniformly drawn lengths it varies by about 13%).  Shortest-first keeps
    the violation witnesses, whose traces the report prints, short.
    """
    rng = random.Random(seed)
    columns = nondet_columns(model_text)
    lines = ["suite " + ",".join(name for name, _ in columns)]
    for index, length in enumerate(REPLAY_LENGTHS):
        lines.append(f"test t{index} length {length}")
        for _ in range(length):
            lines.append(",".join(rng.choice(values)
                                  for _, values in columns))
    return "\n".join(lines) + "\n"


def make_inputs(workload: Workload, seed: int) -> Inputs:
    model_text = read_input(workload.case + ".clm")
    reqs_text = read_input(workload.case + ".ltl")
    suite_text = None
    if workload.kind == "replay":
        suite_text = replay_suite_text(model_text, seed % REPLAY_SUITES)
    return Inputs(model_text, reqs_text, suite_text)


def write_inputs(inputs: Inputs, work_dir: str):
    """Write model.clm and reqs.ltl, which the set-up probes load."""
    for name, text in (("model.clm", inputs.model_text),
                       ("reqs.ltl", inputs.reqs_text)):
        with open(os.path.join(work_dir, name), "w",
                  encoding="utf-8") as handle:
            handle.write(text)


# --------------------------------------------------------------------------
# One operation


@dataclass
class Result:
    """What one operation produced, as text, plus objects the checks read."""

    texts: dict          # artifact name -> text
    misses: list         # expectation misses, as [rid, tag, verdict]
    reqs: list
    model: object
    suite: object
    exec_report: object


def run_operation(workload: Workload, inputs: Inputs) -> Result:
    """The timed unit of work.  Calls go through module attributes so the
    traced run can rebind them."""
    # Imported here so run.py can load this module, and fail cleanly,
    # where the program is missing.
    from looptest import dsl, runner, testgen

    model = dsl.parse_model(inputs.model_text)
    reqs = dsl.parse_reqs(inputs.reqs_text, model)
    gen_report = None
    if workload.kind == "generate":
        config = testgen.GeneratorConfig(max_len=workload.bound,
                                         goal_mode=workload.goals)
        suite, gen_report = testgen.generate_suite(model, reqs, config)
    else:
        suite = dsl.parse_suite(inputs.suite_text, model)
    exec_report = runner.execute_suite(model, reqs, suite)
    texts = {"execution.txt": exec_report.text()}
    if gen_report is not None:
        texts["suite.cts"] = dsl.serialize_suite(suite)
        texts["generation.txt"] = gen_report.text()
    misses = [list(m) for m in exec_report.expectation_misses(reqs)]
    return Result(texts, misses, reqs, model, suite, exec_report)


# --------------------------------------------------------------------------
# Checks, all outside the timed region


def digests(result: Result) -> dict:
    return {name: sha256(text) for name, text in sorted(result.texts.items())}


def expected(workload: Workload, seed: int, pins: dict) -> dict:
    """Pinned digests and misses for this workload and seed."""
    entry = pins[workload.name]
    if workload.kind == "replay":
        return entry["seeds"][str(seed % REPLAY_SUITES)]
    return entry


def check_result(result: Result, want: dict,
                 suite_text: Optional[str]) -> list:
    """Mismatches between a result and its pins; empty when right."""
    problems = []
    if suite_text is not None and sha256(suite_text) != want["input"]:
        problems.append("replay input digest differs from its pin")
    for name, digest in digests(result).items():
        if want["artifacts"].get(name) != digest:
            problems.append(f"{name} digest differs from its pin")
    if result.misses != want["misses"]:
        problems.append(f"expectation misses {result.misses} differ from "
                        f"pinned {want['misses']}")
    return problems


def load_oracles(checkout: str):
    """tests/oracles.py, the independent reference evaluator."""
    import importlib.util

    path = os.path.join(checkout, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("looptest_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_check(result: Result, oracles) -> tuple:
    """Recheck every (requirement, test) verdict against the oracle.

    A requirement reported as passing must hold on every test; one reported
    violated must hold on every test before its witness and fail on the
    witness.  Returns (problems, lasso position counts of all tests).
    """
    from looptest import sim

    order = [case.tid for case in result.suite.cases]
    by_rid = {v.rid: v for v in result.exec_report.verdicts}
    claims = []  # (req, tid, expected truth)
    for req in result.reqs:
        verdict = by_rid[req.rid]
        if verdict.status == "pass":
            claims.extend((req, tid, True) for tid in order)
        elif verdict.status == "violated":
            stop = order.index(verdict.test_id)
            claims.extend((req, tid, True) for tid in order[:stop])
            claims.append((req, verdict.test_id, False))
    problems = [f"{v.rid}: {v.status} {v.message}"
                for v in result.exec_report.verdicts
                if v.status not in ("pass", "violated")]
    by_test = {}
    for req, tid, truth in claims:
        by_test.setdefault(tid, []).append((req, truth))
    positions = []
    for case in result.suite.cases:  # one trace alive at a time
        trace = sim.simulate_lasso(result.model, case)
        positions.append(trace.positions)
        for req, truth in by_test.get(case.tid, ()):
            if oracles.eval_trace(req.formula, trace) != truth:
                problems.append(
                    f"oracle disagrees on {req.rid} over test {case.tid}")
    return problems, positions
