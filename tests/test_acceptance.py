"""Release acceptance checks, one numbered criterion per test.

Each test prints a single summary line (visible with pytest -s, or in the
failure output otherwise) so a run reads as a checklist.  Criterion 6 runs
elevator n=3..8 past the range of explicit search; the bounded search
continues symbolically there (see the README section on scaling).  On a
2-vCPU host it reads "completed [n=3 0s, n=4 1s, n=5 1s, n=6 2s, n=7 4s,
n=8 3s] in 11s".
"""

import random
import time

import pytest

from looptest import casegen, ltl
from looptest.cli import main as cli_main
from looptest.model import ModelError, VarKind
from looptest.runner import execute_suite
from looptest.sim import simulate_lasso
from looptest.testgen import GeneratorConfig, enumerate_goals, generate_suite

import oracles
import randgen


def _line(number, ok, detail):
    word = "PASS" if ok else "FAIL"
    message = f"criterion {number}: {word} ({detail})"
    print(message)
    return message


def _pipeline(study):
    config = GeneratorConfig(max_len=study.suggested_max_len)
    start = time.monotonic()
    suite, gen_report = generate_suite(study.model, study.reqs, config)
    exec_report = execute_suite(study.model, study.reqs, suite)
    elapsed = time.monotonic() - start
    return suite, gen_report, exec_report, elapsed


@pytest.fixture(scope="module")
def elevator3_run():
    study = casegen.elevator(3)
    return (study,) + _pipeline(study)


@pytest.fixture(scope="module")
def pnp2_run():
    study = casegen.pnp(2)
    return (study,) + _pipeline(study)


def test_criterion_1_lasso_evaluation_matches_unrolling_oracle():
    rng = random.Random(2026)
    atoms = randgen.synthetic_atoms()
    total = 10_000
    mismatches = 0
    start = time.monotonic()
    for _ in range(total):
        trace = randgen.random_lasso(rng)
        formula = randgen.random_formula(rng, atoms, depth=4)
        envs, prefix = oracles.lasso_positions(trace)
        if ltl.eval_on_lasso(formula, trace) != \
                oracles.path_eval(formula, envs, prefix):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 30
    detail = f"{total - mismatches}/{total} matched in {elapsed:.1f}s"
    message = _line(1, ok, detail)
    assert ok, message


def test_criterion_2_violations_replay_identically(elevator3_run, pnp2_run):
    checked = 0
    discrepancies = []
    for study, _suite, _gen, report, _elapsed in (elevator3_run, pnp2_run):
        formulas = {r.rid: r.formula for r in study.reqs}
        for verdict in report.verdicts:
            if verdict.status != "violated":
                continue
            checked += 1
            again = simulate_lasso(study.model, verdict.trace.case)
            if again != verdict.trace:
                discrepancies.append(f"{verdict.rid}: trace drifted")
            elif oracles.eval_trace(formulas[verdict.rid], verdict.trace):
                discrepancies.append(f"{verdict.rid}: oracle disagrees")
    ok = checked > 0 and not discrepancies
    detail = f"{checked} violated verdicts replayed, " \
             f"{len(discrepancies)} discrepancies"
    message = _line(2, ok, detail)
    assert ok, message + "; " + "; ".join(discrepancies)


def test_criterion_3_goal_outcomes_match_exhaustive_enumeration():
    rng = random.Random(930)
    mismatches = []
    start = time.monotonic()
    models = 20
    for i in range(models):
        model = randgen.random_model(rng, name=f"acc{i}")
        atoms = randgen.model_atoms(model, include_nondet=True)
        reqs = [
            ltl.Requirement(f"R{j}",
                            randgen.random_formula(rng, atoms, depth=3))
            for j in range(2)
        ]
        mode = ("maximal", "all", "all-kinds")[i % 3]
        bound = 6
        suite, report = generate_suite(
            model, reqs, GeneratorConfig(max_len=bound, goal_mode=mode))
        goals = enumerate_goals(model, reqs, mode)
        depths = oracles.shortest_hits(
            model, [g.predicate for g in goals], bound)
        envs_of = {
            case.tid: oracles.lasso_positions(simulate_lasso(model, case))[0]
            for case in suite.cases
        }
        for goal, out, depth in zip(goals, report.outcomes, depths):
            if out.status == "COVERED":
                good = depth == out.position and oracles.reference_eval(
                    goal.predicate, envs_of[out.test_id][out.position])
            elif out.status == "SUBSUMED":
                good = any(oracles.reference_eval(goal.predicate, env)
                           for env in envs_of[out.test_id])
            else:
                good = depth is None
            if not good:
                mismatches.append(f"model {i} {goal.origin}: {out.status}")
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 60
    detail = f"{models} models agreed in {elapsed:.1f}s"
    message = _line(3, ok, detail)
    assert ok, message + "; " + "; ".join(mismatches[:5])


def test_criterion_4_elevator3_end_to_end(elevator3_run):
    _study, _suite, _gen, report, elapsed = elevator3_run
    status = {v.rid: v.status for v in report.verdicts}
    ert_pass = sum(1 for rid, st in status.items()
                   if rid.startswith("ERT") and st == "pass")
    erf1 = [status[f"ERF_1_{i}"] for i in (1, 2, 3)]
    erf_violated = sum(1 for rid, st in status.items()
                       if rid.startswith("ERF") and st == "violated")
    ok = (elapsed < 60 and ert_pass == 12
          and all(st == "violated" for st in erf1)
          and erf_violated >= 6)
    detail = (f"{elapsed:.1f}s, {ert_pass}/12 ERT pass, "
              f"ERF_1 all violated: {all(st == 'violated' for st in erf1)}, "
              f"{erf_violated}/12 ERF violated")
    message = _line(4, ok, detail)
    assert ok, message


def test_criterion_5_pnp2_end_to_end(pnp2_run):
    _study, _suite, _gen, report, elapsed = pnp2_run
    status = {v.rid: v.status for v in report.verdicts}
    prt_pass = sum(1 for rid, st in status.items()
                   if rid.startswith("PRT") and st == "pass")
    prf_violated = sum(1 for rid, st in status.items()
                       if rid.startswith("PRF") and st == "violated")
    ok = elapsed < 60 and prt_pass == 9 and prf_violated >= 2
    detail = (f"{elapsed:.1f}s, {prt_pass}/9 PRT pass, "
              f"{prf_violated}/8 PRF violated")
    message = _line(5, ok, detail)
    assert ok, message


def test_criterion_6_elevator_scaling_to_eight_floors():
    budget = 900.0
    start = time.monotonic()
    completed = []
    failure = None
    for n in range(3, 9):
        spent = time.monotonic() - start
        if spent >= budget:
            failure = f"budget spent before n={n} ({spent:.0f}s)"
            break
        study = casegen.elevator(n)
        config = GeneratorConfig(max_len=study.suggested_max_len)
        step_start = time.monotonic()
        try:
            suite, gen_report = generate_suite(study.model, study.reqs,
                                               config)
            execute_suite(study.model, study.reqs, suite)
        except ModelError as err:
            failure = f"n={n} aborted: {err}"
            break
        goals = len(enumerate_goals(study.model, study.reqs))
        if len(gen_report.outcomes) != goals:
            failure = f"n={n} left goals undecided"
            break
        completed.append(f"n={n} {time.monotonic() - step_start:.0f}s")
    total = time.monotonic() - start
    ok = failure is None and total < budget
    detail = f"completed [{', '.join(completed)}] in {total:.0f}s"
    if failure:
        detail += f"; {failure}"
    message = _line(6, ok, detail)
    assert ok, message


def test_criterion_7_pipeline_reruns_are_byte_identical(tmp_path):
    rc = cli_main(["casegen", "elevator", "--n", "4",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    artifacts = []
    for run in ("first", "second"):
        out_dir = tmp_path / run
        rc = cli_main(["pipeline",
                       "--model", str(tmp_path / "elevator4.clm"),
                       "--reqs", str(tmp_path / "elevator4.ltl"),
                       "--max-len", "18",
                       "--out-dir", str(out_dir)])
        assert rc in (0, 1)
        artifacts.append(tuple(
            (out_dir / name).read_bytes()
            for name in ("suite.cts", "generation.txt", "execution.txt")))
    ok = artifacts[0] == artifacts[1]
    message = _line(7, ok, "suite and both reports identical across reruns"
                    if ok else "rerun artifacts differ")
    assert ok, message


def test_criterion_8_case_study_variable_counts():
    def counts(model):
        tally = {kind: 0 for kind in VarKind}
        for v in model.variables:
            tally[v.kind] += 1
        return (tally[VarKind.NONDET], tally[VarKind.INPUT],
                tally[VarKind.OUTPUT])

    elevator = counts(casegen.elevator(3).model)
    pnp = counts(casegen.pnp(2).model)
    ok = elevator == (6, 15, 5) and pnp == (3, 10, 4)
    detail = (f"elevator n=3 nondet/input/output {'/'.join(map(str, elevator))}, "
              f"pnp n=2 {'/'.join(map(str, pnp))}")
    message = _line(8, ok, detail)
    assert ok, message
