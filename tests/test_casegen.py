"""Generated case studies: structure, texts, and behavioral invariants."""

import random

import pytest

from looptest import casegen
from looptest.dsl import parse_model, parse_reqs
from looptest.ltl import position_envs
from looptest.model import IntRange, VarKind
from looptest.sim import TestCase, simulate_lasso

import randgen


ELEV3 = casegen.build("elevator", 3)
PNP2 = casegen.build("pnp", 2)


def _kind_counts(model):
    counts = {kind: 0 for kind in VarKind}
    for v in model.variables:
        counts[v.kind] += 1
    return counts


# --------------------------------------------------------------------------
# Elevator structure


def test_elevator_variable_counts():
    counts = _kind_counts(ELEV3.model)
    assert counts[VarKind.NONDET] == 6
    assert counts[VarKind.INPUT] == 15
    assert counts[VarKind.OUTPUT] == 5
    small = _kind_counts(casegen.elevator(2).model)
    assert small[VarKind.NONDET] == 4
    assert small[VarKind.INPUT] == 10
    assert small[VarKind.OUTPUT] == 4


def test_elevator_requirement_families():
    assert len(ELEV3.reqs) == 24
    byid = {r.rid: r for r in ELEV3.reqs}
    for fam in range(1, 5):
        for floor in range(1, 4):
            assert byid[f"ERT_{fam}_{floor}"].expectation == "expect-pass"
            assert byid[f"ERF_{fam}_{floor}"].expectation == "expect-fail"
    assert len(casegen.elevator(2).reqs) == 16


def test_elevator_requirement_text():
    lines = ELEV3.reqs_text.splitlines()
    assert lines[0] == "// elevator case study with 3 floors"
    assert lines[2] == ("ERT_1_1 expect-pass : X G (!on_floor[0] &&"
                        " !on_floor[1] && !on_floor[2] -> door_closed[0]);")


def test_elevator_texts_parse_back():
    assert parse_model(ELEV3.model_text) == ELEV3.model
    back = parse_reqs(ELEV3.reqs_text, ELEV3.model)
    assert [(r.rid, r.formula, r.expectation) for r in back] == \
        [(r.rid, r.formula, r.expectation) for r in ELEV3.reqs]


def test_elevator_suggested_bound_scales_with_floors():
    assert ELEV3.suggested_max_len == 15
    assert casegen.elevator(4).suggested_max_len == 18
    assert "max test length 15" in ELEV3.model_text


# --------------------------------------------------------------------------
# Elevator behavior


def _state_index(model, name):
    """Where a state variable sits in the model's state tuples."""
    return [v.name for v in model.state_variables()].index(name)


def test_elevator_car_moves_one_position_per_step():
    model = casegen.elevator(2).model
    rng = random.Random(7)
    for i in range(10):
        case = randgen.random_case(rng, model, tid=f"c{i}", max_rows=5)
        trace = simulate_lasso(model, case)
        positions = [s[_state_index(model, "elevator_pos")]
                     for s in trace.states]
        for a, b in zip(positions, positions[1:]):
            assert abs(a - b) <= 1


ALLOWED_DOOR_MOVES = {
    "d_closed": {"d_closed", "d_opening"},
    "d_opening": {"d_open", "d_closing"},
    "d_open": {"d_open", "d_closing"},
    "d_closing": {"d_closed", "d_opening"},
}


def test_elevator_doors_never_skip_a_phase():
    model = casegen.elevator(2).model
    rng = random.Random(8)
    for i in range(10):
        case = randgen.random_case(rng, model, tid=f"c{i}", max_rows=5)
        trace = simulate_lasso(model, case)
        for f in range(2):
            slot = _state_index(model, f"door_state.{f}")
            seq = [s[slot] for s in trace.states]
            for a, b in zip(seq, seq[1:]):
                assert b in ALLOWED_DOOR_MOVES[a], (a, b)


def test_elevator_door_stays_open_three_steps():
    model = casegen.elevator(2).model
    names = tuple(v.name for v in model.nondet_variables())
    press = tuple(name == "user_cabin_button.0" for name in names)
    idle = (False,) * len(names)
    case = TestCase(tid="press", variables=names,
                    rows=(press,) + (idle,) * 7)
    trace = simulate_lasso(model, case)
    opened = [s[_state_index(model, "door_open.0")] for s in trace.states]
    first = opened.index(True)
    assert opened[first:first + 4] == [True, True, True, False]


# --------------------------------------------------------------------------
# Pick-and-place structure


def test_pnp_variable_counts():
    counts = _kind_counts(PNP2.model)
    assert counts[VarKind.NONDET] == 3
    assert counts[VarKind.INPUT] == 10
    assert counts[VarKind.OUTPUT] == 4
    wide = _kind_counts(casegen.pnp(3).model)
    assert wide[VarKind.NONDET] == 7
    assert wide[VarKind.INPUT] == 16
    assert wide[VarKind.OUTPUT] == 5


def test_pnp_requirement_families():
    rids = [r.rid for r in PNP2.reqs]
    assert len(rids) == 17
    assert [r for r in rids if r.startswith("PRT")] == [
        f"PRT_{fam}_{j}" for j in (1, 2, 3) for fam in (1, 2, 3)]
    # the horizontal-alignment mutation is vacuous for the top tray, so
    # PRF_3 stops one tray short
    assert [r for r in rids if r.startswith("PRF_3")] == [
        "PRF_3_1", "PRF_3_2"]
    for r in PNP2.reqs:
        want = "expect-pass" if r.rid.startswith("PRT") else "expect-fail"
        assert r.expectation == want
    assert len(casegen.pnp(3).reqs) == 41


def test_pnp_longest_cylinder_has_power_of_two_stroke():
    model = casegen.pnp(3).model
    assert model.var("hpos_2").domain == IntRange(0, 4)
    assert model.var("hpos_0").domain == IntRange(0, 1)


def test_pnp_suggested_bounds():
    assert PNP2.suggested_max_len == 11
    assert casegen.pnp(4).suggested_max_len == 11
    assert casegen.pnp(5).suggested_max_len == 17


def test_pnp_texts_parse_back():
    assert parse_model(PNP2.model_text) == PNP2.model
    back = parse_reqs(PNP2.reqs_text, PNP2.model)
    assert [(r.rid, r.formula) for r in back] == \
        [(r.rid, r.formula) for r in PNP2.reqs]


# --------------------------------------------------------------------------
# Pick-and-place behavior


def test_pnp_controller_serves_lowest_occupied_tray():
    model = PNP2.model
    rng = random.Random(9)
    for i in range(10):
        case = randgen.random_case(rng, model, tid=f"c{i}", max_rows=5)
        envs, _ = position_envs(simulate_lasso(model, case))
        for env in envs:
            if env["holding"] or not env["v_home"]:
                continue
            occupied = [t + 1 for t in range(3) if env[f"wp.{t}"]]
            want = occupied[0] if occupied else 0
            assert env["target"] == want


# --------------------------------------------------------------------------
# Construction guards


def test_all_supported_sizes_validate():
    for n in (2, 3, 4):
        casegen.build("elevator", n)
        casegen.build("pnp", n)


def test_too_small_sizes_are_rejected():
    with pytest.raises(ValueError, match="at least 2 floors"):
        casegen.elevator(1)
    with pytest.raises(ValueError, match="at least 2 horizontal"):
        casegen.pnp(1)


def test_unknown_case_study_name():
    with pytest.raises(ValueError, match="elevator, pnp"):
        casegen.build("boiler", 2)
