"""Lasso detection, trace dumps, and test case validation."""

import random

import pytest

from looptest.dsl import parse_model
from looptest.model import DomainViolation, EvalError, ModelError
from looptest.sim import (
    EmptyTestCase,
    StepCapExceeded,
    TestCase,
    TestSuite,
    dump_trace,
    simulate_lasso,
    validate_test,
)

import oracles
import randgen


COUNTER = """
model counter;
nondet u : bool;
input x : int 0..2 = 0;
plant { x = (x + 1) mod 3; }
controller { }
"""


def test_loop_detection_uses_test_phase_not_just_state():
    # x cycles with period 3, the test with period 2; the combined period is
    # 6, and closing on the bare state would cut the lasso short at step 3.
    m = parse_model(COUNTER)
    case = TestCase(tid="t0", variables=("u",), rows=((False,), (True,)))
    trace = simulate_lasso(m, case)
    assert trace.prefix_len == 0
    assert trace.loop_len == 6
    assert trace.states == [(0,), (1,), (2,), (0,), (1,), (2,)]


def test_prefix_forms_before_a_saturating_loop():
    m = parse_model("""
model sat;
nondet u : bool;
input x : int 0..2 = 0;
plant { x = x < 2 ? x + 1 : 2; }
controller { }
""")
    case = TestCase(tid="t0", variables=("u",), rows=((False,),))
    trace = simulate_lasso(m, case)
    assert trace.prefix_len == 2
    assert trace.loop_len == 1
    assert trace.states == [(0,), (1,), (2,)]


def test_wrap_nondet_is_the_closing_column():
    m = parse_model(COUNTER)
    case = TestCase(tid="t0", variables=("u",),
                    rows=((True,), (False,), (True,)))
    trace = simulate_lasso(m, case)
    # period 3 test over period 3 dynamics: closes after one pass, and the
    # wrap applies row 2 again on the way back to position 0
    assert trace.prefix_len == 0
    assert trace.loop_len == 3
    assert trace.wrap_nondet == {"u": True}
    assert trace.nondet[0] is None
    assert trace.nondet[1] == {"u": True}
    assert trace.nondet[2] == {"u": False}


def test_position_zero_shows_defaults_in_dump():
    m = parse_model(COUNTER)
    case = TestCase(tid="t0", variables=("u",), rows=((True,),))
    trace = simulate_lasso(m, case)
    text = dump_trace(trace)
    lines = text.split("\n")
    assert lines[0] == "#0 loop-start u=0 x=0"
    assert lines[1] == "#1 u=1 x=1"
    assert lines[2] == "#2 u=1 x=2"
    assert len(lines) == 3


def test_dump_marks_loop_start_inside_prefix_traces():
    m = parse_model("""
model sat2;
nondet u : bool;
input x : int 0..2 = 0;
plant { x = x < 2 ? x + 1 : 2; }
controller { }
""")
    case = TestCase(tid="t0", variables=("u",), rows=((False,),))
    text = dump_trace(simulate_lasso(m, case))
    assert text.split("\n")[2].startswith("#2 loop-start ")


def test_dump_renders_enum_labels():
    m = parse_model("""
model lamp;
nondet u : bool;
input mode : enum { off, on } = off;
plant { mode = u ? on : off; }
controller { }
""")
    case = TestCase(tid="t0", variables=("u",), rows=((True,),))
    text = dump_trace(simulate_lasso(m, case))
    assert "mode=off" in text.split("\n")[0]
    assert "mode=on" in text.split("\n")[1]


def test_simulation_respects_step_cap():
    m = parse_model("""
model wide;
nondet u : bool;
input x : int 0..9999 = 0;
plant { x = x < 9999 ? x + 1 : 0; }
controller { }
""")
    case = TestCase(tid="t0", variables=("u",), rows=((False,),))
    with pytest.raises(StepCapExceeded):
        simulate_lasso(m, case, step_cap=100)


def test_case_length_counts_rows():
    case = TestCase(tid="t0", variables=("a", "b"),
                    rows=((1, True), (2, False)))
    assert case.length == 2


def test_suite_lookup_and_element_count():
    c0 = TestCase(tid="t0", variables=("u",), rows=((True,),))
    c1 = TestCase(tid="t1", variables=("u",), rows=((True,), (False,)))
    suite = TestSuite(variables=("u",), cases=(c0, c1))
    assert suite.element_count == 3
    assert suite.case("t1") is c1
    with pytest.raises(KeyError):
        suite.case("t9")


def test_validate_test_accepts_good_case():
    m = parse_model(COUNTER)
    case = TestCase(tid="t0", variables=("u",), rows=((True,), (False,)))
    assert validate_test(m, case) == []


def test_validate_test_rejects_wrong_variables():
    m = parse_model(COUNTER)
    case = TestCase(tid="t0", variables=("v",), rows=((True,),))
    diags = validate_test(m, case)
    assert any("do not match" in d.message for d in diags)


def test_validate_test_rejects_bad_rows():
    m = parse_model(COUNTER)
    case = TestCase(tid="t0", variables=("u",), rows=((True, False),))
    assert any("expected 1" in d.message for d in validate_test(m, case))
    case = TestCase(tid="t0", variables=("u",), rows=((3,),))
    assert any("outside domain" in d.message for d in validate_test(m, case))
    case = TestCase(tid="t0", variables=("u",), rows=())
    assert any("at least one row" in d.message for d in validate_test(m, case))


ORDER = """
model order;
nondet u : int 0..2;
input x : int -9..9 = 0;
plant { x = 6 / (u - 1); }
controller { }
"""


def test_a_bad_value_in_the_first_row_fails_the_first_step():
    m = parse_model(ORDER)
    case = TestCase(tid="t0", variables=("u",), rows=((3,), (0,)))
    with pytest.raises(DomainViolation) as caught:
        simulate_lasso(m, case)
    assert str(caught.value) == "nondet value: value 3 outside domain of 'u'"


def test_a_bad_value_in_a_later_row_fails_the_step_applying_it():
    m = parse_model(ORDER)
    case = TestCase(tid="t0", variables=("u",), rows=((0,), (2,), (3,)))
    with pytest.raises(DomainViolation) as caught:
        simulate_lasso(m, case)
    assert (caught.value.name, caught.value.value) == ("u", 3)
    # two steps run before row 2 is applied
    with pytest.raises(StepCapExceeded):
        simulate_lasso(m, case, step_cap=2)


def test_an_earlier_steps_error_wins_over_a_later_bad_value():
    m = parse_model(ORDER)
    case = TestCase(tid="t0", variables=("u",), rows=((0,), (1,), (3,)))
    with pytest.raises(EvalError, match="division by zero"):
        simulate_lasso(m, case)


def test_a_missing_nondet_name_raises_key_error():
    m = parse_model(ORDER)
    case = TestCase(tid="t0", variables=("v",), rows=((0,),))
    with pytest.raises(KeyError):
        simulate_lasso(m, case)


def test_a_case_without_rows_raises_a_model_error():
    m = parse_model(COUNTER)
    case = TestCase(tid="t0", variables=("u",), rows=())
    with pytest.raises(EmptyTestCase) as caught:
        simulate_lasso(m, case)
    assert isinstance(caught.value, ModelError)
    assert str(caught.value) == "test 't0' needs at least one row"


# --------------------------------------------------------------------------
# Unwinding in row passes against the pair-by-pair reference


def _outcome(unwind, *args):
    try:
        return unwind(*args)
    except ModelError as err:
        return type(err), str(err)


def _random_lassos(count, seed=26):
    """(model, case) pairs of randgen models and cases of 1 to 8 rows."""
    rng = random.Random(seed)
    for i in range(count):
        model = randgen.random_model(rng)
        yield model, randgen.random_case(rng, model, tid=f"t{i}", max_rows=8)


def test_row_passes_match_the_reference_lasso_under_every_cap():
    first_pass = many_passes = 0
    for model, case in _random_lassos(150):
        want = oracles.reference_lasso(model, case, 10 ** 6)
        end = want.prefix_len + want.loop_len
        first_pass += want.prefix_len == 0 and want.loop_len == case.length
        many_passes += end > 3 * case.length
        for cap in range(end + 2):
            assert _outcome(simulate_lasso, model, case, cap) == \
                _outcome(oracles.reference_lasso, model, case, cap), \
                (case, cap)
    # both shapes are exercised: lassos closing at the end of the first
    # pass, and lassos found only after more than three passes
    assert first_pass >= 20 and many_passes >= 10


def test_at_most_l_minus_one_steps_run_past_the_lasso():
    overshoot = set()
    for model, case in _random_lassos(100, seed=27):
        compiled = model.compiled()
        run = compiled.run
        calls = []

        def counting(s, column, run=run, calls=calls):
            calls.append(s)
            return run(s, column)

        compiled.run = counting
        trace = simulate_lasso(model, case)
        assert trace.positions <= len(calls) \
            <= trace.positions + case.length - 1
        overshoot.add(len(calls) - trace.positions)
    assert max(overshoot) > 0  # some lassos close inside a pass


def test_each_rows_column_is_built_once():
    many_passes = 0
    for model, case in _random_lassos(100, seed=28):
        compiled = model.compiled()
        column = compiled.column
        for cap in (case.length - 1, 10 ** 6):
            calls = []

            def counting(nondet, column=column, calls=calls):
                calls.append(nondet)
                return column(nondet)

            compiled.column = counting
            trace = _outcome(simulate_lasso, model, case, cap)
            # one per row of the first pass, which the cap may cut short
            assert len(calls) == min(case.length, cap), (case, cap)
        many_passes += trace.positions > 2 * case.length
    assert many_passes >= 10


LATER = """
model later;
nondet u : bool;
input x : int 0..9 = 0;
ctrlvar y : int -9..9 = 0;
plant { x = x < 9 ? x + 1 : 9; }
controller { y = 6 / (x - 5); }
"""


@pytest.mark.parametrize("length", [1, 2, 3])
def test_a_cap_below_a_failing_later_step_wins_over_its_error(length):
    # step 4 divides by zero: in the fifth pass of one row, the third of
    # two rows, midway through the second of three
    m = parse_model(LATER)
    case = TestCase(tid="t0", variables=("u",),
                    rows=((False,), (True,), (False,))[:length])
    for cap in range(8):
        got = _outcome(simulate_lasso, m, case, cap)
        assert got == _outcome(oracles.reference_lasso, m, case, cap)
        if cap <= 4:
            assert got == (StepCapExceeded,
                           f"no lasso within {cap} steps for test 't0'")
        else:
            assert got == (EvalError, "division by zero")
