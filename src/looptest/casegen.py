"""Built-in case studies: a multi-floor elevator and a pick-and-place cell.

Both builders write the model and its requirement list as .clm and .ltl
text, sized by one parameter, with loops writing out the parts repeated
per floor, cylinder or tray, and build both with the parser; the file
texts they give back are the canonical text of what was parsed.  The
requirement families come in matched pairs: a family that the controller
is designed to satisfy (expect-pass) and a deliberately broken variant of
each property (expect-fail) for exercising the violation-hunting side of
the toolkit.
"""

from __future__ import annotations

from collections import namedtuple

from .dsl import parse_model, parse_reqs, serialize_model, serialize_reqs
from .model import validate_model


class CaseStudy(namedtuple("CaseStudy", "name model reqs model_text "
                                        "reqs_text suggested_max_len")):
    __slots__ = ()


# --------------------------------------------------------------------------
# Elevator


def elevator(n: int) -> CaseStudy:
    """An n-floor elevator with latched call buttons and timed doors.

    Plant: cabin position in third-of-floor units, a door state machine per
    floor, sensor and button-latch inputs.  Controller: a six-tick door
    service cycle (doors stay fully open for three steps and reopen from
    closing within two), and up-before-down target selection, so when the
    cabin sits mid-building with calls both above and below it always goes
    up first.
    """
    if n < 2:
        raise ValueError("the elevator needs at least 2 floors")
    top = 3 * (n - 1)
    floors = range(n)

    plant = "".join(f"""\
  door_state[{f}] = open[{f}]
    ? (door_state[{f}] == d_closed || door_state[{f}] == d_closing
       ? d_opening : d_open)
    : door_state[{f}] == d_open || door_state[{f}] == d_opening
      ? d_closing : d_closed;
""" for f in floors)
    plant += "".join(f"  on_floor[{f}] = elevator_pos == {3 * f};\n"
                     for f in floors)
    plant += "".join(f"  door_closed[{f}] = door_state[{f}] == d_closed;\n"
                     for f in floors)
    plant += "".join(f"  door_open[{f}] = door_state[{f}] == d_open;\n"
                     for f in floors)
    plant += "".join(f"""\
  button[{f}] = on_floor[{f}] && door_open[{f}] ? false
    : button[{f}] || user_cabin_button[{f}];
""" for f in floors)
    plant += "".join(f"""\
  call[{f}] = on_floor[{f}] && door_open[{f}] ? false
    : call[{f}] || user_floor_button[{f}];
""" for f in floors)
    cur_req = " || ".join(f"on_floor[{f}] && (button[{f}] || call[{f}])"
                          for f in floors)
    cur_closed = " || ".join(f"on_floor[{f}] && door_closed[{f}]"
                             for f in floors)
    req_above = " || ".join(
        f"elevator_pos < {3 * f} && (button[{f}] || call[{f}])"
        for f in range(1, n))
    req_below = " || ".join(
        f"elevator_pos > {3 * f} && (button[{f}] || call[{f}])"
        for f in range(n - 1))
    all_closed = " && ".join(f"door_closed[{f}]" for f in floors)
    opens = "".join(
        f"  open[{f}] = on_floor[{f}] && door_timer >= 1 && door_timer <= 4;\n"
        for f in floors)
    model = f"""\
model elevator{n};
nondet user_floor_button[{n}] : bool;
nondet user_cabin_button[{n}] : bool;
input on_floor[{n}] : bool = false;
input door_closed[{n}] : bool = true;
input door_open[{n}] : bool = false;
input button[{n}] : bool = false;
input call[{n}] : bool = false;
output up : bool = false;
output down : bool = false;
output open[{n}] : bool = false;
plantvar elevator_pos : int 0..{top} = 0;
plantvar door_state[{n}] : enum {{ d_closed, d_opening, d_open, d_closing }}
  = d_closed;
ctrlvar door_timer : int 0..5 = 0;
ctrlvar dir : int -1..1 = 0;
plant {{
  elevator_pos = up ? (elevator_pos < {top} ? elevator_pos + 1 : elevator_pos)
    : down ? (elevator_pos > 0 ? elevator_pos - 1 : elevator_pos)
    : elevator_pos;
{plant}
}}
controller {{
  door_timer = door_timer == 0 ? (({cur_req}) && ({cur_closed}) ? 1 : 0)
    : door_timer <= 3 ? door_timer + 1
    : door_timer == 4 ? 5
    : {cur_closed} ? 0
    : {cur_req} ? 1
    : 5;
  dir = door_timer != 0 ? 0
    : elevator_pos mod 3 != 0 ? dir
    : {req_above} ? 1
    : {req_below} ? -1
    : 0;
  up = dir == 1 && ({all_closed});
  down = dir == -1 && ({all_closed});
{opens}
}}
"""

    away = " && ".join(f"!on_floor[{f}]" for f in floors)
    passing = failing = ""
    for f in floors:
        others = " || ".join(f"(button[{g}] || call[{g}])"
                             for g in floors if g != f)
        passing += f"""\
ERT_1_{f + 1} expect-pass : X G ({away} -> door_closed[{f}]);
ERT_2_{f + 1} expect-pass : G (button[{f}] || call[{f}]
  -> F (on_floor[{f}] && door_open[{f}] || ({others})));
ERT_3_{f + 1} expect-pass : G (!door_open[{f}] && X door_open[{f}]
  -> X X door_open[{f}] && X X X door_open[{f}] && X X X X !door_open[{f}]);
ERT_4_{f + 1} expect-pass : G (door_open[{f}]
  && X (!door_open[{f}] && !door_closed[{f}] && (button[{f}] || call[{f}]))
  -> X X X door_open[{f}]);
"""
        # broken variants: doors open while away, no alternative service,
        # one open step instead of three, reopen in one step instead of two
        failing += f"""\
ERF_1_{f + 1} expect-fail : X G ({away} -> door_open[{f}]);
ERF_2_{f + 1} expect-fail : G (button[{f}] || call[{f}]
  -> F (on_floor[{f}] && door_open[{f}]));
ERF_3_{f + 1} expect-fail : G (!door_open[{f}] && X door_open[{f}]
  -> X X door_open[{f}] && X X X !door_open[{f}]);
ERF_4_{f + 1} expect-fail : G (door_open[{f}]
  && X (!door_open[{f}] && !door_closed[{f}] && (button[{f}] || call[{f}]))
  -> X X door_open[{f}]);
"""
    return _finish(model, passing + failing, _elevator_header(n), 3 * n + 6)


def _elevator_header(n: int) -> str:
    return (f"// elevator case study with {n} floors\n"
            f"// suggested generation bound: max test length {3 * n + 6}"
            f" (deepest interesting violation sits near step {3 * n + 5})\n")


# --------------------------------------------------------------------------
# Pick-and-place


def pnp(n: int) -> CaseStudy:
    """A pick-and-place cell: n horizontal cylinders, one vertical, suction.

    Input tray j (1-based) sits at the extension pattern spelled by the
    binary encoding of j: bit b set means cylinder b extended.  Cylinder b
    travels through 2^b + 1 positions, one per step, so reaching high trays
    takes exponentially long.  The output tray sits at the all-retracted
    position.  The controller always serves the occupied tray with the
    smallest number, moves one cylinder at a time (lowest index first), and
    only lowers the vertical cylinder once the horizontals settle on the
    target pattern.
    """
    if n < 2:
        raise ValueError("the cell needs at least 2 horizontal cylinders")
    trays = 2 ** n - 1
    cyls = range(n)

    def match(j: int) -> str:
        # tray j is 1-based; bit b set means cylinder b fully extended
        return " && ".join(f"hpos_{b} == {2 ** b if (j >> b) & 1 else 0}"
                           for b in cyls)

    def desired(b: int) -> str:
        return " || ".join(f"target == {j}" for j in range(1, trays + 1)
                           if (j >> b) & 1)

    def mismatch(b: int) -> str:
        return f"({desired(b)} ? !at_end[{b}] : !at_home[{b}])"

    hpos = "".join(f"plantvar hpos_{b} : int 0..{2 ** b} = 0;\n" for b in cyls)
    moves = "".join(f"""\
  hpos_{b} = extend[{b}] ? (hpos_{b} < {2 ** b} ? hpos_{b} + 1 : hpos_{b})
    : hpos_{b} > 0 ? hpos_{b} - 1 : hpos_{b};
""" for b in cyls)
    grab = " || ".join(f"wp[{t}] && ({match(t + 1)})" for t in range(trays))
    trayed = "".join(f"""\
  wp[{t}] = grabbed && ({match(t + 1)}) ? wp_add[{t}] : wp[{t}] || wp_add[{t}];
""" for t in range(trays))
    sensed = "".join(f"  at_home[{b}] = hpos_{b} == 0;\n" for b in cyls)
    sensed += "".join(f"  at_end[{b}] = hpos_{b} == {2 ** b};\n" for b in cyls)
    pick = "".join(f"wp[{t}] ? {t + 1} : " for t in range(trays)) + "0"
    extends = ""
    for b in cyls:
        turn = " && ".join(["v_home", mismatch(b)]
                           + [f"!{mismatch(c)}" for c in range(b)])
        extends += f"  extend[{b}] = {turn} ? {desired(b)} : at_end[{b}];\n"
    settled = " && ".join(f"({desired(b)} ? at_end[{b}] : at_home[{b}])"
                          for b in cyls)
    settled_home = " && ".join(f"at_home[{b}]" for b in cyls)
    model = f"""\
model pnp{n};
nondet wp_add[{trays}] : bool;
input at_home[{n}] : bool = true;
input at_end[{n}] : bool = false;
input v_home : bool = true;
input v_end : bool = false;
input wp[{trays}] : bool = false;
input holding : bool = false;
output extend[{n}] : bool = false;
output vext : bool = false;
output suck : bool = false;
{hpos}
plantvar vpos : int 0..2 = 0;
plantvar held : bool = false;
plantvar grabbed : bool = false;
ctrlvar target : int 0..{trays} = 0;
plant {{
{moves}
  vpos = vext ? (vpos < 2 ? vpos + 1 : vpos)
    : vpos > 0 ? vpos - 1 : vpos;
  grabbed = !held && suck && vpos == 2 && ({grab});
{trayed}
  held = grabbed ? true : held && suck;
{sensed}
  v_home = vpos == 0;
  v_end = vpos == 2;
  holding = held;
}}
controller {{
  target = holding ? 0 : v_home ? ({pick}) : target;
{extends}
  vext = {settled} && (holding || target != 0);
  suck = !holding && target != 0 && ({settled})
    || holding && !({settled_home} && v_end);
}}
"""

    def pattern(j: int) -> str:
        return " && ".join(f"at_end[{b}]" if (j >> b) & 1 else f"at_home[{b}]"
                           for b in cyls)

    drop_out = f"!holding && {settled_home} && v_end"
    init_pos = f"!holding && {settled_home} && v_home"
    astray = "v_home && (" + " || ".join(f"at_end[{b}]" for b in cyls) + ")"
    passing = failing = ""
    for t in range(trays):
        j = t + 1
        take = f"holding && {pattern(j)} && v_end"
        passing += f"""\
PRT_1_{j} expect-pass : G (wp[{t}]
  -> F ({take} && F ({drop_out} && F ({init_pos}))));
PRT_2_{j} expect-pass : G (wp[{t}] -> F (!wp[{t}] || wp_add[{t}]));
PRT_3_{j} expect-pass : !({pattern(j)} && v_end) U wp[{t}]
  || G !({pattern(j)} && v_end);
"""
        # broken variants: wrong final posture, no re-add escape hatch,
        # alignment judged on the horizontals alone
        failing += f"""\
PRF_1_{j} expect-fail : G (wp[{t}]
  -> F ({take} && F ({drop_out} && F ({astray}))));
PRF_2_{j} expect-fail : G (wp[{t}] -> F !wp[{t}]);
"""
        if j < trays:
            failing += f"""\
PRF_3_{j} expect-fail : !({pattern(j)}) U wp[{t}] || G !({pattern(j)});
"""
    if n <= 4:
        max_len = 11
    elif n == 5:
        max_len = 17
    else:
        max_len = 2 ** n + 12
    return _finish(model, passing + failing, _pnp_header(n, max_len), max_len)


def _pnp_header(n: int, max_len: int) -> str:
    return (f"// pick-and-place case study with {n} horizontal cylinders"
            f" and {2 ** n - 1} input trays\n"
            f"// suggested generation bound: max test length {max_len};"
            f" a full deliver-and-return cycle takes about {2 ** n + 12}"
            " steps\n")


# --------------------------------------------------------------------------


def _finish(model_text: str, reqs_text: str, header: str,
            max_len: int) -> CaseStudy:
    model = parse_model(model_text)
    diags = validate_model(model)
    if diags:
        listing = "; ".join(str(d) for d in diags)
        raise AssertionError(f"generated model failed validation: {listing}")
    reqs = parse_reqs(reqs_text, model)
    return CaseStudy(name=model.name, model=model, reqs=reqs,
                     model_text=header + serialize_model(model),
                     reqs_text=header + serialize_reqs(reqs),
                     suggested_max_len=max_len)


BUILDERS = {"elevator": elevator, "pnp": pnp}


def build(kind: str, n: int) -> CaseStudy:
    if kind not in BUILDERS:
        known = ", ".join(sorted(BUILDERS))
        raise ValueError(f"unknown case study {kind!r} (known: {known})")
    return BUILDERS[kind](n)
