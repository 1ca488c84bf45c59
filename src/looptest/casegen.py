"""Built-in case studies: a multi-floor elevator and a pick-and-place cell.

Both builders produce the model and its requirement list programmatically,
sized by one parameter, together with canonical file text.  The requirement
families come in matched pairs: a family that the controller is designed to
satisfy (expect-pass) and a deliberately broken variant of each property
(expect-fail) for exercising the violation-hunting side of the toolkit.
"""

from __future__ import annotations

from collections import namedtuple

from .model import (
    Assignment,
    Binary,
    ClosedLoopModel,
    BoolDomain,
    Cond,
    EnumDomain,
    Expr,
    IntRange,
    Lit,
    Ref,
    Unary,
    UpdateBlock,
    Variable,
    VarKind,
    validate_model,
)
from . import ltl
from .dsl import serialize_model, serialize_reqs


def _band(terms: list) -> Expr:
    out = terms[0]
    for t in terms[1:]:
        out = Binary("&&", out, t)
    return out


def _bor(terms: list) -> Expr:
    out = terms[0]
    for t in terms[1:]:
        out = Binary("||", out, t)
    return out


def _fand(parts: list) -> ltl.Formula:
    out = parts[0]
    for p in parts[1:]:
        out = ltl.And(out, p)
    return out


def _atom(name: str) -> ltl.Formula:
    return ltl.Atom(Ref(name))


def _natom(name: str) -> ltl.Formula:
    return ltl.Not(ltl.Atom(Ref(name)))


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

    variables = []
    for f in floors:
        variables.append(Variable(f"user_floor_button.{f}", VarKind.NONDET,
                                  BoolDomain()))
    for f in floors:
        variables.append(Variable(f"user_cabin_button.{f}", VarKind.NONDET,
                                  BoolDomain()))
    for base, init in (("on_floor", False), ("door_closed", True),
                       ("door_open", False), ("button", False),
                       ("call", False)):
        for f in floors:
            variables.append(Variable(f"{base}.{f}", VarKind.INPUT,
                                      BoolDomain(), init))
    variables.append(Variable("up", VarKind.OUTPUT, BoolDomain(), False))
    variables.append(Variable("down", VarKind.OUTPUT, BoolDomain(), False))
    for f in floors:
        variables.append(Variable(f"open.{f}", VarKind.OUTPUT,
                                  BoolDomain(), False))
    variables.append(Variable("elevator_pos", VarKind.PLANT,
                              IntRange(0, top), 0))
    doors = EnumDomain(("d_closed", "d_opening", "d_open", "d_closing"))
    for f in floors:
        variables.append(Variable(f"door_state.{f}", VarKind.PLANT,
                                  doors, "d_closed"))
    variables.append(Variable("door_timer", VarKind.CTRL, IntRange(0, 5), 0))
    variables.append(Variable("dir", VarKind.CTRL, IntRange(-1, 1), 0))

    pos = Ref("elevator_pos")
    plant = []
    plant.append(Assignment(
        "elevator_pos",
        Cond(Ref("up"),
             Cond(Binary("<", pos, Lit(top)),
                  Binary("+", pos, Lit(1)), pos),
             Cond(Ref("down"),
                  Cond(Binary(">", pos, Lit(0)),
                       Binary("-", pos, Lit(1)), pos),
                  pos))))
    for f in floors:
        ds = Ref(f"door_state.{f}")
        plant.append(Assignment(
            f"door_state.{f}",
            Cond(Ref(f"open.{f}"),
                 Cond(_bor([Binary("==", ds, Lit("d_closed")),
                            Binary("==", ds, Lit("d_closing"))]),
                      Lit("d_opening"), Lit("d_open")),
                 Cond(_bor([Binary("==", ds, Lit("d_open")),
                            Binary("==", ds, Lit("d_opening"))]),
                      Lit("d_closing"), Lit("d_closed")))))
    for f in floors:
        plant.append(Assignment(f"on_floor.{f}",
                                Binary("==", pos, Lit(3 * f))))
    for f in floors:
        plant.append(Assignment(
            f"door_closed.{f}",
            Binary("==", Ref(f"door_state.{f}"), Lit("d_closed"))))
    for f in floors:
        plant.append(Assignment(
            f"door_open.{f}",
            Binary("==", Ref(f"door_state.{f}"), Lit("d_open"))))
    for f in floors:
        plant.append(Assignment(
            f"button.{f}",
            Cond(_band([Ref(f"on_floor.{f}"), Ref(f"door_open.{f}")]),
                 Lit(False),
                 _bor([Ref(f"button.{f}"), Ref(f"user_cabin_button.{f}")]))))
    for f in floors:
        plant.append(Assignment(
            f"call.{f}",
            Cond(_band([Ref(f"on_floor.{f}"), Ref(f"door_open.{f}")]),
                 Lit(False),
                 _bor([Ref(f"call.{f}"), Ref(f"user_floor_button.{f}")]))))

    def request(f: int) -> Expr:
        return _bor([Ref(f"button.{f}"), Ref(f"call.{f}")])

    cur_req = _bor([_band([Ref(f"on_floor.{f}"), request(f)])
                    for f in floors])
    cur_closed = _bor([_band([Ref(f"on_floor.{f}"), Ref(f"door_closed.{f}")])
                       for f in floors])
    tm = Ref("door_timer")
    controller = []
    controller.append(Assignment(
        "door_timer",
        Cond(Binary("==", tm, Lit(0)),
             Cond(_band([cur_req, cur_closed]), Lit(1), Lit(0)),
             Cond(Binary("<=", tm, Lit(3)),
                  Binary("+", tm, Lit(1)),
                  Cond(Binary("==", tm, Lit(4)),
                       Lit(5),
                       Cond(cur_closed, Lit(0),
                            Cond(cur_req, Lit(1), Lit(5))))))))
    req_above = _bor([_band([Binary("<", pos, Lit(3 * f)), request(f)])
                      for f in range(1, n)])
    req_below = _bor([_band([Binary(">", pos, Lit(3 * f)), request(f)])
                      for f in range(n - 1)])
    controller.append(Assignment(
        "dir",
        Cond(Binary("!=", tm, Lit(0)),
             Lit(0),
             Cond(Binary("!=", Binary("mod", pos, Lit(3)), Lit(0)),
                  Ref("dir"),
                  Cond(req_above, Lit(1),
                       Cond(req_below, Lit(-1), Lit(0)))))))
    all_closed = _band([Ref(f"door_closed.{f}") for f in floors])
    controller.append(Assignment(
        "up", _band([Binary("==", Ref("dir"), Lit(1)), all_closed])))
    controller.append(Assignment(
        "down", _band([Binary("==", Ref("dir"), Lit(-1)), all_closed])))
    for f in floors:
        controller.append(Assignment(
            f"open.{f}",
            _band([Ref(f"on_floor.{f}"),
                   Binary(">=", tm, Lit(1)),
                   Binary("<=", tm, Lit(4))])))

    model = ClosedLoopModel(name=f"elevator{n}", variables=tuple(variables),
                            plant=UpdateBlock(tuple(plant)),
                            controller=UpdateBlock(tuple(controller)))
    reqs = _elevator_reqs(n)
    return _finish(model, reqs, _elevator_header(n), 3 * n + 6)


def _elevator_reqs(n: int) -> list:
    reqs = []
    away = _fand([_natom(f"on_floor.{f}") for f in range(n)])

    def others(i: int) -> ltl.Formula:
        parts = []
        for j in range(n):
            if j != i:
                parts.append(ltl.Or(_atom(f"button.{j}"), _atom(f"call.{j}")))
        out = parts[0]
        for p in parts[1:]:
            out = ltl.Or(out, p)
        return out

    for i in range(n):
        do = f"door_open.{i}"
        pressed = ltl.Or(_atom(f"button.{i}"), _atom(f"call.{i}"))
        served = ltl.And(_atom(f"on_floor.{i}"), _atom(do))
        closing_hit = ltl.And(
            _atom(do),
            ltl.Next(_fand([_natom(do), _natom(f"door_closed.{i}"),
                            ltl.Or(_atom(f"button.{i}"),
                                   _atom(f"call.{i}"))])))
        opening = ltl.And(_natom(do), ltl.Next(_atom(do)))

        reqs.append(ltl.Requirement(
            f"ERT_1_{i + 1}",
            ltl.Next(ltl.Globally(
                ltl.Implies(away, _atom(f"door_closed.{i}")))),
            "expect-pass"))
        reqs.append(ltl.Requirement(
            f"ERT_2_{i + 1}",
            ltl.Globally(ltl.Implies(
                pressed, ltl.Finally(ltl.Or(served, others(i))))),
            "expect-pass"))
        reqs.append(ltl.Requirement(
            f"ERT_3_{i + 1}",
            ltl.Globally(ltl.Implies(
                opening,
                _fand([ltl.Next(ltl.Next(_atom(do))),
                       ltl.Next(ltl.Next(ltl.Next(_atom(do)))),
                       ltl.Next(ltl.Next(ltl.Next(ltl.Next(_natom(do)))))]))),
            "expect-pass"))
        reqs.append(ltl.Requirement(
            f"ERT_4_{i + 1}",
            ltl.Globally(ltl.Implies(
                closing_hit, ltl.Next(ltl.Next(ltl.Next(_atom(do)))))),
            "expect-pass"))

    for i in range(n):
        do = f"door_open.{i}"
        pressed = ltl.Or(_atom(f"button.{i}"), _atom(f"call.{i}"))
        served = ltl.And(_atom(f"on_floor.{i}"), _atom(do))
        closing_hit = ltl.And(
            _atom(do),
            ltl.Next(_fand([_natom(do), _natom(f"door_closed.{i}"),
                            ltl.Or(_atom(f"button.{i}"),
                                   _atom(f"call.{i}"))])))
        opening = ltl.And(_natom(do), ltl.Next(_atom(do)))

        # broken variants: doors open while away, no alternative service,
        # one open step instead of three, reopen in one step instead of two
        reqs.append(ltl.Requirement(
            f"ERF_1_{i + 1}",
            ltl.Next(ltl.Globally(ltl.Implies(away, _atom(do)))),
            "expect-fail"))
        reqs.append(ltl.Requirement(
            f"ERF_2_{i + 1}",
            ltl.Globally(ltl.Implies(pressed, ltl.Finally(served))),
            "expect-fail"))
        reqs.append(ltl.Requirement(
            f"ERF_3_{i + 1}",
            ltl.Globally(ltl.Implies(
                opening,
                ltl.And(ltl.Next(ltl.Next(_atom(do))),
                        ltl.Next(ltl.Next(ltl.Next(_natom(do))))))),
            "expect-fail"))
        reqs.append(ltl.Requirement(
            f"ERF_4_{i + 1}",
            ltl.Globally(ltl.Implies(
                closing_hit, ltl.Next(ltl.Next(_atom(do))))),
            "expect-fail"))
    return reqs


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

    variables = []
    for t in range(trays):
        variables.append(Variable(f"wp_add.{t}", VarKind.NONDET,
                                  BoolDomain()))
    for b in cyls:
        variables.append(Variable(f"at_home.{b}", VarKind.INPUT,
                                  BoolDomain(), True))
    for b in cyls:
        variables.append(Variable(f"at_end.{b}", VarKind.INPUT,
                                  BoolDomain(), False))
    variables.append(Variable("v_home", VarKind.INPUT, BoolDomain(), True))
    variables.append(Variable("v_end", VarKind.INPUT, BoolDomain(), False))
    for t in range(trays):
        variables.append(Variable(f"wp.{t}", VarKind.INPUT,
                                  BoolDomain(), False))
    variables.append(Variable("holding", VarKind.INPUT, BoolDomain(), False))
    for b in cyls:
        variables.append(Variable(f"extend.{b}", VarKind.OUTPUT,
                                  BoolDomain(), False))
    variables.append(Variable("vext", VarKind.OUTPUT, BoolDomain(), False))
    variables.append(Variable("suck", VarKind.OUTPUT, BoolDomain(), False))
    for b in cyls:
        variables.append(Variable(f"hpos_{b}", VarKind.PLANT,
                                  IntRange(0, 2 ** b), 0))
    variables.append(Variable("vpos", VarKind.PLANT, IntRange(0, 2), 0))
    variables.append(Variable("held", VarKind.PLANT, BoolDomain(), False))
    variables.append(Variable("grabbed", VarKind.PLANT, BoolDomain(), False))
    variables.append(Variable("target", VarKind.CTRL,
                              IntRange(0, trays), 0))

    def hp(b: int) -> Expr:
        return Ref(f"hpos_{b}")

    def match(tray: int) -> Expr:
        # tray is 1-based; bit b set means cylinder b fully extended
        terms = []
        for b in cyls:
            want = 2 ** b if (tray >> b) & 1 else 0
            terms.append(Binary("==", hp(b), Lit(want)))
        return _band(terms)

    plant = []
    for b in cyls:
        stroke = 2 ** b
        plant.append(Assignment(
            f"hpos_{b}",
            Cond(Ref(f"extend.{b}"),
                 Cond(Binary("<", hp(b), Lit(stroke)),
                      Binary("+", hp(b), Lit(1)), hp(b)),
                 Cond(Binary(">", hp(b), Lit(0)),
                      Binary("-", hp(b), Lit(1)), hp(b)))))
    vp = Ref("vpos")
    plant.append(Assignment(
        "vpos",
        Cond(Ref("vext"),
             Cond(Binary("<", vp, Lit(2)), Binary("+", vp, Lit(1)), vp),
             Cond(Binary(">", vp, Lit(0)), Binary("-", vp, Lit(1)), vp))))
    plant.append(Assignment(
        "grabbed",
        _band([Unary("!", Ref("held")), Ref("suck"),
               Binary("==", vp, Lit(2)),
               _bor([_band([Ref(f"wp.{t}"), match(t + 1)])
                     for t in range(trays)])])))
    for t in range(trays):
        plant.append(Assignment(
            f"wp.{t}",
            Cond(_band([Ref("grabbed"), match(t + 1)]),
                 Ref(f"wp_add.{t}"),
                 _bor([Ref(f"wp.{t}"), Ref(f"wp_add.{t}")]))))
    plant.append(Assignment(
        "held", Cond(Ref("grabbed"), Lit(True),
                     _band([Ref("held"), Ref("suck")]))))
    for b in cyls:
        plant.append(Assignment(f"at_home.{b}",
                                Binary("==", hp(b), Lit(0))))
    for b in cyls:
        plant.append(Assignment(f"at_end.{b}",
                                Binary("==", hp(b), Lit(2 ** b))))
    plant.append(Assignment("v_home", Binary("==", vp, Lit(0))))
    plant.append(Assignment("v_end", Binary("==", vp, Lit(2))))
    plant.append(Assignment("holding", Ref("held")))

    def desired(b: int) -> Expr:
        terms = [Binary("==", Ref("target"), Lit(t))
                 for t in range(1, trays + 1) if (t >> b) & 1]
        return _bor(terms)

    def mismatch(b: int) -> Expr:
        return Cond(desired(b), Unary("!", Ref(f"at_end.{b}")),
                    Unary("!", Ref(f"at_home.{b}")))

    pick = Lit(0)
    for t in reversed(range(trays)):
        pick = Cond(Ref(f"wp.{t}"), Lit(t + 1), pick)
    controller = []
    controller.append(Assignment(
        "target",
        Cond(Ref("holding"), Lit(0),
             Cond(Ref("v_home"), pick, Ref("target")))))
    for b in cyls:
        turn = [Ref("v_home"), mismatch(b)]
        for c in range(b):
            turn.append(Unary("!", mismatch(c)))
        controller.append(Assignment(
            f"extend.{b}",
            Cond(_band(turn), desired(b), Ref(f"at_end.{b}"))))
    settled = _band([Cond(desired(b), Ref(f"at_end.{b}"),
                          Ref(f"at_home.{b}")) for b in cyls])
    settled_home = _band([Ref(f"at_home.{b}") for b in cyls])
    busy = Binary("!=", Ref("target"), Lit(0))
    controller.append(Assignment(
        "vext", _band([settled, _bor([Ref("holding"), busy])])))
    controller.append(Assignment(
        "suck",
        _bor([_band([Unary("!", Ref("holding")), busy, settled]),
              _band([Ref("holding"),
                     Unary("!", _band([settled_home, Ref("v_end")]))])])))

    model = ClosedLoopModel(name=f"pnp{n}", variables=tuple(variables),
                            plant=UpdateBlock(tuple(plant)),
                            controller=UpdateBlock(tuple(controller)))
    reqs = _pnp_reqs(n)
    if n <= 4:
        max_len = 11
    elif n == 5:
        max_len = 17
    else:
        max_len = 2 ** n + 12
    return _finish(model, reqs, _pnp_header(n, max_len), max_len)


def _pnp_reqs(n: int) -> list:
    trays = 2 ** n - 1

    def pattern(tray: int, with_vertical: bool) -> list:
        parts = []
        for b in range(n):
            if (tray >> b) & 1:
                parts.append(_atom(f"at_end.{b}"))
            else:
                parts.append(_atom(f"at_home.{b}"))
        if with_vertical:
            parts.append(_atom("v_end"))
        return parts

    home_bits = [_atom(f"at_home.{b}") for b in range(n)]
    drop_out = _fand([_natom("holding")] + home_bits + [_atom("v_end")])
    init_pos = _fand([_natom("holding")] + home_bits + [_atom("v_home")])
    some_extended = _atom("at_end.0")
    for b in range(1, n):
        some_extended = ltl.Or(some_extended, _atom(f"at_end.{b}"))
    astray = ltl.And(_atom("v_home"), some_extended)

    reqs = []
    for j in range(1, trays + 1):
        wp = _atom(f"wp.{j - 1}")
        take = _fand([_atom("holding")] + pattern(j, True))
        reqs.append(ltl.Requirement(
            f"PRT_1_{j}",
            ltl.Globally(ltl.Implies(wp, ltl.Finally(ltl.And(
                take, ltl.Finally(ltl.And(
                    drop_out, ltl.Finally(init_pos))))))),
            "expect-pass"))
        reqs.append(ltl.Requirement(
            f"PRT_2_{j}",
            ltl.Globally(ltl.Implies(wp, ltl.Finally(
                ltl.Or(_natom(f"wp.{j - 1}"), _atom(f"wp_add.{j - 1}"))))),
            "expect-pass"))
        aligned = _fand(pattern(j, True))
        reqs.append(ltl.Requirement(
            f"PRT_3_{j}",
            ltl.Or(ltl.Until(ltl.Not(aligned), wp),
                   ltl.Globally(ltl.Not(aligned))),
            "expect-pass"))
    for j in range(1, trays + 1):
        wp = _atom(f"wp.{j - 1}")
        take = _fand([_atom("holding")] + pattern(j, True))
        # broken variants: wrong final posture, no re-add escape hatch,
        # alignment judged on the horizontals alone
        reqs.append(ltl.Requirement(
            f"PRF_1_{j}",
            ltl.Globally(ltl.Implies(wp, ltl.Finally(ltl.And(
                take, ltl.Finally(ltl.And(
                    drop_out, ltl.Finally(astray))))))),
            "expect-fail"))
        reqs.append(ltl.Requirement(
            f"PRF_2_{j}",
            ltl.Globally(ltl.Implies(wp, ltl.Finally(
                _natom(f"wp.{j - 1}")))),
            "expect-fail"))
        if j < trays:
            haligned = _fand(pattern(j, False))
            reqs.append(ltl.Requirement(
                f"PRF_3_{j}",
                ltl.Or(ltl.Until(ltl.Not(haligned), wp),
                       ltl.Globally(ltl.Not(haligned))),
                "expect-fail"))
    return reqs


def _pnp_header(n: int, max_len: int) -> str:
    return (f"// pick-and-place case study with {n} horizontal cylinders"
            f" and {2 ** n - 1} input trays\n"
            f"// suggested generation bound: max test length {max_len};"
            f" a full deliver-and-return cycle takes about {2 ** n + 12}"
            " steps\n")


# --------------------------------------------------------------------------


def _finish(model: ClosedLoopModel, reqs: list, header: str,
            max_len: int) -> CaseStudy:
    diags = validate_model(model)
    if diags:
        listing = "; ".join(str(d) for d in diags)
        raise AssertionError(f"generated model failed validation: {listing}")
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
