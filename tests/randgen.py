"""Seeded random builders for fuzz tests: lassos, formulas, whole models."""

from looptest.ltl import (
    And,
    Atom,
    Finally,
    Globally,
    Implies,
    Next,
    Not,
    Or,
    Until,
)
from looptest.model import (
    Assignment,
    Binary,
    BoolDomain,
    ClosedLoopModel,
    Cond,
    EnumDomain,
    IntRange,
    Lit,
    Ref,
    Unary,
    UpdateBlock,
    Variable,
    VarKind,
    validate_model,
)
from looptest.sim import LassoTrace, TestCase


# --------------------------------------------------------------------------
# Synthetic lassos over three plain variables (no nondet, no dynamics)

_SYN_MODEL = ClosedLoopModel(
    name="synthetic",
    variables=(
        Variable("p", VarKind.INPUT, BoolDomain(), False),
        Variable("q", VarKind.INPUT, BoolDomain(), False),
        Variable("n", VarKind.INPUT, IntRange(0, 3), 0),
    ),
    plant=UpdateBlock(),
    controller=UpdateBlock(),
)


def random_lasso(rng, max_prefix=5, max_loop=5):
    """A lasso trace with arbitrary states; prefix may be zero."""
    prefix = rng.randrange(0, max_prefix + 1)
    loop = rng.randrange(1, max_loop + 1)
    states = [
        (rng.random() < 0.5, rng.random() < 0.5, rng.randrange(4))
        for _ in range(prefix + loop)
    ]
    return LassoTrace(model=_SYN_MODEL, case=None, states=states,
                      nondet=[None] * (prefix + loop),
                      prefix_len=prefix, loop_len=loop, wrap_nondet={})


def synthetic_atoms():
    """Comparison-level expressions over the synthetic lasso variables."""
    return [
        Ref("p"),
        Ref("q"),
        Unary("!", Ref("p")),
        Binary("==", Ref("p"), Ref("q")),
        Binary("==", Ref("n"), Lit(0)),
        Binary("==", Ref("n"), Lit(3)),
        Binary("<", Ref("n"), Lit(2)),
        Binary(">=", Ref("n"), Lit(1)),
        Binary("==", Binary("+", Ref("n"), Lit(1)), Lit(2)),
        Binary("!=", Binary("mod", Ref("n"), Lit(2)), Lit(0)),
    ]


def random_formula(rng, atoms, depth):
    """A formula tree of at most the given depth over the atom pool."""
    if depth <= 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    kind = rng.randrange(8)
    if kind == 0:
        return Not(random_formula(rng, atoms, depth - 1))
    if kind == 1:
        return Next(random_formula(rng, atoms, depth - 1))
    if kind == 2:
        return Finally(random_formula(rng, atoms, depth - 1))
    if kind == 3:
        return Globally(random_formula(rng, atoms, depth - 1))
    lhs = random_formula(rng, atoms, depth - 1)
    rhs = random_formula(rng, atoms, depth - 1)
    if kind == 4:
        return And(lhs, rhs)
    if kind == 5:
        return Or(lhs, rhs)
    if kind == 6:
        return Implies(lhs, rhs)
    return Until(lhs, rhs)


# --------------------------------------------------------------------------
# Random closed-loop models

_ENUM_POOLS = (("red", "green"), ("lo", "mid", "hi"))


def _random_domain(rng, allow_enum=True):
    roll = rng.random()
    if roll < 0.45:
        return BoolDomain()
    if roll < 0.85 or not allow_enum:
        lo = rng.randrange(-1, 2)
        return IntRange(lo, lo + rng.randrange(1, 4))
    return EnumDomain(rng.choice(_ENUM_POOLS))


def random_model(rng, name="fuzz"):
    """A small valid model: <=4 variables, domains <=4 values.

    Nondet branching is kept to at most 6 columns per step so exhaustive
    oracles stay cheap.  Assigned expressions only move values between
    variables of the same domain, pick literals from it, or step a value
    one place along its domain (negate a bool, rotate an enum's labels,
    move an int by one under a guard that wraps at the domain's end),
    which keeps every run inside the declared domains by construction.
    """
    variables = []
    nondet_count = 1 if rng.random() < 0.7 else 2
    for i in range(nondet_count):
        domain = BoolDomain() if nondet_count == 2 or rng.random() < 0.5 \
            else IntRange(0, rng.randrange(1, 4))
        variables.append(Variable(f"u{i}", VarKind.NONDET, domain, None))
    total = rng.randrange(3, 5)
    kinds = [VarKind.INPUT, VarKind.OUTPUT, VarKind.PLANT, VarKind.CTRL]
    state_vars = []
    for i in range(total - nondet_count):
        kind = rng.choice(kinds)
        domain = _random_domain(rng)
        init = rng.choice(list(domain.values()))
        v = Variable(f"v{i}", kind, domain, init)
        variables.append(v)
        state_vars.append(v)

    bool_sources = [v for v in variables if isinstance(v.domain, BoolDomain)]
    int_sources = [v for v in variables if isinstance(v.domain, IntRange)]

    def bool_expr(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.2:
            if bool_sources and rng.random() < 0.7:
                return Ref(rng.choice(bool_sources).name)
            return Lit(rng.random() < 0.5)
        if roll < 0.35:
            return Unary("!", bool_expr(depth - 1))
        if roll < 0.55 and int_sources:
            op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
            return Binary(op, int_term(), int_term())
        op = rng.choice(("&&", "||", "->"))
        return Binary(op, bool_expr(depth - 1), bool_expr(depth - 1))

    def int_term():
        if int_sources and rng.random() < 0.6:
            term = Ref(rng.choice(int_sources).name)
            if rng.random() < 0.4:
                return Binary(rng.choice(("+", "-")), term,
                              Lit(rng.randrange(1, 3)))
            return term
        return Lit(rng.randrange(-2, 5))

    def step(term, domain):
        """term moved one place along the domain, wrapping at its end."""
        if isinstance(domain, BoolDomain):
            return Unary("!", term)
        if isinstance(domain, EnumDomain):
            labels = domain.labels
            rotated = Lit(labels[0])
            for here, after in reversed(list(zip(labels, labels[1:]))):
                rotated = Cond(Binary("==", term, Lit(here)), Lit(after),
                               rotated)
            return rotated
        if rng.random() < 0.5:
            return Cond(Binary("<", term, Lit(domain.hi)),
                        Binary("+", term, Lit(1)), Lit(domain.lo))
        return Cond(Binary(">", term, Lit(domain.lo)),
                    Binary("-", term, Lit(1)), Lit(domain.hi))

    def safe_expr(domain, depth):
        """An expression always inside the domain."""
        same = [v for v in state_vars if v.domain == domain]
        roll = rng.random()
        if depth > 0 and roll < 0.5:
            return Cond(bool_expr(depth - 1), safe_expr(domain, depth - 1),
                        safe_expr(domain, depth - 1))
        if same and roll < 0.8:
            term = Ref(rng.choice(same).name)
            if rng.random() < 0.5:
                return step(term, domain)
            return term
        if isinstance(domain, BoolDomain):
            return bool_expr(depth - 1) if depth > 0 else Lit(rng.random() < 0.5)
        return Lit(rng.choice(list(domain.values())))

    plant = []
    controller = []
    for v in state_vars:
        if rng.random() < 0.08:
            continue  # a sensor or actuator the loop never drives
        target = plant if v.kind in (VarKind.INPUT, VarKind.PLANT) else controller
        target.append(Assignment(v.name, safe_expr(v.domain, 2)))
    rng.shuffle(plant)
    rng.shuffle(controller)

    model = ClosedLoopModel(name=name, variables=tuple(variables),
                            plant=UpdateBlock(tuple(plant)),
                            controller=UpdateBlock(tuple(controller)))
    problems = validate_model(model)
    assert problems == [], problems
    return model


def model_atoms(model, include_nondet=True):
    """Comparison-level expressions usable as formula atoms for a model.

    Negation is left to the formula layer (a "!v" atom would reparse as a
    Not formula and break structural round-trips).
    """
    atoms = []
    for v in model.variables:
        if v.kind is VarKind.NONDET and not include_nondet:
            continue
        if isinstance(v.domain, BoolDomain):
            atoms.append(Ref(v.name))
            atoms.append(Binary("==", Ref(v.name), Lit(False)))
        elif isinstance(v.domain, IntRange):
            values = list(v.domain.values())
            atoms.append(Binary("==", Ref(v.name), Lit(values[0])))
            atoms.append(Binary(">=", Ref(v.name), Lit(values[-1])))
        else:
            for label in v.domain.labels[:2]:
                atoms.append(Binary("==", Ref(v.name), Lit(label)))
    return atoms


def random_case(rng, model, tid="t0", max_rows=4):
    """A test case with random in-domain rows."""
    nondet = model.nondet_variables()
    names = tuple(v.name for v in nondet)
    rows = tuple(
        tuple(rng.choice(list(v.domain.values())) for v in nondet)
        for _ in range(rng.randrange(1, max_rows + 1))
    )
    return TestCase(tid=tid, variables=names, rows=rows)
