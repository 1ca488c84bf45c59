"""Coverage-driven test generation.

Goals are boolean predicates over a single execution position.  The generator
walks the goal list in order; for each goal still pending it searches the
bounded reachable part of the closed loop for a shortest witness, turns the
witness into a test, and marks every later pending goal that the new test
already covers.

The search is one shared breadth-first exploration per model and bound.
Scanning its discovery order gives the same answer a fresh per-goal search
would: layers are built in depth order, and inside a layer nodes are added
parent-first with each parent's successors sorted by nondet column, so the
first hit is a shortest witness with the lexicographically least column
sequence.  Only nondet values the compiled step reads are branched on.
Each node keeps its nondet column, and a goal is decided over a whole
explicit layer's states and columns at once: lowered by compiled.lower_set
to bitmasks, its first hit is the lowest set bit of the first layer with
one.

Explicit branching multiplies with every nondet value read, so once a search
has spent SYMBOLIC_HANDOFF_STEPS branch steps it continues symbolically (see
symbolic.py): each further layer is one BDD image, and a witness ending in
such a layer is walked forward from the explicit layers, always taking the
least column that can still reach the target.  That is the witness the
breadth-first order would have found, so suites do not depend on where the
search changed engines.  The explorer's nodes, parents and columns lists
hold the explicit layers only.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .model import (
    UNSET,
    Binary,
    BoolDomain,
    ClosedLoopModel,
    Expr,
    Lit,
    ModelError,
    Ref,
    Unary,
    VarKind,
    _fold,
    _show,
    eval_expr,
    init_state,
    referenced_names,
    ref_text,
)
from . import ltl
from .compiled import RowSets
from .sim import (DEFAULT_STATE_CAP, DEFAULT_STEP_CAP, StepCapExceeded,
                  TestCase, TestSuite, simulate_lasso)

#: Explicit branch steps after which the bounded search turns symbolic.
#: Elevator n=4 (bound 18) generates in 0.21 / 0.21 / 0.21 / 0.25 / 0.24 s
#: with the handoff at 0 / 25k / 50k / 100k steps or never (CPU seconds at
#: the speed of bench/reference.py, median of 5): at most 0.8 us per
#: explicit step, so its whole explicit search, 287k steps, costs about
#: what the symbolic phase from the root costs.  50k keeps searches of the
#: size of elevator n=3 (21k steps to its full bound) explicit, where
#: generation takes 0.03 s against 0.11 s from the root.
SYMBOLIC_HANDOFF_STEPS = 50_000


class StateCapExceeded(ModelError):
    """The bounded exploration grew past the configured state budget."""


class _Handoff(Exception):
    """The explicit search spent its share of branch steps."""


class CoverageGoal(namedtuple("CoverageGoal", "predicate origin")):
    """One thing a suite should witness: predicate true at some position.

    The predicate is evaluated over a position environment: all state
    variables plus the nondet values applied on the step into the position
    (position 0 carries each nondet variable's first domain value).
    """

    __slots__ = ()


class GeneratorConfig(namedtuple(
        "GeneratorConfig", "max_len goal_mode state_cap step_cap",
        defaults=("maximal", DEFAULT_STATE_CAP, DEFAULT_STEP_CAP))):
    """Search bound, goal mode and budgets.

    goal_mode is "maximal", "all" or "all-kinds".  state_cap bounds the
    states reached by the search, explicit and symbolic alike.  step_cap
    bounds explicit branch steps (the symbolic phase takes none, apart from
    replaying the one state whose step fails) and each lasso simulation.
    """

    __slots__ = ()


class GoalOutcome(namedtuple("GoalOutcome",
                             "index origin status test_id position",
                             defaults=(None, None))):
    """index is the 1-based position in the goal list; status is
    "COVERED", "SUBSUMED" or "UNREACHABLE"."""

    __slots__ = ()


class GenerationReport(namedtuple(
        "GenerationReport", "bound outcomes test_count element_count")):
    __slots__ = ()

    def text(self) -> str:
        lines = []
        for out in self.outcomes:
            if out.status == "COVERED":
                tail = f"COVERED test={out.test_id} pos={out.position}"
            elif out.status == "SUBSUMED":
                tail = f"SUBSUMED test={out.test_id}"
            else:
                tail = f"UNREACHABLE(bound={self.bound})"
            lines.append(f"goal {out.index} {out.origin} :: {tail}")
        lines.append(f"suite {self.test_count}/{self.element_count}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Goal enumeration


def enumerate_goals(model: ClosedLoopModel, reqs: list,
                    mode: str = "maximal") -> list:
    """Build the goal list: variable values first, then formula pieces.

    Variable-value goals cover every domain value of every non-nondet
    variable; mode "all-kinds" adds the nondet variables too.  Formula goals
    cover temporal-free subformulas of the requirements in both polarities,
    maximal subtrees by default and every subtree under modes "all" and
    "all-kinds".  Goals that would read a nondet variable other than the
    plain value goals are dropped: their truth would depend on position 0's
    placeholder values.  Duplicates (by predicate structure) keep the first
    occurrence.
    """
    if mode not in ("maximal", "all", "all-kinds"):
        raise ValueError(f"unknown goal mode {mode!r}")
    nondet_names = {v.name for v in model.nondet_variables()}
    origins = {}  # each goal's predicate, in order, to its first origin
    for v in model.variables:
        if v.kind is VarKind.NONDET and mode != "all-kinds":
            continue
        ref, shown = Ref(v.name), ref_text(v.name)
        for value in v.domain.values():
            lit = Lit(value)
            goal = (ref if value else Unary("!", ref)) \
                if isinstance(v.domain, BoolDomain) else Binary("==", ref, lit)
            origins.setdefault(goal, f"var {shown}={lit}")

    sub_mode = "maximal" if mode == "maximal" else "all"
    produced = set()
    lowered = {}  # every subformula lowered once, across the requirements
    texts = {}  # and printed once
    for req in reqs:
        for expr in ltl.boolean_subformulas(req.formula, sub_mode, lowered):
            # an earlier requirement gave it and its negation already
            if expr in produced:
                continue
            produced.add(expr)
            if referenced_names(expr) & nondet_names:
                continue
            text = _fold(expr, _show, texts)
            origins.setdefault(expr, f"sub {req.rid} {text}")
            negated = Unary("!", expr)
            origins.setdefault(negated, f"sub {req.rid} {negated._text([text])}")
    return [CoverageGoal(predicate=predicate, origin=origin)
            for predicate, origin in origins.items()]


# --------------------------------------------------------------------------
# Bounded exploration


class BoundedExplorer:
    """Breadth-first image of the closed loop up to a step bound.

    States are tuples over the non-nondet variables in declaration order.
    Each discovered node remembers the parent it was first reached from and
    the full nondet column used, chosen lexicographically least (by domain
    value order) among the branches that reach the same successor, or the
    domain defaults at the root.

    A node is expanded by one call of the model's expand(), which branches
    over a nondet variable's domain where it is read, depth first, and
    dedupes successors on their keys (compiled.CompiledModel); the root's
    key is visited once a successor with it turns out to be the root, whose
    derived components need not follow from its free ones.

    nodes, parents and columns hold the explicit layers only.  After
    the handoff to the symbolic phase, each further layer is a BDD of the
    states it adds, and witnesses into it are rebuilt on demand.
    """

    def __init__(self, model: ClosedLoopModel, max_len: int,
                 state_cap: int = DEFAULT_STATE_CAP,
                 step_cap: int = DEFAULT_STEP_CAP):
        self.model = model
        self.max_len = max_len
        self.state_cap = state_cap
        self.step_cap = step_cap

        compiled = model.compiled()
        self._expand = compiled.expand
        self._unset = (UNSET,) * len(model.nondet_variables())

        root_tuple = init_state(model)
        self.nodes = [root_tuple]
        self.parents = [-1]
        self._columns = [compiled.column(model.nondet_defaults())]
        # (first node, RowSets of its nodes) of each explicit layer
        self._row_layers = [(0, RowSets(model, [root_tuple], self._columns[:]))]
        self._visited = set()  # the keys of the nodes
        self._root_key = compiled.key(root_tuple)
        self._depth_built = 0
        self._frontier = (0, 1)  # node range of the deepest explicit layer
        self._steps = 0
        self._limit = min(step_cap, SYMBOLIC_HANDOFF_STEPS)
        # symbolic phase: layers[0] is the explicit frontier at the handoff,
        # layers[i] the states first reached i steps after it
        self._relation = None
        self._layers = []
        self._reached = 0
        self._reached_count = 0

    @property
    def columns(self) -> list:
        """The nondet column producing each node, None at the root."""
        return [None] + self._columns[1:]

    # -- stepping

    def _over_limit(self, steps: int):
        """Called by expand() as a branch step passes the limit."""
        self._steps = steps
        if steps > self.step_cap:
            raise StepCapExceeded(f"step budget of {self.step_cap} exhausted")
        raise _Handoff

    def _extend_layer(self) -> bool:
        if self._depth_built >= self.max_len:
            return False
        if self._relation is not None:
            return self._extend_symbolic()
        start, end = self._frontier
        if start == end:
            return False
        nodes, parents, columns = self.nodes, self.parents, self._columns
        new_start = len(nodes)
        visited = self._visited
        steps = self._steps
        expand, unset, limit, over = (self._expand, self._unset,
                                      self._limit, self._over_limit)
        state_cap, root_key, root = self.state_cap, self._root_key, nodes[0]
        try:
            for idx in range(start, end):
                best = {}
                steps = expand(nodes[idx], unset, visited, best, steps,
                               limit, over)
                if root_key in best and best[root_key][1] == root:
                    del best[root_key]  # the root again
                    visited.add(root_key)
                visited.update(best)
                # ranks differ between leaves, so states are never compared
                for _rank, succ, column in sorted(best.values()):
                    nodes.append(succ)
                    parents.append(idx)
                    columns.append(column)
                    if len(nodes) > state_cap:
                        raise StateCapExceeded(
                            f"state budget of {state_cap} exhausted")
        except _Handoff:
            for held in (nodes, parents, columns):
                del held[new_start:]
        else:
            self._steps = steps
            self._depth_built += 1
            self._frontier = (new_start, len(self.nodes))
            self._row_layers.append((new_start, RowSets(
                self.model, nodes[new_start:], self._columns[new_start:])))
            return True
        self._hand_off()
        return self._extend_symbolic()

    # -- symbolic phase

    def _hand_off(self):
        # Imported here: searches that stay explicit, which is most small
        # runs, need not load (or, without a bytecode cache, compile) it.
        from . import symbolic
        relation = symbolic.StepRelation(self.model)
        start, end = self._frontier
        self._layers = [relation.state_set(self.nodes[start:end])]
        self._reached = relation.bdd.or_(
            self._layers[0], relation.state_set(self.nodes[:start]))
        self._reached_count = len(self.nodes)
        self._relation = relation
        self._visited = None  # the explicit search does not resume
        self._limit = self.step_cap

    def _extend_symbolic(self) -> bool:
        relation = self._relation
        bdd = relation.bdd
        frontier = self._layers[-1]
        if frontier == 0:
            return False
        failing = bdd.and_(frontier, relation.errors)
        if failing:
            # The explicit step of the first failing state raises exactly
            # what the explicit search would have raised.
            _columns, state = self._symbolic_path(len(self._layers) - 1,
                                                  failing)
            self._expand(state, self._unset, set(), {}, self._steps,
                         self._limit, self._over_limit)
            raise RuntimeError("symbolic error set disagrees with the step")
        fresh = bdd.and_(relation.image(frontier), bdd.not_(self._reached))
        self._reached_count += relation.count(fresh)
        if self._reached_count > self.state_cap:
            raise StateCapExceeded(
                f"state budget of {self.state_cap} exhausted")
        self._reached = bdd.or_(self._reached, fresh)
        self._layers.append(fresh)
        self._depth_built += 1
        return True

    def _symbolic_path(self, layer: int, target: int) -> tuple:
        """Least column sequence from the root into target, a subset of the
        given symbolic layer, with the state it ends in.

        The prefix up to the handoff is the tree path of the first frontier
        node that can reach target; each later step takes the least column
        whose successor can still reach it.
        """
        relation = self._relation
        bdd = relation.bdd
        wanted = []
        reach = target
        for i in range(layer, 0, -1):
            wanted.append(reach)
            reach = relation.preimage(reach)
            if i > 1:
                reach = bdd.and_(self._layers[i - 1], reach)
        wanted.reverse()
        start, end = self._frontier
        idx = next(i for i in range(start, end)
                   if relation.contains(reach, self.nodes[i]))
        columns = self._tree_path(idx)
        state = self.nodes[idx]
        for states in wanted:
            column = relation.least_column(state, states)
            state = self._expand(state, column)
            columns.append(column)
        return columns, state

    # -- queries

    def _tree_path(self, idx: int) -> list:
        columns = []
        while self.parents[idx] >= 0:
            columns.append(self._columns[idx])
            idx = self.parents[idx]
        columns.reverse()
        return columns

    def find(self, predicate: Expr):
        """First node satisfying the predicate, as (columns, position).

        Returns None when no node within the bound satisfies it.  The
        position environment of a node includes the nondet column that
        produced it (first domain values at the root).
        """
        columns = self._search(predicate)
        if columns is None:
            return None
        return columns, len(columns)

    def _search(self, predicate: Expr):
        explicit = 0
        layer = 1
        candidates = None
        while True:
            while explicit < len(self._row_layers):
                start, rows = self._row_layers[explicit]
                hit = rows.first_hit(predicate)
                if hit is not None:
                    return self._tree_path(start + hit)
                explicit += 1
            if self._relation is not None:
                if candidates is None:
                    candidates = self._relation.candidates(predicate)
                while layer < len(self._layers):
                    hit = self._search_layer(predicate, candidates, layer)
                    if hit is not None:
                        return hit
                    layer += 1
            if not self._extend_layer():
                return None

    def _search_layer(self, predicate: Expr, candidates: int, layer: int):
        """First state of a symbolic layer, in breadth-first order, that
        satisfies the predicate under the column producing it.

        candidates holds the states satisfying it (or failing) under some
        column; only the producing column decides, so candidates are tried
        in order until one passes.
        """
        relation = self._relation
        left = relation.bdd.and_(self._layers[layer], candidates)
        while left:
            columns, state = self._symbolic_path(layer, left)
            if RowSets(self.model, [state], columns[-1:]).first_hit(
                    predicate) is not None:
                return columns
            left = relation.without(left, state)
        return None


# --------------------------------------------------------------------------
# Suite generation


def _direct_nondet_witness(model: ClosedLoopModel, predicate: Expr):
    """Witness for a goal that reads nondet variables only.

    Such goals (value goals under the all-kinds mode) never depend on the
    reached state, so no exploration is needed: position 0 carries the domain
    defaults, any later position carries exactly the column applied by its
    producing step.  The explorer cannot answer these: it keeps one producing
    column per distinct state, so columns that lead to an already-seen state
    are invisible to it.

    Only the variables the predicate reads are enumerated, in declaration
    order; the others keep their domain-first value, so the column found is
    still the lexicographically least full column that satisfies it.
    """
    defaults = model.nondet_defaults()
    if eval_expr(predicate, defaults):
        return [], 0
    reads = referenced_names(predicate)
    free = [v for v in model.nondet_variables() if v.name in reads]
    for combo in itertools.product(*[v.domain.values() for v in free]):
        env = {**defaults, **{v.name: value for v, value in zip(free, combo)}}
        if eval_expr(predicate, env):
            return [tuple(env.values())], 1
    return None


def generate_suite(model: ClosedLoopModel, reqs: list,
                   config: GeneratorConfig):
    """Drive the goal list to a suite.  Returns (suite, report).

    Each new test is unwound once, to ltl.lasso_rows, and the goals still
    open are scanned over its positions.  The suite keeps those rows, which
    runner.execute_suite evaluates on instead of unwinding the test again.
    """
    goals = enumerate_goals(model, reqs, config.goal_mode)
    explorer = BoundedExplorer(model, config.max_len,
                               state_cap=config.state_cap,
                               step_cap=config.step_cap)
    names = tuple(v.name for v in model.nondet_variables())
    default_column = model.compiled().column(model.nondet_defaults())

    nondet_names = {v.name for v in model.nondet_variables()}
    outcomes: list = [None] * len(goals)
    cases = []
    lassos = {}  # each test's ltl.lasso_rows, by tid
    orders = {}  # and the postorders they share
    try:
        for i, goal in enumerate(goals):
            if outcomes[i] is not None:
                continue
            reads = referenced_names(goal.predicate)
            if reads and reads <= nondet_names:
                found = _direct_nondet_witness(model, goal.predicate)
            else:
                found = explorer.find(goal.predicate)
            if found is None:
                outcomes[i] = GoalOutcome(index=i + 1, origin=goal.origin,
                                          status="UNREACHABLE")
                continue
            columns, position = found
            tid = f"t{len(cases)}"
            case = TestCase(tid=tid, variables=names,
                            rows=tuple(columns) or (default_column,))
            cases.append(case)
            outcomes[i] = GoalOutcome(index=i + 1, origin=goal.origin,
                                      status="COVERED", test_id=tid,
                                      position=position)
            trace = simulate_lasso(model, case, step_cap=config.step_cap)
            lassos[tid] = ltl.lasso_rows(trace, orders)
            rows = lassos[tid][1]
            for j in range(i + 1, len(goals)):
                if outcomes[j] is not None:
                    continue
                value, err = rows.lower(goals[j].predicate)
                # position 0 is the highest bit: the goal holds before
                # any position fails, or the first failing one raises
                if (value & ~err).bit_length() > err.bit_length():
                    outcomes[j] = GoalOutcome(index=j + 1,
                                              origin=goals[j].origin,
                                              status="SUBSUMED", test_id=tid)
                elif err:
                    rows.fail(goals[j].predicate,
                              1 << (err.bit_length() - 1))
    except ModelError as err:
        # Keep whatever was decided before the abort inspectable.
        done = tuple(out for out in outcomes if out is not None)
        partial = TestSuite(variables=names, cases=tuple(cases))
        err.partial_report = GenerationReport(
            bound=config.max_len, outcomes=done,
            test_count=len(partial.cases),
            element_count=partial.element_count)
        err.partial_suite = partial
        raise

    suite = TestSuite(variables=names, cases=tuple(cases))
    suite._lassos = lassos
    report = GenerationReport(bound=config.max_len, outcomes=tuple(outcomes),
                              test_count=len(suite.cases),
                              element_count=suite.element_count)
    return suite, report
