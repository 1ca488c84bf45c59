"""Symbolic images of the closed loop over reduced ordered BDDs.

The bounded search in testgen starts explicitly and hands its frontier to a
StepRelation once explicit branching gets expensive.  The relation encodes
each finite domain in binary (value index, most significant bit first) and
lays the bits out in groups by array index, scalars first; inside a group
variables keep declaration order and every state bit is directly followed by
its next-state copy.  Nondet bits sit in their group too and have no copy.

One step is lowered assignment by assignment with read-latest semantics.  A
read of a variable whose last assignment has already run refers to its
next-state bits, so each state variable contributes a small conjunct
x' = f(x, nondet, earlier next-state bits).  The conjuncts are clustered per
group and images quantify each bit after the last cluster that mentions it.

The lowering also tracks where a step fails: an assignment outside its
target's domain, or a division or mod by zero that the short-circuit guards
let through.  errors is the set of states with some failing column.
"""

from __future__ import annotations

import sys
from itertools import chain

from .compiled import lower_set
from .model import BoolDomain, ClosedLoopModel, VarKind


class BDD:
    """Reduced ordered binary decision diagrams sharing one node table.

    A node is an int: 0 and 1 are the constants, any other node means "if
    the variable at `level` then `high` else `low`".  Levels grow from the
    root down and no two nodes are alike, so equal functions are equal ints.
    """

    true = 1

    def __init__(self, levels: int):
        self.levels = levels
        self.level = [levels, levels]  # constants sit below every variable
        self.low = [0, 1]
        self.high = [0, 1]
        self._unique = {}
        self._and = {}
        self._or = {}
        self._not = {0: 1, 1: 0}
        # recursions nest up to an and_exists over an or_ per level
        need = 3 * levels + 200
        if sys.getrecursionlimit() < need:
            sys.setrecursionlimit(need)

    def node(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        u = self._unique.get(key)
        if u is None:
            u = len(self.level)
            self.level.append(level)
            self.low.append(low)
            self.high.append(high)
            self._unique[key] = u
        return u

    def var(self, level: int) -> int:
        return self.node(level, 0, 1)

    def and_(self, u: int, v: int) -> int:
        if u == v or v == 1:
            return u
        if u == 0 or v == 0:
            return 0
        if u == 1:
            return v
        if u > v:
            u, v = v, u
        key = (u, v)
        r = self._and.get(key)
        if r is None:
            level, low, high = self.level, self.low, self.high
            lu, lv = level[u], level[v]
            if lu == lv:
                r = self.node(lu, self.and_(low[u], low[v]),
                              self.and_(high[u], high[v]))
            elif lu < lv:
                r = self.node(lu, self.and_(low[u], v), self.and_(high[u], v))
            else:
                r = self.node(lv, self.and_(u, low[v]), self.and_(u, high[v]))
            self._and[key] = r
        return r

    def or_(self, u: int, v: int) -> int:
        if u == v or v == 0:
            return u
        if u == 1 or v == 1:
            return 1
        if u == 0:
            return v
        if u > v:
            u, v = v, u
        key = (u, v)
        r = self._or.get(key)
        if r is None:
            level, low, high = self.level, self.low, self.high
            lu, lv = level[u], level[v]
            if lu == lv:
                r = self.node(lu, self.or_(low[u], low[v]),
                              self.or_(high[u], high[v]))
            elif lu < lv:
                r = self.node(lu, self.or_(low[u], v), self.or_(high[u], v))
            else:
                r = self.node(lv, self.or_(u, low[v]), self.or_(u, high[v]))
            self._or[key] = r
        return r

    def not_(self, u: int) -> int:
        r = self._not.get(u)
        if r is None:
            r = self.node(self.level[u], self.not_(self.low[u]),
                          self.not_(self.high[u]))
            self._not[u] = r
        return r

    def iff(self, u: int, v: int) -> int:
        return self.or_(self.and_(u, v),
                        self.and_(self.not_(u), self.not_(v)))

    def and_exists(self, u: int, v: int, quantify) -> int:
        """(exists quantified levels) u and v, without building u and v.

        quantify holds one flag per level plus one for the constants.
        """
        cache = {}
        level, low, high = self.level, self.low, self.high
        node, or_ = self.node, self.or_

        def rec(u, v):
            if u == 0 or v == 0:
                return 0
            if u == 1 and v == 1:
                return 1
            if u > v:
                u, v = v, u
            key = (u, v)
            r = cache.get(key)
            if r is not None:
                return r
            lu, lv = level[u], level[v]
            top = lu if lu < lv else lv
            u0, u1 = (low[u], high[u]) if lu == top else (u, u)
            v0, v1 = (low[v], high[v]) if lv == top else (v, v)
            if quantify[top]:
                r = rec(u0, v0)
                if r != 1:
                    r = or_(r, rec(u1, v1))
            else:
                r = node(top, rec(u0, v0), rec(u1, v1))
            cache[key] = r
            return r

        return rec(u, v)

    def rename(self, u: int, mapping) -> int:
        """Substitute level mapping[l] for every level l of u.

        The mapping must keep the relative order of u's levels.
        """
        memo = {0: 0, 1: 1}
        level, low, high, node = self.level, self.low, self.high, self.node

        def rec(u):
            r = memo.get(u)
            if r is None:
                r = node(mapping[level[u]], rec(low[u]), rec(high[u]))
                memo[u] = r
            return r

        return rec(u)

    def restrict(self, u: int, values: dict) -> int:
        """Cofactor of u with the levels in values fixed to their bits."""
        memo = {}
        deepest = max(values, default=-1)
        level, low, high, node = self.level, self.low, self.high, self.node

        def rec(u):
            if level[u] > deepest:
                return u
            r = memo.get(u)
            if r is None:
                bit = values.get(level[u])
                if bit is None:
                    r = node(level[u], rec(low[u]), rec(high[u]))
                else:
                    r = rec(high[u] if bit else low[u])
                memo[u] = r
            return r

        return rec(u)

    def holds(self, u: int, values: dict) -> bool:
        """Truth of u under an assignment covering its support."""
        level, low, high = self.level, self.low, self.high
        while u > 1:
            u = high[u] if values[level[u]] else low[u]
        return u == 1

    def cube(self, values: dict) -> int:
        """Conjunction of literals, one per level in values."""
        r = 1
        for lvl in sorted(values, reverse=True):
            r = self.node(lvl, 0, r) if values[lvl] else self.node(lvl, r, 0)
        return r

    def from_rows(self, levels: list, rows: list) -> int:
        """Set of bit rows over ascending levels; rows sorted and distinct."""
        node = self.node
        width = len(levels)

        def build(lo, hi, depth):
            if lo == hi:
                return 0
            if depth == width:
                return 1
            split = lo
            while split < hi and not rows[split][depth]:
                split += 1
            return node(levels[depth], build(lo, split, depth + 1),
                        build(split, hi, depth + 1))

        return build(0, len(rows), 0)

    def support(self, u: int) -> set:
        seen = set()
        out = set()
        stack = [u]
        while stack:
            u = stack.pop()
            if u < 2 or u in seen:
                continue
            seen.add(u)
            out.add(self.level[u])
            stack.append(self.low[u])
            stack.append(self.high[u])
        return out

    def count(self, u: int, levels: list) -> int:
        """Satisfying assignments of u over levels (ascending, cover u)."""
        rank = {lvl: i for i, lvl in enumerate(levels)}
        width = len(levels)
        memo = {0: 0, 1: 1}
        level, low, high = self.level, self.low, self.high

        def rank_of(u):
            return width if u < 2 else rank[level[u]]

        def rec(u):
            r = memo.get(u)
            if r is None:
                here = rank[level[u]]
                lo, hi = low[u], high[u]
                r = ((rec(lo) << (rank_of(lo) - here - 1))
                     + (rec(hi) << (rank_of(hi) - here - 1)))
                memo[u] = r
            return r

        return rec(u) << rank_of(u)


def _group_key(name: str) -> int:
    """Array index of a flattened name (door.2 -> 2); -1 for scalars."""
    _base, dot, idx = name.rpartition(".")
    return int(idx) if dot and idx.isdigit() else -1


def _binary(bits: list, index: int) -> dict:
    """Each of bits (most significant first) with its bit of index."""
    width = len(bits)
    return {b: (index >> (width - 1 - pos)) & 1 for pos, b in enumerate(bits)}


class _Encoded:
    """Bit layout of one variable: value index in binary, MSB first.

    cur holds the levels of the value in a state (a nondet variable's only
    levels), next those of its next-state copy (None for nondet variables).
    """

    def __init__(self, var, cur: list, nxt: list):
        self.var = var
        self.values = tuple(var.domain.values())
        self.index = {value: i for i, value in enumerate(self.values)}
        self.cur = cur
        self.next = nxt


class StepRelation:
    """One step of a model as a partitioned transition relation.

    Sets of states are BDDs over the current-state bits.  image and
    preimage move such a set one step forward or back; least_column picks
    the least nondet column taking a concrete state into a set.
    """

    def __init__(self, model: ClosedLoopModel):
        groups = {}
        for v in model.variables:
            groups.setdefault(_group_key(v.name), []).append(v)
        self._enc = {}
        level = 0
        for key in sorted(groups):
            for v in groups[key]:
                width = (len(v.domain.values()) - 1).bit_length()
                if v.kind is VarKind.NONDET:
                    bits = list(range(level, level + width))
                    self._enc[v.name] = _Encoded(v, bits, None)
                    level += width
                else:
                    bits = list(range(level, level + 2 * width, 2))
                    self._enc[v.name] = _Encoded(v, bits,
                                                 [b + 1 for b in bits])
                    level += 2 * width
        self.bdd = bdd = BDD(level)
        self._state = [self._enc[v.name] for v in model.state_variables()]
        self._nondet = [self._enc[v.name] for v in model.nondet_variables()]
        self.cur_levels = sorted(b for e in self._state for b in e.cur)
        # Each state variable's value -> its bits, the variables taken in
        # the order of their levels, which follow one another in
        # cur_levels: a state's bit row is their concatenation.
        order = sorted(enumerate(self._state), key=lambda ie: ie[1].cur[:1])
        assert [b for _, e in order for b in e.cur] == self.cur_levels
        self._tables = [(i, {x: tuple(_binary(e.cur, k).values())
                             for k, x in enumerate(e.values)})
                        for i, e in order]
        next_levels = [b + 1 for b in self.cur_levels]
        nondet_levels = [b for e in self._nondet for b in e.cur]
        self._to_next = list(range(level + 1))
        self._to_cur = list(range(level + 1))
        for b in self.cur_levels:
            self._to_next[b] = b + 1
            self._to_cur[b + 1] = b

        env = {e.var.name: self._value_of(e.cur, e) for e in self._state}
        # Codes past the end of a nondet domain read as no value, which a
        # comparison would take for false: the relation, the error set and
        # goal candidates only admit valid codes.
        parts = {}
        self._valid_nondet = 1
        for e in self._nondet:
            env[e.var.name] = self._value_of(e.cur, e)
            parts[e.var.name] = self._defined(env[e.var.name])
            self._valid_nondet = bdd.and_(self._valid_nondet,
                                          parts[e.var.name])
        self._current_env = dict(env)
        self._nondet_mask = self._mask(nondet_levels)

        steps = [asn for block in (model.plant, model.controller)
                 for asn in block.assignments]
        last = {asn.target: k for k, asn in enumerate(steps)}
        chain = []
        for k, asn in enumerate(steps):
            e = self._enc[asn.target]
            value, err = lower_set(asn.expr, env, bdd)
            if not isinstance(value, int):
                inside = {x: g for x, g in value.items() if x in e.index}
                for x, g in value.items():
                    if x not in e.index:
                        err = bdd.or_(err, g)
                value = inside
            if last[asn.target] == k:
                part = self._equal(e, value)
                parts[asn.target] = part
                env[asn.target] = self._value_of(e.next, e)
            else:
                part = 1
                env[asn.target] = value
            chain.append((err, part))
        for e in self._state:
            if e.var.name not in last:
                parts[e.var.name] = self._equal(e, self._value_of(e.cur, e))

        # A column fails at assignment k when every earlier assignment ran:
        # their conjuncts pin the next-state bits that k may read.
        failing = 0
        for err, part in reversed(chain):
            failing = bdd.or_(err, bdd.and_(part, failing))
        self.errors = bdd.and_exists(
            failing, self._valid_nondet,
            self._mask(next_levels + nondet_levels))

        self._clusters = []
        for key in sorted(groups):
            cluster = 1
            for v in groups[key]:
                cluster = bdd.and_(cluster, parts[v.name])
            self._clusters.append(cluster)
        supports = [bdd.support(c) for c in self._clusters]
        self._forward = self._schedule(supports,
                                       set(self.cur_levels + nondet_levels))
        self._backward = self._schedule(supports,
                                        set(next_levels + nondet_levels))
        self._to_column = self._schedule(supports, set(next_levels))

    # -- lowering

    def _value_of(self, bits: list, e: _Encoded):
        """A variable's value read from bits: a BDD for bools, else a map
        from each domain value to the BDD of its code."""
        if isinstance(e.var.domain, BoolDomain):
            return self.bdd.var(bits[0])
        return {value: self._code(bits, i) for i, value in enumerate(e.values)}

    def _code(self, bits: list, index: int) -> int:
        return self.bdd.cube(_binary(bits, index))

    def _defined(self, value) -> int:
        if isinstance(value, int):
            return 1
        out = 0
        for guard in value.values():
            out = self.bdd.or_(out, guard)
        return out

    def _equal(self, e: _Encoded, value) -> int:
        """Conjunct tying a variable's next-state bits to a lowered value."""
        bdd = self.bdd
        if isinstance(value, int):
            return bdd.iff(bdd.var(e.next[0]), value)
        out = 0
        for x, guard in value.items():
            out = bdd.or_(out, bdd.and_(guard, self._code(e.next,
                                                          e.index[x])))
        return out

    def candidates(self, predicate) -> int:
        """States where the predicate holds or fails for some column."""
        value, err = lower_set(predicate, self._current_env, self.bdd)
        return self.bdd.and_exists(self.bdd.or_(value, err),
                                   self._valid_nondet, self._nondet_mask)

    # -- images

    def _mask(self, levels) -> list:
        mask = [False] * (self.bdd.levels + 1)
        for b in levels:
            mask[b] = True
        return mask

    def _schedule(self, supports: list, quantified: set) -> list:
        """Per cluster, the levels no later cluster mentions."""
        masks = []
        later = set()
        for support in reversed(supports):
            masks.append(self._mask((support & quantified) - later))
            later |= support
        masks.reverse()
        # levels no cluster mentions go with the first one
        for b in quantified - later:
            masks[0][b] = True
        return masks

    def _chain(self, start: int, clusters: list, masks: list) -> int:
        r = start
        for cluster, mask in zip(clusters, masks):
            r = self.bdd.and_exists(r, cluster, mask)
        return r

    def image(self, states: int) -> int:
        out = self._chain(states, self._clusters, self._forward)
        return self.bdd.rename(out, self._to_cur)

    def preimage(self, states: int) -> int:
        return self._chain(self.bdd.rename(states, self._to_next),
                           self._clusters, self._backward)

    def least_column(self, state: tuple, states: int) -> tuple:
        """Least column, in declaration then domain order, stepping the
        concrete state into the set."""
        bdd = self.bdd
        bits = self.bits(state)
        clusters = [bdd.restrict(c, bits) for c in self._clusters]
        cols = self._chain(bdd.rename(states, self._to_next), clusters,
                           self._to_column)
        column = []
        for e in self._nondet:
            index = 0
            for b in e.cur:
                zero = bdd.restrict(cols, {b: 0})
                if zero:
                    cols = zero
                    index <<= 1
                else:
                    cols = bdd.restrict(cols, {b: 1})
                    index = (index << 1) | 1
            column.append(e.values[index])
        return tuple(column)

    # -- concrete states

    def bits(self, state: tuple) -> dict:
        out = {}
        for e, value in zip(self._state, state):
            out.update(_binary(e.cur, e.index[value]))
        return out

    def state_set(self, states: list) -> int:
        rows = {tuple(chain.from_iterable([table[state[i]]
                                           for i, table in self._tables]))
                for state in states}
        return self.bdd.from_rows(self.cur_levels, sorted(rows))

    def contains(self, states: int, state: tuple) -> bool:
        return self.bdd.holds(states, self.bits(state))

    def without(self, states: int, state: tuple) -> int:
        bdd = self.bdd
        return bdd.and_(states, bdd.not_(bdd.cube(self.bits(state))))

    def count(self, states: int) -> int:
        return self.bdd.count(states, self.cur_levels)
