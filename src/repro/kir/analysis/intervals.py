"""Interval analysis of a fast iteration's int32 arithmetic.

The compiled engine wraps every int32 ``+``, ``-``, ``*``, ``<<`` and
unary ``-`` through a range test, because the exact result of two
int32 operands can leave int32 (``docs/architecture.md``, "Int32
arithmetic").  Inside a fast iteration
(:func:`~repro.kir.analysis.loops.fast_iteration`) it compiles such an
operation bare when :func:`iteration_ranges` proves that its exact
result stays in int32 while the iteration's *guards* hold: bounds on a
few of the loop's int locals that the fast copy's head test checks
before the iteration starts.

The pass walks the iteration once in program order (the condition, the
body, a ``for`` loop's update), keeps an interval per int local and
joins the two arms of an ``if`` at its end.  Intervals come from

* int constants;
* ``&`` with a non-negative operand, ``>>``, ``%`` (bounded by the
  dividend, and by a constant divisor), comparisons, ``&&``, ``||``
  and ``!`` (0 or 1), and ``~``;
* an arithmetic operation already proved not to leave int32, which
  gives its exact interval;
* a guard, for a local's value at the head of the iteration.

Every other int is anywhere in int32: loads, ``idiv``, ``int()``,
intrinsics, a wrapped result, and a local the iteration has not
assigned yet and no guard bounds (a hook may have written any in-range
int there before the head).

Guards are chosen per local, in one more walk.  It tracks each int as
``sum(a_v * v) + [lo, hi]`` over the head values ``v`` of the int
locals the iteration reads, and each arithmetic operation affine in a
single one of them asks for the head values that keep it in int32 (CP:
``atomid * 4 + 3`` asks for ``atomid`` in ``[-2**29, 2**29 - 1]``).  A
local's guard is the intersection of its asks, leaving out any ask that
would exclude a value of magnitude up to :data:`GUARD_FLOOR`: such a
guard would fail on ordinary data and send every iteration down the
checked path.  A guard is kept only when the wraps it removes hold more
comparisons than it adds: each wrap is a two-sided range test, and a
guard adds one comparison per side that is not an int32 limit.

The same walk gives each guarded local's *delta*: the constant its
value moves by in one iteration (``atomid++`` moves ``atomid`` by 1),
or None when its value at the end of the iteration is no head value
plus a constant.  While every guard holds, the walk's affine values are
exact, so a counted run of iterations
(:mod:`~repro.kir.interp.codegen`) can tell from the deltas how many
more heads each guard holds at.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.kir.analysis.loops import INT32_MAX, INT32_MIN, iteration_stmts
from repro.kir.astnodes import (
    Assign,
    BinOp,
    Call,
    CallStmt,
    Const,
    Decl,
    Expr,
    If,
    Load,
    SpecialReg,
    Stmt,
    UnOp,
    Var,
    child_exprs,
    walk_exprs,
    walk_stmts,
)
from repro.kir.types import DType

#: A guard never excludes a value in ``[-GUARD_FLOOR, GUARD_FLOOR]``.
GUARD_FLOOR = 1 << 20
_COMPARE = ("<", "<=", ">", ">=", "==", "!=", "&&", "||")

#: ``(lin, lo, hi)``: the ints ``sum(a * v for v, a in lin.items()) + x``
#: for ``x`` in ``[lo, hi]``, where each ``v`` is a local's head value
#: (``lin`` is empty in the walk that checks guards); None for a value
#: that is no int32.
Value = Optional[Tuple[dict, int, int]]
_FULL = ({}, INT32_MIN, INT32_MAX)
_BOOL = ({}, 0, 1)


@dataclass(frozen=True)
class Guard:
    """``lo <= name <= hi`` at the head of a fast iteration."""

    name: str
    lo: int
    hi: int

    @property
    def comparisons(self) -> int:
        """Comparisons the head test spends: an int32 limit needs none."""
        return (self.lo > INT32_MIN) + (self.hi < INT32_MAX)


@dataclass(frozen=True)
class IterationRanges:
    """What a fast iteration may compute without the int32 wrap."""

    guards: Tuple[Guard, ...]
    #: ids of the iteration's int ``+ - * <<`` and unary ``-`` nodes
    #: whose exact result is in int32 whenever every guard holds
    bare: FrozenSet[int]
    #: per guard, what one iteration adds to its local, or None when
    #: that is no constant
    deltas: Tuple[Optional[int], ...]


def _hull(*points: int) -> Tuple[dict, int, int]:
    return {}, min(points), max(points)


def _scaled(lin: dict, c: int) -> dict:
    return {v: a * c for v, a in lin.items()} if c else {}


def _sum(x: dict, y: dict, sign: int = 1) -> dict:
    out = dict(x)
    for v, a in y.items():
        out[v] = out.get(v, 0) + sign * a
        if not out[v]:
            del out[v]
    return out


class _Walk:
    """One pass over an iteration, from ``env``: the value of each int
    local at the head (anything in int32 for the rest).

    :attr:`proved` records which operations stay in int32, and
    :attr:`need` the head values of each local that its asks allow;
    :attr:`asked` names the local whose ask proved an operation.
    """

    def __init__(self, env: Dict[str, Tuple[dict, int, int]]):
        self.env = dict(env)
        self.need: Dict[str, Tuple[int, int]] = {}
        self.asked: Dict[int, str] = {}
        #: id of each arithmetic node -> whether every visit proved it
        self.proved: Dict[int, bool] = {}

    # -- values --------------------------------------------------------------
    def _ask(self, e: Expr, value: Tuple[dict, int, int]) -> bool:
        """Whether ``value`` stays in int32; a value affine in one head
        value asks that value to stay where it does, within the floor."""
        lin, lo, hi = value
        if not lin:
            return INT32_MIN <= lo and hi <= INT32_MAX
        if len(lin) > 1:
            return False
        ((v, a),) = lin.items()
        # a*v + lo >= INT32_MIN and a*v + hi <= INT32_MAX, solved for v
        if a > 0:
            least, most = -((lo - INT32_MIN) // a), (INT32_MAX - hi) // a
        else:
            least, most = -((hi - INT32_MAX) // a), (INT32_MIN - lo) // a
        if least > -GUARD_FLOOR or most < GUARD_FLOOR:
            return False
        if least > INT32_MIN or most < INT32_MAX:
            self.asked[id(e)] = v
            old = self.need.get(v, (INT32_MIN, INT32_MAX))
            self.need[v] = (max(least, old[0]), min(most, old[1]))
        return True

    def _arith(self, e: Expr, value: Value):
        """The result of wrapping operation ``e``: ``value`` when it is
        known and stays in int32, else anything in int32."""
        ok = value is not None and self._ask(e, value)
        self.proved[id(e)] = self.proved.get(id(e), True) and ok
        return value if ok else _FULL

    @staticmethod
    def _interval(value: Tuple[dict, int, int]) -> Tuple[int, int]:
        lin, lo, hi = value
        return (INT32_MIN, INT32_MAX) if lin else (lo, hi)

    def expr(self, e: Expr) -> Value:
        int32 = e.dtype is DType.INT32
        if isinstance(e, Const):
            return ({}, e.value, e.value) if int32 else None
        if isinstance(e, (Var, SpecialReg)):
            return self.env.get(e.name, _FULL) if int32 else None
        if isinstance(e, BinOp):
            left, right = self.expr(e.left), self.expr(e.right)
            if e.op in _COMPARE:
                return _BOOL
            if not int32:
                return None
            if left is None or right is None:
                return _FULL
            return self._binop(e, left, right)
        if isinstance(e, UnOp):
            x = self.expr(e.operand)
            if e.op == "!":
                return _BOOL
            if not int32 or x is None:
                return _FULL if int32 else None
            if e.op == "-":
                return self._arith(e, (_scaled(x[0], -1), -x[2], -x[1]))
            lo, hi = self._interval(x)
            return {}, ~hi, ~lo
        for child in (e.args if isinstance(e, Call) else
                      (e.ptr, e.index) if isinstance(e, Load) else ()):
            self.expr(child)
        return _FULL if int32 else None

    def _binop(self, e: BinOp, left, right) -> Tuple[dict, int, int]:
        op = e.op
        if op == "+":
            return self._arith(e, (_sum(left[0], right[0]), left[1] + right[1],
                                   left[2] + right[2]))
        if op == "-":
            return self._arith(e, (_sum(left[0], right[0], -1), left[1] - right[2],
                                   left[2] - right[1]))
        if op in ("*", "<<"):
            if op == "<<":
                s_lo, s_hi = self._interval(right)
                if not 0 <= s_lo <= s_hi <= 31:
                    s_lo, s_hi = 0, 31  # the shift count is taken & 31
                right = ({}, 1 << s_lo, 1 << s_hi)
            return self._arith(e, self._product(left, right))
        lo, hi = self._interval(left)
        r_lo, r_hi = self._interval(right)
        if op == ">>":
            if not 0 <= r_lo <= r_hi <= 31:
                r_lo, r_hi = 0, 31
            return _hull(lo >> r_lo, lo >> r_hi, hi >> r_lo, hi >> r_hi)
        if op == "&":
            tops = [h for low, h in ((lo, hi), (r_lo, r_hi)) if low >= 0]
            return ({}, 0, min(tops)) if tops else _FULL
        if op == "%":
            # C's remainder takes the dividend's sign and is smaller in
            # magnitude than both operands
            most = max(-lo, hi)
            if r_lo == r_hi != 0:
                most = min(most, abs(r_lo) - 1)
            return {}, (0 if lo >= 0 else -most), (0 if hi <= 0 else most)
        return _FULL  # / | ^

    @staticmethod
    def _product(left, right) -> Value:
        """``left * right`` when one factor is a constant or neither
        depends on a head value, else None."""
        for x, c in ((left, right), (right, left)):
            if not c[0] and c[1] == c[2]:
                lo, hi = sorted((x[1] * c[1], x[2] * c[1]))
                return _scaled(x[0], c[1]), lo, hi
        if left[0] or right[0]:
            return None
        return _hull(left[1] * right[1], left[1] * right[2],
                     left[2] * right[1], left[2] * right[2])

    # -- statements ----------------------------------------------------------
    def block(self, stmts: List[Stmt]) -> None:
        for s in stmts:
            if isinstance(s, (Decl, Assign)):
                rhs, target = (s.init, s.var_dtype) if isinstance(s, Decl) else (s.value, s.target_dtype)
                value = self.expr(rhs)
                if target is DType.INT32:
                    # a float converted to int is anywhere in int32
                    self.env[s.name] = value if rhs.dtype is DType.INT32 else _FULL
            elif isinstance(s, If):
                self.expr(s.cond)
                before = self.env
                self.env = dict(before)
                self.block(s.then)
                then = self.env
                self.env = dict(before)
                self.block(s.els)
                self.env = {name: self._join(then[name], value)
                            for name, value in self.env.items() if name in then}
            elif isinstance(s, CallStmt):
                for a in s.args:
                    self.expr(a)

    @staticmethod
    def _join(x, y) -> Tuple[dict, int, int]:
        if x[0] != y[0]:
            return _FULL
        return x[0], min(x[1], y[1]), max(x[2], y[2])

    def iteration(self, loop: Stmt) -> "_Walk":
        self.expr(loop.cond)
        self.block(iteration_stmts(loop))
        return self


def _int_reads(loop: Stmt) -> List[str]:
    """The int locals the iteration reads, in first-read order."""
    exprs = [loop.cond] + [e for s, _depth in walk_stmts(iteration_stmts(loop))
                           for e in child_exprs(s)]
    names = [node.name for e in exprs for node in walk_exprs(e)
             if isinstance(node, (Var, SpecialReg)) and node.dtype is DType.INT32]
    return list(dict.fromkeys(names))


def _delta(v: str, end: Value) -> Optional[int]:
    """What an iteration adds to ``v``, from its value ``end`` at the
    end of the asks walk: ``v``'s head value plus a constant, or None."""
    if end is None or end[0] != {v: 1} or end[1] != end[2]:
        return None
    return end[1]


def iteration_ranges(loop: Stmt) -> IterationRanges:
    """The guards and bare operations of one fast iteration of ``loop``
    (a loop :func:`~repro.kir.analysis.loops.fast_iteration` accepts)."""
    asks = _Walk({v: ({v: 1}, 0, 0) for v in _int_reads(loop)}).iteration(loop)
    guards = dict(asks.need)
    while True:
        walk = _Walk({v: ({}, lo, hi) for v, (lo, hi) in guards.items()}).iteration(loop)
        bare = frozenset(node for node, ok in walk.proved.items() if ok)
        # an operation a guard's ask proved is wrapped without the guard
        removed = Counter(asks.asked[node] for node in bare if node in asks.asked)
        weak = [v for v in guards
                if 2 * removed[v] <= Guard(v, *guards[v]).comparisons]
        if not weak:
            return IterationRanges(
                tuple(Guard(v, lo, hi) for v, (lo, hi) in guards.items()), bare,
                tuple(_delta(v, asks.env.get(v)) for v in guards))
        for v in weak:
            del guards[v]
