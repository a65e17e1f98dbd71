"""Loop-nest discovery and static trip-count derivation.

The loop detector checks the accumulation counter against a derived
iteration-count invariant (Section V.B step iii/iv): "often, we can
calculate the loop iteration count (e.g. loop iteration count is MAX
for ``for(int i=0; i<MAX; i++)``)".  ``derive_trip_count`` recognizes
the affine-for pattern and returns an expression for the count that is
evaluated *before* the loop, or ``None`` when the count cannot be
derived (e.g. the bound is written inside the body, or data-dependent
``break``/``while`` control).

``hang_shape`` builds on it for the compiled engine's hang verdicts: a
loop whose every iteration runs the same fixed number of statements
and can crash only at an affine load lets a fault-injection trial
decide arithmetically, at the loop head, that the thread will run out
its statement budget (see ``docs/architecture.md``, "Hang verdicts").
``fast_iteration`` picks the loops whose iterations the compiled engine
may run without per-statement bookkeeping once their hooks have retired
(``docs/architecture.md``, "Fast iterations and inline loads"), and
``numpy_run`` those whose long counted runs it may compute as array
operations instead (the same section, "NumPy runs"); all three refuse a
loop with one reason vocabulary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from repro.kir.astnodes import (
    Assign,
    AtomicAdd,
    BinOp,
    Break,
    Call,
    CallStmt,
    Const,
    Continue,
    Decl,
    Expr,
    For,
    If,
    Kernel,
    Load,
    Return,
    SharedLoad,
    SharedStore,
    SpecialReg,
    Stmt,
    Store,
    UnOp,
    Var,
    While,
    child_exprs,
    walk_exprs,
    walk_stmts,
)
from repro.kir.analysis.dataflow import names_read_expr, names_written_stmt
from repro.kir.types import DType


@dataclass
class LoopInfo:
    """One loop in a kernel's loop forest."""

    loop_id: int
    stmt: Stmt  # the For/While node
    depth: int  # 0 = top-level loop
    parent: Optional[int]
    is_for: bool
    iter_var: Optional[str]
    #: Expression computing the trip count before loop entry, if derivable.
    trip_count: Optional[Expr]
    children: List[int] = field(default_factory=list)

    @property
    def body(self) -> List[Stmt]:
        return self.stmt.body


def _contains_early_exit(body: List[Stmt]) -> bool:
    """True if the loop body can leave the loop before the condition fails."""
    for stmt in body:
        if isinstance(stmt, (Break, Return)):
            return True
        if isinstance(stmt, If):
            if _contains_early_exit(stmt.then) or _contains_early_exit(stmt.els):
                return True
        # nested loops capture their own breaks; do not recurse into them
    return False


def _affine_step(update: Assign, it: str) -> Optional[int]:
    """Signed constant step of ``i = i + c`` / ``i = i - c``, else None."""
    v = update.value
    if update.name != it or not isinstance(v, BinOp) or v.op not in ("+", "-"):
        return None
    if isinstance(v.left, Var) and v.left.name == it and isinstance(v.right, Const):
        step = v.right.value
        if v.op == "-":
            step = -step
        return step if isinstance(step, int) else None
    if (
        v.op == "+"
        and isinstance(v.right, Var)
        and v.right.name == it
        and isinstance(v.left, Const)
        and isinstance(v.left.value, int)
    ):
        return v.left.value
    return None


def _iterator_bounds(cond: Expr, it: str) -> Optional[Tuple[str, Expr]]:
    """Normalize a loop condition to (comparison-op, bound) on the iterator.

    Handles ``i < B`` / ``i <= B`` / ``i > B`` / ``i >= B`` and the
    conjunction form the paper calls out — ``i < A && i < B`` derives
    ``min(A, B)`` (Section V.B: "for a loop for(int x=0,y=0; x<A &&
    y<B; ...) the loop iteration count is the minimum of A and B").
    """
    if isinstance(cond, BinOp) and cond.op == "&&":
        left = _iterator_bounds(cond.left, it)
        right = _iterator_bounds(cond.right, it)
        if left is None or right is None or left[0] != right[0]:
            return None
        op = left[0]
        pick = "min" if op in ("<", "<=") else "max"
        return op, Call(pick, [left[1], right[1]])
    if not isinstance(cond, BinOp) or cond.op not in ("<", "<=", ">", ">="):
        return None
    if isinstance(cond.left, Var) and cond.left.name == it:
        return cond.op, cond.right
    # flipped spelling: B > i  <=>  i < B
    if isinstance(cond.right, Var) and cond.right.name == it:
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        return flip[cond.op], cond.left
    return None


def derive_trip_count(loop: For) -> Optional[Expr]:
    """Trip-count expression for an affine for loop, else ``None``.

    Recognized shapes (Section V.B step iii):

    * ``for (int i = start; i < bound; i += step)`` with constant
      positive step (also ``<=``, and ``bound > i`` spellings);
    * decreasing loops ``for (int i = start; i > bound; i -= step)``
      (also ``>=``);
    * conjunction bounds ``i < A && i < B`` -> ``min(A, B)``;

    provided neither the iterator nor any variable in ``start``/the
    bound is written in the body, and the body cannot exit early.
    The returned expression uses C integer arithmetic, clamped at zero.
    """
    if loop.init is None or loop.update is None or loop.cond is None:
        return None
    it = loop.init.name
    normalized = _iterator_bounds(loop.cond, it)
    if normalized is None:
        return None
    op, bound = normalized
    step = _affine_step(loop.update, it)
    if step is None or step == 0:
        return None
    increasing = step > 0
    if increasing and op not in ("<", "<="):
        return None
    if not increasing and op not in (">", ">="):
        return None
    written = names_written_stmt(loop) - {it}
    invariants = names_read_expr(bound) | names_read_expr(loop.init.init)
    if invariants & written:
        return None
    if _contains_early_exit(loop.body):
        return None
    start = loop.init.init
    if increasing:
        span: Expr = BinOp("-", bound, start)
    else:
        span = BinOp("-", start, bound)
        step = -step
    if op in ("<=", ">="):
        span = BinOp("+", span, Const(1))
    if step != 1:
        span = BinOp("/", BinOp("+", span, Const(step - 1)), Const(step))
    return Call("max", [span, Const(0)])


def find_loops(kernel: Kernel) -> Dict[int, LoopInfo]:
    """All loops in a validated kernel, keyed by loop id."""
    loops: Dict[int, LoopInfo] = {}

    def visit(body: List[Stmt], depth: int, parent: Optional[int]) -> None:
        for stmt in body:
            if isinstance(stmt, For):
                info = LoopInfo(
                    loop_id=stmt.loop_id,
                    stmt=stmt,
                    depth=depth,
                    parent=parent,
                    is_for=True,
                    iter_var=stmt.init.name if stmt.init is not None else None,
                    trip_count=derive_trip_count(stmt),
                )
                loops[stmt.loop_id] = info
                if parent is not None:
                    loops[parent].children.append(stmt.loop_id)
                visit(stmt.body, depth + 1, stmt.loop_id)
            elif isinstance(stmt, While):
                info = LoopInfo(
                    loop_id=stmt.loop_id,
                    stmt=stmt,
                    depth=depth,
                    parent=parent,
                    is_for=False,
                    iter_var=None,
                    trip_count=None,
                )
                loops[stmt.loop_id] = info
                if parent is not None:
                    loops[parent].children.append(stmt.loop_id)
                visit(stmt.body, depth + 1, stmt.loop_id)
            elif isinstance(stmt, If):
                visit(stmt.then, depth, parent)
                visit(stmt.els, depth, parent)
    visit(kernel.body, 0, None)
    return loops


def top_level_loops(kernel: Kernel) -> List[LoopInfo]:
    """Loops not nested in another loop, in program order."""
    loops = find_loops(kernel)
    return [info for info in loops.values() if info.parent is None]


# ---------------------------------------------------------------------------
# Hang verdicts
# ---------------------------------------------------------------------------

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1

#: Why a loop has no :class:`HangShape` or :class:`FastIteration` (the
#: value :func:`hang_shape` or :func:`fast_iteration` returns instead).
NO_TRIP_COUNT = "no_trip_count"
NESTED_LOOP = "nested_loop"
BRANCH = "branch"
EARLY_EXIT = "early_exit"
STORE = "store"
ATOMIC = "atomic"
SHARED_MEMORY = "shared_memory"
ITERATOR = "iterator"
CONDITION = "condition"
DIVISION = "division"
INTRINSIC = "intrinsic"
LOAD_NOT_AFFINE = "load_not_affine"

#: Intrinsics whose implementation returns a value for any int32 or
#: float argument; ``abs`` only for an int argument (it truncates
#: through ``int()``, which raises on NaN and infinities).
_TOTAL_INTRINSICS = frozenset({
    "sqrt", "rsqrt", "exp", "log", "sin", "cos", "acos", "atan2", "floor",
    "fabs", "pow", "fmin", "fmax", "min", "max", "int", "float", "__float_as_int",
})

_BODY_OBSTACLES = (
    ((For, While), NESTED_LOOP),
    (If, BRANCH),
    ((Break, Continue, Return), EARLY_EXIT),
    (Store, STORE),
    (AtomicAdd, ATOMIC),
    (SharedStore, SHARED_MEMORY),
)


def _int32(e: Expr) -> bool:
    return e.dtype is DType.INT32


@dataclass(frozen=True)
class AffineLoad:
    """A load ``ptr[index]`` of a :class:`HangShape` loop.

    ``index`` is affine in the iterator: built from the iterator,
    loop-invariant subtrees, int32 ``+``/``-``, unary ``-`` and ``*``
    by an int constant.  ``nodes`` are its subtrees that read the
    iterator, innermost first and the whole index last (the whole index
    alone when it does not read the iterator); ``coefs`` are
    their coefficients of the iterator, so node ``n`` evaluates to
    ``coefs[n] * i + (its value at i = 0)`` as long as no node wraps.
    """

    #: the load's statement among an iteration's checked statements
    #: (1 is the condition)
    position: int
    ptr: Expr
    nodes: Tuple[Expr, ...]
    coefs: Tuple[int, ...]


@dataclass(frozen=True)
class HangShape:
    """A ``for`` loop whose remaining run is arithmetic.

    Every iteration runs ``period`` checked statements: the condition,
    each body statement once, and the update.  Nothing in it can end
    the loop but the condition, and nothing can crash but a load of an
    address outside device memory.  The iterator moves by ``step`` and
    the condition is ``iterator op bound`` with ``bound`` invariant.
    """

    loop_id: int
    iter_var: str
    step: int
    op: str
    bound: Expr
    period: int
    #: the instrumentation call statements of the body
    calls: Tuple[CallStmt, ...]
    loads: Tuple[AffineLoad, ...]

    def iterations_left(self, i: int, bound: int) -> int:
        """Iterations whose condition holds, from iterator value ``i``
        on, in exact arithmetic."""
        if self.step > 0:
            span, step = bound - i + (self.op == "<="), self.step
        else:
            span, step = i - bound + (self.op == ">="), -self.step
        return max(0, -(-span // step))

    def runs_out(self, ticks: int, capacity: int, i, bound, loads: tuple) -> bool:
        """Whether the ``ticks``-th checked statement from the head of
        an iteration comes before the loop ends or any load leaves
        ``[0, capacity)``.

        ``i`` and ``bound`` are the iterator and bound values there;
        ``loads`` holds, per entry of :attr:`loads`, the pointer value
        followed by each node's value at ``i = 0`` in exact arithmetic.
        Gives False when any value is not an int, or when the iterator
        or an index node would leave int32 before that statement, since
        the generated code wraps where exact arithmetic does not.
        """
        if type(i) is not int or type(bound) is not int:
            return False
        period = self.period
        if ticks > self.iterations_left(i, bound) * period + 1:
            return False  # the condition ends the loop first
        last = i + (ticks - 1) // period * self.step  # iterator at that tick
        if not INT32_MIN <= last <= INT32_MAX:
            return False
        for load, values in zip(self.loads, loads):
            ptr = values[0]
            if type(ptr) is not int:
                return False
            for coef, at_zero in zip(load.coefs, values[1:]):
                if type(at_zero) is not int:
                    return False
                lo, hi = sorted((coef * i + at_zero, coef * last + at_zero))
                if lo < INT32_MIN or hi > INT32_MAX:
                    return False
            first = ptr + load.coefs[-1] * i + values[-1]
            stride = load.coefs[-1] * self.step
            if not 0 <= first < capacity:
                leaves = 0
            elif stride > 0:
                leaves = (capacity - first + stride - 1) // stride
            elif stride < 0:
                leaves = first // -stride + 1
            else:
                continue
            if ticks > leaves * period + load.position:
                return False  # this load crashes first
        return True


def _affine(e: Expr, it: str, nodes: list) -> Optional[int]:
    """Coefficient of ``it`` in ``e`` if ``e`` is affine in it (see
    :class:`AffineLoad`), else None; appends each node reading ``it``
    to ``nodes`` as ``(node, coef)``, innermost first."""
    if it not in names_read_expr(e):
        return 0
    coef: Optional[int] = None
    if isinstance(e, Var):
        coef = 1
    elif isinstance(e, UnOp) and e.op == "-" and _int32(e) and _int32(e.operand):
        inner = _affine(e.operand, it, nodes)
        coef = None if inner is None else -inner
    elif (isinstance(e, BinOp) and e.op in ("+", "-", "*")
          and _int32(e) and _int32(e.left) and _int32(e.right)):
        left, right = _affine(e.left, it, nodes), _affine(e.right, it, nodes)
        if left is None or right is None:
            return None
        if e.op == "+":
            coef = left + right
        elif e.op == "-":
            coef = left - right
        elif isinstance(e.left, Const) and isinstance(e.left.value, int):
            coef = e.left.value * right
        elif isinstance(e.right, Const) and isinstance(e.right.value, int):
            coef = left * e.right.value
    if coef is not None:
        nodes.append((e, coef))
    return coef


def _scan(e: Expr, it: str, position: int, loads: List[AffineLoad]) -> Optional[str]:
    """Why evaluating ``e`` could raise, other than by an affine load
    leaving device memory, or None; collects those loads."""
    if isinstance(e, Load):
        nodes: list = []
        if it in names_read_expr(e.ptr) or _affine(e.index, it, nodes) is None:
            return LOAD_NOT_AFFINE
        if not nodes:  # an invariant index
            nodes.append((e.index, 0))
        for part in (e.ptr, e.index):
            inner: List[AffineLoad] = []
            reason = _scan(part, it, position, inner)
            if reason is not None:
                return reason
            if inner:
                return LOAD_NOT_AFFINE
        loads.append(AffineLoad(position, e.ptr, tuple(n for n, _ in nodes),
                                tuple(c for _, c in nodes)))
        return None
    if isinstance(e, SharedLoad):
        return SHARED_MEMORY
    if isinstance(e, BinOp):
        if e.op == "%" or (e.op == "/" and _int32(e) and _int32(e.left)
                           and _int32(e.right)):
            divisor = e.right
            if not (isinstance(divisor, Const) and isinstance(divisor.value, int)
                    and divisor.value != 0 and _int32(e.left)):
                return DIVISION
        return _scan(e.left, it, position, loads) or _scan(e.right, it, position, loads)
    if isinstance(e, UnOp):
        return _scan(e.operand, it, position, loads)
    if isinstance(e, Call):
        if e.func not in _TOTAL_INTRINSICS and not (
                e.func == "abs" and all(_int32(a) for a in e.args)):
            return INTRINSIC
        for a in e.args:
            reason = _scan(a, it, position, loads)
            if reason is not None:
                return reason
    return None


def _bound_reason(cond: Expr, it: str) -> Optional[str]:
    """Why ``cond`` (an ``_iterator_bounds`` shape) is no plain int32
    comparison of the iterator with an invariant, raise-free bound."""
    if isinstance(cond, BinOp) and cond.op == "&&":
        return _bound_reason(cond.left, it) or _bound_reason(cond.right, it)
    bound = cond.right if isinstance(cond.left, Var) and cond.left.name == it else cond.left
    found: List[AffineLoad] = []
    if (not _int32(bound) or it in names_read_expr(bound)
            or _scan(bound, it, 1, found) is not None or found):
        return CONDITION
    return None


def hang_shape(loop: Stmt) -> Union[HangShape, str]:
    """The loop's :class:`HangShape`, or why it has none.

    A ``for`` loop qualifies when :func:`derive_trip_count` gives its
    count; its iterator is an int; its body has no nested loop, no
    ``if``, no store, atomic or shared-memory access, no
    ``break``/``continue``/``return`` and no write to the iterator; no
    int ``/`` or ``%`` by anything but a non-zero constant; calls only
    intrinsics that return for every argument; and loads only at
    addresses affine in the iterator whose other names the loop does
    not write.
    """
    if not isinstance(loop, For) or derive_trip_count(loop) is None:
        return NO_TRIP_COUNT
    it = loop.init.name
    for stmt in loop.body:
        for kinds, reason in _BODY_OBSTACLES:
            if isinstance(stmt, kinds):
                return reason
    if loop.init.var_dtype is not DType.INT32:
        return ITERATOR
    written = set()
    for stmt in loop.body:
        written |= names_written_stmt(stmt)
    if it in written:
        return ITERATOR
    written.add(it)
    reason = _bound_reason(loop.cond, it)
    if reason is not None:
        return reason
    loads: List[AffineLoad] = []
    for position, stmt in enumerate(loop.body + [loop.update], start=2):
        for e in child_exprs(stmt):
            reason = _scan(e, it, position, loads)
            if reason is not None:
                return reason
    for load in loads:
        invariant = names_read_expr(load.ptr) | names_read_expr(load.nodes[-1])
        if (invariant - {it}) & written:
            return LOAD_NOT_AFFINE
    op, bound = _iterator_bounds(loop.cond, it)
    calls = tuple(s for s in loop.body if isinstance(s, CallStmt))
    return HangShape(
        loop_id=loop.loop_id, iter_var=it, step=_affine_step(loop.update, it),
        op=op, bound=bound, period=len(loop.body) + 2, calls=calls,
        loads=tuple(loads),
    )


# ---------------------------------------------------------------------------
# Fast iterations
# ---------------------------------------------------------------------------

#: What keeps a loop's iterations on the checked path; an ``if`` does not.
_ITERATION_OBSTACLES = tuple(entry for entry in _BODY_OBSTACLES if entry[1] != BRANCH)


@dataclass(frozen=True)
class FastIteration:
    """A loop whose iterations the compiled engine may run unchecked.

    Nothing in an iteration writes memory, touches shared memory, runs
    a nested loop or leaves the loop but the condition, so an iteration
    that raises can be rerun from the locals and counters it started
    from with the same result.  ``max_steps`` is the most checked
    statements one iteration runs: the condition, each body statement
    (an ``if`` and the longer of its arms) and the update.
    """

    loop_id: int
    max_steps: int
    #: the instrumentation call statements of the body, which must all
    #: have retired (by name or by statement) before an iteration runs
    #: unchecked
    calls: Tuple[CallStmt, ...]


def iteration_stmts(loop: Stmt) -> List[Stmt]:
    """The statements one iteration of ``loop`` runs after its
    condition: the body, then a ``for`` loop's update."""
    update = loop.update if isinstance(loop, For) else None
    return loop.body + ([update] if update is not None else [])


def _reads_shared(stmt: Stmt) -> bool:
    return any(isinstance(node, SharedLoad)
               for e in child_exprs(stmt) for node in walk_exprs(e))


def _iteration_steps(stmts: List[Stmt]) -> Union[int, str]:
    """Most checked statements ``stmts`` run, or why one may not run
    unchecked."""
    steps = 0
    for stmt in stmts:
        for kinds, reason in _ITERATION_OBSTACLES:
            if isinstance(stmt, kinds):
                return reason
        if _reads_shared(stmt):
            return SHARED_MEMORY
        steps += 1
        if isinstance(stmt, If):
            arms = (_iteration_steps(stmt.then), _iteration_steps(stmt.els))
            for arm in arms:
                if isinstance(arm, str):
                    return arm
            steps += max(arms)
    return steps


def fast_iteration(loop: Stmt) -> Union[FastIteration, str]:
    """The loop's :class:`FastIteration`, or why it has none.

    A ``for`` or ``while`` loop qualifies when its condition, body and
    update have no nested loop, store, atomic, shared-memory access or
    ``break``/``continue``/``return``; ``if`` statements, loads, calls
    and instrumentation calls are allowed.
    """
    if _reads_shared(loop):
        return SHARED_MEMORY
    steps = _iteration_steps(iteration_stmts(loop))
    if isinstance(steps, str):
        return steps
    calls = tuple(s for s, _depth in walk_stmts(loop.body) if isinstance(s, CallStmt))
    return FastIteration(loop_id=loop.loop_id, max_steps=1 + steps, calls=calls)


# ---------------------------------------------------------------------------
# NumPy runs
# ---------------------------------------------------------------------------

#: Why a counted run has no :class:`NumpyRun` (the value
#: :func:`numpy_run` returns instead), besides :data:`INTRINSIC` (a call
#: other than ``sqrt``) and :data:`LOAD_NOT_AFFINE` (a load whose
#: address is no bare affine index of an induction): a local carried
#: from one iteration to the next that is no affine induction and no
#: single-op reduction read only by its update; an int value outside a
#: load address other than an induction's update, or a float operation
#: other than ``+ - * /`` and negation.
RECURRENCE = "recurrence"
OPERATOR = "operator"


@dataclass(frozen=True)
class NumpyRun:
    """A counted run whose iterations can be computed as float64 array
    operations, each correctly rounded as the scalar run's is.

    Every local an iteration assigns is one of three kinds: a float
    local assigned before the iteration reads it (its value in the last
    iteration is its final value); an *induction*, an int local
    assigned once by ``v = v + c`` or ``v = v - c`` that computes bare,
    so its value in iteration ``j`` is ``v + c * j``; or a float
    *reduction*, assigned once by ``v = v op e`` (``op`` one of
    ``+ - *``; ``e op v`` for ``+`` and ``*``) with ``e`` not reading
    ``v`` and no other statement reading it, whose values a
    left-to-right ``accumulate`` gives.  Their right-hand sides compute
    with float ``+ - * /``, negation and ``sqrt`` on float constants,
    locals and loads; an int appears only in a load's address, which is
    an induction with a non-zero step under bare ``+ - *`` by int
    constants, so the load reads a strided slice.
    """

    loop_id: int
    #: (name, what one iteration adds to it)
    inductions: Tuple[Tuple[str, int], ...]
    #: (name, its operator)
    reductions: Tuple[Tuple[str, str], ...]


def _stride(e: Expr, steps: Dict[str, int], bare: FrozenSet[int]) -> Optional[int]:
    """What int expression ``e`` gains per iteration when it is a bare
    affine index (see :class:`NumpyRun`), else None."""
    if isinstance(e, Var):
        return steps.get(e.name) or None
    if not (isinstance(e, BinOp) and e.op in ("+", "-", "*") and id(e) in bare):
        return None
    left = _stride(e.left, steps, bare)
    stride, other = (left, e.right) if left is not None else (_stride(e.right, steps, bare), e.left)
    if stride is None or not isinstance(other, Const):
        return None
    if e.op == "*":
        return stride * other.value or None
    return -stride if e.op == "-" and left is None else stride


def _array_reason(e: Expr, steps: Dict[str, int], bare: FrozenSet[int]) -> Optional[str]:
    """Why float expression ``e`` has no exact array form (see
    :class:`NumpyRun`), or None."""
    if e.dtype is not DType.FLOAT32:
        return OPERATOR  # an int value
    if isinstance(e, (Const, Var)):
        return None
    if isinstance(e, Load):
        if isinstance(e.ptr, Var) and _stride(e.index, steps, bare):
            return None
        return LOAD_NOT_AFFINE
    if isinstance(e, BinOp) and e.op in ("+", "-", "*", "/"):
        return _array_reason(e.left, steps, bare) or _array_reason(e.right, steps, bare)
    if isinstance(e, UnOp) and e.op == "-":
        return _array_reason(e.operand, steps, bare)
    if isinstance(e, Call):
        for a in e.args:
            reason = _array_reason(a, steps, bare)
            if reason is not None:
                return reason
        return None if e.func == "sqrt" else INTRINSIC
    return OPERATOR


def _carried(name: str, s: Stmt, rhs: Expr, reads: Counter,
             bare: FrozenSet[int]) -> Optional[tuple]:
    """``("induction", c)`` or ``("reduction", op)`` for the one
    assignment ``s`` of a local the iteration reads before assigning,
    or None."""
    target = s.var_dtype if isinstance(s, Decl) else s.target_dtype
    if not isinstance(rhs, BinOp) or rhs.op not in ("+", "-", "*") or rhs.dtype is not target:
        return None
    left, right = (isinstance(x, Var) and x.name == name for x in (rhs.left, rhs.right))
    if left and not right:
        other = rhs.right
    elif right and not left and rhs.op != "-":
        other = rhs.left
    else:
        return None
    if _int32(rhs) and id(rhs) not in bare:
        return None  # its int operation may wrap within the run
    if (_int32(rhs) and rhs.op != "*" and isinstance(other, Const)
            and isinstance(other.value, int)):
        return "induction", other.value * (-1 if rhs.op == "-" else 1)
    if reads[name] == 1:  # read by this operand alone
        return "reduction", rhs.op
    return None


def numpy_run(loop: Stmt, bare: FrozenSet[int]) -> Union[NumpyRun, str]:
    """The :class:`NumpyRun` of a loop with a :class:`HangShape`, or why
    it has none; ``bare`` holds the ids of the int operations its fast
    iteration computes without the int32 wrap
    (:func:`~repro.kir.analysis.intervals.iteration_ranges`).  A retired
    hook call's arguments are read but not computed: in a loop with a
    hang shape they cannot raise."""
    stmts = iteration_stmts(loop)
    reads: List[set] = []  # per statement, the names it reads
    counts: Counter = Counter()
    for s in stmts:
        names = [node.name for e in child_exprs(s) for node in walk_exprs(e)
                 if isinstance(node, (Var, SpecialReg))]
        counts.update(names)
        reads.append(set(names))
    assigns = [(s, s.init if isinstance(s, Decl) else s.value)
               for s in stmts if isinstance(s, (Decl, Assign))]
    writes = Counter(s.name for s, _rhs in assigns)
    kinds: Dict[str, tuple] = {}
    assigned: set = set()
    for s, names in zip(stmts, reads):
        if not isinstance(s, (Decl, Assign)):
            continue
        if s.name in names and s.name not in assigned:
            rhs = s.init if isinstance(s, Decl) else s.value
            kind = _carried(s.name, s, rhs, counts, bare) if writes[s.name] == 1 else None
            if kind is None:
                return RECURRENCE
            kinds[s.name] = kind
        assigned.add(s.name)
    # any other local read before the statement assigning it carries
    # its value from the iteration before
    assigned.clear()
    for s, names in zip(stmts, reads):
        if (names & writes.keys()) - assigned - kinds.keys():
            return RECURRENCE
        if isinstance(s, (Decl, Assign)):
            assigned.add(s.name)
    steps = {n: k[1] for n, k in kinds.items() if k[0] == "induction"}
    for s, rhs in assigns:
        if s.name in steps:
            continue
        target = s.var_dtype if isinstance(s, Decl) else s.target_dtype
        reason = OPERATOR if target is not DType.FLOAT32 else _array_reason(rhs, steps, bare)
        if reason is not None:
            return reason
    return NumpyRun(
        loop_id=loop.loop_id,
        inductions=tuple(steps.items()),
        reductions=tuple((n, k[1]) for n, k in kinds.items() if k[0] == "reduction"),
    )
