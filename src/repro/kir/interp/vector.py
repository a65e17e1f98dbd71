"""Warp-vectorized KIR execution: NumPy array programs over the grid.

The third execution engine.  Where the closure compiler runs one
Python closure per thread per statement, this compiler lowers
straight-line regions to NumPy array operations evaluated over every
thread of the grid at once: the thread id is an ``arange``, each
per-thread register is an ndarray column, and global loads/stores are
gathers/scatters against the ``np.uint32`` device backing store.

Semantics are *bit-exact* with the closure interpreter:

* kernel floats are IEEE float64 everywhere except through memory
  (stores round through binary32), so float columns are ``np.float64``
  and every operation maps to the identical IEEE double operation;
* int columns are ``np.int64`` wrapped to two's-complement int32 after
  the same operations the scalar path wraps (products and shifted
  values stay well inside int64);
* transcendentals that NumPy does not guarantee to round like
  ``libm`` (exp/log/sin/cos/acos/atan2/pow) evaluate element-wise
  through the *same* scalar implementations the interpreter uses;
  sqrt and division are correctly rounded in both and stay vectorized;
* cost-model charges are dyadic rationals (multiples of 1/8), so
  per-lane float64 accumulation followed by ``np.sum`` equals the
  sequential single-accumulator total bit-for-bit.

Branch divergence is handled with predication masks driven by the
uniformity analysis (:mod:`repro.kir.analysis.uniformity`): branches
whose condition is statically grid-uniform keep scalar control flow,
divergent branches run both arms under an active-lane mask, and loops
iterate with a draining mask (lanes leave at their own trip counts,
paying the failing-condition check exactly like the scalar path).

Sequential-equivalence guard: the grid *is* sequential in the closure
engine (threads run in gtid order), so any cross-lane data flow through
global memory would let vector execution diverge from it.  Per-address
``owner``/``read_by`` maps detect any lane touching a word another lane
wrote (or writing a word another lane read) and raise
:class:`VectorBailout`; the runtime then falls back to the scalar
engines for that launch.  Same for any in-lane crash or watchdog
overrun — sequential failure semantics (lowest-gtid failing thread,
earlier threads' stores visible) are reproduced by a scalar rerun.

Instrumentation hooks are never called here: the runtime serves only
launches whose library reports every hook a no-op (the null library,
or an unarmed fault injector), so a hook charges its cost and nothing
else.  An armed fault-injection launch runs on the scalar engines;
the fast path for a one-fault trial is differential single-thread
replay (:mod:`repro.swifi.differential`), whose fault-free golden
recording this engine serves with per-lane footprints.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.bits import bits_to_int, float_to_bits, wrap_i32
from repro.errors import (
    KernelCrash,
    KernelHang,
    KIRError,
    KIRValidationError,
)
from repro.gpu.memory import GlobalMemory, ThreadFootprint
from repro.gpu.paging import PagedWords
from repro.kir.analysis.uniformity import GRID_SEEDS, expr_varies, grid_varying_names
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
    SpecialReg,
    Stmt,
    Store,
    UnOp,
    Var,
    While,
    walk_stmts,
)
from repro.kir.interp.evalcore import (
    INTRINSIC_IMPL,
    c_int_cast,
    fdiv,
    idiv,
    imod,
    truthy,
)
from repro.kir.types import DType

NAN = float("nan")
INF = float("inf")
_U32 = 0xFFFFFFFF
_I32_SIGN = 0x80000000

#: Fallback taxonomy — static obstacles (also the differential
#: engine's replay obstacles: cross-thread channels besides global
#: memory defeat both lane-parallel execution and isolated replay).
OBSTACLE_SYNC = "uses_sync"
OBSTACLE_SHARED = "shared_memory"
OBSTACLE_ATOMICS = "atomics"
#: Fallback taxonomy — per-launch conditions.
BAIL_LANE_FAILURE = "lane_failure"
BAIL_HAZARD = "cross_lane_hazard"
BAIL_UNTRACKED = "untracked_address"
BAIL_ANALYSIS = "divergence_analysis"
FALLBACK_LIBRARY = "library"


class VectorBailout(Exception):
    """Vector execution cannot serve this launch bit-exactly.

    Carries the fallback ``reason`` (one of the taxonomy constants);
    the runtime restores the pre-launch memory snapshot and reruns the
    launch on the scalar engines.
    """

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def vectorize_obstacle(kernel: Kernel) -> Optional[str]:
    """Why this kernel cannot vectorize or replay (None if it can).

    Barriers, shared arrays, and atomics are cross-thread channels
    besides global memory: the lane-parallel model cannot order them,
    and differential replay cannot footprint them, so one rule gates
    both engines.
    """
    if kernel.uses_sync:
        return OBSTACLE_SYNC
    if kernel.shared:
        return OBSTACLE_SHARED
    for stmt, _depth in walk_stmts(kernel.body):
        if isinstance(stmt, AtomicAdd):
            return OBSTACLE_ATOMICS
    return None


# ---------------------------------------------------------------------------
# vector arithmetic helpers (bit-exact with the scalar evalcore ones)
# ---------------------------------------------------------------------------


def _is_arr(v) -> bool:
    return isinstance(v, np.ndarray)


def _wrap(v):
    """int32 two's-complement wrap for scalars and int64 columns."""
    if isinstance(v, np.ndarray):
        return ((v & _U32) ^ _I32_SIGN) - _I32_SIGN
    return wrap_i32(v)


def _v_sqrt(x):
    bad = ~(x >= 0.0)  # negatives and NaN
    r = np.sqrt(np.where(bad, 1.0, x))
    return np.where(bad, NAN, r)


def _v_rsqrt(x):
    pos = x > 0.0
    r = 1.0 / np.sqrt(np.where(pos, x, 1.0))
    r = np.where(pos, r, NAN)
    return np.where(x == 0.0, INF, r)


def _v_floor(x):
    r = np.floor(x)
    nan = x != x
    if nan.any():
        # scalar path returns the input NaN (payload preserved)
        return np.where(nan, x, r)
    return r


def _v_min(a, b):
    # Python ``min(a, b)`` keeps ``a`` unless ``b < a`` — including the
    # signed-zero and NaN orderings np.minimum would resolve differently
    return np.where(b < a, b, a)


def _v_max(a, b):
    return np.where(b > a, b, a)


def _v_fmin(a, b):
    r = _v_min(a, b)
    nan = (a != a) | (b != b)
    return np.where(nan, NAN, r) if np.any(nan) else r


def _v_fmax(a, b):
    r = _v_max(a, b)
    nan = (a != a) | (b != b)
    return np.where(nan, NAN, r) if np.any(nan) else r


def _v_c_int_cast(x):
    if not _is_arr(x):
        return c_int_cast(x)
    if x.dtype != np.float64:
        return _wrap(x)
    nan = x != x
    hi = x >= 2147483648.0
    lo = x <= -2147483649.0
    safe = np.where(nan | hi | lo, 0.0, x)
    t = _wrap(safe.astype(np.int64))  # astype truncates toward zero
    t = np.where(hi, 2147483647, t)
    t = np.where(lo, -2147483648, t)
    return np.where(nan, 0, t)


def _v_float(x):
    return x.astype(np.float64) if x.dtype != np.float64 else x


def _v_float_as_int(x):
    bits = x.astype(np.float32).view(np.uint32)
    nan = x != x
    if nan.any():
        # payload-preserving narrow (the cast quietens signaling NaNs)
        idx = np.flatnonzero(nan)
        bits[idx] = [float_to_bits(float(v)) for v in x[idx]]
    return _wrap(bits.astype(np.int64))


def _map1(impl, x):
    return np.fromiter((impl(v) for v in x.tolist()), np.float64, count=len(x))


def _map2(impl, a, b):
    n = len(a) if _is_arr(a) else len(b)
    av = a.tolist() if _is_arr(a) else (a,) * n
    bv = b.tolist() if _is_arr(b) else (b,) * n
    return np.fromiter((impl(x, y) for x, y in zip(av, bv)), np.float64, count=n)


#: Intrinsics with a true vector implementation (bit-exact: sqrt and
#: division are correctly rounded in both libm and NumPy; the rest are
#: exact operations).  Anything absent here evaluates element-wise
#: through the scalar ``INTRINSIC_IMPL`` entry.
_VEC_UNARY: Dict[str, Callable] = {
    "sqrt": _v_sqrt,
    "rsqrt": _v_rsqrt,
    "floor": _v_floor,
    "fabs": np.abs,
    "abs": lambda x: _wrap(np.abs(x)),
    "int": _v_c_int_cast,
    "float": _v_float,
}
_VEC_BINARY: Dict[str, Callable] = {
    "fmin": _v_fmin,
    "fmax": _v_fmax,
    "min": _v_min,
    "max": _v_max,
}


# ---------------------------------------------------------------------------
# per-launch vector state
# ---------------------------------------------------------------------------


class _LoopFrame:
    """Break/continue accumulator masks for one loop nesting level."""

    __slots__ = ("brk", "cont")

    def __init__(self):
        self.brk: Optional[np.ndarray] = None
        self.cont: Optional[np.ndarray] = None


class _VectorCtx:
    """Per-launch lane state: registers live in ``vf`` (the vector
    frame, a plain dict), everything else lives here."""

    __slots__ = (
        "mem", "lanes", "n", "budget", "steps", "cycles", "loop_cycles",
        "loop_stack", "zeros", "capacity", "tracked", "owner", "read_by",
        "footprints",
    )

    def __init__(self, mem: GlobalMemory, lanes: np.ndarray, budget: int,
                 record_footprints: bool = False):
        n = len(lanes)
        self.mem = mem
        self.lanes = lanes
        self.n = n
        self.budget = budget
        self.steps = np.zeros(n, np.int64)
        self.cycles = np.zeros(n, np.float64)
        self.loop_cycles = np.zeros(n, np.float64)
        self.loop_stack: List[_LoopFrame] = []
        self.zeros = np.zeros(n, bool)  # shared immutable empty mask
        self.capacity = mem.capacity
        # hazard maps cover the allocated region only (cheap to zero);
        # unallocated-but-in-bounds accesses are legal yet untracked,
        # so they bail to the scalar engines instead.  Over a paged
        # memory the allocated region can span gigabytes, so the maps
        # ride the same sparse page store (lazy fill -1) instead of
        # materializing GB-scale np.full arrays.
        self.tracked = mem.used_words
        if mem.is_paged:
            self.owner = PagedWords(self.tracked, mem.page_words,
                                    dtype=np.int64, fill=-1)
            self.read_by = PagedWords(self.tracked, mem.page_words,
                                      dtype=np.int64, fill=-1)
        else:
            self.owner = np.full(self.tracked, -1, np.int64)
            self.read_by = np.full(self.tracked, -1, np.int64)
        self.footprints = (
            [ThreadFootprint() for _ in range(n)] if record_footprints else None
        )

    # -- watchdog / accounting ---------------------------------------

    def tick(self, m: Optional[np.ndarray]) -> None:
        s = self.steps
        if m is None:
            s += 1
        else:
            s += m
        # only just-ticked lanes can newly exceed the budget, so the
        # global max is an exact proxy for the scalar per-lane check
        if self.n and s.max() > self.budget:
            raise VectorBailout(BAIL_LANE_FAILURE)

    def tick_nocheck(self, m: Optional[np.ndarray]) -> None:
        # Break/Continue/Return bump steps without the budget check,
        # exactly like the scalar compiler
        if m is None:
            self.steps += 1
        else:
            self.steps += m

    def charge(self, m: Optional[np.ndarray], cost: float, in_loop: bool) -> None:
        if m is None:
            self.cycles += cost
            if in_loop:
                self.loop_cycles += cost
        else:
            np.add(self.cycles, cost, out=self.cycles, where=m)
            if in_loop:
                np.add(self.loop_cycles, cost, out=self.loop_cycles, where=m)

    def charge_loop_head(self, m: Optional[np.ndarray], cost: float) -> None:
        # loop condition checks charge cycles *and* loop_cycles
        if m is None:
            self.cycles += cost
            self.loop_cycles += cost
        else:
            np.add(self.cycles, cost, out=self.cycles, where=m)
            np.add(self.loop_cycles, cost, out=self.loop_cycles, where=m)

    # -- global memory (gather/scatter + sequential-equivalence) ------

    def _compress(self, addr, value, m: Optional[np.ndarray], is_float: bool):
        """Active-lane (positions, lanes, addrs, values) for a store."""
        if m is None:
            pos = None
            lanes = self.lanes
            k = self.n
        else:
            pos = np.flatnonzero(m)
            lanes = self.lanes[pos]
            k = len(pos)
        if _is_arr(addr):
            addrs = addr if pos is None else addr[pos]
        else:
            addrs = np.full(k, addr, np.int64)
        if _is_arr(value):
            values = value if pos is None else value[pos]
        else:
            values = np.full(k, value, np.float64 if is_float else np.int64)
        return pos, lanes, addrs, values

    def _check_addrs(self, addrs: np.ndarray) -> None:
        if len(addrs) == 0:
            return
        amin = addrs.min()
        amax = addrs.max()
        if amin < 0 or amax >= self.capacity:
            raise VectorBailout(BAIL_LANE_FAILURE)
        if amax >= self.tracked:
            raise VectorBailout(BAIL_UNTRACKED)

    def load(self, addr, m: Optional[np.ndarray], is_float: bool):
        if not _is_arr(addr):
            return self._load_uniform(addr, m, is_float)
        if m is None:
            pos = None
            lanes = self.lanes
            addrs = addr
        else:
            pos = np.flatnonzero(m)
            lanes = self.lanes[pos]
            addrs = addr[pos]
        self._check_addrs(addrs)
        ow = self.owner[addrs]
        if ((ow != -1) & (ow != lanes)).any():
            raise VectorBailout(BAIL_HAZARD)
        # mark readers: -1 none, gtid sole reader, -2 multiple readers
        rb = self.read_by[addrs]
        mark = np.where((rb == -1) | (rb == lanes), lanes, -2)
        self.read_by[addrs] = mark
        if len(addrs) > 1:
            # duplicate addresses collapse under fancy assignment
            # (last-wins); detect and demote them to "multiple readers"
            back = self.read_by[addrs]
            dup = back != mark
            if dup.any():
                self.read_by[addrs[dup]] = -2
                # every lane of a duplicated address is a co-reader
                first = np.zeros(len(addrs), bool)
                seen: Set[int] = set()
                for j, a in enumerate(addrs.tolist()):
                    if a in seen:
                        first[j] = False
                    else:
                        seen.add(a)
                        first[j] = True
                multi = np.isin(addrs, addrs[~first])
                if multi.any():
                    self.read_by[addrs[multi]] = -2
        if is_float:
            vals = self.mem.gather_f32(addrs)
        else:
            vals = self.mem.gather_i32(addrs)
        if self.footprints is not None:
            fps = self.footprints
            if pos is None:
                for j, a in enumerate(addrs.tolist()):
                    fps[j].loads.add(a)
            else:
                for j, a in zip(pos.tolist(), addrs.tolist()):
                    fps[j].loads.add(a)
        if pos is None:
            return vals
        out = np.zeros(self.n, np.float64 if is_float else np.int64)
        out[pos] = vals
        return out

    def _load_uniform(self, addr: int, m: Optional[np.ndarray], is_float: bool):
        """All active lanes read the same address: scalar result."""
        if not 0 <= addr < self.capacity:
            raise VectorBailout(BAIL_LANE_FAILURE)
        if addr >= self.tracked:
            raise VectorBailout(BAIL_UNTRACKED)
        readers = self.lanes if m is None else self.lanes[m]
        if len(readers) == 0:
            # no lane actually reads (empty active set): plain load
            return self.mem.load_f32(addr) if is_float else self.mem.load_i32(addr)
        ow = self.owner[addr]
        if ow != -1 and not (len(readers) == 1 and readers[0] == ow):
            raise VectorBailout(BAIL_HAZARD)
        rb = self.read_by[addr]
        if len(readers) > 1:
            self.read_by[addr] = -2
        elif rb == -1 or rb == readers[0]:
            self.read_by[addr] = readers[0]
        else:
            self.read_by[addr] = -2
        if self.footprints is not None:
            fps = self.footprints
            if m is None:
                for fp in fps:
                    fp.loads.add(addr)
            else:
                for j in np.flatnonzero(m).tolist():
                    fps[j].loads.add(addr)
        return self.mem.load_f32(addr) if is_float else self.mem.load_i32(addr)

    def store(self, addr, value, m: Optional[np.ndarray], is_float: bool) -> None:
        pos, lanes, addrs, values = self._compress(addr, value, m, is_float)
        if len(addrs) == 0:
            return
        self._check_addrs(addrs)
        ow = self.owner[addrs]
        if ((ow != -1) & (ow != lanes)).any():
            raise VectorBailout(BAIL_HAZARD)
        rb = self.read_by[addrs]
        if ((rb != -1) & (rb != lanes)).any():
            raise VectorBailout(BAIL_HAZARD)
        if self.footprints is not None:
            self._store_recorded(pos, addrs, values, is_float)
        elif is_float:
            self.mem.scatter_f32(addrs, values)
        else:
            self.mem.scatter_i32(addrs, values)
        self.owner[addrs] = lanes

    def _store_recorded(self, pos, addrs, values, is_float: bool) -> None:
        """Scatter while journaling per-lane (addr, old, new) bits."""
        mem = self.mem
        old = mem.gather_words(addrs)
        if is_float:
            mem.scatter_f32(addrs, values)
        else:
            mem.scatter_i32(addrs, values)
        fps = self.footprints
        positions = range(len(addrs)) if pos is None else pos.tolist()
        # per-lane "new" is the lane's own written pattern, recomputed
        # scalar (duplicates would otherwise all see the last winner)
        if is_float:
            news = [float_to_bits(float(v)) for v in values.tolist()]
        else:
            news = [int(v) & _U32 for v in values.tolist()]
        for j, a, o, nw in zip(positions, addrs.tolist(), old.tolist(), news):
            fps[j].stores.append((a, o, nw))


# ---------------------------------------------------------------------------
# expression compilation:  f(vf, vc, m) -> scalar | column
# ---------------------------------------------------------------------------

VExprFn = Callable[[dict, _VectorCtx, Optional[np.ndarray]], object]
VStmtFn = Callable[[dict, _VectorCtx, Optional[np.ndarray]], Optional[np.ndarray]]


def _truthy_mask(v, m: Optional[np.ndarray]) -> np.ndarray:
    """Active lanes where ``v`` is C-true (NaN counts as true)."""
    t = v != 0
    return t if m is None else (m & t)


def compile_vexpr(e: Expr) -> VExprFn:
    if isinstance(e, Const):
        v = e.value
        return lambda vf, vc, m: v
    if isinstance(e, Var):
        n = e.name
        return lambda vf, vc, m: vf[n]
    if isinstance(e, SpecialReg):
        n = e.name
        return lambda vf, vc, m: vf[n]
    if isinstance(e, BinOp):
        return _compile_vbinop(e)
    if isinstance(e, UnOp):
        f = compile_vexpr(e.operand)
        if e.op == "-":
            if e.dtype is DType.INT32:
                return lambda vf, vc, m: _wrap(-f(vf, vc, m))
            return lambda vf, vc, m: -f(vf, vc, m)
        if e.op == "!":
            def notop(vf, vc, m):
                v = f(vf, vc, m)
                if _is_arr(v):
                    return (v == 0).astype(np.int64)
                return 0 if truthy(v) else 1
            return notop
        if e.op == "~":
            return lambda vf, vc, m: _wrap(~f(vf, vc, m))
        raise KIRError(f"cannot compile unary {e.op!r}")
    if isinstance(e, Call):
        return _compile_vcall(e)
    if isinstance(e, Load):
        p = compile_vexpr(e.ptr)
        i = compile_vexpr(e.index)
        is_float = e.dtype is DType.FLOAT32

        def load(vf, vc, m):
            return vc.load(p(vf, vc, m) + i(vf, vc, m), m, is_float)
        return load
    raise KIRError(f"cannot vectorize expression {type(e).__name__}")


def _compile_vcall(e: Call) -> VExprFn:
    func = e.func
    fns = [compile_vexpr(a) for a in e.args]
    if func == "__float_as_int":
        f0 = fns[0]

        def fai(vf, vc, m):
            v = f0(vf, vc, m)
            if _is_arr(v):
                return _v_float_as_int(v)
            return bits_to_int(float_to_bits(float(v)))
        return fai
    impl = INTRINSIC_IMPL.get(func)
    if impl is None:
        raise KIRError(f"cannot compile intrinsic {func!r}")
    if len(fns) == 1:
        f0 = fns[0]
        vec = _VEC_UNARY.get(func)

        def call1(vf, vc, m):
            v = f0(vf, vc, m)
            if _is_arr(v):
                return vec(v) if vec is not None else _map1(impl, v)
            return impl(v)
        return call1
    if len(fns) == 2:
        f0, f1 = fns
        vec = _VEC_BINARY.get(func)

        def call2(vf, vc, m):
            a = f0(vf, vc, m)
            b = f1(vf, vc, m)
            if _is_arr(a) or _is_arr(b):
                return vec(a, b) if vec is not None else _map2(impl, a, b)
            return impl(a, b)
        return call2
    raise KIRError(f"cannot vectorize intrinsic {func!r} arity {len(fns)}")


def _compile_vbinop(e: BinOp) -> VExprFn:
    op = e.op
    l = compile_vexpr(e.left)  # noqa: E741 -- l/r mirror the BinOp fields
    r = compile_vexpr(e.right)
    lt, rt = e.left.dtype, e.right.dtype
    int_arith = e.dtype is DType.INT32 and lt is DType.INT32 and rt is DType.INT32
    ptr_arith = e.dtype is not None and e.dtype.is_pointer
    if op == "+":
        if ptr_arith:
            return lambda vf, vc, m: l(vf, vc, m) + r(vf, vc, m)
        if int_arith:
            return lambda vf, vc, m: _wrap(l(vf, vc, m) + r(vf, vc, m))
        return lambda vf, vc, m: l(vf, vc, m) + r(vf, vc, m)
    if op == "-":
        if int_arith and not ptr_arith:
            return lambda vf, vc, m: _wrap(l(vf, vc, m) - r(vf, vc, m))
        return lambda vf, vc, m: l(vf, vc, m) - r(vf, vc, m)
    if op == "*":
        if int_arith:
            return lambda vf, vc, m: _wrap(l(vf, vc, m) * r(vf, vc, m))
        return lambda vf, vc, m: l(vf, vc, m) * r(vf, vc, m)
    if op == "/":
        if int_arith:
            return _compile_idiv(l, r, imod_op=False)
        def fdivop(vf, vc, m):
            a = l(vf, vc, m)
            b = r(vf, vc, m)
            if not (_is_arr(a) or _is_arr(b)):
                return fdiv(a, b)
            return a / b  # IEEE: inf/NaN match fdiv under errstate
        return fdivop
    if op == "%":
        return _compile_idiv(l, r, imod_op=True)
    if op in ("<", "<=", ">", ">=", "==", "!="):
        cmp = {
            "<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
        }[op]

        def cmpop(vf, vc, m):
            v = cmp(l(vf, vc, m), r(vf, vc, m))
            if _is_arr(v):
                return v.astype(np.int64)
            return 1 if v else 0
        return cmpop
    if op == "&&":
        def andop(vf, vc, m):
            a = l(vf, vc, m)
            if not _is_arr(a):
                if not truthy(a):
                    return 0  # short-circuit: r never evaluates
                b = r(vf, vc, m)
                if _is_arr(b):
                    return (b != 0).astype(np.int64)
                return 1 if truthy(b) else 0
            am = a != 0
            m2 = am if m is None else (m & am)
            if not m2.any():
                return np.zeros(len(a), np.int64)
            # only lanes with a true LHS evaluate the RHS (their loads,
            # faults, and crashes are the only ones that may happen)
            b = r(vf, vc, m2)
            bm = (b != 0) if _is_arr(b) else truthy(b)
            return (am & bm).astype(np.int64)
        return andop
    if op == "||":
        def orop(vf, vc, m):
            a = l(vf, vc, m)
            if not _is_arr(a):
                if truthy(a):
                    return 1
                b = r(vf, vc, m)
                if _is_arr(b):
                    return (b != 0).astype(np.int64)
                return 1 if truthy(b) else 0
            am = a != 0
            m2 = (~am) if m is None else (m & ~am)
            if not m2.any():
                return am.astype(np.int64)
            b = r(vf, vc, m2)
            bm = (b != 0) if _is_arr(b) else truthy(b)
            return (am | bm).astype(np.int64)
        return orop
    if op == "&":
        return lambda vf, vc, m: _wrap(l(vf, vc, m) & r(vf, vc, m))
    if op == "|":
        return lambda vf, vc, m: _wrap(l(vf, vc, m) | r(vf, vc, m))
    if op == "^":
        return lambda vf, vc, m: _wrap(l(vf, vc, m) ^ r(vf, vc, m))
    if op == "<<":
        return lambda vf, vc, m: _wrap(l(vf, vc, m) << (r(vf, vc, m) & 31))
    if op == ">>":
        return lambda vf, vc, m: _wrap(l(vf, vc, m) >> (r(vf, vc, m) & 31))
    raise KIRError(f"cannot compile operator {op!r}")


def _compile_idiv(l: VExprFn, r: VExprFn, imod_op: bool) -> VExprFn:
    scalar_impl = imod if imod_op else idiv

    def divop(vf, vc, m):
        a = l(vf, vc, m)
        b = r(vf, vc, m)
        if not (_is_arr(a) or _is_arr(b)):
            return scalar_impl(a, b)  # raises KernelCrash on /0
        bz = (b == 0) if _is_arr(b) else b == 0
        if _is_arr(bz):
            active_zero = bz if m is None else (bz & m)
            if active_zero.any():
                raise VectorBailout(BAIL_LANE_FAILURE)
            b = np.where(bz, 1, b)  # inactive-lane garbage: neutralize
        elif bz:
            raise VectorBailout(BAIL_LANE_FAILURE)
        q = np.abs(a) // np.abs(b) if not imod_op else np.abs(a) % np.abs(b)
        if imod_op:
            neg = (a < 0) if _is_arr(a) else a < 0
            return _wrap(np.where(neg, -q, q))
        neg = ((a < 0) != (b < 0))
        return _wrap(np.where(neg, -q, q))
    return divop


# ---------------------------------------------------------------------------
# statement compilation:  s(vf, vc, m) -> surviving mask
# ---------------------------------------------------------------------------


def _run_vblock(fns: List[VStmtFn], vf: dict, vc: _VectorCtx,
                m: Optional[np.ndarray]) -> Optional[np.ndarray]:
    for fn in fns:
        m = fn(vf, vc, m)
        if m is not None and not m.any():
            break
    return m


class _VectorCompiler:
    def __init__(self, kernel: Kernel, costmodel, varying: Set[str]):
        self.kernel = kernel
        self.cm = costmodel
        self.varying = varying

    def _uniform(self, e: Expr) -> bool:
        return not expr_varies(e, self.varying, GRID_SEEDS)

    def compile_stmt(self, s: Stmt) -> VStmtFn:
        cm = self.cm
        in_loop = s.in_loop
        if isinstance(s, (Decl, Assign)):
            if isinstance(s, Decl):
                rhs, target = s.init, s.var_dtype
            else:
                rhs, target = s.value, s.target_dtype
            val = compile_vexpr(rhs)
            cost = (cm.expr_cost(rhs) + cm.write_cost) * s.cost_scale
            name = s.name
            to_float = target is DType.FLOAT32 and rhs.dtype is DType.INT32
            to_int = target is DType.INT32 and rhs.dtype is DType.FLOAT32

            def assign(vf, vc, m):
                vc.tick(m)
                vc.charge(m, cost, in_loop)
                v = val(vf, vc, m)
                if to_float:
                    v = _v_float(v) if _is_arr(v) else float(v)
                elif to_int:
                    v = _v_c_int_cast(v)
                if m is None:
                    vf[name] = v
                else:
                    old = vf.get(name)
                    # a name first defined under divergence holds its
                    # value only in active lanes; the rest keep what
                    # they had (or a dead placeholder — KIR scoping
                    # guarantees they redefine before reading)
                    vf[name] = v if old is None else np.where(m, v, old)
                return m
            return assign
        if isinstance(s, Store):
            p = compile_vexpr(s.ptr)
            i = compile_vexpr(s.index)
            v = compile_vexpr(s.value)
            is_float = s.ptr.dtype.element is DType.FLOAT32
            cost = (
                cm.expr_cost(s.ptr)
                + cm.expr_cost(s.index)
                + cm.expr_cost(s.value)
                + cm.mem_global
            ) * s.cost_scale

            def store(vf, vc, m):
                vc.tick(m)
                vc.charge(m, cost, in_loop)
                addr = p(vf, vc, m) + i(vf, vc, m)
                vc.store(addr, v(vf, vc, m), m, is_float)
                return m
            return store
        if isinstance(s, For):
            return self._compile_for(s)
        if isinstance(s, While):
            return self._compile_while(s)
        if isinstance(s, If):
            return self._compile_if(s)
        if isinstance(s, Break):
            def brk(vf, vc, m):
                vc.tick_nocheck(m)
                fr = vc.loop_stack[-1]
                bm = np.ones(vc.n, bool) if m is None else m
                fr.brk = bm if fr.brk is None else (fr.brk | bm)
                return vc.zeros
            return brk
        if isinstance(s, Continue):
            def cont(vf, vc, m):
                vc.tick_nocheck(m)
                fr = vc.loop_stack[-1]
                cm_ = np.ones(vc.n, bool) if m is None else m
                fr.cont = cm_ if fr.cont is None else (fr.cont | cm_)
                return vc.zeros
            return cont
        if isinstance(s, Return):
            def ret(vf, vc, m):
                vc.tick_nocheck(m)
                return vc.zeros
            return ret
        if isinstance(s, CallStmt):
            cost = cm.libcall_cost(s.func) * s.cost_scale

            def libcall(vf, vc, m):
                # the engine only serves launches whose library hooks
                # are all no-ops, so hooks charge their cost and
                # nothing else
                vc.tick(m)
                if cost:
                    vc.charge(m, cost, in_loop)
                return m
            return libcall
        raise KIRError(f"cannot vectorize statement {type(s).__name__}")

    # -- control flow --------------------------------------------------

    def _compile_if(self, s: If) -> VStmtFn:
        cond_fn = compile_vexpr(s.cond)
        cost = (self.cm.expr_cost(s.cond) + self.cm.branch_cost) * s.cost_scale
        then_fns = [self.compile_stmt(b) for b in s.then]
        else_fns = [self.compile_stmt(b) for b in s.els]
        in_loop = s.in_loop
        uniform = self._uniform(s.cond)

        if uniform:
            # statically grid-uniform: scalar control flow (the taint
            # analysis over-approximates divergence, so a uniform
            # verdict is sound; the isinstance check is a backstop)
            def run_uniform(vf, vc, m):
                vc.tick(m)
                vc.charge(m, cost, in_loop)
                c = cond_fn(vf, vc, m)
                if _is_arr(c):
                    raise VectorBailout(BAIL_ANALYSIS)
                return _run_vblock(then_fns if truthy(c) else else_fns, vf, vc, m)
            return run_uniform

        def run(vf, vc, m):
            vc.tick(m)
            vc.charge(m, cost, in_loop)
            c = cond_fn(vf, vc, m)
            if not _is_arr(c):
                return _run_vblock(then_fns if truthy(c) else else_fns, vf, vc, m)
            mt = _truthy_mask(c, m)
            me = (c == 0) if m is None else (m & (c == 0))
            out_t = mt
            if mt.any():
                out_t = _run_vblock(then_fns, vf, vc, mt)
                if out_t is None:
                    out_t = mt
            out_e = me
            if me.any():
                out_e = _run_vblock(else_fns, vf, vc, me)
                if out_e is None:
                    out_e = me
            return out_t | out_e
        return run

    def _compile_for(self, s: For) -> VStmtFn:
        init_fn = self.compile_stmt(s.init) if s.init is not None else None
        cond_fn = compile_vexpr(s.cond)
        cond_cost = self.cm.expr_cost(s.cond) + self.cm.branch_cost
        update_fn = self.compile_stmt(s.update) if s.update is not None else None
        body_fns = [self.compile_stmt(b) for b in s.body]
        return self._loop_runner(init_fn, cond_fn, cond_cost, update_fn, body_fns)

    def _compile_while(self, s: While) -> VStmtFn:
        cond_fn = compile_vexpr(s.cond)
        cond_cost = self.cm.expr_cost(s.cond) + self.cm.branch_cost
        body_fns = [self.compile_stmt(b) for b in s.body]
        return self._loop_runner(None, cond_fn, cond_cost, None, body_fns)

    @staticmethod
    def _loop_runner(init_fn, cond_fn, cond_cost, update_fn, body_fns) -> VStmtFn:
        """Masked iteration with a draining active-lane mask.

        Each iteration check ticks and charges ``cond_cost`` to every
        still-active lane — including the failing check that exits a
        lane — exactly like the scalar loop head.  Lanes leave through
        the condition, ``break`` (skipping the update), or ``return``
        (leaving the kernel); ``continue`` rejoins before the update.
        """

        def run(vf, vc, m):
            if init_fn is not None:
                init_fn(vf, vc, m)
            active = m
            exited: Optional[np.ndarray] = None  # None = no lane yet
            while True:
                vc.tick(active)
                vc.charge_loop_head(active, cond_cost)
                c = cond_fn(vf, vc, active)
                if not _is_arr(c):
                    if not truthy(c):
                        if active is None:
                            return None  # uniform trip count, all exit
                        exited = active if exited is None else (exited | active)
                        break
                    live = active
                else:
                    cm_ = c != 0
                    live = cm_ if active is None else (active & cm_)
                    gone = (~cm_) if active is None else (active & ~cm_)
                    if gone.any():
                        exited = gone if exited is None else (exited | gone)
                    if not live.any():
                        break
                frame = _LoopFrame()
                vc.loop_stack.append(frame)
                try:
                    m_body = _run_vblock(body_fns, vf, vc, live)
                finally:
                    vc.loop_stack.pop()
                if m_body is None:
                    m_body = live
                if frame.cont is not None:
                    m_body = frame.cont if m_body is None else (m_body | frame.cont)
                if frame.brk is not None:
                    exited = frame.brk if exited is None else (exited | frame.brk)
                nonempty = m_body is None or m_body.any()
                if nonempty and update_fn is not None:
                    update_fn(vf, vc, m_body)
                active = m_body
                if not nonempty:
                    break
            return exited if exited is not None else vc.zeros
        return run


# ---------------------------------------------------------------------------
# the compiled vector program
# ---------------------------------------------------------------------------


@dataclass
class VectorRunResult:
    """Per-lane outcome of one vectorized grid sweep."""

    steps: np.ndarray          #: per-lane statement counts (gtid order)
    cycles: np.ndarray         #: per-lane cost-model cycles
    loop_cycles: np.ndarray    #: per-lane cycles inside loops
    footprints: Optional[List[ThreadFootprint]] = None

    @property
    def total_cycles(self) -> float:
        return float(self.cycles.sum())

    @property
    def total_loop_cycles(self) -> float:
        return float(self.loop_cycles.sum())

    @property
    def max_steps(self) -> int:
        return int(self.steps.max()) if len(self.steps) else 0


class VectorizedKernel:
    """A kernel compiled to a whole-grid NumPy array program."""

    def __init__(self, kernel: Kernel, costmodel):
        if not kernel.validated:
            raise KIRValidationError("validate the kernel before compiling")
        obstacle = vectorize_obstacle(kernel)
        if obstacle is not None:
            raise KIRValidationError(
                f"kernel {kernel.name} cannot vectorize: {obstacle}"
            )
        self.kernel = kernel
        self.costmodel = costmodel
        #: grid-varying names (GRID_SEEDS taint) — drives the static
        #: uniform-branch specialization and the compile span metadata
        self.varying = grid_varying_names(kernel)
        self.divergent_branches = sum(
            1 for stmt, _d in walk_stmts(kernel.body)
            if isinstance(stmt, (If, For, While))
            and expr_varies(stmt.cond, self.varying, GRID_SEEDS)
        )
        compiler = _VectorCompiler(kernel, costmodel, self.varying)
        self._body: List[VStmtFn] = [compiler.compile_stmt(s) for s in kernel.body]

    def run_lanes(
        self,
        memory: GlobalMemory,
        base_frame: dict,
        gx: int,
        gy: int,
        bx: int,
        by: int,
        budget: int,
        record_footprints: bool = False,
    ) -> VectorRunResult:
        """Execute every thread of the grid as one array program.

        Raises :class:`VectorBailout` whenever bit-exact sequential
        semantics cannot be guaranteed; the caller falls back to the
        scalar engines against the pre-launch memory snapshot.
        """
        block_size = bx * by
        lanes = np.arange(gx * gy * block_size, dtype=np.int64)
        block = lanes // block_size
        tib = lanes % block_size
        vf = dict(base_frame)
        vf["blockIdx.x"] = block % gx
        vf["blockIdx.y"] = block // gx
        vf["threadIdx.x"] = tib % bx
        vf["threadIdx.y"] = tib // bx
        vc = _VectorCtx(memory, lanes, budget, record_footprints)
        with np.errstate(all="ignore"):
            try:
                _run_vblock(self._body, vf, vc, None)
            except (KernelCrash, KernelHang):
                # a uniform-expression crash (e.g. division by zero on
                # a scalar operand) hits every lane; the scalar rerun
                # attributes it to the lowest gtid at the right point
                raise VectorBailout(BAIL_LANE_FAILURE)
        return VectorRunResult(
            steps=vc.steps,
            cycles=vc.cycles,
            loop_cycles=vc.loop_cycles,
            footprints=vc.footprints,
        )

