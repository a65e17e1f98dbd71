"""AST -> Python source compilation (the scalar engine).

Every validated kernel without ``__syncthreads`` becomes one Python
function ``run_thread(fr, ctx)``, emitted as source text and
``compile()``d once per kernel and cost model.  The function runs one
thread to completion, crash or hang.  Every KIR variable, parameter
and special register the kernel uses is a Python local of it.  Its
shape::

    def run_thread(fr, ctx):
        steps = ctx.steps; budget = ctx.budget
        cycles = ctx.cycles; loop_cycles = ctx.loop_cycles
        load_f32 = ctx.load_f32; ...       # only what the body uses
        mem_f32 = ctx.mem_f32; mem_limit = ctx.mem_limit; ...
        v0, v1 = _k0(fr)                   # 'a', 'b': read from fr
        v2 = UNSET                         # 'x': not assigned yet
        _fv = FrameView(fr, _k1, _k2)      # only if there are hooks
        _h0 = ctx.hooks.get('__hauberk_fi') # one local per hook name
        try:
            steps += 1
            if steps > budget: raise KernelHang()
            cycles += 7.0
            v2 = (v0 * v1)                 # x = a * b
            steps += 1                     # a hook statement
            if steps > budget: raise KernelHang()
            cycles += 4.0
            if _h0 is not RETIRE:
                ctx.steps = steps
                if _h0 is None: _h0 = bind_hook('__hauberk_fi')
                _fv.values = (v2,)
                if _h0(ctx, _fv, 3, 'x') is RETIRE: _h0 = RETIRE
                if _fv.written: v0, v1, v2 = _fv.reload()
            v3 = 0                         # a loop with a hang shape
            _c0 = None                     # its hook statement's last answer
            _q0 = hang_verdicts            # ctx.hang_verdicts
            while True:   # once every body hook retired, by name or statement:
                if _q0 and (_h0 is RETIRE or _c0 is RETIRE_CALL):
                    _q0 = False            # no call when the budget covers the loop
                    if budget - steps <= max(0, v1 - v3) * 4 and _hang_verdict(
                            _k4, ctx, steps, v3, v1, ((v0, 0),)):
                        steps = budget + 1
                        raise KernelHang()
                if ((_h0 is RETIRE or _c0 is RETIRE_CALL)   # one line in
                        and steps + 4 <= budget             # the source
                        and cycles <= 1125899906842576.0
                        and loop_cycles <= 1125899906842576.0
                        and v3 <= 2147483646):              # a range guard
                    _r0 = (steps, cycles, loop_cycles, v4, v3)  # a counted run
                    try:
                        if not (v3 < v1):
                            steps += 1; cycles += 2.0; loop_cycles += 2.0
                            break
                        _n0 = min(v1 - v3, (budget - steps) // 4,  # one line
                                  int((1125899906842624.0 - cycles) // 48.0),
                                  int((1125899906842624.0 - loop_cycles) // 48.0),
                                  (mem_slow_lo if _w1 < mem_slow_lo else mem_limit)
                                  - _w1,           # the load span src + i
                                  2147483646 - v3 + 1,               # the guard
                                  ) if (_b0 := (_w1 := v0 + v3) < mem_limit and (
                                      0 <= _w1 and _w1 < mem_slow_lo
                                      or mem_slow_hi < _w1)) else 1
                        for _ in (range(_n0) if _b0 else _ONCE):
                            v4 = (_lx if _b0 and (_lx := mem_f32[(_w0 := v0 + v3)]) == _lx
                                  else load_f32((_w0 := v0 + v3)))  # y = src[i]
                            _t_arg0 = ...  # a retired hook's computed arguments
                            v3 = (v3 + 1)  # i++, bare under the guard
                        steps += 4 * _n0; cycles += 48.0 * _n0
                        loop_cycles += 48.0 * _n0
                        continue
                    except _RERUN:
                        steps, cycles, loop_cycles, v4, v3 = _r0  # rerun it checked
                steps += 1                 # the condition
                if steps > budget: raise KernelHang()
                ...
        finally:
            ctx.steps = steps; ctx.cycles = cycles
            ctx.loop_cycles = loop_cycles
            if ctx.keep_frames:
                _write_back(fr, _k3, (v2,))    # 'x', unless still UNSET
                if _fv.written: fr.update(_fv.written)

Every statement of the checked path keeps its own step bump, budget
check and ``cycles``/``loop_cycles`` adds, with the costs the cost model
gives it; loop-body and loop-condition cycles are attributed separately so
the Figure 4 loop fraction and the Figure 13 overheads fall out of
execution directly.  KIR expressions become inline Python expressions,
and ``break``/``continue``/``return`` become native statements that
still charge their unchecked step.  A float ``/`` of two float
operands divides inline and calls ``fdiv`` only for a zero divisor,
and ``sqrt`` calls ``math.sqrt`` for an operand in ``[0, inf)`` and
``_safe_sqrt`` otherwise; a compound operand is evaluated once,
through a ``_w<n>`` temporary, in C order.

A device load reads the word inline, through the memory space's
``memoryview`` (``mem_f32``/``mem_i32``), when its address is in
``[0, mem_limit)`` and not in ``mem_slow`` and the word is not a NaN;
otherwise it calls ``load_f32``/``load_i32``, which re-widens a NaN's
payload, raises the out-of-bounds crash and lets a recording or
guarding layer see the access (``gpu/memory.py``, "Inline loads").

Int32 arithmetic.  Every int32 value a thread holds is in
``[-2**31, 2**31)``: validation bounds literals, the launch bounds
arguments, and every helper, load and hook write yields an in-range int
(``docs/architecture.md``, "Int32 arithmetic").  So ``&``, ``|``,
``^``, ``>>`` (by ``r & 31``) and ``~`` compile bare, and ``+``, ``-``,
``*``, ``<<`` and unary ``-`` wrap through a range test that does the
allocating two's-complement arithmetic only on overflow::

    (_i if -2147483648 <= (_i := v0 * v1) <= 2147483647
     else ((_i + 2147483648 & 4294967295) - 2147483648))

A fast iteration (below) computes them bare where
:func:`~repro.kir.analysis.intervals.iteration_ranges` proves them in
range while the guards its head test adds hold.  In CP's, the head
test ends ``and (-536870912) <= v27 <= 536870911 and v25 <=
2147483646`` (``atomid``, ``__cnt0``), so ``atominfo[atomid * 4 + 1]``
reads at ``(_w0 := v2 + (v27 * 4)) + 1``, and the next loads of the
iteration at ``_w0 + 2``, ``_w0`` and ``_w0 + 3``.  ``int(x)`` of an
int is ``x``; of a float it is ``int(x)`` when ``-2147483649.0 < x <
2147483648.0``, else ``c_int_cast(x)``.

``__float_as_int(x)`` reinterprets inline when ``x`` is in
``[-FLT_MAX, FLT_MAX]`` and calls ``_float_as_int`` otherwise, which
keeps a NaN's payload and saturates an operand beyond float32 range::

    (_unpack_i32(_pack_f32(v2))[0] if (-FLT_MAX) <= v2 <= FLT_MAX
     else _float_as_int(v2))            # FLT_MAX as a literal

Fast iterations.  A loop with a
:class:`~repro.kir.analysis.loops.FastIteration` (no nested loop,
store, atomic, shared access or ``break``/``continue``/``return``), in
a kernel whose every cycle cost is a non-negative multiple of 1/8, gets
a second copy of its iteration at the head of its ``while True:``.
The copy runs when every hook the body calls has retired, the budget
covers the iteration's most checked statements and the cycle totals
stay below ``2**50`` and every range guard holds; it charges steps and
cycles once per iteration (and ``if`` arm) instead of per statement,
leaves out hook guards and computes guarded int arithmetic bare.
One that raises restores the counters and locals it started from and
the checked iteration below reruns it, so crash, step count, cycles and
frame are exact (``docs/architecture.md``, "Fast iterations and inline loads").
``tick`` and ``_call`` emit either copy from the same ``stmt``, by the
``pending`` mode flag.

A loop that also has a hang shape gets a counted run as that copy
(above): the head computes ``_n<id>``, the least of the iterations
left, those the budget, the cycle totals and each guard's delta allow,
and those before each load span leaves memory or meets
``[mem_slow_lo, mem_slow_hi]``; the run's loads are then bare but for
the NaN test.  CP's run head reads ``_n0 = min(v3 - v27, (budget -
steps) // 19, ..., ((mem_slow_lo if _w5 + 3 < mem_slow_lo else
mem_limit) - (_w5 + 3) - 1) // 4 + 1, 536870911 - v27 + 1, 2147483646 -
v25 + 1) if (_b0 := (_w5 := v2 + (v27 * 4)) + 3 < mem_limit and ...)
else 1``, and ``atominfo[atomid * 4 + 2]`` reads ``(_lx if _b0 and (_lx
:= mem_f32[_w0 + 2]) == _lx else load_f32(_w0 + 2))`` in it.  A span
that is not clean makes the run one iteration whose loads call the
accessors.

NumPy runs.  A loop whose every assigned local is iteration-local, an
affine induction or a float reduction, whose float operations are
``+ - * /``, negation and ``sqrt``, and whose ints appear only as
inductions and in load addresses affine in them
(:func:`~repro.kir.analysis.loops.numpy_run`, which decides it all),
also gets a NumPy form, ``_npf<id>``: one function that computes the K
iterations of a run in blocks of :data:`NUMPY_BLOCK`, each operation
once a block over a float64 array, which rounds it correctly as the
scalar run does, loads widened before any arithmetic and reductions by
a left-to-right ``accumulate`` carried from block to block.  Each load
reads a strided slice, ``_mf[_u3:_u4 + 1:4]`` for CP's
``atominfo[atomid * 4 + 1]``, tested at the block's first and last
address.  A run with clean spans and ``_n<id> >=``
:data:`NUMPY_RUN_MIN` calls it instead of ``range(_n<id>)``.  CP's run
reads::

    if _b0 and _n0 >= 128 and (_v0 := _k3(_n0, v19, v2, v27, mem_f32,
                                          v17, v21, v23, v24, v25)) is not None:
        v28, v29, v30, v31, v32, v23, v24, v25, v27 = _v0
    else:
        for _ in (range(_n0) if _b0 else _ONCE):
            ...                            # the scalar run

``_k3`` is a :class:`_NumpyForm`, which compiles the form's source on
its first call and records ``repro_kir_numpy_runs_total``.  The form
never raises: it gives None, and the scalar run computes the same
iterations, where a loaded word is a NaN, a divisor is zero, an index
leaves the view or a float local is not finite in any block
(``docs/architecture.md``, "Fast iterations and inline loads", NumPy
runs).  ``_vexpr``, ``_vaffine``, ``_vload`` and ``_numpy_form`` emit
it.

Hang verdicts.  A ``for`` loop with a
:class:`~repro.kir.analysis.loops.HangShape` gets a check at the head
of its ``while True:``, live only on a trial launch
(``ctx.hang_verdicts``): at the first iteration head where every hook
the body calls has retired, ``_hang_verdict`` decides from the locals
whether the thread runs out its budget before the loop ends or a load
leaves device memory, and if so the thread raises ``KernelHang()``
with ``steps = budget + 1`` at once (``docs/architecture.md``, "Hang
verdicts").  The head skips the call when the budget covers every
iteration left and the condition test that ends the loop: the verdict
would be False.

The frame contract.  Parameters and special registers are read from
``fr`` when the thread starts; the names the kernel assigns start as
:data:`UNSET`.  When the thread ends, by return, crash or hang, the
locals of the names it assigned are written back to ``fr``, so the
final frame is the lockstep interpreter's dict; the write-back runs
only while ``ctx.keep_frames`` is set, as it is by default, and a grid
launch and a differential replay, which drop each frame when its
thread ends, clear it.  A live hook call
sees the frame through a :class:`FrameView`: before the call the
thread stores the locals of every name it may have assigned by then
(in program order, and every name a loop assigns once the loop is
entered) in ``_fv.values``, one tuple build; the view answers reads
and ``in`` from that tuple for those names and from ``fr`` for the
rest, so a name is present exactly when the thread has assigned it,
a loop-body variable stays present after its loop, and a parameter
or special register is present from the start.  A hook that writes
leaves ``_fv.written`` set, and the thread reloads its locals from
the view before the next statement; a hook that raises after writing
has its writes applied to ``fr`` when the thread ends.

The counter contract with instrumentation hooks: ``ctx.steps`` is
current at every hook call (``ActivationRecord.at_step`` reads it);
``cycles``/``loop_cycles`` reach ``ctx`` when the thread ends; hooks
must not write any of the three.  A thread ended by a hang verdict
leaves ``ctx.steps`` at ``budget + 1``, as the full run would, but
``cycles``/``loop_cycles`` and its frame as they stood at the loop
head.  Each instrumentation call name
(``__hauberk_<op>``) has a local holding its handler, read from the
context's per-launch hook table when the thread starts and filled by
:meth:`~repro.kir.interp.evalcore.ExecContext.bind_hook` on the call's
first execution, so an unbound call in code that never runs stays
harmless.  A handler that returns
:data:`~repro.kir.interp.evalcore.RETIRE` is not called again in that
thread: its local becomes ``RETIRE``, and the guard skips the call
(and the frame view with it) while the statement's step, budget check
and cycle charge, which sit outside the guard, still run.  The local
is re-read from the hook table when the next thread starts.  A hook
statement inside a loop also has a local ``_c<n>`` holding its
handler's last answer, set to None where the thread enters the
outermost loop around it: once that is
:data:`~repro.kir.interp.evalcore.RETIRE_CALL`, the guard ``if _h0 is
not RETIRE and _c<n> is not RETIRE_CALL:`` skips that statement alone,
and a loop whose every hook statement retired, by name or by
statement, may run fast iterations, counted runs and its hang verdict
(``_retired``).  A statement outside every loop runs once a thread, so
its answer is not kept.

Identifiers and ``str`` constants enter the source only through
``repr()``: a KIR name becomes a local ``v<n>`` and appears as text
only in the frame reads and writes.  Intrinsics, and constants that
are not a finite ``int``, ``float`` or ``str``, are bound in the
function's namespace.  CPython limits static nesting (about 20 loops
deep) and parenthesis depth (200, and its parser stack overflows, as a
``MemoryError``, a little before that; a wrapped int operation takes
two), so a kernel nested deeper than that raises
:class:`~repro.errors.KIRValidationError`.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping
from operator import itemgetter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bits import bits_to_int, float_to_bits
from repro.errors import KernelCrash, KernelHang, KIRError, KIRValidationError
from repro.kir.analysis.intervals import Guard, iteration_ranges
from repro.kir.analysis.loops import (
    INT32_MAX,
    INT32_MIN,
    FastIteration,
    HangShape,
    NumpyRun,
    fast_iteration,
    hang_shape,
    iteration_stmts,
    numpy_run,
)
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
    defining_statements,
    walk_stmts,
)
from repro.kir.analysis.dataflow import names_read_expr
from repro.kir.interp.evalcore import (
    INF,
    ExecContext,
    INTRINSIC_IMPL,
    RETIRE,
    RETIRE_CALL,
    _safe_sqrt,
    c_int_cast,
    fdiv,
    idiv,
    imod,
)
from repro.kir.types import DType
from repro.obs.instrument import record_numpy_run

ExprFn = Callable[[dict, ExecContext], object]

#: Locals the thread function reads from ``ctx`` when its body uses them.
_CTX_LOCALS = ("load_f32", "load_i32", "store_f32", "store_i32", "shared",
               "hang_verdicts", "mem_f32", "mem_i32", "mem_limit", "mem_slow",
               "mem_slow_lo", "mem_slow_hi")
#: What evaluating a KIR expression can raise: a fast iteration that
#: raises one of these reruns on the checked path.
_RERUN = (KernelCrash, ArithmeticError, ValueError, TypeError, LookupError)
#: Cycle sums stay exact below this, for costs that are multiples of 1/8.
_EXACT_CYCLES = 2.0 ** 50
_COMPARE = ("<", "<=", ">", ">=", "==", "!=")
#: A counted run this long computes through its loop's NumPy form,
#: where the loop has one: a little above where the form's fixed cost is
#: repaid (measured break-even: some 100 iterations of CP's atom loop).
NUMPY_RUN_MIN = 128
#: Iterations a NumPy form computes per block: its float64 temporaries
#: stay well below the allocator's 128 KiB ``mmap`` threshold, so a call
#: reuses heap memory instead of faulting fresh pages in.
NUMPY_BLOCK = 8192
#: Names a NumPy form's source reads from the function's namespace.
_NUMPY_NS = {
    "_errstate": np.errstate, "_asarray": np.asarray, "_full": np.full,
    "_cat": np.concatenate, "_isnan": np.isnan, "_isfinite": np.isfinite,
    "_sqrt": np.sqrt, "_add": np.add, "_sub": np.subtract, "_mul": np.multiply,
    "_f64": np.float64,
}


def _seq(items: List[str]) -> str:
    """``items`` as the body of a tuple display or unpacking target."""
    return ", ".join(items) + ("," if len(items) == 1 else "")


def _wrap(src: str) -> str:
    """Inline int32 two's-complement wrap of ``src`` (``wrap_i32``): the
    value itself when it is in range, so only an overflow allocates."""
    return (f"(_i if -2147483648 <= (_i := {src}) <= 2147483647 "
            f"else ((_i + 2147483648 & 4294967295) - 2147483648))")


def _shared_oob(what: str, name: str, idx: int, ctx: ExecContext) -> None:
    raise KernelCrash(f"shared memory OOB {what} {name}[{idx}]", ctx.thread, ctx.block)


def _shared_load(arr: list, idx: int, name: str, ctx: ExecContext):
    if 0 <= idx < len(arr):
        return arr[idx]
    _shared_oob("read", name, idx, ctx)


def _float_as_int(x) -> int:
    return bits_to_int(float_to_bits(float(x)))


#: Largest finite binary32 value: ``__float_as_int`` of an operand in
#: ``[-FLT_MAX, FLT_MAX]`` reinterprets inline through ``struct``.
FLT_MAX = float.fromhex("0x1.fffffep+127")
_pack_f32 = struct.Struct("<f").pack
_unpack_i32 = struct.Struct("<i").unpack


def _converter(target: DType, source: DType):
    """Implicit conversion applied on assignment, C-style."""
    if target is DType.FLOAT32 and source is DType.INT32:
        return float
    if target is DType.INT32 and source is DType.FLOAT32:
        return c_int_cast
    return None


#: Value of a thread-function local whose KIR variable the thread has
#: not assigned yet; the variable is absent from its frame.  Compared
#: by identity.
UNSET = object()


class FrameView(Mapping):
    """The calling thread's frame as a live hook call sees it.

    The thread function keeps KIR variables in Python locals, so its
    frame dict ``fr`` is only current for the names the kernel never
    assigns (the *base* names: parameters and special registers, read
    once when the thread starts) and for names the thread has not
    assigned yet.  Before each live hook call the thread function stores
    the locals of the names it may have assigned by then into
    :attr:`values`, a tuple in :attr:`index` order; a local still
    holding :data:`UNSET` stands for an unassigned name.  Reads and
    membership tests consult ``values`` for those names and ``fr`` for
    the rest, so the view shows what the lockstep interpreter's dict
    shows, and a call that writes nothing costs one tuple build.

    A write to a name the thread has assigned goes into ``values`` (now
    a list); a write to a base name goes into ``fr``.  Either way it is
    recorded in :attr:`written`, and after the call the thread function
    reloads its locals from :meth:`reload`.  A write to any other name
    goes into ``fr`` alone: no local holds it yet.  Names cannot be
    deleted.  The view is valid for the duration of one call.
    """

    __slots__ = ("fr", "index", "base", "values", "written")

    def __init__(self, fr: dict, index: Dict[str, int], base: tuple):
        self.fr = fr
        #: name -> position in ``values``; -1 marks a base name
        self.index = index
        self.base = base
        self.values = ()
        #: name -> value of every write to a name a local holds, or
        #: None when there is none since the last reload
        self.written: Optional[dict] = None

    def _slot(self, name):
        """Position in ``values`` of a name the thread has assigned, or None."""
        i = self.index.get(name)
        if i is not None and 0 <= i < len(self.values) and self.values[i] is not UNSET:
            return i
        return None

    def __getitem__(self, name):
        i = self._slot(name)
        return self.fr[name] if i is None else self.values[i]

    def __contains__(self, name) -> bool:
        return self._slot(name) is not None or name in self.fr

    def __setitem__(self, name, value) -> None:
        i = self._slot(name)
        if i is not None:
            if type(self.values) is tuple:
                self.values = list(self.values)
            self.values[i] = value
        else:
            self.fr[name] = value
            if self.index.get(name) != -1:
                return  # no local holds the name yet
        if self.written is None:
            self.written = {}
        self.written[name] = value

    def reload(self) -> list:
        """The base names' values, then ``values``; clears ``written``."""
        self.written = None
        fr = self.fr
        return [fr[name] for name in self.base] + list(self.values)

    def _snapshot(self) -> dict:
        snap = dict(self.fr)
        for name in self.index:
            i = self._slot(name)
            if i is not None:
                snap[name] = self.values[i]
        return snap

    def __iter__(self):
        return iter(self._snapshot())

    def __len__(self) -> int:
        return len(self._snapshot())


class _NumpyForm:
    """The NumPy form of one loop, called by the thread function for a
    counted run of at least :data:`NUMPY_RUN_MIN` iterations.

    Its source is compiled on the first call, so a kernel whose runs
    stay short never pays for it.  A call gives the final values of the
    locals the loop assigns, or None when the scalar run must compute
    them; it records which in ``repro_kir_numpy_runs_total``.
    """

    __slots__ = ("source", "ns", "name", "kernel", "fn")

    def __init__(self, source: str, ns: dict, name: str, kernel: str):
        self.source, self.ns, self.name, self.kernel = source, ns, name, kernel
        self.fn = None

    def __call__(self, k: int, *args):
        if self.fn is None:
            exec(_compile(self.source, f"NumPy form of kernel {self.kernel}", "exec"), self.ns)
            self.fn = self.ns[self.name]
        out = self.fn(k, *args)
        if type(out) is str:  # why the scalar run computes it
            record_numpy_run(self.kernel, out)
            return None
        record_numpy_run(self.kernel, "ran")
        return out


def _hang_verdict(shape: HangShape, ctx: ExecContext, steps: int, i, bound,
                  loads: tuple) -> bool:
    """Whether the thread, at the head of an iteration of ``shape``'s
    loop with ``steps`` taken, runs out its budget before the loop ends
    or crashes; notes the loop in ``ctx.hang_verdict`` when it does."""
    if shape.runs_out(ctx.budget + 1 - steps, ctx.memory.capacity, i, bound, loads):
        ctx.hang_verdict = shape.loop_id
        return True
    return False


def _simple(e: Expr) -> bool:
    """Whether ``e`` is emitted as a bare local or constant."""
    return isinstance(e, (Const, Var, SpecialReg))


def _heads(limit: str, start: str, d: int, below: bool = False) -> str:
    """Text of how many ``j >= 0`` have ``start + d * j <= limit`` (or
    ``< limit``, when ``below``), for ``d > 0`` and ``start`` within."""
    if " " in start:
        start = f"({start})"
    if below:
        return f"{limit} - {start}" if d == 1 else f"({limit} - {start} - 1) // {d} + 1"
    return f"{limit} - {start} + 1" if d == 1 else f"({limit} - {start}) // {d} + 1"


def _write_back(fr: dict, names: tuple, values: tuple) -> None:
    """``fr[name] = value`` for each pair whose value is not UNSET."""
    fr.update((name, value) for name, value in zip(names, values) if value is not UNSET)


class _Emitter:
    """Emits Python source for KIR expressions and statements.

    ``in_thread`` selects how the context is reached: the thread
    function holds the memory accessors, hook handlers and shared
    arrays in locals; a lone expression lambda reads them off ``ctx``
    and holds no statements, so no instrumentation calls.
    """

    def __init__(self, costmodel=None, in_thread: bool = False):
        self.cm = costmodel
        self.in_thread = in_thread
        self.ns: Dict[str, object] = {
            "KernelHang": KernelHang, "idiv": idiv, "imod": imod,
            "fdiv": fdiv, "c_int_cast": c_int_cast,
            "_shared_load": _shared_load, "_shared_oob": _shared_oob,
            "RETIRE": RETIRE, "RETIRE_CALL": RETIRE_CALL, "UNSET": UNSET,
            "FrameView": FrameView,
            "_write_back": _write_back, "_hang_verdict": _hang_verdict,
            "INF": INF, "_RERUN": _RERUN, "_float_as_int": _float_as_int,
            "_pack_f32": _pack_f32, "_unpack_i32": _unpack_i32, "_ONCE": (None,),
        }
        self._bound: Dict[int, str] = {}  # id(value) -> namespace name
        self.used = set()
        #: hook name -> the thread function's local holding its handler
        self.hooks: Dict[str, str] = {}
        #: id of each hook call statement inside a loop -> the local
        #: holding its handler's last answer (``_c<n>``)
        self.call_flags: Dict[int, str] = {}
        #: KIR name -> the thread function's local holding it
        self.locals: Dict[str, str] = {}
        #: assigned KIR names -> position in a frame view's ``values``,
        #: in the order emission reaches them; a hook call packs the
        #: locals in ``packed`` so far
        self.order: Dict[str, int] = {}
        self.packed: List[str] = []
        #: emitted lines; a hook call's reload is ``(indent, packed)``
        #: until the base names are known
        self.lines: list = []
        #: number of expression temporaries (``_w<n>``) emitted so far
        self.temps = 0
        #: id of each statement -> its cycle charge, and whether every
        #: charge is a multiple of 1/8, so a loop may get a fast
        #: iteration (both set by ``thread_function``)
        self.costs: Dict[int, Optional[float]] = {}
        self.dyadic = False
        #: the fast-iteration mode flag: ``[steps, cycles, loop_cycles]``
        #: not yet charged while a fast iteration is emitted, else None
        self.pending: Optional[list] = None
        #: every cycle cost the fast iteration being emitted charges
        self.fast_cycles = 0.0
        #: ids of the int32 operations that fast iteration computes bare
        self.bare: frozenset = frozenset()
        #: its address terms: ``ptr + index`` text -> the temporary
        #: holding it and the KIR names it reads
        self.memo: Dict[str, tuple] = {}
        #: while a counted run's body is emitted, the local that is true
        #: when every load span of the run is clean, else None
        self.run: Optional[str] = None
        #: while a NumPy form is emitted, each KIR name the iteration has
        #: assigned so far -> the text of its value and whether that is
        #: an array, else None
        self.vec: Optional[Dict[str, tuple]] = None
        #: the form's inductions -> (their step, whether the iteration
        #: has updated them yet); its operations' text -> the temporary
        #: holding the result; and the locals it takes, in first-use order
        self.vec_steps: Dict[str, list] = {}
        self.vec_memo: Dict[str, str] = {}
        self.vec_args: Dict[str, None] = {}
        #: number of the form's temporaries (``_u<n>``)
        self.vec_temps = 0
        #: the kernel being compiled, for the forms' metric label
        self.kernel_name = ""

    # -- names ------------------------------------------------------------
    def bind(self, value) -> str:
        """Name ``value`` in the function's namespace."""
        name = self._bound.get(id(value))
        if name is None:
            name = self._bound[id(value)] = f"_k{len(self._bound)}"
            self.ns[name] = value
        return name

    def const(self, v) -> str:
        if type(v) is str or type(v) is int or (type(v) is float and math.isfinite(v)):
            text = repr(v)
            return f"({text})" if text.startswith("-") else text
        return self.bind(v)

    def var(self, name: str) -> str:
        """The Python expression holding KIR variable ``name``."""
        if not self.in_thread:
            return f"fr[{name!r}]"
        local = self.locals.get(name)
        if local is None:
            local = self.locals[name] = f"v{len(self.locals)}"
        return local

    def assigned(self, names) -> None:
        """Note that the thread may have assigned ``names`` from here on."""
        for name in names:
            if name not in self.order:
                self.order[name] = len(self.order)
                self.packed.append(self.var(name))

    def temp(self) -> str:
        """A fresh local for an expression temporary."""
        self.temps += 1
        return f"_w{self.temps - 1}"

    def hook_local(self, func: str) -> str:
        """The thread function's local holding ``func``'s handler."""
        return self.hooks.setdefault(func, f"_h{len(self.hooks)}")

    def ctx_local(self, name: str) -> str:
        if self.in_thread:
            self.used.add(name)
            return name
        return "ctx." + name

    # -- expressions --------------------------------------------------------
    def expr(self, e: Expr) -> str:
        if isinstance(e, Const):
            return self.const(e.value)
        if isinstance(e, (Var, SpecialReg)):
            return self.var(e.name)
        if isinstance(e, BinOp):
            return self._binop(e)
        if isinstance(e, UnOp):
            if e.op == "!":
                return f"(0 if {self.cond(e.operand)} else 1)"
            x = self.expr(e.operand)
            if e.op == "-":
                return self._int32(e, f"-{x}") if e.dtype is DType.INT32 else f"(-{x})"
            if e.op == "~":
                return f"(~{x})"  # in range for an in-range operand
            raise KIRError(f"cannot compile unary {e.op!r}")
        if isinstance(e, Call):
            if e.func == "__float_as_int":
                return self._bitcast(e.args[0])
            if e.func == "int":
                return self._int_cast(e.args[0])
            impl = INTRINSIC_IMPL.get(e.func)
            if impl is None:
                raise KIRError(f"cannot compile intrinsic {e.func!r}")
            args = ", ".join(self.expr(a) for a in e.args)
            if impl is _safe_sqrt:
                # the common case, a finite non-negative operand, calls
                # math.sqrt directly; NaN, inf and negatives take the helper
                x = args
                if not _simple(e.args[0]):
                    x = self.temp()
                    args = f"({x} := {args})"
                return (f"({self.bind(math.sqrt)}({x}) if 0.0 <= {args} < INF "
                        f"else {self.bind(impl)}({x}))")
            return f"{self.bind(impl)}({args})"
        if isinstance(e, Load):
            return self._load(e)
        if isinstance(e, SharedLoad):
            return (f"_shared_load({self.ctx_local('shared')}[{e.array!r}], "
                    f"{self.expr(e.index)}, {e.array!r}, ctx)")
        raise KIRError(f"cannot compile expression {type(e).__name__}")

    def _bitcast(self, arg: Expr) -> str:
        """``__float_as_int``: one ``struct`` reinterpretation for an
        operand in ``[-FLT_MAX, FLT_MAX]``; NaN, an operand beyond
        binary32 range and anything else take ``_float_as_int``, which
        keeps a signaling NaN's payload and saturates to infinity."""
        x = test = self.expr(arg)
        if not _simple(arg):
            x = self.temp()
            test = f"({x} := {test})"
        return (f"(_unpack_i32(_pack_f32({x}))[0] if {self.const(-FLT_MAX)} <= {test} "
                f"<= {self.const(FLT_MAX)} else _float_as_int({x}))")

    def _int_cast(self, arg: Expr) -> str:
        """``int(x)``: an int32 operand is its own value, a pointer in
        int32 is too, and a float strictly between -2**31 - 1 and 2**31
        truncates inline; NaN, infinities and anything beyond take
        ``c_int_cast``, which maps NaN to 0, saturates a float and wraps
        a pointer."""
        x = test = self.expr(arg)
        if arg.dtype is DType.INT32:
            return x
        if not _simple(arg):
            x = self.temp()
            test = f"({x} := {test})"
        if arg.dtype.is_pointer:
            return f"({x} if -2147483648 <= {test} <= 2147483647 else c_int_cast({x}))"
        return f"(int({x}) if -2147483649.0 < {test} < 2147483648.0 else c_int_cast({x}))"

    def _load(self, e: Load) -> str:
        """A device load: inline for an in-bounds address outside
        ``mem_slow`` whose word is not a NaN, else the accessor call."""
        is_float = e.dtype is DType.FLOAT32
        load = self.ctx_local("load_f32" if is_float else "load_i32")
        if not self.in_thread:
            return f"{load}({self.expr(e.ptr)} + {self.expr(e.index)})"
        addr = self._address(e.ptr, e.index)
        view = self.ctx_local("mem_f32" if is_float else "mem_i32")
        if self.run is not None:
            # a counted run reads bare when its head found every load
            # span clean, and calls the accessor otherwise
            if is_float:  # a NaN word goes to the accessor, which keeps its payload
                return f"(_lx if {self.run} and (_lx := {view}[{addr}]) == _lx else {load}({addr}))"
            return f"({view}[{addr}] if {self.run} else {load}({addr}))"
        test = (f"0 <= (_la := {addr}) < {self.ctx_local('mem_limit')} "
                f"and _la not in {self.ctx_local('mem_slow')}")
        if is_float:
            return f"(_lx if {test} and (_lx := {view}[_la]) == _lx else {load}(_la))"
        return f"({view}[_la] if {test} else {load}(_la))"

    def _address(self, ptr: Expr, index: Expr) -> str:
        """``ptr + index``.  In a fast iteration, an index ``base + c``
        whose add is bare is exact, so the address is ``(ptr + base) +
        c``, and ``ptr + base`` is computed once, into a temporary that
        later loads reuse until an operand is reassigned (CP's four
        ``atominfo[atomid * 4 + k]`` share ``atominfo + atomid * 4``)."""
        if self.pending is None:
            return f"{self.expr(ptr)} + {self.expr(index)}"
        base, offset = self._split(index)
        key = f"{self.expr(ptr)} + {self.expr(base)}"
        if key in self.memo:
            term = self.memo[key][0]
        else:
            term = self.temp()
            self.memo[key] = (term, names_read_expr(ptr) | names_read_expr(base))
            term = f"({term} := {key})"
        return f"{term} + {self.const(offset)}" if offset else term

    def _split(self, index: Expr) -> tuple:
        """``(base, offset)`` with ``index == base + offset`` exactly: an
        index ``base + c`` or ``base - c`` whose operation is bare, else
        ``(index, 0)``."""
        if (isinstance(index, BinOp) and index.op in ("+", "-") and id(index) in self.bare
                and isinstance(index.right, Const)):
            return index.left, index.right.value * (1 if index.op == "+" else -1)
        return index, 0

    def cond(self, e: Expr) -> str:
        """``e`` as a Python condition: truthy exactly when ``e != 0``."""
        if isinstance(e, BinOp) and e.op in _COMPARE:
            return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
        if isinstance(e, BinOp) and e.op in ("&&", "||"):
            op = "and" if e.op == "&&" else "or"
            left, memo = self.cond(e.left), self.memo
            # an address term the right operand computes may not run
            self.memo = dict(memo)
            right = self.cond(e.right)
            self.memo = memo
            return f"({left} {op} {right})"
        if isinstance(e, UnOp) and e.op == "!":
            return f"(not {self.cond(e.operand)})"
        return self.expr(e)

    def _binop(self, e: BinOp) -> str:
        op = e.op
        if op in _COMPARE or op in ("&&", "||"):
            return f"(1 if {self.cond(e)} else 0)"
        l, r = self.expr(e.left), self.expr(e.right)  # noqa: E741
        int_arith = (e.dtype is DType.INT32 and e.left.dtype is DType.INT32
                     and e.right.dtype is DType.INT32)
        if op in ("+", "-", "*"):
            return self._int32(e, f"{l} {op} {r}") if int_arith else f"({l} {op} {r})"
        if op == "/":
            if int_arith:
                return f"idiv({l}, {r})"
            if e.left.dtype is DType.FLOAT32 and e.right.dtype is DType.FLOAT32:
                return self._fdiv(e, l, r)
            return f"fdiv({l}, {r})"
        if op == "%":
            return f"imod({l}, {r})"
        # int32 operands give an int32 result: no wrap
        if op in ("&", "|", "^"):
            return f"({l} {op} {r})"
        if op == ">>":
            return f"({l} >> ({r} & 31))"
        if op == "<<":
            return self._int32(e, f"{l} << ({r} & 31)")
        raise KIRError(f"cannot compile operator {op!r}")

    def _int32(self, e: Expr, src: str) -> str:
        """An int32 ``+ - * <<`` or unary ``-``: bare in a fast
        iteration whose guards keep it in range, else wrapped."""
        if self.pending is not None and id(e) in self.bare:
            return f"({src})"
        return _wrap(src)

    def _fdiv(self, e: BinOp, l: str, r: str) -> str:  # noqa: E741
        """Float ``l / r`` inline, with ``fdiv`` for a zero divisor.

        Each operand is evaluated once, left first: a compound operand
        goes through a temporary, and when the dividend is compound it
        is stored by the condition, whose ``or 1`` keeps a zero dividend
        from deciding the branch.
        """
        if not _simple(e.right):
            t = self.temp()
            r, test = t, f"({t} := {r})"
        else:
            test = r
        if not _simple(e.left):
            t = self.temp()
            test = f"(({t} := {l}) or 1) and {test}"
            l = t  # noqa: E741
        return f"({l} / {r} if {test} else fdiv({l}, {r}))"

    # -- statements ---------------------------------------------------------
    def emit(self, ind: int, line: str) -> None:
        self.lines.append("    " * ind + line)

    def tick(self, ind: int, cost=None, in_loop: bool = False) -> None:
        """One checked step, then the statement's cycle charge; in a
        fast iteration, both are added to ``pending`` instead."""
        if self.pending is not None:
            self.pending[0] += 1
            if cost is not None:
                self.pending[1] += cost
                self.fast_cycles += cost
                if in_loop:
                    self.pending[2] += cost
            return
        self.emit(ind, "steps += 1")
        self.emit(ind, "if steps > budget: raise KernelHang()")
        if cost is not None:
            c = self.const(cost)
            self.emit(ind, f"cycles += {c}")
            if in_loop:
                self.emit(ind, f"loop_cycles += {c}")

    def charge(self, ind: int, times: str = "") -> None:
        """Emit the steps and cycles ``pending`` holds, ``times`` times
        (a local holding the count) when given."""
        by = f" * {times}" if times else ""
        steps, cycles, loop_cycles = self.pending
        if steps:
            self.emit(ind, f"steps += {steps}{by}")
        if cycles:
            self.emit(ind, f"cycles += {self.const(cycles)}{by}")
        if loop_cycles:
            self.emit(ind, f"loop_cycles += {self.const(loop_cycles)}{by}")

    def cost(self, s: Stmt):
        """The cycles ``s`` charges each time it runs (a loop: each
        condition test), or None when it charges none."""
        return self.costs[id(s)]

    def _cost(self, s: Stmt):
        cm = self.cm
        if isinstance(s, (Decl, Assign)):
            rhs = s.init if isinstance(s, Decl) else s.value
            return (cm.expr_cost(rhs) + cm.write_cost) * s.cost_scale
        if isinstance(s, Store):
            return (cm.expr_cost(s.ptr) + cm.expr_cost(s.index) + cm.expr_cost(s.value)
                    + cm.mem_global) * s.cost_scale
        if isinstance(s, SharedStore):
            return cm.expr_cost(s.index) + cm.expr_cost(s.value) + cm.mem_shared
        if isinstance(s, AtomicAdd):
            if s.space == "shared":
                return cm.expr_cost(s.index) + cm.expr_cost(s.value) + cm.atomic_shared
            return (cm.expr_cost(s.target) + cm.expr_cost(s.index) + cm.expr_cost(s.value)
                    + cm.atomic_global)
        if isinstance(s, (For, While)):
            return cm.expr_cost(s.cond) + cm.branch_cost
        if isinstance(s, If):
            return (cm.expr_cost(s.cond) + cm.branch_cost) * s.cost_scale
        if isinstance(s, CallStmt):
            return cm.libcall_cost(s.func) * s.cost_scale or None
        return None

    def block(self, stmts: List[Stmt], ind: int, update: Optional[Stmt]) -> None:
        """Emit ``stmts``; ``update`` is the innermost ``for`` loop's
        update statement, which a ``continue`` runs first."""
        if not stmts:
            self.emit(ind, "pass")
        for s in stmts:
            self.stmt(s, ind, update)

    def stmt(self, s: Stmt, ind: int, update: Optional[Stmt] = None) -> None:
        if isinstance(s, (Decl, Assign)):
            rhs, target = (s.init, s.var_dtype) if isinstance(s, Decl) else (s.value, s.target_dtype)
            self.tick(ind, self.cost(s), s.in_loop)
            conv = _converter(target, rhs.dtype)
            if conv is c_int_cast:
                value = self._int_cast(rhs)
            elif conv is not None:
                value = f"{self.bind(conv)}({self.expr(rhs)})"
            else:
                value = self.expr(rhs)
            self.assigned((s.name,))
            self.emit(ind, f"{self.var(s.name)} = {value}")
            # address terms that read the name are stale now
            self.memo = {k: m for k, m in self.memo.items() if s.name not in m[1]}
        elif isinstance(s, Store):
            self.tick(ind, self.cost(s), s.in_loop)
            store = "store_f32" if s.ptr.dtype.element is DType.FLOAT32 else "store_i32"
            self.emit(ind, f"{self.ctx_local(store)}({self.expr(s.ptr)} + "
                           f"{self.expr(s.index)}, {self.expr(s.value)})")
        elif isinstance(s, SharedStore):
            self.tick(ind, self.cost(s), s.in_loop)
            self._shared_slot(s.array, s.index, "write", ind)
            self.emit(ind, f"_t_arr[_t_idx] = {self.expr(s.value)}")
        elif isinstance(s, AtomicAdd):
            self._atomic(s, ind)
        elif isinstance(s, For):
            if s.init is not None:
                self.stmt(s.init, ind, update)
            shape = hang_shape(s)
            self._loop(s, ind, shape if isinstance(shape, HangShape) else None)
        elif isinstance(s, While):
            self._loop(s, ind)
        elif isinstance(s, If):
            self.tick(ind, self.cost(s), s.in_loop)
            self.emit(ind, f"if {self.cond(s.cond)}:")
            self._arm(s.then, ind + 1, update)
            if s.els:
                self.emit(ind, "else:")
                self._arm(s.els, ind + 1, update)
        elif isinstance(s, (Break, Continue, Return)):
            self.emit(ind, "steps += 1")  # unchecked, and no cycles
            if isinstance(s, Continue) and update is not None:
                self.stmt(update, ind)
            self.emit(ind, {Break: "break", Continue: "continue", Return: "return"}[type(s)])
        elif isinstance(s, CallStmt):
            self._call(s, ind)
        else:
            raise KIRError(f"cannot compile statement {type(s).__name__}")

    def _arm(self, stmts: List[Stmt], ind: int, update: Optional[Stmt]) -> None:
        """An ``if`` arm; in a fast iteration it charges its own steps
        and cycles at its end."""
        if self.pending is None:
            self.block(stmts, ind, update)
            return
        outer, self.pending = self.pending, [0, 0.0, 0.0]
        memo, self.memo = self.memo, dict(self.memo)
        self.block(stmts, ind, update)
        self.charge(ind)
        self.pending = outer
        # after the arm, only the address terms from before it that it
        # left standing hold
        self.memo = {k: m for k, m in memo.items() if self.memo.get(k) == m}

    def _loop(self, s: Stmt, ind: int, shape: Optional[HangShape] = None) -> None:
        # a hook anywhere in the loop may follow any assignment in it
        self.assigned(d.name for d, _depth in defining_statements(iteration_stmts(s)))
        # a thread enters an outermost loop at most once: the answers of
        # the hook statements in it (none yet flagged) start there
        flags = [self.call_flags.setdefault(id(st), f"_c{len(self.call_flags)}")
                 for st, _depth in walk_stmts(s.body)
                 if isinstance(st, CallStmt) and id(st) not in self.call_flags]
        if flags:
            self.emit(ind, f"{' = '.join(flags)} = None")
        if shape is None:
            self.emit(ind, "while True:")
        else:
            self._verdict_head(shape, ind)
        fast = fast_iteration(s) if self.dyadic else None
        if isinstance(fast, FastIteration):
            self._fast_iteration(s, fast, ind + 1, shape)
        self._iteration(s, ind + 1)

    def _retired(self, calls) -> List[str]:
        """Tests that every call statement in ``calls`` has retired: for
        each hook name, its local is ``RETIRE`` or each of its call
        statements answered ``RETIRE_CALL`` last."""
        by_name: Dict[str, List[str]] = {}
        for call in calls:
            by_name.setdefault(call.func, []).append(self.call_flags[id(call)])
        return [f"({self.hook_local(func)} is RETIRE or "
                f"{' and '.join(f'{flag} is RETIRE_CALL' for flag in flags)})"
                for func, flags in by_name.items()]

    def _iteration(self, s: Stmt, ind: int) -> None:
        """One iteration of loop ``s``: the condition, body and update."""
        self.tick(ind, self.cost(s), True)
        self.emit(ind, f"if not {self.cond(s.cond)}: break")
        self._iteration_body(s, ind)

    def _fast_iteration(self, s: Stmt, fast: FastIteration, ind: int,
                        shape: Optional[HangShape]) -> None:
        """The iteration again, without per-statement bookkeeping, run
        at the head when every body hook has retired, the budget covers
        ``fast.max_steps`` more steps, the cycle totals stay exact and
        every range guard holds.

        Its statements charge their steps and cycles in one add each,
        at the end of the iteration and of each ``if`` arm, and the
        retired hook calls are left out but for their arguments.  The
        iteration writes no memory and calls no hook, so one that
        raises restores the counters and locals it started from (an
        arm may have charged already) and the checked iteration after
        it runs again and raises at the same step.  A loop with a
        ``shape`` runs a counted run of iterations instead
        (:meth:`_run`).
        """
        names = _seq(["steps", "cycles", "loop_cycles"] + list(dict.fromkeys(
            self.var(d.name) for d, _depth in defining_statements(iteration_stmts(s)))))
        snapshot = f"_r{fast.loop_id}"
        head = len(self.lines)
        self.emit(ind, "")  # the head test, once the iteration's cycles are known
        self.emit(ind + 1, f"{snapshot} = ({names})")
        self.emit(ind + 1, "try:")
        ranges = iteration_ranges(s)
        self.pending, self.fast_cycles = [0, 0.0, 0.0], 0.0
        self.bare, self.memo = ranges.bare, {}
        self.tick(ind + 2, self.cost(s), True)
        self.emit(ind + 2, f"if not {self.cond(s.cond)}:")
        self.charge(ind + 3)
        self.emit(ind + 3, "break")
        if shape is None:
            self._iteration_body(s, ind + 2)
            self.charge(ind + 2)
        else:
            self._run(s, shape, ranges, ind + 2)
        self.emit(ind + 2, "continue")
        self.pending, self.bare, self.memo = None, frozenset(), {}
        self.emit(ind + 1, "except _RERUN:")
        self.emit(ind + 2, f"{names} = {snapshot}")
        limit = self.const(_EXACT_CYCLES - self.fast_cycles)
        test = self._retired(fast.calls)
        test += [f"steps + {fast.max_steps} <= budget", f"cycles <= {limit}",
                 f"loop_cycles <= {limit}"]
        test += [self._guard(g) for g in ranges.guards]
        self.lines[head] = "    " * ind + f"if {' and '.join(test)}:"

    def _run(self, s: For, shape: HangShape, ranges, ind: int) -> None:
        """A counted run: ``K >= 1`` iterations of a loop with a hang
        shape, after the head test has passed and the condition held.

        ``K`` is the least of the iterations left, the iterations the
        budget and each cycle total's headroom below ``2**50`` cover,
        the heads each range guard still holds at (from its local's
        delta) and, per load span, the iterations before it leaves
        ``[0, mem_limit)`` or reaches ``[mem_slow_lo, mem_slow_hi]``.
        Each of them is at least 1 here.  The run tests no condition,
        reads every load bare but for the NaN test, and charges its
        steps and cycles once, ``K`` times an iteration's: every partial
        sum is a multiple of 1/8 below ``2**50``, so the total is what
        per-statement adds give.  When some load span is not clean, the
        run is one iteration whose loads call the accessors.  A loop
        with a :class:`NumpyRun` computes a clean run of at least
        :data:`NUMPY_RUN_MIN` iterations through its NumPy form
        (:meth:`_numpy_form`) when that gives values.
        """
        loop_id = shape.loop_id
        count, self.run = f"_n{loop_id}", f"_b{loop_id}"
        line = len(self.lines)
        self.emit(ind, "")  # the count, once the iteration's cycles are known
        form = numpy_run(s, ranges.bare)
        body = ind
        if isinstance(form, NumpyRun):
            call, targets = self._numpy_form(s, form, count)
            clean = f"{self.run} and " if shape.loads else ""
            self.emit(ind, f"if {clean}{count} >= {NUMPY_RUN_MIN} and "
                           f"(_v{loop_id} := {call}) is not None:")
            self.emit(ind + 1, f"{targets} = _v{loop_id}")
            self.emit(ind, "else:")
            body = ind + 1
        # the one iteration of a run whose spans are not clean (each of
        # the footprint recorder's) loops without a range() call
        runs = f"(range({count}) if {self.run} else _ONCE)" if shape.loads else f"range({count})"
        self.emit(body, f"for _ in {runs}:")
        self.memo = {}  # address terms are computed afresh in each iteration
        self._iteration_body(s, body + 1)
        self.charge(ind, count)
        clean, terms = self._spans(shape)
        it = self.var(shape.iter_var)
        terms[:0] = [self._trip(shape, it, self.expr(shape.bound)),
                     f"(budget - steps) // {shape.period}"] + [
            f"int(({self.const(_EXACT_CYCLES)} - {total}) // {self.const(cost)})"
            for total, cost in (("cycles", self.pending[1]), ("loop_cycles", self.pending[2]))
            if cost]
        for g, delta in zip(ranges.guards, ranges.deltas):
            local = self.var(g.name)
            if delta is None:
                terms.append("1")
            elif delta > 0:
                terms.append(_heads(self.const(g.hi), local, delta))
            elif delta < 0:
                terms.append(_heads(local, self.const(g.lo), -delta))
        least = f"min({', '.join(terms)})"
        text = f"{least} if ({self.run} := {' and '.join(clean)}) else 1" if clean else least
        self.lines[line] = "    " * ind + f"{count} = {text}"
        self.run = None

    # -- NumPy forms ----------------------------------------------------------
    def _numpy_form(self, s: For, form: NumpyRun, count: str) -> tuple:
        """``(the text of the call of loop s's NumPy form, the locals
        its result unpacks into)``.

        The form ``_npf<id>(K, <the views and locals it reads>)`` computes K
        iterations of a counted run whose load spans are clean, in blocks
        of :data:`NUMPY_BLOCK`, each float operation once per block on a
        float64 array or a Python float, so each rounds as the scalar
        run's does; a reduction takes a left-to-right ``accumulate`` from
        the block before's last partial, and a load reads a strided slice
        of the view.  The form gives up, with the reason, where the scalar
        run could differ: a NaN word, a zero divisor, an index outside the
        view, or a float local that is not finite, tested on every block.
        """
        lines, self.lines = self.lines, []
        self.vec, self.vec_memo, self.vec_args, self.vec_temps = {}, {}, {}, 0
        self.vec_steps = {name: [step, False] for name, step in form.inductions}
        reductions = dict(form.reductions)
        finals: Dict[str, str] = {}
        for st in iteration_stmts(s):
            if not isinstance(st, (Decl, Assign)):
                continue  # a retired hook call: its arguments cannot raise here
            name = st.name
            rhs = st.init if isinstance(st, Decl) else st.value
            if name in self.vec_steps:
                self.vec_steps[name][1] = True
                finals[name] = f"{self._varg(name)} + {self.const(self.vec_steps[name][0])} * K"
            elif name in reductions:
                mine = isinstance(rhs.left, Var) and rhs.left.name == name
                e, is_array = self._vexpr(rhs.right if mine else rhs.left)
                op = {"+": "_add", "-": "_sub", "*": "_mul"}[reductions[name]]
                acc, carry = self._vtemp(), self._varg(name)  # no other statement reads it
                self.emit(3, f"{acc} = {op}.accumulate(_cat((({carry},), "
                             f"{e if is_array else f'_full(_m, {e})'})))")
                # a non-finite partial sum stays so
                self.emit(3, f"if not _isfinite({acc}[-1]): return 'nonfinite'")
                self.emit(3, f"{carry} = {acc}[-1].item()")
                finals[name] = carry
            else:
                value, is_array = self._vexpr(rhs)
                if is_array:
                    self.emit(3, f"if not _isfinite({value}).all(): return 'nonfinite'")
                self.vec[name] = (value, is_array)
                finals[name] = f"{value}[-1].item()" if is_array else value
        names = list(dict.fromkeys(d.name for d, _depth in defining_statements(iteration_stmts(s))))
        body, self.lines = self.lines, lines
        args = list(self.vec_args)
        fn = f"_npf{form.loop_id}"
        view = ["        _mf = _asarray(mem_f32)"] if "mem_f32" in self.vec_args else []
        source = "\n".join([f"def {fn}({', '.join(['K'] + args)}):",
                            "    with _errstate(all='ignore'):", *view,
                            f"        for _s in range(0, K, {NUMPY_BLOCK}):",
                            f"            _m = min(K - _s, {NUMPY_BLOCK})", *body,
                            f"        return ({_seq([finals[n] for n in names])})", ""])
        self.vec = None
        self.ns.update(_NUMPY_NS)
        call = self.bind(_NumpyForm(source, self.ns, fn, self.kernel_name))
        return f"{call}({', '.join([count] + args)})", _seq([self.var(n) for n in names])

    def _varg(self, name: str) -> str:
        """The local holding ``name`` at the head of the run, which the
        form takes as an argument."""
        local = self.var(name)
        self.vec_args[local] = None
        return local

    def _vtemp(self) -> str:
        self.vec_temps += 1
        return f"_u{self.vec_temps - 1}"

    def _vop(self, text: str) -> str:
        """A form temporary holding ``text``, computed once a block."""
        t = self.vec_memo.get(text)
        if t is None:
            t = self.vec_memo[text] = self._vtemp()
            self.emit(3, f"{t} = {text}")
        return t

    def _vaffine(self, e: Expr) -> Optional[tuple]:
        """``(a0, a1)`` when int expression ``e``, a part of a load's
        index, reads an induction: it is then ``a0 + a1 * j`` in
        iteration ``j`` of a block, ``a0`` a scalar temporary
        (:func:`~repro.kir.analysis.loops.numpy_run` admits only one
        induction under ``+ - *`` by constants); else None."""
        if isinstance(e, Var):
            return self._vstep(e.name) if e.name in self.vec_steps else None
        if not isinstance(e, BinOp):
            return None
        left = self._vaffine(e.left)
        (a0, a1), c = (left, e.right.value) if left is not None else (
            self._vaffine(e.right), e.left.value)
        if e.op == "*":
            return self._vop(f"{a0} * {self.const(c)}"), a1 * c
        if e.op == "+":
            return self._vop(f"{a0} + {self.const(c)}"), a1
        if left is not None:
            return self._vop(f"{a0} - {self.const(c)}"), a1
        return self._vop(f"{self.const(c)} - {a0}"), -a1

    def _vstep(self, name: str) -> tuple:
        """``(a0, c)`` of induction ``name``: ``v + c * _s`` at the start
        of the block, a step further once the iteration has updated it."""
        step, updated = self.vec_steps[name]
        local, c = self._varg(name), self.const(step)
        start = f"{local} + {c}" if updated else local
        return self._vop(f"{start} + _s" if step == 1 else f"{start} + {c} * _s"), step

    def _vexpr(self, e: Expr) -> tuple:
        """``(text, whether it is an array)`` of float expression ``e``
        in a NumPy form: a temporary, a local or a constant."""
        if isinstance(e, Const):
            return self.const(e.value), False
        if isinstance(e, Var):
            return self.vec[e.name] if e.name in self.vec else (self._varg(e.name), False)
        if isinstance(e, Load):
            return self._vload(e)
        if isinstance(e, UnOp):  # a negation
            x, is_array = self._vexpr(e.operand)
            return self._vop(f"-{x}"), is_array
        if isinstance(e, Call):  # sqrt: correctly rounded in both
            x, is_array = self._vexpr(e.args[0])
            return self._vop(f"_sqrt({x})" if is_array else f"{self.bind(_safe_sqrt)}({x})"), is_array
        (l, l_array), (r, r_array) = self._vexpr(e.left), self._vexpr(e.right)  # noqa: E741
        if e.op == "/":
            self.emit(3, f"if not {r}.all(): return 'zero_divisor'" if r_array
                         else f"if {r} == 0: return 'zero_divisor'")
        return self._vop(f"{l} {e.op} {r}"), l_array or r_array

    def _vload(self, e: Load) -> tuple:
        """Bare words of the float view of device memory as a strided
        slice, after the index test (the block's first and last
        addresses against the view) and the NaN test the scalar run's
        loads need."""
        base, offset = self._split(e.index)
        ptr = self._vexpr(e.ptr)[0]
        a0, a1 = self._vaffine(base)
        self.vec_args[self.ctx_local("mem_f32")] = None
        first = self._vop(f"{ptr} + {a0}")
        if offset:
            first = self._vop(f"{first} + {self.const(offset)}")
        key = f"_mf[{first}::{a1}]"
        if key in self.vec_memo:
            return self.vec_memo[key], True
        last = self._vop(f"{first} + _m - 1" if a1 == 1
                         else f"{first} + {self.const(a1)} * (_m - 1)")
        word = self.vec_memo[key] = self._vtemp()
        lo, hi = (first, last) if a1 > 0 else (last, first)
        self.emit(3, f"if {lo} < 0 or {hi} >= _mf.shape[0]: return 'index'")
        # a slice down to address 0 ends at None, not -1
        end = f"{last} + 1" if a1 > 0 else f"({last} - 1 if {last} else None)"
        step = "" if a1 == 1 else f":{a1}"
        self.emit(3, f"{word} = _mf[{first}:{end}{step}].astype(_f64)")
        self.emit(3, f"if _isnan({word}).any(): return 'nan_word'")
        return word, True

    def _spans(self, shape: HangShape) -> tuple:
        """(clean tests, count terms) of the run's load spans.

        Loads that share a pointer, a base index and a stride form one
        span: ``[s + lo, s + hi]`` at the head, ``s`` the pointer plus
        the base and ``lo``/``hi`` their least and greatest constant
        offsets, moving by the stride in each iteration.  A span is
        clean when it lies in ``[0, mem_slow_lo)`` or in ``(mem_slow_hi,
        mem_limit)``; it then counts the iterations before it leaves
        that interval.  An index the body wraps moves by the stride
        until it wraps, and a wrap moves its address by a multiple of
        ``2**32``, past the end of a view of fewer than ``2**31``
        words, whose bare read raises ``IndexError``.
        """
        spans: Dict[tuple, List[int]] = {}
        for load in shape.loads:
            base, offset = self._split(load.nodes[-1])
            key = (self.expr(load.ptr), self.expr(base), load.coefs[-1] * shape.step)
            spans.setdefault(key, []).append(offset)
        limit, slow_lo, slow_hi = (self.ctx_local(n)
                                   for n in ("mem_limit", "mem_slow_lo", "mem_slow_hi"))
        clean: List[str] = []
        terms: List[str] = []
        for (ptr, base, stride), offsets in spans.items():
            at = self.temp()
            lo = f"{at} + {self.const(min(offsets))}" if min(offsets) else at
            hi = f"{at} + {self.const(max(offsets))}" if max(offsets) else at
            first = f"({at} := {ptr} + {base})"
            if max(offsets):
                first += f" + {self.const(max(offsets))}"
            # the limit first: a limit-0 space fails at once
            clean.append(f"{first} < {limit} and (0 <= {lo} and {hi} < {slow_lo} "
                         f"or {slow_hi} < {lo})")
            if stride > 0:
                end = f"({slow_lo} if {hi} < {slow_lo} else {limit})"
                terms.append(_heads(end, hi, stride, below=True))
            elif stride < 0:
                start = f"(0 if {hi} < {slow_lo} else {slow_hi} + 1)"
                terms.append(_heads(lo, start, -stride))
        return clean, terms

    def _trip(self, shape: HangShape, it: str, bound: str) -> str:
        """Iterations left from iterator ``it`` against ``bound``, in
        exact arithmetic (not positive once the loop ends)."""
        if shape.step > 0:
            left, right, step = bound, it, shape.step
        else:
            left, right, step = it, bound, -shape.step
        extra = step - 1 + (shape.op in ("<=", ">="))
        span = f"{left} - {right}" + (f" + {extra}" if extra else "")
        return span if step == 1 else f"({span}) // {step}"

    def _guard(self, g: Guard) -> str:
        """``lo <= v <= hi``, leaving out a side at an int32 limit,
        which every int32 value meets."""
        lo = f"{self.const(g.lo)} <= " if g.lo > INT32_MIN else ""
        hi = f" <= {self.const(g.hi)}" if g.hi < INT32_MAX else ""
        return f"{lo}{self.var(g.name)}{hi}"

    def _iteration_body(self, s: Stmt, ind: int) -> None:
        update = s.update if isinstance(s, For) else None
        self.block(s.body, ind, update)
        if update is not None:
            self.stmt(update, ind)

    def _verdict_head(self, shape: HangShape, ind: int) -> None:
        """``while True:`` with the hang-verdict check at its head.

        ``_q<id>`` is true from loop entry on a trial launch until the
        check has run once, which it does at the first iteration head
        where every hook the body calls has retired.
        """
        flag = f"_q{shape.loop_id}"
        self.used.add("hang_verdicts")
        self.emit(ind, f"{flag} = hang_verdicts")
        self.emit(ind, "while True:")
        test = " and ".join([flag] + self._retired(shape.calls))
        self.emit(ind + 1, f"if {test}:")
        self.emit(ind + 2, f"{flag} = False")
        loads = [
            f"({_seq([self.expr(load.ptr)] + [self._at_zero(n, shape.iter_var) for n in load.nodes])})"
            for load in shape.loads
        ]
        it, bound = self.var(shape.iter_var), self.expr(shape.bound)
        # a verdict is False when the budget covers every iteration
        # left and the condition test that ends the loop
        self.emit(ind + 2, f"if budget - steps <= max(0, {self._trip(shape, it, bound)}) "
                           f"* {shape.period} and _hang_verdict({self.bind(shape)}, ctx, "
                           f"steps, {it}, {bound}, ({_seq(loads) if loads else ''})):")
        self.emit(ind + 3, "steps = budget + 1")
        self.emit(ind + 3, "raise KernelHang()")

    def _at_zero(self, e: Expr, it: str) -> str:
        """``e`` at iterator value 0, with no int32 wrap where ``e`` reads
        the iterator; subtrees that do not are emitted as the body
        computes them."""
        if it not in names_read_expr(e):
            return self.expr(e)
        if isinstance(e, Var):
            return "0"
        if isinstance(e, UnOp):
            return f"(-{self._at_zero(e.operand, it)})"
        return f"({self._at_zero(e.left, it)} {e.op} {self._at_zero(e.right, it)})"

    def _shared_slot(self, array: str, index: Expr, what: str, ind: int) -> None:
        """Bind ``_t_arr``/``_t_idx`` to a bounds-checked shared slot."""
        self.emit(ind, f"_t_arr = {self.ctx_local('shared')}[{array!r}]")
        self.emit(ind, f"_t_idx = {self.expr(index)}")
        self.emit(ind, "if not 0 <= _t_idx < len(_t_arr): "
                       f"_shared_oob({what!r}, {array!r}, _t_idx, ctx)")

    def _atomic(self, s: AtomicAdd, ind: int) -> None:
        self.tick(ind, self.cost(s), s.in_loop)
        if s.space == "shared":
            self._shared_slot(s.array, s.index, "atomic", ind)
            self.emit(ind, f"_t_val = _t_arr[_t_idx] + {self.expr(s.value)}")
            self.emit(ind, f"_t_arr[_t_idx] = {_wrap('_t_val')} "
                           "if isinstance(_t_val, int) else _t_val")
            return
        self.emit(ind, f"_t_addr = {self.expr(s.target)} + {self.expr(s.index)}")
        value = self.expr(s.value)
        if s.target.dtype.element is DType.FLOAT32:
            store, total = "store_f32", f"{self.ctx_local('load_f32')}(_t_addr) + {value}"
        else:
            store, total = "store_i32", _wrap(f"{self.ctx_local('load_i32')}(_t_addr) + {value}")
        self.emit(ind, f"{self.ctx_local(store)}(_t_addr, {total})")

    def _call(self, s: CallStmt, ind: int) -> None:
        if not self.in_thread:
            raise KIRError(f"call {s.func!r} outside a thread function")
        self.tick(ind, self.cost(s), s.in_loop)
        args = [self.expr(a) for a in s.args]
        if not all(isinstance(a, (Const, Var, SpecialReg)) for a in s.args):
            # arguments evaluate (and may crash) before the handler binds,
            # and still do once it has retired
            for k, a in enumerate(args):
                self.emit(ind, f"_t_arg{k} = {a}")
            args = [f"_t_arg{k}" for k in range(len(args))]
        if self.pending is not None:
            return  # a fast iteration runs once the handler has retired
        # one local per hook name, bound on the call's first execution
        # and set to RETIRE for the rest of the thread when asked; in a
        # loop, one more per call statement, holding its last answer
        handler = self.hook_local(s.func)
        flag = self.call_flags.get(id(s))
        call = f"{handler}(ctx, _fv{''.join(', ' + a for a in args)})"
        if flag is None:
            self.emit(ind, f"if {handler} is not RETIRE:")
        else:
            self.emit(ind, f"if {handler} is not RETIRE and {flag} is not RETIRE_CALL:")
            call = f"({flag} := {call})"
        self.emit(ind + 1, "ctx.steps = steps")
        self.emit(ind + 1, f"if {handler} is None: {handler} = bind_hook({s.func!r})")
        # the handler sees the frame through _fv; reload after it writes
        self.emit(ind + 1, f"_fv.values = ({_seq(self.packed)})")
        self.emit(ind + 1, f"if {call} is RETIRE: {handler} = RETIRE")
        self.lines.append((ind + 1, list(self.packed)))

    def thread_function(self, kernel: Kernel) -> str:
        """Source of ``run_thread(fr, ctx)`` for ``kernel``."""
        params = {p.name for p in kernel.params}
        assigned = {d.name for d, _depth in defining_statements(kernel.body)}
        self.costs = {id(st): self._cost(st) for st, _depth in walk_stmts(kernel.body)}
        # grouped cycle sums are exact only for non-negative multiples of 1/8
        self.dyadic = all(c is None or (c >= 0 and float(c * 8).is_integer())
                          for c in self.costs.values())
        # assigned parameters are present from the start, so every hook
        # call packs them
        self.assigned(p.name for p in kernel.params if p.name in assigned)
        self.kernel_name = kernel.name
        self.block(kernel.body, 2, None)
        body, self.lines = self.lines, []
        # base names: the parameters and special registers the kernel
        # reads and never assigns, which stay current in fr
        base_names = [n for n in self.locals if n not in self.order]
        base = [self.locals[n] for n in base_names]
        self.emit(0, "def run_thread(fr, ctx):")
        for name in ("steps", "budget", "cycles", "loop_cycles"):
            self.emit(1, f"{name} = ctx.{name}")
        for name in _CTX_LOCALS:
            if name in self.used:
                self.emit(1, f"{name} = ctx.{name}")
        # KIR variables: read from fr, or UNSET until assigned
        read = [n for n in self.locals if n in params or n not in assigned]
        if len(read) == 1:
            self.emit(1, f"{self.locals[read[0]]} = fr[{read[0]!r}]")
        elif read:
            self.emit(1, f"{_seq([self.locals[n] for n in read])} = "
                         f"{self.bind(itemgetter(*read))}(fr)")
        unset = [local for n, local in self.locals.items() if n not in read]
        if unset:
            self.emit(1, f"{' = '.join(unset)} = UNSET")
        if self.hooks:
            index = dict.fromkeys(base_names, -1)
            index.update(self.order)
            self.emit(1, f"_fv = FrameView(fr, {self.bind(index)}, "
                         f"{self.bind(tuple(base_names))})")
            self.emit(1, "bind_hook = ctx.bind_hook")
        for func, handler in self.hooks.items():
            self.emit(1, f"{handler} = ctx.hooks.get({func!r})")
        self.emit(1, "try:")
        for line in body:
            if type(line) is tuple:  # a hook call's reload
                ind, packed = line
                if base or packed:
                    self.emit(ind, f"if _fv.written: {_seq(base + packed)} = _fv.reload()")
            else:
                self.lines.append(line)
        self.emit(1, "finally:")
        for name in ("steps", "cycles", "loop_cycles"):
            self.emit(2, f"ctx.{name} = {name}")
        # when the launch keeps frames, write back what the thread
        # assigned, then what a hook that raised wrote before its locals
        # were reloaded
        if self.order or self.hooks:
            self.emit(2, "if ctx.keep_frames:")
        if self.order:
            self.emit(3, f"_write_back(fr, {self.bind(tuple(self.order))}, "
                         f"({_seq(self.packed)}))")
        if self.hooks:
            self.emit(3, "if _fv.written: fr.update(_fv.written)")
        return "\n".join(self.lines) + "\n"


def _compile(source: str, what: str, mode: str):
    """``compile()`` ``source``, with CPython's nesting limits (blocks,
    indentation, parentheses, recursion) as a typed error."""
    try:
        return compile(source, f"<{what}>", mode)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        # a deep enough expression overflows the parser's stack, which
        # CPython reports as MemoryError
        raise KIRValidationError(f"{what} is nested too deeply to compile: "
                                 f"{str(exc) or type(exc).__name__}") from exc


def compile_expr(e: Expr) -> ExprFn:
    """``e`` as a function ``f(frame, ctx) -> value``."""
    em = _Emitter()
    code = _compile(f"lambda fr, ctx: {em.expr(e)}", "KIR expression", "eval")
    return eval(code, em.ns)


class CompiledKernel:
    """A kernel compiled to one Python function, reusable across launches.

    ``run_thread(frame, ctx)`` executes one thread to completion (or
    crash/hang); it is the generated function itself, so the grid loop
    calls it with no method dispatch.  ``source`` holds its text, and
    ``form_sources`` that of each loop's NumPy form by its name.
    """

    def __init__(self, kernel: Kernel, costmodel):
        if not kernel.validated:
            raise KIRValidationError("validate the kernel before compiling")
        if kernel.uses_sync:
            raise KIRValidationError(
                f"kernel {kernel.name} uses __syncthreads; use LockstepProgram"
            )
        self.kernel = kernel
        self.costmodel = costmodel
        em = _Emitter(costmodel, in_thread=True)
        self.source = em.thread_function(kernel)
        exec(_compile(self.source, f"kernel {kernel.name}", "exec"), em.ns)
        self.run_thread: Callable[[dict, ExecContext], None] = em.ns["run_thread"]
        self.form_sources = {form.name: form.source for form in em.ns.values()
                             if isinstance(form, _NumpyForm)}

    def run_thread_at(self, frame: dict, ctx: ExecContext, block: int,
                      thread: int) -> None:
        """Position ``ctx`` on (block, thread-in-block) and run the thread.

        Replay entry point: one faulted thread re-executed in isolation
        gets the same ``ctx.block``/``ctx.thread`` it had in the full
        grid, so FI gtid targeting and crash attribution are identical.
        """
        ctx.reset_thread(block, thread)
        self.run_thread(frame, ctx)


def compile_kernel(kernel: Kernel, costmodel=None) -> CompiledKernel:
    """Compile a validated kernel; uses the default GPU cost model."""
    if costmodel is None:
        from repro.gpu.costmodel import CostModel

        costmodel = CostModel()
    return CompiledKernel(kernel, costmodel)
