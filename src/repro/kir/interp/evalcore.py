"""Runtime semantics shared by both interpreters (compiled and lockstep).

Arithmetic follows C-on-GPU conventions from the paper:

* integers are 32-bit two's complement (wrapping);
* FP division by zero "does not lead to an exception but returns an
  infinite value" (Observation 1 discussion) — so ``fdiv`` yields
  +/-inf or NaN, never a Python exception;
* integer division by zero crashes the kernel (detected by the GPU
  runtime — a *failure*, not an SDC);
* ``sqrt``/``log`` of invalid inputs produce NaN, as on real FPUs.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.bits import wrap_i32
from repro.errors import KernelCrash

NAN = float("nan")
INF = float("inf")


# ---------------------------------------------------------------------------
# control-flow signals
# ---------------------------------------------------------------------------


class BreakSignal(Exception):
    """Raised by a lockstep ``break``; caught by the innermost loop."""


class ContinueSignal(Exception):
    """Raised by a lockstep ``continue``; caught by the loop body."""


class ReturnSignal(Exception):
    """Raised by a lockstep ``return``; ends the thread."""


# ---------------------------------------------------------------------------
# C-semantics arithmetic helpers
# ---------------------------------------------------------------------------


def fdiv(a: float, b: float) -> float:
    """IEEE float division: x/0 -> signed inf, 0/0 -> NaN."""
    if b == 0.0:
        if a == 0.0 or a != a:
            return NAN
        return INF if (a > 0.0) == (not _signbit(b)) else -INF
    try:
        return a / b
    except OverflowError:  # huge-int operand edge case
        return INF if (a > 0) == (b > 0) else -INF


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0


def idiv(a: int, b: int) -> int:
    """C integer division (truncation toward zero); /0 crashes."""
    if b == 0:
        raise KernelCrash("integer division by zero")
    q = abs(a) // abs(b)
    return wrap_i32(-q if (a < 0) != (b < 0) else q)


def imod(a: int, b: int) -> int:
    """C remainder: sign of the dividend; %0 crashes."""
    if b == 0:
        raise KernelCrash("integer modulo by zero")
    r = abs(a) % abs(b)
    return wrap_i32(-r if a < 0 else r)


def c_int_cast(x) -> int:
    """C-like float->int conversion: truncate; NaN -> 0; saturate inf."""
    if isinstance(x, int):
        return wrap_i32(x)
    if x != x:  # NaN (CUDA __float2int_rz returns 0)
        return 0
    if x >= 2147483648.0:
        return 2147483647
    if x <= -2147483649.0:
        return -2147483648
    return wrap_i32(int(x))


def truthy(x) -> bool:
    """C truth: non-zero is true (NaN is non-zero, hence true)."""
    return x != 0


def _safe_sqrt(x: float) -> float:
    if x != x or x < 0.0:
        return NAN
    if x == INF:
        return INF
    return math.sqrt(x)


def _safe_rsqrt(x: float) -> float:
    if x != x or x < 0.0:
        return NAN
    if x == 0.0:  # CUDA rsqrtf(-0) is -inf
        return math.copysign(INF, x)
    if x == INF:
        return 0.0
    return 1.0 / math.sqrt(x)


def _safe_exp(x: float) -> float:
    if x != x:
        return NAN
    try:
        return math.exp(x)
    except OverflowError:
        return INF


def _safe_log(x: float) -> float:
    if x != x or x < 0.0:
        return NAN
    if x == 0.0:
        return -INF
    if x == INF:
        return INF
    return math.log(x)


def _safe_acos(x: float) -> float:
    if x != x or x < -1.0 or x > 1.0:
        return NAN
    return math.acos(x)


def _safe_sin(x: float) -> float:
    if x != x or math.isinf(x):
        return NAN
    return math.sin(x)


def _safe_cos(x: float) -> float:
    if x != x or math.isinf(x):
        return NAN
    return math.cos(x)


def _safe_pow(a: float, b: float) -> float:
    """C99 Annex F ``powf``: poles and overflow give signed infinities."""
    try:
        return math.pow(a, b)
    except OverflowError:
        return -INF if a < 0.0 and b % 2 == 1 else INF
    except ValueError:
        if a == 0.0:  # pow(+-0, y < 0)
            return math.copysign(INF, a) if b % 2 == 1 else INF
        return NAN  # negative base, non-integer exponent


def _safe_floor(x: float) -> float:
    if x != x or math.isinf(x):
        return x
    return float(math.floor(x))


def _safe_atan2(a: float, b: float) -> float:
    if a != a or b != b:
        return NAN
    return math.atan2(a, b)


#: Intrinsic name -> Python callable on evaluated (float/int) args.
INTRINSIC_IMPL: Dict[str, Callable] = {
    "sqrt": _safe_sqrt,
    "rsqrt": _safe_rsqrt,
    "exp": _safe_exp,
    "log": _safe_log,
    "sin": _safe_sin,
    "cos": _safe_cos,
    "acos": _safe_acos,
    "atan2": _safe_atan2,
    "floor": _safe_floor,
    "fabs": lambda x: abs(float(x)),
    "pow": _safe_pow,
    "fmin": lambda a, b: NAN if (a != a or b != b) else min(float(a), float(b)),
    "fmax": lambda a, b: NAN if (a != a or b != b) else max(float(a), float(b)),
    "abs": lambda x: wrap_i32(abs(int(x))),
    "min": min,
    "max": max,
    "int": c_int_cast,
    "float": float,
}


# ---------------------------------------------------------------------------
# instrumentation-library protocol
# ---------------------------------------------------------------------------


class InstrumentationLibrary:
    """Base class for libraries bound at kernel launch (Figure 12).

    A ``CallStmt`` whose function name is ``__hauberk_<op>`` calls the
    method ``lib_<op>(ctx, frame, *args)``.  Arguments are evaluated
    values; string constants arrive as ``str`` (the FI library receives
    variable names this way so it can read and write the calling frame
    directly — the mutation-based injection of Section VII).

    The engines never look a handler up by name per call: each call
    name is resolved by :meth:`hook` once per launch, through
    :meth:`ExecContext.bind_hook`, and the bound method it gives back
    is called on every later execution.

    Counter contract: ``ctx.steps`` is current at every hook call (the
    thread's statement count, which ``ActivationRecord.at_step``
    records); ``ctx.cycles`` and ``ctx.loop_cycles`` are written back
    only when the thread ends, so a hook must not read them for the
    running thread; and a hook must not write any of the three, since
    the compiled engine keeps them in locals and overwrites ``ctx``
    when the thread ends.

    Frame contract: ``frame`` is the calling thread's frame, a mapping
    from KIR names (parameters, special registers such as
    ``"threadIdx.x"``, and variables) to their current values.  The
    lockstep interpreter passes its dict; the compiled engine passes a
    :class:`~repro.kir.interp.codegen.FrameView` over its locals, which
    behaves the same for what a hook may do:

    * ``name in frame`` is true exactly when the thread has assigned
      ``name`` so far, or it is a parameter or special register;
      leaving a variable's scope does not remove it (a loop-body
      variable is still present after its loop);
    * ``frame[name]`` reads the current value, and ``KeyError`` for an
      absent name; ``get``, ``keys``, ``items`` and iteration work too;
    * ``frame[name] = value`` writes, and the next KIR statement of the
      thread reads the new value; writing any name is allowed, a
      parameter or one the call does not mention included;
    * a hook that writes an int32 name writes an int in
      ``[-2**31, 2**31)``: the compiled engine relies on every int32
      value being in range (``docs/architecture.md``, "Int32
      arithmetic");
    * deleting a name is not supported, and the mapping is only valid
      for the duration of the call: read it then, do not keep it.

    Retire contract: a handler returns :data:`RETIRE` (any other
    return value is ignored) when every later call of the same call
    name in the running thread would be a no-op: it would write no
    frame slot, change no library state that can be observed, and
    raise nothing.  It returns :data:`RETIRE_CALL` when that holds
    for every later call *from the same call statement* in the
    running thread, while calls from other statements of that name
    may still act.  The compiled engine then stops calling that
    handler until the thread ends, from every statement or from that
    one; the call's step, budget check and cycle charge still run, and
    so does evaluating its arguments.  It keeps a call statement's
    answer only for statements inside a loop, the only ones that run
    more than once in a thread.  The next thread calls it again.  The
    lockstep interpreter ignores the return value and calls every
    hook, so each engine-parity test checks every ``RETIRE`` and
    ``RETIRE_CALL`` claim a library makes.
    """

    PREFIX = "__hauberk_"

    def hook(self, func: str) -> Optional[Callable]:
        """The bound ``lib_<op>`` handler of ``func``, or ``None``."""
        if not func.startswith(self.PREFIX):
            return None
        return getattr(self, "lib_" + func[len(self.PREFIX):], None)


#: Returned by a hook handler whose later calls in the running thread
#: are all no-ops (see :class:`InstrumentationLibrary`); compared by
#: identity.
RETIRE = object()
#: Returned by a hook handler whose later calls from the same call
#: statement in the running thread are all no-ops; compared by identity.
RETIRE_CALL = object()


def _no_hook(ctx: "ExecContext", frame: dict, *args) -> None:
    return None


class NullLibrary(InstrumentationLibrary):
    """Ignores every instrumentation call (original-binary behaviour)."""

    def hook(self, func: str) -> Optional[Callable]:
        return _no_hook


# ---------------------------------------------------------------------------
# execution context
# ---------------------------------------------------------------------------


class ExecContext:
    """Mutable per-launch execution state shared by all threads.

    One is built per grid launch, and one per differential replay
    engine, which keeps the same library objects for all its trials; so
    hook bindings never outlive the library they came from.

    Attributes of note:

    * ``memory`` — the installed :class:`~repro.memspace.MemorySpace`
      (normally the device :class:`~repro.gpu.memory.GlobalMemory`);
    * ``load_f32`` .. ``store_i32`` — the four accessors of that space,
      bound as instance attributes so the engines reach device memory
      in one attribute lookup (``ctx.load_f32``) instead of two
      (``ctx.memory.load_f32``), keeping the layered protocol off the
      hot path;
    * ``mem_f32`` / ``mem_i32`` / ``mem_limit`` / ``mem_slow`` /
      ``mem_slow_lo`` / ``mem_slow_hi`` — what the compiled engine needs
      to read a word inline, from the space's ``inline_loads`` (the
      contract is in :mod:`repro.gpu.memory`): a load of ``addr`` with
      ``0 <= addr < mem_limit`` and ``addr`` not in ``mem_slow`` reads
      the view, and any other load calls the accessor; every address of
      ``mem_slow`` is in ``[mem_slow_lo, mem_slow_hi]``;
    * ``lib`` — bound instrumentation library (FI / profiler / FT);
    * ``hooks`` — call name -> handler resolved from ``lib``, filled by
      :meth:`bind_hook` the first time each call executes;
    * ``block`` / ``thread`` — the running thread's block and its index
      in the block; ``block_size`` — threads per block of the launch, so
      ``block * block_size + thread`` is the global thread id;
    * ``budget`` — per-thread statement budget; the engines count each
      thread's statements against it inline and raise
      :class:`~repro.errors.KernelHang` on overrun (the watchdog);
    * ``cycles`` / ``loop_cycles`` — cost-model accounting used for
      Figure 4 and all of Figure 13;
    * ``hang_verdicts`` — set for a fault-injection trial launch: the
      compiled engine may then raise :class:`~repro.errors.KernelHang`
      at the head of a loop whose remaining run it can decide (see
      :func:`repro.kir.analysis.loops.hang_shape`) instead of running
      the budget out; ``hang_verdict`` is then that loop's id (else
      None);
    * ``keep_frames`` — whether the compiled engine writes a finished
      thread's locals back to its frame dict (on by default); a launch
      that drops each frame when its thread ends turns it off.
    """

    __slots__ = (
        "memory",
        "load_f32",
        "load_i32",
        "store_f32",
        "store_i32",
        "mem_f32",
        "mem_i32",
        "mem_limit",
        "mem_slow",
        "mem_slow_lo",
        "mem_slow_hi",
        "lib",
        "hooks",
        "budget",
        "steps",
        "max_steps",
        "cycles",
        "loop_cycles",
        "shared",
        "thread",
        "block",
        "block_size",
        "hang_verdicts",
        "hang_verdict",
        "keep_frames",
    )

    def __init__(
        self,
        memory,
        lib: Optional[InstrumentationLibrary] = None,
        budget: int = 2_000_000,
        block_size: int = 1,
        hang_verdicts: bool = False,
    ):
        self._bind_memory(memory)
        self.lib = lib if lib is not None else NullLibrary()
        self.hooks: Dict[str, Callable] = {}
        self.budget = budget
        self.steps = 0
        self.max_steps = 0
        self.cycles = 0.0
        self.loop_cycles = 0.0
        self.shared: Dict[str, List] = {}
        self.thread = -1
        self.block = -1
        self.block_size = block_size
        self.hang_verdicts = hang_verdicts
        self.hang_verdict: Optional[int] = None
        self.keep_frames = True

    def bind_hook(self, func: str) -> Callable:
        """Resolve ``func`` against ``lib`` and memoize it for this launch.

        Called on a call's first execution, so an unbound call in code
        that never runs does not crash the kernel.
        """
        fn = self.lib.hook(func)
        if fn is None:
            if not func.startswith(InstrumentationLibrary.PREFIX):
                raise KernelCrash(f"unbound library call {func}")
            raise KernelCrash(f"library has no handler for {func}")
        self.hooks[func] = fn
        return fn

    def reset_thread(self, block: int, thread: int) -> None:
        if self.steps > self.max_steps:
            self.max_steps = self.steps
        self.steps = 0
        self.thread = thread
        self.block = block

    def _bind_memory(self, memory) -> None:
        self.memory = memory
        self.load_f32 = memory.load_f32
        self.load_i32 = memory.load_i32
        self.store_f32 = memory.store_f32
        self.store_i32 = memory.store_i32
        (self.mem_f32, self.mem_i32, self.mem_limit, self.mem_slow,
         self.mem_slow_lo, self.mem_slow_hi) = memory.inline_loads

    def swap_memory(self, memory):
        """Install a different memory space; returns the old one.

        The compiled engine copies the bound ``ctx.load_f32`` (etc.)
        accessors and the inline-load views into locals when a thread
        starts, and this rebinds them all — so recording/guarded layers (footprint capture, the
        differential replay guard) slot in for one launch or one
        replayed thread without touching the zero-cost normal path.
        Swap between threads, never from inside a hook.
        """
        previous = self.memory
        self._bind_memory(memory)
        return previous
