"""Differential property: both engines agree on random kernels.

The compiled scalar engine (generated Python source, the fast path)
and the lockstep generator interpreter implement the same semantics
twice.  Hypothesis-generated kernels -- straight-line code, ``for``,
``while``, ``break``/``continue`` under an ``if``, ``return``, int
``/`` and ``%`` by operands that can be zero, and float ``/`` by a
divisor that can be zero and ``sqrt`` of a negative, run under a small
statement budget so some of them hang -- must give identical frames,
output words, cycle and loop-cycle counts, exceptions, final step
counts, and hand a recording instrumentation library the same call
sequence at the same step counts, with the same frame at every call.
The recorder also overwrites a frame variable now and then, on a
schedule drawn from the generated plan, so the compiled engine's frame
view and its write-back are fuzzed against the lockstep dict, and it
retires in a thread after a drawn number of calls, and each of its call
statements after a drawn number of that statement's calls
(``RETIRE_CALL``), so loops whose hook calls have all retired, by name
or by statement, run fast iterations (no per-statement bookkeeping).
Generated kernels also load from device memory a few words from its
end, so inline loads, out-of-bounds crashes and crashes inside a fast
iteration are fuzzed too; hypothesis's statistics report the share of
examples that ran a fast iteration.

The same kernels, passed through ``instrument_for_fi`` with a random
``FaultSpec`` armed, check the retire contract: the compiled engine
stops calling ``__hauberk_fi`` in a thread once the FI library returns
``RETIRE``, and from one call statement once it returns
``RETIRE_CALL`` there, lockstep keeps calling it, and the two must
still agree on all of the above plus every ``ActivationRecord`` field.

Another resumes a generated kernel's thread at a random head of a
top-level loop, through the loop's resume entry, with the state
``record_thread`` reported there (counters, locals, the recorder's
per-statement answers, the frame and device memory), and compares its
end with the run from the first statement.

A third property checks hang verdicts: on generated ``for`` loops with
affine loads, under small budgets and FI strikes on the bound or the
iterator, and with the recorder's calls retiring by name and by
statement, a launch with ``hang_verdicts`` set and one without must end
alike (exception, steps, activation, FI counters, recorder calls), and
match in every observable when no verdict fires.

Tier-1 runs a few dozen examples.  The ``engine-fuzz`` hypothesis
profile (``tests/conftest.py``) runs twenty thousand::

    PYTHONPATH=src python -m pytest tests/test_property_interp_parity.py \\
        --hypothesis-profile engine-fuzz
"""

import dataclasses

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

from repro.core.program import CombinedLibrary
from repro.gpu.memory import GlobalMemory
from repro.kir.astnodes import (
    Assign, BinOp, Break, Call, CallStmt, Const, Continue, Decl, For, If, Kernel,
    KernelParam, Load, Return, Store, Var, While,
)
from repro.kir.analysis.dataflow import collect_sites
from repro.kir.interp.codegen import CompiledKernel
from repro.kir.interp.evalcore import RETIRE, RETIRE_CALL, ExecContext, InstrumentationLibrary
from repro.kir.interp.lockstep import LockstepProgram
from repro.kir.types import DType
from repro.kir.validate import validate_kernel
from repro.swifi.faultmodel import FaultSpec
from repro.swifi.injector import FaultInjectionLibrary, instrument_for_fi

from test_fast_iterations import FastCounter
from test_property_checksum import _KernelGen, _flat

#: Hook cost charged per recorded call, so hook accounting is compared too.
REC_COST = 3.0
N_THREADS = 2
#: Blocks of the fault-injection launches (one block elsewhere).
FI_BLOCKS = 2
#: Examples per tier-1 run; the ``engine-fuzz`` profile replaces it.
TIER1_EXAMPLES = 40
#: Device words of the generated kernels' launches: ``out`` (4 words at
#: address 0) and the rest of a memory whose end generated loads reach.
GEN_CAPACITY = 12


def _fuzz_settings():
    long_run = settings.get_profile("engine-fuzz")
    if settings.default is long_run:
        return settings(long_run)
    return settings(max_examples=TIER1_EXAMPLES, deadline=None)


class _Recorder(InstrumentationLibrary):
    """Records every call with the frame it is handed.  On a schedule
    drawn from the generated plan it also overwrites one variable of
    that frame, so the engines must agree on hook writes too.

    After ``live`` calls in a thread (never, for None) it returns
    RETIRE and ignores that thread's later calls, as the retire
    contract asks: the compiled engine stops calling it, lockstep keeps
    calling it, and both record the same.  ``schedule`` does the same
    per call statement (told apart by its first two arguments): the
    statement tagged ``t`` answers ``RETIRE_CALL`` after
    ``schedule[t % len(schedule)]`` calls in a thread (never, for 0),
    and the recorder ignores its later calls."""

    def __init__(self, plan=None, live=None, schedule=()):
        self.calls = []
        self.every = 2 + plan[0] % 5 if plan else 0
        self.pick = plan[1] if plan else 0
        self.live = live
        self.schedule = schedule
        self.per_thread = {}
        self.per_call = {}

    def lib_rec(self, ctx, frame, *args):
        key = (ctx.block, ctx.thread)
        if self.live is not None and self.per_thread.get(key, 0) >= self.live:
            return RETIRE
        call = (*key, args[0], args[1])
        made = self.per_call.get(call, 0)
        limit = self.schedule[args[0] % len(self.schedule)] if self.schedule else 0
        if limit and made >= limit:
            return RETIRE_CALL
        self.per_call[call] = made + 1
        self.per_thread[key] = self.per_thread.get(key, 0) + 1
        # repr: NaN arguments and values compare equal
        items = sorted((k, repr(v)) for k, v in frame.items())
        self.calls.append((ctx.thread, ctx.steps, repr(args), items))
        if self.every and len(self.calls) % self.every == 0:
            name = items[(self.pick + len(self.calls)) % len(items)][0]
            value = frame[name]
            frame[name] = value ^ 1 if isinstance(value, int) else value + 1.0
        if self.live is not None and self.per_thread[key] >= self.live:
            return RETIRE
        if limit and made + 1 >= limit:
            return RETIRE_CALL
        return None


class _ControlFlowGen(_KernelGen):
    """``_KernelGen`` plus the control flow the engines compile apart:
    ``while`` loops whose increment a ``continue`` may skip (so they can
    hang), ``break``/``continue`` under an ``if`` in loop bodies,
    ``return``, int ``/``/``%`` whose divisor can be zero, float ``/``
    and ``sqrt``, whose inline fast paths hand zero divisors and
    negative operands to their helpers, and float and int loads at a
    variable plus an offset, which reach the end of device memory
    (``GEN_CAPACITY``) when the variable is a loop iterator."""

    def __init__(self, plan):
        super().__init__(plan)
        self.loop_depth = 0

    def params(self):
        # ``ints`` aliases ``out``: int loads read the same words
        return super().params() + [KernelParam("ints", DType.PTR_INT32)]

    def float_expr(self):
        if self._next() % 6 == 0:
            return self.load("out")
        return super().float_expr()

    def int_expr(self):
        if self._next() % 8 == 0:
            return self.load("ints")
        return super().int_expr()

    def load(self, ptr):
        var = Var(self.int_vars[-1 - self._next() % len(self.int_vars)])
        return Load(Var(ptr), BinOp("+", var, Const(self._next() % GEN_CAPACITY)))

    def statement(self, depth):
        kind = self._next() % 12
        if kind in (6, 7) and depth < 2:
            return self.loop(depth, use_while=kind == 7)
        if kind == 8:
            return self.divmod_decl()
        if kind in (9, 10) and self.loop_depth:
            exit_stmt = Break() if self._next() % 2 else Continue()
            return If(cond=self.int_compare(), then=[exit_stmt], els=[])
        if kind == 11 and self._next() % 3 == 0:
            return If(cond=self.int_compare(), then=[Return()], els=[])
        return super().statement(depth)

    def int_compare(self):
        op = ("<", "==", "!=")[self._next() % 3]
        return BinOp(op, self.int_expr_simple(), self.int_expr_simple())

    def divmod_decl(self):
        if self._next() % 3 == 0:
            return self.float_quotient_decl()
        # n is 0..6, so n - k is zero, negative or positive
        divisor = BinOp("-", Var("n"), Const(self._next() % 5))
        op = ("/", "%")[self._next() % 2]
        name = self.fresh("iv")
        stmt = Decl(name, DType.INT32, BinOp(op, self.int_expr_simple(), divisor))
        self.int_vars.append(name)
        return stmt

    def float_quotient_decl(self):
        # seedv - k is zero (of either sign) when seedv is k
        value = self.float_expr()
        if self._next() % 2:
            divisor = BinOp("-", Var("seedv"), Const(float(self._next() % 3)))
            value = BinOp("/", value, divisor)
        else:
            value = Call("sqrt", [value])
        name = self.fresh("fq")
        self.float_vars.append(name)
        return Decl(name, DType.FLOAT32, value)

    def loop(self, depth, use_while):
        it = self.fresh("it")
        cond = BinOp("<", Var(it), self.int_expr_simple())
        saved = (list(self.int_vars), list(self.float_vars))
        self.int_vars.append(it)
        self.loop_depth += 1
        body = _flat([self.statement(depth + 1) for _ in range(1 + self._next() % 3)])
        self.loop_depth -= 1
        self.int_vars, self.float_vars = saved
        step = Assign(it, BinOp("+", Var(it), Const(1)))
        if not use_while:
            return For(init=Decl(it, DType.INT32, Const(0)), cond=cond,
                       update=step, body=body)
        # a continue placed before the increment spins until the budget
        body.insert(self._next() % (len(body) + 1), step)
        return [Decl(it, DType.INT32, Const(0)), While(cond=cond, body=body)]


def _with_hooks(kernel):
    """Follow every entry and definition with a recording call, and
    revalidate.

    Each call mixes constant arguments (a tag and the variable's name,
    as an FI hook passes them) with computed ones.
    """
    tags = iter(range(1_000_000))

    def instrument(stmts):
        out = []
        for s in stmts:
            out.append(s)
            if isinstance(s, (For, While)):
                s.body = instrument(s.body)
            elif isinstance(s, If):
                s.then = instrument(s.then)
                s.els = instrument(s.els)
            elif isinstance(s, (Decl, Assign)):
                tag = next(tags)
                out.append(CallStmt(func="__hauberk_rec", args=[
                    Const(tag), Const(s.name), Var(s.name),
                    BinOp("+", Var("n"), Const(tag)),
                ]))
        return out

    entry = CallStmt(func="__hauberk_rec", args=[Var("n"), Const(-1), Var("seedv")])
    kernel.body = [entry] + instrument(kernel.body)
    return validate_kernel(kernel)


def _frames(out_alloc, n, seedv, block=0, n_blocks=1):
    base = {
        "n": n,
        "seedv": seedv,
        "out": out_alloc.base,
        "ints": out_alloc.base,
        "gridDim.x": n_blocks,
        "gridDim.y": 1,
        "blockDim.x": N_THREADS,
        "blockDim.y": 1,
        "blockIdx.x": block,
        "blockIdx.y": 0,
        "threadIdx.y": 0,
    }
    frames = []
    for t in range(N_THREADS):
        fr = dict(base)
        fr["threadIdx.x"] = t
        frames.append(fr)
    return frames


def _canonical_nan(word):
    """``word``, with every float32 NaN pattern replaced by one.

    A bit-flip fault can make both a positive and a negative NaN in one
    thread, and for a float ``+``/``*`` of two NaNs CPython 3.11 returns
    a different operand's NaN once the instruction is specialized, so
    the sign of such a result depends on how warm a code object is, not
    on the engine's semantics.
    """
    if word & 0x7F800000 == 0x7F800000 and word & 0x007FFFFF:
        return 0x7FC00000
    return word


def _observe(kernel, engine, n, seedv, budget, plan, fi=None, n_blocks=1):
    """Run ``n_blocks`` blocks of ``kernel`` and return everything
    observable; ``fi`` is a fresh armed FI library, or None.  The
    compiled run also reports its completed fast iterations."""
    memory = GlobalMemory(GEN_CAPACITY)
    out = memory.alloc("out", 4, DType.FLOAT32)
    rec = _Recorder(plan, (plan[2] % 8 or None) if plan else None,
                    tuple(v % 4 for v in plan[3:6]) if plan else ())
    lib = rec if fi is None else CombinedLibrary([rec, fi])
    ctx = ExecContext(memory, lib=lib, budget=budget, block_size=N_THREADS)
    frames = []
    error = None
    counter = None
    try:
        if engine == "lockstep":
            prog = LockstepProgram(kernel, costmodel=_cm())
        else:
            compiled = CompiledKernel(kernel, costmodel=_cm())
            counter = FastCounter(compiled)
        for b in range(n_blocks):
            ctx.block = b
            block_frames = _frames(out, n, seedv, b, n_blocks)
            frames.extend(block_frames)
            if engine == "lockstep":
                prog.run_block(block_frames, ctx)
                continue
            for t, fr in enumerate(block_frames):
                ctx.reset_thread(b, t)
                with counter:
                    compiled.run_thread(fr, ctx)
    except Exception as exc:  # every failure must match, typed or not
        error = (type(exc).__name__, str(exc))
    seen = {
        "error": error,
        "steps": ctx.steps,
        "cycles": ctx.cycles,
        "loop_cycles": ctx.loop_cycles,
        "calls": rec.calls,
        # repr: NaN compares equal, -0.0 differs from 0.0
        "frames": [sorted((k, repr(v)) for k, v in fr.items()) for fr in frames],
        "out": [_canonical_nan(w) for w in
                memory.memcpy_dtoh(out).view(np.uint32).tolist()],
    }
    if fi is not None:
        act = fi.activation
        seen["activation"] = None if act is None else {
            k: repr(v) if isinstance(v, float) else v
            for k, v in dataclasses.asdict(act).items()}
        seen["counters"] = dict(fi.state.counters)
    if counter is not None:
        seen["fast"] = counter.count
    return seen


def _assert_engines_agree(kernel, n, seedv, budget=2_000_000, make_fi=None, n_blocks=1,
                          plan=None):
    """``make_fi`` builds a fresh FI library per engine, or is None;
    ``plan`` schedules the recorder's frame writes and retirement
    (None: neither).  Returns the compiled run's observations, with its
    completed fast iterations under ``"fast"``."""
    fast = _observe(kernel, "codegen", n, seedv, budget, plan, make_fi and make_fi(),
                    n_blocks)
    slow = _observe(kernel, "lockstep", n, seedv, budget, plan, make_fi and make_fi(),
                    n_blocks)
    assert fast["calls"]
    for key in slow:
        assert fast[key] == slow[key], key
    return fast


@_fuzz_settings()
@given(
    plan=st.lists(st.integers(min_value=0, max_value=1000), min_size=30, max_size=120),
    n_stmts=st.integers(min_value=1, max_value=5),
    n_value=st.integers(min_value=0, max_value=6),
    seed_value=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    budget=st.integers(min_value=10, max_value=400),
)
def test_compiler_and_lockstep_agree(plan, n_stmts, n_value, seed_value, budget):
    kernel = _with_hooks(_ControlFlowGen(plan).build(n_stmts))
    seen = _assert_engines_agree(kernel, n_value, seed_value, budget, plan=plan)
    event("fast iteration" if seen["fast"] else "no fast iteration")


@_fuzz_settings()
@given(
    plan=st.lists(st.integers(min_value=0, max_value=1000), min_size=30, max_size=120),
    n_stmts=st.integers(min_value=1, max_value=5),
    n_value=st.integers(min_value=0, max_value=6),
    seed_value=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    budget=st.integers(min_value=10, max_value=400),
    site_pick=st.integers(min_value=0, max_value=10_000),
    timing=st.sampled_from(["definition", "delayed"]),
    occurrence=st.integers(min_value=1, max_value=8),
    burst=st.integers(min_value=1, max_value=3),
    victim=st.integers(min_value=0, max_value=FI_BLOCKS * N_THREADS - 1),
    bit=st.integers(min_value=0, max_value=31),
)
def test_fi_spec_retire_agrees_with_lockstep(plan, n_stmts, n_value, seed_value, budget,
                                             site_pick, timing, occurrence, burst,
                                             victim, bit):
    # recording calls as in the test above, then an FI hook after every
    # definition; the recorder's step counts show retired FI calls
    # still charge their statement
    kernel = _with_hooks(_ControlFlowGen(plan).build(n_stmts))
    sites = collect_sites(kernel)
    spec = FaultSpec(site=sites[site_pick % len(sites)].site, mask=1 << bit,
                     thread=victim, occurrence=occurrence, burst=burst, timing=timing)
    seen = _assert_engines_agree(instrument_for_fi(kernel), n_value, seed_value, budget,
                                 make_fi=lambda: FaultInjectionLibrary(kernel, spec),
                                 n_blocks=FI_BLOCKS, plan=plan)
    event("fast iteration" if seen["fast"] else "no fast iteration")


def _resume_run(compiled, t, n, seedv, budget, plan, at=None):
    """Thread ``t`` of a generated kernel on the compiled engine: from
    its first statement through ``record_thread``, keeping every
    top-level loop head's state (the thread's, its frame's, memory's
    and the recorder's), or resumed at one such head ``at``.  Returns
    (observations, heads)."""
    memory = GlobalMemory(GEN_CAPACITY)
    out = memory.alloc("out", 4, DType.FLOAT32)
    schedule = tuple(v % 4 for v in plan[3:6])
    rec = _Recorder(plan, None, schedule)
    ctx = ExecContext(memory, lib=rec, budget=budget, block_size=N_THREADS)
    fr = _frames(out, n, seedv)[t]
    heads = []

    def head(j, steps, cycles, loop_cycles, values):
        # a tagged call statement's last answer: RETIRE_CALL once it
        # reached its limit (the entry call passes no name)
        limits = {(tag, made >= schedule[tag % len(schedule)])
                  for (_b, _t, tag, name), made in rec.per_call.items()
                  if type(name) is str and schedule and schedule[tag % len(schedule)]}
        answers = tuple(RETIRE_CALL if (tag, True) in limits else None
                        for _func, tag in compiled.entries[j].calls)
        heads.append((j, (steps, cycles, loop_cycles, values, answers), dict(fr),
                      memory.snapshot(), list(rec.calls), dict(rec.per_call),
                      dict(rec.per_thread)))

    ctx.reset_thread(0, t)
    error = None
    try:
        if at is None:
            compiled.record_thread(fr, ctx, head)
        else:
            j, state, frame, words, calls, per_call, per_thread = at
            fr = dict(frame)
            memory.restore(words)
            rec.calls, rec.per_call, rec.per_thread = list(calls), dict(per_call), dict(per_thread)
            ctx.resume_at, ctx.resume = j, state
            compiled.run_thread(fr, ctx)
    except Exception as exc:  # every failure must match, typed or not
        error = (type(exc).__name__, str(exc))
    seen = {
        "error": error, "steps": ctx.steps, "cycles": ctx.cycles,
        "loop_cycles": ctx.loop_cycles, "calls": rec.calls,
        "frame": sorted((k, repr(v)) for k, v in fr.items()),
        "out": [_canonical_nan(w) for w in memory.memcpy_dtoh(out).view(np.uint32).tolist()],
    }
    return seen, heads


@_fuzz_settings()
@given(
    plan=st.lists(st.integers(min_value=0, max_value=1000), min_size=30, max_size=120),
    n_stmts=st.integers(min_value=1, max_value=5),
    n_value=st.integers(min_value=0, max_value=6),
    seed_value=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    budget=st.integers(min_value=10, max_value=400),
    thread=st.integers(min_value=0, max_value=N_THREADS - 1),
    head_pick=st.integers(min_value=0, max_value=1000),
)
def test_thread_resumed_at_a_loop_head_agrees_with_its_full_run(
        plan, n_stmts, n_value, seed_value, budget, thread, head_pick):
    """A generated kernel's thread resumed at any head of a top-level
    loop, with its counters, locals and call answers bound by the
    loop's resume entry, ends as its run from the first statement does:
    same exception, steps, cycles, frame, output words and recorded
    calls (the recorder writes frames and retires per statement)."""
    kernel = _with_hooks(_ControlFlowGen(plan).build(n_stmts))
    compiled = CompiledKernel(kernel, costmodel=_cm())
    if not compiled.entries:
        event("no top-level loop")
        return
    full, heads = _resume_run(compiled, thread, n_value, seed_value, budget, plan)
    if not heads:
        event("no loop head reached")
        return
    at = heads[head_pick % len(heads)]
    event(f"resumed at top-level loop {at[0]}")
    resumed, _ = _resume_run(compiled, thread, n_value, seed_value, budget, plan, at)
    for key in full:
        assert resumed[key] == full[key], key


#: Device words of the hang-verdict launches: loads at a base near 0
#: or near the end leave memory within a few iterations.
VERDICT_CAPACITY = 96
#: Bases the verdict loops add to every load index; three put the
#: first iterations' loads outside memory.
VERDICT_BASES = (0, 5, VERDICT_CAPACITY - 6, VERDICT_CAPACITY + 2, -5)


def _verdict_loop(start, step, op, loads, extras):
    """A kernel whose one loop has a hang shape: ``acc`` sums affine
    loads ``src[coef * i + base + offset]`` (``base - coef * i + offset``
    when ``minus``), plus the ``extras`` forms, then stores it."""
    it = "i"
    body = []
    for k, (coef, offset, minus) in enumerate(loads):
        scaled = BinOp("*", Const(coef), Var(it)) if k % 2 else BinOp("*", Var(it), Const(coef))
        index = BinOp("-" if minus else "+", Var("base"), scaled)
        body.append(Decl(f"x{k}", DType.FLOAT32,
                         Load(Var("src"), BinOp("+", index, Const(offset)))))
        body.append(Assign("acc", BinOp("+", Var("acc"),
                                        BinOp("*", Var(f"x{k}"), Var("seedv")))))
    for k, form in enumerate(extras):
        dtype, value = (
            (DType.FLOAT32, BinOp("/", Var("acc"), BinOp("+", Var("x0"), Const(0.5)))),
            (DType.FLOAT32, Call("sqrt", [BinOp("*", Var("x0"), Var("seedv"))])),
            (DType.INT32, BinOp("/", Var(it), Const(3))),
            (DType.INT32, BinOp("%", Var(it), Const(5))),
        )[form]
        body.append(Decl(f"e{k}", dtype, value))
    loop = For(init=Decl(it, DType.INT32, Const(start)),
               cond=BinOp(op, Var(it), Var("n")),
               update=Assign(it, BinOp("+", Var(it), Const(step))), body=body)
    kernel = Kernel(name="verdict", params=[
        KernelParam("n", DType.INT32),
        KernelParam("seedv", DType.FLOAT32),
        KernelParam("out", DType.PTR_FLOAT32),
        KernelParam("base", DType.INT32),
        KernelParam("src", DType.PTR_FLOAT32),
    ], body=[Decl("acc", DType.FLOAT32, Const(0.0)), loop,
             Store(ptr=Var("out"), index=Const(0), value=Var("acc"))])
    return _with_hooks(validate_kernel(kernel))


def _observe_verdict(kernel, verdicts, args, budget, plan, live, schedule, fi,
                     engine="codegen"):
    """Run ``FI_BLOCKS`` blocks of ``kernel`` on ``engine`` (compiled
    with or without hang verdicts, or lockstep) and return what a trial
    can observe."""
    memory = GlobalMemory(VERDICT_CAPACITY)
    src = memory.alloc("src", 64, DType.FLOAT32)
    out = memory.alloc("out", 4, DType.FLOAT32)
    memory.memcpy_htod(src, np.linspace(-2.0, 3.0, 64))
    rec = _Recorder(plan, live, tuple(schedule))
    ctx = ExecContext(memory, lib=CombinedLibrary([rec, fi]), budget=budget,
                      block_size=N_THREADS, hang_verdicts=verdicts)
    if engine == "lockstep":
        prog = LockstepProgram(kernel, costmodel=_cm())
    else:
        compiled = CompiledKernel(kernel, costmodel=_cm())
    frames = []
    error = None
    try:
        for b in range(FI_BLOCKS):
            block_frames = _frames(out, args["n"], args["seedv"], b, FI_BLOCKS)
            for fr in block_frames:
                fr.update(base=args["base"], src=src.base)
            frames.extend(block_frames)
            if engine == "lockstep":
                ctx.block = b
                prog.run_block(block_frames, ctx)
                continue
            for t, fr in enumerate(block_frames):
                ctx.reset_thread(b, t)
                compiled.run_thread(fr, ctx)
    except Exception as exc:  # every failure must match, typed or not
        error = (type(exc).__name__, str(exc))
    act = fi.activation
    return {
        "error": error,
        "steps": ctx.steps,
        "calls": rec.calls,
        "activation": None if act is None else {
            k: repr(v) if isinstance(v, float) else v
            for k, v in dataclasses.asdict(act).items()},
        "counters": dict(fi.state.counters),
        "verdict": ctx.hang_verdict,
        "cycles": (ctx.cycles, ctx.loop_cycles),
        "frames": [sorted((k, repr(v)) for k, v in fr.items()) for fr in frames],
        "out": [_canonical_nan(w) for w in
                memory.memcpy_dtoh(out).view(np.uint32).tolist()],
    }


@_fuzz_settings()
@given(
    start=st.integers(min_value=-4, max_value=8),
    step=st.integers(min_value=1, max_value=3),
    increasing=st.booleans(),
    inclusive=st.booleans(),
    loads=st.lists(st.tuples(st.integers(min_value=-3, max_value=3),
                             st.integers(min_value=-4, max_value=8), st.booleans()),
                   min_size=1, max_size=3),
    extras=st.lists(st.integers(min_value=0, max_value=3), max_size=3),
    n_value=st.integers(min_value=-3, max_value=14),
    base=st.sampled_from(VERDICT_BASES),
    seed_value=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    budget=st.integers(min_value=15, max_value=600),
    live=st.integers(min_value=1, max_value=6),
    schedule=st.lists(st.integers(min_value=0, max_value=3), max_size=3),
    plan=st.none() | st.lists(st.integers(min_value=0, max_value=1000),
                              min_size=2, max_size=2),
    target=st.sampled_from(["n", "i"]),
    site_pick=st.integers(min_value=0, max_value=10),
    timing=st.sampled_from(["definition", "delayed"]),
    occurrence=st.integers(min_value=1, max_value=8),
    victim=st.integers(min_value=0, max_value=FI_BLOCKS * N_THREADS - 1),
    bits=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=3),
)
# the iterator's update call is still live at the head of the second
# iteration, after the load's call retired: a counted run that starts
# there skips the strike that lockstep makes
@example(start=2, step=1, increasing=False, inclusive=False, loads=[(0, 0, False)],
         extras=[], n_value=0, base=0, seed_value=0.0, budget=30, live=1,
         schedule=[], plan=None, target="i", site_pick=1, timing="definition",
         occurrence=2, victim=0, bits=[0])
def test_hang_verdict_agrees_with_full_run(start, step, increasing, inclusive, loads,
                                           extras, n_value, base, seed_value, budget,
                                           live, schedule, plan, target, site_pick, timing,
                                           occurrence, victim, bits):
    op = ("<=" if inclusive else "<") if increasing else (">=" if inclusive else ">")
    kernel = _verdict_loop(start, step if increasing else -step, op, loads, extras)
    sites = [s for s in collect_sites(kernel) if s.name == target]
    mask = 0
    for bit in bits:
        mask |= 1 << bit
    spec = FaultSpec(site=sites[site_pick % len(sites)].site, mask=mask, thread=victim,
                     occurrence=occurrence, timing=timing)
    fi_kernel = instrument_for_fi(kernel)
    args = {"n": n_value, "base": base, "seedv": seed_value}
    fast = _observe_verdict(fi_kernel, True, args, budget, plan, live, schedule,
                            FaultInjectionLibrary(kernel, spec))
    full = _observe_verdict(fi_kernel, False, args, budget, plan, live, schedule,
                            FaultInjectionLibrary(kernel, spec))
    # the verdict-off run shares every loop gate with the verdict run,
    # so lockstep checks the gates themselves
    slow = _observe_verdict(fi_kernel, False, args, budget, plan, live, schedule,
                            FaultInjectionLibrary(kernel, spec), engine="lockstep")
    event("verdict" if fast["verdict"] is not None
          else f"no verdict, {fast['error'][0] if fast['error'] else 'no failure'}")
    assert full["verdict"] is None
    for key in full:
        assert full[key] == slow[key], key
    keys = ("error", "steps", "calls", "activation", "counters")
    if fast["verdict"] is None:
        keys = tuple(full)
    else:
        assert fast["error"] == ("KernelHang", "kernel hang: instruction budget exhausted")
    for key in keys:
        assert fast[key] == full[key], key


def _kernel(*body):
    kernel = Kernel(name="reg", params=[
        KernelParam("n", DType.INT32),
        KernelParam("seedv", DType.FLOAT32),
        KernelParam("out", DType.PTR_FLOAT32),
    ], body=list(body))
    return _with_hooks(validate_kernel(kernel))


class TestControlFlowRegressions:
    """Hand-minimized kernels for the paths the generator exercises."""

    def test_continue_runs_the_for_update(self):
        kernel = _kernel(
            Decl("acc", DType.FLOAT32, Const(0.0)),
            For(init=Decl("i", DType.INT32, Const(0)),
                cond=BinOp("<", Var("i"), Const(4)),
                update=Assign("i", BinOp("+", Var("i"), Const(1))),
                body=[If(cond=BinOp("==", Var("i"), Const(1)), then=[Continue()]),
                      Assign("acc", BinOp("+", Var("acc"), Var("seedv")))]),
            Store(ptr=Var("out"), index=Const(0), value=Var("acc")),
        )
        seen = _assert_engines_agree(kernel, 3, 1.5)
        assert seen["error"] is None
        assert np.array([seen["out"][0]], dtype=np.uint32).view(np.float32)[0] == 4.5

    def test_while_continue_before_increment_hangs_at_budget(self):
        kernel = _kernel(
            Decl("w", DType.INT32, Const(0)),
            While(cond=BinOp("<", Var("w"), Var("n")),
                  body=[If(cond=BinOp("<", Var("n"), Const(9)), then=[Continue()]),
                        Assign("w", BinOp("+", Var("w"), Const(1)))]),
        )
        seen = _assert_engines_agree(kernel, 2, 0.0, budget=50)
        assert seen["error"] == ("KernelHang", "kernel hang: instruction budget exhausted")
        # the unchecked continue takes the count to 51; the next loop
        # test is the checked step that fires
        assert seen["steps"] == 52

    def test_break_and_return_leave_the_nest(self):
        kernel = _kernel(
            For(init=Decl("i", DType.INT32, Const(0)),
                cond=BinOp("<", Var("i"), Const(5)),
                update=Assign("i", BinOp("+", Var("i"), Const(1))),
                body=[While(cond=Const(1), body=[Break()]),
                      If(cond=BinOp("==", Var("i"), Var("n")), then=[Return()])]),
            Store(ptr=Var("out"), index=Const(0), value=Const(1.0)),
        )
        assert _assert_engines_agree(kernel, 2, 0.0)["out"][0] == 0

    def test_int_division_by_zero_crashes_alike(self):
        kernel = _kernel(
            Decl("q", DType.INT32, BinOp("/", Const(-7), BinOp("-", Var("n"), Const(2)))),
            Decl("r", DType.INT32, BinOp("%", Const(-7), BinOp("-", Var("n"), Const(3)))),
        )
        assert _assert_engines_agree(kernel, 0, 0.0)["error"] is None
        assert _assert_engines_agree(kernel, 2, 0.0)["error"][0] == "KernelCrash"
        assert _assert_engines_agree(kernel, 3, 0.0)["error"][0] == "KernelCrash"


def _cm():
    from repro.gpu.costmodel import CostModel

    cm = CostModel()
    cm.libcall_costs["__hauberk_rec"] = REC_COST
    return cm
