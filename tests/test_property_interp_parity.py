"""Differential property: both engines agree on random kernels.

The compiled scalar engine (generated Python source, the fast path)
and the lockstep generator interpreter implement the same semantics
twice.  Hypothesis-generated kernels -- straight-line code, ``for``,
``while``, ``break``/``continue`` under an ``if``, ``return``, and
int ``/`` and ``%`` by operands that can be zero, run under a small
statement budget so some of them hang -- must give identical frames,
output words, cycle and loop-cycle counts, exceptions, final step
counts, and hand a recording instrumentation library the same call
sequence at the same step counts, with the same frame at every call.
The recorder also overwrites a frame variable now and then, on a
schedule drawn from the generated plan, so the compiled engine's frame
view and its write-back are fuzzed against the lockstep dict.

The same kernels, passed through ``instrument_for_fi`` with a random
``FaultSpec`` armed, check the retire contract: the compiled engine
stops calling ``__hauberk_fi`` in a thread once the FI library returns
``RETIRE``, lockstep keeps calling it, and the two must still agree on
all of the above plus every ``ActivationRecord`` field.

Tier-1 runs a few dozen examples.  The ``engine-fuzz`` hypothesis
profile (``tests/conftest.py``) runs twenty thousand::

    PYTHONPATH=src python -m pytest tests/test_property_interp_parity.py \\
        --hypothesis-profile engine-fuzz
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.program import CombinedLibrary
from repro.gpu.device import Device
from repro.kir.astnodes import (
    Assign, BinOp, Break, CallStmt, Const, Continue, Decl, For, If, Kernel,
    KernelParam, Return, Store, Var, While,
)
from repro.kir.analysis.dataflow import collect_sites
from repro.kir.interp.codegen import CompiledKernel
from repro.kir.interp.evalcore import ExecContext, InstrumentationLibrary
from repro.kir.interp.lockstep import LockstepProgram
from repro.kir.types import DType
from repro.kir.validate import validate_kernel
from repro.swifi.faultmodel import FaultSpec
from repro.swifi.injector import FaultInjectionLibrary, instrument_for_fi

from test_property_checksum import _KernelGen, _flat

#: Hook cost charged per recorded call, so hook accounting is compared too.
REC_COST = 3.0
N_THREADS = 2
#: Blocks of the fault-injection launches (one block elsewhere).
FI_BLOCKS = 2
#: Examples per tier-1 run; the ``engine-fuzz`` profile replaces it.
TIER1_EXAMPLES = 40


def _fuzz_settings():
    long_run = settings.get_profile("engine-fuzz")
    if settings.default is long_run:
        return settings(long_run)
    return settings(max_examples=TIER1_EXAMPLES, deadline=None)


class _Recorder(InstrumentationLibrary):
    """Records every call with the frame it is handed.  On a schedule
    drawn from the generated plan it also overwrites one variable of
    that frame, so the engines must agree on hook writes too."""

    def __init__(self, plan=None):
        self.calls = []
        self.every = 2 + plan[0] % 5 if plan else 0
        self.pick = plan[1] if plan else 0

    def lib_rec(self, ctx, frame, *args):
        # repr: NaN arguments and values compare equal
        items = sorted((k, repr(v)) for k, v in frame.items())
        self.calls.append((ctx.thread, ctx.steps, repr(args), items))
        if self.every and len(self.calls) % self.every == 0:
            name = items[(self.pick + len(self.calls)) % len(items)][0]
            value = frame[name]
            frame[name] = value ^ 1 if isinstance(value, int) else value + 1.0


class _ControlFlowGen(_KernelGen):
    """``_KernelGen`` plus the control flow the engines compile apart:
    ``while`` loops whose increment a ``continue`` may skip (so they can
    hang), ``break``/``continue`` under an ``if`` in loop bodies,
    ``return``, and int ``/``/``%`` whose divisor can be zero."""

    def __init__(self, plan):
        super().__init__(plan)
        self.loop_depth = 0

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
        # n is 0..6, so n - k is zero, negative or positive
        divisor = BinOp("-", Var("n"), Const(self._next() % 5))
        op = ("/", "%")[self._next() % 2]
        name = self.fresh("iv")
        stmt = Decl(name, DType.INT32, BinOp(op, self.int_expr_simple(), divisor))
        self.int_vars.append(name)
        return stmt

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
    observable; ``fi`` is a fresh armed FI library, or None."""
    device = Device()
    out = device.memory.alloc("out", 4, DType.FLOAT32)
    rec = _Recorder(plan)
    lib = rec if fi is None else CombinedLibrary([rec, fi])
    ctx = ExecContext(device.memory, lib=lib, budget=budget, block_size=N_THREADS)
    frames = []
    error = None
    try:
        if engine == "lockstep":
            prog = LockstepProgram(kernel, costmodel=_cm())
        else:
            compiled = CompiledKernel(kernel, costmodel=_cm())
        for b in range(n_blocks):
            ctx.block = b
            block_frames = _frames(out, n, seedv, b, n_blocks)
            frames.extend(block_frames)
            if engine == "lockstep":
                prog.run_block(block_frames, ctx)
                continue
            for t, fr in enumerate(block_frames):
                ctx.reset_thread(b, t)
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
                device.memory.memcpy_dtoh(out).view(np.uint32).tolist()],
    }
    if fi is not None:
        act = fi.activation
        seen["activation"] = None if act is None else {
            k: repr(v) if isinstance(v, float) else v
            for k, v in dataclasses.asdict(act).items()}
        seen["counters"] = dict(fi.state.counters)
    return seen


def _assert_engines_agree(kernel, n, seedv, budget=2_000_000, make_fi=None, n_blocks=1,
                          plan=None):
    """``make_fi`` builds a fresh FI library per engine, or is None;
    ``plan`` schedules the recorder's frame writes (None: no writes)."""
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
    _assert_engines_agree(kernel, n_value, seed_value, budget, plan=plan)


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
    _assert_engines_agree(instrument_for_fi(kernel), n_value, seed_value, budget,
                          make_fi=lambda: FaultInjectionLibrary(kernel, spec),
                          n_blocks=FI_BLOCKS, plan=plan)


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
