"""Differential property: both engines agree on random kernels.

The compiled scalar engine (generated Python source, the fast path)
and the lockstep generator interpreter implement the same semantics
twice.  Hypothesis-generated kernels -- straight-line code, ``for``,
``while``, ``break``/``continue`` under an ``if``, ``return``, and
int ``/`` and ``%`` by operands that can be zero, run under a small
statement budget so some of them hang -- must give identical frames,
output words, cycle and loop-cycle counts, exceptions, final step
counts, and hand a recording instrumentation library the same call
sequence at the same step counts.

Tier-1 runs a few dozen examples.  The ``engine-fuzz`` hypothesis
profile (``tests/conftest.py``) runs twenty thousand::

    PYTHONPATH=src python -m pytest tests/test_property_interp_parity.py \\
        --hypothesis-profile engine-fuzz
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpu.device import Device
from repro.kir.astnodes import (
    Assign, BinOp, Break, CallStmt, Const, Continue, Decl, For, If, Kernel,
    KernelParam, Return, Store, Var, While,
)
from repro.kir.interp.codegen import CompiledKernel
from repro.kir.interp.evalcore import ExecContext, InstrumentationLibrary
from repro.kir.interp.lockstep import LockstepProgram
from repro.kir.types import DType
from repro.kir.validate import validate_kernel

from test_property_checksum import _KernelGen, _flat

#: Hook cost charged per recorded call, so hook accounting is compared too.
REC_COST = 3.0
N_THREADS = 2
#: Examples per tier-1 run; the ``engine-fuzz`` profile replaces it.
TIER1_EXAMPLES = 40


def _fuzz_settings():
    long_run = settings.get_profile("engine-fuzz")
    if settings.default is long_run:
        return settings(long_run)
    return settings(max_examples=TIER1_EXAMPLES, deadline=None)


class _Recorder(InstrumentationLibrary):
    def __init__(self):
        self.calls = []

    def lib_rec(self, ctx, frame, *args):
        # repr: NaN arguments compare equal
        self.calls.append((ctx.thread, ctx.steps, repr(args)))


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


def _frames(out_alloc, n, seedv):
    base = {
        "n": n,
        "seedv": seedv,
        "out": out_alloc.base,
        "gridDim.x": 1,
        "gridDim.y": 1,
        "blockDim.x": N_THREADS,
        "blockDim.y": 1,
        "blockIdx.x": 0,
        "blockIdx.y": 0,
        "threadIdx.y": 0,
    }
    frames = []
    for t in range(N_THREADS):
        fr = dict(base)
        fr["threadIdx.x"] = t
        frames.append(fr)
    return frames


def _observe(kernel, engine, n, seedv, budget):
    """Run one block of ``kernel`` and return everything observable."""
    device = Device()
    out = device.memory.alloc("out", 4, DType.FLOAT32)
    rec = _Recorder()
    ctx = ExecContext(device.memory, lib=rec, budget=budget)
    ctx.block = 0
    frames = _frames(out, n, seedv)
    error = None
    try:
        if engine == "lockstep":
            LockstepProgram(kernel, costmodel=_cm()).run_block(frames, ctx)
        else:
            compiled = CompiledKernel(kernel, costmodel=_cm())
            for t, fr in enumerate(frames):
                ctx.reset_thread(0, t)
                compiled.run_thread(fr, ctx)
    except Exception as exc:  # every failure must match, typed or not
        error = (type(exc).__name__, str(exc))
    return {
        "error": error,
        "steps": ctx.steps,
        "cycles": ctx.cycles,
        "loop_cycles": ctx.loop_cycles,
        "calls": rec.calls,
        # repr: NaN compares equal, -0.0 differs from 0.0
        "frames": [sorted((k, repr(v)) for k, v in fr.items()) for fr in frames],
        "out": device.memory.memcpy_dtoh(out).view(np.uint32).tolist(),
    }


def _assert_engines_agree(kernel, n, seedv, budget=2_000_000):
    fast = _observe(kernel, "codegen", n, seedv, budget)
    slow = _observe(kernel, "lockstep", n, seedv, budget)
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
    _assert_engines_agree(kernel, n_value, seed_value, budget)


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
