"""Differential property: both interpreters agree on random kernels.

The closure compiler (fast path) and the lockstep generator interpreter
implement the same semantics twice; hypothesis-generated kernels must
produce identical frames and outputs through both, and hand a
recording instrumentation library the same call sequence.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gpu.device import Device
from repro.kir.astnodes import Assign, BinOp, CallStmt, Const, Decl, For, If, Var
from repro.kir.interp.compiler import CompiledKernel
from repro.kir.interp.evalcore import ExecContext, InstrumentationLibrary
from repro.kir.interp.lockstep import LockstepProgram
from repro.kir.types import DType
from repro.kir.validate import validate_kernel

from test_property_checksum import _KernelGen

#: Hook cost charged per recorded call, so hook accounting is compared too.
REC_COST = 3.0


class _Recorder(InstrumentationLibrary):
    def __init__(self):
        self.calls = []

    def lib_rec(self, ctx, frame, *args):
        # repr: NaN arguments compare equal
        self.calls.append((ctx.thread, repr(args)))


def _with_hooks(kernel):
    """Open the kernel and follow every definition with a recording
    call, and revalidate.

    Each call mixes constant arguments (a tag and the variable's name,
    as an FI hook passes them) with computed ones.
    """
    tags = iter(range(1_000_000))

    def instrument(stmts):
        out = []
        for s in stmts:
            out.append(s)
            if isinstance(s, For):
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


def _frames(kernel, device, n_threads, out_alloc, n, seedv):
    base = {
        "n": n,
        "seedv": seedv,
        "out": out_alloc.base,
        "gridDim.x": 1,
        "gridDim.y": 1,
        "blockDim.x": n_threads,
        "blockDim.y": 1,
        "blockIdx.x": 0,
        "blockIdx.y": 0,
        "threadIdx.y": 0,
    }
    frames = []
    for t in range(n_threads):
        fr = dict(base)
        fr["threadIdx.x"] = t
        frames.append(fr)
    return frames


@settings(max_examples=25, deadline=None)
@given(
    plan=st.lists(st.integers(min_value=0, max_value=1000), min_size=30, max_size=100),
    n_stmts=st.integers(min_value=1, max_value=5),
    n_value=st.integers(min_value=0, max_value=6),
    seed_value=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_compiler_and_lockstep_agree(plan, n_stmts, n_value, seed_value):
    kernel = _with_hooks(_KernelGen(plan).build(n_stmts))

    device_fast = Device()
    out_fast = device_fast.memory.alloc("out", 4, DType.FLOAT32)
    compiled = CompiledKernel(kernel, costmodel=_cm())
    rec_fast = _Recorder()
    ctx_fast = ExecContext(device_fast.memory, lib=rec_fast)
    frames_fast = _frames(kernel, device_fast, 2, out_fast, n_value, seed_value)
    for t, fr in enumerate(frames_fast):
        ctx_fast.reset_thread(0, t)
        compiled.run_thread(fr, ctx_fast)

    device_slow = Device()
    out_slow = device_slow.memory.alloc("out", 4, DType.FLOAT32)
    prog = LockstepProgram(kernel, costmodel=_cm())
    rec_slow = _Recorder()
    ctx_slow = ExecContext(device_slow.memory, lib=rec_slow)
    frames_slow = _frames(kernel, device_slow, 2, out_slow, n_value, seed_value)
    prog.run_block(frames_slow, ctx_slow)

    # identical output buffers (bitwise: both round through binary32)
    a = device_fast.memory.memcpy_dtoh(out_fast)
    b = device_slow.memory.memcpy_dtoh(out_slow)
    assert np.array_equal(a, b, equal_nan=True)
    # identical final register frames
    for fr_fast, fr_slow in zip(frames_fast, frames_slow):
        assert set(fr_fast) == set(fr_slow)
        for key, value in fr_fast.items():
            other = fr_slow[key]
            if isinstance(value, float) and value != value:
                assert other != other
            else:
                assert value == other, key
    # identical hook call sequence
    assert rec_fast.calls
    assert rec_fast.calls == rec_slow.calls
    # identical cycle accounting
    assert ctx_fast.cycles == ctx_slow.cycles
    assert ctx_fast.loop_cycles == ctx_slow.loop_cycles


def _cm():
    from repro.gpu.costmodel import CostModel

    cm = CostModel()
    cm.libcall_costs["__hauberk_rec"] = REC_COST
    return cm
