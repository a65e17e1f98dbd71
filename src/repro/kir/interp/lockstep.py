"""Generator-based lockstep interpreter for kernels with barriers.

Threads of a block run as coroutines that yield at ``__syncthreads``;
a round-robin scheduler advances every active thread to the next
barrier (or to completion) before any thread proceeds past it.  A
thread that exits early simply leaves the active set — matching the
semantics of modern CUDA barriers, which only wait on non-exited
threads — so a fault that diverts one thread around a barrier degrades
results rather than deadlocking the simulator (a real hang is still
modeled via the per-thread statement budget).

This path is several times slower than the compiled scalar engine
(:mod:`repro.kir.interp.codegen`), and is selected automatically only
for ``kernel.uses_sync`` kernels (TPACF's shared-memory histogram in
this repository).  Being the simplest engine, it is also the reference
the parity tests compare the compiled engine against
(``GPURuntime(engine="lockstep")`` forces it for every kernel); both
count steps, charge cycles and fire the watchdog identically.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.errors import KernelCrash, KernelHang, KIRValidationError
from repro.kir.astnodes import (
    Assign,
    AtomicAdd,
    Break,
    CallStmt,
    Continue,
    Decl,
    Expr,
    For,
    If,
    Kernel,
    Return,
    SharedStore,
    Stmt,
    Store,
    SyncThreads,
    While,
)
from repro.kir.interp.codegen import ExprFn, compile_expr, _converter
from repro.kir.interp.evalcore import (
    BreakSignal,
    ContinueSignal,
    ExecContext,
    ReturnSignal,
    truthy,
)
from repro.kir.types import DType
from repro.bits import wrap_i32


class LockstepProgram:
    """A kernel prepared for lockstep execution (exprs precompiled)."""

    def __init__(self, kernel: Kernel, costmodel=None):
        if not kernel.validated:
            raise KIRValidationError("validate the kernel before compiling")
        if costmodel is None:
            from repro.gpu.costmodel import CostModel

            costmodel = CostModel()
        self.kernel = kernel
        self.cm = costmodel
        self._efn: Dict[int, ExprFn] = {}
        self._ecost: Dict[int, float] = {}

    # -- expression cache ---------------------------------------------
    def _fn(self, e: Expr) -> ExprFn:
        f = self._efn.get(id(e))
        if f is None:
            f = compile_expr(e)
            self._efn[id(e)] = f
        return f

    def _cost(self, e: Expr) -> float:
        c = self._ecost.get(id(e))
        if c is None:
            c = self.cm.expr_cost(e)
            self._ecost[id(e)] = c
        return c

    # -- execution ------------------------------------------------------
    def run_block(self, frames: List[dict], ctx: ExecContext) -> None:
        """Run all threads of one block in lockstep until completion.

        Each resumed thread gets its own statement count back in
        ``ctx.steps`` (the watchdog count hooks read, as on the compiled
        path) and it is saved again when the thread parks or finishes.
        """
        gens = [self._thread_gen(fr, ctx) for fr in frames]
        steps = [0] * len(frames)
        active = list(range(len(frames)))
        while active:
            still: List[int] = []
            for t in active:
                ctx.reset_thread(ctx.block, t)  # folds the last thread's count
                ctx.steps = steps[t]
                try:
                    next(gens[t])
                    still.append(t)  # parked at a barrier
                except StopIteration:
                    pass
                steps[t] = ctx.steps
            active = still

    def _thread_gen(self, fr: dict, ctx: ExecContext) -> Iterator:
        try:
            yield from self._exec_block(self.kernel.body, fr, ctx)
        except ReturnSignal:
            return

    def _exec_block(self, stmts: List[Stmt], fr: dict, ctx) -> Iterator:
        for s in stmts:
            yield from self._exec_stmt(s, fr, ctx)

    @staticmethod
    def _tick(ctx: ExecContext) -> None:
        ctx.steps += 1
        if ctx.steps > ctx.budget:
            raise KernelHang()

    def _exec_stmt(self, s: Stmt, fr: dict, ctx) -> Iterator:
        if isinstance(s, SyncThreads):
            self._tick(ctx)
            ctx.cycles += self.cm.sync_cost
            yield "sync"
            return
        if isinstance(s, (Decl, Assign)):
            self._tick(ctx)
            if isinstance(s, Decl):
                rhs, target = s.init, s.var_dtype
            else:
                rhs, target = s.value, s.target_dtype
            cost = (self._cost(rhs) + self.cm.write_cost) * s.cost_scale
            ctx.cycles += cost
            if s.in_loop:
                ctx.loop_cycles += cost
            value = self._fn(rhs)(fr, ctx)
            conv = _converter(target, rhs.dtype)
            fr[s.name] = value if conv is None else conv(value)
            return
        if isinstance(s, Store):
            self._tick(ctx)
            cost = (
                self._cost(s.ptr) + self._cost(s.index) + self._cost(s.value)
                + self.cm.mem_global
            ) * s.cost_scale
            ctx.cycles += cost
            if s.in_loop:
                ctx.loop_cycles += cost
            addr = self._fn(s.ptr)(fr, ctx) + self._fn(s.index)(fr, ctx)
            value = self._fn(s.value)(fr, ctx)
            if s.ptr.dtype.element is DType.FLOAT32:
                ctx.store_f32(addr, value)
            else:
                ctx.store_i32(addr, value)
            return
        if isinstance(s, SharedStore):
            self._tick(ctx)
            cost = self._cost(s.index) + self._cost(s.value) + self.cm.mem_shared
            ctx.cycles += cost
            if s.in_loop:
                ctx.loop_cycles += cost
            arr = ctx.shared[s.array]
            idx = self._fn(s.index)(fr, ctx)
            if not 0 <= idx < len(arr):
                raise KernelCrash(
                    f"shared memory OOB write {s.array}[{idx}]", ctx.thread, ctx.block
                )
            arr[idx] = self._fn(s.value)(fr, ctx)
            return
        if isinstance(s, AtomicAdd):
            self._tick(ctx)
            shared = s.space == "shared"
            if shared:
                cost = self._cost(s.index) + self._cost(s.value) + self.cm.atomic_shared
            else:
                cost = (
                    self._cost(s.target) + self._cost(s.index) + self._cost(s.value)
                    + self.cm.atomic_global
                )
            ctx.cycles += cost
            if s.in_loop:
                ctx.loop_cycles += cost
            # operands evaluate in the compiled engine's order, so a
            # crash in either surfaces with the same message
            if shared:
                arr = ctx.shared[s.array]
                idx = self._fn(s.index)(fr, ctx)
                if not 0 <= idx < len(arr):
                    raise KernelCrash(
                        f"shared memory OOB atomic {s.array}[{idx}]", ctx.thread, ctx.block
                    )
                result = arr[idx] + self._fn(s.value)(fr, ctx)
                arr[idx] = wrap_i32(result) if isinstance(result, int) else result
            else:
                addr = self._fn(s.target)(fr, ctx) + self._fn(s.index)(fr, ctx)
                if s.target.dtype.element is DType.FLOAT32:
                    ctx.store_f32(addr, ctx.load_f32(addr) + self._fn(s.value)(fr, ctx))
                else:
                    ctx.store_i32(
                        addr, wrap_i32(ctx.load_i32(addr) + self._fn(s.value)(fr, ctx))
                    )
            return
        if isinstance(s, For):
            if s.init is not None:
                yield from self._exec_stmt(s.init, fr, ctx)
            cond_fn = self._fn(s.cond)
            cond_cost = self._cost(s.cond) + self.cm.branch_cost
            try:
                while True:
                    self._tick(ctx)
                    ctx.cycles += cond_cost
                    ctx.loop_cycles += cond_cost
                    if not truthy(cond_fn(fr, ctx)):
                        break
                    try:
                        yield from self._exec_block(s.body, fr, ctx)
                    except ContinueSignal:
                        pass
                    if s.update is not None:
                        yield from self._exec_stmt(s.update, fr, ctx)
            except BreakSignal:
                pass
            return
        if isinstance(s, While):
            cond_fn = self._fn(s.cond)
            cond_cost = self._cost(s.cond) + self.cm.branch_cost
            try:
                while True:
                    self._tick(ctx)
                    ctx.cycles += cond_cost
                    ctx.loop_cycles += cond_cost
                    if not truthy(cond_fn(fr, ctx)):
                        break
                    try:
                        yield from self._exec_block(s.body, fr, ctx)
                    except ContinueSignal:
                        pass
            except BreakSignal:
                pass
            return
        if isinstance(s, If):
            self._tick(ctx)
            cost = (self._cost(s.cond) + self.cm.branch_cost) * s.cost_scale
            ctx.cycles += cost
            if s.in_loop:
                ctx.loop_cycles += cost
            if truthy(self._fn(s.cond)(fr, ctx)):
                yield from self._exec_block(s.then, fr, ctx)
            else:
                yield from self._exec_block(s.els, fr, ctx)
            return
        if isinstance(s, Break):
            ctx.steps += 1  # unchecked, as in the compiled engine
            raise BreakSignal()
        if isinstance(s, Continue):
            ctx.steps += 1  # unchecked, as in the compiled engine
            raise ContinueSignal()
        if isinstance(s, Return):
            ctx.steps += 1  # unchecked, as in the compiled engine
            raise ReturnSignal()
        if isinstance(s, CallStmt):
            self._tick(ctx)
            cost = self.cm.libcall_cost(s.func) * s.cost_scale
            if cost:
                ctx.cycles += cost
                if s.in_loop:
                    ctx.loop_cycles += cost
            args = [self._fn(a)(fr, ctx) for a in s.args]
            # the reference calls every hook: a RETIRE return is ignored,
            # so parity with the compiled engine checks each such claim
            (ctx.hooks.get(s.func) or ctx.bind_hook(s.func))(ctx, fr, *args)
            return
        raise KIRValidationError(f"lockstep cannot execute {type(s).__name__}")
