"""AST -> Python-closure compilation (the fast interpreter path).

Each expression compiles to a function ``f(frame, ctx) -> value`` and
each statement to a procedure ``s(frame, ctx)``; closures are
specialized on static types, so an int add compiles to a wrapping add
and a float divide to IEEE ``fdiv`` with no per-call dispatch.  Every
statement inlines the watchdog bump and cycle accounting; loop-body and
loop-condition cycles are attributed separately so the Figure 4 loop
fraction and the Figure 13 overheads fall out of execution directly.

An instrumentation call (``__hauberk_<op>``) looks its handler up in
the context's per-launch hook table, which
:meth:`~repro.kir.interp.evalcore.ExecContext.bind_hook` fills on the
call's first execution; a call whose arguments are all constants (every
FI hook) passes an argument tuple built here, at compile time.
"""

from __future__ import annotations

from typing import Callable, List

from repro.errors import KernelCrash, KernelHang, KIRError, KIRValidationError
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
    SyncThreads,
    UnOp,
    Var,
    While,
)
from repro.kir.interp.evalcore import (
    BreakSignal,
    ContinueSignal,
    ExecContext,
    INTRINSIC_IMPL,
    ReturnSignal,
    c_int_cast,
    fdiv,
    idiv,
    imod,
    truthy,
)
from repro.kir.types import DType
from repro.bits import wrap_i32

ExprFn = Callable[[dict, ExecContext], object]
StmtFn = Callable[[dict, ExecContext], None]


# ---------------------------------------------------------------------------
# expression compilation
# ---------------------------------------------------------------------------


def compile_expr(e: Expr) -> ExprFn:
    if isinstance(e, Const):
        v = e.value
        return lambda fr, ctx: v
    if isinstance(e, Var):
        n = e.name
        return lambda fr, ctx: fr[n]
    if isinstance(e, SpecialReg):
        n = e.name
        return lambda fr, ctx: fr[n]
    if isinstance(e, BinOp):
        return _compile_binop(e)
    if isinstance(e, UnOp):
        f = compile_expr(e.operand)
        if e.op == "-":
            if e.dtype is DType.INT32:
                return lambda fr, ctx: wrap_i32(-f(fr, ctx))
            return lambda fr, ctx: -f(fr, ctx)
        if e.op == "!":
            return lambda fr, ctx: 0 if truthy(f(fr, ctx)) else 1
        if e.op == "~":
            return lambda fr, ctx: wrap_i32(~f(fr, ctx))
        raise KIRError(f"cannot compile unary {e.op!r}")
    if isinstance(e, Call):
        if e.func == "__float_as_int":
            from repro.bits import float_to_bits, bits_to_int

            f = compile_expr(e.args[0])
            return lambda fr, ctx: bits_to_int(float_to_bits(float(f(fr, ctx))))
        impl = INTRINSIC_IMPL.get(e.func)
        if impl is None:
            raise KIRError(f"cannot compile intrinsic {e.func!r}")
        fns = [compile_expr(a) for a in e.args]
        if len(fns) == 1:
            f0 = fns[0]
            return lambda fr, ctx: impl(f0(fr, ctx))
        if len(fns) == 2:
            f0, f1 = fns
            return lambda fr, ctx: impl(f0(fr, ctx), f1(fr, ctx))
        return lambda fr, ctx: impl(*[f(fr, ctx) for f in fns])
    if isinstance(e, Load):
        p = compile_expr(e.ptr)
        i = compile_expr(e.index)
        if e.dtype is DType.FLOAT32:
            return lambda fr, ctx: ctx.load_f32(p(fr, ctx) + i(fr, ctx))
        return lambda fr, ctx: ctx.load_i32(p(fr, ctx) + i(fr, ctx))
    if isinstance(e, SharedLoad):
        name = e.array
        i = compile_expr(e.index)

        def shared_load(fr, ctx):
            arr = ctx.shared[name]
            idx = i(fr, ctx)
            if 0 <= idx < len(arr):
                return arr[idx]
            raise KernelCrash(f"shared memory OOB read {name}[{idx}]", ctx.thread, ctx.block)

        return shared_load
    raise KIRError(f"cannot compile expression {type(e).__name__}")


def _compile_binop(e: BinOp) -> ExprFn:
    op = e.op
    l = compile_expr(e.left)  # noqa: E741 -- l/r mirror the BinOp fields
    r = compile_expr(e.right)
    lt, rt = e.left.dtype, e.right.dtype
    int_arith = e.dtype is DType.INT32 and lt is DType.INT32 and rt is DType.INT32
    ptr_arith = e.dtype is not None and e.dtype.is_pointer
    if op == "+":
        if ptr_arith:
            return lambda fr, ctx: l(fr, ctx) + r(fr, ctx)
        if int_arith:
            return lambda fr, ctx: wrap_i32(l(fr, ctx) + r(fr, ctx))
        return lambda fr, ctx: l(fr, ctx) + r(fr, ctx)
    if op == "-":
        if int_arith and not ptr_arith:
            return lambda fr, ctx: wrap_i32(l(fr, ctx) - r(fr, ctx))
        return lambda fr, ctx: l(fr, ctx) - r(fr, ctx)
    if op == "*":
        if int_arith:
            return lambda fr, ctx: wrap_i32(l(fr, ctx) * r(fr, ctx))
        return lambda fr, ctx: l(fr, ctx) * r(fr, ctx)
    if op == "/":
        if int_arith:
            return lambda fr, ctx: idiv(l(fr, ctx), r(fr, ctx))
        return lambda fr, ctx: fdiv(l(fr, ctx), r(fr, ctx))
    if op == "%":
        return lambda fr, ctx: imod(l(fr, ctx), r(fr, ctx))
    if op == "<":
        return lambda fr, ctx: 1 if l(fr, ctx) < r(fr, ctx) else 0
    if op == "<=":
        return lambda fr, ctx: 1 if l(fr, ctx) <= r(fr, ctx) else 0
    if op == ">":
        return lambda fr, ctx: 1 if l(fr, ctx) > r(fr, ctx) else 0
    if op == ">=":
        return lambda fr, ctx: 1 if l(fr, ctx) >= r(fr, ctx) else 0
    if op == "==":
        return lambda fr, ctx: 1 if l(fr, ctx) == r(fr, ctx) else 0
    if op == "!=":
        return lambda fr, ctx: 1 if l(fr, ctx) != r(fr, ctx) else 0
    if op == "&&":
        return lambda fr, ctx: 1 if (truthy(l(fr, ctx)) and truthy(r(fr, ctx))) else 0
    if op == "||":
        return lambda fr, ctx: 1 if (truthy(l(fr, ctx)) or truthy(r(fr, ctx))) else 0
    if op == "&":
        return lambda fr, ctx: wrap_i32(l(fr, ctx) & r(fr, ctx))
    if op == "|":
        return lambda fr, ctx: wrap_i32(l(fr, ctx) | r(fr, ctx))
    if op == "^":
        return lambda fr, ctx: wrap_i32(l(fr, ctx) ^ r(fr, ctx))
    if op == "<<":
        return lambda fr, ctx: wrap_i32(l(fr, ctx) << (r(fr, ctx) & 31))
    if op == ">>":
        return lambda fr, ctx: wrap_i32(l(fr, ctx) >> (r(fr, ctx) & 31))
    raise KIRError(f"cannot compile operator {op!r}")


def _converter(target: DType, source: DType):
    """Implicit conversion applied on assignment, C-style."""
    if target is DType.FLOAT32 and source is DType.INT32:
        return float
    if target is DType.INT32 and source is DType.FLOAT32:
        return c_int_cast
    return None


# ---------------------------------------------------------------------------
# statement compilation
# ---------------------------------------------------------------------------


class _KernelCompiler:
    def __init__(self, kernel: Kernel, costmodel):
        self.kernel = kernel
        self.cm = costmodel

    def compile_stmt(self, s: Stmt) -> StmtFn:
        cm = self.cm
        in_loop = s.in_loop
        if isinstance(s, Decl):
            val = compile_expr(s.init)
            conv = _converter(s.var_dtype, s.init.dtype)
            cost = (cm.expr_cost(s.init) + cm.write_cost) * s.cost_scale
            name = s.name
            if conv is None:
                return self._wrap_assign(name, val, cost, in_loop)
            return self._wrap_assign_conv(name, val, conv, cost, in_loop)
        if isinstance(s, Assign):
            val = compile_expr(s.value)
            conv = _converter(s.target_dtype, s.value.dtype)
            cost = (cm.expr_cost(s.value) + cm.write_cost) * s.cost_scale
            name = s.name
            if conv is None:
                return self._wrap_assign(name, val, cost, in_loop)
            return self._wrap_assign_conv(name, val, conv, cost, in_loop)
        if isinstance(s, Store):
            p = compile_expr(s.ptr)
            i = compile_expr(s.index)
            v = compile_expr(s.value)
            is_float = s.ptr.dtype.element is DType.FLOAT32
            cost = (
                cm.expr_cost(s.ptr)
                + cm.expr_cost(s.index)
                + cm.expr_cost(s.value)
                + cm.mem_global
            ) * s.cost_scale
            if in_loop:
                def store_l(fr, ctx):
                    ctx.steps += 1
                    if ctx.steps > ctx.budget:
                        raise KernelHang()
                    ctx.cycles += cost
                    ctx.loop_cycles += cost
                    addr = p(fr, ctx) + i(fr, ctx)
                    if is_float:
                        ctx.store_f32(addr, v(fr, ctx))
                    else:
                        ctx.store_i32(addr, v(fr, ctx))
                return store_l

            def store_nl(fr, ctx):
                ctx.steps += 1
                if ctx.steps > ctx.budget:
                    raise KernelHang()
                ctx.cycles += cost
                addr = p(fr, ctx) + i(fr, ctx)
                if is_float:
                    ctx.store_f32(addr, v(fr, ctx))
                else:
                    ctx.store_i32(addr, v(fr, ctx))
            return store_nl
        if isinstance(s, SharedStore):
            name = s.array
            i = compile_expr(s.index)
            v = compile_expr(s.value)
            cost = cm.expr_cost(s.index) + cm.expr_cost(s.value) + cm.mem_shared

            def shared_store(fr, ctx):
                ctx.steps += 1
                if ctx.steps > ctx.budget:
                    raise KernelHang()
                ctx.cycles += cost
                if in_loop:
                    ctx.loop_cycles += cost
                arr = ctx.shared[name]
                idx = i(fr, ctx)
                if not 0 <= idx < len(arr):
                    raise KernelCrash(
                        f"shared memory OOB write {name}[{idx}]", ctx.thread, ctx.block
                    )
                arr[idx] = v(fr, ctx)
            return shared_store
        if isinstance(s, AtomicAdd):
            return self._compile_atomic(s)
        if isinstance(s, For):
            return self._compile_for(s)
        if isinstance(s, While):
            return self._compile_while(s)
        if isinstance(s, If):
            return self._compile_if(s)
        if isinstance(s, Break):
            def brk(fr, ctx):
                ctx.steps += 1
                raise BreakSignal()
            return brk
        if isinstance(s, Continue):
            def cont(fr, ctx):
                ctx.steps += 1
                raise ContinueSignal()
            return cont
        if isinstance(s, Return):
            def ret(fr, ctx):
                ctx.steps += 1
                raise ReturnSignal()
            return ret
        if isinstance(s, SyncThreads):
            raise KIRValidationError(
                "kernels with __syncthreads need the lockstep interpreter"
            )
        if isinstance(s, CallStmt):
            return self._compile_call(s)
        raise KIRError(f"cannot compile statement {type(s).__name__}")

    # -- leaf wrappers -------------------------------------------------
    @staticmethod
    def _wrap_assign(name: str, val: ExprFn, cost: float, in_loop: bool) -> StmtFn:
        if in_loop:
            def run_l(fr, ctx):
                ctx.steps += 1
                if ctx.steps > ctx.budget:
                    raise KernelHang()
                ctx.cycles += cost
                ctx.loop_cycles += cost
                fr[name] = val(fr, ctx)
            return run_l

        def run(fr, ctx):
            ctx.steps += 1
            if ctx.steps > ctx.budget:
                raise KernelHang()
            ctx.cycles += cost
            fr[name] = val(fr, ctx)
        return run

    @staticmethod
    def _wrap_assign_conv(
        name: str, val: ExprFn, conv, cost: float, in_loop: bool
    ) -> StmtFn:
        def run(fr, ctx):
            ctx.steps += 1
            if ctx.steps > ctx.budget:
                raise KernelHang()
            ctx.cycles += cost
            if in_loop:
                ctx.loop_cycles += cost
            fr[name] = conv(val(fr, ctx))
        return run

    def _compile_call(self, s: CallStmt) -> StmtFn:
        func = s.func
        cost = self.cm.libcall_cost(func) * s.cost_scale
        in_loop = s.in_loop
        if all(isinstance(a, Const) for a in s.args):
            # every FI hook: (site, "name") never changes
            args = tuple(a.value for a in s.args)

            def libcall_const(fr, ctx):
                ctx.steps += 1
                if ctx.steps > ctx.budget:
                    raise KernelHang()
                if cost:
                    ctx.cycles += cost
                    if in_loop:
                        ctx.loop_cycles += cost
                (ctx.hooks.get(func) or ctx.bind_hook(func))(ctx, fr, *args)
            return libcall_const
        fns = [compile_expr(a) for a in s.args]

        def libcall(fr, ctx):
            ctx.steps += 1
            if ctx.steps > ctx.budget:
                raise KernelHang()
            if cost:
                ctx.cycles += cost
                if in_loop:
                    ctx.loop_cycles += cost
            values = [f(fr, ctx) for f in fns]
            (ctx.hooks.get(func) or ctx.bind_hook(func))(ctx, fr, *values)
        return libcall

    # -- compound statements -------------------------------------------
    def _compile_atomic(self, s: AtomicAdd) -> StmtFn:
        i = compile_expr(s.index)
        v = compile_expr(s.value)
        in_loop = s.in_loop
        if s.space == "shared":
            name = s.array
            cost = self.cm.expr_cost(s.index) + self.cm.expr_cost(s.value) + self.cm.atomic_shared

            def atomic_shared(fr, ctx):
                ctx.steps += 1
                if ctx.steps > ctx.budget:
                    raise KernelHang()
                ctx.cycles += cost
                if in_loop:
                    ctx.loop_cycles += cost
                arr = ctx.shared[name]
                idx = i(fr, ctx)
                if not 0 <= idx < len(arr):
                    raise KernelCrash(
                        f"shared memory OOB atomic {name}[{idx}]", ctx.thread, ctx.block
                    )
                arr[idx] = arr[idx] + v(fr, ctx)
                if isinstance(arr[idx], int):
                    arr[idx] = wrap_i32(arr[idx])
            return atomic_shared
        p = compile_expr(s.target)
        is_float = s.target.dtype.element is DType.FLOAT32
        cost = (
            self.cm.expr_cost(s.target)
            + self.cm.expr_cost(s.index)
            + self.cm.expr_cost(s.value)
            + self.cm.atomic_global
        )

        def atomic_global(fr, ctx):
            ctx.steps += 1
            if ctx.steps > ctx.budget:
                raise KernelHang()
            ctx.cycles += cost
            if in_loop:
                ctx.loop_cycles += cost
            addr = p(fr, ctx) + i(fr, ctx)
            if is_float:
                ctx.store_f32(addr, ctx.load_f32(addr) + v(fr, ctx))
            else:
                ctx.store_i32(
                    addr, wrap_i32(ctx.load_i32(addr) + v(fr, ctx))
                )
        return atomic_global

    def _compile_for(self, s: For) -> StmtFn:
        init_fn = self.compile_stmt(s.init) if s.init is not None else None
        cond_fn = compile_expr(s.cond)
        cond_cost = self.cm.expr_cost(s.cond) + self.cm.branch_cost
        update_fn = self.compile_stmt(s.update) if s.update is not None else None
        body_fns = [self.compile_stmt(b) for b in s.body]

        def run(fr, ctx):
            if init_fn is not None:
                init_fn(fr, ctx)
            try:
                while True:
                    ctx.steps += 1
                    if ctx.steps > ctx.budget:
                        raise KernelHang()
                    ctx.cycles += cond_cost
                    ctx.loop_cycles += cond_cost
                    if not truthy(cond_fn(fr, ctx)):
                        break
                    try:
                        for b in body_fns:
                            b(fr, ctx)
                    except ContinueSignal:
                        pass
                    if update_fn is not None:
                        update_fn(fr, ctx)
            except BreakSignal:
                pass
        return run

    def _compile_while(self, s: While) -> StmtFn:
        cond_fn = compile_expr(s.cond)
        cond_cost = self.cm.expr_cost(s.cond) + self.cm.branch_cost
        body_fns = [self.compile_stmt(b) for b in s.body]

        def run(fr, ctx):
            try:
                while True:
                    ctx.steps += 1
                    if ctx.steps > ctx.budget:
                        raise KernelHang()
                    ctx.cycles += cond_cost
                    ctx.loop_cycles += cond_cost
                    if not truthy(cond_fn(fr, ctx)):
                        break
                    try:
                        for b in body_fns:
                            b(fr, ctx)
                    except ContinueSignal:
                        pass
            except BreakSignal:
                pass
        return run

    def _compile_if(self, s: If) -> StmtFn:
        cond_fn = compile_expr(s.cond)
        cost = (self.cm.expr_cost(s.cond) + self.cm.branch_cost) * s.cost_scale
        then_fns = [self.compile_stmt(b) for b in s.then]
        else_fns = [self.compile_stmt(b) for b in s.els]
        in_loop = s.in_loop

        def run(fr, ctx):
            ctx.steps += 1
            if ctx.steps > ctx.budget:
                raise KernelHang()
            ctx.cycles += cost
            if in_loop:
                ctx.loop_cycles += cost
            if truthy(cond_fn(fr, ctx)):
                for b in then_fns:
                    b(fr, ctx)
            else:
                for b in else_fns:
                    b(fr, ctx)
        return run


class CompiledKernel:
    """A kernel compiled to closures, reusable across launches."""

    def __init__(self, kernel: Kernel, costmodel):
        if not kernel.validated:
            raise KIRValidationError("validate the kernel before compiling")
        if kernel.uses_sync:
            raise KIRValidationError(
                f"kernel {kernel.name} uses __syncthreads; use LockstepProgram"
            )
        self.kernel = kernel
        self.costmodel = costmodel
        compiler = _KernelCompiler(kernel, costmodel)
        self._body: List[StmtFn] = [compiler.compile_stmt(s) for s in kernel.body]

    def run_thread(self, frame: dict, ctx: ExecContext) -> None:
        """Execute one thread to completion (or crash/hang)."""
        try:
            for fn in self._body:
                fn(frame, ctx)
        except ReturnSignal:
            pass

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
