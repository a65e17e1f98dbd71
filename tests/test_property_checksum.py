"""Property-based tests of the HAUBERK-NL zero-sum checksum invariant.

Hypothesis generates random straight-line/branching/looping kernels;
for every generated program the NL-instrumented build must validate,
execute, and report checksum == 0 and mismatch == 0 on a fault-free
run — the invariant everything in Section V.A rests on.
"""

from hypothesis import given, settings, strategies as st

from repro.core.controlblock import ControlBlock
from repro.core.ftlib import HauberkFTLibrary
from repro.core.nonloop import apply_nonloop_detectors
from repro.core.loopdet import apply_loop_detectors
from repro.gpu.device import Device
from repro.gpu.runtime import GPURuntime
from repro.kir.astnodes import (
    Assign,
    BinOp,
    Const,
    Decl,
    For,
    If,
    Kernel,
    KernelParam,
    Store,
    Var,
)
from repro.kir.types import DType
from repro.kir.validate import validate_kernel


def _flat(items):
    out = []
    for s in items:
        if isinstance(s, list):
            out.extend(s)
        else:
            out.append(s)
    return out


class _KernelGen:
    """Builds a random but always-valid kernel from a hypothesis plan."""

    def __init__(self, plan):
        self.plan = iter(plan)
        self.counter = 0
        self.int_vars = ["n"]
        self.float_vars = ["seedv"]

    def _next(self, default=0):
        return next(self.plan, default)

    def fresh(self, prefix):
        self.counter += 1
        return f"{prefix}{self.counter}"

    def int_expr(self):
        kind = self._next() % 3
        if kind == 0:
            return Const(self._next() % 7 + 1)
        if kind == 1:
            return Var(self.int_vars[self._next() % len(self.int_vars)])
        op = ("+", "-", "*")[self._next() % 3]
        return BinOp(op, self.int_expr_simple(), self.int_expr_simple())

    def int_expr_simple(self):
        if self._next() % 2:
            return Const(self._next() % 5 + 1)
        return Var(self.int_vars[self._next() % len(self.int_vars)])

    def float_expr(self):
        kind = self._next() % 3
        if kind == 0:
            return Const(float(self._next() % 9) * 0.5 + 0.25)
        if kind == 1:
            return Var(self.float_vars[self._next() % len(self.float_vars)])
        op = ("+", "-", "*")[self._next() % 3]
        return BinOp(op, self.float_expr_simple(), self.float_expr_simple())

    def float_expr_simple(self):
        if self._next() % 2:
            return Const(float(self._next() % 9) * 0.25 + 0.5)
        return Var(self.float_vars[self._next() % len(self.float_vars)])

    def statement(self, depth):
        kind = self._next() % 6
        if kind in (0, 1):  # new decl
            if self._next() % 2:
                name = self.fresh("iv")
                stmt = Decl(name, DType.INT32, self.int_expr())
                self.int_vars.append(name)
            else:
                name = self.fresh("fv")
                stmt = Decl(name, DType.FLOAT32, self.float_expr())
                self.float_vars.append(name)
            return stmt
        if kind == 2 and len(self.float_vars) > 1:  # reassign
            name = self.float_vars[self._next() % len(self.float_vars)]
            if name == "seedv":
                name = self.float_vars[-1]
            return Assign(name, self.float_expr())
        if kind == 3 and depth < 2:  # branch (decls inside stay inside)
            cond = BinOp("<", self.int_expr_simple(), self.int_expr_simple())
            saved = (list(self.int_vars), list(self.float_vars))
            then = [self.statement(depth + 1) for _ in range(1 + self._next() % 2)]
            self.int_vars, self.float_vars = list(saved[0]), list(saved[1])
            els = [self.statement(depth + 1)] if self._next() % 2 else []
            self.int_vars, self.float_vars = saved
            return If(cond=cond, then=_flat(then), els=_flat(els))
        if kind == 4 and depth == 0:  # small loop with an accumulator
            accname = self.fresh("facc")
            self.float_vars.append(accname)
            it = self.fresh("it")
            body = [Assign(accname, BinOp("+", Var(accname), self.float_expr()))]
            return [
                Decl(accname, DType.FLOAT32, Const(0.0)),
                For(
                    init=Decl(it, DType.INT32, Const(0)),
                    cond=BinOp("<", Var(it), Const(self._next() % 4 + 1)),
                    update=Assign(it, BinOp("+", Var(it), Const(1))),
                    body=body,
                ),
            ]
        # fallback: int decl
        name = self.fresh("iv")
        stmt = Decl(name, DType.INT32, self.int_expr())
        self.int_vars.append(name)
        return stmt

    def params(self):
        return [
            KernelParam("n", DType.INT32),
            KernelParam("seedv", DType.FLOAT32),
            KernelParam("out", DType.PTR_FLOAT32),
        ]

    def build(self, n_stmts):
        body = []
        for _ in range(n_stmts):
            stmt = self.statement(0)
            if isinstance(stmt, list):
                body.extend(stmt)
            else:
                body.append(stmt)
        # store something so the kernel has output
        body.append(
            Store(ptr=Var("out"), index=Const(0),
                  value=Var(self.float_vars[-1]) if len(self.float_vars) > 1 else Const(1.0))
        )
        kernel = Kernel(name="gen", params=self.params(), body=body)
        validate_kernel(kernel)
        return kernel


class _Probe(HauberkFTLibrary):
    def __init__(self):
        super().__init__(ControlBlock())
        self.validations = []

    def lib_checksum_validate(self, ctx, frame, checksum, nl_mismatch):
        self.validations.append((checksum, nl_mismatch))


@settings(max_examples=40, deadline=None)
@given(
    plan=st.lists(st.integers(min_value=0, max_value=1000), min_size=30, max_size=120),
    n_stmts=st.integers(min_value=1, max_value=6),
    n_value=st.integers(min_value=0, max_value=9),
    seed_value=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
def test_checksum_invariant_on_random_kernels(plan, n_stmts, n_value, seed_value):
    kernel = _KernelGen(plan).build(n_stmts)
    clone = kernel.clone()
    apply_nonloop_detectors(clone)
    validate_kernel(clone)

    device = Device()
    runtime = GPURuntime(device)
    out = device.memory.alloc("out", 4, DType.FLOAT32)
    probe = _Probe()
    runtime.launch(
        clone, 1, 2, {"n": n_value, "seedv": seed_value, "out": out}, lib=probe
    )
    assert probe.validations, "validate call must run in every thread"
    for checksum, mismatch in probe.validations:
        assert checksum == 0, "XOR pairs must cancel on every control path"
        assert mismatch == 0, "duplicate recomputation must agree"


@settings(max_examples=20, deadline=None)
@given(
    plan=st.lists(st.integers(min_value=0, max_value=1000), min_size=30, max_size=120),
    n_stmts=st.integers(min_value=1, max_value=5),
)
def test_full_ft_build_executes_on_random_kernels(plan, n_stmts):
    """L + NL together still validate and run on arbitrary kernels."""
    kernel = _KernelGen(plan).build(n_stmts)
    clone = kernel.clone()
    info = apply_loop_detectors(clone, maxvar=1)
    apply_nonloop_detectors(clone)
    validate_kernel(clone)

    device = Device()
    runtime = GPURuntime(device)
    out = device.memory.alloc("out", 4, DType.FLOAT32)
    cb = ControlBlock()
    cb.configure(info.configs)
    for cfg in info.configs:
        # train trivially wide so clean runs stay quiet
        from repro.core.ranges import RangeSet, ValueRange

        cfg.ranges = RangeSet(ranges=[ValueRange(-1e12, 1e12)])
    lib = HauberkFTLibrary(cb)
    runtime.launch(clone, 1, 2, {"n": 3, "seedv": 1.5, "out": out}, lib=lib)
    trip_events = [e for e in cb.events if e.kind == "trip"]
    assert not trip_events, "trip-count invariant must hold fault-free"
