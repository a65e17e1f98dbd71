"""Static validation of KIR kernels: typing, scoping, site numbering.

``validate_kernel`` must run before analysis, instrumentation, or
execution.  It performs, in one pass:

* lexical scope checking (no use-before-def, no shadowing),
* C-style type inference/checking for every expression,
* numbering of virtual-variable definition **sites** (params first,
  then every Decl/Assign in program order, including loop init/update),
* loop-nest annotation (``in_loop`` / ``loop_id`` per statement),
* detection of ``__syncthreads`` (selects the lockstep interpreter).

Re-running validation renumbers sites, so transformation passes call
it again after mutating a kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import KIRTypeError, KIRValidationError
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
from repro.kir.types import DType, promote

# Intrinsics: name -> (arity, kind) where kind determines the result type.
#   "float"    : all numeric args coerced to float, result float
#   "promote"  : result is the promotion of the numeric args
#   "int"      : int args, result int
#   "cast_int" / "cast_float" : explicit casts
#   "bits"     : float -> int bit reinterpretation (checksum support)
INTRINSICS: Dict[str, tuple] = {
    "sqrt": (1, "float"),
    "rsqrt": (1, "float"),
    "exp": (1, "float"),
    "log": (1, "float"),
    "sin": (1, "float"),
    "cos": (1, "float"),
    "acos": (1, "float"),
    "atan2": (2, "float"),
    "floor": (1, "float"),
    "fabs": (1, "float"),
    "pow": (2, "float"),
    "fmin": (2, "float"),
    "fmax": (2, "float"),
    "abs": (1, "int"),
    "min": (2, "promote"),
    "max": (2, "promote"),
    "int": (1, "cast_int"),
    "float": (1, "cast_float"),
    "__float_as_int": (1, "bits"),
}


class _Scope:
    """Lexical scope chain mapping names to declared types."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.names: Dict[str, DType] = {}

    def lookup(self, name: str) -> Optional[DType]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def declare(self, name: str, dtype: DType) -> None:
        if self.lookup(name) is not None:
            raise KIRValidationError(f"redeclaration / shadowing of {name!r}")
        self.names[name] = dtype


class _Validator:
    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.next_site = 0
        self.next_loop = 0
        self.uses_sync = False
        self.shared_names = {s.name: s.dtype for s in kernel.shared}

    # -- expressions -------------------------------------------------
    def expr(self, e: Expr, scope: _Scope) -> DType:
        if e is None:
            raise KIRValidationError("missing expression")
        dtype = self._expr(e, scope)
        e.dtype = dtype
        return dtype

    def _expr(self, e: Expr, scope: _Scope) -> DType:
        if isinstance(e, Const):
            if isinstance(e.value, float):
                return DType.FLOAT32
            if isinstance(e.value, int):
                # the compiled engine relies on every int32 value being
                # in range, literals included
                if not -(2**31) <= e.value < 2**31:
                    raise KIRValidationError(
                        f"int literal {e.value} is outside the int32 range")
                return DType.INT32
            if isinstance(e.value, str):
                return DType.STR
            raise KIRTypeError(f"bad constant {e.value!r}")
        if isinstance(e, Var):
            dtype = scope.lookup(e.name)
            if dtype is None:
                raise KIRValidationError(f"use of undeclared variable {e.name!r}")
            return dtype
        if isinstance(e, SpecialReg):
            if e.name not in SpecialReg.VALID:
                raise KIRValidationError(f"unknown special register {e.name!r}")
            return DType.INT32
        if isinstance(e, BinOp):
            lt = self.expr(e.left, scope)
            rt = self.expr(e.right, scope)
            if e.op in BinOp.ARITH:
                if e.op in ("%",) and (lt is not DType.INT32 or rt is not DType.INT32):
                    raise KIRTypeError("% requires int operands")
                return promote(lt, rt)
            if e.op in BinOp.COMPARE:
                if lt.is_pointer or rt.is_pointer:
                    if lt is not rt:
                        raise KIRTypeError(f"cannot compare {lt} with {rt}")
                else:
                    promote(lt, rt)  # just checks compatibility
                return DType.INT32
            if e.op in BinOp.LOGICAL:
                if not (lt.is_numeric and rt.is_numeric):
                    raise KIRTypeError(f"{e.op} requires numeric operands")
                return DType.INT32
            if e.op in BinOp.BITWISE:
                if lt is not DType.INT32 or rt is not DType.INT32:
                    raise KIRTypeError(f"{e.op} requires int operands")
                return DType.INT32
            raise KIRValidationError(f"unknown binary operator {e.op!r}")
        if isinstance(e, UnOp):
            t = self.expr(e.operand, scope)
            if e.op == "-":
                if not t.is_numeric:
                    raise KIRTypeError("unary - requires a numeric operand")
                return t
            if e.op == "!":
                if not t.is_numeric:
                    raise KIRTypeError("! requires a numeric operand")
                return DType.INT32
            if e.op == "~":
                if t is not DType.INT32:
                    raise KIRTypeError("~ requires an int operand")
                return DType.INT32
            raise KIRValidationError(f"unknown unary operator {e.op!r}")
        if isinstance(e, Call):
            if e.func not in INTRINSICS:
                raise KIRValidationError(f"unknown intrinsic {e.func!r}")
            arity, kind = INTRINSICS[e.func]
            if len(e.args) != arity:
                raise KIRValidationError(
                    f"{e.func} expects {arity} argument(s), got {len(e.args)}"
                )
            arg_types = [self.expr(a, scope) for a in e.args]
            for t in arg_types:
                if not t.is_numeric:
                    # int(ptr) is allowed: the checksum XORs pointer bits
                    if kind == "cast_int" and t.is_pointer:
                        continue
                    raise KIRTypeError(f"{e.func} requires numeric arguments")
            if kind == "float" or kind == "cast_float":
                return DType.FLOAT32
            if kind == "promote":
                return promote(*arg_types) if arity == 2 else arg_types[0]
            if kind in ("int", "cast_int", "bits"):
                return DType.INT32
            raise KIRValidationError(f"bad intrinsic kind {kind!r}")
        if isinstance(e, Load):
            pt = self.expr(e.ptr, scope)
            it = self.expr(e.index, scope)
            if not pt.is_pointer:
                raise KIRTypeError("load base is not a pointer")
            if it is not DType.INT32:
                raise KIRTypeError("load index must be int")
            return pt.element
        if isinstance(e, SharedLoad):
            if e.array not in self.shared_names:
                raise KIRValidationError(f"unknown shared array {e.array!r}")
            if self.expr(e.index, scope) is not DType.INT32:
                raise KIRTypeError("shared load index must be int")
            return self.shared_names[e.array]
        raise KIRValidationError(f"unknown expression node {type(e).__name__}")

    # -- statements --------------------------------------------------
    def block(self, body: List[Stmt], scope: _Scope, loop_id: int) -> None:
        for stmt in body:
            self.stmt(stmt, scope, loop_id)

    def _mark(self, stmt: Stmt, loop_id: int) -> None:
        stmt.in_loop = loop_id >= 0
        stmt.loop_id = loop_id

    def _assign_site(self, stmt: Stmt) -> None:
        stmt.site = self.next_site
        self.next_site += 1

    def stmt(self, stmt: Stmt, scope: _Scope, loop_id: int) -> None:
        self._mark(stmt, loop_id)
        if isinstance(stmt, Decl):
            dtype = self.expr(stmt.init, scope)
            if stmt.var_dtype.is_pointer:
                if dtype is not stmt.var_dtype:
                    raise KIRTypeError(
                        f"cannot initialize {stmt.var_dtype} {stmt.name} from {dtype}"
                    )
            elif not dtype.is_numeric:
                raise KIRTypeError(f"cannot initialize {stmt.name} from {dtype}")
            scope.declare(stmt.name, stmt.var_dtype)
            self._assign_site(stmt)
        elif isinstance(stmt, Assign):
            target = scope.lookup(stmt.name)
            if target is None:
                raise KIRValidationError(f"assignment to undeclared {stmt.name!r}")
            dtype = self.expr(stmt.value, scope)
            if target.is_pointer:
                if dtype is not target:
                    raise KIRTypeError(f"cannot assign {dtype} to {target} {stmt.name}")
            elif not dtype.is_numeric:
                raise KIRTypeError(f"cannot assign {dtype} to {stmt.name}")
            stmt.target_dtype = target
            self._assign_site(stmt)
        elif isinstance(stmt, Store):
            pt = self.expr(stmt.ptr, scope)
            if not pt.is_pointer:
                raise KIRTypeError("store base is not a pointer")
            if self.expr(stmt.index, scope) is not DType.INT32:
                raise KIRTypeError("store index must be int")
            if not self.expr(stmt.value, scope).is_numeric:
                raise KIRTypeError("stored value must be numeric")
        elif isinstance(stmt, SharedStore):
            if stmt.array not in self.shared_names:
                raise KIRValidationError(f"unknown shared array {stmt.array!r}")
            if self.expr(stmt.index, scope) is not DType.INT32:
                raise KIRTypeError("shared store index must be int")
            if not self.expr(stmt.value, scope).is_numeric:
                raise KIRTypeError("stored value must be numeric")
        elif isinstance(stmt, AtomicAdd):
            if stmt.space == "shared":
                if stmt.array not in self.shared_names:
                    raise KIRValidationError(f"unknown shared array {stmt.array!r}")
            elif stmt.space == "global":
                if not self.expr(stmt.target, scope).is_pointer:
                    raise KIRTypeError("atomicAdd target is not a pointer")
            else:
                raise KIRValidationError(f"bad atomic space {stmt.space!r}")
            if self.expr(stmt.index, scope) is not DType.INT32:
                raise KIRTypeError("atomicAdd index must be int")
            if not self.expr(stmt.value, scope).is_numeric:
                raise KIRTypeError("atomicAdd value must be numeric")
        elif isinstance(stmt, For):
            my_loop = self.next_loop
            self.next_loop += 1
            stmt.loop_id = my_loop  # the For itself owns its loop id
            stmt.in_loop = loop_id >= 0
            inner = _Scope(scope)
            if stmt.init is not None:
                # the iterator is defined once, at the loop's outer level
                self.stmt(stmt.init, inner, loop_id)
            if stmt.cond is None:
                raise KIRValidationError("for loop requires a condition")
            if not self.expr(stmt.cond, inner).is_numeric:
                raise KIRTypeError("loop condition must be numeric")
            body_scope = _Scope(inner)
            self.block(stmt.body, body_scope, my_loop)
            if stmt.update is not None:
                # the update executes every iteration: it is loop state
                self.stmt(stmt.update, inner, my_loop)
        elif isinstance(stmt, While):
            my_loop = self.next_loop
            self.next_loop += 1
            stmt.loop_id = my_loop
            stmt.in_loop = loop_id >= 0
            if not self.expr(stmt.cond, scope).is_numeric:
                raise KIRTypeError("loop condition must be numeric")
            self.block(stmt.body, _Scope(scope), my_loop)
        elif isinstance(stmt, If):
            if not self.expr(stmt.cond, scope).is_numeric:
                raise KIRTypeError("if condition must be numeric")
            self.block(stmt.then, _Scope(scope), loop_id)
            self.block(stmt.els, _Scope(scope), loop_id)
        elif isinstance(stmt, (Break, Continue)):
            if loop_id < 0:
                raise KIRValidationError(
                    f"{type(stmt).__name__.lower()} outside of a loop"
                )
        elif isinstance(stmt, Return):
            pass
        elif isinstance(stmt, SyncThreads):
            self.uses_sync = True
        elif isinstance(stmt, CallStmt):
            if not stmt.func.startswith("__"):
                raise KIRValidationError(
                    f"library call {stmt.func!r} must use the __ namespace"
                )
            for a in stmt.args:
                self.expr(a, scope)
        else:
            raise KIRValidationError(f"unknown statement node {type(stmt).__name__}")


def validate_kernel(kernel: Kernel) -> Kernel:
    """Validate (and annotate) a kernel in place; returns the kernel."""
    v = _Validator(kernel)
    top = _Scope()
    seen = set()
    for p in kernel.params:
        if p.name in seen:
            raise KIRValidationError(f"duplicate parameter {p.name!r}")
        seen.add(p.name)
        top.names[p.name] = p.dtype
        p.site = v.next_site
        v.next_site += 1
    shared_seen = set()
    for s in kernel.shared:
        if s.name in shared_seen or s.name in seen:
            raise KIRValidationError(f"duplicate shared array {s.name!r}")
        if s.size <= 0:
            raise KIRValidationError(f"shared array {s.name!r} has size {s.size}")
        shared_seen.add(s.name)
    v.block(kernel.body, _Scope(top), -1)
    kernel.uses_sync = v.uses_sync
    kernel.n_sites = v.next_site
    kernel.validated = True
    return kernel
