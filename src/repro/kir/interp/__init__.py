"""KIR interpreters.

Two execution engines over the same semantics:

* :mod:`repro.kir.interp.codegen` — each kernel compiled to one
  generated Python function; the fast path used for every kernel
  without ``__syncthreads``.
* :mod:`repro.kir.interp.lockstep` — generator-based lockstep execution
  of all threads in a block, required for barrier semantics and the
  reference the compiled engine's parity tests compare against.

Both count each thread's statements in ``ExecContext.steps`` and raise
the same :class:`~repro.errors.KernelHang` when it overruns the budget.

Shared runtime pieces (C-semantics arithmetic, intrinsics, the
instrumentation-library protocol, execution context) live in
:mod:`repro.kir.interp.evalcore`.
"""

from repro.kir.interp.evalcore import (
    ExecContext,
    InstrumentationLibrary,
    RETIRE,
    RETIRE_CALL,
    BreakSignal,
    ContinueSignal,
    ReturnSignal,
)
from repro.kir.interp.codegen import CompiledKernel, compile_kernel
from repro.kir.interp.lockstep import LockstepProgram

__all__ = [
    "ExecContext",
    "InstrumentationLibrary",
    "RETIRE",
    "RETIRE_CALL",
    "BreakSignal",
    "ContinueSignal",
    "ReturnSignal",
    "CompiledKernel",
    "compile_kernel",
    "LockstepProgram",
]
