"""KIR — the kernel intermediate representation.

KIR plays the role CUDA C++ source plays in the paper: the
representation the Hauberk translator instruments.  It is a small,
typed, CUDA-shaped AST with

* a programmatic builder (:mod:`repro.kir.builder`),
* a mini-CUDA text parser (:mod:`repro.kir.parser`),
* a source printer (:mod:`repro.kir.printer`),
* static analyses — def/use virtual variables, loop nests and trip
  counts, cumulative backward dataflow dependency (the Figure 9
  metric), and live-range register pressure (:mod:`repro.kir.analysis`),
* two interpreters — a compiled scalar engine that turns each kernel
  into one generated Python function, and a lockstep generator path
  for ``__syncthreads`` (:mod:`repro.kir.interp`).
"""

from repro.kir.types import DType
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
    For,
    If,
    Kernel,
    KernelParam,
    Load,
    Return,
    SharedDecl,
    SharedLoad,
    SharedStore,
    SpecialReg,
    Store,
    SyncThreads,
    UnOp,
    Var,
    While,
)
from repro.kir.parser import parse_kernel
from repro.kir.printer import kernel_to_source
from repro.kir.validate import validate_kernel

__all__ = [
    "DType",
    "Kernel",
    "KernelParam",
    "SharedDecl",
    "Const",
    "Var",
    "BinOp",
    "UnOp",
    "Call",
    "Load",
    "SharedLoad",
    "SpecialReg",
    "Decl",
    "Assign",
    "Store",
    "SharedStore",
    "AtomicAdd",
    "For",
    "While",
    "If",
    "Break",
    "Continue",
    "Return",
    "SyncThreads",
    "CallStmt",
    "parse_kernel",
    "kernel_to_source",
    "validate_kernel",
]
