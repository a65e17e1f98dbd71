"""Hardware fault-site taxonomy (paper Section VII(i)).

Faults are classified by the architecture component whose corruption
the injected error emulates: (a) core ALU, (b) core FPU, (c) SM
register file, (d) SM scheduler — plus memory for completeness (the
paper assumes memory paths are ECC-protected on current devices and so
focuses injections on core state).

``hardware_components_of`` performs the static derivation the paper's
translator does: "the hardware components used are statically derived
by analyzing the operation types, e.g. ALU and FPU for integer and FP
expressions respectively".

``inject_word_faults`` is the bulk memory-fault primitive: XOR error
masks into device words as one vectorized operation against the
``uint32`` backing array (multi-word burst faults, scrubbing studies).
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Sequence, Tuple

import numpy as np

from repro.errors import DeviceMemoryError
from repro.kir.astnodes import (
    BinOp,
    Call,
    Expr,
    Load,
    SharedLoad,
    UnOp,
    walk_exprs,
)
from repro.kir.types import DType

_FPU_INTRINSICS = {
    "sqrt", "rsqrt", "exp", "log", "sin", "cos", "acos", "atan2",
    "floor", "fabs", "pow", "fmin", "fmax", "float",
}


class FaultSite(enum.Enum):
    """Architecture component a fault emulates corruption of."""

    ALU = "alu"
    FPU = "fpu"
    REGISTER = "register"
    SCHEDULER = "scheduler"
    MEMORY = "memory"


def hardware_components_of(expr: Expr) -> FrozenSet[FaultSite]:
    """Components exercised by evaluating ``expr`` (static derivation)."""
    sites = {FaultSite.REGISTER}  # the result lands in a register
    for node in walk_exprs(expr):
        if isinstance(node, (BinOp, UnOp)):
            if node.dtype is DType.FLOAT32:
                sites.add(FaultSite.FPU)
            else:
                sites.add(FaultSite.ALU)
        elif isinstance(node, Call):
            if node.func in _FPU_INTRINSICS:
                sites.add(FaultSite.FPU)
            else:
                sites.add(FaultSite.ALU)
        elif isinstance(node, (Load, SharedLoad)):
            sites.add(FaultSite.MEMORY)
    return frozenset(sites)


def inject_word_faults(
    memory, addrs: Sequence[int], masks: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """XOR error masks into many device words at once.

    ``memory`` is a :class:`~repro.gpu.memory.GlobalMemory`; ``addrs``
    and ``masks`` are parallel sequences.  The masks of a repeated
    address XOR together, so the call leaves memory as one
    :meth:`~repro.gpu.memory.GlobalMemory.inject_word_fault` per lane
    would.  Returns ``(old_bits, new_bits)`` ``uint32`` arrays, one
    lane per address: its word before and after the whole call, so
    callers can journal and undo the corruption exactly.  Works on raw
    bit patterns: XOR into a NaN-holding word perturbs exactly the
    masked payload bits.  Every address is validated against the
    mapped range first — all-or-nothing, matching the single-word
    form.
    """
    addr_arr = np.asarray(addrs, dtype=np.int64).reshape(-1)
    mask_arr = np.asarray(masks, dtype=np.uint64).reshape(-1).astype(np.uint32)
    if addr_arr.size != mask_arr.size:
        raise DeviceMemoryError(
            f"fault injection with {addr_arr.size} addresses "
            f"but {mask_arr.size} masks"
        )
    if addr_arr.size == 0:
        empty = np.empty(0, dtype=np.uint32)
        return empty, empty
    bad = (addr_arr < 0) | (addr_arr >= memory.mapped_end)
    if bool(bad.any()):
        addr = int(addr_arr[bad][0])
        raise DeviceMemoryError(f"fault injection outside mapped memory: {addr}")
    uniq, lane_of = np.unique(addr_arr, return_inverse=True)
    if uniq.size < addr_arr.size:
        combined = np.zeros(uniq.size, dtype=np.uint32)
        np.bitwise_xor.at(combined, lane_of, mask_arr)
        mask_arr = combined[lane_of]
    old_bits = memory.gather_words(addr_arr)
    new_bits = old_bits ^ mask_arr
    memory.scatter_words(addr_arr, new_bits)
    return old_bits, new_bits
