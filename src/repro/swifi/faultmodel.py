"""Fault specifications: what to corrupt, where, and when.

A fault is fully described by (Section VII): the *location* — which
virtual variable (site) of which thread — the *type* — the 32-bit
error mask (1 bit = SEU; several bits = multi-bit error) — and the
*time* — which dynamic occurrence of the definition to hit.  One
program execution activates at most one fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bits import bit_count
from repro.errors import InjectionError
from repro.gpu.faults import FaultSite


@dataclass
class FaultSpec:
    """One planned fault injection."""

    #: Virtual-variable site id to corrupt.
    site: int
    #: 32-bit XOR error mask.
    mask: int
    #: Global thread index whose copy of the variable is corrupted.
    thread: int = 0
    #: Which dynamic execution of the definition to corrupt (1-based).
    occurrence: int = 1
    #: Number of consecutive occurrences corrupted.  1 models a
    #: transient SEU; larger values emulate an intermittent fault that
    #: stays active for a window of executions (the paper's ~80us FPU
    #: fault corrupting ~10,000 values, Section II.A / Figure 3b).
    burst: int = 1
    #: When the fault strikes. ``"definition"`` corrupts the value as
    #: it is produced (the occurrence counts executions of *this*
    #: site); ``"delayed"`` corrupts the live variable at an arbitrary
    #: later point of the thread's execution (the occurrence counts the
    #: thread's instrumentation events) — the Figure 12 "injection
    #: time" knob, essential for parameters, whose single definition
    #: precedes every use.
    timing: str = "definition"
    #: The hardware component this emulates (bookkeeping only).
    hw_site: FaultSite = FaultSite.REGISTER
    #: Free-form label for reports.
    label: str = ""

    def __post_init__(self) -> None:
        if self.mask == 0 or self.mask != self.mask & 0xFFFFFFFF:
            raise InjectionError(f"invalid error mask 0x{self.mask:x}")
        if self.occurrence < 1:
            raise InjectionError(f"occurrence must be >= 1, got {self.occurrence}")
        if self.burst < 1:
            raise InjectionError(f"burst must be >= 1, got {self.burst}")
        if self.thread < 0:
            raise InjectionError(f"invalid thread index {self.thread}")
        if self.timing not in ("definition", "delayed"):
            raise InjectionError(f"unknown timing {self.timing!r}")

    @property
    def is_intermittent(self) -> bool:
        return self.burst > 1

    @property
    def n_bits(self) -> int:
        return bit_count(self.mask)


@dataclass
class ActivationRecord:
    """Evidence that a planned fault actually fired during a run."""

    spec: FaultSpec
    variable: str
    original: object
    corrupted: object
    block: int = -1
    thread_in_block: int = -1
    #: Dynamic statement index at activation (ctx.steps of the thread).
    at_step: int = 0
    #: How many occurrences were corrupted (1 transient, >1 intermittent).
    n_injections: int = 1


@dataclass
class InjectionState:
    """Mutable per-run state carried by the FI library."""

    spec: Optional[FaultSpec] = None
    activation: Optional[ActivationRecord] = None
    #: Dynamic occurrence counters keyed by (site, global thread id),
    #: kept for the victim thread only and stopped at the last strike.
    counters: dict = field(default_factory=dict)

    @property
    def activated(self) -> bool:
        return self.activation is not None

    def reset(self, spec: Optional[FaultSpec]) -> None:
        self.spec = spec
        self.activation = None
        self.counters.clear()
