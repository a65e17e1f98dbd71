"""Live-range estimation and register-pressure scoring.

Section V.A motivates the checksum design with register pressure: naive
duplication "can largely increase the register pressure (e.g. by two
times)" causing spill traffic, while Hauberk's duplicate "is alive only
for two statements".  The GPU cost model charges a spill penalty when
per-thread pressure exceeds the device's register budget, so these
estimates are what make Figure 13's MRI-Q / MRI-FHD behaviour emerge.

The estimate linearizes the kernel in ``walk_stmts`` order and gives
every scalar variable an interval [first definition, last use], with
the standard structured-loop extension: a value used anywhere inside a
loop is live across the whole loop span (it must survive the back
edge).  Pressure is the maximum interval overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import KIRValidationError
from repro.kir.astnodes import (
    Assign,
    Decl,
    Kernel,
    Stmt,
    walk_stmts,
)
from repro.kir.analysis.dataflow import _loop_spans


@dataclass
class LiveInterval:
    """Half-open live range of one variable over walk positions."""

    name: str
    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start


def live_intervals(kernel: Kernel) -> List[LiveInterval]:
    """Live intervals for all scalar locals and parameters."""
    if not kernel.validated:
        raise KIRValidationError("kernel must be validated before analysis")
    order = list(walk_stmts(kernel.body))
    spans = _loop_spans(order)

    first_def: Dict[str, int] = {p.name: 0 for p in kernel.params}
    last_use: Dict[str, int] = {p.name: 0 for p in kernel.params}

    def note_use(name: str, pos: int) -> None:
        if name in first_def:
            last_use[name] = max(last_use.get(name, pos), pos)

    # uses at each statement (shallow: compound stmts contribute their
    # own children when visited), computed once for both passes
    reads = [_shallow_reads(stmt) for stmt, _depth in order]

    for pos, (stmt, _depth) in enumerate(order):
        for name in reads[pos]:
            note_use(name, pos)
        if isinstance(stmt, Decl) and stmt.name not in first_def:
            first_def[stmt.name] = pos
            last_use.setdefault(stmt.name, pos)
        elif isinstance(stmt, Assign):
            first_def.setdefault(stmt.name, pos)
            last_use[stmt.name] = max(last_use.get(stmt.name, pos), pos)

    # Loop extension: any variable used inside a loop but defined before
    # it stays live through the loop's entire span.
    for span in spans.values():
        span_reads = frozenset().union(*(reads[p] for p in span))
        for name, fd in first_def.items():
            if fd < span.start and name in span_reads:
                last_use[name] = max(last_use[name], span.stop - 1)

    return [
        LiveInterval(name=n, start=first_def[n], end=last_use.get(n, first_def[n]))
        for n in first_def
    ]


def _shallow_reads(stmt: Stmt) -> frozenset:
    """Names read directly by a statement (not by nested blocks)."""
    from repro.kir.astnodes import child_exprs
    from repro.kir.analysis.dataflow import names_read_expr

    names = set()
    for e in child_exprs(stmt):
        names |= names_read_expr(e)
    return frozenset(names)


def register_pressure(kernel: Kernel) -> int:
    """Maximum number of simultaneously live scalar values.

    This approximates the per-thread register requirement the CUDA
    compiler would report; the GPU cost model compares it with the
    device's registers-per-thread budget to decide spill cost.
    """
    intervals = live_intervals(kernel)
    events: List[Tuple[int, int]] = []
    for iv in intervals:
        events.append((iv.start, 1))
        events.append((iv.end + 1, -1))
    events.sort()
    live = peak = 0
    for _pos, delta in events:
        live += delta
        peak = max(peak, live)
    return peak
