"""Dataflow sections: the partition of a kernel into dataflow regions.

The Two-Level Model (Hari et al., PAPERS.md) gets its injection savings
from grouping sites whose faults behave alike.  This pass supplies the
grouping for our mini-CUDA kernels: :func:`kernel_sections` partitions
a kernel's top-level body at the natural dataflow boundaries —
``__syncthreads()`` barriers and top-level loops — into ordered
:class:`Section` regions.  Parameters form a dedicated leading section
(they are defined before any statement runs).  Nested control flow
stays inside its enclosing section: only *top-level* loop headers start
a new region, because a loop is the unit the detectors instrument and
the unit Figure 4 attributes cycles to.

:func:`site_section_map` maps every injection site to its section.  The
journal tags each record with it so ``repro report`` can print
per-section outcome rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import KIRValidationError
from repro.kir.astnodes import For, Kernel, Stmt, SyncThreads, While, walk_stmts


@dataclass
class Section:
    """One contiguous dataflow region of a kernel's top-level body."""

    index: int
    #: Stable name ("s0", "s1", ...) used in journal records and reports.
    name: str
    #: ``"params"`` | ``"straight"`` | ``"loop"``.
    kind: str
    statements: List[Stmt] = field(default_factory=list)
    #: Virtual-variable sites defined inside (nested statements included).
    site_ids: List[int] = field(default_factory=list)


def _section_sites(statements: Sequence[Stmt]) -> List[int]:
    sites = []
    for top in statements:
        for stmt, _depth in walk_stmts([top]):
            if stmt.site >= 0:
                sites.append(stmt.site)
    return sorted(set(sites))


def _close_group(sections: List[Section], group: List[Stmt], kind: str) -> None:
    if not group:
        return
    sections.append(Section(
        index=len(sections),
        name=f"s{len(sections)}",
        kind=kind,
        statements=list(group),
        site_ids=_section_sites(group),
    ))
    group.clear()


def kernel_sections(kernel: Kernel) -> List[Section]:
    """Ordered section partition of a validated kernel.

    Section 0 is always the parameter section; body statements follow,
    split at top-level loops (one section per loop, nested content
    included) and after ``__syncthreads()`` barriers (the barrier
    terminates the section it ends, mirroring its role as a dataflow
    join point).
    """
    if not kernel.validated:
        raise KIRValidationError("kernel must be validated before analysis")
    sections: List[Section] = [Section(
        index=0,
        name="s0",
        kind="params",
        site_ids=sorted(p.site for p in kernel.params),
    )]
    group: List[Stmt] = []
    for stmt in kernel.body:
        if isinstance(stmt, (For, While)):
            _close_group(sections, group, "straight")
            _close_group(sections, [stmt], "loop")
        elif isinstance(stmt, SyncThreads):
            group.append(stmt)
            _close_group(sections, group, "straight")
        else:
            group.append(stmt)
    _close_group(sections, group, "straight")
    return sections


def site_section_map(
    kernel: Kernel, sections: Optional[List[Section]] = None
) -> Dict[int, str]:
    """Map every virtual-variable site id to its section name."""
    if sections is None:
        sections = kernel_sections(kernel)
    mapping: Dict[int, str] = {}
    for sec in sections:
        for site in sec.site_ids:
            mapping[site] = sec.name
    return mapping
