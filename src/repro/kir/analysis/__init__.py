"""Static analyses over KIR kernels.

These are the analyses the paper's translator needs:

* :mod:`repro.kir.analysis.dataflow` — virtual-variable site table,
  read/write sets, self-accumulator detection (Section V).
* :mod:`repro.kir.analysis.loops` — loop nest and static trip-count
  derivation for the ``HauberkCheckEqual`` invariant (Section V.B).
* :mod:`repro.kir.analysis.dependency` — cumulative backward dataflow
  dependency, the loop-detector target-selection metric (Figure 9).
* :mod:`repro.kir.analysis.liveness` — live-range overlap as a
  register-pressure estimate (drives spill cost in the GPU model,
  Section V.A's motivation for checksum duplication).
* :mod:`repro.kir.analysis.intervals` — range guards and the int32
  operations a fast loop iteration of the compiled engine may compute
  without the wrap.
"""

from repro.kir.analysis.dataflow import (
    SiteInfo,
    collect_sites,
    names_read_expr,
    names_read_stmt,
    names_written_stmt,
    is_self_accumulating,
)
from repro.kir.analysis.loops import LoopInfo, find_loops, derive_trip_count
from repro.kir.analysis.dependency import (
    DependencyGraph,
    build_loop_dependency_graph,
    cumulative_backward_dependency,
    select_loop_targets,
    LoopTargetSelection,
)
from repro.kir.analysis.liveness import live_intervals, register_pressure

__all__ = [
    "SiteInfo",
    "collect_sites",
    "names_read_expr",
    "names_read_stmt",
    "names_written_stmt",
    "is_self_accumulating",
    "LoopInfo",
    "find_loops",
    "derive_trip_count",
    "DependencyGraph",
    "build_loop_dependency_graph",
    "cumulative_backward_dependency",
    "select_loop_targets",
    "LoopTargetSelection",
    "live_intervals",
    "register_pressure",
]

from repro.kir.analysis.sections import (  # noqa: E402
    Section,
    kernel_sections,
    site_section_map,
)

__all__ += [
    "Section",
    "kernel_sections",
    "site_section_map",
]
