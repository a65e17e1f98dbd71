"""Figure 2 — memory footprint by data type and program class.

"FP data occupy 3-6 orders of magnitude larger memory space than the
pointer and integer data taken together" in the HPC FP programs.  Both
paper-scale footprints (full Parboil problem sizes, from each
workload's ``paper_scale_bytes``) and the scaled-down simulated
footprints are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from repro.harness.config import BENCH, ExperimentScale
from repro.harness.reporting import print_table
from repro.workloads import get_workload

FP_PROGRAMS = ("CP", "MRI-FHD", "MRI-Q", "PNS", "RPES", "TPACF")
INT_PROGRAM = "SAD"
GRAPHICS = ("OCEAN", "RAYTRACE")


@dataclass
class Fig02Row:
    group: str
    fp_bytes: float
    int_bytes: float
    ptr_bytes: float

    @property
    def fp_dominance_orders(self) -> float:
        """log10(FP bytes / (int + pointer bytes))."""
        other = self.int_bytes + self.ptr_bytes
        if other <= 0 or self.fp_bytes <= 0:
            return 0.0
        return math.log10(self.fp_bytes / other)


@dataclass
class Fig02Result:
    paper_scale: List[Fig02Row] = field(default_factory=list)
    simulated: List[Fig02Row] = field(default_factory=list)


def _aggregate(names, group: str, scale: ExperimentScale, use_paper: bool) -> Fig02Row:
    fp = ii = pp = 0.0
    for name in names:
        wl = get_workload(name, **scale.workload_kwargs.get(name, {}))
        if use_paper:
            profile = wl.paper_scale_bytes
        else:
            profile = wl.memory_profile(wl.generate_input(0))
        fp += profile["fp"]
        ii += profile["integer"]
        pp += profile["pointer"]
    n = len(names)
    return Fig02Row(group=group, fp_bytes=fp / n, int_bytes=ii / n, ptr_bytes=pp / n)


def run_fig02(scale: ExperimentScale = BENCH) -> Fig02Result:
    result = Fig02Result()
    for use_paper, store in ((True, result.paper_scale), (False, result.simulated)):
        store.append(_aggregate(FP_PROGRAMS, "HPC FP programs", scale, use_paper))
        store.append(_aggregate((INT_PROGRAM,), "HPC integer program", scale, use_paper))
        store.append(_aggregate(GRAPHICS, "3D graphics programs", scale, use_paper))
    return result


def print_fig02(result: Fig02Result) -> None:
    for label, rows in (("paper-scale", result.paper_scale),
                        ("simulated", result.simulated)):
        print_table(
            f"Figure 2 - memory size by data type ({label})",
            ["program type", "FP bytes", "int bytes", "ptr bytes", "FP dominance (orders)"],
            [
                (r.group, f"{r.fp_bytes:.3g}", f"{r.int_bytes:.3g}",
                 f"{r.ptr_bytes:.3g}", f"{r.fp_dominance_orders:.2f}")
                for r in rows
            ],
        )
