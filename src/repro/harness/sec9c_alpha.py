"""Section IX.C — detection coverage vs alpha for MRI-FHD.

Paper: coverage is 95% / 95% / 82.8% / 81.6% at alpha = 1 / 1e3 / 1e4
/ 1e5: small alphas cost nothing (faults usually move values by >1e6x,
Figure 15), large ones let moderate excursions slip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.core.program import HauberkProgram
from repro.harness.config import BENCH, ExperimentScale
from repro.harness.reporting import pct, print_table
from repro.swifi import FaultSpec, enumerate_targets, run_campaign
from repro.workloads import get_workload

ALPHAS = (1.0, 1e3, 1e4, 1e5)


@dataclass
class Sec9cResult:
    coverage: Dict[float, float] = field(default_factory=dict)


def run_sec9c(
    scale: ExperimentScale = BENCH, workload: str = "MRI-FHD",
    alphas: Tuple[float, ...] = ALPHAS,
) -> Sec9cResult:
    wl = get_workload(workload, **scale.workload_kwargs.get(workload, {}))
    prog = HauberkProgram(wl)
    # same-dataset training, as in the coverage runs of Section IX.B/C
    prog.train(seeds=[0])
    inp = wl.generate_input(0)
    rng = np.random.default_rng(scale.seed + 93)
    # Alpha only scales the *range* detectors, so the sweep targets the
    # in-loop FP state they guard; faults on control data would be
    # caught by the alpha-independent checksum/trip detectors and mask
    # the effect ("the value of alpha only affects the detection
    # coverage of the HAUBERK loop error detector", Section IX.C).
    loop_fp = [
        s for s in enumerate_targets(wl.kernel, classes=["fp"]) if s.in_loop
    ]
    sites = loop_fp[: scale.max_targets]
    # Moderate-magnitude masks (mantissa / low exponent bits): high
    # exponent flips move values by >=1e6x and are caught at any alpha
    # (Figure 15), so the alpha trade-off lives in the band of faults
    # that multiply values by 2..2^10 — the band the paper's
    # alpha=10,000 setting starts admitting.
    specs = []
    masks_per_site = max(scale.masks_per_site, 4)
    for info in sites:
        for j in range(masks_per_site):
            position = 17 + int(rng.integers(0, 10))  # bits 17..26
            specs.append(
                FaultSpec(
                    site=info.site,
                    mask=1 << position,
                    thread=int(rng.integers(0, inp.n_threads)),
                    occurrence=int(rng.integers(1, 9)),
                    label=f"{info.name}#{j}",
                )
            )
    result = Sec9cResult()
    for alpha in alphas:
        # set_alpha precedes the campaign, so parallel workers (forked
        # per campaign) inherit the updated control block
        prog.set_alpha(alpha)
        cell = run_campaign(prog, specs, mode="fift", options=scale.campaign)
        result.coverage[alpha] = cell.counts.coverage
    return result


def print_sec9c(result: Sec9cResult) -> None:
    print_table(
        "Section IX.C - MRI-FHD coverage vs alpha",
        ["alpha", "coverage"],
        [(f"{a:g}", pct(c)) for a, c in result.coverage.items()],
    )
