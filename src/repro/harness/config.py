"""Experiment scaling presets.

The paper injects ~10,000 faults per application on a GPU cluster;
this reproduction runs on one CPU interpreting every kernel statement,
so campaign sizes are scaled down but structured identically (per-site
masks, per-class sampling, seeded).  ``SMOKE`` keeps the full suite in
seconds for tests; ``BENCH`` is the default for benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.swifi.options import CampaignOptions


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs shared by the campaign-driven figures."""

    #: Error masks drawn per virtual-variable site (paper: 50).
    masks_per_site: int = 4
    #: Error-bit counts evaluated in Figure 14 (paper: 1,3,6,10,15).
    bit_counts: Tuple[int, ...] = (1, 3, 6, 10, 15)
    #: Training inputs for the profiler before coverage runs.
    training_seeds: Tuple[int, ...] = (0, 1, 2, 3, 4)
    #: Max sites sampled per kernel (paper selects 20-50 variables).
    max_targets: int = 24
    #: CPU-simulator trials per segment (Figure 1 bottom rows).
    cpu_trials_per_segment: int = 60
    #: Graphics trials per class for the Figure 1 graphics rows.
    graphics_trials: int = 30
    #: FP samples for the Figure 15 bit-flip magnitude study
    #: (paper: 33 million; vectorized, so this can be generous).
    fig15_samples: int = 200_000
    #: Training-set counts swept in Figure 16 (paper x-axis).
    fig16_training_counts: Tuple[int, ...] = (1, 3, 5, 7, 10, 18, 30, 50)
    #: Held-out evaluations per point in Figure 16 (paper: 2 sets x 10).
    fig16_eval_runs: int = 10
    #: Workload construction overrides per name (bigger = closer to
    #: the paper's loop fractions, slower to simulate).
    workload_kwargs: Dict[str, dict] = field(default_factory=dict)
    #: Campaign execution options — workers, seed, differential
    #: replay, journaling/resume, retry policy, profiling, progress —
    #: in one :class:`~repro.swifi.options.CampaignOptions`.  The CLI's
    #: campaign flags override this via
    #: ``dataclasses.replace(scale, campaign=scale.campaign.evolve(...))``.
    campaign: CampaignOptions = field(default_factory=CampaignOptions)
    seed: int = 2011


#: Fast preset for the test suite.
SMOKE = ExperimentScale(
    masks_per_site=2,
    bit_counts=(1, 6),
    training_seeds=(0, 1),
    max_targets=10,
    cpu_trials_per_segment=15,
    graphics_trials=8,
    fig15_samples=20_000,
    fig16_training_counts=(1, 3, 7),
    fig16_eval_runs=4,
)

#: Default benchmark preset (campaign figures run the small default
#: workload instances to keep thousands of injected runs tractable).
BENCH = ExperimentScale(masks_per_site=4, max_targets=16)

#: Timing-figure preset: larger loop trip counts so the Figure 4 loop
#: fractions approach the paper's ">98% in 5 of 7 programs".  Only the
#: single-run figures (4, 13) use it — each workload executes a
#: handful of times, not thousands.
LOOPY = ExperimentScale(
    masks_per_site=4,
    max_targets=16,
    workload_kwargs={
        "CP": {"numatoms": 96},
        "MRI-Q": {"numk": 64},
        "MRI-FHD": {"numk": 64},
        "PNS": {"steps": 192},
        "SAD": {"width": 36, "height": 12, "mbsize": 6},
        "TPACF": {"npoints": 64},
        "RPES": {},
    },
)
