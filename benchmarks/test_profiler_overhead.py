"""Profiler overhead: the campaign phase profiler costs at most 5%.

Times CP's Figure 14 campaigns at the ``BENCH`` preset (16 sampled
sites x 4 masks, one campaign per error-bit count, FI&FT build, trained
detectors) through ``repro.swifi.run_campaign`` with the phase profiler
off and on, on the configuration campaigns actually run hot: serial,
differential replay.  The trials that hang are left out: a hang costs
its statement budget, or its hang verdict, whether profiled or not, so
timing them would dilute the overhead the bound is about.  The same
plan with its hangs is e2ebench's traffic (``e2ebench/run.py``), whose
``--trace 1`` run reports the profiler's per-layer ledger.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.program import HauberkProgram
from repro.harness.config import BENCH
from repro.harness.fig14_coverage import NAMES
from repro.swifi import (
    CampaignOptions,
    build_fault_specs,
    run_campaign,
    select_targets,
)
from repro.workloads import get_workload

#: Process-time seconds each side of the comparison runs at least.  A
#: pass over the plan takes well under a tenth of a second; with 2 s a
#: side, three runs on a shared 2-vCPU VM agreed within 3 points.
MIN_TIMED_SECONDS = 2.0
#: Profiling may cost at most this share of a campaign's time.
PROFILER_OVERHEAD_BOUND = 0.05


def _ending_plan(program):
    """CP's Figure 14 campaigns at ``BENCH``, without their hanging trials."""
    assert NAMES[0] == "CP"  # no other benchmark's draws come first
    rng = np.random.default_rng(BENCH.seed + 14)
    sites = select_targets(program.workload.kernel, BENCH.max_targets, rng)
    inp, _golden = program.campaign_io(0)
    plan = []
    for bits in BENCH.bit_counts:
        specs = build_fault_specs(
            sites, n_threads=inp.n_threads,
            masks_per_site=BENCH.masks_per_site, bit_counts=(bits,),
            seed=BENCH.seed + bits,
        )
        result = run_campaign(program, specs, mode="fift",
                              options=CampaignOptions())
        plan.append([t.spec for t in result.trials
                     if not t.observation.note.startswith("kernel hang")])
    return plan


def test_profiler_overhead(report):
    program = HauberkProgram(get_workload("CP"))
    program.train(seeds=[0])
    plan = _ending_plan(program)  # also warms every cache outside the timer

    # the two sides alternate, campaign by campaign, until each has run
    # MIN_TIMED_SECONDS; process time leaves out the time other
    # processes hold the CPU
    totals = {False: 0.0, True: 0.0}
    passes = 0
    while min(totals.values()) < MIN_TIMED_SECONDS:
        for specs in plan:
            for profile in (False, True):
                options = CampaignOptions(profile=profile)
                start = time.process_time()
                run_campaign(program, specs, mode="fift", options=options)
                totals[profile] += time.process_time() - start
        passes += 1
    off, on = totals[False], totals[True]
    overhead = on / off - 1.0

    n_trials = sum(map(len, plan))
    report(
        f"profiler overhead (CP Figure 14 BENCH plan, {n_trials} ending "
        f"trials in {len(plan)} campaigns, {passes} interleaved passes a "
        f"side): {overhead * 100:+.1f}% ({off / passes * 1000:.2f}ms -> "
        f"{on / passes * 1000:.2f}ms per pass)"
    )
    # the flight recorder's bound; the absolute escape for timer noise
    # is 5% of one side's minimum timed region
    assert (overhead <= PROFILER_OVERHEAD_BOUND
            or on - off <= PROFILER_OVERHEAD_BOUND * MIN_TIMED_SECONDS), \
        (off, on, passes)
