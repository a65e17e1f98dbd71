"""Statistical campaign planner — sampling accuracy.

The planner's savings claim (``repro.swifi.planner``), measured end to
end: for CP and PNS, an exhaustive ``fi`` campaign establishes the
ground-truth SDC ratio; a stratified plan running at most 20% of the
population must bracket that truth inside its 95% confidence interval.
This is the Two-Level-Model bet: the (section, sensitivity, bit-band,
thread-band) strata are homogeneous enough that a fifth of the trials
pins the campaign-level rates.

Both campaigns are timed in seconds per pass, each repeated until it
has run ``MIN_TIMED_SECONDS``, so ``speedup_planned_vs_exhaustive``
compares measurable times.  Results land in ``BENCH_planner.json`` at
the repo root with the active scale preset recorded (``scripts/bench_trend.py`` refuses
cross-scale comparisons).
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time

import numpy as np

from repro.core.program import HauberkProgram
from repro.harness.reporting import format_table
from repro.swifi import (
    CampaignOptions,
    build_fault_specs,
    run_campaign,
    select_targets,
)
from repro.workloads import get_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Acceptance bar: the planned campaign may spend at most this fraction
#: of the exhaustive population.
BUDGET_FRACTION = 0.20

#: Each timed side repeats its campaign until it has run this long, so
#: the planned-vs-exhaustive ratio compares times well above timer and
#: scheduler noise (a CP pass takes tens of milliseconds).
MIN_TIMED_SECONDS = 0.5


def _per_pass(run):
    """``(first result, seconds per pass, passes)`` of calling ``run``
    until ``MIN_TIMED_SECONDS`` have passed."""
    passes = 0
    start = time.perf_counter()
    while True:
        result = run()
        if passes == 0:
            first = result
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_TIMED_SECONDS:
            return first, elapsed / passes, passes


def _scale_name():
    raw = os.environ.get("REPRO_BENCH_SCALE", "").lower()
    return "smoke" if raw == "smoke" else "campaign"


def _population(scale, name):
    """A spec population large enough that 20% of it is a real sample.

    The scale preset's ``masks_per_site`` targets exhaustive campaign
    *wall time*; here the exhaustive run is the baseline being beaten,
    so the population is widened (more masks per site) to give the 20%
    budget a statistically meaningful allocation per stratum.
    """
    wl = get_workload(name)
    rng = np.random.default_rng(scale.seed + 31)
    sites = select_targets(wl.kernel, scale.max_targets, rng)
    inp = wl.generate_input(0)
    specs = build_fault_specs(
        sites, n_threads=inp.n_threads,
        masks_per_site=max(6, scale.masks_per_site * 2),
        bit_counts=(1, 2, 3, 6, 10), seed=scale.seed + 31,
    )
    return wl, specs


def _accuracy_entry(scale, name):
    wl, specs = _population(scale, name)
    budget = max(4, math.floor(len(specs) * BUDGET_FRACTION))

    exhaustive, exhaustive_seconds, exhaustive_passes = _per_pass(
        lambda: run_campaign(HauberkProgram(wl), specs, mode="fi"))
    truth = exhaustive.summary()["sdc_ratio"]

    planned, planned_seconds, planned_passes = _per_pass(lambda: run_campaign(
        HauberkProgram(get_workload(name)), specs, mode="fi",
        options=CampaignOptions(budget=budget),
    ))
    plan = planned.summary()["plan"]
    lo, hi = plan["estimates"]["sdc_ratio"]["ci"]

    return {
        "population": len(specs),
        "budget": budget,
        "trials_run": len(planned.trials),
        "trials_saved_ratio": round(plan["trials_saved"] / len(specs), 4),
        "exhaustive_sdc_ratio": round(truth, 6),
        "estimated_sdc_ratio": round(
            plan["estimates"]["sdc_ratio"]["value"], 6
        ),
        "ci": [round(lo, 6), round(hi, 6)],
        "contained": bool(lo - 1e-12 <= truth <= hi + 1e-12),
        "strata": plan["strata"],
        "exhaustive_seconds": round(exhaustive_seconds, 4),
        "exhaustive_passes": exhaustive_passes,
        "planned_seconds": round(planned_seconds, 4),
        "planned_passes": planned_passes,
        "speedup_planned_vs_exhaustive": round(
            exhaustive_seconds / planned_seconds, 3
        ),
    }


def test_planner_accuracy(scale, report):
    workloads = {
        name: _accuracy_entry(scale, name) for name in ("CP", "PNS")
    }

    payload = {
        "benchmark": "planner",
        "mode": "fi",
        "scale": _scale_name(),
        "budget_fraction": BUDGET_FRACTION,
        "workloads": workloads,
    }
    (REPO_ROOT / "BENCH_planner.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    report(format_table(
        f"Planner accuracy - fi, {_scale_name()} scale, "
        f"<= {BUDGET_FRACTION:.0%} budget",
        ["workload", "population", "budget", "exhaustive", "estimate",
         "95% CI", "contained", "saved"],
        [
            (
                name, e["population"], e["budget"],
                f"{e['exhaustive_sdc_ratio']:.4f}",
                f"{e['estimated_sdc_ratio']:.4f}",
                f"[{e['ci'][0]:.3f}, {e['ci'][1]:.3f}]",
                "yes" if e["contained"] else "NO",
                f"{e['trials_saved_ratio']:.0%}",
            )
            for name, e in workloads.items()
        ],
    ))

    # acceptance: a <= 20% budget brackets the exhaustive SDC ratio
    for name, entry in workloads.items():
        assert entry["trials_run"] <= entry["budget"]
        assert entry["budget"] <= math.ceil(
            entry["population"] * BUDGET_FRACTION
        )
        assert entry["contained"], (
            f"{name}: exhaustive sdc {entry['exhaustive_sdc_ratio']} "
            f"outside CI {entry['ci']}"
        )
