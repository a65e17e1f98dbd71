"""Ablation studies of the design choices DESIGN.md calls out.

Not figures from the paper, but the studies a reviewer would ask for:

* **Maxvar sweep** — Section V.B lets users protect up to Maxvar loop
  variables; the paper evaluates Maxvar=1.  More protected variables
  should buy coverage for extra loop-body adds.
* **Checksum-only NL** — drop the duplicated computations and keep only
  the shared checksum: cheaper non-loop protection that can no longer
  catch errors *during* a computation, only corruption of the stored
  value afterwards.
* **Trip-count invariant** — the HauberkCheckEqual detector is what
  catches loop-control corruption (Section IX.B's corrupted-iterator
  case); faults on the loop iterator must be caught.
"""

import numpy as np
import pytest

from repro.core.program import HauberkProgram
from repro.core.translator import TranslatorOptions
from repro.harness.reporting import format_table, pct
from repro.swifi import (
    FaultSpec,
    build_fault_specs,
    enumerate_targets,
    run_campaign,
)
from repro.workloads import get_workload


def _coverage_and_overhead(name, options, scale, seed=11):
    wl = get_workload(name)
    prog = HauberkProgram(wl, options=options)
    prog.train(seeds=list(scale.training_seeds))
    inp = wl.generate_input(0)
    baseline = prog.measure_time("original", inp=inp)
    ft_time = prog.measure_time("ft", inp=inp)
    sites = enumerate_targets(wl.kernel)[: scale.max_targets]
    specs = build_fault_specs(
        sites, n_threads=inp.n_threads,
        masks_per_site=scale.masks_per_site, bit_counts=(1, 6), seed=seed,
    )
    result = run_campaign(
        None, specs, runner_factory=lambda: prog.trial_runner("fift")
    )
    return result.counts.coverage, 100.0 * (ft_time / baseline - 1.0)


def test_maxvar_sweep(benchmark, scale, report):
    """More protected loop variables: >= coverage, >= overhead."""

    def run():
        rows = {}
        for maxvar in (1, 2, 3):
            rows[maxvar] = _coverage_and_overhead(
                "MRI-FHD", TranslatorOptions(maxvar=maxvar), scale
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(format_table(
        "Ablation - Maxvar sweep on MRI-FHD",
        ["Maxvar", "coverage", "overhead"],
        [(m, pct(c), f"{o:.1f}%") for m, (c, o) in rows.items()],
    ))
    cov1, oh1 = rows[1]
    cov3, oh3 = rows[3]
    assert oh3 >= oh1 - 0.5  # extra accumulators cost cycles
    assert cov3 >= cov1 - 0.05  # and never meaningfully hurt coverage


def test_checksum_only_ablation(benchmark, scale, report):
    """Dropping duplication cuts RPES's overhead, trading detection."""

    def run():
        full = _coverage_and_overhead("RPES", TranslatorOptions(), scale)
        cheap = _coverage_and_overhead(
            "RPES", TranslatorOptions(nl_checksum_only=True), scale
        )
        return full, cheap

    (full_cov, full_oh), (cheap_cov, cheap_oh) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    report(format_table(
        "Ablation - checksum-only HAUBERK-NL on RPES",
        ["variant", "coverage", "overhead"],
        [("full NL (dup + checksum)", pct(full_cov), f"{full_oh:.1f}%"),
         ("checksum only", pct(cheap_cov), f"{cheap_oh:.1f}%")],
    ))
    assert cheap_oh < full_oh  # the duplication is the expensive half
    assert cheap_cov <= full_cov + 0.05


def test_trip_count_detector_catches_iterator_faults(benchmark, scale, report):
    """Corrupting the loop iterator must trip HauberkCheckEqual or hang."""

    def run():
        wl = get_workload("MRI-Q")
        prog = HauberkProgram(wl)
        prog.train(seeds=list(scale.training_seeds))
        inp = wl.generate_input(0)
        iter_sites = [
            s for s in enumerate_targets(wl.kernel)
            if s.name == "k" and s.kind == "assign"
        ]
        outcomes = {"detected": 0, "failure": 0, "escaped": 0, "masked": 0}
        rng = np.random.default_rng(3)
        for j in range(16):
            spec = FaultSpec(
                site=iter_sites[0].site,
                mask=1 << int(rng.integers(0, 31)),
                thread=int(rng.integers(0, inp.n_threads)),
                occurrence=int(rng.integers(1, wl.numk // 2)),
            )
            result = prog.run(mode="fift", inp=inp, fault=spec)
            golden = wl.golden(inp)
            if result.status.value != "ok":
                outcomes["failure"] += 1
            elif result.alarm:
                outcomes["detected"] += 1
            elif wl.spec.check(result.output, golden):
                outcomes["masked"] += 1
            else:
                outcomes["escaped"] += 1
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    total = sum(outcomes.values())
    report(format_table(
        "Ablation - loop-iterator faults vs the trip-count invariant (MRI-Q)",
        ["outcome", "count", "fraction"],
        [(k, v, pct(v / total)) for k, v in outcomes.items()],
    ))
    # iterator corruption must essentially never escape silently
    assert outcomes["escaped"] <= max(1, total // 8)
    assert outcomes["detected"] + outcomes["failure"] >= total // 3
