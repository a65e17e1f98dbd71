#!/usr/bin/env python
"""Fault-injection campaign on a Parboil workload (Sections VII-IX).

Runs two scaled-down campaigns against MRI-Q — one on the unprotected
binary (baseline sensitivity, Figure 1's method) and one on the FI&FT
build (HAUBERK coverage, Figure 14's method) — and prints the outcome
breakdown per error-bit count.

Run:  python examples/fault_injection_campaign.py
"""

from repro.core.program import HauberkProgram
from repro.harness.reporting import pct, print_table
from repro.swifi import build_fault_specs, run_campaign, select_targets
from repro.swifi.outcomes import Outcome
from repro.workloads import get_workload

import numpy as np

BITS = (1, 6, 15)
MASKS_PER_SITE = 3
MAX_TARGETS = 12


def main():
    wl = get_workload("MRI-Q")
    prog = HauberkProgram(wl)
    print(f"training HAUBERK loop detectors on 4 input sets...")
    prog.train(seeds=[0, 1, 2, 3])

    inp = wl.generate_input(0)
    rng = np.random.default_rng(42)
    sites = select_targets(wl.kernel, MAX_TARGETS, rng)
    print(f"injecting into {len(sites)} virtual variables "
          f"({MASKS_PER_SITE} masks each) over {inp.n_threads} threads\n")

    rows = []
    for mode, label in (("fi", "baseline"), ("fift", "HAUBERK")):
        runner = prog.trial_runner(mode)
        golden = runner(None)  # a fault-free run must be clean
        assert not golden.failure and golden.output_ok, \
            f"{mode} fault-free run is not clean: campaign would be meaningless"
        for bits in BITS:
            specs = build_fault_specs(
                sites, n_threads=inp.n_threads,
                masks_per_site=MASKS_PER_SITE, bit_counts=(bits,), seed=bits,
            )
            result = run_campaign(None, specs, runner_factory=lambda: runner)
            c = result.counts
            rows.append(
                (label, bits, c.total,
                 pct(c.fraction(Outcome.FAILURE)),
                 pct(c.fraction(Outcome.MASKED)),
                 pct(c.detected_ratio),
                 pct(c.sdc_ratio),
                 pct(c.coverage))
            )
    print_table(
        "MRI-Q fault injection outcomes",
        ["build", "bits", "trials", "failure", "masked", "detected", "SDC",
         "coverage"],
        rows,
    )
    print("Expected shape (paper): baseline SDC is large (~39% for FP state);")
    print("HAUBERK cuts the undetected-SDC ratio to ~13% on average (87% coverage).")


if __name__ == "__main__":
    main()
