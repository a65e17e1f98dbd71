"""Shared benchmark infrastructure.

Every file under ``benchmarks/`` regenerates one of the paper's tables
or figures (see DESIGN.md's per-experiment index).  Results are
printed to the live terminal (bypassing capture) and appended to
``bench_results/`` so ``pytest benchmarks/ --benchmark-only | tee ...``
records the full paper-vs-measured story.

Scale: set ``REPRO_BENCH_SCALE=smoke`` for a fast pass; the default
``campaign`` preset keeps the whole suite in the tens of minutes while
staying statistically meaningful.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness.config import SMOKE, ExperimentScale

#: Default benchmark scale: bigger than SMOKE, smaller than the paper's
#: 10,000-injections-per-app cluster campaigns.
CAMPAIGN = ExperimentScale(
    masks_per_site=3,
    max_targets=12,
    bit_counts=(1, 3, 6, 10, 15),
    training_seeds=(0, 1, 2),
    cpu_trials_per_segment=50,
    graphics_trials=18,
    fig15_samples=500_000,
    fig16_training_counts=(1, 3, 5, 7, 10, 18, 30, 50),
    fig16_eval_runs=6,
)

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    return SMOKE \
        if os.environ.get("REPRO_BENCH_SCALE", "").lower() == "smoke" \
        else CAMPAIGN


@pytest.fixture
def report(capsys, request):
    """Emit a result block to the live terminal and bench_results/."""

    def emit(text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        out = RESULTS_DIR / f"{request.node.name}.txt"
        out.write_text(text + "\n")
        with capsys.disabled():
            print()
            print(text)

    return emit
