"""Smoke tests for every figure driver at SMOKE scale, plus reporting."""

import warnings

import numpy as np
import pytest

from repro.harness.config import SMOKE, ExperimentScale
from repro.harness.reporting import format_table, pct


class TestReporting:
    def test_format_table(self):
        text = format_table("T", ["a", "bb"], [(1, 2.5), ("x", "y")])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert len(lines) == 6

    def test_pct(self):
        assert pct(0.123).strip() == "12.3%"


class TestFig02:
    def test_fp_dominance(self):
        from repro.harness.fig02_memory import run_fig02

        result = run_fig02(SMOKE)
        paper = {r.group: r for r in result.paper_scale}
        # FP programs: FP data dominates by >1 order of magnitude
        assert paper["HPC FP programs"].fp_dominance_orders > 1.0
        # the integer program is integer-dominated
        assert paper["HPC integer program"].int_bytes > paper["HPC integer program"].fp_bytes


class TestFig03:
    def test_transient_vs_intermittent(self):
        from repro.harness.fig03_graphics import run_fig03

        result = run_fig03(SMOKE)
        assert not result.transient_noticeable  # Observation: no SDC
        assert result.intermittent_noticeable  # Observation 3
        assert result.intermittent.corrupted_pixels > 10 * max(
            result.transient.corrupted_pixels, 1
        )


class TestFig04:
    def test_loop_fractions(self):
        from repro.harness.fig04_loops import run_fig04

        result = run_fig04(SMOKE)
        fracs = result.loop_fraction
        assert fracs["RPES"] < 0.6  # the outlier
        dominated = [n for n, f in fracs.items() if f > 0.9]
        assert len(dominated) >= 5  # Observation 4's "5 out of 7"
        assert 0.75 < result.average < 0.95


class TestFig09:
    def test_energyx2_selected(self):
        from repro.harness.fig09_dependency import run_fig09

        result = run_fig09(SMOKE)
        assert result.scores["energyx2"] > result.scores["energyx1"]
        assert result.selected == ["energyx2"]
        assert "energyx1" in result.self_accumulating


class TestFig10:
    def test_value_clustering(self):
        from repro.harness.fig10_ranges import run_fig10

        result = run_fig10(SMOKE)
        by_name = {d.name: d for d in result.distributions}
        # integer loop counters have a sharp peak
        assert by_name["k"].peak > 0.5
        # the accumulators show multiple sign correlation points
        assert by_name["qr"].correlation_points >= 2
        assert by_name["qi"].correlation_points >= 2


class TestFig15:
    def test_more_bits_bigger_changes(self):
        from repro.harness.fig15_bitflip import run_fig15

        result = run_fig15(SMOKE)
        for range_label in ("1E-3~1E+3", "1E+3~1E+15"):
            huge = [result.huge_change_fraction(range_label, b) for b in (1, 3, 6, 10, 15)]
            assert huge == sorted(huge)  # monotone in bit count
        # huge original values almost always change hugely
        assert result.huge_change_fraction("1E+15~1E+45", 15) > 0.95

    def test_signalling_nans_raise_no_warning(self):
        from repro.harness.fig15_bitflip import run_fig15

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # as under -W error::RuntimeWarning
            run_fig15(SMOKE)


class TestSec9d:
    def test_instrumentation_fast_and_complete(self):
        from repro.harness.sec9d_instrumentation import run_sec9d

        result = run_sec9d(SMOKE)
        assert len(result.rows) == 7
        assert result.avg_seconds < 1.0  # well under the paper's 81 s
        for row in result.rows:
            assert row.ft_lines > row.kernel_lines
            assert row.detectors >= 1


@pytest.mark.slow
class TestCampaignFigures:
    def test_fig01_shape(self):
        from repro.harness.fig01_sensitivity import run_fig01

        result = run_fig01(SMOKE)
        hpc_fp = result.row("gpu_hpc", "fp")
        hpc_ptr = result.row("gpu_hpc", "pointer")
        # Observation 2: FP faults essentially never crash GPU kernels
        assert hpc_fp.failure < 0.05
        assert hpc_ptr.failure > 0.2
        # graphics FP: no SDC for single-bit faults
        assert result.row("gpu_graphics", "fp").sdc < 0.15
        # CPU SDC is far below GPU HPC SDC
        gpu_sdc = np.mean([result.row("gpu_hpc", c).sdc for c in ("pointer", "integer", "fp")])
        cpu_sdc = np.mean([result.row("cpu", s).sdc for s in ("stack", "data", "code")])
        assert cpu_sdc < gpu_sdc / 2

    def test_fig14_coverage(self):
        from repro.harness.fig14_coverage import run_fig14

        scale = ExperimentScale(
            masks_per_site=2, bit_counts=(1, 6), training_seeds=(0, 1),
            max_targets=8,
        )
        result = run_fig14(scale, names=("CP", "MRI-Q"))
        assert result.average_coverage() > 0.6

    def test_fig16_shape(self):
        from repro.harness.fig16_falsepos import run_fig16

        scale = ExperimentScale(
            fig16_training_counts=(1, 7), fig16_eval_runs=4,
        )
        result = run_fig16(scale, programs=("PNS", "MRI-FHD"))
        pns = result.series("PNS")
        fhd = result.series("MRI-FHD")
        # PNS converges fast; MRI-FHD stays imprecise at alpha=1
        assert pns[7] <= pns[1]
        assert fhd[7] >= pns[7]
        # larger alpha only reduces MRI-FHD's ratio
        fhd_alpha100 = result.series("MRI-FHD", alpha=100.0)
        assert fhd_alpha100[7] <= fhd[7]
