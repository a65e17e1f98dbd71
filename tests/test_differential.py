"""Differential trial execution: parity with full execution, fallbacks.

The engine's whole contract is *bit-identical* campaign results: every
test here runs the same seeded spec list through the full path and the
differential path on independent programs and compares trial-by-trial.
"""

from __future__ import annotations

import pytest

from repro.core.program import HauberkProgram
from repro.exec.pool import fork_available
from repro.gpu.memory import ReplayConflict, ReplayMemoryGuard
from repro.obs.metrics import fresh_registry, get_registry
from repro.swifi.campaign import build_fault_specs
from repro.swifi.differential import (
    DifferentialEngine,
    _Ineligible,
    differential_runner,
    get_engine,
    kernel_replay_obstacle,
)
from repro.swifi.faultmodel import FaultSpec
from repro.swifi.options import CampaignOptions
from repro.swifi.parallel import run_campaign
from repro.swifi.targets import enumerate_targets
from repro.workloads import all_workloads, get_workload

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)

MODES = ("fi", "fift")


def _campaign_specs(workload, n=24, seed=11, bit_counts=(1,)):
    sites = enumerate_targets(workload.kernel)
    inp = workload.generate_input(0)
    return build_fault_specs(
        sites, inp.n_threads, masks_per_site=2, bit_counts=bit_counts, seed=seed
    )[:n]


def _run_both(name, mode, specs=None, check_golden=False):
    """(full CampaignResult, diff CampaignResult) on independent programs."""
    prog_full = HauberkProgram(get_workload(name))
    prog_diff = HauberkProgram(get_workload(name))
    if specs is None:
        specs = _campaign_specs(prog_full.workload)
    full_runner = prog_full.trial_runner(mode, 0)
    diff_runner = differential_runner(prog_diff, mode, 0)
    if check_golden:
        # the fault-free spec=None trial routes through the full path
        # and must not disturb the engine's memoized state
        assert full_runner(None) == diff_runner(None)
    full = run_campaign(None, specs, runner_factory=lambda: full_runner)
    diff = run_campaign(None, specs, runner_factory=lambda: diff_runner)
    return full, diff


def _assert_identical(full, diff):
    assert full.summary() == diff.summary()
    assert len(full.trials) == len(diff.trials)
    for a, b in zip(full.trials, diff.trials):
        assert a.spec == b.spec
        assert a.outcome == b.outcome
        assert a.observation == b.observation


class TestEligibility:
    def test_closure_kernels_eligible(self):
        for name in ("CP", "MRI-Q", "MRI-FHD", "PNS", "RPES", "SAD"):
            assert kernel_replay_obstacle(get_workload(name).kernel) is None

    def test_sync_kernel_ineligible(self):
        assert kernel_replay_obstacle(get_workload("TPACF").kernel) == "uses_sync"

    def test_ineligible_campaign_still_runs_and_matches(self):
        full, diff = _run_both("TPACF", "fi", specs=_campaign_specs(
            get_workload("TPACF"), n=6))
        _assert_identical(full, diff)

    def test_engine_cached_per_mode_and_control_block(self):
        prog = HauberkProgram(get_workload("MRI-FHD"))
        eng_fi = get_engine(prog, "fi", 0)
        assert isinstance(eng_fi, DifferentialEngine)
        assert get_engine(prog, "fi", 0) is eng_fi
        eng_fift = get_engine(prog, "fift", 0)
        assert isinstance(eng_fift, DifferentialEngine)
        assert eng_fift is not eng_fi
        # an alpha change re-keys the fift engine (stale golden events
        # must not be replayed under the new detector configuration)
        prog.cb.set_alpha_all(2.5)
        eng_alpha = get_engine(prog, "fift", 0)
        assert eng_alpha is not eng_fift
        assert get_engine(prog, "fi", 0) is eng_fi


class TestParityAllWorkloads:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", all_workloads())
    def test_campaign_parity(self, name, mode):
        full, diff = _run_both(name, mode, check_golden=True)
        _assert_identical(full, diff)

    @pytest.mark.parametrize("mode", MODES)
    def test_parity_multibit_masks(self, mode):
        specs = _campaign_specs(get_workload("SAD"), n=20, seed=5,
                                bit_counts=(1, 6, 15))
        full, diff = _run_both("SAD", mode, specs=specs)
        _assert_identical(full, diff)

    def test_parity_across_sequential_campaigns(self):
        # the engine's memory self-heals between campaigns on one program
        prog_full = HauberkProgram(get_workload("RPES"))
        prog_diff = HauberkProgram(get_workload("RPES"))
        for seed in (3, 4):
            specs = _campaign_specs(prog_full.workload, n=10, seed=seed)
            full = run_campaign(None, specs, runner_factory=lambda:
                                prog_full.trial_runner("fift", 0))
            diff = run_campaign(None, specs, runner_factory=lambda:
                                differential_runner(prog_diff, "fift", 0))
            _assert_identical(full, diff)


class TestPointerFaultFallback:
    def _pointer_specs(self, workload):
        """Specs flipping high bits of pointer parameters (delayed)."""
        sites = enumerate_targets(workload.kernel)
        ptr_sites = [s for s in sites if s.dtype.is_pointer]
        assert ptr_sites, "workload has no pointer sites"
        inp = workload.generate_input(0)
        specs = []
        for s in ptr_sites:
            for thread in (0, inp.n_threads // 2, inp.n_threads - 1):
                for mask in (1 << 1, 1 << 3, 1 << 28):
                    specs.append(FaultSpec(
                        site=s.site, mask=mask, thread=thread,
                        occurrence=1, timing="delayed",
                        label="ptr-fallback",
                    ))
        return specs

    @pytest.mark.parametrize("mode", MODES)
    def test_pointer_faults_match_full_execution(self, mode):
        # low-bit pointer flips redirect accesses inside the mapped
        # range — exactly the trials that must detect a replay conflict
        # and fall back, or prove the touch harmless
        wl = get_workload("CP")
        specs = self._pointer_specs(wl)
        full, diff = _run_both("CP", mode, specs=specs)
        _assert_identical(full, diff)

    def test_conflicting_replay_falls_back_and_counts(self):
        fresh_registry()
        wl = get_workload("CP")
        specs = self._pointer_specs(wl)
        prog = HauberkProgram(get_workload("CP"))
        run_campaign(None, specs, runner_factory=lambda:
                     differential_runner(prog, "fi", 0))
        metrics = get_registry().as_dict()
        hits = metrics.get("repro_swifi_diff_hits_total")
        fallbacks = metrics.get("repro_swifi_diff_fallbacks_total")
        assert hits is not None and fallbacks is not None
        reasons = {
            s["labels"].get("reason"): s["value"]
            for s in fallbacks["samples"]
        }
        assert reasons.get("replay_conflict", 0) > 0
        total = sum(s["value"] for s in hits["samples"]) + sum(reasons.values())
        assert total == len(specs)


class TestGuardSemantics:
    def test_later_owner_load_conflicts(self):
        from repro.gpu.memory import GlobalMemory

        mem = GlobalMemory(64)
        mem.alloc("buf", 8)
        guard = ReplayMemoryGuard(mem, thread=1, store_owner={5: 3},
                                  load_readers={})
        with pytest.raises(ReplayConflict):
            guard.load_f32(5)
        # earlier owners hold their golden value in both worlds
        earlier = ReplayMemoryGuard(mem, thread=5, store_owner={5: 3},
                                    load_readers={})
        earlier.load_f32(5)

    def test_store_rollback_restores_memory(self):
        from repro.gpu.memory import GlobalMemory

        mem = GlobalMemory(64)
        mem.alloc("buf", 8)
        mem.store_i32(2, 41)
        guard = ReplayMemoryGuard(mem, thread=0, store_owner={}, load_readers={})
        guard.store_i32(2, 99)
        guard.store_i32(3, 7)
        guard.rollback()
        assert mem.load_i32(2) == 41
        assert mem.load_i32(3) == 0

    def test_deferred_store_checked_against_golden(self):
        from repro.gpu.memory import GlobalMemory

        mem = GlobalMemory(64)
        mem.alloc("buf", 8)
        mem.store_i32(4, 10)
        golden = mem.snapshot()
        guard = ReplayMemoryGuard(mem, thread=0, store_owner={4: 0},
                                  load_readers={4: 3})
        guard.store_i32(4, 10)  # same bits: later reader sees nothing
        assert 4 in guard.deferred
        assert not guard.deferred_mismatch(golden)
        guard.store_i32(4, 11)  # changed bits: trial must fall back
        assert guard.deferred_mismatch(golden)


class TestMetricsParity:
    def test_launch_and_outcome_counters_match_full(self):
        specs = _campaign_specs(get_workload("MRI-FHD"), n=12)

        fresh_registry()
        prog_full = HauberkProgram(get_workload("MRI-FHD"))
        run_campaign(None, specs, runner_factory=lambda:
                     prog_full.trial_runner("fi", 0))
        full_metrics = get_registry().as_dict()

        fresh_registry()
        prog_diff = HauberkProgram(get_workload("MRI-FHD"))
        run_campaign(None, specs, runner_factory=lambda:
                     differential_runner(prog_diff, "fi", 0))
        diff_metrics = get_registry().as_dict()

        assert full_metrics["repro_trial_outcomes_total"] == \
            diff_metrics["repro_trial_outcomes_total"]
        # differential mode launches once more: the golden recording run
        full_launches = sum(
            s["value"] for s in full_metrics["repro_launch_total"]["samples"]
        )
        diff_launches = sum(
            s["value"] for s in diff_metrics["repro_launch_total"]["samples"]
        )
        assert diff_launches == full_launches + 1


class TestParallelComposition:
    @needs_fork
    def test_parallel_differential_matches_serial_full(self):
        specs = _campaign_specs(get_workload("SAD"), n=12)
        prog_full = HauberkProgram(get_workload("SAD"))
        serial_full = run_campaign(
            prog_full, specs, mode="fift",
            options=CampaignOptions(workers=1, differential=False),
        )
        prog_diff = HauberkProgram(get_workload("SAD"))
        parallel_diff = run_campaign(
            prog_diff, specs, mode="fift",
            options=CampaignOptions(workers=2, differential=True),
        )
        _assert_identical(serial_full, parallel_diff)

    def test_no_differential_flag_uses_full_runner(self):
        fresh_registry()
        specs = _campaign_specs(get_workload("SAD"), n=4)
        prog = HauberkProgram(get_workload("SAD"))
        run_campaign(
            prog, specs, mode="fi",
            options=CampaignOptions(workers=1, differential=False),
        )
        metrics = get_registry().as_dict()
        assert "repro_swifi_diff_hits_total" not in metrics
        assert "repro_swifi_diff_fallbacks_total" not in metrics


def test_ineligible_marker_records_reason():
    prog = HauberkProgram(get_workload("TPACF"))
    entry = get_engine(prog, "fi", 0)
    assert isinstance(entry, _Ineligible)
    assert entry.reason == "uses_sync"
