"""SWIFI tests: specs, targets, instrumentation, injection, campaigns."""

import numpy as np
import pytest

from repro.errors import InjectionError, KernelCrash
from repro.gpu.device import Device
from repro.gpu.runtime import GPURuntime
from repro.kir import parse_kernel, kernel_to_source
from repro.kir.types import DType
from repro.swifi import (
    FaultInjectionLibrary,
    FaultSpec,
    Outcome,
    build_fault_specs,
    classify_outcome,
    enumerate_targets,
    instrument_for_fi,
    run_campaign,
    select_targets,
)
from repro.swifi.campaign import TrialObservation
from repro.swifi.outcomes import OutcomeCounts
from repro.swifi.tracing import ValueTraceLibrary

SRC = """
kernel k(float* data, float* out, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0;
    for (int i = 0; i < n; i++) {
        float v = data[i] * 2.0;
        acc = acc + v;
    }
    out[tid] = acc;
}
"""


def _setup(n=8, threads=4):
    device = Device()
    runtime = GPURuntime(device)
    kernel = parse_kernel(SRC)
    data = np.arange(1, n + 1, dtype=np.float32)
    ad = device.memory.alloc("d", n, DType.FLOAT32)
    ao = device.memory.alloc("o", threads, DType.FLOAT32)
    device.memory.memcpy_htod(ad, data)
    args = {"data": ad, "out": ao, "n": n}
    return device, runtime, kernel, args, ao


class TestFaultSpec:
    def test_valid(self):
        spec = FaultSpec(site=1, mask=0b110, thread=2, occurrence=3)
        assert spec.n_bits == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(site=0, mask=0),
            dict(site=0, mask=1 << 40),
            dict(site=0, mask=1, occurrence=0),
            dict(site=0, mask=1, thread=-1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InjectionError):
            FaultSpec(**kwargs)


class TestTargets:
    def test_enumerate_all(self):
        kernel = parse_kernel(SRC)
        sites = enumerate_targets(kernel)
        assert len(sites) == kernel.n_sites
        classes = {s.sensitivity_class for s in sites}
        assert classes == {"pointer", "integer", "fp"}

    def test_filter_by_class(self):
        kernel = parse_kernel(SRC)
        fp = enumerate_targets(kernel, classes=["fp"])
        assert all(s.dtype is DType.FLOAT32 for s in fp)
        with pytest.raises(InjectionError):
            enumerate_targets(kernel, classes=["bogus"])

    def test_select_subsamples(self):
        kernel = parse_kernel(SRC)
        rng = np.random.default_rng(0)
        sites = select_targets(kernel, 3, rng)
        assert len(sites) == 3
        with pytest.raises(InjectionError):
            select_targets(kernel, 0, rng)


class TestInstrumentation:
    def test_hooks_after_every_definition(self):
        kernel = parse_kernel(SRC)
        fi = instrument_for_fi(kernel)
        text = kernel_to_source(fi)
        # every original site gets a hook carrying its original id
        for site in enumerate_targets(kernel):
            assert f"__hauberk_fi({site.site}," in text

    def test_loop_header_hooks_in_body(self):
        kernel = parse_kernel(SRC)
        fi = instrument_for_fi(kernel)
        loop = next(s for s in fi.body if hasattr(s, "update") and s.update)
        # first stmt observes the init site, last the update site
        assert loop.body[0].func == "__hauberk_fi"
        assert loop.body[-1].func == "__hauberk_fi"

    def test_original_untouched(self):
        kernel = parse_kernel(SRC)
        before = kernel_to_source(kernel)
        instrument_for_fi(kernel)
        assert kernel_to_source(kernel) == before


class TestInjection:
    def test_fault_activates_and_corrupts_output(self):
        device, runtime, kernel, args, ao = _setup()
        fi_kernel = instrument_for_fi(kernel)
        acc_site = next(s for s in enumerate_targets(kernel) if s.name == "acc" and s.kind == "assign")
        lib = FaultInjectionLibrary(kernel, FaultSpec(site=acc_site.site, mask=1 << 30, thread=1, occurrence=2))
        runtime.launch(fi_kernel, 1, 4, args, lib=lib)
        assert lib.activation is not None
        assert lib.activation.variable == "acc"
        out = device.memory.memcpy_dtoh(ao)
        assert out[1] != out[0]  # thread 1 corrupted, thread 0 clean

    def test_only_chosen_occurrence(self):
        device, runtime, kernel, args, _ = _setup()
        fi_kernel = instrument_for_fi(kernel)
        site = next(s for s in enumerate_targets(kernel) if s.name == "v")
        lib = FaultInjectionLibrary(kernel, FaultSpec(site=site.site, mask=1, thread=0, occurrence=5))
        runtime.launch(fi_kernel, 1, 4, args, lib=lib)
        key = (site.site, 0)
        assert lib.state.counters[key] >= 5
        assert lib.activation.at_step > 0

    def test_unarmed_library_is_inert(self):
        device, runtime, kernel, args, ao = _setup()
        fi_kernel = instrument_for_fi(kernel)
        lib = FaultInjectionLibrary(kernel)
        runtime.launch(fi_kernel, 1, 4, args, lib=lib)
        assert lib.activation is None

    def test_pointer_fault_crashes(self):
        device, runtime, kernel, args, _ = _setup()
        fi_kernel = instrument_for_fi(kernel)
        ptr_site = next(s for s in enumerate_targets(kernel) if s.name == "data")
        lib = FaultInjectionLibrary(
            kernel, FaultSpec(site=ptr_site.site, mask=1 << 30, thread=0)
        )
        with pytest.raises(KernelCrash):
            runtime.launch(fi_kernel, 1, 4, args, lib=lib)

    def test_unknown_site_rejected(self):
        kernel = parse_kernel(SRC)
        lib = FaultInjectionLibrary(kernel)
        with pytest.raises(InjectionError):
            lib.arm(FaultSpec(site=9999, mask=1))

    def test_rearm_resets_state(self):
        device, runtime, kernel, args, _ = _setup()
        fi_kernel = instrument_for_fi(kernel)
        site = next(s for s in enumerate_targets(kernel) if s.name == "tid")
        lib = FaultInjectionLibrary(kernel, FaultSpec(site=site.site, mask=1, thread=0))
        runtime.launch(fi_kernel, 1, 4, args, lib=lib)
        assert lib.activation is not None
        lib.arm(None)
        assert lib.activation is None and not lib.state.counters


class TestOutcomes:
    def test_classification_matrix(self):
        assert classify_outcome(True, False, False) is Outcome.FAILURE
        assert classify_outcome(False, False, True) is Outcome.MASKED
        assert classify_outcome(False, True, True) is Outcome.DETECTED_MASKED
        assert classify_outcome(False, True, False) is Outcome.DETECTED
        assert classify_outcome(False, False, False) is Outcome.UNDETECTED

    def test_counts_and_ratios(self):
        counts = OutcomeCounts()
        for o in (Outcome.MASKED, Outcome.MASKED, Outcome.UNDETECTED, Outcome.DETECTED):
            counts.add(o)
        assert counts.total == 4
        assert counts.sdc_ratio == 0.25
        assert counts.coverage == 0.75
        assert counts.detected_ratio == 0.25

    def test_merge(self):
        a, b = OutcomeCounts(), OutcomeCounts()
        a.add(Outcome.MASKED)
        b.add(Outcome.FAILURE)
        merged = a.merge(b)
        assert merged.total == 2


class TestCampaign:
    def test_build_specs_deterministic(self):
        kernel = parse_kernel(SRC)
        sites = enumerate_targets(kernel)
        s1 = build_fault_specs(sites, n_threads=8, masks_per_site=3, seed=1)
        s2 = build_fault_specs(sites, n_threads=8, masks_per_site=3, seed=1)
        assert [(s.site, s.mask, s.thread, s.occurrence) for s in s1] == [
            (s.site, s.mask, s.thread, s.occurrence) for s in s2
        ]
        assert len(s1) == 3 * len(sites)

    def test_build_specs_bit_counts_cycle(self):
        kernel = parse_kernel(SRC)
        sites = enumerate_targets(kernel)[:1]
        specs = build_fault_specs(sites, n_threads=4, masks_per_site=4, bit_counts=(1, 6))
        assert [s.n_bits for s in specs] == [1, 6, 1, 6]

    def test_run_classifies(self):
        def runner(spec):
            # even masks get detected, odd masks escape
            return TrialObservation(
                failure=False, detected=spec.mask % 2 == 0, output_ok=False,
                activated=True,
            )

        specs = [FaultSpec(site=0, mask=m) for m in (2, 3, 4)]
        result = run_campaign(None, specs, runner_factory=lambda: runner)
        assert result.counts.counts[Outcome.DETECTED] == 2
        assert result.counts.counts[Outcome.UNDETECTED] == 1
        assert result.by_bits(1).counts.total == 2  # mask 3 has two bits


    def test_full_trials_build_the_site_table_at_most_once(self, monkeypatch):
        from repro.core.program import HauberkProgram
        from repro.swifi import injector
        from repro.swifi.options import CampaignOptions
        from repro.workloads import get_workload

        built = []
        collect = injector.collect_sites
        monkeypatch.setattr(injector, "collect_sites",
                            lambda kernel: built.append(kernel) or collect(kernel))
        # a kernel parsed anew, so no earlier test has built its table
        base = type(get_workload("CP"))
        fresh = type(base.__name__, (base,), {"source": base.source + "\n// site table\n"})()
        prog = HauberkProgram(fresh)
        specs = build_fault_specs(enumerate_targets(fresh.kernel), n_threads=64,
                                  masks_per_site=1, seed=3)[:6]
        result = run_campaign(prog, specs, "fi", CampaignOptions(differential=False))
        assert len(result.trials) == 6
        assert len(built) == 1


class TestTracing:
    def test_trace_collects_values(self):
        device, runtime, kernel, args, _ = _setup()
        fi_kernel = instrument_for_fi(kernel)
        tracer = ValueTraceLibrary(kernel)
        runtime.launch(fi_kernel, 1, 4, args, lib=tracer)
        by_name = tracer.by_name()
        assert set(by_name) >= {"tid", "acc", "v", "i"}
        assert sorted(by_name["tid"]) == [0.0, 1.0, 2.0, 3.0]

    def test_sampling(self):
        device, runtime, kernel, args, _ = _setup()
        fi_kernel = instrument_for_fi(kernel)
        dense = ValueTraceLibrary(kernel, sample_every=1)
        runtime.launch(fi_kernel, 1, 4, args, lib=dense)
        device2, runtime2, kernel2, args2, _ = _setup()
        sparse = ValueTraceLibrary(kernel2, sample_every=4)
        runtime2.launch(instrument_for_fi(kernel2), 1, 4, args2, lib=sparse)
        assert len(sparse.by_name()["v"]) < len(dense.by_name()["v"])

    def test_sampling_records_first_occurrence(self):
        """Regression: sample_every=N must keep occurrences 1, N+1, 2N+1...

        The old ``count % N`` test dropped the first N-1 definitions at
        every site, so a site defined fewer than N times was invisible.
        """
        device, runtime, kernel, args, _ = _setup()
        lib = ValueTraceLibrary(kernel, sample_every=3)
        runtime.launch(instrument_for_fi(kernel), 1, 4, args, lib=lib)
        by_name = lib.by_name()
        # tid's site sees 4 definitions (one per thread); occurrences
        # 1 and 4 are kept — the first (thread 0) was dropped pre-fix
        assert sorted(by_name["tid"]) == [0.0, 3.0]
        # v's site sees 8 definitions x 4 threads = 32; occurrences
        # 1, 4, 7, ..., 31 are kept -> 11 samples
        assert len(by_name["v"]) == 11
        # dense tracing of the same kernel is a superset per site
        device2, runtime2, kernel2, args2, _ = _setup()
        dense = ValueTraceLibrary(kernel2, sample_every=1)
        runtime2.launch(instrument_for_fi(kernel2), 1, 4, args2, lib=dense)
        assert set(by_name["v"]) <= set(dense.by_name()["v"])


class TestResultViews:
    """Quarantine-aware result views and operational-rate semantics."""

    @staticmethod
    def _result_with_quarantine():
        from repro.swifi.campaign import (
            CampaignResult,
            QuarantineReport,
            TrialResult,
        )

        result = CampaignResult()
        ok_obs = TrialObservation(
            failure=False, detected=False, output_ok=False, activated=True
        )
        result.add(TrialResult(
            spec=FaultSpec(site=0, mask=0b1), outcome=Outcome.UNDETECTED,
            observation=ok_obs,
        ))
        result.add(TrialResult(
            spec=FaultSpec(site=1, mask=0b11), outcome=Outcome.MASKED,
            observation=TrialObservation(
                failure=False, detected=False, output_ok=True,
                activated=False,
            ),
        ))
        dead_spec = FaultSpec(site=2, mask=0b1)
        result.add(TrialResult(
            spec=dead_spec, outcome=Outcome.WORKER_KILLED,
            observation=TrialObservation(
                failure=True, detected=False, output_ok=False,
                activated=False, note="worker process killed",
            ),
        ))
        result.quarantined.append(QuarantineReport(
            spec=dead_spec, index=2, deaths=3, rounds=2, note="sigkill"
        ))
        return result

    def test_filter_carries_quarantine_reports(self):
        """Regression: filtered views used to drop quarantine evidence."""
        result = self._result_with_quarantine()
        view = result.filter(lambda t: t.spec.site >= 1)
        assert len(view.trials) == 2
        assert [r.spec.site for r in view.quarantined] == [2]
        assert view.summary()["quarantined"] == 1
        # a view excluding the dead spec carries no report
        assert result.filter(lambda t: t.spec.site == 0).quarantined == []

    def test_by_bits_carries_quarantine_reports(self):
        result = self._result_with_quarantine()
        single_bit = result.by_bits(1)
        assert [r.deaths for r in single_bit.quarantined] == [3]
        assert result.by_bits(2).quarantined == []

    def test_activation_ratio_excludes_worker_killed(self):
        """Regression: quarantined placeholders diluted the ratio.

        A quarantined spec never executed, so it can say nothing about
        whether the fault would have activated; only the two executed
        trials (one activated) count.
        """
        result = self._result_with_quarantine()
        assert result.activation_ratio == pytest.approx(0.5)

    def test_activation_ratio_all_quarantined_is_zero(self):
        from repro.swifi.campaign import CampaignResult, TrialResult

        result = CampaignResult()
        result.add(TrialResult(
            spec=FaultSpec(site=0, mask=1), outcome=Outcome.WORKER_KILLED,
            observation=TrialObservation(
                failure=True, detected=False, output_ok=False,
                activated=False,
            ),
        ))
        assert result.activation_ratio == 0.0


class TestSelectTargetsContract:
    """The documented ordering/determinism contract of select_targets."""

    def test_seeded_draws_are_reproducible(self):
        kernel = parse_kernel(SRC)
        a = select_targets(kernel, 3, np.random.default_rng(9))
        b = select_targets(kernel, 3, np.random.default_rng(9))
        assert [s.site for s in a] == [s.site for s in b]

    def test_returns_ascending_site_order_not_draw_order(self):
        kernel = parse_kernel(SRC)
        for seed in range(5):
            sites = select_targets(kernel, 4, np.random.default_rng(seed))
            ids = [s.site for s in sites]
            assert ids == sorted(ids)

    def test_classes_filter_changes_population_not_just_output(self):
        """classes= filters *before* sampling: same seed, different picks.

        Reproducing a selection therefore needs the identical classes
        argument, not just the identical seed — the documented caveat.
        """
        kernel = parse_kernel(SRC)
        fp_only = select_targets(kernel, 3, np.random.default_rng(2),
                                 classes=["fp"])
        assert {s.sensitivity_class for s in fp_only} == {"fp"}
        unfiltered = select_targets(kernel, 3, np.random.default_rng(2))
        assert [s.site for s in fp_only] != [s.site for s in unfiltered]

    def test_successive_draws_not_disjoint_batches(self):
        """One rng, two calls: the second is a fresh sample, not 'next 3'."""
        kernel = parse_kernel(SRC)
        rng = np.random.default_rng(0)
        first = {s.site for s in select_targets(kernel, 5, rng)}
        second = {s.site for s in select_targets(kernel, 5, rng)}
        assert first & second  # overlap expected from independent samples
