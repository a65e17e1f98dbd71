"""Differential trial execution: parity with full execution, fallbacks.

The engine's whole contract is *bit-identical* campaign results: every
test here runs the same seeded spec list through the full path and the
differential path on independent programs and compares trial-by-trial.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.controlblock import ControlBlock, DetectionEvent, DetectorConfig
from repro.core.program import HauberkProgram
from repro.core.ranges import RangeSet, ValueRange
from repro.exec.pool import fork_available
from repro.gpu.memory import ReplayConflict, ReplayMemoryGuard
from repro.gpu.runtime import GPURuntime
from repro.kir import parse_kernel
from repro.obs.metrics import fresh_registry, get_registry
from repro.swifi.campaign import build_fault_specs
from repro.swifi.differential import (
    DifferentialEngine,
    _Ineligible,
    differential_runner,
    get_engine,
    replay_obstacle,
)
from repro.swifi.faultmodel import FaultSpec
from repro.swifi.options import CampaignOptions
from repro.swifi.parallel import run_campaign
from repro.swifi.targets import enumerate_targets
from repro.kir.types import DType
from repro.workloads import all_workloads, get_workload
from repro.workloads.base import BufferSpec, Workload, WorkloadInput

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
            assert replay_obstacle(get_workload(name).kernel) is None

    def test_sync_kernel_ineligible(self):
        assert replay_obstacle(get_workload("TPACF").kernel) == "uses_sync"

    @pytest.mark.parametrize("src, reason", [
        ("kernel k(int* out) { shared int s[2]; s[0] = 1; out[0] = s[0]; }",
         "shared_memory"),
        ("kernel k(int* out) { for (int i = 0; i < 2; i++) {"
         " atomicAdd(&out[0], i); } }", "atomics"),
    ], ids=["shared", "atomics"])
    def test_cross_thread_channels_ineligible(self, src, reason):
        # the reasons label repro_swifi_diff_fallbacks_total
        assert replay_obstacle(parse_kernel(src)) == reason

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
    def test_later_owner_load_reads_pre_launch_bits(self):
        from repro.gpu.memory import GlobalMemory

        mem = GlobalMemory(64)
        mem.alloc("buf", 8)
        mem.store_i32(5, 77)  # thread 3's golden store, now in memory
        guard = ReplayMemoryGuard(mem, thread=1, store_owner={5: 3},
                                  load_readers={}, pre_launch={5: 0x3FC00000})
        # thread 1 runs before thread 3: the full run reads the word
        # as it was before the launch
        assert guard.load_f32(5) == 1.5
        assert guard.load_i32(5) == 0x3FC00000
        # earlier owners hold their golden value in both worlds
        earlier = ReplayMemoryGuard(mem, thread=5, store_owner={5: 3},
                                    load_readers={}, pre_launch={5: 0x3FC00000})
        assert earlier.load_i32(5) == 77

    def test_later_owner_store_conflicts(self):
        from repro.gpu.memory import GlobalMemory

        mem = GlobalMemory(64)
        mem.alloc("buf", 8)
        guard = ReplayMemoryGuard(mem, thread=1, store_owner={5: 3},
                                  load_readers={}, pre_launch={5: 0})
        with pytest.raises(ReplayConflict):
            guard.store_f32(5, 1.0)

    def test_store_journal_keeps_the_bits_each_first_store_found(self):
        from repro.gpu.memory import GlobalMemory

        mem = GlobalMemory(64)
        mem.alloc("buf", 8)
        mem.store_i32(2, 41)
        guard = ReplayMemoryGuard(mem, thread=0, store_owner={}, load_readers={})
        guard.store_i32(2, 99)
        guard.store_i32(3, 7)
        guard.store_i32(2, 5)
        assert guard.written == {2: 41, 3: 0}
        assert (mem.load_i32(2), mem.load_i32(3)) == (5, 7)
        guard.retarget(1)
        assert guard.written == {}

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


class TestLaterOwnedLoads:
    #: the three ``numatoms`` strikes of CP's Figure 14 BENCH plan that
    #: end (plan positions 0, 1 and 3); each victim thread, with its
    #: atom count corrupted, reads the words a later thread stores
    NUMATOMS = (
        FaultSpec(site=1, mask=0x8000, thread=15, occurrence=42, timing="delayed"),
        FaultSpec(site=1, mask=0x100, thread=4, occurrence=22, timing="delayed"),
        FaultSpec(site=1, mask=0x100, thread=18, occurrence=22, timing="delayed"),
    )

    def test_numatoms_strikes_replay_like_the_full_run(self):
        full_prog = HauberkProgram(get_workload("CP"))
        diff_prog = HauberkProgram(get_workload("CP"))
        for prog in (full_prog, diff_prog):
            prog.build("fift")
            prog.train(seeds=[0])
        full = full_prog.trial_runner("fift", 0)
        engine = get_engine(diff_prog, "fift", 0)
        assert isinstance(engine, DifferentialEngine)
        for spec in self.NUMATOMS:
            replayed = engine.run_trial(spec)
            assert replayed is not None, spec  # served by replay, no fallback
            assert replayed == full(spec), spec


class _Runs:
    """Records each counted run a compiled kernel completes while active
    (a ``with`` block): its count, whether its load spans were clean,
    and where its first load span started."""

    def __init__(self, compiled):
        self.filename = f"<kernel {compiled.kernel.name}>"
        source = compiled.source
        # a run charges its steps once, ``steps += P * _n<id>``; its
        # head holds the first span's start in ``(_b<id> := (_w<k> := ``
        self.marks = {n: m.group(1) for n, line in enumerate(source.splitlines(), 1)
                      if (m := re.fullmatch(r"\s*steps \+= \d+ \* _n(\d+)", line))}
        self.spans = dict(re.findall(r"\(_b(\d+) := \((_w\d+) := ", source))
        self.runs = []

    def _line(self, frame, event, arg):
        if event == "line" and frame.f_lineno in self.marks:
            loop_id, local = self.marks[frame.f_lineno], frame.f_locals
            self.runs.append((local[f"_n{loop_id}"], local[f"_b{loop_id}"],
                              local[self.spans[loop_id]]))
        return self._line

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename == self.filename else None

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc_info):
        sys.settrace(self._previous)


class TestRunsAcrossStoredWords:
    def test_a_corrupted_loop_runs_up_to_steps_through_and_resumes_past_them(self):
        # numatoms struck (TestLaterOwnedLoads): thread 4 reads atominfo
        # on past its end, through every word energygrid's threads store
        # (the guard's slow set), and beyond
        spec = TestLaterOwnedLoads.NUMATOMS[1]
        full_prog = HauberkProgram(get_workload("CP"))
        diff_prog = HauberkProgram(get_workload("CP"))
        for prog in (full_prog, diff_prog):
            prog.build("fift")
            prog.train(seeds=[0])
        engine = get_engine(diff_prog, "fift", 0)
        assert isinstance(engine, DifferentialEngine)
        slow_lo, slow_hi = engine.stored_bounds
        assert (slow_lo, slow_hi) == (min(engine.stored), max(engine.stored))
        with _Runs(engine.compiled) as tracer:
            replayed = engine.run_trial(spec)
        assert replayed is not None and replayed == full_prog.trial_runner("fift", 0)(spec)
        # each run: (count, clean, start of its first atominfo[4i .. 4i + 3])
        runs = tracer.runs
        crossing = [k for k, (_n, clean, _at) in enumerate(runs) if not clean]
        first, last = crossing[0], crossing[-1]
        assert crossing == list(range(first, last + 1)) and first > 0 and last < len(runs) - 1
        # a clean run stops short of the stored words: its last span ends
        # below them and the next one would not
        count, _clean, at = runs[first - 1]
        assert count > 1 and at + 4 * (count - 1) + 3 < slow_lo <= at + 4 * count + 3
        # one iteration, through the accessors, per span that meets them
        assert all(count == 1 and at + 3 >= slow_lo and at <= slow_hi
                   for count, _clean, at in runs[first:last + 1])
        # and clean runs resume past them
        count, clean, at = runs[last + 1]
        assert clean and count > 1 and at > slow_hi


def _trained(name):
    program = HauberkProgram(get_workload(name))
    program.train(seeds=[0])
    return program


def _fig14_specs(program, scale):
    """Figure 14's trials of ``program`` at ``scale``, its sites drawn
    first from a fresh generator (``run_fig14(scale, names=(name,))``)."""
    import numpy as np

    from repro.swifi.targets import select_targets

    rng = np.random.default_rng(scale.seed + 14)
    sites = select_targets(program.workload.kernel, scale.max_targets, rng)
    inp, _golden = program.campaign_io(0)
    return [spec for bits in scale.bit_counts for spec in build_fault_specs(
        sites, n_threads=inp.n_threads, masks_per_site=scale.masks_per_site,
        bit_counts=(bits,), seed=scale.seed + bits)]


_COPY_DATA = np.arange(1.0, 9.0, dtype=np.float32)


class _Copy(Workload):
    """Eight threads each copy one word of ``src`` (addresses 0-7) to
    ``out`` (8-15), which starts as ``START``: a copy already."""

    name = "COPY"
    START = _COPY_DATA
    source = """
    kernel copy(float* src, float* out) {
        int tid = blockIdx.x * blockDim.x + threadIdx.x;
        int i = tid;
        out[i] = src[tid];
    }
    """

    def generate_input(self, seed=0):
        return WorkloadInput(
            buffers=[BufferSpec("src", DType.FLOAT32, 8, _COPY_DATA),
                     BufferSpec("out", DType.FLOAT32, 8, self.START)],
            scalars={}, buffer_params={"src": "src", "out": "out"},
            outputs=["out"], grid=(1, 1), block=(8, 1))

    def golden(self, inp):
        return _COPY_DATA.astype(np.float64)


class _CopyIntoZeros(_Copy):
    START = np.zeros(8, dtype=np.float32)


def _copy_index_site(program):
    """The FI site of ``_Copy``'s store index ``i``."""
    (site,) = [s.site for s in enumerate_targets(program.workload.kernel) if s.name == "i"]
    return site


class TestChangedWordVerdict:
    """A replay's output verdict checks only the output words the thread
    could change (its golden store addresses and the guard's writes);
    each case compares it with the full run's whole-output check."""

    @pytest.mark.parametrize("mode", MODES)
    def test_cp_outidx_strikes_that_move_or_drop_the_store(self, mode):
        program, full = _trained("CP"), _trained("CP").trial_runner(mode, 0)
        engine = get_engine(program, mode, 0)
        out = engine.handles["energygrid"]
        kinds = {"moved": 0, "outside": 0}
        for thread in (0, 9, 33, 60, 63):
            golden_addrs = engine.records[thread].footprint.net_stores()[0]
            for bit in range(12):
                spec = FaultSpec(site=21, mask=1 << bit, thread=thread)
                obs = engine.run_trial(spec)
                if obs is None:  # a later thread's word: full run
                    continue
                assert obs == full(spec), spec
                # where the struck outidx sends the thread's two stores
                moved = {out.base + ((int(a) - out.base) ^ (1 << bit))
                         for a in golden_addrs}
                if all(out.contains(a) for a in moved):
                    kinds["moved"] += 1
                elif not any(out.contains(a) for a in moved):
                    kinds["outside"] += 1
                assert not obs.output_ok  # a golden store was skipped
        assert kinds["moved"] >= 5 and kinds["outside"] >= 5

    def test_a_moved_store_that_leaves_its_own_word_right(self):
        """The output starts as a copy of the input, so a thread whose
        store index is struck leaves its own word golden and corrupts
        an earlier thread's: only the guard's writes show it."""
        program = HauberkProgram(_Copy())
        engine = get_engine(program, "fi", 0)
        full = HauberkProgram(_Copy()).trial_runner("fi", 0)
        for thread, bit in ((7, 0), (5, 2), (3, 1)):  # onto 6, 1 and 1
            spec = FaultSpec(site=_copy_index_site(program), mask=1 << bit, thread=thread)
            obs = engine.run_trial(spec)
            assert obs == full(spec)
            assert not obs.output_ok

    @pytest.mark.parametrize("name", ["OCEAN", "RAYTRACE"])
    def test_perceptual_spec_fig14_trials(self, name):
        from repro.harness.config import SMOKE

        program, full_program = _trained(name), _trained(name)
        specs = _fig14_specs(program, SMOKE)
        fresh_registry()
        diff = run_campaign(None, specs, runner_factory=lambda:
                            differential_runner(program, "fift", 0))
        hits = get_registry().counter("repro_swifi_diff_hits_total").value()
        full = run_campaign(None, specs, runner_factory=lambda:
                            full_program.trial_runner("fift", 0))
        _assert_identical(full, diff)
        assert hits >= len(specs) // 2

    def test_spec_the_golden_device_output_fails(self):
        """Every workload's device output equals its reference, so the
        reference is nudged at one element, by more than a tightened
        tolerance: the golden device output then fails, and the verdict
        must be the full check of the patched golden output."""
        from repro.workloads.spec import ToleranceSpec

        base = type(get_workload("CP"))

        class Nudged(base):
            spec = ToleranceSpec(rel=1e-4, abs_const=1e-9, mode="sum")

            def golden(self, inp):
                out = super().golden(inp).copy()
                out[18] *= 1.001  # thread 5's first output word
                return out

        def program():
            program = HauberkProgram(Nudged())
            program.train(seeds=[0])
            return program

        diff_program, full_program = program(), program()
        engine = get_engine(diff_program, "fift", 0)
        assert not engine.output_ok(engine._base_output)
        specs = _campaign_specs(diff_program.workload, n=24) + [
            FaultSpec(site=site, mask=1 << bit, thread=thread)
            for site, bit, thread in ((21, 3, 60), (21, 10, 5), (21, 3, 5),
                                      (19, 30, 5), (18, 2, 5), (18, 2, 60))]
        fresh_registry()
        diff = run_campaign(None, specs, runner_factory=lambda:
                            differential_runner(diff_program, "fift", 0))
        hits = get_registry().counter("repro_swifi_diff_hits_total").value()
        full = run_campaign(None, specs, runner_factory=lambda:
                            full_program.trial_runner("fift", 0))
        _assert_identical(full, diff)
        assert hits >= len(specs) // 2
        assert not any(t.observation.output_ok for t in diff.trials)


class TestEngineReuse:
    """One engine serves every trial with one library pair, context and
    hook table: a trial after a hang, a crash or a replay conflict sees
    the library re-armed, a device control block without stale events,
    and the hook table still bound lazily."""

    HANG = FaultSpec(site=1, mask=1 << 30, thread=5)  # numatoms: budget out
    CRASH = FaultSpec(site=2, mask=1 << 30, thread=5)  # energygrid: off device
    CONFLICT = FaultSpec(site=21, mask=1, thread=9)  # a later thread's word
    #: each fires a range detector in its own thread
    NEXT = (FaultSpec(site=19, mask=1 << 30, thread=5),
            FaultSpec(site=19, mask=1 << 30, thread=40, occurrence=2))

    def test_trial_after_each_abort_runs_on_a_clean_kit(self):
        program = _trained("CP")
        full = _trained("CP").trial_runner("fift", 0)
        options = CampaignOptions()
        engine = get_engine(program, "fift", 0)
        for abort in (self.HANG, self.CRASH, self.CONFLICT):
            (aborted,) = run_campaign(program, [abort], "fift", options).trials
            assert aborted.observation == full(abort)
            left_cb = engine.ft.cb
            for spec in self.NEXT:
                (trial,) = run_campaign(program, [spec], "fift", options).trials
                assert trial.observation == full(spec)
                assert trial.observation.detected
                assert engine.fi.state.spec == spec  # re-armed
                assert engine.fi.activation.spec == spec
                assert engine.ft.cb is not left_cb
                tids = {e.block * engine.block_size + e.thread
                        for e in engine.ft.cb.events}
                assert tids == {spec.thread}  # no stale events
                # nothing journaled before the abort is rolled back later
                assert (engine.memory.snapshot() == engine._golden_words).all()
        # resolved on first use only: CP's four hook names
        assert set(engine.ctx.hooks) == {
            "__hauberk_fi", "__hauberk_check_range", "__hauberk_check_equal",
            "__hauberk_checksum_validate"}

    def test_every_exit_puts_the_touched_words_back(self):
        """A replay that ends in a result, a crash, a replay conflict or
        a deferred mismatch leaves device memory golden, a word past the
        allocations included."""
        program = HauberkProgram(_CopyIntoZeros())
        engine = get_engine(program, "fi", 0)
        full = HauberkProgram(_CopyIntoZeros()).trial_runner("fi", 0)
        site = _copy_index_site(program)
        # as 32-bit masks of i: thread 1's store goes to word 17, past
        # out; to src[5], which thread 5 reads later; off the device;
        # to out[6], which thread 6 stores later
        cases = ((1, 1 << 3, "result"), (1, 0xFFFFFFFC, "deferred"),
                 (1, 1 << 30, "crash"), (1, 0x7, "conflict"))
        beyond = engine.memory.mapped_end + 1
        for thread, mask, end in cases:
            spec = FaultSpec(site=site, mask=mask, thread=thread)
            obs = engine.run_trial(spec)
            if end in ("deferred", "conflict"):
                assert obs is None
            else:
                assert obs == full(spec)
                assert obs.failure is (end == "crash")
            assert (engine.memory.snapshot() == engine._golden_words).all(), end
            assert engine.memory.load_word(beyond) == 0, end
            assert not engine.guard.written

    def test_golden_state_is_untouched_by_a_campaign(self):
        program = _trained("CP")
        engine = get_engine(program, "fift", 0)
        base, golden_words = engine._base_output.copy(), engine._golden_words
        # the fallback's full run leaves its own final memory, which
        # the next replay heals before it starts
        run_campaign(program, [self.CONFLICT, self.HANG, self.CRASH,
                               *self.NEXT], "fift", CampaignOptions())
        assert (engine._base_output == base).all()
        assert (engine.memory.snapshot() == golden_words).all()


class TestMetricsParity:
    #: sha256 prefix of ``as_dict()`` after :meth:`_cp_campaign`, the
    #: timing histograms and the translator's metrics (recorded only by
    #: a process's first build of a kernel) left out; the label-key
    #: cache and the changed-word verdict left it as it was.
    CP_METRICS = "bf0f1cc60a2d651c"

    @staticmethod
    def _cp_campaign():
        workload = get_workload("CP")
        inp = workload.generate_input(0)
        specs = build_fault_specs(enumerate_targets(workload.kernel),
                                  inp.n_threads, masks_per_site=2,
                                  bit_counts=(1, 2), seed=11)
        fresh_registry()
        program = _trained("CP")
        run_campaign(program, specs, "fift", CampaignOptions())
        return get_registry().as_dict()

    def test_cp_campaign_metrics_are_pinned(self):
        import hashlib
        import json

        metrics = {name: data for name, data in self._cp_campaign().items()
                   if name != "repro_campaign_phase_seconds"
                   and not name.startswith("repro_translator_")}
        assert metrics["repro_swifi_diff_hits_total"]["samples"][0]["value"] > 30
        text = json.dumps(metrics, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == self.CP_METRICS

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


class TestControlBlockSplice:
    """The replayed thread's events take the place of its golden ones,
    in thread order, and the range learning folds over the result."""

    @staticmethod
    def _engine(golden_events, n_threads=8):
        engine = DifferentialEngine.__new__(DifferentialEngine)
        ranges = RangeSet(ranges=[ValueRange(0.0, 1.0)])
        engine.program = SimpleNamespace(cb=ControlBlock(detectors={
            d: DetectorConfig(detector=d, ranges=ranges) for d in (0, 1)}))
        engine.n_threads = n_threads
        engine.golden_events = dict(sorted(golden_events.items()))
        return engine

    @staticmethod
    def _walk_every_thread(engine, target, replay_events):
        """The splice as a walk over every thread of the grid."""
        events = []
        for tid in range(engine.n_threads):
            events.extend(replay_events if tid == target
                          else engine.golden_events.get(tid, ()))
        updated = {}
        for event in events:
            if event.kind == "range":
                base = updated.get(event.detector, engine.program.cb.detectors[event.detector].ranges)
                updated[event.detector] = base.learn(event.value)
        return events, bool(events), updated

    @pytest.mark.parametrize("target", [0, 2, 3, 5, 7])
    @pytest.mark.parametrize("replayed", [[], [("range", 0, 9.0), ("trip", 1, 0.0)]])
    def test_splice_matches_a_walk_over_every_thread(self, target, replayed):
        def event(tid, kind, detector, value):
            return DetectionEvent(detector=detector, kind=kind, value=value,
                                  block=tid // 4, thread=tid % 4)

        # golden events on threads before and after the target, and on it
        golden = {5: [event(5, "range", 0, -4.0), event(5, "range", 1, 3.0)],
                  1: [event(1, "range", 0, 2.5)], 3: [event(3, "checksum", 1, 0.0)],
                  2: [event(2, "range", 1, 40.0), event(2, "range", 0, 5.0)]}
        engine = self._engine(golden)
        replay = [event(target, *e) for e in replayed]
        cb = engine._splice_control_block(target, replay)
        assert (cb.events, cb.sdc_bit, cb.updated_ranges) == \
            self._walk_every_thread(engine, target, replay)


def test_ineligible_marker_records_reason():
    prog = HauberkProgram(get_workload("TPACF"))
    entry = get_engine(prog, "fi", 0)
    assert isinstance(entry, _Ineligible)
    assert entry.reason == "uses_sync"


def _fig14_bench_plan(program):
    """CP's Figure 14 trials at the ``BENCH`` preset, in campaign order:
    the site draws of the benchmarks before CP come first, then one
    campaign per error-bit count."""
    import numpy as np

    from repro.harness.config import BENCH
    from repro.harness.fig14_coverage import NAMES
    from repro.swifi.targets import select_targets

    rng = np.random.default_rng(BENCH.seed + 14)
    for name in NAMES[:NAMES.index("CP")]:
        select_targets(get_workload(name).kernel, BENCH.max_targets, rng)
    sites = select_targets(program.workload.kernel, BENCH.max_targets, rng)
    inp, _golden = program.campaign_io(0)
    return [spec for bits in BENCH.bit_counts for spec in build_fault_specs(
        sites, n_threads=inp.n_threads, masks_per_site=BENCH.masks_per_site,
        bit_counts=(bits,), seed=BENCH.seed + bits)]


class TestHangVerdicts:
    def test_cp_bench_hangs_match_full_runs_without_verdicts(self, monkeypatch):
        """Every hang of CP's Figure 14 plan observes the same with
        replay, with full runs, and with full runs that run the budget
        out; the 16 delayed ``numatoms`` strikes are replay hits."""
        program = HauberkProgram(get_workload("CP"))
        program.train(seeds=[0])
        fresh_registry()
        runner = differential_runner(program, "fift", 0)
        plan = _fig14_bench_plan(program)
        hangs = [(spec, obs) for spec, obs in ((s, runner(s)) for s in plan)
                 if obs.failure and obs.note.startswith("kernel hang")]
        assert len(hangs) == 17
        verdicts = get_registry().as_dict()["repro_kir_hang_verdicts_total"]
        assert verdicts["samples"] == [{"labels": {"kernel": "cp"}, "value": 16.0}]

        engine = get_engine(program, "fift", 0)
        numatoms = [spec for spec, _obs in hangs if spec.timing == "delayed"]
        assert len(numatoms) == 16
        assert {engine.fi.sites[s.site].name for s in numatoms} == {"numatoms"}
        assert all(engine.run_trial(spec) is not None for spec in numatoms)

        full = program.trial_runner("fift", 0)
        assert [full(spec) for spec, _obs in hangs] == [obs for _spec, obs in hangs]

        launch = GPURuntime.launch

        def run_out(self, *args, hang_verdicts=False, **kwargs):
            return launch(self, *args, **kwargs)

        monkeypatch.setattr(GPURuntime, "launch", run_out)
        fresh_registry()
        assert [full(spec) for spec, _obs in hangs] == [obs for _spec, obs in hangs]
        assert "repro_kir_hang_verdicts_total" not in get_registry().as_dict()


class TestResumedVictims:
    """Where a replayed victim starts, and what its checkpoints cost."""

    def test_cp_victims_resume_after_the_prologue_on_demand(self):
        program = _trained("CP")
        engine = get_engine(program, "fift", 0)
        assert engine._heads == {}  # the golden record keeps no checkpoint
        full = program.trial_runner("fift", 0)
        dy = FaultSpec(site=13, mask=1 << 30, thread=5, occurrence=7)
        coorx = FaultSpec(site=7, mask=1 << 3, thread=5)
        late = FaultSpec(site=1, mask=1 << 15, thread=5, occurrence=42, timing="delayed")
        for spec, start in ((dy, "resume"), (coorx, "prologue"), (late, "resume")):
            assert engine.run_trial(spec) == full(spec)
            assert engine.start == start
        # dy's 7th execution follows the 7th head: heads 6 and 7 are kept,
        # with the counts the injector resumes from
        kept = engine._heads[5].kept
        assert kept[6].sites[13] == 6 and kept[7].sites[13] == 7
        assert kept[6].steps < kept[7].steps and kept[6].stores == 0

    def test_a_kernel_whose_loop_sits_in_a_branch_replays_from_the_top(self):
        program = _trained("SAD")
        engine = get_engine(program, "fift", 0)
        spec = _fig14_specs(program, _smoke())[0]
        engine.run_trial(spec)
        assert engine.start == "branch" and engine._heads == {}

    def test_the_report_counts_each_start_as_a_replay_hit(self):
        from repro.obs.report import _differential_attribution

        records = [SimpleNamespace(served=tag) for tag in (
            "diff:resume", "diff:resume", "diff:prologue", "diff", "full:replay_conflict", None)]
        assert _differential_attribution(records) == {
            "replay_hits": 4, "replay_starts": {"prologue": 1, "resume": 2},
            "fallbacks": {"replay_conflict": 1}, "untagged": 1}


def _smoke():
    from repro.harness.config import SMOKE

    return SMOKE
