"""Control block, FT library, translator modes, and HauberkProgram tests."""

import pytest

from repro.core.controlblock import ControlBlock, DetectorConfig
from repro.core.ftlib import HauberkFTLibrary
from repro.core.program import HauberkProgram, RunStatus
from repro.core.ranges import RangeSet, ValueRange
from repro.core.translator import HauberkTranslator, TranslatorOptions
from repro.errors import ReproError
from repro.kir import kernel_to_source
from repro.swifi import FaultSpec, enumerate_targets
from repro.swifi.injector import FI_FUNC
from repro.kir.astnodes import CallStmt, walk_stmts
from repro.workloads import get_workload


class TestControlBlock:
    def _cb(self):
        cb = ControlBlock()
        cb.configure([DetectorConfig(detector=0, variable="acc")])
        cb.load_ranges({0: RangeSet(ranges=[ValueRange(0.0, 10.0)])})
        return cb

    def test_configure_and_load(self):
        cb = self._cb()
        assert cb.detectors[0].ranges.contains(5.0)
        with pytest.raises(ReproError):
            cb.load_ranges({7: RangeSet()})

    def test_alpha(self):
        cb = self._cb()
        cb.set_alpha_all(10.0)
        assert cb.detectors[0].ranges.alpha == 10.0
        with pytest.raises(ReproError):
            cb.set_alpha(9, 10.0)

    def test_device_copy_isolation(self):
        """Detection state on the device copy is lost unless copied back."""
        cb = self._cb()
        dev = cb.copy_to_device()
        lib = HauberkFTLibrary(dev)
        lib.lib_check_range(_ctx(), {}, 0, 99.0)  # out of range
        assert dev.sdc_bit
        assert not cb.sdc_bit  # host copy untouched (kernel crashed, say)
        cb.copy_from_device(dev)
        assert cb.sdc_bit and cb.alarm_raised
        assert cb.events_of_kind("range")

    def test_device_copy_shares_nothing_the_device_writes(self):
        cb = self._cb()
        dev = cb.copy_to_device()
        assert dev.detectors == cb.detectors
        assert dev.detectors[0] is not cb.detectors[0]
        assert dev.events is not cb.events
        assert dev.updated_ranges is not cb.updated_ranges
        dev.detectors[0].ranges = RangeSet()
        assert cb.detectors[0].ranges.contains(5.0)

    def test_clear_results(self):
        cb = self._cb()
        cb.sdc_bit = True
        cb.clear_results()
        assert not cb.alarm_raised


def _ctx():
    from repro.gpu.memory import GlobalMemory
    from repro.kir.interp.evalcore import ExecContext

    return ExecContext(GlobalMemory(16))


class TestFTLibrary:
    def test_range_miss_learns_new_ranges(self):
        cb = ControlBlock()
        cb.configure([DetectorConfig(detector=0)])
        cb.load_ranges({0: RangeSet(ranges=[ValueRange(0.0, 1.0)])})
        lib = HauberkFTLibrary(cb)
        lib.lib_check_range(_ctx(), {}, 0, 50.0)
        assert cb.sdc_bit
        assert cb.updated_ranges[0].contains(50.0)  # on-line learning proposal

    def test_range_hit_is_silent(self):
        cb = ControlBlock()
        cb.configure([DetectorConfig(detector=0)])
        cb.load_ranges({0: RangeSet(ranges=[ValueRange(0.0, 1.0)])})
        lib = HauberkFTLibrary(cb)
        lib.lib_check_range(_ctx(), {}, 0, 0.5)
        assert not cb.alarm_raised

    def test_check_equal(self):
        cb = ControlBlock()
        cb.configure([DetectorConfig(detector=0)])
        lib = HauberkFTLibrary(cb)
        lib.lib_check_equal(_ctx(), {}, 0, 10, 10)
        assert not cb.alarm_raised
        lib.lib_check_equal(_ctx(), {}, 0, 7, 10)
        assert cb.events_of_kind("trip")

    def test_unconfigured_detector_raises(self):
        lib = HauberkFTLibrary(ControlBlock())
        with pytest.raises(ReproError):
            lib.lib_check_range(_ctx(), {}, 3, 1.0)

    def test_checksum_validate(self):
        cb = ControlBlock()
        lib = HauberkFTLibrary(cb)
        lib.lib_checksum_validate(_ctx(), {}, 0, 0)
        assert not cb.alarm_raised
        lib.lib_checksum_validate(_ctx(), {}, 0xDEAD, 0)
        assert cb.events_of_kind("checksum")
        lib.lib_checksum_validate(_ctx(), {}, 0, 1)
        assert cb.events_of_kind("nl_mismatch")


class TestTranslator:
    def test_all_modes_build(self):
        wl = get_workload("MRI-Q")
        builds = HauberkTranslator().build_all(wl.kernel)
        assert set(builds) == {"original", "profiler", "ft", "fi", "fift"}
        for b in builds.values():
            assert b.kernel.validated
            assert b.instrumentation_time >= 0

    def test_original_is_passthrough(self):
        wl = get_workload("CP")
        b = HauberkTranslator().build(wl.kernel, "original")
        assert kernel_to_source(b.kernel) == kernel_to_source(wl.kernel)

    def test_unknown_mode(self):
        wl = get_workload("CP")
        with pytest.raises(Exception):
            HauberkTranslator().build(wl.kernel, "bogus")

    def test_fift_hooks_carry_original_site_ids(self):
        wl = get_workload("CP")
        translator = HauberkTranslator()
        fi = translator.build(wl.kernel, "fi")
        fift = translator.build(wl.kernel, "fift")
        def hook_sites(kernel):
            return sorted(
                s.args[0].value
                for s, _ in walk_stmts(kernel.body)
                if isinstance(s, CallStmt) and s.func == FI_FUNC
            )
        assert hook_sites(fi.kernel) == hook_sites(fift.kernel)
        original_sites = sorted(s.site for s in enumerate_targets(wl.kernel))
        assert hook_sites(fi.kernel) == original_sites

    def test_fift_hook_precedes_detector_gadget(self):
        """The fault must land before the checksum/accumulation reads."""
        wl = get_workload("CP")
        fift = HauberkTranslator().build(wl.kernel, "fift")
        text = kernel_to_source(fift.kernel)
        lines = text.splitlines()
        # find the definition of coorx and check ordering of what follows
        i = next(n for n, l in enumerate(lines) if "float coorx =" in l)
        following = "\n".join(lines[i + 1 : i + 3])
        assert "__hauberk_fi" in lines[i + 1]
        assert "__chk" in following

    def test_nl_only_and_l_only_options(self):
        wl = get_workload("CP")
        nl = HauberkTranslator(TranslatorOptions(enable_loop=False)).build(wl.kernel, "ft")
        assert nl.loop_info is None and nl.nonloop_info is not None
        lonly = HauberkTranslator(TranslatorOptions(enable_nonloop=False)).build(wl.kernel, "ft")
        assert lonly.loop_info is not None and lonly.nonloop_info is None


class TestHauberkProgram:
    def test_training_prevents_false_alarms(self):
        wl = get_workload("MRI-Q")
        prog = HauberkProgram(wl)
        prog.train(seeds=[0, 1, 2])
        for seed in (0, 1, 2):  # same data as training
            result = prog.run(mode="ft", seed=seed)
            assert result.status is RunStatus.OK
            assert not result.alarm

    def test_untrained_detectors_alarm(self):
        wl = get_workload("MRI-Q")
        prog = HauberkProgram(wl)
        prog.build("ft")
        result = prog.run(mode="ft", seed=0)
        assert result.alarm  # empty range sets admit nothing

    def test_alarming_learning_launch_leaves_host_configs_unchanged(self):
        import copy

        prog = HauberkProgram(get_workload("MRI-Q"))
        prog.build("ft")
        before = copy.deepcopy(prog.cb.detectors)
        ranges = {det: cfg.ranges for det, cfg in prog.cb.detectors.items()}
        result = prog.run(mode="ft", seed=0)
        assert result.status is RunStatus.OK and result.alarm
        assert prog.cb.updated_ranges  # the detectors learned on-line
        assert prog.cb.detectors == before
        assert all(prog.cb.detectors[det].ranges is rs for det, rs in ranges.items())

    def test_fault_requires_fi_mode(self):
        wl = get_workload("CP")
        prog = HauberkProgram(wl)
        with pytest.raises(ReproError):
            prog.run(mode="ft", fault=FaultSpec(site=0, mask=1))

    def test_detection_of_large_fault(self):
        wl = get_workload("MRI-Q")
        prog = HauberkProgram(wl)
        prog.train(seeds=[0, 1])
        site = next(
            s for s in enumerate_targets(wl.kernel)
            if s.name == "qr" and s.kind == "assign"
        )
        result = prog.run(
            mode="fift", seed=0,
            fault=FaultSpec(site=site.site, mask=1 << 29, thread=3,
                            occurrence=wl.numk),
        )
        assert result.status is RunStatus.OK
        assert result.activation is not None
        assert result.alarm  # exponent-bit corruption of the accumulator

    def test_kernel_time_includes_cb_overhead(self):
        wl = get_workload("CP")
        prog = HauberkProgram(wl)
        prog.train(seeds=[0])
        inp = wl.generate_input(0)
        t_orig = prog.measure_time("original", inp=inp)
        t_ft = prog.measure_time("ft", inp=inp)
        assert t_ft > t_orig

    def test_trial_runner_contract(self):
        wl = get_workload("PNS")
        prog = HauberkProgram(wl)
        prog.train(seeds=[0])
        runner = prog.trial_runner("fift")
        clean = runner(None)
        assert clean.output_ok and not clean.failure
