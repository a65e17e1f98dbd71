"""CombinedLibrary dispatch and HauberkProgram edge cases."""

import pytest

from repro.core.program import CombinedLibrary, HauberkProgram, RunStatus
from repro.errors import KernelCrash
from repro.gpu.memory import GlobalMemory
from repro.kir.interp.evalcore import ExecContext, InstrumentationLibrary
from repro.workloads import get_workload


class _A(InstrumentationLibrary):
    def __init__(self):
        self.calls = []

    def lib_alpha(self, ctx, frame, x):
        self.calls.append(("a", x))


class _B(InstrumentationLibrary):
    def __init__(self):
        self.calls = []

    def lib_beta(self, ctx, frame, x):
        self.calls.append(("b", x))

    def lib_alpha(self, ctx, frame, x):  # shadowed by _A when first
        self.calls.append(("b-alpha", x))


def _ctx(lib=None):
    return ExecContext(GlobalMemory(16), lib=lib)


class TestCombinedLibrary:
    def test_routes_to_first_handler(self):
        a, b = _A(), _B()
        lib = CombinedLibrary([a, b])
        lib.hook("__hauberk_alpha")(_ctx(), {}, 1)
        lib.hook("__hauberk_beta")(_ctx(), {}, 2)
        assert a.calls == [("a", 1)]
        assert b.calls == [("b", 2)]  # alpha went to _A, not _B

    def test_unknown_call_crashes(self):
        lib = CombinedLibrary([_A()])
        assert lib.hook("__hauberk_gamma") is None
        with pytest.raises(KernelCrash, match="library has no handler for __hauberk_gamma"):
            _ctx(lib).bind_hook("__hauberk_gamma")


class TestProgramEdgeCases:
    def test_crashed_run_has_no_output(self):
        wl = get_workload("MRI-Q")
        prog = HauberkProgram(wl)
        from repro.swifi import FaultSpec, enumerate_targets

        ptr = next(s for s in enumerate_targets(wl.kernel) if s.name == "Qr")
        result = prog.run(
            mode="fi", seed=0,
            fault=FaultSpec(site=ptr.site, mask=1 << 30, thread=0),
        )
        assert result.status is RunStatus.CRASH
        assert result.output is None
        assert result.kernel_time == 0.0
        assert "crash" in result.failure_reason

    def test_crash_does_not_leak_alarm_state(self):
        """The device control-block copy dies with the crashed kernel."""
        wl = get_workload("MRI-Q")
        prog = HauberkProgram(wl)
        prog.train(seeds=[0])
        from repro.swifi import FaultSpec, enumerate_targets

        ptr = next(s for s in enumerate_targets(wl.kernel) if s.name == "Qr")
        before_events = list(prog.cb.events)
        result = prog.run(
            mode="fift", seed=0,
            fault=FaultSpec(site=ptr.site, mask=1 << 30, thread=0),
        )
        assert result.status is RunStatus.CRASH
        assert not result.alarm
        assert prog.cb.events == before_events  # host copy untouched

    def test_builds_are_cached(self):
        wl = get_workload("CP")
        prog = HauberkProgram(wl)
        assert prog.build("ft") is prog.build("ft")

    def test_measure_time_requires_clean_run(self):
        wl = get_workload("CP")
        prog = HauberkProgram(wl)
        # ft without training alarms but still completes: measurable
        t = prog.measure_time("ft", seed=0)
        assert t > 0
