"""Instrumentation hooks are resolved once per launch, on first use.

Both scalar engines (closure and lockstep) look a ``__hauberk_<op>``
handler up through ``ExecContext.bind_hook`` the first time a call
executes and reuse it for every later execution in the same launch.
These tests pin down what that must not change: when an unbound call
crashes, with which message, and which values a hook receives —
including the calling thread's live statement count in ``ctx.steps``,
which ``ActivationRecord.at_step`` records.
"""

from __future__ import annotations

import pytest

from repro.errors import KernelCrash
from repro.gpu.device import Device
from repro.gpu.runtime import GPURuntime
from repro.kir import parse_kernel
from repro.kir.interp.evalcore import InstrumentationLibrary

ENGINES = ("closure", "lockstep")


class _Counting(InstrumentationLibrary):
    """Counts resolutions and records every call it serves."""

    def __init__(self):
        self.resolved = []
        self.calls = []
        self.steps = []

    def hook(self, func):
        self.resolved.append(func)
        return super().hook(func)

    def lib_probe(self, ctx, frame, *args):
        self.calls.append(args)
        self.steps.append(ctx.steps)


def _launch(src, args, lib, engine, block=1):
    runtime = GPURuntime(Device(), engine=engine)
    return runtime.launch(parse_kernel(src), 1, block, args, lib=lib)


@pytest.mark.parametrize("engine", ENGINES)
class TestHookBinding:
    def test_hook_in_loop_resolves_once_per_launch(self, engine):
        src = """
        kernel k(int n) {
            for (int i = 0; i < n; i++) { __hauberk_probe(i); }
        }
        """
        lib = _Counting()
        _launch(src, {"n": 5}, lib, engine, block=3)
        assert lib.resolved == ["__hauberk_probe"]
        assert len(lib.calls) == 15
        # init, then (condition, probe, update) per iteration: each of
        # the three threads counts its own statements from zero
        assert lib.steps == [3, 6, 9, 12, 15] * 3
        _launch(src, {"n": 5}, lib, engine, block=3)
        assert lib.resolved == ["__hauberk_probe"] * 2  # fresh per launch

    def test_unbound_call_in_untaken_branch_does_not_crash(self, engine):
        src = """
        kernel k(int n) {
            if (n > 100) { __hauberk_nothing(n); __other(n); }
            __hauberk_probe(n);
        }
        """
        lib = _Counting()
        _launch(src, {"n": 1}, lib, engine)
        assert lib.calls == [(1,)]
        assert lib.resolved == ["__hauberk_probe"]

    @pytest.mark.parametrize("func, message", [
        ("__hauberk_nothing", "library has no handler for __hauberk_nothing"),
        ("__other", "unbound library call __other"),
    ])
    def test_reached_unbound_call_crashes(self, engine, func, message):
        src = f"kernel k(int n) {{ __hauberk_probe(n); {func}(n); }}"
        lib = _Counting()
        with pytest.raises(KernelCrash, match=message):
            _launch(src, {"n": 1}, lib, engine)
        assert lib.calls == [(1,)]  # the call before it ran

    def test_const_and_computed_args_arrive_in_order(self, engine):
        src = """
        kernel k(int n, float x) {
            int m = n * 3;
            __hauberk_probe(7, "m", 2.5);
            __hauberk_probe(m + 1, "m", x * 2.0, 4);
        }
        """
        lib = _Counting()
        _launch(src, {"n": 2, "x": 1.25}, lib, engine)
        assert lib.calls == [(7, "m", 2.5), (7, "m", 2.5, 4)]
        assert [type(v) for v in lib.calls[1]] == [int, str, float, int]
