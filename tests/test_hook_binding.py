"""Instrumentation hooks are resolved once per launch, on first use.

Both scalar engines (closure and lockstep) look a ``__hauberk_<op>``
handler up through ``ExecContext.bind_hook`` the first time a call
executes and reuse it for every later execution in the same launch.
These tests pin down what that must not change: when an unbound call
crashes, with which message, and which values a hook receives —
including the calling thread's live statement count in ``ctx.steps``,
which ``ActivationRecord.at_step`` records.

A handler that returns ``RETIRE`` is not called again in its thread by
the compiled engine, and one that returns ``RETIRE_CALL`` is not called
again from that call statement; lockstep ignores the return value.  The
retire tests below run fault-injection launches on both engines and
compare everything observable, so each ``RETIRE`` and ``RETIRE_CALL``
the FI library returns is checked against a run that kept calling it;
they also count the calls each engine makes.

The compiled engine keeps KIR variables in Python locals and hands a
live hook a ``FrameView`` of them; the write-back tests below check
that a hook sees and writes the frame exactly as it does the lockstep
interpreter's dict.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.core.ftlib import HauberkFTLibrary
from repro.core.program import CombinedLibrary, HauberkProgram
from repro.errors import KernelCrash, KernelHang, KIRError
from repro.gpu.costmodel import CostModel
from repro.gpu.device import Device
from repro.gpu.runtime import GPURuntime
from repro.kir import parse_kernel
from repro.kir.astnodes import CallStmt, Const
from repro.kir.interp.codegen import _Emitter
from repro.kir.interp.evalcore import (
    RETIRE, RETIRE_CALL, ExecContext, InstrumentationLibrary,
)
from repro.kir.interp.lockstep import LockstepProgram
from repro.kir.types import DType
from repro.swifi.faultmodel import FaultSpec
from repro.swifi.injector import FaultInjectionLibrary, instrument_for_fi
from repro.swifi.targets import enumerate_targets
from repro.workloads import get_workload
from repro.workloads.base import BufferSpec, Workload, WorkloadInput

from test_fast_iterations import FastCounter

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


class _LazyWorkload(Workload):
    """Four threads; a call no library handles sits in a branch that
    only a fault on ``m`` takes."""

    name = "LAZY"
    source = """
    kernel lazy(float* out, int n) {
        int tid = blockIdx.x * blockDim.x + threadIdx.x;
        int m = n;
        if (m > 100) { __hauberk_nothing(m); __other(m); }
        out[tid] = float(m + tid);
    }
    """

    def generate_input(self, seed=0):
        return WorkloadInput(
            buffers=[BufferSpec("out", DType.FLOAT32, 4)], scalars={"n": 1},
            buffer_params={"out": "out"}, outputs=["out"],
            grid=(1, 1), block=(4, 1))

    def golden(self, inp):
        return np.arange(4) + 1.0


class TestReplayHookBinding:
    """A differential replay engine keeps one hook table across its
    trials, filled as calls first execute: the unbound call in the
    untaken branch crashes only the trials that reach it."""

    def test_unbound_call_in_untaken_branch_across_replays(self):
        from repro.swifi.differential import differential_runner, get_engine

        program = HauberkProgram(_LazyWorkload())
        runner = differential_runner(program, "fi", 0)
        engine = get_engine(program, "fi", 0)
        full = program.trial_runner("fi", 0)
        (m_site,) = [s.site for s in enumerate_targets(program.workload.kernel)
                     if s.name == "m"]
        clean = FaultSpec(site=m_site, mask=1 << 1, thread=2)   # m = 3
        taken = FaultSpec(site=m_site, mask=1 << 7, thread=1)   # m = 129
        for spec in (clean, taken, clean, taken, clean):
            obs = runner(spec)
            assert engine.run_trial(spec) == obs == full(spec)
            assert obs.failure == (spec is taken)
            assert set(engine.ctx.hooks) == {"__hauberk_fi"}
        assert obs.output_ok is False and not obs.failure
        assert full(taken).note.startswith(
            "kernel crash: library has no handler for __hauberk_nothing")


# ---------------------------------------------------------------------------
# the retire contract
# ---------------------------------------------------------------------------


class _Retiring(InstrumentationLibrary):
    """Records every call; ``probe`` retires after ``limit`` calls in a
    thread, ``other`` never retires."""

    def __init__(self, limit):
        self.limit = limit
        self.calls = []
        self.per_thread = {}

    def lib_probe(self, ctx, frame, i):
        self.calls.append(("probe", ctx.block, ctx.thread, i, ctx.steps))
        key = (ctx.block, ctx.thread)
        self.per_thread[key] = self.per_thread.get(key, 0) + 1
        return RETIRE if self.per_thread[key] >= self.limit else None

    def lib_other(self, ctx, frame, i):
        self.calls.append(("other", ctx.block, ctx.thread, i, ctx.steps))


RETIRE_SRC = """
kernel k(int n, int* out) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        __hauberk_probe(i);
        __hauberk_other(i);
        acc = acc + i;
    }
    out[blockIdx.x * blockDim.x + threadIdx.x] = acc;
}
"""


class TestRetiringLibrary:
    @staticmethod
    def _run(engine, limit):
        device = Device()
        out = device.memory.alloc("out", 6, DType.INT32)
        lib = _Retiring(limit)
        result = GPURuntime(device, engine=engine).launch(
            parse_kernel(RETIRE_SRC), 2, 3, {"n": 4, "out": out}, lib=lib)
        return result, device.memory.memcpy_dtoh(out).tolist(), lib.calls

    def test_retired_hook_is_skipped_for_the_rest_of_its_thread(self):
        result, words, calls = self._run("closure", limit=2)
        probes = [c[1:4] for c in calls if c[0] == "probe"]
        # two calls in each of the six threads: every thread calls again
        assert probes == [(b, t, i) for b in range(2) for t in range(3) for i in range(2)]
        # the hook that never retires is called on every iteration, at
        # the same step counts as when nothing retires
        ref_result, ref_words, ref_calls = self._run("closure", limit=99)
        others = [c for c in calls if c[0] == "other"]
        assert len(others) == 6 * 4
        assert others == [c for c in ref_calls if c[0] == "other"]
        # steps, budget and cycles do not depend on retirement
        assert (result, words) == (ref_result, ref_words)

    def test_lockstep_ignores_retire(self):
        assert self._run("lockstep", limit=2) == self._run("closure", limit=99)

    def test_retired_hook_leaves_the_loop_to_fast_iterations(self):
        device = Device()
        out = device.memory.alloc("out", 6, DType.INT32)
        runtime = GPURuntime(device)
        kernel = parse_kernel(RETIRE_SRC)
        counter = FastCounter(runtime.prepare(kernel)[0])
        with counter:
            runtime.launch(kernel, 2, 3, {"n": 4, "out": out}, lib=_Retiring(2))
        # 'other' never retires, so no iteration runs unchecked
        assert counter.count == 0

    def test_call_outside_a_thread_function_is_rejected(self):
        call = CallStmt(func="__hauberk_probe", args=[Const(1)])
        with pytest.raises(KIRError, match="outside a thread function"):
            _Emitter(CostModel()).stmt(call, 0)


class _CallRetiring(InstrumentationLibrary):
    """``probe(tag, i)`` answers ``RETIRE_CALL`` at each call statement
    after ``limits[tag]`` of its calls in a thread (never, for None) and
    ignores that statement's later calls; ``made`` counts every call
    that reaches the handler."""

    def __init__(self, limits):
        self.limits = limits
        self.calls = []
        self.made = Counter()
        self.per_call = Counter()

    def lib_probe(self, ctx, frame, tag, i):
        key = (ctx.block, ctx.thread, tag)
        self.made[tag] += 1
        limit = self.limits[tag]
        if limit is not None and self.per_call[key] >= limit:
            return RETIRE_CALL
        self.per_call[key] += 1
        self.calls.append((tag, ctx.block, ctx.thread, i, ctx.steps))
        if limit is not None and self.per_call[key] >= limit:
            return RETIRE_CALL
        return None


CALL_RETIRE_SRC = """
kernel k(int n, int* out) {
    int acc = 0;
    __hauberk_probe(2, n);
    for (int i = 0; i < n; i++) {
        __hauberk_probe(0, i);
        acc = acc + i;
        __hauberk_probe(1, i);
    }
    __hauberk_probe(3, acc);
    out[blockIdx.x * blockDim.x + threadIdx.x] = acc;
}
"""


class TestCallRetirement:
    """``RETIRE_CALL`` retires one call statement of a thread; the
    other statements of the same hook name keep being called."""

    @staticmethod
    def _run(engine, limits, n=5):
        device = Device()
        out = device.memory.alloc("out", 6, DType.INT32)
        runtime = GPURuntime(device, engine=engine)
        kernel = parse_kernel(CALL_RETIRE_SRC)
        lib = _CallRetiring(limits)
        counter = None if engine == "lockstep" else FastCounter(runtime.prepare(kernel)[0])
        with counter or contextlib.nullcontext():
            result = runtime.launch(kernel, 2, 3, {"n": n, "out": out}, lib=lib)
        seen = (result, device.memory.memcpy_dtoh(out).tolist(), lib.calls)
        return seen, lib.made, counter and counter.count

    @pytest.mark.parametrize("limits", [
        {0: 2, 1: None, 2: 1, 3: 1},
        {0: 1, 1: 3, 2: None, 3: None},
        {0: None, 1: None, 2: 1, 3: 1},
    ])
    def test_both_engines_record_the_same(self, limits):
        fast, made, _fast = self._run("closure", limits)
        slow, slow_made, _slow = self._run("lockstep", limits)
        assert fast == slow
        # lockstep calls every statement on every iteration
        assert slow_made == {0: 30, 1: 30, 2: 6, 3: 6}
        for tag in (0, 1):
            limit = limits[tag]
            assert made[tag] == (30 if limit is None else 6 * limit)
        # statements outside the loop run once a thread either way
        assert made[2] == made[3] == 6

    def test_one_statement_retired_keeps_the_other_called(self):
        (_result, _words, calls), made, fast = self._run("closure", {0: 2, 1: None,
                                                                      2: 1, 3: 1})
        assert [c[3] for c in calls if c[0] == 1 and c[1:3] == (0, 0)] == [0, 1, 2, 3, 4]
        assert made[0] == 12
        assert fast == 0  # statement 1 is live in every iteration

    def test_loop_whose_every_call_retired_runs_counted(self):
        (result, words, calls), made, fast = self._run("closure", {0: 1, 1: 2,
                                                                    2: None, 3: None})
        # each thread checks two iterations, then runs the other three
        # in one counted run
        assert fast == 6 * 3
        assert made == {0: 6, 1: 12, 2: 6, 3: 6}
        reference, _made, _fast = self._run("closure", {0: None, 1: None,
                                                        2: None, 3: None})
        assert (result, words) == reference[:2]


HAND_SRC = """
kernel hand(float* out, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0;
    for (int i = 0; i < n; i++) {
        float v = float(i + tid);
        acc = acc + v;
    }
    int late = tid * 2;
    out[tid] = acc + float(late);
}
"""


class _HandBuild:
    """A small FI build: two blocks of three threads, budget 400."""

    grid, block, budget = 2, 3, 400

    def __init__(self):
        self.kernel = parse_kernel(HAND_SRC)
        self.fi_kernel = instrument_for_fi(self.kernel)
        self.n_threads = 6

    def setup(self, device):
        out = device.memory.alloc("out", self.n_threads, DType.FLOAT32)
        return {"out": out, "n": 6}

    def library(self, spec):
        fi = FaultInjectionLibrary(self.kernel, spec)
        return fi, fi, None


class _CPBuild:
    """CP's FI&FT build, trained on input 0, as fig14 attacks it."""

    def __init__(self):
        self.program = HauberkProgram(get_workload("CP"))
        self.program.train([0])
        self.kernel = self.program.workload.kernel
        self.fi_kernel = self.program.build("fift").kernel
        self.inp = self.program.workload.generate_input(0)
        self.grid, self.block = self.inp.grid, self.inp.block
        self.n_threads = self.inp.n_threads
        self.budget = self.program.workload.hang_budget

    def setup(self, device):
        return self.program.workload.setup_memory(device, self.inp)[0]

    def library(self, spec):
        cb = self.program.cb.copy_to_device()
        fi = FaultInjectionLibrary(self.kernel, spec)
        return CombinedLibrary([HauberkFTLibrary(cb), fi]), fi, cb


def _site(kernel, name, kind):
    return next(s.site for s in enumerate_targets(kernel)
                if s.name == name and s.kind == kind)


def _watch(prog, seen):
    """Wrap ``prog``'s entry point to keep every thread frame and the
    final ``ctx.steps``; returns the undo.  A grid launch drops each
    frame when its thread ends, so the wrapper asks for frames back."""
    attr = "run_block" if isinstance(prog, LockstepProgram) else "run_thread"
    inner = getattr(prog, attr)

    def watched(frames, ctx):
        ctx.keep_frames = True
        seen["frames"].extend(frames if attr == "run_block" else [frames])
        try:
            inner(frames, ctx)
        finally:
            seen["steps"] = ctx.steps

    setattr(prog, attr, watched)
    return lambda: setattr(prog, attr, inner)


def _observe_launch(kernel, engine, grid, block, setup, lib, budget):
    """Launch ``kernel`` with ``lib``; the observables every engine must
    agree on.  ``setup(device)`` allocates and returns the arguments."""
    device = Device()
    runtime = GPURuntime(device, engine=engine)
    args = setup(device)
    prepare = runtime.prepare_lockstep if engine == "lockstep" else runtime.prepare
    seen = {"frames": [], "steps": None}
    undo = _watch(prepare(kernel)[0], seen)
    launch = error = None
    try:
        launch = runtime.launch(kernel, grid, block, args, lib=lib, budget=budget)
    except (KernelHang, KernelCrash) as exc:
        error = (type(exc).__name__, str(exc))
    finally:
        undo()
    return {
        "launch": launch,
        "error": error,
        "words": device.memory.read_words(0, device.memory.used_words).tolist(),
        # repr: NaN compares equal, -0.0 differs from 0.0
        "frames": [sorted((k, repr(v)) for k, v in fr.items()) for fr in seen["frames"]],
        "steps": seen["steps"],
    }


def _observe_fi(build, engine, spec, fi_calls=None):
    """Launch ``build`` with ``spec`` armed; everything observable.
    ``fi_calls``, a ``Counter``, counts the calls that reach the FI
    handler by (thread id, site)."""
    lib, fi, cb = build.library(spec)
    if fi_calls is not None:
        handler = fi.lib_fi

        def counted(ctx, frame, site, name):
            fi_calls[ctx.block * ctx.block_size + ctx.thread, site] += 1
            return handler(ctx, frame, site, name)

        fi.lib_fi = counted
    seen = _observe_launch(build.fi_kernel, engine, build.grid, build.block, build.setup,
                           lib, build.budget)
    # every ActivationRecord field; repr: a NaN value compares equal
    seen["activation"] = None if fi.activation is None else {
        k: repr(v) if isinstance(v, float) else v
        for k, v in dataclasses.asdict(fi.activation).items()}
    seen["counters"] = dict(fi.state.counters)
    seen["detections"] = None if cb is None else (repr(cb.events), cb.sdc_bit)
    return seen


#: (label, site name, site kind, FaultSpec keywords, expected error,
#: activated variable, n_injections); ``thread`` may be "last" or
#: "outside" the grid.
RETIRE_CASES = {
    "hand": [
        ("transient-in-loop", "v", "decl", dict(occurrence=3, thread=4, mask=1 << 23),
         None, "v", 1),
        ("intermittent", "acc", "assign",
         dict(occurrence=2, burst=3, thread=1, mask=1 << 30), None, "acc", 3),
        ("delayed-not-yet-live", "late", "decl",
         dict(timing="delayed", occurrence=2, thread=3, mask=1 << 4), None, "late", 1),
        ("non-victim-hang", "i", "assign", dict(occurrence=2, thread="last", mask=1 << 31),
         "KernelHang", "i", 1),
        ("victim-outside-grid", "acc", "decl", dict(thread="outside", mask=1),
         None, None, None),
        ("delayed-param-hang", "n", "param",
         dict(timing="delayed", occurrence=3, thread=2, mask=1 << 30), "KernelHang", "n", 1),
        ("delayed-pointer-crash", "out", "param",
         dict(timing="delayed", occurrence=5, thread=2, mask=1 << 28),
         "DeviceMemoryError", "out", 1),
        ("after-loop", "late", "decl", dict(thread=4, mask=1 << 5), None, "late", 1),
        ("transient-late-in-loop", "acc", "assign",
         dict(occurrence=5, thread=0, mask=1 << 20), None, "acc", 1),
        ("delayed-in-loop", "acc", "assign",
         dict(timing="delayed", occurrence=9, thread=5, mask=1 << 3), None, "acc", 1),
        ("unarmed", None, None, None, None, None, None),
    ],
    "cp": [
        ("transient-in-loop", "dx1", "decl", dict(occurrence=3, thread=5, mask=1 << 22),
         None, "dx1", 1),
        ("intermittent", "energyx1", "assign",
         dict(occurrence=2, burst=3, thread=9, mask=1 << 30), None, "energyx1", 3),
        ("delayed-not-yet-live", "outidx", "decl",
         dict(timing="delayed", occurrence=3, thread=7, mask=1 << 3), None, "outidx", 1),
        ("non-victim", "energyx2", "assign",
         dict(occurrence=1, thread="last", mask=1 << 29), None, "energyx2", 1),
        ("victim-outside-grid", "dx2", "decl", dict(thread="outside", mask=1),
         None, None, None),
        ("after-loop", "outidx", "decl", dict(thread=7, mask=1 << 2), None, "outidx", 1),
        ("transient-late-in-loop", "charge", "decl",
         dict(occurrence=7, thread=12, mask=1 << 21), None, "charge", 1),
        ("intermittent-burst-in-loop", "dx2", "decl",
         dict(occurrence=4, burst=3, thread=20, mask=1 << 25), None, "dx2", 3),
        ("delayed-in-loop", "dx2", "decl",
         dict(timing="delayed", occurrence=30, thread=3, mask=1 << 12), None, "dx2", 1),
        ("unarmed", None, None, None, None, None, None),
    ],
}
_BUILDS = {"hand": _HandBuild, "cp": _CPBuild}


@pytest.mark.parametrize("build_name, name, kind, spec_kw, error, variable, n_injections", [
    pytest.param(b, *case[1:], id=f"{b}-{case[0]}")
    for b, cases in RETIRE_CASES.items() for case in cases
])
def test_fi_retire_matches_lockstep(build_name, name, kind, spec_kw, error, variable,
                                    n_injections):
    build = _BUILDS[build_name]()
    spec = None
    if spec_kw is not None:
        spec_kw = dict(spec_kw)
        thread = spec_kw.pop("thread")
        thread = {"last": build.n_threads - 1, "outside": build.n_threads + 5}.get(thread, thread)
        spec = FaultSpec(site=_site(build.kernel, name, kind), thread=thread, **spec_kw)
    fast_calls, slow_calls = Counter(), Counter()
    fast = _observe_fi(build, "closure", spec, fast_calls)
    slow = _observe_fi(build, "lockstep", spec, slow_calls)
    for key in slow:
        assert fast[key] == slow[key], key
    # the case does what its name says
    assert (fast["error"] or (None,))[0] == error
    if variable is None:
        assert fast["activation"] is None
    else:
        assert fast["activation"]["variable"] == variable
        assert fast["activation"]["n_injections"] == n_injections
    _check_fi_calls(spec, fast_calls, slow_calls, fast["counters"])


def _check_fi_calls(spec, fast, slow, counters):
    """The compiled engine's FI calls by (thread id, site) against
    lockstep's, which calls every hook statement it reaches."""
    assert all(n <= slow[key] for key, n in fast.items())
    victim = None if spec is None else spec.thread
    per_thread = Counter()
    for (tid, _site), n in fast.items():
        per_thread[tid] += n
    # a thread that is not the victim retires the hook at its first call
    assert all(n == 1 for tid, n in per_thread.items() if tid != victim)
    if victim not in per_thread:
        return
    if spec.timing == "delayed":
        # every hook event counts towards the strike: none retires early
        assert per_thread[victim] == counters[("__events__", victim)]
        return
    # each FI call statement is one site: before the strike, each other
    # site's statement is called once, the armed one up to its last hit
    for (tid, site), n in fast.items():
        if tid == victim:
            last = spec.occurrence + spec.burst - 1
            assert n == 1 if site != spec.site else n <= last, site


def test_after_loop_victim_skips_its_loop_hooks_and_runs_counted():
    """CP's ``outidx`` (site 21, after the atom loop) as the target: the
    victim calls each of its loop's nine FI statements once, lockstep
    every iteration, and the victim's loop runs counted after its
    first iteration."""
    build = _CPBuild()
    spec = FaultSpec(site=_site(build.kernel, "outidx", "decl"), thread=7, mask=1 << 2)
    fast_calls, slow_calls = Counter(), Counter()
    _observe_fi(build, "closure", spec, fast_calls)
    _observe_fi(build, "lockstep", spec, slow_calls)
    atoms = build.inp.scalars["numatoms"]
    loop_sites = range(12, 21)
    victim_fast = {site: n for (tid, site), n in fast_calls.items() if tid == 7}
    victim_slow = {site: n for (tid, site), n in slow_calls.items() if tid == 7}
    assert victim_fast == dict.fromkeys(range(22), 1)
    assert victim_slow == {site: atoms if site in loop_sites else 1 for site in range(22)}
    device = Device()
    runtime = GPURuntime(device)
    args = build.setup(device)
    lib, fi, _cb = build.library(spec)
    counter = FastCounter(runtime.prepare(build.fi_kernel)[0])
    with counter:
        runtime.launch(build.fi_kernel, build.grid, build.block, args, lib=lib,
                       budget=build.budget)
    assert fi.activation.variable == "outidx"
    # every thread's loop runs counted, the victim's from its second
    # iteration on
    assert counter.count == atoms * build.n_threads - 1


# ---------------------------------------------------------------------------
# the frame write-back contract
# ---------------------------------------------------------------------------


class _Poking(InstrumentationLibrary):
    """Runs ``action(frame, tag, ctx)`` at every ``__hauberk_poke(tag)``
    and keeps what it returns."""

    def __init__(self, action):
        self.action = action
        self.seen = []

    def lib_poke(self, ctx, frame, tag):
        self.seen.append((ctx.block, ctx.thread, tag, ctx.steps,
                          self.action(frame, tag, ctx)))


def _observe_writes(src, engine, action, n, grid=1, block=2, budget=400):
    """Launch ``src`` with a ``_Poking(action)`` library; everything
    observable."""
    def setup(device):
        return {"n": n, "out": device.memory.alloc("out", grid * block, DType.FLOAT32)}

    lib = _Poking(action)
    seen = _observe_launch(parse_kernel(src), engine, grid, block, setup, lib, budget)
    seen["seen"] = lib.seen
    return seen


def _writes_agree(src, action, n, **kw):
    fast = _observe_writes(src, "closure", action, n, **kw)
    slow = _observe_writes(src, "lockstep", action, n, **kw)
    for key in slow:
        assert fast[key] == slow[key], key
    return fast


WRITE_SRC = """
kernel w(int n, float* out) {
    float acc = 0.0;
    __hauberk_poke(0);
    for (int i = 0; i < n; i++) {
        acc = acc + 1.0;
        __hauberk_poke(1);
    }
    out[blockIdx.x * blockDim.x + threadIdx.x] = acc;
}
"""


class TestFrameWriteBack:
    def test_parameter_write_not_named_by_the_call_changes_the_trip_count(self):
        def action(frame, tag, ctx):
            if tag == 0 and ctx.thread == 1:
                frame["n"] = 1 << 30  # the loop now runs to the budget
            return frame["n"]

        seen = _writes_agree(WRITE_SRC, action, 3)
        assert seen["error"] == ("KernelHang", "kernel hang: instruction budget exhausted")
        # thread 0 ran its three iterations; thread 1 hung
        assert [s[4] for s in seen["seen"] if s[1] == 0] == [3] * 4
        assert len(seen["frames"]) == 2
        assert ("n", repr(1 << 30)) in seen["frames"][1]
        assert seen["steps"] == 401

    def test_loop_counter_write_mid_loop(self):
        def action(frame, tag, ctx):
            if tag == 1 and frame["i"] == 1:
                frame["i"] = 5
            return frame.get("i")

        seen = _writes_agree(WRITE_SRC, action, 8)
        assert seen["error"] is None
        # i = 0, 1 -> 5, 6, 7: four iterations instead of eight
        assert [s[4] for s in seen["seen"] if s[1] == 0] == [None, 0, 5, 6, 7]
        assert np.array(seen["words"][:2], dtype=np.uint32).view(np.float32).tolist() == [4.0] * 2
        assert ("i", "8") in seen["frames"][0]

    def test_membership_follows_assignment_not_scope(self):
        src = """
        kernel p(int n, float* out) {
            __hauberk_poke(0);
            for (int i = 0; i < n - threadIdx.x; i++) {
                float v = float(i);
                __hauberk_poke(1);
            }
            __hauberk_poke(2);
            int late = n * 2;
            __hauberk_poke(3);
        }
        """

        def action(frame, tag, ctx):
            return tuple(name in frame for name in ("n", "threadIdx.x", "i", "v", "late"))

        seen = _writes_agree(src, action, 1)
        assert seen["error"] is None
        assert [s[2:5:2] for s in seen["seen"]] == [
            # thread 0: one iteration, so v is still present after the loop
            (0, (True, True, False, False, False)),
            (1, (True, True, True, True, False)),
            (2, (True, True, True, True, False)),
            (3, (True, True, True, True, True)),
            # thread 1: no iteration, so v was never assigned
            (0, (True, True, False, False, False)),
            (2, (True, True, True, False, False)),
            (3, (True, True, True, False, True)),
        ]
        names = [[k for k, _ in fr] for fr in seen["frames"]]
        assert "v" in names[0] and "v" not in names[1]

    def test_write_of_an_unassigned_name_reaches_the_frame(self):
        def action(frame, tag, ctx):
            if tag == 0:
                frame["i"] = 40  # declared later: the for init overwrites it
                frame["extra"] = 2.5  # not a kernel variable at all
            return (frame["i"], frame["extra"])

        seen = _writes_agree(WRITE_SRC, action, 2)
        assert seen["error"] is None
        assert [s[4] for s in seen["seen"] if s[1] == 0] == [(40, 2.5), (0, 2.5), (1, 2.5)]
        assert ("extra", "2.5") in seen["frames"][0]

    def test_write_then_raise_keeps_the_write(self):
        def action(frame, tag, ctx):
            if tag == 1 and ctx.thread == 1:
                frame["acc"] = -7.0
                frame["n"] = 99
                raise KernelCrash("hook gave up", ctx.thread, ctx.block)
            return None

        seen = _writes_agree(WRITE_SRC, action, 2)
        assert seen["error"][0] == "KernelCrash"
        assert ("acc", "-7.0") in seen["frames"][1]
        assert ("n", "99") in seen["frames"][1]

    def test_write_back_only_while_the_context_keeps_frames(self):
        device = Device()
        runtime = GPURuntime(device)
        kernel = parse_kernel("kernel p(int n, int* out) { int x = n + 1; out[0] = x; }")
        out = device.memory.alloc("out", 1, DType.INT32)
        prog = runtime.prepare(kernel)[0]
        for keep in (True, False):
            frame = {"n": 2, "out": out.base}
            ctx = ExecContext(device.memory)
            ctx.keep_frames = keep
            prog.run_thread(frame, ctx)
            assert ("x" in frame) is keep
        # a grid launch drops every frame, so it asks for none
        asked = []
        inner = prog.run_thread
        prog.run_thread = lambda frame, ctx: asked.append(ctx.keep_frames) or inner(frame, ctx)
        runtime.launch(kernel, 1, 2, {"n": 2, "out": out})
        assert asked == [False, False]
