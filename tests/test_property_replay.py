"""Differential property: a replayed trial is the full trial.

Random ``FaultSpec``s on the ``fi`` and ``fift`` builds of every
workload without barriers, plus a two-loop kernel (a store and FT
events between its loops, a ``while`` second loop), run four ways:

* a replay that resumes the victim at its golden checkpoint, the last
  top-level loop head before the strike (where the engine can);
* a replay of the victim from its first statement;
* a full grid launch on the compiled engine;
* on one example in :data:`LOCKSTEP_EVERY`, a full grid launch on the
  lockstep interpreter.

They must agree on status, failure note, activation, alarm, SDC bit,
every output word, total and loop cycles and the longest thread's step
count.  Specs cover definition and delayed timing, bursts, occurrences
past a loop's trip count and masks that flip the high bits, which make
pointers crash and loop bounds hang.  Hypothesis's statistics report
where each replay started (``resume`` or the reason it did not) and how
each trial ended.

Tier-1 runs a few dozen examples; the ``engine-fuzz`` profile runs
twenty thousand::

    PYTHONPATH=src python -m pytest tests/test_property_replay.py \\
        --hypothesis-profile engine-fuzz --hypothesis-show-statistics
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from repro.core.program import HauberkProgram, RunStatus
from repro.gpu.runtime import GPURuntime
from repro.kir.types import DType
from repro.swifi import differential
from repro.swifi.differential import DifferentialEngine, get_engine
from repro.swifi.faultmodel import FaultSpec
from repro.workloads import get_workload
from repro.workloads.base import BufferSpec, Workload, WorkloadInput

#: Examples per tier-1 run; the ``engine-fuzz`` profile replaces it.
TIER1_EXAMPLES = 40
#: One example in this many also runs the lockstep full launch, which
#: takes some twenty times as long as the other three runs together.
LOCKSTEP_EVERY = 4
#: The workloads without barriers (TPACF has them: no replay).
NAMES = ("CP", "MRI-FHD", "MRI-Q", "PNS", "RPES", "SAD", "OCEAN", "RAYTRACE", "TWO-LOOPS")
#: Per-thread statement budget of every run: ample for each golden
#: thread, and it keeps a trial that hangs cheap (a lockstep hang runs
#: its budget out statement by statement).
BUDGET = 20_000
#: High-bit masks: a pointer leaves device memory, a bound or an
#: iterator runs a loop into the budget.
HIGH_BITS = (1 << 31, 1 << 30, 1 << 29, 1 << 24, 0xFFFFFFFF, 0x7FFFFFFF)


def _fuzz_settings():
    long_run = settings.get_profile("engine-fuzz")
    if settings.default is long_run:
        return settings(long_run)
    return settings(max_examples=TIER1_EXAMPLES, deadline=None)


class _TwoLoops(Workload):
    """Two top-level loops, a ``for`` and a ``while``, with a store and
    the first loop's FT check between them."""

    name = "TWO-LOOPS"
    source = """
    kernel twoloops(float* src, float* out, int n, int m) {
        int t = blockIdx.x * blockDim.x + threadIdx.x;
        float acc = 0.0;
        for (int i = 0; i < n; i++) {
            acc = acc + src[t + i];
        }
        out[t * 2] = acc;
        float acc2 = acc * 0.5;
        int j = 0;
        while (j < m) {
            acc2 = acc2 * 0.5 + src[j];
            j = j + 1;
        }
        out[t * 2 + 1] = acc2;
    }
    """
    N, M, THREADS = 6, 4, 8

    def generate_input(self, seed=0):
        rng = np.random.default_rng(seed + 7)
        src = rng.uniform(1.0, 2.0, self.THREADS + self.N).astype(np.float32)
        return WorkloadInput(
            buffers=[BufferSpec("src", DType.FLOAT32, src.size, src),
                     BufferSpec("out", DType.FLOAT32, 2 * self.THREADS)],
            scalars={"n": self.N, "m": self.M}, buffer_params={"src": "src", "out": "out"},
            outputs=["out"], grid=(2, 1), block=(self.THREADS // 2, 1))

    def golden(self, inp):
        src = inp.buffers[0].data.astype(np.float32)
        out = np.empty(2 * self.THREADS, dtype=np.float32)
        for t in range(self.THREADS):
            acc = np.float32(0.0)
            for i in range(self.N):
                acc = np.float32(acc + src[t + i])
            acc2 = np.float32(acc * np.float32(0.5))
            for j in range(self.M):
                acc2 = np.float32(acc2 * np.float32(0.5) + src[j])
            out[2 * t], out[2 * t + 1] = acc, acc2
        return out.astype(np.float64)


@pytest.fixture(scope="module")
def setups() -> dict:
    """(name, mode) -> (program, its replay engine, a lockstep runtime),
    built on first use and kept across examples, as a campaign keeps its
    engine (and the checkpoints it records)."""
    return {}


def _setup(setups: dict, name: str, mode: str):
    key = (name, mode)
    if key not in setups:
        workload = _TwoLoops() if name == "TWO-LOOPS" else get_workload(name)
        workload.hang_budget = BUDGET
        program = HauberkProgram(workload)
        if mode == "fift":
            program.train(seeds=[0])
        engine = get_engine(program, mode, 0)
        assert isinstance(engine, DifferentialEngine), engine
        setups[key] = program, engine, GPURuntime(program.device, engine="lockstep")
    return setups[key]


def _words(out) -> list:
    """Output values, every NaN as one (a NaN's sign after a float op of
    two NaNs depends on how warm CPython's code object is)."""
    return ["nan" if v != v else repr(v) for v in np.asarray(out).tolist()]


def _full(program, mode: str, spec: FaultSpec, runtime=None) -> dict:
    """What a full grid launch of the trial shows, on ``runtime`` (the
    program's own, compiled, by default)."""
    own = program.runtime
    if runtime is not None:
        program.runtime = runtime
    try:
        result = program.run(mode=mode, inp=program.golden_record(0).inp, fault=spec)
    finally:
        program.runtime = own
    seen = {"status": result.status.name, "note": result.failure_reason,
            "activated": bool(result.activation)}
    if result.status is RunStatus.OK:
        launch = result.launch
        seen.update(alarm=result.alarm, sdc=result.sdc_bit, out=_words(result.output),
                    cycles=launch.total_cycles, loop_cycles=launch.loop_cycles,
                    max_steps=launch.max_thread_steps)
    return seen


class _OutputSpy:
    """The engine's output check, keeping the output a replay shows."""

    def __init__(self, check, seen: dict):
        self.check, self.seen = check, seen

    def check_changed(self, base, base_ok, idx, values):
        out = np.array(base, copy=True)
        out[idx] = values
        self.seen["out"] = out
        return self.check.check_changed(base, base_ok, idx, values)


def _replay(program, engine, mode: str, spec: FaultSpec, resume: bool):
    """What a replay of the trial shows, or None when it falls back."""
    kept: dict = {}
    with mock.patch.object(differential, "record_launch", lambda r: kept.setdefault("launch", r)), \
            mock.patch.object(engine, "output_ok", _OutputSpy(engine.output_ok, kept)):
        obs = engine.run_trial(spec, resume=resume)
    if obs is None:
        return None
    status = "OK" if not obs.failure else (
        "HANG" if obs.note.startswith("kernel hang") else "CRASH")
    seen = {"status": status, "note": obs.note, "activated": obs.activated}
    if not obs.failure:
        launch = kept["launch"]
        fift = mode == "fift"
        seen.update(alarm=obs.detected, sdc=program.cb.sdc_bit if fift else False,
                    out=_words(kept["out"]), cycles=launch.total_cycles,
                    loop_cycles=launch.loop_cycles, max_steps=launch.max_thread_steps)
    return seen, engine.start


@_fuzz_settings()
@given(
    # the workloads with top-level loops twice as often: their victims resume
    name=st.sampled_from(NAMES + ("CP", "PNS", "TWO-LOOPS")),
    mode=st.sampled_from(("fift", "fi")),
    site_pick=st.integers(min_value=0, max_value=1 << 16),
    thread_pick=st.integers(min_value=0, max_value=1 << 16),
    delayed=st.booleans(),
    occurrence=st.integers(min_value=1, max_value=40) | st.integers(min_value=1, max_value=400),
    burst=st.sampled_from((1, 1, 1, 2, 5)),
    mask=st.sampled_from(HIGH_BITS) | st.integers(min_value=1, max_value=0xFFFFFFFF)
    | st.integers(min_value=0, max_value=31).map(lambda b: 1 << b),
    lockstep_pick=st.integers(min_value=0, max_value=LOCKSTEP_EVERY - 1),
)
# a loop-site strike in CP's atom loop, resumed at the head before it
@example(name="CP", mode="fift", site_pick=13, thread_pick=5, delayed=False,
         occurrence=7, burst=1, mask=1 << 30, lockstep_pick=0)
# a delayed strike in PNS's loop, resumed with its event count
@example(name="PNS", mode="fift", site_pick=2, thread_pick=11, delayed=True,
         occurrence=60, burst=1, mask=1 << 3, lockstep_pick=0)
# a delayed strike in the second loop of two, resumed with the store
# between them re-applied
@example(name="TWO-LOOPS", mode="fift", site_pick=0, thread_pick=3, delayed=True,
         occurrence=30, burst=1, mask=1 << 22, lockstep_pick=0)
def test_replay_resumed_from_a_checkpoint_is_the_full_trial(
        setups, name, mode, site_pick, thread_pick, delayed, occurrence, burst, mask,
        lockstep_pick):
    program, engine, lockstep = _setup(setups, name, mode)
    sites = sorted(engine.fi.sites)
    spec = FaultSpec(site=sites[site_pick % len(sites)], mask=mask,
                     thread=thread_pick % engine.n_threads, occurrence=occurrence,
                     burst=burst, timing="delayed" if delayed else "definition")
    full = _full(program, mode, spec)
    event(f"status: {full['status']}")
    if lockstep_pick == 0:
        assert _full(program, mode, spec, lockstep) == full
    resumed = _replay(program, engine, mode, spec, resume=True)
    if resumed is None:
        event("replay conflict: falls back to the full run")
        return
    seen, start = resumed
    event(f"start: {start}")
    assert seen == full
    from_start, _ = _replay(program, engine, mode, spec, resume=False)
    assert from_start == full
