"""Differential trial execution: golden-run memoization + single-thread replay.

Campaigns run thousands of single-fault trials (Section VIII), and each
fault strikes exactly one thread — yet the straightforward runner
re-executes the *whole grid* per trial.  This engine runs the fault-free
launch once per (program, input, mode), recording per-thread cycle /
loop-cycle / step totals plus a global-memory footprint (addresses read;
``(addr, old, new)`` bit patterns for stores), then serves each trial by

1. undoing the target thread's golden stores (reverse replay),
2. re-executing *only* that thread under the armed
   :class:`~repro.swifi.injector.FaultInjectionLibrary`, against a
   :class:`~repro.gpu.memory.ReplayMemoryGuard`,
3. splicing the replayed cycles/steps/events into the cached grid
   totals to synthesize a bit-identical
   :class:`~repro.gpu.runtime.LaunchResult` and
   :class:`~repro.swifi.campaign.TrialObservation`, with the output
   verdict taken from the output words the thread could change.

Until its strike the victim is the golden run, so where the compiled
thread function has a top-level loop the replay resumes it at its
golden state at the last loop head before the strike (a
:class:`Checkpoint`, recorded on demand by a golden-prefix run with FI
calls counted and never acting) instead of at its first statement;
:meth:`DifferentialEngine._resume_point` says where, or why not.

Per engine, not per trial: the FI (and, for ``fift``, FT) library, the
replay guard, the :class:`~repro.kir.interp.evalcore.ExecContext` with
the guard installed and its hook table, and the golden device output
with its verdict.  Each trial re-arms the FI library, binds the FT
library to a fresh device control block (a new event list over the
engine's read-only detector configs), retargets the guard and resets
the context's counters.

Soundness gates (anything else falls back to full execution):

* **Kernel eligibility** — :func:`replay_obstacle`: no
  ``__syncthreads``, no atomics, no shared-memory declarations (in the
  sequential grid model those are cross-thread channels).
* **Campaign eligibility** — every golden-stored address has exactly
  one storing thread (undoing a thread's stores must be exact).
* **Per-trial guard** — :class:`~repro.gpu.memory.ReplayMemoryGuard`
  exploits the sequential gtid execution order: accesses ordered
  before the target thread are safe, a load of a word a *later* thread
  stores reads that word's pre-launch bits, and a store a later thread
  could observe aborts with :class:`~repro.gpu.memory.ReplayConflict`
  — or is admitted provisionally and value-checked against golden bits
  at replay end; a conflicting trial re-runs through the full path.

Exactness of the cycle splice: every cost-model constant is a dyadic
rational (multiples of 1/8), so the sequential golden accumulation, the
subtraction of the target thread's contribution, and the addition of
its replayed contribution are all exact float arithmetic — the
synthesized totals equal the full run's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.controlblock import ControlBlock, DetectionEvent, DetectorConfig
from repro.core.ftlib import HauberkFTLibrary
from repro.errors import KernelCrash, KernelHang
from repro.gpu.memory import (
    FootprintRecordingMemory,
    ReplayConflict,
    ReplayMemoryGuard,
    ThreadFootprint,
    slow_bounds,
)
from repro.gpu.runtime import GPURuntime, LaunchResult
from repro.kir.astnodes import AtomicAdd, For, Kernel, While, walk_stmts
from repro.kir.interp.evalcore import ExecContext
from repro.kir.types import DType
from repro.obs.instrument import (
    record_differential_trial,
    record_hang_verdict,
    record_launch,
    record_launch_failure,
)
from repro.obs.profile import (
    PHASE_DIFF_REPLAY,
    PHASE_FULL_RUN,
    PHASE_GOLDEN_RECORD,
    get_profiler,
)
from repro.swifi.campaign import TrialObservation
from repro.swifi.faultmodel import FaultSpec
from repro.swifi.injector import FI_FUNC, FaultInjectionLibrary, SiteCounter

if TYPE_CHECKING:  # avoid a runtime import cycle with repro.core.program
    from repro.core.program import HauberkProgram


#: Why a kernel cannot replay one thread in isolation; the reasons label
#: ``repro_swifi_diff_fallbacks_total``.
OBSTACLE_SYNC = "uses_sync"
OBSTACLE_SHARED = "shared_memory"
OBSTACLE_ATOMICS = "atomics"


#: Where a replayed victim starts, the reason of its served-by tag
#: (``diff:<start>``): at a golden checkpoint, or at its first
#: statement because the kernel has no loop, or only loops inside a
#: branch, or two hook statements of a top-level loop share an FI site
#: (or have none), or the strike comes before the first loop head.
START_RESUMED = "resume"
START_NO_LOOP = "no_loop"
START_BRANCH = "branch"
START_SITES = "site_constants"
START_PROLOGUE = "prologue"


def replay_obstacle(kernel: Kernel) -> Optional[str]:
    """Why this kernel cannot replay single threads (None if it can).

    Barriers, shared arrays and atomics are cross-thread channels
    besides global memory, which a per-thread footprint cannot capture.
    """
    if kernel.uses_sync:
        return OBSTACLE_SYNC
    if kernel.shared:
        return OBSTACLE_SHARED
    for stmt, _depth in walk_stmts(kernel.body):
        if isinstance(stmt, AtomicAdd):
            return OBSTACLE_ATOMICS
    return None


@dataclass
class _Ineligible:
    """Cached marker: this (program, mode, cb) cannot replay; reason why."""

    reason: str


@dataclass
class ThreadRecord:
    """One thread's golden execution: cost totals plus memory footprint."""

    cycles: float
    loop_cycles: float
    steps: int
    footprint: ThreadFootprint


class Checkpoint(NamedTuple):
    """A victim thread's golden state at the head of an iteration of a
    top-level loop, as its resume entry binds it
    (:class:`~repro.kir.interp.codegen.ResumeEntry`)."""

    #: the loop's index among the thread function's top-level loops
    loop: int
    steps: int
    cycles: float
    loop_cycles: float
    #: the locals of the entry's names
    values: tuple
    #: how many of the thread's golden stores it has made
    stores: int
    #: how many golden FT events it has raised
    ft_events: int
    #: its FI calls so far, per site and in all
    sites: Dict[int, int]
    events: int
    #: its FI calls per site when it entered the loop
    entered: Dict[int, int]


class _Resume(NamedTuple):
    """What a trial needs to resume its victim at a checkpoint: the
    loop, the ``ctx.resume`` state (with the call answers), the golden
    stores to re-apply as ``(addr, bits)``, the golden FT events so far
    and the FI counts the injector continues from."""

    loop: int
    state: tuple
    stores: List[Tuple[int, int]]
    ft_events: list
    sites: Dict[int, int]
    events: int


class _Heads:
    """The checkpoints kept for one victim thread, by the ordinal of
    their head among the top-level loop heads the thread passes."""

    __slots__ = ("kept", "last")

    def __init__(self) -> None:
        self.kept: Dict[int, Checkpoint] = {}
        #: the ordinal of the thread's last head (-1: it passes none),
        #: once a recording has run to the thread's end
        self.last: Optional[int] = None


class _Stop(Exception):
    """Ends a recording run at the first head past the one it sought."""


class _CountedStores:
    """The replay guard, counting the stores made through it: where a
    recording run stands in its thread's golden store footprint."""

    __slots__ = ("guard", "n", "load_f32", "load_i32", "inline_loads", "capacity")

    def __init__(self, guard: ReplayMemoryGuard):
        self.guard, self.n = guard, 0
        self.load_f32, self.load_i32 = guard.load_f32, guard.load_i32
        self.inline_loads, self.capacity = guard.inline_loads, guard.capacity

    def store_f32(self, addr: int, value: float) -> None:
        self.n += 1
        self.guard.store_f32(addr, value)

    def store_i32(self, addr: int, value: int) -> None:
        self.n += 1
        self.guard.store_i32(addr, value)


def control_block_token(cb: ControlBlock) -> tuple:
    """Value fingerprint of a control block's detector configuration.

    Engines are cached under ``(mode, token)``: re-training or an alpha
    sweep (``set_alpha_all`` between campaigns, Section IX.C) changes
    the token, so stale golden detection events are never reused.
    """
    return tuple(
        (det, cfg.variable, cfg.loop_id, cfg.self_accumulating,
         cfg.has_trip_check, cfg.ranges.alpha,
         tuple((r.lo, r.hi) for r in cfg.ranges.ranges))
        for det, cfg in sorted(cb.detectors.items())
    )


class _GoldenRecorder:
    """Launch recorder collecting one :class:`ThreadRecord` per thread."""

    def __init__(self) -> None:
        self.threads: List[ThreadRecord] = []
        self.memory: Optional[FootprintRecordingMemory] = None
        self._cycles0 = 0.0
        self._loop0 = 0.0

    def attach(self, memory) -> FootprintRecordingMemory:
        self.memory = FootprintRecordingMemory(memory)
        return self.memory

    def begin_thread(self, ctx: ExecContext) -> None:
        self._cycles0 = ctx.cycles
        self._loop0 = ctx.loop_cycles
        self.memory.begin_thread()

    def end_thread(self, ctx: ExecContext) -> None:
        self.threads.append(ThreadRecord(
            cycles=ctx.cycles - self._cycles0,
            loop_cycles=ctx.loop_cycles - self._loop0,
            steps=ctx.steps,
            footprint=self.memory.fp,
        ))


class DifferentialEngine:
    """Replays single faulted threads against a memoized golden launch."""

    def __init__(self, program: "HauberkProgram", mode: str, seed: int):
        self.program = program
        self.mode = mode
        self.seed = seed
        self.workload = program.workload
        self.device = program.device
        self.memory = program.device.memory
        build = program.build(mode)
        self.kernel = build.kernel
        self.compiled, self.pressure = program.runtime.prepare(self.kernel)
        # the library pair, built once; _arm readies it for each run
        self.fi = FaultInjectionLibrary(self.workload.kernel)
        self.ft: Optional[HauberkFTLibrary] = None
        self.lib = self.fi
        self._detectors: Dict[int, DetectorConfig] = {}
        if mode == "fift":
            from repro.core.program import CombinedLibrary  # lazy: import cycle

            self.ft = HauberkFTLibrary()
            self.lib = CombinedLibrary([self.ft, self.fi])
            # the device side only reads them (see copy_to_device)
            self._detectors = program.cb.copy_to_device().detectors
        self.guard: Optional[ReplayMemoryGuard] = None
        self.ctx: Optional[ExecContext] = None
        record = program.golden_record(seed)
        self.inp, self.output_ok = record.inp, record.output_ok
        self.handles: Dict[str, object] = {}
        self.records: List[ThreadRecord] = []
        self.store_owner: Dict[int, int] = {}
        self.pre_launch: Dict[int, int] = {}
        self.stored: frozenset = frozenset()
        self.stored_bounds: Tuple[int, int] = (0, -1)
        self.load_readers: Dict[int, int] = {}
        self.golden_events: Dict[int, List[DetectionEvent]] = {}
        self.launch: Optional[LaunchResult] = None
        self._golden_words: np.ndarray = np.empty(0, dtype=np.uint32)
        #: the golden launch's device output and its verdict
        self._base_output: np.ndarray = np.empty(0)
        self._base_ok = False
        #: ``(lo, hi, first element, load)`` per output buffer
        self._out_spans: List[tuple] = []
        #: thread id -> the addresses its golden run stored, their bits
        #: before its first store and after its last
        self._stores: Dict[int, Tuple[List[int], List[int], List[int]]] = {}
        #: where the last trial's victim started (a ``START_*`` value)
        self.start = START_RESUMED
        #: thread id -> its checkpoints; (thread, site or None for a
        #: delayed fault, occurrence) -> how a victim resumes, or why it
        #: starts from the top
        self._heads: Dict[int, _Heads] = {}
        self._points: Dict[tuple, object] = {}
        self._counter = SiteCounter()
        self._rctx: Optional[ExecContext] = None
        self._refusal = self._resume_refusal()

    # -- golden recording -------------------------------------------------
    def record_golden(self) -> Optional[str]:
        """Run and record the fault-free launch; returns a reason on failure."""
        inp = self.inp
        if not inp.buffers:
            return "no device buffers"
        gx, gy = inp.grid
        bx, by = inp.block
        self.gx, self.gy, self.bx, self.by = gx, gy, bx, by
        self.block_size = bx * by
        self.n_threads = inp.n_threads

        args, handles = self.workload.setup_memory(self.device, inp)
        device_cb = self._arm(None)
        recorder = _GoldenRecorder()
        try:
            self.launch = self.program.runtime.launch(
                self.kernel, inp.grid, inp.block, args,
                lib=self.lib, budget=self.workload.hang_budget,
                recorder=recorder,
            )
        except (KernelHang, KernelCrash) as exc:
            return f"golden run failed: {exc}"

        self._probe_name = inp.buffers[0].name
        self._bind_handles(handles)
        self._base_output = self.workload.read_output(self.device, inp, handles)
        self._base_ok = self.output_ok(self._base_output)
        self.records = recorder.threads
        if len(self.records) != self.n_threads:
            return "recorder thread-count mismatch"

        # per-thread frame template (the launch's own lowering)
        base = GPURuntime._lower_args(self.kernel, args)
        base["gridDim.x"] = gx
        base["gridDim.y"] = gy
        base["blockDim.x"] = bx
        base["blockDim.y"] = by
        self.base_frame = base

        self.lanes = min(self.n_threads, self.device.spec.parallel_lanes)
        self.spill = self.launch.spill_factor

        # top-2 step counts: max_thread_steps when the target is / is not
        # the grid's longest-running thread
        steps = [r.steps for r in self.records]
        self._argmax_steps = max(range(len(steps)), key=steps.__getitem__)
        self._max_steps = steps[self._argmax_steps]
        rest = steps[: self._argmax_steps] + steps[self._argmax_steps + 1:]
        self._second_steps = max(rest) if rest else 0

        reason = self._build_conflict_maps()
        if reason is not None:
            return reason
        self.guard = ReplayMemoryGuard(
            self.memory, -1, self.store_owner, self.load_readers,
            self.pre_launch, self.stored, self.stored_bounds,
        )
        self.ctx = ExecContext(self.guard, lib=self.lib,
                               budget=self.workload.hang_budget,
                               block_size=self.block_size, hang_verdicts=True)
        self.ctx.keep_frames = False  # the replayed frame is dropped

        if device_cb is not None:
            block_size = self.block_size
            for event in device_cb.events:
                gtid = event.block * block_size + event.thread
                self.golden_events.setdefault(gtid, []).append(event)
            # by thread id, the order a splice walks them in
            self.golden_events = dict(sorted(self.golden_events.items()))

        self._golden_words = self.memory.snapshot()
        return None

    def _build_conflict_maps(self) -> Optional[str]:
        """Index the golden footprints for the per-trial replay guard.

        Each address may have at most one storing thread: undoing a
        thread's stores replays ``(addr, old, new)`` in reverse, which
        is only exact when no other store interleaved.  Cross-thread
        *reads* of stored addresses are fine — execution order resolves
        them — so they index into ``load_readers`` (latest reader per
        address) for the guard's ordering checks instead of
        disqualifying the campaign.  The ``old`` bits of an address's
        first store are its pre-launch bits, which a replayed thread
        before the owner reads.
        """
        store_owner = self.store_owner
        pre_launch = self.pre_launch
        for tid, rec in enumerate(self.records):
            for addr, old, _new in rec.footprint.stores:
                owner = store_owner.get(addr)
                if owner is None:
                    store_owner[addr] = tid
                    pre_launch[addr] = old
                elif owner != tid:
                    return "golden footprints conflict: shared store address"
        self.stored = frozenset(store_owner)
        self.stored_bounds = slow_bounds(self.stored, self.memory.capacity)
        load_readers = self.load_readers
        for tid, rec in enumerate(self.records):
            for addr in rec.footprint.loads:
                if load_readers.get(addr, -1) < tid:
                    load_readers[addr] = tid
        return None

    # -- golden checkpoints -------------------------------------------------
    def _resume_refusal(self) -> Optional[str]:
        """Why no victim of this kernel resumes (None when they may)."""
        entries = self.compiled.entries
        if not entries:
            loops = any(isinstance(st, (For, While)) for st, _depth in walk_stmts(self.kernel.body))
            return START_BRANCH if loops else START_NO_LOOP
        for entry in entries:
            sites = [site for func, site in entry.calls if func == FI_FUNC]
            if None in sites or len(set(sites)) != len(sites):
                return START_SITES
        return None

    def _resume_point(self, target: int, spec: FaultSpec):
        """How the victim of ``spec`` resumes at its checkpoint (a
        :class:`_Resume`), or the ``START_*`` reason it starts at its
        first statement.

        The checkpoint is at the last top-level loop head before the
        strike: the last where a definition-timed fault's site has run
        fewer than ``occurrence`` times, or a delayed fault's victim has
        made fewer than ``occurrence`` FI calls.  There the victim has
        answered each call statement of the loop it has run as
        :meth:`FaultInjectionLibrary.answer_before_strike` says.
        """
        if self._refusal is not None:
            return self._refusal
        delayed = spec.timing == "delayed"
        key = (target, None if delayed else spec.site, spec.occurrence)
        point = self._points.get(key)
        if point is None:
            k, site = spec.occurrence, spec.site
            if delayed:
                cp = self._head_before(target, lambda cp: cp.events < k)
            else:
                cp = self._head_before(target, lambda cp: cp.sites.get(site, 0) < k)
            if type(cp) is str:
                point = cp
            else:
                answers = tuple(
                    FaultInjectionLibrary.answer_before_strike(spec, s)
                    if func == FI_FUNC and cp.sites.get(s, 0) > cp.entered.get(s, 0) else None
                    for func, s in self.compiled.entries[cp.loop].calls)
                point = _Resume(
                    cp.loop, (cp.steps, cp.cycles, cp.loop_cycles, cp.values, answers),
                    [(addr, new) for addr, _old, new in
                     self.records[target].footprint.stores[:cp.stores]],
                    self.golden_events.get(target, [])[:cp.ft_events], cp.sites, cp.events)
            self._points[key] = point
        return point

    def _head_before(self, target: int, ahead):
        """The thread's checkpoint at its last head where ``ahead`` (the
        strike is still to come) holds, or :data:`START_PROLOGUE`.

        Kept checkpoints answer when the next head is kept too (and
        ``ahead`` fails there) or is the thread's last; otherwise a
        recording run extends from the deepest kept head that is still
        ahead, or starts at the first statement.
        """
        heads = self._heads.get(target)
        if heads is None:
            heads = self._heads[target] = _Heads()
        kept = heads.kept
        before = [o for o, cp in kept.items() if ahead(cp)]
        if not before:
            if 0 in kept or heads.last == -1:
                return START_PROLOGUE
            return self._record(target, heads, None, ahead)
        o = max(before)
        if o == heads.last or (o + 1 in kept and not ahead(kept[o + 1])):
            return kept[o]
        return self._record(target, heads, o, ahead)

    def _record(self, target: int, heads: _Heads, start: Optional[int], ahead):
        """Run the thread's golden prefix from head ordinal ``start`` (or
        its first statement) to the first head where ``ahead`` fails,
        with FI calls counted and never acting; keep that head and the
        one before it, and return the one before (or
        :data:`START_PROLOGUE`)."""
        rec, kept = self.records[target], heads.kept
        stored, old_bits, new_bits = self._thread_stores(target)
        self._undo(stored, old_bits)
        guard = self.guard
        guard.retarget(target)
        ctx = self._recorder()
        mem, counter = ctx.memory, self._counter
        cb = ControlBlock(detectors=self._detectors)
        if self.ft is not None:
            self.ft.bind(cb)
        cp0 = kept[start] if start is not None else None
        ordinal, prev = start or 0, None
        if cp0 is None:
            loop, entered, ft0 = -1, {}, 0
            counter.sites, counter.events, mem.n = {}, 0, 0
            ctx.resume_at = -1
        else:
            loop, entered, ft0 = cp0.loop, cp0.entered, cp0.ft_events
            counter.sites, counter.events, mem.n = dict(cp0.sites), cp0.events, cp0.stores
            for addr, _old, new in rec.footprint.stores[:cp0.stores]:
                guard.store_word(addr, new)
            ctx.resume_at = cp0.loop
            ctx.resume = (cp0.steps, cp0.cycles, cp0.loop_cycles, cp0.values,
                          (None,) * len(self.compiled.entries[cp0.loop].calls))

        def head(index, steps, cycles, loop_cycles, values):
            nonlocal loop, entered, ordinal, prev
            if index != loop:
                loop, entered = index, dict(counter.sites)
            cp = Checkpoint(index, steps, cycles, loop_cycles, values, mem.n,
                            ft0 + len(cb.events), dict(counter.sites), counter.events, entered)
            if not ahead(cp):
                kept[ordinal] = cp
                raise _Stop()
            prev = ordinal, cp
            ordinal += 1

        ctx.cycles = ctx.loop_cycles = 0.0
        block, tib = divmod(target, self.block_size)
        ctx.reset_thread(block, tib)
        try:
            self.compiled.record_thread(self._frame(block, tib), ctx, head)
            heads.last = -1 if prev is None else prev[0]
        except _Stop:
            pass
        finally:
            ctx.resume_at, ctx.resume = -1, None
            self._restore(stored, new_bits)
        if prev is None:
            return START_PROLOGUE
        kept[prev[0]] = prev[1]
        return prev[1]

    def _recorder(self) -> ExecContext:
        """The context of recording runs (built on first use): the
        guard with its stores counted, and the FI calls counted."""
        if self._rctx is None:
            counter = self._counter
            if self.ft is not None:
                from repro.core.program import CombinedLibrary  # lazy: import cycle

                lib = CombinedLibrary([self.ft, counter])
            else:
                lib = counter
            self._rctx = ExecContext(_CountedStores(self.guard), lib=lib,
                                     budget=self.workload.hang_budget,
                                     block_size=self.block_size, hang_verdicts=True)
            self._rctx.keep_frames = False
        return self._rctx

    def _frame(self, block: int, tib: int) -> dict:
        """The frame a thread of (block, thread-in-block) starts with."""
        frame = dict(self.base_frame)
        frame["blockIdx.x"] = block % self.gx
        frame["blockIdx.y"] = block // self.gx
        frame["threadIdx.x"] = tib % self.bx
        frame["threadIdx.y"] = tib // self.bx
        return frame

    # -- per-trial machinery ----------------------------------------------
    def _arm(self, spec: Optional[FaultSpec]) -> Optional[ControlBlock]:
        """Ready the library pair for one run, as the full path builds it.

        Returns the device control block the FT library now reports
        to (``None`` outside ``fift``): a fresh event list over the
        engine's detector configs, as ``ControlBlock.copy_to_device``
        gives.
        """
        self.fi.arm(spec)
        if self.ft is None:
            return None
        device_cb = ControlBlock(detectors=self._detectors)
        self.ft.bind(device_cb)
        return device_cb

    def _bind_handles(self, handles) -> None:
        self.handles = handles
        self._probe_alloc = handles[self._probe_name]
        spans, at = [], 0
        for name in self.inp.outputs:
            alloc = handles[name]
            # memcpy_dtoh's reading of the buffer
            load = (self.memory.load_f32
                    if alloc.dtype in (DType.FLOAT32, DType.PTR_FLOAT32)
                    else self.memory.load_i32)
            spans.append((alloc.base, alloc.end, at, load))
            at += alloc.nwords
        self._out_spans = spans

    def restore_memory(self) -> None:
        """Re-establish the golden-final device state after a foreign run."""
        _args, handles = self.workload.setup_memory(self.device, self.inp)
        self.memory.restore(self._golden_words)
        self._bind_handles(handles)

    def _thread_stores(self, target: int) -> Tuple[List[int], List[int], List[int]]:
        """``(addresses, bits before, bits after)`` of the target's
        golden stores, one entry per address (built once per thread)."""
        stores = self._stores.get(target)
        if stores is None:
            stores = self._stores[target] = self.records[target].footprint.net_stores()
        return stores

    def _changed_output(self, stored: List[int]) -> Tuple[List[int], List[float]]:
        """``(output indices, values)`` of every output word a replay
        can have changed, read before :meth:`_restore`.

        Device memory then differs from the golden-final state only at
        the target's golden store addresses ``stored`` (undone, maybe
        stored again) and the addresses the guard let a store through
        to; so the output is the golden device output patched there.
        """
        changed = dict.fromkeys(stored)
        changed.update(self.guard.written)
        idx: List[int] = []
        values: List[float] = []
        for addr in changed:
            for lo, hi, at, load in self._out_spans:
                if lo <= addr < hi:
                    idx.append(at + addr - lo)
                    values.append(float(load(addr)))
                    break
        return idx, values

    def _undo(self, addrs: List[int], old_bits: List[int]) -> None:
        """Back out the target's golden stores.

        Equivalent to replaying ``(addr, old, new)`` in reverse: each
        address ends at the ``old`` bits of its first store.
        """
        store = self.memory.store_word
        for addr, bits in zip(addrs, old_bits):
            store(addr, bits)

    def _restore(self, addrs: List[int], new_bits: List[int]) -> None:
        """Put every word the replay touched back to its golden-final
        bits, whichever way it ended.

        Those are the target's golden store addresses ``addrs``, whose
        golden-final bits are those of its last store (``new_bits``),
        and the words the guard let a store through to, whose bits are
        in the golden snapshot; a guarded word past the snapshot's
        allocations gets back the bits the guard journaled.
        """
        store = self.memory.store_word
        for addr, bits in zip(addrs, new_bits):
            store(addr, bits)
        guard = self.guard
        if guard.written:
            golden = self._golden_words
            n = len(golden)
            for addr, bits in guard.written.items():
                store(addr, golden.item(addr) if addr < n else bits)
            guard.written.clear()

    def run_trial(self, spec: FaultSpec, resume: bool = True) -> Optional[TrialObservation]:
        """Serve one trial by replaying the faulted thread, or None to fall back.

        Returns the same :class:`TrialObservation` full execution would
        produce; ``None`` means the replay aborted (foreign-footprint
        touch, unknown thread) and the caller must run the full trial.
        The victim resumes at its golden checkpoint before the strike
        (:meth:`_resume_point`) unless ``resume`` is off; :attr:`start`
        says where it started.
        """
        target = spec.thread
        if not 0 <= target < self.n_threads:
            return None
        # a full run (fallback trial, golden check) may have re-set up
        # device memory since our snapshot: detect and self-heal
        if self.memory.allocations.get(self._probe_name) is not self._probe_alloc:
            self.restore_memory()
        point = self._resume_point(target, spec) if resume else START_PROLOGUE
        self.start = START_RESUMED if type(point) is _Resume else point

        rec = self.records[target]
        stored, old_bits, new_bits = self._thread_stores(target)
        self._undo(stored, old_bits)
        guard = self.guard
        guard.retarget(target)
        device_cb = self._arm(spec)
        ctx = self.ctx
        ctx.cycles = ctx.loop_cycles = 0.0
        ctx.hang_verdict = None
        if type(point) is _Resume:
            # the victim's golden prefix, as it left memory, its FT
            # events and its FI counts
            for addr, bits in point.stores:
                guard.store_word(addr, bits)
            if point.ft_events:
                device_cb.events.extend(point.ft_events)
            self.fi.resume(point.sites, point.events)
            ctx.resume_at, ctx.resume = point.loop, point.state
        else:
            ctx.resume_at = -1

        block, tib = divmod(target, self.block_size)
        failure: Optional[Tuple[str, str]] = None
        try:
            self.compiled.run_thread_at(self._frame(block, tib), ctx, block, tib)
        except ReplayConflict:
            self._restore(stored, new_bits)
            return None
        except KernelHang as exc:
            failure = ("hang", str(exc))
        except KernelCrash as exc:
            failure = ("crash", str(exc))

        activated = bool(self.fi.activation)
        if failure is not None:
            # the grid launch would have died inside this thread; threads
            # before it ran exactly as in the golden run (no conflicts),
            # threads after it never ran — same observation either way
            self._restore(stored, new_bits)
            record_launch_failure(self.kernel.name, failure[0])
            if ctx.hang_verdict is not None:
                record_hang_verdict(self.kernel.name)
            return TrialObservation(
                failure=True, detected=False, output_ok=False,
                activated=activated, note=failure[1],
            )

        if guard.deferred and guard.deferred_mismatch(self._golden_words):
            # a later thread would read a changed value: not replayable
            self._restore(stored, new_bits)
            return None

        # splice the replayed thread into the cached grid totals
        golden = self.launch
        total = golden.total_cycles - rec.cycles + ctx.cycles
        loop = golden.loop_cycles - rec.loop_cycles + ctx.loop_cycles
        others_max = (
            self._second_steps if target == self._argmax_steps else self._max_steps
        )
        result = LaunchResult(
            kernel_name=golden.kernel_name,
            n_threads=golden.n_threads,
            total_cycles=total,
            loop_cycles=loop,
            kernel_time=total / self.lanes * self.spill,
            register_pressure=self.pressure,
            spill_factor=self.spill,
            max_thread_steps=max(ctx.steps, others_max),
        )
        record_launch(result)

        idx, values = self._changed_output(stored)
        self._restore(stored, new_bits)

        detected = False
        if device_cb is not None:
            host_cb = self.program.cb
            if device_cb.events or self.golden_events:
                host_cb.copy_from_device(
                    self._splice_control_block(target, device_cb.events)
                )
                detected = host_cb.alarm_raised
            else:
                host_cb.clear_results()  # what an empty splice copies back
        ok = self.output_ok.check_changed(self._base_output, self._base_ok,
                                          idx, values)
        return TrialObservation(
            failure=False, detected=detected, output_ok=ok,
            activated=activated, note="",
        )

    def _splice_control_block(
        self, target: int, replay_events: List[DetectionEvent]
    ) -> ControlBlock:
        """Golden event stream with the target thread's events replaced.

        Event firing is thread-local (detectors check against the static
        configured ranges), so non-target threads contribute exactly
        their golden events, in thread order (``golden_events`` holds
        only the threads that have any, sorted); ``sdc_bit`` and the
        on-line ``updated_ranges`` learning are order-respecting folds
        over the spliced stream, reproducing what the device copy would
        have held.
        """
        events: List[DetectionEvent] = []
        spliced = False
        for tid, golden in self.golden_events.items():
            if tid >= target and not spliced:
                events.extend(replay_events)
                spliced = True
            if tid != target:
                events.extend(golden)
        if not spliced:
            events.extend(replay_events)
        updated: Dict[int, object] = {}
        detectors = self.program.cb.detectors
        for event in events:
            if event.kind != "range":
                continue
            base = updated.get(event.detector)
            if base is None:
                base = detectors[event.detector].ranges
            updated[event.detector] = base.learn(event.value)
        return ControlBlock(
            events=events, sdc_bit=bool(events), updated_ranges=updated
        )


def get_engine(program: "HauberkProgram", mode: str, seed: int = 0):
    """The cached engine (or :class:`_Ineligible`) for this campaign setup."""
    program.build(mode)  # fift: configures the control block before tokenizing
    token = (mode, control_block_token(program.cb) if mode == "fift" else None)
    record = program.golden_record(seed)
    entry = record.exec_states.get(token)
    if entry is None:
        entry = _build_engine(program, mode, seed)
        record.exec_states[token] = entry
    return entry


def _build_engine(program: "HauberkProgram", mode: str, seed: int):
    if mode not in ("fi", "fift"):
        return _Ineligible(f"mode {mode!r} has no FI trials")
    obstacle = replay_obstacle(program.build(mode).kernel)
    if obstacle is not None:
        return _Ineligible(obstacle)
    engine = DifferentialEngine(program, mode, seed)
    with get_profiler().phase(PHASE_GOLDEN_RECORD):
        reason = engine.record_golden()
    if reason is not None:
        return _Ineligible(reason)
    return engine


def differential_runner(program: "HauberkProgram", mode: str, seed: int = 0):
    """A campaign trial runner serving trials differentially.

    Drop-in replacement for ``program.trial_runner(mode, seed)``:
    eligible trials replay one thread; everything else (ineligible
    kernels, replay conflicts, fault-free ``spec=None`` runs) goes
    through the full path.  Observations are identical either way.
    """
    full = program.trial_runner(mode, seed)
    entry = get_engine(program, mode, seed)
    if isinstance(entry, _Ineligible):
        reason = entry.reason

        def fallback_runner(spec: Optional[FaultSpec]) -> TrialObservation:
            if spec is None:
                return full(spec)
            record_differential_trial(False, reason)
            prof = get_profiler()
            prof.note_served("full", reason)
            with prof.phase(PHASE_FULL_RUN, reason=reason):
                return full(spec)

        return fallback_runner

    engine: DifferentialEngine = entry

    def runner(spec: Optional[FaultSpec]) -> TrialObservation:
        if spec is None:
            return full(spec)
        prof = get_profiler()
        with prof.phase(PHASE_DIFF_REPLAY):
            obs = engine.run_trial(spec)
        if obs is None:
            record_differential_trial(False, "replay_conflict")
            prof.note_served("full", "replay_conflict")
            with prof.phase(PHASE_FULL_RUN, reason="replay_conflict"):
                return full(spec)
        record_differential_trial(True)
        prof.note_served("diff", engine.start)
        return obs

    return runner
