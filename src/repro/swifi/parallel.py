"""Campaign execution: one entry point, one scheduler, three worker kinds.

The paper's measurement apparatus runs ~10,000 single-fault experiments
per application (Section VIII); every trial is an independent program
execution, which makes campaigns embarrassingly parallel.
:func:`run_campaign` with a :class:`~repro.swifi.options.CampaignOptions`
is the single entry point every campaign-driven harness uses.  It does
the set-up once — statistical plan, phase profiler, journal and
heartbeats (via :meth:`LeaseScheduler.open_run
<repro.swifi.scheduler.LeaseScheduler.open_run>`) — and then drives the
one lease scheduler (:mod:`repro.swifi.scheduler`) with one of three
kinds of worker, all running the same lease → :func:`execute_chunk` →
result loop:

* ``workers=1`` — the parent itself, leasing one trial at a time on the
  main thread: each trial is journaled the moment it lands, the
  ``SIGALRM`` trial deadline works, the trial runner is only built once
  a trial needs it (a fully journaled resume builds nothing), and an
  exception raised inside a trial propagates unchanged.  No process,
  socket or thread is created.
* ``workers=N`` — N children forked after the parent warmed its caches
  (instrumented build, compiled kernel, campaign input, golden launch),
  so each child inherits them instead of rebuilding.  Each child leases
  over its own pipe; a pipe EOF hands the dead child's lease back to
  the scheduler's split/strike/quarantine path and a fresh fork takes
  its place.  ``RetryPolicy(max_deaths=0)`` instead raises
  :class:`~repro.errors.InjectionError` at the first death, and an
  exception a child's trial raises is re-raised here with its type and
  text.
* ``options.endpoint`` — the campaign is shipped to a ``repro serve``
  coordinator whose TCP workers run the same loop (:mod:`repro.fleet`).

Whichever kind ran it, the result is bit-identical: the scheduler
merges every observation in original spec order through
:func:`~repro.swifi.campaign.absorb_trial`.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING,
)

from repro.errors import InjectionError
from repro.exec.pool import fork_available, resolve_workers
from repro.exec.retry import TrialTimeout, trial_deadline
from repro.obs.events import RingBufferSink, Tracer, get_tracer, set_tracer, use_tracer
from repro.obs.instrument import (
    record_parallel_campaign,
    record_plan,
    record_trial_timeout,
)
from repro.obs.metrics import fresh_registry
from repro.obs.profile import (
    PHASE_FULL_RUN,
    PHASE_PARSE_BUILD,
    PhaseProfiler,
    get_profiler,
    set_profiler,
    use_profiler,
)
from repro.swifi.campaign import CampaignResult, TrialObservation
from repro.swifi.faultmodel import FaultSpec
from repro.swifi.options import CampaignOptions
from repro.swifi.scheduler import CampaignRun, LeaseScheduler

if TYPE_CHECKING:  # avoid a runtime import cycle with repro.core.program
    from repro.core.program import HauberkProgram

#: Ring capacity for per-chunk worker trace capture (only allocated
#: when the parent tracer is enabled).
WORKER_TRACE_CAPACITY = 8192


@dataclass
class ChunkResult:
    """Everything one worker ships back for one leased chunk."""

    observations: List[TrialObservation]
    #: ``MetricsRegistry.as_dict()`` snapshot of the worker-side metrics
    #: recorded while running this chunk (kernel launches, failures).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Raw span/event records captured in the worker (empty unless the
    #: parent tracer was enabled when the worker was forked).
    trace_records: List[Dict[str, Any]] = field(default_factory=list)
    worker_pid: int = 0
    #: Per-trial cost records (``PhaseProfiler.end_trial``), parallel to
    #: ``observations``; empty when profiling is off.
    costs: List[Optional[Dict[str, Any]]] = field(default_factory=list)
    #: Phase totals accumulated on this worker since its previous chunk
    #: (``PhaseProfiler.take_totals``); empty when profiling is off.
    phase_totals: Dict[str, List[float]] = field(default_factory=dict)

    def message(self, lease_id: str, run_id: str,
                indices: Iterable[int]) -> Dict[str, Any]:
        """The result envelope :meth:`LeaseScheduler.absorb` applies."""
        return {
            "type": "result", "lease": lease_id, "run": run_id,
            "pid": self.worker_pid, "indices": list(indices),
            "observations": self.observations, "costs": self.costs,
            "metrics": self.metrics, "phase_totals": self.phase_totals,
            "trace": self.trace_records,
        }


def _make_runner(program, mode, seed, differential):
    """The campaign trial runner: differential when requested, else full.

    The differential runner memoizes the golden launch on the program
    (``GoldenRecord.exec_states``), so building it parent-side before a
    fork warms every worker — each child's own call here is a cache hit
    that launches nothing.
    """
    if differential:
        from repro.swifi.differential import differential_runner

        return differential_runner(program, mode, seed)
    full = program.trial_runner(mode, seed)

    def full_runner(spec):
        if spec is None:
            return full(spec)
        prof = get_profiler()
        prof.note_served("full", "differential_off")
        with prof.phase(PHASE_FULL_RUN, reason="differential_off"):
            return full(spec)

    return full_runner


def _guarded_runner(runner, timeout: Optional[float]):
    """Wrap a trial runner in the per-trial wall-clock deadline.

    A trial that exceeds ``timeout`` seconds is degraded to the
    existing hang classification (``failure=True`` → ``FAILURE``) —
    the same class the watchdog budget assigns to in-model hangs.  The
    differential engine's device-memory state is healed first (the
    interrupt may have landed mid-replay, between the golden-store undo
    and its reapply).
    """
    if not timeout:
        return runner

    def guarded(spec):
        try:
            with trial_deadline(timeout):
                return runner(spec)
        except TrialTimeout as exc:
            engine = getattr(runner, "engine", None)
            if engine is not None:
                engine.restore_memory()
            record_trial_timeout()
            return TrialObservation(
                failure=True, detected=False, output_ok=False,
                activated=False, note=f"hang: {exc}",
            )

    return guarded


def build_trial_runner(
    program, mode: str, options: CampaignOptions,
    runner_factory: Optional[Callable[[], Callable]] = None,
) -> Callable[[Optional[FaultSpec]], TrialObservation]:
    """Build the deadline-guarded trial runner every worker kind uses.

    Build (or accept) the base runner, then wrap it in
    ``options.trial_timeout``.  The forked driver calls this parent-side
    first so the build/golden caches are warm in every child.
    """
    if runner_factory is not None:
        base = runner_factory()
    else:
        with get_profiler().phase(PHASE_PARSE_BUILD):
            build = program.build(mode)
            program.runtime.prepare(build.kernel)
        base = _make_runner(program, mode, options.seed, options.differential)
    return _guarded_runner(base, options.trial_timeout)


def execute_chunk(
    runner: Callable[[Optional[FaultSpec]], TrialObservation],
    items: List[Tuple[int, FaultSpec]],
    capture_trace: bool = False,
    isolate: bool = True,
) -> ChunkResult:
    """Run one leased chunk of ``(index, spec)`` items through ``runner``.

    The single chunk body of every worker kind: trials are profiled,
    and (when asked) tracer records are captured in a bounded ring.
    With ``isolate`` the chunk's metrics land in a fresh registry and
    its phase totals are taken from the worker's profiler, both shipped
    back for the scheduler to merge — what a worker *process* needs.
    ``isolate=False`` leaves both in the process-global registry and
    profiler, for a worker running inside the scheduler's own process
    (the ``workers=1`` parent, or a test's worker thread).
    """
    registry = fresh_registry() if isolate else None
    profiler = get_profiler()
    observations: List[TrialObservation] = []
    costs: List[Optional[Dict[str, Any]]] = []

    def execute() -> None:
        for index, spec in items:
            profiler.begin_trial(index)
            observations.append(runner(spec))
            costs.append(profiler.end_trial())

    trace_records: List[Dict[str, Any]] = []
    if capture_trace:
        sink = RingBufferSink(capacity=WORKER_TRACE_CAPACITY)
        with use_tracer(Tracer(sink)):
            execute()
        trace_records = sink.records
    else:
        execute()
    return ChunkResult(
        observations=observations,
        metrics=registry.as_dict() if registry is not None else {},
        trace_records=trace_records,
        worker_pid=os.getpid(),
        costs=costs if profiler.enabled else [],
        phase_totals=profiler.take_totals() if isolate else {},
    )


# -- the local drivers -----------------------------------------------------


def _drive_inline(scheduler: LeaseScheduler, run: CampaignRun,
                  build_runner: Callable[[], Callable]) -> None:
    """``workers=1``: the parent is the only worker, one trial per lease."""
    runner = None
    while run.state == "running":
        lease = scheduler.grant("parent")
        if runner is None:
            runner = build_runner()
        items = [(i, run.spec_list[i]) for i in lease.indices]
        chunk = execute_chunk(runner, items, isolate=False)
        scheduler.absorb(
            chunk.message(lease.lease_id, run.run_id, lease.indices),
            source="serial",
        )


def _fork_worker(conn, inherited, run_id, program, mode,
                 options: CampaignOptions, runner_factory,
                 capture_trace) -> None:
    """A forked child: run each leased chunk until told to stop.

    The inherited tracer is detached first so children never write into
    the parent's trace sink (a shared open file under ``--trace``), and
    metrics start from a fresh registry so every result ships a clean
    delta.  A trial exception goes back as an ``error`` message.
    """
    for other in inherited:  # parent-side pipe ends: a parent death must
        other.close()        # reach this child as EOF
    set_tracer(None)
    fresh_registry()
    set_profiler(PhaseProfiler() if options.profile else None)
    lease_id = None
    try:
        runner = build_trial_runner(program, mode, options, runner_factory)
        for lease_id, items in iter(conn.recv, None):
            chunk = execute_chunk(runner, items, capture_trace)
            conn.send(chunk.message(lease_id, run_id, (i for i, _ in items)))
    except EOFError:
        return  # the parent is gone
    except Exception as exc:
        error = {"type": "error", "run": run_id, "lease": lease_id,
                 "exception": exc}
        try:
            conn.send(error)
        except Exception:  # an unpicklable exception still fails the run
            error["exception"] = InjectionError(f"{type(exc).__name__}: {exc}")
            conn.send(error)


def _drive_forked(scheduler: LeaseScheduler, run: CampaignRun,
                  n_workers: int, worker_args: Tuple) -> None:
    """``workers=N``: forked children lease chunks over their own pipes."""
    ctx = multiprocessing.get_context("fork")
    record_parallel_campaign(n_workers, len(run.queue))
    children: Dict[Any, Tuple[str, Any]] = {}  # pipe -> (worker id, process)
    idle: List[Any] = []
    serial = itertools.count(1)

    def fork() -> None:
        worker_id = f"fork-{next(serial)}"
        conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_fork_worker,
            args=(child_conn, [conn, *children], run.run_id, *worker_args),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        children[conn] = (worker_id, proc)
        idle.append(conn)

    try:
        for _ in range(n_workers):
            fork()
        while run.state == "running":
            while idle:
                lease = scheduler.grant(children[idle[-1]][0])
                if lease is None:
                    break
                items = [(i, run.spec_list[i]) for i in lease.indices]
                try:
                    idle.pop().send((lease.lease_id, items))
                except OSError:
                    pass  # died while idle: its EOF surfaces below
            for conn in wait(list(children)):
                worker_id, proc = children[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    del children[conn]
                    if conn in idle:
                        idle.remove(conn)
                    conn.close()
                    proc.join()
                    scheduler.release_worker(worker_id)
                    if run.state == "running":
                        fork()
                    continue
                scheduler.absorb(message)
                idle.append(conn)
    finally:
        for conn, (_worker_id, proc) in children.items():
            if conn not in idle:
                proc.terminate()
                continue
            try:
                conn.send(None)
            except OSError:
                pass
        for conn, (_worker_id, proc) in children.items():
            proc.join(5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            conn.close()
    if run.error is not None:
        raise run.error


# -- the entry point -------------------------------------------------------


def _build_campaign_plan(program, spec_list, mode, options: CampaignOptions,
                         runner_factory):
    """Build the stratified plan for ``options.budget``, piloting if asked.

    Neyman allocation needs per-stratum variance, which only exists
    after observing outcomes — so ``plan="neyman"`` first runs a small
    proportional pilot (a quarter of the budget, serial, unjournaled,
    unprofiled) and feeds its per-stratum SDC tallies into the
    allocator.  The pilot is extra execution cost on top of the
    budget; it buys tighter intervals when strata variances differ.
    """
    from repro.swifi.planner import build_plan, pilot_tallies

    kernel = program.workload.kernel if program is not None else None
    method = options.plan or "stratified"
    pilot = None
    if method == "neyman":
        pilot_budget = max(1, options.budget // 4)
        pilot_plan = build_plan(
            spec_list, pilot_budget, kernel=kernel, method="stratified",
            confidence=options.confidence, seed=options.seed + 1,
        )
        pilot_options = options.evolve(
            budget=None, plan=None, run_dir=None, resume=None,
            profile=False, progress=False, workers=1, endpoint=None,
        )
        pilot_result = run_campaign(
            program, pilot_plan.selected_specs(spec_list), mode,
            pilot_options, runner_factory=runner_factory,
        )
        pilot = pilot_tallies(pilot_plan, pilot_result.trials)
    return build_plan(
        spec_list, options.budget, kernel=kernel, method=method,
        confidence=options.confidence, seed=options.seed, pilot=pilot,
    )


def _run_local(program, spec_list, mode, options: CampaignOptions,
               runner_factory, plan, profiler) -> CampaignResult:
    """Open one scheduler run and drive it with in-process or forked workers."""
    n_workers = resolve_workers(options.workers) if fork_available() else 1
    scheduler = LeaseScheduler(retry=options.retry)
    tracer = get_tracer()
    with tracer.span(
        "swifi.campaign", workers=n_workers, planned_trials=len(spec_list),
    ) as span:
        run = scheduler.open_run(
            program, spec_list, mode, options,
            chunk_size=1 if n_workers == 1 else options.chunk_size,
            workers=n_workers, plan=plan,
        )
        journal_dir = run.journal.directory if run.journal is not None else None
        span.set(replayed=len(run.replayed))
        try:
            if n_workers == 1:
                _drive_inline(scheduler, run, lambda: build_trial_runner(
                    program, mode, options, runner_factory))
            elif run.queue:
                if runner_factory is None:
                    # warm the parent before forking: the build, kernel,
                    # input, golden and recorded golden launch are then
                    # inherited, and their metrics recorded once
                    build_trial_runner(program, mode, options)
                _drive_forked(
                    scheduler, run, min(n_workers, len(run.queue)),
                    (program, mode, options, runner_factory, tracer.enabled),
                )
        finally:
            scheduler.close(run, "failed")  # no-op unless a trial raised
            if journal_dir is not None and profiler is not None:
                payload = {"version": 1, "phases": profiler.snapshot()}
                (journal_dir / "profile.json").write_text(
                    json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8",
                )
        span.set(**run.result.summary())
    return run.result


def run_campaign(
    program: Optional["HauberkProgram"],
    specs: Iterable[FaultSpec],
    mode: str = "fi",
    options: Optional[CampaignOptions] = None,
    *,
    runner_factory: Optional[Callable[[], Callable]] = None,
) -> CampaignResult:
    """Run one FI campaign over ``specs`` under ``options``.

    The shared entry point for every campaign-driven harness — and the
    frozen v1 surface: every execution knob lives on
    :class:`~repro.swifi.options.CampaignOptions` (workers, seed,
    chunking, differential replay, journal/resume directories, retry
    policy, trial timeout, endpoint routing).

    Guarantees, for any worker count, chunk size, and worker kind:

    * the returned :class:`CampaignResult` is bit-identical to the
      ``workers=1`` run;
    * with ``options.run_dir`` every classified trial is durably
      journaled as soon as it lands, and with ``options.resume`` the
      journaled prefix is replayed instead of re-executed —
      killed-and-resumed equals uninterrupted;
    * a worker-killing spec is retried per ``options.retry`` and, on
      repeated death, quarantined as a ``WorkerKilled`` trial instead
      of aborting the campaign (``RetryPolicy(max_deaths=0)`` restores
      the strict crash-surfacing behaviour).

    With ``options.budget`` the enumerated ``specs`` become a
    *population*: a seeded stratified plan
    (:mod:`repro.swifi.planner`) samples ``budget`` of them, the
    campaign runs only the sample, and the result carries
    population-extrapolated estimates with confidence intervals in
    ``result.plan`` / ``summary()["plan"]``.

    With ``options.endpoint`` the campaign is submitted to an
    already-running ``repro serve`` coordinator (:mod:`repro.fleet`);
    that needs a program built from a
    :class:`~repro.fleet.wire.ProgramRecipe` and no ``runner_factory``.

    ``runner_factory`` overrides ``program.trial_runner`` (used by
    tests to exercise the scheduler without a full program; the factory
    is called once per worker, inside the worker).
    """
    if options is None:
        options = CampaignOptions()
    spec_list = list(specs)
    plan = None
    if options.budget is not None and spec_list:
        plan = _build_campaign_plan(
            program, spec_list, mode, options, runner_factory
        )
        record_plan(len(plan.strata), plan.trials_saved)
        get_tracer().event(
            "swifi.plan", method=plan.method, budget=plan.budget,
            population=plan.population, strata=len(plan.strata),
            trials_saved=plan.trials_saved,
        )
        spec_list = plan.selected_specs(spec_list)
    profiler = PhaseProfiler() if options.profile else None
    with use_profiler(profiler):
        if options.endpoint is not None:
            from repro.fleet.client import submit_campaign

            result = submit_campaign(
                program, spec_list, mode, options, runner_factory
            )
        else:
            result = _run_local(
                program, spec_list, mode, options, runner_factory, plan,
                profiler,
            )
    if plan is not None:
        from repro.swifi.planner import estimate_plan

        result.plan = estimate_plan(plan, result.trials)
    return result
