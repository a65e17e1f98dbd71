"""Campaign execution: one entry point, one scheduler, two worker kinds.

The paper's measurement apparatus runs ~10,000 single-fault experiments
per application (Section VIII); every trial is an independent program
execution, which makes campaigns embarrassingly parallel.
:func:`run_campaign` with a :class:`~repro.swifi.options.CampaignOptions`
is the single entry point every campaign-driven harness uses.  It does
the set-up once — phase profiler, journal and heartbeats (via
:meth:`LeaseScheduler.open_run
<repro.swifi.scheduler.LeaseScheduler.open_run>`) — and then drives the
one lease scheduler (:mod:`repro.swifi.scheduler`) with one of two
kinds of worker, both running the same lease → :func:`execute_chunk` →
result loop:

* ``workers=1`` — the parent itself, leasing one trial at a time on the
  main thread: each trial is journaled the moment it lands, the trial
  runner is only built once a trial needs it (a fully journaled resume
  builds nothing), and an exception raised inside a trial propagates
  unchanged.  No process, pipe or thread is created.
* ``workers=N`` — N children forked after the parent warmed its caches
  (instrumented build, compiled kernel, campaign input, golden launch),
  so each child inherits them instead of rebuilding.  Each child leases
  over its own pipe; a pipe EOF hands the dead child's lease back to
  the scheduler's split/strike/quarantine path and a fresh fork takes
  its place.  ``RetryPolicy(max_deaths=0)`` instead raises
  :class:`~repro.errors.InjectionError` at the first death, and an
  exception a child's trial raises is re-raised here with its type and
  text.

A chunk's telemetry crosses to the parent once, in the ``result``
message :func:`execute_chunk` builds, so metrics, ``profile.json`` and
trace counts read the same whichever worker ran it.

Whichever kind ran it, the result is bit-identical: the scheduler
merges every observation in original spec order through
:func:`~repro.swifi.campaign.absorb_trial`.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
from multiprocessing.connection import wait
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING,
)

from repro.errors import InjectionError
from repro.exec.pool import fork_available, resolve_workers
from repro.obs.events import RingBufferSink, Tracer, get_tracer, set_tracer, use_tracer
from repro.obs.instrument import record_parallel_campaign
from repro.obs.metrics import fresh_registry
from repro.obs.profile import (
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


def _make_runner(program, mode, seed, differential):
    """The campaign trial runner: differential when requested, else full.

    The differential runner memoizes the golden launch on the program
    (``GoldenRecord.exec_states``), so building it parent-side before a
    fork warms every worker — each child's own call here is a cache hit
    that launches nothing.
    """
    from repro.swifi.differential import differential_runner, serve_full

    if differential:
        return differential_runner(program, mode, seed)
    full = program.trial_runner(mode, seed)

    def full_runner(spec):
        if spec is None:
            return full(spec)
        return serve_full(full, spec, "differential_off")

    return full_runner


def build_trial_runner(
    program, mode: str, options: CampaignOptions,
    runner_factory: Optional[Callable[[], Callable]] = None,
) -> Callable[[Optional[FaultSpec]], TrialObservation]:
    """Build (or accept) the trial runner every worker kind uses.

    The forked driver calls this parent-side first so the build/golden
    caches are warm in every child.
    """
    if runner_factory is not None:
        return runner_factory()
    with get_profiler().phase(PHASE_PARSE_BUILD):
        build = program.build(mode)
        program.runtime.prepare(build.kernel)
    return _make_runner(program, mode, options.seed, options.differential)


def execute_chunk(
    runner: Callable[[Optional[FaultSpec]], TrialObservation],
    items: List[Tuple[int, FaultSpec]],
    lease_id: str,
    capture_trace: bool = False,
    isolate: bool = True,
) -> Dict[str, Any]:
    """Run one leased chunk of ``(index, spec)`` items through ``runner``.

    The single chunk body of every worker kind; returns the ``result``
    message :meth:`LeaseScheduler.absorb` applies.  Trials are profiled,
    and (when asked) tracer records are captured in a bounded ring.
    With ``isolate`` the chunk's metrics, phase timings included, land
    in a fresh registry shipped in the message — what a worker
    *process* needs.  ``isolate=False`` leaves them in the process-global
    registry, for a worker running inside the scheduler's own process
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
    return {
        "type": "result", "lease": lease_id, "pid": os.getpid(),
        "indices": [index for index, _ in items],
        "observations": observations,
        "costs": costs if profiler.enabled else [],
        "metrics": registry.as_dict() if registry is not None else {},
        "trace": trace_records,
    }


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
        message = execute_chunk(runner, items, lease.lease_id, isolate=False)
        scheduler.absorb(message, "parent", source="serial")


def _fork_worker(conn, inherited, program, mode, options: CampaignOptions,
                 runner_factory, capture_trace) -> None:
    """A forked child: run each leased chunk until told to stop.

    The inherited tracer is detached first so children never write into
    the parent's trace sink (a shared open file under ``--trace``); each
    chunk's metrics start from a fresh registry, so every result ships
    a clean delta.  The runner is built once the first lease arrives,
    so every message answers the lease it names: a trial exception (or
    a failed build) goes back as that lease's ``error`` message.
    """
    for other in inherited:  # parent-side pipe ends: a parent death must
        other.close()        # reach this child as EOF
    set_tracer(None)
    set_profiler(PhaseProfiler() if options.profile else None)
    runner = lease_id = None
    try:
        for lease_id, items in iter(conn.recv, None):
            if runner is None:
                runner = build_trial_runner(program, mode, options,
                                            runner_factory)
            conn.send(execute_chunk(runner, items, lease_id, capture_trace))
    except EOFError:
        return  # the parent is gone
    except Exception as exc:
        error = {"type": "error", "lease": lease_id, "exception": exc}
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
            args=(child_conn, [conn, *children], *worker_args),
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
                scheduler.absorb(message, worker_id)
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


def _run_local(program, spec_list, mode, options: CampaignOptions,
               runner_factory, profiler) -> CampaignResult:
    """Open one scheduler run and drive it with in-process or forked workers."""
    n_workers = resolve_workers(options.workers) if fork_available() else 1
    scheduler = LeaseScheduler(retry=options.retry)
    tracer = get_tracer()
    with tracer.span(
        "swifi.campaign", workers=n_workers, planned_trials=len(spec_list),
    ) as span:
        run = scheduler.open_run(
            program, spec_list, mode, options,
            chunk_size=1 if n_workers == 1 else None, workers=n_workers,
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
        if tracer.enabled:  # a disabled tracer's span drops its attributes
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
    differential replay, journal/resume directories, retry policy,
    profiling, progress).

    Guarantees, for any worker count:

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

    ``runner_factory`` overrides ``program.trial_runner`` (used by
    tests to exercise the scheduler without a full program; the factory
    is called once per worker, inside the worker).
    """
    if options is None:
        options = CampaignOptions()
    profiler = PhaseProfiler() if options.profile else None
    with use_profiler(profiler):
        return _run_local(
            program, list(specs), mode, options, runner_factory, profiler,
        )
