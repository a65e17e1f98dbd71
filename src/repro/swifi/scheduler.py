"""The campaign scheduler: one run, one lease per worker.

The paper's study is ~10,000 independent single-fault trials per
application (Section VIII).  Every campaign — run in-process or on
forked local workers — is scheduled by its own :class:`LeaseScheduler`.
It owns the run's authoritative state: the spec plan, the durable
journal, the queue of unleased chunks, the lease each worker holds and
each spec's worker-death count.  A worker only leases a chunk, runs it
through :func:`repro.swifi.parallel.execute_chunk`, and sends one
message back; everything else happens here, without pipes or
processes:

1. **Bit-identical results.**  Every observation — shipped by a
   worker, replayed from the journal, or synthesized by quarantine —
   enters the :class:`~repro.swifi.campaign.CampaignResult` through one
   merge in original spec order (:meth:`LeaseScheduler._finish`), so the
   result is the same for any worker count, lease history and
   kill/resume split.
2. **One absorb per lease.**  A worker holds at most one lease, and
   each lease ends in exactly one message or a pipe EOF.
   :meth:`LeaseScheduler.absorb` checks a message whole against the
   lease its worker holds (anything else raises
   :class:`~repro.errors.InjectionError` and applies nothing), then
   applies it: one journal line (with served-by and section tags) and
   ``profile.trial`` event per trial, a heartbeat, and the worker's
   metrics delta and trace records.  A message that arrives after the
   run ended is ignored.
3. **A lost lease is a death signal.**  When a forked worker's pipe
   hits EOF (:meth:`LeaseScheduler.release_worker`), a multi-item chunk
   it held is split in half and requeued, and a single-item one counts
   a death against its spec; a spec with ``RetryPolicy.max_deaths``
   deaths is quarantined as a ``WORKER_KILLED`` trial.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import InjectionError
from repro.exec.pool import chunk_slices, default_chunk_size
from repro.exec.retry import RetryPolicy
from repro.obs.events import get_tracer
from repro.obs.instrument import (
    record_campaign,
    record_journal_activity,
    record_lease,
    record_quarantine,
    record_worker_death,
)
from repro.obs.metrics import get_registry
from repro.obs.profile import (
    PHASE_MERGE,
    PHASE_QUARANTINE,
    get_profiler,
    served_tag,
)
from repro.obs.progress import (
    HEARTBEAT_FILENAME,
    HeartbeatMonitor,
    ProgressRenderer,
)
from repro.swifi.campaign import (
    CampaignResult,
    QuarantineReport,
    TrialObservation,
    absorb_quarantined,
    absorb_trial,
)
from repro.swifi.journal import (
    CampaignJournal,
    JournalRecord,
    campaign_fingerprint,
    spec_fingerprint,
)
from repro.swifi.options import CampaignOptions
from repro.swifi.outcomes import Outcome, classify_outcome


# -- run set-up ------------------------------------------------------------


def _section_of(program, spec_list) -> Optional[List[Optional[str]]]:
    """``sec_of[i]``: the dataflow section of ``spec_list[i]``'s site.

    The journal tags each record with it.  Program-less campaigns have
    no kernel to partition — ``None``.
    """
    if program is None:
        return None
    from repro.kir.analysis.sections import site_section_map

    site_map = site_section_map(program.workload.kernel)
    return [site_map.get(spec.site) for spec in spec_list]


def _open_journal(
    program, spec_list, mode, options: CampaignOptions,
) -> Tuple[Optional[CampaignJournal], Dict[int, JournalRecord]]:
    """Open the campaign journal and index its replayable records.

    On resume, only the journal whose campaign fingerprint matches is
    read; a plan position it cannot serve runs afresh.
    """
    root = options.journal_root
    if root is None:
        return None, {}
    fingerprint, meta = campaign_fingerprint(
        program, spec_list, mode, options.seed
    )
    journal = CampaignJournal.open(
        root, fingerprint, meta, resume=options.resuming
    )
    replayed: Dict[int, JournalRecord] = {}
    for i, spec in enumerate(spec_list):
        record = journal.match(i, spec_fingerprint(spec))
        if record is not None:
            replayed[i] = record
    return journal, replayed


def _open_monitor(
    program, spec_list, options: CampaignOptions,
    journal: Optional[CampaignJournal],
) -> Optional[HeartbeatMonitor]:
    """The campaign's heartbeat monitor, or ``None`` when nothing listens.

    Heartbeats exist whenever there is a consumer: a ``--progress``
    renderer, or a journal directory (where ``heartbeats.jsonl`` is the
    liveness record an operator polls).  A fresh — non-resumed — run
    truncates stale heartbeats, mirroring the journal's semantics.
    """
    renderer = None
    if options.progress:
        label = program.workload.name if program is not None else "campaign"
        renderer = ProgressRenderer(label=label)
    path: Optional[str] = None
    if journal is not None:
        heartbeat_path = journal.directory / HEARTBEAT_FILENAME
        if not options.resuming and heartbeat_path.exists():
            heartbeat_path.unlink()
        path = str(heartbeat_path)
    if renderer is None and path is None:
        return None
    return HeartbeatMonitor(total=len(spec_list), path=path, renderer=renderer)


# -- the scheduler ---------------------------------------------------------


class Lease(NamedTuple):
    """One granted chunk: who holds which spec indices."""

    lease_id: str
    worker_id: str
    #: Global spec indices of the leased chunk (original plan order).
    indices: Tuple[int, ...]


@dataclass
class CampaignRun:
    """Everything the scheduler tracks for its campaign."""

    #: A label for trace events.
    run_id: str
    spec_list: List[Any]
    journal: Optional[CampaignJournal] = None
    replayed: Dict[int, JournalRecord] = field(default_factory=dict)
    monitor: Optional[HeartbeatMonitor] = None
    sec_of: Optional[List[Optional[str]]] = None
    #: Chunks awaiting a lease, as tuples of global spec indices.
    queue: "deque[Tuple[int, ...]]" = field(default_factory=deque)
    obs_by_index: Dict[int, TrialObservation] = field(default_factory=dict)
    quarantines: Dict[int, QuarantineReport] = field(default_factory=dict)
    #: Worker deaths per spec index, each while running that spec alone.
    deaths: "Counter[int]" = field(default_factory=Counter)
    #: Leases lost to a dead worker so far.
    lost: int = 0
    #: ``running``, then ``done`` or ``failed``.
    state: str = "running"
    #: Why a ``failed`` run failed; its driver re-raises it.
    error: Optional[BaseException] = None
    result: Optional[CampaignResult] = None

    @property
    def finished_trials(self) -> int:
        return (len(self.replayed) + len(self.obs_by_index)
                + len(self.quarantines))


def _check_result(run: CampaignRun, lease: Lease,
                  message: Dict[str, Any]) -> Callable[[], None]:
    """Validate a result message whole and return its metrics merge.

    Every key :func:`~repro.swifi.parallel.execute_chunk` writes must be
    there: indices exactly ``lease``'s, each with one observation and
    (when profiled) one cost record or ``None``, an int pid, a list
    trace, and metrics that merge.
    """
    indices = message.get("indices")
    observations = message.get("observations")
    costs = message.get("costs")
    well_formed = (
        message.get("type") == "result"
        and isinstance(indices, list) and all(type(i) is int for i in indices)
        and tuple(indices) == lease.indices
        and isinstance(observations, list)
        and len(observations) == len(indices)
        and all(isinstance(o, TrialObservation) for o in observations)
        and isinstance(costs, list) and len(costs) in (0, len(indices))
        and all(c is None or isinstance(c, dict) for c in costs)
        and type(message.get("pid")) is int
        and isinstance(message.get("trace"), list)
        and isinstance(message.get("metrics"), dict))
    if well_formed:
        try:
            return get_registry().prepare_merge(message["metrics"])
        except ValueError as exc:
            problem = f"metrics: {exc}"
    else:
        problem = (f"a result needs lease {lease.lease_id}'s indices "
                   f"{list(lease.indices)}, one observation and cost per "
                   "spec, an int pid, a list trace and a metrics dict")
    raise InjectionError(f"malformed result for {run.run_id}: {problem}")


class LeaseScheduler:
    """Queue, lease, absorb and merge one campaign run — no I/O of its own.

    Not thread-safe: a single driver thread calls it (the in-process
    and forked drivers in :mod:`repro.swifi.parallel`).
    """

    def __init__(self, retry: Optional[RetryPolicy] = None):
        self.retry = retry if retry is not None else RetryPolicy()
        self.run: Optional[CampaignRun] = None
        #: The lease each worker holds; a worker holds at most one.
        self.held: Dict[str, Lease] = {}
        #: Leases granted so far; ids are sequential (``L000001``), never
        #: random, so logs and tests replay.
        self.issued = 0

    def open_run(
        self, program, spec_list: List[Any], mode: str,
        options: CampaignOptions, *, chunk_size: Optional[int] = None,
        workers: int = 1,
    ) -> CampaignRun:
        """Register the campaign: journal, heartbeats, queued chunks.

        Journaled trials (``options.resume``) are replayed instead of
        queued.  ``chunk_size`` is the lease granularity; ``None``
        sizes chunks for ``workers``.  The campaign fingerprint is only
        computed when a journal is open.
        """
        sec_of = None if options.journal_root is None \
            else _section_of(program, spec_list)
        journal, replayed = _open_journal(
            program, spec_list, mode, options,
        )
        monitor = _open_monitor(program, spec_list, options, journal)
        run_id = "run-001"
        if journal is not None:
            run_id += f"-{journal.directory.name[:8]}"
            record_journal_activity(replayed=len(replayed))
        run = CampaignRun(
            run_id=run_id, spec_list=spec_list, journal=journal,
            replayed=replayed, monitor=monitor, sec_of=sec_of,
        )
        pending = [i for i in range(len(spec_list)) if i not in replayed]
        if pending:
            size = chunk_size or default_chunk_size(len(pending), workers)
            run.queue.extend(tuple(pending[a:b])
                             for a, b in chunk_slices(len(pending), size))
        if replayed and monitor is not None:
            tally = Counter(record.outcome for record in replayed.values())
            monitor.advance(len(replayed), dict(tally), source="replay")
        self.run = run
        self._maybe_finish(run)
        return run

    # -- leasing ----------------------------------------------------------

    def grant(self, worker_id: str) -> Optional[Lease]:
        """Lease the next queued chunk to ``worker_id``, which holds none."""
        run = self.run
        if run.state != "running" or not run.queue:
            return None
        self.issued += 1
        lease = Lease(f"L{self.issued:06d}", worker_id, run.queue.popleft())
        self.held[worker_id] = lease
        record_lease("granted")
        return lease

    def absorb(self, message: Dict[str, Any], worker_id: str,
               source: str = "chunk") -> None:
        """Apply the message that ends ``worker_id``'s lease.

        A result is what :func:`~repro.swifi.parallel.execute_chunk`
        returns.  An ``error`` message carries the worker's exception
        and fails the run.  A message that is malformed, or is not for
        the lease the worker holds, raises
        :class:`~repro.errors.InjectionError` and applies nothing.  A
        message that arrives after the run ended is ignored.
        ``source`` labels the heartbeat (``"serial"`` when the parent
        ran the chunk itself).
        """
        run = self.run
        if run.state != "running":
            return
        merge_metrics = self._check_message(message, worker_id)
        del self.held[worker_id]
        record_lease("completed")
        if merge_metrics is None:
            self.fail(run, message["exception"])
            return
        merge_metrics()
        indices, observations = message["indices"], message["observations"]
        costs = message["costs"] or [None] * len(indices)
        tracer = get_tracer()
        tally: Dict[str, int] = {}
        for idx, obs, cost in zip(indices, observations, costs):
            run.obs_by_index[idx] = obs
            outcome = classify_outcome(
                obs.failure, obs.detected, obs.output_ok
            ).value
            tally[outcome] = tally.get(outcome, 0) + 1
            if run.journal is not None:
                run.journal.append_trial(
                    idx, run.spec_list[idx], outcome, obs,
                    served=served_tag(cost),
                    section=run.sec_of[idx] if run.sec_of else None,
                )
            if cost is not None and tracer.enabled:
                tracer.event("profile.trial", **cost)
        for record in message["trace"]:
            tracer.event("swifi.worker.trace", chunk=indices[0],
                         record=record)
        if run.monitor is not None:
            run.monitor.advance(
                len(indices), tally, pid=message["pid"], source=source,
                lease=message["lease"], force=False,
            )
        self._maybe_finish(run)

    def _check_message(self, message: Any,
                       worker_id: str) -> Optional[Callable[[], None]]:
        """Validate a worker message whole before anything is applied.

        Returns, for a result, its metrics merge (``None`` for an
        ``error`` message).
        """
        if not isinstance(message, dict):
            raise InjectionError(
                f"malformed result: a {type(message).__name__}, not a dict"
            )
        lease = self.held.get(worker_id)
        lease_id = message.get("lease")
        if lease is None or not isinstance(lease_id, str) \
                or lease_id != lease.lease_id:
            raise InjectionError(
                f"malformed result from {worker_id}: lease {lease_id!r}, "
                f"but it holds {lease.lease_id if lease else None!r}"
            )
        if message.get("type") != "error":
            return _check_result(self.run, lease, message)
        if not isinstance(message.get("exception"), BaseException):
            raise InjectionError(
                f"malformed result for {self.run.run_id}: an error message "
                f"needs an exception, got {message.get('exception')!r}"
            )
        return None

    # -- lost leases: the death signal ------------------------------------

    def release_worker(self, worker_id: str) -> Optional[Lease]:
        """Give back the lease of a worker whose process ended.

        The lost chunk is split, its spec's death counted, or the spec
        quarantined.
        """
        lease = self.held.pop(worker_id, None)
        if lease is not None:
            self._lose(lease)
        return lease

    def _lose(self, lease: Lease) -> None:
        """Split a lost chunk, or count a death against its one spec."""
        run = self.run
        record_lease("released")
        record_worker_death("exit", 1)
        get_tracer().event(
            "swifi.worker_death", phase="exit", worker=lease.worker_id,
            lease=lease.lease_id, run=run.run_id, items=len(lease.indices),
        )
        if not self.retry.tolerant:
            self.fail(run, InjectionError(
                f"worker {lease.worker_id} was lost while running "
                f"{len(lease.indices)} trial(s) (retries disabled)"
            ))
            return
        run.lost += 1
        if len(lease.indices) > 1:
            mid = len(lease.indices) // 2
            run.queue.extend((lease.indices[:mid], lease.indices[mid:]))
            record_lease("reissued", 2)
            return
        # a single-item lease: the worker ran nothing else, so the death
        # is this spec's
        (idx,) = lease.indices
        run.deaths[idx] += 1
        if run.deaths[idx] >= self.retry.max_deaths:
            self._quarantine(run, idx)
        else:
            run.queue.append(lease.indices)
            record_lease("reissued")

    def _quarantine(self, run: CampaignRun, idx: int) -> None:
        deaths = run.deaths[idx]
        report = QuarantineReport(
            spec=run.spec_list[idx], index=idx, deaths=deaths,
            rounds=run.lost,
            note=f"worker lost {deaths}x ({deaths}x running this spec alone)",
        )
        run.quarantines[idx] = report
        record_quarantine()
        get_profiler().add(PHASE_QUARANTINE, 0.0)
        if run.journal is not None:
            run.journal.append_quarantine(
                report, section=run.sec_of[idx] if run.sec_of else None
            )
        if run.monitor is not None:
            run.monitor.advance(
                1, {Outcome.WORKER_KILLED.value: 1}, force=False
            )
        self._maybe_finish(run)

    # -- completion -------------------------------------------------------

    def _maybe_finish(self, run: CampaignRun) -> None:
        if run.state == "running" and \
                run.finished_trials == len(run.spec_list):
            self._finish(run)

    def _finish(self, run: CampaignRun) -> None:
        """The one deterministic merge: original spec order, one absorb
        per spec, whichever source (journal, worker, quarantine) made it."""
        tracer = get_tracer()
        result = CampaignResult()
        with get_profiler().phase(PHASE_MERGE):
            for i, spec in enumerate(run.spec_list):
                record = run.replayed.get(i)
                if record is not None and record.observation is None:
                    absorb_quarantined(result, record.to_report(spec), tracer)
                elif record is not None:
                    absorb_trial(result, spec, record.observation, tracer)
                elif i in run.quarantines:
                    absorb_quarantined(result, run.quarantines[i], tracer)
                else:
                    absorb_trial(result, spec, run.obs_by_index[i], tracer)
            record_campaign(result)
        run.result = result
        self.close(run, "done")

    def fail(self, run: CampaignRun, error: BaseException) -> None:
        """End ``run`` without a result; its driver raises ``error``."""
        run.error = error
        self.close(run, "failed")

    def close(self, run: CampaignRun, state: str) -> None:
        """Retire the running run: drop its leases, flush its files."""
        if run.state != "running":
            return
        run.state = state
        self.held.clear()
        if run.monitor is not None:
            run.monitor.close()
            run.monitor = None
        if run.journal is not None:
            record_journal_activity(appended=run.journal.appended)
            run.journal.close()
            run.journal = None
