"""The campaign scheduler: one lease loop for every kind of worker.

The paper's study is ~10,000 independent single-fault trials per
application (Section VIII).  Every campaign — run in-process, on forked
local workers, or on TCP workers behind ``repro serve`` — is scheduled
by one :class:`LeaseScheduler`.  It owns each run's authoritative
state: the spec plan, the durable journal, the queue of unleased
chunks, the :class:`~repro.exec.lease.LeaseTable` and the
:class:`~repro.exec.retry.BlameLedger`.  A worker only leases a chunk,
runs it through :func:`repro.swifi.parallel.execute_chunk`, and sends
one result message back; everything else happens here, without
sockets or processes:

1. **Bit-identical results.**  Every observation — shipped by a
   worker, replayed from the journal, or synthesized by quarantine —
   enters the :class:`~repro.swifi.campaign.CampaignResult` through one
   merge in original spec order (:meth:`LeaseScheduler._finish`), so the
   result is the same for any worker kind, worker count, lease history
   and kill/resume split.
2. **One absorb.**  :meth:`LeaseScheduler.absorb` applies a single
   result message: dedup, one journal line per trial with served-by
   and section tags, a heartbeat, and the worker's metrics delta,
   phase totals and trace records.
3. **A lost lease is a death signal.**  Whether a forked worker's pipe
   hit EOF (:meth:`LeaseScheduler.release_worker`) or a TCP worker's
   lease expired in silence (:meth:`LeaseScheduler.reap`), a multi-item
   chunk is split in half and requeued, a single-item one is an
   attributable strike, and a condemned spec is quarantined as a
   ``WORKER_KILLED`` trial.
4. **Duplicates are harmless.**  A slow-but-alive worker may race its
   own reissued lease; the first result for an index wins.  Trials are
   deterministic, so the dropped copy equals the kept one.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InjectionError
from repro.exec.lease import DEFAULT_LEASE_TTL, Lease, LeaseTable
from repro.exec.pool import chunk_slices, default_chunk_size
from repro.exec.retry import SYSTEM_CLOCK, BlameLedger, Clock, RetryPolicy
from repro.obs.events import get_tracer
from repro.obs.instrument import (
    record_campaign,
    record_journal_activity,
    record_lease,
    record_quarantine,
    record_stale_sections,
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


def _section_context(program, spec_list):
    """Per-spec section names plus the staleness-closure callback.

    Returns ``(sec_of, affected_fn)``: ``sec_of[i]`` is the dataflow
    section of ``spec_list[i]``'s injection site, and ``affected_fn``
    closes a set of changed section names over the section dependency
    graph.  Program-less campaigns have no kernel to partition —
    ``(None, None)``.
    """
    if program is None:
        return None, None
    from repro.kir.analysis.sections import (
        affected_sections,
        kernel_sections,
        site_section_map,
    )

    kernel = program.workload.kernel
    sections = kernel_sections(kernel)
    site_map = site_section_map(kernel, sections)
    sec_of = [site_map.get(spec.site) for spec in spec_list]

    def affected_fn(changed):
        return affected_sections(sections, changed)

    return sec_of, affected_fn


def _open_journal(
    program, spec_list, mode, options: CampaignOptions,
    plan=None, sec_of=None, affected_fn=None,
) -> Tuple[Optional[CampaignJournal], Dict[int, JournalRecord]]:
    """Open the campaign journal and index its replayable records.

    On resume, plan positions the exact-fingerprint journal cannot
    serve are offered to sibling journals for **incremental adoption**
    (:meth:`CampaignJournal.adopt_compatible`): records from sections
    whose fingerprint and dependency closure survived the edit replay
    instead of re-executing.
    """
    root = options.journal_root
    if root is None:
        return None, {}
    fingerprint, meta = campaign_fingerprint(
        program, spec_list, mode, options.seed
    )
    if plan is not None:
        meta["plan"] = plan.meta()
    journal = CampaignJournal.open(
        root, fingerprint, meta, resume=options.resuming
    )
    replayed: Dict[int, JournalRecord] = {}
    for i, spec in enumerate(spec_list):
        record = journal.match(i, spec_fingerprint(spec))
        if record is not None:
            replayed[i] = record
    if options.resuming and sec_of is not None and affected_fn is not None:
        wanted = [(i, spec_fingerprint(spec), sec_of[i])
                  for i, spec in enumerate(spec_list) if i not in replayed]
        if wanted:
            adopted, stale = journal.adopt_compatible(
                root, meta, wanted, affected_fn
            )
            record_stale_sections(len(stale))
            replayed.update(adopted)
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


@dataclass
class CampaignRun:
    """Everything the scheduler tracks for one campaign."""

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
    ledger: Optional[BlameLedger] = None
    #: Leases of this run lost to a dead or silent worker so far.
    lost: int = 0
    #: ``running``, then ``done``, ``failed`` or ``stopped``.
    state: str = "running"
    #: Why a ``failed`` run failed; its driver re-raises it.
    error: Optional[BaseException] = None
    result: Optional[CampaignResult] = None
    done: threading.Event = field(default_factory=threading.Event)
    #: Wire envelope of a TCP-submitted run (shipped with its leases).
    envelope: Any = None

    @property
    def finished_trials(self) -> int:
        return (len(self.replayed) + len(self.obs_by_index)
                + len(self.quarantines))

    def landed(self, index: int) -> bool:
        """Whether spec ``index`` already has its final entry."""
        return (index in self.obs_by_index or index in self.quarantines
                or index in self.replayed)


class LeaseScheduler:
    """Queue, lease, absorb and merge campaign runs — no I/O of its own.

    Not thread-safe by itself: a single driver thread calls it (the
    in-process and forked drivers in :mod:`repro.swifi.parallel`), or
    the TCP coordinator serializes its handlers under one lock.
    """

    def __init__(self, retry: Optional[RetryPolicy] = None,
                 lease_ttl: float = DEFAULT_LEASE_TTL,
                 clock: Clock = SYSTEM_CLOCK):
        self.retry = retry if retry is not None else RetryPolicy()
        self.leases = LeaseTable(ttl=lease_ttl, clock=clock)
        #: Runs in submission order; leases go to the oldest first.
        self.runs: Dict[str, CampaignRun] = {}

    def open_run(
        self, program, spec_list: List[Any], mode: str,
        options: CampaignOptions, *, chunk_size: Optional[int] = None,
        workers: int = 1, plan=None, envelope: Any = None,
    ) -> CampaignRun:
        """Register one campaign: journal, heartbeats, queued chunks.

        Journaled trials (``options.resume``) are replayed instead of
        queued.  ``chunk_size`` is the lease granularity; ``None``
        sizes chunks for ``workers``.  The campaign fingerprint is only
        computed when a journal is open.
        """
        sec_of, affected_fn = (None, None) if options.journal_root is None \
            else _section_context(program, spec_list)
        journal, replayed = _open_journal(
            program, spec_list, mode, options, plan, sec_of, affected_fn,
        )
        monitor = _open_monitor(program, spec_list, options, journal)
        run_id = f"run-{len(self.runs) + 1:03d}"
        if journal is not None:
            run_id += f"-{journal.directory.name[:8]}"
            record_journal_activity(replayed=len(replayed))
        run = CampaignRun(
            run_id=run_id, spec_list=spec_list, journal=journal,
            replayed=replayed, monitor=monitor, sec_of=sec_of,
            ledger=BlameLedger(self.retry), envelope=envelope,
        )
        pending = [i for i in range(len(spec_list)) if i not in replayed]
        if pending:
            size = chunk_size or default_chunk_size(len(pending), workers)
            run.queue.extend(tuple(pending[a:b])
                             for a, b in chunk_slices(len(pending), size))
        if replayed and monitor is not None:
            tally = Counter(record.outcome for record in replayed.values())
            monitor.advance(len(replayed), dict(tally), source="replay")
        self.runs[run_id] = run
        self._maybe_finish(run)
        return run

    # -- leasing ----------------------------------------------------------

    def grant(self, worker_id: str) -> Optional[Lease]:
        """Lease the next queued chunk of the oldest running run."""
        for run in self.runs.values():
            if run.state == "running" and run.queue:
                record_lease("granted")
                return self.leases.grant(
                    worker_id, run.run_id, run.queue.popleft()
                )
        return None

    def absorb(self, message: Dict[str, Any], source: str = "chunk") -> None:
        """Apply one worker message: a chunk's result, or its error.

        ``message["observations"]`` holds decoded
        :class:`~repro.swifi.campaign.TrialObservation` objects.  An
        ``error`` message carries the worker's exception and fails the
        run.  ``source`` labels the heartbeat (``"serial"`` when the
        parent ran the chunk itself).
        """
        run = self.runs.get(message["run"])
        if run is None:
            raise InjectionError(f"result for unknown run {message['run']!r}")
        if self.leases.complete(message.get("lease")) is not None:
            record_lease("completed")
        if run.state != "running":
            return  # a late copy for a run that already ended
        if message["type"] == "error":
            self.fail(run, message["exception"])
            return
        indices, observations = message["indices"], message["observations"]
        if len(indices) != len(observations):
            raise InjectionError(
                f"chunk carried {len(observations)} observations for "
                f"{len(indices)} indices"
            )
        costs = message.get("costs") or [None] * len(indices)
        tally: Dict[str, int] = {}
        for idx, obs, cost in zip(indices, observations, costs):
            if run.landed(idx):
                continue
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
        fresh = sum(tally.values())
        if fresh:
            # worker telemetry: merged once, and never from a duplicate
            if message.get("metrics"):
                get_registry().merge_dict(message["metrics"])
            if message.get("phase_totals"):
                get_profiler().absorb_totals(message["phase_totals"])
            tracer = get_tracer()
            for record in message.get("trace") or ():
                tracer.event("swifi.worker.trace", chunk=indices[0],
                             record=record)
            if run.monitor is not None:
                run.monitor.advance(
                    fresh, tally, pid=message.get("pid"), source=source,
                    lease=message.get("lease"), force=False,
                )
        self._maybe_finish(run)

    # -- lost leases: the death signal ------------------------------------

    def reap(self) -> List[Lease]:
        """Expire overdue leases (TCP workers that went silent)."""
        dead = self.leases.expired()
        for lease in dead:
            self._lose(lease, "lease")
        return dead

    def release_worker(self, worker_id: str) -> List[Lease]:
        """Give back every lease of a worker whose process ended."""
        held = self.leases.release_worker(worker_id)
        for lease in held:
            self._lose(lease, "exit")
        return held

    def _lose(self, lease: Lease, phase: str) -> None:
        """Split, strike or quarantine the unlanded part of a lost lease."""
        record_lease("expired" if phase == "lease" else "released")
        record_worker_death(phase, 1)
        get_tracer().event(
            "swifi.worker_death", phase=phase, worker=lease.worker_id,
            lease=lease.lease_id, run=lease.run_id, items=len(lease.indices),
        )
        run = self.runs.get(lease.run_id)
        if run is None or run.state != "running":
            return
        if not self.retry.tolerant:
            self.fail(run, InjectionError(
                f"worker {lease.worker_id} was lost while running "
                f"{len(lease.indices)} trial(s) (retries disabled)"
            ))
            return
        run.lost += 1
        # results may have landed before the loss; only the missing
        # indices go back on the queue
        missing = tuple(i for i in lease.indices if not run.landed(i))
        if len(missing) > 1:
            mid = len(missing) // 2
            run.queue.extend((missing[:mid], missing[mid:]))
            record_lease("reissued", 2)
        elif missing:
            # a single-item lease: the worker ran nothing else, so the
            # strike is attributable
            idx = missing[0]
            run.ledger.strike(idx, attributable=True)
            if run.ledger.condemned(idx):
                self._quarantine(run, idx)
            else:
                run.queue.append(missing)
                record_lease("reissued")

    def _quarantine(self, run: CampaignRun, idx: int) -> None:
        record = run.ledger.record(item=idx, key=idx, round_no=run.lost)
        report = QuarantineReport(
            spec=run.spec_list[idx], index=idx, deaths=record.deaths,
            rounds=record.round_no, note=record.note,
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
        """Retire a running run: drop its leases, flush its files."""
        if run.state != "running":
            return
        run.state = state
        for lease_id in [lease_id for lease_id, lease
                         in self.leases.active.items()
                         if lease.run_id == run.run_id]:
            self.leases.complete(lease_id)
        if run.monitor is not None:
            run.monitor.close()
            run.monitor = None
        if run.journal is not None:
            record_journal_activity(appended=run.journal.appended)
            run.journal.close()
            run.journal = None
        run.done.set()
