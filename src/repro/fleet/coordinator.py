"""The fleet coordinator: the campaign scheduler behind a TCP socket.

``repro serve`` runs one :class:`FleetCoordinator`, a thin JSONL-over-TCP
server around a :class:`~repro.swifi.scheduler.LeaseScheduler`.  Every
handler calls the scheduler under one lock, and the scheduler does the
rest — queueing, leasing, dedup, blame and quarantine, the durable
journal and the spec-order merge — exactly as it does for in-process
and forked workers, so ``coordinator + N workers`` is bit-identical to
``workers=1``.  The coordinator adds only what sockets need:

* accepting connections and decoding wire messages;
* a reaper thread that turns a silent worker into expired leases (the
  only death signal a TCP worker gives);
* failing a run at once when a worker reports that a trial raised;
* the worker registry and the ``repro status`` document.

The journal is the recovery story: a SIGKILLed coordinator restarted
with ``resume`` replays the journaled prefix and only leases out the
remainder.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Dict, List, Optional

from repro.errors import ReproError
from repro.exec.lease import DEFAULT_LEASE_TTL, Lease
from repro.exec.retry import SYSTEM_CLOCK, Clock, RetryPolicy
from repro.fleet.wire import (
    CampaignEnvelope,
    WireError,
    decode_observation,
    encode_observation,
    encode_spec,
    recv_message,
    send_message,
)
from repro.obs.events import get_tracer
from repro.obs.instrument import record_fleet_queue_depth, record_fleet_workers
from repro.swifi.scheduler import CampaignRun, LeaseScheduler

#: Status / wire schema version for ``repro status`` consumers.
STATUS_VERSION = 1


class FleetError(ReproError):
    """Coordinator-side fleet failure (bad submit, dead run, …)."""


class FleetCoordinator:
    """A lease scheduler served over TCP.

    ``run_root``/``resume`` configure the durable journal exactly like
    :class:`~repro.swifi.options.CampaignOptions` ``run_dir``/``resume``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        run_root: Optional[str] = None,
        resume: bool = False,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        retry: Optional[RetryPolicy] = None,
        clock: Clock = SYSTEM_CLOCK,
        reap_interval: Optional[float] = None,
    ):
        self.host = host
        self.requested_port = port
        self.run_root = run_root
        self.resume = resume
        self.scheduler = LeaseScheduler(
            retry=retry, lease_ttl=lease_ttl, clock=clock
        )
        self.leases = self.scheduler.leases
        self._runs = self.scheduler.runs
        #: Seconds between reaper sweeps (wall clock; ``0`` = no
        #: background reaper — tests with a FakeClock call :meth:`reap`).
        self.reap_interval = reap_interval if reap_interval is not None \
            else max(0.05, min(0.5, lease_ttl / 4.0))
        self._lock = threading.RLock()
        self._workers: Dict[str, Dict[str, Any]] = {}
        self._server: Optional[socket.socket] = None
        self._stopping = threading.Event()

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise FleetError("coordinator not started")
        return self._server.getsockname()[1]

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "FleetCoordinator":
        """Bind the socket and start the accept + reaper threads."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, self.requested_port))
        server.listen(64)
        self._server = server
        threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True
        ).start()
        if self.reap_interval > 0:
            threading.Thread(
                target=self._reap_loop, name="fleet-reaper", daemon=True
            ).start()
        return self

    def stop(self) -> None:
        """Stop serving.  In-flight runs stay resumable via the journal."""
        self._stopping.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
            self._server = None
        with self._lock:
            for run in self._runs.values():
                self.scheduler.close(run, "stopped")

    def __enter__(self) -> "FleetCoordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- scheduler calls, serialized ------------------------------------

    def submit(self, envelope: CampaignEnvelope, program: Any = None,
               chunk_size: Optional[int] = None) -> str:
        """Register one campaign; returns its run id.

        ``program`` short-circuits the recipe rebuild when the caller
        already holds the built program; a wire submission always
        rebuilds from the recipe.  ``chunk_size`` overrides the lease
        granularity (default: sized for the registered workers) — a
        scheduling hint, never part of the campaign's identity.
        """
        if self._stopping.is_set():
            raise FleetError("coordinator is stopping; submission refused")
        if program is None:
            program = envelope.recipe.build_program()
        options = envelope.options.evolve(
            run_dir=self.run_root,
            resume=self.run_root if self.resume else None,
        )
        with self._lock:
            run = self.scheduler.open_run(
                program, list(envelope.specs), envelope.mode, options,
                chunk_size=chunk_size, workers=len(self._workers) or 2,
                envelope=envelope,
            )
            record_fleet_queue_depth(self._queue_depth())
            get_tracer().event(
                "fleet.submit", run=run.run_id, trials=len(run.spec_list),
                replayed=len(run.replayed), chunks=len(run.queue),
            )
            return run.run_id

    def grant(self, worker_id: str,
              worker_run: Optional[str]) -> Dict[str, Any]:
        """Lease the next chunk to ``worker_id`` (wire-ready response)."""
        with self._lock:
            if self._stopping.is_set():
                return {"type": "drain"}
            lease = self.scheduler.grant(worker_id)
            if lease is None:
                return {"type": "idle"}
            record_fleet_queue_depth(self._queue_depth())
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker["leases"] += 1
            run = self._runs[lease.run_id]
            response: Dict[str, Any] = {
                "type": "grant",
                "lease": lease.lease_id,
                "run": run.run_id,
                "indices": list(lease.indices),
                "specs": [encode_spec(run.spec_list[i]) for i in lease.indices],
            }
            if worker_run != run.run_id:
                response["envelope"] = run.envelope.to_dict()
            get_tracer().event(
                "fleet.lease", lease=lease.lease_id, worker=worker_id,
                run=run.run_id, items=len(lease.indices),
            )
            return response

    def beat(self, lease_id: str) -> bool:
        with self._lock:
            return self.leases.beat(lease_id)

    def absorb(self, message: Dict[str, Any]) -> None:
        """Apply one decoded worker message (see ``LeaseScheduler.absorb``)."""
        with self._lock:
            self.scheduler.absorb(message)

    def absorb_result(self, worker_id: str, lease_id: str, run_id: str,
                      indices: List[int], observations: List[Any],
                      worker_pid: int = 0) -> None:
        """Land one chunk's observations under ``lease_id``."""
        self.absorb({
            "type": "result", "worker": worker_id, "lease": lease_id,
            "run": run_id, "indices": indices,
            "observations": observations, "pid": worker_pid,
        })

    def reap(self) -> List[Lease]:
        """Expire overdue leases: split/requeue chunks, blame singletons."""
        with self._lock:
            dead = self.scheduler.reap()
            if dead:
                record_fleet_queue_depth(self._queue_depth())
            return dead

    def wait(self, run_id: str, timeout: Optional[float] = None) -> CampaignRun:
        """Block until a run completes; returns it (``run.result`` set)."""
        with self._lock:
            run = self._runs.get(run_id)
        if run is None:
            raise FleetError(f"unknown run {run_id!r}")
        if not run.done.wait(timeout):
            raise FleetError(f"run {run_id!r} still executing after timeout")
        if run.error is not None:
            raise FleetError(f"run {run_id!r} failed: {run.error}")
        if run.result is None:
            raise FleetError(
                f"run {run_id!r} ended without a result (state={run.state})"
            )
        return run

    # -- status ---------------------------------------------------------

    def _queue_depth(self) -> int:
        return sum(len(r.queue) for r in self._runs.values()
                   if r.state == "running")

    def status(self) -> Dict[str, Any]:
        """The ``repro status`` document (schema-stable, see docs)."""
        with self._lock:
            return {
                "type": "status",
                "v": STATUS_VERSION,
                "state": "stopping" if self._stopping.is_set() else "serving",
                "queue_depth": self._queue_depth(),
                "active_leases": len(self.leases),
                "lease_ttl": self.leases.ttl,
                "workers": [
                    {"id": wid, "pid": info["pid"], "leases": info["leases"]}
                    for wid, info in sorted(self._workers.items())
                ],
                "runs": [
                    {
                        "run": run.run_id,
                        "state": run.state,
                        "done": run.finished_trials,
                        "total": len(run.spec_list),
                        "quarantined": len(run.quarantines),
                    }
                    for run in self._runs.values()
                ],
            }

    # -- socket plumbing ------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            server = self._server
            if server is None:
                return
            try:
                conn, _addr = server.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="fleet-conn", daemon=True,
            ).start()

    def _reap_loop(self) -> None:
        while not self._stopping.wait(self.reap_interval):
            try:
                self.reap()
            except Exception:  # the reaper must outlive bad state
                pass

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        try:
            while not self._stopping.is_set():
                try:
                    message = recv_message(stream)
                except (WireError, OSError):
                    return
                if message is None:
                    return
                try:
                    reply = self._dispatch(message)
                except ReproError as exc:
                    reply = {"type": "error", "error": str(exc)}
                if reply is not None:
                    try:
                        send_message(stream, reply)
                    except (OSError, ValueError):
                        return
        finally:
            try:
                stream.close()
                conn.close()
            except OSError:
                pass

    def _dispatch(self, message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        kind = message["type"]
        if kind == "hello":
            with self._lock:
                self._workers[str(message["worker"])] = {
                    "pid": int(message.get("pid", 0)), "leases": 0,
                }
                record_fleet_workers(len(self._workers))
            return {"type": "welcome", "ttl": self.leases.ttl}
        if kind == "lease":
            return self.grant(str(message["worker"]), message.get("run"))
        if kind == "beat":
            self.beat(str(message["lease"]))
            return None  # fire-and-forget
        if kind == "result":
            self.absorb({
                **message,
                "indices": [int(i) for i in message["indices"]],
                "observations": [
                    decode_observation(o) for o in message["observations"]
                ],
            })
            return {"type": "ack"}
        if kind == "error":
            # a trial raised on the worker: fail the run now rather
            # than let its lease time out and reissue the same trial
            self.absorb({**message, "exception": FleetError(
                f"worker raised {message.get('kind', 'Exception')}: "
                f"{message.get('error', '')}"
            )})
            return {"type": "ack"}
        if kind == "submit":
            envelope = CampaignEnvelope.from_dict(message["envelope"])
            chunk_size = message.get("chunk_size")
            run_id = self.submit(
                envelope,
                chunk_size=int(chunk_size) if chunk_size is not None else None,
            )
            return {"type": "accepted", "run": run_id}
        if kind == "status":
            return self.status()
        if kind == "wait":
            return self._done_document(self.wait(
                str(message["run"]), timeout=message.get("timeout")
            ))
        if kind == "shutdown":
            threading.Thread(target=self.stop, daemon=True).start()
            return {"type": "bye"}
        raise WireError(f"unknown fleet message type {kind!r}")

    @staticmethod
    def _done_document(run: CampaignRun) -> Dict[str, Any]:
        """The complete merged picture of a finished run, replayed prefix
        included, so a remote submitter can rebuild the CampaignResult
        through the same absorb path and land bit-identical to local runs."""
        observations: Dict[str, Any] = {
            str(i): encode_observation(o) for i, o in run.obs_by_index.items()
        }
        reports = [run.quarantines[i] for i in sorted(run.quarantines)]
        for i in sorted(run.replayed):
            record = run.replayed[i]
            if record.observation is not None:
                observations[str(i)] = encode_observation(record.observation)
            else:
                reports.append(record.to_report(run.spec_list[i]))
        return {
            "type": "done",
            "run": run.run_id,
            "state": run.state,
            "summary": run.result.summary(),
            "observations": observations,
            "quarantines": [
                {"index": r.index, "deaths": r.deaths, "rounds": r.rounds,
                 "note": r.note}
                for r in reports
            ],
        }
