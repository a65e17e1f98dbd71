"""``repro serve``: a standing coordinator, optionally with its own workers.

:func:`serve_forever` runs a :class:`FleetCoordinator` accepting
``repro submit`` campaigns until interrupted.  With ``fleet=N`` it also
*spawns* N TCP workers (:func:`~repro.fleet.worker.worker_main`) next
to it — the single-host farm.  They are spawned rather than forked
because a standing coordinator has no warm campaign to fork from: each
worker rebuilds every submitted program from its recipe.  A ``kill -9``
of one worker only silences its leases, which expire and reissue.
"""

from __future__ import annotations

import multiprocessing
from typing import Optional

from repro.exec.lease import DEFAULT_LEASE_TTL
from repro.exec.retry import RetryPolicy
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.worker import worker_main
from repro.obs.instrument import record_fleet_workers


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    fleet: int = 0,
    run_root: Optional[str] = None,
    resume: bool = False,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    retry: Optional[RetryPolicy] = None,
    max_runs: Optional[int] = None,
    announce=None,
) -> int:
    """The ``repro serve`` loop: coordinate until interrupted.

    ``fleet`` > 0 also spawns that many local workers; 0 serves
    coordination only (bring your own workers).  ``max_runs`` exits
    after that many runs end — the hook CI smoke tests and the resume
    parity script use to terminate deterministically.  ``announce`` (a
    callable) receives the bound endpoint string once serving.
    """
    coordinator = FleetCoordinator(
        host, port, run_root=run_root, resume=resume,
        lease_ttl=lease_ttl, retry=retry,
    ).start()
    ctx = multiprocessing.get_context("spawn")
    workers = [
        ctx.Process(target=worker_main, daemon=True,
                    args=(coordinator.host, coordinator.port, f"w{k}"))
        for k in range(fleet)
    ]
    for proc in workers:
        proc.start()
    record_fleet_workers(len(workers))
    if announce is not None:
        announce(coordinator.endpoint)
    try:
        while not coordinator._stopping.wait(0.1):
            if max_runs is not None:
                with coordinator._lock:
                    ended = sum(1 for r in coordinator._runs.values()
                                if r.state != "running")
                if ended >= max_runs:
                    break
        return 0
    except KeyboardInterrupt:
        return 0
    finally:
        coordinator.stop()
        for proc in workers:
            proc.terminate()
            proc.join()
