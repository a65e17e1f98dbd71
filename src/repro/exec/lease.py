"""Heartbeat-backed chunk leases: the scheduler's unit of work ownership.

Every chunk of spec indices the campaign scheduler hands to a worker is
a lease.  A forked worker that dies ends its lease at once (its pipe
reaches EOF, and :meth:`LeaseTable.release_worker` returns what it
held).  A TCP worker is a separate process behind a socket whose only
death signal is *silence*: every lease carries a TTL deadline, every
beat the worker sends extends it, and :meth:`LeaseTable.expired`
returns the leases whose deadline passed.  Either way the scheduler
splits the lost chunk and reissues it, and a single-item lease counts
as an attributable strike in the shared
:class:`~repro.exec.retry.BlameLedger`.

Time flows through the injectable :class:`~repro.exec.retry.Clock`
seam, so lease-expiry tests run in milliseconds on a
:class:`~repro.exec.retry.FakeClock` instead of actually waiting out
TTLs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exec.retry import SYSTEM_CLOCK, Clock

#: Default seconds of silence before a lease is declared dead.  Beats
#: arrive per completed trial batch, so this only has to outlast one
#: chunk's slowest trial plus scheduling noise.
DEFAULT_LEASE_TTL = 30.0


@dataclass
class Lease:
    """One granted chunk: who owns which spec indices until when."""

    lease_id: str
    worker_id: str
    run_id: str
    #: Global spec indices of the leased chunk (original plan order).
    indices: Tuple[int, ...]
    issued_at: float
    deadline: float
    beats: int = 0


@dataclass
class LeaseTable:
    """Grant / beat / expire bookkeeping for one coordinator.

    Not thread-safe by itself — the coordinator serializes access under
    its state lock.  Lease ids are sequential (``L000001``), never
    random: a deterministic id stream keeps logs and tests replayable.
    """

    ttl: float = DEFAULT_LEASE_TTL
    clock: Clock = SYSTEM_CLOCK
    active: Dict[str, Lease] = field(default_factory=dict)
    issued: int = field(default=0, init=False)

    def grant(self, worker_id: str, run_id: str,
              indices: Tuple[int, ...]) -> Lease:
        """Lease a chunk to a worker until ``now + ttl``."""
        self.issued += 1
        now = self.clock.now()
        lease = Lease(
            lease_id=f"L{self.issued:06d}", worker_id=worker_id,
            run_id=run_id, indices=tuple(indices),
            issued_at=now, deadline=now + self.ttl,
        )
        self.active[lease.lease_id] = lease
        return lease

    def beat(self, lease_id: str) -> bool:
        """Extend a live lease's deadline; ``False`` if it already died.

        A beat for an expired (reissued) lease is *not* resurrected:
        the chunk may already be running elsewhere, and result
        deduplication — not lease resurrection — is what keeps a
        slow-but-alive worker harmless.
        """
        lease = self.active.get(lease_id)
        if lease is None:
            return False
        lease.beats += 1
        lease.deadline = self.clock.now() + self.ttl
        return True

    def complete(self, lease_id: str) -> Optional[Lease]:
        """Retire a lease whose chunk result arrived."""
        return self.active.pop(lease_id, None)

    def expired(self) -> List[Lease]:
        """Remove and return every lease past its deadline."""
        now = self.clock.now()
        dead = [l for l in self.active.values() if l.deadline < now]
        for lease in dead:
            del self.active[lease.lease_id]
        return dead

    def release_worker(self, worker_id: str) -> List[Lease]:
        """Remove and return every lease held by a departing worker."""
        held = [l for l in self.active.values() if l.worker_id == worker_id]
        for lease in held:
            del self.active[lease.lease_id]
        return held

    def __len__(self) -> int:
        return len(self.active)
