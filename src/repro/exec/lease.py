"""Chunk leases: the scheduler's unit of work ownership.

Every chunk of spec indices the campaign scheduler hands to a worker is
a lease.  A forked worker that dies ends its leases at once (its pipe
reaches EOF, and :meth:`LeaseTable.release_worker` returns what it
held); the scheduler then splits the lost chunk and reissues it, and a
single-item lease counts as an attributable strike in the
:class:`~repro.exec.retry.BlameLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Lease:
    """One granted chunk: who owns which spec indices."""

    lease_id: str
    worker_id: str
    run_id: str
    #: Global spec indices of the leased chunk (original plan order).
    indices: Tuple[int, ...]


@dataclass
class LeaseTable:
    """Grant / complete / release bookkeeping for one scheduler.

    Not thread-safe by itself.  Lease ids are sequential (``L000001``),
    never random: a deterministic id stream keeps logs and tests
    replayable.
    """

    active: Dict[str, Lease] = field(default_factory=dict)
    issued: int = field(default=0, init=False)

    def grant(self, worker_id: str, run_id: str,
              indices: Tuple[int, ...]) -> Lease:
        """Lease a chunk to a worker."""
        self.issued += 1
        lease = Lease(
            lease_id=f"L{self.issued:06d}", worker_id=worker_id,
            run_id=run_id, indices=tuple(indices),
        )
        self.active[lease.lease_id] = lease
        return lease

    def complete(self, lease_id: str) -> Optional[Lease]:
        """Retire a lease whose chunk result arrived."""
        return self.active.pop(lease_id, None)

    def release_worker(self, worker_id: str) -> List[Lease]:
        """Remove and return every lease held by a departing worker."""
        held = [l for l in self.active.values() if l.worker_id == worker_id]
        for lease in held:
            del self.active[lease.lease_id]
        return held

    def __len__(self) -> int:
        return len(self.active)
