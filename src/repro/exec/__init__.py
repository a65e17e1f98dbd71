"""``repro.exec`` — process-level execution utilities.

Four small modules shared by the campaign scheduler
(:mod:`repro.swifi.scheduler`):

* :mod:`repro.exec.pool` — worker-count and chunk-size helpers, and
  start-method probes (``fork`` for warm local workers).
* :mod:`repro.exec.lease` — :class:`LeaseTable`, heartbeat-backed TTL
  leases: the unit of work ownership for every worker kind.
* :mod:`repro.exec.retry` — the fault-tolerance vocabulary:
  :class:`RetryPolicy`, the :class:`BlameLedger` that turns lost
  leases into strikes and quarantines, the injectable :class:`Clock`,
  and :func:`trial_deadline`, a wall-clock budget that degrades hung
  work items to a catchable timeout.
* :mod:`repro.exec.cache` — :class:`EphemeralCache`, a dict that
  resets itself across ``deepcopy`` and pickling so hot-path caches
  can live *on* the objects they describe (kernels) without leaking
  compiled state into clones or child processes.
"""

from repro.exec.cache import EphemeralCache, ephemeral_cache
from repro.exec.lease import DEFAULT_LEASE_TTL, Lease, LeaseTable
from repro.exec.pool import (
    chunk_slices,
    default_chunk_size,
    fork_available,
    resolve_workers,
    spawn_available,
)
from repro.exec.retry import (
    SYSTEM_CLOCK,
    BlameLedger,
    Clock,
    DeathRecord,
    FakeClock,
    RetryPolicy,
    TrialTimeout,
    trial_deadline,
)

__all__ = [
    "DEFAULT_LEASE_TTL",
    "EphemeralCache",
    "ephemeral_cache",
    "Lease",
    "LeaseTable",
    "chunk_slices",
    "default_chunk_size",
    "fork_available",
    "resolve_workers",
    "spawn_available",
    "SYSTEM_CLOCK",
    "BlameLedger",
    "Clock",
    "DeathRecord",
    "FakeClock",
    "RetryPolicy",
    "TrialTimeout",
    "trial_deadline",
]
