"""``repro.exec`` — process-level execution utilities.

Four small modules shared by the campaign scheduler
(:mod:`repro.swifi.scheduler`):

* :mod:`repro.exec.pool` — worker-count and chunk-size helpers, and
  the ``fork`` start-method probe (for warm local workers).
* :mod:`repro.exec.lease` — :class:`LeaseTable`, the chunk leases that
  are the unit of work ownership for every worker.
* :mod:`repro.exec.retry` — the fault-tolerance vocabulary:
  :class:`RetryPolicy`, the :class:`BlameLedger` that turns lost
  leases into strikes and quarantines, and :func:`trial_deadline`, a
  wall-clock budget that degrades hung work items to a catchable
  timeout.
* :mod:`repro.exec.cache` — :class:`EphemeralCache`, a dict that
  resets itself across ``deepcopy`` and pickling so hot-path caches
  can live *on* the objects they describe (kernels) without leaking
  compiled state into clones or child processes.
"""

from repro.exec.cache import EphemeralCache, ephemeral_cache
from repro.exec.lease import Lease, LeaseTable
from repro.exec.pool import (
    chunk_slices,
    default_chunk_size,
    fork_available,
    resolve_workers,
)
from repro.exec.retry import (
    BlameLedger,
    DeathRecord,
    RetryPolicy,
    TrialTimeout,
    trial_deadline,
)

__all__ = [
    "EphemeralCache",
    "ephemeral_cache",
    "Lease",
    "LeaseTable",
    "chunk_slices",
    "default_chunk_size",
    "fork_available",
    "resolve_workers",
    "BlameLedger",
    "DeathRecord",
    "RetryPolicy",
    "TrialTimeout",
    "trial_deadline",
]
