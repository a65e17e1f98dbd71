"""``repro.exec`` — process-level execution utilities.

Three small modules shared by the campaign scheduler
(:mod:`repro.swifi.scheduler`), which keeps the leases itself — one
per worker:

* :mod:`repro.exec.pool` — worker-count and chunk-size helpers, and
  the ``fork`` start-method probe (for warm local workers).
* :mod:`repro.exec.retry` — the fault-tolerance vocabulary:
  :class:`RetryPolicy`, how many worker deaths a spec may cause before
  it is quarantined.
* :mod:`repro.exec.cache` — :class:`EphemeralCache`, a dict that
  resets itself across ``deepcopy`` and pickling so hot-path caches
  can live *on* the objects they describe (kernels) without leaking
  compiled state into clones or child processes.
"""

from repro.exec.cache import EphemeralCache, ephemeral_cache
from repro.exec.pool import (
    chunk_slices,
    default_chunk_size,
    fork_available,
    resolve_workers,
)
from repro.exec.retry import RetryPolicy

__all__ = [
    "EphemeralCache",
    "ephemeral_cache",
    "chunk_slices",
    "default_chunk_size",
    "fork_available",
    "resolve_workers",
    "RetryPolicy",
]
