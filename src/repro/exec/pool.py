"""Worker-count and chunking helpers for the campaign scheduler.

The scheduler (:mod:`repro.swifi.scheduler`) leases chunks of spec
indices to workers; these helpers size those chunks and normalise the
``workers`` request.  Local workers are *forked* after the parent warms
its caches, so they inherit the parent's unpicklable object graph (a
:class:`~repro.core.program.HauberkProgram` with compiled kernels and
device memory) instead of rebuilding it; :func:`fork_available` tells
callers when to stay in-process instead.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Tuple, Union


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_workers(workers: Union[int, str, None]) -> int:
    """Normalise a worker-count request to a positive integer.

    ``None``/``0`` mean serial (1); ``"auto"`` means one worker per
    visible CPU.  Anything else must be a positive integer.
    """
    if workers is None:
        return 1
    if isinstance(workers, str):
        if workers == "auto":
            return max(1, os.cpu_count() or 1)
        raise ValueError(f"workers must be an int, None, or 'auto'; got {workers!r}")
    count = int(workers)
    if count == 0:
        return 1
    if count < 0:
        raise ValueError(f"workers must be non-negative, got {count}")
    return count


def default_chunk_size(n_items: int, workers: int, chunks_per_worker: int = 4) -> int:
    """Chunk size giving each worker ~``chunks_per_worker`` chunks.

    Small enough to load-balance uneven trial costs, large enough to
    amortise the per-chunk pickling round trip.
    """
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    if n_items <= 0:
        return 1
    return max(1, -(-n_items // (workers * chunks_per_worker)))


def chunk_slices(n_items: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Deterministic ``[start, stop)`` slices covering ``range(n_items)``."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if n_items < 0:
        raise ValueError(f"n_items must be non-negative, got {n_items}")
    return [(a, min(a + chunk_size, n_items)) for a in range(0, n_items, chunk_size)]
