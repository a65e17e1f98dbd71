"""Worker-death policy and per-trial deadlines.

The campaign scheduler (:mod:`repro.swifi.scheduler`) learns that a
forked worker is gone when its pipe reaches EOF.  :class:`RetryPolicy`
says what it does then: a lost multi-spec chunk is split in half
(binary search for the culprit, so the blast radius of a killer spec
halves with each loss), and a lost single-spec chunk counts one death
against that spec.  A spec whose deaths reach ``max_deaths`` is given
up on and becomes a ``WorkerKilled`` trial instead of being retried
forever.  Termination is unconditional: each lost lease either halves
a chunk or advances one spec's death count toward the threshold.

:func:`trial_deadline` is the sibling per-trial guard: a wall-clock
``SIGALRM`` budget that converts a hung trial into a
:class:`TrialTimeout` instead of stalling the worker forever.
"""

from __future__ import annotations

import contextlib
import signal
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """How the campaign scheduler reacts to lost workers.

    ``max_deaths`` is the quarantine threshold: the number of worker
    deaths, each while running a spec alone, before it is given up on.
    With the default of 2, a killer spec runs alone twice before
    quarantine.
    ``0`` disables fault tolerance entirely — the first lost worker
    fails the campaign with :class:`~repro.errors.InjectionError`.
    """

    max_deaths: int = 2

    def __post_init__(self) -> None:
        if self.max_deaths < 0:
            raise ValueError(f"max_deaths must be >= 0, got {self.max_deaths}")

    @property
    def tolerant(self) -> bool:
        """Whether worker deaths are handled instead of raised."""
        return self.max_deaths > 0


class TrialTimeout(Exception):
    """A trial exceeded its wall-clock budget (see :func:`trial_deadline`)."""


@contextlib.contextmanager
def trial_deadline(seconds: Optional[float]):
    """Bound a block to ``seconds`` of wall clock via ``SIGALRM``.

    Raises :class:`TrialTimeout` from inside the block when the budget
    expires.  Degrades to a no-op when ``seconds`` is falsy, when the
    platform has no ``setitimer`` (Windows), or when not running on the
    main thread (signals cannot be delivered elsewhere) — callers get
    best-effort hang protection, never a crash.  Only interrupts Python
    bytecode; a single long-running C call is not preempted.
    """
    if not seconds or seconds <= 0 or not hasattr(signal, "setitimer"):
        yield
        return

    def _expire(signum, frame):
        raise TrialTimeout(f"trial exceeded {seconds:g}s wall clock")

    try:
        previous = signal.signal(signal.SIGALRM, _expire)
    except ValueError:  # not on the main thread
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
