"""Worker-death accounting and per-trial deadlines.

The campaign scheduler (:mod:`repro.swifi.scheduler`) learns that a
worker is gone in one of two ways: a forked worker's pipe reaches EOF,
or a TCP worker's lease outlives its TTL in silence.  Both feed the
same accounting here:

* **Blame** — :class:`BlameLedger` gives each implicated spec a
  *strike*; a strike is *attributable* when the spec was alone in the
  lost lease (the worker ran nothing else).  Multi-spec leases are
  split in half instead of struck, so the blast radius of a killer
  spec halves with each loss (binary search for the culprit).
* **Quarantine** — a spec whose strikes reach ``RetryPolicy.max_deaths``
  (at least one attributable) is given up on and reported as a
  :class:`DeathRecord`; the scheduler turns it into a ``WorkerKilled``
  trial instead of retrying forever.

Termination is unconditional: each lost lease either halves a chunk or
advances one spec's strike count toward the threshold.

:func:`trial_deadline` is the sibling per-trial guard: a wall-clock
``SIGALRM`` budget that converts a hung trial into a
:class:`TrialTimeout` instead of stalling the worker forever.
"""

from __future__ import annotations

import contextlib
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class Clock:
    """Injectable time source for every wall-clock decision in this layer.

    Lease TTLs and expiry checks read time through one of these instead
    of calling :mod:`time` directly, so tests can drive lease expiry in
    milliseconds with a fake clock instead of actually waiting (see
    ``tests/test_fleet.py``).
    """

    now: Callable[[], float] = time.monotonic


#: The real wall clock — the default everywhere a :class:`Clock` is taken.
SYSTEM_CLOCK = Clock()


class FakeClock:
    """Deterministic clock for tests: ``sleep`` advances ``now`` instantly."""

    def __init__(self, start: float = 0.0):
        self.time = start
        self.sleeps: List[float] = []

    def now(self) -> float:
        return self.time

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.time += seconds

    def advance(self, seconds: float) -> None:
        self.time += seconds


@dataclass(frozen=True)
class RetryPolicy:
    """How the campaign scheduler reacts to lost workers.

    ``max_deaths`` is the quarantine threshold: the number of worker
    deaths a spec may be implicated in before it is given up on.  With
    the default of 2, a killer spec runs alone twice before quarantine.
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


@dataclass
class DeathRecord:
    """One quarantined work item and the evidence against it."""

    item: Any
    #: Worker deaths the item was implicated in (shared + isolated).
    deaths: int
    #: Deaths while the item ran alone — attributable beyond doubt.
    isolated_deaths: int
    #: Retry round on which the item was quarantined.
    round_no: int
    note: str = ""


@dataclass
class BlameLedger:
    """Death bookkeeping for every kind of campaign worker.

    Both failure detectors — a forked worker's pipe EOF and an expired
    TCP lease — feed the same accounting: each implicated item earns a
    *strike*; a strike is *attributable* when the item was alone in the
    lost lease.  An item is quarantined once its strikes reach
    ``policy.max_deaths`` with at least one attributable strike.  The
    quarantine note comes from :meth:`record` alone, so a killed spec
    reads the same whichever worker kind lost it.
    """

    policy: RetryPolicy
    deaths: Dict[Any, int] = field(default_factory=dict)
    isolated: Dict[Any, int] = field(default_factory=dict)

    def strike(self, key: Any, attributable: bool = False) -> None:
        """Implicate ``key`` in one worker death / lease expiry."""
        self.deaths[key] = self.deaths.get(key, 0) + 1
        if attributable:
            self.isolated[key] = self.isolated.get(key, 0) + 1

    def condemned(self, key: Any) -> bool:
        """Whether ``key`` has exhausted the policy's death budget."""
        return (
            self.deaths.get(key, 0) >= self.policy.max_deaths
            and self.isolated.get(key, 0) >= 1
        )

    def record(self, item: Any, key: Any, round_no: int) -> DeathRecord:
        """The quarantine evidence for a condemned item."""
        return DeathRecord(
            item=item, deaths=self.deaths[key],
            isolated_deaths=self.isolated.get(key, 0), round_no=round_no,
            note=f"worker lost {self.deaths[key]}x "
                 f"({self.isolated.get(key, 0)}x running this spec alone)",
        )


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
