"""Worker-death policy.

The campaign scheduler (:mod:`repro.swifi.scheduler`) learns that a
forked worker is gone when its pipe reaches EOF.  :class:`RetryPolicy`
says what it does then: a lost multi-spec chunk is split in half
(binary search for the culprit, so the blast radius of a killer spec
halves with each loss), and a lost single-spec chunk counts one death
against that spec.  A spec whose deaths reach ``max_deaths`` is given
up on and becomes a ``WorkerKilled`` trial instead of being retried
forever.  Termination is unconditional: each lost lease either halves
a chunk or advances one spec's death count toward the threshold.

Hangs are not this module's concern: the statement budget ends every
trial in simulated time (the watchdog's ``KernelHang``), so a hang is
an exact label that does not depend on the host.
"""

from __future__ import annotations

from dataclasses import dataclass


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

