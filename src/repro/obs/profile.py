"""Phase profiler: where campaign wall-clock actually goes.

``BENCH_campaign.json`` says *that* a PNS full campaign takes 12.5s and
a CP differential one 0.09s, but not *where* those seconds go — parse
and build?  golden recording?  replay?  journal I/O?  The
:class:`PhaseProfiler` answers that with a fixed phase taxonomy
(:data:`PHASES`), attributing wall-clock to each phase of the campaign
stack:

``parse_build``
    Kernel parse, translator build, and runtime prepare (warm-up).
``golden_record``
    The differential engine's fault-free recording launch.
``diff_replay``
    Single-thread differential replay of a trial.
``full_run``
    Full grid execution of a trial; labelled with the fallback
    ``reason`` (``differential_off``, ``replay_conflict``, kernel
    ineligibility reasons, ...).
``merge``
    The scheduler's deterministic result merge (absorb in spec order).
``journal_append``
    Durable journal writes.
``quarantine``
    Specs given up on (counted; no meaningful duration).

Observations land in two places:

* the process-wide metrics registry, as the
  ``repro_campaign_phase_seconds`` histogram labelled by ``phase`` /
  ``reason`` — the one store of phase totals.  A worker ships it in its
  chunk's metrics delta, and :attr:`PhaseProfiler.totals` reads back the
  rows recorded since the profiler was created (``profile.json``);
* per-trial cost records, which ride in the chunk's result message; the
  scheduler emits each once as a ``profile.trial`` trace event.

The module mirrors the tracer's process-global pattern: a zero-overhead
:class:`NullPhaseProfiler` is installed by default, call-sites resolve
the profiler at call time, and :class:`use_profiler` scopes a real one.
Overhead with profiling *on* is two ``perf_counter`` calls plus a few
dict updates per phase — measured at well under 5% on the CP w1-diff
configuration (the ``overhead`` entry of ``BENCH_campaign.json``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import get_registry

PHASE_PARSE_BUILD = "parse_build"
PHASE_GOLDEN_RECORD = "golden_record"
PHASE_DIFF_REPLAY = "diff_replay"
PHASE_FULL_RUN = "full_run"
PHASE_MERGE = "merge"
PHASE_JOURNAL_APPEND = "journal_append"
PHASE_QUARANTINE = "quarantine"

#: The fixed phase taxonomy (docs/observability.md).
PHASES = (
    PHASE_PARSE_BUILD,
    PHASE_GOLDEN_RECORD,
    PHASE_DIFF_REPLAY,
    PHASE_FULL_RUN,
    PHASE_MERGE,
    PHASE_JOURNAL_APPEND,
    PHASE_QUARANTINE,
)

PHASE_HISTOGRAM = "repro_campaign_phase_seconds"

#: Buckets for ``repro_campaign_phase_seconds``: phases range from
#: sub-millisecond journal appends to multi-second golden recordings.
PHASE_SECONDS_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
)


def phase_key(phase: str, reason: str = "") -> str:
    """Flat totals key: ``"full_run:replay_conflict"`` / ``"merge"``."""
    return f"{phase}:{reason}" if reason else phase


def split_phase_key(key: str) -> tuple:
    """Inverse of :func:`phase_key`: ``(phase, reason)``."""
    phase, _, reason = key.partition(":")
    return phase, reason


class _PhaseHandle:
    """Context manager timing one phase occurrence."""

    __slots__ = ("profiler", "phase", "reason", "_t0")

    def __init__(self, profiler: "PhaseProfiler", phase: str, reason: str):
        self.profiler = profiler
        self.phase = phase
        self.reason = reason

    def __enter__(self) -> "_PhaseHandle":
        self._t0 = self.profiler._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.profiler.add(
            self.phase, self.profiler._clock() - self._t0, reason=self.reason
        )


class _NullPhase:
    """Shared no-op phase handle used by :class:`NullPhaseProfiler`."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_PHASE = _NullPhase()


class PhaseProfiler:
    """Attributes wall-clock to campaign phases; cheap enough to leave on.

    One instance is campaign-local: the parent owns one for the whole
    run, each forked worker owns one per process, whose phases reach the
    parent in each chunk's metrics delta.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._trial: Optional[Dict[str, Any]] = None
        # rows recorded before this profiler existed are not its own
        self._baseline = (get_registry(), {})
        self._baseline = (get_registry(), self.totals)

    @property
    def totals(self) -> Dict[str, List[float]]:
        """``{phase_key: [count, seconds]}`` recorded since creation."""
        registry, base = self._baseline
        if registry is not get_registry():
            registry, base = get_registry(), {}
        histogram = registry.get(PHASE_HISTOGRAM)
        totals: Dict[str, List[float]] = {}
        for labels in histogram.labelsets() if histogram else ():
            key = phase_key(labels["phase"], labels.get("reason", ""))
            count0, seconds0 = base.get(key, (0, 0.0))
            count = histogram.count(**labels) - count0
            if count:
                totals[key] = [count, histogram.sum(**labels) - seconds0]
        return totals

    # -- phase accounting -------------------------------------------------
    def phase(self, phase: str, reason: str = "") -> _PhaseHandle:
        """Time a phase occurrence; use as a context manager."""
        return _PhaseHandle(self, phase, reason)

    def add(self, phase: str, seconds: float, reason: str = "") -> None:
        """Record ``seconds`` of ``phase`` directly (known-duration work)."""
        trial = self._trial
        if trial is not None:
            key = phase_key(phase, reason)
            phases = trial["phases"]
            phases[key] = phases.get(key, 0.0) + seconds
        get_registry().histogram(
            PHASE_HISTOGRAM,
            "Wall-clock seconds attributed to campaign phases",
            buckets=PHASE_SECONDS_BUCKETS,
        ).observe(seconds, phase=phase, reason=reason)

    # -- per-trial cost records -------------------------------------------
    def begin_trial(self, index: int) -> None:
        """Start accumulating one trial's cost record."""
        self._trial = {
            "index": index, "phases": {}, "served": "", "reason": "",
            "t0": self._clock(),
        }

    def note_served(self, served: str, reason: str = "") -> None:
        """Tag the current trial with how it was served (diff/full)."""
        if self._trial is not None:
            self._trial["served"] = served
            self._trial["reason"] = reason

    def end_trial(self) -> Optional[Dict[str, Any]]:
        """Close the trial record and return it.

        The compact cost record (``index``, ``dur``, ``served``,
        ``reason``, per-phase seconds) rides in the chunk's result
        message and is summarised by ``repro report``.
        """
        trial = self._trial
        if trial is None:
            return None
        self._trial = None
        return {
            "index": trial["index"],
            "dur": self._clock() - trial["t0"],
            "served": trial["served"],
            "reason": trial["reason"],
            "phases": trial["phases"],
        }

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready view of the totals (``profile.json`` payload)."""
        return {
            key: {"count": int(count), "seconds": seconds}
            for key, (count, seconds) in sorted(self.totals.items())
        }


class NullPhaseProfiler(PhaseProfiler):
    """Zero-overhead profiler: every operation is a no-op."""

    enabled = False

    @property
    def totals(self) -> Dict[str, List[float]]:
        return {}

    def phase(self, phase: str, reason: str = "") -> _NullPhase:  # type: ignore[override]
        return _NULL_PHASE

    def add(self, phase: str, seconds: float, reason: str = "") -> None:
        pass

    def begin_trial(self, index: int) -> None:
        pass

    def note_served(self, served: str, reason: str = "") -> None:
        pass

    def end_trial(self) -> None:  # type: ignore[override]
        return None


_default_profiler: PhaseProfiler = NullPhaseProfiler()


def get_profiler() -> PhaseProfiler:
    """The process-wide profiler (a no-op unless one is installed)."""
    return _default_profiler


def set_profiler(profiler: Optional[PhaseProfiler]) -> PhaseProfiler:
    """Install ``profiler`` globally (``None`` restores the no-op)."""
    global _default_profiler
    _default_profiler = profiler if profiler is not None else NullPhaseProfiler()
    return _default_profiler


class use_profiler:
    """Scoped profiler installation (mirrors ``use_tracer``)::

        with use_profiler(PhaseProfiler()) as prof:
            run_campaign(...)
        prof.snapshot()
    """

    def __init__(self, profiler: Optional[PhaseProfiler]):
        self.profiler = profiler
        self._previous: Optional[PhaseProfiler] = None

    def __enter__(self) -> PhaseProfiler:
        self._previous = get_profiler()
        if self.profiler is not None:
            set_profiler(self.profiler)
        return get_profiler()

    def __exit__(self, exc_type, exc, tb) -> None:
        set_profiler(self._previous)


def served_tag(cost: Optional[Dict[str, Any]]) -> Optional[str]:
    """Compact journal tag for a trial cost record.

    ``"diff"`` for a differential replay hit, ``"full:<reason>"`` for a
    full execution (reason may be empty), ``None`` when the trial was
    not profiled.
    """
    if not cost or not cost.get("served"):
        return None
    served = cost["served"]
    reason = cost.get("reason", "")
    return f"{served}:{reason}" if reason else served
