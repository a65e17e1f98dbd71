"""Phase profiler: where campaign wall-clock actually goes.

A campaign's wall time says *that* trials take long, but not *where*
those seconds go — parse and build?  golden recording?  replay?
journal I/O?  The :class:`PhaseProfiler` answers that with a fixed
phase taxonomy
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
dict updates per phase, through one reusable handle per phase key.
``benchmarks/test_profiler_overhead.py`` bounds it at 5% of CP's
Figure 14 campaigns served by replay; e2ebench's ``--trace 1`` run
reports the per-layer ledger of the same traffic.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import LabelKey, get_registry

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


def _phase_observer(registry, phase: str, reason: str):
    """``observe`` of one ``(phase, reason)`` row (for ``registry.bound``)."""
    return registry.histogram(
        PHASE_HISTOGRAM,
        "Wall-clock seconds attributed to campaign phases",
        buckets=PHASE_SECONDS_BUCKETS,
    ).bind(phase=phase, reason=reason)


def _phase_rows(registry) -> Dict[LabelKey, Tuple[int, float]]:
    """``{label key: (count, seconds)}`` of every row ``registry`` holds."""
    histogram = registry.get(PHASE_HISTOGRAM)
    return histogram.rows() if histogram is not None else {}


class _PhaseHandle:
    """Context manager timing the occurrences of one ``(phase, reason)``.

    A profiler makes one per key and hands it out again, so timing a
    phase allocates nothing; the start times stack, so occurrences of
    one key may nest.
    """

    __slots__ = ("profiler", "phase", "reason", "key", "_starts",
                 "_registry", "_observe")

    def __init__(self, profiler: "PhaseProfiler", phase: str, reason: str):
        self.profiler = profiler
        self.phase = phase
        self.reason = reason
        self.key = phase_key(phase, reason)
        self._starts: List[float] = []
        self._registry = self._observe = None

    def __enter__(self) -> "_PhaseHandle":
        self._starts.append(self.profiler._clock())
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.record(self.profiler._clock() - self._starts.pop())

    def record(self, seconds: float) -> None:
        """Add one occurrence of ``seconds`` to the trial and the registry."""
        trial = self.profiler._trial
        if trial is not None:
            phases = trial["phases"]
            phases[self.key] = phases.get(self.key, 0.0) + seconds
        registry = get_registry()
        if registry is not self._registry:
            self._registry = registry
            self._observe = registry.bound(_phase_observer, self.phase,
                                           self.reason)
        self._observe(seconds)


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
        self._handles: Dict[Tuple[str, str], _PhaseHandle] = {}
        self._trial: Optional[Dict[str, Any]] = None
        self._trial_t0 = 0.0
        # rows recorded before this profiler existed are not its own
        self._registry = get_registry()
        self._base = _phase_rows(self._registry)

    @property
    def totals(self) -> Dict[str, List[float]]:
        """``{phase_key: [count, seconds]}`` recorded since creation."""
        registry = get_registry()
        base = self._base if registry is self._registry else {}
        totals: Dict[str, List[float]] = {}
        for labelkey, (count, seconds) in _phase_rows(registry).items():
            count0, seconds0 = base.get(labelkey, (0, 0.0))
            if count > count0:
                labels = dict(labelkey)
                key = phase_key(labels["phase"], labels.get("reason", ""))
                totals[key] = [count - count0, seconds - seconds0]
        return totals

    # -- phase accounting -------------------------------------------------
    def phase(self, phase: str, reason: str = "") -> _PhaseHandle:
        """Time a phase occurrence; use as a context manager."""
        handle = self._handles.get((phase, reason))
        if handle is None:
            handle = self._handles[phase, reason] = \
                _PhaseHandle(self, phase, reason)
        return handle

    def add(self, phase: str, seconds: float, reason: str = "") -> None:
        """Record ``seconds`` of ``phase`` directly (known-duration work)."""
        self.phase(phase, reason).record(seconds)

    # -- per-trial cost records -------------------------------------------
    def begin_trial(self, index: int) -> None:
        """Start accumulating one trial's cost record."""
        self._trial = {
            "index": index, "dur": 0.0, "served": "", "reason": "",
            "phases": {},
        }
        self._trial_t0 = self._clock()

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
        trial["dur"] = self._clock() - self._trial_t0
        return trial

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready view of the totals (``profile.json`` payload)."""
        return {
            key: {"count": int(count), "seconds": seconds}
            for key, (count, seconds) in sorted(self.totals.items())
        }


class NullPhaseProfiler(PhaseProfiler):
    """Zero-overhead profiler: every operation is a no-op."""

    enabled = False

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock

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
