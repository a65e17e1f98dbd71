"""Live campaign progress: heartbeat records and a TTY progress line.

A campaign cannot be operated blind: the scheduler needs to report,
while a campaign runs, how many trials have landed, at what rate, and
from which worker pids.  This module supplies the two halves:

:class:`Heartbeat`
    One liveness record.  Workers ship per-chunk results to the
    campaign scheduler, which turns each landed chunk into a
    heartbeat — monotonically increasing
    ``seq``, trials ``done`` / ``total``, per-outcome tallies, smoothed
    ``rate`` (trials/sec), ``elapsed`` seconds, and the worker ``pid``
    that produced the chunk.  Heartbeats are appended to
    ``heartbeats.jsonl`` next to the campaign journal (the liveness
    record an operator polls) and emitted as
    ``swifi.heartbeat`` tracer events.

:class:`ProgressRenderer`
    A ``--progress`` TTY line over a stream: bar, done/total,
    percentage, rate, ETA, and non-zero outcome tallies, redrawn in
    place with ``\\r`` and throttled to at most ~10 redraws/sec.

Neither half touches trial execution or result merging: campaigns with
progress enabled are bit-identical to campaigns without (covered by
``tests/test_flight_recorder.py``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Optional

from repro.obs.events import get_tracer

#: Schema version stamped on every heartbeat record.
HEARTBEAT_VERSION = 1

#: File the monitor appends heartbeats to, next to ``journal.jsonl``.
HEARTBEAT_FILENAME = "heartbeats.jsonl"


@dataclass
class Heartbeat:
    """One liveness record (see docs/observability.md for the schema)."""

    #: Monotonically increasing per-campaign sequence number.
    seq: int
    #: Pid of the worker that produced the progress (parent pid for
    #: serial campaigns and replayed-journal credit).
    pid: int
    #: Trials finished so far, including journal-replayed ones.
    done: int
    #: Total trials the campaign will run.
    total: int
    #: Per-outcome tallies so far (outcome value -> count; zero counts
    #: omitted).
    outcomes: Dict[str, int]
    #: Smoothed throughput in trials/sec since the campaign started.
    rate: float
    #: Seconds since the monitor was opened.
    elapsed: float
    #: What produced this heartbeat: ``chunk``, ``serial``, ``replay``,
    #: or ``final``.
    source: str = "chunk"
    #: Lease id the progress was produced under (``None`` for replay
    #: and final beats).  Lets an operator join ``heartbeats.jsonl``
    #: against the scheduler's lease lifecycle.
    lease: Optional[str] = None

    def to_record(self) -> Dict[str, Any]:
        """JSON-ready form, stable key order."""
        record = {
            "v": HEARTBEAT_VERSION,
            "seq": self.seq,
            "pid": self.pid,
            "done": self.done,
            "total": self.total,
            "outcomes": dict(sorted(self.outcomes.items())),
            "rate": round(self.rate, 3),
            "elapsed": round(self.elapsed, 6),
            "source": self.source,
        }
        if self.lease is not None:
            record["lease"] = self.lease
        return record


class ProgressRenderer:
    """Renders heartbeats as a single redrawn progress line.

    Writes to ``stream`` (default ``sys.stderr``); the line is redrawn
    with ``\\r`` and cleared with a trailing newline on :meth:`close`.
    """

    def __init__(self, stream: Optional[IO[str]] = None, *, label: str = "",
                 width: int = 24, min_interval: float = 0.1,
                 clock=time.monotonic):
        if stream is None:
            import sys

            stream = sys.stderr
        self.stream = stream
        self.label = label
        self.width = width
        self.min_interval = min_interval
        self._clock = clock
        self._last_draw = 0.0
        self._last_len = 0
        self._drew = False

    def update(self, beat: Heartbeat) -> None:
        now = self._clock()
        final = beat.source == "final" or beat.done >= beat.total
        if not final and self._drew and now - self._last_draw < self.min_interval:
            return
        self._last_draw = now
        self._drew = True
        self._draw(beat)

    def _draw(self, beat: Heartbeat) -> None:
        total = max(beat.total, 1)
        frac = min(beat.done / total, 1.0)
        filled = int(frac * self.width)
        bar = "=" * filled + (">" if 0 < filled < self.width else "")
        bar = bar.ljust(self.width)
        if beat.rate > 0 and beat.done < beat.total:
            eta = f"eta {((beat.total - beat.done) / beat.rate):.1f}s"
        elif beat.done >= beat.total:
            eta = "done"
        else:
            eta = "eta ?"
        tallies = " ".join(
            f"{name}={count}"
            for name, count in sorted(beat.outcomes.items())
            if count
        )
        prefix = f"{self.label} " if self.label else ""
        line = (
            f"{prefix}[{bar}] {beat.done}/{beat.total} {frac * 100:3.0f}% "
            f"{beat.rate:.1f} trials/s {eta}"
        )
        if tallies:
            line = f"{line} {tallies}"
        pad = " " * max(self._last_len - len(line), 0)
        self._last_len = len(line)
        try:
            self.stream.write(f"\r{line}{pad}")
            self.stream.flush()
        except (OSError, ValueError):
            pass

    def close(self) -> None:
        if self._drew:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except (OSError, ValueError):
                pass


@dataclass
class HeartbeatMonitor:
    """Parent-side progress accountant for one campaign.

    ``advance`` is called as results land — per leased chunk
    (time-throttled so a ``workers=1`` campaign, which leases one trial
    at a time, does not write one heartbeat per trial), and once for
    the journal-replayed prefix on resume.  Each emitted heartbeat fans out
    to the heartbeat file, the tracer, and the renderer.
    """

    total: int
    path: Optional[str] = None
    renderer: Optional[ProgressRenderer] = None
    #: Minimum seconds between *throttled* (serial-path) emissions.
    min_interval: float = 0.2
    clock: Any = time.monotonic

    seq: int = field(default=0, init=False)
    done: int = field(default=0, init=False)
    outcomes: Dict[str, int] = field(default_factory=dict, init=False)
    _t0: float = field(default=0.0, init=False)
    _last_emit: float = field(default=0.0, init=False)
    _pending: int = field(default=0, init=False)
    _file: Optional[IO[str]] = field(default=None, init=False)
    _closed: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        self._t0 = self.clock()
        if self.path is not None:
            self._file = open(self.path, "a", encoding="utf-8")

    def advance(self, count: int, outcomes: Optional[Dict[str, int]] = None,
                *, pid: Optional[int] = None, source: str = "chunk",
                lease: Optional[str] = None,
                force: bool = True) -> Optional[Heartbeat]:
        """Account ``count`` finished trials and maybe emit a heartbeat.

        ``force=False`` (every scheduler result) batches updates until
        ``min_interval`` has passed; counts are never lost — only the
        emission is deferred.
        """
        if self._closed:
            return None
        self.done += count
        self._pending += count
        if outcomes:
            for name, tally in outcomes.items():
                if tally:
                    self.outcomes[name] = self.outcomes.get(name, 0) + tally
        now = self.clock()
        if not force and now - self._last_emit < self.min_interval:
            return None
        return self._emit(pid=pid, source=source, lease=lease, now=now)

    def close(self) -> None:
        """Emit the final heartbeat and release the heartbeat file."""
        if self._closed:
            return
        self._emit(pid=None, source="final", now=self.clock())
        self._closed = True
        if self._file is not None:
            self._file.close()
            self._file = None
        if self.renderer is not None:
            self.renderer.close()

    def _emit(self, *, pid: Optional[int], source: str,
              now: float, lease: Optional[str] = None) -> Heartbeat:
        self.seq += 1
        self._last_emit = now
        self._pending = 0
        elapsed = now - self._t0
        beat = Heartbeat(
            seq=self.seq,
            pid=pid if pid is not None else os.getpid(),
            done=self.done,
            total=self.total,
            outcomes=dict(self.outcomes),
            rate=self.done / elapsed if elapsed > 0 else 0.0,
            elapsed=elapsed,
            source=source,
            lease=lease,
        )
        record = beat.to_record()
        if self._file is not None:
            self._file.write(json.dumps(record, sort_keys=True) + "\n")
            self._file.flush()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("swifi.heartbeat", **record)
        if self.renderer is not None:
            self.renderer.update(beat)
        return beat
