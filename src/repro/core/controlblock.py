"""The CPU <-> GPU control block (Section V.A, Table I).

"CPU-side program allocates a control block in its memory, copies the
allocated object to GPU memory, and delivers the pointer ... as a
parameter of [the] GPU kernel.  Placed error detectors use this passed
control block and mark detection results."

Isolation is modeled faithfully: :meth:`copy_to_device` hands the FT
library a working copy before launch, and only a *successful*
kernel completion copies results back — a crashed kernel's partial
detection state is lost exactly as it would be on hardware (Figure 6's
isolated execution / deferred checking model).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.ranges import RangeSet
from repro.errors import ReproError


@dataclass
class DetectorConfig:
    """Per-loop-detector configuration shipped to the GPU."""

    detector: int
    kernel: str = ""
    variable: str = ""
    loop_id: int = -1
    self_accumulating: bool = False
    has_trip_check: bool = False
    ranges: RangeSet = field(default_factory=RangeSet)


@dataclass
class DetectionEvent:
    """One deferred alarm recorded by a detector during the kernel."""

    detector: int
    kind: str  # "range" | "trip" | "checksum" | "nl_mismatch"
    value: float = 0.0
    expected: float = 0.0
    block: int = -1
    thread: int = -1


@dataclass
class ControlBlock:
    """Host-side control block; the FT library works on a device copy."""

    detectors: Dict[int, DetectorConfig] = field(default_factory=dict)
    events: List[DetectionEvent] = field(default_factory=list)
    sdc_bit: bool = False
    #: Ranges recomputed on-line by detectors that alarmed ("assuming it
    #: is a false positive"), keyed by detector; applied by recovery.
    updated_ranges: Dict[int, RangeSet] = field(default_factory=dict)

    # -- configuration ----------------------------------------------------
    def configure(self, configs: List[DetectorConfig]) -> None:
        """Install detector configs, taking private copies.

        Configs come from an :class:`InstrumentedKernel` that may be
        shared between programs (the translator build cache); ranges
        and alpha installed on *this* control block must never leak
        into another program's campaign.
        """
        self.detectors = {c.detector: copy.deepcopy(c) for c in configs}

    def load_ranges(self, ranges: Dict[int, RangeSet]) -> None:
        """Install profiled ranges (the FT entry-of-main load)."""
        for det, rs in ranges.items():
            if det not in self.detectors:
                raise ReproError(f"ranges for unknown detector {det}")
            self.detectors[det].ranges = rs

    def set_alpha(self, detector: int, alpha: float) -> None:
        cfg = self.detectors.get(detector)
        if cfg is None:
            raise ReproError(f"unknown detector {detector}")
        cfg.ranges = cfg.ranges.with_alpha(alpha)

    def set_alpha_all(self, alpha: float) -> None:
        for det in self.detectors:
            self.set_alpha(det, alpha)

    # -- launch-boundary copies --------------------------------------------
    def copy_to_device(self) -> "ControlBlock":
        """Fresh working copy for one kernel launch (clears results).

        Each detector config is copied shallowly: the device side only
        reads ``cfg.ranges``, and range sets are replaced, never
        mutated, so the copy may share them with the host.
        """
        return ControlBlock(detectors={det: copy.copy(cfg) for det, cfg in self.detectors.items()})

    def copy_from_device(self, device_cb: "ControlBlock") -> None:
        """Absorb results after a *successful* kernel completion."""
        self.events = list(device_cb.events)
        self.sdc_bit = device_cb.sdc_bit
        self.updated_ranges = dict(device_cb.updated_ranges)

    # -- results ---------------------------------------------------------
    @property
    def alarm_raised(self) -> bool:
        return self.sdc_bit or bool(self.events)

    def events_of_kind(self, kind: str) -> List[DetectionEvent]:
        return [e for e in self.events if e.kind == kind]

    def clear_results(self) -> None:
        self.events = []
        self.sdc_bit = False
        self.updated_ranges = {}
