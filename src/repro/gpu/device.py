"""Device model: an S1070-class GPU with GT200-like parameters.

Only the parameters the paper's arguments depend on are modeled:

* parallelism (lanes) — converts total thread-cycles into kernel time;
* per-thread register budget — live-range pressure above it pays a
  spill penalty (the Section V.A register-pressure argument);
* shared-memory size — 16 KB in the paper's GPU; R-Scatter fails to
  compile TPACF because doubling its shared usage exceeds this;
* clock — converts cycles into simulated seconds for the guardian's
  hang thresholds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.gpu.memory import GlobalMemory


@dataclass(frozen=True)
class DeviceSpec:
    """Static hardware parameters of a simulated GPU."""

    name: str = "GT200"
    num_sms: int = 30
    cores_per_sm: int = 8
    #: Registers available per thread before spilling begins.
    registers_per_thread: int = 20
    #: Shared memory per SM, in 4-byte words (16 KB on GT200).
    shared_mem_words: int = 4096
    #: Device global memory, in 4-byte words (scaled down from 4 GB).
    global_mem_words: int = 1 << 20
    #: Core clock in Hz (used to convert cycles to simulated seconds).
    clock_hz: float = 1.3e9

    @property
    def parallel_lanes(self) -> int:
        """Concurrent scalar lanes: SMs x cores."""
        return self.num_sms * self.cores_per_sm


#: The paper's testbed GPU (Tesla S1070 node = 4 of these).
GT200_SPEC = DeviceSpec()

_device_ids = itertools.count(0)


@dataclass
class Device:
    """One simulated GPU: spec + memory + health state."""

    spec: DeviceSpec = GT200_SPEC
    device_id: int = field(default_factory=lambda: next(_device_ids))
    #: Set False by the recovery engine after a failed BIST.
    enabled: bool = True
    #: Simulated persistent hardware defect ("fpu" / "alu" / "register");
    #: None means healthy.  BIST detects it; clearing it models an
    #: intermittent fault that went away (re-enabling via back-off).
    defect: object = None
    memory: GlobalMemory = None

    def __post_init__(self) -> None:
        if self.memory is None:
            self.memory = GlobalMemory(self.spec.global_mem_words)

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.spec.clock_hz

    def reset(self) -> None:
        self.memory.reset()
