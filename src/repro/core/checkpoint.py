"""Checkpoint library (Section VI(i), citing CheCUDA [25]).

"A checkpoint can be made before launching a GPU kernel, and the
guardian process can restore the latest checkpoint upon detection of a
GPU program failure."  Checkpoints snapshot host-visible program state
(input arrays, scalars, the control block) so recovery restarts from
the last kernel boundary instead of from program start.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import RecoveryError


@dataclass
class Checkpoint:
    """One snapshot of host program state."""

    tag: str
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    scalars: Dict[str, object] = field(default_factory=dict)
    #: Opaque extra state (e.g. a ControlBlock) stored by deep copy.
    extra: Dict[str, object] = field(default_factory=dict)
    #: Raw device-memory snapshot (``GlobalMemory.snapshot()``): a
    #: ``uint32`` ndarray captured at a kernel boundary; ``None`` when
    #: host-state only.
    device_words: Optional[object] = None

    @classmethod
    def capture(
        cls,
        tag: str,
        arrays: Optional[Dict[str, np.ndarray]] = None,
        scalars: Optional[Dict[str, object]] = None,
        extra: Optional[Dict[str, object]] = None,
        memory=None,
    ) -> "Checkpoint":
        """Snapshot host state, plus device memory when ``memory`` is given.

        ``memory`` is any object with a ``snapshot()`` (the GPU's
        :class:`~repro.gpu.memory.GlobalMemory`): the whole allocated
        device state is captured as one vectorized ``uint32`` copy of
        raw bit patterns, so NaN payloads and denormals written by the
        kernel survive a restore bit-exactly.
        """
        return cls(
            tag=tag,
            arrays={k: np.array(v, copy=True) for k, v in (arrays or {}).items()},
            scalars=dict(scalars or {}),
            extra={k: copy.deepcopy(v) for k, v in (extra or {}).items()},
            device_words=None if memory is None else memory.snapshot(),
        )

    def restore_arrays(self) -> Dict[str, np.ndarray]:
        """Fresh copies of the checkpointed arrays."""
        return {k: np.array(v, copy=True) for k, v in self.arrays.items()}

    def restore_extra(self, key: str):
        if key not in self.extra:
            raise RecoveryError(f"checkpoint {self.tag!r} has no extra {key!r}")
        return copy.deepcopy(self.extra[key])

    def restore_device(self, memory) -> None:
        """Write the captured device words back into ``memory``.

        The memory's allocation layout must match the capture (the
        guardian restores at the same kernel boundary it checkpointed).
        """
        if self.device_words is None:
            raise RecoveryError(
                f"checkpoint {self.tag!r} holds no device memory"
            )
        memory.restore(self.device_words)


class CheckpointLibrary:
    """Bounded stack of checkpoints, newest first."""

    def __init__(self, capacity: int = 4):
        if capacity <= 0:
            raise RecoveryError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._stack: List[Checkpoint] = []

    def save(self, checkpoint: Checkpoint) -> None:
        self._stack.append(checkpoint)
        if len(self._stack) > self.capacity:
            self._stack.pop(0)

    def latest(self) -> Checkpoint:
        if not self._stack:
            raise RecoveryError("no checkpoint available")
        return self._stack[-1]

    def find(self, tag: str) -> Checkpoint:
        for cp in reversed(self._stack):
            if cp.tag == tag:
                return cp
        raise RecoveryError(f"no checkpoint tagged {tag!r}")

    def __len__(self) -> int:
        return len(self._stack)
