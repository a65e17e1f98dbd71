"""Workload framework: inputs, device layout, golden runs, registry.

A :class:`Workload` packages everything one benchmark needs:

* the kernel source (mini-CUDA, parsed once and cached);
* a seeded input generator producing a :class:`WorkloadInput` — buffer
  contents, scalar arguments, launch geometry;
* a vectorized NumPy golden implementation;
* the paper's output-correctness requirement
  (:class:`~repro.workloads.spec.ToleranceSpec`);
* a memory profile by data-type class (Figure 2).

``setup_memory``/``read_output`` are generic: buffers declared by the
input are allocated in device memory and copied in; outputs are read
back and concatenated in declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type, Union

import numpy as np

from repro.errors import WorkloadError
from repro.gpu.device import Device
from repro.gpu.memory import Allocation
from repro.kir.astnodes import Kernel
from repro.kir.parser import parse_kernel
from repro.kir.types import DType
from repro.workloads.spec import OutputCheck, ToleranceSpec


@dataclass
class BufferSpec:
    """One device buffer of a workload run."""

    name: str
    dtype: DType
    nwords: int
    #: Host contents to copy in (None for output buffers).
    data: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.data is not None and self.data.size > self.nwords:
            raise WorkloadError(
                f"buffer {self.name}: data of {self.data.size} exceeds {self.nwords}"
            )


@dataclass
class WorkloadInput:
    """One concrete problem instance, ready to lay out on a device."""

    buffers: List[BufferSpec]
    scalars: Dict[str, Union[int, float]]
    #: kernel pointer-parameter name -> buffer name
    buffer_params: Dict[str, str]
    #: buffer names read back (in order) as the program output
    outputs: List[str]
    grid: Tuple[int, int]
    block: Tuple[int, int]
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def n_threads(self) -> int:
        return self.grid[0] * self.grid[1] * self.block[0] * self.block[1]

    def buffer(self, name: str) -> BufferSpec:
        for b in self.buffers:
            if b.name == name:
                return b
        raise WorkloadError(f"no buffer named {name!r}")


@dataclass
class GoldenRecord:
    """Per-seed golden cache entry of one program's campaign state.

    Holds the fixed campaign input and its golden output (what
    ``campaign_io`` always cached) plus the differential engine's
    golden *execution* state — per-thread cycle/footprint records keyed
    by ``(mode, control-block fingerprint)`` so an alpha sweep between
    campaigns never reuses stale detector state (see
    :mod:`repro.swifi.differential`).
    """

    inp: WorkloadInput
    golden: np.ndarray
    #: the workload spec's check against ``golden`` (``spec.checker``),
    #: built once for every trial of every campaign on this seed
    output_ok: OutputCheck
    #: (mode, cb_token) -> DifferentialEngine | _Ineligible
    exec_states: Dict[tuple, object] = field(default_factory=dict)


#: Process-wide parse cache: kernel source text -> validated Kernel.
#: Bounded by the number of distinct workload sources in the process.
_PARSE_CACHE: Dict[str, Kernel] = {}


class Workload:
    """Base class for benchmark programs."""

    #: Short name used in figures (e.g. "CP").
    name: str = "base"
    #: Kernel source text in the mini-CUDA dialect.
    source: str = ""
    #: Output-correctness requirement.
    spec: ToleranceSpec = ToleranceSpec(rel=0.01, abs_const=1e-9, mode="sum")
    #: Per-thread statement budget generous enough for fault-free runs.
    hang_budget: int = 2_000_000
    #: Paper-scale memory footprint in bytes by class (Figure 2); these
    #: reflect the full Parboil problem sizes, not the scaled-down sim.
    paper_scale_bytes: Dict[str, float] = {"fp": 0.0, "integer": 0.0, "pointer": 0.0}

    def __init__(self) -> None:
        self._kernel: Optional[Kernel] = None

    # -- kernel -----------------------------------------------------------
    @property
    def kernel(self) -> Kernel:
        """The parsed (and validated) kernel, shared across instances.

        Kernel sources are class attributes, so every instance of a
        workload gets the *same* parsed kernel object from a process
        cache keyed by source text.  Sharing is what makes the
        translation and compiled-program caches (which live on the
        kernel object) hit across program instances; every pass that
        transforms a kernel clones it first, so the shared original
        stays pristine.
        """
        if self._kernel is None:
            if not self.source:
                raise WorkloadError(f"workload {self.name} has no kernel source")
            cached = _PARSE_CACHE.get(self.source)
            if cached is None:
                cached = parse_kernel(self.source)
                _PARSE_CACHE[self.source] = cached
            self._kernel = cached
        return self._kernel

    # -- to be provided by subclasses ----------------------------------------
    def generate_input(self, seed: int = 0) -> WorkloadInput:
        raise NotImplementedError

    def golden(self, inp: WorkloadInput) -> np.ndarray:
        """Vectorized NumPy reference producing the expected output."""
        raise NotImplementedError

    # -- generic device plumbing -----------------------------------------------
    def setup_memory(
        self, device: Device, inp: WorkloadInput
    ) -> Tuple[Dict[str, object], Dict[str, Allocation]]:
        """Allocate and fill device buffers; returns (launch args, handles)."""
        device.memory.reset()
        handles: Dict[str, Allocation] = {}
        for b in inp.buffers:
            alloc = device.memory.alloc(b.name, b.nwords, b.dtype)
            if b.data is not None:
                device.memory.memcpy_htod(alloc, b.data)
            handles[b.name] = alloc
        args: Dict[str, object] = dict(inp.scalars)
        for param, bname in inp.buffer_params.items():
            args[param] = handles[bname]
        return args, handles

    def read_output(
        self, device: Device, inp: WorkloadInput, handles: Dict[str, Allocation]
    ) -> np.ndarray:
        outputs = inp.outputs
        # a faulted run may leave a signaling NaN, which widens quiet
        with np.errstate(invalid="ignore"):
            if len(outputs) == 1:
                # the common case (one output buffer): skip the concatenate
                return device.memory.memcpy_dtoh(handles[outputs[0]]).astype(np.float64)
            parts = [
                device.memory.memcpy_dtoh(handles[name]).astype(np.float64)
                for name in outputs
            ]
        return np.concatenate(parts) if parts else np.empty(0)

    # -- memory accounting (Figure 2) ---------------------------------------------
    def memory_profile(self, inp: WorkloadInput) -> Dict[str, float]:
        """Bytes of program state by sensitivity class, simulated sizes."""
        profile = {"fp": 0.0, "integer": 0.0, "pointer": 0.0}
        for b in inp.buffers:
            cls = "fp" if b.dtype is DType.FLOAT32 else "integer"
            profile[cls] += 4.0 * b.nwords
        for value in inp.scalars.values():
            profile["fp" if isinstance(value, float) else "integer"] += 4.0
        profile["pointer"] += 4.0 * len(inp.buffer_params)
        return profile


_REGISTRY: Dict[str, Type[Workload]] = {}


def register_workload(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a workload to the registry."""
    if not cls.name or cls.name == "base":
        raise WorkloadError(f"workload class {cls.__name__} needs a name")
    _REGISTRY[cls.name.upper()] = cls
    return cls


def get_workload(name: str, **kwargs) -> Workload:
    """Instantiate a registered workload by its figure name (e.g. 'CP')."""
    try:
        cls = _REGISTRY[name.upper()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise WorkloadError(f"unknown workload {name!r}; known: {known}") from None
    return cls(**kwargs)


def all_workloads() -> List[str]:
    """Registered workload names in figure order."""
    order = ["CP", "MRI-FHD", "MRI-Q", "PNS", "RPES", "SAD", "TPACF"]
    extra = sorted(set(_REGISTRY) - set(order))
    return [n for n in order if n in _REGISTRY] + extra
