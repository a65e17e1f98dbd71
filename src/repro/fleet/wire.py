"""Fleet wire protocol: program recipes, campaign envelopes, framing.

The fleet's processes share no address space — workers are *spawned*
interpreters, possibly on the far side of a TCP socket from the
coordinator.  Everything that crosses that boundary is defined
here, in terms of the frozen v1 campaign types:

:class:`ProgramRecipe`
    How to rebuild a :class:`~repro.core.program.HauberkProgram`
    deterministically in another process: workload name + constructor
    kwargs, profiler training seeds, and the detector alpha.  The
    simulator is fully deterministic, so two processes that follow the
    same recipe produce bit-identical programs — the foundation of the
    fleet's ``coordinator + N workers == workers=1`` guarantee.

:class:`CampaignEnvelope`
    One submitted campaign: a recipe, the injection mode, the explicit
    fault-spec plan, and the *execution-relevant* slice of
    :class:`~repro.swifi.options.CampaignOptions` (seed, differential,
    trial timeout).  Coordinator-local knobs (``run_dir``/``resume``,
    ``workers``, ``endpoint``, ``profile``, ``progress``,
    planner fields) never ship: the coordinator resolves them before
    sharding, so a worker cannot disagree with the submitter about what
    a trial means.

Framing
    Messages are line-delimited JSON (one ``json.dumps`` + ``"\\n"`` per
    message, UTF-8) over a stream socket — trivially greppable with
    ``nc``/``socat``, no length prefixes to corrupt.  See
    ``docs/architecture.md`` ("Fleet service") for the message schema.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Tuple

from repro.errors import ReproError
from repro.swifi.campaign import TrialObservation
from repro.swifi.faultmodel import FaultSpec
from repro.swifi.journal import _decode_observation, _encode_observation
from repro.swifi.options import CampaignOptions

#: Version stamped on every envelope; bumped only with the v1 API.
WIRE_VERSION = 1

#: The CampaignOptions fields that affect what a trial *computes* —
#: the only ones a worker needs (and the only ones allowed on the wire).
EXECUTION_FIELDS = ("seed", "differential", "trial_timeout")


class WireError(ReproError):
    """A malformed or protocol-violating fleet message."""


# -- program recipes -------------------------------------------------------


@dataclass(frozen=True)
class ProgramRecipe:
    """Deterministic reconstruction instructions for one program.

    Mirrors how every harness builds its programs: instantiate the
    registered workload, train the profiler on the given seeds, then
    (optionally) tighten every detector to one alpha — the ``sec9c``
    order, which matters because ``set_alpha_all`` rescales the ranges
    training installed.
    """

    workload: str
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)
    train_seeds: Tuple[int, ...] = ()
    alpha: Optional[float] = None

    def build_program(self):
        """A fresh :class:`HauberkProgram` following this recipe.

        The returned program carries ``program.recipe = self`` so the
        fleet entry points can re-derive the recipe from the program a
        caller hands them.
        """
        from repro.core.program import HauberkProgram
        from repro.workloads import get_workload

        program = HauberkProgram(
            get_workload(self.workload, **dict(self.workload_kwargs))
        )
        if self.train_seeds:
            program.train(seeds=list(self.train_seeds))
        if self.alpha is not None:
            program.set_alpha(self.alpha)
        program.recipe = self
        return program

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "workload_kwargs": dict(self.workload_kwargs),
            "train_seeds": list(self.train_seeds),
            "alpha": self.alpha,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProgramRecipe":
        return cls(
            workload=str(data["workload"]),
            workload_kwargs=dict(data.get("workload_kwargs") or {}),
            train_seeds=tuple(data.get("train_seeds") or ()),
            alpha=data.get("alpha"),
        )


# -- spec / observation / options codecs -----------------------------------


def encode_spec(spec: FaultSpec) -> Dict[str, Any]:
    """Lossless JSON form of one fault spec."""
    return {
        "site": spec.site, "mask": spec.mask, "thread": spec.thread,
        "occurrence": spec.occurrence, "burst": spec.burst,
        "timing": spec.timing, "hw_site": spec.hw_site.value,
        "label": spec.label,
    }


def decode_spec(data: Dict[str, Any]) -> FaultSpec:
    from repro.gpu.faults import FaultSite

    return FaultSpec(
        site=int(data["site"]), mask=int(data["mask"]),
        thread=int(data["thread"]), occurrence=int(data["occurrence"]),
        burst=int(data["burst"]), timing=str(data["timing"]),
        hw_site=FaultSite(data["hw_site"]), label=str(data["label"]),
    )


def encode_observation(obs: TrialObservation) -> Dict[str, Any]:
    """Same encoding the journal uses — one codec for disk and wire."""
    return _encode_observation(obs)


def decode_observation(data: Dict[str, Any]) -> TrialObservation:
    return _decode_observation(data)


def encode_options(options: CampaignOptions) -> Dict[str, Any]:
    """The execution-relevant slice of an options object."""
    return {name: getattr(options, name) for name in EXECUTION_FIELDS}


def decode_options(data: Dict[str, Any]) -> CampaignOptions:
    """Worker-side options: execution fields only, everything else default."""
    unknown = set(data) - set(EXECUTION_FIELDS)
    if unknown:
        raise WireError(
            f"non-execution option(s) on the wire: {sorted(unknown)}"
        )
    return CampaignOptions(**{k: data[k] for k in EXECUTION_FIELDS if k in data})


# -- campaign envelopes ----------------------------------------------------


@dataclass(frozen=True)
class CampaignEnvelope:
    """One campaign as submitted to (and sharded by) a coordinator."""

    recipe: ProgramRecipe
    mode: str
    specs: Tuple[FaultSpec, ...]
    options: CampaignOptions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "v": WIRE_VERSION,
            "recipe": self.recipe.to_dict(),
            "mode": self.mode,
            "specs": [encode_spec(s) for s in self.specs],
            "options": encode_options(self.options),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignEnvelope":
        version = data.get("v")
        if version != WIRE_VERSION:
            raise WireError(
                f"unsupported envelope version {version!r} "
                f"(this build speaks v{WIRE_VERSION})"
            )
        return cls(
            recipe=ProgramRecipe.from_dict(data["recipe"]),
            mode=str(data["mode"]),
            specs=tuple(decode_spec(s) for s in data["specs"]),
            options=decode_options(data.get("options") or {}),
        )


def envelope_for(program, specs: List[FaultSpec], mode: str,
                 options: CampaignOptions) -> CampaignEnvelope:
    """Build the envelope for a locally-held campaign, or fail loudly.

    The fleet can only run programs it knows how to rebuild remotely:
    the program must carry a :class:`ProgramRecipe` (build it with
    ``ProgramRecipe(...).build_program()``).
    """
    recipe = getattr(program, "recipe", None)
    if recipe is None:
        raise WireError(
            "fleet campaigns need a program built from a ProgramRecipe "
            "(program.recipe is unset); construct it via "
            "ProgramRecipe(workload=...).build_program()"
        )
    return CampaignEnvelope(
        recipe=recipe, mode=mode, specs=tuple(specs),
        options=options.evolve(
            run_dir=None, resume=None, profile=False, progress=False,
            budget=None, plan=None, workers=1, endpoint=None,
            chunk_size=None,
        ),
    )


# -- JSONL socket framing --------------------------------------------------


def send_message(stream: IO[bytes], message: Dict[str, Any]) -> None:
    """Write one JSONL message and flush it onto the socket."""
    stream.write(json.dumps(message, sort_keys=True).encode("utf-8") + b"\n")
    stream.flush()


def recv_message(stream: IO[bytes]) -> Optional[Dict[str, Any]]:
    """Read one JSONL message; ``None`` on a cleanly closed peer."""
    line = stream.readline()
    if not line:
        return None
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable fleet message: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise WireError(f"fleet message without a type: {message!r}")
    return message


def connect(host: str, port: int, timeout: Optional[float] = None):
    """A connected ``(socket, buffered rw stream)`` pair to a coordinator."""
    sock = socket.create_connection((host, port), timeout=timeout)
    return sock, sock.makefile("rwb")


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """Split ``"host:port"``; loud errors beat silent defaults."""
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host:
        raise WireError(f"endpoint must be 'host:port', got {endpoint!r}")
    try:
        return host, int(port)
    except ValueError:
        raise WireError(f"endpoint port must be an integer, got {port!r}") \
            from None
