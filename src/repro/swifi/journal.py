"""Durable trial journal: crash-tolerant, resumable SWIFI campaigns.

Campaigns are the expensive half of the reproduction — thousands of
single-fault executions per workload (Section VIII) — and before this
module a killed process discarded every completed trial.  The journal
makes campaign progress durable and *resumable*:

* Each campaign owns a run directory keyed by its **campaign
  fingerprint** — a digest over the program identity (workload name +
  kernel source), the campaign input and golden output, the build mode,
  the control-block detector configuration, the trial seed, and the
  full fault-spec plan.  Two campaigns share journal state only when
  every one of those ingredients is bit-identical, which is exactly the
  precondition for replayed records being valid.
* Every classified trial appends one JSON line —
  ``(spec index, spec fingerprint, outcome, observation, digest)`` —
  flushed immediately, so a SIGKILL loses at most the trial in flight.
  Quarantined specs journal their structured report the same way.
* On resume (``CampaignOptions(resume=dir)``) records whose
  ``(index, spec fingerprint)`` match the current plan are replayed
  through the same ``absorb_trial`` merge the live path uses, so a
  killed-and-resumed campaign produces a **bit-identical**
  ``CampaignResult`` to an uninterrupted one.

Layout under the journal root::

    <root>/<fingerprint16>/meta.json      # human-readable fingerprint
    <root>/<fingerprint16>/journal.jsonl  # one record per trial

Torn or corrupt lines (the tail a kill can leave behind) are skipped on
load — every record carries its own digest, so a partial line can never
replay as a wrong observation.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import InjectionError
from repro.obs.profile import PHASE_JOURNAL_APPEND, get_profiler
from repro.swifi.campaign import QuarantineReport, TrialObservation
from repro.swifi.faultmodel import FaultSpec

if TYPE_CHECKING:  # avoid a runtime import cycle with repro.core.program
    from repro.core.program import HauberkProgram

#: Journal schema version; bumped on any incompatible record change.
JOURNAL_VERSION = 1

#: Hex digits of the campaign fingerprint used for the directory name.
FINGERPRINT_DIR_CHARS = 16


def _digest(payload: object) -> str:
    """Stable short hex digest of any JSON-serialisable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def spec_fingerprint(spec: FaultSpec) -> str:
    """Content fingerprint of one fault spec (12 hex chars).

    Everything that determines the trial's behaviour participates;
    ``label`` is included too so a relabelled plan reads as a new one
    rather than silently reusing records.
    """
    return _digest([
        spec.site, spec.mask, spec.thread, spec.occurrence, spec.burst,
        spec.timing, spec.hw_site.value, spec.label,
    ])[:12]


def _input_digest(program: "HauberkProgram", seed: int) -> str:
    """Digest of the fixed campaign input and its golden output."""
    inp, golden = program.campaign_io(seed)
    parts: List[object] = [
        sorted(inp.scalars.items()), list(inp.grid), list(inp.block),
    ]
    for buf in inp.buffers:
        data = buf.data
        parts.append([
            buf.name, str(buf.dtype),
            hashlib.sha256(data.tobytes()).hexdigest() if data is not None
            else None,
        ])
    parts.append(hashlib.sha256(golden.tobytes()).hexdigest())
    return _digest(parts)


def campaign_fingerprint(
    program: Optional["HauberkProgram"],
    specs: List[FaultSpec],
    mode: str,
    seed: int,
) -> Tuple[str, Dict[str, object]]:
    """``(fingerprint, meta)`` identifying one campaign's journal.

    ``meta`` is the human-readable decomposition written to
    ``meta.json`` so an operator can see *why* two runs did or did not
    share a journal.  Campaigns driven by a bare ``runner_factory``
    (no program) fingerprint the plan alone under a ``"<runner>"``
    program identity.
    """
    if program is not None:
        from repro.swifi.differential import control_block_token

        program.build(mode)  # fift/ft: configure the control block first
        cb_token = repr(control_block_token(program.cb)) \
            if mode in ("ft", "fift") else ""
        components: Dict[str, object] = {
            "workload": program.workload.name,
            "kernel": _digest(program.workload.source),
            "input": _input_digest(program, seed),
            "control_block": _digest(cb_token),
        }
    else:
        components = {"workload": "<runner>", "kernel": "", "input": "",
                      "control_block": ""}
    components["mode"] = mode
    components["seed"] = seed
    components["specs"] = _digest([spec_fingerprint(s) for s in specs])
    components["n_specs"] = len(specs)
    fingerprint = _digest(components)
    meta = {"version": JOURNAL_VERSION, "fingerprint": fingerprint,
            "components": components}
    return fingerprint, meta


def read_jsonl(path: Path) -> Iterator[Dict[str, Any]]:
    """Every JSON-object line of ``path``, in file order.

    A line that is not UTF-8, not JSON or not an object is skipped: the
    torn tail a kill leaves behind, or a flipped bit.
    """
    with open(path, "rb") as fh:
        for line in fh:
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError:  # UnicodeDecodeError included
                continue
            if isinstance(record, dict):
                yield record


@dataclass
class JournalRecord:
    """One decoded journal line."""

    index: int
    spec_fp: str
    outcome: str
    observation: Optional[TrialObservation]
    quarantine: Optional[Dict[str, object]] = None
    #: How the trial was served when profiling was on: ``"diff"`` or
    #: ``"full:<reason>"`` (``None`` on unprofiled records).
    served: Optional[str] = None
    #: Dataflow section of the injected site (``None`` on pre-section
    #: records and program-less campaigns); ``repro report`` groups its
    #: per-section rate table by it.
    section: Optional[str] = None

    def to_report(self, spec: FaultSpec) -> QuarantineReport:
        q = self.quarantine or {}
        return QuarantineReport(
            spec=spec, index=self.index,
            deaths=int(q.get("deaths", 0)), rounds=int(q.get("rounds", 0)),
            note=str(q.get("note", "")),
        )


def _encode_observation(obs: TrialObservation) -> Dict[str, object]:
    return {
        "failure": obs.failure, "detected": obs.detected,
        "output_ok": obs.output_ok, "activated": obs.activated,
        "note": obs.note,
    }


def _decode_observation(data: Dict[str, object]) -> TrialObservation:
    return TrialObservation(
        failure=bool(data["failure"]), detected=bool(data["detected"]),
        output_ok=bool(data["output_ok"]), activated=bool(data["activated"]),
        note=str(data.get("note", "")),
    )


class CampaignJournal:
    """Append-only JSONL journal for one campaign fingerprint.

    Opened by :func:`repro.swifi.parallel.run_campaign` when the
    options carry a ``run_dir``/``resume`` path; every append is
    flushed so the records survive the writing process being killed
    (``fsync`` happens on :meth:`close` — page-cache durability is
    enough for process death, the failure mode campaigns actually
    face).
    """

    def __init__(self, directory: Path, records: Dict[Tuple[int, str], JournalRecord]):
        self.directory = directory
        self.path = directory / "journal.jsonl"
        self._records = records
        self._fh = open(self.path, "a", encoding="utf-8")
        self.appended = 0

    # -- construction -----------------------------------------------------
    @classmethod
    def open(
        cls, root: str, fingerprint: str, meta: Dict[str, object],
        resume: bool,
    ) -> "CampaignJournal":
        """Open (and on ``resume`` load) the journal for ``fingerprint``.

        Without ``resume`` an existing journal for the same fingerprint
        is truncated: the caller asked for a fresh measurement, and
        appending duplicate records would corrupt a later resume.
        """
        directory = Path(root) / fingerprint[:FINGERPRINT_DIR_CHARS]
        directory.mkdir(parents=True, exist_ok=True)
        meta_path = directory / "meta.json"
        journal_path = directory / "journal.jsonl"

        records: Dict[Tuple[int, str], JournalRecord] = {}
        if resume:
            if meta_path.exists():
                try:
                    stored = json.loads(meta_path.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    raise InjectionError(
                        f"unreadable journal metadata at {meta_path}: {exc}"
                    ) from None
                if not isinstance(stored, dict):
                    raise InjectionError(
                        f"journal metadata at {meta_path} is not a JSON object"
                    )
                if stored.get("fingerprint") != fingerprint:
                    raise InjectionError(
                        f"journal at {directory} belongs to a different "
                        f"campaign (fingerprint mismatch)"
                    )
                records = cls._load_records(journal_path)
            if journal_path.exists() and journal_path.stat().st_size:
                # end a torn tail line, or the first new record would
                # be glued to it and lost on the next resume
                with open(journal_path, "rb+") as fh:
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        fh.write(b"\n")
        elif journal_path.exists():
            journal_path.unlink()

        meta_path.write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        return cls(directory, records)

    @staticmethod
    def _load_records(path: Path) -> Dict[Tuple[int, str], JournalRecord]:
        """Decode every intact record; torn/corrupt lines are dropped."""
        records: Dict[Tuple[int, str], JournalRecord] = {}
        if not path.exists():
            return records
        for raw in read_jsonl(path):
            try:
                body = {k: raw[k] for k in
                        ("i", "spec", "outcome", "obs", "q", "sv", "sec")
                        if k in raw}
                if raw.get("dg") != _digest(body)[:12]:
                    continue
                obs = _decode_observation(raw["obs"]) \
                    if raw.get("obs") is not None else None
                record = JournalRecord(
                    index=int(raw["i"]), spec_fp=str(raw["spec"]),
                    outcome=str(raw["outcome"]), observation=obs,
                    quarantine=raw.get("q"),
                    served=raw.get("sv"),
                    section=raw.get("sec"),
                )
            except (KeyError, TypeError, ValueError):
                continue
            records[(record.index, record.spec_fp)] = record
        return records

    # -- lookup -----------------------------------------------------------
    def match(self, index: int, spec_fp: str) -> Optional[JournalRecord]:
        """The replayable record for plan position ``index``, if any."""
        return self._records.get((index, spec_fp))

    def __len__(self) -> int:
        return len(self._records)

    # -- appends ----------------------------------------------------------
    def _append(self, payload: Dict[str, object]) -> None:
        with get_profiler().phase(PHASE_JOURNAL_APPEND):
            payload["dg"] = _digest(payload)[:12]
            self._fh.write(json.dumps(payload, sort_keys=True,
                                      separators=(",", ":")) + "\n")
            self._fh.flush()
        self.appended += 1

    def append_trial(
        self, index: int, spec: FaultSpec, outcome: str, obs: TrialObservation,
        served: Optional[str] = None, section: Optional[str] = None,
    ) -> None:
        """Journal one classified trial (flushed before returning).

        ``served`` is the optional differential attribution tag
        (``"diff"`` / ``"full:<reason>"``); ``section`` is the injected
        site's dataflow section (for the report's per-section table).  The
        digest covers only the keys present, so tagged and untagged
        records interoperate.
        """
        payload: Dict[str, object] = {
            "i": index, "spec": spec_fingerprint(spec), "outcome": outcome,
            "obs": _encode_observation(obs),
        }
        if served is not None:
            payload["sv"] = served
        if section is not None:
            payload["sec"] = section
        self._append(payload)

    def append_quarantine(self, report: QuarantineReport,
                          section: Optional[str] = None) -> None:
        """Journal one quarantined spec with its structured report."""
        payload: Dict[str, object] = {
            "i": report.index, "spec": spec_fingerprint(report.spec),
            "outcome": "worker_killed", "obs": None,
            "q": {"deaths": report.deaths, "rounds": report.rounds,
                  "note": report.note},
        }
        if section is not None:
            payload["sec"] = section
        self._append(payload)

    def close(self) -> None:
        if self._fh.closed:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
