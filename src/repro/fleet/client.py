"""Fleet client: submit campaigns to a running ``repro serve``.

Thin, synchronous JSONL conversation over one connection.  The client
never sees trial execution — it ships a
:class:`~repro.fleet.wire.CampaignEnvelope`, waits, and receives the
complete merged picture (per-index observations + quarantine evidence)
from which :func:`rebuild_result` reconstructs the
:class:`~repro.swifi.campaign.CampaignResult` through the same
``absorb_trial`` path every local mode uses — bit-identical by
construction, and cross-checked against the coordinator's own summary.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.fleet.coordinator import FleetError
from repro.fleet.wire import (
    CampaignEnvelope,
    connect,
    decode_observation,
    envelope_for,
    parse_endpoint,
    send_message,
    recv_message,
)
from repro.obs.events import get_tracer
from repro.obs.instrument import record_campaign
from repro.swifi.campaign import (
    CampaignResult,
    QuarantineReport,
    absorb_quarantined,
    absorb_trial,
)
from repro.swifi.faultmodel import FaultSpec
from repro.swifi.options import CampaignOptions


class FleetClient:
    """One conversation with a coordinator at ``host:port``."""

    def __init__(self, endpoint: str, timeout: Optional[float] = None):
        self.host, self.port = parse_endpoint(endpoint)
        self.timeout = timeout
        self._sock = None
        self._stream = None

    def __enter__(self) -> "FleetClient":
        self._sock, self._stream = connect(
            self.host, self.port, timeout=self.timeout
        )
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if self._stream is not None:
                self._stream.close()
            if self._sock is not None:
                self._sock.close()
        except OSError:
            pass

    def _call(self, message: Dict[str, Any],
              expect: str) -> Dict[str, Any]:
        send_message(self._stream, message)
        reply = recv_message(self._stream)
        if reply is None:
            raise FleetError("coordinator closed the connection")
        if reply["type"] == "error":
            raise FleetError(f"coordinator refused: {reply.get('error')}")
        if reply["type"] != expect:
            raise FleetError(
                f"expected a {expect!r} reply, got {reply['type']!r}"
            )
        return reply

    def submit(self, envelope: CampaignEnvelope,
               chunk_size: Optional[int] = None) -> str:
        """Submit a campaign; returns the coordinator's run id."""
        message: Dict[str, Any] = {
            "type": "submit", "envelope": envelope.to_dict(),
        }
        if chunk_size is not None:
            message["chunk_size"] = chunk_size
        reply = self._call(message, expect="accepted")
        return str(reply["run"])

    def wait(self, run_id: str,
             timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the run completes; returns the ``done`` document."""
        if self._sock is not None:
            self._sock.settimeout(timeout)
        return self._call(
            {"type": "wait", "run": run_id, "timeout": timeout},
            expect="done",
        )

    def status(self) -> Dict[str, Any]:
        """The coordinator's ``repro status`` document."""
        return self._call({"type": "status"}, expect="status")

    def shutdown(self) -> None:
        """Ask the coordinator to stop serving."""
        self._call({"type": "shutdown"}, expect="bye")


def rebuild_result(spec_list: List[FaultSpec],
                   done: Dict[str, Any]) -> CampaignResult:
    """The submitter-side deterministic merge of a ``done`` document.

    Original spec order, one absorb per spec — exactly the serial
    loop's merge, so the rebuilt result is bit-identical to running the
    campaign locally.  The coordinator's own summary rides along in the
    document; a mismatch means the wire lost information and is an
    error, never a shrug.
    """
    observations = {
        int(i): decode_observation(o)
        for i, o in done.get("observations", {}).items()
    }
    quarantines = {
        int(q["index"]): QuarantineReport(
            spec=spec_list[int(q["index"])], index=int(q["index"]),
            deaths=int(q["deaths"]), rounds=int(q["rounds"]),
            note=str(q.get("note", "")),
        )
        for q in done.get("quarantines", [])
    }
    result = CampaignResult()
    tracer = get_tracer()
    for i, spec in enumerate(spec_list):
        if i in quarantines:
            absorb_quarantined(result, quarantines[i], tracer)
        elif i in observations:
            absorb_trial(result, spec, observations[i], tracer)
        else:
            raise FleetError(f"done document is missing trial {i}")
    record_campaign(result)
    remote_summary = done.get("summary")
    if remote_summary is not None and remote_summary != result.summary():
        raise FleetError(
            "rebuilt campaign summary disagrees with the coordinator's "
            f"(local {result.summary()!r} vs remote {remote_summary!r})"
        )
    return result


def submit_campaign(program, spec_list: List[FaultSpec], mode: str,
                    options: CampaignOptions,
                    runner_factory=None) -> CampaignResult:
    """Run a campaign on the coordinator at ``options.endpoint``.

    What :func:`repro.swifi.run_campaign` does with an endpoint.
    Journaling happens coordinator-side (under ``repro serve``'s
    ``--run-dir``); the submitter's own ``run_dir``/``resume`` are not
    shipped.
    """
    if runner_factory is not None:
        raise FleetError(
            "fleet campaigns cannot carry a runner_factory: workers "
            "rebuild the trial runner from the program's ProgramRecipe"
        )
    envelope = envelope_for(program, spec_list, mode, options)
    with FleetClient(options.endpoint) as client:
        run_id = client.submit(envelope, chunk_size=options.chunk_size)
        done = client.wait(run_id)
    return rebuild_result(spec_list, done)
