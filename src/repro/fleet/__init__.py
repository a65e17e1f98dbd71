"""Campaign fleet service: the campaign scheduler over TCP.

The fleet serves :func:`repro.swifi.run_campaign`'s lease scheduler
(:mod:`repro.swifi.scheduler`) to long-lived worker processes over a
line-delimited JSON socket protocol:

* :mod:`repro.fleet.wire` — the versioned wire schema
  (:class:`ProgramRecipe`, :class:`CampaignEnvelope`, spec/observation
  codecs, framing).
* :mod:`repro.fleet.coordinator` — :class:`FleetCoordinator`: the TCP
  server around the scheduler, lease expiry (a silent worker's only
  death signal) and ``repro status``.
* :mod:`repro.fleet.worker` — :func:`worker_main`, the lease/execute/
  report loop a TCP worker runs.
* :mod:`repro.fleet.client` — :class:`FleetClient` for ``repro
  submit``/``status``, and :func:`submit_campaign`, what
  ``run_campaign`` does with ``options.endpoint``.
* :mod:`repro.fleet.service` — :func:`serve_forever` (``repro serve``).

The invariant the whole package is built around: coordinator + N
workers is **bit-identical** to ``workers=1`` — the same scheduler
merges every observation in original spec order, and the same durable
journal makes killed workers and killed coordinators resumable without
re-running finished trials.
"""

from repro.exec.lease import DEFAULT_LEASE_TTL, Lease, LeaseTable
from repro.fleet.client import FleetClient, rebuild_result, submit_campaign
from repro.fleet.coordinator import STATUS_VERSION, FleetCoordinator, FleetError
from repro.fleet.service import serve_forever
from repro.fleet.wire import (
    WIRE_VERSION,
    CampaignEnvelope,
    ProgramRecipe,
    WireError,
    envelope_for,
    parse_endpoint,
)
from repro.fleet.worker import worker_main

__all__ = [
    "CampaignEnvelope",
    "DEFAULT_LEASE_TTL",
    "FleetClient",
    "FleetCoordinator",
    "FleetError",
    "Lease",
    "LeaseTable",
    "ProgramRecipe",
    "STATUS_VERSION",
    "WIRE_VERSION",
    "WireError",
    "envelope_for",
    "parse_endpoint",
    "rebuild_result",
    "serve_forever",
    "submit_campaign",
    "worker_main",
]
