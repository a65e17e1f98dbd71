"""Reproduction of *HAUBERK: Lightweight Silent Data Corruption Error
Detector for GPGPU* (Yim, Pham, Saleheen, Kalbarczyk, Iyer - IPDPS 2011).

Public API tour:

* :mod:`repro.kir` - the kernel IR: write GPU kernels in a mini-CUDA
  dialect (:func:`repro.kir.parse_kernel`) or an OpenCL dialect
  (:func:`repro.kir.opencl.parse_opencl_kernel`).
* :mod:`repro.gpu` - the simulated device and launch runtime.
* :mod:`repro.core` - HAUBERK itself: the translator, detectors,
  profiler, recovery engine, and guardian.
* :mod:`repro.swifi` - the mutation-based fault injector and campaigns.
* :mod:`repro.workloads` - the paper's benchmark programs.
* :mod:`repro.baselines` - R-Naive and R-Scatter comparison detectors.
* :mod:`repro.harness` - one driver per evaluation figure/table.

The ten-line tour::

    from repro.core.program import HauberkProgram
    from repro.workloads import get_workload

    prog = HauberkProgram(get_workload("MRI-Q"))
    prog.train(seeds=[0, 1, 2])
    result = prog.run(mode="ft", seed=0)
    assert not result.alarm

The campaign surface below is the **frozen v1 API**: everything a
campaign-driven harness — in-process or forked — needs is importable
from ``repro`` directly.
"""

from repro.errors import ReproError
from repro.swifi.campaign import CampaignResult, TrialObservation
from repro.swifi.journal import (
    CampaignJournal,
    campaign_fingerprint,
    spec_fingerprint,
)
from repro.swifi.options import CampaignOptions
from repro.swifi.parallel import run_campaign

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "__version__",
    # frozen v1 campaign surface
    "run_campaign",
    "CampaignOptions",
    "CampaignResult",
    "CampaignJournal",
    "TrialObservation",
    "campaign_fingerprint",
    "spec_fingerprint",
]
