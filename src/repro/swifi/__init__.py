"""SWIFI — the mutation-based software-implemented fault injector.

Reproduces Section VII: the translator plants a hook after every
defining statement of a GPU kernel; the bound FI library flips bits in
the just-defined variable of one chosen thread at one chosen dynamic
occurrence, emulating ALU/FPU/register/scheduler faults that reached
the software-visible architecture state.  Campaigns run one fault per
program execution and classify outcomes into the paper's five classes.
"""

from repro.swifi.faultmodel import FaultSpec, ActivationRecord
from repro.swifi.targets import enumerate_targets, select_targets
from repro.swifi.injector import FaultInjectionLibrary, instrument_for_fi
from repro.swifi.outcomes import Outcome, classify_outcome, OutcomeCounts
from repro.swifi.campaign import (
    CampaignResult,
    QuarantineReport,
    TrialObservation,
    TrialResult,
    build_fault_specs,
)
from repro.swifi.options import CampaignOptions
from repro.swifi.journal import (
    CampaignJournal,
    campaign_fingerprint,
    spec_fingerprint,
)
from repro.swifi.parallel import run_campaign
from repro.swifi.differential import (
    DifferentialEngine,
    differential_runner,
)

__all__ = [
    "CampaignJournal",
    "CampaignOptions",
    "DifferentialEngine",
    "campaign_fingerprint",
    "differential_runner",
    "spec_fingerprint",
    "FaultSpec",
    "ActivationRecord",
    "enumerate_targets",
    "select_targets",
    "FaultInjectionLibrary",
    "instrument_for_fi",
    "Outcome",
    "classify_outcome",
    "OutcomeCounts",
    "CampaignResult",
    "QuarantineReport",
    "TrialObservation",
    "TrialResult",
    "build_fault_specs",
    "run_campaign",
]
