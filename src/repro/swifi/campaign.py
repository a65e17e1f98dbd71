"""Campaign runner: many single-fault trials, classified and tallied.

The paper runs ~10,000 experiments per application — each executes the
program once and injects exactly one fault (Section VIII).  This module
holds the campaign's data model — observations, results, quarantine
reports — and the absorb helpers every trial enters a result through;
:func:`repro.swifi.run_campaign` schedules the trials, and the workload
layer supplies the trial runner (set up device memory, launch, read
output, check correctness).  Campaign sizes here are scaled down and fully
seeded; see ``repro.harness.config.ExperimentScale``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.bits import MaskGenerator
from repro.errors import InjectionError
from repro.kir.analysis.dataflow import SiteInfo
from repro.obs.instrument import record_trial
from repro.swifi.faultmodel import FaultSpec
from repro.swifi.outcomes import Outcome, OutcomeCounts, classify_outcome


@dataclass
class TrialObservation:
    """Raw observations from running the program once under a fault."""

    failure: bool
    detected: bool
    output_ok: bool
    activated: bool
    #: Optional carrier for extra data (e.g. failure reason).
    note: str = ""


@dataclass
class TrialResult:
    spec: FaultSpec
    outcome: Outcome
    observation: TrialObservation


@dataclass
class QuarantineReport:
    """Structured evidence for one spec the scheduler gave up on.

    Attached to :attr:`CampaignResult.quarantined` when the workers
    running a spec were lost ``deaths`` times (see
    :mod:`repro.swifi.scheduler`); the spec still enters the result as a
    :data:`Outcome.WORKER_KILLED` trial so campaigns complete with a
    full per-spec accounting instead of aborting.
    """

    spec: FaultSpec
    #: Index of the spec in the campaign's plan.
    index: int
    #: Isolated worker deaths attributed to this spec.
    deaths: int
    #: Leases the campaign had lost when the spec was quarantined.
    rounds: int
    #: Free-form detail (exit description of the last death, if known).
    note: str = ""


@dataclass
class CampaignResult:
    """All trials of one campaign plus the tally."""

    trials: List[TrialResult] = field(default_factory=list)
    counts: OutcomeCounts = field(default_factory=OutcomeCounts)
    #: Reports for specs quarantined by the scheduler; their
    #: trials carry :data:`Outcome.WORKER_KILLED` in :attr:`trials`.
    quarantined: List[QuarantineReport] = field(default_factory=list)
    #: Planner payload (:func:`repro.swifi.planner.estimate_plan`) when
    #: the campaign ran under a stratified budget; ``None`` otherwise.
    plan: Optional[dict] = None

    def add(self, trial: TrialResult) -> None:
        self.trials.append(trial)
        self.counts.add(trial.outcome)

    @property
    def activation_ratio(self) -> float:
        """Fraction of *executed* trials whose fault actually fired.

        ``WORKER_KILLED`` placeholders never executed to the point of
        observing activation — their synthetic observation always says
        ``activated=False`` — so they are excluded from the
        denominator; counting them would bias the ratio low on
        quarantine-heavy runs.  Mirrors the zero-trial guard: a
        campaign of only quarantined specs reports 0.0.
        """
        executed = [t for t in self.trials
                    if t.outcome is not Outcome.WORKER_KILLED]
        if not executed:
            return 0.0
        return sum(t.observation.activated for t in executed) / len(executed)

    def summary(self) -> dict:
        """Machine-readable campaign digest (the shared tally).

        Used by the metrics layer and the figure harnesses instead of
        re-counting outcomes ad hoc; keys: ``trials``, ``outcomes`` (by
        class name), ``activation_ratio``, ``coverage``, ``sdc_ratio``,
        ``failure_ratio``, ``quarantined``, plus ``plan`` (per-stratum
        and per-section estimates with confidence intervals) when the
        campaign ran under a stratified budget.

        A zero-trial campaign reports every ratio as 0.0 — including
        ``coverage``, which would otherwise read 1 - 0/0 and claim
        perfect detection for an experiment that measured nothing.
        """
        empty = not self.trials
        out = {
            "trials": len(self.trials),
            "outcomes": {o.value: self.counts.counts[o] for o in Outcome},
            "activation_ratio": self.activation_ratio,
            "coverage": 0.0 if empty else self.counts.coverage,
            "sdc_ratio": self.counts.sdc_ratio,
            "failure_ratio": self.counts.failure_ratio,
            "quarantined": len(self.quarantined),
        }
        if self.plan is not None:
            out["plan"] = self.plan
        return out

    def filter(self, predicate: Callable[[TrialResult], bool]) -> "CampaignResult":
        """Sub-campaign of the trials satisfying ``predicate``.

        Quarantine evidence travels with its trial: a report whose
        ``WORKER_KILLED`` placeholder passes the predicate appears in
        the view's ``quarantined`` list too, so filtered summaries
        keep accounting for specs that never produced an observation.
        The planner payload does *not* carry over — its population
        weights describe the whole campaign, not the subset.
        """
        sub = CampaignResult()
        for t in self.trials:
            if predicate(t):
                sub.add(t)
        kept = [t.spec for t in sub.trials
                if t.outcome is Outcome.WORKER_KILLED]
        for report in self.quarantined:
            if report.spec in kept:
                sub.quarantined.append(report)
                kept.remove(report.spec)
        return sub

    def by_bits(self, n_bits: int) -> "CampaignResult":
        """Sub-campaign of trials whose fault flipped ``n_bits`` bits."""
        return self.filter(lambda t: t.spec.n_bits == n_bits)


def absorb_trial(
    result: CampaignResult, spec: FaultSpec, obs: TrialObservation, tracer
) -> Outcome:
    """Classify, tally, and record one trial observation.

    The single place a trial enters a :class:`CampaignResult` — the
    scheduler's spec-order merge and the fleet client's rebuild both go
    through it, which is what makes every worker kind bit-identical
    (same classification, same metric increments, same ``swifi.trial``
    event stream, same order).
    """
    outcome = classify_outcome(obs.failure, obs.detected, obs.output_ok)
    result.add(TrialResult(spec=spec, outcome=outcome, observation=obs))
    record_trial(outcome, spec)
    tracer.event(
        "swifi.trial", site=spec.site, label=spec.label,
        outcome=outcome.value, activated=obs.activated,
    )
    return outcome


def absorb_quarantined(
    result: CampaignResult, report: QuarantineReport, tracer
) -> TrialObservation:
    """Enter one quarantined spec into a :class:`CampaignResult`.

    The quarantine counterpart of :func:`absorb_trial`: the spec lands
    as a :data:`Outcome.WORKER_KILLED` trial (the worker died before an
    observation existed, so the synthetic observation mirrors a hard
    failure) and the structured report is preserved on the result.
    """
    obs = TrialObservation(
        failure=True, detected=False, output_ok=False, activated=False,
        note=report.note or
        f"worker process killed {report.deaths}x; spec quarantined",
    )
    result.add(TrialResult(
        spec=report.spec, outcome=Outcome.WORKER_KILLED, observation=obs,
    ))
    result.quarantined.append(report)
    record_trial(Outcome.WORKER_KILLED, report.spec)
    tracer.event(
        "swifi.quarantine", site=report.spec.site, label=report.spec.label,
        index=report.index, deaths=report.deaths, rounds=report.rounds,
    )
    return obs


def build_fault_specs(
    sites: Sequence[SiteInfo],
    n_threads: int,
    masks_per_site: int = 50,
    bit_counts: Sequence[int] = (1,),
    seed: int = 0,
    max_loop_occurrence: int = 8,
    max_delay_events: int = 48,
) -> List[FaultSpec]:
    """Random single-fault plan over the given sites (Section VIII).

    For each site, ``masks_per_site`` random masks are drawn with bit
    counts cycling through ``bit_counts``; the victim thread is uniform
    over the grid.  Injection *time* (Figure 12): in-loop definitions
    get a uniform dynamic occurrence in ``[1, max_loop_occurrence]``;
    parameters — defined once, before every use — get *delayed* timing,
    striking at a uniform point of the thread's execution so that
    already-consumed values escape (without this, every pointer fault
    would precede every dereference and the failure ratio would be
    wildly overstated vs. Figure 1).
    """
    if n_threads <= 0:
        raise InjectionError(f"n_threads must be positive, got {n_threads}")
    rng = np.random.default_rng(seed)
    masks = MaskGenerator(seed=seed + 1)
    specs: List[FaultSpec] = []
    for info in sites:
        for j in range(masks_per_site):
            nbits = bit_counts[j % len(bit_counts)]
            occurrence = 1
            timing = "definition"
            if info.kind == "param":
                timing = "delayed"
                occurrence = int(rng.integers(1, max_delay_events + 1))
            elif info.in_loop and max_loop_occurrence > 1:
                occurrence = int(rng.integers(1, max_loop_occurrence + 1))
            specs.append(
                FaultSpec(
                    site=info.site,
                    mask=masks.masks(1, nbits)[0],
                    thread=int(rng.integers(0, n_threads)),
                    occurrence=occurrence,
                    timing=timing,
                    label=f"{info.name}#{j}",
                )
            )
    return specs
