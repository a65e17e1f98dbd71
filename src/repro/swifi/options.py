"""`CampaignOptions` — the single parameter object for campaign runs.

Campaign execution grew knob by knob — worker counts, chunk sizes,
differential replay, and now journaling, retries, and trial timeouts —
and each knob was threaded separately through ``run_campaign``,
``ExperimentScale``, and the CLI.  This module collapses them into one
frozen, picklable dataclass: harnesses carry a ``CampaignOptions``,
``ExperimentScale.campaign`` holds one, the CLI parses straight into
one, and forked workers inherit the same object their parent planned
with.

``options=CampaignOptions(...)`` is the *only* way to configure a
campaign — the pre-v1 per-knob keywords (``run_campaign(...,
workers=4)``) are gone.  This object is also half of the fleet wire
protocol: :mod:`repro.fleet.wire` serializes the execution-relevant
fields into every submitted campaign envelope, so a remote worker runs
with exactly the options the submitter planned with.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.exec.retry import RetryPolicy


@dataclass(frozen=True)
class CampaignOptions:
    """Every execution knob of one SWIFI campaign.

    Frozen so a preset can be shared between harnesses and forked
    workers without defensive copying; derive variants with
    :meth:`evolve`.
    """

    #: Worker processes (``1`` = in-process, ``N`` = N forked local
    #: workers, ``"auto"`` = one per CPU; see
    #: :func:`repro.exec.pool.resolve_workers`).
    workers: Union[int, str, None] = 1
    #: Campaign input seed (``HauberkProgram.campaign_io``).
    seed: int = 0
    #: Specs per worker chunk; ``None`` picks
    #: :func:`repro.exec.pool.default_chunk_size`.
    chunk_size: Optional[int] = None
    #: Serve eligible trials via golden-run memoization + single-thread
    #: replay (:mod:`repro.swifi.differential`).
    differential: bool = True
    #: Journal every classified trial under this directory (one
    #: subdirectory per campaign fingerprint); existing records are
    #: *not* reused — the campaign journal starts fresh.
    run_dir: Optional[str] = None
    #: Resume from (and keep journaling to) this directory: trials
    #: already journaled for this campaign's fingerprint are replayed
    #: instead of re-executed.  Takes precedence over ``run_dir``.
    resume: Optional[str] = None
    #: Worker-death handling (:class:`repro.exec.retry.RetryPolicy`);
    #: ``RetryPolicy(max_deaths=0)`` fails the campaign at the first
    #: lost worker instead of retrying and quarantining.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-trial wall-clock budget in seconds; a trial exceeding it is
    #: classified as a hang (the existing failure class).  ``None``
    #: disables the deadline.
    trial_timeout: Optional[float] = None
    #: Attribute wall-clock to campaign phases with a
    #: :class:`repro.obs.profile.PhaseProfiler`; journaled campaigns
    #: additionally persist ``profile.json`` next to the journal.
    profile: bool = False
    #: Render a live TTY progress line (bar, rate, ETA, outcome
    #: tallies) on stderr while the campaign runs.  Never affects
    #: results: progress-on campaigns are bit-identical to progress-off.
    progress: bool = False
    #: Stratified trial budget: run at most this many trials, sampled
    #: across fault strata by :mod:`repro.swifi.planner`, and report
    #: population-extrapolated estimates with confidence intervals.
    #: ``None`` (the default) runs the full enumerated plan.
    budget: Optional[int] = None
    #: Budget allocation method: ``"stratified"`` (proportional, the
    #: default when ``budget`` is set) or ``"neyman"`` (variance-based,
    #: runs a small pilot campaign first).
    plan: Optional[str] = None
    #: Confidence level for the planner's reported intervals.
    confidence: float = 0.95
    #: Submit the campaign to an already-running fleet coordinator at
    #: ``"host:port"`` (``repro serve``) instead of executing locally.
    endpoint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.trial_timeout is not None and self.trial_timeout <= 0:
            raise ValueError(
                f"trial_timeout must be positive, got {self.trial_timeout}"
            )
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy, got {type(self.retry).__name__}"
            )
        if self.budget is not None and self.budget <= 0:
            raise ValueError(f"budget must be positive, got {self.budget}")
        if self.plan is not None and self.plan not in ("stratified", "neyman"):
            raise ValueError(
                f"plan must be 'stratified' or 'neyman', got {self.plan!r}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.endpoint is not None and ":" not in self.endpoint:
            raise ValueError(
                f"endpoint must be 'host:port', got {self.endpoint!r}"
            )

    @property
    def journal_root(self) -> Optional[str]:
        """Directory the campaign journals under, if any."""
        return self.resume if self.resume is not None else self.run_dir

    @property
    def resuming(self) -> bool:
        """Whether existing journal records should be replayed."""
        return self.resume is not None

    def evolve(self, **changes) -> "CampaignOptions":
        """A copy with the given fields replaced (frozen-friendly)."""
        return dataclasses.replace(self, **changes)
