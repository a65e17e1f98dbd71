"""`CampaignOptions` — the single parameter object for campaign runs.

Campaign execution grew knob by knob — worker counts, differential
replay, journaling and retries — and each knob was threaded
separately through ``run_campaign``, ``ExperimentScale``, and the
CLI.  This module collapses them into one frozen, picklable
dataclass: harnesses carry a ``CampaignOptions``,
``ExperimentScale.campaign`` holds one, the CLI parses straight into
one, and forked workers inherit the same object their parent planned
with.

``options=CampaignOptions(...)`` is the *only* way to configure a
campaign — the pre-v1 per-knob keywords (``run_campaign(...,
workers=4)``) are gone.
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
    #: Attribute wall-clock to campaign phases with a
    #: :class:`repro.obs.profile.PhaseProfiler`; journaled campaigns
    #: additionally persist ``profile.json`` next to the journal.
    profile: bool = False
    #: Render a live TTY progress line (bar, rate, ETA, outcome
    #: tallies) on stderr while the campaign runs.  Never affects
    #: results: progress-on campaigns are bit-identical to progress-off.
    progress: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy, got {type(self.retry).__name__}"
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
