"""Fault-tolerance layer tests: retry policy and blame.

Covers ``repro.exec.retry`` in isolation, the scheduler's per-spec
death count, and their integration with ``run_campaign``
(worker-killing specs quarantined into ``WORKER_KILLED`` trials, dead
forked workers replaced, strict mode preserved, options object
surviving the trip into forked workers).
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.exec import RetryPolicy, fork_available
from repro.swifi import CampaignOptions, FaultSpec, Outcome, run_campaign
from repro.swifi.campaign import CampaignResult, TrialObservation
from repro.swifi.scheduler import LeaseScheduler

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)

FAST_RETRY = RetryPolicy(max_deaths=2)


# -- RetryPolicy ----------------------------------------------------------


class TestRetryPolicy:
    def test_defaults_are_tolerant(self):
        policy = RetryPolicy()
        assert policy.tolerant
        assert policy.max_deaths == 2

    def test_zero_deaths_is_strict(self):
        assert not RetryPolicy(max_deaths=0).tolerant

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_deaths=-1)


# -- run_campaign integration --------------------------------------------


def _selective_crash_factory():
    def runner(spec):
        if spec.site == 666:
            os._exit(13)
        return TrialObservation(
            failure=False, detected=True, output_ok=False, activated=True
        )

    return runner


def _two_killers_factory():
    def runner(spec):
        if spec.site in (666, 667):
            os._exit(13)
        return TrialObservation(
            failure=False, detected=True, output_ok=False, activated=True
        )

    return runner


def _specs(sites):
    return [FaultSpec(site=s, mask=1, thread=0, occurrence=1) for s in sites]


class TestCampaignFaultTolerance:
    @needs_fork
    def test_killer_spec_quarantined_campaign_completes(self,
                                                        fix_chunk_size):
        specs = _specs([1, 2, 666, 4, 5, 6])
        fix_chunk_size(2)
        result = run_campaign(
            None, specs,
            options=CampaignOptions(workers=2, retry=FAST_RETRY),
            runner_factory=_selective_crash_factory,
        )
        summary = result.summary()
        assert summary["trials"] == len(specs)
        assert summary["quarantined"] == 1
        assert summary["outcomes"]["worker_killed"] == 1
        assert [t.spec for t in result.trials] == specs
        killed = result.trials[2]
        assert killed.outcome is Outcome.WORKER_KILLED
        assert killed.observation.failure
        report = result.quarantined[0]
        assert report.index == 2
        assert report.spec.site == 666
        assert report.deaths >= FAST_RETRY.max_deaths

    @needs_fork
    def test_dead_workers_replaced_and_killers_quarantined(self,
                                                           fix_chunk_size):
        from repro.obs.events import RingBufferSink, Tracer, use_tracer
        from repro.obs.metrics import fresh_registry

        registry = fresh_registry()
        specs = _specs([1, 666, 3, 4, 667, 6, 7])
        sink = RingBufferSink()
        fix_chunk_size(2)
        try:
            with use_tracer(Tracer(sink)):
                result = run_campaign(
                    None, specs,
                    options=CampaignOptions(workers=2, retry=FAST_RETRY),
                    runner_factory=_two_killers_factory,
                )
            names = [r["name"] for r in sink.records]
            deaths = registry.counter("repro_swifi_worker_deaths_total")
            death_count = deaths.value(phase="exit")
        finally:
            fresh_registry()
        # every death was replaced by a fresh fork, so the campaign
        # finished with every healthy spec executed
        assert result.summary()["trials"] == len(specs)
        assert [t.spec for t in result.trials] == specs
        assert [r.spec.site for r in result.quarantined] == [666, 667]
        assert all(r.deaths == FAST_RETRY.max_deaths
                   for r in result.quarantined)
        assert [t.outcome for t in result.trials].count(
            Outcome.WORKER_KILLED) == 2
        # two split deaths plus two strikes per killer
        assert names.count("swifi.worker_death") == 6
        assert names.count("swifi.quarantine") == 2
        assert death_count == 6

    @needs_fork
    def test_options_round_trip_through_fork_workers(self, fix_chunk_size):
        # the options object crosses into workers via fork; every field
        # must arrive intact (verified indirectly: a worker profiles its
        # trials only when it sees profile=True, and the parent turns
        # each shipped cost record into a profile.trial event)
        from repro.obs.events import RingBufferSink, Tracer, use_tracer

        specs = _specs([1, 2, 3])
        fix_chunk_size(1)
        sink = RingBufferSink()
        with use_tracer(Tracer(sink)):
            result = run_campaign(
                None, specs,
                options=CampaignOptions(workers=2, seed=3, retry=FAST_RETRY,
                                        profile=True),
                runner_factory=_counting_runner_factory,
            )
        costs = [r["attrs"] for r in sink.records
                 if r["name"] == "profile.trial"]
        assert sorted(c["index"] for c in costs) == [0, 1, 2]
        assert [t.spec for t in result.trials] == specs


# -- CampaignOptions ------------------------------------------------------


class TestCampaignOptions:
    def test_frozen_and_evolvable(self):
        options = CampaignOptions()
        with pytest.raises(Exception):
            options.workers = 4
        evolved = options.evolve(workers=4, differential=False)
        assert evolved.workers == 4
        assert not evolved.differential
        assert options.workers == 1  # original untouched

    def test_pickle_round_trip(self):
        options = CampaignOptions(
            workers=3, seed=9, differential=False,
            run_dir="runs", retry=RetryPolicy(max_deaths=1),
            profile=True, progress=True,
        )
        clone = pickle.loads(pickle.dumps(options))
        assert clone == options

    def test_journal_root_resume_wins(self):
        assert CampaignOptions().journal_root is None
        assert CampaignOptions(run_dir="a").journal_root == "a"
        assert CampaignOptions(run_dir="a", resume="b").journal_root == "b"
        assert CampaignOptions(resume="b").resuming
        assert not CampaignOptions(run_dir="a").resuming

    def test_validation(self):
        with pytest.raises(TypeError):
            CampaignOptions(retry="twice")


# -- clock seam and blame ledger ------------------------------------------


def _counting_runner_factory():
    def runner(spec):
        return TrialObservation(
            failure=False, detected=False, output_ok=True, activated=True
        )

    return runner


class TestBlameLedger:
    """A lost single-spec lease counts one death against its spec."""

    def test_strike_and_condemn(self):
        scheduler = LeaseScheduler(retry=RetryPolicy(max_deaths=2))
        run = scheduler.open_run(None, _specs([1]), "fi",
                                 CampaignOptions(), chunk_size=1)
        for deaths in (1, 2):
            assert 0 not in run.quarantines
            assert scheduler.grant("w0").indices == (0,)
            scheduler.release_worker("w0")
            assert run.deaths == {0: deaths}
        # two deaths reach max_deaths: condemned
        assert 0 in run.quarantines

    def test_record_carries_tallies(self):
        specs = _specs([7, 8])
        scheduler = LeaseScheduler(retry=RetryPolicy(max_deaths=1))
        run = scheduler.open_run(None, specs, "fi", CampaignOptions(),
                                 chunk_size=2)
        # a lost two-spec lease is split, not counted against either spec
        scheduler.grant("w0")
        scheduler.release_worker("w0")
        assert run.deaths == {}
        assert scheduler.grant("w0").indices == (0,)
        scheduler.release_worker("w0")
        report = run.quarantines[0]
        assert report.spec == specs[0] and report.index == 0
        assert report.deaths == 1
        assert report.rounds == 2  # every lost lease so far
        assert report.note == "worker lost 1x (1x running this spec alone)"


# -- zero-trial summary regression ---------------------------------------


class TestZeroTrialSummary:
    def test_empty_result_reports_zero_coverage(self):
        summary = CampaignResult().summary()
        assert summary["trials"] == 0
        assert summary["coverage"] == 0.0
        assert summary["sdc_ratio"] == 0.0
        assert summary["quarantined"] == 0

    def test_empty_campaign_run(self):
        result = run_campaign(
            None, [], options=CampaignOptions(workers=1),
            runner_factory=_counting_runner_factory,
        )
        assert result.summary()["coverage"] == 0.0
