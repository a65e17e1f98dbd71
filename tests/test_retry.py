"""Fault-tolerance layer tests: retry policy, blame, deadlines.

Covers ``repro.exec.retry`` in isolation (policy, the ``trial_deadline``
guard, the shared ``BlameLedger``, the ``Clock``/``FakeClock`` seam)
and its integration with ``run_campaign`` (worker-killing specs
quarantined into ``WORKER_KILLED`` trials, dead forked workers
replaced, strict mode preserved, options object surviving the trip
into forked workers).
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.exec import (
    BlameLedger,
    Clock,
    FakeClock,
    RetryPolicy,
    TrialTimeout,
    fork_available,
    trial_deadline,
)
from repro.swifi import CampaignOptions, FaultSpec, Outcome, run_campaign
from repro.swifi.campaign import CampaignResult, TrialObservation

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


# -- trial_deadline -------------------------------------------------------


class TestTrialDeadline:
    def test_expires_into_trial_timeout(self):
        with pytest.raises(TrialTimeout):
            with trial_deadline(0.05):
                time.sleep(5)

    def test_fast_block_unaffected(self):
        with trial_deadline(5):
            value = 1 + 1
        assert value == 2

    def test_none_and_zero_are_noops(self):
        with trial_deadline(None):
            pass
        with trial_deadline(0):
            pass

    def test_timer_cleared_after_block(self):
        import signal

        with trial_deadline(0.2):
            pass
        time.sleep(0.25)  # would fire if the timer leaked
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


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


def _sleepy_runner_factory():
    def runner(spec):
        if spec.site == 777:
            time.sleep(30)
        return TrialObservation(
            failure=False, detected=False, output_ok=True, activated=True
        )

    return runner


def _specs(sites):
    return [FaultSpec(site=s, mask=1, thread=0, occurrence=1) for s in sites]


class TestCampaignFaultTolerance:
    @needs_fork
    def test_killer_spec_quarantined_campaign_completes(self):
        specs = _specs([1, 2, 666, 4, 5, 6])
        result = run_campaign(
            None, specs,
            options=CampaignOptions(workers=2, chunk_size=2, retry=FAST_RETRY),
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
    def test_dead_workers_replaced_and_killers_quarantined(self):
        from repro.obs.events import RingBufferSink, Tracer, use_tracer
        from repro.obs.metrics import fresh_registry

        registry = fresh_registry()
        specs = _specs([1, 666, 3, 4, 667, 6, 7])
        sink = RingBufferSink()
        try:
            with use_tracer(Tracer(sink)):
                result = run_campaign(
                    None, specs,
                    options=CampaignOptions(workers=2, chunk_size=2,
                                            retry=FAST_RETRY),
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

    def test_serial_trial_timeout_degrades_to_hang(self):
        specs = _specs([1, 777, 3])
        result = run_campaign(
            None, specs,
            options=CampaignOptions(workers=1, trial_timeout=0.2),
            runner_factory=_sleepy_runner_factory,
        )
        assert [t.outcome for t in result.trials] == [
            Outcome.MASKED, Outcome.FAILURE, Outcome.MASKED,
        ]
        assert result.trials[1].observation.note.startswith("hang:")

    @needs_fork
    def test_pooled_trial_timeout_degrades_to_hang(self):
        specs = _specs([1, 777, 3, 4])
        result = run_campaign(
            None, specs,
            options=CampaignOptions(workers=2, trial_timeout=0.2,
                                    retry=FAST_RETRY),
            runner_factory=_sleepy_runner_factory,
        )
        outcomes = [t.outcome for t in result.trials]
        assert outcomes[1] is Outcome.FAILURE
        assert outcomes.count(Outcome.MASKED) == 3

    @needs_fork
    def test_options_round_trip_through_fork_workers(self):
        # the options object crosses into workers via fork; every field
        # must arrive intact (verified indirectly: the custom timeout
        # fires inside the worker)
        options = CampaignOptions(
            workers=2, seed=3, chunk_size=1, trial_timeout=0.2,
            retry=FAST_RETRY,
        )
        result = run_campaign(
            None, _specs([777, 2]), options=options,
            runner_factory=_sleepy_runner_factory,
        )
        assert result.trials[0].outcome is Outcome.FAILURE


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
            workers=3, seed=9, chunk_size=5, differential=False,
            run_dir="runs", retry=RetryPolicy(max_deaths=1),
            trial_timeout=2.5,
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
        with pytest.raises(ValueError):
            CampaignOptions(trial_timeout=-1)
        with pytest.raises(TypeError):
            CampaignOptions(retry="twice")


# -- clock seam and blame ledger ------------------------------------------


def _counting_runner_factory():
    def runner(spec):
        return TrialObservation(
            failure=False, detected=False, output_ok=True, activated=True
        )

    return runner


class TestClockSeam:
    def test_fake_clock_advances_on_sleep(self):
        clock = FakeClock(start=10.0)
        assert clock.now() == 10.0
        clock.sleep(2.5)
        assert clock.now() == 12.5
        assert clock.sleeps == [2.5]
        clock.advance(0.5)
        assert clock.now() == 13.0

    def test_default_clock_is_monotonic_wall(self):
        clock = Clock()
        a = clock.now()
        b = clock.now()
        assert b >= a


class TestBlameLedger:
    def test_strike_and_condemn(self):
        ledger = BlameLedger(policy=RetryPolicy(max_deaths=2))
        assert not ledger.condemned("spec-a")
        ledger.strike("spec-a")
        ledger.strike("spec-a", attributable=True)
        # two deaths but only one isolated: condemned needs both
        assert ledger.deaths["spec-a"] == 2
        assert ledger.condemned("spec-a")

    def test_shared_strikes_never_condemn_alone(self):
        ledger = BlameLedger(policy=RetryPolicy(max_deaths=2))
        ledger.strike("spec-b")
        ledger.strike("spec-b")
        ledger.strike("spec-b")
        assert not ledger.condemned("spec-b")  # no isolated death yet
        ledger.strike("spec-b", attributable=True)
        assert ledger.condemned("spec-b")

    def test_record_carries_tallies(self):
        ledger = BlameLedger(policy=RetryPolicy(max_deaths=1))
        ledger.strike(7, attributable=True)
        record = ledger.record(item="item-7", key=7, round_no=3)
        assert record.item == "item-7"
        assert record.deaths == 1
        assert record.isolated_deaths == 1
        assert record.round_no == 3


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
