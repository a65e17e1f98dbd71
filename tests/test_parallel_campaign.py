"""Parallel campaign engine tests: parity, chunking, crashes, metrics.

The determinism contract under test: ``repro.swifi.run_campaign`` must
produce a bit-identical :class:`CampaignResult` for any worker count
(the parallel merge replays worker observations in spec order through
the same ``absorb_trial`` helper the serial loop uses).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.program import HauberkProgram
from repro.errors import InjectionError
from repro.exec import (
    chunk_slices,
    default_chunk_size,
    fork_available,
    resolve_workers,
)
from repro.kir.types import DType
from repro.obs.metrics import (
    MetricsRegistry,
    fresh_registry,
    get_registry,
    set_registry,
)
from repro.exec import RetryPolicy
from repro.swifi import (
    CampaignJournal,
    CampaignOptions,
    FaultSpec,
    build_fault_specs,
    enumerate_targets,
    run_campaign,
)
from repro.swifi.parallel import build_trial_runner, execute_chunk
from repro.swifi.scheduler import LeaseScheduler
from repro.workloads.base import BufferSpec, Workload, WorkloadInput

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)

TINY_SRC = """
kernel tiny(float* data, float* out, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0;
    for (int i = 0; i < n; i++) {
        float v = data[i] + float(tid);
        acc = acc + v * v;
    }
    out[tid] = acc;
}
"""

N_DATA = 6
N_THREADS = 4


class TinyWorkload(Workload):
    """Unregistered 4-thread workload keeping parallel tests fast."""

    name = "TINY"
    source = TINY_SRC

    def generate_input(self, seed: int = 0) -> WorkloadInput:
        rng = np.random.default_rng(seed + 42)
        data = rng.uniform(0.5, 2.0, N_DATA).astype(np.float32)
        return WorkloadInput(
            buffers=[
                BufferSpec("data", DType.FLOAT32, N_DATA, data),
                BufferSpec("out", DType.FLOAT32, N_THREADS,
                           np.zeros(N_THREADS, dtype=np.float32)),
            ],
            scalars={"n": N_DATA},
            buffer_params={"data": "data", "out": "out"},
            outputs=["out"],
            grid=(1, 1),
            block=(N_THREADS, 1),
            meta={"data": data},
        )

    def golden(self, inp: WorkloadInput) -> np.ndarray:
        data = inp.meta["data"].astype(np.float64)
        tids = np.arange(N_THREADS, dtype=np.float64)
        vals = data[None, :] + tids[:, None]
        return (vals * vals).sum(axis=1).astype(np.float32).astype(np.float64)


def _tiny_specs(masks_per_site: int = 2, seed: int = 5):
    wl = TinyWorkload()
    inp = wl.generate_input(0)
    specs = build_fault_specs(
        enumerate_targets(wl.kernel),
        n_threads=inp.n_threads,
        masks_per_site=masks_per_site,
        bit_counts=(1, 3),
        seed=seed,
    )
    return wl, specs


@pytest.fixture
def registry():
    reg = fresh_registry()
    yield reg
    fresh_registry()


# -- determinism parity ---------------------------------------------------


class TestParity:
    @needs_fork
    def test_parallel_matches_serial(self):
        wl, specs = _tiny_specs()
        serial = run_campaign(HauberkProgram(wl), specs, mode="fi",
                              options=CampaignOptions(workers=1))
        parallel = run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(workers=4),
        )
        assert parallel.summary() == serial.summary()
        assert [t.outcome for t in parallel.trials] == \
            [t.outcome for t in serial.trials]
        assert [t.observation for t in parallel.trials] == \
            [t.observation for t in serial.trials]
        assert [t.spec for t in parallel.trials] == specs

    @needs_fork
    @pytest.mark.parametrize("chunk_size", [1, 3, 1000])
    def test_any_chunk_size_matches_serial(self, chunk_size, fix_chunk_size):
        wl, specs = _tiny_specs()
        serial = run_campaign(HauberkProgram(wl), specs, mode="fi",
                              options=CampaignOptions(workers=1))
        fix_chunk_size(chunk_size)
        chunked = run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(workers=2),
        )
        assert chunked.summary() == serial.summary()
        assert [t.outcome for t in chunked.trials] == \
            [t.outcome for t in serial.trials]

    def test_workers_one_short_circuits(self, monkeypatch):
        # workers=1 is the parent leasing to itself: no process, socket
        # or thread may be created
        import multiprocessing
        import socket
        import threading

        def forbidden(*args, **kwargs):
            raise AssertionError("workers=1 must stay in-process")

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Process",
                            forbidden)
        monkeypatch.setattr(socket, "socket", forbidden)
        monkeypatch.setattr(threading.Thread, "start", forbidden)
        wl, specs = _tiny_specs(masks_per_site=1)
        result = run_campaign(HauberkProgram(wl), specs, mode="fi",
                              options=CampaignOptions(workers=1))
        assert result.summary()["trials"] == len(specs)

    def test_empty_spec_list(self):
        result = run_campaign(
            HauberkProgram(TinyWorkload()), [], mode="fi",
            options=CampaignOptions(workers=4),
        )
        assert result.summary()["trials"] == 0
        assert result.trials == []

    @needs_fork
    def test_more_workers_than_specs(self):
        wl, specs = _tiny_specs(masks_per_site=1)
        few = specs[:2]
        serial = run_campaign(HauberkProgram(wl), few, mode="fi",
                              options=CampaignOptions(workers=1))
        wide = run_campaign(
            HauberkProgram(TinyWorkload()), few, mode="fi",
            options=CampaignOptions(workers=16),
        )
        assert wide.summary() == serial.summary()


# -- failure surfacing ----------------------------------------------------


def _crashing_runner_factory():
    def runner(spec):
        os._exit(13)  # hard death, no exception machinery

    return runner


def _raising_runner_factory():
    def runner(spec):
        raise ValueError("trial exploded")

    return runner


def _error_message(good, **extra):
    return {"type": "error", "lease": good["lease"], **extra}


#: Corruptions of a good two-trial result message, each of which must
#: raise a typed error and apply nothing.
_CORRUPTIONS = {
    "metrics-unknown-kind": lambda good: {
        **good, "metrics": {"bad": {"type": "nope"}}},
    "metrics-partly-bad": lambda good: {**good, "metrics": {
        "c": {"type": "counter", "samples": [{"labels": {}, "value": 1}]},
        "bad": {"type": "nope"}}},
    "no-indices": lambda good: {
        key: value for key, value in good.items() if key != "indices"},
    "index-out-of-range": lambda good: {**good, "indices": [0, 6]},
    "observations-not-observations": lambda good: {
        **good, "observations": [None, None]},
    "costs-short": lambda good: {**good, "costs": [None]},
    "pid-not-int": lambda good: {**good, "pid": "4242"},
    "trace-not-list": lambda good: {**good, "trace": 5},
    "not-a-dict": lambda good: [good],
    # no lease, only a field workers no longer send
    "unhashable-run": lambda good: {"run": [1]},
    "unhashable-lease": lambda good: {**good, "lease": [good["lease"]]},
    "error-without-exception": _error_message,
    "error-exception-not-an-exception": lambda good: _error_message(
        good, exception="trial exploded"),
}

#: Messages that are not for the lease their sender holds (see
#: :func:`_leased_run`): each maps ``(good, landed)`` to a sender and a
#: message, and must raise a typed error and apply nothing.
_MISADDRESSED = {
    "result-from-worker-without-lease": lambda good, landed: ("w9", good),
    "wrong-lease-id": lambda good, landed: (
        "w0", {**good, "lease": "L999999"}),
    "indices-not-the-held-chunks": lambda good, landed: (
        "w0", {**good, "indices": [1, 0]}),
    "resend-of-landed-chunk": lambda good, landed: ("w1", landed),
    "landed-chunk-under-held-lease": lambda good, landed: (
        "w1", {**landed, "lease": "L000003"}),
}

#: Keys of a result message, each required (see ``execute_chunk``).
_RESULT_KEYS = ("type", "lease", "pid", "indices", "observations", "costs",
                "metrics", "trace")
_DROP = object()


def _worker_result(runner, specs, lease):
    """The result message a worker process sends for ``lease``."""
    registry = get_registry()
    try:
        return execute_chunk(
            runner, [(i, specs[i]) for i in lease.indices], lease.lease_id,
        )
    finally:
        set_registry(registry)  # its metrics travel in the message only


def _leased_run(tmp_path):
    """A journaled six-spec run leased in chunks of two.

    ``w1`` has landed lease ``L000002`` (its message is ``landed``) and
    holds ``L000003``; ``w0`` holds ``L000001``, whose result ``good``
    is not absorbed yet.  Returns ``(scheduler, run, runner, good,
    landed)``.
    """
    wl, specs = _tiny_specs(masks_per_site=1)
    program, specs = HauberkProgram(wl), specs[:6]
    scheduler = LeaseScheduler()
    run = scheduler.open_run(
        program, specs, "fi", CampaignOptions(run_dir=str(tmp_path)),
        chunk_size=2,
    )
    runner = build_trial_runner(program, "fi", CampaignOptions())
    good = _worker_result(runner, specs, scheduler.grant("w0"))
    landed = _worker_result(runner, specs, scheduler.grant("w1"))
    scheduler.absorb(landed, "w1")
    assert scheduler.grant("w1").lease_id == "L000003"
    return scheduler, run, runner, good, landed


def _applied(scheduler, run, journal, registry):
    """Everything an absorbed message can change, for before/after."""
    return (dict(run.obs_by_index), sorted(CampaignJournal._load_records(
        journal)), registry.as_dict(), dict(scheduler.held), run.state,
        run.error)


class TestFailures:
    @needs_fork
    def test_worker_crash_raises_injection_error(self):
        # strict mode (max_deaths=0) preserves the historical behaviour:
        # a dead worker fails the whole campaign
        specs = [FaultSpec(site=0, mask=1, thread=0, occurrence=1)] * 8
        options = CampaignOptions(workers=2, retry=RetryPolicy(max_deaths=0))
        with pytest.raises(InjectionError):
            run_campaign(
                None, specs, options=options,
                runner_factory=_crashing_runner_factory,
            )

    @needs_fork
    def test_worker_exception_propagates(self):
        specs = [FaultSpec(site=0, mask=1, thread=0, occurrence=1)] * 8
        with pytest.raises(ValueError, match="trial exploded"):
            run_campaign(
                None, specs, options=CampaignOptions(workers=2),
                runner_factory=_raising_runner_factory,
            )

    @pytest.mark.parametrize("case", [*_CORRUPTIONS, *_MISADDRESSED])
    def test_malformed_result_applies_nothing(self, case, tmp_path,
                                              registry):
        scheduler, run, runner, good, landed = _leased_run(tmp_path)
        journal = run.journal.path
        before = _applied(scheduler, run, journal, registry)
        if case in _CORRUPTIONS:
            sender, message = "w0", _CORRUPTIONS[case](good)
        else:
            sender, message = _MISADDRESSED[case](good, landed)
        with pytest.raises(InjectionError, match="malformed result"):
            scheduler.absorb(message, sender)
        # no trial, journal line or metric landed; the leases are still out
        assert _applied(scheduler, run, journal, registry) == before
        assert [scheduler.held[w].lease_id for w in ("w0", "w1")] == \
            ["L000001", "L000003"]
        scheduler.absorb(good, "w0")
        scheduler.absorb(_worker_result(runner, run.spec_list,
                                        scheduler.held["w1"]), "w1")
        assert run.state == "done"
        assert run.result.summary()["trials"] == len(run.spec_list)

    def test_dropped_or_retyped_key_is_malformed(self, tmp_path, registry):
        scheduler, run, _runner, good, _landed = _leased_run(tmp_path)
        journal = run.journal.path
        before = _applied(scheduler, run, journal, registry)

        @settings(max_examples=40, deadline=None)
        @given(key=st.sampled_from(_RESULT_KEYS),
               value=st.sampled_from([_DROP, None, 0, True, 1.5, "x", (),
                                      [], {}]))
        def check(key, value):
            assume(type(value) is not type(good[key]))
            message = {k: v for k, v in good.items() if k != key}
            if value is not _DROP:
                message[key] = value
            with pytest.raises(InjectionError, match="malformed result"):
                scheduler.absorb(message, "w0")
            assert _applied(scheduler, run, journal, registry) == before

        assert sorted(good) == sorted(_RESULT_KEYS)
        check()

    def test_result_after_a_worker_error_is_ignored(self, tmp_path,
                                                    registry):
        # in forked mode an error and another worker's result can come
        # back in one wait() batch: the error ends the run first
        scheduler, run, _runner, good, _landed = _leased_run(tmp_path)
        journal = run.journal.path
        error = ValueError("trial exploded")
        scheduler.absorb({"type": "error", "lease": "L000003",
                          "exception": error}, "w1")
        assert run.state == "failed" and run.error is error
        after_error = _applied(scheduler, run, journal, registry)
        assert after_error[3] == {}  # the run dropped w0's lease
        scheduler.absorb(good, "w0")
        assert _applied(scheduler, run, journal, registry) == after_error
        assert run.error is error


# -- the lease scheduler, driven directly ----------------------------------


def _tiny_program_specs(n):
    wl, specs = _tiny_specs(masks_per_site=1)
    return HauberkProgram(wl), specs[:n]


class TestLeaseScheduler:
    def test_lost_multi_item_lease_splits_in_half(self, registry):
        program, specs = _tiny_program_specs(4)
        scheduler = LeaseScheduler()
        run = scheduler.open_run(program, specs, "fi", CampaignOptions(),
                                 chunk_size=4)
        assert scheduler.grant("w0").indices == (0, 1, 2, 3)
        assert scheduler.release_worker("w0").indices == (0, 1, 2, 3)
        assert [tuple(c) for c in run.queue] == [(0, 1), (2, 3)]
        counters = registry.counter("repro_campaign_leases_total")
        assert counters.value(event="released") == 1
        assert counters.value(event="reissued") == 2

    def test_singleton_loss_is_blamed_then_quarantined(self):
        program, specs = _tiny_program_specs(2)
        scheduler = LeaseScheduler(retry=RetryPolicy(max_deaths=2))
        run = scheduler.open_run(program, specs, "fi", CampaignOptions(),
                                 chunk_size=1)
        # lose the singleton lease on index 0: the first loss is a death
        # counted against the spec, and a reissue
        assert scheduler.grant("w0").indices == (0,)
        scheduler.release_worker("w0")
        assert run.deaths[0] == 1
        assert 0 not in run.quarantines
        # the surviving spec runs normally in between
        runner = build_trial_runner(program, "fi", CampaignOptions())
        lease = scheduler.grant("w1")
        assert lease.indices == (1,)
        scheduler.absorb(execute_chunk(
            runner, [(1, specs[1])], lease.lease_id, isolate=False,
        ), "w1")
        # losing the reissued lease condemns and quarantines
        assert scheduler.grant("w0").indices == (0,)
        scheduler.release_worker("w0")
        assert run.deaths[0] == 2
        assert 0 in run.quarantines
        assert run.quarantines[0].note == \
            "worker lost 2x (2x running this spec alone)"
        assert run.state == "done"
        assert run.result.summary()["quarantined"] == 1
        assert run.result.summary()["outcomes"]["worker_killed"] == 1

    def test_worker_error_fails_the_run_promptly(self):
        program, specs = _tiny_program_specs(2)
        scheduler = LeaseScheduler()
        run = scheduler.open_run(program, specs, "fi", CampaignOptions(),
                                 chunk_size=1)
        lease = scheduler.grant("w0")
        scheduler.grant("w1")
        start = time.monotonic()
        scheduler.absorb({
            "type": "error", "lease": lease.lease_id,
            "exception": ValueError("trial exploded"),
        }, "w0")
        assert time.monotonic() - start < 5.0
        assert run.state == "failed"
        assert isinstance(run.error, ValueError)
        assert str(run.error) == "trial exploded"
        assert scheduler.held == {}


# -- spec planning --------------------------------------------------------


class TestSpecStability:
    def test_same_seed_same_plan(self):
        wl = TinyWorkload()
        inp = wl.generate_input(0)
        sites = enumerate_targets(wl.kernel)
        a = build_fault_specs(sites, n_threads=inp.n_threads,
                              masks_per_site=3, seed=7)
        b = build_fault_specs(sites, n_threads=inp.n_threads,
                              masks_per_site=3, seed=7)
        assert a == b

    def test_different_seed_different_plan(self):
        wl = TinyWorkload()
        inp = wl.generate_input(0)
        sites = enumerate_targets(wl.kernel)
        a = build_fault_specs(sites, n_threads=inp.n_threads,
                              masks_per_site=3, seed=7)
        c = build_fault_specs(sites, n_threads=inp.n_threads,
                              masks_per_site=3, seed=8)
        assert a != c


# -- pool helpers ---------------------------------------------------------


class TestPoolHelpers:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers("auto") >= 1
        with pytest.raises(ValueError):
            resolve_workers(-2)
        with pytest.raises(ValueError):
            resolve_workers("lots")

    def test_chunk_slices(self):
        assert chunk_slices(0, 4) == []
        assert chunk_slices(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert chunk_slices(3, 99) == [(0, 3)]
        with pytest.raises(ValueError):
            chunk_slices(3, 0)
        with pytest.raises(ValueError):
            chunk_slices(-1, 4)

    def test_default_chunk_size(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(100, 4) == 7  # ceil(100 / 16)
        assert default_chunk_size(5, 8) == 1
        with pytest.raises(ValueError):
            default_chunk_size(10, 0)


# -- metrics merging ------------------------------------------------------


class TestMetricsMerge:
    def test_counters_add_gauges_overwrite(self):
        a = MetricsRegistry()
        a.counter("c", "h").inc(2, k="x")
        a.gauge("g", "h").set(5)
        b = MetricsRegistry()
        b.counter("c", "h").inc(3, k="x")
        b.counter("c", "h").inc(1, k="y")
        b.gauge("g", "h").set(7)
        a.merge_dict(b.as_dict())
        assert a.get("c").value(k="x") == 5
        assert a.get("c").value(k="y") == 1
        assert a.get("g").value() == 7

    def test_histograms_add(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1, 2, 4)).observe(1.5)
        b = MetricsRegistry()
        b.histogram("h", buckets=(1, 2, 4)).observe(3.0)
        b.histogram("h", buckets=(1, 2, 4)).observe(0.5)
        a.merge_dict(b.as_dict())
        assert a.get("h").count() == 3
        assert a.get("h").sum() == 5.0

    def test_histogram_bucket_mismatch_raises(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1, 2)).observe(1.0)
        b = MetricsRegistry()
        b.histogram("h", buckets=(1, 2, 4)).observe(1.0)
        with pytest.raises(ValueError, match="bucket mismatch"):
            a.merge_dict(b.as_dict())

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="mystery"):
            MetricsRegistry().merge_dict(
                {"x": {"type": "mystery", "samples": []}}
            )

    @needs_fork
    def test_parallel_metrics_match_serial(self, registry):
        wl, specs = _tiny_specs()
        serial_reg = fresh_registry()
        run_campaign(HauberkProgram(wl), specs, mode="fi",
                     options=CampaignOptions(workers=1))
        serial = serial_reg.as_dict()

        par_reg = fresh_registry()
        run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(workers=3),
        )
        merged = par_reg.as_dict()
        # worker-side launch / trial metrics merge to the serial totals
        assert merged["repro_launch_total"] == serial["repro_launch_total"]
        assert merged["repro_trial_outcomes_total"] == \
            serial["repro_trial_outcomes_total"]
        # plus the engine's own gauges
        assert par_reg.get("repro_swifi_parallel_workers").value() == 3
        assert par_reg.get("repro_swifi_chunks_total").value() >= 1
