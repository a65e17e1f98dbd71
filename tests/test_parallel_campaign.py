"""Parallel campaign engine tests: parity, chunking, crashes, metrics.

The determinism contract under test: ``repro.swifi.run_campaign`` must
produce a bit-identical :class:`CampaignResult` for any worker count
(the parallel merge replays worker observations in spec order through
the same ``absorb_trial`` helper the serial loop uses).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.program import HauberkProgram
from repro.errors import InjectionError
from repro.exec import (
    chunk_slices,
    default_chunk_size,
    fork_available,
    resolve_workers,
)
from repro.kir.types import DType
from repro.obs.metrics import MetricsRegistry, fresh_registry
from repro.exec import RetryPolicy
from repro.swifi import (
    CampaignOptions,
    FaultSpec,
    build_fault_specs,
    enumerate_targets,
    run_campaign,
)
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
    def test_any_chunk_size_matches_serial(self, chunk_size):
        wl, specs = _tiny_specs()
        serial = run_campaign(HauberkProgram(wl), specs, mode="fi",
                              options=CampaignOptions(workers=1))
        chunked = run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(workers=2, chunk_size=chunk_size),
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
