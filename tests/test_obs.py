"""Tests for repro.obs: tracing, metrics, and the instrumented layers."""

import json

import pytest

from repro.core.translator import HauberkTranslator
from repro.errors import KernelCrash
from repro.gpu.cluster import GPUNode
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    NullTracer,
    RingBufferSink,
    Tracer,
    fresh_registry,
    get_registry,
    get_tracer,
    set_registry,
    set_tracer,
    traced,
    use_tracer,
    validate_trace,
)
from repro.swifi import FaultSpec, run_campaign
from repro.swifi.campaign import TrialObservation

from conftest import launch_saxpy


@pytest.fixture(autouse=True)
def _isolated_obs():
    """Each test gets a fresh registry and the NullTracer default."""
    fresh_registry()
    set_tracer(None)
    yield
    set_registry(None)
    set_tracer(None)


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_link_parents(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        with tracer.span("outer", who="a"):
            with tracer.span("inner"):
                tracer.event("tick", n=1)
        records = sink.records
        assert [r["type"] for r in records] == ["event", "span", "span"]
        event, inner, outer = records
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        assert event["span_id"] == inner["span_id"]
        assert outer["attrs"] == {"who": "a"}
        validate_trace(records)

    def test_span_timing_monotonic(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        with tracer.span("a"):
            pass
        (rec,) = sink.records
        assert rec["t_end"] >= rec["t_start"] >= 0.0
        assert rec["dur"] == rec["t_end"] - rec["t_start"]

    def test_span_error_attr_on_exception(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (rec,) = sink.records
        assert rec["attrs"]["error"] == "ValueError"

    def test_late_attrs_via_set(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        with tracer.span("s") as span:
            span.set(cycles=42)
        assert sink.records[0]["attrs"]["cycles"] == 42

    def test_ring_buffer_caps_capacity(self):
        sink = RingBufferSink(capacity=3)
        tracer = Tracer(sink)
        for i in range(10):
            tracer.event("e", i=i)
        assert [r["attrs"]["i"] for r in sink.records] == [7, 8, 9]

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(str(path)))
        with tracer.span("outer"):
            tracer.event("point", value=1.5)
        tracer.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 2
        validate_trace(records)

    def test_validate_trace_rejects_escaping_child(self):
        bad = [
            {"type": "span", "name": "p", "span_id": 1, "parent_id": None,
             "t_start": 0.0, "t_end": 1.0},
            {"type": "span", "name": "c", "span_id": 2, "parent_id": 1,
             "t_start": 0.5, "t_end": 2.0},
        ]
        with pytest.raises(ValueError):
            validate_trace(bad)

    def test_null_tracer_is_default_and_inert(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert not tracer.enabled
        with tracer.span("anything", big=1) as span:
            span.set(more=2)
            tracer.event("nothing")

    def test_use_tracer_scopes_installation(self):
        scoped = Tracer(RingBufferSink())
        with use_tracer(scoped) as active:
            assert get_tracer() is scoped is active
        assert isinstance(get_tracer(), NullTracer)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_labels_and_monotonicity(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", "help!")
        c.inc(kernel="a")
        c.inc(2.0, kernel="a")
        c.inc(kernel="b")
        assert c.value(kernel="a") == 3.0
        assert c.value(kernel="b") == 1.0
        assert c.value(kernel="zzz") == 0.0
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("level")
        g.set(5.0)
        g.dec(2.0)
        g.inc(0.5)
        assert g.value() == 3.5

    def test_histogram_buckets_sum_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 0.7, 3.0, 20.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(24.2)
        text = reg.render_prometheus()
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="5"} 3' in text
        assert 'lat_bucket{le="10"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text

    def test_registry_idempotent_and_type_safe(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_prometheus_rendering_shape(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "things").inc(kind="k")
        text = reg.render_prometheus()
        assert "# HELP a_total things" in text
        assert "# TYPE a_total counter" in text
        assert 'a_total{kind="k"} 1' in text
        assert text.endswith("\n")

    def test_json_export_parses(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2.5)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        data = json.loads(reg.render_json())
        assert data["c"]["type"] == "counter"
        assert data["g"]["samples"][0]["value"] == 2.5
        assert data["h"]["samples"][0]["count"] == 1

    def test_label_order_does_not_split_a_sample(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(a="x", b="y")
        c.inc(b="y", a="x")
        assert c.value(a="x", b="y") == c.value(b="y", a="x") == 2.0
        assert len(reg.as_dict()["c"]["samples"]) == 1

    def test_equal_values_of_other_types_keep_their_own_labels(self):
        # 1, 1.0 and True hash and compare alike but render apart
        reg = MetricsRegistry()
        c = reg.counter("c")
        for value in ("1", 1, 1.0, True, "1", 1):
            c.inc(x=value)
        samples = {s["labels"]["x"]: s["value"]
                   for s in reg.as_dict()["c"]["samples"]}
        assert samples == {"1": 4.0, "1.0": 1.0, "True": 1.0}

    def test_unhashable_label_value_still_records(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(tags=["a", "b"])
        c.inc(tags=["a", "b"])
        assert c.value(tags=["a", "b"]) == 2.0
        assert reg.as_dict()["c"]["samples"] == [
            {"labels": {"tags": "['a', 'b']"}, "value": 2.0}]

    def test_records_go_to_the_current_registry(self):
        from repro.obs.instrument import record_lease

        name = "repro_campaign_leases_total"
        first = fresh_registry()
        record_lease("granted")
        second = fresh_registry()
        record_lease("granted", 2)
        assert set_registry(first) is first
        record_lease("granted")
        assert first.counter(name).value(event="granted") == 2.0
        assert second.counter(name).value(event="granted") == 2.0

    def test_bound_metrics_record_as_their_unbound_calls(self):
        bound, plain = MetricsRegistry(), MetricsRegistry()
        for reg in (bound, plain):
            reg.counter("c")
            reg.gauge("g")
            reg.histogram("h", buckets=(1.0, 2.0))
        inc, set_, observe = (bound.counter("c").bind(kind="k", at="x"),
                              bound.gauge("g").bind(kind="k"), bound.histogram("h").bind())
        for value in (0.5, 1.5, 7.0):
            inc()
            inc(value)
            set_(value)
            observe(value)
            plain.counter("c").inc(at="x", kind="k")
            plain.counter("c").inc(value, kind="k", at="x")
            plain.gauge("g").set(value, kind="k")
            plain.histogram("h").observe(value)
        assert bound.as_dict() == plain.as_dict()
        with pytest.raises(ValueError, match="cannot decrease"):
            inc(-1.0)

    def test_bound_records_are_made_once_per_registry(self):
        from repro.obs.instrument import record_trial
        from repro.swifi.outcomes import Outcome

        made = []

        def maker(reg, label):
            made.append((reg, label))
            return reg.counter("c").bind(label=label)

        first, second = MetricsRegistry(), MetricsRegistry()
        for reg in (first, second, first):
            reg.bound(maker, "a")()
            reg.bound(maker, "b")()
        assert made == [(first, "a"), (first, "b"), (second, "a"), (second, "b")]
        assert first.counter("c").value(label="a") == 2.0
        # a record registers only the metrics it records into
        reg = fresh_registry()
        record_trial(Outcome.MASKED, None)
        assert reg.names() == ["repro_trial_outcomes_total"]

    def test_empty_snapshot_merges_nothing(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(kind="k")
        before = reg.as_dict()
        reg.prepare_merge({})()
        reg.merge_dict({})
        assert reg.as_dict() == before

    def test_traced_decorator_spans(self):
        sink = RingBufferSink()
        with use_tracer(Tracer(sink)):
            @traced("my.op", flavor="test")
            def add(a, b):
                return a + b

            assert add(1, 2) == 3
        (rec,) = sink.records
        assert rec["name"] == "my.op"
        assert rec["attrs"] == {"flavor": "test"}


# ---------------------------------------------------------------------------
# instrumented layers
# ---------------------------------------------------------------------------


class TestLaunchInstrumentation:
    def test_launch_metrics_and_span(self, runtime, saxpy_kernel):
        sink = RingBufferSink()
        with use_tracer(Tracer(sink)):
            result, _ = launch_saxpy(runtime, saxpy_kernel, n=64)
        reg = get_registry()
        assert reg.counter("repro_launch_total").value(kernel="saxpy") == 1
        assert reg.counter("repro_launch_cycles_total").value(
            kernel="saxpy"
        ) == result.total_cycles
        assert reg.histogram("repro_launch_loop_fraction").count(kernel="saxpy") == 1
        spans = [r for r in sink.records if r["name"] == "gpu.launch"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["total_cycles"] == result.total_cycles
        validate_trace(sink.records)

    def test_crash_recorded(self, runtime):
        from repro.kir.parser import parse_kernel

        kernel = parse_kernel("""
        kernel div(float* out, int n) {
            int q = 7 / n;
            out[0] = float(q);
        }
        """)
        from repro.gpu.memory import Allocation
        from repro.kir.types import DType

        out = runtime.device.memory.alloc("out", 4, DType.FLOAT32)
        with pytest.raises(KernelCrash):
            runtime.launch(kernel, 1, 1, {"out": out, "n": 0})
        failures = get_registry().counter("repro_launch_failures_total")
        assert failures.value(kernel="div", kind="crash") == 1
        assert isinstance(out, Allocation)


class TestCampaignInstrumentation:
    def test_trial_outcomes_and_summary(self):
        observations = {
            2: TrialObservation(failure=True, detected=False, output_ok=False,
                                activated=True),
            3: TrialObservation(failure=False, detected=True, output_ok=False,
                                activated=True),
        }

        def runner(spec):
            return observations.get(
                spec.mask,
                TrialObservation(failure=False, detected=False, output_ok=True,
                                 activated=False),
            )

        sink = RingBufferSink()
        specs = [FaultSpec(site=s, mask=m) for s, m in ((0, 2), (1, 3), (2, 4))]
        with use_tracer(Tracer(sink)):
            result = run_campaign(None, specs, runner_factory=lambda: runner)

        summary = result.summary()
        assert summary["trials"] == 3
        assert summary["outcomes"]["failure"] == 1
        assert summary["outcomes"]["detected"] == 1
        assert summary["outcomes"]["masked"] == 1
        assert summary["activation_ratio"] == pytest.approx(2 / 3)

        reg = get_registry()
        outcomes = reg.counter("repro_trial_outcomes_total")
        assert outcomes.value(outcome="failure") == 1
        assert outcomes.value(outcome="detected") == 1
        assert outcomes.value(outcome="masked") == 1
        assert reg.gauge("repro_trial_activation_ratio").value() == pytest.approx(2 / 3)
        assert reg.histogram("repro_trial_site_faults").count() == 3
        assert reg.counter("repro_campaigns_total").value() == 1

        span = next(r for r in sink.records if r["name"] == "swifi.campaign")
        assert span["attrs"]["trials"] == 3
        trial_events = [r for r in sink.records if r["name"] == "swifi.trial"]
        assert len(trial_events) == 3
        validate_trace(sink.records)


class TestGuardianInstrumentation:
    class _FakeResult:
        def __init__(self, status, steps=1000):
            self.status = status
            self.failure_reason = "x"
            self.launch = type("L", (), {"max_thread_steps": steps})()

    def test_supervision_metrics(self):
        from repro.core.guardian import Guardian
        from repro.core.program import RunStatus

        calls = []

        def launch(device, budget):
            calls.append(budget)
            if len(calls) == 1:
                return self._FakeResult(RunStatus.HANG)
            return self._FakeResult(RunStatus.OK)

        sink = RingBufferSink()
        with use_tracer(Tracer(sink)):
            _result, report = Guardian(node=GPUNode(num_devices=2)).supervise(launch)
        assert report.hang_kills == 1
        reg = get_registry()
        assert reg.counter("repro_guardian_attempts_total").value() == 2
        assert reg.counter("repro_guardian_restarts_total").value() == 1
        assert reg.counter("repro_guardian_hang_kills_total").value() == 1
        assert reg.gauge("repro_guardian_watchdog_budget").value() == calls[-1]
        failures = [r for r in sink.records if r["name"] == "guardian.failure"]
        assert len(failures) == 1 and failures[0]["attrs"]["status"] == "hang"


class TestTranslatorInstrumentation:
    def test_pass_metrics(self, saxpy_kernel):
        translator = HauberkTranslator()
        build = translator.build(saxpy_kernel, "fi")
        reg = get_registry()
        assert reg.counter("repro_translator_passes_total").value(mode="fi") == 1
        added = reg.counter("repro_translator_statements_added_total")
        assert added.value(rule="fi_hook") > 0
        assert build.statements_added["fi_hook"] == added.value(rule="fi_hook")
        assert reg.histogram("repro_translator_seconds").count(mode="fi") == 1

    def test_ft_counts_detector_rules(self, accum_kernel):
        HauberkTranslator().build(accum_kernel, "ft")
        added = get_registry().counter("repro_translator_statements_added_total")
        assert added.value(rule="loop") > 0
        assert added.value(rule="nonloop") > 0


class TestAlphaInstrumentation:
    def test_adjustment_recorded(self):
        from repro.obs.instrument import record_alpha_adjustment

        record_alpha_adjustment(1.0, 10.0)
        record_alpha_adjustment(10.0, 10.0)  # unchanged -> no adjustment
        record_alpha_adjustment(10.0, 1.0)
        reg = get_registry()
        adjustments = reg.counter("repro_alpha_adjustments_total")
        assert adjustments.value(direction="up") == 1
        assert adjustments.value(direction="down") == 1
        assert reg.gauge("repro_alpha_value").value() == 1.0


# ---------------------------------------------------------------------------
# CLI + acceptance: figure harness under tracing, metrics exposition
# ---------------------------------------------------------------------------


class TestCli:
    def test_metrics_command_prometheus(self, capsys):
        from repro.__main__ import main

        assert main(["metrics", "fig04", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_launch_total counter" in out
        assert "repro_translator_passes_total" in out

    def test_metrics_command_json_output(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "metrics.json"
        assert main(["metrics", "fig04", "--scale", "smoke",
                     "--format", "json", "--output", str(path)]) == 0
        data = json.loads(path.read_text())
        assert "repro_launch_total" in data

    def test_run_with_trace_and_json_dir(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = tmp_path / "trace.jsonl"
        tables = tmp_path / "tables"
        assert main(["run", "fig04", "--scale", "smoke",
                     "--trace", str(trace), "--json-dir", str(tables)]) == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records, "trace must not be empty"
        validate_trace(records)
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert "gpu.launch" in span_names
        written = list(tables.glob("*.json"))
        assert written
        doc = json.loads(written[0].read_text())
        assert set(doc) == {"title", "headers", "rows"}

    def test_metrics_command_unknown_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["metrics", "nope"]) == 2


class TestAcceptance:
    def test_figure_harness_exposes_required_metrics(self):
        """Acceptance: launch, trial-outcome, guardian, and translator
        metrics are all exposed after one figure harness plus the two
        surfaces (guardian, campaign) the cheap figure does not touch."""
        from repro.core.guardian import Guardian
        from repro.core.program import RunStatus
        from repro.harness.config import SMOKE
        from repro.harness.fig04_loops import run_fig04

        def runner(spec):
            return TrialObservation(failure=False, detected=False,
                                    output_ok=True, activated=spec is not None)

        sink = RingBufferSink(capacity=65536)
        with use_tracer(Tracer(sink)):
            run_fig04(SMOKE)
            run_campaign(None, [FaultSpec(site=0, mask=1)],
                         runner_factory=lambda: runner)
            Guardian(node=GPUNode(num_devices=1)).supervise(
                lambda device, budget: TestGuardianInstrumentation._FakeResult(
                    RunStatus.OK
                )
            )
        validate_trace(sink.records)
        text = get_registry().render_prometheus()
        for required in ("repro_launch_total", "repro_trial_outcomes_total",
                         "repro_guardian_attempts_total",
                         "repro_translator_passes_total"):
            assert required in text
