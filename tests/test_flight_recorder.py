"""Flight-recorder tests: profiler, heartbeats/progress, and `repro report`.

Three contracts under test:

* **Observation is free and harmless** — the default profiler is a
  no-op, and enabling profiling or progress never changes campaign
  results (progress-on is bit-identical to progress-off).
* **Artifacts are written and merged correctly** — ``profile.json``
  aggregates worker phase totals, ``heartbeats.jsonl`` ends with a
  final beat covering every trial, journal records carry served-by
  tags, the ring sink counts drops, and histogram snapshot merges
  survive a key-reordering JSON round trip.
* **Reports are deterministic** — ``repro report`` output is
  byte-identical across reruns, its outcome tallies match
  ``CampaignResult.summary()`` exactly, and a killed-and-resumed run
  reports the same facts as an uninterrupted one.
"""

from __future__ import annotations

import importlib.util
import io
import json
import os

import pytest

from repro.core.program import HauberkProgram
from repro.obs import RingBufferSink
from repro.obs.metrics import MetricsRegistry, fresh_registry
from repro.obs.profile import (
    PHASE_DIFF_REPLAY,
    PHASE_FULL_RUN,
    NullPhaseProfiler,
    PhaseProfiler,
    get_profiler,
    served_tag,
    set_profiler,
    use_profiler,
)
from repro.obs.progress import Heartbeat, HeartbeatMonitor, ProgressRenderer
from repro.obs.report import build_report, render_json, render_markdown
from repro.swifi import CampaignJournal, CampaignOptions, run_campaign
from repro.swifi.journal import spec_fingerprint

from test_journal import _assert_identical, _truncate_journal
from test_parallel_campaign import TinyWorkload, _tiny_specs, needs_fork


@pytest.fixture
def registry():
    reg = fresh_registry()
    yield reg
    fresh_registry()


@pytest.fixture(autouse=True)
def _reset_profiler():
    yield
    set_profiler(None)


# -- phase profiler -------------------------------------------------------


class TestPhaseProfiler:
    def test_default_profiler_is_disabled_noop(self):
        prof = get_profiler()
        assert not prof.enabled
        with prof.phase("anything"):
            pass
        prof.begin_trial(0)
        assert prof.end_trial() is None
        assert prof.totals == {}

    def test_phases_accumulate_counts_and_seconds(self, registry):
        ticks = iter(range(100))
        prof = PhaseProfiler(clock=lambda: float(next(ticks)))
        with prof.phase("merge"):
            pass
        with prof.phase("merge"):
            pass
        with prof.phase(PHASE_FULL_RUN, reason="atomics"):
            pass
        assert prof.totals["merge"] == [2, 2.0]
        assert prof.totals["full_run:atomics"] == [1, 1.0]
        hist = registry.get("repro_campaign_phase_seconds")
        assert hist.count(phase="merge", reason="") == 2
        assert hist.count(phase=PHASE_FULL_RUN, reason="atomics") == 1

    def test_trial_cost_records_and_served_tags(self, registry):
        prof = PhaseProfiler()
        prof.begin_trial(7)
        with prof.phase(PHASE_DIFF_REPLAY):
            pass
        prof.note_served("diff")
        cost = prof.end_trial()
        assert cost["index"] == 7
        assert cost["served"] == "diff"
        assert PHASE_DIFF_REPLAY in cost["phases"]
        assert served_tag(cost) == "diff"
        assert served_tag(None) is None
        assert served_tag({"served": "full", "reason": "atomics"}) \
            == "full:atomics"

    def test_take_and_absorb_totals(self, registry):
        worker = PhaseProfiler()
        worker.add("merge", 1.0)
        worker.add("merge", 2.0)
        shipped = worker.take_totals()
        assert worker.totals == {}
        parent = PhaseProfiler()
        parent.add("merge", 0.5)
        parent.absorb_totals(shipped)
        assert parent.totals["merge"] == [3, 3.5]
        snap = parent.snapshot()
        assert snap["merge"] == {"count": 3, "seconds": 3.5}

    def test_use_profiler_scopes_and_restores(self):
        before = get_profiler()
        prof = PhaseProfiler(registry_histograms=False)
        with use_profiler(prof) as installed:
            assert installed is prof
            assert get_profiler() is prof
        assert get_profiler() is before

    def test_null_profiler_sheds_all_state(self):
        prof = NullPhaseProfiler()
        prof.add("merge", 1.0)
        prof.begin_trial(3)
        prof.note_served("diff")
        assert prof.end_trial() is None
        assert prof.totals == {}


# -- ring sink drop counter -----------------------------------------------


class TestRingSinkDrops:
    def test_drops_counted_and_metered(self, registry):
        sink = RingBufferSink(capacity=3)
        for i in range(5):
            sink.emit({"i": i})
        assert sink.dropped == 2
        assert [r["i"] for r in sink.records] == [2, 3, 4]
        assert registry.get("repro_obs_trace_dropped_total").value() == 2

    def test_no_drops_no_metric(self, registry):
        sink = RingBufferSink(capacity=8)
        sink.emit({"i": 0})
        assert sink.dropped == 0
        assert registry.get("repro_obs_trace_dropped_total") is None


# -- histogram snapshot merging -------------------------------------------


class TestHistogramMerge:
    def test_sorted_keys_round_trip_merges_correctly(self):
        # json.dumps(sort_keys=True) orders "10.0" before "2.5"; the
        # merge must re-pair counts with numeric bounds, not dict order
        src = MetricsRegistry()
        hist = src.histogram("h", buckets=(0.5, 1.0, 2.5, 10.0))
        for value in (0.2, 0.7, 3.0, 20.0):
            hist.observe(value)
        snapshot = json.loads(json.dumps(src.as_dict(), sort_keys=True))
        dst = MetricsRegistry()
        dst.histogram("h", buckets=(0.5, 1.0, 2.5, 10.0))
        dst.merge_dict(snapshot)
        merged = dst.get("h")
        assert merged.count() == 4
        assert merged.sum() == pytest.approx(23.9)
        assert src.render_prometheus() == dst.render_prometheus()

    def test_round_trip_into_empty_registry(self):
        src = MetricsRegistry()
        src.histogram("h", buckets=(0.5, 1.0, 2.5, 10.0)).observe(3.0)
        snapshot = json.loads(json.dumps(src.as_dict(), sort_keys=True))
        dst = MetricsRegistry()
        dst.merge_dict(snapshot)
        assert dst.get("h").count() == 1

    def test_genuine_mismatch_raises_clearly(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1, 2)).observe(1.0)
        b = MetricsRegistry()
        b.histogram("h", buckets=(1, 2, 4)).observe(1.0)
        with pytest.raises(ValueError, match="bucket mismatch"):
            a.merge_dict(b.as_dict())


# -- heartbeats and progress ----------------------------------------------


class TestHeartbeats:
    def test_monitor_writes_final_covering_heartbeat(self, tmp_path):
        path = tmp_path / "heartbeats.jsonl"
        monitor = HeartbeatMonitor(total=10, path=str(path))
        monitor.advance(4, {"masked": 4}, pid=111)
        monitor.advance(6, {"undetected": 6}, pid=222)
        monitor.close()
        beats = [json.loads(line) for line in path.read_text().splitlines()]
        assert [b["seq"] for b in beats] == [1, 2, 3]
        assert beats[-1]["source"] == "final"
        assert beats[-1]["done"] == 10
        assert beats[-1]["total"] == 10
        assert beats[-1]["outcomes"] == {"masked": 4, "undetected": 6}
        assert {"v", "pid", "rate", "elapsed"} <= set(beats[0])

    def test_unforced_advances_are_throttled(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        monitor = HeartbeatMonitor(total=100, path=str(path),
                                   min_interval=3600, clock=lambda: 3599.0)
        for _ in range(50):
            monitor.advance(1, {"masked": 1}, source="serial", force=False)
        monitor.close()
        beats = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(beats) == 1  # only the final beat
        assert beats[0]["done"] == 50  # counts were never lost

    def test_renderer_draws_bar_rate_eta_and_tallies(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream=stream, label="TINY")
        renderer.update(Heartbeat(
            seq=1, pid=1, done=5, total=10, outcomes={"masked": 5},
            rate=2.5, elapsed=2.0,
        ))
        renderer.update(Heartbeat(
            seq=2, pid=1, done=10, total=10,
            outcomes={"masked": 7, "undetected": 3}, rate=5.0, elapsed=2.0,
            source="final",
        ))
        renderer.close()
        text = stream.getvalue()
        assert "TINY" in text
        assert "5/10" in text and "eta 2.0s" in text
        assert "10/10" in text and "done" in text
        assert "masked=7" in text and "undetected=3" in text
        assert text.endswith("\n")


# -- campaign integration -------------------------------------------------


class TestCampaignFlightRecorder:
    def test_profile_writes_artifacts_and_keeps_results(self, tmp_path):
        wl, specs = _tiny_specs(masks_per_site=1)
        plain = run_campaign(
            HauberkProgram(wl), specs, mode="fi",
            options=CampaignOptions(),
        )
        root = tmp_path / "runs"
        profiled = run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(run_dir=str(root), profile=True),
        )
        _assert_identical(plain, profiled)
        (entry,) = [d for d in root.iterdir() if d.is_dir()]
        profile = json.loads((entry / "profile.json").read_text())
        phases = profile["phases"]
        for expected in ("parse_build", "golden_record", "diff_replay",
                         "journal_append", "merge"):
            assert phases[expected]["count"] >= 1
            assert phases[expected]["seconds"] >= 0.0
        assert phases["diff_replay"]["count"] + sum(
            v["count"] for k, v in phases.items() if k.startswith("full_run")
        ) >= len(specs)
        records = CampaignJournal._load_records(entry / "journal.jsonl")
        assert len(records) == len(specs)
        assert all(r.served is not None for r in records.values())

    def test_progress_is_bit_identical_to_progress_off(self, tmp_path):
        wl, specs = _tiny_specs(masks_per_site=1)
        off = run_campaign(
            HauberkProgram(wl), specs, mode="fi", options=CampaignOptions()
        )
        on = run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(progress=True, profile=True),
        )
        _assert_identical(off, on)

    def test_journaled_run_writes_heartbeats(self, tmp_path):
        wl, specs = _tiny_specs(masks_per_site=1)
        root = tmp_path / "runs"
        run_campaign(
            HauberkProgram(wl), specs, mode="fi",
            options=CampaignOptions(run_dir=str(root)),
        )
        (entry,) = [d for d in root.iterdir() if d.is_dir()]
        beats = [json.loads(line) for line in
                 (entry / "heartbeats.jsonl").read_text().splitlines()]
        assert beats[-1]["source"] == "final"
        assert beats[-1]["done"] == len(specs)
        assert beats[-1]["total"] == len(specs)

    def test_fresh_run_truncates_stale_heartbeats(self, tmp_path):
        wl, specs = _tiny_specs(masks_per_site=1)
        root = tmp_path / "runs"
        options = CampaignOptions(run_dir=str(root))
        run_campaign(HauberkProgram(wl), specs, mode="fi", options=options)
        (entry,) = [d for d in root.iterdir() if d.is_dir()]
        run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi", options=options
        )
        seqs = [json.loads(line)["seq"] for line in
                (entry / "heartbeats.jsonl").read_text().splitlines()]
        # A fresh (non-resume) run replaces the heartbeat file: one
        # strictly increasing sequence from 1, not two concatenated runs.
        assert seqs == list(range(1, len(seqs) + 1))

    def test_served_tags_attribute_differential_path(self, tmp_path):
        wl, specs = _tiny_specs(masks_per_site=1)
        root = tmp_path / "runs"
        run_campaign(
            HauberkProgram(wl), specs, mode="fi",
            options=CampaignOptions(
                run_dir=str(root), profile=True, differential=False
            ),
        )
        (entry,) = [d for d in root.iterdir() if d.is_dir()]
        records = CampaignJournal._load_records(entry / "journal.jsonl")
        assert all(r.served == "full:differential_off"
                   for r in records.values())

    @needs_fork
    def test_pooled_profile_merges_worker_phase_totals(self, tmp_path):
        wl, specs = _tiny_specs()
        root = tmp_path / "runs"
        result = run_campaign(
            HauberkProgram(wl), specs, mode="fi",
            options=CampaignOptions(
                workers=2, chunk_size=3, run_dir=str(root), profile=True
            ),
        )
        (entry,) = [d for d in root.iterdir() if d.is_dir()]
        phases = json.loads((entry / "profile.json").read_text())["phases"]
        served = phases.get("diff_replay", {"count": 0})["count"] + sum(
            v["count"] for k, v in phases.items() if k.startswith("full_run")
        )
        assert served >= len(specs)
        beats = [json.loads(line) for line in
                 (entry / "heartbeats.jsonl").read_text().splitlines()]
        assert beats[-1]["done"] == len(specs)
        assert any(b["source"] == "chunk" for b in beats)
        serial = run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(),
        )
        _assert_identical(serial, result)


# -- repro report ---------------------------------------------------------


def _run_journaled(tmp_path, name="runs", **options):
    wl, specs = _tiny_specs(masks_per_site=1)
    root = tmp_path / name
    result = run_campaign(
        HauberkProgram(wl), specs, mode="fi",
        options=CampaignOptions(run_dir=str(root), profile=True, **options),
    )
    return root, specs, result


class TestReport:
    def test_summary_matches_campaign_result_exactly(self, tmp_path):
        root, _specs, result = _run_journaled(tmp_path)
        report = build_report(str(root))
        (campaign,) = report["campaigns"]
        assert campaign["summary"] == result.summary()
        assert campaign["complete"]
        assert campaign["workload"] == "TINY"
        diff = campaign["differential"]
        tagged = diff["replay_hits"] + sum(diff["fallbacks"].values())
        assert tagged + diff["untagged"] == campaign["journaled_trials"]
        assert diff["untagged"] == 0

    def test_report_is_deterministic_across_reruns(self, tmp_path):
        root, _specs, _result = _run_journaled(tmp_path)
        first = build_report(str(root))
        second = build_report(str(root))
        assert render_json(first) == render_json(second)
        assert render_markdown(first) == render_markdown(second)

    def test_killed_and_resumed_reports_like_uninterrupted(self, tmp_path):
        root_a, specs, result_a = _run_journaled(tmp_path, name="a")
        root_b, _specs, _ = _run_journaled(tmp_path, name="b")
        _truncate_journal(str(root_b), keep=len(specs) // 2)
        resumed = run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(
                resume=str(root_b), run_dir=str(root_b), profile=True
            ),
        )
        _assert_identical(result_a, resumed)
        report_a = build_report(str(root_a), include_timing=False)
        report_b = build_report(str(root_b), include_timing=False)
        assert report_a["campaigns"] == report_b["campaigns"]

    def test_incomplete_run_is_flagged(self, tmp_path):
        root, specs, _result = _run_journaled(tmp_path)
        _truncate_journal(str(root), keep=3)
        report = build_report(str(root))
        (campaign,) = report["campaigns"]
        assert not campaign["complete"]
        assert campaign["journaled_trials"] == 3
        assert campaign["summary"]["trials"] == 3

    def test_quarantine_timeline_from_journal(self, tmp_path):
        root, specs, _result = _run_journaled(tmp_path)
        (entry,) = [d for d in root.iterdir() if d.is_dir()]
        with open(entry / "journal.jsonl", "a", encoding="utf-8") as fh:
            from repro.swifi.journal import _digest

            payload = {
                "i": len(specs), "spec": spec_fingerprint(specs[0]),
                "outcome": "worker_killed", "obs": None,
                "q": {"deaths": 3, "rounds": 2, "note": "worker died 3x"},
            }
            payload["dg"] = _digest(payload)[:12]
            fh.write(json.dumps(payload, sort_keys=True,
                                separators=(",", ":")) + "\n")
        report = build_report(str(root))
        (campaign,) = report["campaigns"]
        (quarantined,) = campaign["quarantine"]
        assert quarantined["deaths"] == 3
        assert quarantined["rounds"] == 2
        assert campaign["summary"]["quarantined"] == 1
        assert campaign["summary"]["outcomes"]["worker_killed"] == 1
        text = render_markdown(report)
        assert "Quarantine timeline" in text

    def test_markdown_report_covers_all_sections(self, tmp_path):
        root, _specs, _result = _run_journaled(tmp_path)
        text = render_markdown(build_report(str(root)))
        for heading in ("# Campaign report", "### Outcomes",
                        "### Differential attribution",
                        "### Time where it went"):
            assert heading in text

    def test_cli_report_roundtrip(self, tmp_path, capsys):
        from repro.__main__ import main

        root, _specs, result = _run_journaled(tmp_path)
        out = tmp_path / "report.json"
        assert main(["report", str(root), "--format", "json",
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["campaigns"][0]["summary"] == result.summary()
        assert main(["report", str(tmp_path / "missing")]) == 2

    def test_bench_trend_gates_regressions(self, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location(
            "bench_trend",
            os.path.join(os.path.dirname(__file__), os.pardir,
                         "scripts", "bench_trend.py"),
        )
        bench_trend = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_trend)

        payload = {
            "benchmark": "campaign_throughput",
            "workloads": {"CP": {"configs": {"w1-diff": {
                "seconds": 0.1, "trials_per_sec": 100.0,
                "speedup_vs_serial_full": 10.0,
            }}}},
            "overhead": {"overhead": 0.01},
        }
        root = tmp_path
        bench = root / "BENCH_campaign.json"
        bench.write_text(json.dumps(payload))
        argv = ["--root", str(root)]
        assert bench_trend.main(argv + ["--record"]) == 0
        assert bench_trend.main(argv) == 0  # same payload: no regression

        worse = json.loads(bench.read_text())
        worse["workloads"]["CP"]["configs"]["w1-diff"]["trials_per_sec"] = 50.0
        worse["overhead"]["overhead"] = 0.5
        # absolute wall time shifting is environment, not regression
        worse["workloads"]["CP"]["configs"]["w1-diff"]["seconds"] = 9.9
        bench.write_text(json.dumps(worse))
        assert bench_trend.main(argv) == 1
        assert bench_trend.main(argv + ["--no-fail"]) == 0
        err = capsys.readouterr().err
        assert "trials_per_sec" in err and "overhead" in err
        assert "seconds" not in err

        history = (root / "bench_results" / "campaign.trend.jsonl")
        assert len(history.read_text().splitlines()) == 4  # every invocation

    def test_trace_aggregates_join(self, tmp_path):
        root, _specs, _result = _run_journaled(tmp_path)
        trace = tmp_path / "trace.jsonl"
        with open(trace, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "type": "span", "name": "swifi.campaign", "span_id": 1,
                "parent_id": None, "t_start": 0.0, "t_end": 1.5, "dur": 1.5,
                "attrs": {},
            }) + "\n")
            fh.write(json.dumps({
                "type": "event", "name": "swifi.heartbeat", "span_id": 1,
                "t": 0.5, "attrs": {},
            }) + "\n")
        report = build_report(str(root), trace=str(trace))
        assert report["trace"]["spans"]["swifi.campaign"]["count"] == 1
        assert report["trace"]["events"]["swifi.heartbeat"] == 1
        without = build_report(str(root), include_timing=False,
                               trace=str(trace))
        assert "trace" not in without
