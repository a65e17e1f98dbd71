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

import io
import json

import numpy as np
import pytest

from repro.core.program import HauberkProgram
from repro.obs import JsonlSink, RingBufferSink, Tracer, use_tracer
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
from repro.obs.report import (
    _wilson_interval, build_report, render_json, render_markdown,
)
from repro.swifi import (
    CampaignJournal, CampaignOptions, FaultSpec, build_fault_specs,
    enumerate_targets, run_campaign, select_targets,
)
from repro.swifi.journal import spec_fingerprint
from repro.workloads import get_workload
from repro.workloads.base import _PARSE_CACHE

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

    def test_totals_count_only_rows_since_creation(self, registry):
        earlier = PhaseProfiler()
        earlier.add("merge", 1.0)
        prof = PhaseProfiler()
        prof.add("merge", 2.0)
        prof.add("merge", 0.5)
        assert earlier.totals["merge"] == [3, 3.5]
        assert prof.totals == {"merge": [2, 2.5]}
        assert prof.snapshot() == {"merge": {"count": 2, "seconds": 2.5}}

    @needs_fork
    def test_forked_worker_phases_reach_profile_through_metrics(
            self, tmp_path, fix_chunk_size):
        # the parent runs no trial itself: every diff_replay/full_run
        # in profile.json came over in a worker's metrics delta (each
        # trial tries a replay first; a conflict then runs in full)
        wl, specs = _tiny_specs(masks_per_site=1)
        root = tmp_path / "runs"
        fix_chunk_size(2)
        run_campaign(
            HauberkProgram(wl), specs, mode="fi",
            options=CampaignOptions(
                workers=2, run_dir=str(root), profile=True
            ),
        )
        (entry,) = [d for d in root.iterdir() if d.is_dir()]
        phases = json.loads((entry / "profile.json").read_text())["phases"]
        records = CampaignJournal._load_records(entry / "journal.jsonl")
        assert phases[PHASE_DIFF_REPLAY]["count"] == len(specs)
        assert sum(v["count"] for k, v in phases.items()
                   if k.startswith(PHASE_FULL_RUN)) == \
            sum(r.served.startswith("full") for r in records.values())

    def test_use_profiler_scopes_and_restores(self):
        before = get_profiler()
        prof = PhaseProfiler()
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

    @pytest.mark.parametrize("name, differential, tag", [
        ("CP", False, "full:differential_off"),
        ("TPACF", True, "full:uses_sync"),
        ("CP-pointer", True, "full:replay_conflict"),
    ])
    def test_served_tags_name_each_full_run_reason(self, tmp_path, name,
                                                   differential, tag):
        wl = get_workload(name.split("-")[0])
        if name == "CP-pointer":
            # a low-bit flip of CP's second pointer redirects thread 0's
            # accesses onto words other threads touch: the replay
            # conflicts and the trial runs in full
            ptr = [s for s in enumerate_targets(wl.kernel)
                   if s.dtype.is_pointer][1]
            specs = [FaultSpec(site=ptr.site, mask=1 << 1, thread=0,
                               timing="delayed")]
        else:
            specs = build_fault_specs(
                select_targets(wl.kernel, 2, np.random.default_rng(0)),
                n_threads=wl.generate_input(0).n_threads, masks_per_site=1,
                bit_counts=(1,), seed=1,
            )
        root = tmp_path / "runs"
        run_campaign(
            HauberkProgram(wl), specs, mode="fi",
            options=CampaignOptions(
                run_dir=str(root), profile=True, differential=differential
            ),
        )
        (entry,) = [d for d in root.iterdir() if d.is_dir()]
        records = CampaignJournal._load_records(entry / "journal.jsonl")
        assert {r.served for r in records.values()} == {tag}

    @needs_fork
    def test_pooled_profile_merges_worker_phase_totals(self, tmp_path,
                                                       fix_chunk_size):
        wl, specs = _tiny_specs()
        root = tmp_path / "runs"
        fix_chunk_size(3)
        result = run_campaign(
            HauberkProgram(wl), specs, mode="fi",
            options=CampaignOptions(
                workers=2, run_dir=str(root), profile=True
            ),
        )
        (entry,) = [d for d in root.iterdir() if d.is_dir()]
        beats = [json.loads(line) for line in
                 (entry / "heartbeats.jsonl").read_text().splitlines()]
        assert beats[-1]["done"] == len(specs)
        assert any(b["source"] == "chunk" for b in beats)
        solo_root = tmp_path / "solo"
        serial = run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(run_dir=str(solo_root), profile=True),
        )
        _assert_identical(serial, result)
        # every phase count is the same fact whichever worker kind ran it
        assert _phase_counts(entry) == _phase_counts(
            next(d for d in solo_root.iterdir() if d.is_dir())
        )

    @needs_fork
    def test_pooled_trace_has_one_profile_trial_per_trial(self, tmp_path,
                                                          fix_chunk_size):
        _wl, specs = _tiny_specs(masks_per_site=1)
        fix_chunk_size(2)
        for workers in (1, 2):
            sink = RingBufferSink(capacity=100_000)
            with use_tracer(Tracer(sink)):
                run_campaign(
                    HauberkProgram(TinyWorkload()), specs, mode="fi",
                    options=CampaignOptions(workers=workers, profile=True),
                )
            trials = [r["attrs"] for r in sink.records
                      if r["type"] == "event" and r["name"] == "profile.trial"]
            assert sorted(t["index"] for t in trials) == \
                list(range(len(specs)))
            assert all(t["served"] for t in trials)
            wrapped = [r["attrs"]["record"] for r in sink.records
                       if r["name"] == "swifi.worker.trace"]
            assert not any(r["name"] == "profile.trial" for r in wrapped)


def _phase_counts(entry):
    phases = json.loads((entry / "profile.json").read_text())["phases"]
    return {key: value["count"] for key, value in phases.items()}


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

    @needs_fork
    def test_trace_counts_match_for_any_worker_count(self, tmp_path,
                                                     fix_chunk_size):
        counts = []
        fix_chunk_size(2)
        for workers in (1, 2):
            _PARSE_CACHE.clear()  # both runs build the kernel afresh
            trace = tmp_path / f"trace-{workers}.jsonl"
            tracer = Tracer(JsonlSink(str(trace)))
            with use_tracer(tracer):
                root, _specs, _ = _run_journaled(
                    tmp_path, name=f"w{workers}", workers=workers,
                )
            tracer.close()
            aggregates = build_report(str(root), trace=str(trace))["trace"]
            # heartbeats are time-throttled, so their count is not a fact
            aggregates["events"].pop("swifi.heartbeat", None)
            spans = {name: span["count"]
                     for name, span in aggregates["spans"].items()}
            counts.append((spans, aggregates["events"]))
        assert counts[0] == counts[1]
        assert "swifi.worker.trace" not in counts[1][1]

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
                        "### Sections",
                        "### Differential attribution",
                        "### Time where it went"):
            assert heading in text

    def test_section_table_partitions_journaled_trials(self, tmp_path):
        root, _specs, _result = _run_journaled(tmp_path)
        (campaign,) = build_report(str(root))["campaigns"]
        sections = campaign["sections"]
        assert sum(s["trials"] for s in sections.values()) == \
            campaign["journaled_trials"]
        for s in sections.values():
            lo, hi = s["sdc_ci"]
            assert lo <= s["sdc_ratio"] <= hi

    def test_wilson_contains_point_estimate(self):
        for k, n in [(0, 10), (3, 10), (10, 10), (1, 1)]:
            lo, hi = _wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0
            assert hi - lo > 0.0  # never a point interval

    def test_wilson_vacuous_on_empty(self):
        assert _wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_narrows_with_n(self):
        lo1, hi1 = _wilson_interval(5, 10)
        lo2, hi2 = _wilson_interval(500, 1000)
        assert hi2 - lo2 < hi1 - lo1

    def test_cli_report_roundtrip(self, tmp_path, capsys):
        from repro.__main__ import main

        root, _specs, result = _run_journaled(tmp_path)
        out = tmp_path / "report.json"
        assert main(["report", str(root), "--format", "json",
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["campaigns"][0]["summary"] == result.summary()
        assert main(["report", str(tmp_path / "missing")]) == 2

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
