"""``repro report`` — deterministic post-mortem of a journaled run.

A campaign run directory accumulates flight-recorder artifacts — the
trial journal (:mod:`repro.swifi.journal`), heartbeats and phase totals
(:mod:`repro.obs.progress` / :mod:`repro.obs.profile`), and optionally
a trace JSONL — but each answers only one question.  This module joins
them into one report an operator can read after the fact:

* **Outcome summary** per campaign, reconstructed from the journal in
  original spec order and matching ``CampaignResult.summary()``
  bit-for-bit (same tallies, same ratio arithmetic, same zero-trial
  guard).
* **Differential attribution**: how many trials were served by replay
  vs. the full path, broken down by fallback reason (from the
  journal's served-by tags, so a killed-and-resumed run reports the
  same attribution as an uninterrupted one).
* **Quarantine blame timeline**: every quarantined spec with its death
  count, retry round, and note.
* **Time-where-it-went**: per-phase wall-clock from ``profile.json``,
  heartbeat-derived wall time and throughput, and (with ``--trace``)
  span aggregates from a trace file.

Everything is deterministic: campaigns are ordered by fingerprint
directory, all maps are sorted, and no wall-clock timestamps are
stamped into the output — rerunning ``repro report`` on the same run
directory yields byte-identical bytes.  The timing section reflects
the *recorded* run (static files), so it is rerun-stable too; pass
``include_timing=False`` to compare runs that executed at different
speeds (e.g. resumed vs. uninterrupted).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InjectionError
from repro.obs.profile import split_phase_key
from repro.swifi.journal import CampaignJournal, JournalRecord, read_jsonl
from repro.swifi.outcomes import Outcome

REPORT_VERSION = 1


def _summarize_records(records: List[JournalRecord]) -> Dict[str, Any]:
    """``CampaignResult.summary()`` reconstructed from journal records.

    Mirrors the arithmetic exactly: integer tallies per outcome class,
    ``activation_ratio`` as mean of the activated flags over *executed*
    trials (quarantined ``WORKER_KILLED`` placeholders never observed
    activation and are excluded from the denominator, exactly as
    ``CampaignResult.activation_ratio`` excludes them), and every
    ratio 0.0 on a zero-trial campaign.
    """
    counts = {o.value: 0 for o in Outcome}
    activated = 0
    quarantined = 0
    for record in records:
        counts[record.outcome] = counts.get(record.outcome, 0) + 1
        if record.observation is None:
            quarantined += 1
        elif record.observation.activated:
            activated += 1
    total = len(records)
    executed = total - counts[Outcome.WORKER_KILLED.value]
    empty = not total
    undetected = counts[Outcome.UNDETECTED.value]
    sdc_ratio = undetected / total if total else 0.0
    return {
        "trials": total,
        "outcomes": counts,
        "activation_ratio": activated / executed if executed else 0.0,
        "coverage": 0.0 if empty else 1.0 - sdc_ratio,
        "sdc_ratio": sdc_ratio,
        "failure_ratio": counts[Outcome.FAILURE.value] / total if total else 0.0,
        "quarantined": quarantined,
    }


#: Two-sided 95% normal quantile (Acklam's rational approximation of
#: the inverse CDF at 0.975; report JSON is pinned to this value).
_Z95 = 1.959963986120195


def _wilson_interval(k: int, n: int) -> Tuple[float, float]:
    """95% Wilson score interval for ``k`` successes in ``n`` trials.

    Unlike the normal interval it never collapses to a point at
    ``k == 0`` or ``k == n``; ``n == 0`` returns the vacuous ``(0, 1)``.
    """
    if n <= 0:
        return 0.0, 1.0
    p = k / n
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2 * n)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def _section_table(records: List[JournalRecord]) -> Dict[str, Any]:
    """Per-section outcome rates with Wilson CIs, from section tags.

    Records without a section tag (pre-section journals, program-less
    campaigns) are grouped under ``"?"``; sections are reported in
    name order for determinism.  Quarantined placeholders are excluded
    from the rate denominators (operational, not fault-model).
    """
    killed = Outcome.WORKER_KILLED.value
    by_section: Dict[str, List[JournalRecord]] = {}
    for record in records:
        by_section.setdefault(record.section or "?", []).append(record)
    table: Dict[str, Any] = {}
    for section in sorted(by_section):
        group = [r for r in by_section[section] if r.outcome != killed]
        n = len(group)
        sdc = sum(1 for r in group if r.outcome == Outcome.UNDETECTED.value)
        failures = sum(1 for r in group if r.outcome == Outcome.FAILURE.value)
        detected = sum(
            1 for r in group
            if r.outcome in (Outcome.DETECTED.value,
                             Outcome.DETECTED_MASKED.value)
        )
        lo, hi = _wilson_interval(sdc, n)
        table[section] = {
            "trials": n,
            "sdc_ratio": sdc / n if n else 0.0,
            "sdc_ci": [round(lo, 6), round(hi, 6)],
            "failure_ratio": failures / n if n else 0.0,
            "detected_ratio": detected / n if n else 0.0,
        }
    return table


def _differential_attribution(records: List[JournalRecord]) -> Dict[str, Any]:
    """Replay-hit vs. fallback tallies from the journal's served tags,
    and where replayed victims started (``diff:<start>``)."""
    hits = 0
    fallbacks: Dict[str, int] = {}
    starts: Dict[str, int] = {}
    untagged = 0
    for record in records:
        tag = record.served
        if tag is None:
            untagged += 1
            continue
        served, _, reason = tag.partition(":")
        if served == "diff":
            hits += 1
            if reason:
                starts[reason] = starts.get(reason, 0) + 1
        else:
            reason = reason or served
            fallbacks[reason] = fallbacks.get(reason, 0) + 1
    return {
        "replay_hits": hits,
        "replay_starts": dict(sorted(starts.items())),
        "fallbacks": dict(sorted(fallbacks.items())),
        "untagged": untagged,
    }


def _quarantine_timeline(records: List[JournalRecord]) -> List[Dict[str, Any]]:
    """Quarantined specs in index order, with the evidence against them."""
    timeline = []
    for record in sorted(
        (r for r in records if r.observation is None), key=lambda r: r.index
    ):
        q = record.quarantine or {}
        timeline.append({
            "index": record.index,
            "spec": record.spec_fp,
            "deaths": int(q.get("deaths", 0)),
            "rounds": int(q.get("rounds", 0)),
            "note": str(q.get("note", "")),
        })
    return timeline


def _load_heartbeats(directory: Path) -> List[Dict[str, Any]]:
    path = directory / "heartbeats.jsonl"
    if not path.exists():
        return []
    # a torn or corrupt line is dropped, same tolerance as the journal
    return list(read_jsonl(path))


def _campaign_timing(directory: Path) -> Dict[str, Any]:
    """Timing facts recorded next to one campaign's journal."""
    timing: Dict[str, Any] = {}
    profile_path = directory / "profile.json"
    if profile_path.exists():
        try:
            profile = json.loads(profile_path.read_text(encoding="utf-8"))
        except ValueError:
            profile = None
        if isinstance(profile, dict) and isinstance(profile.get("phases"), dict):
            phases = {
                key: {
                    "count": int(value.get("count", 0)),
                    "seconds": round(float(value.get("seconds", 0.0)), 6),
                }
                for key, value in sorted(profile["phases"].items())
                if isinstance(value, dict)
            }
            timing["phases"] = phases
            timing["profiled_seconds"] = round(
                sum(p["seconds"] for p in phases.values()), 6
            )
    beats = _load_heartbeats(directory)
    if beats:
        last = beats[-1]
        timing["heartbeats"] = {
            "count": len(beats),
            "wall_seconds": last.get("elapsed", 0.0),
            "rate": last.get("rate", 0.0),
            "done": last.get("done", 0),
            "pids": sorted({b.get("pid", 0) for b in beats}),
        }
    return timing


def _trace_aggregates(trace_path: str) -> Dict[str, Any]:
    """Per-name span durations and event counts from a trace JSONL; a
    forked worker's ``swifi.worker.trace`` record counts as its own."""
    spans: Dict[str, List[float]] = {}
    events: Dict[str, int] = {}
    for record in read_jsonl(Path(trace_path)):
        if record.get("name") == "swifi.worker.trace":
            record = record.get("attrs", {}).get("record", {})
        name = record.get("name", "")
        if record.get("type") == "span":
            slot = spans.setdefault(name, [0.0, 0.0])
            slot[0] += 1
            slot[1] += float(record.get("dur", 0.0))
        elif record.get("type") == "event":
            events[name] = events.get(name, 0) + 1
    return {
        "spans": {
            name: {"count": int(count), "seconds": round(seconds, 6)}
            for name, (count, seconds) in sorted(spans.items())
        },
        "events": dict(sorted(events.items())),
    }


def build_report(
    run_dir: str,
    *,
    include_timing: bool = True,
    trace: Optional[str] = None,
) -> Dict[str, Any]:
    """The joined post-mortem for every campaign journaled under ``run_dir``.

    Deterministic: same run directory (and same ``trace`` file) in,
    byte-identical JSON out.  With ``include_timing=False`` the report
    contains only execution-speed-independent facts, so a
    killed-and-resumed run reports identically to an uninterrupted one.
    """
    root = Path(run_dir)
    if not root.is_dir():
        raise InjectionError(f"run directory not found: {run_dir}")
    campaigns: List[Dict[str, Any]] = []
    for directory in sorted(p for p in root.iterdir() if p.is_dir()):
        meta_path = directory / "meta.json"
        journal_path = directory / "journal.jsonl"
        if not meta_path.exists() or not journal_path.exists():
            continue
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except ValueError:
            continue
        if not isinstance(meta, dict):
            continue
        components = meta.get("components", {})
        records = sorted(
            CampaignJournal._load_records(journal_path).values(),
            key=lambda r: r.index,
        )
        planned = int(components.get("n_specs", 0))
        entry: Dict[str, Any] = {
            "id": directory.name,
            "fingerprint": meta.get("fingerprint", ""),
            "workload": components.get("workload", ""),
            "mode": components.get("mode", ""),
            "seed": components.get("seed", 0),
            "planned_trials": planned,
            "journaled_trials": len(records),
            "complete": len(records) == planned,
            "summary": _summarize_records(records),
            "differential": _differential_attribution(records),
            "quarantine": _quarantine_timeline(records),
        }
        if any(r.section is not None for r in records):
            entry["sections"] = _section_table(records)
        if include_timing:
            entry["timing"] = _campaign_timing(directory)
        campaigns.append(entry)
    if not campaigns:
        raise InjectionError(
            f"no campaign journals found under {run_dir} (expected "
            f"<fingerprint>/meta.json + journal.jsonl subdirectories)"
        )
    report: Dict[str, Any] = {
        "version": REPORT_VERSION,
        "run_dir": str(run_dir),
        "campaigns": campaigns,
    }
    if include_timing and trace is not None:
        report["trace"] = _trace_aggregates(trace)
    return report


# -- rendering -------------------------------------------------------------


def render_json(report: Dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _md_table(headers: List[str], rows: List[List[Any]]) -> List[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


def render_markdown(report: Dict[str, Any]) -> str:
    """Human-readable rendering; same data, same determinism."""
    out: List[str] = [f"# Campaign report — `{report['run_dir']}`", ""]
    for campaign in report["campaigns"]:
        summary = campaign["summary"]
        out.append(
            f"## {campaign['workload']} · mode `{campaign['mode']}` · "
            f"seed {campaign['seed']} (`{campaign['id']}`)"
        )
        out.append("")
        completeness = "complete" if campaign["complete"] else "INCOMPLETE"
        out.append(
            f"{campaign['journaled_trials']}/{campaign['planned_trials']} "
            f"trials journaled ({completeness})."
        )
        out.append("")
        out.append("### Outcomes")
        out.append("")
        out.extend(_md_table(
            ["outcome", "count"],
            [[name, count]
             for name, count in summary["outcomes"].items() if count],
        ))
        out.append("")
        out.extend([
            f"- activation ratio: {summary['activation_ratio']:.4f}",
            f"- coverage: {summary['coverage']:.4f}",
            f"- SDC ratio: {summary['sdc_ratio']:.4f}",
            f"- failure ratio: {summary['failure_ratio']:.4f}",
            f"- quarantined: {summary['quarantined']}",
            "",
        ])
        sections = campaign.get("sections")
        if sections:
            out.append("### Sections")
            out.append("")
            out.extend(_md_table(
                ["section", "trials", "SDC ratio", "CI",
                 "failure ratio", "detected ratio"],
                [[name, s["trials"], f"{s['sdc_ratio']:.4f}",
                  f"[{s['sdc_ci'][0]:.4f}, {s['sdc_ci'][1]:.4f}]",
                  f"{s['failure_ratio']:.4f}", f"{s['detected_ratio']:.4f}"]
                 for name, s in sections.items()],
            ))
            out.append("")
        diff = campaign["differential"]
        out.append("### Differential attribution")
        out.append("")
        rows: List[List[Any]] = [["replay hit", diff["replay_hits"]]]
        rows += [[f"replay hit ({start})", count]
                 for start, count in diff["replay_starts"].items()]
        rows += [[f"full ({reason})", count]
                 for reason, count in diff["fallbacks"].items()]
        if diff["untagged"]:
            rows.append(["untagged", diff["untagged"]])
        out.extend(_md_table(["served by", "trials"], rows))
        out.append("")
        if campaign["quarantine"]:
            out.append("### Quarantine timeline")
            out.append("")
            out.extend(_md_table(
                ["index", "spec", "deaths", "round", "note"],
                [[q["index"], q["spec"], q["deaths"], q["rounds"], q["note"]]
                 for q in campaign["quarantine"]],
            ))
            out.append("")
        timing = campaign.get("timing") or {}
        if timing.get("phases"):
            out.append("### Time where it went")
            out.append("")
            out.extend(_md_table(
                ["phase", "reason", "count", "seconds"],
                [[*split_phase_key(key), value["count"],
                  f"{value['seconds']:.4f}"]
                 for key, value in timing["phases"].items()],
            ))
            out.append(
                f"\nprofiled total: {timing.get('profiled_seconds', 0.0):.4f}s"
            )
            out.append("")
        if timing.get("heartbeats"):
            hb = timing["heartbeats"]
            out.append(
                f"heartbeats: {hb['count']} beats, {hb['wall_seconds']:.2f}s "
                f"wall, {hb['rate']:.1f} trials/s, pids {hb['pids']}"
            )
            out.append("")
    trace = report.get("trace")
    if trace:
        out.append("## Trace aggregates")
        out.append("")
        out.extend(_md_table(
            ["span", "count", "seconds"],
            [[name, value["count"], f"{value['seconds']:.4f}"]
             for name, value in trace["spans"].items()],
        ))
        out.append("")
        out.extend(_md_table(
            ["event", "count"],
            [[name, count] for name, count in trace["events"].items()],
        ))
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"
