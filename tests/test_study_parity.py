"""``scripts/study_parity.py``: its table comparison, and a planted
mutant that the killed-and-resumed way must catch."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from repro.swifi.journal import _digest

_SPEC = importlib.util.spec_from_file_location(
    "study_parity", Path(__file__).resolve().parent.parent / "scripts" / "study_parity.py")
study_parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(study_parity)

TIMING = "section-ix-d-instrumentation-time.json"


def _write(directory: Path, name: str, table: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(json.dumps(table))


def _table(ft_build: str, loops: int) -> dict:
    return {"title": "t", "headers": ["benchmark", "FT build", "loop detectors"],
            "rows": [["CP", ft_build, loops]]}


class TestCompare:
    def test_only_the_named_wall_clock_cells_may_differ(self, tmp_path):
        _write(tmp_path / "a", TIMING, _table("3.1ms", 1))
        _write(tmp_path / "b", TIMING, _table("4.7ms", 1))
        _write(tmp_path / "c", TIMING, _table("3.1ms", 2))
        assert study_parity.compare(tmp_path / "a", tmp_path / "b") == []
        assert study_parity.compare(tmp_path / "a", tmp_path / "c") == [f"{TIMING} differs"]

    def test_a_cell_of_another_table_is_compared(self, tmp_path):
        _write(tmp_path / "a", "fig.json", _table("3.1ms", 1))
        _write(tmp_path / "b", "fig.json", _table("4.7ms", 1))
        assert study_parity.compare(tmp_path / "a", tmp_path / "b") == ["fig.json differs"]

    def test_a_missing_table_differs(self, tmp_path):
        _write(tmp_path / "a", "fig.json", _table("3.1ms", 1))
        _write(tmp_path / "a", TIMING, _table("3.1ms", 1))
        _write(tmp_path / "b", "fig.json", _table("3.1ms", 1))
        assert study_parity.compare(tmp_path / "a", tmp_path / "b")


def _replay_a_wrong_outcome(root: Path) -> None:
    """The mutant: the resume replays one journal line as another trial's
    (a failure, its digest resealed, so the journal accepts it)."""
    path = sorted(root.glob("*/journal.jsonl"))[0]
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    assert record["outcome"] != "failure"
    record["outcome"] = "failure"
    record["obs"].update(failure=True, detected=False, output_ok=False, note="kernel hang")
    body = {k: record[k] for k in ("i", "spec", "outcome", "obs", "q", "sv", "sec")
            if k in record}
    record["dg"] = _digest(body)[:12]
    lines[0] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


def test_killed_and_resumed_way_catches_a_replayed_journal_line_changed(tmp_path, monkeypatch):
    monkeypatch.setattr(study_parity, "KILL_AFTER", 6)
    study = ["run", "sec9c", "--scale", "smoke"]
    study_parity._run(study + ["--json-dir", str(tmp_path / "default")])
    study_parity.killed_and_resumed(study, tmp_path / "honest", tmp_path / "resumed")
    assert study_parity.compare(tmp_path / "default", tmp_path / "resumed") == []
    study_parity.killed_and_resumed(study, tmp_path / "mutant", tmp_path / "mutated",
                                    doctor=_replay_a_wrong_outcome)
    assert study_parity.compare(tmp_path / "default", tmp_path / "mutated")
