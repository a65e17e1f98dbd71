"""Repository self-consistency: docs, examples, and benches stay in sync."""

import pathlib
import re


ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestInventory:
    def test_all_examples_exist_and_have_docstrings(self):
        examples = sorted((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3  # deliverable: at least three
        names = {e.name for e in examples}
        assert "quickstart.py" in names
        for e in examples:
            head = e.read_text().lstrip()
            assert head.startswith(('"""', "#!")), e.name

    def test_every_figure_has_a_bench(self):
        benches = {p.name for p in (ROOT / "benchmarks").glob("test_*.py")}
        for needed in (
            "test_fig01_sensitivity.py",
            "test_fig02_memory.py",
            "test_fig03_graphics_faults.py",
            "test_fig04_loop_time.py",
            "test_fig09_dependency.py",
            "test_fig10_value_ranges.py",
            "test_fig13_overhead.py",
            "test_fig14_coverage.py",
            "test_fig15_bitflip_magnitude.py",
            "test_fig16_false_positives.py",
            "test_sec9c_alpha_coverage.py",
            "test_sec9d_instrumentation.py",
            "test_ablations.py",
        ):
            assert needed in benches, needed

    def test_readme_mentions_real_files(self):
        readme = (ROOT / "README.md").read_text()
        for path in re.findall(r"`examples/([a-z_]+\.py)`", readme):
            assert (ROOT / "examples" / path).exists(), path

    def test_named_checks_exist(self):
        """Every test, benchmark or script file and every ``BENCH_*.json``
        that CI or a document names is there: a deleted check leaves no
        dangling step or citation."""
        named = re.compile(
            r"(?<![\w/.-])((?:benchmarks|scripts|tests)/[\w./-]*\w|BENCH_\w+\.json)")
        missing = []
        for doc in (ROOT / ".github" / "workflows" / "ci.yml",
                    ROOT / "README.md", ROOT / "EXPERIMENTS.md",
                    ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md")),
                    ROOT / ".claude" / "skills" / "verify" / "SKILL.md"):
            for path in named.findall(doc.read_text()):
                if not (ROOT / path).exists():
                    missing.append(f"{doc.relative_to(ROOT)}: {path}")
        assert not missing, missing

    def test_docs_exist(self):
        for doc in ("architecture.md", "kir-language.md", "fault-model.md",
                    "detectors.md"):
            assert (ROOT / "docs" / doc).exists(), doc

    def test_design_and_experiments_exist(self):
        for f in ("DESIGN.md", "EXPERIMENTS.md", "README.md"):
            text = (ROOT / f).read_text()
            assert len(text) > 1000, f

    def test_cli_experiments_match_design_index(self):
        from repro.__main__ import _experiments

        design = (ROOT / "DESIGN.md").read_text().lower()
        for name in _experiments():
            assert name[:3] in ("fig", "sec")
        assert "test_fig14_coverage.py" in design

    def test_module_docstrings_everywhere(self):
        missing = []
        for path in (ROOT / "src").rglob("*.py"):
            text = path.read_text().lstrip()
            if not text:
                continue
            if not text.startswith(('"""', "'''")):
                missing.append(str(path.relative_to(ROOT)))
        assert not missing, missing

    def test_no_randomized_hash_seeding(self):
        """str hash() is randomized per process; seeds must never use it
        (regression guard for the fig01 reproducibility bug)."""
        for path in (ROOT / "src").rglob("*.py"):
            text = path.read_text()
            assert "hash(" not in text, path
