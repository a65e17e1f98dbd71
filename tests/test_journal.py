"""Durable journal and resume tests: crash-tolerant campaign state.

The contract under test (``repro.swifi.journal`` + ``run_campaign``):
every classified trial is durably journaled the moment it exists, and a
campaign killed mid-run and resumed with ``CampaignOptions(resume=dir)``
produces a :class:`CampaignResult` bit-identical to an uninterrupted
run — for any worker count and with differential replay on or off.
Interruption is simulated by truncating the journal to a prefix, which
is exactly the state a ``SIGKILL`` leaves behind (plus, in the torn-tail
tests, half a record).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.program import HauberkProgram
from repro.errors import InjectionError
from repro.exec import RetryPolicy, fork_available
from repro.obs.report import build_report
from repro.swifi import (
    CampaignJournal,
    CampaignOptions,
    FaultSpec,
    Outcome,
    campaign_fingerprint,
    run_campaign,
    spec_fingerprint,
)
from repro.swifi.campaign import TrialObservation

from test_parallel_campaign import TinyWorkload, _tiny_specs

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)

FAST_RETRY = RetryPolicy(max_deaths=2)


def _journal_path(root) -> str:
    (entry,) = [d for d in os.listdir(root)
                if os.path.isdir(os.path.join(root, d))]
    return os.path.join(root, entry, "journal.jsonl")


def _truncate_journal(root, keep: int) -> None:
    """Keep the first ``keep`` records — the state a kill leaves behind."""
    path = _journal_path(root)
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:keep])


def _assert_identical(a, b):
    assert a.summary() == b.summary()
    assert [t.outcome for t in a.trials] == [t.outcome for t in b.trials]
    assert [t.observation for t in a.trials] == \
        [t.observation for t in b.trials]
    assert [t.spec for t in a.trials] == [t.spec for t in b.trials]


# -- fingerprints ---------------------------------------------------------


class TestFingerprints:
    def test_spec_fingerprint_stable_and_sensitive(self):
        spec = FaultSpec(site=3, mask=5, thread=1, occurrence=2)
        assert spec_fingerprint(spec) == spec_fingerprint(spec)
        other = FaultSpec(site=3, mask=5, thread=1, occurrence=3)
        assert spec_fingerprint(spec) != spec_fingerprint(other)

    def test_campaign_fingerprint_covers_plan_and_seed(self):
        wl, specs = _tiny_specs()
        prog = HauberkProgram(wl)
        fp1, meta = campaign_fingerprint(prog, specs, "fi", 0)
        fp2, _ = campaign_fingerprint(HauberkProgram(TinyWorkload()),
                                      specs, "fi", 0)
        assert fp1 == fp2  # same ingredients, same fingerprint
        assert meta["components"]["workload"] == "TINY"
        fp3, _ = campaign_fingerprint(prog, specs, "fi", 1)
        assert fp3 != fp1  # seed participates
        fp4, _ = campaign_fingerprint(prog, specs[:-1], "fi", 0)
        assert fp4 != fp1  # plan participates

    def test_campaign_fingerprint_is_pinned(self):
        # a changed fingerprint orphans every existing run dir, so the
        # digest of a fixed plan is pinned to its literal value
        wl, specs = _tiny_specs()
        fp, meta = campaign_fingerprint(HauberkProgram(wl), specs, "fi", 0)
        assert fp == ("076ba3aac0a366c58113d85342e710d1"
                      "6191fef7259d5b41322a76da02c80847")
        assert "backing" not in meta

    def test_meta_with_backing_block_resumes(self, tmp_path):
        """A run dir whose ``meta.json`` still carries the retired
        ``backing`` descriptor resumes: only the fingerprint is read."""
        wl, specs = _tiny_specs(masks_per_site=1)
        root = str(tmp_path / "runs")
        opts = CampaignOptions(workers=1, differential=False)
        first = run_campaign(HauberkProgram(wl), specs, mode="fi",
                             options=opts.evolve(run_dir=root))
        meta_path = os.path.join(os.path.dirname(_journal_path(root)),
                                 "meta.json")
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        meta["backing"] = {"capacity_words": 1 << 20,
                           "memory": "GlobalMemory"}
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)

        def exploding_factory():
            def runner(spec):
                raise AssertionError("resume should not execute trials")

            return runner

        prog = HauberkProgram(TinyWorkload())
        prog.trial_runner = lambda mode, seed: exploding_factory()
        resumed = run_campaign(prog, specs, mode="fi",
                               options=opts.evolve(resume=root))
        _assert_identical(resumed, first)

    def test_runner_campaigns_fingerprint_plan_only(self):
        specs = [FaultSpec(site=1, mask=1, thread=0, occurrence=1)]
        fp, meta = campaign_fingerprint(None, specs, "fi", 0)
        assert meta["components"]["workload"] == "<runner>"
        assert fp


# -- journal mechanics ----------------------------------------------------


class TestJournalMechanics:
    def test_campaign_writes_one_record_per_trial(self, tmp_path):
        wl, specs = _tiny_specs(masks_per_site=1)
        root = str(tmp_path / "runs")
        run_campaign(HauberkProgram(wl), specs, mode="fi",
                     options=CampaignOptions(workers=1, run_dir=root))
        with open(_journal_path(root), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert len(records) == len(specs)
        assert sorted(r["i"] for r in records) == list(range(len(specs)))
        assert all(r["dg"] for r in records)

    def test_meta_json_written(self, tmp_path):
        wl, specs = _tiny_specs(masks_per_site=1)
        root = str(tmp_path / "runs")
        run_campaign(HauberkProgram(wl), specs, mode="fi",
                     options=CampaignOptions(workers=1, run_dir=root))
        meta_path = os.path.join(os.path.dirname(_journal_path(root)),
                                 "meta.json")
        meta = json.loads(open(meta_path, encoding="utf-8").read())
        fp, _ = campaign_fingerprint(
            HauberkProgram(TinyWorkload()), specs, "fi", 0
        )
        assert meta["fingerprint"] == fp

    def test_run_dir_without_resume_truncates(self, tmp_path):
        wl, specs = _tiny_specs(masks_per_site=1)
        root = str(tmp_path / "runs")
        options = CampaignOptions(workers=1, run_dir=root)
        run_campaign(HauberkProgram(wl), specs, mode="fi", options=options)
        run_campaign(HauberkProgram(TinyWorkload()), specs, mode="fi",
                     options=options)
        with open(_journal_path(root), encoding="utf-8") as fh:
            assert len(fh.readlines()) == len(specs)  # not doubled

    def test_fingerprint_mismatch_raises(self, tmp_path):
        directory = tmp_path / "runs" / "feedfeedfeedfeed"
        directory.mkdir(parents=True)
        (directory / "meta.json").write_text(
            json.dumps({"fingerprint": "something-else"}), encoding="utf-8"
        )
        with pytest.raises(InjectionError, match="fingerprint mismatch"):
            CampaignJournal.open(
                str(tmp_path / "runs"), "feedfeedfeedfeed" + "0" * 48,
                {"fingerprint": "x"}, resume=True,
            )

    def test_meta_that_is_not_an_object_raises(self, tmp_path):
        directory = tmp_path / "runs" / "feedfeedfeedfeed"
        directory.mkdir(parents=True)
        (directory / "meta.json").write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(InjectionError, match="not a JSON object"):
            CampaignJournal.open(
                str(tmp_path / "runs"), "feedfeedfeedfeed" + "0" * 48,
                {"fingerprint": "x"}, resume=True,
            )

    def test_undecodable_line_is_dropped(self, tmp_path):
        wl, specs = _tiny_specs(masks_per_site=1)
        root = str(tmp_path / "runs")
        run_campaign(HauberkProgram(wl), specs, mode="fi",
                     options=CampaignOptions(workers=1, run_dir=root))
        path = _journal_path(root)
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[10] ^= 0x80  # a high bit: the first line is no longer UTF-8
        with open(path, "wb") as fh:
            fh.write(data)
        with open(os.path.join(os.path.dirname(path), "heartbeats.jsonl"),
                  "ab") as fh:
            fh.write(b"\xff\xfe{}\n")
        build_report(root)  # the report skips both bad lines too
        resumed = run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(workers=1, resume=root),
        )
        baseline = run_campaign(HauberkProgram(TinyWorkload()), specs,
                                mode="fi", options=CampaignOptions(workers=1))
        _assert_identical(resumed, baseline)

    def test_torn_tail_line_is_dropped(self, tmp_path):
        wl, specs = _tiny_specs(masks_per_site=1)
        root = str(tmp_path / "runs")
        run_campaign(HauberkProgram(wl), specs, mode="fi",
                     options=CampaignOptions(workers=1, run_dir=root))
        path = _journal_path(root)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        # a kill mid-write leaves half a record; a flipped byte leaves a
        # syntactically valid record with a digest mismatch
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:3])
            fh.write(lines[3][: len(lines[3]) // 2])
        resumed = run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(workers=1, resume=root),
        )
        baseline = run_campaign(HauberkProgram(TinyWorkload()), specs,
                                mode="fi", options=CampaignOptions(workers=1))
        _assert_identical(resumed, baseline)

    def test_digest_mismatch_line_is_dropped(self, tmp_path):
        wl, specs = _tiny_specs(masks_per_site=1)
        root = str(tmp_path / "runs")
        run_campaign(HauberkProgram(wl), specs, mode="fi",
                     options=CampaignOptions(workers=1, run_dir=root))
        path = _journal_path(root)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        corrupted = json.loads(lines[0])
        corrupted["outcome"] = "masked" \
            if corrupted["outcome"] != "masked" else "undetected"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(corrupted) + "\n")
            fh.writelines(lines[1:])
        resumed = run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(workers=1, resume=root),
        )
        baseline = run_campaign(HauberkProgram(TinyWorkload()), specs,
                                mode="fi", options=CampaignOptions(workers=1))
        _assert_identical(resumed, baseline)  # record re-executed, not trusted


# -- kill/resume parity ---------------------------------------------------


class TestResumeParity:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("differential", [False, True])
    def test_killed_and_resumed_equals_uninterrupted(
        self, tmp_path, workers, differential
    ):
        if workers > 1 and not fork_available():
            pytest.skip("requires the fork start method")
        wl, specs = _tiny_specs()
        baseline = run_campaign(
            HauberkProgram(wl), specs, mode="fi",
            options=CampaignOptions(workers=workers,
                                    differential=differential),
        )
        root = str(tmp_path / "runs")
        run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(workers=workers,
                                    differential=differential, run_dir=root),
        )
        _truncate_journal(root, keep=len(specs) // 2)  # the "kill"
        resumed = run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(workers=workers,
                                    differential=differential, resume=root),
        )
        _assert_identical(resumed, baseline)

    def test_resume_skips_journaled_trials(self, tmp_path):
        specs = [FaultSpec(site=s, mask=1, thread=0, occurrence=1)
                 for s in range(6)]
        root = str(tmp_path / "runs")
        executed = []

        def factory():
            def runner(spec):
                executed.append(spec.site)
                return TrialObservation(
                    failure=False, detected=False, output_ok=True,
                    activated=True,
                )

            return runner

        run_campaign(None, specs, runner_factory=factory,
                     options=CampaignOptions(workers=1, run_dir=root))
        assert executed == list(range(6))
        _truncate_journal(root, keep=4)
        executed.clear()
        resumed = run_campaign(None, specs, runner_factory=factory,
                               options=CampaignOptions(workers=1, resume=root))
        assert executed == [4, 5]  # journaled prefix replayed, not re-run
        assert resumed.summary()["trials"] == 6

    def test_fully_journaled_resume_executes_nothing(self, tmp_path):
        specs = [FaultSpec(site=s, mask=1, thread=0, occurrence=1)
                 for s in range(4)]
        root = str(tmp_path / "runs")

        def factory():
            def runner(spec):
                return TrialObservation(
                    failure=False, detected=True, output_ok=False,
                    activated=True,
                )

            return runner

        first = run_campaign(None, specs, runner_factory=factory,
                             options=CampaignOptions(workers=1, run_dir=root))

        def exploding_factory():
            def runner(spec):
                raise AssertionError("resume should not execute trials")

            return runner

        resumed = run_campaign(
            None, specs, runner_factory=exploding_factory,
            options=CampaignOptions(workers=1, resume=root),
        )
        _assert_identical(resumed, first)

    @needs_fork
    def test_quarantine_records_replay_on_resume(self, tmp_path,
                                                 fix_chunk_size):
        import test_retry

        specs = [FaultSpec(site=s, mask=1, thread=0, occurrence=1)
                 for s in (1, 666, 3)]
        root = str(tmp_path / "runs")
        fix_chunk_size(1)
        first = run_campaign(
            None, specs,
            runner_factory=test_retry._selective_crash_factory,
            options=CampaignOptions(workers=2, retry=FAST_RETRY,
                                    run_dir=root),
        )
        assert first.summary()["quarantined"] == 1

        def healthy_factory():
            def runner(spec):
                raise AssertionError("resume should not execute trials")

            return runner

        resumed = run_campaign(
            None, specs, runner_factory=healthy_factory,
            options=CampaignOptions(workers=2, retry=FAST_RETRY,
                                    resume=root),
        )
        _assert_identical(resumed, first)
        assert resumed.trials[1].outcome is Outcome.WORKER_KILLED
        assert resumed.quarantined[0].index == 1
        assert resumed.quarantined[0].deaths == first.quarantined[0].deaths

    @needs_fork
    def test_resume_across_worker_counts(self, tmp_path):
        # journal written by a serial run, resumed by a pooled one
        wl, specs = _tiny_specs()
        baseline = run_campaign(HauberkProgram(wl), specs, mode="fi",
                                options=CampaignOptions(workers=1))
        root = str(tmp_path / "runs")
        run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(workers=1, run_dir=root),
        )
        _truncate_journal(root, keep=len(specs) - 3)
        resumed = run_campaign(
            HauberkProgram(TinyWorkload()), specs, mode="fi",
            options=CampaignOptions(workers=4, resume=root),
        )
        _assert_identical(resumed, baseline)

    def test_resume_journal_becomes_complete(self, tmp_path):
        wl, specs = _tiny_specs(masks_per_site=1)
        root = str(tmp_path / "runs")
        run_campaign(HauberkProgram(wl), specs, mode="fi",
                     options=CampaignOptions(workers=1, run_dir=root))
        _truncate_journal(root, keep=2)
        run_campaign(HauberkProgram(TinyWorkload()), specs, mode="fi",
                     options=CampaignOptions(workers=1, resume=root))
        with open(_journal_path(root), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        # the resumed run appended exactly the missing records
        assert sorted(r["i"] for r in records) == list(range(len(specs)))


# -- section tags; no cross-campaign adoption ------------------------------


TWO_CHAIN_SRC = """
kernel two(float* a, float* b, float* oa, float* ob) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    float x = a[tid] * 2.0;
    oa[tid] = x;
    __syncthreads();
    int ujd = blockIdx.x * blockDim.x + threadIdx.x;
    float y = b[ujd] + 1.0;
    ob[ujd] = y;
}
"""

_TC_N = 4


class TwoChainWorkload(TinyWorkload.__bases__[0]):
    """Two dataflow-independent chains (a->oa, b->ob) behind a barrier."""

    name = "TWOCHAIN"
    source = TWO_CHAIN_SRC
    offset = 1.0

    def generate_input(self, seed: int = 0):
        import numpy as np

        from repro.kir.types import DType
        from repro.workloads.base import BufferSpec, WorkloadInput

        rng = np.random.default_rng(seed + 7)
        a = rng.uniform(0.5, 2.0, _TC_N).astype(np.float32)
        b = rng.uniform(0.5, 2.0, _TC_N).astype(np.float32)
        return WorkloadInput(
            buffers=[
                BufferSpec("a", DType.FLOAT32, _TC_N, a),
                BufferSpec("b", DType.FLOAT32, _TC_N, b),
                BufferSpec("oa", DType.FLOAT32, _TC_N,
                           np.zeros(_TC_N, dtype=np.float32)),
                BufferSpec("ob", DType.FLOAT32, _TC_N,
                           np.zeros(_TC_N, dtype=np.float32)),
            ],
            scalars={},
            buffer_params={"a": "a", "b": "b", "oa": "oa", "ob": "ob"},
            outputs=["oa", "ob"],
            grid=(1, 1),
            block=(_TC_N, 1),
            meta={"a": a, "b": b},
        )

    def golden(self, inp):
        import numpy as np

        a = inp.meta["a"].astype(np.float64)
        b = inp.meta["b"].astype(np.float64)
        oa = (a.astype(np.float32) * np.float32(2.0)).astype(np.float64)
        ob = (b.astype(np.float32) + np.float32(self.offset)) \
            .astype(np.float64)
        return np.concatenate([oa, ob])


class TwoChainEdited(TwoChainWorkload):
    """Chain 2's constant changed; chain 1 is byte-identical."""

    source = TWO_CHAIN_SRC.replace("+ 1.0", "+ 2.0")
    offset = 2.0


def _two_chain_specs(wl):
    from repro.swifi import build_fault_specs, enumerate_targets

    return build_fault_specs(
        enumerate_targets(wl.kernel), n_threads=_TC_N,
        masks_per_site=2, bit_counts=(1, 2), seed=5,
    )


def _counting_program(wl, executed):
    """A program whose full-path trial runner logs each executed site."""
    prog = HauberkProgram(wl)
    orig = prog.trial_runner

    def counting_trial_runner(mode, seed):
        base = orig(mode, seed)

        def runner(spec):
            executed.append(spec.site)
            return base(spec)

        return runner

    prog.trial_runner = counting_trial_runner
    return prog


class TestSectionAdoption:
    """Records carry section tags, but resume never reads a sibling
    campaign's journal, whatever its sections."""

    def test_records_carry_section_tags(self, tmp_path):
        wl, specs = _tiny_specs(masks_per_site=1)
        root = str(tmp_path / "runs")
        run_campaign(HauberkProgram(wl), specs, mode="fi",
                     options=CampaignOptions(workers=1, run_dir=root))
        with open(_journal_path(root), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert all(r.get("sec", "").startswith("s") for r in records)

    def test_resume_ignores_sibling_campaign(self, tmp_path):
        """A sibling journal with the same workload, mode and seed, whose
        kernel differs only in an independent chain, serves nothing."""
        wl1 = TwoChainWorkload()
        specs = _two_chain_specs(wl1)
        root = str(tmp_path / "runs")
        opts = CampaignOptions(workers=1, differential=False)
        run_campaign(HauberkProgram(wl1), specs, mode="fi",
                     options=opts.evolve(run_dir=root))

        wl2 = TwoChainEdited()
        assert [s.site for s in _two_chain_specs(wl2)] == \
            [s.site for s in specs]  # same shape, same spec stream
        baseline = run_campaign(HauberkProgram(TwoChainEdited()), specs,
                                mode="fi", options=opts)

        executed = []
        resumed = run_campaign(
            _counting_program(wl2, executed), specs, mode="fi",
            options=opts.evolve(resume=root),
        )
        _assert_identical(resumed, baseline)
        assert sorted(executed) == sorted(s.site for s in specs)
        assert len(os.listdir(root)) == 2  # the sibling is left as it was


# -- robustness corpus: one corrupted byte anywhere ------------------------


@functools.lru_cache(maxsize=None)
def _journaled_campaign():
    """``(run directory bytes by name, uninterrupted result)`` of one
    journaled campaign, built once and copied for every example."""
    wl, specs = _tiny_specs(masks_per_site=1)
    with tempfile.TemporaryDirectory() as root:
        result = run_campaign(HauberkProgram(wl), specs, mode="fi",
                              options=CampaignOptions(workers=1,
                                                      run_dir=root))
        directory = os.path.dirname(_journal_path(root))
        files = {}
        for name in os.listdir(directory):
            with open(os.path.join(directory, name), "rb") as fh:
                files[name] = fh.read()
    return os.path.basename(directory), files, specs, result


class TestCorruptJournal:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_resume_survives_one_flipped_bit_or_cut(self, data):
        """Flip any one bit of ``journal.jsonl`` or cut it at any byte:
        resume still reproduces the uninterrupted result, a second
        resume executes nothing, and ``build_report`` never raises."""
        name, files, specs, expected = _journaled_campaign()
        journal = bytearray(files["journal.jsonl"])
        if data.draw(st.booleans(), label="flip"):
            bit = data.draw(st.integers(0, len(journal) * 8 - 1), label="bit")
            journal[bit // 8] ^= 1 << (bit % 8)
        else:
            journal = journal[:data.draw(st.integers(0, len(journal)),
                                         label="cut")]
        root = tempfile.mkdtemp()
        try:
            directory = os.path.join(root, name)
            os.mkdir(directory)
            for fname, content in files.items():
                with open(os.path.join(directory, fname), "wb") as fh:
                    fh.write(journal if fname == "journal.jsonl" else content)
            build_report(root)
            resumed = run_campaign(
                HauberkProgram(TinyWorkload()), specs, mode="fi",
                options=CampaignOptions(workers=1, resume=root),
            )
            _assert_identical(resumed, expected)
            build_report(root)

            def exploding_factory():
                def runner(spec):
                    raise AssertionError("resume should not execute trials")

                return runner

            prog = HauberkProgram(TinyWorkload())
            prog.trial_runner = lambda mode, seed: exploding_factory()
            again = run_campaign(prog, specs, mode="fi",
                                 options=CampaignOptions(workers=1,
                                                         resume=root))
            _assert_identical(again, expected)
        finally:
            shutil.rmtree(root)
