"""Campaign fleet service: wire schema, leases, and parity guarantees.

The fleet's contract is the same as every other execution path's:
coordinator + N workers is **bit-identical** to ``workers=1`` — for any
worker count, after a worker is killed mid-campaign, and across a
coordinator kill/resume split.  The parity tests here compare summary
dictionaries and per-trial outcome sequences (both are exact-equality
comparisons over every float the campaign produces).

Workers come in two flavours: *threaded* (``worker_main(detach=False)``
in a thread of this process — full socket protocol, no spawn cost) for
the broad parity matrix, and *spawned* (real separate interpreters) for
the end-to-end ``repro serve`` path and the kill -9 test.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.exec.pool import fork_available, spawn_available
from repro.exec.retry import FakeClock, RetryPolicy
from repro.fleet import (
    STATUS_VERSION,
    CampaignEnvelope,
    FleetClient,
    FleetCoordinator,
    FleetError,
    LeaseTable,
    ProgramRecipe,
    WireError,
    envelope_for,
    parse_endpoint,
    rebuild_result,
    serve_forever,
    worker_main,
)
from repro.fleet.wire import (
    connect,
    decode_observation,
    decode_options,
    decode_spec,
    encode_observation,
    encode_options,
    encode_spec,
    recv_message,
    send_message,
)
from repro.obs.metrics import fresh_registry, get_registry
from repro.swifi.campaign import build_fault_specs
from repro.swifi.options import CampaignOptions
from repro.swifi.parallel import (
    build_trial_runner,
    execute_chunk,
    run_campaign,
)
from repro.swifi.targets import enumerate_targets

needs_spawn = pytest.mark.skipif(
    not spawn_available(), reason="requires the spawn start method"
)


def _program(workload="CP", train_seeds=(), alpha=None):
    return ProgramRecipe(
        workload=workload, train_seeds=tuple(train_seeds), alpha=alpha
    ).build_program()


def _specs(program, n=6, seed=11):
    inp = program.workload.generate_input(0)
    return build_fault_specs(
        enumerate_targets(program.workload.kernel), inp.n_threads,
        masks_per_site=2, seed=seed,
    )[:n]


def _trial_outcomes(result):
    return [(t.spec.site, t.spec.mask, t.outcome.value) for t in result.trials]


def _threaded_workers(coordinator, count):
    threads = []
    for k in range(count):
        thread = threading.Thread(
            target=worker_main,
            args=(coordinator.host, coordinator.port, f"t{k}"),
            kwargs={"detach": False},
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    return threads


class TestWireCodecs:
    def test_spec_round_trip(self):
        program = _program()
        for spec in _specs(program, n=4):
            encoded = encode_spec(spec)
            assert decode_spec(encoded) == spec

    def test_observation_round_trip(self):
        program = _program()
        specs = _specs(program, n=2)
        runner = build_trial_runner(program, "fi", CampaignOptions())
        message = execute_chunk(runner, list(enumerate(specs)), None, "r")
        for obs in message["observations"]:
            assert decode_observation(encode_observation(obs)) == obs

    def test_options_ship_execution_fields_only(self):
        options = CampaignOptions(
            seed=7, differential=False, trial_timeout=2.5,
            workers=8, run_dir="/nope", progress=True,
        )
        encoded = encode_options(options)
        assert encoded == {
            "seed": 7, "differential": False, "trial_timeout": 2.5,
        }
        decoded = decode_options(encoded)
        assert decoded.seed == 7
        assert decoded.differential is False
        assert decoded.workers == 1  # coordinator-local knob: never shipped

    def test_decode_options_rejects_non_execution_fields(self):
        with pytest.raises(WireError, match="non-execution"):
            decode_options({"seed": 0, "workers": 4})

    def test_envelope_round_trip(self):
        program = _program(train_seeds=(1,), alpha=1000.0)
        specs = _specs(program, n=3)
        envelope = envelope_for(program, specs, "fift", CampaignOptions(seed=3))
        rebuilt = CampaignEnvelope.from_dict(envelope.to_dict())
        assert rebuilt.mode == "fift"
        assert rebuilt.recipe == envelope.recipe
        assert list(rebuilt.specs) == list(specs)
        assert rebuilt.options.seed == 3

    def test_envelope_version_gate(self):
        program = _program()
        data = envelope_for(program, _specs(program, 1), "fi",
                            CampaignOptions()).to_dict()
        data["v"] = 99
        with pytest.raises(WireError, match="version"):
            CampaignEnvelope.from_dict(data)

    def test_envelope_requires_a_recipe(self):
        # registry-built workloads auto-derive a recipe; a directly
        # instantiated one is not rebuildable remotely and must refuse
        from repro.core.program import HauberkProgram
        from repro.workloads.base import _REGISTRY

        bare = HauberkProgram(_REGISTRY["CP"]())
        assert bare.recipe is None
        with pytest.raises(WireError, match="recipe"):
            envelope_for(bare, [], "fi", CampaignOptions())

    def test_registry_programs_auto_derive_a_recipe(self):
        from repro.core.program import HauberkProgram
        from repro.workloads import get_workload

        program = HauberkProgram(get_workload("CP"))
        assert program.recipe == ProgramRecipe(workload="CP")
        program.train(seeds=[0, 1])
        program.set_alpha(1000.0)
        assert program.recipe == ProgramRecipe(
            workload="CP", train_seeds=(0, 1), alpha=1000.0
        )

    def test_recipe_rebuild_is_deterministic(self):
        recipe = ProgramRecipe(workload="CP", train_seeds=(1, 2), alpha=1000.0)
        one, two = recipe.build_program(), recipe.build_program()
        assert one.recipe == two.recipe == recipe
        specs = _specs(one, n=4)
        r1 = run_campaign(one, specs, "fift", CampaignOptions())
        r2 = run_campaign(two, specs, "fift", CampaignOptions())
        assert r1.summary() == r2.summary()

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:7070") == ("127.0.0.1", 7070)
        with pytest.raises(WireError):
            parse_endpoint("no-port-here")
        with pytest.raises(WireError):
            parse_endpoint("host:not-a-number")


class TestOptionsKnobs:
    def test_endpoint_must_be_host_port(self):
        with pytest.raises(ValueError, match="endpoint"):
            CampaignOptions(endpoint="just-a-host")

    def test_valid_knobs_pass(self):
        options = CampaignOptions(endpoint="127.0.0.1:7070")
        assert options.endpoint == "127.0.0.1:7070"


class TestLeaseTable:
    def test_grant_ids_are_sequential_and_deterministic(self):
        table = LeaseTable(ttl=10.0, clock=FakeClock())
        a = table.grant("w0", "run-1", (0, 1))
        b = table.grant("w1", "run-1", (2,))
        assert (a.lease_id, b.lease_id) == ("L000001", "L000002")
        assert len(table) == 2

    def test_beat_extends_the_deadline(self):
        clock = FakeClock()
        table = LeaseTable(ttl=10.0, clock=clock)
        lease = table.grant("w0", "run-1", (0,))
        clock.advance(8.0)
        assert table.beat(lease.lease_id)
        clock.advance(8.0)  # 16s since grant, 8s since beat: still alive
        assert table.expired() == []
        assert lease.beats == 1

    def test_expiry_removes_and_returns(self):
        clock = FakeClock()
        table = LeaseTable(ttl=5.0, clock=clock)
        lease = table.grant("w0", "run-1", (0, 1, 2))
        clock.advance(5.1)
        dead = table.expired()
        assert [d.lease_id for d in dead] == [lease.lease_id]
        assert len(table) == 0

    def test_no_resurrection_after_expiry(self):
        clock = FakeClock()
        table = LeaseTable(ttl=5.0, clock=clock)
        lease = table.grant("w0", "run-1", (0,))
        clock.advance(5.1)
        table.expired()
        assert not table.beat(lease.lease_id)
        assert len(table) == 0

    def test_release_worker_drops_only_its_leases(self):
        table = LeaseTable(ttl=10.0, clock=FakeClock())
        table.grant("w0", "run-1", (0,))
        keep = table.grant("w1", "run-1", (1,))
        dropped = table.release_worker("w0")
        assert len(dropped) == 1
        assert list(table.active) == [keep.lease_id]


class TestCoordinator:
    """Protocol + merge tests over real sockets, workers in threads."""

    @pytest.mark.parametrize("workload,mode", [
        ("CP", "fi"), ("CP", "fift"), ("PNS", "fi"), ("PNS", "fift"),
    ])
    def test_two_workers_bit_identical_to_workers_one(self, workload, mode):
        fresh_registry()
        train = (1,) if mode == "fift" else ()
        program = _program(workload, train_seeds=train)
        specs = _specs(program, n=6)
        baseline = run_campaign(
            ProgramRecipe(workload=workload, train_seeds=train)
            .build_program(),
            specs, mode, CampaignOptions(workers=1),
        )
        with FleetCoordinator() as coordinator:
            envelope = envelope_for(program, specs, mode, CampaignOptions())
            run_id = coordinator.submit(
                envelope, program=program, chunk_size=2
            )
            threads = _threaded_workers(coordinator, 2)
            run = coordinator.wait(run_id, timeout=120)
        for thread in threads:
            thread.join(timeout=10)
        assert run.result.summary() == baseline.summary()
        assert _trial_outcomes(run.result) == _trial_outcomes(baseline)

    def test_endpoint_option_runs_on_the_coordinator(self):
        program = _program()
        specs = _specs(program, n=4)
        baseline = run_campaign(_program(), specs, "fi", CampaignOptions())
        with FleetCoordinator() as coordinator:
            threads = _threaded_workers(coordinator, 2)
            result = run_campaign(
                program, specs, "fi",
                CampaignOptions(endpoint=coordinator.endpoint),
            )
        for thread in threads:
            thread.join(timeout=10)
        assert result.summary() == baseline.summary()
        assert [t.observation for t in result.trials] == \
            [t.observation for t in baseline.trials]

    def test_duplicate_results_are_deduplicated(self):
        program = _program()
        specs = _specs(program, n=4)
        runner = build_trial_runner(program, "fi", CampaignOptions())
        coordinator = FleetCoordinator(reap_interval=0)
        coordinator.start()
        try:
            envelope = envelope_for(program, specs, "fi", CampaignOptions())
            run_id = coordinator.submit(envelope, program=program)
            run = coordinator._runs[run_id]
            first = True
            while run.queue:
                indices = tuple(run.queue.popleft())
                lease = coordinator.leases.grant("wA", run_id, indices)
                message = execute_chunk(
                    runner, [(i, specs[i]) for i in indices],
                    lease.lease_id, run_id,
                )
                coordinator.absorb(message)
                if first:
                    # a slow twin reports the same chunk under a stale
                    # lease; the duplicate must not double-count
                    coordinator.absorb({**message, "lease": "L999999"})
                    first = False
            run = coordinator.wait(run_id, timeout=30)
            assert run.result.summary()["trials"] == len(specs)
            assert len(run.obs_by_index) == len(specs)
        finally:
            coordinator.stop()

    def test_expired_multi_item_lease_splits_in_half(self):
        fresh_registry()
        clock = FakeClock()
        program = _program()
        specs = _specs(program, n=4)
        coordinator = FleetCoordinator(
            lease_ttl=5.0, clock=clock, reap_interval=0
        )
        coordinator.start()
        try:
            envelope = envelope_for(program, specs, "fi", CampaignOptions())
            run_id = coordinator.submit(
                envelope, program=program, chunk_size=4
            )
            grant = coordinator.grant("w0", None)
            assert grant["type"] == "grant"
            assert grant["indices"] == [0, 1, 2, 3]
            clock.advance(5.1)
            dead = coordinator.reap()
            assert len(dead) == 1
            run = coordinator._runs[run_id]
            assert [tuple(c) for c in run.queue] == [(0, 1), (2, 3)]
            counters = get_registry().counter("repro_fleet_leases_total")
            assert counters.value(event="expired") == 1
            assert counters.value(event="reissued") == 2
        finally:
            coordinator.stop()

    def test_singleton_expiry_is_blamed_then_quarantined(self):
        fresh_registry()
        clock = FakeClock()
        program = _program()
        specs = _specs(program, n=2)
        coordinator = FleetCoordinator(
            lease_ttl=5.0, clock=clock, reap_interval=0,
            retry=RetryPolicy(max_deaths=2),
        )
        coordinator.start()
        try:
            envelope = envelope_for(program, specs, "fi", CampaignOptions())
            run_id = coordinator.submit(
                envelope, program=program, chunk_size=1
            )
            run = coordinator._runs[run_id]
            # strand the singleton lease on index 0: first expiry is an
            # attributable strike and a reissue
            assert coordinator.grant("w0", run_id)["indices"] == [0]
            clock.advance(5.1)
            coordinator.reap()
            assert run.ledger.deaths.get(0, 0) == 1
            assert 0 not in run.quarantines
            # the surviving spec runs normally in between
            runner = build_trial_runner(program, "fi", CampaignOptions())
            grant = coordinator.grant("w1", run_id)
            assert grant["indices"] == [1]
            coordinator.absorb(execute_chunk(
                runner, [(i, specs[i]) for i in grant["indices"]],
                grant["lease"], run_id,
            ))
            # stranding the reissued lease condemns and quarantines
            assert coordinator.grant("w0", run_id)["indices"] == [0]
            clock.advance(5.1)
            coordinator.reap()
            assert run.ledger.deaths.get(0, 0) == 2
            assert 0 in run.quarantines
            assert run.quarantines[0].note == \
                "worker lost 2x (2x running this spec alone)"
            result = coordinator.wait(run_id, timeout=30).result
            assert result.summary()["quarantined"] == 1
            assert result.summary()["outcomes"]["worker_killed"] == 1
        finally:
            coordinator.stop()

    @pytest.mark.skipif(not fork_available(),
                        reason="requires the fork start method")
    def test_quarantine_matches_forked_workers(self):
        # the same killer spec, lost by forked workers (pipe EOF) and by
        # a TCP worker (singleton lease expiry), reads the same
        program = _program()
        specs = _specs(program, n=2)
        retry = RetryPolicy(max_deaths=2)

        def killer_factory():
            runner = build_trial_runner(program, "fi", CampaignOptions())

            def run(spec):
                if spec == specs[0]:
                    os._exit(13)
                return runner(spec)

            return run

        forked = run_campaign(
            None, specs, "fi",
            CampaignOptions(workers=2, chunk_size=1, retry=retry),
            runner_factory=killer_factory,
        )
        clock = FakeClock()
        coordinator = FleetCoordinator(
            lease_ttl=5.0, clock=clock, reap_interval=0, retry=retry,
        )
        coordinator.start()
        try:
            envelope = envelope_for(program, specs, "fi", CampaignOptions())
            run_id = coordinator.submit(
                envelope, program=program, chunk_size=1
            )
            runner = build_trial_runner(program, "fi", CampaignOptions())
            assert coordinator.grant("w0", run_id)["indices"] == [0]
            clock.advance(5.1)
            coordinator.reap()
            grant = coordinator.grant("w1", run_id)
            coordinator.absorb(execute_chunk(
                runner, [(1, specs[1])], grant["lease"], run_id,
            ))
            assert coordinator.grant("w0", run_id)["indices"] == [0]
            clock.advance(5.1)
            coordinator.reap()
            fleet = coordinator.wait(run_id, timeout=30).result
        finally:
            coordinator.stop()
        assert len(forked.quarantined) == 1
        assert fleet.quarantined == forked.quarantined
        assert [t.observation for t in fleet.trials] == \
            [t.observation for t in forked.trials]

    def test_worker_error_fails_the_run_promptly(self):
        program = _program()
        specs = _specs(program, n=2)
        coordinator = FleetCoordinator(reap_interval=0)
        coordinator.start()
        try:
            envelope = envelope_for(program, specs, "fi", CampaignOptions())
            run_id = coordinator.submit(
                envelope, program=program, chunk_size=1
            )
            grant = coordinator.grant("w0", run_id)
            reply = coordinator._dispatch({
                "type": "error", "worker": "w0", "lease": grant["lease"],
                "run": run_id, "kind": "ValueError",
                "error": "trial exploded",
            })
            assert reply == {"type": "ack"}
            start = time.monotonic()
            with pytest.raises(FleetError,
                               match="ValueError: trial exploded"):
                coordinator.wait(run_id, timeout=30)
            assert time.monotonic() - start < 5.0
            assert coordinator._runs[run_id].state == "failed"
            assert len(coordinator.leases) == 0
        finally:
            coordinator.stop()

    def test_malformed_result_frame_gets_error_reply(self):
        program = _program()
        specs = _specs(program, n=2)
        runner = build_trial_runner(program, "fi", CampaignOptions())
        coordinator = FleetCoordinator(reap_interval=0)
        coordinator.start()
        try:
            envelope = envelope_for(program, specs, "fi", CampaignOptions())
            run_id = coordinator.submit(
                envelope, program=program, chunk_size=2
            )
            sock, stream = connect(*parse_endpoint(coordinator.endpoint),
                                   timeout=30)
            try:
                send_message(stream, {
                    "type": "lease", "worker": "w0", "run": None,
                })
                grant = recv_message(stream)
                items = list(zip(grant["indices"],
                                 map(decode_spec, grant["specs"])))
                message = execute_chunk(runner, items, grant["lease"], run_id)
                message["observations"] = [
                    encode_observation(o) for o in message["observations"]
                ]
                for bad in (
                    {**message, "metrics": {"bad": {"type": "nope"}}},
                    {k: v for k, v in message.items() if k != "indices"},
                    {**message, "observations": [{}, {}]},
                ):
                    send_message(stream, bad)
                    reply = recv_message(stream)
                    assert reply["type"] == "error"
                    assert "malformed result" in reply["error"]
                run = coordinator._runs[run_id]
                assert run.state == "running"
                assert run.obs_by_index == {}
                assert get_registry().get("bad") is None
                send_message(stream, message)
                assert recv_message(stream) == {"type": "ack"}
            finally:
                stream.close()
                sock.close()
            result = coordinator.wait(run_id, timeout=30).result
            assert result.summary()["trials"] == len(specs)
        finally:
            coordinator.stop()

    def test_status_schema_golden(self):
        program = _program()
        specs = _specs(program, n=3)
        coordinator = FleetCoordinator(lease_ttl=12.5, reap_interval=0)
        coordinator.start()
        try:
            envelope = envelope_for(program, specs, "fi", CampaignOptions())
            run_id = coordinator.submit(envelope, program=program)
            # one registered worker holding one lease
            coordinator._dispatch({"type": "hello", "worker": "w0", "pid": 41})
            coordinator.grant("w0", run_id)
            status = coordinator.status()
            assert sorted(status) == [
                "active_leases", "lease_ttl", "queue_depth", "runs",
                "state", "type", "v", "workers",
            ]
            assert status["type"] == "status"
            assert status["v"] == STATUS_VERSION == 1
            assert status["state"] == "serving"
            assert status["lease_ttl"] == 12.5
            assert status["active_leases"] == 1
            assert status["workers"] == [{"id": "w0", "pid": 41, "leases": 1}]
            (run_doc,) = status["runs"]
            assert sorted(run_doc) == [
                "done", "quarantined", "run", "state", "total",
            ]
            assert run_doc["run"] == run_id
            assert run_doc["state"] == "running"
            assert run_doc["total"] == 3
        finally:
            coordinator.stop()

    def test_wait_timeout_raises(self):
        program = _program()
        specs = _specs(program, n=2)
        coordinator = FleetCoordinator(reap_interval=0)
        coordinator.start()
        try:
            envelope = envelope_for(program, specs, "fi", CampaignOptions())
            run_id = coordinator.submit(envelope, program=program)
            with pytest.raises(FleetError, match="still executing"):
                coordinator.wait(run_id, timeout=0.05)
            with pytest.raises(FleetError, match="unknown run"):
                coordinator.wait("run-999-deadbeef")
        finally:
            coordinator.stop()


class TestCoordinatorResume:
    def test_killed_coordinator_resumes_bit_identically(self, tmp_path):
        program = _program()
        specs = _specs(program, n=6)
        baseline = run_campaign(
            _program(), specs, "fi",
            CampaignOptions(workers=1, run_dir=str(tmp_path / "solo")),
        )
        runner = build_trial_runner(program, "fi", CampaignOptions())
        fleet_dir = str(tmp_path / "fleet")

        # first coordinator lands half the campaign, then "dies" (stop
        # without finishing; SIGKILL leaves strictly less state behind
        # than stop does, and the journal is append-crash-safe)
        first = FleetCoordinator(run_root=fleet_dir, reap_interval=0)
        first.start()
        envelope = envelope_for(program, specs, "fi", CampaignOptions())
        run_id = first.submit(envelope, program=program, chunk_size=3)
        run = first._runs[run_id]
        indices = tuple(run.queue.popleft())
        lease = first.leases.grant("w0", run_id, indices)
        first.absorb(execute_chunk(
            runner, [(i, specs[i]) for i in indices], lease.lease_id, run_id,
        ))
        first.stop()
        assert first._runs[run_id].state == "stopped"

        # the restarted coordinator replays the journaled prefix and
        # only leases out the remainder
        second = FleetCoordinator(
            run_root=fleet_dir, resume=True, reap_interval=0
        )
        second.start()
        try:
            run_id2 = second.submit(envelope, program=program, chunk_size=3)
            run2 = second._runs[run_id2]
            assert len(run2.replayed) == len(indices)
            assert sum(len(c) for c in run2.queue) == len(specs) - len(indices)
            threads = _threaded_workers(second, 1)
            result = second.wait(run_id2, timeout=120).result
        finally:
            second.stop()
        for thread in threads:
            thread.join(timeout=10)
        assert result.summary() == baseline.summary()
        assert _trial_outcomes(result) == _trial_outcomes(baseline)

    def test_fleet_journal_matches_workers_one_journal(self, tmp_path):
        import json

        program = _program()
        specs = _specs(program, n=6)
        run_campaign(
            _program(), specs, "fi",
            CampaignOptions(workers=1, run_dir=str(tmp_path / "solo")),
        )
        coordinator = FleetCoordinator(run_root=str(tmp_path / "fleet"))
        coordinator.start()
        try:
            envelope = envelope_for(program, specs, "fi", CampaignOptions())
            run_id = coordinator.submit(
                envelope, program=program, chunk_size=2
            )
            threads = _threaded_workers(coordinator, 2)
            coordinator.wait(run_id, timeout=120)
        finally:
            coordinator.stop()
        for thread in threads:
            thread.join(timeout=10)

        def trial_records(root):
            (fingerprint_dir,) = [
                p for p in (tmp_path / root).iterdir() if p.is_dir()
            ]
            records = [
                json.loads(line)
                for line in (fingerprint_dir / "journal.jsonl")
                .read_text().splitlines()
            ]
            return sorted(
                (r for r in records if "q" not in r), key=lambda r: r["i"]
            )

        solo, fleet = trial_records("solo"), trial_records("fleet")
        assert fleet == solo


@needs_spawn
@pytest.mark.slow
class TestSpawnFleet:
    """Real multi-process fleets: repro serve end-to-end and kill -9."""

    def test_fleet_option_bit_identical_to_workers_one(self):
        program = _program()
        specs = _specs(program, n=6)
        baseline = run_campaign(
            _program(), specs, "fi", CampaignOptions(workers=1)
        )
        endpoints = []
        announced = threading.Event()

        def announce(endpoint):
            endpoints.append(endpoint)
            announced.set()

        server = threading.Thread(
            target=serve_forever, daemon=True,
            kwargs={"fleet": 2, "max_runs": 1, "announce": announce},
        )
        server.start()
        assert announced.wait(60), "repro serve never announced"
        with FleetClient(endpoints[0], timeout=120) as client:
            envelope = envelope_for(program, specs, "fi", CampaignOptions())
            done = client.wait(client.submit(envelope), timeout=120)
        result = rebuild_result(specs, done)
        server.join(timeout=30)
        assert not server.is_alive()
        assert result.summary() == baseline.summary()
        assert _trial_outcomes(result) == _trial_outcomes(baseline)

    def test_kill_nine_worker_leases_reissue_and_campaign_completes(self):
        import multiprocessing

        fresh_registry()
        program = _program()
        specs = _specs(program, n=6)
        baseline = run_campaign(
            _program(), specs, "fi", CampaignOptions(workers=1)
        )
        coordinator = FleetCoordinator(lease_ttl=1.0)
        coordinator.start()
        victim = None
        threads = []
        try:
            envelope = envelope_for(program, specs, "fi", CampaignOptions())
            run_id = coordinator.submit(
                envelope, program=program, chunk_size=len(specs)
            )
            # one real spawned worker takes the single all-spec lease...
            ctx = multiprocessing.get_context("spawn")
            victim = ctx.Process(
                target=worker_main,
                args=(coordinator.host, coordinator.port, "victim"),
                daemon=True,
            )
            victim.start()
            deadline = time.monotonic() + 60
            while not coordinator.leases.active:
                assert time.monotonic() < deadline, "lease never granted"
                time.sleep(0.02)
            (lease_id,) = list(coordinator.leases.active)
            # ...and dies mid-build, silently
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            # the TTL turns the silence into reissued chunks, which a
            # healthy worker then completes
            threads = _threaded_workers(coordinator, 1)
            run = coordinator.wait(run_id, timeout=120)
        finally:
            coordinator.stop()
            if victim is not None and victim.is_alive():
                victim.kill()
        for thread in threads:
            thread.join(timeout=10)
        assert lease_id not in coordinator.leases.active
        counters = get_registry().counter("repro_fleet_leases_total")
        assert counters.value(event="expired") >= 1
        assert counters.value(event="reissued") >= 2
        deaths = get_registry().counter("repro_swifi_worker_deaths_total")
        assert deaths.value(phase="lease") >= 1
        assert run.result.summary() == baseline.summary()
        assert _trial_outcomes(run.result) == _trial_outcomes(baseline)
