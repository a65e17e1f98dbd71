"""Fleet worker: a long-lived spawned process that leases and runs chunks.

``worker_main`` is the entry point of a TCP worker — a process
``repro serve --fleet N`` *spawns*, or one started by hand against a
coordinator: a fresh interpreter that shares nothing with it.
Everything it needs arrives over the wire — the first lease of a new
run carries the :class:`CampaignEnvelope`, from which the worker
deterministically rebuilds the program
(:meth:`ProgramRecipe.build_program`) and the trial runner
(:func:`repro.swifi.parallel.build_trial_runner`, the same constructor
every worker kind uses).  Trials then run through
:func:`repro.swifi.parallel.execute_chunk` — the identical chunk body
forked and in-process workers run — and the result goes back in the
same envelope, so a fleet worker's observations are bit-identical to
any other worker's.  A trial that raises is reported as an ``error``
message, which fails the run at once.

Liveness: while a chunk executes, a daemon thread sends fire-and-forget
``beat`` messages (each on its own short-lived connection, so beats
never interleave with the lease conversation).  A ``kill -9`` stops the
beats; the coordinator's lease TTL turns that silence into a reissue.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

from repro.fleet.wire import (
    CampaignEnvelope,
    connect,
    decode_spec,
    encode_observation,
    recv_message,
    send_message,
)

#: Seconds a worker naps when the coordinator has no work yet.
IDLE_DELAY = 0.05

#: Fraction of the lease TTL between beats (3 beats per TTL window).
BEAT_FRACTION = 1.0 / 3.0


class _Beater:
    """Fire-and-forget heartbeats for one in-flight lease."""

    def __init__(self, host: str, port: int, worker_id: str, lease_id: str,
                 interval: float):
        self.host = host
        self.port = port
        self.worker_id = worker_id
        self.lease_id = lease_id
        self.interval = max(0.01, interval)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name=f"beat-{lease_id}", daemon=True
        )

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                sock, stream = connect(self.host, self.port, timeout=5.0)
                send_message(stream, {
                    "type": "beat", "worker": self.worker_id,
                    "lease": self.lease_id,
                })
                stream.close()
                sock.close()
            except OSError:
                return  # coordinator gone; the lease will expire anyway

    def __enter__(self) -> "_Beater":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()


def worker_main(host: str, port: int, worker_id: str,
                idle_delay: float = IDLE_DELAY, detach: bool = True) -> int:
    """Run the lease/execute/report loop until drained or disconnected.

    Returns the number of chunks completed (handy in tests; the
    production caller ignores it).  ``detach=False`` leaves the
    process-global tracer/metrics/profiler alone — for tests that run a
    worker in a thread of the coordinator's own process.
    """
    from repro.swifi.parallel import build_trial_runner, execute_chunk

    if detach:
        # a spawned interpreter starts clean, but make the isolation
        # explicit (execute_chunk gives each chunk a fresh registry)
        from repro.obs.events import set_tracer
        from repro.obs.profile import set_profiler

        set_tracer(None)
        set_profiler(None)

    try:
        sock, stream = connect(host, port)
    except OSError:
        return 0
    completed = 0
    current_run: Optional[str] = None
    runner = None
    ttl = 0.0
    try:
        send_message(stream, {
            "type": "hello", "worker": worker_id, "pid": os.getpid(),
        })
        welcome = recv_message(stream)
        if welcome is None or welcome.get("type") != "welcome":
            return 0
        ttl = float(welcome.get("ttl", 30.0))
        while True:
            send_message(stream, {
                "type": "lease", "worker": worker_id, "run": current_run,
            })
            reply = recv_message(stream)
            if reply is None or reply["type"] == "drain":
                return completed
            if reply["type"] == "idle":
                time.sleep(idle_delay)
                continue
            if reply["type"] != "grant":
                return completed
            try:
                if reply["run"] != current_run:
                    if "envelope" not in reply:
                        continue  # protocol hiccup: re-request with our run id
                    envelope = CampaignEnvelope.from_dict(reply["envelope"])
                    program = envelope.recipe.build_program()
                    runner = build_trial_runner(
                        program, envelope.mode, envelope.options
                    )
                    current_run = reply["run"]
                indices = [int(i) for i in reply["indices"]]
                specs = [decode_spec(s) for s in reply["specs"]]
                with _Beater(host, port, worker_id, reply["lease"],
                             interval=ttl * BEAT_FRACTION):
                    message = execute_chunk(
                        runner, list(zip(indices, specs)), reply["lease"],
                        reply["run"], isolate=detach,
                    )
                message["observations"] = [
                    encode_observation(o) for o in message["observations"]
                ]
            except Exception as exc:
                current_run = None  # rebuild before running anything else
                message = {
                    "type": "error", "lease": reply["lease"],
                    "run": reply["run"], "kind": type(exc).__name__,
                    "error": str(exc),
                }
            message["worker"] = worker_id
            send_message(stream, message)
            ack = recv_message(stream)
            if ack is None:
                return completed
            completed += 1
    except OSError:
        return completed
    finally:
        try:
            stream.close()
            sock.close()
        except OSError:
            pass
