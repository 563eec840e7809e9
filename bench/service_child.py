"""One service workload: a server process and a closed-loop load
generator, as ``repro serve`` and ``repro request`` users run them.

``loadgen`` (spawned by run.py) builds the request schedule and its
oracles from ``--seed``, spawns ``server`` (this file again), pre-warms,
runs a short warm-up round and the timed rounds with CLIENTS client
threads, each sending its next request only when the previous reply
arrived — a closed loop, because every caller of ``send_request`` blocks
for its reply.  Both processes run with the workload's scratch directory
as cwd, so the socket is the relative path ``svc.sock`` (AF_UNIX paths
are limited to ~100 bytes) and the journal is ``journal/``.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time

import common
import spec

common.add_src_to_path()

import numpy as np  # noqa: E402
from repro.service import (  # noqa: E402
    RequestJournal,
    ServiceConfig,
    SolverService,
    send_request,
    serve_forever,
)
from repro.sparkle import SparkleContext  # noqa: E402

import inputs  # noqa: E402
import tracer as tracing  # noqa: E402

SOCKET = "svc.sock"
JOURNAL = "journal"
SPANS = "spans.pkl"
ORACLES = os.path.join(os.pardir, "oracles.pkl")  # shared by the run's lives
TRACE_STATE = "trace.state"  # the server's acknowledgement of SIGUSR1/2


# ----------------------------------------------------------------------
# server
# ----------------------------------------------------------------------
def job_counts(job) -> dict:
    """One retained job trace of the server's engine, with the start of
    its first task (``perf_counter``) so rounds can be told apart."""
    starts = [t.start_ts for s in job.stages for t in s.tasks]
    return {
        "start": min(starts) if starts else 0.0,
        "scheduler.jobs": 1,
        "scheduler.stages": job.num_stages,
        "scheduler.tasks": job.num_tasks,
        "shuffle.bytes_written": job.shuffle_bytes,
        "shuffle.bytes_read": sum(s.shuffle_bytes_read for s in job.stages),
    }


def server(args, w: spec.Workload) -> int:
    tracer = tracing.Tracer()
    jobs: dict[float, dict] = {}  # by start: the engine keeps its last 64 traces

    def note_jobs():
        for job in getattr(sc.metrics, "jobs", ()):
            counts = job_counts(job)
            jobs[counts["start"]] = counts

    def set_tracing(signum, _frame):
        # between rounds, while no request is in flight: SIGUSR1 wraps the
        # layers, SIGUSR2 restores them; the file tells the load generator
        if signum == signal.SIGUSR1:
            tracer.install("service")
        else:
            tracer.uninstall()
            note_jobs()  # the traced round's, before later rounds evict them
        with open(TRACE_STATE, "w", encoding="utf-8") as fh:
            fh.write("1" if signum == signal.SIGUSR1 else "0")

    signal.signal(signal.SIGUSR1, set_tracing)
    signal.signal(signal.SIGUSR2, set_tracing)
    t0 = time.perf_counter()
    sc = SparkleContext(
        num_executors=spec.EXECUTORS,
        cores_per_executor=spec.CORES_PER_EXECUTOR,
        backend=w.backend,
    )
    t1 = time.perf_counter()
    service = SolverService(sc, config=ServiceConfig(), journal=RequestJournal(JOURNAL))
    try:
        # on the main thread, so SIGTERM drains, settles and returns
        serve_forever(service, SOCKET)
    finally:
        service.stop()
        t2 = time.perf_counter()
        sc.stop()
        t3 = time.perf_counter()
    note_jobs()
    record = {
        "context.start_s": t1 - t0,
        "context.stop_s": t3 - t2,
        "peak_rss_mb": common.rss_mb(),
        "jobs": list(jobs.values()),
        "storage.bytes_read": sc.metrics.summary().get("storage_bytes_read", 0),
        "leaks": common.leaks(SOCKET),
    }
    tracer.uninstall()
    record["trace_missing"] = tracer.missing
    with open(SPANS, "wb") as fh:
        pickle.dump(tracer.drain(), fh)
    common.write_json(args.out, record)
    return 0


# ----------------------------------------------------------------------
# load generator
# ----------------------------------------------------------------------
def schedule(w: spec.Workload, seed: int, rounds: int):
    """Generator seeds per phase: ``(prewarm, [round][client][i])`` with
    round 0 the warm-up.  The wire format carries generator seeds, so
    these *are* the inputs; all derive from ``--seed``."""
    base = (seed % 1_000_000) * 1_000_000
    if w.fingerprints:
        pool = [base + j for j in range(w.fingerprints)]
        prewarm = list(pool)

        def draw(rnd, client, count):
            rng = random.Random(f"{seed}:{rnd}:{client}")
            return [rng.choice(pool) for _ in range(count)]
    else:
        prewarm = []
        counter = iter(range(base, base + 1_000_000))

        def draw(rnd, client, count):
            return [next(counter) for _ in range(count)]

    plan = [
        [
            draw(rnd, client, w.per_client if rnd else w.warm_per_client)
            for client in range(spec.CLIENTS)
        ]
        for rnd in range(rounds + 1)
    ]
    return prewarm, plan


class Round:
    """One batch of requests from CLIENTS closed-loop client threads."""

    def __init__(self, w: spec.Workload, oracles: dict, label: str, seeds) -> None:
        self.w, self.oracles, self.label, self.seeds = w, oracles, label, seeds
        self.sent: dict[str, tuple[float, float]] = {}  # request id -> (start, end), ok replies
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def _client(self, client: int) -> None:
        w = self.w
        for i, seed in enumerate(self.seeds[client]):
            rid = f"{self.label}-{client}-{i}"
            payload = {
                "problem": w.problem, "n": w.n, "r": w.r, "strategy": w.strategy,
                "seed": seed, "density": inputs.DENSITY,
                "request_id": rid, "return_result": True,
            }
            start = time.perf_counter()
            try:
                reply = send_request(SOCKET, payload)
            except Exception as exc:  # refused, reset, timed out: a failed op
                reply = {"status": "error", "error": exc}
            end = time.perf_counter()  # stamped before checking
            if reply.get("status") != "ok":
                error = f"{rid}: {reply.get('error')!r}"
            elif not np.array_equal(reply.get("result"), self.oracles[seed]):
                error = f"{rid}: result differs from a solo solve"
            else:
                error = None
            with self._lock:
                if error is None:
                    self.sent[rid] = (start, end)
                else:
                    self.errors.append(error)

    def run(self) -> None:
        threads = [
            threading.Thread(target=self._client, args=(c,))
            for c in range(len(self.seeds))
        ]
        stolen = common.steal_seconds()
        self.start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.end = time.perf_counter()
        self.steal_s = common.steal_seconds() - stolen

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.seeds)

    @property
    def latency(self) -> dict[str, float]:
        return {rid: end - start for rid, (start, end) in self.sent.items()}


def set_tracing(proc, on: bool) -> None:
    """Switch the server's tracer between rounds and wait for its word."""
    proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            with open(TRACE_STATE, encoding="utf-8") as fh:
                if fh.read() == ("1" if on else "0"):
                    return
        except FileNotFoundError:
            pass
        time.sleep(0.002)
    raise RuntimeError("the server did not acknowledge the tracing switch")


def stats() -> dict:
    reply = send_request(SOCKET, {"op": "stats"})
    return {k: reply.get(k, 0) for k in ("engine_passes", "cache_hits", "cache_misses")}


def traced_layers(rnd: Round, spans, server_record) -> dict:
    """Per-layer numbers of one timed round from the server's spans."""
    window = [s for s in spans if rnd.start <= s[2] <= rnd.end]
    layers = tracing.aggregate(window)
    latency = rnd.latency
    latencies = list(latency.values())
    layers["service.send_request.calls"] = len(latencies)
    layers["service.send_request.busy_s"] = sum(latencies)
    waits = tracing.queue_waits(window)
    layers["service.queue_wait_ms_p50"] = 1e3 * common.median(waits) if waits else 0.0
    served = tracing.solve_seconds(window)
    transport = [s - served[rid] for rid, s in latency.items() if rid in served]
    if transport:
        layers["service.transport_ms_p50"] = 1e3 * common.median(transport)
        # client-observed time under no server-side span
        layers["trace.unattributed_share"] = sum(transport) / sum(
            latency[rid] for rid in latency if rid in served
        )
    for job in server_record["jobs"]:
        if rnd.start <= job["start"] <= rnd.end:
            for key, value in job.items():
                if key != "start":
                    layers[key] = layers.get(key, 0) + value
    return layers


def solo_solves(w: spec.Workload, seeds) -> dict:
    """A solo solve of every payload, built before the server exists (by
    the run's first life; the others load it from the run's directory)."""
    try:
        with open(ORACLES, "rb") as fh:
            return pickle.load(fh)
    except FileNotFoundError:
        pass
    oracles = {
        s: inputs.blocked_oracle(w.problem, inputs.make_table(w.problem, w.n, s), w.r)
        for s in sorted(seeds)
    }
    with open(ORACLES, "wb") as fh:
        pickle.dump(oracles, fh)
    return oracles


def loadgen(args, w: spec.Workload) -> int:
    modes = common.round_modes(args.rounds, args.traced)
    prewarm, plan = schedule(w, args.seed, len(modes))
    oracles = solo_solves(
        w, set(prewarm) | {s for rnd in plan for client in rnd for s in client}
    )

    server_out = "server.json"
    spawned, stolen = time.perf_counter(), common.steal_seconds()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "server",
         "--workload", args.workload, "--seed", str(args.seed), "--rounds", "0",
         "--toy", str(args.toy), "--out", server_out],
        stdout=sys.stderr,
    )
    record: dict = {"workload": w.name}
    errors: list[str] = []
    timed: list[Round] = []
    per_round = []
    try:
        deadline = time.monotonic() + 60
        while True:  # the socket file appears at bind(), before listen()
            try:
                stats()
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("the server did not come up") from None
                time.sleep(0.002)
        warm = Round(w, oracles, "prewarm", [prewarm])
        warm.run()
        warmup = Round(w, oracles, "warmup", plan[0])
        warmup.run()
        # server spawn to first timed round (the oracles were built before)
        record["setup"] = {"start": spawned, "end": time.perf_counter(), "own_s": 0.0,
                           "steal_s": common.steal_seconds() - stolen}
        errors += warm.errors + warmup.errors
        for i, (traced, seeds) in enumerate(zip(modes, plan[1:])):
            if traced:
                set_tracing(proc, True)
            before = stats()
            rnd = Round(w, oracles, f"r{i}", seeds)
            rnd.run()
            after = stats()
            if traced:
                set_tracing(proc, False)
            timed.append(rnd)
            errors += rnd.errors
            looked_up = sum(after[k] - before[k] for k in ("cache_hits", "cache_misses"))
            per_round.append({
                "traced": traced,
                "start": rnd.start,
                "end": rnd.end,
                "steal_s": rnd.steal_s,
                "ok": len(rnd.sent),
                "attempted": rnd.attempted,
                "requests": list(rnd.sent.values()),
                "service.engine_passes": after["engine_passes"] - before["engine_passes"],
                "service.cache_hit_ratio": (
                    (after["cache_hits"] - before["cache_hits"]) / looked_up
                    if looked_up else 0.0
                ),
            })
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            errors.append("the server did not drain within 60 s of SIGTERM")
    if proc.returncode != 0:
        errors.append(f"the server exited with code {proc.returncode}")
    with open(server_out, encoding="utf-8") as fh:
        server_record = json.load(fh)

    record["peak_rss_mb"] = server_record["peak_rss_mb"]  # the serving process
    with open(SPANS, "rb") as fh:
        spans = pickle.load(fh)
    for rnd, rec in zip(timed, per_round):
        if rec["traced"]:
            rec["layers"] = traced_layers(rnd, spans, server_record)
            rec["layers"]["storage.bytes_read"] = server_record["storage.bytes_read"]
        rec["context.start_s"] = server_record["context.start_s"]
        rec["context.stop_s"] = server_record["context.stop_s"]
    record.update(
        rounds=per_round,
        trace_missing=server_record["trace_missing"],
        attempted=sum(rnd.attempted for rnd in (warm, warmup, *timed)),
        failed=len(errors),
        errors=errors[:20],
        leaks=server_record["leaks"] + common.leaks(SOCKET),
    )
    common.write_json(args.out, record)
    return 0


def main() -> int:
    p = common.child_parser(__doc__)
    p.add_argument("role", choices=("loadgen", "server"))
    args = p.parse_args()
    w = common.workload_from(args)
    return (server if args.role == "server" else loadgen)(args, w)


if __name__ == "__main__":
    sys.exit(main())
