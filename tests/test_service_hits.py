"""The cache-hit path of the request plane (DESIGN.md §15).

A wire request carries its generator identity and builds its table only
on first use; the result cache knows which identities resolve to which
live entry, so a repeat request is served without regenerating or
re-hashing its input, and the reply reuses the checksum the hit just
verified.  These tests pin when the table is built (counted, never
timed), the identity map's lifecycle against every way an entry can
leave the cache, and the NaN refusal at the request boundary.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service
import repro.sparkle.requests
import repro.workloads
from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.service import (
    RequestJournal,
    ResultCache,
    ServiceConfig,
    SolverService,
    _build_request,
    _checksum,
    send_request,
    serve_forever,
)
from repro.sparkle import ServiceDrainingError, SolveRequest, SparkleContext
from repro.sparkle.memory import MemoryManager
from repro.sparkle.metrics import ServiceMetrics
from repro.workloads import make_problem

pytestmark = pytest.mark.service

_REFERENCES: dict = {}


def _payload(seed: int = 1, **kw) -> dict:
    payload = {"problem": "apsp", "n": 24, "seed": seed, "density": 0.4,
               "r": 6, "strategy": "im"}
    payload.update(kw)
    return payload


def _context(**kw) -> SparkleContext:
    kw.setdefault("num_executors", 2)
    kw.setdefault("cores_per_executor", 1)
    return SparkleContext(**kw)


def _solo(payload: dict) -> np.ndarray:
    """A solve of the payload's table with no service in front of it."""
    key = tuple(sorted(payload.items()))
    if key not in _REFERENCES:
        spec, table = make_problem(
            payload["problem"], payload["n"], payload["seed"], payload["density"]
        )
        sc = _context()
        try:
            solver = GepSparkSolver(
                spec, sc, r=payload["r"], kernel=make_kernel(spec, "iterative"),
                strategy=payload["strategy"], collect_stats=False,
            )
            _REFERENCES[key], _ = solver.solve(table)
        finally:
            sc.stop()
    return _REFERENCES[key]


def _wire_solve(service: SolverService, payload: dict):
    """What the socket plane does with one payload, minus the socket."""
    request = _build_request(payload, on_build=service._note_input_built)
    return service.solve(request, timeout=60, wire=payload)


def _counts(service: SolverService) -> tuple[int, int, int]:
    m = service.metrics
    return m.inputs_built, m.engine_passes, m.cache_hits


class TestWireRequest:
    def test_built_on_first_use_only(self):
        built = []
        request = _build_request(_payload(), on_build=lambda: built.append(1))
        copy = dataclasses.replace(request, deadline=5.0)
        thawed = pickle.loads(pickle.dumps(request))
        assert repr(request) and built == []
        table = request.table
        assert built == [1]
        # a replaced copy shares the one table (the tracer's id() tag)
        assert copy.table is table and request.table is table
        assert built == [1]
        assert np.array_equal(thawed.table, table)
        assert thawed.identity() == request.identity()
        assert request.fingerprint() == _build_request(_payload()).fingerprint()


class TestNanBoundary:
    def test_explicit_table_with_a_nan_is_refused(self):
        spec, table = make_problem("apsp", 8, 0, 0.4)
        table = table.copy()
        table[3, 5] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            SolveRequest(spec=spec, table=table, r=2,
                         kernel=make_kernel(spec, "iterative"))

    @pytest.mark.parametrize("problem", ["apsp", "ge", "tc"])
    def test_generated_tables_never_hold_a_nan(self, problem):
        # the lazy wire path skips the NaN scan on the strength of this
        for n, seed, density in itertools.product(
            (1, 7, 24, 64), (0, 1, 9101), (0.0, 0.35, 1.0)
        ):
            spec, table = make_problem(problem, n, seed, density)
            assert table.shape == (n, n)
            assert not (table.dtype.kind in "fc" and np.isnan(table).any())
            SolveRequest(spec=spec, table=table, r=2,
                         kernel=make_kernel(spec, "iterative"))


class TestIdentityMap:
    @given(
        problem=st.sampled_from(["apsp", "ge", "tc"]),
        n=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**31),
        density=st.sampled_from([0.0, 0.25, 0.35, 0.9]),
        r=st.integers(min_value=1, max_value=8),
        strategy=st.sampled_from(["im", "cb", "bcast"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_map_fingerprint_is_the_built_table_fingerprint(
        self, problem, n, seed, density, r, strategy
    ):
        payload = {"problem": problem, "n": n, "seed": seed,
                   "density": density, "r": r, "strategy": strategy}
        cache = ResultCache(4, MemoryManager(None), ServiceMetrics())
        first = _build_request(payload)
        cache.put(first.fingerprint(), np.zeros((1, 1)),
                  identities=[first.identity()])
        built = []
        again = _build_request(payload, on_build=lambda: built.append(1))
        mapped = cache.fingerprint_of(again.identity())
        assert built == []
        spec, table = make_problem(problem, n, seed, density)
        solo = SolveRequest(spec=spec, table=table, r=r, strategy=strategy,
                            kernel=make_kernel(spec, "iterative"))
        assert mapped == solo.fingerprint()
        other = _build_request({**payload, "seed": seed + 1})
        assert cache.fingerprint_of(other.identity()) is None

    def test_map_is_bounded_by_cache_entries(self):
        cache = ResultCache(2, MemoryManager(None), ServiceMetrics())
        cache.put("fp", np.zeros((1, 1)), identities=["a", "b", "c"])
        assert [cache.fingerprint_of(i) for i in "abc"] == ["fp", "fp", None]
        cache.invalidate("fp")
        assert cache.fingerprint_of("a") is None and not cache._fingerprints

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize(
        "how", ["evict", "invalidate", "squeeze", "clear", "corrupt"]
    )
    def test_identity_leaves_with_its_entry(self, how):
        payload = _payload(seed=11)
        config = ServiceConfig(cache_entries=1 if how == "evict" else 32)
        budget = 8 << 20 if how == "squeeze" else None
        sc = _context(memory_budget_bytes=budget)
        try:
            with SolverService(sc, config=config) as service:
                first = _wire_solve(service, payload)
                assert _counts(service) == (1, 1, 0)
                assert _wire_solve(service, payload).from_cache
                assert _counts(service) == (1, 1, 1)
                identity = _build_request(payload).identity()
                fingerprint = first.fingerprint
                integrity = service.metrics.cache_integrity_failures
                if how == "evict":
                    _wire_solve(service, _payload(seed=12))
                elif how == "invalidate":
                    assert service.cache.invalidate(fingerprint)
                elif how == "squeeze":
                    ballast = 5 << 20
                    sc.memory_manager.reserve(
                        "execution", "ballast", ballast, force=True
                    )
                    sc.memory_manager.squeeze(0.5)
                    sc.memory_manager.release("execution", "ballast", ballast)
                elif how == "clear":
                    service.cache.clear()
                else:
                    service.cache._entries[fingerprint].array[0, 0] += 1.0
                built, passes, _ = _counts(service)
                if how != "corrupt":
                    assert service.cache.fingerprint_of(identity) is None
                again = _wire_solve(service, payload)
                assert not again.from_cache
                assert np.array_equal(again.result, _solo(payload))
                assert again.checksum == _checksum(again.result)
                # one build and one pass bring it back ...
                assert _counts(service)[:2] == (built + 1, passes + 1)
                if how == "corrupt":
                    assert service.metrics.cache_integrity_failures == integrity + 1
                # ... and the next identical request builds nothing
                hit = _wire_solve(service, payload)
                assert hit.from_cache
                assert _counts(service)[:2] == (built + 1, passes + 1)
                assert np.array_equal(hit.result, again.result)
        finally:
            sc.stop()

    @pytest.mark.timeout(120)
    def test_eviction_between_lookup_and_get_falls_back_to_a_miss(self):
        payload = _payload(seed=13)
        sc = _context()
        try:
            with SolverService(sc) as service:
                _wire_solve(service, payload)
                lookup = service.cache.fingerprint_of

                def lookup_then_evict(identity):
                    fingerprint = lookup(identity)
                    if fingerprint is not None:
                        service.cache.invalidate(fingerprint)
                    return fingerprint

                service.cache.fingerprint_of = lookup_then_evict
                misses = service.metrics.cache_misses
                response = _wire_solve(service, payload)
                assert not response.from_cache
                assert service.metrics.cache_misses == misses + 1
                assert _counts(service)[:2] == (2, 2)
                assert np.array_equal(response.result, _solo(payload))
        finally:
            sc.stop()

    @pytest.mark.timeout(120)
    def test_concurrent_hits_lose_no_count_and_build_nothing(self):
        payload = _payload(seed=17)
        threads, per_thread = 8, 25
        sc = _context()
        switch = sys.getswitchinterval()
        try:
            with SolverService(sc) as service:
                _wire_solve(service, payload)
                # one shared source read by many threads builds once
                shared = _build_request(
                    _payload(seed=18), on_build=service._note_input_built
                )
                seen: list = []
                errors: list = []

                def client():
                    try:
                        seen.append(id(shared.table))
                        for _ in range(per_thread):
                            assert _wire_solve(service, payload).from_cache
                    except BaseException as exc:  # noqa: BLE001 — asserted below
                        errors.append(exc)

                sys.setswitchinterval(1e-6)
                workers = [threading.Thread(target=client) for _ in range(threads)]
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(timeout=60)
                sys.setswitchinterval(switch)
                assert not any(t.is_alive() for t in workers) and not errors
                assert len(set(seen)) == 1
                assert _counts(service) == (2, 1, threads * per_thread)
        finally:
            sys.setswitchinterval(switch)
            sc.stop()

    @pytest.mark.timeout(120)
    def test_draining_service_sheds_a_would_be_hit(self):
        payload = _payload(seed=14)
        sc = _context()
        try:
            with SolverService(sc) as service:
                _wire_solve(service, payload)
                service.drain()
                with pytest.raises(ServiceDrainingError):
                    _wire_solve(service, payload)
                assert _counts(service) == (1, 1, 0)
                assert service.metrics.draining_sheds == 1
        finally:
            sc.stop()

    @pytest.mark.timeout(180)
    def test_rehydrated_entry_builds_once_then_never(self, tmp_path):
        payload = _payload(seed=15)
        sc = _context()
        try:
            with SolverService(
                sc, journal=RequestJournal(tmp_path / "journal")
            ) as service:
                _wire_solve(service, payload)
            service = SolverService(
                sc, journal=RequestJournal(tmp_path / "journal")
            )
            try:
                service.resume()
                assert service.metrics.results_rehydrated == 1
                first = _wire_solve(service, payload)
                assert first.from_cache
                assert _counts(service) == (1, 0, 1)
                second = _wire_solve(service, payload)
                assert second.from_cache
                assert _counts(service) == (1, 0, 2)
                assert np.array_equal(second.result, _solo(payload))
            finally:
                service.stop()
        finally:
            sc.stop()


def _serve(service, socket_path, max_requests):
    ready = threading.Event()
    server = threading.Thread(
        target=serve_forever, args=(service, socket_path),
        kwargs={"ready": ready, "max_requests": max_requests}, daemon=True,
    )
    server.start()
    assert ready.wait(30)
    return server


class TestSocketHit:
    @pytest.mark.timeout(180)
    def test_a_hit_generates_nothing_and_hashes_once(
        self, tmp_path, monkeypatch
    ):
        calls = {"make_problem": 0, "solve_fingerprint": 0, "_checksum": 0}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        counting(repro.workloads, "make_problem")
        counting(repro.sparkle.requests, "solve_fingerprint")
        counting(repro.service, "_checksum")
        socket_path = str(tmp_path / "solver.sock")
        payload = {**_payload(seed=16), "return_result": True}
        sc = _context()
        service = SolverService(
            sc, journal=RequestJournal(tmp_path / "journal")
        )
        hits = 3
        server = _serve(service, socket_path, max_requests=hits + 2)
        try:
            miss = send_request(socket_path, payload, timeout=60)
            assert miss["status"] == "ok" and not miss["from_cache"]
            # a miss: one input built, fingerprinted, and its result
            # hashed once for cache, journal and reply together
            assert calls == {"make_problem": 1, "solve_fingerprint": 1,
                             "_checksum": 1}
            for _ in range(hits):
                before = dict(calls)
                hit = send_request(socket_path, payload, timeout=60)
                assert hit["status"] == "ok" and hit["from_cache"]
                assert {k: calls[k] - before[k] for k in calls} == {
                    "make_problem": 0, "solve_fingerprint": 0, "_checksum": 1,
                }
                assert hit["result_checksum"] == miss["result_checksum"]
                assert np.array_equal(hit["result"], miss["result"])
            assert np.array_equal(miss["result"], _solo(_payload(seed=16)))
            assert miss["result_checksum"] == _checksum(miss["result"])
            stats = send_request(socket_path, {"op": "stats"}, timeout=60)
            assert stats["inputs_built"] == 1
            assert stats["cache_hits"] == hits
            assert stats["engine_passes"] == 1
            server.join(timeout=30)
        finally:
            service.stop()
            sc.stop()
