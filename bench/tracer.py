"""Span tracer that wraps the program's layer entry points from outside.

A span is ``(id, name, start, end, parent, tag)``; start/end are
``time.perf_counter()`` (CLOCK_MONOTONIC, so comparable across the
benchmark's processes).  The parent comes from a thread-local stack;
tasks that ``ExecutorPool.run_tasks`` hands to executor threads are
re-parented to the ``run_tasks`` span that submitted them.  Spans stay in
per-thread lists in memory and are drained by the benchmark between
rounds; nothing is written while a round runs.

Targets that a later refactor removes are skipped (their metrics read 0)
rather than failing the benchmark: a change that claims a gain may not
edit these files.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter

Span = tuple  # (id, name, start, end, parent_id | None, tag)


def _tag_solve(args, kwargs):
    return id(args[1])  # the table: the same object submit() was handed


def _tag_kernel(args, kwargs):
    # nominal cell updates of one tile-kernel call: |x| * pivot depth
    return args[2].size * args[3].shape[1]


def _tag_request(args, kwargs):
    request = args[1]
    return (request.request_id, id(request.table))


def targets(role: str) -> list[tuple[str, str, str, object]]:
    """``(span name, module, dotted attribute, tagger)`` per wrapped call.

    In a service process the solver's ``solve()`` *is* the engine pass,
    so it is recorded under that name there.
    """
    solve = "service.engine_pass" if role == "service" else "core.solve"
    return [
        (solve, "repro.core.dpspark", "GepSparkSolver.solve", _tag_solve),
        ("scheduler.run_job", "repro.sparkle.scheduler", "DAGScheduler.run_job", None),
        ("executors.run_tasks", "repro.sparkle.executors", "ExecutorPool.run_tasks", None),
        ("rdd.collect", "repro.sparkle.rdd", "RDD.collect", None),
        ("shuffle.write", "repro.sparkle.shuffle", "ShuffleManager.write", None),
        ("shuffle.fetch", "repro.sparkle.shuffle", "ShuffleManager.fetch", None),
        ("storage.put", "repro.sparkle.storage", "SharedStorage.put", None),
        ("storage.get", "repro.sparkle.storage", "SharedStorage.get", None),
        ("kernels.run", "repro.kernels.iterative", "IterativeKernel.run", _tag_kernel),
        ("backend.run_kernel", "repro.sparkle.backend", "ProcessBackend.run_kernel", None),
        ("backend.run_kernel", "repro.sparkle.backend", "ProcessBackend.run_kernel_batch", None),
        # a module function: patched where the shuffle layer looks it up
        ("serialize.pack", "repro.sparkle.shuffle", "pack_map_output", None),
        ("durable.append", "repro.sparkle.durable", "SolveJournal.append", None),
        ("durable.put", "repro.sparkle.durable", "DurableBlockStore.put", None),
        ("service.solve", "repro.service", "SolverService.solve", _tag_request),
        ("service.submit", "repro.service", "SolverService.submit", _tag_request),
        ("service.cache_get", "repro.service", "ResultCache.get", None),
        ("service.cache_put", "repro.service", "ResultCache.put", None),
        ("service.journal_admit", "repro.service", "RequestJournal.admit", None),
        ("service.journal_settle", "repro.service", "RequestJournal.settle", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list[Span]] = []
        self._patched: list[tuple[object, str, object]] = []  # original None = inherited
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------
    def _state(self):
        tls = self._tls
        try:
            return tls.stack, tls.buf
        except AttributeError:
            tls.stack, tls.buf = [], []
            with self._lock:
                self._buffers.append(tls.buf)
            return tls.stack, tls.buf

    def _wrap(self, name: str, fn, tagger):
        ids, tls, state = self._ids, self._tls, self._state

        def traced(*args, **kwargs):
            try:  # inlined fast path of _state(): ~50 k spans per round
                stack, buf = tls.stack, tls.buf
            except AttributeError:
                stack, buf = state()
            tag = None
            if tagger is not None:
                try:
                    tag = tagger(args, kwargs)
                except Exception:  # a changed signature costs the tag only
                    pass
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                buf.append((sid, name, start, end, parent, tag))

        traced.__wrapped__ = fn
        return traced

    def _wrap_run_tasks(self, fn):
        """``executors.run_tasks`` plus one ``executors.task`` span per
        thunk, parented across threads and tagged with its queue wait."""
        ids, state = self._ids, self._state

        def traced(pool, thunks, *args, **kwargs):
            stack, buf = state()
            sid = next(ids)
            parent = stack[-1] if stack else None
            submitted = perf_counter()

            def wrap_thunk(thunk):
                def task():
                    tstack, tbuf = state()
                    tid = next(ids)
                    tstack.append(tid)
                    start = perf_counter()
                    try:
                        return thunk()
                    finally:
                        end = perf_counter()
                        tstack.pop()
                        tbuf.append(
                            (tid, "executors.task", start, end, sid, start - submitted)
                        )

                return task

            stack.append(sid)
            try:
                return fn(pool, [wrap_thunk(t) for t in thunks], *args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                buf.append((sid, "executors.run_tasks", submitted, end, parent, None))

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------
    def install(self, role: str) -> None:
        """Wrap every target that exists; remember the rest as missing."""
        self.missing = []
        for name, module, dotted, tagger in targets(role):
            try:
                owner = importlib.import_module(module)
                *path, attr = dotted.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{dotted}")
                continue
            if name == "executors.run_tasks":
                wrapper = self._wrap_run_tasks(original)
            else:
                wrapper = self._wrap(name, original, tagger)
            # an inherited method is shadowed on the subclass, then deleted
            inherited = attr not in vars(owner)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, None if inherited else original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def drain(self) -> list[Span]:
        """All finished spans since the last drain (call between rounds)."""
        with self._lock:
            out: list[Span] = []
            for buf in self._buffers:
                out.extend(buf)
                del buf[:]
        return out


# -- aggregation -------------------------------------------------------
def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def aggregate(spans: list[Span]) -> dict[str, float]:
    """``<span>.calls``, ``.busy_s`` (summed over threads) and ``.self_s``
    (duration minus the part child spans cover) for every span name, plus
    the task and kernel roll-ups."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _tag in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _parent, tag in spans:
        duration = end - start
        own = duration - _covered(children.get(sid, ()), start, end)
        if name == "executors.task":
            out["executors.task_run_s"] += duration
            out["executors.task_self_s"] += own
            out["executors.task_wait_s"] += tag
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += duration
        out[f"{name}.self_s"] += own
        if name == "kernels.run" and tag is not None:
            out["kernels.cell_updates"] += tag
    busy = out.get("kernels.run.busy_s", 0.0)
    if busy > 0:
        out["kernels.updates_per_s"] = out["kernels.cell_updates"] / busy
    return dict(out)


def queue_waits(spans: list[Span]) -> list[float]:
    """Seconds from ``submit()`` returning to that request's engine pass
    starting, matched on the table object the two calls share."""
    submit_end: dict[int, float] = {}
    waits: list[float] = []
    for _sid, name, start, end, _parent, tag in sorted(spans, key=lambda s: s[2]):
        if name == "service.submit" and tag is not None:
            submit_end[tag[1]] = end
        elif name == "service.engine_pass" and tag in submit_end:
            waits.append(max(0.0, start - submit_end.pop(tag)))
    return waits


def solve_seconds(spans: list[Span]) -> dict[str, float]:
    """Server-side submit-to-result seconds per request id."""
    return {
        tag[0]: end - start
        for _sid, name, start, end, _parent, tag in spans
        if name == "service.solve" and tag is not None and tag[0] is not None
    }
