"""Shuffle manager: the wide-dependency data plane.

Map-side tasks bucket their output by reducer partition and "stage" the
buckets locally (the paper's §IV-C point: wide transformations write
intermediate data to local SSD before it is shuffled); reduce-side tasks
fetch and concatenate buckets in map-partition order, which keeps results
deterministic regardless of task execution order.

Byte accounting is exact (NumPy payloads report ``nbytes``).  Every
write reserves its staged bytes from the execution pool of the context's
:class:`~repro.sparkle.memory.MemoryManager`; on an unbounded manager
the reservation always fits.  Under a budget (a context constructed with
``memory_budget_bytes``, which also attaches a spill store) a failed
reservation spills the *oldest* staged outputs to disk (checksummed,
crash-atomic — the :class:`~repro.sparkle.durable.DurableBlockStore`
machinery) until the write fits — the staging wall the paper reports
for large IM configurations, survived instead of hit.  Reducers
transparently read spilled outputs back; a spilled block that fails its
checksum is treated as a missing map output
(:class:`~repro.sparkle.errors.ShuffleFetchFailed`) and recomputed from
lineage — corruption degrades to recomputation, never to wrong data.

Fault tolerance: a reducer that finds map outputs missing raises
:class:`~repro.sparkle.errors.ShuffleFetchFailed` naming exactly the
missing partitions, and the scheduler recomputes them from lineage —
outputs go missing when the chaos plane kills an executor and
:meth:`ShuffleManager.drop_executor_outputs` discards everything that
executor had staged.  An attached
:class:`~repro.sparkle.chaos.FaultPlan` can also flake individual map
writes (transient staging overflow, retried at once).
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from numpy import ndarray

from ..util import sizeof_block
from .errors import (
    CorruptBlockError,
    BlockNotFoundError,
    ShuffleFetchFailed,
    TransientIOError,
)
from .metrics import EngineMetrics

__all__ = ["ShuffleManager"]


def pack_map_output(*_args, **_kwargs):
    """Tombstone of the deleted serialised staging path; nothing calls it.

    ``bench/tracer.py`` — frozen by ``BENCHMARK.json`` — still names this
    attribute as its ``serialize.pack`` target, and ``bench/run.py
    --selftest`` fails on a target it cannot resolve.  Delete it in the
    change that is allowed to drop that target.
    """
    raise TypeError("pack_map_output is gone: map outputs are staged by reference")


class ShuffleManager:
    """In-memory shuffle store with byte accounting and spill-to-disk.

    Map outputs are staged by reference on every backend, and byte
    accounting is per destination (a tile fanned out to five reducers
    counts five times) — the logical volume the analytical counts model
    (:mod:`repro.cluster.counts`) is validated against.
    """

    def __init__(
        self,
        memory,
        fault_plan=None,
        *,
        spill=None,
        metrics=None,
    ) -> None:
        self.fault_plan = fault_plan
        self.memory = memory
        self.spill = spill
        self._metrics = metrics or EngineMetrics()
        self._lock = threading.Lock()
        # (shuffle_id, map_partition) -> {reduce_partition: [items]}
        self._outputs: dict[tuple[int, int], dict[int, list]] = {}
        # (shuffle_id, map_partition) -> {reduce_partition: nbytes}: every
        # staged output's buckets, sized once at write — kept in memory
        # also while the buckets are spilled, dropped by _discard_locked
        self._bucket_bytes: dict[tuple[int, int], dict[int, int]] = {}
        # keys whose buckets live in the spill store, not memory
        self._spilled: set[tuple[int, int]] = set()
        self._owners: dict[tuple[int, int], Any] = {}
        # shuffle_id -> its staged map partitions (the keys of
        # _bucket_bytes, by shuffle): release() and has_outputs() look a
        # shuffle up instead of scanning every staged key
        self._staged_maps: dict[int, set[int]] = {}
        self._live_bytes = 0
        self._next_shuffle_id = 0
        self.total_bytes_written = 0
        self.total_bytes_read = 0

    # ------------------------------------------------------------------
    def new_shuffle_id(self) -> int:
        with self._lock:
            sid = self._next_shuffle_id
            self._next_shuffle_id += 1
            return sid

    def live_bytes(self) -> int:
        """In-memory staged bytes (spilled outputs live on disk)."""
        with self._lock:
            return self._live_bytes

    @staticmethod
    def _spill_block_key(key: tuple[int, int]) -> tuple:
        return ("shuffle", key[0], key[1])

    # ------------------------------------------------------------------
    def write(
        self,
        shuffle_id: int,
        map_partition: int,
        buckets: dict[int, list],
    ) -> int:
        """Store one map task's buckets; returns bytes written."""
        if self.fault_plan is not None and self.fault_plan.io_fault(
            "overflow", shuffle_id, map_partition
        ):
            raise TransientIOError(
                f"injected staging overflow: shuffle {shuffle_id} "
                f"map partition {map_partition}"
            )
        # The one pass over the records: every later reader of a size
        # (fetch, spill, release) looks it up.  A record costs
        # ``16 + sizeof_block(value)`` (the key assumed small/fixed), but
        # each distinct value object is sized once: fan-out records share
        # one role tuple, and ``walked`` — keyed by ``id``, which cannot
        # be reused while the buckets hold the objects — lives for this
        # write only.  An exact array reports its ``nbytes``, which is
        # what ``sizeof_block`` would return.
        sizes = {}
        walked: dict[int, int] = {}
        for reduce_partition, items in buckets.items():
            size = 16 * len(items)
            for _key, value in items:
                if value.__class__ is ndarray:
                    size += value.nbytes
                    continue
                known = walked.get(id(value))
                if known is None:
                    known = walked[id(value)] = sizeof_block(value)
                size += known
            sizes[reduce_partition] = size
        nbytes = sum(sizes.values())
        key = (shuffle_id, map_partition)
        with self._lock:
            self._stage_locked(key, buckets, sizes, nbytes)
            self.total_bytes_written += nbytes
        return nbytes

    def _output_bytes_locked(self, key: tuple[int, int]) -> int:
        """Bytes of one staged output, in memory or spilled."""
        return sum(self._bucket_bytes[key].values())

    def _stage_locked(
        self,
        key: tuple[int, int],
        buckets: dict[int, list],
        sizes: dict[int, int],
        nbytes: int,
    ) -> None:
        """Reserve-then-stage; spill oldest staged outputs until it fits."""
        mm = self.memory
        owner = mm.current_owner()
        # Idempotent overwrite: a retried or recomputed map task
        # re-stages the same output.
        self._discard_locked(key)
        self._bucket_bytes[key] = sizes
        self._staged_maps.setdefault(key[0], set()).add(key[1])
        reserved = mm.reserve("execution", owner, nbytes)
        while not reserved and self._outputs:
            self._spill_oldest_locked()
            reserved = mm.reserve("execution", owner, nbytes)
        if not reserved:
            # Nothing left to spill and still no room for this one output.
            if self.spill is not None:
                # Disk-only staging: the write itself goes straight to disk.
                self._spill_buckets_locked(key, buckets, nbytes)
                return
            # No spill store: first-reservation rule — grant past the
            # budget rather than deadlock or fail the stage.
            mm.reserve("execution", owner, nbytes, force=True)
        self._outputs[key] = buckets
        self._owners[key] = owner
        self._live_bytes += nbytes

    def _spill_oldest_locked(self) -> None:
        """Move the oldest in-memory staged output to the spill store."""
        victim = next(iter(self._outputs))
        if self.spill is None:
            # Without a spill store the output is simply dropped:
            # consumers hit ShuffleFetchFailed and recompute it from
            # lineage.
            self._discard_locked(victim)
            return
        buckets = self._outputs.pop(victim)
        nbytes = self._output_bytes_locked(victim)
        self._live_bytes -= nbytes
        self.memory.release("execution", self._owners.pop(victim, None), nbytes)
        self._spill_buckets_locked(victim, buckets, nbytes)

    def _spill_buckets_locked(
        self, key: tuple[int, int], buckets: dict[int, list], nbytes: int
    ) -> None:
        self.spill.put(self._spill_block_key(key), buckets)
        self._spilled.add(key)
        self._metrics.shuffle_blocks_spilled += 1
        self._metrics.spill_bytes_written += nbytes

    def _discard_locked(self, key: tuple[int, int], drop_spill_file: bool = True) -> int:
        """Forget a staged output (memory accounting, bucket sizes and
        spill bookkeeping) — the one way a staged output goes away.
        Returns the in-memory bytes it held."""
        sizes = self._bucket_bytes.pop(key, None)
        if sizes is None:
            return 0
        maps = self._staged_maps[key[0]]
        maps.discard(key[1])
        if not maps:
            del self._staged_maps[key[0]]
        stale = 0
        if key in self._outputs:
            stale = sum(sizes.values())
            del self._outputs[key]
            self._live_bytes -= stale
            owner = self._owners.pop(key, None)
            if stale:
                self.memory.release("execution", owner, stale)
        if key in self._spilled:
            self._spilled.discard(key)
            if drop_spill_file and self.spill is not None:
                self.spill.delete(self._spill_block_key(key))
        return stale

    def _fetch_one_locked(self, key: tuple[int, int]) -> dict[int, list]:
        """One map output's buckets, reading back from spill if needed."""
        got = self._outputs.get(key)
        if got is not None:
            return got
        try:
            buckets = self.spill.get(self._spill_block_key(key))
        except (CorruptBlockError, BlockNotFoundError):
            # A corrupted spill block is never served: treat it as a
            # missing map output so the scheduler recomputes from lineage.
            self._discard_locked(key)
            raise ShuffleFetchFailed(key[0], (key[1],)) from None
        self._metrics.spill_reads += 1
        self._metrics.spill_bytes_read += self._output_bytes_locked(key)
        return buckets

    def fetch(
        self,
        shuffle_id: int,
        reduce_partition: int,
        num_map_partitions: int,
        remote_map_partition=None,
    ) -> tuple[list, int, int]:
        """All items destined for one reducer, in map-partition order.

        Returns ``(items, bytes_read, remote_bytes_read)`` where the
        remote portion counts map outputs whose producing partition the
        ``remote_map_partition(map_pid)`` predicate marks as living on a
        different executor than the requester (``None`` = count nothing
        as remote).  Missing map outputs raise
        :class:`~repro.sparkle.errors.ShuffleFetchFailed` so the
        scheduler can recompute them from lineage.
        """
        items: list = []
        nbytes = remote = 0
        with self._lock:
            staged = self._staged_maps.get(shuffle_id, ())
            missing = tuple(
                mp for mp in range(num_map_partitions) if mp not in staged
            )
            if missing:
                raise ShuffleFetchFailed(shuffle_id, missing)
            for mp in range(num_map_partitions):
                key = (shuffle_id, mp)
                chunk = self._fetch_one_locked(key).get(reduce_partition)
                if chunk is None:
                    continue
                items.extend(chunk)
                size = self._bucket_bytes[key][reduce_partition]
                nbytes += size
                if remote_map_partition is not None and remote_map_partition(mp):
                    remote += size
            self.total_bytes_read += nbytes
        return items, nbytes, remote

    def release(self, shuffle_id: int) -> int:
        """Drop one shuffle's staged data, in memory and spilled.

        Called by the scheduler when a sealed shuffle's last reader
        stage of a job completes (``DAGScheduler.run_job`` — the hot
        caller, ~40–120 times a solve) and when a shuffle-map stage
        aborts.  A later fetch of a released output raises
        :class:`~repro.sparkle.errors.ShuffleFetchFailed` and is
        recomputed from lineage.  Returns the in-memory bytes reclaimed.
        """
        with self._lock:
            return sum(
                self._discard_locked((shuffle_id, mp))
                for mp in list(self._staged_maps.get(shuffle_id, ()))
            )

    def clear(self) -> int:
        """Drop every staged output of every shuffle; returns bytes freed.

        Called by ``SparkleContext.reclaim_solve_state`` (the service's
        between-requests sweep) and ``SparkleContext.stop``: what a
        solve left staged — its last generation, anything unsealed,
        anything recovery re-staged — can never be fetched again once
        its RDDs are dead, and would hold its bytes and governor
        reservations for as long as the context is referenced.
        """
        with self._lock:
            return sum(self._discard_locked(key) for key in list(self._bucket_bytes))

    def drop_executor_outputs(
        self, owns_map_partition: Callable[[int], bool]
    ) -> list[tuple[int, int]]:
        """Discard every staged output owned by a lost executor.

        ``owns_map_partition(map_pid)`` is the placement predicate (the
        pool's ``executor_for``).  Returns the dropped
        ``(shuffle_id, map_partition)`` keys; consumers of those outputs
        will hit :class:`~repro.sparkle.errors.ShuffleFetchFailed` and
        force lineage recomputation.  Spilled outputs die with their
        executor too — the paper's local-SSD staging is per-node.
        """
        with self._lock:
            victims = [k for k in self._bucket_bytes if owns_map_partition(k[1])]
            for key in victims:
                self._discard_locked(key)
            return victims

    def has_output(self, shuffle_id: int, map_partition: int) -> bool:
        with self._lock:
            return (shuffle_id, map_partition) in self._bucket_bytes

    def has_outputs(self, shuffle_id: int, num_map_partitions: int) -> bool:
        """Whether every map output of a shuffle is staged (in memory or
        spilled) — the scheduler's "is this stage materialized", one
        lock per stage."""
        with self._lock:
            staged = self._staged_maps.get(shuffle_id, ())
            return all(mp in staged for mp in range(num_map_partitions))

    @property
    def num_shuffles(self) -> int:
        """Shuffles with at least one staged map output."""
        with self._lock:
            return len(self._staged_maps)

    @property
    def num_spilled(self) -> int:
        with self._lock:
            return len(self._spilled)
