"""Block caching and the shared persistent storage used by CB drivers.

:class:`BlockManager` backs ``RDD.cache()``: computed partitions are kept
in (driver-process) memory keyed by ``(rdd_id, partition)``.

:class:`SharedStorage` models the "shared persistent storage" of the
Collect-Broadcast strategy (paper §IV-C): the driver collects blocks and
writes them here; executors read them back in the next stage.  Reads and
writes are byte-accounted so the cost model can price the staging I/O
(SSD on cluster 1, spinning disk on cluster 2 — the Fig. 8 axis).  It
is never written through to disk: a journaled solve's one durable
recovery point is its iteration snapshot, and a resumed solve republishes
the pivot and panels before any task reads them.
"""

from __future__ import annotations

import threading
from typing import Any

from ..util import sizeof_block
from .errors import (
    BlockNotFoundError,
    CorruptBlockError,
    TransientIOError,
)
from .metrics import EngineMetrics

__all__ = ["BlockManager", "SharedStorage"]


class BlockManager:
    """In-memory cache of computed RDD partitions.

    Puts reserve storage bytes from ``memory`` (the context's
    :class:`~repro.sparkle.memory.MemoryManager`); on an unbounded
    manager every put fits.  Under a budget the least-recently-used
    blocks are evicted until the reservation fits, and with a spill
    store (``spill``, a :class:`~repro.sparkle.durable.
    DurableBlockStore`) eviction is MEMORY_AND_DISK: victims are written
    to the spill store (crash-atomic, checksummed) instead of discarded,
    and a memory miss falls back to a verifying disk read.  A spilled
    block that fails its checksum is *never* served — it is dropped and
    the caller recomputes from lineage, metered as
    ``corrupt_blocks_detected``.  Blocks persisted MEMORY_ONLY opt out
    of the disk hop and evict by dropping, which is safe — a dropped
    block is simply recomputed from lineage on next access.
    """

    def __init__(self, memory, *, spill=None, metrics=None) -> None:
        from collections import OrderedDict

        self._blocks: "OrderedDict[tuple[int, int], list]" = OrderedDict()
        self._bytes: dict[tuple[int, int], int] = {}
        self._levels: dict[tuple[int, int], str] = {}
        self._owners: dict[tuple[int, int], Any] = {}
        self._spilled: set[tuple[int, int]] = set()
        self._live_bytes = 0
        self._lock = threading.Lock()
        self.memory = memory
        self.spill = spill
        self._metrics = metrics or EngineMetrics()
        self.evictions = 0

    @staticmethod
    def _spill_key(key: tuple[int, int]) -> tuple:
        return ("cache", key[0], key[1])

    def put(
        self,
        rdd_id: int,
        partition: int,
        items: list,
        level: str = "MEMORY_AND_DISK",
        nbytes: int | None = None,
    ) -> None:
        """Reserve-then-cache; evict-to-disk until the reservation fits.

        ``nbytes`` is the block's ``sum(sizeof_block(x) for x in items)``
        when the caller already knows it (a shuffled partition, sized by
        its fetch); ``None`` walks the records.
        """
        key = (rdd_id, partition)
        if nbytes is None:
            nbytes = sum(sizeof_block(x) for x in items)
        mm = self.memory
        owner = mm.current_owner()
        with self._lock:
            if key in self._blocks:  # idempotent re-put: refresh in place
                self._drop_locked(key)
            self._spilled.discard(key)
            reserved = mm.reserve("storage", owner, nbytes)
            while not reserved and self._blocks:
                self._evict_one_locked()
                reserved = mm.reserve("storage", owner, nbytes)
            if reserved:
                self._blocks[key] = items
                self._bytes[key] = nbytes
                self._levels[key] = level
                self._owners[key] = owner
                self._live_bytes += nbytes
                return
        # No memory even with an empty cache: disk-only residency.  The
        # disk write happens outside the lock; the bookkeeping does not.
        if self.spill is not None and level == "MEMORY_AND_DISK":
            self.spill.put(self._spill_key(key), items)
            with self._lock:
                self._note_spilled_locked(key, nbytes)

    def _evict_one_locked(self) -> None:
        """Evict the LRU block — to the spill store when its level allows."""
        victim, items = self._blocks.popitem(last=False)
        nbytes = self._bytes.pop(victim)
        level = self._levels.pop(victim, "MEMORY_AND_DISK")
        owner = self._owners.pop(victim, None)
        self._live_bytes -= nbytes
        self.evictions += 1
        self.memory.release("storage", owner, nbytes)
        if self.spill is not None and level == "MEMORY_AND_DISK":
            self.spill.put(self._spill_key(victim), items)
            self._note_spilled_locked(victim, nbytes)

    def _note_spilled_locked(self, key: tuple[int, int], nbytes: int) -> None:
        self._spilled.add(key)
        self._metrics.blocks_spilled += 1
        self._metrics.spill_bytes_written += nbytes

    def _drop_locked(self, key: tuple[int, int]) -> None:
        self._blocks.pop(key, None)
        nbytes = self._bytes.pop(key, 0)
        self._levels.pop(key, None)
        owner = self._owners.pop(key, None)
        self._live_bytes -= nbytes
        if nbytes:
            self.memory.release("storage", owner, nbytes)

    def get(self, rdd_id: int, partition: int) -> list | None:
        key = (rdd_id, partition)
        with self._lock:
            got = self._blocks.get(key)
            if got is not None:
                self._blocks.move_to_end(key)
                return got
            spilled = key in self._spilled
        if not spilled or self.spill is None:
            return None
        try:
            items = self.spill.get(self._spill_key(key))
        except (CorruptBlockError, BlockNotFoundError):
            # Checksum failure or vanished file: never serve bad data —
            # forget the block and let the caller recompute from lineage.
            with self._lock:
                self._spilled.discard(key)
            self.spill.delete(self._spill_key(key))
            return None
        self._metrics.spill_reads += 1
        self._metrics.spill_bytes_read += sum(sizeof_block(x) for x in items)
        return items

    def nbytes(self, rdd_id: int, partition: int) -> int | None:
        """The bytes a block in memory was booked with, or ``None`` when
        it is not in memory (never put, evicted or spilled)."""
        with self._lock:
            return self._bytes.get((rdd_id, partition))

    def evict_rdd(self, rdd_id: int) -> None:
        with self._lock:
            for key in [k for k in self._blocks if k[0] == rdd_id]:
                self._drop_locked(key)
            dead = [k for k in self._spilled if k[0] == rdd_id]
            self._spilled.difference_update(dead)
        if self.spill is not None:
            for key in dead:
                self.spill.delete(self._spill_key(key))

    def clear(self) -> int:
        """Drop every cached block and spill file; returns bytes freed.

        The solver service's between-requests sweep: cached partitions
        belong to the previous solve's (now dead) RDDs, so on a
        long-lived context they are a leak, not a cache.  Governor
        reservations release through the same :meth:`_drop_locked` path
        as normal eviction.
        """
        with self._lock:
            freed = self._live_bytes
            for key in list(self._blocks):
                self._drop_locked(key)
            dead = list(self._spilled)
            self._spilled.clear()
        if self.spill is not None:
            for key in dead:
                self.spill.delete(self._spill_key(key))
        return freed

    @property
    def live_bytes(self) -> int:
        with self._lock:
            return self._live_bytes

    @property
    def num_blocks(self) -> int:
        with self._lock:
            return len(self._blocks)

    @property
    def num_spilled(self) -> int:
        with self._lock:
            return len(self._spilled)


class SharedStorage:
    """Driver-mediated key/value store with byte accounting.

    The auxiliary storage CB trades for shuffle efficiency; it is
    deliberately not charged to the memory governor (the paper's §IV-C
    asymmetry: CB survives where IM hits the memory wall).  An attached
    :class:`~repro.sparkle.chaos.FaultPlan` can flake executor-side reads
    transiently (:class:`~repro.sparkle.errors.TransientIOError`, retried
    by the scheduler); driver-side reads are never faulted.  A missing
    block raises the typed :class:`~repro.sparkle.errors.
    BlockNotFoundError` (a ``KeyError`` subclass), which the scheduler
    retries as a recomputation trigger rather than treating as a task
    bug.
    """

    def __init__(self, metrics, fault_plan=None) -> None:
        # key -> (value, its byte size): a read is one lookup
        self._blocks: dict[Any, tuple[Any, int]] = {}
        self._live_bytes = 0
        self._lock = threading.Lock()
        self._metrics = metrics or EngineMetrics()
        self.fault_plan = fault_plan

    def put(self, key: Any, value: Any) -> int:
        """Store a block; returns its byte size.

        The value is held by reference on both backends (no copy on
        ``put``); an offloaded kernel that reads a stored tile gets it
        pickled in its batch's operand pool.
        """
        nbytes = sizeof_block(value)
        with self._lock:
            old = self._blocks.get(key)
            self._blocks[key] = (value, nbytes)
            self._live_bytes += nbytes - (old[1] if old is not None else 0)
            self._metrics.storage_bytes_written += nbytes
            self._metrics.storage_puts += 1
        return nbytes

    def get(self, key: Any) -> Any:
        return self.get_many((key,))[0]

    def get_many(self, keys) -> list:
        """The blocks of ``keys``, in order, under one lock acquisition.

        A CB task reads all of its operands with one call.  Each key
        occurrence is fault-checked and booked (its bytes and one
        ``storage_gets``) in order, so a faulted key
        (:class:`~repro.sparkle.errors.TransientIOError`) or a missing
        one (:class:`~repro.sparkle.errors.BlockNotFoundError`) raises
        after the reads before it are booked, as a per-key loop would.
        """
        plan = self.fault_plan
        blocks = self._blocks
        out: list = []
        nbytes = 0
        with self._lock:
            try:
                for key in keys:
                    if plan is not None and plan.io_fault("storage", key):
                        raise TransientIOError(
                            f"injected shared-storage read failure: {key!r}"
                        )
                    got = blocks.get(key)
                    if got is None:
                        raise BlockNotFoundError(
                            f"shared storage has no block {key!r}", key=key
                        )
                    out.append(got[0])
                    nbytes += got[1]
            finally:
                self._metrics.storage_bytes_read += nbytes
                self._metrics.storage_gets += len(out)
        return out

    def clear(self) -> None:
        """Drop every block."""
        with self._lock:
            self._blocks.clear()
            self._live_bytes = 0

    @property
    def live_bytes(self) -> int:
        with self._lock:
            return self._live_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)
