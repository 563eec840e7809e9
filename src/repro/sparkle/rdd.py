"""Resilient distributed datasets: lazy, lineage-tracked collections.

This is the paper's §II in executable form:

* an :class:`RDD` is an immutable, partitioned collection defined by its
  *lineage* — a compute function plus dependencies on parent RDDs;
* transformations are lazy and classified by dependency kind: *narrow*
  (``map``, ``map_partitions``, ``union`` — pipelined within one stage) vs *wide*
  (``combineByKey``, ``partitionBy`` — requiring a shuffle and starting
  a new stage);
* actions (``collect``, ``count``) hand the final RDD to the DAG
  scheduler.

The operators are the subset the paper's IM and CB programs (Listings
1–2) use, plus the two that other modules' tests run as engine workloads
(``reduceByKey``, ``groupByKey``) — DESIGN §2 lists it.

Fault tolerance comes from recomputation: ``compute`` is pure given the
lineage, so a failed task is simply re-run (see the scheduler's retry
loop and the failure-injection tests).

Mutation warning: values are shared by reference within the process, so
user functions must treat inputs as immutable (copy before update) —
exactly the discipline PySpark imposes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from numpy import ndarray

from ..util import sizeof_block
from .partitioner import HashPartitioner, Partitioner

T = TypeVar("T")

__all__ = [
    "RDD",
    "Aggregator",
    "ROLE_AGGREGATOR",
    "Dependency",
    "NarrowDependency",
    "ShuffleDependency",
    "ParallelCollectionRDD",
    "MapPartitionsRDD",
    "UnionRDD",
    "ShuffledRDD",
    "CheckpointedRDD",
]


# ----------------------------------------------------------------------
# Dependencies
# ----------------------------------------------------------------------
class Dependency:
    """Edge in the lineage graph."""

    def __init__(self, rdd: "RDD") -> None:
        self.rdd = rdd


class NarrowDependency(Dependency):
    """Each output partition reads a bounded set of parent partitions, so
    parent and child pipeline within one stage."""


@dataclass
class Aggregator:
    """combineByKey's three functions (optionally applied map-side)."""

    create_combiner: Callable[[Any], Any]
    merge_value: Callable[[Any, Any], Any]
    merge_combiners: Callable[[Any, Any], Any]
    map_side_combine: bool = True


def _role_create(rv):
    role, arr = rv
    return {role: arr}


def _role_merge_value(acc, rv):
    role, arr = rv
    acc[role] = arr
    return acc


def _role_merge_combiners(a, b):
    a.update(b)
    return a


#: The role combine: a ``(role, tile)`` value per record into one
#: ``{role: tile}`` dict per key — how IM couples a consumer tile with
#: its operands (DESIGN §20).  The engine owns it: a map task under it is
#: bucketed and combined in one C call
#: (:meth:`~repro.sparkle.scheduler.DAGScheduler._shuffle_map_task`).
ROLE_AGGREGATOR = Aggregator(_role_create, _role_merge_value, _role_merge_combiners)


class ShuffleDependency(Dependency):
    """Wide dependency: repartitions the parent by key.

    The shuffle id is assigned eagerly so materialized map outputs can be
    reused across jobs (Spark's stage-skipping, which the iterative GEP
    drivers rely on to avoid re-running earlier iterations).
    """

    def __init__(
        self,
        rdd: "RDD",
        partitioner: Partitioner,
        aggregator: Aggregator | None = None,
    ) -> None:
        super().__init__(rdd)
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.shuffle_id = rdd.ctx._shuffle_manager.new_shuffle_id()


# ----------------------------------------------------------------------
# RDD base
# ----------------------------------------------------------------------
def _grid_key(key) -> bool:
    """Whether ``key`` is an exact ``(int, int)`` tuple: ``sizeof_block``'s
    24 B, sized without a walk."""
    return (
        key.__class__ is tuple
        and len(key) == 2
        and key[0].__class__ is int
        and key[1].__class__ is int
    )


def _records_bytes(items: list) -> int:
    """``sum(sizeof_block(x) for x in items)``, where a record of an
    exact grid key and an exact array is ``32 + nbytes`` (8 for the
    pair, 24 for the key) by arithmetic; any other record is walked."""
    nbytes = 0
    for record in items:
        if (
            record.__class__ is tuple
            and len(record) == 2
            and _grid_key(record[0])
            and record[1].__class__ is ndarray
        ):
            nbytes += 32 + record[1].nbytes
        else:
            nbytes += sizeof_block(record)
    return nbytes


class RDD:
    """Base class; see module docstring.  Construct via SparkleContext."""

    def __init__(self, ctx, deps: list[Dependency]) -> None:
        self.ctx = ctx
        self.deps = deps
        self.id = ctx._new_rdd_id()
        self.partitioner: Partitioner | None = None
        self._cached = False
        self._storage_level = "MEMORY_AND_DISK"
        #: set by :meth:`seal`: no new RDD will be derived from this one
        self.sealed = False

    # -- subclass surface ------------------------------------------------
    def num_partitions(self) -> int:
        raise NotImplementedError

    def compute(self, split: int, task) -> Iterator:
        raise NotImplementedError

    # -- iteration with cache --------------------------------------------
    def iterator(self, split: int, task) -> Iterator:
        if self._cached:
            blocks = self.ctx._block_manager
            cached = blocks.get(self.id, split)
            if cached is not None:
                return iter(cached)
            data, nbytes = self._materialize(split, task)
            blocks.put(self.id, split, data, level=self._storage_level, nbytes=nbytes)
            return iter(data)
        return self.compute(split, task)

    def _materialize(self, split: int, task) -> tuple[list, int]:
        """One partition as a list, with its block bytes
        (:func:`_records_bytes`)."""
        items = list(self.compute(split, task))
        return items, _records_bytes(items)

    # -- caching ----------------------------------------------------------
    def persist(self, storage_level: str = "MEMORY_AND_DISK") -> "RDD":
        """Keep computed partitions across jobs at ``storage_level``.

        ``MEMORY_AND_DISK`` (the default, and Spark's recommended level
        for iterative workloads) lets the
        :class:`~repro.sparkle.storage.BlockManager` spill evicted
        partitions to disk instead of discarding them;
        ``MEMORY_ONLY`` opts out of the disk hop — eviction drops the
        block and it is recomputed from lineage.  Only a context with a
        ``memory_budget_bytes`` ever evicts; without one both levels
        keep every block in memory.
        """
        if storage_level not in ("MEMORY_ONLY", "MEMORY_AND_DISK"):
            raise ValueError(
                f"unsupported storage level {storage_level!r}; "
                "use MEMORY_ONLY or MEMORY_AND_DISK"
            )
        self._cached = True
        self._storage_level = storage_level
        return self

    def cache(self) -> "RDD":
        """Keep computed partitions across jobs (``persist()`` default)."""
        return self.persist()

    def unpersist(self) -> "RDD":
        self._cached = False
        self.ctx._block_manager.evict_rdd(self.id)
        return self

    def seal(self, inclusive: bool = False) -> "RDD":
        """Declare that nothing new will be derived from this RDD's
        ancestors — what lets the engine free them.

        Marks every RDD strictly upstream of this one ``sealed`` (with
        ``inclusive`` this one too).  The scheduler releases a sealed
        RDD's parent shuffle and cached partitions when the last stage
        of a job that reads them completes; an unsealed RDD keeps both
        across jobs (Spark's stage reuse).  Sealing never loses data: a
        later job — or a retry — that needs a released output recomputes
        it from lineage.  The walk stops at sealed nodes, so an
        iterative driver's call per generation costs only the new nodes.
        """
        stack = [self] if inclusive else [dep.rdd for dep in self.deps]
        while stack:
            node = stack.pop()
            if not node.sealed:
                node.sealed = True
                stack.extend(dep.rdd for dep in node.deps)
        return self

    def checkpoint(self) -> "RDD":
        """Materialize now and truncate the lineage.

        Returns a :class:`CheckpointedRDD` holding this RDD's computed
        partitions with no dependencies — jobs on it (or its
        descendants) no longer walk the history.  Long iterative
        programs (the GEP drivers at large ``r``) use this to bound
        driver DAG-walk costs, at the price of losing recompute-from-
        lineage for the truncated prefix (the checkpointed data itself
        is the recovery point, exactly as in Spark).  The checkpoint
        lives in memory, on any context: a journaled GEP solve's durable
        recovery point is its iteration snapshot, not this.

        The replaced lineage is sealed, this RDD included (Spark's
        ``markCheckpointed``): the checkpoint job is its last reader, so
        its staged shuffles and cached partitions are freed as that job
        runs instead of living until :meth:`SparkleContext.stop`.  Go on
        with the returned RDD: this one stays correct, but a later job
        on it recomputes from lineage what the checkpoint let go.
        """
        self.seal(inclusive=True)
        parts = self.ctx.run_job(self, list, action="checkpoint")
        return CheckpointedRDD(self.ctx, parts, self.partitioner)

    # -- narrow transformations -------------------------------------------
    def map_partitions(
        self,
        f: Callable[[Iterator, int], Iterable],
        preserves_partitioning: bool = False,
    ) -> "RDD":
        """Lowest-level narrow transformation: ``f(iterator, split)``."""
        return MapPartitionsRDD(self, f, preserves_partitioning)

    def map(self, f: Callable[[T], Any]) -> "RDD":
        return self.map_partitions(lambda it, _pid: (f(x) for x in it))

    def flatMap(self, f: Callable[[T], Iterable]) -> "RDD":
        return self.map_partitions(
            lambda it, _pid: itertools.chain.from_iterable(f(x) for x in it)
        )

    def mapValues(self, f: Callable[[Any], Any]) -> "RDD":
        return self.map_partitions(
            lambda it, _pid: ((k, f(v)) for k, v in it), preserves_partitioning=True
        )

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.ctx, [self, other])

    # -- wide transformations ----------------------------------------------
    def _resolve_partitioner(
        self, partitioner: Partitioner | int | None
    ) -> Partitioner:
        if isinstance(partitioner, Partitioner):
            return partitioner
        if isinstance(partitioner, int):
            return HashPartitioner(partitioner)
        return HashPartitioner(self.ctx.default_parallelism)

    def partitionBy(
        self, num_partitions: int | None = None, partitioner: Partitioner | None = None
    ) -> "RDD":
        """Repartition by key.  A no-op if already partitioned the same way
        (the paper's footnote: Spark skips the shuffle when it knows the
        input partitioning)."""
        p = partitioner or self._resolve_partitioner(num_partitions)
        if self.partitioner is not None and self.partitioner == p:
            return self
        return ShuffledRDD(self, p, aggregator=None)

    def combineByKey(
        self,
        create_combiner: Callable[[Any], Any] | Aggregator,
        merge_value: Callable[[Any, Any], Any] | None = None,
        merge_combiners: Callable[[Any, Any], Any] | None = None,
        num_partitions: int | Partitioner | None = None,
        map_side_combine: bool = True,
    ) -> "RDD":
        """Combine the values of each key: with the three functions, or
        with an :class:`Aggregator` in their place (such as
        :data:`ROLE_AGGREGATOR`)."""
        p = self._resolve_partitioner(num_partitions)
        if isinstance(create_combiner, Aggregator):
            agg = create_combiner
        else:
            agg = Aggregator(
                create_combiner, merge_value, merge_combiners, map_side_combine
            )
        return ShuffledRDD(self, p, agg)

    def reduceByKey(
        self, f: Callable[[Any, Any], Any], num_partitions: int | Partitioner | None = None
    ) -> "RDD":
        return self.combineByKey(lambda v: v, f, f, num_partitions)

    def groupByKey(self, num_partitions: int | Partitioner | None = None) -> "RDD":
        return self.combineByKey(
            lambda v: [v],
            lambda acc, v: (acc.append(v), acc)[1],
            lambda a, b: a + b,
            num_partitions,
            map_side_combine=False,
        )

    # -- actions -------------------------------------------------------------
    def collect(self) -> list:
        """Every record, in partition order.  The driver traffic booked
        is each partition's ``sizeof_block`` bytes: a cached partition's
        are the ones its block was booked with, read back, and the rest's
        are sized by :func:`_records_bytes`."""
        parts = self.ctx.run_job(self, lambda it: list(it), action="collect")
        blocks = self.ctx._block_manager if self._cached else None
        out: list = []
        nbytes = 0
        for split, p in enumerate(parts):
            out.extend(p)
            known = None if blocks is None else blocks.nbytes(self.id, split)
            nbytes += _records_bytes(p) if known is None else known
        self.ctx._record_collect(nbytes)
        return out

    def count(self) -> int:
        return sum(self.ctx.run_job(self, lambda it: sum(1 for _ in it), action="count"))

    def getNumPartitions(self) -> int:
        return self.num_partitions()

    # -- introspection ---------------------------------------------------------
    def to_debug_string(self, indent: str = "") -> str:
        """Lineage dump, Spark's ``toDebugString`` flavour."""
        kind = type(self).__name__
        line = f"{indent}({self.num_partitions()}) {kind}[{self.id}]"
        if self._cached:
            line += " [cached]"
        lines = [line]
        for dep in self.deps:
            marker = "+-" if isinstance(dep, NarrowDependency) else "*-"
            lines.append(dep.rdd.to_debug_string(indent + f" {marker} "))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(id={self.id}, partitions={self.num_partitions()})"


# ----------------------------------------------------------------------
# Concrete RDDs
# ----------------------------------------------------------------------
class ParallelCollectionRDD(RDD):
    """Driver-side collection sliced into partitions."""

    def __init__(self, ctx, data: Sequence, num_partitions: int) -> None:
        super().__init__(ctx, [])
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        items = list(data)
        n = num_partitions
        self._slices = [
            items[(len(items) * p) // n : (len(items) * (p + 1)) // n]
            for p in range(n)
        ]

    def num_partitions(self) -> int:
        return len(self._slices)

    def compute(self, split: int, task) -> Iterator:
        return iter(self._slices[split])


class MapPartitionsRDD(RDD):
    """Narrow, pipelined transformation."""

    def __init__(
        self, prev: RDD, f: Callable[[Iterator, int], Iterable], preserves: bool
    ) -> None:
        super().__init__(prev.ctx, [NarrowDependency(prev)])
        self._prev = prev
        self._f = f
        if preserves:
            self.partitioner = prev.partitioner

    def num_partitions(self) -> int:
        return self._prev.num_partitions()

    def compute(self, split: int, task) -> Iterator:
        return iter(self._f(self._prev.iterator(split, task), split))


class UnionRDD(RDD):
    """Concatenation of parents' partitions (narrow, no data movement)."""

    def __init__(self, ctx, rdds: Sequence[RDD]) -> None:
        if not rdds:
            raise ValueError("union of no RDDs")
        deps: list[Dependency] = []
        out_start = 0
        self._offsets: list[tuple[RDD, int, int]] = []
        for rdd in rdds:
            length = rdd.num_partitions()
            deps.append(NarrowDependency(rdd))
            self._offsets.append((rdd, out_start, length))
            out_start += length
        self._total = out_start
        super().__init__(ctx, deps)

    def num_partitions(self) -> int:
        return self._total

    def compute(self, split: int, task) -> Iterator:
        for rdd, start, length in self._offsets:
            if start <= split < start + length:
                return rdd.iterator(split - start, task)
        raise IndexError(split)


class ShuffledRDD(RDD):
    """Reduce side of a shuffle; optionally aggregates by key.

    Without an aggregator it passes key/value pairs through repartitioned
    (``partitionBy``); with one it implements combineByKey semantics.
    """

    def __init__(
        self, prev: RDD, partitioner: Partitioner, aggregator: Aggregator | None
    ) -> None:
        self._shuffle_dep = ShuffleDependency(prev, partitioner, aggregator)
        super().__init__(prev.ctx, [self._shuffle_dep])
        self.partitioner = partitioner

    def num_partitions(self) -> int:
        return self.partitioner.num_partitions

    def _fetch(self, split: int, task) -> tuple[list, int]:
        """This reducer's records and the bytes the fetch read."""
        dep = self._shuffle_dep
        pool = self.ctx._executors
        my_executor = pool.executor_for(split)
        items, nbytes, remote = self.ctx._shuffle_manager.fetch(
            dep.shuffle_id,
            split,
            dep.rdd.num_partitions(),
            remote_map_partition=lambda mp: pool.executor_for(mp) != my_executor,
        )
        if task is not None:
            task.shuffle_bytes_read += nbytes
            task.shuffle_bytes_remote += remote
        return items, nbytes

    def _materialize(self, split: int, task) -> tuple[list, int]:
        if self._shuffle_dep.aggregator is not None:
            return super()._materialize(split, task)
        # The fetch summed ``16 + sizeof_block(value)`` per record; a
        # cached ``(key, value)`` record is ``8 + sizeof_block(key) +
        # sizeof_block(value)``, so only the keys are left to size.  An
        # exact ``(int, int)`` grid key is ``sizeof_block``'s 24 B.
        items, fetched = self._fetch(split, task)
        for key, _value in items:
            if _grid_key(key):
                fetched += 16
            else:
                fetched += sizeof_block(key) - 8
        return items, fetched

    def compute(self, split: int, task) -> Iterator:
        items, _nbytes = self._fetch(split, task)
        agg = self._shuffle_dep.aggregator
        if agg is None:
            return iter(items)
        combined: dict[Any, Any] = {}
        if agg.map_side_combine:
            # Items are already combiners.
            for k, c in items:
                combined[k] = (
                    c if k not in combined else agg.merge_combiners(combined[k], c)
                )
        else:
            for k, v in items:
                combined[k] = (
                    agg.create_combiner(v)
                    if k not in combined
                    else agg.merge_value(combined[k], v)
                )
        return iter(combined.items())


class CheckpointedRDD(RDD):
    """Materialized partitions with an empty lineage (see ``checkpoint``)."""

    def __init__(self, ctx, partitions: list[list], partitioner) -> None:
        super().__init__(ctx, [])
        self._parts = partitions
        self.partitioner = partitioner

    def num_partitions(self) -> int:
        return len(self._parts)

    def compute(self, split: int, task) -> Iterator:
        return iter(self._parts[split])

