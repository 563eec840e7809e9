"""Resilient distributed datasets: lazy, lineage-tracked collections.

This is the paper's §II in executable form:

* an :class:`RDD` is an immutable, partitioned collection defined by its
  *lineage* — a compute function plus dependencies on parent RDDs;
* transformations are lazy and classified by dependency kind: *narrow*
  (``map``, ``filter``, ``union`` — pipelined within one stage) vs *wide*
  (``combineByKey``, ``partitionBy``, ``join`` — requiring a shuffle and
  starting a new stage);
* actions (``collect``, ``count``, ``reduce``) hand the final RDD to the
  DAG scheduler.

Fault tolerance comes from recomputation: ``compute`` is pure given the
lineage, so a failed task is simply re-run (see the scheduler's retry
loop and the failure-injection tests).

Mutation warning: values are shared by reference within the process, so
user functions must treat inputs as immutable (copy before update) —
exactly the discipline PySpark imposes.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from ..util import sizeof_block
from .partitioner import HashPartitioner, Partitioner

T = TypeVar("T")

__all__ = [
    "RDD",
    "Aggregator",
    "Dependency",
    "NarrowDependency",
    "OneToOneDependency",
    "RangeDependency",
    "ShuffleDependency",
    "ParallelCollectionRDD",
    "MapPartitionsRDD",
    "UnionRDD",
    "ShuffledRDD",
    "CheckpointedRDD",
    "DurableCheckpointRDD",
]


# ----------------------------------------------------------------------
# Dependencies
# ----------------------------------------------------------------------
class Dependency:
    """Edge in the lineage graph."""

    def __init__(self, rdd: "RDD") -> None:
        self.rdd = rdd


class NarrowDependency(Dependency):
    """Each output partition depends on a bounded set of parent partitions."""

    def parents(self, split: int) -> Sequence[int]:
        raise NotImplementedError


class OneToOneDependency(NarrowDependency):
    def parents(self, split: int) -> Sequence[int]:
        return (split,)


class RangeDependency(NarrowDependency):
    """Union-style: parent partition range mapped into the child's space."""

    def __init__(self, rdd: "RDD", in_start: int, out_start: int, length: int) -> None:
        super().__init__(rdd)
        self.in_start = in_start
        self.out_start = out_start
        self.length = length

    def parents(self, split: int) -> Sequence[int]:
        if self.out_start <= split < self.out_start + self.length:
            return (split - self.out_start + self.in_start,)
        return ()


@dataclass
class Aggregator:
    """combineByKey's three functions (optionally applied map-side)."""

    create_combiner: Callable[[Any], Any]
    merge_value: Callable[[Any, Any], Any]
    merge_combiners: Callable[[Any, Any], Any]
    map_side_combine: bool = True


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

    def _materialize(self, split: int, task) -> tuple[list, int | None]:
        """One partition as a list, with its block bytes where they are
        known without walking the records (``None`` otherwise)."""
        return list(self.compute(split, task)), None

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
        is the recovery point, exactly as in Spark).

        On a context constructed with ``checkpoint_dir`` this is a
        *reliable* checkpoint (Spark's ``setCheckpointDir`` semantics):
        partitions are additionally written to the durable store with
        checksums, and the returned :class:`DurableCheckpointRDD` falls
        back to recomputing this RDD's lineage if a stored block is
        later found corrupt.

        The replaced lineage is sealed, this RDD included (Spark's
        ``markCheckpointed``): the checkpoint job is its last reader, so
        its staged shuffles and cached partitions are freed as that job
        runs instead of living until :meth:`SparkleContext.stop`.  Go on
        with the returned RDD: this one stays correct, but a later job
        on it recomputes from lineage what the checkpoint let go.
        """
        self.seal(inclusive=True)
        parts = self.ctx.run_job(self, list, action="checkpoint")
        store = getattr(self.ctx, "durable_store", None)
        if store is None:
            return CheckpointedRDD(self.ctx, parts, self.partitioner)
        for split, items in enumerate(parts):
            store.put(("rdd", self.id, split), items)
        return DurableCheckpointRDD(
            self.ctx, store, self.id, len(parts), self.partitioner, fallback=self
        )

    # -- narrow transformations -------------------------------------------
    def map_partitions(
        self,
        f: Callable[[Iterator, int], Iterable],
        preserves_partitioning: bool = False,
    ) -> "RDD":
        """Lowest-level narrow transformation: ``f(iterator, split)``."""
        return MapPartitionsRDD(self, f, preserves_partitioning)

    # camelCase alias mirroring the PySpark API used in the listings
    def mapPartitions(self, f: Callable[[Iterator], Iterable]) -> "RDD":
        return self.map_partitions(lambda it, _pid: f(it))

    def map(self, f: Callable[[T], Any]) -> "RDD":
        return self.map_partitions(lambda it, _pid: (f(x) for x in it))

    def flatMap(self, f: Callable[[T], Iterable]) -> "RDD":
        return self.map_partitions(
            lambda it, _pid: itertools.chain.from_iterable(f(x) for x in it)
        )

    def filter(self, pred: Callable[[T], bool]) -> "RDD":
        return self.map_partitions(
            lambda it, _pid: filter(pred, it), preserves_partitioning=True
        )

    def mapValues(self, f: Callable[[Any], Any]) -> "RDD":
        return self.map_partitions(
            lambda it, _pid: ((k, f(v)) for k, v in it), preserves_partitioning=True
        )

    def flatMapValues(self, f: Callable[[Any], Iterable]) -> "RDD":
        return self.map_partitions(
            lambda it, _pid: ((k, out) for k, v in it for out in f(v)),
            preserves_partitioning=True,
        )

    def keys(self) -> "RDD":
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD":
        return self.map(lambda kv: kv[1])

    def keyBy(self, f: Callable[[T], Any]) -> "RDD":
        return self.map(lambda x: (f(x), x))

    def glom(self) -> "RDD":
        return self.map_partitions(lambda it, _pid: [list(it)])

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.ctx, [self, other])

    def distinct(self, num_partitions: int | None = None) -> "RDD":
        return (
            self.map(lambda x: (x, None))
            .reduceByKey(lambda a, _b: a, num_partitions)
            .keys()
        )

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
        create_combiner: Callable[[Any], Any],
        merge_value: Callable[[Any, Any], Any],
        merge_combiners: Callable[[Any, Any], Any],
        num_partitions: int | Partitioner | None = None,
        map_side_combine: bool = True,
    ) -> "RDD":
        p = self._resolve_partitioner(num_partitions)
        agg = Aggregator(create_combiner, merge_value, merge_combiners, map_side_combine)
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

    def foldByKey(
        self,
        zero: Any,
        f: Callable[[Any, Any], Any],
        num_partitions: int | Partitioner | None = None,
    ) -> "RDD":
        return self.combineByKey(lambda v: f(zero, v), f, f, num_partitions)

    def aggregateByKey(
        self,
        zero: Any,
        seq_func: Callable[[Any, Any], Any],
        comb_func: Callable[[Any, Any], Any],
        num_partitions: int | Partitioner | None = None,
    ) -> "RDD":
        """Per-key aggregation with a zero value (PySpark semantics)."""
        import copy

        return self.combineByKey(
            lambda v: seq_func(copy.deepcopy(zero), v),
            seq_func,
            comb_func,
            num_partitions,
        )

    def zipWithIndex(self) -> "RDD":
        """Pair each element with its global index (two-pass, like Spark)."""
        sizes = self.ctx.run_job(
            self, lambda it: sum(1 for _ in it), action="zipWithIndex-count"
        )
        offsets = [0]
        for size in sizes[:-1]:
            offsets.append(offsets[-1] + size)

        def with_index(it: Iterator, pid: int) -> Iterable:
            base = offsets[pid]
            return ((x, base + i) for i, x in enumerate(it))

        return self.map_partitions(with_index, preserves_partitioning=True)

    def sortByKey(
        self, ascending: bool = True, num_partitions: int | None = None
    ) -> "RDD":
        """Globally sorted key/value pairs.

        Range-partitions by a driver-side sample of the keys (Spark's
        approach), then sorts each partition locally; partition order
        concatenates to the global order.
        """
        p = (
            num_partitions
            if num_partitions is not None
            else self.ctx.default_parallelism
        )
        keys = sorted(self.keys().collect())
        if not keys:
            return self.ctx.empty_rdd()
        if not ascending:
            keys = keys[::-1]
        # Partition boundaries from evenly spaced sample quantiles.
        cut_points = [keys[(len(keys) * (t + 1)) // p] for t in range(p - 1)]

        class _RangeByBounds(Partitioner):
            def __init__(self, bounds, ascending):
                super().__init__(len(bounds) + 1)
                self.bounds = tuple(bounds)
                self.ascending = ascending

            def partition(self, key):
                import bisect

                if self.ascending:
                    return bisect.bisect_left(self.bounds, key)
                lo = 0
                for idx, b in enumerate(self.bounds):
                    if key > b:
                        return idx
                return len(self.bounds)

        shuffled = ShuffledRDD(self, _RangeByBounds(cut_points, ascending), None)
        return shuffled.map_partitions(
            lambda it, _pid: iter(
                sorted(it, key=lambda kv: kv[0], reverse=not ascending)
            ),
            preserves_partitioning=True,
        )

    def sample(self, fraction: float, seed: int = 0) -> "RDD":
        """Bernoulli sample (deterministic per partition and seed)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")

        def sampler(it: Iterator, pid: int) -> Iterable:
            import random

            rng = random.Random(seed * 1_000_003 + pid)
            return (x for x in it if rng.random() < fraction)

        return self.map_partitions(sampler, preserves_partitioning=True)

    def coalesce(self, num_partitions: int) -> "RDD":
        """Reduce the partition count without a shuffle (narrow)."""
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        return CoalescedRDD(self, num_partitions)

    def cogroup(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Group both RDDs by key into ``(key, (list_left, list_right))``."""
        tagged = self.mapValues(lambda v: (0, v)).union(
            other.mapValues(lambda v: (1, v))
        )

        def create(tv):
            out: tuple[list, list] = ([], [])
            out[tv[0]].append(tv[1])
            return out

        def merge_value(acc, tv):
            acc[tv[0]].append(tv[1])
            return acc

        def merge_combiners(a, b):
            a[0].extend(b[0])
            a[1].extend(b[1])
            return a

        return tagged.combineByKey(create, merge_value, merge_combiners, num_partitions)

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        return self.cogroup(other, num_partitions).flatMapValues(
            lambda pair: [(l, r) for l in pair[0] for r in pair[1]]
        )

    # -- actions -------------------------------------------------------------
    def collect(self) -> list:
        parts = self.ctx.run_job(self, lambda it: list(it), action="collect")
        out: list = []
        for p in parts:
            out.extend(p)
        self.ctx._record_collect(out)
        return out

    def collectAsMap(self) -> dict:
        return dict(self.collect())

    def count(self) -> int:
        return sum(self.ctx.run_job(self, lambda it: sum(1 for _ in it), action="count"))

    def first(self) -> Any:
        got = self.take(1)
        if not got:
            raise ValueError("RDD is empty")
        return got[0]

    def take(self, n: int) -> list:
        """First ``n`` elements in partition order (computes all partitions —
        adequate for an in-process engine)."""
        out: list = []
        for part in self.ctx.run_job(self, lambda it: list(it), action="take"):
            for item in part:
                out.append(item)
                if len(out) == n:
                    return out
        return out

    def reduce(self, f: Callable[[Any, Any], Any]) -> Any:
        def part_reduce(it: Iterator) -> list:
            acc = None
            present = False
            for x in it:
                acc = x if not present else f(acc, x)
                present = True
            return [acc] if present else []

        pieces = [
            x for part in self.ctx.run_job(self, part_reduce, action="reduce") for x in part
        ]
        if not pieces:
            raise ValueError("reduce of empty RDD")
        acc = pieces[0]
        for x in pieces[1:]:
            acc = f(acc, x)
        return acc

    def fold(self, zero: Any, f: Callable[[Any, Any], Any]) -> Any:
        parts = self.ctx.run_job(
            self, lambda it: functools.reduce(f, it, zero), action="fold"
        )
        acc = zero
        for p in parts:
            acc = f(acc, p)
        return acc

    def countByKey(self) -> dict:
        out: defaultdict = defaultdict(int)
        for k, _v in self.collect():
            out[k] += 1
        return dict(out)

    def sum(self) -> Any:
        return self.fold(0, lambda a, b: a + b)

    def max(self) -> Any:
        return self.reduce(lambda a, b: a if a >= b else b)

    def min(self) -> Any:
        return self.reduce(lambda a, b: a if a <= b else b)

    def mean(self) -> float:
        total, count = self.map(lambda x: (x, 1)).reduce(
            lambda a, b: (a[0] + b[0], a[1] + b[1])
        )
        return total / count

    def isEmpty(self) -> bool:
        return not self.take(1)

    def takeOrdered(self, n: int, key: Callable[[Any], Any] | None = None) -> list:
        """Smallest ``n`` elements (per-partition heaps, then merge)."""
        import heapq

        parts = self.ctx.run_job(
            self, lambda it: heapq.nsmallest(n, it, key=key), action="takeOrdered"
        )
        return heapq.nsmallest(n, (x for p in parts for x in p), key=key)

    def foreach(self, f: Callable[[Any], None]) -> None:
        self.ctx.run_job(
            self, lambda it: [f(x) for x in it] and None, action="foreach"
        )

    def lookup(self, key: Any) -> list:
        return [v for k, v in self.collect() if k == key]

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
        super().__init__(prev.ctx, [OneToOneDependency(prev)])
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
            deps.append(RangeDependency(rdd, 0, out_start, length))
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

    def _materialize(self, split: int, task) -> tuple[list, int | None]:
        if self._shuffle_dep.aggregator is not None:
            return super()._materialize(split, task)
        # The fetch summed ``16 + sizeof_block(value)`` per record; a
        # cached ``(key, value)`` record is ``8 + sizeof_block(key) +
        # sizeof_block(value)``, so only the keys are left to size.
        items, fetched = self._fetch(split, task)
        return items, fetched + sum(sizeof_block(key) - 8 for key, _value in items)

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


class CoalescedRDD(RDD):
    """Merges parent partitions into fewer output partitions (narrow)."""

    def __init__(self, prev: RDD, num_partitions: int) -> None:
        parent_n = prev.num_partitions()
        out_n = max(1, min(num_partitions, parent_n))
        self._groups = [
            list(range((parent_n * p) // out_n,
                       (parent_n * (p + 1)) // out_n))
            for p in range(out_n)
        ]

        class _GroupDependency(NarrowDependency):
            def __init__(self, rdd, groups):
                super().__init__(rdd)
                self.groups = groups

            def parents(self, split):
                return self.groups[split]

        super().__init__(prev.ctx, [_GroupDependency(prev, self._groups)])
        self._prev = prev

    def num_partitions(self) -> int:
        return len(self._groups)

    def compute(self, split: int, task) -> Iterator:
        return itertools.chain.from_iterable(
            self._prev.iterator(p, task) for p in self._groups[split]
        )


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


class DurableCheckpointRDD(RDD):
    """Reliable checkpoint: partitions read from the durable store.

    Lineage is truncated for scheduling (no deps), but the checkpointed
    parent is retained as a recovery fallback: if a stored block fails
    its checksum (:class:`~repro.sparkle.errors.CorruptBlockError`) the
    partition is recomputed from the parent's lineage inline — corruption
    degrades to recomputation, never to wrong data.
    """

    def __init__(
        self, ctx, store, source_rdd_id: int, num_parts: int, partitioner, fallback=None
    ) -> None:
        super().__init__(ctx, [])
        self._store = store
        self._source_rdd_id = source_rdd_id
        self._num_parts = num_parts
        self._fallback = fallback
        self.partitioner = partitioner

    def num_partitions(self) -> int:
        return self._num_parts

    def block_key(self, split: int) -> tuple:
        return ("rdd", self._source_rdd_id, split)

    def compute(self, split: int, task) -> Iterator:
        from .errors import BlockNotFoundError, CorruptBlockError

        try:
            return iter(self._store.get(self.block_key(split)))
        except (CorruptBlockError, BlockNotFoundError):
            if self._fallback is None:
                raise
            self.ctx.metrics.checkpoint_recomputes += 1
            return self._fallback.iterator(split, task)
