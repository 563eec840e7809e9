"""Partitioners: how pair-RDD keys map to partitions.

The paper's drivers key the DP table by tile coordinate ``(i, j)`` and
use Spark's default (hash) partitioner, noting its "probabilistic
nature" gives no block/partition affinity guarantee — which is why they
over-provision partitions (2x cores).  §VI's future work proposes
custom partitioners derived from the kernel dependency structure;
:class:`GridPartitioner` implements that proposal (and the ablation
benchmark measures the shuffle-volume difference).

Placement is a pure function of the key (:func:`_stable_hash`), so
:class:`HashPartitioner` memoises it per grid key: a tile grid has r²
distinct ``(i, j)`` keys and every shuffle of a solve re-partitions
them, so the ``repr`` + ``crc32`` is paid once per key, not once per
record.  The memo is :attr:`Partitioner.placed`, which a shuffle map
task reads inline before it calls :meth:`Partitioner.partition` (on a
miss only).  The memo changes no placement — a key lands where
``_stable_hash(key) % n`` puts it whatever was partitioned before — and
is not part of a partitioner's identity: equality and hashing read the
constructor parameters only.
"""

from __future__ import annotations

import zlib
from types import MappingProxyType
from typing import Any, Mapping

__all__ = ["Partitioner", "HashPartitioner", "GridPartitioner"]


def _stable_hash(key: Any) -> int:
    """Deterministic across processes/runs (unlike ``hash`` with PYTHONHASHSEED)."""
    return zlib.crc32(repr(key).encode())


class Partitioner:
    """Maps keys to partition ids ``[0, num_partitions)``."""

    #: Memoised placements: exact ``(int, int)`` grid key -> partition id,
    #: for the grid keys placed so far.  Empty unless the partitioner
    #: memoises (:class:`HashPartitioner`).  A lookup hits for any key
    #: *equal* to a grid key — ``(1.0, 2)`` finds ``(1, 2)`` — so a
    #: reader takes a hit only for an exact ``(int, int)`` key and calls
    #: :meth:`partition` otherwise.
    placed: Mapping[tuple[int, int], int] = MappingProxyType({})

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions

    def partition(self, key: Any) -> int:
        raise NotImplementedError

    def _params(self) -> tuple:
        """What equality reads: the constructor parameters.  The three
        partitioners here name theirs, so per-instance state (a memo)
        never makes two equal partitioners unequal — ``partitionBy``'s
        no-op test; an ad hoc subclass compares all its attributes."""
        return tuple(self.__dict__.items())

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._params() == other._params()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_partitions))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.num_partitions})"


class HashPartitioner(Partitioner):
    """Spark's default partitioner: stable hash modulo partition count.

    Grid keys — exact ``(int, int)`` tuples — are memoised per instance.
    Only those: ``1``, ``1.0`` and ``True`` (or ``(1, 2)`` and
    ``(1.0, 2)``) are equal dict keys that print, hence hash, differently,
    and every other key is hashed as it comes.
    """

    def __init__(self, num_partitions: int) -> None:
        super().__init__(num_partitions)
        self.placed: dict[tuple[int, int], int] = {}

    def partition(self, key: Any) -> int:
        if (
            type(key) is tuple
            and len(key) == 2
            and type(key[0]) is int
            and type(key[1]) is int
        ):
            placed = self.placed.get(key)
            if placed is None:
                placed = self.placed[key] = _stable_hash(key) % self.num_partitions
            return placed
        return _stable_hash(key) % self.num_partitions

    def _params(self) -> tuple:
        return (self.num_partitions,)


class GridPartitioner(Partitioner):
    """Tile-aware partitioner for ``(i, j)`` keys over an ``r x r`` grid.

    Assigns contiguous grid rows to the same partition so a kernel-B
    consumer stage finds its pivot-row tiles co-located, cutting shuffle
    volume versus hash placement — the paper's §VI proposal.  Falls back
    to hashing for non-tile keys.
    """

    def __init__(self, num_partitions: int, grid_r: int) -> None:
        super().__init__(num_partitions)
        if grid_r < 1:
            raise ValueError("grid_r must be >= 1")
        self.grid_r = grid_r

    def _params(self) -> tuple:
        return (self.num_partitions, self.grid_r)

    def partition(self, key: Any) -> int:
        if (
            isinstance(key, tuple)
            and len(key) == 2
            and all(isinstance(c, (int,)) for c in key)
        ):
            i, j = key
            linear = (i % self.grid_r) * self.grid_r + (j % self.grid_r)
            return (linear * self.num_partitions) // (self.grid_r * self.grid_r)
        return _stable_hash(key) % self.num_partitions
