"""Tile-affinity scheduling: Spark-style preferred locations for tiles.

On a real cluster Spark's DAGScheduler asks each RDD for *preferred
locations* and tries to land a task where its data already lives.  The
process backend has the same locality structure in miniature: a worker
that has already attached the shared-memory slabs holding a tile's
operands (and whose page cache is warm with them) services that tile
cheaper than a cold worker.  :class:`AffinityRegistry` is the driver's
memory of that placement — tile coordinate → worker slot — consulted on
every kernel offload (DESIGN.md §14).

Semantics:

* **route_batch** — a batch lands on the worker most of its tiles are
  already homed on (``affinity_hits`` for those, ``affinity_misses``
  for the rest, which are re-homed there); with no homed tile it lands
  on the caller's default slot.  Hit rate on a steady grid (every
  iteration touches the same tiles) converges to ``1 - 1/iterations``.
* **rebalance** — when a worker is quarantined, respawned, or
  blacklisted, every tile homed on it is evicted
  (``affinity_rebalances``); those tiles re-home gracefully on their
  next offload instead of chasing a dead slot.
* **reset** — the registry is scoped to one solve; the GEP solver
  resets it at solve start so placements never leak across solves.

Placement is a scheduling hint only: it can never change results (every
worker computes bit-identical tiles), so races between concurrent tasks
homing the same tile are benign and the registry just takes the last
write.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Hashable, Iterable, Sequence

__all__ = ["AffinityRegistry"]


class AffinityRegistry:
    """Driver-side tile → worker-slot placement memory."""

    def __init__(self, num_workers: int, *, metrics=None) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self._metrics = metrics
        self._lock = threading.Lock()
        self._home: dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route_batch(self, keys: Sequence[Hashable], default: int) -> int:
        """One slot for a whole batch (one task's tile updates).

        Majority vote over the homed tiles picks the slot (ties break to
        the lowest slot id, deterministically); with no homed tile the
        caller's default wins.  Every tile is then (re-)homed on the
        chosen slot — tiles that voted for it are hits, the rest are
        misses.
        """
        if not keys:
            return default % self.num_workers
        with self._lock:
            votes = Counter()
            for key in keys:
                slot = self._home.get(key)
                if slot is not None:
                    votes[slot] += 1
            if votes:
                top = max(votes.values())
                chosen = min(s for s, c in votes.items() if c == top)
            else:
                chosen = default % self.num_workers
            hits = votes.get(chosen, 0)
            self._meter(hits=hits, misses=len(keys) - hits)
            for key in keys:
                self._home[key] = chosen
            return chosen

    # ------------------------------------------------------------------
    # rebalance & lifecycle
    # ------------------------------------------------------------------
    def invalidate_worker(self, slot: int) -> int:
        """Evict every tile homed on ``slot`` (quarantine / respawn /
        blacklist); returns how many were spilled."""
        slot = slot % self.num_workers
        with self._lock:
            evicted = [k for k, s in self._home.items() if s == slot]
            for key in evicted:
                del self._home[key]
            self._meter(rebalances=len(evicted))
            return len(evicted)

    def reset(self) -> None:
        """Forget every placement (solve boundary — no cross-solve leaks)."""
        with self._lock:
            self._home.clear()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[Hashable, int]:
        with self._lock:
            return dict(self._home)

    def slots_of(self, keys: Iterable[Hashable]) -> set[int]:
        with self._lock:
            return {self._home[k] for k in keys if k in self._home}

    def __len__(self) -> int:
        with self._lock:
            return len(self._home)

    def _meter(self, hits: int = 0, misses: int = 0, rebalances: int = 0):
        m = self._metrics
        if m is None:
            return
        if hits:
            m.affinity_hits += hits
        if misses:
            m.affinity_misses += misses
        if rebalances:
            m.affinity_rebalances += rebalances
