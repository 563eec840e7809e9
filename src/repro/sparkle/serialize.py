"""Tile transport across the process boundary: operand pool, shared memory.

Two building blocks for the multicore data plane (DESIGN.md §12):

* :class:`OperandPool` — the identity-deduplicated inline-operand list
  one kernel-offload batch ships with its envelopes.

* :class:`SegmentArena` / :class:`ShmArray` — tracked
  ``multiprocessing.shared_memory`` segments holding tile payloads that
  worker processes attach by name (the process backend's zero-copy
  operand path for CB shared storage and broadcast values).  Long-lived
  payloads are packed into large **slab** segments at 64-byte-aligned
  offsets — one ``mmap`` (and one kernel file descriptor) per slab
  instead of per tile, so a solve storing thousands of tiles cannot
  exhaust the descriptor table.  Slabs are refcounted per allocation:
  :func:`release_nested` (called by shared storage when a value
  retires) drops a slab as soon as its last allocation is released.
  Every segment is registered at creation and freed either by refcount,
  explicitly, by the per-stage scratch sweep, or by
  :meth:`SegmentArena.cleanup` on context stop — segment cleanup is
  guaranteed even when chaos faults abort the task that allocated it.
  ``unlink`` (removing the ``/dev/shm`` entry) is never skipped; the
  *unmap* is deferred to reference counting — every view the arena
  hands out pins its ``SharedMemory`` object, because a NumPy array
  over ``shm.buf`` does **not** hold a buffer export (``close()`` would
  happily unmap under a live view, and e.g. a broadcast value held past
  ``ctx.stop()`` would then read unmapped memory).
"""

from __future__ import annotations

import itertools
import os
import threading
import uuid
from typing import Any

import numpy as np

try:  # pragma: no cover - stdlib on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "OperandPool",
    "SegmentArena",
    "ShmArray",
    "share_nested",
    "release_nested",
    "shm_supported",
    "purge_segments",
]

def shm_supported() -> bool:
    """Whether POSIX shared memory is available on this platform."""
    return _shared_memory is not None


def purge_segments(prefix: str) -> int:
    """Unlink every ``/dev/shm`` entry under an arena prefix; last resort.

    The crash janitor: when the driver dies without running ``cleanup()``
    (SIGKILL, power loss) nobody holds the ``SharedMemory`` handles any
    more, so orphaned workers sweep the raw names straight off the
    filesystem before exiting.  Harmless when the tree is already clean;
    returns the number of entries removed.  Only meaningful on platforms
    that expose POSIX shm as files (Linux ``/dev/shm``).
    """
    if not prefix:
        raise ValueError("refusing to purge an empty shm prefix")
    root = "/dev/shm"
    removed = 0
    if not os.path.isdir(root):  # pragma: no cover - platform gate
        return 0
    for entry in os.listdir(root):
        if not entry.startswith(prefix):
            continue
        try:
            os.unlink(os.path.join(root, entry))
            removed += 1
        except OSError:  # pragma: no cover - raced with another reaper
            pass
    return removed


class OperandPool:
    """Identity-deduplicated inline-operand pool for one batch envelope.

    A kernel offload ships one task's tile updates in one
    round-trip; their operands overlap heavily (every D update in an
    iteration reads the same pivot row/column tiles).  Instead of
    inlining each operand per call, the batch ships one flat list of
    arrays and each call's descriptor names its operands by pool index
    — the pivot crosses the IPC boundary once per batch, not once per
    tile (the per-batch broadcast dedup of DESIGN.md §14).

    Dedup is by the identity of the array object; arrays are made
    contiguous on first add so the worker can wrap them without a copy.
    """

    __slots__ = ("_arrays", "_ids")

    def __init__(self) -> None:
        self._arrays: list[np.ndarray] = []
        self._ids: dict[int, int] = {}

    def add(self, arr: np.ndarray) -> int:
        """Intern ``arr`` and return its pool index."""
        idx = self._ids.get(id(arr))
        if idx is None:
            idx = len(self._arrays)
            self._arrays.append(np.ascontiguousarray(arr))
            self._ids[id(arr)] = idx
        return idx

    def payload(self) -> list[np.ndarray]:
        """The flat array list to ship with the batch envelope."""
        return self._arrays

    def __len__(self) -> int:
        return len(self._arrays)


# ----------------------------------------------------------------------
# shared-memory segments
# ----------------------------------------------------------------------
class ShmArray(np.ndarray):
    """NumPy view over one allocation in a :class:`SegmentArena` slab.

    ``shm_name``/``shm_offset`` are set only on the exact view the
    arena hands out (derived views and arithmetic results fall back to
    the class defaults), so the process backend can trust a non-``None``
    name as "this whole array lives at ``shm_offset`` of that segment"
    and ship ``(name, offset, shape, dtype)`` instead of bytes.

    ``shm_obj`` pins the backing ``SharedMemory``: NumPy does not keep
    a buffer export on ``shm.buf``, so without this reference the
    mapping could be unmapped (by ``close()`` during cleanup, or by the
    ``SharedMemory`` destructor) while the view is still readable —
    a use-after-free.  With it, the unmap happens exactly when the last
    view dies, no matter how long a consumer keeps a broadcast or
    shared-storage value past ``ctx.stop()``.
    """

    shm_name: str | None = None
    shm_offset: int = 0
    shm_obj = None


#: default slab capacity — large enough that even a tile-heavy solve
#: needs only a handful of mappings, small enough not to oversubscribe
#: /dev/shm for toy runs (slabs grow to fit oversized single arrays)
DEFAULT_SLAB_BYTES = 4 << 20

_ALIGN = 64  # cache-line alignment for packed tile payloads


def _align_up(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


class SegmentArena:
    """Registry of shared-memory segments with guaranteed cleanup.

    Two classes of segments:

    * **slabs** (:meth:`share_array`) — long-lived tile payloads
      (CB storage, broadcast values) packed at
      aligned offsets into large segments that worker processes attach
      read-only by ``(name, offset)``.  One ``mmap`` — and one kernel
      file descriptor — per *slab*, not per tile: a solve storing
      thousands of tiles stays within any sane descriptor limit.
      Slabs are refcounted per allocation; :meth:`release_view` (via
      :func:`release_nested`, called when a storage value retires)
      frees a slab as soon as its last allocation is
      released, so shm pages track the engine's real working set
      instead of accumulating until stop.
    * **scratch** (:meth:`stage_scratch`) — per-kernel-call staging of
      the tile being updated, one dedicated segment each (their count
      is bounded by kernel concurrency); freed by the caller's
      ``finally``, with :meth:`sweep_scratch` (the scheduler's
      end-of-stage hook) as the safety net for attempts that chaos
      faults tore down in between.

    ``unlink`` always runs, so no ``/dev/shm`` entry outlives the arena
    even when live NumPy views keep mappings alive (the unmap itself is
    refcounted through ``ShmArray.shm_obj``).
    """

    def __init__(
        self,
        metrics=None,
        prefix: str | None = None,
        slab_bytes: int = DEFAULT_SLAB_BYTES,
    ) -> None:
        if _shared_memory is None:  # pragma: no cover - platform gate
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        if slab_bytes < 1:
            raise ValueError("slab_bytes must be >= 1")
        self._metrics = metrics
        self._prefix = prefix or f"sparkle-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.slab_bytes = int(slab_bytes)
        self._lock = threading.Lock()
        self._counter = itertools.count()
        self._segments: dict[str, Any] = {}
        #: slab name -> {capacity, cursor, live} (scratch is not here)
        self._slabs: dict[str, dict[str, int]] = {}
        self._open: str | None = None  # slab currently accepting allocs
        self._scratch: set[str] = set()

    # -- allocation ----------------------------------------------------
    def _new_segment_locked(self, nbytes: int):
        name = f"{self._prefix}-{next(self._counter)}"
        shm = _shared_memory.SharedMemory(
            create=True, size=max(1, int(nbytes)), name=name
        )
        # The fd only serves creation and mapping, both done (the mmap
        # keeps its own dup); close ours now — shm_unlink works by name.
        try:
            if shm._fd >= 0:
                os.close(shm._fd)
                shm._fd = -1
        except AttributeError:  # pragma: no cover - CPython private API
            pass
        self._segments[name] = shm
        if self._metrics is not None:
            self._metrics.shm_segments_created += 1
        return name, shm

    def _alloc_locked(self, nbytes: int):
        """Reserve ``nbytes`` in the open slab (or a new one)."""
        need = max(1, int(nbytes))
        name = self._open
        if name is not None:
            slab = self._slabs[name]
            if slab["cursor"] + need <= slab["capacity"]:
                offset = slab["cursor"]
                slab["cursor"] = _align_up(offset + need)
                slab["live"] += 1
                return name, self._segments[name], offset
            # Slab exhausted: stop allocating from it.  If nothing it
            # holds is live anymore it can go at once.
            self._open = None
            if slab["live"] == 0:
                self._release_slab_locked(name)
        capacity = max(self.slab_bytes, need)
        name, shm = self._new_segment_locked(capacity)
        self._slabs[name] = {
            "capacity": capacity,
            "cursor": _align_up(need),
            "live": 1,
        }
        self._open = name
        return name, shm, 0

    def share_array(self, arr: np.ndarray) -> ShmArray:
        """Pack ``arr`` into a shared slab; returns a read-only view.

        Arrays the arena already shared (recognized by ``shm_name``)
        pass through untouched.  Fan-out dedup across a batch of values
        is the caller's job (:func:`share_nested` takes a per-call seen
        map) — the arena itself keeps no producer-identity state, which
        would go stale as producers are garbage collected.
        """
        if isinstance(arr, ShmArray) and arr.shm_name is not None:
            with self._lock:
                # Only live slab allocations pass through — scratch is
                # transient and must never masquerade as shared storage.
                if arr.shm_name in self._slabs:
                    return arr
        with self._lock:
            name, shm, offset = self._alloc_locked(arr.nbytes)
            if self._metrics is not None:
                self._metrics.shm_bytes_shared += int(arr.nbytes)
        dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset)
        dst[...] = arr
        out = dst.view(ShmArray)
        out.shm_name = name
        out.shm_offset = offset
        out.shm_obj = shm  # pin the mapping to the view's lifetime
        out.flags.writeable = False
        return out

    def stage_scratch(self, arr: np.ndarray) -> tuple[str, np.ndarray]:
        """Copy ``arr`` into a fresh scratch segment; returns its name
        and a *writable* view for the worker's in-place update."""
        with self._lock:
            name, shm = self._new_segment_locked(arr.nbytes)
            self._scratch.add(name)
            if self._metrics is not None:
                self._metrics.shm_bytes_shared += int(arr.nbytes)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf).view(
            ShmArray
        )
        view.shm_name = name
        view.shm_obj = shm  # pin the mapping to the view's lifetime
        view[...] = arr
        return name, view

    # -- release -------------------------------------------------------
    @staticmethod
    def _destroy(shm) -> None:
        # Unlink only.  close() would unmap immediately — NumPy views
        # over shm.buf hold no buffer export, so a still-referenced
        # view (say a broadcast value kept past ctx.stop())
        # would read unmapped memory.  Views pin the SharedMemory
        # object (ShmArray.shm_obj), so dropping our reference defers
        # the unmap to the death of the last view.
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def _release_slab_locked(self, name: str) -> Any:
        """Forget a slab's registry state; caller destroys outside lock
        (or we do, when called internally)."""
        shm = self._segments.pop(name, None)
        self._slabs.pop(name, None)
        if self._open == name:
            self._open = None
        if shm is not None:
            self._destroy(shm)
            if self._metrics is not None:
                self._metrics.shm_segments_freed += 1
        return shm

    def release_view(self, arr: Any) -> bool:
        """Release one :meth:`share_array` allocation (block retired).

        Decrements the owning slab's refcount; the slab is unlinked as
        soon as it is both full (no longer the open slab) and empty of
        live allocations.  Consumers still holding the view keep a
        valid mapping (``shm_obj``) — only future attach-by-name stops
        working, and the offload path falls back to inline transport
        for unregistered operands.
        """
        name = getattr(arr, "shm_name", None)
        if name is None:
            return False
        with self._lock:
            slab = self._slabs.get(name)
            if slab is None:
                return False
            slab["live"] = max(0, slab["live"] - 1)
            if slab["live"] == 0 and name != self._open:
                self._release_slab_locked(name)
        return True

    def is_live(self, name: str) -> bool:
        """Whether workers can still attach this slab by name."""
        with self._lock:
            return name in self._slabs

    def free(self, name: str) -> bool:
        """Unlink and forget one segment; True if it was registered."""
        with self._lock:
            shm = self._segments.pop(name, None)
            self._slabs.pop(name, None)
            if self._open == name:
                self._open = None
            self._scratch.discard(name)
        if shm is None:
            return False
        self._destroy(shm)
        if self._metrics is not None:
            self._metrics.shm_segments_freed += 1
        return True

    def sweep_scratch(self) -> int:
        """Free scratch segments an aborted attempt left behind."""
        with self._lock:
            orphans = list(self._scratch)
        freed = 0
        for name in orphans:
            freed += bool(self.free(name))
        return freed

    def cleanup(self) -> int:
        """Unlink every registered segment (context-stop guarantee)."""
        with self._lock:
            names = list(self._segments)
        freed = 0
        for name in names:
            freed += bool(self.free(name))
        return freed

    # -- introspection -------------------------------------------------
    @property
    def num_segments(self) -> int:
        with self._lock:
            return len(self._segments)

    @property
    def prefix(self) -> str:
        return self._prefix

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SegmentArena(prefix={self._prefix!r}, live={self.num_segments})"


def share_nested(
    arena: "SegmentArena", value: Any, _seen: dict[int, Any] | None = None
) -> Any:
    """Recursively replace ndarray leaves with arena-shared views.

    Handles the shapes the engine stores: bare arrays, ``(key, array)``
    pairs, role tuples ``(key, (role, array))``, dicts of arrays, and
    lists thereof.  A per-call ``seen`` map dedups by producer identity,
    so a pivot tile fanned out across many items of one stored value
    lands in a single segment.  Non-array values pass through untouched.
    """
    if _seen is None:
        _seen = {}
    if isinstance(value, np.ndarray):
        if value.dtype == object:  # not a flat tile payload
            return value
        got = _seen.get(id(value))
        if got is None:
            got = arena.share_array(value)
            _seen[id(value)] = got
        return got
    if isinstance(value, tuple):
        return tuple(share_nested(arena, v, _seen) for v in value)
    if isinstance(value, list):
        return [share_nested(arena, v, _seen) for v in value]
    if isinstance(value, dict):
        return {k: share_nested(arena, v, _seen) for k, v in value.items()}
    return value


def release_nested(
    arena: "SegmentArena", value: Any, _seen: set[int] | None = None
) -> int:
    """Release every arena allocation reachable from ``value``.

    The inverse of :func:`share_nested`, called when shared storage
    retires a value (overwrite / ``clear()``): each distinct
    :class:`ShmArray` leaf gives back its slab refcount,
    so shm pages are reclaimed as the working set turns over rather
    than accumulating until context stop.  Returns the number of
    allocations released.  Identity-deduped per call, mirroring the
    fan-out dedup on the way in.
    """
    if _seen is None:
        _seen = set()
    if isinstance(value, ShmArray):
        if id(value) in _seen:
            return 0
        _seen.add(id(value))
        return int(arena.release_view(value))
    if isinstance(value, np.ndarray):
        return 0
    if isinstance(value, (tuple, list)):
        return sum(release_nested(arena, v, _seen) for v in value)
    if isinstance(value, dict):
        return sum(release_nested(arena, v, _seen) for v in value.values())
    return 0
