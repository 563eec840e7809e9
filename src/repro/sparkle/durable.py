"""Durable, checksummed block storage and the write-ahead solve journal.

Everything durable-*sounding* elsewhere in the engine —
``RDD.checkpoint()``, the CB strategy's "shared persistent storage"
(paper §IV-C) — lives in driver memory, so on its own a driver crash
loses the whole multi-iteration solve.  This module is the real thing:

:class:`DurableBlockStore`
    A directory of pickled blocks with per-block BLAKE2b checksums and a
    versioned manifest.  Writes are crash-atomic (tmp file + fsync +
    ``os.replace``) and verified by read-back, so a torn write is
    detected and rewritten rather than committed; reads re-checksum and
    raise a typed :class:`~.errors.CorruptBlockError` on mismatch, so
    silent bitrot can never surface as wrong data.  Backs
    :class:`~.storage.SharedStorage` staging, the spill store, and the
    solver's iteration snapshots.

:class:`SolveJournal`
    An append-only, per-record-checksummed JSONL write-ahead log.  The
    GEP drivers append one record *after* completing each outer
    iteration ``k`` (snapshot committed first, journal record second, so
    the record is the commit point) and ``--resume`` replays the longest
    valid prefix — a torn tail line from a mid-append crash is truncated,
    not trusted.

Both are chaos-testable: an attached
:class:`~repro.sparkle.chaos.FaultPlan` can tear writes
(``torn_write``, auto-healed by read-back verify) and rot committed
blocks (``corrupt_block``, caught by the read path / ``fsck``) under the
same seeded determinism contract as every other fault kind.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from .errors import BlockNotFoundError, CorruptBlockError, JournalError
from .metrics import EngineMetrics

__all__ = ["DurableBlockStore", "FsckReport", "SolveJournal"]

MANIFEST_VERSION = 1
JOURNAL_VERSION = 1

_DIGEST_SIZE = 16  # BLAKE2b-128: collision-safe for integrity checking


def _checksum(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).hexdigest()


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry (the rename itself) to stable storage."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: Path, data: bytes, sync: bool = True) -> None:
    """Crash-atomic file write: tmp in the same dir, fsync, rename.

    ``sync=False`` skips the fsyncs (the rename is still atomic): the
    relaxed mode spill stores use, where blocks are recomputable from
    lineage and durability across power loss buys nothing.
    """
    tmp = path.with_name(f".tmp.{path.name}")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        if sync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if sync:
        _fsync_dir(path.parent)


@dataclass
class FsckReport:
    """Outcome of a :meth:`DurableBlockStore.fsck` integrity sweep."""

    root: str
    blocks_total: int = 0
    blocks_ok: int = 0
    bytes_verified: int = 0
    #: manifest entries whose block file has vanished
    missing: list[str] = field(default_factory=list)
    #: manifest entries whose block bytes fail their recorded checksum
    corrupt: list[str] = field(default_factory=list)
    #: block files on disk with no manifest entry (e.g. a write that
    #: crashed between the block rename and the manifest commit)
    orphans: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.missing and not self.corrupt

    def summary(self) -> dict[str, Any]:
        return {
            "root": self.root,
            "blocks_total": self.blocks_total,
            "blocks_ok": self.blocks_ok,
            "bytes_verified": self.bytes_verified,
            "missing": list(self.missing),
            "corrupt": list(self.corrupt),
            "orphans": list(self.orphans),
            "clean": self.clean,
        }


class DurableBlockStore:
    """Checksummed key/block store under one directory (see module doc).

    Keys are arbitrary picklable values; they are addressed by the hash
    of their ``repr`` and recorded verbatim (as that repr) in the
    manifest, so ``fsck`` can name what it verified.

    Parameters
    ----------
    root:
        Directory to own (created if needed); blocks land in
        ``root/blocks/``, the manifest at ``root/MANIFEST.json``.
    metrics:
        The :class:`~.metrics.EngineMetrics` that takes the byte/event
        accounting (``durable_*``, ``torn_writes_detected``,
        ``corrupt_blocks_detected``); a private one when omitted.
    fault_plan:
        Optional :class:`~.chaos.FaultPlan` arming ``torn_write`` /
        ``corrupt_block`` injections.
    sync:
        ``False`` skips fsyncs on block/manifest writes (atomic renames
        and checksummed reads are kept).  Spill stores use this: spilled
        blocks are recomputable from lineage, so surviving power loss is
        not worth an fsync per eviction.  Leave ``True`` for checkpoint/
        journal stores, whose whole point is crash durability.
    """

    MANIFEST = "MANIFEST.json"
    #: read-back verification rewrites a torn block up to this many
    #: times before giving up with :class:`CorruptBlockError`
    max_write_attempts = 3

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        metrics=None,
        fault_plan=None,
        sync: bool = True,
    ) -> None:
        self.root = Path(root)
        self.blocks_dir = self.root / "blocks"
        self.blocks_dir.mkdir(parents=True, exist_ok=True)
        self._metrics = metrics or EngineMetrics()
        self.fault_plan = fault_plan
        self.sync = sync
        self._lock = threading.Lock()
        self._manifest: dict[str, dict[str, Any]] = {}
        self._load_manifest()

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _manifest_path(self) -> Path:
        return self.root / self.MANIFEST

    def _load_manifest(self) -> None:
        path = self._manifest_path()
        if not path.exists():
            return
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CorruptBlockError(
                f"unreadable manifest {path}: {exc}", key=self.MANIFEST
            ) from exc
        if doc.get("version") != MANIFEST_VERSION:
            raise JournalError(
                f"manifest {path} has version {doc.get('version')!r}; "
                f"this build reads version {MANIFEST_VERSION}"
            )
        self._manifest = dict(doc.get("blocks", {}))

    def _commit_manifest_locked(self) -> None:
        doc = {"version": MANIFEST_VERSION, "blocks": self._manifest}
        _atomic_write(
            self._manifest_path(),
            json.dumps(doc, sort_keys=True).encode(),
            sync=self.sync,
        )

    # ------------------------------------------------------------------
    # block I/O
    # ------------------------------------------------------------------
    @staticmethod
    def _filename(key_repr: str) -> str:
        return hashlib.blake2b(key_repr.encode(), digest_size=12).hexdigest() + ".blk"

    def put(self, key: Any, value: Any) -> int:
        """Durably store ``value`` under ``key``; returns payload bytes.

        Protocol: write block (atomic rename) → read back and verify the
        checksum (catches torn writes, which are rewritten) → commit the
        manifest entry (atomic rename).  A crash at any point leaves
        either the old committed state or the new one, never a half
        state the read path would trust.
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = _checksum(payload)
        key_repr = repr(key)
        fname = self._filename(key_repr)
        path = self.blocks_dir / fname
        plan = self.fault_plan
        for attempt in range(1, self.max_write_attempts + 1):
            data = payload
            if plan is not None and plan.durable_fault("torn_write", key, attempt):
                # Crash-consistency lie: only a prefix reaches the disk.
                data = payload[: max(0, len(payload) // 2)]
            _atomic_write(path, data, sync=self.sync)
            if _checksum(path.read_bytes()) == digest:
                break
            self._metrics.torn_writes_detected += 1
        else:
            raise CorruptBlockError(
                f"block {key_repr} still fails read-back verification after "
                f"{self.max_write_attempts} write attempts",
                key=key,
            )
        with self._lock:
            self._manifest[key_repr] = {
                "file": fname,
                "nbytes": len(payload),
                "blake2b": digest,
            }
            self._commit_manifest_locked()
        self._metrics.durable_puts += 1
        self._metrics.durable_bytes_written += len(payload)
        if plan is not None and plan.durable_fault("corrupt_block", key, 1):
            # Post-commit silent bitrot: the manifest checksum is for the
            # good bytes, the disk now holds bad ones.  Only a verifying
            # read or fsck can tell.
            rotten = bytearray(payload)
            if rotten:
                rotten[len(rotten) // 2] ^= 0xFF
            _atomic_write(path, bytes(rotten), sync=self.sync)
        return len(payload)

    def _entry(self, key: Any) -> tuple[str, dict[str, Any]]:
        key_repr = repr(key)
        with self._lock:
            entry = self._manifest.get(key_repr)
        if entry is None:
            raise BlockNotFoundError(
                f"durable store has no block {key_repr}", key=key
            )
        return key_repr, entry

    def get(self, key: Any) -> Any:
        """Read and verify a block; raises typed errors on miss/corruption."""
        key_repr, entry = self._entry(key)
        path = self.blocks_dir / entry["file"]
        try:
            payload = path.read_bytes()
        except OSError as exc:
            self._metrics.corrupt_blocks_detected += 1
            raise CorruptBlockError(
                f"block {key_repr} is in the manifest but unreadable: {exc}",
                key=key,
            ) from exc
        if _checksum(payload) != entry["blake2b"]:
            self._metrics.corrupt_blocks_detected += 1
            raise CorruptBlockError(
                f"block {key_repr} failed its checksum "
                f"({len(payload)} B on disk, {entry['nbytes']} B recorded)",
                key=key,
            )
        self._metrics.durable_gets += 1
        self._metrics.durable_bytes_read += len(payload)
        return pickle.loads(payload)

    def contains(self, key: Any) -> bool:
        with self._lock:
            return repr(key) in self._manifest

    def delete(self, key: Any) -> bool:
        """Drop a block (no-op if absent); returns whether it existed."""
        key_repr = repr(key)
        with self._lock:
            entry = self._manifest.pop(key_repr, None)
            if entry is None:
                return False
            self._commit_manifest_locked()
        try:
            (self.blocks_dir / entry["file"]).unlink()
        except OSError:
            pass
        return True

    def keys(self) -> list[str]:
        """Reprs of every committed key (the manifest's view)."""
        with self._lock:
            return sorted(self._manifest)

    def __len__(self) -> int:
        with self._lock:
            return len(self._manifest)

    @property
    def live_bytes(self) -> int:
        with self._lock:
            return sum(e["nbytes"] for e in self._manifest.values())

    # ------------------------------------------------------------------
    # integrity sweep
    # ------------------------------------------------------------------
    def fsck(self) -> FsckReport:
        """Verify every manifest entry against the bytes on disk."""
        with self._lock:
            manifest = {k: dict(v) for k, v in self._manifest.items()}
        report = FsckReport(root=str(self.root), blocks_total=len(manifest))
        referenced = set()
        for key_repr, entry in sorted(manifest.items()):
            referenced.add(entry["file"])
            path = self.blocks_dir / entry["file"]
            try:
                payload = path.read_bytes()
            except OSError:
                report.missing.append(key_repr)
                continue
            if _checksum(payload) != entry["blake2b"]:
                report.corrupt.append(key_repr)
                continue
            report.blocks_ok += 1
            report.bytes_verified += len(payload)
        for path in sorted(self.blocks_dir.glob("*.blk")):
            if path.name not in referenced:
                report.orphans.append(path.name)
        return report


class SolveJournal:
    """Checksummed append-only write-ahead log of solve progress.

    Records are JSON objects, one per line, each sealed with a BLAKE2b
    checksum of its canonical serialization and a contiguous sequence
    number.  :meth:`entries` returns the longest valid prefix: a torn
    tail (partial last line after SIGKILL mid-append) or any record that
    fails its checksum ends the replay there — the WAL contract.
    """

    FILENAME = "journal.wal"

    def __init__(self, root: str | os.PathLike, filename: str | None = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / (filename or self.FILENAME)
        self._cached_entries: int | None = None

    @property
    def exists(self) -> bool:
        return self.path.exists()

    # ------------------------------------------------------------------
    @staticmethod
    def _seal(record: dict) -> str:
        body = dict(record)
        body.pop("check", None)
        return _checksum(json.dumps(body, sort_keys=True).encode())

    def append(self, record: dict) -> dict:
        """Seal and durably append one record; returns it with seq/check."""
        entry = dict(record)
        entry["v"] = JOURNAL_VERSION
        entry["seq"] = self._next_seq()
        entry["check"] = self._seal(entry)
        line = json.dumps(entry, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        return entry

    def _next_seq(self) -> int:
        if self._cached_entries is None:
            self._cached_entries = len(self.entries())
        seq = self._cached_entries
        self._cached_entries += 1
        return seq

    def _iter_valid(self) -> Iterator[dict]:
        if not self.path.exists():
            return
        expected_seq = 0
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    return  # torn tail / garbage: stop trusting here
                if (
                    not isinstance(entry, dict)
                    or entry.get("v") != JOURNAL_VERSION
                    or entry.get("seq") != expected_seq
                    or entry.get("check") != self._seal(entry)
                ):
                    return
                expected_seq += 1
                yield entry

    def entries(self) -> list[dict]:
        """Longest valid prefix of records (see class docstring)."""
        return list(self._iter_valid())

    def truncate_to_valid(self) -> list[dict]:
        """Atomically rewrite the file to its valid prefix; returns it.

        Called on resume so subsequent appends extend committed history
        rather than a torn tail.
        """
        entries = self.entries()
        data = "".join(json.dumps(e, sort_keys=True) + "\n" for e in entries)
        _atomic_write(self.path, data.encode())
        self._cached_entries = len(entries)
        return entries

    def rewrite(self, records: list[dict]) -> list[dict]:
        """Atomically replace the journal with ``records`` (compaction).

        Each record is re-sealed with a fresh contiguous sequence number
        (any stale ``v``/``seq``/``check`` fields are stripped first),
        and the whole file lands via one crash-atomic rename — a crash
        mid-compaction leaves either the full old journal or the full
        new one, never a mix.  Returns the sealed entries as written.
        """
        sealed: list[dict] = []
        for seq, record in enumerate(records):
            entry = {
                k: v
                for k, v in dict(record).items()
                if k not in ("v", "seq", "check")
            }
            entry["v"] = JOURNAL_VERSION
            entry["seq"] = seq
            entry["check"] = self._seal(entry)
            sealed.append(entry)
        data = "".join(json.dumps(e, sort_keys=True) + "\n" for e in sealed)
        _atomic_write(self.path, data.encode())
        self._cached_entries = len(sealed)
        return sealed

    def reset(self) -> None:
        """Start a fresh journal (new solve in an old directory)."""
        _atomic_write(self.path, b"")
        self._cached_entries = 0

    def verify(self) -> dict[str, Any]:
        """Integrity view for ``repro fsck``."""
        raw_lines = 0
        if self.path.exists():
            with open(self.path, "r", encoding="utf-8") as fh:
                raw_lines = sum(1 for line in fh if line.strip())
        entries = self.entries()
        kinds = [e.get("kind") for e in entries]
        return {
            "path": str(self.path),
            "exists": self.path.exists(),
            "records_total": raw_lines,
            "records_valid": len(entries),
            "torn_tail": raw_lines > len(entries),
            "complete": "done" in kinds,
            "last_iteration": max(
                (e["k"] for e in entries if e.get("kind") == "iteration"),
                default=None,
            ),
        }
