"""Immutable sorted segment files and the versioned MANIFEST.

A *segment* is a checkpoint's flush of change-point series: one file per
(table, checkpoint) holding the full state of every series touched since
the previous checkpoint, sorted by series key.  Segments are immutable
once published; newer segments shadow older ones series-by-series
(newest wins), which is what lets compaction merge them without
replaying the log.

The segment body is binary columnar (``.seg``): one table per file, with
dictionary-encoded keys and values in packed id columns, one
delta-packed time column and one value column (see
:mod:`repro.storage.columnar`).  ``SEGMENT_FORMAT`` (3) is the only
format written or read: every manifest entry records its format, and an
entry naming any other version (or none, which means the retired
JSON-lines v1) is refused as corrupt before a byte is decoded.

The ``MANIFEST`` names the live segment set (per table, with retention
configuration and ingestion counters) plus the log horizon
(``last_applied_seq``): everything a cold start needs before replaying
the WAL tail.  It is published via temp file + ``os.replace`` followed
by a *directory fsync* -- readers see either the old or the new version,
never a torn one, and the publish itself survives power loss -- and each
segment carries its SHA-256 in the manifest so recovery detects bit rot
or half-written leftovers from a crashed checkpoint (which are simply
not referenced and therefore invisible).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .._util import atomic_open, fsync_directory
from ..timeseries.compression import ChangePointSeries
from ..timeseries.record import SeriesKey
from .columnar import ColumnarFormatError, SegmentCursor, encode_segment
from .wal import NoopCrashHook

MANIFEST_NAME = "MANIFEST"
MANIFEST_FORMAT = 1

#: The one segment body format, written and read.
SEGMENT_FORMAT = 3

#: Characters embedded verbatim in segment file names; everything else
#: is percent-escaped.  Deliberately excludes ``-`` (the file-name field
#: separator), ``/`` and ``%`` (the escape char itself).
_SAFE_TABLE_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.")


def sanitize_table_component(table: str) -> str:
    """Escape a table name for embedding in a segment file name.

    Table names are user-supplied and may contain path separators or the
    codec's own field separator (a table literally named ``a-L1`` must
    not produce a name that reads as table ``a`` at level 1).  Characters
    outside ``[A-Za-z0-9_.]`` are percent-escaped; the mapping is
    injective, so two distinct tables can never collide on disk.
    """
    if all(c in _SAFE_TABLE_CHARS for c in table):
        return table
    return "".join(c if c in _SAFE_TABLE_CHARS
                   else "".join(f"%{b:02x}" for b in c.encode("utf-8"))
                   for c in table)


def segment_file_name(segment_id: int, table: str, level: int) -> str:
    return (f"seg-{segment_id:08d}-{sanitize_table_component(table)}"
            f"-L{level}.seg")


def is_segment_file_name(name: str) -> bool:
    """True for any (live or orphaned) segment file."""
    return name.startswith("seg-") and name.endswith(".seg")


@dataclass(frozen=True)
class SegmentMeta:
    """Manifest entry describing one immutable segment file."""

    file: str
    segment_id: int
    table: str
    level: int
    series: int
    bytes: int
    sha256: str
    #: body format of the file; manifests written before the columnar
    #: codec lack the key and deserialize as v1, which readers refuse
    format: int = SEGMENT_FORMAT

    def as_dict(self) -> dict:
        return {"file": self.file, "id": self.segment_id, "table": self.table,
                "level": self.level, "series": self.series,
                "bytes": self.bytes, "sha256": self.sha256,
                "format": self.format}

    @classmethod
    def from_dict(cls, raw: dict) -> "SegmentMeta":
        return cls(raw["file"], raw["id"], raw["table"], raw["level"],
                   raw["series"], raw["bytes"], raw["sha256"],
                   raw.get("format", 1))


class CorruptSegmentError(ValueError):
    """A manifest-referenced segment failed validation."""


class CorruptManifestError(ValueError):
    """The published ``MANIFEST`` is undecodable or not a manifest."""


def write_segment(directory: Path, segment_id: int, table: str, level: int,
                  items: Sequence[Tuple[SeriesKey, ChangePointSeries]],
                  ) -> SegmentMeta:
    """Publish one segment file; ``items`` must be sorted by series key.

    The file is published atomically with a directory fsync, and the
    returned meta carries the SHA-256 over the exact bytes on disk.
    """
    directory = Path(directory)
    name = segment_file_name(segment_id, table, level)
    raw = encode_segment(table, segment_id, level, items)
    with atomic_open(directory / name, binary=True,
                     sync_directory=True) as fh:
        fh.write(raw)
    return SegmentMeta(name, segment_id, table, level, len(items),
                       len(raw), hashlib.sha256(raw).hexdigest())


def _segment_bytes(directory: Path, meta: SegmentMeta,
                   verify: bool) -> bytes:
    path = Path(directory) / meta.file
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CorruptSegmentError(
            f"manifest references missing segment {meta.file}: {exc}") from None
    if verify and hashlib.sha256(raw).hexdigest() != meta.sha256:
        raise CorruptSegmentError(
            f"segment {meta.file} fails its manifest checksum")
    return raw


def _check_header(meta: SegmentMeta, header: dict) -> None:
    if header.get("format") != meta.format or \
            header.get("table") != meta.table or \
            header.get("id") != meta.segment_id:
        raise CorruptSegmentError(
            f"segment {meta.file} header does not match its manifest entry")


def _check_format(meta: SegmentMeta) -> None:
    """The version gate: refuse any body format but the current one."""
    if meta.format != SEGMENT_FORMAT:
        raise CorruptSegmentError(
            f"segment {meta.file} has unsupported format {meta.format!r}")


def read_segment(directory: Path, meta: SegmentMeta, verify: bool = True,
                 ) -> List[Tuple[SeriesKey, ChangePointSeries]]:
    """Load a segment's series, validating checksum and header.

    Every decode failure -- unsupported format, wrong magic, truncated
    body, bad column bytes -- raises :class:`CorruptSegmentError` so
    recovery handles all corruption uniformly.
    """
    _check_format(meta)
    raw = _segment_bytes(directory, meta, verify)
    try:
        cursor = SegmentCursor(raw)
        _check_header(meta, cursor.header)
        return cursor.items()
    except CorruptSegmentError:
        raise
    except ColumnarFormatError as exc:
        raise CorruptSegmentError(
            f"segment {meta.file} body is undecodable: {exc}") from None


@dataclass
class TableManifest:
    """Per-table durable state: retention, counters, live segments."""

    #: RetentionPolicy.max_age_seconds (None = keep everything)
    retention: Optional[float] = None
    #: Table.stats.records_written as of ``last_applied_seq``
    records_written: int = 0
    #: newest eviction cutoff folded into the segment horizon; recovery
    #: re-applies it so evict ops GC'd from the WAL are never lost
    evicted_through: Optional[float] = None
    #: live segments, oldest first (ascending segment id)
    segments: List[SegmentMeta] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"retention": self.retention,
                "records_written": self.records_written,
                "evicted_through": self.evicted_through,
                "segments": [m.as_dict() for m in self.segments]}

    @classmethod
    def from_dict(cls, raw: dict) -> "TableManifest":
        return cls(raw["retention"], raw["records_written"],
                   raw["evicted_through"],
                   [SegmentMeta.from_dict(m) for m in raw["segments"]])


@dataclass
class Manifest:
    """The storage engine's atomically-published root of trust."""

    version: int = 0
    #: WAL records with seq <= this are folded into the segment set
    last_applied_seq: int = 0
    rounds_committed: int = 0
    last_commit_time: Optional[float] = None
    next_segment_id: int = 1
    next_wal_number: int = 1
    tables: Dict[str, TableManifest] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "version": self.version,
            "last_applied_seq": self.last_applied_seq,
            "rounds_committed": self.rounds_committed,
            "last_commit_time": self.last_commit_time,
            "next_segment_id": self.next_segment_id,
            "next_wal_number": self.next_wal_number,
            "tables": {name: t.as_dict()
                       for name, t in sorted(self.tables.items())},
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Manifest":
        if raw.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"unsupported manifest format {raw.get('format')!r}")
        return cls(raw["version"], raw["last_applied_seq"],
                   raw["rounds_committed"], raw["last_commit_time"],
                   raw["next_segment_id"], raw["next_wal_number"],
                   {name: TableManifest.from_dict(t)
                    for name, t in raw["tables"].items()})

    def live_files(self) -> List[str]:
        """Every segment file the manifest references."""
        return [meta.file for name in sorted(self.tables)
                for meta in self.tables[name].segments]

    def live_bytes(self) -> int:
        return sum(meta.bytes for name in sorted(self.tables)
                   for meta in self.tables[name].segments)


def load_manifest(directory: Path) -> Optional[Manifest]:
    """The published manifest, or None for a fresh data directory."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        return Manifest.from_dict(
            json.loads(path.read_text(encoding="utf-8")))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # JSONDecodeError/UnicodeDecodeError are ValueErrors; a missing
        # key or a non-object where an object belongs must surface as
        # manifest corruption, never as a raw decoder exception
        raise CorruptManifestError(
            f"manifest {path} is corrupt: {type(exc).__name__}: {exc}"
        ) from None


def store_manifest(directory: Path, manifest: Manifest,
                   crash_hook: Optional[NoopCrashHook] = None) -> None:
    """Atomically publish a new manifest version.

    The temp file is fsynced, renamed over ``MANIFEST``, and then the
    *directory* is fsynced: without that last step the rename lives only
    in the in-memory directory cache and a power loss just after publish
    could resurrect the previous manifest version.

    Crash windows: ``checkpoint.manifest`` fires before the ``os.replace``
    (the new version is invisible; recovery uses the previous one) and
    ``checkpoint.publish`` fires once the rename is durable (the new
    version is live but WAL/segment garbage collection has not run;
    recovery tolerates the stale files).
    """
    hook = crash_hook or NoopCrashHook()
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    tmp = directory / (MANIFEST_NAME + ".tmp")
    body = json.dumps(manifest.as_dict(), sort_keys=True, indent=1) + "\n"
    with tmp.open("w", encoding="utf-8") as fh:
        fh.write(body)
        fh.flush()
        os.fsync(fh.fileno())
    hook.before("checkpoint.manifest")
    os.replace(tmp, path)
    fsync_directory(directory)
    hook.before("checkpoint.publish")
