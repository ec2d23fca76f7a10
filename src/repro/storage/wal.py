"""Segmented append-only write-ahead log with per-record checksums.

Every archive mutation (table create, record write, retention eviction)
is serialized as one JSON-lines record carrying a monotonically
increasing sequence number and a CRC32 over the payload bytes:

    ``<crc32 hex8> <canonical-json payload>\\n``

Records are *group-committed*: appends buffer in memory and a
:meth:`WalWriter.commit` flushes the whole batch -- terminated by a
``commit`` marker record -- in a single write.  Replay applies a batch
only when its commit marker is present and checksums, which makes the
collection round the unit of crash atomicity: a crash mid-flush (a torn
tail) rolls the archive back to the previous committed round, never to a
half-written one.

Torn-tail tolerance is strict: invalid bytes are forgiven only at the
very tail of the newest log segment (the one place a crashed flush can
leave them).  A bad checksum or sequence gap *followed by valid records*
is real corruption and raises :class:`CorruptWalError`.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from .durable import PLAIN, DurableIO

#: WAL file naming: ``wal-<number 8 digits>.log``.
WAL_PREFIX = "wal-"
WAL_SUFFIX = ".log"

#: Roll to a new log segment once the active one exceeds this many bytes.
DEFAULT_SEGMENT_BYTES = 1 << 20


class CorruptWalError(ValueError):
    """The log is damaged somewhere other than its torn-write tail."""


def wal_file_name(number: int) -> str:
    return f"{WAL_PREFIX}{number:08d}{WAL_SUFFIX}"


def wal_file_number(name: str) -> Optional[int]:
    """The segment number encoded in a WAL file name (None if not one)."""
    if not (name.startswith(WAL_PREFIX) and name.endswith(WAL_SUFFIX)):
        return None
    digits = name[len(WAL_PREFIX):-len(WAL_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def list_wal_files(directory: Path) -> List[Tuple[int, Path]]:
    """(number, path) of every WAL segment, in log order."""
    found = []
    for entry in sorted(os.listdir(directory)):
        number = wal_file_number(entry)
        if number is not None:
            found.append((number, directory / entry))
    found.sort(key=lambda pair: pair[0])
    return found


#: Shared canonical encoder (sorted keys, no whitespace, finite numbers);
#: reused across calls to skip per-call encoder construction.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            allow_nan=False)


def encode_record(seq: int, payload: dict) -> bytes:
    """One WAL line: crc-protected canonical JSON with the sequence number."""
    raw = _ENCODER.encode({"seq": seq, **payload}).encode("utf-8")
    return b"%08x " % zlib.crc32(raw) + raw + b"\n"


def decode_line(line: bytes) -> Optional[dict]:
    """Decode one WAL line; None when the bytes fail validation."""
    if not line.endswith(b"\n"):
        return None  # partial final write: no terminator
    body = line[:-1]
    if len(body) < 10 or body[8:9] != b" ":
        return None
    crc_hex, raw = body[:8], body[9:]
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        return None
    if zlib.crc32(raw) != expected:
        return None
    try:
        record = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(record, dict) or "seq" not in record:
        return None
    return record


class WalWriter:
    """Group-committing appender over the segmented log.

    ``append`` only buffers; ``commit`` hands the batch to the durable
    seam as one append, not fsynced: the WAL survives process death,
    and power loss rolls back to the last finished (fsynced) segment or
    to the end of the log's torn prefix past it (see DESIGN.md).
    """

    def __init__(self, directory: Path, number: int = 1, next_seq: int = 1,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES,
                 io: DurableIO = PLAIN):
        self.directory = Path(directory)
        self.next_seq = next_seq
        self.segment_bytes = segment_bytes
        self.io = io
        self.bytes_written = 0
        self.records_written = 0
        self._buffer: List[bytes] = []
        self._open(number)

    def _open(self, number: int) -> None:
        """Make ``number`` the active segment (appending, never
        clobbering committed records)."""
        self.number = number
        self._path = self.directory / wal_file_name(number)
        self.io.append(self._path, b"")

    @property
    def pending(self) -> int:
        """Buffered (not yet committed) records."""
        return len(self._buffer)

    def append(self, payload: dict) -> int:
        """Buffer one record; returns its assigned sequence number."""
        seq = self.next_seq
        self.next_seq += 1
        self._buffer.append(encode_record(seq, payload))
        return seq

    def append_template_many(self, parts: List[Tuple[str, str]]) -> int:
        """Buffer a run of pre-encoded records; returns the last seq used.

        Each part's ``prefix`` must end just after a ``"seq":`` key and
        its ``suffix`` supply the rest of the canonical JSON body; the
        caller guarantees ``prefix + str(seq) + suffix`` is exactly what
        :func:`encode_record` would have produced.  Sequence numbers are
        assigned in list order.  This is the ingest hot path: per-series
        templates skip re-encoding the invariant dims/measure/table text
        for every record (see ``StorageEngine.log_points``).
        """
        seq = self.next_seq
        buffer_append = self._buffer.append
        crc32 = zlib.crc32
        for prefix, suffix in parts:
            raw = f"{prefix}{seq}{suffix}".encode("utf-8")
            buffer_append(b"%08x " % crc32(raw) + raw + b"\n")
            seq += 1
        self.next_seq = seq
        return seq - 1

    def commit(self, round_index: int, time: float) -> int:
        """Append the buffered batch under one commit marker.

        Returns the commit marker's sequence number.  If the process dies
        mid-append the buffer is left in memory (tests inspect it) and
        whatever prefix reached the file is exactly what replay discards.
        """
        marker_seq = self.append({"op": "commit", "round": round_index,
                                  "time": time})
        data = b"".join(self._buffer)
        self.io.append(self._path, data)
        self.bytes_written += len(data)
        self.records_written += len(self._buffer)
        self._buffer = []
        if self._path.stat().st_size >= self.segment_bytes:
            self.roll()
        return marker_seq

    def roll(self) -> int:
        """Start the next-numbered segment once the finished one is
        durable, so power loss keeps the log a prefix."""
        self.io.fsync(self._path)
        self._open(self.number + 1)
        return self.number


@dataclass
class WalReplay:
    """Committed operations recovered from the log, plus loss accounting."""

    #: committed non-marker operations in sequence order
    operations: List[dict] = field(default_factory=list)
    #: committed round markers in sequence order
    commits: List[dict] = field(default_factory=list)
    #: sequence number of the last committed record (``after_seq`` if none)
    last_seq: int = 0
    #: torn/invalid trailing lines discarded from the newest segment
    torn_lines: int = 0
    #: well-formed records discarded for lacking a commit marker
    uncommitted_records: int = 0
    #: highest WAL file number present (0 when the log is empty)
    max_file_number: int = 0

    @property
    def rounds(self) -> int:
        return len(self.commits)


def read_wal(directory: Path, after_seq: int = 0,
             first_number: int = 1) -> WalReplay:
    """Replay the log, returning only batch-atomic committed operations.

    Records with ``seq <= after_seq`` (folded into segments by a
    checkpoint) are skipped, and so are files numbered below
    ``first_number`` (folded whole; one a power loss resurrected may be
    torn).  Sequence numbers must increase by exactly one between
    consecutive surviving records; any gap, and any invalid line that is
    *not* at the very tail of the newest segment, raises
    :class:`CorruptWalError`.
    """
    directory = Path(directory)
    replay = WalReplay(last_seq=after_seq)
    files = [(number, path) for number, path in list_wal_files(directory)
             if number >= first_number]
    if not files:
        return replay
    replay.max_file_number = files[-1][0]

    lines: List[Tuple[Path, int, bytes]] = []
    for _, path in files:
        with path.open("rb") as fh:
            for lineno, raw in enumerate(fh.read().splitlines(keepends=True), 1):
                lines.append((path, lineno, raw))

    records: List[dict] = []
    for index, (path, lineno, raw) in enumerate(lines):
        record = decode_line(raw)
        if record is None:
            remaining = lines[index:]
            if any(decode_line(r) is not None for _, _, r in remaining[1:]):
                raise CorruptWalError(
                    f"invalid WAL record at {path.name}:{lineno} followed "
                    "by valid records: log corrupted beyond the torn tail")
            replay.torn_lines = len(remaining)
            break
        records.append(record)

    previous_seq: Optional[int] = None
    pending: List[dict] = []
    for record in records:
        seq = record["seq"]
        if previous_seq is not None and seq != previous_seq + 1:
            raise CorruptWalError(
                f"sequence gap in WAL: {previous_seq} -> {seq}")
        previous_seq = seq
        if seq <= after_seq:
            continue
        if record.get("op") == "commit":
            replay.operations.extend(pending)
            replay.commits.append(record)
            replay.last_seq = seq
            pending = []
        else:
            pending.append(record)
    replay.uncommitted_records = len(pending)
    return replay
