"""Durable log-structured storage under the time-series store.

Write-ahead log (group commits, CRC-protected, torn-tail tolerant),
immutable sorted segments (binary columnar v3: one table per file, a
small dictionary header and packed columns; any other format version is
refused) behind an
atomically-published MANIFEST, size-tiered compaction with retention
folded into merges, and crash recovery that reconstructs byte-identical
``Table`` state, every file operation through one seam (``durable``).
"""

from .columnar import ColumnarFormatError, SegmentCursor, encode_segment
from .compaction import (
    CompactionStats,
    DEFAULT_TIER_FANOUT,
    compact_table,
    trim_series,
)
from .durable import DurableIO, RecordingIO, SimulatedCrash
from .engine import StorageEngine
from .recovery import RecoveredState, recover
from .segments import (
    CorruptManifestError,
    CorruptSegmentError,
    MANIFEST_NAME,
    Manifest,
    SEGMENT_FORMAT,
    SegmentMeta,
    TableManifest,
    load_manifest,
    read_segment,
    sanitize_table_component,
    segment_file_name,
    store_manifest,
    write_segment,
)
from .wal import (
    CorruptWalError,
    DEFAULT_SEGMENT_BYTES,
    WalReplay,
    WalWriter,
    read_wal,
)

__all__ = [
    "ColumnarFormatError", "SegmentCursor", "encode_segment",
    "CompactionStats", "DEFAULT_TIER_FANOUT", "compact_table",
    "trim_series",
    "DurableIO", "RecordingIO", "SimulatedCrash", "StorageEngine",
    "RecoveredState", "recover",
    "CorruptManifestError", "CorruptSegmentError", "MANIFEST_NAME",
    "Manifest", "SEGMENT_FORMAT", "SegmentMeta", "TableManifest",
    "load_manifest", "read_segment",
    "sanitize_table_component", "segment_file_name",
    "store_manifest", "write_segment",
    "CorruptWalError", "DEFAULT_SEGMENT_BYTES", "WalReplay",
    "WalWriter", "read_wal",
]
