"""Size-tiered compaction: fold small segments into larger, trimmed ones.

Every checkpoint flushes one level-0 segment per dirty table, so L0
accumulates one segment per checkpoint.  Once a level holds
``tier_fanout`` segments they are merged into a single segment one level
up -- classic size-tiered compaction, with two SpotLake-specific twists:

* *Newest wins per series.*  Segments store the full state of each
  series they contain (change-point arrays plus observation counters),
  so a merge keeps only the newest version of each key -- no
  tombstones, no record-level merge.
* *Eviction is a compaction concern.*  Retention cutoffs recorded by
  eviction WAL ops (``TableManifest.evicted_through``) are applied while
  merging: change points the retention sweep already dropped from the
  live store are physically reclaimed here, mirroring
  ``Table.evict_before`` semantics exactly (the last point at or before
  the cutoff survives because its value is still in force).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..timeseries.compression import ChangePointSeries
from ..timeseries.record import SeriesKey
from .segments import (
    SegmentMeta,
    TableManifest,
    read_segment,
    write_segment,
)

#: Segments per level that trigger a merge into the next level.
DEFAULT_TIER_FANOUT = 4


@dataclass
class CompactionStats:
    """Work accounting for one checkpoint's compaction pass."""

    merges: int = 0
    segments_merged: int = 0
    segments_created: int = 0
    bytes_written: int = 0
    points_dropped: int = 0
    #: files superseded by merges, deleted after the manifest publishes
    obsolete_files: List[str] = field(default_factory=list)

    def merge_into(self, other: "CompactionStats") -> None:
        self.merges += other.merges
        self.segments_merged += other.segments_merged
        self.segments_created += other.segments_created
        self.bytes_written += other.bytes_written
        self.points_dropped += other.points_dropped
        self.obsolete_files.extend(other.obsolete_files)


def trim_series(series: ChangePointSeries, cutoff: Optional[float]) -> int:
    """Apply a retention cutoff in place; returns points dropped.

    Mirrors ``Table.evict_before``: drop change points strictly before
    ``cutoff`` but keep the last one at or before it.
    """
    if cutoff is None:
        return 0
    keep_from = bisect_right(series.times, cutoff) - 1
    if keep_from <= 0:
        return 0
    del series.times[:keep_from]
    del series.values[:keep_from]
    return keep_from


def merge_tier(directory: Path, table: str, metas: List[SegmentMeta],
               segment_id: int, level: int, cutoff: Optional[float],
               ) -> Tuple[SegmentMeta, CompactionStats]:
    """Merge one level's segments into a single next-level segment."""
    stats = CompactionStats(merges=1, segments_merged=len(metas),
                            obsolete_files=[m.file for m in metas])
    merged: Dict[SeriesKey, ChangePointSeries] = {}
    # newest first so the first version seen of each key wins
    for meta in sorted(metas, key=lambda m: m.segment_id, reverse=True):
        for key, series in read_segment(directory, meta):
            if key not in merged:
                merged[key] = series
    for series in merged.values():
        stats.points_dropped += trim_series(series, cutoff)
    items = sorted(merged.items(),
                   key=lambda kv: (kv[0].measure_name, kv[0].dimensions))
    new_meta = write_segment(directory, segment_id, table, level, items)
    stats.segments_created += 1
    stats.bytes_written += new_meta.bytes
    return new_meta, stats


def compact_table(directory: Path, table: str, manifest: TableManifest,
                  next_segment_id, tier_fanout: int = DEFAULT_TIER_FANOUT,
                  ) -> CompactionStats:
    """Run size-tiered merges on one table until every tier is slim.

    ``next_segment_id`` is a callable allocating monotonically increasing
    segment ids (shared across tables by the engine).  The table's
    segment list is rewritten in place; superseded files are reported in
    the returned stats for post-publish deletion, not deleted here.
    """
    total = CompactionStats()
    while True:
        by_level: Dict[int, List[SegmentMeta]] = {}
        for meta in manifest.segments:
            by_level.setdefault(meta.level, []).append(meta)
        ripe = [lvl for lvl, metas in sorted(by_level.items())
                if len(metas) >= tier_fanout]
        if not ripe:
            break
        level = ripe[0]
        # a merge must consume the ENTIRE level: that is what keeps
        # "higher segment id => newer data" true across levels, which is
        # the ordering recovery's newest-wins merge relies on
        victims = by_level[level]
        new_meta, stats = merge_tier(
            directory, table, victims, next_segment_id(), level + 1,
            manifest.evicted_through)
        total.merge_into(stats)
        survivors = [m for m in manifest.segments if m not in victims]
        manifest.segments = sorted(survivors + [new_meta],
                                   key=lambda m: m.segment_id)
    return total
