"""StorageEngine: the durable facade under ``TimeSeriesStore``.

The engine owns a data directory laid out as::

    data_dir/
      MANIFEST              # atomically-published root of trust
      wal-00000001.log      # segmented write-ahead log (group commits)
      seg-00000001-sps-L0.seg     # immutable sorted segment files
      ...                         # (binary columnar, see columnar.py)

and attaches to a *live* store (the archive's in-memory tables are the
memtable -- there is no second copy of the data).  The write protocol:

1. every archive mutation is logged first (``log_create_table`` /
   ``log_points`` / ``log_eviction``) and then applied to the live
   table by the caller (an eviction then reports the series it trimmed
   through ``mark_dirty``);
2. ``commit_round`` group-commits the round's batch to the WAL -- the
   crash-atomicity unit is the collection round;
3. every ``checkpoint_every`` rounds (the caller's cadence),
   ``checkpoint`` flushes dirty series to level-0 segments, runs
   size-tiered compaction, publishes a new manifest and garbage-collects
   the log.

Every file operation goes through the durable seam (``durable.py``) and
is a crash point of ``doublerun --durability``.  Process death loses at
most the round in flight; a WAL segment is fsynced only once finished,
so power loss rolls back to that point or the end of the log's torn
prefix past it -- always a committed round (see ``recovery.py``).
"""

from __future__ import annotations

import os
from math import isfinite
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..timeseries.record import SeriesKey
from ..timeseries.store import RetentionPolicy, TimeSeriesStore
from .compaction import DEFAULT_TIER_FANOUT, CompactionStats, compact_table
from .recovery import RecoveredState, recover
from .segments import (
    Manifest,
    TableManifest,
    is_segment_file_name,
    store_manifest,
    write_segment,
)
from .durable import PLAIN, DurableIO, is_temporary
from .wal import WalWriter, _ENCODER, wal_file_number


class StorageEngine:
    """Durable write-ahead-logged storage under one data directory."""

    def __init__(self, data_dir: Union[str, Path], *,
                 tier_fanout: int = DEFAULT_TIER_FANOUT,
                 io: DurableIO = PLAIN):
        self.data_dir = Path(data_dir)
        self.io = io
        io.makedirs(self.data_dir)
        self.tier_fanout = tier_fanout

        #: state reconstructed from disk at open (fresh dirs recover empty)
        self.recovered: RecoveredState = recover(self.data_dir)
        self._manifest = self.recovered.manifest
        self.rounds_committed = self.recovered.rounds_committed
        self.last_commit_time = self.recovered.last_commit_time
        self._dirty: Dict[str, Set[SeriesKey]] = {
            name: set(keys) for name, keys in self.recovered.dirty.items()}
        self._pending_evictions: Dict[str, float] = dict(
            self.recovered.replayed_evictions)
        # WAL line templates: per table, keyed by the caller's pre-built
        # SeriesKey (cached hash: no per-point key construction).  A
        # series' dims/measure/table never change, so the invariant JSON
        # text around the per-record seq/time/value is encoded once and
        # spliced thereafter.  Entries are [prefix, mid, dirty_epoch]
        # lists: a key whose entry already carries the current epoch is
        # known to be in the dirty set, so repeat points skip the set-add
        self._point_templates: Dict[str, Tuple[Dict[SeriesKey, list],
                                               Set[SeriesKey]]] = {}
        # bumped by checkpoint() when the dirty sets are cleared
        self._dirty_epoch = 0
        self._store: Optional[TimeSeriesStore] = None

        # append to the newest existing WAL file (never clobber committed
        # records); a fully-GC'd log starts at the manifest's next number
        number = self.recovered.max_wal_number or self._manifest.next_wal_number
        self._writer = WalWriter(
            self.data_dir, number=number,
            next_seq=self.recovered.last_seq + 1, io=io)
        self._collect_garbage(self._manifest)  # what a crash left behind
        self.checkpoints = 0
        self.compaction_stats = CompactionStats()
        self.segment_bytes_written = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, store: TimeSeriesStore) -> None:
        """Bind the live store whose tables are the engine's memtable."""
        self._store = store

    @property
    def store(self) -> TimeSeriesStore:
        if self._store is None:
            raise RuntimeError("StorageEngine has no attached store")
        return self._store

    # -- logging (call before mutating the live store) ---------------------

    def log_create_table(self, name: str,
                         policy: Optional[RetentionPolicy] = None) -> int:
        retention = policy.max_age_seconds if policy is not None else None
        return self._writer.append(
            {"op": "create", "table": name, "retention": retention})

    def _point_state(self, table_name: str
                     ) -> Tuple[Dict[SeriesKey, list], Set[SeriesKey]]:
        state = self._point_templates.get(table_name)
        if state is None:
            state = ({}, self._dirty.setdefault(table_name, set()))
            self._point_templates[table_name] = state
        return state

    def _point_template(self, table_name: str,
                        templates: Dict[SeriesKey, list],
                        key: SeriesKey) -> list:
        entry = [
            '{"dims":%s,"measure":%s,"op":"write","seq":' % (
                _ENCODER.encode(key.dimension_dict),
                _ENCODER.encode(key.measure_name)),
            ',"table":%s,"time":' % _ENCODER.encode(table_name),
            -1]  # dirty epoch: "not known dirty"
        templates[key] = entry
        return entry

    def log_points(self, table_name: str,
                   points: Sequence[Tuple[SeriesKey, float, object]]) -> int:
        """Log a batch of (key, time, value) points, in order.

        Every line is byte-identical to what
        :func:`~repro.storage.wal.encode_record` emits for the same
        write (canonical sorted-key order: dims, measure, op, seq, table,
        time, value), but the per-record work is amortized: templates and
        the dirty set resolve once, spliced lines accumulate into a single
        :meth:`~repro.storage.wal.WalWriter.append_template_many` call.
        ``repr`` of a finite float and ``str`` of a non-bool int are
        exactly what json's C encoder emits, so those scalars are
        spliced; anything else (bools, strings, non-finite floats) takes
        the canonical encoder, flushing the accumulated run first to
        keep sequence order.  Returns the last sequence number used.
        """
        templates, dirty = self._point_state(table_name)
        templates_get = templates.get
        dirty_add = dirty.add
        epoch = self._dirty_epoch
        parts: List[Tuple[str, str]] = []
        parts_append = parts.append
        last_seq = self._writer.next_seq - 1
        # per-batch memo: collection rounds stamp long runs of points with
        # the same timestamp, so repr(time) is computed once per run
        memo_time: object = None
        time_text = ""
        for key, time, value in points:
            entry = templates_get(key)
            if entry is None:
                entry = self._point_template(table_name, templates, key)
            kind = type(value)
            if kind is int:
                value_text = str(value)
            elif kind is float and isfinite(value):
                value_text = repr(value)
            else:
                value_text = None
            if value_text is not None and type(time) is float \
                    and isfinite(time):
                if time is not memo_time:
                    memo_time = time
                    time_text = repr(time)
                parts_append(
                    (entry[0],
                     f'{entry[1]}{time_text},"value":{value_text}}}'))
            else:  # slow path: flush the run first to keep seq order
                if parts:
                    last_seq = self._writer.append_template_many(parts)
                    parts = []
                    parts_append = parts.append
                last_seq = self._writer.append({
                    "op": "write", "table": table_name,
                    "measure": key.measure_name,
                    "dims": key.dimension_dict,
                    "value": value, "time": time})
            if entry[2] != epoch:
                entry[2] = epoch
                dirty_add(key)
        if parts:
            last_seq = self._writer.append_template_many(parts)
        return last_seq

    def log_eviction(self, table_name: str, cutoff: float) -> int:
        seq = self._writer.append(
            {"op": "evict", "table": table_name, "cutoff": cutoff})
        previous = self._pending_evictions.get(table_name, float("-inf"))
        self._pending_evictions[table_name] = max(previous, cutoff)
        return seq

    def mark_dirty(self, table_name: str,
                   trimmed: Sequence[SeriesKey]) -> None:
        """Queue the series an applied eviction trimmed for the next
        checkpoint's flush.  The rest keep their segments: recovery
        re-applies ``evicted_through`` to whatever it installs."""
        self._dirty.setdefault(table_name, set()).update(trimmed)

    # -- round commit ------------------------------------------------------

    def commit_round(self, time: float) -> int:
        """Group-commit the round's batch; returns the marker's seq."""
        seq = self._writer.commit(self.rounds_committed + 1, time)
        self.rounds_committed += 1
        self.last_commit_time = time
        return seq

    # -- checkpoint --------------------------------------------------------

    def _flush_dirty(self, manifest: Manifest) -> None:
        for table_name in sorted(self._dirty):
            keys = self._dirty[table_name]
            if not keys:
                continue
            table = self.store.table(table_name)
            items = []
            for key in sorted(keys, key=lambda k: (k.measure_name,
                                                   k.dimensions)):
                series = table.series(key)
                if series is not None and series.times:
                    items.append((key, series))
            if not items:
                continue
            segment_id = manifest.next_segment_id
            manifest.next_segment_id += 1
            meta = write_segment(self.data_dir, segment_id, table_name, 0,
                                 items, self.io)
            manifest.tables[table_name].segments.append(meta)
            self.segment_bytes_written += meta.bytes

    def _collect_garbage(self, manifest: Manifest) -> None:
        """Delete unlisted segments, log files a checkpoint folded (below
        ``next_wal_number``) and stale temporaries."""
        live = set(manifest.live_files())
        for entry in sorted(os.listdir(self.data_dir)):
            number = wal_file_number(entry)
            folded = number is not None and number < manifest.next_wal_number
            orphan = is_segment_file_name(entry) and entry not in live
            if folded or orphan or is_temporary(entry):
                self.io.unlink(self.data_dir / entry)

    def checkpoint(self, time: float) -> Manifest:
        """Fold the committed log into segments and publish a manifest.

        Must run at a round boundary (no uncommitted batch pending): the
        manifest horizon is the last committed sequence number.
        """
        if self._writer.pending:
            raise RuntimeError(
                "checkpoint requires a committed round boundary "
                f"({self._writer.pending} uncommitted records pending)")

        store = self.store
        manifest = Manifest(
            version=self._manifest.version + 1,
            last_applied_seq=self._writer.next_seq - 1,
            rounds_committed=self.rounds_committed,
            last_commit_time=self.last_commit_time,
            next_segment_id=self._manifest.next_segment_id,
            next_wal_number=self._writer.number + 1,
            tables={})
        for name in store.table_names():
            previous = self._manifest.tables.get(name)
            entry = TableManifest(
                retention=store.policy(name).max_age_seconds,
                records_written=store.table(name).stats.records_written,
                evicted_through=previous.evicted_through if previous else None,
                segments=list(previous.segments) if previous else [])
            pending = self._pending_evictions.get(name)
            if pending is not None:
                current = entry.evicted_through
                entry.evicted_through = pending if current is None \
                    else max(current, pending)
            manifest.tables[name] = entry

        self._flush_dirty(manifest)

        def next_segment_id() -> int:
            allocated = manifest.next_segment_id
            manifest.next_segment_id += 1
            return allocated

        for name in sorted(manifest.tables):
            stats = compact_table(self.data_dir, name, manifest.tables[name],
                                  next_segment_id, self.tier_fanout, self.io)
            self.segment_bytes_written += stats.bytes_written
            self.compaction_stats.merge_into(stats)

        # roll first so the manifest's next_wal_number matches the active
        # file and every superseded log file is safe to delete
        self._writer.roll()
        manifest.next_wal_number = self._writer.number
        store_manifest(self.data_dir, manifest, self.io)
        self._collect_garbage(manifest)
        self._manifest = manifest
        # clear in place: log_points' template state holds references to
        # these per-table dirty sets
        for keys in self._dirty.values():
            keys.clear()
        # invalidate log_points' per-entry dirty stamps in O(1): entries
        # compare their stamp against this epoch before re-adding a key
        self._dirty_epoch += 1
        self._pending_evictions = {}
        self.checkpoints += 1
        return manifest

    # -- lifecycle / introspection -----------------------------------------

    @property
    def manifest(self) -> Manifest:
        return self._manifest

    def evicted_through(self, table_name: str) -> Optional[float]:
        """The table's retention watermark: rows at or before it are gone.

        Combines the durable manifest watermark with evictions WAL-logged
        since the last checkpoint; None when the table was never swept.
        This is the hot/cold split point federated history queries use.
        """
        entry = self._manifest.tables.get(table_name)
        durable = entry.evicted_through if entry else None
        pending = self._pending_evictions.get(table_name)
        if durable is None:
            return pending
        if pending is None:
            return durable
        return max(durable, pending)

    def stats(self) -> dict:
        """Durability counters (the ``repro recover`` / bench payload)."""
        live_bytes = self._manifest.live_bytes()
        return {
            "rounds_committed": self.rounds_committed,
            "last_seq": self._writer.next_seq - 1,
            "checkpoints": self.checkpoints,
            "manifest_version": self._manifest.version,
            "wal_bytes_written": self._writer.bytes_written,
            "wal_records_written": self._writer.records_written,
            "segment_bytes_written": self.segment_bytes_written,
            "live_segment_bytes": live_bytes,
            "compaction_merges": self.compaction_stats.merges,
            "compaction_points_dropped": self.compaction_stats.points_dropped,
            "write_amplification": (
                self.segment_bytes_written / live_bytes if live_bytes else 0.0),
        }
