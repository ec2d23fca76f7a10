"""Crash recovery: manifest + segments + WAL tail -> byte-identical store.

Opening a data directory replays three layers, each validated:

1. the ``MANIFEST`` (atomically published, so always internally
   consistent) names the live segment set and the log horizon;
2. segments install series state via ``Table.install_series`` --
   newest-wins per series key, then the manifest's ``evicted_through``
   retention cutoff is re-applied (eviction ops already folded into the
   horizon may have been garbage-collected from the WAL); a corrupt
   manifest (``CorruptManifestError``) or a segment in any format but
   the current one (``CorruptSegmentError``) is refused, not guessed at;
3. the WAL tail (``seq > last_applied_seq``) replays committed batches
   through the ordinary ``Table.write`` / ``evict_before`` path,
   discarding a torn final record and any batch without a commit marker.

Because segment flushes capture exact series state (including
``observed_until`` / ``observation_count``) and the WAL tail replays the
original record stream through the same ingestion code, the recovered
store is byte-identical -- ``dump_store`` output and all -- to the state
an uninterrupted process held at its last committed round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set

from ..timeseries.record import Record, SeriesKey
from ..timeseries.store import RetentionPolicy, TimeSeriesStore
from ..timeseries.table import Table
from .segments import Manifest, load_manifest, read_segment
from .wal import CorruptWalError, read_wal


@dataclass
class RecoveredState:
    """Everything a restarted engine (or operator) learns from disk."""

    store: TimeSeriesStore
    manifest: Manifest
    #: sequence number of the last committed (applied) record
    last_seq: int = 0
    rounds_committed: int = 0
    last_commit_time: Optional[float] = None
    #: torn/invalid trailing WAL lines discarded (crash mid-flush)
    torn_lines: int = 0
    #: well-formed WAL records discarded for lacking a commit marker
    uncommitted_records: int = 0
    #: WAL-tail operations replayed through the ingestion path
    replayed_operations: int = 0
    #: series touched by the WAL tail (the restarted engine's dirty set)
    dirty: Dict[str, Set[SeriesKey]] = field(default_factory=dict)
    #: newest eviction cutoff seen in the WAL tail, per table
    replayed_evictions: Dict[str, float] = field(default_factory=dict)
    #: highest WAL file number present on disk (0 = empty log)
    max_wal_number: int = 0

    @property
    def data_loss(self) -> bool:
        """True when recovery had to discard anything (an interrupted
        flush's torn tail or an uncommitted batch -- never a committed
        round)."""
        return self.torn_lines > 0 or self.uncommitted_records > 0


def _install_tables(store: TimeSeriesStore, manifest: Manifest,
                    directory: Path) -> None:
    for name in sorted(manifest.tables):
        entry = manifest.tables[name]
        table = Table(name)
        seen: Set[SeriesKey] = set()
        # newest-wins: walk segments newest-first, first version of each
        # key is authoritative (see compaction.py's ordering invariant)
        collected = []
        for meta in sorted(entry.segments, key=lambda m: m.segment_id,
                           reverse=True):
            for key, series in read_segment(directory, meta):
                if key not in seen:
                    seen.add(key)
                    collected.append((key, series))
        collected.sort(key=lambda kv: (kv[0].measure_name, kv[0].dimensions))
        for key, series in collected:
            table.install_series(key, series)
        if entry.evicted_through is not None:
            table.evict_before(entry.evicted_through)
        table.stats.records_written = entry.records_written
        store.install_table(table, RetentionPolicy(entry.retention))


def _replay_tail(store: TimeSeriesStore, state: RecoveredState,
                 operations: List[dict]) -> None:
    for op in operations:
        kind = op.get("op")
        table_name = op.get("table")
        if kind == "create":
            policy = RetentionPolicy(max_age_seconds=op["retention"])
            store.create_table(table_name, policy)
        elif kind == "write":
            record = Record.make(op["dims"], op["measure"], op["value"],
                                 op["time"])
            store.table(table_name).write(record)
            state.dirty.setdefault(table_name, set()).add(
                SeriesKey.of(record))
        elif kind == "evict":
            trimmed: List[SeriesKey] = []
            store.table(table_name).evict_before(op["cutoff"], trimmed)
            state.dirty.setdefault(table_name, set()).update(trimmed)
            previous = state.replayed_evictions.get(table_name,
                                                    float("-inf"))
            state.replayed_evictions[table_name] = max(previous,
                                                       op["cutoff"])
        else:
            raise CorruptWalError(f"unknown WAL operation {kind!r}")
        state.replayed_operations += 1


def recover(directory: Path) -> RecoveredState:
    """Reconstruct the store (and engine bookkeeping) from a data dir.

    Safe on a fresh (or not-yet-created) directory (empty store), after
    any crash window (the manifest protocol and WAL torn-tail rules
    guarantee a consistent prefix), and idempotent: recovering twice
    yields identical state.
    """
    directory = Path(directory)
    if not directory.exists():
        return RecoveredState(store=TimeSeriesStore(), manifest=Manifest())
    manifest = load_manifest(directory) or Manifest()
    store = TimeSeriesStore()
    state = RecoveredState(
        store=store, manifest=manifest,
        last_seq=manifest.last_applied_seq,
        rounds_committed=manifest.rounds_committed,
        last_commit_time=manifest.last_commit_time)
    _install_tables(store, manifest, directory)

    replay = read_wal(directory, after_seq=manifest.last_applied_seq)
    _replay_tail(store, state, replay.operations)
    state.last_seq = max(state.last_seq, replay.last_seq)
    state.rounds_committed += replay.rounds
    if replay.commits:
        state.last_commit_time = replay.commits[-1]["time"]
    state.torn_lines = replay.torn_lines
    state.uncommitted_records = replay.uncommitted_records
    state.max_wal_number = replay.max_file_number
    return state
