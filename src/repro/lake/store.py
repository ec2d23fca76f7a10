"""Date-partitioned cold tier: keyframe + delta round files + a manifest.

Every committed collection round lands as one immutable columnar file

    data_dir/lake/YYYY/MM/DD/round-<t>.seg        (level 0)

reusing the v3 segment codec (:mod:`repro.storage.columnar`): one table
per file, read through an mmap one column at a time.  What the file
holds follows one rule, read off the manifest: the rows the differ found
changed (:mod:`repro.lake.diff`) plus the rows of every series that
day's partitions do not hold yet.  The first round of a UTC day (no
partition listed under that day yet) is therefore the day's **keyframe**
-- the whole merged round -- and every later round is a **delta**, in
steady state of just the changed rows, possibly none.  A round costs the
cold tier what it changed, and a day's files read, per series, as "first
row that day + every value change" -- the layout ``repro lake compact``
makes explicit when it folds a finished day into

    data_dir/lake/YYYY/MM/DD/day-<t>.seg          (level 1, one day)

Readers never tell the kinds apart: history scans dedup against the
value in force before each row (a delta's ride-along unchanged measures
vanish there), and ``/rounds/<date>`` rebuilds any round's snapshot by
carrying values forward over the day's partitions up to that round.
Carry-forward repeats a series' last stored value through later rounds
of the day that did not observe it (a mid-day collection gap); a series
the keyframe round missed enters with the first round that observes it.
History queries are exact either way.  In a lake file
``observation_count`` counts the rows stored for the series and
``observed_until`` is the time of the last one -- not, as in the hot
tier, every observation made.

Every read is one routine (:meth:`SpotDataLake._history`) and costs
what it returns.  The manifest's per-partition ``[start, end]`` is the
zone map that skips whole files; each partition's cursor resolves a
:class:`~repro.storage.columnar.Selection` (measure + exact filters, or
the keys a baseline walk still misses) and the window to id columns on
its series index, without visiting the other series.  A ``/rounds``
page takes its rows from per-partition row directories
(:class:`_WideRows`: which wide-row coordinates a file's series belong
to, and since when) and reads values only for the series behind them.
Index, directory and decoded columns are derived from the immutable
file, built once on first use, and dropped with the cursor they hang
off.

Publish protocol (crash windows mirror the storage engine's checkpoint):

1. ``lake.segment``  -- before the partition file is written: a crash
   here leaves no trace.
2. ``lake.manifest`` -- partition durable, manifest not yet replaced: a
   crash leaves an orphan file the next publish garbage-collects (or the
   re-collected round atomically overwrites).
3. ``lake.publish``  -- manifest live, orphans not yet collected.

The manifest (``LAKE_MANIFEST``) is the root of trust: only partitions
it lists exist.  Because rounds are appended to the lake *before* the
hot engine's group commit, recovery truncates the lake to the hot
store's ``last_commit_time`` (:meth:`SpotDataLake.trim_to`) -- a lake
round the WAL never committed is re-collected deterministically, byte-
identical file included.

Timestamps are simulation time; partition dates derive from them via
``datetime.fromtimestamp(t, tz=timezone.utc)`` (never the host clock),
so the layout itself is byte-deterministic.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .._util import atomic_open
from ..storage.columnar import (
    ColumnarFormatError,
    Selection,
    SegmentCursor,
    TableColumns,
    encode_columns,
    encode_segment,
    spans,
    value_id,
)
from ..timeseries.record import Record, SeriesKey, Value
from ..timeseries.vector import TierColumns
from ..storage.wal import NoopCrashHook
from .merge import MergedRound
from .schema import (
    DATASETS,
    DIM_REGION,
    DIM_TYPE,
    DIM_ZONE,
    IF_SCORE_MEASURE,
    INTERRUPTION_RATIO_MEASURE,
    KeyMemo,
    MEASURE_SLOTS,
    PRICE_MEASURE,
    Row,
    SAVINGS_MEASURE,
    SPS_MEASURE,
)

#: Lake crash windows, in the order one round commit reaches them
#: (armed by ``doublerun --durability --lake``).
LAKE_CRASH_WINDOWS = ("lake.segment", "lake.manifest", "lake.publish")

LAKE_DIR_NAME = "lake"
LAKE_MANIFEST_NAME = "LAKE_MANIFEST"
#: 2: partitions are v3 segments (1 held v2 ones, which nothing reads)
LAKE_FORMAT = 2

#: Segment-codec table label of every lake partition.
LAKE_TABLE = "lake"


def lake_day(time: float) -> str:
    """``YYYY/MM/DD`` partition directory of a simulation timestamp."""
    stamp = datetime.fromtimestamp(float(time), tz=timezone.utc)
    return f"{stamp.year:04d}/{stamp.month:02d}/{stamp.day:02d}"


def _stamp_text(time: float) -> str:
    """Filename-stable rendering of a round timestamp."""
    time = float(time)
    return str(int(time)) if time.is_integer() else repr(time)


def _equality_class(value: Value) -> Tuple[type, object]:
    """Values in one class are ``values_equal``: one type, and ``==`` or
    both NaN (so ``0.0`` and ``-0.0`` share a class)."""
    if value != value:
        return float, "nan"
    return type(value), value


class _History(NamedTuple):
    """What :meth:`SpotDataLake._history` read: ``keys`` in canonical
    ``(measure_name, dimensions)`` order, and per row -- ordered by
    series, then time, partition order on ties -- its series (an index
    into ``keys``), time, value and whether it is a change."""

    keys: List[SeriesKey]
    series: np.ndarray
    time: np.ndarray
    values: List[Value]
    change: np.ndarray


def _fold_day(tables: Sequence[TableColumns]) -> TableColumns:
    """One day's partitions, in partition order, folded into one table.

    The partitions' string, shape and value ids are remapped into one id
    space (the strings numbered in sorted order, so ids compare as the
    strings do).  One ``np.lexsort`` ranks the series in canonical
    ``(measure_name, dimensions)`` order -- a missing dimension slot is
    -1, so a shorter key sorts first, as in tuple order -- and groups
    each series' entries, in partition order.  The entry of a series'
    first partition is kept whole; a later row is kept only when its
    value is not ``values_equal`` to the row before it (one
    neighbour-inequality mask over :func:`_equality_class` ids).
    ``observation_count`` adds up and ``observed_until`` is the latest.
    """
    strings = sorted(set().union(*(t.strings for t in tables)))
    string_id = {name: i for i, name in enumerate(strings)}
    shapes: Dict[Tuple[int, ...], int] = {}
    value_ids: Dict[object, int] = {}
    values: List[Value] = []
    width = max((len(s) for t in tables for s in t.shapes), default=0)
    series: List[List[np.ndarray]] = []
    rows: List[Tuple[np.ndarray, np.ndarray]] = []
    row_base = 0
    for n, table in enumerate(tables):
        local = np.asarray([string_id[name] for name in table.strings],
                           dtype=np.int64)
        shape = np.asarray([shapes.setdefault(tuple(local[s].tolist()),
                                              len(shapes))
                            for s in table.shapes], dtype=np.int64)
        slots = np.asarray([len(s) for s in table.shapes],
                           dtype=np.int64)[table.shape]
        dims = [np.where(slots > k, local[table.dims[k]], -1)
                if k < len(table.dims) else np.full(slots.size, -1)
                for k in range(width)]
        ids: List[int] = []
        for v in table.values:
            at = value_ids.setdefault(value_id(v), len(values))
            if at == len(values):
                values.append(v)
            ids.append(at)
        starts = row_base + np.cumsum(table.count) - table.count
        series.append([local[table.measure], shape[table.shape], *dims,
                       np.full(slots.size, n), starts,
                       table.count, table.oc, table.ou])
        rows.append((table.time,
                     np.asarray(ids, dtype=np.int64)[table.value]))
        row_base += table.time.size
    (measure, shape, *dims, source, row_start, count, oc,
     until) = map(np.concatenate, zip(*series))
    names = np.full((len(shapes), width), -1, dtype=np.int64)
    for names_of, at in shapes.items():
        names[at, :len(names_of)] = names_of
    names = names[shape]
    # lexsort: the last key is the primary one
    keys = [measure, *chain.from_iterable(
        (names[:, k], dims[k]) for k in range(width))]
    order = np.lexsort((source, *reversed(keys)))
    # an entry starts a series when any key column differs from the
    # entry before it
    first = np.zeros(order.size, dtype=bool)
    first[:1] = True
    for key in keys:
        ranked = key[order]
        first[1:] |= ranked[1:] != ranked[:-1]
    group = np.cumsum(first) - 1
    heads = np.flatnonzero(first)

    # every entry's rows, in the sorted entry order
    counts = count[order]
    taken = spans(row_start[order], counts)
    time = np.concatenate([t for t, _ in rows])[taken]
    value = np.concatenate([v for _, v in rows])[taken]
    row_group = np.repeat(group, counts)
    classes: Dict[object, int] = {}
    equal_class = np.asarray([classes.setdefault(_equality_class(v),
                                                 len(classes))
                              for v in values], dtype=np.int64)[value]
    keep = np.repeat(first, counts)
    keep[:1] = True
    keep[1:] |= (equal_class[1:] != equal_class[:-1]) \
        | (row_group[1:] != row_group[:-1])
    return TableColumns(
        strings=strings, shapes=list(shapes), values=values,
        measure=measure[order][heads], shape=shape[order][heads],
        dims=[d[order][heads] for d in dims],
        count=np.bincount(row_group[keep], minlength=heads.size),
        oc=np.add.reduceat(oc[order], heads),
        ou=np.maximum.reduceat(until[order], heads),
        time=time[keep], value=value[keep])


@dataclass(frozen=True)
class LakePartition:
    """One immutable lake file, as recorded in the manifest."""

    kind: str                  # "round" (level 0) or "day" (level 1)
    path: str                  # posix path relative to the lake root
    start: float               # min row timestamp in the file
    end: float                 # max row timestamp in the file
    rounds: Tuple[float, ...]  # commit times of the rounds it covers
    rows: int                  # points stored in the file
    bytes: int                 # file size
    sha256: str                # digest of the exact file bytes

    @property
    def day(self) -> str:
        """The ``YYYY/MM/DD`` directory this partition lives under."""
        return self.path.rsplit("/", 1)[0]

    def as_dict(self) -> dict:
        return {
            "kind": self.kind, "path": self.path,
            "start": self.start, "end": self.end,
            "rounds": list(self.rounds), "rows": self.rows,
            "bytes": self.bytes, "sha256": self.sha256,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "LakePartition":
        return cls(kind=str(raw["kind"]), path=str(raw["path"]),
                   start=float(raw["start"]), end=float(raw["end"]),
                   rounds=tuple(float(t) for t in raw["rounds"]),
                   rows=int(raw["rows"]), bytes=int(raw["bytes"]),
                   sha256=str(raw["sha256"]))


class LakeFormatError(ValueError):
    """The lake manifest is not a well-formed document of this format."""


#: The measures of a wide merged row, in the order its fields appear
#: (a field is named after its measure).
_WIDE_MEASURES = (SPS_MEASURE, PRICE_MEASURE, INTERRUPTION_RATIO_MEASURE,
                 IF_SCORE_MEASURE, SAVINGS_MEASURE)

WideCoords = Tuple[str, str, str]


class _WideRows:
    """Where one partition's series sit in the wide merged record.

    ``coords`` lists, sorted, the ``(instance_type, region, zone)`` of
    every series in the file -- zone ``""`` for the pair-level advisor
    series -- and ``since`` the earliest stored row time among each
    coordinate's series.  Immutable once built.
    """

    __slots__ = ("coords", "since", "complete")

    def __init__(self, keys: Sequence[SeriesKey], first_tmin: np.ndarray):
        since: Dict[WideCoords, float] = {}
        for key, tmin in zip(keys, first_tmin.tolist()):
            dims = key.dimension_dict
            coords = (dims[DIM_TYPE], dims[DIM_REGION],
                      dims.get(DIM_ZONE, ""))
            if tmin < since.get(coords, float("inf")):
                since[coords] = tmin
        self.coords: List[WideCoords] = sorted(since)
        self.since = np.asarray([since[c] for c in self.coords])
        #: from here on every coordinate holds a value
        self.complete = max(since.values(), default=float("-inf"))

    def upto(self, time: float) -> List[WideCoords]:
        """Sorted coordinates with a row stored at or before ``time``."""
        if time >= self.complete:
            return self.coords
        return [self.coords[i]
                for i in np.flatnonzero(self.since <= time).tolist()]


class _OpenPartition:
    """One live partition file held open for reads."""

    __slots__ = ("buffer", "cursor", "_rows")

    def __init__(self, path: Path):
        # the map keeps its own descriptor: the file closes right away
        with open(path, "rb") as fh:
            try:
                self.buffer = mmap.mmap(fh.fileno(), 0,
                                        access=mmap.ACCESS_READ)
            except ValueError:      # an empty file cannot be mapped
                raise ColumnarFormatError(
                    f"partition {path.name} is empty") from None
        try:
            self.cursor = SegmentCursor(self.buffer, memoize=True)
        except ColumnarFormatError:
            self.buffer.close()
            raise
        self._rows: Optional[_WideRows] = None

    def wide_rows(self) -> _WideRows:
        """The file's row directory, built on first use and published
        finished (like the cursor's series index it is read off)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = _WideRows(
                self.cursor.keys(), self.cursor.series_index().first_tmin)
        return rows

    def close(self) -> None:
        self.cursor.release()
        self.buffer.close()


class SpotDataLake:
    """The cold tier under one ``data_dir/lake`` root."""

    def __init__(self, root: Union[str, Path], crash_hook=None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.crash_hook = crash_hook or NoopCrashHook()
        self._lock = threading.Lock()
        #: manifest version as last read from / written to disk
        self._version = 0
        self._partitions: Tuple[LakePartition, ...] = ()
        #: open mmap-backed cursors, one per live partition file, keyed
        #: by (path, sha256) so a re-collected overwrite never serves
        #: stale bytes; guarded by its own lock because compaction reads
        #: partitions while holding the manifest lock
        self._cursors: Dict[Tuple[str, str], _OpenPartition] = {}
        self._cursor_lock = threading.Lock()
        #: (day, per dataset the coordinates that day's partitions hold
        #: rows for): what ``append_round`` need not store again
        self._held: Tuple[Optional[str], Dict[str, set]] = (None, {})
        self._load_manifest()

    # -- manifest ------------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.root / LAKE_MANIFEST_NAME

    def _load_manifest(self) -> None:
        path = self._manifest_path()
        if not path.exists():
            return
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
            if raw.get("format") != LAKE_FORMAT:
                raise LakeFormatError(
                    f"unsupported lake manifest format {raw.get('format')!r}")
            self._version = int(raw["version"])
            self._partitions = tuple(LakePartition.from_dict(p)
                                     for p in raw["partitions"])
        except LakeFormatError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise LakeFormatError(f"undecodable lake manifest: {exc}") \
                from None

    def _write_manifest(self, partitions: Sequence[LakePartition],
                        version: int) -> None:
        payload = {
            "format": LAKE_FORMAT,
            "version": version,
            "partitions": [p.as_dict() for p in partitions],
        }
        with atomic_open(self._manifest_path(),
                         sync_directory=True) as fh:
            json.dump(payload, fh, sort_keys=True,
                      separators=(",", ":"))
            fh.write("\n")

    def _publish(self, partitions: Sequence[LakePartition],
                 crash_hooks: bool) -> None:
        """Write + publish a new manifest, then collect orphan files."""
        if crash_hooks:
            self.crash_hook.before("lake.manifest")
        version = self._version + 1
        self._write_manifest(partitions, version)
        self._version = version
        self._partitions = tuple(partitions)
        if crash_hooks:
            self.crash_hook.before("lake.publish")
        self._invalidate_cursors()
        self._collect_orphans()

    def _collect_orphans(self) -> None:
        """Delete ``.seg`` files the live manifest does not reference."""
        live = {p.path for p in self._partitions}
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames.sort()
            rel_dir = Path(dirpath).relative_to(self.root).as_posix()
            for name in sorted(filenames):
                if not name.endswith(".seg"):
                    continue
                rel = name if rel_dir == "." else f"{rel_dir}/{name}"
                if rel not in live:
                    os.unlink(Path(dirpath) / name)

    # -- introspection -------------------------------------------------------

    @property
    def partitions(self) -> Tuple[LakePartition, ...]:
        with self._lock:
            return self._partitions

    @property
    def round_count(self) -> int:
        """Committed rounds the lake holds (survives trims/compaction)."""
        return sum(len(p.rounds) for p in self.partitions)

    def round_times(self) -> List[float]:
        """Every archived round commit time, ascending."""
        times = [t for p in self.partitions for t in p.rounds]
        times.sort()
        return times

    def days(self) -> List[str]:
        """Distinct ``YYYY/MM/DD`` partition days, ascending."""
        seen: Dict[str, None] = {}
        for part in self.partitions:
            seen.setdefault(part.day, None)
        return sorted(seen)

    def day_parts(self, day: str) -> Dict[str, List[LakePartition]]:
        """One day's partitions by what they are, in manifest order.

        ``keyframe``: a round file that is the day's first partition
        (:meth:`append_round` wrote it whole); ``delta``: every later
        round file; ``day``: compacted files.  Read off the order alone,
        so the whole-round files of an older layout all count as deltas.
        """
        made_of: Dict[str, List[LakePartition]] = {
            "keyframe": [], "delta": [], "day": []}
        for index, part in enumerate(p for p in self.partitions
                                     if p.day == day):
            made_of["day" if part.kind == "day" else
                    "delta" if index else "keyframe"].append(part)
        return made_of

    def census(self) -> dict:
        """Partition count / bytes / time span (the stats payload)."""
        parts = self.partitions
        return {
            "partitions": len(parts),
            "rounds": sum(len(p.rounds) for p in parts),
            "days": len({p.day for p in parts}),
            "bytes": sum(p.bytes for p in parts),
            "rows": sum(p.rows for p in parts),
            "start": min((p.start for p in parts), default=None),
            "end": max((p.end for p in parts), default=None),
        }

    def digest(self) -> str:
        """Deterministic identity of the lake's logical content.

        Hashes the manifest's partition list (each entry pins its file's
        sha256), *not* the manifest version: a recovered-and-trimmed lake
        digests equal to a reference that never crashed.
        """
        payload = {"format": LAKE_FORMAT,
                   "partitions": [p.as_dict() for p in self.partitions]}
        raw = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()

    def content_digest(self) -> str:
        """Identity of what the partitions hold, whatever their bytes.

        Hashes the decoded content in canonical order: partitions in
        manifest order, each as its kind and round times, then per series
        its measure, dimensions, row times, type-tagged values,
        ``observed_until`` and ``observation_count``.  Unlike
        :meth:`digest`, which pins file bytes, it holds across a change
        of segment format.
        """
        sha = hashlib.sha256()
        for part in self.partitions:
            sha.update(json.dumps([part.kind, part.rounds]).encode("utf-8"))
            for key, series in self._cursor(part).items():
                sha.update(json.dumps([
                    key.measure_name, key.dimensions, series.times,
                    [(type(v).__name__, repr(v)) for v in series.values],
                    series.observed_until, series.observation_count,
                ]).encode("utf-8"))
        return sha.hexdigest()

    # -- recovery ------------------------------------------------------------

    def trim_to(self, last_commit_time: Optional[float]) -> int:
        """Drop (in memory) rounds newer than the hot store's last commit.

        Rounds land in the lake *before* the hot WAL's group commit, so
        a crash between the two leaves the lake one round ahead; the
        trimmed round is re-collected deterministically and its file
        atomically overwritten.  The on-disk manifest is left alone --
        the next publish persists the trimmed view and collects the
        orphan file.  Returns the number of rounds dropped.
        """
        cutoff = float("-inf") if last_commit_time is None \
            else float(last_commit_time)
        with self._lock:
            before = sum(len(p.rounds) for p in self._partitions)
            kept = tuple(p for p in self._partitions
                         if p.rounds and p.rounds[-1] <= cutoff)
            self._partitions = kept
            self._held = (None, {})
            self._invalidate_cursors()
            return before - sum(len(p.rounds) for p in kept)

    # -- writes --------------------------------------------------------------

    def append_round(self, merged: MergedRound,
                     changed: Dict[str, List[Row]]) -> LakePartition:
        """Land one merged round as an immutable date-partitioned file.

        The file stores the rows of ``changed`` (the differ's subset of
        the round) plus every row of a series the day's partitions do not
        hold yet: all of them in the first round of a UTC day (the
        keyframe), none in a steady-state round -- an empty file when
        nothing changed either, so the round is still listed.
        """
        if merged.row_count == 0:
            raise ValueError("refusing to archive an empty round")
        day = lake_day(merged.time)
        held = self._held_on(day)
        stored: Dict[str, List[Row]] = {}
        for table, observed in merged.rows.items():
            width, seen = len(DATASETS[table].dims), held[table]
            stored[table] = [r for r in changed[table] if r[:width] in seen]
            stored[table] += [r for r in observed if r[:width] not in seen]
        items = merged.items(stored)
        rows = sum(len(series.times) for _, series in items)
        start = min((series.times[0] for _, series in items),
                    default=merged.time)
        end = max((series.times[-1] for _, series in items),
                  default=merged.time)
        blob = encode_segment(LAKE_TABLE, int(merged.time), 0, items)
        rel = f"{day}/round-{_stamp_text(merged.time)}.seg"
        with self._lock:
            self.crash_hook.before("lake.segment")
            target = self.root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            with atomic_open(target, binary=True,
                             sync_directory=True) as fh:
                fh.write(blob)
            partition = LakePartition(
                kind="round", path=rel, start=start, end=end,
                rounds=(float(merged.time),), rows=rows, bytes=len(blob),
                sha256=hashlib.sha256(blob).hexdigest())
            self._publish([*self._partitions, partition], crash_hooks=True)
        for table, landed in stored.items():
            width = len(DATASETS[table].dims)
            held[table].update(r[:width] for r in landed)
        return partition

    def _held_on(self, day: str) -> Dict[str, set]:
        """Per dataset, the row coordinates ``day``'s partitions hold.

        Kept across the day's appends; re-read from the partitions' key
        lists after a re-open or a trim.
        """
        if self._held[0] != day:
            held: Dict[str, set] = {table: set() for table in DATASETS}
            for part in self.partitions:
                if part.day == day:
                    for key in self._cursor(part).keys():
                        dataset, _ = MEASURE_SLOTS[key.measure_name]
                        held[dataset.table].add(dataset.coords(key))
            self._held = (day, held)
        return self._held[1]

    # -- compaction ----------------------------------------------------------

    def compact(self, include_active: bool = False) -> dict:
        """Fold each day's round files into one deduped day file.

        Per series the day file keeps the first row plus every value
        change -- what the day's keyframe and deltas already hold, minus
        the unchanged measures that rode along with a changed row -- so
        every read answers the same before and after.  The fold is array
        work over the files' decoded columns (:meth:`_compact_day`), and
        the day file's bytes are exactly those the series-by-series merge
        it replaced wrote.

        The newest day keeps receiving rounds and is skipped unless
        ``include_active``.  Returns a summary dict.
        """
        with self._lock:
            groups: Dict[str, List[LakePartition]] = {}
            for part in self._partitions:
                if part.kind == "round":
                    groups.setdefault(part.day, []).append(part)
            if not include_active and self._partitions:
                last_day = max(p.day for p in self._partitions)
                groups.pop(last_day, None)
            if not groups:
                return {"days_compacted": 0, "partitions_merged": 0,
                        "bytes_before": 0, "bytes_after": 0}

            replacements: Dict[str, LakePartition] = {}
            bytes_before = 0
            for day in sorted(groups):
                parts = sorted(groups[day], key=lambda p: p.start)
                bytes_before += sum(p.bytes for p in parts)
                replacements[day] = self._compact_day(day, parts)

            out: List[LakePartition] = []
            emitted: Dict[str, bool] = {}
            for part in self._partitions:
                if part.kind == "round" and part.day in replacements:
                    if not emitted.get(part.day):
                        emitted[part.day] = True
                        out.append(replacements[part.day])
                    continue
                out.append(part)
            self._publish(out, crash_hooks=False)
            return {
                "days_compacted": len(replacements),
                "partitions_merged": sum(len(p) for p in groups.values()),
                "bytes_before": bytes_before,
                "bytes_after": sum(p.bytes for p in replacements.values()),
            }

    def _compact_day(self, day: str,
                     parts: Sequence[LakePartition]) -> LakePartition:
        """Fold one day's round files into a single level-1 partition.

        A column fold (:func:`_fold_day`) over each partition's decoded id
        columns, written by the one encoder: the bytes are those an
        item-by-item merge of the same files would encode.
        """
        folded = _fold_day([self._cursor(part).columns() for part in parts])
        rounds = tuple(sorted(t for p in parts for t in p.rounds))
        blob = encode_columns(LAKE_TABLE, int(rounds[0]), 1, folded)
        rel = f"{day}/day-{_stamp_text(rounds[0])}.seg"
        target = self.root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        with atomic_open(target, binary=True, sync_directory=True) as fh:
            fh.write(blob)
        return LakePartition(
            kind="day", path=rel,
            start=min(p.start for p in parts),
            end=max(p.end for p in parts),
            rounds=rounds, rows=int(folded.time.size), bytes=len(blob),
            sha256=hashlib.sha256(blob).hexdigest())

    # -- reads ---------------------------------------------------------------

    def _open(self, part: LakePartition) -> _OpenPartition:
        """The partition's open mmap-backed file (opened once, cached).

        Cursor reads are stateless over an immutable buffer, so one
        cached cursor serves concurrent scans; entries are dropped (and
        their mmaps closed) whenever a publish or trim removes the
        partition from the live set.
        """
        key = (part.path, part.sha256)
        with self._cursor_lock:
            entry = self._cursors.get(key)
            if entry is None:
                entry = self._cursors[key] = _OpenPartition(
                    self.root / part.path)
            return entry

    def _cursor(self, part: LakePartition) -> SegmentCursor:
        """The partition's memoized cursor."""
        return self._open(part).cursor

    def _invalidate_cursors(self) -> None:
        """Close cursors for files the live partition set no longer holds."""
        live = {(p.path, p.sha256) for p in self._partitions}
        with self._cursor_lock:
            stale = [k for k in self._cursors if k not in live]
            for key in stale:
                self._cursors.pop(key).close()

    def close(self) -> None:
        """Release every cached cursor (mmaps and file handles)."""
        with self._cursor_lock:
            for entry in self._cursors.values():
                entry.close()
            self._cursors.clear()

    def _history(self, parts: Sequence[LakePartition],
                 select: Optional[Selection], start: float, end: float,
                 base: Optional[Sequence[SeriesKey]] = None,
                 counters: Optional[Dict[str, int]] = None) -> _History:
        """The one cold read: the rows ``select`` names in ``[start,
        end]`` across ``parts`` (manifest order; one pruned by its
        ``[start, end]`` counts as ``partitions_pruned``), plus each
        ``base`` series' last row before ``start`` (by default each
        series found), walking the partitions newest first.  Rows are
        ordered per series by time, partition order on ties (one stable
        sort); a row is a change unless ``values_equal`` to the row
        before it (one neighbour-inequality mask over
        :func:`_equality_class` ids, :func:`_fold_day`'s rule).
        """
        index: Dict[SeriesKey, int] = {}
        runs: List[Tuple[np.ndarray, np.ndarray]] = []
        values: List[Value] = []

        def gather(keys, counts, times, found):
            ids = np.asarray([index.setdefault(key, len(index))
                              for key in keys], dtype=np.int64)
            runs.append((ids.repeat(counts), times))
            values.extend(found)

        for part in parts:
            if part.end < start or part.start > end:
                if counters is not None:
                    counters["partitions_pruned"] = \
                        counters.get("partitions_pruned", 0) + 1
                continue
            # a partition inside the window needs no cut
            whole = start <= part.start and part.end <= end
            gather(*self._cursor(part).scan_columns(
                -math.inf if whole else start, math.inf if whole else end,
                select, counters))
        unresolved = dict.fromkeys(index if base is None else base) \
            if start != -math.inf else {}
        for part in reversed(parts):
            if not unresolved:
                break
            if part.start >= start:
                continue
            keys, counts, times, found = self._cursor(part).scan_columns(
                -math.inf, start, Selection(keys=unresolved), counters)
            # a series' rows before start lead its rows in this window
            first = counts.cumsum() - counts
            before = np.add.reduceat(times < start, first, dtype=np.int64) \
                if counts.size else counts
            resolved = before.nonzero()[0]
            last = (first + before - 1)[resolved].tolist()
            keys = [keys[j] for j in resolved.tolist()]
            for key in keys:
                del unresolved[key]
            gather(keys, 1, times[last], [found[j] for j in last])
        if not runs:
            return _History([], np.empty(0, dtype=np.int64), np.empty(0),
                            [], np.empty(0, dtype=bool))
        keys = list(index)
        if len(runs) > 1:
            series, times = map(np.concatenate, zip(*runs))
            # series ids become canonical (measure_name, dimensions) ranks
            ranked = sorted(range(len(keys)), key=lambda i: (
                keys[i].measure_name, keys[i].dimensions))
            rank = np.empty(len(keys), dtype=np.int64)
            rank[ranked] = np.arange(len(keys))
            order = np.lexsort((times, rank[series]))
            series, times = rank[series[order]], times[order]
            keys = [keys[i] for i in ranked]
            values = [values[i] for i in order.tolist()]
        else:
            # one file's rows are in order already: a file lists its
            # series in canonical order, each one's rows by time
            (series, times), = runs
        classes: Dict[object, int] = {}
        kind = np.asarray([classes.setdefault(_equality_class(v), len(classes))
                           for v in values], dtype=np.int64)
        # a row changes when its (series, class) pair does
        kind += series * len(classes)
        change = np.empty(series.size, dtype=bool)
        change[:1] = True
        np.not_equal(kind[1:], kind[:-1], out=change[1:])
        return _History(keys, series, times, values, change)

    def change_points(self, measure: str, filters: Dict[str, str],
                      start: float, end: float) -> List[Record]:
        """Hot-store-equivalent change-point history from cold files.

        Reconstructs exactly what an un-evicted hot table's ``scan``
        would return for ``[start, end]``: per series, the rows where the
        value differs from the previous observation -- the baseline
        keeps a value that changed before the window from re-emitting at
        its edge.  Output is sorted by (time, measure, dimensions), the
        hot scan's exact tie order, which keeps pagination cursors stable
        across the hot/cold boundary; ``Record``s are built for those
        rows only.
        """
        found = self._history(self.partitions, Selection(measure, filters),
                              start, end)
        emit = (found.change & (found.time >= start)).nonzero()[0]
        # stable: at one time, series in canonical order, and one
        # series' rows in partition order
        emit = emit[found.time[emit].argsort(kind="stable")]
        keys, values = found.keys, found.values
        return [Record(keys[s].dimensions, keys[s].measure_name, values[i], t)
                for i, s, t in zip(emit.tolist(), found.series[emit].tolist(),
                                   found.time[emit].tolist())]

    def scan_column_arrays(self, measure: str, filters: Dict[str, str],
                           start: float, end: float,
                           universe: Sequence[SeriesKey],
                           counters: Optional[Dict[str, int]] = None,
                           ) -> TierColumns:
        """Cold change-row columns for ``[start, end]``, aligned to a
        caller-supplied series universe.

        The column view of :meth:`change_points`: per universe series,
        its change rows in the window as float64 (times, values), plus
        the value in force just before the window; a non-numeric value
        raises ``TypeError``.  Series the universe does not list are
        ignored -- the hot table's key set is a superset of the lake's by
        construction (every lake row passed through the differ).
        ``counters`` accumulates the partition and cursor prune/decode
        counters.
        """
        found = self._history(self.partitions, Selection(measure, filters),
                              start, end, universe, counters)
        if not all(isinstance(v, (int, float)) for v in found.values):
            raise TypeError("column scan over non-numeric series values")
        floats = np.asarray([float(v) for v in found.values], dtype="<f8")
        index_of = {key: i for i, key in enumerate(universe)}
        at = np.asarray([index_of.get(key, -1) for key in found.keys],
                        dtype=np.int64)[found.series]
        cols = TierColumns.empty(len(universe))
        base = (found.time < start).nonzero()[0]
        cols.has_base[at[base]] = True
        cols.base_values[at[base]] = floats[base]
        rows = (found.change & (found.time >= start) & (at >= 0)).nonzero()[0]
        rows = rows[at[rows].argsort(kind="stable")]
        cols.counts = np.bincount(at[rows], minlength=len(universe))
        if rows.size:
            cols.times = found.time[rows]
            cols.values = floats[rows]
        return cols

    def _values_at(self, parts: Sequence[LakePartition],
                   select: Optional[Selection], time: float,
                   ) -> Tuple[List[SeriesKey], List[Value]]:
        """Each selected series' last stored value at or before ``time``,
        keys in canonical order."""
        found = self._history(parts, select, -math.inf, time)
        last = np.diff(found.series, append=-1).nonzero()[0]
        return found.keys, [found.values[i] for i in last.tolist()]

    def latest_values(self) -> List[Tuple[SeriesKey, Value]]:
        """Each archived series' newest value (differ restart seeding)."""
        return list(zip(*self._values_at(self.partitions, None, math.inf)))

    # -- round snapshots (the /rounds/<date> payload) ------------------------

    def rounds_on(self, day: str) -> List[float]:
        """Round commit times under one ``YYYY-MM-DD`` (or ``Y/M/D``) day."""
        wanted = day.replace("-", "/")
        times = [t for p in self.partitions if p.day == wanted
                 for t in p.rounds]
        times.sort()
        return times

    def round_snapshot(self, time: float, offset: int = 0,
                       limit: Optional[int] = None,
                       ) -> Tuple[int, List[dict]]:
        """One page of the wide per-pool merged record of an archived round.

        Returns ``(total, rows)``: the round's row count and the rows
        ``[offset, offset + limit)`` of it (all from ``offset`` when
        ``limit`` is None).  A row joins the round's values back into the
        paper's merged shape: one per (instance_type, region, zone)
        carrying sps and spot_price, with the pair-level advisor measures
        broadcast onto every zone row (pairs with no zone-level data emit
        a zone-less row), sorted by those coordinates.  The values are
        carried forward over the day's partitions (keyframe, deltas, day
        files alike) up to ``time``; see the module docstring for what
        that means across a collection gap.

        Which rows exist is read off the partitions' row directories
        without decoding a value; Python values are then built only for
        the series behind the page's rows, so a page costs its rows.
        """
        time = float(time)
        day = lake_day(time)
        parts = [p for p in self.partitions if p.day == day]
        if not any(time in part.rounds for part in parts):
            raise KeyError(f"no archived round at t={time!r}")
        parts = [p for p in parts if p.start <= time]

        # the largest partition's sorted coordinates, plus whatever only
        # the others hold (a pool the keyframe round missed)
        runs = [run for run in (self._open(part).wide_rows().upto(time)
                                for part in parts) if run]
        held = max(runs, key=len, default=[])
        if len(runs) > 1:
            extras = set().union(*(run for run in runs if run is not held)
                                 ).difference(held)
            if extras:
                held = sorted([*held, *extras])
        # a pair-level coordinate (zone "") sorts just ahead of its
        # pair's pools and is a row of its own only when there are none
        universe = [coords for coords, after in zip(held, [*held[1:], None])
                    if coords[2] or after is None or after[:2] != coords[:2]]
        page = universe[offset:] if limit is None \
            else universe[offset:offset + limit]

        memos = {table: KeyMemo(dataset)
                 for table, dataset in DATASETS.items()}
        fields = [(memos[dataset.table], len(dataset.dims), slot)
                  for dataset, slot in (MEASURE_SLOTS[measure]
                                        for measure in _WIDE_MEASURES)]
        # per page row, its five series; None: a zone-level measure of a
        # zone-less row
        page_keys: List[List[Optional[SeriesKey]]] = [
            [keys_at[coords[:width]][slot] if all(coords[:width]) else None
             for keys_at, width, slot in fields]
            for coords in page]
        wanted = {key for keys in page_keys for key in keys
                  if key is not None}
        resolved = dict(zip(*self._values_at(parts, Selection(keys=wanted),
                                             time)))
        return len(universe), [
            {"instance_type": itype, "region": region, "zone": zone or None,
             **{measure: resolved.get(key)
                for measure, key in zip(_WIDE_MEASURES, keys)}}
            for (itype, region, zone), keys in zip(page, page_keys)]
