"""Keyframe + delta layout: a round costs the lake what it changed.

The first round of a UTC day lands whole, later rounds land the
differ's changed rows (none, in a quiet round) plus whatever the day's
files do not hold yet (a pool the keyframe round failed to observe), and
``compact()`` folds either into a day file.  None of that may be visible
to a reader: every round's snapshot, every page of ``GET
/rounds/<day>?at=t`` and the federated histories must equal a dict
carry-forward model of the merged rounds, and answer the same bytes
before and after compaction.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.archive import SpotLakeArchive
from repro.core.serving import ApiGateway
from repro.lake import (
    DATASETS,
    IF_SCORE_MEASURE,
    LAKE_CRASH_WINDOWS,
    PRICE_MEASURE,
    SPS_MEASURE,
    SpotDataLake,
    lake_day,
)
from repro.storage import SegmentCursor
from repro.timeseries import RetentionPolicy

from .conftest import EPOCH, REGION, drive_round

INTERVAL = 600.0
MIDNIGHT = EPOCH + 86400.0
TYPES = ("a.large", "b.large", "c.large")
#: first collected part-way through the run
LATE_TYPE = "late.large"
ZONES = (f"{REGION}a", f"{REGION}b")
PAGE = 4

HISTORIES = (("sps", SPS_MEASURE), ("advisor", IF_SCORE_MEASURE),
             ("price", PRICE_MEASURE))


def _rows(time, types, versions, absent=None):
    """One round's collector rows; a row's values are a function of its
    version counter (if_score and savings move more slowly than the
    ratio, so unchanged measures ride along with changed advisor rows).
    ``absent`` is the one pool this round fails to observe."""
    rows = {table: [] for table in DATASETS}
    for itype in types:
        v = versions["advisor", itype]
        rows["advisor"].append((itype, REGION, round(0.01 * v, 4),
                                float(v // 3), (v // 2) * 10, time))
        for zone in ZONES:
            if (itype, zone) == absent:
                continue
            rows["sps"].append((itype, REGION, zone,
                                versions["sps", itype, zone], time))
            rows["price"].append((itype, REGION, zone,
                                  1.0 + 0.25 * versions["price", itype, zone],
                                  time))
    return rows


class Model:
    """What a reader must see, from nothing but the merged rounds."""

    def __init__(self):
        self.seen = {}         # (table, coords) -> values, never reset
        self.day = None
        self.state = {}        # the same, carried within one UTC day
        self.snapshots = {}    # round time -> wide rows
        self.changed = {}      # round time -> points the diff fans out to
        self.stored = {}       # ... plus those first observed that day

    def land(self, time, rows):
        if lake_day(time) != self.day:
            self.day, self.state = lake_day(time), {}
        changed = stored = 0
        for table, table_rows in rows.items():
            dataset = DATASETS[table]
            width = len(dataset.dims)
            for row in table_rows:
                coords, values = (table, row[:width]), row[width:-1]
                if self.seen.get(coords) != values:
                    changed += len(dataset.measures)
                if self.seen.get(coords) != values \
                        or coords not in self.state:
                    stored += len(dataset.measures)
                self.seen[coords] = self.state[coords] = values
        self.changed[time], self.stored[time] = changed, stored
        self.snapshots[time] = self._wide()

    def _wide(self):
        out = []
        for (table, coords), values in sorted(self.state.items()):
            if table != "sps":
                continue
            (score,), (itype, region, zone) = values, coords
            ratio, if_score, savings = self.state["advisor", (itype, region)]
            (price,) = self.state.get(("price", coords), (None,))
            out.append({
                "instance_type": itype, "region": region, "zone": zone,
                "sps": score, "spot_price": price,
                "interruption_ratio": ratio, "if_score": if_score,
                "savings": savings})
        return out


def _walked(lake, time, limit):
    """Every ``limit``-row page of one round, concatenated, plus the
    total every page reported."""
    total, rows = lake.round_snapshot(time, 0, limit)
    for offset in range(limit, total, limit):
        count, page = lake.round_snapshot(time, offset, limit)
        assert count == total and 0 < len(page) <= limit
        rows.extend(page)
    assert lake.round_snapshot(time, total, limit) == (total, [])
    return total, rows


def _served(gateway, lake):
    """Every page of every round, as response text, plus the rows."""
    pages, rows = [], {}
    for time in lake.round_times():
        date = lake_day(time).replace("/", "-")
        rows[time], offset = [], 0
        while True:
            page = gateway.get(f"/rounds/{date}", {
                "at": repr(time), "limit": str(PAGE), "offset": str(offset)})
            assert page.status == 200
            pages.append(page.json())
            rows[time].extend(page.body["round"]["rows"])
            offset += PAGE
            if offset >= page.body["round"]["total"]:
                break
    return pages, rows


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_readers_see_the_merged_rounds_whatever_the_layout(data):
    rounds = data.draw(st.integers(min_value=4, max_value=7), label="rounds")
    before = data.draw(st.integers(min_value=1, max_value=rounds - 1),
                       label="rounds before midnight")
    more = 2
    late_from = data.draw(st.integers(min_value=1, max_value=rounds - 1),
                          label="late type first seen")
    # any round, a day's first included
    gap_round = data.draw(st.integers(min_value=0, max_value=rounds - 1),
                          label="gap round")
    gap_pool = data.draw(st.tuples(st.sampled_from(TYPES),
                                   st.sampled_from(ZONES)), label="gap pool")
    series = [("advisor", t) for t in (*TYPES, LATE_TYPE)] + [
        (table, t, z) for table in ("sps", "price")
        for t in (*TYPES, LATE_TYPE) for z in ZONES]
    churn = [data.draw(st.one_of(st.just(set()),
                                 st.sets(st.sampled_from(series))),
                       label=f"changes in round {r}")
             for r in range(rounds + more)]

    base = Path(tempfile.mkdtemp(prefix="lake-kd-"))
    archive = SpotLakeArchive(
        data_dir=base, cache=False,
        retention=RetentionPolicy(max_age_seconds=2 * INTERVAL))
    reference = SpotLakeArchive(cache=False)
    model = Model()
    versions = dict.fromkeys(series, 0)
    try:
        def drive(r):
            time = MIDNIGHT + (r - before) * INTERVAL
            for key in churn[r]:
                versions[key] += 1
            types = TYPES + (LATE_TYPE,) * (r >= late_from)
            rows = _rows(time, types, versions,
                         absent=gap_pool if r == gap_round else None)
            for sink in (archive, reference):
                for table, table_rows in rows.items():
                    sink.append(table, table_rows)
                sink.commit_round(time)
            model.land(time, rows)
            return time

        def check_layout(keyframes, deltas):
            """The structural O(changed) guard: a round file holds the
            points of the rows that changed or were first observed that
            day -- the whole round for a keyframe, and for a delta no
            more than the changed rows unless the keyframe had the gap."""
            lake = archive.lake
            made_of = [lake.day_parts(day) for day in lake.days()]
            assert sum(len(m["keyframe"]) for m in made_of) == keyframes
            assert sum(len(m["delta"]) for m in made_of) == deltas
            exact = gap_round not in (0, before)
            for parts in made_of:
                for part in parts["keyframe"] + parts["delta"]:
                    assert part.rows == model.stored[part.rounds[0]]
                for part in parts["delta"]:
                    assert not exact \
                        or part.rows == model.changed[part.rounds[0]]

        def check(last):
            lake = archive.lake
            assert lake.round_times() == sorted(model.snapshots)
            for time, want in model.snapshots.items():
                assert lake.round_snapshot(time) == (len(want), want)
                assert _walked(lake, time, limit=3) == (len(want), want)
            pages, rows = _served(gateway, lake)
            assert rows == model.snapshots
            for table, measure in HISTORIES:
                assert archive.history(table, measure, {}, EPOCH, last) \
                    == reference.history(table, measure, {}, EPOCH, last)
            return pages

        gateway = ApiGateway(archive)
        for r in range(rounds):
            last = drive(r)
        pages = check(last)
        check_layout(keyframes=2, deltas=rounds - 2)

        assert archive.lake.compact()["days_compacted"] == 1
        assert check(last) == pages
        archive.lake.compact(include_active=True)
        assert all(p.kind == "day" for p in archive.lake.partitions)
        assert check(last) == pages

        # deltas on top of a day file (the day's round list grows, so
        # the earlier pages are no longer the same text: check() holds
        # their rows to the model, and compaction must not move a byte)
        for r in range(rounds, rounds + more):
            last = drive(r)
        pages = check(last)
        check_layout(keyframes=0, deltas=more)
        archive.lake.compact(include_active=True)
        assert check(last) == pages
    finally:
        archive.close()
        reference.close()
        shutil.rmtree(base, ignore_errors=True)


class TestPagedSnapshots:
    """A ``/rounds`` page costs its rows, on a day of many deltas too:
    which rows exist is read off key lists, Python values are built only
    for the page's series, and each column is decoded once per cursor."""

    ROUNDS = 23                 # one keyframe + 22 deltas, one UTC day
    LIMIT = 7
    DAY_TYPES = TYPES + tuple(f"{c}.large" for c in "defgh")
    #: the keyframe round fails to observe it; round 1's delta brings it
    MISSED = (TYPES[1], ZONES[0])

    def _day(self, root):
        archive = SpotLakeArchive(data_dir=root, cache=False)
        model = Model()
        series = [("advisor", t) for t in (*self.DAY_TYPES, LATE_TYPE)] + [
            (table, t, z) for table in ("sps", "price")
            for t in (*self.DAY_TYPES, LATE_TYPE) for z in ZONES]
        versions = dict.fromkeys(series, 0)
        for r in range(self.ROUNDS):
            time = MIDNIGHT + r * INTERVAL
            if r % 4:           # every fourth round is quiet
                for pick in (5 * r, 7 * r + 3):
                    versions[series[pick % len(series)]] += 1
            rows = _rows(time, self.DAY_TYPES + (LATE_TYPE,) * (r >= 13),
                         versions, absent=self.MISSED if r == 0 else None)
            for table, table_rows in rows.items():
                archive.append(table, table_rows)
            archive.commit_round(time)
            model.land(time, rows)
        return archive, model

    def test_pages_tile_every_round_before_and_after_compaction(
            self, tmp_path):
        archive, model = self._day(tmp_path)
        try:
            lake = archive.lake
            (day,) = lake.days()
            made_of = lake.day_parts(day)
            assert len(made_of["keyframe"]) == 1
            assert len(made_of["delta"]) == self.ROUNDS - 1
            assert sum(p.rows == 0 for p in made_of["delta"]) >= 5
            assert made_of["delta"][0].rows >= 2    # the missed pool
            sizes = {len(rows) for rows in model.snapshots.values()}
            assert len(sizes) == 3     # the missed pool, then the late type

            def check():
                for time, want in model.snapshots.items():
                    assert lake.round_snapshot(time) == (len(want), want)
                    assert _walked(lake, time, self.LIMIT) == \
                        (len(want), want)

            check()
            lake.compact(include_active=True)
            assert [p.kind for p in lake.partitions] == ["day"]
            check()
        finally:
            archive.close()

    def test_a_late_page_decodes_only_its_own_series(self, tmp_path,
                                                     monkeypatch):
        archive, model = self._day(tmp_path)
        archive.close()
        lake = SpotDataLake(tmp_path / "lake")    # nothing decoded yet
        try:
            last = lake.round_times()[-1]
            decoded, built = [], []
            column, scan = SegmentCursor._column, SegmentCursor.scan

            def counting(cursor, name, *args, **kwargs):
                decoded.append((id(cursor), name))
                return column(cursor, name, *args, **kwargs)

            def recording(cursor, *args):
                found = scan(cursor, *args)   # the series rows come from
                built.extend((id(cursor), at)
                             for at in found.series.tolist())
                return found

            monkeypatch.setattr(SegmentCursor, "_column", counting)
            monkeypatch.setattr(SegmentCursor, "scan", recording)
            total, page = lake.round_snapshot(last, self.LIMIT, self.LIMIT)
            first_page = list(built)
            # a second page over the same cursors decodes nothing again
            lake.round_snapshot(last, 2 * self.LIMIT, self.LIMIT)
            monkeypatch.undo()
            assert page == model.snapshots[last][self.LIMIT:2 * self.LIMIT]
            assert total == len(model.snapshots[last])
            assert decoded and len(set(decoded)) == len(decoded)

            page_series = set()
            for row in page:
                pool = (row["instance_type"], row["region"], row["zone"])
                page_series.update(DATASETS["sps"].keys(pool),
                                   DATASETS["price"].keys(pool),
                                   DATASETS["advisor"].keys(pool[:2]))
            owner, held = {}, 0
            for part in lake.partitions:
                cursor = lake._cursor(part)
                owner.update(((id(cursor), at), key)
                             for at, key in enumerate(cursor.keys()))
                held += len(page_series.intersection(cursor.keys()))
            # rows of at most each (page series, partition holding it),
            # and never of a series outside the page
            assert 0 < len(first_page) <= held
            assert len(set(first_page)) == len(first_page)
            assert {owner[at] for at in first_page} <= page_series
            assert len(owner) > 2 * len(first_page)   # 7 of the 18 rows
        finally:
            lake.close()


class TestQuietRounds:
    """A round in which nothing changed is still a round."""

    def test_zero_change_round_is_published_empty(self, tmp_path):
        archive = SpotLakeArchive(data_dir=tmp_path)
        try:
            # churn far beyond the run: nothing moves after round 0
            times = [drive_round(archive, r, churn=10_000) for r in range(3)]
            lake = archive.lake
            assert lake.round_times() == times
            assert lake.rounds_on("2022-01-01") == times
            assert lake.round_count == 3
            keyframe, *quiet = lake.partitions
            assert keyframe.rows == 6 * 2 * 2 + 6 * 3
            for time, part in zip(times[1:], quiet):
                assert (part.kind, part.rows) == ("round", 0)
                assert part.start == part.end == time
                assert (lake.root / part.path).exists()
            assert lake.round_snapshot(times[2]) == \
                lake.round_snapshot(times[0])
            # merged (pre-diff) rows keep counting; only round 0 ingested
            assert archive.rows_merged == 3 * archive.rows_ingested
        finally:
            archive.close()

    @pytest.mark.parametrize("window", LAKE_CRASH_WINDOWS)
    def test_quiet_rounds_reach_every_lake_crash_window(self, tmp_path,
                                                        window):
        from repro.cloudsim.faults import (
            CrashInjector,
            CrashPoint,
            SimulatedCrash,
        )
        archive = SpotLakeArchive(
            data_dir=tmp_path,
            crash_hook=CrashInjector([CrashPoint(window, hit=2)]))
        try:
            drive_round(archive, 0, churn=10_000)
            drive_round(archive, 1, churn=10_000)
            with pytest.raises(SimulatedCrash):
                drive_round(archive, 2, churn=10_000)
        finally:
            archive.close()
