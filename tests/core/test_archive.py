"""Tests for the SpotLake archive facade."""

import math
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApiGateway, SpotLakeArchive
from repro.lake import DATASETS
from repro.storage import recover
from repro.storage.wal import encode_record, wal_file_name
from repro.timeseries import Record, Table
from repro.timeseries.compression import values_equal

from tests.conftest import land


@pytest.fixture()
def archive():
    a = SpotLakeArchive()
    land(a, "sps", [("m5.large", "us-east-1", "us-east-1a", 3, 0),
                    ("m5.large", "us-east-1", "us-east-1a", 2, 100)])
    land(a, "advisor", [("m5.large", "us-east-1", 0.03, 3.0, 70, 0),
                        ("m5.large", "us-east-1", 0.12, 2.0, 72, 100)])
    land(a, "price", [("m5.large", "us-east-1", "us-east-1a", 0.035, 0)])
    return a


class TestPointReads:
    def test_sps_at(self, archive):
        assert archive.sps_at("m5.large", "us-east-1", "us-east-1a", 50) == 3
        assert archive.sps_at("m5.large", "us-east-1", "us-east-1a", 150) == 2
        assert archive.sps_at("m5.large", "us-east-1", "us-east-1a", -1) is None
        assert archive.sps_at("nope", "us-east-1", "us-east-1a", 50) is None

    def test_if_score_at(self, archive):
        assert archive.if_score_at("m5.large", "us-east-1", 50) == 3.0
        assert archive.if_score_at("m5.large", "us-east-1", 150) == 2.0

    def test_savings_at(self, archive):
        assert archive.savings_at("m5.large", "us-east-1", 150) == 72

    def test_price_at(self, archive):
        assert archive.price_at("m5.large", "us-east-1", "us-east-1a", 1) == 0.035


class TestBulkReads:
    def test_sps_matrix(self, archive):
        keys, matrix = archive.sps_matrix([0, 50, 150])
        assert matrix.shape == (1, 3)
        assert list(matrix[0]) == [3, 3, 2]

    def test_if_matrix(self, archive):
        _, matrix = archive.if_score_matrix([50, 150])
        assert list(matrix[0]) == [3.0, 2.0]

    def test_history(self, archive):
        rows = archive.history("sps", "sps",
                               {"InstanceType": "m5.large"}, 0, 1e9)
        assert [r.value for r in rows] == [3, 2]

    def test_update_intervals(self, archive):
        assert archive.update_interval_samples("sps") == [100.0]
        assert archive.update_interval_samples("if_score") == [100.0]
        assert archive.update_interval_samples("price") == []

    def test_unknown_dataset_rejected(self, archive):
        with pytest.raises(ValueError):
            archive.update_interval_samples("weather")

    def test_stats_tables(self, archive):
        stats = archive.stats()
        assert set(stats) == {"sps", "advisor", "price", "analytics"}


NAN, INF = float("nan"), float("inf")

#: per dataset: rows whose values include what the schema's casts must
#: normalise (bool, numeric str, int-for-float) and non-finite floats
ROWS = {
    "sps": [("m5.large", "r1", "r1a", 3, 10.0),
            ("m5.large", "r1", "r1b", True, 10.0),
            ("c5.xlarge", "r2", "r2a", "2", 10.0),
            ("m5.large", "r1", "r1a", 3, 20.0),
            ("m5.large", "r1", "r1b", 1, 20)],
    "advisor": [("m5.large", "r1", 0.04, 3.0, 60, 10.0),
                ("c5.xlarge", "r2", INF, 2, "55", 10.0),
                ("m5.large", "r1", 0.04, 3.0, True, 20.0),
                ("c5.xlarge", "r2", INF, 2.0, 55, 20.0)],
    "price": [("m5.large", "r1", "r1a", 0.12, 10.0),
              ("c5.xlarge", "r2", "r2a", NAN, 10.0),
              ("m5.large", "r1", "r1a", "0.12", 20.0),
              ("c5.xlarge", "r2", "r2a", NAN, 20.0)],
}


def _finite(rows):
    return [row for row in rows
            if not any(isinstance(v, float) and not math.isfinite(v)
                       for v in row)]


def _records(dataset, rows):
    """The records ``rows`` stand for, one per (row, measure), in order."""
    width = len(dataset.dims)
    for row in rows:
        dims = dict(zip(dataset.dims, row[:width]))
        for (measure, cast), value in zip(dataset.measures, row[width:-1]):
            yield Record.make(dims, measure, cast(value), row[-1])


def _reference_table(dataset, rows):
    """The rows written one record at a time: the pointwise semantics."""
    table = Table(dataset.table)
    for record in _records(dataset, rows):
        table.write(record)
    return table


def _changed_rows(dataset, rows):
    """The rows a round diff lets through, taken one row at a time: those
    at new coordinates or whose values differ (type- and NaN-aware) from
    the previous row at the same coordinates."""
    width = len(dataset.dims)
    previous, changed = {}, []
    for row in rows:
        before = previous.get(row[:width])
        if before is None or not all(map(values_equal, before,
                                         row[width:-1])):
            changed.append(row)
        previous[row[:width]] = row[width:-1]
    return changed


def _assert_series_equal(got, want):
    """Same series, same change-point times and values."""
    assert got.series_keys() == want.series_keys()
    for key in want.series_keys():
        a, b = got.series(key), want.series(key)
        assert a.times == b.times
        assert len(a.values) == len(b.values) and all(
            values_equal(x, y) for x, y in zip(a.values, b.values))


def _assert_tables_equal(got, want):
    _assert_series_equal(got, want)
    for key in want.series_keys():
        assert got.series(key).observation_count == \
            want.series(key).observation_count
    assert got.stats == want.stats
    assert got.generation == want.generation


class TestBatchedWrites:
    """A committed round must hold what writing every record pointwise
    holds; the hot table sees exactly the changed rows, pointwise."""

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_append_matches_pointwise_table_writes(self, name, tmp_path):
        dataset, rows = DATASETS[name], ROWS[name]
        archive = SpotLakeArchive()
        assert archive.append(name, rows) == \
            len(dataset.measures) * len(rows)
        archive.commit_round(20.0)
        table = archive.store.table(dataset.table)
        # the oracle that does not diff: every record, pointwise
        _assert_series_equal(table, _reference_table(dataset, rows))
        _assert_tables_equal(table, _reference_table(
            dataset, _changed_rows(dataset, rows)))

        # durable: the WAL holds exactly the canonical lines of the
        # changed rows' records, in order, and recovery reproduces the
        # pointwise table
        finite = _finite(rows)
        changed = _changed_rows(dataset, finite)
        durable = SpotLakeArchive(data_dir=tmp_path / "d",
                                  checkpoint_every=0)
        base_seq = durable.engine._writer.next_seq
        durable.append(name, finite)
        reference = _reference_table(dataset, changed)
        canonical = [
            encode_record(base_seq + i, {
                "op": "write", "table": dataset.table,
                "measure": r.measure_name, "dims": r.dimension_dict,
                "value": r.value, "time": r.time})
            for i, r in enumerate(_records(dataset, changed))]
        durable.commit_round(20.0)
        wal = tmp_path / "d" / wal_file_name(durable.engine._writer.number)
        assert b"".join(canonical) in wal.read_bytes()
        durable.close()
        recovered = recover(tmp_path / "d").store.table(dataset.table)
        _assert_tables_equal(recovered, reference)
        _assert_series_equal(recovered, _reference_table(dataset, finite))

    @pytest.mark.parametrize("name", ["advisor", "price"])
    def test_nonfinite_value_is_refused_before_the_table(self, name,
                                                         tmp_path):
        """The WAL is strict JSON, so a durable archive refuses a batch
        holding a non-finite value at ``append``, before the merger takes
        any of it: the next commit lands nothing, and neither the lake,
        the differ nor the hot table moves."""
        durable = SpotLakeArchive(data_dir=tmp_path / "d")
        land(durable, name, _finite(ROWS[name]), time=20.0)
        table = durable.store.table(name)
        before = (durable.lake.partitions, durable._differ.stats(),
                  dict(vars(table.stats)), table.generation)
        with pytest.raises(ValueError):
            durable.append(name, [(*row[:-1], 30.0) for row in ROWS[name]])
        durable.commit_round(30.0)
        assert (durable.lake.partitions, durable._differ.stats(),
                dict(vars(table.stats)), table.generation) == before
        assert durable.engine.last_commit_time == 30.0
        durable.close()

    def test_batches_are_durably_logged(self, tmp_path):
        durable = SpotLakeArchive(data_dir=tmp_path / "d", checkpoint_every=0)
        durable.append("sps", _finite(ROWS["sps"]))
        durable.commit_round(20.0)
        durable.close()
        reopened = SpotLakeArchive(data_dir=tmp_path / "d")
        assert reopened.sps_at("m5.large", "r1", "r1a", 10.0) == 3
        assert reopened.sps_at("m5.large", "r1", "r1b", 10.0) == 1
        reopened.close()


#: a small coordinate universe per dataset, so drawn rounds revisit,
#: skip (a gap) and first meet (a series seen late) the same series
COORDS = {
    "sps": [("m5.large", "r1", "r1a"), ("m5.large", "r1", "r1b"),
            ("c5.xlarge", "r2", "r2a")],
    "advisor": [("m5.large", "r1"), ("c5.xlarge", "r2")],
    "price": [("m5.large", "r1", "r1a"), ("c5.xlarge", "r2", "r2a")],
}
#: values an int cast folds together (1 / 1.0 / True), and for floats
#: also NaN repeats; few enough that an advisor row often changes in
#: only one of its three measures
INTS = [1, 1.0, True, 2]
FLOATS = [1, 1.0, True, 0.5, NAN]


def _measure_values(name, floats):
    casts = [cast for _, cast in DATASETS[name].measures]
    return st.tuples(*[st.sampled_from(INTS if cast is int else floats)
                       for cast in casts])


def _rounds(floats=FLOATS):
    """Drawn rounds: per dataset, distinct coordinates with values."""
    per_dataset = {
        name: st.lists(st.tuples(st.sampled_from(coords),
                                 _measure_values(name, floats)),
                       unique_by=lambda row: row[0],
                       max_size=len(coords))
        for name, coords in COORDS.items()}
    return st.lists(st.fixed_dictionaries(per_dataset), min_size=1,
                    max_size=6)


def _write_rounds(archive, rounds):
    """Append and commit every drawn round; the rows written, per dataset."""
    written = {name: [] for name in DATASETS}
    for i, drawn in enumerate(rounds):
        time = 10.0 * (i + 1)
        for name in DATASETS:
            rows = [(*coords, *values, time) for coords, values in drawn[name]]
            archive.append(name, rows)
            written[name] += rows
        archive.commit_round(time)
    return written


class TestRoundsAgainstPointwiseWrites:
    """Drawn rounds through merge -> diff -> changed rows hold the same
    series as a table fed every record pointwise -- the oracle that does
    not diff -- and the same reads in the memory and the durable shape."""

    @settings(max_examples=60, deadline=None)
    @given(rounds=_rounds())
    def test_series_match_the_pointwise_table(self, rounds):
        archive = SpotLakeArchive()
        written = _write_rounds(archive, rounds)
        for name, dataset in DATASETS.items():
            _assert_series_equal(archive.store.table(dataset.table),
                                 _reference_table(dataset, written[name]))

    @settings(max_examples=15, deadline=None)
    @given(rounds=_rounds(floats=[1, 1.0, True, 0.5, 2.0]),
           limit=st.integers(min_value=1, max_value=4))
    def test_memory_and_durable_shapes_serve_the_same(self, rounds, limit):
        memory = SpotLakeArchive()
        _write_rounds(memory, rounds)
        with tempfile.TemporaryDirectory() as tmp:
            durable = SpotLakeArchive(data_dir=tmp)
            try:
                _write_rounds(durable, rounds)
                end = 10.0 * len(rounds)
                for name, dataset in DATASETS.items():
                    for measure, _ in dataset.measures:
                        assert durable.history(name, measure, {}, 0.0, end) \
                            == memory.history(name, measure, {}, 0.0, end)
                    assert _walk(ApiGateway(durable), name, end, limit) == \
                        _walk(ApiGateway(memory), name, end, limit)
            finally:
                durable.close()


def _walk(gateway, name, end, limit):
    """Every page of ``/<name>/history``, walked by cursor."""
    params = {"start": "0", "end": str(end), "limit": str(limit)}
    pages = []
    while True:
        page = gateway.get(f"/{name}/history", dict(params))
        assert page.status == 200
        pages.append(page.json())
        if page.body["next_token"] is None:
            return pages
        params["next_token"] = page.body["next_token"]
