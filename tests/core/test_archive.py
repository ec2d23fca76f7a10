"""Tests for the SpotLake archive facade."""

import math

import pytest

from repro.core import SpotLakeArchive
from repro.lake import DATASETS
from repro.storage import recover
from repro.storage.wal import encode_record
from repro.timeseries import Record, Table
from repro.timeseries.compression import values_equal


@pytest.fixture()
def archive():
    a = SpotLakeArchive()
    a.append("sps", [("m5.large", "us-east-1", "us-east-1a", 3, 0),
                     ("m5.large", "us-east-1", "us-east-1a", 2, 100)])
    a.append("advisor", [("m5.large", "us-east-1", 0.03, 3.0, 70, 0),
                         ("m5.large", "us-east-1", 0.12, 2.0, 72, 100)])
    a.append("price", [("m5.large", "us-east-1", "us-east-1a", 0.035, 0)])
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


def _assert_tables_equal(got, want):
    assert got.series_keys() == want.series_keys()
    for key in want.series_keys():
        a, b = got.series(key), want.series(key)
        assert a.times == b.times
        assert len(a.values) == len(b.values) and all(
            values_equal(x, y) for x, y in zip(a.values, b.values))
        assert a.observation_count == b.observation_count
    assert got.stats == want.stats
    assert got.generation == want.generation


class TestBatchedWrites:
    """``append`` must be equivalent to writing its records pointwise."""

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_append_matches_pointwise_table_writes(self, name, tmp_path):
        dataset, rows = DATASETS[name], ROWS[name]
        archive = SpotLakeArchive()
        assert archive.append(name, rows) == \
            len(dataset.measures) * len(rows)
        _assert_tables_equal(archive.store.table(dataset.table),
                             _reference_table(dataset, rows))

        # durable: the WAL holds exactly the canonical record lines, in
        # order, and recovery reproduces the pointwise table
        finite = _finite(rows)
        durable = SpotLakeArchive(data_dir=tmp_path / "d",
                                  checkpoint_every=0)
        base_seq = durable.engine._writer.next_seq
        durable.append(name, finite)
        reference = _reference_table(dataset, finite)
        canonical = [
            encode_record(base_seq + i, {
                "op": "write", "table": dataset.table,
                "measure": r.measure_name, "dims": r.dimension_dict,
                "value": r.value, "time": r.time})
            for i, r in enumerate(_records(dataset, finite))]
        assert durable.engine._writer._buffer[-len(canonical):] == canonical
        durable.commit_round(20.0)
        durable.close()
        _assert_tables_equal(
            recover(tmp_path / "d").store.table(dataset.table), reference)

    @pytest.mark.parametrize("name", ["advisor", "price"])
    def test_nonfinite_value_is_refused_before_the_table(self, name,
                                                         tmp_path):
        """A non-finite float mid-batch takes the WAL's canonical slow
        path, which refuses it (strict JSON) -- log-then-apply means the
        live table is never touched."""
        durable = SpotLakeArchive(data_dir=tmp_path / "d")
        with pytest.raises(ValueError):
            durable.append(name, ROWS[name])
        assert durable.store.table(name).stats.records_written == 0
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
