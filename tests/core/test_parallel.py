"""SPS collection engine: admit serially, materialize inline.

The engine defers score evaluation until the whole round is admitted;
the archive bytes, collection reports and per-account quota charges must
still match the row-at-a-time reference collector (``serial_reference.py``,
the original serial collector kept as a test oracle) exactly, with and
without fault injection.  ``ServiceConfig.workers`` is accepted but
selects nothing: the benchmark harness's ``workers=2`` must archive the
default's bytes.
"""

import dataclasses
import hashlib
import shutil
import tempfile
from pathlib import Path

import pytest

from repro import ServiceConfig, SpotLakeService
from repro.core.collectors import CollectionReport
from repro.core.plan_cache import PlanCache
from repro.timeseries import dump_store

from .serial_reference import use_serial_collector

TYPES = ["m5.large", "c5.xlarge", "p3.2xlarge", "i3.large", "t3.micro"]


def _run_service(workers, chaos="none", rounds=3, seed=11):
    """Collect ``rounds`` rounds; returns (digest, reports, quota map).

    ``workers=None`` collects through the serial reference collector.
    """
    PlanCache.reset_shared()
    service = SpotLakeService(ServiceConfig(
        seed=seed, instance_types=TYPES, workers=workers or 1,
        chaos_profile=chaos))
    if workers is None:
        use_serial_collector(service)
    reports = []
    try:
        for _ in range(rounds):
            reports.append(service.sps_collector.collect())
            service.archive.commit_round(service.cloud.clock.now())
            service.cloud.clock.advance(600.0)
        now = service.cloud.clock.now()
        quotas = {account.name: account.unique_queries_used(now)
                  for account in service.accounts.accounts}
        directory = Path(tempfile.mkdtemp(prefix="test-parallel-"))
        try:
            dump_store(service.archive.store, directory)
            digest = hashlib.sha256()
            for path in sorted(directory.glob("*.jsonl")):
                digest.update(path.name.encode("utf-8"))
                digest.update(path.read_bytes())
            return digest.hexdigest(), reports, quotas
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    finally:
        service.close()


class TestWorkerCountInvariance:
    def test_archive_bytes_identical_across_worker_counts(self):
        # the default, and the benchmark harness's ``workers=2``
        serial_digest, _, _ = _run_service(None)
        for workers in (1, 2):
            digest, _, _ = _run_service(workers)
            assert digest == serial_digest, \
                f"workers={workers} diverged from the serial collector"

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ServiceConfig(workers=0)

    def test_archive_bytes_identical_under_chaos(self):
        serial_digest, serial_reports, serial_quotas = \
            _run_service(None, chaos="moderate")
        digest, reports, quotas = _run_service(1, chaos="moderate")
        assert digest == serial_digest
        assert [dataclasses.asdict(r) for r in reports] == \
            [dataclasses.asdict(r) for r in serial_reports]
        assert quotas == serial_quotas

    def test_reports_equal_the_serial_collectors(self):
        _, serial_reports, _ = _run_service(None)
        _, engine_reports, _ = _run_service(1)
        assert [dataclasses.asdict(r) for r in engine_reports] == \
            [dataclasses.asdict(r) for r in serial_reports]

    def test_per_account_quota_parity(self):
        """Admission runs serially in plan order, so every account is
        charged the exact queries the serial collector charges it."""
        _, _, serial_quotas = _run_service(None)
        _, _, engine_quotas = _run_service(1)
        assert engine_quotas == serial_quotas
        assert sum(serial_quotas.values()) > 0


class TestShardReportMerge:
    def test_disjoint_account_shards_merge_sum_free(self):
        """Partial reports never carry ``accounts_used`` (the pool is
        shared, so per-partial counts would double-count an account that
        served two of them); the round-end report stamps the pool-derived
        value once.  Merging partial reports therefore must not inflate
        the merged count past the authoritative stamp."""
        shard_a = CollectionReport(queries_issued=4, records_written=12)
        shard_b = CollectionReport(queries_issued=4, records_written=9)
        assert shard_a.accounts_used == 0 and shard_b.accounts_used == 0
        merged = shard_a.merge(shard_b)
        assert merged.accounts_used == 0
        merged.accounts_used = 3  # the round-end pool-derived stamp
        final = merged.merge(CollectionReport())
        assert final.accounts_used == 3  # max propagates, nothing sums


class TestSanitized:
    """The engine under the runtime concurrency sanitizer (its lock
    proxies and patched ``__setattr__`` hooks); ``conc_sanitizer``
    (tests/conftest.py) asserts a clean verdict at teardown."""

    def test_sanitized_run_matches_unsanitized_digest(self, conc_sanitizer):
        # the sanitizer observes; it must never perturb the archive bytes
        digest, _, _ = _run_service(2, rounds=2)
        assert digest == _run_service(2, rounds=2)[0]
