"""Regression: a retried price sweep stamps rows with the *retry* time.

The price collector's sweep reads the clock once per attempt.  An early
version hoisted the timestamp out of the resilient call, so a sweep that
faulted and succeeded on retry archived rows stamped *before* the
backoff it had just waited through -- misordered against the gap records
and invisible to "data is at most N minutes stale" audits.  These tests
pin the contract documented on :meth:`PriceCollector._sweep`: the stamp
is read after the fault hook, inside the retried function.
"""

from repro.cloudsim import FaultInjector, FaultPlan, FaultWindow
from repro.core import (
    CircuitBreaker,
    PRICE_TABLE,
    PriceCollector,
    ResilientExecutor,
    RetryPolicy,
    SpotLakeArchive,
)

from .conftest import build_tiny_cloud


def _price_executor(cloud, base_delay=600.0):
    return ResilientExecutor(
        "price", cloud.clock,
        RetryPolicy(max_attempts=3, base_delay=base_delay, jitter=0.0),
        CircuitBreaker(cloud.clock, failure_threshold=100))


def _collector_with_outage(outage_seconds):
    """A price collector whose first attempt faults, second succeeds."""
    cloud = build_tiny_cloud()
    start = cloud.clock.now()
    window = FaultWindow(start, start + outage_seconds, operation="price")
    cloud.faults = FaultInjector(FaultPlan(windows=(window,)), cloud.clock)
    archive = SpotLakeArchive()
    collector = PriceCollector(cloud, archive,
                               resilience=_price_executor(cloud))
    return cloud, archive, collector


class TestRetriedSweepTimestamps:
    def test_rows_stamp_the_post_backoff_time(self):
        cloud, archive, collector = _collector_with_outage(1.0)
        before = cloud.clock.now()
        report = collector.collect()
        after = cloud.clock.now()
        archive.commit_round(after)

        assert report.retries == 1
        assert report.records_written > 0
        assert after > before  # the backoff advanced the sim clock
        stamps = {r.time for r in archive.store.table(PRICE_TABLE).scan()}
        # every archived row carries the retry-attempt time, never the
        # pre-fault time the failed first attempt observed
        assert stamps == {after}

    def test_prices_match_the_stamped_instant(self):
        """The stamp is not merely late -- the *values* are sampled at it.

        Price engines are time-varying; rows stamped T must hold the
        price in force at T, so stamp and value have to come from the
        same post-backoff read."""
        cloud, archive, collector = _collector_with_outage(1.0)
        collector.collect()
        stamp = cloud.clock.now()
        archive.commit_round(stamp)
        assert archive.store.table(PRICE_TABLE).scan()
        for record in archive.store.table(PRICE_TABLE).scan():
            dims = record.dimension_dict
            expected = cloud.pricing.spot_price(
                dims["InstanceType"], dims["Region"], stamp,
                dims["AvailabilityZone"])
            assert record.value == expected

    def test_clean_sweep_stamps_the_call_time(self):
        cloud = build_tiny_cloud()
        archive = SpotLakeArchive()
        collector = PriceCollector(cloud, archive,
                                   resilience=_price_executor(cloud))
        now = cloud.clock.now()
        report = collector.collect()
        archive.commit_round(now)
        assert report.retries == 0
        assert {r.time for r in archive.store.table(PRICE_TABLE).scan()} == {now}
