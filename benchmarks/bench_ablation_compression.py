"""Ablation: change-point (dedup) compression of the archive.

Spot datasets are step functions; storing only value changes shrinks the
archive by an order of magnitude at the paper's 10-minute cadence.  This
bench measures the stored-to-captured ratio per dataset on the shared
181-day archive and on a fine-grained collection run.
"""

from repro import ServiceConfig, SpotLakeService


def _captured(pools, samples):
    """Records a backfill of ``pools`` x ``samples`` captures per table."""
    pairs = {(itype, region) for itype, region, _zone in pools}
    return {"sps": len(pools) * samples, "advisor": 3 * len(pairs) * samples,
            "price": len(pools) * samples}


def test_ablation_compression_ratio(benchmark, archive_service):
    # the round differ dedups before the tables: the ratio is change
    # points stored over the records the rounds captured
    stats = archive_service.archive.stats()
    captured = _captured(archive_service._bench_pools,
                         len(archive_service._bench_times))
    print("\nAblation: archive change-point compression (181-day backfill)")
    print(f"  {'table':8s} {'captured':>10s} {'stored':>9s} {'ratio':>7s}")
    for table in ("sps", "advisor", "price"):
        stored = stats[table]["change_points_stored"]
        ratio = stored / captured[table]
        print(f"  {table:8s} {captured[table]:10d} {stored:9d} {ratio:7.3f}")
        assert ratio < 0.6  # at least ~2x savings everywhere

    # fine-grained: the paper's 10-minute cadence over eight hours
    def collect_fine():
        service = SpotLakeService(ServiceConfig(
            seed=0, instance_types=["m5.large", "p3.2xlarge", "c5.xlarge"]))
        captured = dict.fromkeys(("sps", "advisor", "price"), 0)
        for _ in range(48):  # 8 h x 6 rounds/h
            for table, report in service.collect_once().items():
                captured[table] += report.records_written
            service.cloud.clock.advance_minutes(10)
        stats = service.archive.stats()
        return {table: (captured[table],
                        stats[table]["change_points_stored"])
                for table in captured}

    fine = benchmark.pedantic(collect_fine, rounds=1, iterations=1)
    print("  10-minute cadence, 24 h, 3 types:")
    for table in ("sps", "price"):
        captured_fine, stored = fine[table]
        print(f"    {table:8s} ratio {stored / captured_fine:.4f} "
              f"({captured_fine} -> {stored})")
    # at 10-minute cadence almost every record is a repeat
    assert fine["sps"][1] / fine["sps"][0] < 0.1
    assert fine["price"][1] / fine["price"][0] < 0.1
