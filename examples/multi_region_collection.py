"""Multi-region collection under the unique-query quota.

Demonstrates SpotLake's core engineering problem (paper Section 3): the
placement-score API caps one query at 10 result rows and one account at
~50 unique queries per rolling 24 hours.  This example plans the full
547-type catalog, shows the bin-packing win (Figure 1), sizes the account
pool, and demonstrates what happens when a single account tries to run the
plan alone.

    python examples/multi_region_collection.py
"""

from repro import Account, AccountPool, SimulatedCloud
from repro.cloudsim import QuotaExceededError, make_query_key
from repro.core import SpotLakeArchive, SpsCollector, plan_for_catalog, pack_example


def main() -> None:
    cloud = SimulatedCloud(seed=0)
    catalog = cloud.catalog
    print(f"catalog: {catalog.summary()}\n")

    # --- Figure 1: the bin-packing query optimization ---
    plan = plan_for_catalog(catalog)
    print(f"naive plan (one query per offered type-region pair): "
          f"{plan.naive_query_count} queries")
    print(f"paper-style upper bound (types x regions): "
          f"{plan.pair_bound_query_count} queries")
    print(f"bin-packed plan: {plan.optimized_query_count} queries "
          f"({plan.bound_reduction_factor:.1f}x below the bound; "
          f"paper: 9,299 -> 2,226, ~4.5x)\n")

    groups = pack_example(catalog.offering_map(), "p3.2xlarge")
    print("p3.2xlarge packing (the paper's Figure 1 walk-through):")
    for i, group in enumerate(groups):
        rows = sum(z for _, z in group)
        packed = ", ".join(f"{region}({zones})" for region, zones in group)
        print(f"  query {i}: {packed} -> {rows} result rows (cap 10)")

    # --- one account cannot run the plan ---
    lone = Account("lone-wolf")
    client = cloud.client(lone)
    issued = 0
    try:
        for query in plan.queries:
            client.get_spot_placement_scores(
                [query.instance_type], list(query.regions),
                single_availability_zone=True)
            issued += 1
    except QuotaExceededError:
        print(f"\nsingle account exhausted after {issued} unique queries "
              f"(quota {lone.quota}) -- as the paper observed")

    # --- the account pool makes the plan feasible ---
    needed = AccountPool.size_for(plan.optimized_query_count)
    pool = AccountPool(needed)
    print(f"account pool sized for the plan: {needed} accounts")
    archive = SpotLakeArchive()
    collector = SpsCollector(cloud, archive, pool, plan)
    report = collector.collect()
    archive.commit_round(cloud.clock.now())
    print(f"full collection round: {report.queries_issued} queries, "
          f"{report.queries_failed} failed, "
          f"{report.records_written} zone scores archived, "
          f"{report.accounts_used} accounts used")


if __name__ == "__main__":
    main()
