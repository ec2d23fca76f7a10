"""Tests for pool selection policies."""

import numpy as np
import pytest

from repro.apps import (
    ALL_POLICIES,
    CheapestPolicy,
    CombinedScorePolicy,
    HistoricalPolicy,
    IfScorePolicy,
    PoolView,
    SpsPolicy,
    snapshot_pools,
)

from tests.conftest import land


def view(pool, price, sps, ifs, sps_hist=None, if_hist=None):
    return PoolView(pool, price, sps, ifs, sps_hist, if_hist)


VIEWS = [
    view(("a", "r", "ra"), 0.10, 3, 3.0),
    view(("b", "r", "rb"), 0.05, 1, 1.0),
    view(("c", "r", "rc"), 0.07, 3, 1.0),
    view(("d", "r", "rd"), 0.20, 2, 3.0),
]


class TestPolicies:
    def test_cheapest_ignores_scores(self):
        ranked = CheapestPolicy().rank(VIEWS)
        assert ranked[0].pool == ("b", "r", "rb")

    def test_sps_policy(self):
        ranked = SpsPolicy().rank(VIEWS)
        assert ranked[0].sps == 3
        assert ranked[0].pool == ("c", "r", "rc")  # cheaper of the two SPS-3

    def test_if_policy(self):
        ranked = IfScorePolicy().rank(VIEWS)
        assert ranked[0].if_score == 3.0
        assert ranked[0].pool == ("a", "r", "ra")

    def test_combined_prefers_hh(self):
        ranked = CombinedScorePolicy().rank(VIEWS)
        assert ranked[0].pool == ("a", "r", "ra")  # the only H-H
        # SPS dominates on disagreement (paper Section 5.4)
        assert ranked[1].pool == ("c", "r", "rc")

    def test_historical_uses_month_means(self):
        views = [
            view(("a", "r", "ra"), 0.10, 3, 3.0, sps_hist=1.2, if_hist=1.0),
            view(("b", "r", "rb"), 0.10, 3, 3.0, sps_hist=3.0, if_hist=3.0),
        ]
        ranked = HistoricalPolicy().rank(views)
        assert ranked[0].pool == ("b", "r", "rb")

    def test_historical_falls_back_to_current(self):
        ranked = HistoricalPolicy().rank(VIEWS)
        assert ranked[0].pool == ("a", "r", "ra")

    def test_all_policies_are_permutations(self):
        for policy_cls in ALL_POLICIES:
            ranked = policy_cls().rank(VIEWS)
            assert sorted(v.pool for v in ranked) == \
                sorted(v.pool for v in VIEWS)


class TestSnapshot:
    def test_views_match_engines(self, cloud):
        t = cloud.clock.start + 10 * 86400.0
        pools = cloud.catalog.all_pools()[:5]
        views = snapshot_pools(cloud, pools, t)
        for v in views:
            itype, region, zone = v.pool
            assert v.sps == cloud.placement.zone_score(itype, region, zone, t)
            assert v.spot_price == cloud.pricing.spot_price(itype, region, t, zone)
            assert v.sps_mean_30d is None  # no archive supplied

    def test_views_with_archive_history(self, cloud):
        from repro.core import SpotLakeArchive
        t = cloud.clock.start + 10 * 86400.0
        pool = cloud.catalog.all_pools()[0]
        archive = SpotLakeArchive()
        land(archive, "sps", [(*pool, 2, t - 20 * 86400.0)])
        land(archive, "advisor", [(pool[0], pool[1], 0.12, 2.0, 70,
                                   t - 20 * 86400.0)])
        views = snapshot_pools(cloud, [pool], t, archive)
        assert views[0].sps_mean_30d == 2.0
        assert views[0].if_mean_30d == 2.0
