"""Units for the round merger and the changed-rows differ."""

import pytest

from repro.lake import (
    IF_SCORE_MEASURE,
    INTERRUPTION_RATIO_MEASURE,
    MergedRound,
    RoundDiffer,
    RoundMerger,
    SAVINGS_MEASURE,
    SPS_MEASURE,
    SPS_TABLE,
)
from repro.lake.schema import empty_rows

T0 = 1640995200.0


def _round(time, sps=(), advisor=(), price=()):
    merger = RoundMerger()
    merger.add("sps", sps)
    merger.add("advisor", advisor)
    merger.add("price", price)
    return merger.take_round(time)


class TestMerger:
    def test_take_round_snapshots_and_clears(self):
        merger = RoundMerger()
        merger.add("sps", [("a.large", "r1", "r1a", 3, T0)])
        merger.add("price", [("a.large", "r1", "r1a", 1.5, T0)])
        merger.add("advisor", [("a.large", "r1", 0.05, 2.0, 60, T0)])
        merged = merger.take_round(T0)
        assert merged.row_count == 3
        # datasets come back in schema order, whatever the add order
        assert [t for t, rows in merged.rows.items() if rows] == \
            ["sps", "advisor", "price"]
        # an advisor row fans out to its three measures in record terms
        assert sum(len(s.times) for _, s in merged.items()) == 5
        assert merger.take_round(T0 + 600).row_count == 0

    def test_items_are_canonical_and_fan_out_advisor(self):
        merged = _round(T0,
                        sps=[("a.large", "r1", "r1a", 3, T0)],
                        advisor=[("a.large", "r1", 0.05, 2.0, 60, T0)])
        items = dict(merged.items())
        measures = sorted(k.measure_name for k in items)
        assert measures == sorted([SPS_MEASURE, INTERRUPTION_RATIO_MEASURE,
                                   IF_SCORE_MEASURE, SAVINGS_MEASURE])
        keys = [k for k, _ in merged.items()]
        assert keys == sorted(keys,
                              key=lambda k: (k.measure_name, k.dimensions))

    def test_items_of_a_subset_are_the_diffs_rows_only(self):
        merged = _round(T0,
                        sps=[("a.large", "r1", "r1a", 3, T0),
                             ("b.large", "r1", "r1a", 4, T0)],
                        price=[("a.large", "r1", "r1a", 1.5, T0)])
        diff = RoundDiffer().diff(merged)
        assert merged.items(diff.rows) == merged.items()   # round 1: all new
        changed = dict(empty_rows(), sps=[("b.large", "r1", "r1a", 4, T0)])
        ((key, series),) = merged.items(changed)
        assert (key.measure_name, series.values) == (SPS_MEASURE, [4])
        assert merged.items(empty_rows()) == []

    def test_items_sort_rows_by_time_within_series(self):
        merged = _round(T0 + 60,
                        sps=[("a.large", "r1", "r1a", 3, T0 + 60),
                             ("a.large", "r1", "r1a", 2, T0)])
        ((_, series),) = merged.items()
        assert series.times == [T0, T0 + 60]
        assert series.values == [2, 3]


class TestDiffer:
    def test_first_round_emits_everything(self):
        differ = RoundDiffer()
        diff = differ.diff(_round(T0, sps=[("a.large", "r1", "r1a", 3, T0)],
                                  price=[("a.large", "r1", "r1a", 1.5, T0)]))
        assert diff.rows_changed == diff.rows_seen == 2
        assert not diff.full_refresh

    def test_unchanged_rows_are_suppressed(self):
        differ = RoundDiffer()
        differ.diff(_round(T0, sps=[("a.large", "r1", "r1a", 3, T0)]))
        diff = differ.diff(_round(T0 + 600,
                                  sps=[("a.large", "r1", "r1a", 3, T0 + 600)]))
        assert diff.rows_changed == 0
        assert diff.rows_seen == 1

    def test_any_advisor_component_change_emits_the_row(self):
        differ = RoundDiffer()
        differ.diff(_round(T0, advisor=[("a.large", "r1", 0.05, 2.0, 60, T0)]))
        same = differ.diff(_round(
            T0 + 600, advisor=[("a.large", "r1", 0.05, 2.0, 60, T0 + 600)]))
        assert same.rows_changed == 0
        one_component = differ.diff(_round(
            T0 + 1200, advisor=[("a.large", "r1", 0.05, 2.5, 60, T0 + 1200)]))
        assert [r[:5] for r in one_component.rows["advisor"]] == \
            [("a.large", "r1", 0.05, 2.5, 60)]

    def test_type_strict_comparison(self):
        differ = RoundDiffer()
        differ.diff(_round(T0, sps=[("a.large", "r1", "r1a", 3, T0)]))
        # int 3 -> float 3.0 is a change under the store's dedup rule
        diff = differ.diff(_round(T0 + 600,
                                  sps=[("a.large", "r1", "r1a", 3.0,
                                        T0 + 600)]))
        assert diff.rows_changed == 1

    def test_full_refresh_cadence(self):
        differ = RoundDiffer(full_refresh_every=3)
        emitted = []
        for r in range(7):
            diff = differ.diff(_round(
                T0 + 600 * r, sps=[("a.large", "r1", "r1a", 3, T0 + 600 * r)]))
            emitted.append((diff.full_refresh, diff.rows_changed))
        # rounds 0, 3 and 6 refresh; steady-state rounds emit nothing
        assert emitted == [(True, 1), (False, 0), (False, 0), (True, 1),
                           (False, 0), (False, 0), (True, 1)]

    def test_negative_refresh_cadence_rejected(self):
        with pytest.raises(ValueError):
            RoundDiffer(full_refresh_every=-1)

    def test_seed_restores_values_and_cadence(self):
        first = RoundDiffer(full_refresh_every=4)
        merged = _round(T0, sps=[("a.large", "r1", "r1a", 3, T0)],
                        price=[("a.large", "r1", "r1a", 1.5, T0)],
                        advisor=[("a.large", "r1", 0.05, 2.0, 60, T0)])
        first.diff(merged)

        # a restarted differ seeded from the lake's latest values must
        # behave exactly like the uninterrupted one
        items = [(key, series.values[-1]) for key, series in merged.items()]
        restarted = RoundDiffer(full_refresh_every=4)
        restarted.seed(items, rounds=first.rounds)
        assert restarted.stats() == first.stats()

        unchanged = _round(T0 + 600,
                           sps=[("a.large", "r1", "r1a", 3, T0 + 600)],
                           price=[("a.large", "r1", "r1a", 1.5, T0 + 600)],
                           advisor=[("a.large", "r1", 0.05, 2.0, 60,
                                     T0 + 600)])
        assert restarted.diff(unchanged).rows_changed == 0

    def test_gap_keeps_previous_value(self):
        differ = RoundDiffer()
        differ.diff(_round(T0, sps=[("a.large", "r1", "r1a", 3, T0)]))
        differ.diff(MergedRound(time=T0 + 600))  # collection gap
        diff = differ.diff(_round(T0 + 1200,
                                  sps=[("a.large", "r1", "r1a", 3,
                                        T0 + 1200)]))
        assert diff.rows_changed == 0
