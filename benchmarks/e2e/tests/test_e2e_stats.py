"""The percentile support rule: a tail rests on >= 10 samples beyond it."""

from spotbench import stats


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 95) == 95
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([3.0], 99) == 3.0


def test_support_needs_ten_samples_beyond():
    assert stats.beyond(200, 95.0) == 10
    assert stats.supported(200, 95.0)
    assert not stats.supported(199, 95.0)
    assert stats.supported(1000, 99.0) and not stats.supported(999, 99.0)
    assert not stats.supported(0, 50.0)


def test_highest_supported_respects_the_cap():
    assert stats.highest_supported(30) is None
    assert stats.highest_supported(40) == 75.0
    assert stats.highest_supported(100) == 90.0
    assert stats.highest_supported(5000) == 99.0
    assert stats.highest_supported(5000, cap=95.0) == 95.0
    assert stats.highest_supported(20000) == 99.9


def test_unsupported_tail_is_none_never_a_guess():
    assert stats.tail([1.0] * 9, 99.0) is None
    assert stats.summary([1.0, 2.0, 3.0]) == {
        "n": 3, "p50": 2.0, "tail_pct": None, "tail": None}
    samples = [float(i) for i in range(1, 401)]
    assert stats.tail(samples, 99.0) == 380.0     # falls back to p95
    assert stats.summary(samples)["tail_pct"] == 95.0
    assert stats.median([]) is None


def test_spread_is_iqr_over_median():
    assert stats.spread([1.0, 2.0, 3.0]) is None
    values = [10.0, 10.0, 10.0, 10.0]
    assert stats.spread(values) == 0.0
    assert stats.spread([8.0, 9.0, 10.0, 11.0, 12.0]) == 0.3  # (11.5 - 8.5) / 10
