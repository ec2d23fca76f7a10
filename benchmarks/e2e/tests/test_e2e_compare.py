"""``compare`` verdicts and exact checks."""

from spotbench import compare


def run(seed, p50, failed=0, digest="d", hits=10):
    return {"seed": seed, "failed": failed,
            "end_to_end": {"setup_s": 1.0, "op_p50_ms": p50,
                           "op_tail_ms": 5.0, "work_per_s": 100.0,
                           "peak_rss_mb": 300.0,
                           "disk_bytes_per_row": 100.0},
            "counts": {"timeseries.cache.evictions": hits,
                       "core.service.recover_s": 4.0 + seed / 10.0},
            "digests": {"lake": digest}}


def result(p50s, **kwargs):
    return {"workloads": {"serve-hot": [run(seed, p50, **kwargs)
                                        for seed, p50 in enumerate(p50s)]}}


def test_verdicts():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert compare.verdict(steady, steady, "lower", 0.15)[0] == "within-bound"
    slower = [v * 1.3 for v in steady]
    assert compare.verdict(steady, slower, "lower", 0.15)[0] == "regressed"
    assert compare.verdict(slower, steady, "lower", 0.15)[0] == "improved"
    assert compare.verdict(steady, slower, "higher", 0.15)[0] == "improved"


def test_wide_spread_is_unresolved_unless_the_runs_separate():
    noisy = [1.0, 1.5, 0.7, 1.3, 0.9]
    assert compare.verdict(noisy, [v * 1.2 for v in noisy], "lower",
                           0.15)[0] == "unresolved"
    # every run of B worse than every run of A: the noise cannot explain it
    assert compare.verdict(noisy, [v * 3 for v in noisy], "lower",
                           0.15)[0] == "regressed"


def test_single_runs_are_judged_on_the_bound_alone():
    assert compare.verdict([1.0], [1.1], "lower", 0.15) == (
        "within-bound", 0.10000000000000009, None)


def test_regression_fails_the_comparison():
    lines, ok = compare.compare(result([1.0] * 4), result([1.3] * 4))
    assert not ok and any("regressed" in line for line in lines)
    _lines, ok = compare.compare(result([1.0] * 4), result([1.05] * 4))
    assert ok


def test_raised_failures_counts_and_digests_fail_it():
    base = result([1.0] * 2)
    assert not compare.compare(base, result([1.0] * 2, failed=1))[1]
    assert not compare.compare(base, result([1.0] * 2, digest="x"))[1]
    lines, ok = compare.compare(base, result([1.0] * 2, hits=11))
    assert not ok and any("cache.evictions" in line for line in lines)
    # timings inside counts are never held exactly
    assert compare.compare(base, base)[1]
