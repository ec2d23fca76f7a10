"""A timing is read at reference speed by the kernel samples beside it."""

import time

import pytest

from spotbench import calibrate
from spotbench.calibrate import REFERENCE_KERNEL_S as REF


def test_factor_is_the_mean_slowdown_inside_the_interval():
    # fast for two seconds, then 1.5x slower for two
    samples = [(t / 10.0, REF) for t in range(20)] \
        + [(t / 10.0, REF * 1.5) for t in range(20, 40)]
    assert calibrate.factor_of(samples, 0.0, 1.95) == pytest.approx(1.0)
    assert calibrate.factor_of(samples, 2.0, 4.0) == pytest.approx(1 / 1.5)
    # an interval across the change is slowed by the mean of the two
    assert calibrate.factor_of(samples) == pytest.approx(1 / 1.25)
    assert calibrate.factor_of(samples, 1.0, 2.95) == pytest.approx(1 / 1.25)


def test_an_interval_without_a_sample_reads_the_nearest_one():
    samples = [(0.0, REF), (1.0, REF * 2), (2.0, REF * 4)]
    assert calibrate.factor_of(samples, 1.1, 1.3) == pytest.approx(0.5)
    assert calibrate.factor_of(samples, 5.0, 6.0) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        calibrate.factor_of([])


def test_sampler_times_the_kernel_until_it_is_stopped():
    assert calibrate.kernel() == calibrate.kernel()
    with calibrate.Sampler() as sampler:
        deadline = time.perf_counter() + 5.0
        while len(sampler.samples) < 3 and time.perf_counter() < deadline:
            time.sleep(0.01)
    assert not sampler._thread.is_alive()
    taken = len(sampler.samples)
    assert taken >= 3 and all(cpu > 0 for _at, cpu in sampler.samples)
    assert [at for at, _cpu in sampler.samples] \
        == sorted(at for at, _cpu in sampler.samples)
    assert 0.0 < sampler.factor() < 100.0
    time.sleep(2 * calibrate.Sampler.PERIOD_S)
    assert len(sampler.samples) == taken
