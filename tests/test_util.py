"""Tests for the deterministic hashing helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro._util import (
    clip01,
    stable_choice,
    stable_hash,
    stable_range,
    stable_rng,
    stable_uniform,
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1, 2.5) == stable_hash("a", 1, 2.5)

    def test_different_parts_differ(self):
        assert stable_hash("a") != stable_hash("b")
        assert stable_hash("a", "b") != stable_hash("ab")

    def test_separator_prevents_concatenation_collisions(self):
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_known_range(self):
        value = stable_hash("x")
        assert 0 <= value < 2**64


class TestStableUniform:
    @given(st.text(max_size=30), st.integers())
    def test_in_unit_interval(self, text, number):
        value = stable_uniform(text, number)
        assert 0.0 <= value < 1.0

    def test_roughly_uniform(self):
        samples = [stable_uniform("u", i) for i in range(2000)]
        assert 0.45 < float(np.mean(samples)) < 0.55
        assert min(samples) < 0.05 and max(samples) > 0.95


class TestStableRange:
    @given(st.integers(min_value=0, max_value=10**6))
    def test_within_bounds(self, key):
        value = stable_range(-2.0, 3.0, "k", key)
        assert -2.0 <= value < 3.0

    def test_degenerate_range(self):
        assert stable_range(1.5, 1.5, "x") == 1.5


class TestStableChoice:
    def test_picks_member(self):
        options = ["a", "b", "c"]
        assert stable_choice(options, "seed") in options

    def test_deterministic(self):
        assert stable_choice(range(100), 1, 2) == stable_choice(range(100), 1, 2)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stable_choice([], "seed")


class TestStableRng:
    def test_streams_agree(self):
        a = stable_rng("s", 1).normal(size=5)
        b = stable_rng("s", 1).normal(size=5)
        assert np.allclose(a, b)

    def test_streams_differ_by_key(self):
        a = stable_rng("s", 1).normal(size=5)
        b = stable_rng("s", 2).normal(size=5)
        assert not np.allclose(a, b)


class TestClip01:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_always_in_unit_interval(self, value):
        assert 0.0 <= clip01(value) <= 1.0

    def test_identity_inside(self):
        assert clip01(0.42) == 0.42
