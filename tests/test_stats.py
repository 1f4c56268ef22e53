"""Tests for statistical inference helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.metrics.stats import (
    bootstrap_confidence_interval,
    comparison_significant,
    t_confidence_interval,
)
from repro.rng import StreamFactory


class TestTInterval:
    def test_contains_sample_mean(self):
        ci = t_confidence_interval([10.0, 12.0, 11.0, 13.0])
        assert ci.contains(ci.mean)
        assert ci.lower < ci.mean < ci.upper

    def test_known_value(self):
        # n=4, mean 11.5, s = sqrt(5/3), t(0.975, 3) = 3.1824.
        ci = t_confidence_interval([10.0, 12.0, 11.0, 13.0])
        stderr = np.std([10, 12, 11, 13], ddof=1) / 2.0
        assert ci.half_width == pytest.approx(3.1824 * stderr, rel=1e-3)

    def test_wider_at_higher_confidence(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.5]
        assert (
            t_confidence_interval(values, 0.99).half_width
            > t_confidence_interval(values, 0.90).half_width
        )

    def test_coverage_simulation(self):
        # ~95% of intervals over N(0,1) samples should contain 0.
        rng = np.random.default_rng(0)
        hits = 0
        trials = 400
        for _ in range(trials):
            sample = rng.normal(0.0, 1.0, size=10)
            if t_confidence_interval(sample.tolist()).contains(0.0):
                hits += 1
        assert 0.90 <= hits / trials <= 0.99

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            t_confidence_interval([1.0])
        with pytest.raises(ConfigurationError):
            t_confidence_interval([1.0, float("nan")])
        with pytest.raises(ConfigurationError):
            t_confidence_interval([1.0, 2.0], confidence=1.5)


class TestBootstrap:
    def test_contains_mean_for_tight_sample(self):
        ci = bootstrap_confidence_interval(
            [5.0, 5.1, 4.9, 5.05, 4.95], rng=np.random.default_rng(0)
        )
        assert ci.contains(5.0)
        assert ci.half_width < 0.2

    def test_deterministic_given_injected_rng(self):
        values = [1.0, 3.0, 2.0, 5.0, 4.0]
        factory = StreamFactory(seed=7)
        a = bootstrap_confidence_interval(values, rng=factory.stream("bootstrap"))
        b = bootstrap_confidence_interval(values, rng=factory.stream("bootstrap"))
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_interval_pinned_for_a_seeded_generator(self):
        """The interval is a function of the injected generator alone.

        Seven values keep every resample mean a left-to-right sum, so
        the pinned bits do not depend on numpy's SIMD reductions.
        """
        values = [12.73, 9.41, 15.02, 10.88, 13.67, 11.19, 8.96]
        ci = bootstrap_confidence_interval(
            values, rng=np.random.default_rng(2012)
        )
        assert (ci.lower.hex(), ci.upper.hex()) == (
            "0x1.470a3d70a3d71p+3",
            "0x1.a9b101767dce3p+3",
        )
        other = bootstrap_confidence_interval(
            values, rng=np.random.default_rng(2013)
        )
        assert (other.lower, other.upper) != (ci.lower, ci.upper)

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            bootstrap_confidence_interval(
                [1.0, 2.0], resamples=10, rng=np.random.default_rng(1)
            )
        with pytest.raises(TypeError):
            bootstrap_confidence_interval([1.0, 2.0])

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3),
            min_size=3,
            max_size=20,
        )
    )
    def test_interval_brackets_ordered(self, values):
        ci = bootstrap_confidence_interval(values, rng=np.random.default_rng(0))
        assert ci.lower <= ci.upper
        assert min(values) - 1e-9 <= ci.lower
        assert ci.upper <= max(values) + 1e-9


class TestComparison:
    def test_clear_gap_is_significant(self):
        significant, p_value = comparison_significant(
            [10.0, 11.0, 10.5, 10.2], [30.0, 32.0, 31.0, 29.5]
        )
        assert significant
        assert p_value < 0.01

    def test_noise_is_not(self):
        rng = np.random.default_rng(1)
        a = rng.normal(10, 1, size=5).tolist()
        b = rng.normal(10, 1, size=5).tolist()
        significant, p_value = comparison_significant(a, b)
        assert not significant
        assert p_value > 0.05

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            comparison_significant([1.0], [2.0, 3.0])
        with pytest.raises(ConfigurationError):
            comparison_significant([1.0, 2.0], [2.0, 3.0], alpha=0.0)
