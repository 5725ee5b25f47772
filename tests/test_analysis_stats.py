"""Tests for the statistics helpers."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (auc_mann_whitney, cdf_points, correlation,
                            entropy_bits, equiprobable_bin_edges,
                            ks_distance, mean, percentile, quantize,
                            roc_points, spread_percent, stdev, variance)
from repro.analysis.stats import paired_ratios, quartiles


class TestBasicStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_variance_and_stdev(self):
        assert variance([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == 4.0
        assert stdev([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == 2.0
        assert variance([5.0]) == 0.0

    def test_percentile(self):
        data = [float(i) for i in range(11)]
        assert percentile(data, 0) == 0.0
        assert percentile(data, 50) == 5.0
        assert percentile(data, 100) == 10.0
        assert percentile(data, 25) == 2.5

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_spread_percent(self):
        assert spread_percent([1.0, 1.5, 2.0]) == pytest.approx(100.0)
        assert spread_percent([3.0, 3.0]) == 0.0
        with pytest.raises(ValueError):
            spread_percent([0.0, 1.0])

    def test_cdf_points(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert points == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_correlation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert correlation(xs, xs) == pytest.approx(1.0)
        assert correlation(xs, [-x for x in xs]) == pytest.approx(-1.0)
        assert correlation(xs, [5.0] * 4) == 0.0
        with pytest.raises(ValueError):
            correlation([1.0], [2.0, 3.0])


class TestPairedRatios:
    """The interleaved A/B helper every wall-clock bench gate uses."""

    def test_sides_alternate_ab_ba(self):
        log = []
        paired_ratios(lambda: log.append("a"), lambda: log.append("b"),
                      pairs=4, clock=lambda: 1.0 + len(log))
        assert log == ["a", "b", "b", "a", "a", "b", "b", "a"]

    def test_one_ratio_per_pair_of_a_over_b(self):
        now = [0.0]

        def side(seconds):
            def run():
                now[0] += seconds
            return run

        ratios = paired_ratios(side(3.0), side(1.5), pairs=5,
                               clock=lambda: now[0])
        # A over B in both orders.
        assert ratios == [2.0] * 5
        assert paired_ratios(side(1.0), side(1.0), pairs=0) == []

    def test_median_and_quartiles(self):
        assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
        assert quartiles([1.3, 0.9, 1.1, 1.0]) == \
            pytest.approx((0.975, 1.05, 1.15))
        with pytest.raises(ValueError):
            quartiles([])


class TestKsDistance:
    def test_identical_samples(self):
        a = [1.0, 2.0, 3.0]
        assert ks_distance(a, a) == 0.0

    def test_disjoint_samples(self):
        assert ks_distance([1.0, 2.0], [10.0, 20.0]) == 1.0

    def test_symmetry(self):
        a = [1.0, 3.0, 5.0, 7.0]
        b = [2.0, 3.5, 6.0]
        assert ks_distance(a, b) == pytest.approx(ks_distance(b, a))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], [1.0])

    @given(st.lists(st.floats(0, 100), min_size=2, max_size=50),
           st.lists(st.floats(0, 100), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_bounds_property(self, a, b):
        d = ks_distance(a, b)
        assert 0.0 <= d <= 1.0


class TestBinningAndEntropy:
    def test_equiprobable_edges(self):
        data = [float(i) for i in range(100)]
        edges = equiprobable_bin_edges(data, 4)
        assert len(edges) == 3
        symbols = quantize(data, edges)
        counts = [symbols.count(k) for k in range(4)]
        assert max(counts) - min(counts) <= 2

    def test_bins_validation(self):
        with pytest.raises(ValueError):
            equiprobable_bin_edges([1.0], 1)
        with pytest.raises(ValueError):
            equiprobable_bin_edges([], 4)

    def test_quantize_edges(self):
        assert quantize([0.5, 1.5, 2.5], [1.0, 2.0]) == [0, 1, 2]
        assert quantize([1.0], [1.0, 2.0]) == [0]  # boundary goes low

    def test_entropy(self):
        assert entropy_bits([0, 0, 0, 0]) == 0.0
        assert entropy_bits([0, 1, 0, 1]) == pytest.approx(1.0)
        assert entropy_bits([0, 1, 2, 3]) == pytest.approx(2.0)
        assert entropy_bits([]) == 0.0


class TestRocAndAuc:
    def test_perfect_separation(self):
        assert auc_mann_whitney([2.0, 3.0], [0.0, 1.0]) == 1.0

    def test_no_separation(self):
        assert auc_mann_whitney([1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_inverted(self):
        assert auc_mann_whitney([0.0], [1.0]) == 0.0

    def test_auc_matches_roc_area(self):
        positives = [0.9, 0.8, 0.55, 0.4]
        negatives = [0.7, 0.5, 0.3, 0.1]
        auc = auc_mann_whitney(positives, negatives)
        points = roc_points(positives, negatives)
        # Trapezoidal area under the ROC polyline.
        area = sum((x1 - x0) * (y0 + y1) / 2
                   for (x0, y0), (x1, y1) in zip(points, points[1:]))
        assert area == pytest.approx(auc)

    def test_roc_endpoints(self):
        points = roc_points([1.0], [0.0])
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            auc_mann_whitney([], [1.0])
        with pytest.raises(ValueError):
            roc_points([1.0], [])

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30),
           st.lists(st.floats(-10, 10), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_auc_bounds_property(self, pos, neg):
        assert 0.0 <= auc_mann_whitney(pos, neg) <= 1.0

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=20),
           st.lists(st.floats(-10, 10), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_auc_antisymmetry(self, pos, neg):
        forward = auc_mann_whitney(pos, neg)
        backward = auc_mann_whitney(neg, pos)
        assert forward + backward == pytest.approx(1.0)
