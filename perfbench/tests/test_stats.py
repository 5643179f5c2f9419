"""Percentiles with a minimum tail, and the spread rule."""

import pytest
from stats import min_samples, percentile, relative_spread


def test_percentile_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]  # 100 .. 1, unsorted
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError, match="need at least 10"):
        percentile([float(v) for v in range(99)], 90)
    percentile([float(v) for v in range(100)], 90)


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0] * 50, 100)


def test_min_samples_matches_percentile():
    for q in (50, 90, 95):
        n = min_samples(q)
        percentile([1.0] * n, q)
        with pytest.raises(ValueError):
            percentile([1.0] * (n - 1), q)
    assert min_samples(90) == 100
    assert min_samples(50) == 20


def test_relative_spread():
    # statistics.quantiles (exclusive) of 1..9 gives 2.5 and 7.5; median 5.
    assert relative_spread([float(v) for v in range(1, 10)]) == pytest.approx(1.0)
