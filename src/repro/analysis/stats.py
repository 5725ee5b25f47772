"""Small, dependency-light statistics used across detectors and benches.

Everything here is deterministic and pure, except :func:`paired_ratios`,
which reads the host clock for the wall-clock benches; numpy is avoided
on these hot paths because the inputs are short lists (per-trace IPDs)
where numpy's conversion overhead dominates.
"""

from __future__ import annotations

import gc
import math
import time
from collections.abc import Callable


def mean(values: list[float]) -> float:
    """Arithmetic mean; 0.0 for empty input."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def variance(values: list[float]) -> float:
    """Population variance; 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return sum((v - m) ** 2 for v in values) / len(values)


def stdev(values: list[float]) -> float:
    """Population standard deviation."""
    return math.sqrt(variance(values))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty data")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(25th, 50th, 75th)`` percentiles of ``values``."""
    return (percentile(values, 25.0), percentile(values, 50.0),
            percentile(values, 75.0))


def paired_ratios(side_a: Callable[[], object], side_b: Callable[[], object],
                  pairs: int,
                  clock: Callable[[], float] = time.perf_counter
                  ) -> list[float]:
    """Host seconds of ``side_a`` over ``side_b``, one ratio per pair.

    The sides run in alternating order (AB, BA, AB, ...), so a drift in
    host speed during the measurement lands on both sides alike.  A full
    garbage collection before each sample keeps one side's garbage from
    being collected on the other side's clock.  Judge a bar on the
    median of the ratios (:func:`quartiles`), not on any one of them.
    """
    ratios = []
    for pair in range(pairs):
        seconds = [0.0, 0.0]
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            gc.collect()
            started = clock()
            (side_a, side_b)[side]()
            seconds[side] = clock() - started
        ratios.append(seconds[0] / seconds[1])
    return ratios


def spread_percent(values: list[float]) -> float:
    """(max - min) / min as a percentage — Fig 2 / Fig 6's variance metric.

    "we calculated the difference between the longest and the shortest
    execution", normalized to the fastest (§6.3).
    """
    if not values:
        raise ValueError("spread of empty data")
    lowest = min(values)
    if lowest <= 0:
        raise ValueError("spread needs positive values")
    return (max(values) - lowest) / lowest * 100.0


def cdf_points(values: list[float]) -> list[tuple[float, float]]:
    """Empirical CDF as (value, cumulative fraction) points."""
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def ks_distance(sample_a: list[float], sample_b: list[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    if not sample_a or not sample_b:
        raise ValueError("KS distance needs non-empty samples")
    a = sorted(sample_a)
    b = sorted(sample_b)
    i = j = 0
    d = 0.0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            i += 1
        elif b[j] < a[i]:
            j += 1
        else:
            # Advance both sides through the tied value before measuring,
            # so identical samples yield distance 0.
            value = a[i]
            while i < len(a) and a[i] == value:
                i += 1
            while j < len(b) and b[j] == value:
                j += 1
        d = max(d, abs(i / len(a) - j / len(b)))
    return d


def equiprobable_bin_edges(training: list[float], bins: int) -> list[float]:
    """Interior bin edges that make ``training`` roughly uniform.

    Used by the CCE detector: IPDs are quantized into Q equiprobable bins
    learned from legitimate traffic (Gianvecchio & Wang).
    """
    if bins < 2:
        raise ValueError("need at least two bins")
    if not training:
        raise ValueError("cannot derive bins from empty training data")
    return [percentile(training, 100.0 * k / bins) for k in range(1, bins)]


def quantize(values: list[float], edges: list[float]) -> list[int]:
    """Map values to bin indices given interior edges (ascending)."""
    symbols = []
    for value in values:
        index = 0
        while index < len(edges) and value > edges[index]:
            index += 1
        symbols.append(index)
    return symbols


def entropy_bits(symbols: list[int]) -> float:
    """Shannon entropy of a symbol sequence, in bits."""
    if not symbols:
        return 0.0
    counts: dict[int, int] = {}
    for symbol in symbols:
        counts[symbol] = counts.get(symbol, 0) + 1
    total = len(symbols)
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def auc_mann_whitney(positive_scores: list[float],
                     negative_scores: list[float]) -> float:
    """Exact ROC AUC via the Mann-Whitney U statistic.

    AUC = P(score(covert) > score(legit)) + 0.5 * P(tie).
    """
    if not positive_scores or not negative_scores:
        raise ValueError("AUC needs both positive and negative scores")
    wins = 0.0
    for p in positive_scores:
        for n in negative_scores:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(positive_scores) * len(negative_scores))


def roc_points(positive_scores: list[float],
               negative_scores: list[float]) -> list[tuple[float, float]]:
    """ROC curve as (false-positive rate, true-positive rate) points.

    The threshold sweeps over every distinct score; a trace is flagged
    covert when its score exceeds the threshold.
    """
    if not positive_scores or not negative_scores:
        raise ValueError("ROC needs both positive and negative scores")
    thresholds = sorted(set(positive_scores) | set(negative_scores),
                        reverse=True)
    points = [(0.0, 0.0)]
    for threshold in thresholds:
        tpr = sum(1 for s in positive_scores if s >= threshold) / \
            len(positive_scores)
        fpr = sum(1 for s in negative_scores if s >= threshold) / \
            len(negative_scores)
        points.append((fpr, tpr))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return points


def correlation(xs: list[float], ys: list[float]) -> float:
    """Pearson correlation; 0.0 when either side is constant."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("correlation needs two equal-length samples")
    mx, my = mean(xs), mean(ys)
    sx, sy = stdev(xs), stdev(ys)
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        (len(xs) * sx * sy)
