"""Paired nonparametric statistics: Wilcoxon signed-rank test and common language effect size."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Sequence


def _signed_ranks(diffs: Sequence[float]) -> tuple[list[float], list[float]]:
    """Drop zero differences and rank |diff| with average ranks for ties.

    Returns (ranks, signs-matched diffs) in the same order.
    """
    nonzero = [d for d in diffs if d != 0.0]
    counts = Counter(map(abs, nonzero))
    rank_of = {}
    below = 0
    for value in sorted(counts):
        rank_of[value] = (2 * below + 1 + counts[value]) / 2.0  # mean of 1-based ranks below+1 .. below+count
        below += counts[value]
    return [rank_of[abs(d)] for d in nonzero], nonzero


def _exact_two_sided_p(ranks: Sequence[float], w_plus: float) -> float:
    """Exact two-sided p by enumerating the null distribution of W+ over sign flips.

    Works on doubled ranks so ties (.5 averages) stay integral; the
    distribution is built with a subset-sum polynomial product instead of
    walking all 2^n assignments.
    """
    doubled = [round(2 * r) for r in ranks]
    total = sum(doubled)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r2 in doubled:
        for s in range(total, r2 - 1, -1):
            if counts[s - r2]:
                counts[s] += counts[s - r2]
    w2 = round(2 * w_plus)
    n_assignments = 2 ** len(doubled)
    at_most = sum(counts[: w2 + 1])
    at_least = sum(counts[w2:])
    return min(1.0, 2.0 * min(at_most, at_least) / n_assignments)


def _normal_two_sided_p(ranks: Sequence[float], w_plus: float) -> float:
    """Normal approximation with tie-corrected variance and continuity correction."""
    n = len(ranks)
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    for t in Counter(ranks).values():
        variance -= (t**3 - t) / 48.0  # at least n(n+1)^2/16 > 0, since the tie sizes t sum to n
    delta = w_plus - mean
    if delta > 0.5:
        z = (delta - 0.5) / math.sqrt(variance)
    elif delta < -0.5:
        z = (delta + 0.5) / math.sqrt(variance)
    else:
        z = 0.0
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


EXACT_WILCOXON_MAX_N = 25


def wilcoxon_signed_rank(diffs: Sequence[float]) -> float:
    """Two-sided Wilcoxon signed-rank p-value for paired differences.

    Zero differences are discarded; if none remain the p-value is 1.0.
    The null distribution is enumerated exactly up to 25 effective pairs,
    beyond that a tie-corrected normal approximation with continuity
    correction is used. A NaN or infinite difference has no rank, so it
    raises ``ValueError``.
    """
    if not all(math.isfinite(d) for d in diffs):
        raise ValueError("wilcoxon_signed_rank needs finite differences")
    ranks, nonzero = _signed_ranks(diffs)
    n = len(nonzero)
    if n == 0:
        return 1.0
    w_plus = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    if n <= EXACT_WILCOXON_MAX_N:
        return _exact_two_sided_p(ranks, w_plus)
    return _normal_two_sided_p(ranks, w_plus)


def cles(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Common language effect size: P(a > b) over all cross pairs, ties credited half.

    Computed by sorting one sample and binary-searching each value of the
    other, so large samples avoid the quadratic pair loop.
    """
    if not sample_a or not sample_b:
        raise ValueError("cles requires two non-empty samples")
    sorted_b = sorted(sample_b)
    twice_favorable = 0  # 2 * wins + ties, kept integral for exactness
    for x in sample_a:
        lo = bisect_left(sorted_b, x)
        hi = bisect_right(sorted_b, x)
        twice_favorable += 2 * lo + (hi - lo)
    return twice_favorable / (2.0 * len(sample_a) * len(sorted_b))
