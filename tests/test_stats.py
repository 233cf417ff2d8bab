import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sbcr.stats import cles, wilcoxon_signed_rank


def signed_rank_oracle(diffs):
    """Brute-force two-sided p: enumerate every sign assignment of the ranks."""
    nonzero = [d for d in diffs if d != 0.0]
    n = len(nonzero)
    order = sorted(range(n), key=lambda i: abs(nonzero[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j < n and abs(nonzero[order[j]]) == abs(nonzero[order[i]]):
            j += 1
        for k in range(i, j):
            ranks[order[k]] = (i + 1 + j) / 2
        i = j
    w_obs = sum(r for r, d in zip(ranks, nonzero) if d > 0)
    at_most = at_least = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        at_most += w <= w_obs
        at_least += w >= w_obs
    return min(1.0, 2.0 * min(at_most, at_least) / 2**n)


def test_wilcoxon_all_zero_diffs():
    assert wilcoxon_signed_rank([0.0, 0.0, 0.0]) == 1.0
    assert wilcoxon_signed_rank([]) == 1.0


def test_wilcoxon_known_small_case():
    # three positive diffs: W+ = 6, P(W >= 6) = 1/8, two-sided p = 1/4
    assert abs(wilcoxon_signed_rank([1.0, 2.0, 3.0]) - 0.25) < 1e-15


def test_wilcoxon_exact_matches_enumeration_oracle():
    rng = random.Random(17)
    for trial in range(60):
        n = rng.randint(1, 12)
        diffs = [rng.choice([-3, -2, -1, 1, 2, 3]) * rng.choice([0.5, 1.0]) for _ in range(n)]
        if trial % 3 == 0:
            diffs.extend([0.0] * rng.randint(1, 3))  # zeros must be discarded
        expected = signed_rank_oracle(diffs)
        assert abs(wilcoxon_signed_rank(diffs) - expected) < 1e-12, diffs


def test_wilcoxon_sign_flip_invariance():
    rng = random.Random(23)
    for n in (5, 12, 40, 200):
        diffs = [rng.gauss(0.1, 1.0) for _ in range(n)]
        p = wilcoxon_signed_rank(diffs)
        assert 0.0 < p <= 1.0
        assert wilcoxon_signed_rank([-d for d in diffs]) == pytest.approx(p, abs=1e-15)


def test_wilcoxon_normal_approx_against_monte_carlo():
    rng = np.random.default_rng(99)
    diffs = np.round(rng.normal(0.08, 0.5, size=200), 3)
    diffs = diffs[diffs != 0.0]
    # Monte Carlo of the same null: resample signs, compare rank sums
    abs_ranks = _average_ranks(np.abs(diffs))
    w_obs = abs_ranks[diffs > 0].sum()
    resamples = 100_000
    signs = rng.integers(0, 2, size=(resamples, len(diffs)))
    w = signs @ abs_ranks
    p_mc = min(1.0, 2.0 * min((w <= w_obs).mean(), (w >= w_obs).mean()))
    p_normal = wilcoxon_signed_rank(list(diffs))
    assert abs(p_normal - p_mc) < 0.02


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = values.argsort(kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and sorted_vals[j] == sorted_vals[i]:
            j += 1
        ranks[order[i:j]] = (i + 1 + j) / 2
        i = j
    return ranks


def test_wilcoxon_exact_with_heavy_ties():
    diffs = [1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0]
    expected = signed_rank_oracle(diffs)
    assert abs(wilcoxon_signed_rank(diffs) - expected) < 1e-12


def cles_oracle(a, b):
    wins = sum(1 for x in a for y in b if x > y)
    ties = sum(1 for x in a for y in b if x == y)
    return (wins + 0.5 * ties) / (len(a) * len(b))


def test_cles_spec_examples():
    assert cles([1, 2], [0, 0]) == 1.0
    rng = random.Random(4)
    sample = [rng.random() for _ in range(30)]
    assert cles(sample, list(sample)) == 0.5


def test_cles_matches_quadratic_oracle_exactly():
    rng = random.Random(31)
    for _ in range(20):
        a = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, rng.random()]) for _ in range(100)]
        b = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, rng.random()]) for _ in range(100)]
        assert cles(a, b) == cles_oracle(a, b)


def test_cles_complement_identity():
    rng = random.Random(47)
    for _ in range(500):
        a = [rng.choice([0, 1, 2, 3, rng.random()]) for _ in range(rng.randint(1, 60))]
        b = [rng.choice([0, 1, 2, 3, rng.random()]) for _ in range(rng.randint(1, 60))]
        assert cles(a, b) + cles(b, a) == 1.0


def test_cles_rejects_empty():
    with pytest.raises(ValueError):
        cles([], [1.0])
    with pytest.raises(ValueError):
        cles([1.0], [])


def test_wilcoxon_p_in_unit_interval_fuzz():
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(1, 30)
        diffs = [rng.choice([-2, -1, 0, 1, 2]) * rng.random() for _ in range(n)]
        p = wilcoxon_signed_rank(diffs)
        assert 0.0 < p <= 1.0


def test_non_finite_difference_raises_instead_of_hanging():
    """A NaN difference once made the tie loop spin forever, so the calls run in
    a child process whose timeout fails the test instead of stalling the suite."""
    import sbcr

    code = """
import math
from sbcr.bench import ResultRow, compare_results
from sbcr.stats import wilcoxon_signed_rank

def raises(call, *args):
    try:
        call(*args)
    except ValueError:
        return
    raise AssertionError(f"no ValueError from {call.__name__}{args}")

for bad in (math.nan, math.inf, -math.inf):
    raises(wilcoxon_signed_rank, [bad, 0.5])
    raises(wilcoxon_signed_rank, [0.5, 0.25, bad])


def row(cid, resolver, score):
    return ResultRow(cid, resolver, 0.5, score, 0.0, "ok")


raises(compare_results, [row("a", "x", 0.5), row("b", "x", math.nan)], [row("a", "y", 0.5), row("b", "y", 0.25)])
"""
    env = {**os.environ, "PYTHONPATH": str(Path(sbcr.__file__).resolve().parent.parent)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=30)
