"""The neighborhood operators draw the same random numbers and return the same
candidates as the straightforward implementation below, whose exchange tries
every position pair and re-checks the whole version order after each trial
swap. The rejection sampler the engine used before is kept as a historical
reference: its successful swaps have the same distribution as the engine's."""

import random
from collections import Counter

from conftest import random_chunk

from sbcr.search import (
    SourceLineRef,
    Version,
    _addition_window,
    concat_candidate,
    neighbor,
    random_candidate,
)


def reference_order_ok(refs):
    last1 = last2 = -1
    for ref in refs:
        if ref.version is Version.V1:
            if ref.index <= last1:
                return False
            last1 = ref.index
        else:
            if ref.index <= last2:
                return False
            last2 = ref.index
    return True


def reference_exchange(candidate, rng):
    legal = []
    for p in range(len(candidate)):
        for q in range(p + 1, len(candidate)):
            swapped = list(candidate)
            swapped[p], swapped[q] = swapped[q], swapped[p]
            if reference_order_ok(swapped):
                legal.append(tuple(swapped))
    return legal[rng.randrange(len(legal))]


def reference_try_exchange(candidate, rng):
    """The engine's former exchange: draw position pairs until one keeps both
    versions in order, giving up (None) after len(candidate)**2 draws."""
    n = len(candidate)
    if n < 2:
        return None
    if len({ref.version for ref in candidate}) < 2:
        return None
    for _ in range(n * n):
        p = rng.randrange(n)
        q = rng.randrange(n)
        if p == q:
            continue
        swapped = list(candidate)
        swapped[p], swapped[q] = swapped[q], swapped[p]
        if reference_order_ok(swapped):
            return tuple(swapped)
    return None


def reference_neighbor(candidate, chunk, rng):
    used = set(candidate)
    refs = [SourceLineRef(Version.V1, i) for i in range(len(chunk.v1_lines))]
    refs += [SourceLineRef(Version.V2, j) for j in range(len(chunk.v2_lines))]
    unused = [r for r in refs if r not in used]
    operators = []
    if unused:
        operators.append("add")
    if candidate:
        operators.append("remove")
    if len(candidate) >= 2 and len({ref.version for ref in candidate}) == 2:
        operators.append("exchange")
    if not operators:
        return candidate
    op = operators[rng.randrange(len(operators))]
    if op == "add":
        ref = unused[rng.randrange(len(unused))]
        lo, hi = _addition_window(candidate, ref)
        slot = rng.randint(lo, hi)
        return candidate[:slot] + (ref,) + candidate[slot:]
    if op == "remove":
        pos = rng.randrange(len(candidate))
        return candidate[:pos] + candidate[pos + 1 :]
    return reference_exchange(candidate, rng)


def start_candidates(chunk, rng):
    """A random candidate, the v1+v2 concatenation (one legal swap) and each
    one-sided candidate (no exchange applies)."""
    v1_only = tuple(SourceLineRef(Version.V1, i) for i in range(len(chunk.v1_lines)))
    v2_only = tuple(SourceLineRef(Version.V2, j) for j in range(len(chunk.v2_lines)))
    return [random_candidate(chunk, rng), concat_candidate(chunk), v1_only, v2_only]


def test_neighbor_matches_reference_draw_for_draw():
    rng = random.Random(2024)
    walks = 0
    for _ in range(300):
        chunk = random_chunk(rng, max_side=rng.choice([3, 6, 10]), alphabet=("a", "b"))
        for start in start_candidates(chunk, rng):
            seed = rng.getrandbits(64)
            ours, theirs = random.Random(seed), random.Random(seed)
            current = start
            for _ in range(25):
                moved = neighbor(current, chunk, ours)
                assert moved == reference_neighbor(current, chunk, theirs), (chunk, current)
                assert ours.getstate() == theirs.getstate(), (chunk, current)
                current = moved
            walks += 1
    assert walks == 1200


def exchange_outcomes(candidate, chunk, rng, draws):
    """Counts of the swapped candidates ``neighbor`` returns, over ``draws``
    exchanges; ADD and REMOVE change the length, so they are skipped."""
    counts = Counter()
    while sum(counts.values()) < draws:
        moved = neighbor(candidate, chunk, rng)
        if len(moved) == len(candidate):
            counts[moved] += 1
    return counts


def test_exchange_distribution_matches_rejection_sampler():
    """Same support as the former rejection sampler's successful swaps, and
    each outcome's frequency within 0.05 of it over 3,000 draws each (the
    standard error of a difference is at most 0.013)."""
    draws = 3000
    rng = random.Random(11)
    compared = 0
    while compared < 12:
        chunk = random_chunk(rng, max_side=5, alphabet=("a", "b", "c"))
        candidate = random_candidate(chunk, rng) if compared % 2 else concat_candidate(chunk)
        if len({ref.version for ref in candidate}) < 2:
            continue
        ours = exchange_outcomes(candidate, chunk, random.Random(rng.getrandbits(64)), draws)
        sampler = random.Random(rng.getrandbits(64))
        theirs = Counter()
        while sum(theirs.values()) < draws:
            swapped = reference_try_exchange(candidate, sampler)
            if swapped is not None:
                theirs[swapped] += 1
        assert set(ours) == set(theirs), candidate
        for outcome in ours:
            assert abs(ours[outcome] - theirs[outcome]) / draws <= 0.05, (candidate, outcome)
        compared += 1
