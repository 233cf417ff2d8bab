"""The neighborhood operators draw the same random numbers and return the same
candidates as the straightforward rejection-sampling implementation below,
which re-checks the whole version order after every trial swap."""

import random

from conftest import random_chunk

from sbcr.search import (
    SourceLineRef,
    Version,
    _addition_window,
    _try_exchange,
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


def reference_try_exchange(candidate, rng):
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
    while operators:
        op = operators[rng.randrange(len(operators))]
        if op == "add":
            ref = unused[rng.randrange(len(unused))]
            lo, hi = _addition_window(candidate, ref)
            slot = rng.randint(lo, hi)
            return candidate[:slot] + (ref,) + candidate[slot:]
        if op == "remove":
            pos = rng.randrange(len(candidate))
            return candidate[:pos] + candidate[pos + 1 :]
        swapped = reference_try_exchange(candidate, rng)
        if swapped is not None:
            return swapped
        operators.remove("exchange")
    return candidate


def start_candidates(chunk, rng):
    """A random candidate, the v1+v2 concatenation (one boundary, so exchanges
    often give up) and each one-sided candidate (no exchange applies)."""
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


def test_try_exchange_matches_reference_including_give_ups():
    rng = random.Random(7)
    give_ups = 0
    for _ in range(400):
        chunk = random_chunk(rng, max_side=8, alphabet=("a", "b", "c"))
        if not chunk.v1_lines or not chunk.v2_lines:
            continue
        for candidate in (concat_candidate(chunk), random_candidate(chunk, rng)):
            if len({ref.version for ref in candidate}) < 2:
                continue
            seed = rng.getrandbits(64)
            ours, theirs = random.Random(seed), random.Random(seed)
            swapped = _try_exchange(candidate, ours)
            assert swapped == reference_try_exchange(candidate, theirs), candidate
            assert ours.getstate() == theirs.getstate(), candidate
            give_ups += swapped is None
    assert give_ups > 0  # the n*n cap was reached and consumed the same draws
