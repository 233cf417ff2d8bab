"""The neighborhood operators draw the same random numbers and return the same
candidates as the straightforward implementation below, whose exchange tries
every position pair and re-checks the whole version order after each trial
swap. The rejection sampler the engine used before is kept as a historical
reference: its successful swaps have the same distribution as the engine's.
The engine, which climbs on int-coded candidates, returns the same result as
a reference loop that climbs on ``SourceLineRef`` tuples through the public
operators."""

import itertools
import random
from collections import Counter
from heapq import heappop, heappush

from conftest import Chunk, random_chunk
from hypothesis import given
from hypothesis import strategies as st

from sbcr import search
from sbcr.search import (
    ScoredCandidate,
    SearchParams,
    SearchResult,
    SourceLineRef,
    Version,
    _decode,
    _draw,
    _encode,
    _moves,
    concat_candidate,
    evaluate,
    neighbor,
    random_candidate,
    rrhc_resolve,
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
        legal = [s for s in range(len(candidate) + 1) if reference_order_ok(candidate[:s] + (ref,) + candidate[s:])]
        slot = rng.randint(legal[0], legal[-1])
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


DEFAULT_MEMO_LIMIT = search._MEMO_LIMIT


class _Spent(Exception):
    pass


def reference_rrhc(chunk, params, clock):
    """The engine's climb as it stood on ``SourceLineRef`` tuples, built on the
    public ``neighbor``, ``random_candidate`` and ``evaluate``."""
    rng = random.Random(params.seed)
    heap = []
    scores = {}
    start = clock()
    evaluations = 0
    restarts = 0

    def evaluate_budgeted(candidate):
        nonlocal evaluations, scores
        if evaluations == params.max_evaluations:
            raise _Spent
        evaluations += 1
        score = scores.get(candidate)
        if score is None:
            score = evaluate(candidate, chunk)
            if len(scores) - len(heap) >= search._MEMO_LIMIT:
                scores = {ranked: s for s, _, ranked in heap}
            scores[candidate] = score
            heappush(heap, (score, -evaluations, candidate))
            if len(heap) > params.top_n:
                heappop(heap)
        return score

    current = concat_candidate(chunk)
    stagnation = 0
    try:
        current_score = evaluate_budgeted(current)
        while params.max_execution_time is None or clock() - start < params.max_execution_time:
            best_neighbor, best_neighbor_score = None, -1.0
            for _ in range(params.neighbors_per_iteration):
                moved = neighbor(current, chunk, rng)
                score = evaluate_budgeted(moved)
                if score > best_neighbor_score:
                    best_neighbor, best_neighbor_score = moved, score
            if best_neighbor_score > current_score:
                current, current_score = best_neighbor, best_neighbor_score
                stagnation = 0
            else:
                stagnation += 1
            if stagnation >= params.max_stagnation_iterations:
                restarts += 1
                stagnation = 0
                current = random_candidate(chunk, rng)
                current_score = evaluate_budgeted(current)
    except _Spent:
        pass
    return SearchResult(
        ranked=tuple(ScoredCandidate(candidate, s) for s, _, candidate in sorted(heap, reverse=True)),
        evaluations=evaluations,
        restarts=restarts,
        elapsed=clock() - start,
    )


def test_rrhc_matches_reference_engine(monkeypatch):
    """300 seeded chunks under evaluation budgets and fake-clock wall budgets,
    every ``top_n`` regime, with the score memo at its default size and cut
    down to 4, 2 and 1 entries; 1 cuts at almost every miss."""
    rng = random.Random(77)
    budgets = Counter()
    for case in range(300):
        monkeypatch.setattr(search, "_MEMO_LIMIT", (DEFAULT_MEMO_LIMIT, 4, 2, 1)[case % 4])
        alphabet = rng.choice([("a", "b"), ("a", "b", "c", "d")])
        chunk = random_chunk(rng, max_side=rng.choice([3, 6, 12]), alphabet=alphabet)
        common = dict(
            neighbors_per_iteration=rng.randint(1, 6),
            max_stagnation_iterations=rng.randint(1, 8),
            top_n=rng.choice([1, 3, 100]),
            seed=rng.getrandbits(64),
        )
        if rng.random() < 0.5:
            params = SearchParams(max_evaluations=rng.randint(1, 400), **common)
            ours = rrhc_resolve(chunk, params)
            theirs = reference_rrhc(chunk, params, lambda: 0.0)
            budgets["evaluations"] += 1
        else:
            params = SearchParams(max_execution_time=float(rng.randint(1, 60)), **common)
            ours = rrhc_resolve(chunk, params, clock=itertools.count().__next__)
            theirs = reference_rrhc(chunk, params, itertools.count().__next__)
            budgets["wall"] += 1
        assert ours == theirs, (case, chunk, params)
    assert min(budgets.values()) > 100


@st.composite
def chunks_and_candidates(draw):
    """A chunk over a two-line alphabet and a seeded random candidate of it."""
    side = st.lists(st.sampled_from(["a", "b"]), max_size=10)
    chunk = Chunk(draw(side), draw(side))
    return chunk, random_candidate(chunk, random.Random(draw(st.integers(0, 2**64 - 1))))


@given(chunks_and_candidates(), st.integers(0, 2**64 - 1))
def test_coding_round_trips_and_neighbor_is_the_coded_core(chunk_and_candidate, seed):
    chunk, candidate = chunk_and_candidate
    n1 = len(chunk.v1_lines)
    n = n1 + len(chunk.v2_lines)
    refs = concat_candidate(chunk)
    coded = _encode(candidate, n1)
    assert _decode(coded, refs) == candidate
    assert all(type(r) is int and 0 <= r < n for r in coded)
    ours, theirs = random.Random(seed), random.Random(seed)
    assert neighbor(candidate, chunk, ours) == _decode(_draw(_moves(coded, n1, n), theirs.getrandbits), refs)
    assert ours.getstate() == theirs.getstate()


@given(chunks_and_candidates(), st.integers(0, 2**64 - 1), st.integers(1, 8))
def test_a_reused_move_table_draws_what_fresh_neighbor_calls_draw(chunk_and_candidate, seed, k):
    """The engine builds one ``_Moves`` table per climb position and draws every
    neighbour of that position from it; the table keeps no state between draws."""
    chunk, candidate = chunk_and_candidate
    n1 = len(chunk.v1_lines)
    n = n1 + len(chunk.v2_lines)
    coded = _encode(candidate, n1)
    moves = _moves(coded, n1, n)
    assert moves.unused == tuple(sorted(set(range(n)) - set(coded)))
    cross = [p for p in range(len(candidate) - 1) if candidate[p].version is not candidate[p + 1].version]
    assert moves.slots == tuple(cross)
    both_versions = len({ref.version for ref in candidate}) == 2
    assert moves.count == (len(coded) < n) + (len(coded) > 0) + both_versions
    refs = concat_candidate(chunk)
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(k):
        assert _decode(neighbor(coded, moves, ours), refs) == neighbor(candidate, chunk, theirs)
    assert ours.getstate() == theirs.getstate()
