"""The neighborhood operators draw the same random numbers and return the same
candidates as the straightforward implementation below, whose exchange tries
every position pair and re-checks the whole version order after each trial
swap. The rejection sampler the engine used before is kept as a historical
reference: its successful swaps have the same distribution as the engine's.
The engine returns the same result as a reference loop built on the public
operators, which keeps its ranked list in a heap and builds a fresh move
table for every draw. Candidates are line codes throughout: over a chunk
with ``n1`` v1 lines, code ``r < n1`` is v1 line ``r`` and any other code is
v2 line ``r - n1``."""

import itertools
import random
from collections import Counter
from heapq import heappop, heappush

from conftest import Chunk, checked_draws, draw_neighbor, random_chunk
from hypothesis import given
from hypothesis import strategies as st

from sbcr import search
from sbcr.search import (
    ScoredCandidate,
    SearchParams,
    SearchResult,
    _moves,
    concat_candidate,
    evaluate,
    neighbor,
    random_candidate,
    rrhc_resolve,
)


def reference_order_ok(codes, n1):
    v1 = [r for r in codes if r < n1]
    v2 = [r for r in codes if r >= n1]
    return v1 == sorted(set(v1)) and v2 == sorted(set(v2))


def reference_exchange(candidate, n1, rng):
    legal = []
    for p in range(len(candidate)):
        for q in range(p + 1, len(candidate)):
            swapped = list(candidate)
            swapped[p], swapped[q] = swapped[q], swapped[p]
            if reference_order_ok(swapped, n1):
                legal.append(tuple(swapped))
    return legal[rng.randrange(len(legal))]


def reference_try_exchange(candidate, n1, rng):
    """The engine's former exchange: draw position pairs until one keeps both
    versions in order, giving up (None) after len(candidate)**2 draws."""
    n = len(candidate)
    if n < 2:
        return None
    if len({r < n1 for r in candidate}) < 2:
        return None
    for _ in range(n * n):
        p = rng.randrange(n)
        q = rng.randrange(n)
        if p == q:
            continue
        swapped = list(candidate)
        swapped[p], swapped[q] = swapped[q], swapped[p]
        if reference_order_ok(swapped, n1):
            return tuple(swapped)
    return None


def reference_neighbor(candidate, chunk, rng):
    n1 = len(chunk.v1_lines)
    used = set(candidate)
    unused = [r for r in range(n1 + len(chunk.v2_lines)) if r not in used]
    operators = []
    if unused:
        operators.append("add")
    if candidate:
        operators.append("remove")
    if len(candidate) >= 2 and len({r < n1 for r in candidate}) == 2:
        operators.append("exchange")
    if not operators:
        return candidate
    op = operators[rng.randrange(len(operators))]
    if op == "add":
        r = unused[rng.randrange(len(unused))]
        legal = [s for s in range(len(candidate) + 1) if reference_order_ok(candidate[:s] + (r,) + candidate[s:], n1)]
        slot = rng.randint(legal[0], legal[-1])
        return candidate[:slot] + (r,) + candidate[slot:]
    if op == "remove":
        pos = rng.randrange(len(candidate))
        return candidate[:pos] + candidate[pos + 1 :]
    return reference_exchange(candidate, n1, rng)


def start_candidates(chunk, rng):
    """A random candidate, the v1+v2 concatenation (one legal swap) and each
    one-sided candidate (no exchange applies)."""
    n1 = len(chunk.v1_lines)
    v1_only = tuple(range(n1))
    v2_only = tuple(range(n1, n1 + len(chunk.v2_lines)))
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
                moved = draw_neighbor(current, chunk, ours)
                assert moved == reference_neighbor(current, chunk, theirs), (chunk, current)
                assert ours.getstate() == theirs.getstate(), (chunk, current)
                current = moved
            walks += 1
    assert walks == 1200


def exchange_outcomes(candidate, chunk, rng, draws):
    """Counts of the swapped candidates ``neighbor`` returns, over ``draws``
    exchanges; ADD and REMOVE change the length, so they are skipped."""
    n1 = len(chunk.v1_lines)
    moves = _moves(candidate, n1, n1 + len(chunk.v2_lines))
    counts = Counter()
    while sum(counts.values()) < draws:
        moved = neighbor(candidate, moves, rng)
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
        n1 = len(chunk.v1_lines)
        if len({r < n1 for r in candidate}) < 2:
            continue
        ours = exchange_outcomes(candidate, chunk, random.Random(rng.getrandbits(64)), draws)
        sampler = random.Random(rng.getrandbits(64))
        theirs = Counter()
        while sum(theirs.values()) < draws:
            swapped = reference_try_exchange(candidate, n1, sampler)
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
    """The engine's climb built on the public ``neighbor``, ``random_candidate``
    and ``evaluate``, with a heap for the ranked list and a fresh move table for
    every draw."""
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
                moved = draw_neighbor(current, chunk, rng)
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


@given(chunks_and_candidates(), st.integers(0, 2**64 - 1), st.integers(1, 8))
def test_a_reused_move_table_draws_what_fresh_neighbor_calls_draw(chunk_and_candidate, seed, k):
    """The engine builds one ``_Moves`` table per climb position and draws every
    neighbour of that position from it; the ADD windows it caches between draws
    change no draw. Each draw leaves in ``moves.edit`` the first index at which
    its neighbour differs from the position."""
    chunk, candidate = chunk_and_candidate
    n1 = len(chunk.v1_lines)
    n = n1 + len(chunk.v2_lines)
    moves = _moves(candidate, n1, n)
    assert moves.unused == tuple(sorted(set(range(n)) - set(candidate)))
    cross = [p for p in range(len(candidate) - 1) if (candidate[p] < n1) is not (candidate[p + 1] < n1)]
    assert moves.slots == tuple(cross)
    both_versions = len({r < n1 for r in candidate}) == 2
    assert moves.count == (len(candidate) < n) + (len(candidate) > 0) + both_versions
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(k):
        moved = neighbor(candidate, moves, ours)
        assert moved == draw_neighbor(candidate, chunk, theirs)
        shared = itertools.takewhile(lambda pair: pair[0] == pair[1], zip(moved, candidate))
        assert moves.edit == sum(1 for _ in shared), (candidate, moved)
    assert ours.getstate() == theirs.getstate()


def test_rrhc_matches_reference_engine_on_both_sides_of_the_prefix_state_gate(monkeypatch):
    """Chunks one line short of ``_PREFIX_STATES_LINES`` score every memo miss in
    full, and chunks at it resume from the climb position's prefix states; both
    equal the reference loop, with every drawn candidate checked valid, under
    memo cuts too."""
    real_lcs_length = search.lcs_length
    resumed = Counter()

    def recording_lcs_length(candidate, table, *rest):
        resumed[table.size1 + table.size2, bool(rest) and rest[0] is not None] += 1
        return real_lcs_length(candidate, table, *rest)

    cut = search._PREFIX_STATES_LINES
    rng = random.Random(cut)
    for case in range(80):
        monkeypatch.setattr(search, "_MEMO_LIMIT", (DEFAULT_MEMO_LIMIT, 4, 1)[case % 3])
        lines = cut - case % 2
        n1 = rng.randint(0, lines)
        alphabet = rng.choice([("a", "b"), ("a", "b", "c", "d", "e", "f")])
        chunk = Chunk([rng.choice(alphabet) for _ in range(n1)], [rng.choice(alphabet) for _ in range(lines - n1)])
        params = SearchParams(
            neighbors_per_iteration=rng.randint(1, 6),
            max_stagnation_iterations=rng.randint(1, 8),
            max_evaluations=rng.randint(1, 400),
            top_n=rng.choice([1, 3, 100]),
            seed=rng.getrandbits(64),
        )
        with monkeypatch.context() as patch:
            patch.setattr(search, "lcs_length", recording_lcs_length)
            ours = rrhc_resolve(chunk, params)
        assert ours == reference_rrhc(chunk, params, lambda: 0.0), (case, chunk, params)
        with checked_draws(chunk) as drawn:
            assert rrhc_resolve(chunk, params) == ours, (case, chunk, params)
        assert len(drawn) == ours.evaluations  # one draw finds the budget spent; the start is not drawn
    assert set(resumed) == {(cut - 1, False), (cut, True)}, resumed


# Draw bounds at, just below and just above powers of two, where a bit length or
# redraw test that is off by one takes a different number of generator words.
DRAW_BOUNDS = (1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65)


def bound_positions(m):
    """Climb positions ``(n1, n2, candidate)`` whose move tables hold the bound ``m``:
    all three operators over ``m`` exchange slots and over ``m`` unused codes, ADD and
    REMOVE with one ADD window of span ``m`` and with ``m`` unused codes, ADD alone
    over ``m`` unused codes and REMOVE alone over ``m`` codes. The tables with every
    operator come first: an operator draw that lets its bound through picks EXCHANGE
    there, and a wrong neighbour fails the test, where a table without that operator
    would loop forever on its empty bound."""
    n1, n2 = (m + 2) // 2, (m + 1) // 2  # m + 1 alternating codes, and one v1 line unused
    yield n1 + 1, n2, tuple(i // 2 if i % 2 == 0 else n1 + 1 + i // 2 for i in range(m + 1))
    yield m + 1, 1, (0, m + 1)
    yield m - 1, 1, tuple(range(m - 1))  # the one v2 line may go in any of m slots
    yield m + 1, 0, (0,)
    yield m, 0, ()
    yield m, 0, tuple(range(m))


def test_draws_at_power_of_two_bounds_match_randrange():
    """Every draw bound the move table holds, and the ADD window span, takes each of
    ``DRAW_BOUNDS``; 200 neighbours drawn from each table equal ``reference_neighbor``'s,
    which draws with ``randrange`` and ``randint``, and consume the same generator words."""
    seen = {"count": set(), "unused": set(), "size": set(), "slots": set(), "span": set()}
    rng = random.Random(64)
    for m in DRAW_BOUNDS:
        for n1, n2, candidate in bound_positions(m):
            chunk = Chunk(["a"] * n1, ["b"] * n2)
            moves = _moves(candidate, n1, n1 + n2)
            seed = rng.getrandbits(64)
            ours, theirs = random.Random(seed), random.Random(seed)
            for _ in range(200):
                assert neighbor(candidate, moves, ours) == reference_neighbor(candidate, chunk, theirs), (m, candidate)
            assert ours.getstate() == theirs.getstate(), (m, candidate)
            seen["count"].add(moves.count)
            seen["unused"].add(len(moves.unused))
            seen["size"].add(len(candidate))
            seen["slots"].add(len(moves.slots))
            seen["span"].update(hi - lo + 1 for lo, hi in filter(None, moves.windows))
    assert seen["count"] == {1, 2, 3}
    for name in ("unused", "size", "slots", "span"):
        assert seen[name] >= set(DRAW_BOUNDS), name
