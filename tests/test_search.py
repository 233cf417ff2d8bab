import itertools
import math
import random
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from conftest import (
    Chunk,
    all_candidates,
    brute_force_optimum,
    checked_draws,
    draw_neighbor,
    exact_best_score,
    lcs_row_dp,
    random_chunk,
)
from hypothesis import example, given
from hypothesis import strategies as st

from sbcr import search
from sbcr.corpus import bundled_sample_path, load_records
from sbcr.search import (
    SearchParams,
    candidate_lines,
    concat_candidate,
    evaluate,
    is_valid_candidate,
    random_candidate,
    rrhc_resolve,
)


def test_evaluate_spec_examples():
    chunk = Chunk(["x"], ["y"])
    assert abs(evaluate((0, 1), chunk) - 2 / 3) < 1e-9  # v1 line 0, then v2 line 0

    chunk = Chunk(["a", "b"], ["c", "d"])
    full_v1 = (0, 1)
    assert evaluate(full_v1, chunk) == 0.5
    assert evaluate((), chunk) == 0.0


def test_evaluate_rejects_invalid_candidates():
    chunk = Chunk(["a"], ["b"])
    with pytest.raises(ValueError):
        evaluate((0, 0), chunk)  # duplicate code
    with pytest.raises(ValueError):
        evaluate((5,), chunk)  # out of range
    with pytest.raises(ValueError):
        evaluate((1, 0), Chunk(["a", "b"], []))  # reordered


def test_evaluate_perfect_score_only_when_versions_equal():
    rng = random.Random(2)
    for _ in range(300):
        chunk = random_chunk(rng, max_side=3)
        score = evaluate(random_candidate(chunk, rng), chunk)
        if score == 1.0:
            assert chunk.v1_lines == chunk.v2_lines


def test_random_candidate_one_sided():
    chunk = Chunk([], ["y"])
    rng = random.Random(0)
    seen = Counter(random_candidate(chunk, rng) for _ in range(10_000))
    assert set(seen) == {(), (0,)}  # v1 is empty, so code 0 is v2 line 0
    assert abs(seen[()] / 10_000 - 0.5) < 0.02


def test_random_candidate_deterministic_per_seed():
    chunk = Chunk(["a", "b", "c"], ["d", "e"])
    assert random_candidate(chunk, random.Random(5)) == random_candidate(chunk, random.Random(5))


def test_random_candidate_uniform_interleaving():
    # conditioned on both lines included, each order should appear half the time
    chunk = Chunk(["a"], ["b"])
    rng = random.Random(9)
    draws = [random_candidate(chunk, rng) for _ in range(40_000)]
    both = [d for d in draws if len(d) == 2]
    assert len(both) >= 9000
    first_v1 = sum(1 for d in both if d[0] == 0)
    assert abs(first_v1 / len(both) - 0.5) < 0.02


class _GridWalk:
    """A stub rng whose ``random()`` replays ``path``, a list of indices into
    the grid ``(k + 0.5) / 6``, and extends it with index 0 past its end. The
    grid splits [0, 1) exactly at 1/2, 1/3 and 2/3, the only thresholds
    ``random_candidate`` draws against on a chunk of at most three lines."""

    def __init__(self, path: list[int]):
        self.path = path
        self.pos = 0

    def random(self) -> float:
        if self.pos == len(self.path):
            self.path.append(0)
        self.pos += 1
        return (self.path[self.pos - 1] + 0.5) / 6


def _exact_distribution(chunk: Chunk) -> Counter:
    """Each candidate ``random_candidate`` can draw, with its exact probability:
    a depth-first walk over every sequence of grid draws it can consume."""
    dist: Counter = Counter()
    path: list[int] = []
    while True:
        dist[random_candidate(chunk, _GridWalk(path))] += Fraction(1, 6 ** len(path))
        while path and path[-1] == 5:
            path.pop()
        if not path:
            return dist
        path[-1] += 1


@pytest.mark.parametrize("sides", [(2, 1), (1, 2)])
def test_random_candidate_exact_distribution(sides):
    """Every subset of the lines has probability exactly 1/8, and every
    interleaving of a subset is equally likely."""
    chunk = Chunk(["a", "b"][: sides[0]], ["c", "d"][: sides[1]])
    dist = _exact_distribution(chunk)
    by_subset: dict[frozenset, list[Fraction]] = {}
    for candidate, p in dist.items():
        by_subset.setdefault(frozenset(candidate), []).append(p)
    assert len(by_subset) == 8
    for subset, probabilities in by_subset.items():
        orders = math.comb(len(subset), sum(r < sides[0] for r in subset))
        assert probabilities == [Fraction(1, 8 * orders)] * orders, subset
    assert set(dist) == set(all_candidates(chunk))


def test_neighbor_empty_candidate_only_addition():
    chunk = Chunk(["a", "b"], ["c"])
    rng = random.Random(1)
    for _ in range(50):
        moved = draw_neighbor((), chunk, rng)
        assert len(moved) == 1
        assert is_valid_candidate(moved, chunk)


def test_neighbor_full_candidate_no_addition():
    chunk = Chunk(["a", "b"], ["c"])
    full = concat_candidate(chunk)
    rng = random.Random(4)
    for _ in range(200):
        moved = draw_neighbor(full, chunk, rng)
        assert moved != full
        assert len(moved) <= len(full)  # removal or exchange, never addition
        assert is_valid_candidate(moved, chunk)


def test_neighbor_no_operator_applicable_returns_input():
    chunk = Chunk([], [])
    assert draw_neighbor((), chunk, random.Random(0)) == ()


def test_neighbor_fuzz_validity():
    rng = random.Random(33)
    for _ in range(20_000):
        chunk = random_chunk(rng, max_side=5)
        current = random_candidate(chunk, rng)
        moved = draw_neighbor(current, chunk, rng)
        assert is_valid_candidate(moved, chunk), (chunk, current, moved)
        assert len(set(moved)) == len(moved)
        if chunk.v1_lines or chunk.v2_lines:
            assert moved != current


@given(
    st.sampled_from([("a",), ("a", "b")]).flatmap(
        lambda alphabet: st.tuples(
            st.lists(st.sampled_from(alphabet), max_size=12),
            st.lists(st.sampled_from(alphabet), max_size=12),
        )
    ),
    st.sampled_from(["random", "concat", "v1", "v2"]),
    st.integers(0, 2**64 - 1),
)
def test_neighbor_walks_stay_valid_and_always_move(sides, start, seed):
    chunk = Chunk(*sides)
    rng = random.Random(seed)
    n1 = len(chunk.v1_lines)
    current = {
        "random": random_candidate(chunk, rng),
        "concat": concat_candidate(chunk),
        "v1": tuple(range(n1)),
        "v2": tuple(range(n1, n1 + len(chunk.v2_lines))),
    }[start]
    for _ in range(30):
        moved = draw_neighbor(current, chunk, rng)
        assert is_valid_candidate(moved, chunk), (chunk, current, moved)
        assert len(set(moved)) == len(moved)
        if chunk.v1_lines or chunk.v2_lines:
            assert moved != current
        else:
            assert moved == current
        current = moved


def eval_params(**kwargs) -> SearchParams:
    defaults = dict(neighbors_per_iteration=5, max_stagnation_iterations=10, max_evaluations=2000, seed=0)
    defaults.update(kwargs)
    return SearchParams(**defaults)


def test_rrhc_identical_versions_reaches_perfect_score():
    result = rrhc_resolve(Chunk(["x"], ["x"]), eval_params(max_evaluations=50))
    assert result.best_score == 1.0
    assert candidate_lines(result.best, Chunk(["x"], ["x"])) == ["x"]


def test_rrhc_single_evaluation_returns_concat():
    chunk = Chunk(["a"], ["b"])
    result = rrhc_resolve(chunk, eval_params(max_evaluations=1))
    assert result.best == concat_candidate(chunk)
    assert result.evaluations == 1
    assert result.ranked[0].candidate == result.best


def test_rrhc_rejects_empty_chunk_and_bad_params():
    with pytest.raises(ValueError):
        rrhc_resolve(Chunk([], []), eval_params())
    with pytest.raises(ValueError):
        SearchParams(neighbors_per_iteration=0, max_evaluations=10)
    with pytest.raises(ValueError):
        SearchParams(max_stagnation_iterations=0, max_evaluations=10)
    with pytest.raises(ValueError):
        SearchParams(max_evaluations=0)
    with pytest.raises(ValueError):
        SearchParams(top_n=0, max_evaluations=1)
    with pytest.raises(ValueError, match="seed"):
        SearchParams(seed=-1, max_evaluations=1)
    with pytest.raises(ValueError):
        SearchParams(max_execution_time=-1.0)
    with pytest.raises(ValueError):
        SearchParams(max_execution_time=5.0, max_evaluations=10)
    with pytest.raises(ValueError):
        SearchParams()  # no budget at all


@pytest.mark.parametrize("value", [0, -1, True, 1.5, 3.0, math.nan])
@pytest.mark.parametrize("name", ["neighbors_per_iteration", "max_stagnation_iterations", "top_n", "max_evaluations"])
def test_search_params_refuse_each_count_below_one(name, value):
    """Each count is checked in one place: an int, and at least 1. A float budget never
    equals the evaluation count, so its search never ended, and a float ``top_n`` or
    neighbour count raised ``TypeError`` midway; like the CLI's config check, a bool is
    not an int here."""
    with pytest.raises(ValueError, match=f"{name} must be an int >= 1"):
        SearchParams(**{"max_evaluations": 10, name: value})


@pytest.mark.parametrize(
    "name, value",
    [("seed", 0.5), ("seed", 1e19), ("seed", True), ("max_execution_time", True), ("max_execution_time", "5")],
)
def test_search_params_reject_a_seed_or_time_budget_of_the_wrong_type(name, value):
    """A float seed seeded the generator from its hash and ``True`` ran as seed 1; a bool
    time budget ran as one second, and a string one raised ``TypeError``."""
    budget = {} if name == "max_execution_time" else {"max_evaluations": 10}
    with pytest.raises(ValueError, match=name):
        SearchParams(**budget, **{name: value})


@pytest.mark.parametrize("seconds", [math.inf, math.nan])
def test_search_params_reject_a_non_finite_time_budget(seconds):
    """An infinite budget never ends a search, and a NaN one ends it after one evaluation."""
    with pytest.raises(ValueError, match="finite"):
        SearchParams(max_execution_time=seconds)


def test_rrhc_deterministic_bit_for_bit():
    rng = random.Random(6)
    for _ in range(10):
        chunk = random_chunk(rng, max_side=4)
        params = eval_params(seed=rng.randrange(2**32), max_evaluations=500)
        first = rrhc_resolve(chunk, params)
        second = rrhc_resolve(chunk, params)
        assert first == second


def test_rrhc_best_monotone_in_budget():
    # an evaluation-budget run is a prefix of a longer run with the same seed
    rng = random.Random(8)
    for _ in range(10):
        chunk = random_chunk(rng, max_side=4)
        seed = rng.randrange(2**32)
        scores = [
            rrhc_resolve(chunk, eval_params(seed=seed, max_evaluations=n)).best_score
            for n in (1, 10, 100, 1000)
        ]
        assert scores == sorted(scores)


def test_rrhc_score_bounded_by_brute_force():
    rng = random.Random(13)
    for _ in range(20):
        chunk = random_chunk(rng, max_side=3)
        result = rrhc_resolve(chunk, eval_params(seed=rng.randrange(2**32), max_evaluations=300))
        assert result.best_score <= brute_force_optimum(chunk) + 1e-12


def test_rrhc_ranked_list_sorted_and_deduplicated():
    chunk = Chunk(["a", "b", "a"], ["b", "a"])
    result = rrhc_resolve(chunk, eval_params(max_evaluations=3000, top_n=20))
    scores = [entry.score for entry in result.ranked]
    assert scores == sorted(scores, reverse=True)
    assert len(result.ranked) <= 20
    candidates = [entry.candidate for entry in result.ranked]
    assert len(set(candidates)) == len(candidates)
    assert result.ranked[0].candidate == result.best
    assert result.ranked[0].score == result.best_score


@pytest.mark.parametrize("top_n", [1, 100])
def test_rrhc_ranked_head_is_best(top_n):
    """``bench.tune_grid`` scores the best candidate as ``ranked[0]``."""
    rng = random.Random(top_n)
    for _ in range(30):
        chunk = random_chunk(rng, max_side=6, alphabet=("a", "b"))
        params = eval_params(seed=rng.getrandbits(32), max_evaluations=rng.randint(1, 400), top_n=top_n)
        result = rrhc_resolve(chunk, params)
        assert result.ranked[0] == (result.best, result.best_score)


@pytest.mark.parametrize("memo_limit", [search._MEMO_LIMIT, 4, 2, 1])
@pytest.mark.parametrize("top_n", [1, 3, 100])
def test_rrhc_ranked_is_top_n_distinct_scored_in_discovery_order(monkeypatch, top_n, memo_limit):
    """``ranked`` is the ``top_n`` best distinct candidates scored, ties in discovery order."""
    monkeypatch.setattr(search, "_MEMO_LIMIT", memo_limit)
    rng = random.Random(40 + top_n)
    for _ in range(25):
        chunk = random_chunk(rng, max_side=5, alphabet=("a", "b", "c"))
        params = eval_params(
            seed=rng.getrandbits(32),
            max_evaluations=rng.randint(1, 400),
            max_stagnation_iterations=rng.randint(1, 6),
            top_n=top_n,
        )
        with checked_draws(chunk) as drawn:
            result = rrhc_resolve(chunk, params)
        scored = [concat_candidate(chunk), *drawn[:-1]]  # the last draw found the budget spent
        assert result.evaluations == len(scored)
        distinct = list(dict.fromkeys(scored))
        by_score = sorted(((c, evaluate(c, chunk)) for c in distinct), key=lambda entry: -entry[1])
        assert result.ranked == tuple(by_score[:top_n])


def test_rrhc_validity_closure_debug_mode():
    """Every neighbour and restart candidate the engine draws is valid."""
    rng = random.Random(21)
    restarts = 0
    for _ in range(5):
        chunk = random_chunk(rng, max_side=4)
        with checked_draws(chunk) as drawn:
            restarts += rrhc_resolve(chunk, eval_params(seed=1, max_evaluations=2000)).restarts
        assert len(drawn) == 2000
    assert restarts > 0  # so random_candidate's draws were checked too


def search_on_fake_clock(chunk, params, ticks, timeout=30.0):
    """``rrhc_resolve`` under a time budget, with ``next(ticks)`` as its clock,
    run on a daemon thread: an engine that never reads its clock never ends,
    and fails the test after ``timeout`` seconds rather than hanging the run."""
    outcome = []  # the result, or what the search raised

    def search_in_thread():
        try:
            outcome.append(rrhc_resolve(chunk, params, clock=lambda: next(ticks)))
        except Exception as exc:  # re-raised below, on the test's own thread
            outcome.append(exc)

    worker = threading.Thread(target=search_in_thread, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"the search did not end within {timeout} s: the engine does not read its clock"
    if isinstance(outcome[0], Exception):
        raise outcome[0]
    return outcome[0]


def test_rrhc_time_budget_with_fake_clock():
    params = SearchParams(
        neighbors_per_iteration=2, max_stagnation_iterations=3, max_execution_time=10.0, seed=0
    )
    result = search_on_fake_clock(Chunk(["a", "b"], ["c"]), params, iter(range(1000)))
    assert result.elapsed >= 10.0
    assert result.evaluations > 0


def test_rrhc_restarts_counted():
    # a chunk whose landscape has immediate plateaus forces restarts quickly
    result = rrhc_resolve(Chunk([], ["y"]), eval_params(max_evaluations=500, max_stagnation_iterations=2))
    assert result.restarts > 0
    assert result.best_score == 0.5


def test_the_engine_draws_through_the_operators_the_benchmark_traces(monkeypatch):
    """The benchmark's tracer wraps ``search.neighbor`` and ``search.random_candidate``
    and tells a neighbour's operator from its first argument and its result, so the
    engine calls both through the module globals, ``neighbor`` with the code tuple
    of the climb's current position first, and its own move table second: the
    table's fields and the ADD windows its draws cached are that position's."""
    chunk = Chunk(["a", "b", "c", "d"], ["a", "x", "c", "y"])
    params = eval_params(max_evaluations=600, max_stagnation_iterations=3, seed=5)
    real_neighbor, real_random_candidate = search.neighbor, search.random_candidate
    calls = []  # ("neighbor", candidate, result) and ("restart", result), in call order

    def fields(moves):
        return moves.n1, moves.count, moves.shift, moves.unused, moves.slots

    def recording_neighbor(candidate, moves, rng):
        assert fields(moves) == fields(search._moves(candidate, 4, 8))
        for r, window in zip(moves.unused, moves.windows):
            assert window in (None, search._window(candidate, r, 4)), (candidate, r)
        moved = real_neighbor(candidate, moves, rng)
        calls.append(("neighbor", candidate, moved))
        return moved

    def recording_random_candidate(*args):
        assert len(args) == 2 and args[0] is chunk and type(args[1]) is random.Random
        drawn = real_random_candidate(*args)
        calls.append(("restart", drawn))
        return drawn

    monkeypatch.setattr(search, "neighbor", recording_neighbor)
    monkeypatch.setattr(search, "random_candidate", recording_random_candidate)
    result = rrhc_resolve(chunk, params)
    # Each iteration draws neighbors_per_iteration neighbours of one position: the
    # concatenation first, then the last restart, or the position or one of the
    # neighbours of the iteration before.
    allowed = {concat_candidate(chunk)}
    ops = Counter()
    drawn = 0
    for call in calls:
        if call[0] == "restart":
            allowed = {call[1]}
            continue
        _, candidate, moved = call
        assert type(candidate) is tuple and all(type(r) is int for r in candidate), candidate
        if drawn % params.neighbors_per_iteration == 0:
            assert candidate in allowed, (drawn, candidate)
            position, allowed = candidate, {candidate}
        assert candidate == position, drawn
        allowed.add(moved)
        drawn += 1
        grown = len(moved) - len(candidate)
        ops["add" if grown > 0 else "remove" if grown < 0 else "exchange" if moved != candidate else "unchanged"] += 1
    assert drawn > 0 and min(ops["add"], ops["remove"], ops["exchange"]) > 0 and ops["unchanged"] == 0, ops
    assert sum(call[0] == "restart" for call in calls) == result.restarts > 0


def test_rrhc_evaluation_budget_never_reads_the_clock(monkeypatch):
    def no_clock():
        raise AssertionError("an evaluation-budget search read the wall clock")

    monkeypatch.setattr("sbcr.search.time.monotonic", no_clock)
    result = rrhc_resolve(Chunk(["a", "b", "c"], ["a", "x", "c"]), eval_params(max_evaluations=500))
    assert result.elapsed == 0.0
    assert result.evaluations == 500


def test_rrhc_memo_limit_changes_no_result(monkeypatch):
    rng = random.Random(31)
    cases = [
        (random_chunk(rng, max_side=8), eval_params(seed=rng.randrange(2**32), max_evaluations=400))
        for _ in range(8)
    ]
    scored = 0
    real_lcs = search.lcs_length

    def counting_lcs(*args):
        nonlocal scored
        scored += 1
        return real_lcs(*args)

    monkeypatch.setattr(search, "lcs_length", counting_lcs)
    default = [rrhc_resolve(chunk, params) for chunk, params in cases]
    scored_default, scored = scored, 0
    monkeypatch.setattr(search, "_MEMO_LIMIT", 4)
    assert [rrhc_resolve(chunk, params) for chunk, params in cases] == default
    assert scored > scored_default  # the emptied memo rescored candidates it had seen


def length_only(candidate, table, states=None, edit=0):
    """A stand-in objective, half the candidate's length for each parent. It
    grows ``states`` as far as ``search.lcs_length`` would, with zeros."""
    if states is not None:
        states.extend([0] * (edit + 1 - len(states)))
    return len(candidate) // 2, len(candidate) // 2


def test_rrhc_memory_stays_bounded_under_a_wall_clock_budget(monkeypatch):
    """A long wall-clock search holds at most the ranked list and _MEMO_LIMIT
    more memo entries. The objective is a length-only stand-in: the memo and
    the heap hold candidates, not lines, and tracemalloc would make the real
    LCS about fifteen times slower."""
    monkeypatch.setattr(search, "_MEMO_LIMIT", 64)
    monkeypatch.setattr(search, "lcs_length", length_only)
    rng = random.Random(30)
    words = [f"line {i}" for i in range(12)]
    chunk = Chunk([rng.choice(words) for _ in range(30)], [rng.choice(words) for _ in range(30)])
    params = SearchParams(max_execution_time=4001.0, seed=3)
    tracemalloc.start()
    try:
        result = search_on_fake_clock(chunk, params, itertools.count())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluations >= 20_000
    assert peak < 1 << 20, peak  # about 0.5 MB; an uncut memo reaches about 5.5 MB here


def test_rrhc_memo_cap_counts_codes_on_a_long_chunk(monkeypatch):
    """On a chunk of n lines the memo holds at most _MEMO_CODES // n entries
    beyond the ranked list, however high _MEMO_LIMIT is, and each entry holds
    at most n codes. The objective is the same length-only stand-in."""
    cap = 64
    monkeypatch.setattr(search, "_MEMO_CODES", 600 * cap)
    monkeypatch.setattr(search, "lcs_length", length_only)
    rng = random.Random(30)
    words = [f"line {i}" for i in range(40)]
    chunk = Chunk([rng.choice(words) for _ in range(300)], [rng.choice(words) for _ in range(300)])
    params = SearchParams(max_execution_time=2001.0, top_n=1, seed=3)
    tracemalloc.start()
    try:
        result = search_on_fake_clock(chunk, params, itertools.count())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluations >= 10_000
    entry = sys.getsizeof(tuple(range(600)))  # the longest candidate
    # about 0.33 MB, 0.18 MB of it outside the memo; capped by _MEMO_LIMIT alone the memo reaches about 26 MB
    assert peak < (params.top_n + cap) * entry + (256 << 10), peak


@st.composite
def objective_cases(draw):
    """A chunk over 1-4 distinct lines, each side empty or up to 70 lines so the
    parent masks cross the 30- and 64-bit widths, and a valid candidate of it:
    the empty one, the concatenation or a seeded random one."""
    line = st.sampled_from(["a;", "b;", "}", ""][: draw(st.integers(1, 4))])
    side = st.integers(0, 70).flatmap(lambda n: st.lists(line, min_size=n, max_size=n))
    chunk = Chunk(draw(side), draw(side))
    kind = draw(st.sampled_from(["empty", "concat", "random"]))
    if kind == "empty":
        return chunk, ()
    if kind == "concat":
        return chunk, concat_candidate(chunk)
    return chunk, random_candidate(chunk, random.Random(draw(st.integers(0, 2**64 - 1))))


@given(objective_cases())
def test_masked_objective_equals_row_dp(case):
    """The engine's objective, an LCS over per-chunk match masks, against the
    row DP on the candidate's text."""
    chunk, candidate = case
    lines = candidate_lines(candidate, chunk)
    commons = (lcs_row_dp(lines, chunk.v1_lines), lcs_row_dp(lines, chunk.v2_lines))
    assert search.lcs_length(candidate, search._table(chunk)) == commons
    ratios = []
    for parent, common in zip((chunk.v1_lines, chunk.v2_lines), commons):
        total = len(lines) + len(parent)
        ratios.append(1.0 if total == 0 else 2.0 * common / total)
    assert evaluate(candidate, chunk) == (ratios[0] + ratios[1]) / 2.0


def one_edit_neighbours(candidate, chunk):
    """Every candidate one ADD, REMOVE or EXCHANGE away from ``candidate``, with
    the index of its edit: the ADD slot, the REMOVE position or the EXCHANGE's
    first position. Built by trying every edit, not from the engine's tables."""
    n = len(chunk.v1_lines) + len(chunk.v2_lines)
    for r in sorted(set(range(n)) - set(candidate)):
        for slot in range(len(candidate) + 1):
            yield candidate[:slot] + (r,) + candidate[slot:], slot
    for pos in range(len(candidate)):
        yield candidate[:pos] + candidate[pos + 1 :], pos
    for p in range(len(candidate) - 1):
        yield candidate[:p] + (candidate[p + 1], candidate[p]) + candidate[p + 2 :], p


@given(objective_cases())
def test_resumed_objective_equals_row_dp_on_every_one_edit_neighbour(case):
    """A neighbour's pass resumed from its position's prefix states at the edit
    index, whether the states were all recorded or are recorded up to that index
    by the pass itself, against the row DP on the neighbour's text."""
    chunk, candidate = case
    table = search._table(chunk)
    states = [table.full]
    search.lcs_length(candidate, table, states, len(candidate))
    assert len(states) == len(candidate) + 1
    recorded = list(states)
    resumed = 0
    for moved, edit in one_edit_neighbours(candidate, chunk):
        if not is_valid_candidate(moved, chunk):
            continue
        lines = candidate_lines(moved, chunk)
        commons = (lcs_row_dp(lines, chunk.v1_lines), lcs_row_dp(lines, chunk.v2_lines))
        assert search.lcs_length(moved, table, states, edit) == commons, (moved, edit)
        assert states == recorded  # a pass reads the recorded states and does not change them
        fresh = [table.full]
        assert search.lcs_length(moved, table, fresh, edit) == commons, (moved, edit)
        assert fresh == recorded[: edit + 1]
        resumed += 1
    n = len(chunk.v1_lines) + len(chunk.v2_lines)
    assert resumed > 0 or n == 0


_GUARD_SIZES = (0, 1, 29, 30, 31, 59, 60, 61, 63, 64, 65)


@pytest.mark.parametrize("size1", _GUARD_SIZES)
def test_one_pass_objective_keeps_the_parents_apart(size1):
    """Both sides repeat one line, so every candidate line matches every parent
    line and each step carries as far as it can; with the guard bit on and around
    CPython's 30-bit digit edges and the 64-bit width, both fields of the one
    pass still equal the row DP against each parent alone."""
    rng = random.Random(size1)
    for size2 in _GUARD_SIZES:
        chunk = Chunk(["x;"] * size1, ["x;"] * size2)
        table = search._table(chunk)
        candidates = [(), concat_candidate(chunk)] + [random_candidate(chunk, rng) for _ in range(4)]
        for candidate in candidates:
            lines = candidate_lines(candidate, chunk)
            assert search.lcs_length(candidate, table) == (
                lcs_row_dp(lines, chunk.v1_lines),
                lcs_row_dp(lines, chunk.v2_lines),
            ), (size1, size2, candidate)


_SMALL_SIDE = st.lists(st.sampled_from(["a", "b", "c"]), max_size=4)
SMALL_CHUNKS = st.builds(Chunk, _SMALL_SIDE, _SMALL_SIDE)


@st.composite
def code_tuples(draw):
    """A chunk of up to 4 lines a side and a tuple of codes: one of its candidates
    as it is, with a code repeated, with two codes swapped or with a code out of
    range put in, or any short tuple of codes in and around its range."""
    chunk = draw(SMALL_CHUNKS)
    n = len(chunk.v1_lines) + len(chunk.v2_lines)
    kind = draw(st.sampled_from(["candidate", "repeat", "swap", "outside", "any"]))
    if kind == "any":
        return chunk, tuple(draw(st.lists(st.integers(-2, n + 1), max_size=n + 2)))
    codes = list(draw(st.sampled_from(list(all_candidates(chunk)))))
    if kind == "repeat" and codes:
        codes.insert(draw(st.integers(0, len(codes))), draw(st.sampled_from(codes)))
    elif kind == "swap" and len(codes) > 1:
        i, j = draw(st.lists(st.integers(0, len(codes) - 1), min_size=2, max_size=2, unique=True))
        codes[i], codes[j] = codes[j], codes[i]
    elif kind == "outside":
        codes.insert(draw(st.integers(0, len(codes))), draw(st.sampled_from([-2, -1, n, n + 1])))
    return chunk, tuple(codes)


@example((Chunk(["a"], ["b"]), (0, 0)))  # a repeated code
@example((Chunk(["a", "b"], ["c"]), (1, 2, 0)))  # v1 codes out of order
@example((Chunk(["a"], ["b", "c"]), (2, 0, 1)))  # v2 codes out of order
@example((Chunk(["a"], ["b"]), (0, 2)))  # past the last line
@example((Chunk(["a"], ["b"]), (-1, 1)))  # below the first line
@given(code_tuples())
def test_a_code_tuple_is_valid_exactly_when_it_is_a_candidate(case):
    chunk, codes = case
    assert is_valid_candidate(codes, chunk) is (codes in set(all_candidates(chunk)))


@given(SMALL_CHUNKS)
def test_exact_optimum_equals_brute_force(chunk):
    """The DP oracle against enumerating every candidate (at most 1,921 at 4 lines a side)."""
    assert exact_best_score(chunk.v1_lines, chunk.v2_lines) == brute_force_optimum(chunk)


@given(SMALL_CHUNKS.filter(lambda chunk: chunk.v1_lines or chunk.v2_lines), st.integers(0, 2**32 - 1), st.integers(1, 300))
def test_rrhc_best_score_is_its_best_and_never_beats_the_exact_optimum(chunk, seed, budget):
    result = rrhc_resolve(chunk, eval_params(seed=seed, max_evaluations=budget))
    assert result.best_score == evaluate(result.best, chunk)
    assert result.best_score <= exact_best_score(chunk.v1_lines, chunk.v2_lines)


@pytest.fixture(scope="module")
def sample_optima():
    records, _ = load_records(bundled_sample_path())
    return [(record, exact_best_score(record.v1_lines, record.v2_lines)) for record in records]


@pytest.mark.parametrize("seed", [0, 1])
def test_rrhc_reaches_the_exact_optimum_on_every_sample_record(sample_optima, seed):
    """Search quality at the CLI's default budget, which the golden hash pins only by accident."""
    assert len(sample_optima) == 50
    for record, optimum in sample_optima:
        assert rrhc_resolve(record, eval_params(seed=seed, max_evaluations=2000)).best_score == optimum, record.id
