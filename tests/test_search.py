import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from conftest import Chunk, brute_force_optimum, lcs_row_dp, random_chunk
from hypothesis import given
from hypothesis import strategies as st

from sbcr import search
from sbcr.search import (
    SearchParams,
    SourceLineRef,
    Version,
    _below,
    candidate_lines,
    concat_candidate,
    evaluate,
    is_valid_candidate,
    neighbor,
    random_candidate,
    rrhc_resolve,
)


def ref(version: int, index: int) -> SourceLineRef:
    return SourceLineRef(Version.V1 if version == 1 else Version.V2, index)


def test_evaluate_spec_examples():
    chunk = Chunk(["x"], ["y"])
    assert abs(evaluate((ref(1, 0), ref(2, 0)), chunk) - 2 / 3) < 1e-9

    chunk = Chunk(["a", "b"], ["c", "d"])
    full_v1 = (ref(1, 0), ref(1, 1))
    assert evaluate(full_v1, chunk) == 0.5
    assert evaluate((), chunk) == 0.0


def test_evaluate_rejects_invalid_candidates():
    chunk = Chunk(["a"], ["b"])
    with pytest.raises(ValueError):
        evaluate((ref(1, 0), ref(1, 0)), chunk)  # duplicate ref
    with pytest.raises(ValueError):
        evaluate((ref(1, 5),), chunk)  # out of range
    with pytest.raises(ValueError):
        evaluate((ref(1, 1), ref(1, 0)), Chunk(["a", "b"], []))  # reordered


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
    assert set(seen) == {(), (ref(2, 0),)}
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
    first_v1 = sum(1 for d in both if d[0].version is Version.V1)
    assert abs(first_v1 / len(both) - 0.5) < 0.02


def test_neighbor_empty_candidate_only_addition():
    chunk = Chunk(["a", "b"], ["c"])
    rng = random.Random(1)
    for _ in range(50):
        moved = neighbor((), chunk, rng)
        assert len(moved) == 1
        assert is_valid_candidate(moved, chunk)


def test_neighbor_full_candidate_no_addition():
    chunk = Chunk(["a", "b"], ["c"])
    full = concat_candidate(chunk)
    rng = random.Random(4)
    for _ in range(200):
        moved = neighbor(full, chunk, rng)
        assert moved != full
        assert len(moved) <= len(full)  # removal or exchange, never addition
        assert is_valid_candidate(moved, chunk)


def test_neighbor_no_operator_applicable_returns_input():
    chunk = Chunk([], [])
    assert neighbor((), chunk, random.Random(0)) == ()


def test_neighbor_fuzz_validity():
    rng = random.Random(33)
    for _ in range(20_000):
        chunk = random_chunk(rng, max_side=5)
        current = random_candidate(chunk, rng)
        moved = neighbor(current, chunk, rng)
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
    current = {
        "random": random_candidate(chunk, rng),
        "concat": concat_candidate(chunk),
        "v1": tuple(ref(1, i) for i in range(len(chunk.v1_lines))),
        "v2": tuple(ref(2, j) for j in range(len(chunk.v2_lines))),
    }[start]
    for _ in range(30):
        moved = neighbor(current, chunk, rng)
        assert is_valid_candidate(moved, chunk), (chunk, current, moved)
        assert len(set(moved)) == len(moved)
        if chunk.v1_lines or chunk.v2_lines:
            assert moved != current
        else:
            assert moved == current
        current = moved


def test_below_draws_exactly_as_randrange_and_randint():
    # powers of two and their neighbours, plus sizes past one 32-bit generator word
    sizes = [1, 2, 3] + [2**e + d for e in (2, 3, 5, 8, 16, 31, 32, 33) for d in (-1, 0, 1)]
    sizes += [2**32 + 1, 2**40]
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        lo = seed - 100
        for n in sizes:
            assert _below(ours.getrandbits, n) == theirs.randrange(n), (seed, n)
            assert lo + _below(ours.getrandbits, n) == theirs.randint(lo, lo + n - 1), (seed, n)
            assert ours.getstate() == theirs.getstate(), (seed, n)


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
        SearchParams(max_execution_time=-1.0)
    with pytest.raises(ValueError):
        SearchParams(max_execution_time=5.0, max_evaluations=10)
    with pytest.raises(ValueError):
        SearchParams()  # no budget at all


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


@pytest.mark.parametrize("memo_limit", [search._MEMO_LIMIT, 4])
@pytest.mark.parametrize("top_n", [1, 3, 100])
def test_rrhc_ranked_is_top_n_distinct_scored_in_discovery_order(monkeypatch, top_n, memo_limit):
    """``ranked`` is the ``top_n`` best distinct candidates scored, ties in discovery order."""
    monkeypatch.setattr(search, "_MEMO_LIMIT", memo_limit)
    real_is_valid = search.is_valid_candidate
    scored = []

    def recording_is_valid(candidate, chunk):
        scored.append(candidate)
        return real_is_valid(candidate, chunk)

    monkeypatch.setattr(search, "is_valid_candidate", recording_is_valid)
    rng = random.Random(40 + top_n)
    for _ in range(25):
        chunk = random_chunk(rng, max_side=5, alphabet=("a", "b", "c"))
        params = eval_params(
            seed=rng.getrandbits(32),
            max_evaluations=rng.randint(1, 400),
            max_stagnation_iterations=rng.randint(1, 6),
            top_n=top_n,
        )
        scored.clear()
        result = rrhc_resolve(chunk, params, check_invariants=True)
        distinct = list(dict.fromkeys(scored))  # snapshot: evaluate below also calls is_valid_candidate
        assert result.evaluations == len(scored)
        by_score = sorted(((c, evaluate(c, chunk)) for c in distinct), key=lambda entry: -entry[1])
        assert result.ranked == tuple(by_score[:top_n])


def test_rrhc_validity_closure_debug_mode():
    rng = random.Random(21)
    for _ in range(5):
        chunk = random_chunk(rng, max_side=4)
        rrhc_resolve(chunk, eval_params(seed=1, max_evaluations=2000), check_invariants=True)


def test_rrhc_time_budget_with_fake_clock():
    ticks = iter(range(1000))
    params = SearchParams(
        neighbors_per_iteration=2, max_stagnation_iterations=3, max_execution_time=10.0, seed=0
    )
    result = rrhc_resolve(Chunk(["a", "b"], ["c"]), params, clock=lambda: next(ticks))
    assert result.elapsed >= 10.0
    assert result.evaluations > 0


def test_rrhc_restarts_counted():
    # a chunk whose landscape has immediate plateaus forces restarts quickly
    result = rrhc_resolve(Chunk([], ["y"]), eval_params(max_evaluations=500, max_stagnation_iterations=2))
    assert result.restarts > 0
    assert result.best_score == 0.5


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

    def counting_lcs(a, b):
        nonlocal scored
        scored += 1
        return real_lcs(a, b)

    monkeypatch.setattr(search, "lcs_length", counting_lcs)
    default = [rrhc_resolve(chunk, params) for chunk, params in cases]
    scored_default, scored = scored, 0
    monkeypatch.setattr(search, "_MEMO_LIMIT", 4)
    assert [rrhc_resolve(chunk, params) for chunk, params in cases] == default
    assert scored > scored_default  # the emptied memo rescored candidates it had seen


def test_rrhc_memory_stays_bounded_under_a_wall_clock_budget(monkeypatch):
    """A long wall-clock search holds at most the ranked list and _MEMO_LIMIT
    more memo entries. The objective is a length-only stand-in: the memo and
    the heap hold candidates, not lines, and tracemalloc would make the real
    LCS about fifteen times slower."""
    monkeypatch.setattr(search, "_MEMO_LIMIT", 64)
    monkeypatch.setattr(search, "lcs_length", lambda a, b: len(a) // 2)
    rng = random.Random(30)
    words = [f"line {i}" for i in range(12)]
    chunk = Chunk([rng.choice(words) for _ in range(30)], [rng.choice(words) for _ in range(30)])
    params = SearchParams(max_execution_time=4001.0, seed=3)
    ticks = itertools.count()
    tracemalloc.start()
    try:
        result = rrhc_resolve(chunk, params, clock=lambda: next(ticks))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluations >= 20_000
    assert peak < 1 << 20, peak  # about 0.5 MB; an uncut memo reaches about 5.5 MB here


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
    coded = search._encode(candidate, len(chunk.v1_lines))
    ratios = []
    for parent, table in zip((chunk.v1_lines, chunk.v2_lines), search._parents(chunk)):
        common = lcs_row_dp(lines, parent)
        assert search.lcs_length(coded, table) == common
        total = len(lines) + len(parent)
        ratios.append(1.0 if total == 0 else 2.0 * common / total)
    assert evaluate(candidate, chunk) == (ratios[0] + ratios[1]) / 2.0
