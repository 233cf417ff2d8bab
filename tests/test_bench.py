import json
import math
import random
from fractions import Fraction

import pytest

from sbcr.bench import (
    ComparisonReport,
    ResultRow,
    compare_results,
    read_result_rows,
    run_benchmark,
    tune_grid,
)
from sbcr.corpus import ConflictRecord, Language, load_records, bundled_sample_path
from sbcr.resolvers import Resolver, SearchResolver, TrivialResolver, TrivialStrategy
from sbcr.search import SearchParams, no_clock
from sbcr.similarity import Granularity, similarity


def record(id="r1", v1=("a", "b"), v2=("c",), resolution=("a", "c", "b"), commit="ab12") -> ConflictRecord:
    return ConflictRecord(
        id=id,
        project="proj",
        commit_hash=commit,
        file_path="f.java",
        language=Language.JAVA,
        base_lines=(),
        v1_lines=tuple(v1),
        v2_lines=tuple(v2),
        resolution_lines=tuple(resolution),
    )


class ConstantResolver(Resolver):
    """Always returns the same lines; used to pin benchmark row values."""

    clock = staticmethod(no_clock)

    def __init__(self, lines, resolver_id="constant"):
        self.lines = list(lines)
        self.resolver_id = resolver_id

    def _generate(self, chunk):
        return self.lines


def test_run_benchmark_take_v1_perfect_when_resolution_is_v1():
    records = [record(id="x", v1=("k",), v2=("m",), resolution=("k",))]
    rows = run_benchmark(records, TrivialResolver(TrivialStrategy.TAKE_V1))
    assert rows[0].sim_char == 1.0
    assert rows[0].sim_line == 1.0
    assert rows[0].status == "ok"


def test_run_benchmark_balance_needs_no_routing_features(monkeypatch):
    import sbcr.router

    def no_tokens(lines):
        raise AssertionError("a result row needs only the two side lengths")

    monkeypatch.setattr(sbcr.router, "estimate_tokens", no_tokens)
    records, _ = load_records(bundled_sample_path())
    rows = run_benchmark(records, TrivialResolver(TrivialStrategy.TAKE_V1))
    assert len(rows) == 50
    by_id = {r.id: r for r in records}
    for row in rows:
        n1, n2 = len(by_id[row.conflict_id].v1_lines), len(by_id[row.conflict_id].v2_lines)
        assert row.balance == (n1 - n2) / (n1 + n2)


def test_run_benchmark_empty_resolver_scores_zero():
    records = [record(id=f"r{i}") for i in range(3)]
    rows = run_benchmark(records, ConstantResolver([]))
    assert all(row.sim_char == 0.0 and row.sim_line == 0.0 for row in rows)
    assert all(row.status == "empty" for row in rows)


def test_run_benchmark_rows_sorted_and_parallel_identical():
    records = [record(id=f"r{i:02d}", v1=(f"a{i}", "b"), resolution=(f"a{i}", "c", "b")) for i in range(12)]
    rng = random.Random(0)
    shuffled = records[:]
    rng.shuffle(shuffled)
    serial = run_benchmark(shuffled, ConstantResolver(["a3", "b"]))
    parallel = run_benchmark(shuffled, ConstantResolver(["a3", "b"]), jobs=4)
    assert serial == parallel
    assert [row.conflict_id for row in serial] == sorted(row.conflict_id for row in serial)


def test_run_benchmark_carries_balance():
    rows = run_benchmark([record(v1=("a", "b", "c"), v2=("d",), resolution=("a",))], ConstantResolver(["a"]))
    assert rows[0].balance == 0.5


def test_result_rows_round_trip(tmp_path):
    rows = run_benchmark([record()], ConstantResolver(["a", "c", "b"]))
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(row.to_json()) + "\n" for row in rows), encoding="utf-8")
    assert read_result_rows(path) == rows


def sample_records(n=20):
    records, rejects = load_records(bundled_sample_path())
    assert not rejects
    return records[:n]


def grid_params(k, evals, stagnation):
    return SearchParams(
        neighbors_per_iteration=k,
        max_stagnation_iterations=stagnation,
        max_evaluations=evals,
        top_n=50,
    )


def test_tune_grid_sorted_and_consistent_with_benchmark():
    records = sample_records(8)
    grid = [grid_params(3, 200, 5), grid_params(5, 400, 10)]
    rows = tune_grid(records, grid, seed=11)
    assert len(rows) == 2
    assert rows[0].avg_similarity >= rows[1].avg_similarity
    for row in rows:
        bench_rows = run_benchmark(records, SearchResolver(row.params))
        expected = sum(r.sim_char for r in bench_rows) / len(bench_rows)
        assert math.isclose(row.avg_similarity, expected, abs_tol=1e-9)
        assert 0 <= row.top1_count <= len(records)
        assert 1.0 <= row.avg_ranking <= row.params.top_n + 1


def test_tune_grid_single_eval_budget_scores_concat_seed():
    from sbcr.search import concat_candidate, candidate_lines

    records = sample_records(5)
    rows = tune_grid(records, [grid_params(2, 1, 5)], seed=3)
    expected = sum(
        similarity(candidate_lines(concat_candidate(r), r), r.resolution_lines, Granularity.CHAR)
        for r in records
    ) / len(records)
    assert math.isclose(rows[0].avg_similarity, expected, abs_tol=1e-12)


def test_tune_grid_ranking_modes():
    records = sample_records(6)
    best_sim = tune_grid(records, [grid_params(3, 300, 5)], seed=2, ranking="best-similarity")
    exact = tune_grid(records, [grid_params(3, 300, 5)], seed=2, ranking="exact-match")
    assert best_sim[0].avg_similarity == exact[0].avg_similarity
    assert best_sim[0].avg_ranking <= exact[0].avg_ranking


def test_tune_grid_rejects_empty_inputs():
    with pytest.raises(ValueError):
        tune_grid([], [grid_params(1, 10, 5)], seed=0)
    with pytest.raises(ValueError):
        tune_grid(sample_records(2), [], seed=0)


def test_tune_grid_refuses_jobs_before_any_search(monkeypatch):
    """tune_grid runs records one after another; it once ran them on threads that split each search's budget."""
    searched = []
    monkeypatch.setattr("sbcr.bench.rrhc_resolve", lambda *args: searched.append(args))
    with pytest.raises(ValueError, match="jobs"):
        tune_grid(sample_records(2), [grid_params(1, 10, 5)], seed=0, jobs=2)
    assert searched == []


def rows_from(sims_a, sims_b, balances=None):
    balances = balances or [0.0] * len(sims_a)
    rows_a = [
        ResultRow(f"c{i:03d}", "alpha", s, s, 0.0, "ok", balance=b)
        for i, (s, b) in enumerate(zip(sims_a, balances))
    ]
    rows_b = [
        ResultRow(f"c{i:03d}", "beta", s, s, 0.0, "ok", balance=b)
        for i, (s, b) in enumerate(zip(sims_b, balances))
    ]
    return rows_a, rows_b


def test_compare_identical_rows():
    rows_a, rows_b = rows_from([0.5, 0.9, 1.0], [0.5, 0.9, 1.0])
    report = compare_results(rows_a, rows_b)
    assert (report.wins_a, report.wins_b, report.ties) == (0, 0, 3)
    assert report.cles_a_over_b == 0.5
    assert all(diff == 0.0 for _, diff in report.sim_diff)
    assert report.wilcoxon_p == 1.0


def test_compare_hand_computed_report():
    sims_a = [1.0, 0.8, 0.6, 0.4, 0.9]
    sims_b = [0.9, 0.8, 0.7, 0.2, 0.9]
    balances = [0.05, -0.5, 0.5, 0.95, -0.95]
    rows_a, rows_b = rows_from(sims_a, sims_b, balances)
    report = compare_results(rows_a, rows_b, m=2)
    assert report.n == 5
    assert (report.wins_a, report.wins_b, report.ties) == (2, 1, 2)
    # a wins on c000 (+0.1) and c003 (+0.2); b wins on c002 (-0.1)
    assert report.extremes_a == ("c003", "c000")
    assert report.extremes_b == ("c002", "c001")
    assert sum(sum(v) for v in report.balance_histogram.values()) == 5
    # c003 (balance 0.95, a-wins) lands in the last bucket
    assert report.balance_histogram["a_wins"][19] == 1
    assert report.balance_histogram["b_wins"][15] == 1
    assert report.resolver_a == "alpha" and report.resolver_b == "beta"


def test_compare_names_a_mixed_set_by_all_its_resolver_ids():
    """A hybrid set used to be named by its first row's id, so a set of sbcr, remote and
    fallback rows could be reported as "remote"."""
    ids = ["remote", "sbcr", "generative→search-fallback", "sbcr"]
    rows_a = [ResultRow(f"c{i}", rid, 0.5, 0.5, 0.0, "ok") for i, rid in enumerate(ids)]
    rows_b = [ResultRow(f"c{i}", "beta", 0.5, 0.5, 0.0, "ok") for i in range(len(ids))]
    report = compare_results(rows_a, rows_b)
    assert report.resolver_a == "generative→search-fallback+remote+sbcr"
    assert report.resolver_b == "beta"


def test_compare_antisymmetry():
    rng = random.Random(71)
    sims_a = [round(rng.random(), 3) for _ in range(40)]
    sims_b = [round(rng.random(), 3) for _ in range(40)]
    balances = [rng.uniform(-1, 1) for _ in range(40)]
    rows_a, rows_b = rows_from(sims_a, sims_b, balances)
    ab = compare_results(rows_a, rows_b)
    ba = compare_results(rows_b, rows_a)
    assert (ab.wins_a, ab.wins_b) == (ba.wins_b, ba.wins_a)
    assert ab.ties == ba.ties
    assert ab.cles_a_over_b + ba.cles_a_over_b == 1.0
    assert ab.wilcoxon_p == pytest.approx(ba.wilcoxon_p, abs=1e-15)
    assert [(c, -d) for c, d in ab.sim_diff] == list(ba.sim_diff)
    assert ab.extremes_a == ba.extremes_b
    assert ab.balance_histogram["a_wins"] == ba.balance_histogram["b_wins"]


def test_compare_rejects_mismatched_ids():
    rows_a, _ = rows_from([0.5], [0.5])
    _, rows_b = rows_from([0.5, 0.6], [0.5, 0.6])
    with pytest.raises(ValueError, match="c001"):
        compare_results(rows_a, rows_b)


def test_compare_of_two_empty_sets_says_there_is_nothing_to_compare():
    with pytest.raises(ValueError, match="^no conflicts to compare$"):
        compare_results([], [])


def test_compare_histogram_counts_sum_to_n():
    rng = random.Random(5)
    sims_a = [rng.random() for _ in range(30)]
    sims_b = [rng.random() for _ in range(30)]
    balances = [rng.uniform(-1, 1) for _ in range(30)]
    report = compare_results(*rows_from(sims_a, sims_b, balances))
    assert sum(sum(v) for v in report.balance_histogram.values()) == 30


def test_every_small_chunk_balance_lands_in_the_bucket_its_edges_name():
    """For every chunk of up to 200 lines, the bucket's low edge is at or below its balance
    and the next edge above it (the last bucket keeps 1.0). Edges compare as exact decimals:
    (-0.9 + 1.0) * 10 is 0.9999999999999998 in floats, which once filed -0.9 and -0.8 one low."""
    pairs = [(n1, n2) for n1 in range(201) for n2 in range(201 - n1) if n1 + n2]
    report = compare_results(*rows_from([1.0] * len(pairs), [0.0] * len(pairs), [(n1 - n2) / (n1 + n2) for n1, n2 in pairs]))
    lows = [Fraction(str(edge)) for edge in report.to_json()["balance_histogram"]["bucket_low_edges"]]
    expected = [0] * len(lows)
    for n1, n2 in pairs:
        expected[max(i for i, low in enumerate(lows) if low <= Fraction(n1 - n2, n1 + n2))] += 1
    assert list(report.balance_histogram["a_wins"]) == expected


def test_comparison_report_json_shape():
    rows_a, rows_b = rows_from([0.5, 1.0], [0.6, 1.0])
    doc = compare_results(rows_a, rows_b).to_json()
    assert doc["n"] == 2
    assert len(doc["balance_histogram"]["bucket_low_edges"]) == 20
    assert {"resolver_a", "resolver_b", "wilcoxon_p", "cles_a_over_b", "sim_diff"} <= set(doc)


def test_compare_rejects_a_negative_extremes_count():
    """A negative count would slice off the last ids instead of keeping the first."""
    rows_a, rows_b = rows_from([0.5, 0.9, 1.0], [0.6, 0.9, 0.8])
    assert compare_results(rows_a, rows_b, m=0).extremes_a == ()
    with pytest.raises(ValueError):
        compare_results(rows_a, rows_b, m=-1)
