"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import dataclasses
import itertools
import math
import random
import time

import numpy as np
from conftest import (
    Chunk,
    achievable_sequences,
    brute_force_optimum,
    draw_neighbor,
    lcs_oracle,
    make_conflicted_file,
    random_chunk,
)

from sbcr.bench import run_benchmark, tune_grid
from sbcr.cli import main
from sbcr.corpus import bundled_sample_path, load_records, preserves_partial_order
from sbcr.parsing import parse_conflicted_file, render_resolved, render_with_markers
from sbcr.resolvers import (
    SearchResolver,
    Status,
    StubGenerativeResolver,
    TokenLimits,
    TrivialResolver,
    TrivialStrategy,
)
from sbcr.router import RouteRule, RouteTarget, RouteThresholds, extract_features, hybrid_resolve, route
from sbcr.search import SearchParams, is_valid_candidate, random_candidate, rrhc_resolve
from sbcr.similarity import Granularity, lcs_length, similarity
from sbcr.stats import cles, wilcoxon_signed_rank


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_c1_brute_force_optimality():
    started = time.monotonic()
    rng = random.Random(1001)
    params = SearchParams(
        neighbors_per_iteration=5, max_stagnation_iterations=10, max_evaluations=20_000
    )
    hits = 0
    runs = 200
    for i in range(runs):
        chunk = random_chunk(rng, max_side=4, alphabet=("a", "b", "c", "a"))  # duplicates likely
        result = rrhc_resolve(chunk, dataclasses.replace(params, seed=i))
        if abs(result.best_score - brute_force_optimum(chunk)) <= 1e-12:
            hits += 1
    elapsed = time.monotonic() - started
    ok = hits >= 0.95 * runs and elapsed < 60.0
    report("C1 brute-force optimality", ok, f"{hits}/{runs} optimal, {elapsed:.1f}s")
    assert hits >= 0.95 * runs
    assert elapsed < 60.0


def test_c2_operator_soundness_fuzz():
    rng = random.Random(2002)
    violations = 0
    for _ in range(100_000):
        chunk = random_chunk(rng, max_side=5)
        current = random_candidate(chunk, rng)
        moved = draw_neighbor(current, chunk, rng)
        if not is_valid_candidate(moved, chunk) or len(set(moved)) != len(moved):
            violations += 1
    report("C2 operator soundness fuzz", violations == 0, f"{violations} violations in 100000")
    assert violations == 0


def test_c3_similarity_oracle():
    rng = random.Random(3003)
    exact = all(
        lcs_length(a, b) == lcs_oracle(a, b)
        for a, b in (
            (
                [rng.choice("abcd") for _ in range(rng.randint(0, 12))],
                [rng.choice("abcd") for _ in range(rng.randint(0, 12))],
            )
            for _ in range(1000)
        )
    )
    sym_ok = True
    for _ in range(10_000):
        a = [rng.choice("abc") for _ in range(rng.randint(0, 6))]
        b = [rng.choice("abc") for _ in range(rng.randint(0, 6))]
        g = rng.choice([Granularity.LINE, Granularity.CHAR])
        s = similarity(a, b, g)
        if s != similarity(b, a, g) or not 0.0 <= s <= 1.0:
            sym_ok = False
            break
    report("C3 similarity oracle", exact and sym_ok)
    assert exact
    assert sym_ok


def test_c4_statistics_oracles():
    rng = random.Random(4004)

    def enumeration_oracle(diffs):
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

    exact_ok = True
    for _ in range(30):
        n = rng.randint(1, 12)
        diffs = [rng.choice([-2, -1, -0.5, 0.5, 1, 2]) for _ in range(n)] + [0.0]
        if abs(wilcoxon_signed_rank(diffs) - enumeration_oracle(diffs)) > 1e-12:
            exact_ok = False
            break

    np_rng = np.random.default_rng(4004)
    diffs200 = np.round(np_rng.normal(0.06, 0.4, size=200), 3)
    diffs200 = diffs200[diffs200 != 0.0]
    values = np.abs(diffs200)
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
    w_obs = ranks[diffs200 > 0].sum()
    signs = np_rng.integers(0, 2, size=(100_000, len(diffs200)))
    w = signs @ ranks
    p_mc = min(1.0, 2.0 * min(float((w <= w_obs).mean()), float((w >= w_obs).mean())))
    p_normal = wilcoxon_signed_rank(list(diffs200))
    approx_ok = abs(p_normal - p_mc) < 0.02

    def cles_oracle(a, b):
        wins = sum(1 for x in a for y in b if x > y)
        ties = sum(1 for x in a for y in b if x == y)
        return (wins + 0.5 * ties) / (len(a) * len(b))

    a100 = [rng.choice([0.0, 0.2, 0.5, 0.8, 1.0, rng.random()]) for _ in range(100)]
    b100 = [rng.choice([0.0, 0.2, 0.5, 0.8, 1.0, rng.random()]) for _ in range(100)]
    cles_ok = cles(a100, b100) == cles_oracle(a100, b100)

    complement_ok = True
    for _ in range(300):
        a = [rng.choice([0, 1, 2, rng.random()]) for _ in range(rng.randint(1, 50))]
        b = [rng.choice([0, 1, 2, rng.random()]) for _ in range(rng.randint(1, 50))]
        if cles(a, b) + cles(b, a) != 1.0:
            complement_ok = False
            break

    ok = exact_ok and approx_ok and cles_ok and complement_ok
    report(
        "C4 statistics oracles",
        ok,
        f"exact={exact_ok} approx|p-pmc|={abs(p_normal - p_mc):.4f} cles={cles_ok} complement={complement_ok}",
    )
    assert exact_ok
    assert approx_ok
    assert cles_ok
    assert complement_ok


LISTING1_V2 = [
    "",
    "",
    "    /**",
    "     * For testing",
    "     */",
    "    ChronicleMapBuilder<K, V> forceReplicatedImpl() {",
    "        this.forceReplicatedImpl = true;",
    "        return this;",
    "    }",
    "",
    "    @Override",
]


def test_c5_parser_round_trip():
    rng = random.Random(5005)
    round_trip_ok = all(
        render_with_markers(parse_conflicted_file(text)) == text
        for text in (make_conflicted_file(rng) for _ in range(50))
    )

    listing = (
        "class ChronicleMapBuilder<K, V> {\n"
        + "<<<<<<<\n"
        + "=======\n"
        + "\n".join(LISTING1_V2)
        + "\n"
        + ">>>>>>>\n"
        + "}\n"
    )
    parsed = parse_conflicted_file(listing)
    chunk = parsed.chunks[0]
    listing_ok = chunk.v1_lines == [] and len(chunk.v2_lines) == 11
    resolved = render_resolved(parsed, [["    @Override"]])
    resolved_ok = resolved == "class ChronicleMapBuilder<K, V> {\n    @Override\n}\n"

    ok = round_trip_ok and listing_ok and resolved_ok
    report("C5 parser round-trip", ok, f"roundtrip={round_trip_ok} listing={listing_ok} resolved={resolved_ok}")
    assert round_trip_ok
    assert listing_ok
    assert resolved_ok


def test_c6_shuffle_recognition_oracle():
    rng = random.Random(6006)
    cases = 0
    mismatches = 0
    while cases < 5000:
        n1 = rng.randint(0, 4)
        n2 = rng.randint(0, min(4, 7 - n1))
        v1 = [rng.choice("ab") for _ in range(n1)]
        v2 = [rng.choice("ab") for _ in range(n2)]
        reachable = achievable_sequences(v1, v2)
        ordered = sorted(reachable)
        for _ in range(4):
            if rng.random() < 0.5 and ordered:
                probe = list(rng.choice(ordered))
            else:
                probe = [rng.choice("ab") for _ in range(rng.randint(0, n1 + n2))]
            if preserves_partial_order(probe, v1, v2) != (tuple(probe) in reachable):
                mismatches += 1
            cases += 1
    report("C6 shuffle-recognition oracle", mismatches == 0, f"{cases} cases, {mismatches} mismatches")
    assert mismatches == 0


def _token_line(count: int) -> str:
    return " ".join(["tok"] * count)


def test_c7_router_conformance():
    matrix = [
        # (chunk, expected target, expected rule)
        (Chunk([_token_line(301)], []), RouteTarget.SEARCH, RouteRule.TOKEN_LIMIT),
        (Chunk([_token_line(300)], []), RouteTarget.GENERATIVE, RouteRule.DEFAULT),  # at limit: NOT TokenLimit
        (Chunk([_token_line(150), _token_line(151)], []), RouteTarget.SEARCH, RouteRule.TOKEN_LIMIT),
        (Chunk([_token_line(200)], [], base_lines=[_token_line(101)]), RouteTarget.SEARCH, RouteRule.TOKEN_LIMIT),
        (Chunk(["// コメント dominates"], []), RouteTarget.SEARCH, RouteRule.NON_ENGLISH),
        (Chunk(["a" * 19 + "é"], []), RouteTarget.GENERATIVE, RouteRule.DEFAULT),  # exactly at tau: NOT NonEnglish
        (Chunk(["é" * 10, "x"], ["y"]), RouteTarget.SEARCH, RouteRule.NON_ENGLISH),  # language before balance
        (Chunk([_token_line(301) + " é"], []), RouteTarget.SEARCH, RouteRule.TOKEN_LIMIT),  # size before language
        (Chunk(["a;", "b;"], ["c;", "d;"]), RouteTarget.SEARCH, RouteRule.BALANCED),
        (Chunk(["a;", "b;", "c;"], ["d;", "e;"]), RouteTarget.SEARCH, RouteRule.BALANCED),  # |0.2| == beta
        (Chunk(["a;", "b;", "c;", "d;", "e;"], ["f;", "g;", "h;"]), RouteTarget.GENERATIVE, RouteRule.DEFAULT),  # 0.25 > beta
        (Chunk([], ["only;", "one;", "side;"]), RouteTarget.GENERATIVE, RouteRule.DEFAULT),
    ]
    thresholds = RouteThresholds()
    table_ok = True
    for chunk, target, rule in matrix:
        decision = route(extract_features(chunk), thresholds)
        if decision.target is not target or decision.rule is not rule:
            table_ok = False
            break
    boundary = extract_features(Chunk([_token_line(300)], []))
    boundary_ok = boundary.token_estimate == 300 and route(boundary, thresholds).rule is not RouteRule.TOKEN_LIMIT
    above = extract_features(Chunk([_token_line(301)], []))
    above_ok = above.token_estimate == 301 and route(above, thresholds).rule is RouteRule.TOKEN_LIMIT

    search = SearchResolver(SearchParams(max_evaluations=300, seed=0))
    imbalanced = Chunk(["keep;"], ["keep;", "more lines;", "and more;"])
    fallback_ok = True
    for mode in ("empty", "truncate", "garbage"):
        stub = StubGenerativeResolver(mode, limits=TokenLimits(output_limit=1))
        candidate = hybrid_resolve(imbalanced, search, stub, thresholds)
        if stub.calls != 1 or candidate.resolver_id != "generative→search-fallback" or not candidate.lines:
            fallback_ok = False
            break

    stub = StubGenerativeResolver("echo-v1")
    oversized = Chunk([_token_line(400)], ["x"])
    hybrid_resolve(oversized, search, stub, thresholds)
    no_call_ok = stub.calls == 0

    ok = table_ok and boundary_ok and above_ok and fallback_ok and no_call_ok
    report(
        "C7 router conformance",
        ok,
        f"table={table_ok} at300={boundary_ok} at301={above_ok} fallback={fallback_ok} zerocalls={no_call_ok}",
    )
    assert table_ok
    assert boundary_ok and above_ok
    assert fallback_ok
    assert no_call_ok


def test_c8_end_to_end_determinism(tmp_path):
    sample = str(bundled_sample_path())
    outputs = []
    for name in ("one.jsonl", "two.jsonl"):
        out = tmp_path / name
        code = main(
            ["bench", sample, "--engine", "sbcr", "--seed", "7", "--max-evals", "5000", "--out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]

    records, _ = load_records(bundled_sample_path())
    params = SearchParams(
        neighbors_per_iteration=5, max_stagnation_iterations=10, max_evaluations=5000, seed=7
    )
    sbcr_rows = run_benchmark(records, SearchResolver(params))
    mean_sbcr = sum(r.sim_char for r in sbcr_rows) / len(sbcr_rows)
    trivial_means = {}
    for strategy in TrivialStrategy:
        rows = run_benchmark(records, TrivialResolver(strategy))
        trivial_means[strategy.value] = sum(r.sim_char for r in rows) / len(rows)
    best_trivial = max(trivial_means.values())
    beats_trivial = mean_sbcr >= best_trivial

    ok = identical and beats_trivial
    report(
        "C8 end-to-end determinism",
        ok,
        f"byte-identical={identical} sbcr={mean_sbcr:.4f} best-trivial={best_trivial:.4f}",
    )
    assert identical
    assert beats_trivial


def test_c9_tuning_table_shape():
    records, _ = load_records(bundled_sample_path())
    sample = records[:20]
    grid = [
        SearchParams(
            neighbors_per_iteration=k,
            max_stagnation_iterations=s,
            max_evaluations=b,
            top_n=50,
        )
        for k in (2, 5)
        for b in (200, 600)
        for s in (5, 10)
    ]
    rows = tune_grid(sample, grid, seed=21)
    shape_ok = len(rows) == 8
    sorted_ok = all(rows[i].avg_similarity >= rows[i + 1].avg_similarity for i in range(len(rows) - 1))
    columns_ok = all(
        isinstance(row.top1_count, int)
        and isinstance(row.avg_ranking, float)
        and isinstance(row.avg_similarity, float)
        and isinstance(row.avg_time, float)
        for row in rows
    )
    consistent_ok = True
    for row in rows:
        bench_rows = run_benchmark(sample, SearchResolver(row.params))
        expected = sum(r.sim_char for r in bench_rows) / len(bench_rows)
        if not math.isclose(row.avg_similarity, expected, abs_tol=1e-9):
            consistent_ok = False
            break
    ok = shape_ok and sorted_ok and columns_ok and consistent_ok
    report(
        "C9 tuning table shape",
        ok,
        f"rows={len(rows)} sorted={sorted_ok} columns={columns_ok} consistent={consistent_ok}",
    )
    assert shape_ok
    assert sorted_ok
    assert columns_ok
    assert consistent_ok
