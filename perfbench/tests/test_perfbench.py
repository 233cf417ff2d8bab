"""Tests of the benchmark itself: generators, output checks, timing wrapper, tracer."""

from __future__ import annotations

import functools
import json
from collections import Counter

import checks
import generators
import run
import tracing
import workloads
from sbcr import bench, corpus, parsing, resolvers, router, search


def test_generators_are_deterministic_per_seed():
    assert generators.large_records(3, 4) == generators.large_records(3, 4)
    assert generators.raw_stream(3, 50) == generators.raw_stream(3, 50)
    assert generators.conflicted_files(3, 5) == generators.conflicted_files(3, 5)
    assert generators.large_records(3, 4) != generators.large_records(4, 4)
    assert generators.raw_stream(3, 50).lines != generators.raw_stream(4, 50).lines
    assert generators.conflicted_files(3, 5) != generators.conflicted_files(4, 5)


def test_large_records_trip_the_token_limit_rule():
    records = workloads._records(generators.large_records(1, 6))
    assert len(records) == 6
    for record in records:
        assert router.route(router.extract_features(record)).rule is router.RouteRule.TOKEN_LIMIT


def test_dataset_shapes_reach_every_route():
    accepted, _ = corpus.ingest_records(generators.raw_stream(2, 200).lines)
    rules = Counter(router.route(router.extract_features(r)).rule for r in accepted)
    assert set(rules) == set(router.RouteRule)


def test_ingest_rejects_exactly_what_the_generator_injected():
    stream = generators.raw_stream(5, 400)
    assert sum(stream.injected.values()) > 0
    accepted, rejected = corpus.ingest_records(stream.lines)
    assert checks.rejections(rejected, stream.injected) == []
    assert len(accepted) == stream.valid


def test_generated_files_round_trip():
    for k, file in enumerate(generators.conflicted_files(6, 30)):
        parsed = parsing.parse_conflicted_file(file.text)
        assert len(parsed.chunks) == file.chunks
        assert checks.round_trip(str(k), file.text, parsing.render_with_markers(parsed)) == []


def _candidate(lines):
    return resolvers.ResolutionCandidate(tuple(lines), "test", 0.0, resolvers.Status.OK)


def test_partial_order_check_rejects_a_reordered_version_line():
    chunk = corpus.ConflictRecord("r", "p", "ab", "f", corpus.Language.OTHER, (),
                                  ("a", "b", "c"), ("x", "y"), ())
    assert checks.partial_order([(chunk, _candidate(["a", "x", "b", "y", "c"]))]) == []
    errors = checks.partial_order([(chunk, _candidate(["a", "c", "b", "x"]))])
    assert len(errors) == 1 and errors[0].startswith("r:")


def test_round_trip_check_rejects_a_flipped_byte():
    text = generators.conflicted_files(1, 1)[0].text
    rendered = parsing.render_with_markers(parsing.parse_conflicted_file(text))
    flipped = rendered[:10] + chr(ord(rendered[10]) ^ 1) + rendered[11:]
    assert checks.round_trip("f", text, rendered) == []
    assert checks.round_trip("f", text, flipped) == ["f: render(parse(text)) differs from text at offset 10"]
    assert checks.round_trip("f", text, rendered[:-1]) != []


def test_rejection_check_rejects_a_wrong_count():
    stream = generators.raw_stream(5, 300)
    _, rejected = corpus.ingest_records(stream.lines)
    wrong = dict(stream.injected, malformed=stream.injected["malformed"] + 1)
    assert len(checks.rejections(rejected, wrong)) == 1
    assert len(checks.rejections(rejected[1:], stream.injected)) == 1


def test_comparison_check_rejects_wrong_n_and_p():
    rows_a = [bench.ResultRow(f"c{k}", "a", 1.0, 0.5 + k / 100, 0.0, "ok") for k in range(30)]
    rows_b = [bench.ResultRow(f"c{k}", "b", 1.0, 0.5, 0.0, "ok") for k in range(30)]
    report = bench.compare_results(rows_a, rows_b)
    assert checks.comparison(report, 30) == []
    assert len(checks.comparison(report, 31)) == 1
    broken = type(report)(**{**report.__dict__, "wilcoxon_p": 1.5})
    assert len(checks.comparison(broken, 30)) == 1


def test_same_scores_check_rejects_a_changed_score():
    assert checks.same_scores([0.5, 0.25], [0.5, 0.25], "w") == []
    assert checks.same_scores([0.5, 0.25], [0.5, 0.2500001], "w") != []


class _Fixed:
    resolver_id = "fixed"

    def __init__(self, candidate):
        self.candidate = candidate

    def resolve(self, chunk):
        return self.candidate


class _Raises:
    resolver_id = "raises"

    def resolve(self, chunk):
        raise RuntimeError("boom")


def test_timed_resolver_returns_the_wrapped_candidate_unchanged():
    candidate = _candidate(["a"])
    timed = workloads.TimedResolver(_Fixed(candidate))
    chunk = corpus.ConflictRecord("r", "p", "ab", "f", corpus.Language.OTHER, (), ("a",), (), ("a",))
    assert timed.resolve(chunk) is candidate
    assert len(timed.latencies_ms) == 1 and timed.latencies_ms[0][0] == "r" and timed.latencies_ms[0][1] >= 0.0
    assert timed.take_outputs() == [(chunk, candidate)] and timed.outputs == []


def test_timed_resolver_turns_an_exception_into_a_failed_record():
    timed = workloads.TimedResolver(_Raises())
    chunk = corpus.ConflictRecord("r", "p", "ab", "f", corpus.Language.OTHER, (), ("a",), (), ("a",))
    assert timed.resolve(chunk).status is resolvers.Status.FAILED
    assert timed.exceptions == ["r: RuntimeError('boom')"]


def test_tracer_restores_every_wrapped_callable():
    before = {(owner, attr): vars(tracing._resolve_owner(owner)).get(attr)
              for owner, attr, *_ in tracing.POINTS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert search.neighbor is not before[("sbcr.search", "neighbor")]
        assert "resolve" in vars(resolvers.TrivialResolver)
    finally:
        tracer.uninstall()
    after = {(owner, attr): vars(tracing._resolve_owner(owner)).get(attr)
             for owner, attr, *_ in tracing.POINTS}
    assert after == before
    assert "resolve" not in vars(resolvers.TrivialResolver)
    assert tracer.absent == []


def test_tracer_reports_a_missing_point_as_absent():
    points = tracing.POINTS + (("sbcr.search", "no_such_function", "x", None, None),
                               ("sbcr.no_such_module", "f", "y", None, None))
    tracer = tracing.Tracer(points)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["sbcr.search.no_such_function", "sbcr.no_such_module.f"]


def test_traced_search_spans_share_the_record_id():
    records = workloads._records(generators.large_records(2, 2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("perfbench.pass"):
            rows = bench.run_benchmark(records, resolvers.SearchResolver(search.SearchParams(max_evaluations=30)))
    finally:
        tracer.uninstall()
    assert len(rows) == 2
    by_record = Counter(s.record for s in tracer.spans if s.name == "search.neighbor")
    assert set(by_record) == {r.id for r in records}
    values = tracing.layer_metrics(tracer.spans, 1)
    assert values["search.evaluations"] == 60
    assert values["similarity.metric_calls"] == 4
    assert 0.0 < values["search.distinct_eval_ratio"] <= 1.0
    assert values["search.self_s"] >= 0.0
    ops = sum(values[f"search.op_{op}"] for op in ("add", "remove", "exchange", "unchanged"))
    assert ops == values["search.neighbor_calls"]


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert tracing.tail(list(range(20))) == (0.0, 0.0)
    assert tracing.tail(list(range(21)))[0] == 50.0
    assert tracing.tail(list(range(100)))[0] == 75.0
    assert tracing.tail(list(range(101)))[0] == 90.0
    assert tracing.tail(list(range(1000))) == (95.0, 950)


def test_clear_caches_empties_a_wrapped_sbcr_cache(monkeypatch):
    cached = functools.lru_cache(maxsize=None)(lambda x: x)
    monkeypatch.setattr(search, "probe", functools.wraps(cached)(lambda x: cached(x)), raising=False)
    search.probe(1)
    assert cached.cache_info().currsize == 1
    run.clear_caches()
    assert cached.cache_info().currsize == 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    moves = json.loads((run.HERE / "layers.json").read_text(encoding="utf-8"))["moves"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    computed = set(tracing.layer_metrics([], 1)) | {"trace.overhead_pct", "trace.absent_points",
                                                    "passes.cold_ratio"}
    assert computed == set(run.declared("per_layer")) == set(moves)


def test_end_to_end_values_cover_every_declared_metric_with_and_without_a_timed_resolver():
    phases = {f"piece {k}": 0.001 * (k + 1) for k in range(24)}  # the tail needs ten beyond p50
    results = [workloads.PassResult(24, 24, 0, [0.5, 1.0], dict(phases)) for _ in range(2)]
    timed = workloads.TimedResolver(resolvers.TrivialResolver(resolvers.TrivialStrategy.TAKE_V1))
    timed.latencies_ms = [(f"r{k}", float(k + 1)) for k in range(24)] + [("r23", 0.5)]
    for source in (timed, None):
        values, _ = run.end_to_end_values(results, source, [0.1, 0.2])
        assert set(values) == set(run.declared("end_to_end"))
        assert all(value > 0 for value in values.values())
    assert run.end_to_end_values(results, timed, [0.1])[0]["record_ms_p50"] == 11.5
    assert run.end_to_end_values(results, None, [0.1])[0]["record_ms_p50"] == 12.5
