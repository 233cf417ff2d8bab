import pytest
from conftest import Chunk

from sbcr.resolvers import SearchResolver, Status, StubGenerativeResolver, TokenLimits
from sbcr.router import (
    FALLBACK_RESOLVER_ID,
    ConflictFeatures,
    RouteRule,
    RouteTarget,
    RouteThresholds,
    extract_features,
    hybrid_resolve,
    route,
)
from sbcr.search import SearchParams


def test_extract_features_balance():
    assert extract_features(Chunk(["a", "b", "c"], ["d"])).balance == 0.5
    assert extract_features(Chunk([], [])).balance == 0.0
    assert extract_features(Chunk([], [])).token_estimate == 0
    assert extract_features(Chunk(["x"], ["y"])).balance == 0.0
    assert extract_features(Chunk([], ["y"])).balance == -1.0


def test_extract_features_non_ascii():
    assert extract_features(Chunk(["plain ascii"], ["more ascii"])).non_ascii_fraction == 0.0
    features = extract_features(Chunk(["é"], []))
    assert features.non_ascii_fraction == 1.0
    half = extract_features(Chunk(["aé"], []))
    assert abs(half.non_ascii_fraction - 0.5) < 1e-12


def test_extract_features_token_estimate_includes_base():
    with_base = extract_features(Chunk(["x = 1"], ["y = 2"], base_lines=["z = 3"]))
    without = extract_features(Chunk(["x = 1"], ["y = 2"]))
    assert with_base.token_estimate > without.token_estimate


def features(tokens=10, balance=0.0, non_ascii=0.0) -> ConflictFeatures:
    return ConflictFeatures(token_estimate=tokens, balance=balance, non_ascii_fraction=non_ascii)


# rule table: first match wins, order is size -> language -> balance -> default
ROUTE_MATRIX = [
    (features(tokens=400), RouteTarget.SEARCH, RouteRule.TOKEN_LIMIT),
    (features(tokens=301), RouteTarget.SEARCH, RouteRule.TOKEN_LIMIT),
    (features(tokens=300, balance=0.9), RouteTarget.GENERATIVE, RouteRule.DEFAULT),  # boundary: at limit is fine
    (features(tokens=300, balance=0.0), RouteTarget.SEARCH, RouteRule.BALANCED),
    (features(tokens=301, balance=0.9, non_ascii=1.0), RouteTarget.SEARCH, RouteRule.TOKEN_LIMIT),
    (features(non_ascii=0.06, balance=0.9), RouteTarget.SEARCH, RouteRule.NON_ENGLISH),
    (features(non_ascii=0.05, balance=0.9), RouteTarget.GENERATIVE, RouteRule.DEFAULT),  # boundary: at tau is fine
    (features(non_ascii=0.06, balance=0.0), RouteTarget.SEARCH, RouteRule.NON_ENGLISH),
    (features(balance=0.2), RouteTarget.SEARCH, RouteRule.BALANCED),  # boundary: at beta routes to search
    (features(balance=-0.2), RouteTarget.SEARCH, RouteRule.BALANCED),
    (features(balance=0.21), RouteTarget.GENERATIVE, RouteRule.DEFAULT),
    (features(balance=-0.9), RouteTarget.GENERATIVE, RouteRule.DEFAULT),
]


@pytest.mark.parametrize("feats,target,rule", ROUTE_MATRIX)
def test_route_rule_matrix(feats, target, rule):
    decision = route(feats)
    assert decision.target is target
    assert decision.rule is rule
    assert decision.features == feats


def test_route_deterministic():
    feats = features(tokens=50, balance=0.5)
    assert route(feats) == route(feats)


def test_threshold_algebra_disables_rules():
    off_balance = RouteThresholds(balance_beta=-1.0)
    assert route(features(balance=0.0), off_balance).rule is RouteRule.DEFAULT
    off_language = RouteThresholds(non_english_tau=1.0)
    assert route(features(non_ascii=1.0, balance=0.9), off_language).rule is RouteRule.DEFAULT
    off_size = RouteThresholds(input_token_limit=float("inf"))
    assert route(features(tokens=10**9, balance=0.9), off_size).rule is RouteRule.DEFAULT


@pytest.mark.parametrize("name", ["input_token_limit", "non_english_tau", "balance_beta"])
def test_nan_threshold_is_refused(name):
    """Every comparison with NaN is false: a NaN beta sent balanced chunks to the
    generative side, and a NaN tau or token limit switched its rule off."""
    with pytest.raises(ValueError, match=name):
        RouteThresholds(**{name: float("nan")})


SEARCH = SearchResolver(SearchParams(max_evaluations=300, seed=0))

# |v1|=1 vs |v2|=3 lines -> balance -0.5, ASCII, small: routes to the generative side
IMBALANCED = Chunk(["keep me;"], ["keep me;", "plus this;", "and this;"])


def test_hybrid_uses_generative_result_when_ok():
    stub = StubGenerativeResolver("echo-v1")
    candidate = hybrid_resolve(IMBALANCED, SEARCH, stub, RouteThresholds())
    assert stub.calls == 1
    assert candidate.resolver_id == "stub:echo-v1"
    assert candidate.lines == tuple(IMBALANCED.v1_lines)


@pytest.mark.parametrize("mode", ["empty", "truncate", "garbage"])
def test_hybrid_falls_back_on_generative_failure(mode):
    stub = StubGenerativeResolver(mode, limits=TokenLimits(output_limit=2))
    candidate = hybrid_resolve(IMBALANCED, SEARCH, stub, RouteThresholds())
    assert stub.calls == 1
    assert candidate.resolver_id == FALLBACK_RESOLVER_ID
    assert candidate.status is Status.OK
    assert candidate.lines  # search found a non-empty optimum
    assert "generative" in candidate.detail


def test_hybrid_never_calls_generative_for_oversized_chunks():
    stub = StubGenerativeResolver("echo-v1")
    oversized = Chunk(["tok " * 301], ["w"])
    candidate = hybrid_resolve(oversized, SEARCH, stub, RouteThresholds())
    assert stub.calls == 0
    assert candidate.resolver_id == "sbcr"
    decision = route(extract_features(oversized), RouteThresholds())
    assert decision.rule is RouteRule.TOKEN_LIMIT
    assert decision.target is RouteTarget.SEARCH


def test_hybrid_balanced_chunk_routes_to_search():
    stub = StubGenerativeResolver("echo-v1")
    balanced = Chunk(["a;", "b;"], ["a;", "c;"])
    candidate = hybrid_resolve(balanced, SEARCH, stub, RouteThresholds())
    assert stub.calls == 0
    assert candidate.resolver_id == "sbcr"


def test_hybrid_non_empty_when_search_has_an_optimum():
    # the generative side always answers empty; fallback must come back non-empty
    stub = StubGenerativeResolver("empty")
    for chunk in (IMBALANCED, Chunk([], ["only side;", "with code;", "three lines;"])):
        candidate = hybrid_resolve(chunk, SEARCH, stub, RouteThresholds())
        assert candidate.status is not Status.EMPTY
        assert candidate.lines


def test_hybrid_fallback_failure_detail_names_both_sides(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr("sbcr.resolvers.rrhc_resolve", broken)
    candidate = hybrid_resolve(IMBALANCED, SEARCH, StubGenerativeResolver("empty"), RouteThresholds())
    assert candidate.resolver_id == FALLBACK_RESOLVER_ID
    assert candidate.status is Status.FAILED
    assert candidate.detail.startswith("generative empty")
    assert "engine exploded" in candidate.detail
