"""Hybrid meta-resolver: rule-based routing between the search engine and a generative resolver.

Rules fire in a fixed order: oversized conflicts, then non-English content,
then balanced content all go to the search engine; everything else goes to
the generative resolver, with a search fallback when the generative result
is empty, truncated, or failed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

from .resolvers import (
    DEFAULT_INPUT_TOKEN_LIMIT,
    ResolutionCandidate,
    Resolver,
    Status,
    estimate_tokens,
)

FALLBACK_RESOLVER_ID = "generative→search-fallback"
# Statuses of a generative answer the router does not trust: the hybrid falls back to search on them.
UNTRUSTED = frozenset({Status.EMPTY, Status.TRUNCATED, Status.FAILED})


@dataclass(frozen=True)
class ConflictFeatures:
    token_estimate: int
    balance: float  # (|v1| - |v2|) / (|v1| + |v2|) in lines; 0 when both empty
    non_ascii_fraction: float

    def to_json(self) -> dict:
        return asdict(self)


class RouteTarget(Enum):
    SEARCH = "search"
    GENERATIVE = "generative"


class RouteRule(Enum):
    TOKEN_LIMIT = "token-limit"
    NON_ENGLISH = "non-english"
    BALANCED = "balanced"
    DEFAULT = "default"


@dataclass(frozen=True)
class RouteDecision:
    target: RouteTarget
    rule: RouteRule
    features: ConflictFeatures


@dataclass(frozen=True)
class RouteThresholds:
    """Routing knobs. Degenerate values disable rules: an infinite token limit
    disables the size rule, tau=1 the language rule, beta=-1 the balance rule.
    NaN is refused: it compares false with everything, so it would turn a rule on or off silently."""

    input_token_limit: float = DEFAULT_INPUT_TOKEN_LIMIT
    non_english_tau: float = 0.05
    balance_beta: float = 0.2

    def __post_init__(self):
        for name, value in vars(self).items():
            if math.isnan(value):
                raise ValueError(f"{name} must be a number, not NaN")


def balance(chunk) -> float:
    """(n1 - n2) / (n1 + n2) over the chunk's v1 and v2 line counts; 0 when both are empty."""
    n1, n2 = len(chunk.v1_lines), len(chunk.v2_lines)
    return 0.0 if n1 + n2 == 0 else (n1 - n2) / (n1 + n2)


def extract_features(chunk) -> ConflictFeatures:
    """Deterministic routing features for one chunk (base included in the size proxy)."""
    all_lines = list(chunk.base_lines or []) + list(chunk.v1_lines) + list(chunk.v2_lines)
    text = "".join(all_lines)
    non_ascii = len(text) - len(text.encode("ascii", "ignore"))
    fraction = 0.0 if not text else non_ascii / len(text)
    return ConflictFeatures(
        token_estimate=estimate_tokens(all_lines),
        balance=balance(chunk),
        non_ascii_fraction=fraction,
    )


def route(features: ConflictFeatures, thresholds: RouteThresholds = RouteThresholds()) -> RouteDecision:
    """Apply the routing rules in their fixed precedence order; first match wins."""
    if features.token_estimate > thresholds.input_token_limit:
        return RouteDecision(RouteTarget.SEARCH, RouteRule.TOKEN_LIMIT, features)
    if features.non_ascii_fraction > thresholds.non_english_tau:
        return RouteDecision(RouteTarget.SEARCH, RouteRule.NON_ENGLISH, features)
    if abs(features.balance) <= thresholds.balance_beta:
        return RouteDecision(RouteTarget.SEARCH, RouteRule.BALANCED, features)
    return RouteDecision(RouteTarget.GENERATIVE, RouteRule.DEFAULT, features)


def hybrid_resolve(
    chunk,
    search_resolver: Resolver,
    generative_resolver: Resolver,
    thresholds: RouteThresholds = RouteThresholds(),
) -> ResolutionCandidate:
    """Route the chunk, resolve it, and fall back to search on generative failure.

    The fallback fires when the generative candidate's status is in ``UNTRUSTED``; the returned
    candidate is then re-labelled so downstream records show the fallback path, and its detail
    names the search failure too when the fallback also fails.
    """
    decision = route(extract_features(chunk), thresholds)
    if decision.target is RouteTarget.SEARCH:
        return search_resolver.resolve(chunk)
    candidate = generative_resolver.resolve(chunk)
    if candidate.status in UNTRUSTED:
        fallback = search_resolver.resolve(chunk)
        why = f"generative {candidate.status.value}"
        if candidate.detail:
            why += f": {candidate.detail}"
        if fallback.status is Status.FAILED:
            why += f"; search failed: {fallback.detail}"
        return ResolutionCandidate(
            lines=fallback.lines,
            resolver_id=FALLBACK_RESOLVER_ID,
            elapsed=candidate.elapsed + fallback.elapsed,
            status=fallback.status,
            detail=why,
        )
    return candidate


class HybridResolver(Resolver):
    """The router in front of a search and a generative resolver, as one resolver."""

    resolver_id = "hybrid"

    def __init__(
        self,
        search_resolver: Resolver,
        generative_resolver: Resolver,
        thresholds: RouteThresholds = RouteThresholds(),
    ):
        self.search_resolver = search_resolver
        self.generative_resolver = generative_resolver
        self.thresholds = thresholds

    def resolve(self, chunk) -> ResolutionCandidate:
        return hybrid_resolve(chunk, self.search_resolver, self.generative_resolver, self.thresholds)
