"""Output checks. Each returns a list of failure messages; empty means the check passed."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from sbcr import corpus

REJECTION_REASONS = ("malformed", "duplicate-id", "empty-both-sides", "not-combination")


def partial_order(outputs: Iterable[tuple[object, object]]) -> list[str]:
    """Every resolution keeps the line order of both versions it was drawn from."""
    return [
        f"{getattr(chunk, 'id', '?')}: resolution reorders or invents lines of v1/v2"
        for chunk, candidate in outputs
        if not corpus.preserves_partial_order(candidate.lines, chunk.v1_lines, chunk.v2_lines)
    ]


def round_trip(name: str, text: str, rendered: str) -> list[str]:
    """Rendering a parsed file with its markers reproduces the input byte for byte."""
    if rendered == text:
        return []
    offset = next(
        (k for k, (a, b) in enumerate(zip(text, rendered)) if a != b),
        min(len(text), len(rendered)),
    )
    return [f"{name}: render(parse(text)) differs from text at offset {offset}"]


def rejections(reports: Sequence[object], injected: dict[str, int]) -> list[str]:
    """Ingestion rejects exactly the lines the generator injected, reason by reason."""
    seen = Counter(report.reason for report in reports)
    return [
        f"ingest: {seen[reason]} {reason} rejections, generator injected {injected.get(reason, 0)}"
        for reason in sorted(set(REJECTION_REASONS) | set(seen))
        if seen[reason] != injected.get(reason, 0)
    ]


def comparison(report: object, paired: int) -> list[str]:
    """A comparison pairs every record once and reports a probability."""
    errors = []
    if report.n != paired:
        errors.append(f"compare {report.resolver_a} vs {report.resolver_b}: n={report.n}, expected {paired}")
    if not 0.0 <= report.wilcoxon_p <= 1.0:
        errors.append(f"compare {report.resolver_a} vs {report.resolver_b}: wilcoxon_p={report.wilcoxon_p}")
    return errors


def same_scores(first: Sequence[float], again: Sequence[float], what: str) -> list[str]:
    """Under an evaluation budget, a repeated pass scores every record identically."""
    if list(first) == list(again):
        return []
    return [f"{what}: sim_char differs between passes of one seed"]
