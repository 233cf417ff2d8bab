"""Shared test helpers: tiny chunk type, random generators, and brute-force and DP oracles."""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import pytest
from hypothesis import settings

from sbcr import search
from sbcr.search import evaluate

# Property tests replay the same examples on every run and never time out.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=200, database=None)
settings.load_profile("tier1")


@dataclass
class Chunk:
    v1_lines: list[str]
    v2_lines: list[str]
    base_lines: list[str] | None = None


def random_chunk(rng: random.Random, max_side: int = 4, alphabet: Sequence[str] = ("a", "b", "c")) -> Chunk:
    """Random chunk over a small alphabet; duplicates are likely by design."""
    n1 = rng.randint(0, max_side)
    n2 = rng.randint(0, max_side)
    if n1 == 0 and n2 == 0:
        n1 = 1
    return Chunk(
        v1_lines=[rng.choice(alphabet) for _ in range(n1)],
        v2_lines=[rng.choice(alphabet) for _ in range(n2)],
    )


def interleavings(xs: Sequence, ys: Sequence) -> Iterator[tuple]:
    """Every merge of xs and ys that keeps both internal orders."""
    if not xs:
        yield tuple(ys)
        return
    if not ys:
        yield tuple(xs)
        return
    for rest in interleavings(xs[1:], ys):
        yield (xs[0],) + rest
    for rest in interleavings(xs, ys[1:]):
        yield (ys[0],) + rest


def all_candidates(chunk: Chunk) -> Iterator[tuple[int, ...]]:
    """Every valid candidate: each subset pair of the versions, every interleaving.
    Code ``r < n1`` is v1 line ``r`` and any other code is v2 line ``r - n1``."""
    n1 = len(chunk.v1_lines)
    codes1 = range(n1)
    codes2 = range(n1, n1 + len(chunk.v2_lines))
    for size1 in range(len(codes1) + 1):
        for subset1 in combinations(codes1, size1):
            for size2 in range(len(codes2) + 1):
                for subset2 in combinations(codes2, size2):
                    yield from interleavings(subset1, subset2)


def draw_neighbor(candidate: tuple[int, ...], chunk: Chunk, rng: random.Random) -> tuple[int, ...]:
    """One ``search.neighbor`` draw from a move table built for this draw alone."""
    n1 = len(chunk.v1_lines)
    return search.neighbor(candidate, search._moves(candidate, n1, n1 + len(chunk.v2_lines)), rng)


@contextmanager
def checked_draws(chunk: Chunk) -> Iterator[list[tuple[int, ...]]]:
    """Assert ``is_valid_candidate`` for ``chunk`` on every candidate that ``search.neighbor`` and
    ``search.random_candidate`` return while the block runs, and yield the list of them in draw
    order. With ``concat_candidate``, valid by construction, they make every candidate the engine
    scores; an evaluation-budget search draws one more, the draw that finds the budget spent."""
    drawn: list[tuple[int, ...]] = []

    def checked(draw):
        def checked_draw(*args):
            candidate = draw(*args)
            assert search.is_valid_candidate(candidate, chunk), (draw.__name__, args[0], candidate)
            drawn.append(candidate)
            return candidate

        return checked_draw

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "neighbor", checked(search.neighbor))
        patch.setattr(search, "random_candidate", checked(search.random_candidate))
        yield drawn


def brute_force_optimum(chunk: Chunk) -> float:
    """Exhaustive-enumeration maximum of the evaluation function."""
    return max(evaluate(candidate, chunk) for candidate in all_candidates(chunk))


def _pareto_maximal(pairs: set[tuple[int, int]]) -> list[tuple[int, int]]:
    """The pairs no other pair matches or beats in both places."""
    kept: list[tuple[int, int]] = []
    for first, second in sorted(pairs, reverse=True):
        if not kept or second > kept[-1][1]:
            kept.append((first, second))
    return kept


def exact_best_score(v1: Sequence[str], v2: Sequence[str]) -> float:
    """The maximum of the search objective over every candidate of a chunk, without enumerating them.

    A DP over (v1 lines passed, v2 lines passed, v1-parent pointer, v2-parent
    pointer). A step skips the next line of v1 or of v2, or takes it into the
    candidate; a taken line joins the alignment with either or both parents,
    matching the earliest equal parent line at or after that parent's pointer,
    which is exact for LCS (Wagner & Fischer 1974). A line in neither alignment
    only lengthens the candidate, which lowers both ratios, so no step takes
    one. Per state and candidate length it keeps the Pareto-maximal (LCS with
    v1, LCS with v2) pairs: at a fixed length the score grows with both, and
    the rest of the walk adds the same to every pair of one state.
    """
    n1, n2 = len(v1), len(v2)

    def matches(parent: Sequence[str], line: str, pointer: int) -> list[tuple[int, int]]:
        """(new pointer, LCS gain) for leaving ``line`` out of the alignment or matching it."""
        moves = [(pointer, 0)]
        for pos in range(pointer, len(parent)):
            if parent[pos] == line:
                moves.append((pos + 1, 1))
                break
        return moves

    # table[i, j][a, b, length]: (LCS with v1, LCS with v2) pairs after passing i v1 and j v2 lines
    table: dict[tuple[int, int], dict[tuple[int, int, int], set[tuple[int, int]]]] = {(0, 0): {(0, 0, 0): {(0, 0)}}}
    best = -1.0
    for i in range(n1 + 1):
        for j in range(n2 + 1):
            states = table.pop((i, j), {})
            for (a, b, length), pairs in states.items():
                pairs = _pareto_maximal(pairs)
                if i == n1 and j == n2:
                    for l1, l2 in pairs:  # _score's arithmetic, so an optimum compares equal to evaluate()
                        s1 = 1.0 if length + n1 == 0 else 2.0 * l1 / (length + n1)
                        s2 = 1.0 if length + n2 == 0 else 2.0 * l2 / (length + n2)
                        best = max(best, (s1 + s2) / 2.0)
                steps = [((i + 1, j), v1[i])] if i < n1 else []
                steps += [((i, j + 1), v2[j])] if j < n2 else []
                for step, line in steps:
                    after = table.setdefault(step, {})
                    after.setdefault((a, b, length), set()).update(pairs)  # skip the line
                    for a2, gain1 in matches(v1, line, a):
                        for b2, gain2 in matches(v2, line, b):
                            if gain1 or gain2:
                                after.setdefault((a2, b2, length + 1), set()).update(
                                    (l1 + gain1, l2 + gain2) for l1, l2 in pairs
                                )
    return best


def achievable_sequences(v1: Sequence[str], v2: Sequence[str]) -> set[tuple[str, ...]]:
    """All line sequences reachable by deleting within each version and interleaving."""
    lines = [*v1, *v2]
    return {tuple(lines[r] for r in candidate) for candidate in all_candidates(Chunk(list(v1), list(v2)))}


CONTENT_POOL = [
    "int x = 1;",
    "return value;",
    "}",
    "",
    "  spaced()",
    " <<<<<<< not a marker",
    "========",
    "|||||||x",
    "\ttabbed",
    "final piece",
]


def make_conflicted_file(rng: random.Random) -> str:
    """Random well-formed conflicted file; LF or CRLF, optional diff3 base sections."""
    eol = rng.choice(["\n", "\r\n"])
    diff3 = rng.random() < 0.5
    parts: list[str] = []

    def content_block(max_lines: int) -> None:
        for _ in range(rng.randint(0, max_lines)):
            parts.append(rng.choice(CONTENT_POOL) + eol)

    content_block(4)
    for _ in range(rng.randint(1, 4)):
        label = rng.choice(["", " HEAD", " branch-a", " temp label"])
        parts.append("<<<<<<<" + label + eol)
        content_block(3)
        if diff3 and rng.random() < 0.8:
            parts.append("|||||||" + rng.choice(["", " base"]) + eol)
            content_block(2)
        parts.append("=======" + eol)
        content_block(3)
        parts.append(">>>>>>>" + rng.choice(["", " theirs"]) + eol)
        content_block(4)
    text = "".join(parts)
    if rng.random() < 0.3 and text.endswith(eol):
        text = text[: -len(eol)]  # drop the final newline
    return text


def lcs_oracle(a: Sequence, b: Sequence) -> int:
    """Plain recursive-memo LCS, independent of the rolling-row implementation."""
    memo: dict[tuple[int, int], int] = {}

    def go(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        key = (i, j)
        if key in memo:
            return memo[key]
        if a[i] == b[j]:
            value = 1 + go(i + 1, j + 1)
        else:
            value = max(go(i + 1, j), go(i, j + 1))
        memo[key] = value
        return value

    return go(0, 0)


def lcs_row_dp(a: Sequence, b: Sequence) -> int:
    """Row-rolling dynamic-programming LCS with common prefix/suffix stripping.

    The reference for the bit-parallel ``lcs_length``: elements only need
    equality here, and the memory is O(min(|a|, |b|)).
    """
    if len(a) < len(b):
        a, b = b, a
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    common = lo + (len(b) - hi_b)
    a = a[lo:hi_a]
    b = b[lo:hi_b]
    if not b:
        return common
    row = [0] * (len(b) + 1)
    for x in a:
        prev = 0  # row[j] from the previous iteration of the outer loop
        for j, y in enumerate(b, start=1):
            cur = row[j]
            if x == y:
                row[j] = prev + 1
            elif row[j - 1] > cur:
                row[j] = row[j - 1]
            prev = cur
    return common + row[-1]
