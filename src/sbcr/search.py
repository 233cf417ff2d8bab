"""Random Restart Hill Climbing over partial-order-constrained line interleavings.

A candidate resolution is an ordered selection of lines drawn from the two
conflicting versions; lines from the same version may never be reordered.
Candidates are scored by the mean of their line-level similarity to each
parent version, and the search walks the neighborhood induced by three
operators (add a line, remove a line, swap two adjacent lines from different
versions).

``SourceLineRef`` tuples exist only at the API edge: the public functions
take and return them, and ``rrhc_resolve`` returns them in its result. The
engine itself works on int-coded candidates. Over a chunk with ``n1`` v1
lines, ref ``r < n1`` is v1 line ``r`` and any other ref is v2 line
``r - n1``, so the refs ``0 .. n - 1`` list v1 then v2 in the order of
``concat_candidate``, and one version's lines keep their order exactly when
their codes increase. ``neighbor`` and ``random_candidate`` also accept a
chunk's ``_Coding`` in place of the chunk and then take and return codes:
that is how the engine calls them, so each operator has one int core and
the public calls only add the encoding and decoding around it.

The objective compares codes, not text. Per chunk, each parent version gets
a ``_Parent`` table whose ``masks[r]`` sets bit ``i`` when parent line ``i``
equals chunk line ``r``; a candidate's LCS with that parent is then Hyyrö's
bit-parallel loop over its codes (Allison & Dix 1986; Hyyrö 2004), which
hashes no string and builds no dict. ``evaluate`` and ``rrhc_resolve`` share
that scorer. It keeps the name ``lcs_length`` because it is a seam: the
benchmark's tracer wraps ``search.lcs_length`` to count objective calls and
tests swap stand-ins in through it, so it is called through the module
global exactly twice per scored candidate, candidate codes first.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from enum import IntEnum
from heapq import heappush, heappop
from typing import Callable, NamedTuple, Protocol, Sequence


class Version(IntEnum):
    V1 = 1
    V2 = 2


class SourceLineRef(NamedTuple):
    """A reference to one source line: which version it came from and its 0-based index there."""

    version: Version
    index: int


Candidate = tuple[SourceLineRef, ...]


class ChunkLike(Protocol):
    v1_lines: Sequence[str]
    v2_lines: Sequence[str]


@dataclass(frozen=True)
class SearchParams:
    """Engine configuration.

    Exactly one budget must be set: ``max_execution_time`` (wall-clock
    seconds) or ``max_evaluations`` (deterministic, machine-independent).
    """

    neighbors_per_iteration: int = 5
    max_stagnation_iterations: int = 10
    max_execution_time: float | None = None
    max_evaluations: int | None = None
    top_n: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.neighbors_per_iteration < 1:
            raise ValueError("neighbors_per_iteration must be >= 1")
        if self.max_stagnation_iterations < 1:
            raise ValueError("max_stagnation_iterations must be >= 1")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        has_time = self.max_execution_time is not None
        has_evals = self.max_evaluations is not None
        if has_time == has_evals:
            raise ValueError("exactly one of max_execution_time / max_evaluations must be set")
        if has_time and self.max_execution_time <= 0:
            raise ValueError("max_execution_time must be positive")
        if has_evals and self.max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1")


class ScoredCandidate(NamedTuple):
    candidate: Candidate
    score: float


@dataclass(frozen=True)
class SearchResult:
    ranked: tuple[ScoredCandidate, ...]
    evaluations: int
    restarts: int
    elapsed: float

    @property
    def best(self) -> Candidate:
        return self.ranked[0].candidate

    @property
    def best_score(self) -> float:
        return self.ranked[0].score


def is_valid_candidate(candidate: Sequence[SourceLineRef], chunk: ChunkLike) -> bool:
    """Check the candidate invariants: in-range refs, no duplicates, per-version index order."""
    sizes = {Version.V1: len(chunk.v1_lines), Version.V2: len(chunk.v2_lines)}
    last = {Version.V1: -1, Version.V2: -1}
    for ref in candidate:
        if not 0 <= ref.index < sizes[ref.version]:
            return False
        if ref.index <= last[ref.version]:
            return False
        last[ref.version] = ref.index
    return True


def candidate_lines(candidate: Sequence[SourceLineRef], chunk: ChunkLike) -> list[str]:
    """Materialize the candidate's text lines in candidate order."""
    return [
        chunk.v1_lines[ref.index] if ref.version is Version.V1 else chunk.v2_lines[ref.index]
        for ref in candidate
    ]


def concat_candidate(chunk: ChunkLike) -> Candidate:
    """All of v1 followed by all of v2; the trivial concatenation resolution."""
    return tuple(
        [SourceLineRef(Version.V1, i) for i in range(len(chunk.v1_lines))]
        + [SourceLineRef(Version.V2, j) for j in range(len(chunk.v2_lines))]
    )


# An int-coded candidate (see the module docstring).
Coded = tuple[int, ...]


def _encode(candidate: Sequence[SourceLineRef], n1: int) -> Coded:
    return tuple([ref.index if ref.version is Version.V1 else n1 + ref.index for ref in candidate])


def _decode(coded: Coded, refs: Candidate) -> Candidate:
    """``refs`` is the chunk's ``concat_candidate``: the decode table of every code."""
    return tuple([refs[r] for r in coded])


class _Coding(NamedTuple):
    """A chunk's int coding: ``n1`` v1 lines, ``n`` lines in all, and the decode table."""

    n1: int
    n: int
    refs: Candidate


def _coding(chunk: ChunkLike) -> _Coding:
    refs = concat_candidate(chunk)
    return _Coding(len(chunk.v1_lines), len(refs), refs)


class _Parent(NamedTuple):
    """One parent version's match table over a chunk's codes: ``masks[r]`` has
    bit ``i`` set when parent line ``i`` equals chunk line ``r``."""

    masks: tuple[int, ...]
    size: int


def _parents(chunk: ChunkLike) -> tuple[_Parent, _Parent]:
    """The v1 and v2 match tables of a chunk, built once per chunk."""
    lines = [*chunk.v1_lines, *chunk.v2_lines]

    def table(parent: Sequence[str]) -> _Parent:
        positions: dict[str, int] = {}
        for i, line in enumerate(parent):
            positions[line] = positions.get(line, 0) | 1 << i
        return _Parent(tuple([positions.get(line, 0) for line in lines]), len(parent))

    return table(chunk.v1_lines), table(chunk.v2_lines)


def lcs_length(coded: Coded, parent: _Parent) -> int:
    """LCS length of an int-coded candidate's lines and one parent version.

    The engine's objective over match masks (see the module docstring), not
    ``sbcr.lcs_length``, the text and char LCS the benchmark metric uses.
    The zero bits of ``v`` count the LCS.
    """
    masks, size = parent
    full = (1 << size) - 1
    v = full
    for r in coded:
        m = masks[r]
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return size - v.bit_count()


def _score(coded: Coded, p1: _Parent, p2: _Parent) -> float:
    """Mean of the candidate's LCS ratio to each parent; 1.0 for an empty pair."""
    k = len(coded)
    s1 = 1.0 if k + p1.size == 0 else 2.0 * lcs_length(coded, p1) / (k + p1.size)
    s2 = 1.0 if k + p2.size == 0 else 2.0 * lcs_length(coded, p2) / (k + p2.size)
    return (s1 + s2) / 2.0


def evaluate(candidate: Sequence[SourceLineRef], chunk: ChunkLike) -> float:
    """Score a candidate: mean of its line-level similarity to each parent version."""
    if not is_valid_candidate(candidate, chunk):
        raise ValueError("invalid candidate for this chunk")
    return _score(_encode(candidate, len(chunk.v1_lines)), *_parents(chunk))


def _random_coded(n1: int, n: int, draw: Callable[[], float]) -> Coded:
    take1 = [r for r in range(n1) if draw() < 0.5]
    take2 = [r for r in range(n1, n) if draw() < 0.5]
    merged: list[int] = []
    i = j = 0
    while i < len(take1) and j < len(take2):
        remaining1 = len(take1) - i
        remaining2 = len(take2) - j
        if draw() * (remaining1 + remaining2) < remaining1:
            merged.append(take1[i])
            i += 1
        else:
            merged.append(take2[j])
            j += 1
    merged.extend(take1[i:])
    merged.extend(take2[j:])
    return tuple(merged)


def random_candidate(chunk: ChunkLike | _Coding, rng: random.Random) -> Candidate | Coded:
    """Draw a uniformly interleaved candidate over an independent 1/2 line selection.

    Each source line is kept with probability 1/2; the kept lines of the two
    versions are merged by repeatedly taking the next line from a side with
    probability proportional to its remaining count, which makes every valid
    interleaving of the chosen subsets equally likely. Given a ``_Coding``,
    returns an int-coded candidate.
    """
    if type(chunk) is _Coding:
        return _random_coded(chunk.n1, chunk.n, rng.random)
    coding = _coding(chunk)
    return _decode(_random_coded(coding.n1, coding.n, rng.random), coding.refs)


def _coded_window(coded: Coded, r: int, n1: int) -> tuple[int, int]:
    """Inclusive slot range where the unused code ``r`` may be inserted without
    breaking version order; a version's codes increase along ``coded``."""
    lo = 0
    v1 = r < n1
    for pos, x in enumerate(coded):
        if (x < n1) is v1:
            if x > r:
                return lo, pos
            lo = pos + 1
    return lo, len(coded)


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in [0, n), drawn exactly as ``random.Random.randrange(n)`` draws it.

    CPython's ``randrange(n)`` goes through ``_randbelow_with_getrandbits``:
    it takes ``k = n.bit_length()`` bits and redraws while the value is >= n.
    Doing the same here consumes the same generator words and returns the
    same value, so seeded results stay byte-identical, without randrange's
    argument checks and two extra call frames per draw. ``randint(lo, hi)``
    is ``lo + _below(getrandbits, hi - lo + 1)``.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _coded_neighbor(coded: Coded, n1: int, n: int, getrandbits: Callable[[int], int]) -> Coded:
    size = len(coded)
    # Applicable operators in the order ADD, REMOVE, EXCHANGE; a full
    # candidate has no ADD, so its draws shift up by one.
    count = (size < n) + (size > 0) + (size > 0 and min(coded) < n1 <= max(coded))
    if not count:
        return coded
    op = _below(getrandbits, count) + (size == n)
    if op == 0:  # ADD the r-th unused code: step r past every used code at or below it
        r = _below(getrandbits, n - size)
        for x in sorted(coded):
            if x > r:
                break
            r += 1
        lo, hi = _coded_window(coded, r, n1)
        slot = lo + _below(getrandbits, hi - lo + 1)
        return coded[:slot] + (r,) + coded[slot:]
    if op == 1:  # REMOVE
        pos = _below(getrandbits, size)
        return coded[:pos] + coded[pos + 1 :]
    slots = []  # EXCHANGE: the adjacent pairs from different versions
    left = coded[0] < n1
    for p in range(1, size):
        right = coded[p] < n1
        if right is not left:
            slots.append(p - 1)
        left = right
    p = slots[_below(getrandbits, len(slots))]
    return coded[:p] + (coded[p + 1], coded[p]) + coded[p + 2 :]


def neighbor(candidate: Candidate | Coded, chunk: ChunkLike | _Coding, rng: random.Random) -> Candidate | Coded:
    """Apply one uniformly chosen applicable operator; always returns a valid candidate.

    ADD inserts a uniformly drawn unused line at a uniform slot that keeps its
    version in order; REMOVE drops a uniformly drawn line; EXCHANGE swaps a
    uniformly drawn pair of adjacent lines from different versions. Those are
    all the order-preserving swaps: a same-version pair is reordered by the
    swap itself, and any line between two non-adjacent positions shares a
    version with one of them, which would be moved across it. EXCHANGE
    applies when the candidate holds lines of both versions.

    Returns the input unchanged only when no operator applies, which happens
    exactly when both versions are empty. Given a ``_Coding``, takes and
    returns int-coded candidates.
    """
    if type(chunk) is _Coding:
        return _coded_neighbor(candidate, chunk.n1, chunk.n, rng.getrandbits)
    coding = _coding(chunk)
    moved = _coded_neighbor(_encode(candidate, coding.n1), coding.n1, coding.n, rng.getrandbits)
    return _decode(moved, coding.refs)


# Entries the score memo of one search may hold beyond the ranked list before
# it is cut back to the ranked list. Cutting a pure cache changes no result; the
# limit bounds memory under a wall-clock budget, far above any evaluation budget.
_MEMO_LIMIT = 1 << 15


class _BudgetSpent(Exception):
    """Raised by a search's scorer when its evaluation budget is used up; ends the search."""


def rrhc_resolve(
    chunk: ChunkLike,
    params: SearchParams,
    *,
    clock: Callable[[], float] | None = None,
    check_invariants: bool = False,
) -> SearchResult:
    """Run Random Restart Hill Climbing on one conflict chunk.

    The first climb starts from the v1+v2 concatenation; after
    ``max_stagnation_iterations`` consecutive non-improving iterations the
    search restarts from a random candidate. ``ranked`` holds the ``top_n`` best
    distinct candidates, ties in discovery order, with ``best`` at its head.

    The climb, the score memo and the ranked heap hold int-coded candidates
    (see the module docstring), drawn through ``neighbor`` and
    ``random_candidate`` with the chunk's ``_Coding`` and scored against the
    chunk's two ``_Parent`` tables, built once here; ``ranked`` is decoded
    to ``SourceLineRef`` tuples once, on return. ``check_invariants``
    decodes each scored candidate and asserts ``is_valid_candidate`` on it.

    ``clock`` supplies wall time. With an evaluation budget it defaults to
    a constant clock so results (elapsed included) are bit-for-bit
    reproducible; with a time budget it defaults to time.monotonic.
    """
    if not chunk.v1_lines and not chunk.v2_lines:
        raise ValueError("chunk has no content on either side")
    if clock is None:
        clock = time.monotonic if params.max_execution_time is not None else lambda: 0.0

    coding = _coding(chunk)
    p1, p2 = _parents(chunk)
    rng = random.Random(params.seed)
    # Min-heap of (score, -discovery, candidate), rooted at the next to evict.
    # Ranked candidates stay in the memo, so only a memo miss is pushed: a hit
    # is ranked already, or was evicted for good by top_n candidates ahead of it.
    heap: list[tuple[float, int, Coded]] = []
    scores: dict[Coded, float] = {}
    start = clock()
    evaluations = 0
    restarts = 0

    def evaluate_budgeted(candidate: Coded) -> float:
        nonlocal evaluations, scores
        if evaluations == params.max_evaluations:
            raise _BudgetSpent
        evaluations += 1
        if check_invariants:
            assert is_valid_candidate(_decode(candidate, coding.refs), chunk), "engine produced an invalid candidate"
        score = scores.get(candidate)
        if score is None:
            score = _score(candidate, p1, p2)
            if len(scores) - len(heap) >= _MEMO_LIMIT:
                scores = {ranked: s for s, _, ranked in heap}
            scores[candidate] = score
            heappush(heap, (score, -evaluations, candidate))
            if len(heap) > params.top_n:
                heappop(heap)
        return score

    current = tuple(range(coding.n))  # the v1+v2 concatenation
    stagnation = 0

    try:
        current_score = evaluate_budgeted(current)
        while params.max_execution_time is None or clock() - start < params.max_execution_time:
            best_neighbor: Coded | None = None
            best_neighbor_score = -1.0
            for _ in range(params.neighbors_per_iteration):
                moved = neighbor(current, coding, rng)
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
                current = random_candidate(coding, rng)
                current_score = evaluate_budgeted(current)
    except _BudgetSpent:
        pass

    return SearchResult(
        ranked=tuple(ScoredCandidate(_decode(coded, coding.refs), s) for s, _, coded in sorted(heap, reverse=True)),
        evaluations=evaluations,
        restarts=restarts,
        elapsed=clock() - start,
    )
