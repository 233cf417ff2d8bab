"""Random Restart Hill Climbing over partial-order-constrained line interleavings.

A candidate resolution is an ordered selection of lines drawn from the two
conflicting versions; lines from the same version may never be reordered.
Candidates are scored by the mean of their line-level similarity to each
parent version, and the search walks the neighborhood induced by three
operators (add a line, remove a line, swap two adjacent lines from different
versions).

A candidate is a tuple of line codes. Over a chunk with ``n1`` v1 lines,
code ``r < n1`` is v1 line ``r`` and any other code is v2 line ``r - n1``, so
the codes ``0 .. n - 1`` list v1 then v2 in the order of ``concat_candidate``,
and one version's lines keep their order exactly when their codes increase.
``neighbor`` draws from the ``_Moves`` table of its candidate, which holds
what every draw from one climb position needs (its unused codes and exchange
slots, each draw's bound with that bound's bit length, and the ADD windows
drawn so far), so the engine builds it once per position, not once per draw.
Each draw consumes the generator exactly as ``random.Random.randrange`` would,
so seeded output does not depend on how it is drawn. ``neighbor`` returns the
neighbour's codes and leaves the index of its edit in the table.

The objective compares codes, not text. Per chunk, one ``_Table`` holds
both parents: ``masks[r]`` sets bit ``i`` when v1 line ``i`` equals chunk
line ``r``, and bit ``size1 + 1 + j`` when v2 line ``j`` does. A candidate's
LCS with both is one pass of Hyyrö's bit-parallel loop over its codes
(Allison & Dix 1986; Hyyrö 2004), exact per field because the zero guard bit
``size1`` stops the carry out of the v1 field. ``evaluate`` and
``rrhc_resolve`` share that scorer. It keeps the name ``lcs_length``: the
benchmark's tracer wraps ``search.lcs_length`` to count objective calls and
tests swap stand-ins in through it, so it is called through the module
global exactly once per scored candidate, candidate codes first.
On chunks of at least ``_PREFIX_STATES_LINES`` lines, a neighbour's pass
resumes from the climb position's fused vector at the neighbour's edit index
(Hyyrö 2004; Landau, Myers & Schmidt 1998; see ``rrhc_resolve``).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from heapq import nlargest
from operator import itemgetter
from typing import Callable, Hashable, NamedTuple, Protocol, Sequence


# A candidate's line codes (see the module docstring).
Candidate = tuple[int, ...]


class ChunkLike(Protocol):
    v1_lines: Sequence[str]
    v2_lines: Sequence[str]
    base_lines: Sequence[str] | None


def no_clock() -> float:
    """The clock of work no wall clock bounds: it always reads 0.0, so every
    ``elapsed`` it times is 0.0 and seeded results stay byte-reproducible."""
    return 0.0


def check_seed(seed: int) -> int:
    """``seed`` unchanged; ValueError unless it is an int from 0 to 2**64 - 1. ``random.Random``
    seeds from an int's absolute value, so -5 would draw as 5, and from a float's hash."""
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an int from 0 to 2**64 - 1, got {seed!r}")
    return seed


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
        # A float budget never equals the evaluation count, so the search would never end;
        # True would run as 1.
        check_seed(self.seed)
        for name in ("neighbors_per_iteration", "max_stagnation_iterations", "top_n", "max_evaluations"):
            value = getattr(self, name)
            if (type(value) is not int or value < 1) and not (name == "max_evaluations" and value is None):
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        seconds = self.max_execution_time
        if (seconds is None) == (self.max_evaluations is None):
            raise ValueError("exactly one of max_execution_time / max_evaluations must be set")
        number = type(seconds) is not bool and isinstance(seconds, (int, float))
        if seconds is not None and not (number and 0 < seconds < math.inf):
            raise ValueError(f"max_execution_time must be finite and positive seconds, got {seconds!r}")


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


def is_valid_candidate(candidate: Sequence[int], chunk: ChunkLike) -> bool:
    """Check the candidate invariants: in-range codes, and each version's codes increasing,
    which also rules out duplicates."""
    n1 = len(chunk.v1_lines)
    n = n1 + len(chunk.v2_lines)
    last = [-1, -1]  # the last v1 and v2 code so far
    for r in candidate:
        v2 = r >= n1
        if r >= n or r <= last[v2]:
            return False
        last[v2] = r
    return True


def candidate_lines(candidate: Sequence[int], chunk: ChunkLike) -> list[str]:
    """Materialize the candidate's text lines in candidate order."""
    lines = [*chunk.v1_lines, *chunk.v2_lines]
    return [lines[r] for r in candidate]


def concat_candidate(chunk: ChunkLike) -> Candidate:
    """All of v1 followed by all of v2; the trivial concatenation resolution."""
    return tuple(range(len(chunk.v1_lines) + len(chunk.v2_lines)))


def position_masks(seq: Sequence[Hashable]) -> dict[Hashable, int]:
    """Each distinct element of ``seq`` mapped to the bitmask of its positions; ``sbcr.similarity``
    builds its tables with it too, and it lives here because the engine imports no other sbcr module."""
    masks: dict[Hashable, int] = {}
    bit = 1
    for y in seq:
        masks[y] = masks.get(y, 0) | bit
        bit <<= 1
    return masks


class _Table(NamedTuple):
    """A chunk's match table against v1 and v2 (see the module docstring): ``low`` sets
    the v1 field's bits and ``full`` both fields' bits, the fused vector before any code."""

    masks: tuple[int, ...]
    size1: int
    size2: int
    low: int
    full: int


def _table(chunk: ChunkLike) -> _Table:
    """The chunk's match table, built once per chunk; ``None`` equals no line, so it marks the guard."""
    masks = position_masks([*chunk.v1_lines, None, *chunk.v2_lines])
    lines = [*chunk.v1_lines, *chunk.v2_lines]
    size1, size2 = len(chunk.v1_lines), len(chunk.v2_lines)
    low = (1 << size1) - 1
    full = low | ((1 << size2) - 1) << (size1 + 1)
    return _Table(tuple([masks[line] for line in lines]), size1, size2, low, full)


def lcs_length(
    candidate: Sequence[int], table: _Table, states: list[int] | None = None, edit: int = 0
) -> tuple[int, int]:
    """LCS lengths of a candidate's lines with v1 and with v2, in one pass.

    The engine's objective over match masks (see the module docstring), not
    ``sbcr.similarity.lcs_length``, the text and char LCS the benchmark metric uses.
    The zero bits of each field of ``v`` count that parent's LCS. ``u`` is a subset of ``v``,
    so ``v - u`` never borrows, and ``full`` clears the guard bit that stops ``v + u``'s carry.

    ``states`` holds the vectors after a climb position's first prefixes,
    ``states[i]`` after its first ``i`` codes, and ``candidate`` shares the
    position's first ``edit`` codes. The pass appends the states missing up to
    ``states[edit]`` and resumes from it, reading only ``candidate[edit:]`` after.
    """
    masks, size1, size2, low, full = table
    v = full
    if states is not None:
        start = len(states) - 1
        if start < edit:
            v = states[start]
            for r in candidate[start:edit]:
                u = v & masks[r]
                v = ((v + u) | (v - u)) & full
                states.append(v)
        else:
            v = states[edit]
        candidate = candidate[edit:]
    for r in candidate:
        u = v & masks[r]
        v = ((v + u) | (v - u)) & full
    return size1 - (v & low).bit_count(), size2 - (v >> (size1 + 1)).bit_count()


def _score(candidate: Sequence[int], table: _Table, states: list[int] | None = None, edit: int = 0) -> float:
    """Mean of the candidate's LCS ratio to each parent; 1.0 for an empty pair.
    ``states`` and ``edit`` go to ``lcs_length``."""
    k = len(candidate)
    l1, l2 = lcs_length(candidate, table, states, edit)
    s1 = 1.0 if k + table.size1 == 0 else 2.0 * l1 / (k + table.size1)
    s2 = 1.0 if k + table.size2 == 0 else 2.0 * l2 / (k + table.size2)
    return (s1 + s2) / 2.0


def evaluate(candidate: Sequence[int], chunk: ChunkLike) -> float:
    """Score a candidate: mean of its line-level similarity to each parent version."""
    if not is_valid_candidate(candidate, chunk):
        raise ValueError("invalid candidate for this chunk")
    return _score(candidate, _table(chunk))


def random_candidate(chunk: ChunkLike, rng: random.Random) -> Candidate:
    """Draw a uniformly interleaved candidate over an independent 1/2 line selection.

    Each source line is kept with probability 1/2; the kept lines of the two
    versions are merged by repeatedly taking the next line from a side with
    probability proportional to its remaining count, which makes every valid
    interleaving of the chosen subsets equally likely.
    """
    n1 = len(chunk.v1_lines)
    n = n1 + len(chunk.v2_lines)
    draw = rng.random
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


def _window(candidate: Candidate, r: int, n1: int) -> tuple[int, int]:
    """Inclusive slot range where the unused code ``r`` may be inserted without
    breaking version order; a version's codes increase along ``candidate``."""
    lo = 0
    v1 = r < n1
    for pos, x in enumerate(candidate):
        if (x < n1) is v1:
            if x > r:
                return lo, pos
            lo = pos + 1
    return lo, len(candidate)


@dataclass(eq=False, slots=True)
class _Moves:
    """One climb position's move table, built once and drawn from until the
    climb moves. It holds the bound of each draw ``neighbor`` makes with that
    bound's bit length (the ``_k`` fields): ``count`` applicable operators,
    ``unused_count`` unused codes, the candidate's ``size`` and ``slot_count``
    exchange slots. Beside them: ``shift`` when the candidate is full (so has
    no ADD), its ``unused`` codes in increasing order and its exchange
    ``slots``, the positions ``p`` where ``candidate[p]`` and
    ``candidate[p + 1]`` come from different versions. Draws write the rest:
    ``windows[i]``, the ADD window of ``unused[i]`` once drawn, and ``edit``,
    up to which the last draw's neighbour shares the codes, ``size`` until a draw."""

    n1: int
    count: int
    count_k: int
    shift: bool
    unused: tuple[int, ...]
    unused_count: int
    unused_k: int
    size: int
    size_k: int
    slots: tuple[int, ...]
    slot_count: int
    slot_k: int
    windows: list[tuple[int, int] | None]
    edit: int


def _moves(candidate: Candidate, n1: int, n: int) -> _Moves:
    size = len(candidate)
    used = set(candidate)
    unused = tuple([r for r in range(n) if r not in used])
    slots = tuple([p for p in range(size - 1) if (candidate[p] < n1) is not (candidate[p + 1] < n1)])
    # Applicable operators in the order ADD, REMOVE, EXCHANGE; a full candidate
    # has no ADD, so its draws shift up by one. EXCHANGE applies when both
    # versions are present, which is exactly when a slot exists.
    count = (size < n) + (size > 0) + bool(slots)
    unused_count, slot_count = len(unused), len(slots)
    return _Moves(
        n1, count, count.bit_length(), size == n,
        unused, unused_count, unused_count.bit_length(),
        size, size.bit_length(),
        slots, slot_count, slot_count.bit_length(),
        [None] * unused_count, size,
    )


def neighbor(candidate: Candidate, moves: _Moves, rng: random.Random) -> Candidate:
    """Apply one uniformly chosen applicable operator to ``candidate``, drawn from
    ``moves``, its table from ``_moves``; always returns a valid candidate, and
    leaves the index of its edit in ``moves.edit``.

    ADD inserts a uniformly drawn unused line at a uniform slot that keeps its
    version in order; REMOVE drops a uniformly drawn line; EXCHANGE swaps a
    uniformly drawn pair of adjacent lines from different versions. Those are
    all the order-preserving swaps: a same-version pair is reordered by the
    swap itself, and any line between two non-adjacent positions shares a
    version with one of them, which would be moved across it. EXCHANGE
    applies when the candidate holds lines of both versions.

    Each draw is uniform below a bound ``m`` and is drawn exactly as
    ``random.Random.randrange(m)`` draws it. CPython's ``randrange(m)`` goes
    through ``_randbelow_with_getrandbits``: it takes ``k = m.bit_length()``
    bits and redraws while the value is >= m, also at ``m == 1``. Drawing the
    same way here consumes the same generator words and returns the same
    value, so seeded results stay byte-identical, without randrange's argument
    checks and two extra call frames per draw. The table holds each bound and
    its ``k``, but for the ADD slot, drawn below the span ``hi - lo + 1`` of
    its cached window, as ``randint(lo, hi)`` draws it. The neighbour is one
    edit of the candidate's codes as a list.

    Returns the input unchanged only when no operator applies, which happens
    exactly when both versions are empty.
    """
    count = moves.count
    if not count:
        return candidate
    getrandbits = rng.getrandbits
    k = moves.count_k
    op = getrandbits(k)
    while op >= count:
        op = getrandbits(k)
    op += moves.shift
    codes = list(candidate)
    if op == 0:  # ADD
        m, k = moves.unused_count, moves.unused_k
        i = getrandbits(k)
        while i >= m:
            i = getrandbits(k)
        r = moves.unused[i]
        window = moves.windows[i]
        if window is None:
            window = moves.windows[i] = _window(candidate, r, moves.n1)
        lo, hi = window
        m = hi - lo + 1
        k = m.bit_length()
        slot = getrandbits(k)
        while slot >= m:
            slot = getrandbits(k)
        slot = moves.edit = lo + slot
        codes.insert(slot, r)
    elif op == 1:  # REMOVE
        m, k = moves.size, moves.size_k
        pos = getrandbits(k)
        while pos >= m:
            pos = getrandbits(k)
        moves.edit = pos
        del codes[pos]
    else:  # EXCHANGE
        m, k = moves.slot_count, moves.slot_k
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        p = moves.edit = moves.slots[j]
        codes[p], codes[p + 1] = candidate[p + 1], candidate[p]
    return tuple(codes)


# Entries the score memo of one search may hold beyond the ranked list before
# it is cut back to the ranked list: _MEMO_LIMIT, or _MEMO_CODES // n on a chunk
# of n > 128 lines, since an entry holds up to n codes. Cutting the rest changes
# no result; the cap bounds memory under a wall-clock budget, far above any
# evaluation budget.
_MEMO_LIMIT = 1 << 15
_MEMO_CODES = 1 << 22

# Chunks of at least this many lines, both sides together, score a memo miss
# from the climb position's prefix states (see rrhc_resolve). On shorter ones
# a miss rescans few codes, and the states cost about what they save. With the
# states forced on against off (medians of 11 alternating rounds over random
# chunks, 2 cores, Python 3.11): at one neighbour per iteration, where the climb
# moves most, they cost 1-2% at 14-16 lines, broke even at 18-20 and gained 3%
# at 22; at five neighbours they broke even at 14 and gained 3% at 16.
_PREFIX_STATES_LINES = 20


def rrhc_resolve(
    chunk: ChunkLike,
    params: SearchParams,
    *,
    clock: Callable[[], float] | None = None,
) -> SearchResult:
    """Run Random Restart Hill Climbing on one conflict chunk.

    The first climb starts from the v1+v2 concatenation; after
    ``max_stagnation_iterations`` consecutive non-improving iterations the
    search restarts from a random candidate. ``ranked`` holds the ``top_n`` best
    distinct candidates, ties in discovery order, with ``best`` at its head.

    Every candidate, the start, each restart and each neighbour, is scored at
    one site of the climb loop: one budget check, one evaluation count, a
    look-up in the score memo, which the loop reads itself, and on a miss one
    pass against the chunk's ``_Table``, built once here. Restarts come from
    ``random_candidate``; neighbours come from ``neighbor`` given the ``_Moves``
    table of the current position, rebuilt only when the climb moves or
    restarts. ``ranked`` is the memo's top ``top_n``.

    On a chunk of at least ``_PREFIX_STATES_LINES`` lines, ``states[i]`` is
    the fused vector after the position's first ``i`` codes. A start or
    restart empties it back to the vector before any code; a move to a
    neighbour cuts it back to that neighbour's edit index, up to which the
    two share their codes. A miss resumes ``lcs_length`` from the state at
    its edit index and records the missing states up to it on the way.

    ``clock`` supplies wall time, read before each iteration. With an evaluation
    budget it defaults to ``no_clock``, so results (elapsed included) are
    bit-for-bit reproducible; with a time budget it defaults to time.monotonic.
    """
    if not chunk.v1_lines and not chunk.v2_lines:
        raise ValueError("chunk has no content on either side")
    seconds = params.max_execution_time
    if clock is None:
        clock = time.monotonic if seconds is not None else no_clock

    n1 = len(chunk.v1_lines)
    n = n1 + len(chunk.v2_lines)
    table = _table(chunk)
    rng = random.Random(params.seed)
    budget = params.max_evaluations
    memo_cap = params.top_n + min(_MEMO_LIMIT, _MEMO_CODES // n)
    # Score memo in discovery order: nlargest keeps input order among equal
    # scores, so ties rank in discovery order, also across memo cuts.
    scores: dict[Candidate, float] = {}
    # The prefix states of the climb position (see lcs_length); None scores each miss in full.
    states = [table.full] if n >= _PREFIX_STATES_LINES else None
    start = clock()
    evaluations = 0
    restarts = 0

    candidate = concat_candidate(chunk)
    moves = _moves(candidate, n1, n)  # edit is its size, so a start's score records all its prefix states
    current: Candidate | None = None  # None while ``candidate`` is a start or restart
    per_iteration = params.neighbors_per_iteration
    stagnation = drawn = 0
    while True:
        if current is not None:
            if seconds is not None and not drawn and not clock() - start < seconds:
                break
            candidate = neighbor(current, moves, rng)
            drawn += 1
        if evaluations == budget:
            break
        evaluations += 1
        score = scores.get(candidate)
        if score is None:
            score = _score(candidate, table, states, moves.edit)
            if len(scores) >= memo_cap:
                scores = dict(nlargest(params.top_n, scores.items(), key=itemgetter(1)))
            scores[candidate] = score
        if current is None:
            current, current_score = candidate, score
            continue
        if drawn == 1 or score > best_neighbor_score:
            best_neighbor, best_neighbor_score, best_edit = candidate, score, moves.edit
        if drawn < per_iteration:
            continue
        drawn = 0
        if best_neighbor_score > current_score:
            current, current_score = best_neighbor, best_neighbor_score
            moves = _moves(current, n1, n)
            if states is not None:
                del states[best_edit + 1 :]  # the new position shares its first best_edit codes
            stagnation = 0
            continue
        stagnation += 1
        if stagnation >= params.max_stagnation_iterations:
            restarts += 1
            stagnation = 0
            current = None
            candidate = random_candidate(chunk, rng)
            moves = _moves(candidate, n1, n)
            if states is not None:
                del states[1:]

    ranked = nlargest(params.top_n, scores.items(), key=itemgetter(1))
    return SearchResult(
        ranked=tuple(ScoredCandidate(candidate, s) for candidate, s in ranked),
        evaluations=evaluations,
        restarts=restarts,
        elapsed=clock() - start,
    )
