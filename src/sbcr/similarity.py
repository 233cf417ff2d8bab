"""Sequence similarity: the LCS ratio the benchmark scores resolutions with.

The similarity score is the LCS ratio 2*LCS(a, b) / (|a| + |b|), applied either
to line sequences directly or to the character stream obtained by joining the
lines with a single LF.
"""

from __future__ import annotations

from enum import Enum
from typing import Hashable, Iterable, Sequence

from .search import position_masks


class Granularity(Enum):
    LINE = "line"
    CHAR = "char"


def _shared_prefix(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of the longest prefix ``a`` and ``b`` share.

    Gallops, then bisects, over slice equality, so the element comparisons
    run in C and a pair whose first elements differ pays one comparison.
    """
    limit = min(len(a), len(b))
    lo, step = 0, 1
    while lo + step <= limit and a[lo : lo + step] == b[lo : lo + step]:
        lo, step = lo + step, step * 2
    hi = min(lo + step - 1, limit)  # the prefix ends in [lo, hi]
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def lcs_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence of two sequences.

    Elements are compared by exact equality and must be hashable; callers
    pass a ``str`` (char level) or a list or tuple of ``str`` (line level).
    The prefix and suffix the two share are cut off first and counted whole,
    which is exact: LCS(xA, xB) = 1 + LCS(A, B), and likewise at the end.
    What is left runs Hyyrö's bit-parallel recurrence (Allison & Dix 1986;
    Hyyrö 2004): each element of the shorter sequence maps to the bitmask
    of its positions, and one pass over the longer sequence updates a bit
    vector ``v`` whose zero bits count the LCS, in O(|a| * |b| / w) word
    operations.
    """
    if type(a) is not type(b):  # a tuple's slices never equal a list's
        a, b = list(a), list(b)
    head = _shared_prefix(a, b)
    a, b = a[head:], b[head:]
    tail = _shared_prefix(a[::-1], b[::-1])
    a, b = a[: len(a) - tail], b[: len(b) - tail]
    if len(a) < len(b):
        a, b = b, a
    if not b:  # the shared ends hold all of the shorter side
        return head + tail
    masks = position_masks(b)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        m = masks.get(x)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return head + tail + len(b) - v.bit_count()


def similarity(
    a: Sequence[str],
    b: Sequence[str],
    granularity: Granularity = Granularity.LINE,
    *,
    trim_trailing: bool = False,
) -> float:
    """LCS ratio between two line lists at the given granularity, in [0, 1].

    Defined as 1.0 when both sides are empty. ``trim_trailing`` strips
    trailing whitespace from every line first; it exists for reporting
    only and is never used by the search objective.
    """
    if trim_trailing:
        a = [line.rstrip() for line in a]
        b = [line.rstrip() for line in b]
    if granularity is Granularity.CHAR:
        a, b = "\n".join(a), "\n".join(b)
    total = len(a) + len(b)
    if total == 0:
        return 1.0
    return 2.0 * lcs_length(a, b) / total


def char_similarities(candidates: Iterable[Sequence[str]], truth: Sequence[str]) -> list[float]:
    """``similarity(c, truth, Granularity.CHAR)`` for each line list ``c``, bit for bit.

    Built for a ranked candidate list, whose entries repeat and share leading
    lines. LCS is symmetric, so the bit vector runs over ``truth``'s joined
    text, whose masks are built once. Each distinct candidate is scored once,
    in sorted order, resuming from the state kept after the whole lines it
    shares with the candidate scored before it (Landau, Myers & Schmidt 1998);
    each distinct line's non-zero masks are looked up once.
    """
    candidates = [tuple(c) for c in candidates]
    text = "\n".join(truth)
    masks = position_masks(text)
    full = (1 << len(text)) - 1
    lf = "\n" in masks  # then every line's masks start with the LF's, which a first line skips
    line_masks: dict[str, list[int]] = {}
    scores: dict[tuple[str, ...], float] = {}
    states = [full]  # states[i]: v after the first i lines of the previous candidate and the LF before each
    previous: tuple[str, ...] = ()
    for c in sorted(set(candidates)):
        shared = 0
        while shared < len(c) and shared < len(previous) and c[shared] == previous[shared]:
            shared += 1
        del states[shared + 1 :]
        v = states[-1]
        for i in range(shared, len(c)):
            line = c[i]
            ms = line_masks.get(line)
            if ms is None:
                ms = line_masks[line] = [m for m in map(masks.get, "\n" + line) if m]
            for m in ms[1:] if lf and not i else ms:
                u = v & m
                v = ((v + u) | (v - u)) & full
            states.append(v)
        previous = c
        total = sum(map(len, c)) + max(len(c) - 1, 0) + len(text)
        scores[c] = 1.0 if total == 0 else 2.0 * (len(text) - v.bit_count()) / total
    return [scores[c] for c in candidates]
