"""Sequence similarity: the LCS ratio the benchmark scores resolutions with.

The similarity score is the LCS ratio 2*LCS(a, b) / (|a| + |b|), applied either
to line sequences directly or to the character stream obtained by joining the
lines with a single LF.
"""

from __future__ import annotations

from enum import Enum
from typing import Hashable, Sequence


class Granularity(Enum):
    LINE = "line"
    CHAR = "char"


def lcs_length(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence of two sequences.

    Elements are compared by exact equality and must be hashable; callers
    pass a ``str`` (char level) or a list of ``str`` (line level). Uses
    Hyyrö's bit-parallel recurrence (Allison & Dix 1986; Hyyrö 2004): each
    element of the shorter sequence maps to the bitmask of its positions,
    and one pass over the longer sequence updates a bit vector ``v`` whose
    zero bits count the LCS, in O(|a| * |b| / w) word operations.
    """
    if len(a) < len(b):
        a, b = b, a
    masks: dict[Hashable, int] = {}
    bit = 1
    for y in b:
        masks[y] = masks.get(y, 0) | bit
        bit <<= 1
    full = bit - 1
    v = full
    for x in a:
        m = masks.get(x)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


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
