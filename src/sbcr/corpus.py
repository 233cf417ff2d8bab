"""Dataset handling: load, validate, filter and split conflict records.

Records arrive as line-delimited JSON objects:

    {"id", "project", "commit", "path", "language",
     "base": [...], "v1": [...], "v2": [...], "resolution": [...]}

where the arrays hold text lines without trailing newline characters.

An ingested record holds one ``str`` per distinct line text: its base, v1,
v2 and resolution tuples point at the same object wherever a line repeats,
and an accepted resolution only repeats version lines. Lines are shared
within a record, never across records, so nothing outlives the records.
On a 2,000-record stream (perfbench's ``dataset`` seed 1) 61% of line
strings repeat a line of their record, and sharing takes the records'
traced memory from 4.17 to 2.56 MB.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from contextlib import suppress
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

from .search import check_seed


class Language(str, Enum):
    JAVA = "Java"
    CSHARP = "CSharp"
    JAVASCRIPT = "JavaScript"
    TYPESCRIPT = "TypeScript"
    OTHER = "Other"


_LANGUAGE_ALIASES = {
    "java": Language.JAVA,
    "csharp": Language.CSHARP,
    "c#": Language.CSHARP,
    "cs": Language.CSHARP,
    "javascript": Language.JAVASCRIPT,
    "js": Language.JAVASCRIPT,
    "jsx": Language.JAVASCRIPT,
    "typescript": Language.TYPESCRIPT,
    "ts": Language.TYPESCRIPT,
    "tsx": Language.TYPESCRIPT,
}


def parse_language(name: str) -> Language:
    """Map a language tag or file extension, in any case, to the enum; unknown names become OTHER."""
    return _LANGUAGE_ALIASES.get(name.strip().lower(), Language.OTHER)


@dataclass(frozen=True)
class ConflictRecord:
    """One real-world conflict: base, the two conflicting versions, and the developer resolution."""

    id: str
    project: str
    commit_hash: str
    file_path: str
    language: Language
    base_lines: tuple[str, ...]
    v1_lines: tuple[str, ...]
    v2_lines: tuple[str, ...]
    resolution_lines: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "project": self.project,
            "commit": self.commit_hash,
            "path": self.file_path,
            "language": self.language.value,
            "base": list(self.base_lines),
            "v1": list(self.v1_lines),
            "v2": list(self.v2_lines),
            "resolution": list(self.resolution_lines),
        }


@dataclass(frozen=True)
class RejectionReport:
    """Machine-readable reason for a rejected input record."""

    line: int
    id: str | None
    reason: str  # empty-both-sides | not-combination | malformed | duplicate-id
    detail: str = ""

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DatasetSplit:
    train_ids: tuple[str, ...]
    valid_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def _string_list(value, shared: dict[str, str]) -> tuple[str, ...] | None:
    """``value`` as a tuple of lines, or None unless it is a list of strings.

    Each line is the object ``shared`` holds for its text, added on first sight,
    so equal lines across a record's four tuples are one ``str``. The tuple is
    built from a list, at its exact size: ``tuple()`` of a ``map`` grows its
    tuple as it goes and then shrinks it, which held on to resident memory.
    """
    if not isinstance(value, list) or not all(map(isinstance, value, repeat(str))):
        return None
    return tuple([shared.setdefault(line, line) for line in value])


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _record_from_json(obj: dict) -> ConflictRecord | str:
    """Build a record from a decoded JSON object, or return a malformation detail."""
    if not isinstance(obj, dict):
        return "record is not a JSON object"
    for key in ("id", "project", "commit", "path", "language"):
        if not isinstance(obj.get(key), str):
            return f"missing or non-string field {key!r}"
    if not obj["id"]:
        return "empty id"
    commit = obj["commit"]
    if not commit or not _HEX_DIGITS.issuperset(commit):
        return "commit is not a hex string"
    lists = {}
    shared: dict[str, str] = {}  # this record's lines: a table for the corpus would hold every line ingested
    for key in ("base", "v1", "v2", "resolution"):
        lines = _string_list(obj.get(key), shared)
        if lines is None:
            return f"field {key!r} is not a list of strings"
        lists[key] = lines
    return ConflictRecord(
        id=obj["id"],
        project=obj["project"],
        commit_hash=commit,
        file_path=obj["path"],
        language=parse_language(obj["language"]),
        base_lines=lists["base"],
        v1_lines=lists["v1"],
        v2_lines=lists["v2"],
        resolution_lines=lists["resolution"],
    )


def load_json(text: str):
    """``json.loads`` for text read from outside the program.

    JSON nested too deep to decode, or holding a string that UTF-8 cannot
    encode (a lone surrogate, which only a ``\\u`` escape can put in decoded
    text), raises ValueError like any other bad JSON.
    """
    try:
        obj = json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"nested too deep: {exc}") from None
    if "\\u" in text:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")  # UnicodeEncodeError is a ValueError
    return obj


def is_combination(resolution: Sequence[str], v1: Sequence[str], v2: Sequence[str]) -> bool:
    """True iff every resolution line occurs in v1 or v2 (multiset containment, exact text)."""
    return Counter(resolution) <= Counter([*v1, *v2])  # one Counter: Counter + Counter loops in Python


def ingest_records(stream: Iterable[str], *, combination: bool = True) -> tuple[list[ConflictRecord], list[RejectionReport]]:
    """Read line-delimited JSON records, validate them, and report rejections.

    A malformed line (see ``load_json``) is reported and skipped without
    aborting the stream. Duplicate ids keep the first occurrence. Blank lines
    are ignored. ``combination`` rejects records whose resolution uses a line
    absent from both versions (see ``is_combination``).
    """
    accepted: list[ConflictRecord] = []
    rejections: list[RejectionReport] = []
    seen_ids: set[str] = set()
    for line_no, raw in enumerate(stream, start=1):
        if not raw.strip():
            continue
        try:
            obj = load_json(raw)
        except ValueError as exc:
            rejections.append(RejectionReport(line_no, None, "malformed", f"invalid JSON: {exc}"))
            continue
        built = _record_from_json(obj)
        if isinstance(built, str):
            rec_id = obj.get("id") if isinstance(obj, dict) and isinstance(obj.get("id"), str) else None
            rejections.append(RejectionReport(line_no, rec_id, "malformed", built))
            continue
        if built.id in seen_ids:
            rejections.append(RejectionReport(line_no, built.id, "duplicate-id", "id already ingested"))
            continue
        seen_ids.add(built.id)
        if not built.v1_lines and not built.v2_lines:
            rejections.append(RejectionReport(line_no, built.id, "empty-both-sides", "both versions empty"))
            continue
        if combination and not is_combination(built.resolution_lines, built.v1_lines, built.v2_lines):
            rejections.append(
                RejectionReport(line_no, built.id, "not-combination", "resolution uses lines absent from both versions")
            )
            continue
        accepted.append(built)
    return accepted, rejections


def load_records(path: str | Path) -> tuple[list[ConflictRecord], list[RejectionReport]]:
    """Ingest records from a file path."""
    with open(path, encoding="utf-8") as fh:
        return ingest_records(fh)


def preserves_partial_order(
    resolution: Sequence[str], v1: Sequence[str], v2: Sequence[str]
) -> bool:
    """True iff the resolution is an interleaving of subsequences of v1 and v2.

    Equivalently: the resolution can be produced by deleting lines from each
    version and merging the survivors without reordering within a version.
    Duplicated line texts are handled by position. The check walks the
    resolution keeping a Pareto frontier of (v1 consumed, v2 consumed) pairs;
    matching each line at its earliest still-available occurrence dominates
    any later choice, so the frontier stays small.
    """
    frontier: set[tuple[int, int]] = {(0, 0)}
    for line in resolution:
        nxt: set[tuple[int, int]] = set()
        for i, j in frontier:
            with suppress(ValueError):  # index raises it when no match is left
                nxt.add((v1.index(line, i) + 1, j))
            with suppress(ValueError):
                nxt.add((i, v2.index(line, j) + 1))
        if not nxt:
            return False
        frontier = _pareto_minimal(nxt)
    return True


def _pareto_minimal(states: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Drop states dominated by another state that consumed no more of either version."""
    keep: set[tuple[int, int]] = set()
    for i, j in sorted(states):
        if not any(ki <= i and kj <= j for ki, kj in keep):
            keep.add((i, j))
    return keep


RATIO_TOLERANCE = 1e-9  # float slack in a decimal ratio: their sum, and each split cut


def check_ratios(ratios: Sequence[float]) -> tuple[float, float, float]:
    """The train/valid/test ratios as a triple; ValueError unless they are three
    finite, non-negative numbers summing to 1 within RATIO_TOLERANCE."""
    if len(ratios) != 3 or not all(0 <= r < math.inf for r in ratios):
        raise ValueError(f"ratios must be three finite non-negative numbers, got {tuple(ratios)}")
    if abs(sum(ratios) - 1.0) > RATIO_TOLERANCE:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    return (ratios[0], ratios[1], ratios[2])


def split_dataset(
    ids: Sequence[str], seed: int, ratios: tuple[float, float, float]
) -> DatasetSplit:
    """Deterministically shuffle ids and cut them into train/valid/test partitions.

    Cut points are floor(n * r + RATIO_TOLERANCE) for r = r_train and r_train + r_valid,
    so decimal ratios cut at their decimal value: 10 ids at 0.1,0.7,0.2 split 1/7/2;
    the remainder goes to test. The ratios must pass ``check_ratios``, and the seed ``check_seed``.
    """
    ratios = check_ratios(ratios)
    shuffled = list(ids)
    random.Random(check_seed(seed)).shuffle(shuffled)
    n = len(shuffled)
    cut1 = math.floor(n * ratios[0] + RATIO_TOLERANCE)
    cut2 = math.floor(n * (ratios[0] + ratios[1]) + RATIO_TOLERANCE)
    return DatasetSplit(
        train_ids=tuple(shuffled[:cut1]),
        valid_ids=tuple(shuffled[cut1:cut2]),
        test_ids=tuple(shuffled[cut2:]),
    )


def bundled_sample_path() -> Path:
    """Path of the 50-record sample dataset shipped with the package."""
    return Path(__file__).parent / "data" / "sample_conflicts.jsonl"
