"""Parse git-style conflicted files (merge and diff3 markers) and reassemble resolved files.

The parser is byte-faithful: every segment keeps its raw lines, so rendering
a parsed file with its markers intact reproduces the input exactly,
including mixed LF/CRLF endings and a missing final newline.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import ConflictRecord, Language, parse_language

MARKER_V1 = "<" * 7
MARKER_BASE = "|" * 7
MARKER_SEP = "=" * 7
MARKER_END = ">" * 7

# exactly seven marker characters at column 0, then end-of-line or one space plus a label
_MARKER_RE = re.compile(r"(<{7}|\|{7}|={7}|>{7})(?: .*)?", re.DOTALL)


class MarkerError(ValueError):
    """Malformed conflict markers; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnbalancedMarkers(MarkerError):
    pass


class NestedMarkers(MarkerError):
    pass


@dataclass
class Context:
    """A run of non-conflicted lines, stored raw (line endings included)."""

    raw_lines: list[str]


@dataclass
class ConflictChunk:
    """One marker block: the two conflicting versions and, for diff3 files, the base."""

    v1_lines: list[str]
    v2_lines: list[str]
    base_lines: list[str] | None = None
    raw_lines: list[str] = field(default_factory=list)  # verbatim block incl. markers


@dataclass
class ConflictedFile:
    segments: list[Context | ConflictChunk]
    dominant_eol: str = "\n"

    @property
    def chunks(self) -> list[ConflictChunk]:
        return [s for s in self.segments if isinstance(s, ConflictChunk)]


def _split_eol(raw: str) -> tuple[str, str | None]:
    """A raw line's text and its ending: CRLF, LF, or None for a last line without one."""
    if raw.endswith("\r\n"):
        return raw[:-2], "\r\n"
    if raw.endswith("\n"):
        return raw[:-1], "\n"
    return raw, None


def _majority_eol(raw_lines: Sequence[str]) -> str:
    """Majority ending among the given raw lines; LF wins ties and empty input."""
    eols = [_split_eol(line)[1] for line in raw_lines]
    return "\r\n" if eols.count("\r\n") > eols.count("\n") else "\n"


# marker -> (states it may appear in, state after it, error raised in any other state, message)
_TRANSITIONS = {
    MARKER_V1: (("outside",), "v1", NestedMarkers, "conflict start marker inside an open conflict"),
    MARKER_BASE: (("v1",), "base", UnbalancedMarkers, "base marker outside the first conflict section"),
    MARKER_SEP: (("v1", "base"), "v2", UnbalancedMarkers, "separator without a matching conflict start"),
    MARKER_END: (("v2",), "outside", UnbalancedMarkers, "conflict end marker without a separator"),
}


def parse_conflicted_file(text: str) -> ConflictedFile:
    """Split text into context segments and conflict chunks.

    Marker lines must sit at column 0 with exactly seven marker characters;
    anything else is content. Lines split on LF only, so a lone CR stays
    inside its line. Raises UnbalancedMarkers or NestedMarkers on malformed
    input.
    """
    lines = io.StringIO(text, newline="\n").readlines()
    segments: list[Context | ConflictChunk] = []
    state = "outside"  # outside | v1 | base | v2
    start = 0  # index of the open segment's first line: a context, or a conflict's start marker
    sections: dict[str, list[str]] = {}
    for i, raw in enumerate(lines):
        line, _ = _split_eol(raw)
        marker = _MARKER_RE.fullmatch(line)
        if marker is None:
            if state != "outside":
                sections[state].append(line)
            continue
        allowed, state_after, error, message = _TRANSITIONS[marker.group(1)]
        if state not in allowed:
            raise error(message, i + 1)
        if state == "outside":  # a conflict start closes the context and opens a chunk
            if i > start:
                segments.append(Context(raw_lines=lines[start:i]))
            start, sections = i, {}
        state = state_after
        if state == "outside":
            segments.append(ConflictChunk(sections["v1"], sections["v2"], sections.get("base"), lines[start : i + 1]))
            start = i + 1
        else:  # entering a section opens it
            sections[state] = []
    if state != "outside":
        raise UnbalancedMarkers("conflict never closed (missing end marker)", start + 1)
    if start < len(lines):
        segments.append(Context(raw_lines=lines[start:]))

    context_raw = [raw for seg in segments if isinstance(seg, Context) for raw in seg.raw_lines]
    return ConflictedFile(segments=segments, dominant_eol=_majority_eol(context_raw))


def render_with_markers(file: ConflictedFile) -> str:
    """Reproduce the parsed file verbatim, conflict markers included."""
    pieces: list[str] = []
    for segment in file.segments:
        pieces.extend(segment.raw_lines)
    return "".join(pieces)


def render_resolved(file: ConflictedFile, resolutions: Sequence[Sequence[str]]) -> str:
    """Replace each chunk with its resolution lines; context is emitted unchanged.

    Resolution lines are joined with the file's dominant line ending. An
    empty resolution deletes the chunk. A chunk that ended the file without
    a trailing newline keeps that property.
    """
    if len(resolutions) != len(file.chunks):
        raise ValueError(f"expected {len(file.chunks)} resolutions (one per chunk), got {len(resolutions)}")
    pieces: list[str] = []
    remaining = iter(resolutions)
    for segment in file.segments:
        if isinstance(segment, Context):
            pieces.extend(segment.raw_lines)
        elif lines := next(remaining):
            pieces.append(file.dominant_eol.join(lines))
            if segment.raw_lines[-1].endswith("\n"):
                pieces.append(file.dominant_eol)
    return "".join(pieces)


_NULL_COMMIT = "0" * 40


def extract_records(file: ConflictedFile, path: str = "") -> list[dict]:
    """Emit one corpus-schema JSON object per chunk (resolution left empty).

    Synthesized metadata: the id is path#index, the commit is the null hash,
    and the language is the one ``parse_language`` names by the file extension.
    """
    language = parse_language(path.rsplit(".", 1)[1]) if "." in path else Language.OTHER
    return [
        ConflictRecord(
            id=f"{path or 'conflict'}#{k}",
            project="",
            commit_hash=_NULL_COMMIT,
            file_path=path,
            language=language,
            base_lines=tuple(chunk.base_lines or ()),
            v1_lines=tuple(chunk.v1_lines),
            v2_lines=tuple(chunk.v2_lines),
            resolution_lines=(),
        ).to_json()
        for k, chunk in enumerate(file.chunks)
    ]
