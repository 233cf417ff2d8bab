"""Parse git-style conflicted files (merge and diff3 markers) and reassemble resolved files.

The parser is byte-faithful: every segment keeps its raw lines, so rendering
a parsed file with its markers intact reproduces the input exactly,
including mixed LF/CRLF endings and a missing final newline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import ConflictRecord, Language

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


def _split_raw_lines(text: str) -> list[str]:
    """Split on LF only, keeping endings; a lone CR stays inside its line."""
    parts = text.split("\n")
    lines = [part + "\n" for part in parts[:-1]]
    if parts[-1]:
        lines.append(parts[-1])
    return lines


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


def parse_conflicted_file(text: str) -> ConflictedFile:
    """Split text into context segments and conflict chunks.

    Marker lines must sit at column 0 with exactly seven marker characters;
    anything else is content. Raises UnbalancedMarkers or NestedMarkers on
    malformed input.
    """
    segments: list[Context | ConflictChunk] = []
    context: list[str] = []
    state = "outside"  # outside | v1 | base | v2
    chunk_raw: list[str] = []
    sections: dict[str, list[str]] = {}
    chunk_start_line = 0

    def close_context() -> None:
        if context:
            segments.append(Context(raw_lines=list(context)))
            context.clear()

    for line_no, raw in enumerate(_split_raw_lines(text), start=1):
        line, _ = _split_eol(raw)
        marker = _MARKER_RE.fullmatch(line)
        if marker is None:
            if state == "outside":
                context.append(raw)
            else:
                chunk_raw.append(raw)
                sections[state].append(line)
            continue
        kind = marker.group(1)
        if kind == MARKER_V1:
            if state != "outside":
                raise NestedMarkers("conflict start marker inside an open conflict", line_no)
            close_context()
            state = "v1"
            chunk_start_line = line_no
            chunk_raw = [raw]
            sections = {"v1": [], "v2": []}
        elif kind == MARKER_BASE:
            if state != "v1":
                raise UnbalancedMarkers("base marker outside the first conflict section", line_no)
            state = "base"
            chunk_raw.append(raw)
            sections["base"] = []
        elif kind == MARKER_SEP:
            if state not in ("v1", "base"):
                raise UnbalancedMarkers("separator without a matching conflict start", line_no)
            state = "v2"
            chunk_raw.append(raw)
        else:  # MARKER_END
            if state != "v2":
                raise UnbalancedMarkers("conflict end marker without a separator", line_no)
            chunk_raw.append(raw)
            segments.append(
                ConflictChunk(
                    v1_lines=sections["v1"],
                    v2_lines=sections["v2"],
                    base_lines=sections.get("base"),
                    raw_lines=chunk_raw,
                )
            )
            state = "outside"
    if state != "outside":
        raise UnbalancedMarkers("conflict never closed (missing end marker)", chunk_start_line)
    close_context()

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
    chunks = file.chunks
    if len(resolutions) != len(chunks):
        raise ValueError(
            f"expected {len(chunks)} resolutions (one per chunk), got {len(resolutions)}"
        )
    pieces: list[str] = []
    index = 0
    for segment in file.segments:
        if isinstance(segment, Context):
            pieces.extend(segment.raw_lines)
            continue
        lines = resolutions[index]
        index += 1
        if not lines:
            continue
        block_has_final_newline = _split_eol(segment.raw_lines[-1])[1] is not None
        for k, line in enumerate(lines):
            last = k == len(lines) - 1
            pieces.append(line if last and not block_has_final_newline else line + file.dominant_eol)
    return "".join(pieces)


_EXTENSION_LANGUAGES = {
    ".java": Language.JAVA,
    ".cs": Language.CSHARP,
    ".js": Language.JAVASCRIPT,
    ".jsx": Language.JAVASCRIPT,
    ".ts": Language.TYPESCRIPT,
    ".tsx": Language.TYPESCRIPT,
}

_NULL_COMMIT = "0" * 40


def extract_records(file: ConflictedFile, path: str = "") -> list[dict]:
    """Emit one corpus-schema JSON object per chunk (resolution left empty).

    Synthesized metadata: the id is path#index, the commit is the null hash,
    and the language comes from the file extension when recognizable.
    """
    suffix = "." + path.rsplit(".", 1)[-1] if "." in path else ""
    language = _EXTENSION_LANGUAGES.get(suffix.lower(), Language.OTHER)
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
