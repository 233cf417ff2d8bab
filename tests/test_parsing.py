import random

import pytest
from conftest import make_conflicted_file
from hypothesis import given
from hypothesis import strategies as st

from sbcr.parsing import (
    ConflictChunk,
    Context,
    NestedMarkers,
    UnbalancedMarkers,
    extract_records,
    parse_conflicted_file,
    render_resolved,
    render_with_markers,
)

# fixture mirroring the motivating one-sided chunk: a whole method block added
# on one side, resolved by keeping only the @Override line
LISTING1_V2 = [
    "",
    "",
    "    /**",
    "     * For testing",
    "     */",
    "    ChronicleMapBuilder<K, V> forceReplicatedImpl() {",
    "        this.forceReplicatedImpl = true;",
    "        return this;",
    "    }",
    "",
    "    @Override",
]

LISTING1_FILE = (
    "class ChronicleMapBuilder<K, V> {\n"
    + "<<<<<<< HEAD\n"
    + "=======\n"
    + "\n".join(LISTING1_V2)
    + "\n"
    + ">>>>>>> theirs\n"
    + "    public Map<K, V> create() {\n"
)


def test_listing1_chunk_parses_one_sided():
    parsed = parse_conflicted_file(LISTING1_FILE)
    assert len(parsed.chunks) == 1
    chunk = parsed.chunks[0]
    assert chunk.v1_lines == []
    assert len(chunk.v2_lines) == 11
    assert chunk.v2_lines == LISTING1_V2
    assert chunk.v2_lines[-1] == "    @Override"
    assert chunk.base_lines is None


def test_listing1_resolved_with_override_line():
    parsed = parse_conflicted_file(LISTING1_FILE)
    rendered = render_resolved(parsed, [["    @Override"]])
    assert rendered == (
        "class ChronicleMapBuilder<K, V> {\n"
        "    @Override\n"
        "    public Map<K, V> create() {\n"
    )


def test_file_without_markers_is_one_context_segment():
    text = "alpha\nbeta\n"
    parsed = parse_conflicted_file(text)
    assert len(parsed.segments) == 1
    assert isinstance(parsed.segments[0], Context)
    assert parsed.chunks == []
    assert render_with_markers(parsed) == text


def test_diff3_base_section():
    text = (
        "<<<<<<< ours\n"
        "mine\n"
        "||||||| base\n"
        "orig\n"
        "=======\n"
        "theirs\n"
        ">>>>>>> branch\n"
    )
    chunk = parse_conflicted_file(text).chunks[0]
    assert chunk.v1_lines == ["mine"]
    assert chunk.base_lines == ["orig"]
    assert chunk.v2_lines == ["theirs"]


def test_marker_likes_are_content_when_not_exact():
    text = (
        "<<<<<<< a\n"
        " <<<<<<< indented is content\n"
        "<<<<<<<< eight chars is content\n"
        "=======x also content\n"
        "=======\n"
        ">>>>>>>> still content\n"
        ">>>>>>> b\n"
    )
    parsed = parse_conflicted_file(text)
    assert len(parsed.chunks) == 1
    chunk = parsed.chunks[0]
    assert chunk.v1_lines == [
        " <<<<<<< indented is content",
        "<<<<<<<< eight chars is content",
        "=======x also content",
    ]
    assert chunk.v2_lines == [">>>>>>>> still content"]


@pytest.mark.parametrize(
    "text,error,line",
    [
        ("=======\n", UnbalancedMarkers, 1),
        (">>>>>>> x\n", UnbalancedMarkers, 1),
        ("||||||| b\n", UnbalancedMarkers, 1),
        ("<<<<<<< a\nbody\n", UnbalancedMarkers, 1),
        ("ctx\n<<<<<<< a\n=======\n", UnbalancedMarkers, 2),
        ("<<<<<<< a\n<<<<<<< b\n", NestedMarkers, 2),
        ("<<<<<<< a\n>>>>>>> b\n", UnbalancedMarkers, 2),
        ("<<<<<<< a\n||||||| o\n||||||| o\n", UnbalancedMarkers, 3),
        ("<<<<<<< a\n=======\n=======\n", UnbalancedMarkers, 3),
    ],
)
def test_malformed_marker_errors_carry_line_numbers(text, error, line):
    with pytest.raises(error) as info:
        parse_conflicted_file(text)
    assert info.value.line == line


# a prefix that leaves the parser in each state, and the line number the next line gets
STATE_PREFIXES = {
    "outside": ("ctx\n", 2),
    "v1": ("<<<<<<< a\nmine\n", 3),
    "base": ("<<<<<<< a\nmine\n||||||| b\norig\n", 5),
    "v2": ("<<<<<<< a\nmine\n=======\ntheirs\n", 5),
}
MARKER_LINES = {"start": "<<<<<<< x\n", "base": "||||||| x\n", "sep": "=======\n", "end": ">>>>>>> x\n"}
# what follows the marker when it is allowed: the rest of a well-formed conflict
COMPLETIONS = {
    ("outside", "start"): "left\n=======\nright\n>>>>>>> y\n",
    ("v1", "base"): "orig\n=======\nright\n>>>>>>> y\n",
    ("v1", "sep"): "right\n>>>>>>> y\n",
    ("base", "sep"): "right\n>>>>>>> y\n",
    ("v2", "end"): "after\n",
}


@pytest.mark.parametrize(
    "state,marker,expected",
    [
        ("outside", "start", (["left"], None, ["right"])),
        ("outside", "base", UnbalancedMarkers),
        ("outside", "sep", UnbalancedMarkers),
        ("outside", "end", UnbalancedMarkers),
        ("v1", "start", NestedMarkers),
        ("v1", "base", (["mine"], ["orig"], ["right"])),
        ("v1", "sep", (["mine"], None, ["right"])),
        ("v1", "end", UnbalancedMarkers),
        ("base", "start", NestedMarkers),
        ("base", "base", UnbalancedMarkers),
        ("base", "sep", (["mine"], ["orig"], ["right"])),
        ("base", "end", UnbalancedMarkers),
        ("v2", "start", NestedMarkers),
        ("v2", "base", UnbalancedMarkers),
        ("v2", "sep", UnbalancedMarkers),
        ("v2", "end", (["mine"], None, ["theirs"])),
    ],
)
def test_each_marker_in_each_state(state, marker, expected):
    """Every marker after every state: the expected error class, carrying the marker's 1-based
    line, or, completed into a well-formed conflict, one chunk with the expected sections."""
    prefix, line = STATE_PREFIXES[state]
    text = prefix + MARKER_LINES[marker] + COMPLETIONS.get((state, marker), "")
    if (state, marker) not in COMPLETIONS:
        with pytest.raises(expected) as info:
            parse_conflicted_file(text)
        assert info.value.line == line
        return
    parsed = parse_conflicted_file(text)
    [chunk] = parsed.chunks
    assert (chunk.v1_lines, chunk.base_lines, chunk.v2_lines) == expected
    assert render_with_markers(parsed) == text


def test_lone_cr_is_content_not_a_line_break():
    text = "before\rafter\n<<<<<<<\nx\r\n=======\ny\n>>>>>>>\n"
    parsed = parse_conflicted_file(text)
    assert parsed.segments[0].raw_lines == ["before\rafter\n"]
    assert parsed.chunks[0].v1_lines == ["x"]
    assert render_with_markers(parsed) == text


def test_chunk_count_matches_start_markers():
    rng = random.Random(0)
    for _ in range(100):
        text = make_conflicted_file(rng)
        parsed = parse_conflicted_file(text)
        starts = sum(
            1
            for line in text.split("\n")
            if line.rstrip("\r") == "<<<<<<<" or line.rstrip("\r").startswith("<<<<<<< ")
        )
        assert len(parsed.chunks) == starts


def test_round_trip_fuzz():
    rng = random.Random(77)
    for _ in range(200):
        text = make_conflicted_file(rng)
        assert render_with_markers(parse_conflicted_file(text)) == text


_LINE_PIECES = ["<<<<<<<", "|||||||", "=======", ">>>>>>>", "<", "=", " ", "\t", "\r", "x", "\u00e9", "\u20ac", "\U0001f600"]


def _is_marker(line: str) -> bool:
    """Seven marker characters, then the end of the line or a space. A trailing
    CR is ignored, which errs towards rejecting lines: the parser strips it
    only when an LF follows."""
    line = line.removesuffix("\r")
    return line[:7] in ("<" * 7, "|" * 7, "=" * 7, ">" * 7) and line[7:8] in ("", " ")


_content_lines = st.one_of(
    st.lists(st.sampled_from(_LINE_PIECES), max_size=5).map("".join),
    st.text(st.characters(blacklist_characters="\n"), max_size=20),
).filter(lambda line: not _is_marker(line))


@given(
    st.lists(st.tuples(_content_lines, st.sampled_from(["\n", "\r\n"])), max_size=8),
    st.booleans(),
)
def test_round_trip_property_marker_free_text(lines, final_newline):
    text = "".join(line + eol for line, eol in lines)
    if lines and not final_newline:
        text = text[: -len(lines[-1][1])]
    assert render_with_markers(parse_conflicted_file(text)) == text


def test_render_resolved_take_v1_equals_ours():
    rng = random.Random(123)
    for _ in range(30):
        text = make_conflicted_file(rng)
        parsed = parse_conflicted_file(text)
        resolved = render_resolved(parsed, [chunk.v1_lines for chunk in parsed.chunks])
        assert parse_conflicted_file(resolved).chunks == []
        # every v1 line must appear, in order, in the output
        flat = resolved.replace("\r\n", "\n").split("\n")
        for chunk in parsed.chunks:
            it = iter(flat)
            assert all(line in it for line in chunk.v1_lines)


def test_render_resolved_empty_resolution_deletes_chunk():
    text = "a\n<<<<<<<\nx\n=======\ny\n>>>>>>>\nb\n"
    parsed = parse_conflicted_file(text)
    assert render_resolved(parsed, [[]]) == "a\nb\n"


def test_render_resolved_arity_mismatch():
    parsed = parse_conflicted_file("<<<<<<<\nx\n=======\ny\n>>>>>>>\n")
    with pytest.raises(ValueError):
        render_resolved(parsed, [])


def test_render_resolved_crlf_dominant_ending():
    text = "ctx\r\n<<<<<<<\r\nx\r\n=======\r\ny\r\n>>>>>>>\r\ntail\r\n"
    parsed = parse_conflicted_file(text)
    assert parsed.dominant_eol == "\r\n"
    assert render_resolved(parsed, [["x", "y"]]) == "ctx\r\nx\r\ny\r\ntail\r\n"


def test_render_resolved_no_final_newline_preserved():
    text = "<<<<<<<\nx\n=======\ny\n>>>>>>>"
    parsed = parse_conflicted_file(text)
    assert render_resolved(parsed, [["x"]]) == "x"


def test_extract_records_schema():
    parsed = parse_conflicted_file(LISTING1_FILE)
    records = extract_records(parsed, path="Builder.java")
    assert len(records) == 1
    record = records[0]
    assert record["id"] == "Builder.java#0"
    assert record["language"] == "Java"
    assert record["v1"] == [] and len(record["v2"]) == 11
    assert record["resolution"] == []
    assert set(record) == {"id", "project", "commit", "path", "language", "base", "v1", "v2", "resolution"}


@pytest.mark.parametrize(
    "path, language",
    [("A.java", "Java"), ("a/B.JAVA", "Java"), ("C.cs", "CSharp"), ("d.Js", "JavaScript"), ("e.jsx", "JavaScript"),
     ("f.ts", "TypeScript"), ("g.TSX", "TypeScript"), ("Makefile", "Other"), ("h.py", "Other"), ("", "Other"),
     ("i.", "Other"), ("dir.java/README", "Other")],
)
def test_extract_records_names_the_language_by_extension(path, language):
    parsed = parse_conflicted_file("<<<<<<<\nx\n=======\ny\n>>>>>>>\n")
    assert extract_records(parsed, path=path)[0]["language"] == language
