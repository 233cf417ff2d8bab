"""Fuzzed inputs for every subcommand that reads data.

Whatever a command reads, it exits 0, 1, 2 or 3, never 4 (an internal
error), and a command that exits non-zero leaves every output it was given
byte for byte as it was. Inputs are generated bytes, near-schema JSON lines
and conflicted files full of marker noise.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sbcr.cli import main

EARLIER = b"earlier output\n"

# every file a command below may write, all in one output directory
OUTPUTS = (
    "ok.jsonl", "rejects.jsonl", "train.jsonl", "valid.jsonl", "test.jsonl", "split.json", "rows.jsonl",
    "tune.csv", "decisions.jsonl", "resolved.txt", "report.json", "sim_diff.csv", "balance_histogram.csv",
)

# {a} and {b} are input files, {out} the output directory
RECORD_COMMANDS = (
    ["ingest", "{a}", "--out", "{out}/ok.jsonl", "--rejects", "{out}/rejects.jsonl"],
    ["split", "{a}", "--seed", "1", "--out-dir", "{out}"],
    ["bench", "{a}", "--engine", "trivial:take-base", "--out", "{out}/rows.jsonl"],
    ["bench", "{a}", "--engine", "sbcr", "--max-evals", "20", "--out", "{out}/rows.jsonl"],
    ["tune", "{a}", "--sample", "3", "--grid-neighbors", "2", "--grid-budgets", "20", "--grid-stagnation", "3",
     "--out", "{out}/tune.csv"],
    ["route", "{a}", "--decisions", "{out}/decisions.jsonl"],
)
RESOLVE_COMMANDS = (
    ["resolve", "{a}", "--engine", "trivial:take-v1", "--out", "{out}/resolved.txt"],
    ["resolve", "{a}", "--engine", "trivial:take-base", "--out", "{out}/resolved.txt"],
    ["resolve", "{a}", "--engine", "sbcr", "--max-evals", "20", "--out", "{out}/resolved.txt"],
    ["resolve", "{a}", "--records", "--out", "{out}/resolved.txt"],
)
COMPARE_COMMAND = ["compare", "{a}", "{b}", "--out", "{out}/report.json", "--csv-dir", "{out}"]


def run_all(commands, a: bytes, b: bytes = b"") -> None:
    """Run each command on input files holding ``a`` and ``b`` and check its exit code and outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "a").write_bytes(a)
        (tmp / "b").write_bytes(b)
        out = tmp / "out"
        out.mkdir()
        code = 0
        for argv in commands:
            if code == 0:  # the first command, or one after a command that wrote its outputs
                for name in OUTPUTS:
                    (out / name).write_bytes(EARLIER)
            code = main([arg.format(a=tmp / "a", b=tmp / "b", out=out) for arg in argv])
            assert code in (0, 1, 2, 3), argv
            if code:
                assert [(out / name).read_bytes() for name in OUTPUTS] == [EARLIER] * len(OUTPUTS), argv


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# ordinary code lines, a surrogate pair, and now and then a lone surrogate
_LINE = st.sampled_from(["a", "b;", "x = 1;", "", "  }", "é", "\U0001f600"] * 3 + ["\ud800", "x\udfff"]) | st.text(max_size=4)
_LINES = st.lists(_LINE, max_size=4)
_ODD_LINES = st.sampled_from(["", "  ", "{", "null", "[]", '{"id": 1}', "[" * 100_000, '{"v1": "\\ud800"}'])


def _near(valid: dict) -> st.SearchStrategy[str]:
    """A JSON line of an object drawn from ``valid``, with at most one field dropped
    or replaced by any JSON value, escaped to ASCII or not."""

    def build(obj, field, junk, drop, ascii_only):
        if field is not None:
            obj = {k: v for k, v in obj.items() if k != field} if drop else {**obj, field: junk}
        return json.dumps(obj, ensure_ascii=ascii_only)

    fields = st.none() | st.sampled_from(sorted(valid))
    ascii_only = st.sampled_from([True, True, True, False])  # raw lone surrogates make the file unreadable
    return st.builds(build, st.fixed_dictionaries(valid), fields, _JSON, st.booleans(), ascii_only)


_RECORD_LINE = _near(
    {
        "id": st.sampled_from(["r1", "r2", "r3", "r4"]),
        "project": st.just("p"),
        "commit": st.sampled_from(["ab12", "c0ffee"]),
        "path": st.just("F.java"),
        "language": st.sampled_from(["Java", "cs", "Python"]),
        "base": _LINES,
        "v1": _LINES,
        "v2": _LINES,
        "resolution": st.sampled_from([[], ["a"], ["b;"]]),
    }
)
_ROW = {
    "conflict_id": st.sampled_from(["\ud800", "r1"]) | st.text(max_size=3),
    "resolver_id": st.just("sbcr"),
    "sim_line": st.floats(0, 1),
    "sim_char": st.floats(0, 1),
    "elapsed": st.just(0.0),
    "status": st.just("ok"),
    "balance": st.floats(-1, 1),
}
# rows with distinct ids, each with a second sim_char for the other side of a comparison
_ROW_PAIRS = st.lists(
    st.tuples(st.fixed_dictionaries(_ROW), st.floats(0, 1)), max_size=4, unique_by=lambda pair: pair[0]["conflict_id"]
)


def _join(lines, crlf: bool = False) -> bytes:
    # surrogatepass writes a lone surrogate as the bytes no UTF-8 decoder accepts
    return ("\r\n" if crlf else "\n").join(lines).encode("utf-8", "surrogatepass")


# stray markers and text around well-formed conflicts, with or without a base section
_STRAY = st.sampled_from(["<<<<<<<", "||||||| base", "=======", ">>>>>>>", "<<<<<<<< x", "======= "]) | _LINE
_CONFLICT = st.builds(
    lambda ours, base, theirs: ["<<<<<<< ours", *ours]
    + ([] if base is None else ["||||||| base", *base])
    + ["=======", *theirs, ">>>>>>> theirs"],
    _LINES,
    st.none() | _LINES,
    _LINES,
)
_MARKED_LINES = st.lists(_CONFLICT | _STRAY.map(lambda line: [line]), max_size=5).map(
    lambda blocks: [line for block in blocks for line in block]
)


@settings(max_examples=60)
@given(st.binary(max_size=200))
def test_any_bytes(data):
    run_all(RECORD_COMMANDS + RESOLVE_COMMANDS + (COMPARE_COMMAND,), data, data)


@settings(max_examples=60)
@given(st.lists(st.one_of(_RECORD_LINE, _RECORD_LINE, _ODD_LINES), min_size=1, max_size=5), st.booleans())
def test_near_schema_records(lines, crlf):
    run_all(RECORD_COMMANDS, _join(lines, crlf))


@settings(max_examples=100)
@given(_MARKED_LINES, st.booleans(), st.booleans())
def test_marker_noise(lines, crlf, final_newline):
    run_all(RESOLVE_COMMANDS, _join(lines + [""] * final_newline, crlf))


@settings(max_examples=60)
@given(_ROW_PAIRS, st.lists(_near(_ROW) | _ODD_LINES, max_size=2))
def test_near_schema_result_rows(pairs, noise):
    a = [json.dumps(row) for row, _ in pairs]
    b = [json.dumps({**row, "sim_char": other}) for row, other in pairs]
    run_all((COMPARE_COMMAND,), _join(a), _join(b))
    run_all((COMPARE_COMMAND,), _join(a + noise), _join(b))
