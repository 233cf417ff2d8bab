import gc
import importlib.util
import json
import math
import random
import string
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from conftest import achievable_sequences
from hypothesis import given
from hypothesis import strategies as st

from sbcr.corpus import (
    ConflictRecord,
    Language,
    bundled_sample_path,
    ingest_records,
    is_combination,
    parse_language,
    preserves_partial_order,
    split_dataset,
)


def make_json(
    id="r1",
    commit="a" * 40,
    v1=("left",),
    v2=("right",),
    resolution=("left",),
    base=(),
    language="Java",
):
    return json.dumps(
        {
            "id": id,
            "project": "proj",
            "commit": commit,
            "path": "src/File.java",
            "language": language,
            "base": list(base),
            "v1": list(v1),
            "v2": list(v2),
            "resolution": list(resolution),
        }
    )


def test_ingest_accepts_well_formed_record():
    records, rejects = ingest_records([make_json()])
    assert len(records) == 1 and not rejects
    record = records[0]
    assert record.language is Language.JAVA
    assert record.v1_lines == ("left",)


def test_ingest_rejects_empty_both_sides():
    records, rejects = ingest_records([make_json(v1=[], v2=[], resolution=[])])
    assert not records
    assert rejects[0].reason == "empty-both-sides"


def test_ingest_listing1_style_one_empty_side_passes():
    v2 = ["", "", "    /**", "     * testing", "     */", "    method() {", "        x = true;", "        return;", "    }", "", "    @Override"]
    records, rejects = ingest_records([make_json(v1=[], v2=v2, resolution=["    @Override"])])
    assert len(records) == 1 and not rejects


def test_ingest_combination_filter_toggle():
    line = make_json(resolution=["brand new line"])
    records, rejects = ingest_records([line])
    assert not records and rejects[0].reason == "not-combination"
    records, rejects = ingest_records([line], combination=False)
    assert len(records) == 1 and not rejects


def test_combination_filter_uses_multiset_counts():
    assert is_combination(["x", "x"], ["x"], ["x"])
    assert not is_combination(["x", "x", "x"], ["x"], ["x"])


def test_ingest_rejects_malformed_and_duplicates_without_aborting():
    lines = [
        "not json at all {",
        make_json(id="dup"),
        make_json(id="dup", v1=["other"], resolution=["other"]),
        json.dumps({"id": "shape", "project": 1}),
        make_json(id="zz", commit="not-hex!"),
        make_json(id="ok2"),
    ]
    records, rejects = ingest_records(lines)
    assert [r.id for r in records] == ["dup", "ok2"]
    reasons = [r.reason for r in rejects]
    assert reasons == ["malformed", "duplicate-id", "malformed", "malformed"]
    assert rejects[1].line == 3


def test_ingest_rejects_an_empty_id():
    records, rejects = ingest_records([make_json(id="")])
    assert not records
    assert [(r.id, r.reason, r.detail) for r in rejects] == [("", "malformed", "empty id")]


def test_ingest_idempotent_on_accepted_records():
    lines = [make_json(id=f"r{i}", v1=[f"l{i}"], resolution=[f"l{i}"]) for i in range(5)]
    records, _ = ingest_records(lines)
    again, rejects = ingest_records(json.dumps(r.to_json()) for r in records)
    assert again == records and not rejects


LINE_FIELDS = ("base", "v1", "v2", "resolution")
# multi-character texts, so equal lines decode to separate objects (CPython
# keeps one object for the empty string and for each one-character string)
_LINE = st.sampled_from(["", "x", "left();", "right();", "    return;", "  }"])
_FIELD = st.one_of(st.lists(_LINE, max_size=6), st.lists(st.one_of(_LINE, st.integers()), max_size=3))
_RECORD = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["r1", "r2", "r3"]),
        "project": st.just("proj"),
        "commit": st.text("0123456789abcdefABCDEFg-", max_size=4),
        "path": st.just("src/File.java"),
        "language": st.sampled_from([language.value for language in Language]),
        **{key: _FIELD for key in LINE_FIELDS},
    }
)


def _expected_verdict(obj: dict, seen_ids: set[str]) -> str | None:
    """The rejection reason the corpus spec gives ``obj``, or None if it is accepted."""
    if not obj["commit"] or not set(obj["commit"]) <= set(string.hexdigits):
        return "malformed"
    if not all(isinstance(line, str) for key in LINE_FIELDS for line in obj[key]):
        return "malformed"
    if obj["id"] in seen_ids:
        return "duplicate-id"
    seen_ids.add(obj["id"])
    if not obj["v1"] and not obj["v2"]:
        return "empty-both-sides"
    if Counter(obj["resolution"]) - Counter(obj["v1"] + obj["v2"]):
        return "not-combination"
    return None


@given(st.lists(_RECORD, max_size=6))
def test_ingest_holds_each_distinct_line_of_a_record_once(objs):
    records, rejects = ingest_records([json.dumps(obj) for obj in objs])
    seen_ids: set[str] = set()
    verdicts = [_expected_verdict(obj, seen_ids) for obj in objs]
    assert [(r.line, r.id, r.reason) for r in rejects] == [
        (line_no, obj["id"], verdict) for line_no, (obj, verdict) in enumerate(zip(objs, verdicts), start=1) if verdict
    ]
    assert [record.to_json() for record in records] == [obj for obj, verdict in zip(objs, verdicts) if not verdict]
    for record in records:
        lines = [*record.base_lines, *record.v1_lines, *record.v2_lines, *record.resolution_lines]
        assert len({id(line) for line in lines}) == len(set(lines)), record


def _unshared_record(raw: str) -> ConflictRecord:
    """The record ``raw`` holds, each line its own decoded object."""
    obj = json.loads(raw)
    return ConflictRecord(
        obj["id"], obj["project"], obj["commit"], obj["path"], parse_language(obj["language"]),
        *(tuple(obj[key]) for key in LINE_FIELDS),
    )


def _traced_bytes(build):
    """Bytes still allocated once ``build()`` returns, with its result kept alive."""
    gc.collect()  # empties the free lists, so every tuple built is an allocation tracemalloc sees
    tracemalloc.start()
    try:
        kept = build()
        return tracemalloc.get_traced_memory()[0], kept
    finally:
        tracemalloc.stop()


def test_ingested_records_take_less_memory_than_unshared_lines():
    """61% of the bundled sample's line strings repeat a line of their own record;
    holding each once takes about 40% off the records' traced bytes. The bound is
    relative, so it holds whatever a str or a tuple costs on this Python."""
    raw = bundled_sample_path().read_text(encoding="utf-8").splitlines()
    builds = (lambda: ingest_records(raw)[0], lambda: [_unshared_record(line) for line in raw])
    for build in builds:
        build()  # a first run fills caches that would count as the records' bytes
    (shared, records), (unshared, copies) = map(_traced_bytes, builds)
    assert records == copies and len(records) == 50
    assert shared < 0.75 * unshared, (shared, unshared)


def test_parse_language_aliases():
    assert parse_language("C#") is Language.CSHARP
    assert parse_language("js") is Language.JAVASCRIPT
    assert parse_language("COBOL") is Language.OTHER


def test_ingest_maps_jsx_and_tsx_tags_to_their_languages():
    """A conflicted file's .jsx or .tsx extension named its language; the same names as a record's tag did not."""
    records, _ = ingest_records([make_json(id="a", language="jsx"), make_json(id="b", language="TSX")])
    assert [r.language for r in records] == [Language.JAVASCRIPT, Language.TYPESCRIPT]


def test_partial_order_spec_examples():
    assert preserves_partial_order(["a", "c", "b"], ["a", "b"], ["c"])
    assert not preserves_partial_order(["b", "a"], ["a", "b"], [])
    assert preserves_partial_order([], ["a", "b"], ["c"])


def test_partial_order_duplicates_by_position():
    assert preserves_partial_order(["a", "a"], ["a"], ["a"])
    assert not preserves_partial_order(["a", "a", "a"], ["a"], ["a"])


def test_partial_order_matches_enumeration_oracle():
    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        n1 = rng.randint(0, 4)
        n2 = rng.randint(0, min(4, 7 - n1))
        v1 = [rng.choice("ab") for _ in range(n1)]
        v2 = [rng.choice("ab") for _ in range(n2)]
        reachable = achievable_sequences(v1, v2)
        for _ in range(4):
            if rng.random() < 0.5 and reachable:
                probe = list(rng.choice(sorted(reachable)))
            else:
                probe = [rng.choice("ab") for _ in range(rng.randint(0, n1 + n2))]
            assert preserves_partial_order(probe, v1, v2) == (tuple(probe) in reachable)
            checked += 1
    assert checked >= 1000


def test_split_sizes_and_determinism():
    ids = [f"id{i}" for i in range(100)]
    split = split_dataset(ids, seed=9, ratios=(0.8, 0.1, 0.1))
    assert (len(split.train_ids), len(split.valid_ids), len(split.test_ids)) == (80, 10, 10)
    assert split == split_dataset(ids, seed=9, ratios=(0.8, 0.1, 0.1))


def test_split_floor_cut_small_input():
    split = split_dataset([f"i{k}" for k in range(5)], seed=1, ratios=(0.8, 0.1, 0.1))
    assert (len(split.train_ids), len(split.valid_ids), len(split.test_ids)) == (4, 0, 1)


@pytest.mark.parametrize("n,ratios,sizes", [(10, (0.1, 0.7, 0.2), (1, 7, 2)), (30, (0.7, 0.2, 0.1), (21, 6, 3))])
def test_split_cuts_decimal_ratios_at_their_decimal_value(n, ratios, sizes):
    """0.1 + 0.7 is 0.7999999999999999 in floats; a bare floor cut 10 ids at 0.1,0.7,0.2 into 1/6/3."""
    split = split_dataset([f"i{k}" for k in range(n)], seed=1, ratios=ratios)
    assert (len(split.train_ids), len(split.valid_ids), len(split.test_ids)) == sizes


def test_split_cuts_every_one_decimal_ratio_triple_exactly():
    tenths = [(a, b, 10 - a - b) for a in range(11) for b in range(11 - a)]
    for n in range(61):
        for a, b, c in tenths:
            split = split_dataset(range(n), seed=0, ratios=(a / 10, b / 10, c / 10))
            train, valid = n * a // 10, n * (a + b) // 10 - n * a // 10
            assert (len(split.train_ids), len(split.valid_ids), len(split.test_ids)) == (train, valid, n - train - valid)


def test_split_partition_property():
    rng = random.Random(5)
    for _ in range(50):
        ids = [f"id{i}" for i in range(rng.randint(0, 40))]
        r1 = rng.random()
        r2 = rng.random() * (1 - r1)
        split = split_dataset(ids, rng.randrange(2**32), (r1, r2, 1 - r1 - r2))
        combined = list(split.train_ids) + list(split.valid_ids) + list(split.test_ids)
        assert sorted(combined) == sorted(ids)
        assert len(set(combined)) == len(combined)


def test_split_rejects_bad_ratios():
    with pytest.raises(ValueError):
        split_dataset(["a"], 0, (0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        split_dataset(["a"], 0, (-0.1, 0.6, 0.5))


@pytest.mark.parametrize("seed", [-5, 2**64, 1.5, True])
def test_split_rejects_a_seed_the_engine_rejects(seed):
    """``random.Random`` seeds from an int's absolute value, so seed -5 split as seed 5."""
    with pytest.raises(ValueError, match="seed"):
        split_dataset(["a", "b"], seed, (0.5, 0.5, 0.0))


@pytest.mark.parametrize(
    "ratios", [(0.5, 0.5, math.nan), (math.nan, 0.5, 0.5), (0.5, math.inf, 0.5), (1.0, math.inf, -math.inf)]
)
def test_split_rejects_non_finite_ratios(ratios):
    with pytest.raises(ValueError, match="ratios"):
        split_dataset(["a", "b"], 0, ratios)


def test_bundled_sample_matches_its_generator(tmp_path, monkeypatch):
    """tools/make_sample_dataset.py reproduces the bundled sample byte for byte."""
    tool = Path(__file__).resolve().parent.parent / "tools" / "make_sample_dataset.py"
    spec = importlib.util.spec_from_file_location("make_sample_dataset", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path / "sample_conflicts.jsonl")
    assert module.main() == 0
    assert module.OUT.read_bytes() == bundled_sample_path().read_bytes()


def test_ingest_rejects_json_nested_too_deep():
    records, rejects = ingest_records(["[" * 100_000, make_json()])
    assert [r.id for r in records] == ["r1"]
    assert [(r.line, r.reason) for r in rejects] == [(1, "malformed")]
    assert "too deep" in rejects[0].detail


def test_ingest_rejects_strings_utf8_cannot_encode():
    lone = make_json(id="lone", v1=["\ud800"], resolution=["\ud800"])
    assert "\\ud800" in lone  # json.dumps escapes it, as a hand-written record would
    pair = make_json(id="pair", v1=["\U0001f600"], resolution=["\U0001f600"])
    records, rejects = ingest_records([lone, pair])
    assert [r.id for r in records] == ["pair"]
    assert [(r.line, r.id, r.reason) for r in rejects] == [(1, None, "malformed")]
    assert "surrogates not allowed" in rejects[0].detail
    for record in records:
        json.dumps(record.to_json(), ensure_ascii=False).encode("utf-8")
