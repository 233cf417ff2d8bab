import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sbcr
from sbcr.cli import DEFAULTS, ENGINES, SETTINGS, _build_resolver, build_parser, main
from sbcr.corpus import bundled_sample_path
from sbcr.stub_server import StubServer

LISTING_FILE = "before\n<<<<<<< ours\nleft line\n=======\nright line\n>>>>>>> theirs\nafter\n"


@pytest.fixture()
def conflicted_file(tmp_path):
    path = tmp_path / "conflicted.java"
    path.write_text(LISTING_FILE, encoding="utf-8")
    return path


def sample_args(n=None):
    return str(bundled_sample_path())


def test_help_exists_for_every_subcommand(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    for command in ("ingest", "split", "resolve", "bench", "tune", "compare", "route", "serve-stub"):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--help" in out


def test_serve_stub_refuses_an_unknown_mode_before_binding(capsys):
    assert main(["serve-stub", "--mode", "bogus", "--port", "0"]) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_usage_error_exit_code_1(capsys, tmp_path):
    assert main(["resolve"]) == 1  # missing positional
    assert main(["no-such-command"]) == 1
    clean = tmp_path / "clean.txt"
    clean.write_text("x\n", encoding="utf-8")
    assert main(["resolve", str(clean), "--engine", "warp-drive"]) == 1


def test_no_command_prints_usage_and_exits_1(capsys):
    assert main([]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: sbcr ")


def test_a_closed_stdout_ends_the_run_quietly(capsys, monkeypatch):
    """A reader that goes away (``sbcr route ... | head``) ends the run with exit 0 and no traceback."""

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["route", sample_args()]) == 0
    assert capsys.readouterr().err == ""


def test_show_config_prints_effective_config(capsys, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"neighbors": 9}), encoding="utf-8")
    assert main(["--config", str(config), "--show-config"]) == 0
    effective = json.loads(capsys.readouterr().out)
    assert effective["neighbors"] == 9
    assert effective["stagnation"] == 10


def test_config_flag_precedence(capsys, tmp_path):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"seed": 5}), encoding="utf-8")
    assert main(["--config", str(config), "--show-config"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"turbo": True}), encoding="utf-8")
    assert main(["--config", str(config), "--show-config"]) == 1


def test_resolve_file_without_conflicts_is_identity(tmp_path, capsys):
    source = tmp_path / "clean.txt"
    source.write_text("one\ntwo\n", encoding="utf-8")
    out = tmp_path / "resolved.txt"
    assert main(["resolve", str(source), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "one\ntwo\n"


def test_resolve_take_v1_on_one_sided_chunk(tmp_path):
    source = tmp_path / "listing.java"
    source.write_text("head\n<<<<<<<\n=======\nadded line\n>>>>>>>\ntail\n", encoding="utf-8")
    out = tmp_path / "resolved.java"
    assert main(["resolve", str(source), "--engine", "trivial:take-v1", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "head\ntail\n"


def test_resolve_sbcr_engine(conflicted_file, tmp_path):
    out = tmp_path / "resolved.java"
    assert main(["resolve", str(conflicted_file), "--engine", "sbcr", "--max-evals", "200", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "<<<<<<<" not in text
    assert text.startswith("before\n") and text.endswith("after\n")


def test_resolve_parse_error_exit_2(tmp_path):
    bad = tmp_path / "broken.txt"
    bad.write_text("=======\n", encoding="utf-8")
    assert main(["resolve", str(bad)]) == 2


def test_resolve_chunk_with_both_sides_empty(tmp_path):
    source = tmp_path / "degenerate.txt"
    source.write_text("a\n<<<<<<<\n=======\n>>>>>>>\nb\n", encoding="utf-8")
    out = tmp_path / "resolved.txt"
    assert main(["resolve", str(source), "--engine", "sbcr", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "a\nb\n"


@pytest.mark.parametrize(
    "engine, resolved",
    [("trivial:take-base", "a\nkept\nb\n"), ("sbcr", "a\nb\n")],
    ids=["take-base", "sbcr"],
)
def test_resolve_passes_a_chunk_both_sides_deleted_to_its_engine(tmp_path, engine, resolved):
    """The CLI used to skip such a chunk for every engine, so take-base dropped its base lines."""
    source = tmp_path / "deleted.txt"
    source.write_text("a\n<<<<<<< ours\n||||||| base\nkept\n=======\n>>>>>>> theirs\nb\n", encoding="utf-8")
    out = tmp_path / "resolved.txt"
    assert main(["resolve", str(source), "--engine", engine, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == resolved


def test_resolve_missing_file_exit_2(tmp_path):
    assert main(["resolve", str(tmp_path / "absent.txt")]) == 2


def test_resolve_records_extraction(conflicted_file, tmp_path, capsys):
    out = tmp_path / "chunks.jsonl"
    assert main(["resolve", str(conflicted_file), "--records", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["v1"] == ["left line"]
    assert record["v2"] == ["right line"]
    assert record["resolution"] == []


@pytest.mark.parametrize(
    "flags",
    [["--engine", "sbcr"], ["--engine", "bogus", "--neighbors", "0"],
     *(["--" + key.replace("_", "-"), "http://127.0.0.1:9" if kind is str else "1"] for key, (_, kind, _) in SETTINGS.items())],
    ids=lambda flags: " ".join(flags),
)
def test_resolve_records_refuses_engine_and_settings_flags_before_reading(conflicted_file, tmp_path, capsys, flags):
    out = tmp_path / "chunks.jsonl"
    assert main(["resolve", str(tmp_path / "missing.txt"), "--records", *flags]) == 1
    assert main(["resolve", str(conflicted_file), "--records", *flags, "--out", str(out)]) == 1
    # resolve takes no --top-n at all and no engine outside ENGINES, so argparse refuses them
    if flags[0] == "--top-n":
        refusal = "unrecognized arguments: --top-n"
    elif "bogus" in flags:
        refusal = "invalid choice: 'bogus'"
    else:
        refusal = f"it takes no {flags[0]}"
    assert capsys.readouterr().err.count(refusal) == 2
    assert not out.exists()


def test_resolve_remote_failure_exit_3(conflicted_file, tmp_path):
    code = main(
        ["resolve", str(conflicted_file), "--engine", "remote", "--endpoint", "http://127.0.0.1:9", "--deadline", "0.3"]
    )
    assert code == 3


def test_resolve_remote_against_stub(conflicted_file, tmp_path):
    server = StubServer(mode="echo-v2", port=0).start()
    try:
        out = tmp_path / "resolved.txt"
        code = main(["resolve", str(conflicted_file), "--engine", "remote", "--endpoint", server.url, "--out", str(out)])
        assert code == 0
        assert "right line" in out.read_text(encoding="utf-8")
    finally:
        server.stop()


@pytest.mark.parametrize("mode", ["truncate", "empty"])
def test_resolve_remote_refuses_an_answer_the_router_would_not_trust(conflicted_file, tmp_path, capsys, mode):
    """A truncated or empty reply to a chunk with lines used to be written with exit 0 and nothing on stderr."""
    server = StubServer(mode=mode, port=0).start()
    try:
        out = tmp_path / "resolved.txt"
        out.write_bytes(b"kept\r\n")
        argv = ["resolve", str(conflicted_file), "--engine", "remote", "--endpoint", server.url, "--output-token-limit", "2"]
        assert main([*argv, "--out", str(out)]) == 3
        assert out.read_bytes() == b"kept\r\n"
        assert capsys.readouterr().err == f"sbcr: remote error: chunk 0: remote answer {'truncated' if mode == 'truncate' else 'empty'}\n"
    finally:
        server.stop()


def test_resolve_remote_writes_an_empty_answer_to_a_chunk_both_sides_deleted(tmp_path):
    source = tmp_path / "deleted.txt"
    source.write_text("a\n<<<<<<< ours\n||||||| base\nkept\n=======\n>>>>>>> theirs\nb\n", encoding="utf-8")
    server = StubServer(mode="empty", port=0).start()
    try:
        out = tmp_path / "resolved.txt"
        assert main(["resolve", str(source), "--engine", "remote", "--endpoint", server.url, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "a\nb\n"
    finally:
        server.stop()


def test_resolve_hybrid_with_stub_fallback(conflicted_file, tmp_path):
    server = StubServer(mode="empty", port=0).start()
    try:
        out = tmp_path / "resolved.txt"
        code = main(
            ["resolve", str(conflicted_file), "--engine", "hybrid", "--endpoint", server.url, "--max-evals", "200", "--out", str(out)]
        )
        assert code == 0
        assert "<<<<<<<" not in out.read_text(encoding="utf-8")
    finally:
        server.stop()


def test_resolve_hybrid_search_failure_exit_2(conflicted_file, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr("sbcr.resolvers.rrhc_resolve", broken)
    server = StubServer(mode="echo-v1", port=0).start()
    try:
        out = tmp_path / "resolved.txt"
        # one line a side is balanced, so the router sends the chunk to search
        code = main(["resolve", str(conflicted_file), "--engine", "hybrid", "--endpoint", server.url, "--out", str(out)])
        assert code == 2
        assert not out.exists()
    finally:
        server.stop()


def test_ingest_writes_accepted_and_rejects(tmp_path, capsys):
    data = tmp_path / "input.jsonl"
    good = {
        "id": "ok", "project": "p", "commit": "ab", "path": "f", "language": "Java",
        "base": [], "v1": ["x"], "v2": [], "resolution": ["x"],
    }
    bad = {
        "id": "bad", "project": "p", "commit": "ab", "path": "f", "language": "Java",
        "base": [], "v1": [], "v2": [], "resolution": [],
    }
    data.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    out = tmp_path / "accepted.jsonl"
    rejects = tmp_path / "rejects.jsonl"
    assert main(["ingest", str(data), "--out", str(out), "--rejects", str(rejects)]) == 0
    accepted = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert [r["id"] for r in accepted] == ["ok"]
    rejected = [json.loads(l) for l in rejects.read_text(encoding="utf-8").splitlines()]
    assert rejected[0]["reason"] == "empty-both-sides"


@pytest.mark.parametrize("flag", [False, True])
def test_ingest_no_combination_filter_accepts_a_new_line(tmp_path, flag):
    data = tmp_path / "input.jsonl"
    record = {
        "id": "new-line", "project": "p", "commit": "ab", "path": "f", "language": "Java",
        "base": [], "v1": ["x"], "v2": ["y"], "resolution": ["x", "z"],
    }
    data.write_text(json.dumps(record) + "\n", encoding="utf-8")
    out, rejects = tmp_path / "accepted.jsonl", tmp_path / "rejects.jsonl"
    args = ["ingest", str(data), "--out", str(out), "--rejects", str(rejects)]
    assert main(args + ["--no-combination-filter"] * flag) == 0
    accepted = [json.loads(l)["id"] for l in out.read_text(encoding="utf-8").splitlines()]
    rejected = [json.loads(l)["reason"] for l in rejects.read_text(encoding="utf-8").splitlines()]
    assert (accepted, rejected) == ((["new-line"], []) if flag else ([], ["not-combination"]))


def test_split_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        assert main(["split", sample_args(), "--seed", "13", "--ratios", "0.8,0.1,0.1", "--out-dir", str(out)]) == 0
    for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "split.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    split = json.loads((out1 / "split.json").read_text(encoding="utf-8"))
    assert len(split["train_ids"]) == 40
    assert len(split["valid_ids"]) == 5
    assert len(split["test_ids"]) == 5


def test_split_cuts_decimal_ratios_at_their_decimal_value(tmp_path):
    records = tmp_path / "ten.jsonl"
    records.write_text("".join(bundled_sample_path().read_text(encoding="utf-8").splitlines(keepends=True)[:10]), encoding="utf-8")
    assert main(["split", str(records), "--ratios", "0.1,0.7,0.2", "--out-dir", str(tmp_path)]) == 0
    lengths = [len((tmp_path / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()) for name in ("train", "valid", "test")]
    assert lengths == [1, 7, 2]


# sha256 of the rows `bench <bundled sample> --engine sbcr --seed 7 --max-evals 5000`
# writes. A change that alters the engine's random stream or its scores on
# purpose updates this value and says why in CHANGES.md.
GOLDEN_BENCH_SHA256 = "b6ce70c2d866d944dd621a54eb3c534ac7df8d577e6eed76366957a251ce5a81"


def test_seeded_bench_rows_match_golden_hash(tmp_path):
    out = tmp_path / "rows.jsonl"
    argv = ["bench", sample_args(), "--engine", "sbcr", "--seed", "7", "--max-evals", "5000", "--out", str(out)]
    for jobs in ("1", "4"):
        assert main([*argv, "--jobs", jobs]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_BENCH_SHA256


def test_trivial_rows_report_no_elapsed_under_a_time_budget(tmp_path):
    out = tmp_path / "rows.jsonl"
    assert main(["bench", sample_args(), "--engine", "trivial:take-v1", "--time-budget", "1", "--out", str(out)]) == 0
    assert {json.loads(line)["elapsed"] for line in out.read_text(encoding="utf-8").splitlines()} == {0.0}


def test_bench_trivial_runs(tmp_path):
    out = tmp_path / "rows.jsonl"
    assert main(["bench", sample_args(), "--engine", "trivial:take-v2", "--out", str(out)]) == 0
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 50
    assert all(r["resolver_id"] == "trivial:take-v2" for r in rows)
    # default mode is deterministic: a second run is byte-identical
    again = tmp_path / "rows2.jsonl"
    assert main(["bench", sample_args(), "--engine", "trivial:take-v2", "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_tune_emits_csv_grid(tmp_path):
    out = tmp_path / "tuning.csv"
    code = main(
        [
            "tune", sample_args(), "--sample", "6", "--seed", "2",
            "--grid-neighbors", "2,4", "--grid-budgets", "150,300", "--grid-stagnation", "5,10",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 9  # header + 2*2*2 configurations
    assert lines[0].startswith("configuration,budget_kind,top1_similarity_count")


# The CSV `tune <bundled sample> --sample 8 --grid-neighbors 1,5 --grid-budgets 50,200 --grid-stagnation 5
# --top-n 10 --seed 3` writes in each ranking mode, one line per row. average_similarity is an fsum() over
# records, which rounds the same on every Python version, so every byte is compared exactly.
GOLDEN_TUNE_ROWS = {
    "best-similarity": [
        '"1,200,5",evaluations,1,5.25,0.8110792905415227,0.0',
        '"1,50,5",evaluations,1,4.75,0.7836475812646485,0.0',
        '"5,200,5",evaluations,0,6.0,0.7009248989620156,0.0',
        '"5,50,5",evaluations,0,3.75,0.6953893064300393,0.0',
    ],
    "exact-match": [
        '"1,200,5",evaluations,1,8.125,0.8110792905415227,0.0',
        '"1,50,5",evaluations,1,7.625,0.7836475812646485,0.0',
        '"5,200,5",evaluations,0,9.375,0.7009248989620156,0.0',
        '"5,50,5",evaluations,0,8.5,0.6953893064300393,0.0',
    ],
}


@pytest.mark.parametrize("ranking", list(GOLDEN_TUNE_ROWS))
def test_seeded_tune_csv_matches_golden_rows(tmp_path, ranking):
    out = tmp_path / "tuning.csv"
    argv = ["tune", sample_args(), "--sample", "8", "--grid-neighbors", "1,5", "--grid-budgets", "50,200",
            "--grid-stagnation", "5", "--top-n", "10", "--seed", "3", "--ranking", ranking, "--out", str(out)]
    assert main(argv) == 0
    header, *lines, last = out.read_bytes().decode("utf-8").split("\r\n")
    assert header == "configuration,budget_kind,top1_similarity_count,average_ranking,average_similarity,average_time"
    assert last == ""
    assert lines == GOLDEN_TUNE_ROWS[ranking]


def test_tune_stdout_matches_out_file(tmp_path, capsys):
    argv = ["tune", sample_args(), "--sample", "3", "--seed", "2", "--grid-neighbors", "2",
            "--grid-budgets", "100,200", "--grid-stagnation", "5"]
    out = tmp_path / "tuning.csv"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_compare_command_and_mismatch_exit_2(tmp_path, capsys):
    rows_a = tmp_path / "a.jsonl"
    rows_b = tmp_path / "b.jsonl"
    main(["bench", sample_args(), "--engine", "trivial:take-v1", "--out", str(rows_a)])
    main(["bench", sample_args(), "--engine", "trivial:take-v2", "--out", str(rows_b)])
    report_path = tmp_path / "report.json"
    assert main(["compare", str(rows_a), str(rows_b), "--out", str(report_path), "--csv-dir", str(tmp_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["n"] == 50
    assert (tmp_path / "sim_diff.csv").exists()
    assert (tmp_path / "balance_histogram.csv").exists()

    # truncate b to force an id mismatch
    lines = rows_b.read_text(encoding="utf-8").splitlines()
    rows_b.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["compare", str(rows_a), str(rows_b)]) == 2
    err = capsys.readouterr().err
    assert "sample-0000" in err


def test_compare_stdout_matches_out_file(tmp_path, capsys):
    rows_a = tmp_path / "a.jsonl"
    rows_b = tmp_path / "b.jsonl"
    main(["bench", sample_args(), "--engine", "trivial:take-v1", "--out", str(rows_a)])
    main(["bench", sample_args(), "--engine", "trivial:concat-v1-v2", "--out", str(rows_b)])
    report_path = tmp_path / "report.json"
    assert main(["compare", str(rows_a), str(rows_b), "--out", str(report_path)]) == 0
    capsys.readouterr()
    assert main(["compare", str(rows_a), str(rows_b), "--out", "-"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == report_path.read_bytes()


def test_route_dry_run_decision_log(tmp_path):
    decisions = tmp_path / "decisions.jsonl"
    assert main(["route", sample_args(), "--decisions", str(decisions)]) == 0
    logged = [json.loads(l) for l in decisions.read_text(encoding="utf-8").splitlines()]
    assert len(logged) == 50
    assert all({"id", "rule", "target", "features"} <= set(d) for d in logged)
    assert all(d["target"] in ("search", "generative") for d in logged)


def test_route_decisions_follow_input_order(tmp_path):
    # records in reverse id order: the decision log keeps the input's order
    lines = bundled_sample_path().read_text(encoding="utf-8").splitlines()
    records = tmp_path / "reversed.jsonl"
    records.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    decisions = tmp_path / "decisions.jsonl"
    flags = ["--balance-beta", "0.05", "--input-token-limit", "40"]
    assert main(["route", str(records), "--decisions", str(decisions)] + flags) == 0
    logged = [json.loads(l) for l in decisions.read_text(encoding="utf-8").splitlines()]
    assert [d["id"] for d in logged] == [json.loads(l)["id"] for l in reversed(lines)]
    assert {d["target"] for d in logged} == {"search", "generative"}


def test_route_decisions_keep_non_ascii_ids(tmp_path):
    """The decision log is UTF-8 JSONL like every other output; it once escaped "é1" as "\\u00e91"."""
    record = json.loads(bundled_sample_path().read_text(encoding="utf-8").splitlines()[0])
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps({**record, "id": "é1"}) + "\n", encoding="utf-8")
    decisions = tmp_path / "decisions.jsonl"
    assert main(["route", str(records), "--decisions", str(decisions)]) == 0
    assert decisions.read_text(encoding="utf-8").startswith('{"id": "é1", ')


def test_input_token_limit_must_be_an_integer(conflicted_file, capsys):
    argv = ["resolve", str(conflicted_file), "--engine", "hybrid", "--endpoint", "http://127.0.0.1:9"]
    assert main(argv + ["--input-token-limit", "inf"]) == 1
    assert "invalid int value" in capsys.readouterr().err


def test_route_needs_no_endpoint(tmp_path, monkeypatch):
    monkeypatch.delenv("SBCR_REMOTE_URL", raising=False)
    decisions = tmp_path / "decisions.jsonl"
    assert main(["route", sample_args(), "--decisions", str(decisions)]) == 0
    assert len(decisions.read_text(encoding="utf-8").splitlines()) == 50


def test_every_engine_name_is_its_resolvers_id(capsys):
    config = {**DEFAULTS, "endpoint": "http://127.0.0.1:9"}
    assert [_build_resolver(engine, config).resolver_id for engine in ENGINES] == list(ENGINES)
    assert main(["bench", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert all(engine in help_text for engine in ENGINES)


def test_parser_lists_every_flag_in_help():
    parser = build_parser()
    help_text = parser.format_help()
    assert "--config" in help_text and "--show-config" in help_text


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "{bad}"],
        ["split", "{bad}", "--out-dir", "{tmp}"],
        ["bench", "{bad}", "--engine", "trivial:take-v1"],
        ["tune", "{bad}"],
        ["route", "{bad}"],
        ["compare", "{bad}", "{bad}"],
        ["resolve", "{bad}"],
    ],
    ids=lambda argv: argv[0],
)
def test_non_utf8_input_is_input_error(tmp_path, capsys, argv):
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes('{"id": "café"}\n'.encode("latin-1"))
    assert main([a.format(bad=bad, tmp=tmp_path / "out") for a in argv]) == 2
    assert "input error" in capsys.readouterr().err


def test_dash_reads_records_from_stdin(monkeypatch, capsys):
    sample = bundled_sample_path().read_text(encoding="utf-8")
    assert main(["bench", sample_args(), "--engine", "trivial:take-v1"]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(sample))
    assert main(["bench", "-", "--engine", "trivial:take-v1"]) == 0
    assert capsys.readouterr().out == from_file


@pytest.mark.parametrize(
    "command, flag",
    [("tune", "--neighbors"), ("tune", "--stagnation"), ("tune", "--max-evals"), ("tune", "--time-budget"),
     ("tune", "--jobs"), ("route", "--out"), ("route", "--max-evals"), ("route", "--endpoint")],
    ids=["--neighbors", "--stagnation", "--max-evals", "--time-budget", "--jobs", "route--out", "route--max-evals",
         "route--endpoint"],
)
def test_tune_rejects_search_flags_it_does_not_read(tmp_path, capsys, command, flag):
    # a missing dataset would exit 2, so exit 1 shows the flag was refused before any read
    assert main([command, str(tmp_path / "missing.jsonl"), flag, "3"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    [[1, 2], {"conflict_id": "a", "resolver_id": "r", "sim_line": "zz", "sim_char": 0.5, "elapsed": 0.0, "status": "ok"}],
    ids=["not-an-object", "non-numeric-score"],
)
def test_compare_malformed_row_exit_2(tmp_path, capsys, row):
    rows = tmp_path / "rows.jsonl"
    rows.write_text(json.dumps(row) + "\n", encoding="utf-8")
    assert main(["compare", str(rows), str(rows)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, key",
    [
        (["bench", "{sample}", "--engine", "trivial:take-v1"], {"seed": "x"}, "seed"),
        (["route", "{sample}"], {"balance_beta": "x"}, "balance_beta"),
        (["bench", "{sample}", "--engine", "trivial:take-v1"], {"wallclock": "no"}, "wallclock"),
        (["bench", "{sample}", "--engine", "trivial:take-v1"], {"max_evals": True}, "max_evals"),
        (["bench", "{sample}", "--engine", "trivial:take-v1"], {"neighbors": 2.5}, "neighbors"),
        (["bench", "{sample}", "--engine", "trivial:take-v1"], {"time_budget": "5"}, "time_budget"),
        (["route", "{sample}"], {"endpoint": 8731}, "endpoint"),
        (["--show-config"], {"deadline": None}, "deadline"),
    ],
)
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, command, config, key):
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["--config", str(path)] + [a.format(sample=sample_args()) for a in command]
    assert main(argv) == 1
    assert repr(key) in capsys.readouterr().err


def test_config_accepts_null_and_int_where_typed(tmp_path, capsys):
    path = tmp_path / "conf.json"
    config = {"time_budget": None, "endpoint": None, "deadline": 5, "balance_beta": 0}
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["--config", str(path), "--show-config"]) == 0
    assert json.loads(capsys.readouterr().out)["deadline"] == 5
    path.write_text(json.dumps({"time_budget": 0.5, "endpoint": "http://127.0.0.1:9"}), encoding="utf-8")
    assert main(["--config", str(path), "--show-config"]) == 0


def test_config_that_is_not_an_object_is_usage_error(tmp_path):
    path = tmp_path / "conf.json"
    path.write_text("5", encoding="utf-8")
    assert main(["--config", str(path), "--show-config"]) == 1


CRLF_CONFLICT = b"a\r\n<<<<<<< ours\r\nx\r\n=======\r\ny\r\n>>>>>>> theirs\r\nb\r\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_resolve_keeps_crlf_line_endings(tmp_path, source):
    path = tmp_path / "crlf.txt"
    path.write_bytes(CRLF_CONFLICT)
    if source == "file":
        out = tmp_path / "resolved.txt"
        assert main(["resolve", str(path), "--engine", "trivial:take-v1", "--out", str(out)]) == 0
        resolved = out.read_bytes()
    else:
        src = str(Path(sbcr.__file__).resolve().parent.parent)
        resolved = subprocess.run(
            [sys.executable, "-m", "sbcr.cli", "resolve", "-", "--engine", "trivial:take-v1"],
            input=CRLF_CONFLICT, capture_output=True, env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60,
        ).stdout
    assert resolved == b"a\r\nx\r\nb\r\n"


@pytest.mark.parametrize("ratios", ["0.5,0.5,nan", "nan,0.5,0.5", "0.5,inf,-inf"])
def test_split_refuses_non_finite_ratios_and_writes_nothing(tmp_path, capsys, ratios):
    out = tmp_path / "out"
    assert main(["split", sample_args(), "--ratios", ratios, "--out-dir", str(out)]) == 1
    assert "ratios" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "{sample}", "--out", "{bad}"],
        ["ingest", "{sample}", "--out", "{ok}", "--rejects", "{bad}"],
        ["split", "{sample}", "--out-dir", "{bad}"],
        ["resolve", "{conflicted}", "--engine", "trivial:take-v1", "--out", "{bad}"],
        ["bench", "{sample}", "--engine", "trivial:take-v1", "--out", "{bad}"],
        ["tune", "{sample}", "--sample", "1", "--grid-neighbors", "1", "--grid-budgets", "10",
         "--grid-stagnation", "1", "--out", "{bad}"],
        ["compare", "{rows}", "{rows}", "--out", "{bad}"],
        ["compare", "{rows}", "{rows}", "--out", "{ok}", "--csv-dir", "{bad}"],
        ["route", "{sample}", "--decisions", "{bad}"],
    ],
    ids=["ingest-out", "ingest-rejects", "split-out-dir", "resolve-out", "bench-out", "tune-out",
         "compare-out", "compare-csv-dir", "route-decisions"],
)
def test_unwritable_output_is_usage_error(tmp_path, capsys, conflicted_file, argv):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, so no path can go through it\n", encoding="utf-8")
    bad = blocker / "out"
    rows = tmp_path / "rows.jsonl"
    assert main(["bench", sample_args(), "--engine", "trivial:take-v1", "--out", str(rows)]) == 0
    capsys.readouterr()
    paths = dict(sample=sample_args(), conflicted=conflicted_file, rows=rows, ok=tmp_path / "ok", bad=bad)
    assert main([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "internal error" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "{sample}", "--engine", "sbcr", "--out", "{missing}"],
        ["tune", "{sample}", "--sample", "1", "--grid-neighbors", "1", "--grid-budgets", "10",
         "--grid-stagnation", "1", "--out", "{missing}"],
        ["route", "{sample}", "--decisions", "{missing}"],
        ["resolve", "{conflicted}", "--engine", "sbcr", "--out", "{missing}"],
    ],
    ids=["bench", "tune", "route-decisions", "resolve"],
)
def test_unwritable_output_fails_before_any_work(tmp_path, capsys, monkeypatch, conflicted_file, argv):
    from sbcr import bench

    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before every output was open")

    monkeypatch.setattr(bench, "run_benchmark", no_work)
    monkeypatch.setattr(bench, "tune_grid", no_work)
    monkeypatch.setattr("sbcr.cli.extract_features", no_work)
    monkeypatch.setattr("sbcr.resolvers.SearchResolver.resolve", no_work)
    missing = tmp_path / "missing" / "dir" / "x"
    assert main([a.format(sample=sample_args(), conflicted=conflicted_file, missing=missing) for a in argv]) == 1
    assert "cannot write" in capsys.readouterr().err


def test_input_is_read_before_any_output_is_opened(tmp_path, capsys):
    """Flags, then input, then outputs, then work: an unreadable input is reported before an
    unwritable output, and opening outputs first would leave an empty file behind."""
    missing = str(tmp_path / "nonexistent.jsonl")
    assert main(["bench", missing, "--out", str(tmp_path / "missing" / "x.jsonl")]) == 2
    assert main(["bench", missing, "--out", str(tmp_path / "x.jsonl")]) == 2
    assert capsys.readouterr().err.count(f"input error: cannot read {missing}") == 2
    assert list(tmp_path.iterdir()) == []


def test_ingest_writes_nothing_when_one_output_is_unwritable(tmp_path, capsys):
    ok = tmp_path / "accepted.jsonl"
    ok.write_bytes(b"earlier output\n")
    bad = tmp_path / "missing" / "rejects.jsonl"
    assert main(["ingest", sample_args(), "--out", str(ok), "--rejects", str(bad)]) == 1
    assert "cannot write" in capsys.readouterr().err
    assert ok.read_bytes() == b"earlier output\n"


def test_output_is_replaced_only_when_the_work_is_done(tmp_path, capsys, monkeypatch):
    from sbcr import bench

    out = tmp_path / "rows.jsonl"
    out.write_bytes(b"earlier rows\n" * 50)
    argv = ["bench", sample_args(), "--engine", "trivial:take-v1", "--out", str(out)]

    def crash(*args, **kwargs):
        raise RuntimeError("interrupted")

    with monkeypatch.context() as patch:
        patch.setattr(bench, "run_benchmark", crash)
        assert main(argv) == 4
    assert out.read_bytes() == b"earlier rows\n" * 50
    assert main(argv) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows and "earlier rows" not in rows
    monkeypatch.setattr(bench, "run_benchmark", lambda *args, **kwargs: [])
    assert main(argv) == 0
    assert out.read_bytes() == b""  # no rows to write still replaces the file


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["bench", "{sample}", "--engine", "trivial:take-v1"], 4),  # run_benchmark raises
        (["resolve", "{conflicted}", "--engine", "trivial:take-base"], 2),  # a two-way file has no base
        (["resolve", "{conflicted}", "--engine", "remote", "--endpoint", "{url}", "--output-token-limit", "2"], 3),
        (["ingest", "{sample}", "--rejects", "{missing}"], 1),
    ],
    ids=["bench-crash", "resolve-input-error", "resolve-remote-error", "ingest-unwritable-rejects"],
)
def test_a_failed_command_removes_only_an_output_it_created(tmp_path, capsys, monkeypatch, conflicted_file, argv, code, existing):
    """Opening ``--out`` before the work created it, and a failure used to leave it behind empty."""
    from sbcr import bench

    def crash(*args, **kwargs):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(bench, "run_benchmark", crash)
    out = tmp_path / "out.txt"
    if existing:
        out.write_bytes(b"earlier\r\n")
    server = StubServer(mode="truncate", port=0).start()
    try:
        paths = dict(sample=sample_args(), conflicted=conflicted_file, url=server.url, missing=tmp_path / "missing" / "x")
        assert main([*(a.format(**paths) for a in argv), "--out", str(out)]) == code
    finally:
        server.stop()
    assert out.read_bytes() == b"earlier\r\n" if existing else not out.exists()


def test_an_interrupted_output_removes_only_a_file_it_created(tmp_path):
    from sbcr.cli import _output

    new = tmp_path / "new.txt"
    for path in (new, os.devnull):
        with pytest.raises(KeyboardInterrupt):
            with _output(path) as out:
                out.write("partial\n")
                raise KeyboardInterrupt
    assert not new.exists() and os.path.exists(os.devnull)


def test_compare_keeps_every_output_when_a_later_write_fails(tmp_path, capsys, monkeypatch):
    from sbcr import bench

    rows_a = tmp_path / "a.jsonl"
    rows_b = tmp_path / "b.jsonl"
    main(["bench", sample_args(), "--engine", "trivial:take-v1", "--out", str(rows_a)])
    main(["bench", sample_args(), "--engine", "trivial:concat-v1-v2", "--out", str(rows_b)])
    report = tmp_path / "report.json"
    report.write_bytes(b"earlier report\n")

    def crash(*args, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr(bench, "dump_sim_diff_csv", crash)
    argv = ["compare", str(rows_a), str(rows_b), "--out", str(report), "--csv-dir", str(tmp_path / "d")]
    assert main(argv) == 4
    assert report.read_bytes() == b"earlier report\n"


DEEP_JSON = "[" * 100_000


def test_ingest_rejects_deep_and_unencodable_lines(tmp_path, capsys):
    data = tmp_path / "records.jsonl"
    good = bundled_sample_path().read_text(encoding="utf-8").splitlines()[0]
    lone = json.dumps({**json.loads(good), "id": "lone", "v1": ["\ud800"], "resolution": ["\ud800"]})
    data.write_text("\n".join([DEEP_JSON, lone, good]) + "\n", encoding="utf-8")
    out, rejects = tmp_path / "ok.jsonl", tmp_path / "rejects.jsonl"
    assert main(["ingest", str(data), "--out", str(out), "--rejects", str(rejects)]) == 0
    assert out.read_text(encoding="utf-8") == json.dumps(json.loads(good), ensure_ascii=False) + "\n"
    reports = [json.loads(line) for line in rejects.read_text(encoding="utf-8").splitlines()]
    assert [(r["line"], r["reason"]) for r in reports] == [(1, "malformed"), (2, "malformed")]


def test_split_needs_exactly_three_ratios(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["split", sample_args(), "--ratios", "0.5,0.5", "--out-dir", str(out)]) == 1
    assert "sbcr: error: bad --ratios: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("how", ["--seed -5", "--seed 18446744073709551616", 'config {"seed": -5}'])
def test_split_refuses_a_seed_the_engine_refuses(tmp_path, capsys, how):
    """``random.Random`` seeds from an int's absolute value, so seed -5 wrote seed 5's split under "seed": -5."""
    out = tmp_path / "out"
    argv = ["split", sample_args(), "--out-dir", str(out)]
    if how.startswith("config"):
        config = tmp_path / "conf.json"
        config.write_text(how.split(" ", 1)[1], encoding="utf-8")
        argv = ["--config", str(config), *argv]
    else:
        argv += how.split()
    assert main(argv) == 1
    assert "sbcr: error: seed must be an int from 0 to 2**64 - 1" in capsys.readouterr().err
    assert not out.exists()


def test_argparse_usage_errors_keep_their_message_and_exit_1(capsys):
    assert main(["bench", sample_args(), "--no-such-flag"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: sbcr ")
    assert err.endswith("sbcr: error: unrecognized arguments: --no-such-flag\n")


def test_compare_of_two_empty_result_files_is_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["compare", str(empty), str(empty)]) == 2
    assert capsys.readouterr().err == "sbcr: input error: no conflicts to compare\n"


def test_compare_and_config_reject_json_nested_too_deep(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON + "\n", encoding="utf-8")
    assert main(["compare", str(deep), str(deep)]) == 2
    assert main(["--config", str(deep), "--show-config"]) == 2
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("balance", "Infinity"), ("sim_char", "NaN"), ("elapsed", "1" + "0" * 400), ("conflict_id", "[1]"),
     ("conflict_id", "7"), ("conflict_id", '"\\ud800"'), ("status", "null"), ("sim_char", '"0.5"'),
     ("sim_line", "true")],
)
def test_compare_rejects_rows_it_cannot_report(tmp_path, capsys, field, value):
    row = {"conflict_id": "a", "resolver_id": "r", "sim_line": 0.5, "sim_char": 0.5, "elapsed": 0.0,
           "status": "ok", "balance": 0.0}
    line = json.dumps(row).replace(f'"{field}": {json.dumps(row[field])}', f'"{field}": {value}')
    assert value in line
    rows = tmp_path / "rows.jsonl"
    rows.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "report.json"
    out.write_bytes(b"earlier report\n")
    argv = ["compare", str(rows), str(rows), "--out", str(out), "--csv-dir", str(tmp_path / "csv")]
    assert main(argv) == 2
    assert "input error" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier report\n"


def test_output_that_cannot_be_encoded_keeps_the_old_file(tmp_path):
    from sbcr.cli import _output

    path = tmp_path / "out.txt"
    path.write_bytes(b"earlier\n")
    with pytest.raises(UnicodeEncodeError):
        with _output(path) as out:
            out.write("lone \ud800\n")
    assert path.read_bytes() == b"earlier\n"


def test_non_utf8_stdin_is_input_error(monkeypatch, capsys):
    raw = bundled_sample_path().read_bytes().replace(b'"id": "', b'"id": "\xff', 1)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape"))
    assert main(["ingest", "-"]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--sample", "0"], ["--sample", "-1"], ["--grid-neighbors", ","], ["--grid-budgets", ","],
     ["--grid-stagnation", ", ,"], ["--grid-neighbors", "1,x"]],
    ids=lambda flags: " ".join(flags),
)
def test_tune_usage_errors_exit_1_before_reading(tmp_path, capsys, flags):
    assert main(["tune", str(tmp_path / "missing.jsonl"), *flags]) == 1
    assert main(["tune", sample_args(), *flags]) == 1
    err = capsys.readouterr().err
    assert "sbcr: error:" in err
    assert flags[0] in err


@pytest.mark.parametrize(
    "case",
    ["split --ratios 0.5,0.5", "split --seed -5", "bench --engine bogus", "bench --neighbors 0", "bench --engine remote",
     "resolve --engine bogus"],
)
def test_flags_are_checked_before_the_input_is_read(tmp_path, capsys, monkeypatch, case):
    command, *flags = case.split()
    monkeypatch.delenv("SBCR_REMOTE_URL", raising=False)
    assert main([command, str(tmp_path / "missing"), *flags]) == 1
    assert ("invalid choice" if "bogus" in flags else "sbcr: error:") in capsys.readouterr().err


@pytest.mark.parametrize("port", ["99999", "-1"])
def test_serve_stub_port_out_of_range_is_usage_error(capsys, port):
    assert main(["serve-stub", "--port", port]) == 1
    assert "sbcr: error:" in capsys.readouterr().err


def test_nan_time_budget_is_usage_error(conflicted_file, tmp_path, capsys):
    """A NaN budget used to run a one-evaluation search. An infinite one never
    returned, so it is checked on ``SearchParams``, not through the CLI."""
    config = tmp_path / "config.json"
    config.write_text('{"time_budget": NaN}', encoding="utf-8")
    assert main(["resolve", str(conflicted_file), "--time-budget", "nan"]) == 1
    assert main(["--config", str(config), "resolve", str(conflicted_file)]) == 1
    assert main(["tune", sample_args(), "--wallclock", "--grid-budgets", "nan"]) == 1
    assert "max_execution_time must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "engine, deadline",
    [("remote", "-1"), ("remote", "0"), ("remote", "nan"), ("remote", "9.3e9"), ("hybrid", "-1")],
)
def test_deadline_that_fails_every_request_is_usage_error(tmp_path, capsys, engine, deadline):
    out = tmp_path / "rows.jsonl"
    out.write_text("old\n", encoding="utf-8")
    argv = ["bench", sample_args(), "--engine", engine, "--endpoint", "http://127.0.0.1:9", "--deadline", deadline]
    assert main([*argv, "--out", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == "old\n"
    assert "sbcr: error: deadline" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["remote", "hybrid"])
@pytest.mark.parametrize("command", ["bench", "resolve"])
@pytest.mark.parametrize("endpoint", ["notaurl", "ftp://h/x", "http://", "http://h/api?key=1", "http://h/api#f"])
def test_bad_endpoint_is_usage_error_before_reading(tmp_path, capsys, endpoint, command, engine):
    """A hybrid run used to fall back to search on every generative-routed
    record and exit 0, and a remote one to exit 0 with every row failed."""
    out = tmp_path / "out"
    argv = [command, str(tmp_path / "missing"), "--engine", engine, "--endpoint", endpoint, "--out", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    assert "sbcr: error: endpoint" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["remote", "hybrid"])
def test_negative_output_token_limit_is_usage_error(tmp_path, capsys, engine):
    out = tmp_path / "rows.jsonl"
    argv = ["bench", str(tmp_path / "missing"), "--engine", engine, "--endpoint", "http://127.0.0.1:9"]
    assert main([*argv, "--output-token-limit", "-5", "--out", str(out)]) == 1
    assert not out.exists()
    assert "sbcr: error: output token limit" in capsys.readouterr().err


def test_compare_negative_extremes_is_usage_error_before_reading(tmp_path, capsys):
    rows = tmp_path / "rows.jsonl"
    assert main(["bench", sample_args(), "--engine", "trivial:take-v1", "--out", str(rows)]) == 0
    report = tmp_path / "report.json"
    report.write_text("old\n", encoding="utf-8")
    assert main(["compare", str(rows), str(rows), "--extremes", "-1", "--out", str(report)]) == 1
    assert report.read_text(encoding="utf-8") == "old\n"
    assert main(["compare", str(tmp_path / "missing.jsonl"), str(rows), "--extremes", "-1"]) == 1
    assert "--extremes" in capsys.readouterr().err


def test_a_budget_flag_clears_the_other_budget_from_the_config(tmp_path, capsys):
    """A config time budget used to win over an explicit --max-evals, turning a
    reproducible run into a wall-clock one."""
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"time_budget": 0.05}), encoding="utf-8")
    with_config, without = tmp_path / "with.jsonl", tmp_path / "without.jsonl"
    argv = ["bench", sample_args(), "--engine", "sbcr", "--max-evals", "100"]
    assert main(["--config", str(config), *argv, "--out", str(with_config)]) == 0
    assert main([*argv, "--out", str(without)]) == 0
    assert with_config.read_bytes() == without.read_bytes()
    capsys.readouterr()
    assert main(["--config", str(config), "--show-config", *argv]) == 0
    effective = json.loads(capsys.readouterr().out)
    assert (effective["max_evals"], effective["time_budget"]) == (100, None)
    config.write_text(json.dumps({"max_evals": 100}), encoding="utf-8")
    assert main(["--config", str(config), "--show-config", *argv[:-2], "--time-budget", "3"]) == 0
    effective = json.loads(capsys.readouterr().out)
    assert (effective["max_evals"], effective["time_budget"]) == (None, 3.0)


@pytest.mark.parametrize("engine", ["sbcr", "trivial:take-v1"])
def test_two_budgets_in_one_layer_is_usage_error(tmp_path, capsys, engine):
    out = tmp_path / "rows.jsonl"
    out.write_text("old\n", encoding="utf-8")
    argv = ["bench", sample_args(), "--engine", engine, "--out", str(out)]
    assert main([*argv, "--max-evals", "50", "--time-budget", "0.01"]) == 1
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"max_evals": 50, "time_budget": 0.01}), encoding="utf-8")
    assert main(["--config", str(config), *argv]) == 1
    assert main(["--config", str(config), *argv, "--max-evals", "50"]) == 1  # each layer is checked on its own
    assert capsys.readouterr().err.count("one budget") == 3
    assert out.read_text(encoding="utf-8") == "old\n"


def test_wallclock_is_not_a_config_key(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"wallclock": True}), encoding="utf-8")
    assert main(["--config", str(config), "--show-config"]) == 1
    assert "unknown config keys: ['wallclock']" in capsys.readouterr().err
    for command, budget in (("resolve", ["--time-budget", "1"]), ("bench", ["--time-budget", "1"]), ("route", [])):
        assert main([command, sample_args(), "--wallclock", *budget]) == 1


def test_hybrid_bench_rows_do_not_depend_on_jobs(tmp_path):
    """--jobs is the one bound on how many remote requests run at once."""
    lines = bundled_sample_path().read_text(encoding="utf-8").splitlines()
    records = tmp_path / "reversed.jsonl"
    records.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    server = StubServer(mode="echo-v1", port=0).start()
    try:
        argv = ["bench", str(records), "--engine", "hybrid", "--endpoint", server.url, "--max-evals", "100"]
        serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        assert main([*argv, "--jobs", "1", "--out", str(serial)]) == 0
        assert main([*argv, "--jobs", "4", "--out", str(parallel)]) == 0
    finally:
        server.stop()

    def rows(path):  # remote calls are timed by the wall clock, so elapsed differs run to run
        return [{k: v for k, v in json.loads(l).items() if k != "elapsed"} for l in path.read_text(encoding="utf-8").splitlines()]

    assert rows(parallel) == rows(serial)
    assert [r["conflict_id"] for r in rows(serial)] == sorted(json.loads(l)["id"] for l in lines)
    assert {r["resolver_id"] for r in rows(serial)} >= {"sbcr", "remote"}
    assert server.calls > 0


@pytest.mark.parametrize("argv", [["bench", "--jobs", "0"]], ids=lambda argv: argv[0])
def test_jobs_below_one_is_usage_error_before_reading(tmp_path, capsys, argv):
    command, *flags = argv
    assert main([command, str(tmp_path / "missing.jsonl"), *flags]) == 1
    assert main([command, sample_args(), *flags, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.count("--jobs must be at least 1") == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, key", [("--balance-beta", "balance_beta"), ("--non-english-tau", "non_english_tau")])
def test_nan_routing_threshold_is_usage_error(tmp_path, capsys, flag, key):
    decisions = tmp_path / "decisions.jsonl"
    assert main(["route", sample_args(), flag, "nan", "--decisions", str(decisions)]) == 1
    config = tmp_path / "conf.json"
    config.write_text(f'{{"{key}": NaN}}', encoding="utf-8")
    assert main(["--config", str(config), "route", sample_args(), "--decisions", str(decisions)]) == 1
    assert capsys.readouterr().err.count(f"{key} must be a number") == 2
    assert not decisions.exists()
    # the documented ways to switch a rule off stay legal
    off = ["--input-token-limit", str(2**63), "--non-english-tau", "1", "--balance-beta", "-1"]
    assert main(["route", sample_args(), *off, "--decisions", str(decisions)]) == 0
    assert {json.loads(line)["rule"] for line in decisions.read_text(encoding="utf-8").splitlines()} == {"default"}


def _library_defaults() -> dict:
    from sbcr.resolvers import DEFAULT_DEADLINE, RemoteResolver, TokenLimits
    from sbcr.router import RouteThresholds
    from sbcr.search import SearchParams

    params, limits, thresholds = SearchParams(max_evaluations=2000), TokenLimits(), RouteThresholds()
    assert thresholds.input_token_limit == limits.input_limit
    assert RemoteResolver("http://127.0.0.1:9").deadline == DEFAULT_DEADLINE
    return {
        "neighbors": params.neighbors_per_iteration,
        "stagnation": params.max_stagnation_iterations,
        "max_evals": params.max_evaluations,
        "time_budget": params.max_execution_time,
        "top_n": params.top_n,
        "seed": params.seed,
        "endpoint": None,
        "deadline": DEFAULT_DEADLINE,
        "input_token_limit": limits.input_limit,
        "output_token_limit": limits.output_limit,
        "non_english_tau": thresholds.non_english_tau,
        "balance_beta": thresholds.balance_beta,
    }


@pytest.mark.parametrize("key", list(SETTINGS))
def test_each_setting_reaches_the_effective_config(tmp_path, capsys, monkeypatch, key):
    """Each key defaults to its library class's value and is set by its flag and by the config file."""
    monkeypatch.delenv("SBCR_REMOTE_URL", raising=False)
    default, kind, _ = SETTINGS[key]
    value = "http://127.0.0.1:9" if kind is str else kind((default or 0) + 1)
    assert main(["--show-config"]) == 0
    assert json.loads(capsys.readouterr().out)[key] == _library_defaults()[key] == default
    command = "tune" if key == "top_n" else "bench"  # only tune reads the ranked list's capacity
    assert main(["--show-config", command, sample_args(), "--" + key.replace("_", "-"), str(value)]) == 0
    assert json.loads(capsys.readouterr().out)[key] == value
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    assert main(["--config", str(config), "--show-config"]) == 0
    assert json.loads(capsys.readouterr().out)[key] == value


@pytest.mark.parametrize("command", ["bench", "resolve"])
def test_only_tune_takes_top_n(tmp_path, capsys, command):
    """bench and resolve answer each conflict with one resolution, so no ranked list is theirs to size."""
    assert main([command, str(tmp_path / "missing"), "--top-n", "5"]) == 1
    assert "unrecognized arguments: --top-n 5" in capsys.readouterr().err


@pytest.mark.parametrize("engine", [["sbcr"], ["hybrid", "--endpoint", "http://127.0.0.1:9"]])
def test_bench_searches_ask_the_engine_for_one_candidate(tmp_path, monkeypatch, engine):
    """Whatever top_n the config sets, each search bench runs keeps a one-entry ranked list;
    under hybrid every record reaches search, routed there or fallen back from the refused endpoint."""
    import sbcr.resolvers

    seen = []
    search = sbcr.resolvers.rrhc_resolve

    def probe(chunk, params, **kwargs):
        seen.append(params.top_n)
        return search(chunk, params, **kwargs)

    monkeypatch.setattr(sbcr.resolvers, "rrhc_resolve", probe)
    config = tmp_path / "conf.json"
    config.write_text('{"top_n": 7}', encoding="utf-8")
    argv = ["--config", str(config), "bench", sample_args(), "--engine", *engine, "--max-evals", "20"]
    assert main([*argv, "--out", str(tmp_path / "rows.jsonl")]) == 0
    assert seen == [1] * 50


def test_parser_defaults_are_the_library_defaults():
    """serve-stub and compare read their defaults from the library's constants instead of restating them."""
    import inspect

    import sbcr.resolvers
    import sbcr.stub_server
    from sbcr.bench import DEFAULT_EXTREMES, compare_results
    from sbcr.resolvers import DEFAULT_STUB_MODE, StubGenerativeResolver
    from sbcr.stub_server import DEFAULT_SLOW_DELAY

    stub = build_parser().parse_args(["serve-stub"])
    assert (stub.mode, stub.delay) == (DEFAULT_STUB_MODE, DEFAULT_SLOW_DELAY)
    assert build_parser().parse_args(["compare", "a", "b"]).extremes == DEFAULT_EXTREMES
    server = inspect.signature(StubServer).parameters
    assert (server["mode"].default, server["slow_delay"].default) == (DEFAULT_STUB_MODE, DEFAULT_SLOW_DELAY)
    assert inspect.signature(StubGenerativeResolver).parameters["mode"].default == DEFAULT_STUB_MODE
    assert inspect.signature(compare_results).parameters["m"].default == DEFAULT_EXTREMES
    assert sbcr.stub_server.DEFAULT_SLOW_DELAY is sbcr.resolvers.DEFAULT_SLOW_DELAY  # stated once, re-exported
