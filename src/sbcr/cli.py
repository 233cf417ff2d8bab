"""Command-line entry point exposing every workflow.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 remote-resolver
failure without fallback, 4 internal invariant violation. Diagnostics go to
stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import stat
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path

from . import bench as bench_mod
from . import corpus, parsing
from .resolvers import (
    DEFAULT_DEADLINE,
    DEFAULT_SLOW_DELAY,
    DEFAULT_STUB_MODE,
    STUB_MODES,
    RemoteResolver,
    Resolver,
    SearchResolver,
    Status,
    TokenLimits,
    TrivialResolver,
    TrivialStrategy,
)
from .router import UNTRUSTED, HybridResolver, RouteThresholds, extract_features, route
from .search import SearchParams, check_seed

ENDPOINT_ENV_VAR = "SBCR_REMOTE_URL"
JOBS_HELP = "records run at once on threads; remote requests overlap, searches run one at a time with their whole budget"
ENGINES = ("sbcr", *(f"trivial:{s.value}" for s in TrivialStrategy), "remote", "hybrid")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_REMOTE = 3
EXIT_INTERNAL = 4

# Every config key: (default, type, help). A key is nullable exactly when its default is None, and its
# flag is "--" plus the key with dashes. The library's classes own every default but max_evals.
SETTINGS = {
    "neighbors": (SearchParams.neighbors_per_iteration, int, "neighbors drawn per iteration"),
    "stagnation": (SearchParams.max_stagnation_iterations, int, "non-improving iterations before a restart"),
    "max_evals": (2000, int, "evaluation-count budget (deterministic)"),
    "time_budget": (SearchParams.max_execution_time, float, "wall-clock budget in seconds"),
    "top_n": (SearchParams.top_n, int, "ranked candidate list capacity"),
    "seed": (SearchParams.seed, int, "random seed"),
    "endpoint": (None, str, f"remote resolver URL (or ${ENDPOINT_ENV_VAR})"),
    "deadline": (DEFAULT_DEADLINE, float, "remote request deadline in seconds"),
    "output_token_limit": (TokenLimits.output_limit, int, "remote output token limit"),
    "input_token_limit": (TokenLimits.input_limit, int, "route to search above this size"),
    "non_english_tau": (RouteThresholds.non_english_tau, float, "route to search above this non-ASCII fraction"),
    "balance_beta": (RouteThresholds.balance_beta, float, "route to search at or below this |balance|"),
}
DEFAULTS = {key: default for key, (default, _, _) in SETTINGS.items()}
# bench and resolve take one resolution per conflict, so only tune reads the ranked list's capacity
_ENGINE_KEYS = tuple(key for key in SETTINGS if key != "top_n")
_ROUTER_KEYS = ("input_token_limit", "non_english_tau", "balance_beta")


class _Failure(Exception):
    """A failure ``main`` reports on stderr as ``sbcr: <label>: <message>`` and ends with ``exit_code``."""

    exit_code: int
    label: str


class _UsageError(_Failure):
    exit_code, label = EXIT_USAGE, "error"


class _InputError(_Failure):
    exit_code, label = EXIT_INPUT, "input error"


class _RemoteError(_Failure):
    exit_code, label = EXIT_REMOTE, "remote error"


def _add_flags(parser: argparse.ArgumentParser, keys) -> None:
    """A flag for each settings key; one left unset is None, so the layers below it show through."""
    for key in keys:
        _, kind, help_text = SETTINGS[key]
        parser.add_argument("--" + key.replace("_", "-"), type=kind, default=None, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sbcr", description="Search-based merge conflict resolution toolkit")
    parser.add_argument("--config", default=None, help="JSON config file merged under the flags")
    parser.add_argument("--show-config", action="store_true", help="print the effective config and exit")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("ingest", help="validate and filter a record stream")
    p.set_defaults(handler=_cmd_ingest)
    p.add_argument("records", help="line-delimited JSON records ('-' for stdin)")
    p.add_argument("--out", default="-", help="accepted records output (default stdout)")
    p.add_argument("--rejects", default=None, help="rejection report sidecar file")
    p.add_argument("--no-combination-filter", action="store_true", help="keep resolutions that add new lines")

    p = sub.add_parser("split", help="deterministically split records into train/valid/test")
    p.set_defaults(handler=_cmd_split)
    p.add_argument("records", help="line-delimited JSON records")
    _add_flags(p, ["seed"])
    p.add_argument("--ratios", default="0.8,0.1,0.1", help="train,valid,test ratios summing to 1")
    p.add_argument("--out-dir", default=".", help="directory for train/valid/test.jsonl and split.json")

    p = sub.add_parser("resolve", help="resolve a conflicted file (or extract its chunks)")
    p.set_defaults(handler=_cmd_resolve)
    p.add_argument("file", help="conflicted text file")
    p.add_argument("--engine", choices=ENGINES, default=None, help="resolver (default sbcr)")  # None, so --records can refuse it
    p.add_argument("--out", default="-", help="resolved file output (default stdout)")
    p.add_argument("--records", action="store_true", help="emit chunk records instead of resolving; takes no --engine or settings flag")
    _add_flags(p, _ENGINE_KEYS)

    p = sub.add_parser("bench", help="run a resolver over a dataset and write result rows")
    p.set_defaults(handler=_cmd_bench)
    p.add_argument("records", help="line-delimited JSON records with ground truth")
    p.add_argument("--engine", choices=ENGINES, default="sbcr", help="resolver (default sbcr)")
    p.add_argument("--out", default="-", help="result rows output (default stdout)")
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.add_argument("--trim-trailing-ws", action="store_true", help="trim trailing whitespace before scoring")
    _add_flags(p, _ENGINE_KEYS)

    p = sub.add_parser("tune", help="grid-search engine parameters on a sample")
    p.set_defaults(handler=_cmd_tune)
    p.add_argument("records", help="line-delimited JSON records with ground truth")
    p.add_argument("--sample", type=int, default=100, help="sample size drawn with --seed")
    p.add_argument("--grid-neighbors", default="1,5,9", help="comma-separated neighbor counts")
    p.add_argument("--grid-budgets", default=None, help="comma-separated budgets (evaluations, or seconds with --wallclock)")
    p.add_argument("--wallclock", action="store_true", help="read --grid-budgets as wall-clock seconds")
    p.add_argument("--grid-stagnation", default="5,10,20", help="comma-separated stagnation limits")
    p.add_argument("--ranking", choices=["best-similarity", "exact-match"], default="best-similarity", help="average-ranking interpretation")
    p.add_argument("--out", default="-", help="tuning table CSV output (default stdout)")
    _add_flags(p, ["top_n", "seed"])  # neighbors, stagnation and the budget come from the --grid-* flags

    p = sub.add_parser("compare", help="paired comparison of two result files")
    p.set_defaults(handler=_cmd_compare)
    p.add_argument("results_a")
    p.add_argument("results_b")
    p.add_argument("--extremes", type=int, default=bench_mod.DEFAULT_EXTREMES, help="ids to keep from each tail")
    p.add_argument("--out", default="-", help="report JSON output (default stdout)")
    p.add_argument("--csv-dir", default=None, help="also write sim_diff.csv and balance_histogram.csv here")

    p = sub.add_parser("route", help="log the router's decision for each record")
    p.set_defaults(handler=_cmd_route)
    p.add_argument("records", help="line-delimited JSON records")
    p.add_argument("--decisions", default="-", help="decision log output (default stdout)")
    _add_flags(p, _ROUTER_KEYS)

    p = sub.add_parser("serve-stub", help="run the stub generative resolver")
    p.set_defaults(handler=_cmd_serve_stub)
    p.add_argument("--mode", choices=STUB_MODES, default=DEFAULT_STUB_MODE)
    p.add_argument("--port", type=int, default=8731)
    p.add_argument("--delay", type=float, default=DEFAULT_SLOW_DELAY, help="sleep for slow mode, seconds")
    p.add_argument("--verbose", action="store_true")

    return parser


def _check_config_value(key: str, value) -> None:
    """A config value must have its setting's type, or be null where the default is; an int also counts
    as a float, a bool as neither."""
    default, expected, _ = SETTINGS[key]
    if (value is None and default is None) or type(value) is expected or (expected is float and type(value) is int):
        return
    nullable = " or null" if default is None else ""
    raise _UsageError(f"config key {key!r} must be {expected.__name__}{nullable}, got {value!r}")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = corpus.load_json(fh.read())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bytes that are not UTF-8
        raise _InputError(f"cannot read config {path}: {exc}")
    if not isinstance(loaded, dict):
        raise _UsageError("config must be a JSON object")
    unknown = set(loaded) - set(DEFAULTS)
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in loaded.items():
        _check_config_value(key, value)
    return loaded


def _effective_config(args: argparse.Namespace) -> dict:
    """Built-in defaults, overridden by the config file, overridden by explicit flags. A layer that
    sets max_evals or time_budget clears the other from the layers below; one that sets both is an error."""
    flags = {key: getattr(args, key) for key in DEFAULTS if getattr(args, key, None) is not None}
    config = dict(DEFAULTS)
    for source, layer in (("the config file", _load_config(args.config)), ("the flags", flags)):
        budgets = [key for key in ("max_evals", "time_budget") if layer.get(key) is not None]
        if len(budgets) == 2:
            raise _UsageError(f"{source} set both max_evals and time_budget; a run takes one budget")
        if budgets:
            config.update(max_evals=None, time_budget=None)
        config.update(layer)
    if config["endpoint"] is None:
        config["endpoint"] = os.environ.get(ENDPOINT_ENV_VAR)
    return config


def _search_params(config: dict) -> SearchParams:
    try:
        return SearchParams(
            neighbors_per_iteration=config["neighbors"],
            max_stagnation_iterations=config["stagnation"],
            max_execution_time=config["time_budget"],
            max_evaluations=config["max_evals"],
            top_n=config["top_n"],
            seed=config["seed"],
        )
    except ValueError as exc:
        raise _UsageError(str(exc))


def _thresholds(config: dict) -> RouteThresholds:
    try:
        return RouteThresholds(**{key: config[key] for key in _ROUTER_KEYS})
    except ValueError as exc:
        raise _UsageError(str(exc))


def _remote_resolver(config: dict) -> RemoteResolver:
    if not config["endpoint"]:
        raise _UsageError(f"remote engine needs --endpoint or ${ENDPOINT_ENV_VAR}")
    try:
        return RemoteResolver(
            endpoint=config["endpoint"],
            limits=TokenLimits(config["input_token_limit"], config["output_token_limit"]),
            deadline=config["deadline"],
        )
    except ValueError as exc:
        raise _UsageError(str(exc))


def _build_resolver(engine: str, config: dict) -> Resolver:
    if engine == "sbcr":
        return SearchResolver(_search_params(config))
    if engine == "remote":
        return _remote_resolver(config)
    if engine == "hybrid":
        return HybridResolver(SearchResolver(_search_params(config)), _remote_resolver(config), _thresholds(config))
    return TrivialResolver(TrivialStrategy(engine.removeprefix("trivial:")))


@contextmanager
def _output(path: str | Path):
    """An in-memory buffer for the file at ``path``, or stdout for '-'.

    The file is opened before the work, so a path that cannot be opened for
    writing is a usage error. Only when the command ends cleanly is the file
    emptied and the buffer written to it: a command that fails or is
    interrupted leaves an existing file as it was and removes one it created.
    """
    if path == "-":
        yield sys.stdout
        return
    try:
        try:
            fh, created = open(path, "xb"), True
        except FileExistsError:  # also a device or a pipe, which is never removed
            fh, created = open(path, "ab"), False  # without truncating it
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}")
    try:
        with fh:
            buffer = io.StringIO()  # keeps line endings as written: resolved files keep their own, csv writes its own
            yield buffer
            data = buffer.getvalue().encode("utf-8")  # before the truncation, so a failed encoding loses nothing
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # a pipe or a device cannot be truncated
                fh.truncate(0)
            fh.write(data)
    except BaseException:  # KeyboardInterrupt too
        if created:
            Path(path).unlink(missing_ok=True)
        raise


@contextmanager
def _outputs(*paths: str | Path | None):
    """``_output`` for every path at once, or None for a None path.

    A command opens all its outputs before its work starts, so an unwritable
    one fails fast and no other output is written.
    """
    with ExitStack() as stack:
        yield [None if path is None else stack.enter_context(_output(path)) for path in paths]


def _output_dir(path: str) -> Path:
    """The directory at ``path``, created if missing; one that cannot be created is a usage error."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"cannot create directory {path}: {exc}")
    return Path(path)


def _write_jsonl(out, objects) -> None:
    for obj in objects:
        out.write(json.dumps(obj, ensure_ascii=False) + "\n")


def _write_json(out, obj) -> None:
    json.dump(obj, out, indent=2)
    out.write("\n")


@contextmanager
def _input(path: str):
    """The UTF-8 text file at ``path``, or stdin for '-', with line endings kept; a failed read is an input error."""
    try:
        if path == "-":
            if isinstance(sys.stdin, io.TextIOWrapper):
                sys.stdin.reconfigure(newline="", errors="strict")
            yield sys.stdin
            return
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}")


def _load_dataset(path: str) -> list[corpus.ConflictRecord]:
    with _input(path) as fh:
        records, rejects = corpus.ingest_records(fh)
    for report in rejects:
        print(f"warning: {path}:{report.line}: {report.reason}: {report.detail}", file=sys.stderr)
    return records


def _cmd_ingest(args, config) -> None:
    with _input(args.records) as fh:
        records, rejections = corpus.ingest_records(fh, combination=not args.no_combination_filter)
    rejects_path = args.rejects or (args.out + ".rejects.jsonl" if args.out != "-" else None)
    with _outputs(args.out, rejects_path) as (out, rejects_out):
        _write_jsonl(out, (record.to_json() for record in records))
        if rejects_out is not None:
            _write_jsonl(rejects_out, (report.to_json() for report in rejections))
    print(f"accepted {len(records)}, rejected {len(rejections)}", file=sys.stderr)


def _cmd_split(args, config) -> None:
    try:
        ratios = corpus.check_ratios([float(x) for x in args.ratios.split(",")])
    except ValueError as exc:  # a ratio that is not a number, or ratios check_ratios refuses
        raise _UsageError(f"bad --ratios: {exc}")
    try:
        check_seed(config["seed"])
    except ValueError as exc:
        raise _UsageError(str(exc))
    records = _load_dataset(args.records)
    split = corpus.split_dataset([r.id for r in records], config["seed"], ratios)
    by_id = {r.id: r for r in records}
    out_dir = _output_dir(args.out_dir)
    parts = (("train", split.train_ids), ("valid", split.valid_ids), ("test", split.test_ids))
    with _outputs(*(out_dir / f"{name}.jsonl" for name, _ in parts), out_dir / "split.json") as outs:
        for out, (_, ids) in zip(outs, parts):
            _write_jsonl(out, (by_id[i].to_json() for i in ids))
        id_lists = {f"{name}_ids": list(ids) for name, ids in parts}
        _write_json(outs[-1], {"seed": config["seed"], "ratios": list(ratios), **id_lists})
    print(
        f"split {len(records)} records into {len(split.train_ids)}/{len(split.valid_ids)}/{len(split.test_ids)}",
        file=sys.stderr,
    )


def _cmd_resolve(args, config) -> None:
    engine = args.engine or "sbcr"
    if args.records:
        unused = ["--engine"] * (args.engine is not None) + [
            "--" + key.replace("_", "-") for key in _ENGINE_KEYS if getattr(args, key) is not None
        ]
        if unused:
            raise _UsageError(f"--records only extracts chunks; it takes no {', '.join(unused)}")
    resolver = None if args.records else _build_resolver(engine, config)
    with _input(args.file) as fh:
        text = fh.read()
    try:
        parsed = parsing.parse_conflicted_file(text)
    except parsing.MarkerError as exc:
        raise _InputError(f"{args.file}: {exc}")
    with _output(args.out) as out:
        if args.records:
            _write_jsonl(out, parsing.extract_records(parsed, path=args.file if args.file != "-" else ""))
            return
        resolutions = []
        for index, chunk in enumerate(parsed.chunks):
            candidate = resolver.resolve(chunk)
            status = candidate.status
            # nothing falls back here; an empty answer is right only where both sides deleted every line
            if engine == "remote" and status in UNTRUSTED and (status is not Status.EMPTY or chunk.v1_lines or chunk.v2_lines):
                detail = f": {candidate.detail}" if candidate.detail else ""
                raise _RemoteError(f"chunk {index}: remote answer {status.value}{detail}")
            if status is Status.FAILED:
                raise _InputError(f"resolver failed: {candidate.detail}")
            resolutions.append(list(candidate.lines))
        out.write(parsing.render_resolved(parsed, resolutions))


def _cmd_bench(args, config) -> None:
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    resolver = _build_resolver(args.engine, config)
    records = _load_dataset(args.records)
    with _output(args.out) as out:
        rows = bench_mod.run_benchmark(records, resolver, jobs=args.jobs, trim_trailing=args.trim_trailing_ws)
        _write_jsonl(out, (row.to_json() for row in rows))


def _parse_grid_values(flag: str, text: str, kind) -> list:
    try:
        values = [kind(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad {flag} value: {exc}")
    if not values:
        raise _UsageError(f"{flag} lists no values")
    return values


def _cmd_tune(args, config) -> None:
    if args.sample < 1:
        raise _UsageError("--sample must be at least 1")
    budgets_text = args.grid_budgets or ("10,20,40" if args.wallclock else "500,2000")
    neighbors = _parse_grid_values("--grid-neighbors", args.grid_neighbors, int)
    stagnation = _parse_grid_values("--grid-stagnation", args.grid_stagnation, int)
    budgets = _parse_grid_values("--grid-budgets", budgets_text, float if args.wallclock else int)
    budget_key = "time_budget" if args.wallclock else "max_evals"
    grid = [
        _search_params({**config, "neighbors": k, "stagnation": s, "max_evals": None, "time_budget": None, budget_key: b})
        for k in neighbors
        for b in budgets
        for s in stagnation
    ]
    records = _load_dataset(args.records)
    if not records:
        raise _InputError("tuning dataset is empty")
    sample = random.Random(config["seed"]).sample(records, min(args.sample, len(records)))
    with _output(args.out) as out:
        rows = bench_mod.tune_grid(sample, grid, config["seed"], ranking=args.ranking)
        bench_mod.dump_tuning_csv(rows, out)


def _cmd_compare(args, config) -> None:
    if args.extremes < 0:
        raise _UsageError("--extremes must be >= 0")
    try:
        rows_a = bench_mod.read_result_rows(args.results_a)
        rows_b = bench_mod.read_result_rows(args.results_b)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # ValueError covers bad JSON and non-UTF-8 bytes
        raise _InputError(f"cannot read result rows: {exc}")
    try:
        report = bench_mod.compare_results(rows_a, rows_b, m=args.extremes)
    except ValueError as exc:
        raise _InputError(str(exc))
    paths = [args.out]
    if args.csv_dir:
        csv_dir = _output_dir(args.csv_dir)
        paths += [csv_dir / "sim_diff.csv", csv_dir / "balance_histogram.csv"]
    with _outputs(*paths) as outs:
        _write_json(outs[0], report.to_json())
        if len(outs) == 3:
            bench_mod.dump_sim_diff_csv(report, outs[1])
            bench_mod.dump_balance_histogram_csv(report, outs[2])


def _cmd_route(args, config) -> None:
    thresholds = _thresholds(config)
    records = _load_dataset(args.records)
    decisions = ((record.id, route(extract_features(record), thresholds)) for record in records)
    logged = ({"id": i, "rule": d.rule.value, "target": d.target.value, "features": d.features.to_json()} for i, d in decisions)
    with _output(args.decisions) as out:
        _write_jsonl(out, logged)


def _cmd_serve_stub(args, config) -> None:
    from .stub_server import StubServer  # only this command runs the server; it pulls http.server and socketserver

    try:
        server = StubServer(mode=args.mode, port=args.port, slow_delay=args.delay, verbose=args.verbose)
    except (ValueError, OSError, OverflowError) as exc:  # OverflowError: a port outside 0-65535
        raise _UsageError(str(exc))
    print(f"stub resolver ({args.mode}) listening on {server.url}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_USAGE if exc.code == 2 else int(exc.code or 0)
    try:
        config = _effective_config(args)
        if args.show_config:
            json.dump(config, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        elif args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        else:
            args.handler(args, config)  # a handler fails only by raising
    except _Failure as exc:
        print(f"sbcr: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:  # the reader went away (``sbcr route ... | head``): a success
        pass
    except Exception as exc:  # invariant violations and bugs
        print(f"sbcr: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
