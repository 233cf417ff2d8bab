"""Traced runs: wrappers around sbcr's public callables that record spans.

Wrappers are installed only for a traced run and removed after it. Each
span has an id, a name, a start, an end, its parent span and the id of the
record it worked for; spans are kept in memory and written out at the end.
A wrap point that no longer exists in sbcr is reported as absent, not as an
error, so the benchmark keeps working when a later change inlines or
renames a layer's function.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple, Sequence

from sbcr import router


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    record: str | None
    info: object


def _evals_restarts(args, result):
    return (result.evaluations, result.restarts)


def _neighbor_op(args, result):
    grown = len(result) - len(args[0])
    if grown:
        return "add" if grown > 0 else "remove"
    return "unchanged" if result == args[0] else "exchange"


def _status(args, result):
    return result.status.value


def _fell_back(args, result):
    return result.resolver_id == getattr(router, "FALLBACK_RESOLVER_ID", None)


# (owner, attribute, span name, record argument index or "batch", span info)
# "batch" marks calls over many records: they reset the current record.
POINTS: tuple[tuple[str, str, str, object, Callable | None], ...] = (
    ("sbcr.search", "lcs_length", "search.lcs_length", None, None),
    ("sbcr.search", "neighbor", "search.neighbor", None, _neighbor_op),
    ("sbcr.search", "random_candidate", "search.random_candidate", None, None),
    ("sbcr.bench", "rrhc_resolve", "bench.rrhc_resolve", 0, _evals_restarts),
    ("sbcr.resolvers", "rrhc_resolve", "resolvers.rrhc_resolve", 0, _evals_restarts),
    ("sbcr.bench", "similarity", "bench.similarity", None, None),
    ("sbcr.bench", "run_benchmark", "bench.run_benchmark", "batch", None),
    ("sbcr.bench", "tune_grid", "bench.tune_grid", "batch", None),
    ("sbcr.bench", "compare_results", "bench.compare_results", "batch", None),
    ("sbcr.bench", "wilcoxon_signed_rank", "stats.wilcoxon", None, lambda a, r: len(a[0])),
    ("sbcr.bench", "cles", "stats.cles", None, None),
    ("sbcr.router", "extract_features", "router.extract_features", 0, None),
    ("sbcr.router", "route", "router.route", None, lambda a, r: r.target.value),
    ("sbcr.router", "hybrid_resolve", "router.hybrid_resolve", 0, _fell_back),
    ("sbcr.resolvers.SearchResolver", "resolve", "resolvers.search", 1, _status),
    ("sbcr.resolvers.TrivialResolver", "resolve", "resolvers.trivial", 1, _status),
    ("sbcr.resolvers.RemoteResolver", "resolve", "resolvers.remote", 1, _status),
    ("sbcr.resolvers.StubGenerativeResolver", "resolve", "resolvers.stub", 1, _status),
    ("sbcr.parsing", "parse_conflicted_file", "parsing.parse", "batch",
     lambda a, r: len(a[0].encode("utf-8"))),
    ("sbcr.parsing", "render_with_markers", "parsing.render", "batch", None),
    ("sbcr.corpus", "ingest_records", "corpus.ingest", "batch",
     lambda a, r: (len(r[0]) + len(r[1]), len(r[1]))),
    ("sbcr.corpus", "split_dataset", "corpus.split", "batch", None),
)


def _resolve_owner(path: str):
    """Import the module part of a dotted path and walk the rest as attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        return owner
    return None


class Tracer:
    """Collects spans from wrapped sbcr callables while installed."""

    def __init__(self, points=POINTS):
        self.points = points
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object | None]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.record = None
        return local

    def _wrap(self, fn, name, scope, info):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._state()
            if scope == "batch":
                local.record = None
            elif scope is not None and len(args) > scope:
                local.record = getattr(args[scope], "id", local.record)
            parent = local.stack[-1] if local.stack else 0
            record = local.record
            span_id = next(tracer._ids)
            local.stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                local.stack.pop()
                if scope == "batch":
                    local.record = None
            tracer.spans.append(
                Span(span_id, name, start, end, parent, record, info(args, result) if info else None)
            )
            return result

        return wrapper

    def install(self) -> None:
        for owner_path, attr, name, scope, info in self.points:
            owner = _resolve_owner(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            own = attr in vars(owner)
            self._restore.append((owner, attr, original if own else None))
            setattr(owner, attr, self._wrap(original, name, scope, info))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)  # the attribute was inherited; uncover it again
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own work, such as one pass."""
        local = self._state()
        parent = local.stack[-1] if local.stack else 0
        span_id = next(self._ids)
        local.stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            local.stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, None, None))

    def write(self, path: Path) -> None:
        """One JSON array per span after a header line naming the fields."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "record"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.record]) + "\n")


def tail(values: Sequence[float]) -> tuple[float, float]:
    """(percentile, value): the highest of p50/p75/p90/p95/p99/p99.9 with at
    least ten samples beyond it; (0, 0) when none has."""
    ordered = sorted(values)
    n = len(ordered)
    chosen = (0.0, 0.0)
    for pct in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        index = int(n * pct / 100.0)
        if n - 1 - index >= 10:
            chosen = (pct, ordered[index])
    return chosen


def layer_metrics(spans: Sequence[Span], passes: int) -> dict[str, float]:
    """Per-layer numbers from the spans of ``passes`` traced passes.

    Counts and busy times are per pass; rates and ratios are over all passes.
    Two threads may be busy at once, so busy times can add up to more than
    the wall time of a pass.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent:
            child_time[s.parent] += s.end - s.start

    def busy(*names: str) -> float:
        return sum(s.end - s.start for name in names for s in by_name[name])

    def count(name: str, info=None) -> int:
        return sum(1 for s in by_name[name] if info is None or s.info == info)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    rrhc = by_name["bench.rrhc_resolve"] + by_name["resolvers.rrhc_resolve"]
    evaluations = sum(s.info[0] for s in rrhc if s.info)
    objective_calls = count("search.lcs_length")
    remote_ms = [(s.end - s.start) * 1000.0 for s in by_name["resolvers.remote"]]
    parse_bytes = sum(s.info for s in by_name["parsing.parse"] if s.info)
    ingested = sum(s.info[0] for s in by_name["corpus.ingest"] if s.info)
    wilcoxon_n = [s.info for s in by_name["stats.wilcoxon"] if s.info is not None]
    p = max(1, passes)
    return {
        "similarity.objective_calls": objective_calls / p,
        "similarity.objective_s": busy("search.lcs_length") / p,
        "similarity.objective_us_per_call": ratio(busy("search.lcs_length") * 1e6, objective_calls),
        "similarity.metric_calls": count("bench.similarity") / p,
        "similarity.metric_s": busy("bench.similarity") / p,
        "search.rrhc_s": busy("bench.rrhc_resolve", "resolvers.rrhc_resolve") / p,
        "search.evaluations": evaluations / p,
        "search.us_per_eval": ratio(busy("bench.rrhc_resolve", "resolvers.rrhc_resolve") * 1e6, evaluations),
        "search.restarts": sum(s.info[1] for s in rrhc if s.info) / p,
        "search.distinct_eval_ratio": ratio(objective_calls / 2.0, evaluations),
        "search.neighbor_s": busy("search.neighbor") / p,
        "search.neighbor_calls": count("search.neighbor") / p,
        "search.op_add": count("search.neighbor", "add") / p,
        "search.op_remove": count("search.neighbor", "remove") / p,
        "search.op_exchange": count("search.neighbor", "exchange") / p,
        "search.op_unchanged": count("search.neighbor", "unchanged") / p,
        "search.random_candidate_s": busy("search.random_candidate") / p,
        "search.distinct_evals": objective_calls / 2.0 / p,
        "search.self_s": sum(s.end - s.start - child_time[s.id] for s in rrhc) / p,
        "bench.run_benchmark_s": busy("bench.run_benchmark") / p,
        "bench.tune_grid_s": busy("bench.tune_grid") / p,
        "bench.compare_s": busy("bench.compare_results") / p,
        "resolvers.remote_calls": len(remote_ms) / p,
        "resolvers.remote_ms_p50": statistics.median(remote_ms) if remote_ms else 0.0,
        "resolvers.remote_ms_tail": tail(remote_ms)[1],
        "resolvers.remote_failed": count("resolvers.remote", "failed") / p,
        "resolvers.trivial_s": busy("resolvers.trivial") / p,
        "resolvers.search_s": busy("resolvers.search") / p,
        "router.features_s": busy("router.extract_features") / p,
        "router.to_search": count("router.route", "search") / p,
        "router.to_generative": count("router.route", "generative") / p,
        "router.fallbacks": count("router.hybrid_resolve", True) / p,
        "parsing.parse_mb_per_s": ratio(parse_bytes / 1e6, busy("parsing.parse")),
        "parsing.render_s": busy("parsing.render") / p,
        "corpus.ingest_records_per_s": ratio(ingested, busy("corpus.ingest")),
        "corpus.rejected": sum(s.info[1] for s in by_name["corpus.ingest"] if s.info) / p,
        "corpus.split_s": busy("corpus.split") / p,
        "stats.wilcoxon_s": busy("stats.wilcoxon") / p,
        "stats.cles_s": busy("stats.cles") / p,
        "stats.n": ratio(sum(wilcoxon_n), len(wilcoxon_n)),
        "trace.spans": len(spans) / p,
    }
