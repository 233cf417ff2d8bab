"""The benchmark's workloads. Constructing one is its set-up; ``run_pass``
runs one pass over its inputs, times each phase of it and checks the
outputs; ``close`` releases what set-up started.

Every sbcr callable is looked up on its module at call time (``bench.run_benchmark``,
not an imported name), so the tracer's wrappers see the calls.

The engine's cost depends strongly on its random path, and one engine seed
shared by all records of a run would move every record's cost together. So
the search workloads give each record its own engine seed, drawn from the
run seed and the record id. Every pass of a run repeats the same work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter

from sbcr import bench, corpus, parsing, resolvers, router, search
from sbcr.stub_server import StubServer

import checks
import generators
from clock import Stopwatch


@dataclass
class PassResult:
    records: int  # records resolved and scored; config x record measurements for tune
    attempted: int
    failed: int
    sims: list[float]  # sim_char per record (per config and record for tune), in a fixed order
    phases: dict[str, float]  # nominal-speed seconds per piece of the pass, the same pieces every pass
    errors: list[str] = field(default_factory=list)


class TimedResolver:
    """Times each ``resolve`` call of the wrapped resolver and keeps its outputs.

    The candidate is returned unchanged. A resolver must never raise; if one
    does, the exception is kept and the record becomes a FAILED candidate.
    """

    def __init__(self, inner):
        self.inner = inner
        self.resolver_id = inner.resolver_id
        self.latencies_ms: list[tuple[str, float]] = []  # (record id, ms; scaled by clock.Stopwatch)
        self.outputs: list[tuple[object, object]] = []
        self.exceptions: list[str] = []

    def resolve(self, chunk):
        start = perf_counter()
        try:
            candidate = self.inner.resolve(chunk)
        except Exception as exc:  # a crash is a failed record, not a crashed benchmark
            self.exceptions.append(f"{getattr(chunk, 'id', '?')}: {exc!r}")
            candidate = resolvers.ResolutionCandidate(
                (), self.resolver_id, 0.0, resolvers.Status.FAILED, f"raised {exc!r}"
            )
        self.latencies_ms.append((getattr(chunk, "id", "?"), (perf_counter() - start) * 1000.0))
        self.outputs.append((chunk, candidate))
        return candidate

    def take_outputs(self) -> list[tuple[object, object]]:
        outputs, self.outputs = self.outputs, []
        return outputs


def derive_seed(*parts) -> int:
    """A 64-bit engine seed determined by ``parts``."""
    return int.from_bytes(hashlib.blake2b(repr(parts).encode(), digest_size=8).digest(), "big")


class SeededSearch:
    """SearchResolver with an engine seed per record, drawn from the run seed and the record id."""

    resolver_id = "sbcr"

    def __init__(self, params, seed: int):
        self.params = params
        self.seed = seed

    def resolve(self, chunk):
        params = dataclasses.replace(self.params, seed=derive_seed(self.seed, chunk.id))
        return resolvers.SearchResolver(params).resolve(chunk)


class HybridResolver:
    """The router in front of a search and a generative resolver."""

    resolver_id = "hybrid"

    def __init__(self, search_resolver, generative_resolver):
        self.search_resolver = search_resolver
        self.generative_resolver = generative_resolver

    def resolve(self, chunk):
        return router.hybrid_resolve(chunk, self.search_resolver, self.generative_resolver)


def _records(dicts: list[dict]) -> list[corpus.ConflictRecord]:
    accepted, rejected = corpus.ingest_records(json.dumps(d, ensure_ascii=False) for d in dicts)
    if rejected:
        raise RuntimeError(f"generated record rejected: {rejected[0]}")
    return accepted


def _sample_records() -> list[corpus.ConflictRecord]:
    records, rejected = corpus.load_records(corpus.bundled_sample_path())
    if rejected:
        raise RuntimeError(f"bundled sample record rejected: {rejected[0]}")
    return records


def _failed(rows) -> int:
    return sum(1 for row in rows if row.status == resolvers.Status.FAILED.value)


class _SearchWorkload:
    """Search over fixed records through run_benchmark; each record is its own phase."""

    EVALUATIONS = 0

    def __init__(self, records, seed: int):
        self.records = records
        self.timed = TimedResolver(SeededSearch(search.SearchParams(max_evaluations=self.EVALUATIONS), seed))

    def run_pass(self) -> PassResult:
        rows, watch = [], Stopwatch(self.timed)
        for record in self.records:
            rows += watch.run(record.id, bench.run_benchmark, [record], self.timed, jobs=1)
        errors = checks.partial_order(self.timed.take_outputs())
        return PassResult(len(rows), len(rows), _failed(rows), [row.sim_char for row in rows],
                          watch.phases, errors)

    def close(self) -> None:
        pass


class Sample(_SearchWorkload):
    """The bundled 50-record sample; small chunks, so most evaluations hit the memo.
    Each record is resolved twice, under ids that give it two engine seeds."""

    EVALUATIONS = 2000
    SEEDS_PER_RECORD = 2

    def __init__(self, seed: int):
        records = [
            dataclasses.replace(record, id=f"{record.id}/{k}")
            for k in range(self.SEEDS_PER_RECORD)
            for record in _sample_records()
        ]
        super().__init__(records, seed)


class Large(_SearchWorkload):
    """Long chunks with heavy line duplication: line-level LCS and exchange sampling."""

    EVALUATIONS = 60
    RECORDS = 60

    def __init__(self, seed: int):
        super().__init__(_records(generators.large_records(seed, self.RECORDS)), seed)


class Tune:
    """tune_grid on the whole sample; char-level scoring of top-N lists.

    tune_grid is called once per configuration and record, with one job, so
    every timed piece is brief and single-threaded: with two threads under
    the interpreter lock, records_per_s swung by 30% between runs on a
    2-core machine.
    Each call's row holds that record's scores, so the mean of the rows'
    avg_similarity is the grid's mean, and each call is one latency sample:
    50 records under 2 configurations give 100. The grid keeps the top 25
    candidates rather than the default 100, which still leaves the char-level
    scoring of those candidates most of the time and lets a run repeat the
    pass several times."""

    GRID = ((1, 500), (5, 500))  # (neighbors per iteration, evaluation budget)
    TOP_N = 25

    def __init__(self, seed: int):
        self.records = _sample_records()
        self.grid = [
            search.SearchParams(neighbors_per_iteration=k, max_evaluations=budget, top_n=self.TOP_N)
            for k, budget in self.GRID
        ]
        self.seed = seed
        self.timed = None

    def run_pass(self) -> PassResult:
        rows, watch = [], Stopwatch()
        for params in self.grid:
            for record in self.records:
                label = f"{params.neighbors_per_iteration},{params.max_evaluations} {record.id}"
                rows += watch.run(label, bench.tune_grid, [record], [params], self.seed, jobs=1)
        measured = len(self.grid) * len(self.records)
        errors = [] if len(rows) == measured else [f"tune: {len(rows)} rows for {measured} measurements"]
        for row in rows:
            if not (0.0 <= row.avg_similarity <= 1.0 and 0 <= row.top1_count <= 1
                    and 1.0 <= row.avg_ranking <= row.params.top_n + 1):
                errors.append(f"tune: row out of range: {row}")
        return PassResult(measured, measured, 0, [row.avg_similarity for row in rows], watch.phases, errors)

    def close(self) -> None:
        pass


class Dataset:
    """The paper's data path: parse conflicted files, ingest and split a raw
    corpus, bench five trivial baselines and the hybrid router (generative side
    on a loopback stub) on the test split, then compare the hybrid with each
    baseline. Each project is split on its own, so the test split holds every
    record shape in the same share whatever the seed. Files and records are
    timed in pieces of PIECE."""

    RAW_RECORDS = 2000
    FILES = 200
    EVALUATIONS = 200
    RATIOS = (0.6, 0.2, 0.2)
    PIECE = 20  # files or records per timed piece, so each piece is brief

    def __init__(self, seed: int):
        self.seed = seed
        self.stream = generators.raw_stream(seed, self.RAW_RECORDS)
        self.files = generators.conflicted_files(seed, self.FILES)
        self.server = StubServer(mode="echo-v1", port=0).start()
        try:
            seeded = SeededSearch(search.SearchParams(max_evaluations=self.EVALUATIONS), seed)
            self.baselines = [resolvers.TrivialResolver(s) for s in resolvers.TrivialStrategy]
            self.timed = TimedResolver(
                HybridResolver(seeded, resolvers.RemoteResolver(self.server.url))
            )
        except BaseException:
            self.server.stop()
            raise

    def _parse(self, first: int) -> list[str]:
        errors = []
        for k, file in enumerate(self.files[first:first + self.PIECE], start=first):
            parsed = parsing.parse_conflicted_file(file.text)
            errors += checks.round_trip(f"file {k}", file.text, parsing.render_with_markers(parsed))
            if len(parsed.chunks) != file.chunks:
                errors.append(f"file {k}: parsed {len(parsed.chunks)} chunks, generated {file.chunks}")
        return errors

    def _bench(self, watch: Stopwatch, records, resolver) -> list:
        rows = []
        for first in range(0, len(records), self.PIECE):
            piece = records[first:first + self.PIECE]
            rows += watch.run(f"bench {resolver.resolver_id} {first}", bench.run_benchmark, piece, resolver)
        return rows

    def run_pass(self) -> PassResult:
        watch = Stopwatch(self.timed)
        errors = []
        for first in range(0, len(self.files), self.PIECE):
            errors += watch.run(f"parse {first}", self._parse, first)
        accepted, rejected = watch.run("ingest", corpus.ingest_records, self.stream.lines)
        errors += checks.rejections(rejected, self.stream.injected)
        if len(accepted) != self.stream.valid:
            errors.append(f"ingest: accepted {len(accepted)} records, generated {self.stream.valid}")
        by_project: dict[str, list[str]] = {}
        for record in accepted:
            by_project.setdefault(record.project, []).append(record.id)
        test_ids: set[str] = set()
        for project, ids in sorted(by_project.items()):
            split = watch.run(f"split {project}", corpus.split_dataset, ids, self.seed, self.RATIOS)
            test_ids.update(split.test_ids)
        test = [r for r in accepted if r.id in test_ids]

        hybrid_rows = self._bench(watch, test, self.timed)
        errors += checks.partial_order(self.timed.take_outputs())
        failed = _failed(hybrid_rows)
        for baseline in self.baselines:
            rows = self._bench(watch, test, baseline)
            failed += _failed(rows)
            report = watch.run(f"compare {baseline.resolver_id}", bench.compare_results, hybrid_rows, rows)
            errors += checks.comparison(report, len(test))
        scored = len(test) * (1 + len(self.baselines))
        return PassResult(scored, scored, failed, [row.sim_char for row in hybrid_rows], watch.phases, errors)

    def close(self) -> None:
        self.server.stop()


WORKLOADS = {"sample": Sample, "large": Large, "tune": Tune, "dataset": Dataset}
