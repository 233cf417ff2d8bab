"""Benchmark runner, parameter tuning, and paired comparison analyses.

Comparison reports are a single JSON document with CSV exports of the
per-conflict similarity differences and the balance histogram, ready for
external plotting; the CLI writes result rows.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Sequence, TextIO

from .corpus import ConflictRecord, load_json
from .resolvers import Resolver
from .router import balance
from .search import SearchParams, candidate_lines, rrhc_resolve
from .similarity import Granularity, char_similarities, similarity
from .stats import cles, wilcoxon_signed_rank

TIE_TOLERANCE = 1e-9
DEFAULT_EXTREMES = 10  # ids kept from each tail of a comparison


@dataclass(frozen=True)
class ResultRow:
    """One resolver run on one conflict, scored against the developer resolution.

    ``balance`` is carried along from the record so comparison reports can
    bucket outcomes by content balance without re-reading the dataset.
    """

    conflict_id: str
    resolver_id: str
    sim_line: float
    sim_char: float
    elapsed: float
    status: str
    balance: float = 0.0

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_json(obj: dict) -> "ResultRow":
        """The row ``to_json`` wrote; raises KeyError, TypeError or ValueError on any other object."""
        return ResultRow(
            conflict_id=_text(obj["conflict_id"]),
            resolver_id=_text(obj["resolver_id"]),
            sim_line=_finite(obj["sim_line"]),
            sim_char=_finite(obj["sim_char"]),
            elapsed=_finite(obj["elapsed"]),
            status=_text(obj["status"]),
            balance=_finite(obj.get("balance", 0.0)),
        )


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _finite(value) -> float:
    if type(value) not in (int, float):  # a JSON number; not a string float() would parse, nor a bool
        raise TypeError(f"{value!r} is not a number")
    try:
        number = float(value)
    except OverflowError:  # an int too large for a float
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def run_benchmark(
    records: Sequence[ConflictRecord],
    resolver: Resolver,
    *,
    jobs: int = 1,
    trim_trailing: bool = False,
) -> list[ResultRow]:
    """Resolve every record and score the candidate against the ground truth.

    Rows are merged in conflict-id order regardless of worker scheduling, so
    runs with different ``jobs`` values produce identical output. The
    record's resolution_lines field is the ground truth; resolver failures
    are recorded as rows scored against their (possibly empty) output.
    """

    def score(record: ConflictRecord) -> ResultRow:
        candidate = resolver.resolve(record)
        return ResultRow(
            conflict_id=record.id,
            resolver_id=candidate.resolver_id,
            sim_line=similarity(candidate.lines, record.resolution_lines, Granularity.LINE, trim_trailing=trim_trailing),
            sim_char=similarity(candidate.lines, record.resolution_lines, Granularity.CHAR, trim_trailing=trim_trailing),
            elapsed=candidate.elapsed,
            status=candidate.status.value,
            balance=balance(record),
        )

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor  # only --jobs above 1 needs it; it pulls logging

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(score, records))
    else:
        rows = [score(record) for record in records]
    return sorted(rows, key=lambda row: row.conflict_id)


RankingMode = Literal["best-similarity", "exact-match"]


@dataclass(frozen=True)
class TuningRow:
    """One grid configuration with the four tuning metrics."""

    params: SearchParams
    top1_count: int
    avg_ranking: float
    avg_similarity: float
    avg_time: float


def tune_grid(
    records: Sequence[ConflictRecord],
    grid: Sequence[SearchParams],
    seed: int,
    *,
    ranking: RankingMode = "best-similarity",
    jobs: int = 1,
) -> list[TuningRow]:
    """Run every grid configuration over the sample and rank them by average similarity.

    Per configuration: top1 counts records whose best candidate matches the
    ground truth exactly (char similarity 1.0); the ranking metric averages
    the 1-based position, in the engine's score-ordered top-N list, of the
    candidate most similar to the ground truth ("best-similarity" mode) or
    of the first exact match ("exact-match" mode), with penalty N+1 when no
    such candidate is listed. Records run one after another: ``jobs`` must be 1.
    """
    if jobs != 1:
        raise ValueError(f"tune_grid runs one record at a time; jobs must be 1, got {jobs}")
    if not records:
        raise ValueError("tuning sample is empty")
    if not grid:
        raise ValueError("tuning grid is empty")
    rows = []
    for base_params in grid:
        params = dataclasses.replace(base_params, seed=seed)
        measured = []
        for record in records:
            result = rrhc_resolve(record, params)
            sims = char_similarities(  # one per ranked candidate; ranked[0] is (best, best_score)
                [candidate_lines(entry.candidate, record) for entry in result.ranked], record.resolution_lines
            )
            target = 1.0 if ranking == "exact-match" else max(sims)
            rank = sims.index(target) + 1 if target in sims else params.top_n + 1
            measured.append((sims[0] == 1.0, rank, sims[0], result.elapsed))
        top1, ranks, best_sims, times = zip(*measured)
        n = len(records)
        rows.append(
            TuningRow(
                params=params,
                top1_count=sum(top1),
                avg_ranking=sum(ranks) / n,
                avg_similarity=math.fsum(best_sims) / n,  # exactly rounded, so equal on every Python version
                avg_time=math.fsum(times) / n,
            )
        )
    return sorted(rows, key=lambda row: -row.avg_similarity)


BALANCE_BUCKETS = 20  # 0.1-wide buckets over [-1, 1]
_BUCKET_LOW_EDGES = tuple(round(-1.0 + 0.1 * i, 1) for i in range(BALANCE_BUCKETS))
_OUTCOMES = ("a_wins", "b_wins", "ties")  # the balance histogram's classes, in report order


def _balance_bucket(balance: float) -> int:
    """The last bucket whose low edge is at or below balance (the first below -1); the last keeps 1.0."""
    return max(0, bisect_right(_BUCKET_LOW_EDGES, balance) - 1)


@dataclass(frozen=True)
class ComparisonReport:
    resolver_a: str
    resolver_b: str
    n: int
    wins_a: int
    wins_b: int
    ties: int
    wilcoxon_p: float
    cles_a_over_b: float
    sim_diff: tuple[tuple[str, float], ...]  # (conflict_id, sim_a - sim_b), id-ordered
    balance_histogram: dict[str, tuple[int, ...]]  # outcome class -> 20 bucket counts
    extremes_a: tuple[str, ...]  # ids where a outperformed b the most
    extremes_b: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            **dataclasses.asdict(self),  # every field, in order; these two take their own shape
            "sim_diff": [{"conflict_id": cid, "diff": diff} for cid, diff in self.sim_diff],
            "balance_histogram": {
                "bucket_low_edges": list(_BUCKET_LOW_EDGES),
                **{key: list(values) for key, values in self.balance_histogram.items()},
            },
        }


def _set_name(rows: Sequence[ResultRow]) -> str:
    """A result set's distinct resolver ids, sorted and joined with '+': a hybrid set names every path its rows took."""
    return "+".join(sorted({row.resolver_id for row in rows}))


def compare_results(
    rows_a: Sequence[ResultRow], rows_b: Sequence[ResultRow], m: int = DEFAULT_EXTREMES
) -> ComparisonReport:
    """Pair two result sets by conflict id and compute the full comparison analysis."""
    if m < 0:
        raise ValueError("m must be >= 0")
    by_id_a = {row.conflict_id: row for row in rows_a}
    by_id_b = {row.conflict_id: row for row in rows_b}
    if len(by_id_a) != len(rows_a) or len(by_id_b) != len(rows_b):
        raise ValueError("duplicate conflict ids within one result set")
    mismatched = sorted(set(by_id_a) ^ set(by_id_b))
    if mismatched:
        raise ValueError(f"conflict id sets differ; first mismatched id: {mismatched[0]}")
    if not by_id_a:
        raise ValueError("no conflicts to compare")

    ids = sorted(by_id_a)
    diffs = [(cid, by_id_a[cid].sim_char - by_id_b[cid].sim_char) for cid in ids]
    histogram = {outcome: [0] * BALANCE_BUCKETS for outcome in _OUTCOMES}
    for cid, d in diffs:
        outcome = "a_wins" if d > TIE_TOLERANCE else "b_wins" if d < -TIE_TOLERANCE else "ties"
        histogram[outcome][_balance_bucket(by_id_a[cid].balance)] += 1

    a_tail = sorted(diffs, key=lambda item: (-item[1], item[0]))
    b_tail = sorted(diffs, key=lambda item: (item[1], item[0]))
    return ComparisonReport(
        resolver_a=_set_name(rows_a),
        resolver_b=_set_name(rows_b),
        n=len(diffs),
        wins_a=sum(histogram["a_wins"]),
        wins_b=sum(histogram["b_wins"]),
        ties=sum(histogram["ties"]),
        wilcoxon_p=wilcoxon_signed_rank([d for _, d in diffs]),
        cles_a_over_b=cles(
            [by_id_a[cid].sim_char for cid in ids], [by_id_b[cid].sim_char for cid in ids]
        ),
        sim_diff=tuple(diffs),
        balance_histogram={key: tuple(values) for key, values in histogram.items()},
        extremes_a=tuple(cid for cid, _ in a_tail[:m]),
        extremes_b=tuple(cid for cid, _ in b_tail[:m]),
    )


def read_result_rows(path: str | Path) -> list[ResultRow]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rows.append(ResultRow.from_json(load_json(line)))
    return rows


def dump_sim_diff_csv(report: ComparisonReport, out: TextIO) -> None:
    """CSV of the per-conflict sim_char difference, a minus b, to a stream opened with newline=""."""
    import csv  # only the CSV writers use it; it loads a shared library no other command needs

    writer = csv.writer(out)
    writer.writerow(["conflict_id", "sim_diff"])
    for cid, diff in report.sim_diff:
        writer.writerow([cid, repr(diff)])


def dump_balance_histogram_csv(report: ComparisonReport, out: TextIO) -> None:
    """CSV of wins and ties per balance bucket, to a stream opened with newline=""."""
    import csv  # as in dump_sim_diff_csv

    writer = csv.writer(out)
    writer.writerow(["bucket_low_edge", *_OUTCOMES])
    for i, edge in enumerate(_BUCKET_LOW_EDGES):
        writer.writerow([edge, *(report.balance_histogram[outcome][i] for outcome in _OUTCOMES)])


def dump_tuning_csv(rows: Sequence[TuningRow], out: TextIO) -> None:
    """CSV with one row per configuration and the four tuning metric columns, to a stream opened with newline=""."""
    import csv  # as in dump_sim_diff_csv

    writer = csv.writer(out)
    writer.writerow(
        ["configuration", "budget_kind", "top1_similarity_count", "average_ranking", "average_similarity", "average_time"]
    )
    for row in rows:
        params = row.params
        timed = params.max_evaluations is None
        budget = params.max_execution_time if timed else params.max_evaluations
        writer.writerow(
            [
                f"{params.neighbors_per_iteration},{budget},{params.max_stagnation_iterations}",
                "seconds" if timed else "evaluations",
                row.top1_count,
                repr(row.avg_ranking),
                repr(row.avg_similarity),
                repr(row.avg_time),
            ]
        )
