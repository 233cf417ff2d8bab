"""Seeded input generators for the benchmark workloads.

Modelled on tools/make_sample_dataset.py: a base block of code-like lines,
two versions derived from it by deleting, rewriting and inserting lines, and
a ground-truth resolution that interleaves lines of both versions without
reordering either. The same seed always yields the same inputs; nothing here
imports sbcr, so the generators are independent of the code under test.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass

IDENTIFIERS = [
    "registry", "policy", "writer", "codec", "ruleSet", "binder", "history",
    "guards", "camera", "mesh", "buffer", "cursor", "retries", "timeout",
    "handler", "options", "payload", "snapshot", "entry", "limit",
]

STATEMENTS = [
    "return {0};",
    "this.{0} = {0};",
    "if ({0} == null) {{",
    "    throw new IllegalStateException();",
    "}}",
    "int {0} = compute();",
    "var {0} = resolve();",
    "const {0} = load();",
    "let {0} = next();",
    "{0}.close();",
    "{0}.flush();",
    "log.debug(\"{0}\");",
    "// update {0} before commit",
    "{0} += 1;",
    "await {0}.sync();",
]

# Few distinct lines, so large chunks repeat lines heavily; about seven
# tokens a line, so every large chunk exceeds the router's input token limit.
LARGE_VOCABULARY = [
    "x[i] = y[j] + 1;", "return x[i];", "}", "if (ok(x)) {", "log(x, y);",
    "y[j] += 2;", "i++;", "free(p->q);", "    break;", "p = q->next;",
    "// todo: x", "z = f(0);",
]

# Short punctuation-dense lines: nearly every character is one token, so a
# chunk of ten or so trips the router's input token limit while its text
# stays as short as an ordinary chunk's.
DENSE_STATEMENTS = [
    "{0}[i]=f(a,b[j]);",
    "if(!{0}[k]){{c();}}",
    "{0}[j]=(x+y)*z[i];",
    "g({0}[i],{0}[j]);",
]
DENSE_NAMES = "abcdefghpqrstuvw"

# Mostly non-ASCII comments, so a chunk carrying one exceeds the router's
# non-English threshold.
NON_ENGLISH_LINES = [
    "    // проверить счётчик после записи",
    "    // 在提交之前更新缓存并检查状态",
    "    // ελέγξτε την κατάσταση μετά την εγγραφή",
]

LANGUAGES = [("Java", ".java"), ("CSharp", ".cs"), ("JavaScript", ".js"), ("TypeScript", ".ts")]

# Base lines per large chunk; each version keeps about as many. The
# exchange operator draws up to n**2 position pairs per move, so cost grows
# about cubically with size; this range keeps a chunk near a fifth of a
# second at the workload's budget, so a run sees many of them.
LARGE_SIDE_LINES = (22, 28)


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{kind}:{seed}")


def _line(rng: random.Random, indent: int, statements=STATEMENTS, names=IDENTIFIERS) -> str:
    return " " * indent + rng.choice(statements).format(rng.choice(names))


def _edit(rng: random.Random, base: list[str], make_line) -> list[str]:
    """Derive one version: keep most base lines, rewrite some, insert a few."""
    version = []
    for line in base:
        roll = rng.random()
        if roll < 0.12:
            continue
        version.append(make_line() if roll < 0.3 else line)
        if rng.random() < 0.15:
            version.append(make_line())
    return version


def _interleave(rng: random.Random, v1: list[str], v2: list[str]) -> list[str]:
    """Ground truth: most lines of both sides, merged without reordering either,
    skipping most v2 lines that v1 already contributed."""
    keep1 = [line for line in v1 if rng.random() < 0.9]
    seen = set(keep1)
    keep2 = [
        line for line in v2
        if not (line in seen and rng.random() < 0.85) and rng.random() < 0.9
    ]
    merged = []
    i = j = 0
    while i < len(keep1) and j < len(keep2):
        if rng.random() * (len(keep1) - i + len(keep2) - j) < len(keep1) - i:
            merged.append(keep1[i])
            i += 1
        else:
            merged.append(keep2[j])
            j += 1
    return merged + keep1[i:] + keep2[j:]


def _commit(rng: random.Random) -> str:
    return "".join(rng.choice("0123456789abcdef") for _ in range(40))


def _record(rng: random.Random, rec_id: str, project: str, base, v1, v2, resolution) -> dict:
    language, suffix = rng.choice(LANGUAGES)
    return {
        "id": rec_id,
        "project": f"synthetic/{project}",
        "commit": _commit(rng),
        "path": f"src/{rng.choice(IDENTIFIERS)}{suffix}",
        "language": language,
        "base": base,
        "v1": v1,
        "v2": v2,
        "resolution": resolution,
    }


def large_records(seed: int, count: int) -> list[dict]:
    """``count`` large chunks over a small vocabulary, in corpus JSON form.

    Side lengths are spread evenly over LARGE_SIDE_LINES so every seed has the
    same size mix; the seed decides the content.
    """
    rng = _rng("large", seed)
    lo, hi = LARGE_SIDE_LINES
    records = []
    for k in range(count):
        size = lo + (hi - lo) * k // max(1, count - 1)
        base = [rng.choice(LARGE_VOCABULARY) for _ in range(size)]
        make = functools.partial(rng.choice, LARGE_VOCABULARY)
        v1 = _edit(rng, base, make)
        v2 = _edit(rng, base, make)
        records.append(_record(rng, f"large-{k:04d}", "large", base, v1, v2, _interleave(rng, v1, v2)))
    return records


# Record shapes of the dataset corpus and how many of every 50 records take
# each; a record's project names its shape. The shares are the route mix of
# the bundled 50-record sample (src/sbcr/data/sample_conflicts.jsonl) under
# the default router thresholds: 24 balanced records go to search; 26
# lopsided ones go to the generative side, 11 with more v1 lines, 10 with
# more v2 lines and 5 with an empty v1, which fall back to search after the
# echo-v1 stub's empty reply. The sample has no chunk over the input token
# limit and none over the non-English threshold, so two of its balanced
# records become one dense (token-limit) and one non-English record: the
# fewest that still measure those routes.
DATASET_SHARES = {
    "balanced": 22, "v1-heavy": 11, "v2-heavy": 10, "one-sided": 5,
    "dense": 1, "non-english": 1,
}

# The shapes above spread evenly over a cycle of 50 records.
DATASET_SHAPES = tuple(
    shape for _, shape in sorted(
        ((k + 0.5) / share, shape) for shape, share in DATASET_SHARES.items() for k in range(share)
    )
)


def _dataset_record(rng: random.Random, index: int) -> dict:
    shape = DATASET_SHAPES[index % len(DATASET_SHAPES)]
    if shape == "dense":
        base_len = rng.randint(9, 11)
        make = functools.partial(_line, rng, 0, DENSE_STATEMENTS, DENSE_NAMES)
    else:
        indent, base_len = rng.choice([0, 4, 8]), rng.randint(3, 5)
        make = functools.partial(_line, rng, indent)
    base = [make() for _ in range(base_len)]
    v1 = _edit(rng, base, make) or [make()]
    v2 = _edit(rng, base, make) or [make()]
    if shape == "v1-heavy":
        v1, v2 = v1 + [make() for _ in range(3)], v2[:1]
    elif shape == "v2-heavy":
        v1, v2 = v1[:1], v2 + [make() for _ in range(3)]
    elif shape == "one-sided":
        v1 = []
    elif shape == "balanced":
        while 5 * abs(len(v1) - len(v2)) > len(v1) + len(v2):  # the router's balance rule
            (v1 if len(v1) < len(v2) else v2).append(make())
    elif shape == "non-english":
        comment = rng.choice(NON_ENGLISH_LINES)
        v1, v2 = [comment] + v1, [comment] + v2
    resolution = _interleave(rng, v1, v2) or (v1 or v2)[:1]
    return _record(rng, f"ds-{index:05d}", shape, base, v1, v2, resolution)


@dataclass(frozen=True)
class RawStream:
    """Line-delimited corpus text with deliberately bad lines mixed in.

    ``injected`` counts the bad lines by the rejection reason ingestion
    must report for them; every other non-blank line is a valid record.
    """

    lines: tuple[str, ...]
    injected: dict[str, int]
    valid: int


def raw_stream(seed: int, count: int) -> RawStream:
    """``count`` valid records plus injected malformed, duplicate-id and
    not-combination lines (about one of each per 30 records)."""
    rng = _rng("stream", seed)
    lines: list[str] = []
    injected = {"malformed": 0, "duplicate-id": 0, "not-combination": 0}
    accepted: list[str] = []
    for index in range(count):
        line = json.dumps(_dataset_record(rng, index), ensure_ascii=False)
        lines.append(line)
        accepted.append(line)
        roll = rng.random()
        if roll < 0.035:
            lines.append(_malformed(rng, line))
            injected["malformed"] += 1
        elif roll < 0.07:
            lines.append(rng.choice(accepted))
            injected["duplicate-id"] += 1
        elif roll < 0.1:
            bad = _dataset_record(rng, index)
            bad["id"] = f"nc-{index:05d}"
            bad["resolution"] = bad["resolution"] + ["    invented(line);"]
            lines.append(json.dumps(bad, ensure_ascii=False))
            injected["not-combination"] += 1
    return RawStream(tuple(lines), injected, count)


def _malformed(rng: random.Random, line: str) -> str:
    """One of three malformations: cut JSON, a missing field, a non-hex commit."""
    kind = rng.randrange(3)
    if kind == 0:
        return line[: len(line) // 2]
    obj = json.loads(line)
    obj["id"] = "bad-" + obj["id"]
    if kind == 1:
        del obj["v2"]
    else:
        obj["commit"] = "not-a-hash"
    return json.dumps(obj, ensure_ascii=False)


@dataclass(frozen=True)
class ConflictFile:
    """A conflicted source file as text, with the number of chunks it holds."""

    text: str
    chunks: int


# Lines that resemble markers but are content: wrong run length, indented,
# or a marker run glued to text.
NEAR_MARKERS = ["<<<<<<<<", " =======", ">>>>>>>x", "|||||| base", "========"]


def conflicted_files(seed: int, count: int) -> list[ConflictFile]:
    """Files mixing context and conflict chunks in merge and diff3 style,
    with LF, CRLF or mixed line endings and sometimes no final newline."""
    rng = _rng("files", seed)
    files = []
    for _ in range(count):
        eol_mode = rng.choice(["lf", "crlf", "mixed"])

        def eol() -> str:
            if eol_mode == "mixed":
                return rng.choice(["\n", "\r\n"])
            return "\n" if eol_mode == "lf" else "\r\n"

        def content(n: int) -> list[str]:
            out = [_line(rng, rng.choice([0, 4])) for _ in range(n)]
            if rng.random() < 0.1:
                out.append(rng.choice(NEAR_MARKERS))
            return out

        diff3 = rng.random() < 0.5
        n_chunks = rng.randint(2, 8)
        lines: list[str] = content(rng.randint(1, 6))
        for _ in range(n_chunks):
            lines.append("<<<<<<< HEAD")
            lines.extend(content(rng.randint(0, 6)))
            if diff3:
                lines.append("||||||| merged common ancestors")
                lines.extend(content(rng.randint(0, 4)))
            lines.append("=======")
            lines.extend(content(rng.randint(0, 6)))
            lines.append(">>>>>>> feature/" + rng.choice(IDENTIFIERS))
            lines.extend(content(rng.randint(1, 6)))
        text = "".join(line + eol() for line in lines)
        if rng.random() < 0.2:
            text = text.rstrip("\r\n")
        files.append(ConflictFile(text, n_chunks))
    return files
