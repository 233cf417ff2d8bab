"""Uniform resolver interface: search adapter, trivial baselines, remote client, local stub.

Every resolver is total, and ``Resolver.resolve`` alone makes it so: it is the
one ``resolve`` here, times the resolver's ``_generate``, classifies the lines
it returns, and turns anything it raises into a candidate with status FAILED.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .search import SearchParams, candidate_lines, rrhc_resolve

DEFAULT_INPUT_TOKEN_LIMIT = 300
DEFAULT_OUTPUT_TOKEN_LIMIT = 100

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def estimate_tokens(lines: Sequence[str]) -> int:
    """Token-count proxy: split on word boundaries, one token per punctuation character.

    Approximates a BPE count closely enough to act as a monotone size proxy
    for routing and truncation checks.
    """
    return sum(len(_TOKEN_RE.findall(line)) for line in lines)


def truncate_to_tokens(lines: Sequence[str], limit: int) -> list[str]:
    """Keep the first ``limit`` tokens, cutting inside a line at a token boundary."""
    kept: list[str] = []
    remaining = limit
    for line in lines:
        if remaining <= 0:
            break
        matches = list(_TOKEN_RE.finditer(line))
        if len(matches) <= remaining:
            kept.append(line)
            remaining -= len(matches)
        else:
            kept.append(line[: matches[remaining - 1].end()])
            remaining = 0
    return kept


class Status(Enum):
    OK = "ok"
    EMPTY = "empty"
    TRUNCATED = "truncated"
    FAILED = "failed"


@dataclass(frozen=True)
class ResolutionCandidate:
    lines: tuple[str, ...]
    resolver_id: str
    elapsed: float
    status: Status
    detail: str = ""


class _Truncated(tuple):
    """Lines ``_generate`` returns for a reply cut at the output token limit."""


class TrivialStrategy(Enum):
    TAKE_V1 = "take-v1"
    TAKE_V2 = "take-v2"
    TAKE_BASE = "take-base"
    CONCAT_V1_V2 = "concat-v1-v2"
    CONCAT_V2_V1 = "concat-v2-v1"


class Resolver:
    """Base resolver; subclasses implement _generate and inherit timing, statuses and failure mapping."""

    resolver_id = "resolver"

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock if clock is not None else time.perf_counter

    def resolve(self, chunk) -> ResolutionCandidate:
        start = self._clock()
        try:
            lines = self._generate(chunk)
        except Exception as exc:  # totality: resolver failures are data, not crashes
            return ResolutionCandidate((), self.resolver_id, self._clock() - start, Status.FAILED, str(exc))
        status = Status.TRUNCATED if isinstance(lines, _Truncated) else Status.OK if lines else Status.EMPTY
        return ResolutionCandidate(tuple(lines), self.resolver_id, self._clock() - start, status)

    def _generate(self, chunk) -> Sequence[str]:
        raise NotImplementedError


class SearchResolver(Resolver):
    """Adapter running the hill-climbing engine and returning its best candidate."""

    resolver_id = "sbcr"

    def __init__(self, params: SearchParams):
        # a constant clock under an evaluation budget keeps seeded rows byte-reproducible
        super().__init__(None if params.max_execution_time is not None else lambda: 0.0)
        self.params = params

    def _generate(self, chunk) -> Sequence[str]:
        return candidate_lines(rrhc_resolve(chunk, self.params).best, chunk)


class TrivialResolver(Resolver):
    """The classic one-step strategies: take one side, the base, or a concatenation."""

    def __init__(self, strategy: TrivialStrategy, clock: Callable[[], float] | None = None):
        super().__init__(clock)
        self.strategy = strategy
        self.resolver_id = f"trivial:{strategy.value}"

    def _generate(self, chunk) -> Sequence[str]:
        s = self.strategy
        if s is TrivialStrategy.TAKE_V1:
            return list(chunk.v1_lines)
        if s is TrivialStrategy.TAKE_V2:
            return list(chunk.v2_lines)
        if s is TrivialStrategy.TAKE_BASE:
            base = getattr(chunk, "base_lines", None)
            if base is None:
                raise ValueError("chunk has no base section")
            return list(base)
        if s is TrivialStrategy.CONCAT_V1_V2:
            return list(chunk.v1_lines) + list(chunk.v2_lines)
        return list(chunk.v2_lines) + list(chunk.v1_lines)


@dataclass(frozen=True)
class TokenLimits:
    input_limit: int = DEFAULT_INPUT_TOKEN_LIMIT
    output_limit: int = DEFAULT_OUTPUT_TOKEN_LIMIT


def _post_json(url: str, payload: dict, timeout: float) -> tuple[int, bytes]:
    """POST ``payload`` as JSON and return the status code and body of the reply, error replies included."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:  # urlopen raises for every non-2xx reply
        with exc:
            return exc.code, exc.read()


class RemoteResolver(Resolver):
    """HTTP client for an external generative resolver speaking the /v1/resolve protocol.

    Requests are idempotent (a pure POST of the chunk content), bounded by a
    deadline, and capped to ``max_inflight`` concurrent calls.
    """

    resolver_id = "remote"

    def __init__(
        self,
        endpoint: str,
        limits: TokenLimits = TokenLimits(),
        deadline: float = 10.0,
        max_inflight: int = 8,
    ):
        super().__init__()
        self.endpoint = endpoint.rstrip("/")
        self.limits = limits
        self.deadline = deadline
        self._slots = threading.Semaphore(max_inflight)

    def _generate(self, chunk) -> Sequence[str]:
        payload = {
            "base": list(getattr(chunk, "base_lines", None) or []),
            "v1": list(chunk.v1_lines),
            "v2": list(chunk.v2_lines),
            "input_token_limit": self.limits.input_limit,
            "output_token_limit": self.limits.output_limit,
        }
        with self._slots:
            try:
                code, raw = self._post(payload)
            except Exception as exc:
                raise RuntimeError(f"request failed: {exc}") from exc
        if code != 200:
            try:
                error = json.loads(raw).get("error", "")
            except Exception:  # a body that is not a JSON object
                error = ""
            raise RuntimeError(f"HTTP {code}: {error or 'remote error'}")
        try:
            body = json.loads(raw)
            lines = body["lines"]
            truncated = bool(body.get("truncated", False))
            if not isinstance(lines, list) or any(not isinstance(x, str) for x in lines):
                raise ValueError("lines is not a list of strings")
            "".join(lines).encode("utf-8")  # a lone surrogate escape yields lines no file can hold
        except Exception as exc:
            raise ValueError(f"bad response body: {exc}") from exc
        if lines and (truncated or estimate_tokens(lines) == self.limits.output_limit):
            return _Truncated(lines)
        return lines

    def _post(self, payload: dict) -> tuple[int, bytes]:
        return _post_json(f"{self.endpoint}/v1/resolve", payload, self.deadline)


# Every stub mode: whether it sleeps before replying, and its (lines, truncated)
# reply to (v1, v2, output token limit); None stands for a body that is not JSON.
_STUB_TABLE: dict[str, tuple[bool, Callable]] = {
    "echo-v1": (False, lambda v1, v2, limit: (list(v1), False)),
    "echo-v2": (False, lambda v1, v2, limit: (list(v2), False)),
    "empty": (False, lambda v1, v2, limit: ([], False)),
    "truncate": (False, lambda v1, v2, limit: (truncate_to_tokens(list(v1) if v1 else list(v2), limit), True)),
    "slow": (True, lambda v1, v2, limit: (list(v1), False)),
    "garbage": (False, lambda v1, v2, limit: None),
}
STUB_MODES = tuple(_STUB_TABLE)


def stub_response(mode: str, request: bytes, slow_delay: float) -> tuple[int, bytes]:
    """The (HTTP status, body) a stub in ``mode`` answers to a /v1/resolve request
    body, after the mode's delay; the HTTP stub and the in-process stub both call it.
    A request whose ``v1`` or ``v2`` is not a list of strings, or whose output
    token limit is not a finite, non-negative integer value, is answered 400."""
    try:
        payload = json.loads(request)
        v1, v2 = payload["v1"], payload["v2"]
        if not all(type(side) is list and all(type(x) is str for x in side) for side in (v1, v2)):
            raise ValueError("v1 and v2 must be lists of strings")
        output_limit = payload.get("output_token_limit", DEFAULT_OUTPUT_TOKEN_LIMIT)
        if type(output_limit) not in (int, float) or not 0 <= output_limit < math.inf or output_limit % 1:
            raise ValueError("output_token_limit must be a non-negative integer")
        output_limit = int(output_limit)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        return 400, json.dumps({"error": f"bad request: {exc}"}).encode("utf-8")
    delayed, answer = _STUB_TABLE[mode]
    if delayed:
        time.sleep(slow_delay)
    reply = answer(v1, v2, output_limit)
    if reply is None:
        return 200, b"%% this is not json %%"
    lines, truncated = reply
    return 200, json.dumps({"lines": lines, "truncated": truncated}).encode("utf-8")


class StubGenerativeResolver(RemoteResolver):
    """In-process stand-in for a generative resolver, reproducing its failure modes.

    It is the real client with the HTTP round trip replaced by a direct call
    of the stub server's handler, so replies are parsed and classified once.
    Counts requests so tests can assert a resolver was never consulted.
    """

    def __init__(
        self,
        mode: str = "echo-v1",
        limits: TokenLimits = TokenLimits(),
        slow_delay: float = 0.05,
    ):
        if mode not in STUB_MODES:
            raise ValueError(f"unknown stub mode {mode!r}; expected one of {STUB_MODES}")
        super().__init__("", limits)  # _post never reads the endpoint
        self.mode = mode
        self.slow_delay = slow_delay
        self.calls = 0
        self._lock = threading.Lock()
        self.resolver_id = f"stub:{mode}"

    def _post(self, payload: dict) -> tuple[int, bytes]:
        with self._lock:
            self.calls += 1
        return stub_response(self.mode, json.dumps(payload).encode("utf-8"), self.slow_delay)
