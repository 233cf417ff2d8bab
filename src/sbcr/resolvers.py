"""Uniform resolver interface: search adapter, trivial baselines, remote client, local stub.

Every resolver is total, and ``Resolver.resolve`` alone makes it so: it times
the resolver's ``_generate``, classifies the lines it returns, and turns
anything it raises into a candidate with status FAILED. ``SearchResolver``
only holds a lock around it, so searches run one at a time.
"""

from __future__ import annotations

import io
import json
import math
import re
import threading
import time
import urllib.parse
import weakref
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

from .search import SearchParams, candidate_lines, no_clock, rrhc_resolve

DEFAULT_INPUT_TOKEN_LIMIT = 300
DEFAULT_OUTPUT_TOKEN_LIMIT = 100
DEFAULT_DEADLINE = 10.0  # seconds
# Largest body, in bytes, that the client reads in a reply and the stub reads in a request.
MAX_BODY_BYTES = 1 << 20

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
# Held by each search: threads would interleave the CPU-bound engine and split its wall-clock budget.
_SEARCH_LOCK = threading.Lock()


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
    """Base resolver; subclasses implement _generate and inherit timing, statuses and failure mapping.
    ``elapsed`` times ``_generate`` on ``clock``: wall time, but ``search.no_clock`` (0.0) for a trivial
    strategy and a search under an evaluation budget. A hybrid reports the sum over the resolvers it ran."""

    resolver_id = "resolver"
    clock: Callable[[], float] = time.perf_counter

    def resolve(self, chunk) -> ResolutionCandidate:
        start = self.clock()
        try:
            lines = self._generate(chunk)
        except Exception as exc:  # totality: resolver failures are data, not crashes
            return ResolutionCandidate((), self.resolver_id, self.clock() - start, Status.FAILED, str(exc))
        status = Status.TRUNCATED if isinstance(lines, _Truncated) else Status.OK if lines else Status.EMPTY
        return ResolutionCandidate(tuple(lines), self.resolver_id, self.clock() - start, status)

    def _generate(self, chunk) -> Sequence[str]:
        raise NotImplementedError


class SearchResolver(Resolver):
    """Adapter running the hill-climbing engine and returning its best candidate. It reads only ``best``,
    the first best candidate found at any ``top_n``, so it asks the engine for a one-entry ranked list."""

    resolver_id = "sbcr"

    def __init__(self, params: SearchParams):
        self.params = params
        if params.max_evaluations is not None:
            self.clock = no_clock  # seeded rows stay byte-reproducible, elapsed included

    def resolve(self, chunk) -> ResolutionCandidate:
        with _SEARCH_LOCK:  # taken before the clock starts, so elapsed counts no wait
            return super().resolve(chunk)

    def _generate(self, chunk) -> Sequence[str]:
        if not chunk.v1_lines and not chunk.v2_lines:
            return []  # both sides deleted everything: the one candidate there is
        return candidate_lines(rrhc_resolve(chunk, replace(self.params, top_n=1)).best, chunk)


class TrivialResolver(Resolver):
    """The classic one-step strategies: take one side, the base, or a concatenation.
    None reads the time, so every candidate reports ``elapsed`` 0.0."""

    clock = staticmethod(no_clock)

    def __init__(self, strategy: TrivialStrategy):
        self.strategy = strategy
        self.resolver_id = f"trivial:{strategy.value}"

    def _generate(self, chunk) -> Sequence[str]:
        s = self.strategy
        if s is TrivialStrategy.TAKE_V1:
            return list(chunk.v1_lines)
        if s is TrivialStrategy.TAKE_V2:
            return list(chunk.v2_lines)
        if s is TrivialStrategy.TAKE_BASE:
            if chunk.base_lines is None:
                raise ValueError("chunk has no base section")
            return list(chunk.base_lines)
        if s is TrivialStrategy.CONCAT_V1_V2:
            return list(chunk.v1_lines) + list(chunk.v2_lines)
        return list(chunk.v2_lines) + list(chunk.v1_lines)


@dataclass(frozen=True)
class TokenLimits:
    input_limit: int = DEFAULT_INPUT_TOKEN_LIMIT
    output_limit: int = DEFAULT_OUTPUT_TOKEN_LIMIT


def _time_left(end: float) -> float:
    """Seconds left before ``end``; TimeoutError when none are."""
    left = end - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")  # as the socket says when its own timeout runs out
    return left


class _DeadlineReader(io.RawIOBase):
    """A socket's reads, each allowed only what is left before ``end``, and a
    count of the bytes they received; ``getresponse`` reads the reply through
    ``makefile``. Like the socket's own ``makefile``, it holds the socket open
    until it is closed."""

    def __init__(self, sock, end: float):
        self.sock, self.end, self.received = sock, end, 0
        self.stream = sock.makefile("rb", buffering=0)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        self.sock.settimeout(_time_left(self.end))
        n = self.stream.readinto(buffer)
        self.received += n
        return n

    def close(self) -> None:
        self.stream.close()
        super().close()

    def makefile(self, mode: str) -> io.BufferedReader:
        return io.BufferedReader(self)


def _waiting(sock) -> bool:
    """Whether bytes, the peer's close or a reset wait on ``sock``. Unlike
    ``select.select``, a selector takes a descriptor of any number."""
    import selectors  # only the check of an idle connection before its reuse needs it

    with selectors.DefaultSelector() as selector:
        selector.register(sock, selectors.EVENT_READ)
        return bool(selector.select(0))


def _close_all(connections: list) -> None:
    for connection in connections:
        connection.close()


class RemoteResolver(Resolver):
    """HTTP client for an external generative resolver speaking the /v1/resolve protocol.

    Requests are idempotent (a pure POST of the chunk content) and bounded by
    a deadline. The endpoint is an http or https base URL with a host and no
    user, query or fragment, checked here once. A deadline outside (0, ``threading.TIMEOUT_MAX``]
    or a negative output token limit fails every request, so each is refused
    too. The caller's ``jobs`` bounds how many requests run at once. A request
    opens a connection only when none is idle, so the resolver never keeps
    more than the most requests that ran at once; the idle ones are closed
    when it is collected.
    """

    resolver_id = "remote"

    def __init__(self, endpoint: str, limits: TokenLimits = TokenLimits(), deadline: float = DEFAULT_DEADLINE):
        if not 0 < deadline <= threading.TIMEOUT_MAX:
            raise ValueError(f"deadline must be in (0, {threading.TIMEOUT_MAX}] seconds, got {deadline}")
        if limits.output_limit < 0:
            raise ValueError(f"output token limit must be non-negative, got {limits.output_limit}")
        parts = urllib.parse.urlsplit(endpoint)
        if parts.scheme not in ("http", "https") or not parts.hostname or "@" in parts.netloc or parts.query or parts.fragment:
            raise ValueError(f"endpoint must be an http or https URL with a host and no user, query or fragment, got {endpoint!r}")
        parts.port  # raises ValueError for a port that is not a number from 0 to 65535
        self.limits = limits
        self.deadline = deadline
        self._https = parts.scheme == "https"
        self._host = parts.netloc
        self._path = parts.path.rstrip("/") + "/v1/resolve"
        self._idle: list = []  # the connections a whole kept-alive reply left open, each one not in use
        self._idle_lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle)

    def _generate(self, chunk) -> Sequence[str]:
        payload = {
            "base": list(chunk.base_lines or []),
            "v1": list(chunk.v1_lines),
            "v2": list(chunk.v2_lines),
            "input_token_limit": self.limits.input_limit,
            "output_token_limit": self.limits.output_limit,
        }
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
            lines, truncated = body["lines"], body.get("truncated", False)
            if not isinstance(lines, list) or any(not isinstance(x, str) for x in lines):
                raise ValueError("lines is not a list of strings")
            if not isinstance(truncated, bool):
                raise ValueError(f"truncated is not true or false: {truncated!r}")
            "".join(lines).encode("utf-8")  # a lone surrogate escape yields lines no file can hold
        except Exception as exc:
            raise ValueError(f"bad response body: {exc}") from exc
        if lines and (truncated or estimate_tokens(lines) == self.limits.output_limit):
            return _Truncated(lines)
        return lines

    def _post(self, payload: dict) -> tuple[int, bytes]:
        """POST ``payload`` as JSON and return the status code and body of the reply, error replies included.

        The request goes over an idle connection, or a new one, and a complete
        HTTP/1.1 reply without ``Connection: close`` gives the connection back.
        An idle connection with bytes or the peer's close already waiting is
        closed, since nothing sent now is answered by those, and a new one
        opened. One the peer closes after that check, before any reply byte, is
        retried once on a new one; the request is idempotent. The deadline
        bounds the whole request from taking a connection on, but not the host
        name lookup when one opens; a reply body over ``MAX_BODY_BYTES`` raises
        ValueError."""
        import http.client  # only a request going out needs it; it pulls ssl and email, which a local run never needs

        end = time.monotonic() + self.deadline
        data = json.dumps(payload).encode("utf-8")
        connection_class = http.client.HTTPSConnection if self._https else http.client.HTTPConnection
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
        while True:
            reused = connection is not None
            if not reused:
                connection = connection_class(self._host, timeout=_time_left(end))
            try:
                if not reused:
                    connection.connect()  # http.client turns Nagle's algorithm off here, so a body never waits on an ACK
                elif _waiting(connection.sock):
                    connection.close()
                    connection = None
                    continue
                connection.sock.settimeout(_time_left(end))  # the send gets what is left, after a connect too
                with _DeadlineReader(connection.sock, end) as reader:
                    connection.response_class = lambda sock, **kwargs: http.client.HTTPResponse(reader, **kwargs)
                    connection.request("POST", self._path, data, {"Content-Type": "application/json"})
                    with connection.getresponse() as response:
                        body = response.read(MAX_BODY_BYTES + 1)  # in pieces, each read bounded by the deadline
                        if len(body) > MAX_BODY_BYTES:
                            raise ValueError(f"reply body over {MAX_BODY_BYTES} bytes")
                        if response.length:  # the server closed before sending the Content-Length it declared
                            raise http.client.IncompleteRead(body, response.length)
                        keep = response.isclosed() and response.version == 11 and not response.will_close
            except ConnectionError:
                connection.close()
                if reused and not reader.received:  # a stale connection: the peer closed it while it was idle
                    connection = None
                    continue
                raise
            except BaseException:
                connection.close()
                raise
            if keep:
                with self._idle_lock:
                    self._idle.append(connection)
            else:
                connection.close()
            return response.status, body


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
DEFAULT_STUB_MODE = "echo-v1"
DEFAULT_SLOW_DELAY = 2.0  # seconds a slow-mode reply of the HTTP stub waits


def check_stub(mode: str, slow_delay: float) -> None:
    """Raise ``ValueError`` for an unknown mode, or a delay ``time.sleep`` refuses or no client can wait out."""
    if mode not in STUB_MODES:
        raise ValueError(f"unknown stub mode {mode!r}; expected one of {STUB_MODES}")
    if not 0 <= slow_delay <= threading.TIMEOUT_MAX:
        raise ValueError(f"slow-mode delay must be in [0, {threading.TIMEOUT_MAX}] seconds, got {slow_delay}")


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
        mode: str = DEFAULT_STUB_MODE,
        limits: TokenLimits = TokenLimits(),
        slow_delay: float = 0.05,
    ):
        check_stub(mode, slow_delay)
        super().__init__("http://stub.invalid", limits)  # a placeholder under a reserved domain: _post never dials it
        self.mode = mode
        self.slow_delay = slow_delay
        self.calls = 0
        self._lock = threading.Lock()
        self.resolver_id = f"stub:{mode}"

    def _post(self, payload: dict) -> tuple[int, bytes]:
        with self._lock:
            self.calls += 1
        return stub_response(self.mode, json.dumps(payload).encode("utf-8"), self.slow_delay)
