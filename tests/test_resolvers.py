import contextlib
import gc
import http.client
import json
import math
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest
from conftest import Chunk
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbcr.resolvers import (
    MAX_BODY_BYTES,
    RemoteResolver,
    SearchResolver,
    Status,
    StubGenerativeResolver,
    TokenLimits,
    TrivialResolver,
    TrivialStrategy,
    estimate_tokens,
    stub_response,
    truncate_to_tokens,
)
from sbcr.bench import run_benchmark
from sbcr.corpus import bundled_sample_path, load_records
from sbcr.router import FALLBACK_RESOLVER_ID, HybridResolver, RouteThresholds, hybrid_resolve
from sbcr.search import SearchParams
from sbcr.stub_server import StubServer

CHUNK = Chunk(
    v1_lines=["int x = 1;", "return x;"],
    v2_lines=["int x = 2;", "log(x);", "return x;"],
    base_lines=["int x = 0;", "return x;"],
)


def test_estimate_tokens_counts_words_and_punctuation():
    assert estimate_tokens(["int x = 1;"]) == 5
    assert estimate_tokens([]) == 0
    assert estimate_tokens(["", "   "]) == 0
    assert estimate_tokens(["foo.bar(baz)"]) == 6


def test_truncate_to_tokens():
    lines = ["one two three", "four five"]
    assert truncate_to_tokens(lines, 5) == lines
    assert truncate_to_tokens(lines, 4) == ["one two three", "four"]
    assert truncate_to_tokens(lines, 2) == ["one two"]
    assert truncate_to_tokens(lines, 0) == []


def test_trivial_strategies():
    assert TrivialResolver(TrivialStrategy.TAKE_V1).resolve(CHUNK).lines == tuple(CHUNK.v1_lines)
    assert TrivialResolver(TrivialStrategy.TAKE_V2).resolve(CHUNK).lines == tuple(CHUNK.v2_lines)
    assert TrivialResolver(TrivialStrategy.TAKE_BASE).resolve(CHUNK).lines == tuple(CHUNK.base_lines)
    assert TrivialResolver(TrivialStrategy.CONCAT_V1_V2).resolve(CHUNK).lines == tuple(
        CHUNK.v1_lines + CHUNK.v2_lines
    )
    assert TrivialResolver(TrivialStrategy.CONCAT_V2_V1).resolve(CHUNK).lines == tuple(
        CHUNK.v2_lines + CHUNK.v1_lines
    )


def test_take_base_without_base_fails():
    candidate = TrivialResolver(TrivialStrategy.TAKE_BASE).resolve(Chunk(["a"], ["b"]))
    assert candidate.status is Status.FAILED
    assert "base" in candidate.detail


def test_empty_lines_get_empty_status():
    candidate = TrivialResolver(TrivialStrategy.TAKE_V1).resolve(Chunk([], ["b"]))
    assert candidate.status is Status.EMPTY
    assert candidate.lines == ()


def test_search_resolver_matches_engine_best():
    from sbcr.search import candidate_lines, rrhc_resolve

    params = SearchParams(max_evaluations=500, seed=3)
    resolver = SearchResolver(params)
    candidate = resolver.resolve(CHUNK)
    result = rrhc_resolve(CHUNK, params)
    assert list(candidate.lines) == candidate_lines(result.best, CHUNK)
    assert candidate.resolver_id == "sbcr"
    assert candidate.status is Status.OK
    assert candidate.elapsed == result.elapsed


def test_search_resolver_answers_a_chunk_with_no_lines_as_empty():
    candidate = SearchResolver(SearchParams(max_evaluations=10)).resolve(Chunk([], [], base_lines=["kept"]))
    assert (candidate.status, candidate.lines) == (Status.EMPTY, ())


def test_searches_run_one_at_a_time_under_jobs(monkeypatch):
    """Threads interleaving searches split each one's wall-clock budget."""
    from sbcr import resolvers
    from sbcr.bench import run_benchmark
    from sbcr.corpus import bundled_sample_path, load_records

    real, running, seen, lock = resolvers.rrhc_resolve, [0], [], threading.Lock()

    def probe(chunk, params):
        with lock:
            running[0] += 1
            seen.append(running[0])
        time.sleep(0.02)
        try:
            return real(chunk, params)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr("sbcr.resolvers.rrhc_resolve", probe)
    records = load_records(bundled_sample_path())[0][:8]
    rows = run_benchmark(records, SearchResolver(SearchParams(max_evaluations=20)), jobs=4)
    assert [row.status for row in rows] == ["ok"] * 8
    assert max(seen) == 1


@pytest.mark.parametrize(
    "resolver",
    [SearchResolver(SearchParams(max_evaluations=200)), SearchResolver(SearchParams(max_execution_time=0.1)),
     *(TrivialResolver(strategy) for strategy in TrivialStrategy)],
    ids=["sbcr-evaluations", "sbcr-seconds", *(strategy.value for strategy in TrivialStrategy)],
)
def test_search_and_trivial_resolvers_pickle(resolver):
    """Each took its zero clock as a lambda, which no pickle can hold."""
    copy = pickle.loads(pickle.dumps(resolver))
    ours, theirs = resolver.resolve(CHUNK), copy.resolve(CHUNK)
    if isinstance(resolver, SearchResolver) and resolver.params.max_execution_time is not None:
        assert (theirs.status, theirs.lines) == (ours.status, ours.lines)  # its elapsed is wall time
    else:
        assert theirs == ours and theirs.elapsed == 0.0


def test_search_resolver_total_on_bad_chunk():
    candidate = SearchResolver(SearchParams(max_evaluations=10)).resolve(Chunk(["a"], None))
    assert candidate.status is Status.FAILED


def test_stub_modes_in_process():
    assert StubGenerativeResolver("echo-v1").resolve(CHUNK).lines == tuple(CHUNK.v1_lines)
    assert StubGenerativeResolver("echo-v2").resolve(CHUNK).lines == tuple(CHUNK.v2_lines)
    empty = StubGenerativeResolver("empty").resolve(CHUNK)
    assert empty.status is Status.EMPTY
    garbage = StubGenerativeResolver("garbage").resolve(CHUNK)
    assert garbage.status is Status.FAILED
    with pytest.raises(ValueError):
        StubGenerativeResolver("no-such-mode")


def test_stub_truncate_mode():
    stub = StubGenerativeResolver("truncate", limits=TokenLimits(output_limit=5))
    candidate = stub.resolve(CHUNK)
    assert candidate.status is Status.TRUNCATED
    assert estimate_tokens(candidate.lines) == 5
    assert candidate.lines == ("int x = 1;",)


def test_stub_counts_calls():
    stub = StubGenerativeResolver("echo-v1")
    for _ in range(3):
        stub.resolve(CHUNK)
    assert stub.calls == 3


@pytest.fixture(scope="module")
def echo_server():
    server = StubServer(mode="echo-v1", port=0).start()
    yield server
    server.stop()


def test_remote_resolver_against_stub(echo_server):
    resolver = RemoteResolver(echo_server.url)
    candidate = resolver.resolve(CHUNK)
    assert candidate.status is Status.OK
    assert candidate.lines == tuple(CHUNK.v1_lines)
    assert candidate.elapsed > 0


def test_remote_resolver_does_not_mutate_chunk(echo_server):
    chunk = Chunk(["a"], ["b"], ["c"])
    RemoteResolver(echo_server.url).resolve(chunk)
    assert chunk.v1_lines == ["a"] and chunk.v2_lines == ["b"] and chunk.base_lines == ["c"]


def test_remote_resolver_idempotent(echo_server):
    resolver = RemoteResolver(echo_server.url)
    first = resolver.resolve(CHUNK)
    second = resolver.resolve(CHUNK)
    assert first.lines == second.lines and first.status == second.status


def test_remote_resolver_concurrent_calls(echo_server):
    resolver = RemoteResolver(echo_server.url)
    results = []
    lock = threading.Lock()

    def call():
        candidate = resolver.resolve(CHUNK)
        with lock:
            results.append(candidate.status)

    threads = [threading.Thread(target=call) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [Status.OK] * 8


def test_remote_empty_mode():
    server = StubServer(mode="empty", port=0).start()
    try:
        candidate = RemoteResolver(server.url).resolve(CHUNK)
        assert candidate.status is Status.EMPTY
    finally:
        server.stop()


def test_remote_truncate_mode_exactly_at_limit():
    server = StubServer(mode="truncate", port=0).start()
    try:
        resolver = RemoteResolver(server.url, limits=TokenLimits(output_limit=5))
        candidate = resolver.resolve(CHUNK)
        assert candidate.status is Status.TRUNCATED
        assert estimate_tokens(candidate.lines) == 5
    finally:
        server.stop()


def test_remote_garbage_mode_fails_cleanly():
    server = StubServer(mode="garbage", port=0).start()
    try:
        candidate = RemoteResolver(server.url).resolve(CHUNK)
        assert candidate.status is Status.FAILED
        assert "body" in candidate.detail
    finally:
        server.stop()


def test_remote_slow_mode_hits_deadline():
    server = StubServer(mode="slow", port=0, slow_delay=2.0).start()
    try:
        candidate = RemoteResolver(server.url, deadline=0.2).resolve(CHUNK)
        assert candidate.status is Status.FAILED
        assert "request failed" in candidate.detail
    finally:
        server.stop()


@pytest.mark.parametrize("mode", ["echo-v1", "echo-v2", "empty", "truncate", "garbage"])
def test_in_process_stub_answers_as_the_remote_client_over_http(mode):
    limits = TokenLimits(output_limit=5)
    server = StubServer(mode=mode, port=0).start()
    try:
        remote = RemoteResolver(server.url, limits=limits).resolve(CHUNK)
    finally:
        server.stop()
    stub = StubGenerativeResolver(mode, limits=limits).resolve(CHUNK)
    assert (stub.lines, stub.status, stub.detail) == (remote.lines, remote.status, remote.detail)


def test_remote_http_error_reply_fails_with_its_error(echo_server):
    candidate = RemoteResolver(echo_server.url + "/nope").resolve(CHUNK)
    assert candidate.status is Status.FAILED
    assert candidate.detail.startswith("HTTP 404: no such route")


def test_remote_unreachable_endpoint_fails():
    candidate = RemoteResolver("http://127.0.0.1:9", deadline=0.5).resolve(CHUNK)
    assert candidate.status is Status.FAILED


def test_stub_server_rejects_bad_route_and_body(echo_server):
    import requests

    assert requests.post(f"{echo_server.url}/nope", json={}, timeout=5).status_code == 404
    assert requests.get(f"{echo_server.url}/nope", timeout=5).status_code == 404
    assert requests.post(f"{echo_server.url}/v1/resolve", data=b"{", timeout=5).status_code == 400
    stats = requests.get(f"{echo_server.url}/stats", timeout=5).json()
    assert stats["mode"] == "echo-v1" and stats["calls"] >= 1


def test_import_does_not_load_requests():
    """The CLI loads every module without requests; the engine alone loads no other sbcr module and no HTTP."""
    import sbcr

    src = str(Path(sbcr.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = """
import sys
import sbcr.search
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "sbcr")
assert loaded == ["sbcr", "sbcr.search"], loaded
assert "http.client" not in sys.modules
import sbcr.cli
assert "requests" not in sys.modules
"""
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_local_commands_load_no_http_or_thread_pool():
    """route loads neither the HTTP client, the stub's server nor the thread pool; a remote
    request the process makes after that loads the client itself and fails as data."""
    import sbcr

    src = str(Path(sbcr.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "SBCR_REMOTE_URL"}
    code = """
import os, socket, sys
import sbcr.bench, sbcr.cli, sbcr.router
from sbcr.corpus import bundled_sample_path, load_records
from sbcr.resolvers import RemoteResolver, Status

assert sbcr.cli.main(["route", str(bundled_sample_path()), "--decisions", os.devnull]) == 0
loaded = [name for name in ("http.client", "http.server", "concurrent.futures") if name in sys.modules]
assert not loaded, loaded
with socket.socket() as sock:
    sock.bind(("127.0.0.1", 0))  # bound but not listening: a connect to it is refused
    remote = RemoteResolver("http://127.0.0.1:%d" % sock.getsockname()[1], deadline=5.0)
    candidate = remote.resolve(load_records(bundled_sample_path())[0][0])
assert candidate.status is Status.FAILED and "Connection refused" in candidate.detail, candidate
"""
    subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": src}, check=True, timeout=60)


def test_the_in_process_stub_loads_no_http_client():
    """The stub replaces the request itself, so resolving through it loads neither http.client nor ssl."""
    import sbcr

    src = str(Path(sbcr.__file__).resolve().parent.parent)
    code = """
import sys
from sbcr.resolvers import Status, StubGenerativeResolver
class Chunk:
    v1_lines, v2_lines, base_lines = ["a"], ["b"], None
assert StubGenerativeResolver().resolve(Chunk()).status is Status.OK
loaded = [name for name in ("http.client", "ssl") if name in sys.modules]
assert not loaded, loaded
"""
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)


@pytest.mark.parametrize("body", [b"[1, 2]", b"null"])
def test_remote_error_reply_with_non_object_json_fails_cleanly(monkeypatch, body):
    monkeypatch.setattr(RemoteResolver, "_post", lambda self, payload: (500, body))
    candidate = RemoteResolver("http://127.0.0.1:9").resolve(CHUNK)
    assert candidate.status is Status.FAILED
    assert candidate.detail == "HTTP 500: remote error"


DEEP_JSON = b"[" * 100_000

# a lopsided chunk, which the router sends to the generative side
LOPSIDED = Chunk(["int a = 1;", "int b = 2;", "int c = 3;"], ["int a = 0;"])

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_REPLY_OBJECTS = st.fixed_dictionaries(
    {}, optional={"lines": st.lists(st.text(max_size=12), max_size=4) | _JSON_VALUES, "truncated": _JSON_VALUES,
                  "error": _JSON_VALUES}
)
_BODIES = st.one_of(
    st.binary(max_size=64),
    st.sampled_from([DEEP_JSON, b"{\"lines\": " + DEEP_JSON, b"", b"null", b"[1, 2]", b"%% not json %%",
                     b'{"lines": ["\\ud800"]}']),
    _JSON_VALUES.map(lambda v: json.dumps(v).encode("utf-8")),
    _REPLY_OBJECTS.map(lambda v: json.dumps(v).encode("utf-8")),
)
_STATUSES = st.sampled_from([200, 200, 400, 404, 500, 503]) | st.integers(-1, 999)
_EXCEPTIONS = st.builds(
    lambda kind, message: kind(message),
    st.sampled_from([OSError, TimeoutError, ValueError, KeyError, TypeError, RuntimeError, RecursionError,
                     AttributeError, MemoryError, http.client.HTTPException]),
    st.text(max_size=12),
)


@given(st.one_of(st.tuples(_STATUSES, _BODIES), _EXCEPTIONS))
@example((200, DEEP_JSON))
@example((500, DEEP_JSON))
@example(RecursionError("maximum recursion depth exceeded"))
def test_remote_resolver_is_total_and_hybrid_falls_back(reply):
    """Whatever ``_post`` answers or raises, the client returns a candidate, and
    the hybrid falls back to search unless that candidate is OK."""

    def post(payload):
        if isinstance(reply, Exception):
            raise reply
        return reply

    remote = RemoteResolver("http://127.0.0.1:9")
    remote._post = post
    candidate = remote.resolve(LOPSIDED)
    assert candidate.resolver_id == "remote"
    assert candidate.status is not Status.FAILED or candidate.lines == ()
    "".join(candidate.lines).encode("utf-8")  # whatever it returns can be written out
    hybrid = hybrid_resolve(LOPSIDED, SearchResolver(SearchParams(max_evaluations=20)), remote, RouteThresholds())
    expected = "remote" if candidate.status is Status.OK else FALLBACK_RESOLVER_ID
    assert hybrid.resolver_id == expected


def test_remote_failure_details_name_their_stage():
    def resolve_with(reply):
        def post(payload):
            if isinstance(reply, Exception):
                raise reply
            return reply

        remote = RemoteResolver("http://127.0.0.1:9")
        remote._post = post
        return remote.resolve(CHUNK)

    assert resolve_with(OSError("refused")).detail == "request failed: refused"
    assert resolve_with((503, b'{"error": "busy"}')).detail == "HTTP 503: busy"
    assert resolve_with((503, DEEP_JSON)).detail == "HTTP 503: remote error"
    assert resolve_with((200, b'{"truncated": true}')).detail == "bad response body: 'lines'"
    assert resolve_with((200, b'{"lines": "ab"}')).detail == "bad response body: lines is not a list of strings"
    lone = resolve_with((200, b'{"lines": ["\\ud800"]}'))
    assert lone.status is Status.FAILED and lone.detail.startswith("bad response body: 'utf-8' codec can't encode")
    deep = resolve_with((200, DEEP_JSON))
    assert deep.status is Status.FAILED and deep.detail.startswith("bad response body: maximum recursion depth")


@pytest.mark.parametrize(
    "flag, status",
    [("true", Status.TRUNCATED), ("false", Status.OK), (None, Status.OK),
     *((value, Status.FAILED) for value in ('"false"', "0", "1", "null", "[]"))],
    ids=str,
)
def test_remote_truncated_flag_must_be_true_or_false(flag, status):
    """``bool()`` read "false" as truncated and 0 or null as whole; an absent flag means false."""
    body = '{"lines": ["a"]}' if flag is None else '{"lines": ["a"], "truncated": %s}' % flag
    remote = RemoteResolver("http://127.0.0.1:9")
    remote._post = lambda payload: (200, body.encode("utf-8"))
    candidate = remote.resolve(CHUNK)
    assert candidate.status is status
    if status is Status.FAILED:
        assert candidate.detail.startswith("bad response body: truncated is not true or false")


def test_remote_truncation_travels_with_each_reply_across_threads():
    """Threads sharing one client each see the status of their own reply."""
    replies = {"cut": {"lines": ["x"], "truncated": True}, "whole": {"lines": ["y"], "truncated": False}}
    remote = RemoteResolver("http://127.0.0.1:9")
    remote._post = lambda payload: (200, json.dumps(replies[payload["v1"][0]]).encode("utf-8"))
    wrong = []

    def call(key, expected):
        for _ in range(200):
            if remote.resolve(Chunk([key], [])).status is not expected:
                wrong.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=pair) for pair in [("cut", Status.TRUNCATED), ("whole", Status.OK)] * 4]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_search_resolver_elapsed_follows_its_budget():
    assert SearchResolver(SearchParams(max_evaluations=50)).resolve(CHUNK).elapsed == 0.0
    timed = SearchResolver(SearchParams(max_execution_time=0.05, max_evaluations=None)).resolve(CHUNK)
    assert timed.status is Status.OK and timed.elapsed >= 0.05


def test_stub_answers_json_nested_too_deep_with_bad_request():
    code, body = stub_response("echo-v1", DEEP_JSON, 0.0)
    assert code == 400
    assert json.loads(body)["error"].startswith("bad request: ")


@pytest.mark.parametrize(
    "request_body",
    [
        {"v1": 5, "v2": []},
        {"v1": [1], "v2": []},
        {"v1": "ab", "v2": []},
        {"v1": ["a"], "v2": None},
        {"v1": ["a"], "v2": [], "output_token_limit": 1e400},
        {"v1": ["a"], "v2": [], "output_token_limit": -1},
        {"v1": ["a"], "v2": [], "output_token_limit": 2.5},
        {"v1": ["a"], "v2": [], "output_token_limit": "3"},
        {"v1": ["a"], "v2": [], "output_token_limit": True},
    ],
)
@pytest.mark.parametrize("mode", ["echo-v1", "truncate"])
def test_stub_answers_malformed_sides_and_limits_with_bad_request(mode, request_body):
    code, body = stub_response(mode, json.dumps(request_body).encode("utf-8"), 0.0)
    assert code == 400
    assert json.loads(body)["error"].startswith("bad request: ")


def test_stub_accepts_an_integral_float_limit():
    request = {"v1": ["a b c"], "v2": [], "output_token_limit": 2.0}
    code, body = stub_response("truncate", json.dumps(request).encode("utf-8"), 0.0)
    assert (code, json.loads(body)) == (200, {"lines": ["a b"], "truncated": True})


def test_stub_server_answers_a_malformed_side_with_400_not_a_reset():
    server = StubServer(mode="echo-v1", port=0).start()
    try:
        code, body = RemoteResolver(server.url)._post({"v1": 5, "v2": []})
    finally:
        server.stop()
    assert code == 400
    assert json.loads(body)["error"].startswith("bad request: ")


@pytest.mark.parametrize("deadline", [-1.0, 0.0, math.nan, math.inf, 9.3e9])
def test_remote_resolver_refuses_a_deadline_that_fails_every_request(deadline):
    with pytest.raises(ValueError, match="deadline"):
        RemoteResolver("http://127.0.0.1:9", deadline=deadline)


@pytest.mark.parametrize(
    "endpoint",
    ["notaurl", "ftp://h/x", "http://", "http://:8731", "http://u:p@h/", "http://h/api?key=1", "http://h/api#f", "http://h:x/"],
)
def test_remote_resolver_refuses_an_endpoint_it_cannot_post_to(endpoint):
    """A query or a fragment used to be dropped with the path's /v1/resolve, and
    the rest (a user's too, taken for part of the host name) failed every
    request while a hybrid run fell back to search."""
    with pytest.raises(ValueError, match="endpoint|[Pp]ort"):
        RemoteResolver(endpoint)


def test_an_endpoint_with_a_trailing_slash_posts_to_v1_resolve(echo_server):
    assert RemoteResolver(echo_server.url + "/").resolve(CHUNK).status is Status.OK


def test_remote_resolver_refuses_a_negative_output_limit():
    """The stub answered each such request with 400, so every request failed.
    A negative input limit only routes every chunk to search, so it stays."""
    with pytest.raises(ValueError, match="output token limit"):
        RemoteResolver("http://127.0.0.1:9", limits=TokenLimits(output_limit=-5))
    RemoteResolver("http://127.0.0.1:9", limits=TokenLimits(input_limit=-5, output_limit=0))


def test_the_in_process_stub_never_dials(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the in-process stub opened a socket")

    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)
    stub = StubGenerativeResolver("echo-v1")
    assert stub.resolve(CHUNK).status is Status.OK
    assert stub.calls == 1


def test_remote_resolver_takes_the_longest_deadline_a_socket_accepts(echo_server):
    candidate = RemoteResolver(echo_server.url, deadline=threading.TIMEOUT_MAX).resolve(CHUNK)
    assert candidate.status is Status.OK


@pytest.mark.parametrize("delay", [-1.0, math.nan, math.inf, 9.3e9])
def test_stubs_refuse_a_delay_that_sleep_rejects(delay):
    with pytest.raises(ValueError, match="delay"):
        StubGenerativeResolver("slow", slow_delay=delay)
    with pytest.raises(ValueError, match="delay"):
        StubServer(mode="slow", port=0, slow_delay=delay)


def test_concurrent_requests_each_end_at_the_deadline():
    """A cap of 8 in-flight requests used to hold the ninth to twelfth back
    until a slot freed, so they failed at twice the deadline."""
    server = StubServer(mode="slow", port=0, slow_delay=1.0).start()
    resolver = RemoteResolver(server.url, deadline=0.5)
    finished = []

    def call():
        start = time.monotonic()
        candidate = resolver.resolve(CHUNK)
        finished.append((candidate.status, time.monotonic() - start))

    threads = [threading.Thread(target=call) for _ in range(12)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        server.stop()
    assert len(finished) == 12
    assert {status for status, _ in finished} == {Status.FAILED}
    assert max(seconds for _, seconds in finished) < 0.8


@pytest.mark.parametrize("length", [-1, MAX_BODY_BYTES + 1, 10**20])
def test_stub_server_answers_a_negative_content_length_with_400(echo_server, length):
    """read(-1) used to wait for the client to close, a length over the cap
    waited for a body that never came, and 10**20 failed the read: no reply came."""
    with socket.create_connection(echo_server.server_address, timeout=2) as sock:
        sock.sendall(b"POST /v1/resolve HTTP/1.1\r\nHost: stub\r\nContent-Length: %d\r\n\r\n{}" % length)
        with sock.makefile("rb") as reply:
            status_line = reply.readline()
    assert status_line.split()[1] == b"400"


@pytest.mark.parametrize("verbose", [False, True])
def test_stub_server_logs_a_client_hang_up_only_when_verbose(capsys, verbose):
    """A client that gave up at its deadline used to make the stub print a
    BrokenPipeError traceback when the slow reply came."""
    server = StubServer(mode="slow", port=0, slow_delay=0.3, verbose=verbose)
    handled = threading.Event()
    shutdown_request = server.shutdown_request

    def shutdown_and_signal(request):  # called once the handler has returned or its error was printed
        shutdown_request(request)
        handled.set()

    server.shutdown_request = shutdown_and_signal
    server.start()
    try:
        assert RemoteResolver(server.url, deadline=0.05).resolve(CHUNK).status is Status.FAILED
        assert handled.wait(5)
    finally:
        server.stop()
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Exception occurred" not in err
    assert ("client hung up before the reply" in err) is verbose


def _reply(body: bytes, head: bytes = b"HTTP/1.0 200 OK") -> bytes:
    return head + b"\r\nContent-Length: %d\r\n\r\n" % len(body) + body


@contextlib.contextmanager
def _loopback_server(reply: bytes, *, drip: float = 0.0, connections: int = 1, stray: bytes = b""):
    """Answer ``connections`` requests from one thread with ``reply``, sent
    whole or, when ``drip`` is set, one byte every ``drip`` seconds. With
    ``stray``, each reply is followed 50 ms later by those bytes, and the
    connection stays open for more requests until the client hangs up."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)

    def serve():
        for _ in range(connections):
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            with conn:
                conn.settimeout(5)
                try:
                    while conn.recv(1 << 16):
                        for piece in [reply[k : k + 1] for k in range(len(reply))] if drip else [reply]:
                            conn.sendall(piece)
                            time.sleep(drip)
                        if not stray:
                            break
                        time.sleep(0.05)
                        conn.sendall(stray)
                    # read the rest of the request until the client hangs up, so closing sends no reset
                    conn.shutdown(socket.SHUT_WR)
                    while conn.recv(1 << 16):
                        pass
                except OSError:  # the client hung up
                    pass

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        thread.join(10)
        listener.close()
    assert not thread.is_alive()


def test_remote_deadline_bounds_a_dripped_reply():
    """The deadline used to bound each socket read, not the request, so a
    reply sent a byte at a time came back OK long after the deadline."""
    body = json.dumps({"lines": LOPSIDED.v1_lines, "truncated": False}).encode("utf-8")
    with _loopback_server(_reply(body), drip=0.1, connections=2) as url:
        remote = RemoteResolver(url, deadline=0.5)
        start = time.monotonic()
        candidate = remote.resolve(LOPSIDED)
        assert time.monotonic() - start < 1.5
        assert (candidate.status, candidate.detail) == (Status.FAILED, "request failed: timed out")
        search = SearchResolver(SearchParams(max_evaluations=20))
        assert HybridResolver(search, remote).resolve(LOPSIDED).resolver_id == FALLBACK_RESOLVER_ID


def test_remote_deadline_bounds_the_connect_and_the_send_together(monkeypatch):
    """The connect and the send each used to get the whole deadline, so a slow
    connect followed by a send the server never reads took their sum."""
    connect = http.client.socket.create_connection

    def slow_connect(*args, **kwargs):
        time.sleep(0.6)
        return connect(*args, **kwargs)

    monkeypatch.setattr(http.client.socket, "create_connection", slow_connect)
    with socket.create_server(("127.0.0.1", 0)) as listener:  # accepts nothing, so reads nothing
        remote = RemoteResolver(f"http://127.0.0.1:{listener.getsockname()[1]}", deadline=1.0)
        start = time.monotonic()
        candidate = remote.resolve(Chunk(v1_lines=["x" * (1 << 20)] * 16, v2_lines=[]))  # a 16 MB request
        elapsed = time.monotonic() - start
    assert (candidate.status, candidate.detail) == (Status.FAILED, "request failed: timed out")
    assert elapsed < 1.3


def test_a_deadline_the_connect_spends_fails_the_request_before_the_send(monkeypatch):
    """The send gets what the connect left of the deadline; with nothing left, the request fails there."""
    connect = http.client.socket.create_connection

    def slow_connect(*args, **kwargs):
        time.sleep(0.3)
        return connect(*args, **kwargs)

    monkeypatch.setattr(http.client.socket, "create_connection", slow_connect)
    with socket.create_server(("127.0.0.1", 0)) as listener:  # accepts nothing: the connect alone succeeds
        candidate = RemoteResolver(f"http://127.0.0.1:{listener.getsockname()[1]}", deadline=0.1).resolve(CHUNK)
    assert (candidate.status, candidate.detail) == (Status.FAILED, "request failed: timed out")


_BODY = json.dumps({"lines": ["a"], "truncated": False}).encode("utf-8")


@pytest.mark.parametrize(
    "reply, detail",
    [
        (_reply(_BODY.ljust(MAX_BODY_BYTES + 4096)), f"reply body over {MAX_BODY_BYTES} bytes"),
        (_reply(_BODY.ljust(100))[: -100 + len(_BODY)], f"IncompleteRead({len(_BODY)} bytes read, {100 - len(_BODY)} more expected)"),
    ],
    ids=["over-the-cap", "shorter-than-declared"],
)
def test_remote_reply_of_the_wrong_size_fails(reply, detail):
    with _loopback_server(reply) as url:
        candidate = RemoteResolver(url, deadline=5.0).resolve(CHUNK)
    assert (candidate.status, candidate.detail) == (Status.FAILED, f"request failed: {detail}")


_STATUS_LINES = st.one_of(
    st.sampled_from([b"HTTP/1.1 200 OK", b"HTTP/1.0 200 OK"]),
    st.sampled_from([b"HTTP/1.1 500 Oops", b"HTTP/1.1 404", b"HTTP/1.1 100 Continue", b"HTTP/2 200",
                     b"HTTP/1.1 2000 OK", b"ICY 200 OK", b"", b"HTTP/1.1"]),
    st.binary(max_size=24),
)
_HEADERS = st.lists(
    st.sampled_from([b"Content-Length: 7", b"Content-Length: 0", b"Content-Length: -1", b"Content-Length: 99999999",
                     b"Content-Length: x", b"Transfer-Encoding: chunked", b"Connection: close", b"X" * 70_000])
    | st.binary(max_size=24),
    max_size=3,
)
_REPLY_BODIES = st.sampled_from([_BODY, b"3\r\nabc\r\n0\r\n\r\n", b"zz\r\n"]) | st.binary(max_size=48)


@settings(max_examples=50)
@given(_STATUS_LINES, _HEADERS, _REPLY_BODIES)
def test_no_reply_bytes_break_the_remote_client(status_line, headers, body):
    """Whatever a server sends before it closes, the client returns a candidate
    by its deadline, and FAILED unless the reply's status line reads 200."""
    reply = status_line + b"\r\n" + b"".join(header + b"\r\n" for header in headers) + b"\r\n" + body
    with _loopback_server(reply) as url:
        start = time.monotonic()
        candidate = RemoteResolver(url, deadline=0.5).resolve(CHUNK)
        assert time.monotonic() - start < 1.5
    # the fields http.client reads from the first line; it skips a 100 reply and reads the next one
    fields = reply.split(b"\n", 1)[0].decode("iso-8859-1").split(None, 2)
    if len(fields) < 2 or fields[1] not in ("200", "100"):
        assert candidate.status is Status.FAILED


@pytest.mark.parametrize(
    "path, headers", [("/nope", {}), ("/v1/resolve", {"Content-Length": "-1"}), ("/v1/resolve", {"Content-Length": "x"})]
)
def test_stub_server_ends_a_connection_whose_request_body_it_left_unread(echo_server, path, headers):
    """On a kept-alive connection, a body the stub did not read would be read as the next request."""
    connection = http.client.HTTPConnection(*echo_server.server_address, timeout=5)
    try:
        connection.request("POST", path, json.dumps({"v1": ["smuggled"], "v2": []}), headers)
        reply = connection.getresponse()
        reply.read()
        assert reply.status in (400, 404)
        connection.request("POST", "/v1/resolve", json.dumps({"v1": ["a"], "v2": []}))
        reply = connection.getresponse()
        assert (reply.status, json.loads(reply.read())["lines"]) == (200, ["a"])
    finally:
        connection.close()


def test_a_stopped_stub_answers_nothing_on_a_kept_alive_connection():
    server = StubServer(mode="echo-v1", port=0).start()
    try:
        resolver = RemoteResolver(server.url, deadline=2.0)
        assert resolver.resolve(CHUNK).status is Status.OK
        assert len(resolver._idle) == 1
    finally:
        server.stop()
    assert resolver.resolve(CHUNK).status is Status.FAILED


def test_stop_returns_on_a_stub_never_started_and_closes_its_socket():
    """shutdown() waits for a serve_forever() that only start() runs; stop() runs in a
    thread so that a hung stop() fails the test rather than hanging the suite."""
    server = StubServer(mode="echo-v1", port=0)
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive(), "stop() hung"
    assert server.socket.fileno() == -1


def test_sequential_requests_share_one_connection():
    server = StubServer(mode="echo-v1", port=0)
    accepted = []
    process_request = server.process_request

    def count(request, client_address):
        accepted.append(client_address)
        process_request(request, client_address)

    server.process_request = count
    server.start()
    try:
        resolver = RemoteResolver(server.url)
        assert [resolver.resolve(CHUNK).status for _ in range(20)] == [Status.OK] * 20
    finally:
        server.stop()
    assert len(accepted) == 1


def test_threads_sharing_a_pool_each_get_their_own_replies():
    """A connection taken by two threads at once would cross their replies."""
    server = StubServer(mode="echo-v1", port=0)
    accepted = []
    process_request = server.process_request

    def count(request, client_address):
        accepted.append(client_address)
        process_request(request, client_address)

    server.process_request = count
    server.start()
    resolver = RemoteResolver(server.url, deadline=5.0)
    crossed = []

    def call(k):
        chunk = Chunk([f"thread {k}"], [])
        for _ in range(25):
            candidate = resolver.resolve(chunk)
            if (candidate.status, candidate.lines) != (Status.OK, (f"thread {k}",)):
                crossed.append((k, candidate))

    threads = [threading.Thread(target=call, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
        server.stop()
    assert not any(t.is_alive() for t in threads)
    assert crossed == []
    assert len(accepted) <= len(threads) and len(resolver._idle) <= len(threads)


def test_a_kept_alive_connection_the_server_closed_is_retried_once():
    """The loopback server closes each connection after its reply, which the
    client sees before it reuses the connection."""
    with _loopback_server(_reply(_BODY, b"HTTP/1.1 200 OK"), connections=2) as url:
        remote = RemoteResolver(url, deadline=5.0)
        first = remote.resolve(CHUNK)
        assert len(remote._idle) == 1
        second = remote.resolve(CHUNK)
        del remote  # closes the second connection, which the server waits on
    assert (first.status, first.lines, second.status, second.lines) == (Status.OK, ("a",), Status.OK, ("a",))


def test_a_close_that_arrives_after_the_idle_check_is_retried_once(monkeypatch):
    """The check before reuse cannot see a close still on its way; that request
    finds it before any reply byte and is retried once on a new connection."""
    checked = []
    monkeypatch.setattr("sbcr.resolvers._waiting", lambda sock: checked.append(sock))  # sees nothing waiting
    test_a_kept_alive_connection_the_server_closed_is_retried_once()
    assert len(checked) == 1  # the second request checked its connection, so the retry is what caught the close


def test_a_kept_alive_connection_with_stray_bytes_waiting_is_not_reused():
    """Bytes a server sent after the reply's Content-Length used to be read as
    the start of the next reply on that connection, which failed it."""
    with _loopback_server(_reply(_BODY, b"HTTP/1.1 200 OK"), connections=2, stray=b"junk") as url:
        remote = RemoteResolver(url, deadline=5.0)
        first = remote.resolve(CHUNK)
        assert len(remote._idle) == 1
        time.sleep(0.3)  # the stray bytes arrive 50 ms after the reply
        second = remote.resolve(CHUNK)
        del remote  # closes the second connection, which the server waits on
    assert (first.status, second.status, second.detail, second.lines) == (Status.OK, Status.OK, "", ("a",))


@pytest.mark.parametrize(
    "reply, status",
    [
        (_reply(_BODY), Status.OK),
        (_reply(_BODY, b"HTTP/1.1 200 OK\r\nConnection: close"), Status.OK),
        (_reply(_BODY.ljust(100), b"HTTP/1.1 200 OK")[: -100 + len(_BODY)], Status.FAILED),
        (_reply(_BODY.ljust(MAX_BODY_BYTES + 4096), b"HTTP/1.1 200 OK"), Status.FAILED),
    ],
    ids=["http-1.0", "connection-close", "shorter-than-declared", "over-the-cap"],
)
def test_a_connection_is_kept_only_after_a_whole_kept_alive_reply(reply, status):
    with _loopback_server(reply) as url:
        remote = RemoteResolver(url, deadline=5.0)
        assert remote.resolve(CHUNK).status is status
        assert remote._idle == []


def test_a_large_request_on_a_reused_connection_does_not_stall(echo_server):
    """A request or reply written as a head and then a body over one TCP segment
    waited on the peer's delayed ACK (40 ms on Linux) unless Nagle is off."""
    chunk = Chunk(v1_lines=["x" * 100] * 40, v2_lines=[])  # over 4 kB each way
    resolver = RemoteResolver(echo_server.url)
    assert resolver.resolve(chunk).status is Status.OK  # opens the connection the timed requests reuse
    assert resolver._idle[0].sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    start = time.monotonic()
    assert [resolver.resolve(chunk).status for _ in range(10)] == [Status.OK] * 10
    assert time.monotonic() - start < 0.2


def test_a_kept_alive_connection_above_descriptor_1023_is_reused(echo_server):
    """``select.select`` refuses a descriptor of 1024 or more, which failed the
    request that reused such a connection and leaked its socket."""
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    limit = 4096 if hard == resource.RLIM_INFINITY else min(hard, 4096)
    if limit < 1100:
        pytest.skip(f"the descriptor limit {hard} allows no descriptor above 1023")
    resource.setrlimit(resource.RLIMIT_NOFILE, (max(soft, limit), hard))
    opened = []
    try:
        while not opened or opened[-1] < 1030:  # each open takes the lowest free descriptor
            opened.append(os.open(os.devnull, os.O_RDONLY))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolver = RemoteResolver(echo_server.url)
            statuses = [resolver.resolve(CHUNK).status for _ in range(3)]
            del resolver
            gc.collect()
    finally:
        for fd in opened:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    assert statuses == [Status.OK] * 3
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_a_dropped_resolver_closes_its_kept_alive_connections(echo_server):
    records, _ = load_records(bundled_sample_path())
    resolver = RemoteResolver(echo_server.url)
    rows = run_benchmark(records, resolver, jobs=4)
    assert Status.FAILED.value not in {row.status for row in rows} and resolver._idle
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del resolver
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
