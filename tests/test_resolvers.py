import http.client
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from conftest import Chunk
from hypothesis import example, given
from hypothesis import strategies as st

from sbcr.resolvers import (
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
    _post_json,
)
from sbcr.router import FALLBACK_RESOLVER_ID, RouteThresholds, hybrid_resolve
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


def test_search_resolver_total_on_bad_chunk():
    candidate = SearchResolver(SearchParams(max_evaluations=10)).resolve(Chunk([], []))
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
    resolver = RemoteResolver(echo_server.url, max_inflight=2)
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
    assert requests.post(f"{echo_server.url}/v1/resolve", data=b"{", timeout=5).status_code == 400
    stats = requests.get(f"{echo_server.url}/stats", timeout=5).json()
    assert stats["mode"] == "echo-v1" and stats["calls"] >= 1


def test_import_does_not_load_requests():
    import sbcr

    src = str(Path(sbcr.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sbcr, sys; assert 'requests' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


@pytest.mark.parametrize("body", [b"[1, 2]", b"null"])
def test_remote_error_reply_with_non_object_json_fails_cleanly(monkeypatch, body):
    monkeypatch.setattr("sbcr.resolvers._post_json", lambda url, payload, timeout: (500, body))
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
    lone = resolve_with((200, b'{"lines": ["\\ud800"]}'))
    assert lone.status is Status.FAILED and lone.detail.startswith("bad response body: 'utf-8' codec can't encode")
    deep = resolve_with((200, DEEP_JSON))
    assert deep.status is Status.FAILED and deep.detail.startswith("bad response body: maximum recursion depth")


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
        code, body = _post_json(f"{server.url}/v1/resolve", {"v1": 5, "v2": []}, 5.0)
    finally:
        server.stop()
    assert code == 400
    assert json.loads(body)["error"].startswith("bad request: ")
