import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from conftest import Chunk

from sbcr.resolvers import (
    RemoteResolver,
    SearchResolver,
    Status,
    StubGenerativeResolver,
    TokenLimits,
    TrivialResolver,
    TrivialStrategy,
    estimate_tokens,
    truncate_to_tokens,
)
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
