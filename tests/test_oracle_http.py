"""HTTP chat oracle against a local stand-in server."""
import http.server
import json
import logging
import threading
from types import SimpleNamespace

import pytest

from namecountry.enrichment import (
    AugmentBudget,
    HttpChatOracle,
    HttpOracleConfig,
    OracleTransportError,
    _strip_list_marker,
    collect_synthetic,
    render_prompt,
)


def chat_payload(content):
    return {"choices": [{"message": {"content": content}}]}


@pytest.fixture
def oracle_server():
    responses = []  # queue of (status, payload dict or raw bytes)
    requests = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length)
            requests.append({
                "json": json.loads(body),
                "auth": self.headers.get("Authorization"),
            })
            if responses:
                status, payload = responses.pop(0)
            else:
                status, payload = 200, chat_payload("ok")
            data = (payload if isinstance(payload, bytes)
                    else json.dumps(payload).encode("utf-8"))
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    # A short poll interval keeps shutdown() from adding 0.5 s per test.
    thread = threading.Thread(target=server.serve_forever, daemon=True,
                              kwargs={"poll_interval": 0.01})
    thread.start()
    yield SimpleNamespace(
        url=f"http://127.0.0.1:{server.server_address[1]}/v1/chat",
        responses=responses, requests=requests)
    server.shutdown()
    server.server_close()


def make_oracle(server, **overrides):
    config = HttpOracleConfig(endpoint=server.url, model="test-model",
                              backoff_seconds=0.0, timeout_seconds=5.0,
                              **overrides)
    return HttpChatOracle(config)


def test_generate_sends_prompt_and_parses_lines(oracle_server):
    oracle_server.responses.append(
        (200, chat_payload("1. Anh Tran\n2. Binh Le\n- Chi Vo\n\n* Duc Pham")))
    oracle = make_oracle(oracle_server)
    names = oracle.generate("vietnam", 4)
    assert names == ["Anh Tran", "Binh Le", "Chi Vo", "Duc Pham"]

    sent = oracle_server.requests[0]["json"]
    assert sent["model"] == "test-model"
    assert sent["temperature"] == 0
    assert sent["messages"] == [{"role": "user",
                                 "content": render_prompt("vietnam", 4)}]


def test_generate_truncates_to_n(oracle_server):
    oracle_server.responses.append(
        (200, chat_payload("A One\nB Two\nC Three")))
    assert len(make_oracle(oracle_server).generate("x", 2)) == 2


def test_no_auth_header_without_api_key(oracle_server, monkeypatch):
    monkeypatch.delenv("NAMECOUNTRY_API_KEY", raising=False)
    make_oracle(oracle_server).generate("x", 1)
    assert oracle_server.requests[0]["auth"] is None


def test_bearer_header_with_api_key(oracle_server, monkeypatch):
    monkeypatch.setenv("NAMECOUNTRY_API_KEY", "sekrit")
    make_oracle(oracle_server).generate("x", 1)
    assert oracle_server.requests[0]["auth"] == "Bearer sekrit"


def test_judge_parses_yes_no(oracle_server):
    oracle_server.responses.append((200, chat_payload("Yes, quite plausible.")))
    oracle_server.responses.append((200, chat_payload("No.")))
    oracle = make_oracle(oracle_server)
    assert oracle.judge("Anh Tran", "vietnam") is True
    assert oracle.judge("Qwyx Wyxq", "vietnam") is False
    prompt = oracle_server.requests[0]["json"]["messages"][0]["content"]
    assert "Anh Tran" in prompt and "vietnam" in prompt


def test_retries_transient_server_error(oracle_server):
    oracle_server.responses.append((500, {"error": "boom"}))
    oracle_server.responses.append((200, chat_payload("A One")))
    oracle = make_oracle(oracle_server, max_retries=2)
    assert oracle.generate("x", 1) == ["A One"]
    assert oracle.calls == 2


def test_retries_malformed_body(oracle_server):
    oracle_server.responses.append((200, b"{not json"))
    oracle_server.responses.append((200, {"choices": []}))  # missing content
    oracle_server.responses.append((200, chat_payload("A One")))
    oracle = make_oracle(oracle_server, max_retries=3)
    assert oracle.generate("x", 1) == ["A One"]
    assert oracle.calls == 3


def test_raises_after_retry_exhaustion(oracle_server, caplog):
    for _ in range(3):
        oracle_server.responses.append((500, {"error": "down"}))
    oracle = make_oracle(oracle_server, max_retries=2)
    with caplog.at_level(logging.WARNING, logger="namecountry.enrichment"):
        with pytest.raises(OracleTransportError,
                           match="failed after 2 retries"):
            oracle.generate("x", 1)
    assert oracle.calls == 3  # initial try + 2 retries
    # Each failed attempt that is retried is logged out of all 3 attempts.
    assert [r.getMessage().split(":")[0] for r in caplog.records] == [
        "oracle request failed (attempt 1/3)",
        "oracle request failed (attempt 2/3)"]


@pytest.mark.parametrize("call", [
    lambda oracle: oracle.generate("x", 1),
    lambda oracle: oracle.judge("A One", "x")], ids=["generate", "judge"])
@pytest.mark.parametrize("reply", [
    {"choices": "x"}, chat_payload(5), chat_payload(None), [1]],
    ids=["choices_string", "content_int", "content_null", "array"])
def test_malformed_reply_is_retried_then_raises(oracle_server, reply, call):
    for _ in range(3):
        oracle_server.responses.append((200, reply))
    oracle = make_oracle(oracle_server, max_retries=2)
    with pytest.raises(OracleTransportError):
        call(oracle)
    assert oracle.calls == 3


def test_collect_against_down_oracle_sends_one_retry_loop(oracle_server):
    # The oracle's loop is the only retry policy: a country whose first
    # chunk fails costs max_retries + 1 requests, then the next country runs.
    for _ in range(3):
        oracle_server.responses.append((500, {"error": "down"}))
    oracle_server.responses.append((200, chat_payload("Ana Silva")))
    oracle = make_oracle(oracle_server, max_retries=2)
    out = collect_synthetic([AugmentBudget("brazil", 5),
                             AugmentBudget("chile", 1)], oracle,
                            taken=set(), chunk_size=5)
    assert list(out["brazil"]) == []
    assert [r.full_name for r in out["chile"]] == ["Ana Silva"]
    assert oracle.calls == len(oracle_server.requests) == 4


@pytest.mark.parametrize("field, value", [
    ("max_retries", -1), ("timeout_seconds", 0), ("timeout_seconds", -2.5)])
def test_config_rejects_negative_retries_and_non_positive_timeout(field,
                                                                  value):
    with pytest.raises(ValueError, match=f"oracle.http.{field} must be"):
        HttpOracleConfig(endpoint="http://127.0.0.1:9/v1", model="m",
                         **{field: value})
    # The boundaries that stay allowed: no retries and no backoff.
    HttpOracleConfig(endpoint="http://127.0.0.1:9/v1", model="m",
                     max_retries=0, backoff_seconds=0.0)


def test_strip_list_marker():
    assert _strip_list_marker("- Anh Tran") == "Anh Tran"
    assert _strip_list_marker("* Anh Tran") == "Anh Tran"
    assert _strip_list_marker("12. Anh Tran") == "Anh Tran"
    assert _strip_list_marker("3) Anh Tran") == "Anh Tran"
    assert _strip_list_marker("  Anh Tran  ") == "Anh Tran"
    assert _strip_list_marker("St. John Smith") == "St. John Smith"
