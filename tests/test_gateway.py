"""Gateway tests: scripted backends, and wire clients with their retry policy.

Wire clients POST over real sockets to the loopback endpoint of conftest.py,
which answers with queued outcomes: a status and body, a dropped connection,
or a reply slower than the client's timeout.
"""

import json
import socket
import threading
import time

import pytest
import requests
from urllib3.exceptions import NewConnectionError, ProtocolError

from conftest import DROP, completion

from qnav.gateway import (
    ChatRequest,
    GatewayAuthError,
    GatewayProtocolError,
    GatewayRetryError,
    GatewayTransientError,
    OpenAIChatBackend,
    PrmWireConfig,
    ScriptedChatBackend,
    ScriptedPrm,
    ScriptedRule,
    UnmatchedPromptError,
    Usage,
    UsageLog,
    WireConfig,
    WireEndpoint,
    WirePrm,
    score_process,
)


STALL = object()  # an outcome: reply only after the client's timeout has passed
STALL_TIMEOUT_S = 0.2


class FakeResponse:
    """A reply to queue: status_code and headers, with payload as JSON, or with text when payload is None."""

    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self.body = text if payload is None else payload
        self.headers = headers or {}


class ScriptedEndpoint:
    """Answers the loopback endpoint's POSTs with queued outcomes, in order:
    a FakeResponse, DROP (close the connection unanswered) or STALL. calls
    lists what each POST sent."""

    def __init__(self, loopback, outcomes):
        self.loopback = loopback
        self.url = loopback.url
        self.outcomes = list(outcomes)
        loopback.handler = self.answer

    def answer(self, posted):
        outcome = self.outcomes.pop(0)
        if outcome is STALL:
            time.sleep(5 * STALL_TIMEOUT_S)
            return 200, {}
        if outcome is DROP:
            return DROP
        return outcome.status_code, outcome.body, outcome.headers

    @property
    def calls(self):
        return [{"url": self.url + p.path, "json": p.json(), "headers": p.headers} for p in self.loopback.received]


class TestScriptedBackend:
    def test_first_matching_rule_wins(self):
        backend = ScriptedChatBackend(
            [ScriptedRule("alpha", "A"), ScriptedRule("alp", "B")]
        )
        assert backend.complete(ChatRequest("say alpha")).text == "A"

    def test_strict_unmatched_raises(self):
        backend = ScriptedChatBackend([ScriptedRule("x", "y")])
        with pytest.raises(UnmatchedPromptError):
            backend.complete(ChatRequest("nothing relevant"))

    def test_default_response_when_not_strict(self):
        backend = ScriptedChatBackend([ScriptedRule("x", "y"), ScriptedRule("", "fallback")])
        assert backend.complete(ChatRequest("anything")).text == "fallback"

    def test_sequence_responses_advance_then_repeat(self):
        backend = ScriptedChatBackend([ScriptedRule("q", ["one", "two"])])
        texts = [backend.complete(ChatRequest("q")).text for _ in range(4)]
        assert texts == ["one", "two", "two", "two"]

    def test_rule_needs_a_response(self):
        with pytest.raises(ValueError, match="response"):
            ScriptedRule("q", [])

    def test_word_count_usage_and_zero_latency(self):
        backend = ScriptedChatBackend([ScriptedRule("count", "three word reply")])
        ex = backend.complete(ChatRequest("please count these five words"))
        assert ex.usage == Usage(input_tokens=5, output_tokens=3)
        assert ex.latency_s == 0.0

    def test_call_log_records_every_exchange(self):
        backend = ScriptedChatBackend([ScriptedRule("", "ok")])
        for i in range(3):
            backend.complete(ChatRequest(f"prompt {i}"))
        assert [e.request.prompt for e in backend.call_log] == [
            "prompt 0",
            "prompt 1",
            "prompt 2",
        ]

    def test_runs_one_call_at_a_time(self):
        # response sequences and fail_times are consumed in call order
        assert ScriptedChatBackend().max_in_flight == 1

    def test_fail_times_injects_transient_failures(self):
        backend = ScriptedChatBackend([ScriptedRule("x", "done", fail_times=2)])
        with pytest.raises(GatewayTransientError):
            backend.complete(ChatRequest("x"))
        with pytest.raises(GatewayTransientError):
            backend.complete(ChatRequest("x"))
        assert backend.complete(ChatRequest("x")).text == "done"


class TestCallWithRetries:
    """The retry loop of WireEndpoint.post, driven directly rather than through a client."""

    @pytest.fixture(autouse=True)
    def _loopback(self, loopback):
        self.loopback = loopback

    def make(self, outcomes, max_attempts, base_url=None, sleep=lambda _: None):
        server = ScriptedEndpoint(self.loopback, outcomes)
        cfg = WireConfig(base_url=base_url or server.url, model="m", max_attempts=max_attempts, backoff_base_s=0.01)
        return WireEndpoint(cfg, requests.Session(), sleep=sleep), server

    def test_budget_exhausted_raises_retry_error(self):
        endpoint, server = self.make([DROP] * 3, max_attempts=3)
        with pytest.raises(GatewayRetryError) as err:
            endpoint.post("/x", {})
        assert len(server.calls) == 3
        assert isinstance(err.value.__cause__, GatewayTransientError)
        assert isinstance(err.value.__cause__.__cause__, ProtocolError)

    def test_refused_connection_is_transient(self, dead_url):
        delays = []
        endpoint, _ = self.make([], max_attempts=3, base_url=dead_url, sleep=delays.append)
        with pytest.raises(GatewayRetryError) as err:
            endpoint.post("/x", {})
        assert delays == [0.01, 0.02]  # three POSTs, each refused
        assert isinstance(err.value.__cause__.__cause__, NewConnectionError)

    def test_non_transient_errors_pass_through(self):
        for status, error in [(401, GatewayAuthError), (403, GatewayAuthError), (418, GatewayProtocolError)]:
            self.loopback.received.clear()
            endpoint, server = self.make([FakeResponse(status, text="no")] * 5, max_attempts=5)
            with pytest.raises(error):
                endpoint.post("/x", {})
            assert len(server.calls) == 1

    @pytest.mark.parametrize("base_url", [
        "unit.test/v1", "localhost:9/v1", "http:///v1", "http://", "htp://x/v1", "nope", "http://x:abc/v1",
        "http://x:99999/v1",
    ], ids=["no-scheme", "host-as-scheme", "no-host", "scheme-only", "misspelt-scheme", "bare-word",
            "port-not-a-number", "port-out-of-range"])
    def test_unparseable_url_fails_at_construction(self, base_url):
        # The config rejects it, so no endpoint is ever built from it.
        for make_cfg in (lambda: WireConfig(base_url=base_url, model="m"), lambda: PrmWireConfig(base_url=base_url)):
            with pytest.raises(ValueError, match="base_url must be an http:// or https:// URL with a host"):
                make_cfg()


class WireTransportCases:
    """Transport behaviour both wire clients share; a subclass supplies the client.

    make(outcomes, **cfg) -> (client, server); ok(value) is a 200 response
    the client reads as value; call(client) returns what the client read.
    """

    @pytest.fixture(autouse=True)
    def _loopback(self, loopback):
        self.loopback = loopback

    def test_no_auth_header_when_env_unset(self, monkeypatch):
        monkeypatch.delenv("QNAV_API_KEY", raising=False)
        client, server = self.make([self.ok(0.5)])
        self.call(client)
        assert "Authorization" not in server.calls[0]["headers"]

    def test_bearer_header_from_named_env_var(self, monkeypatch):
        monkeypatch.setenv("OTHER_KEY", "sk-test")
        client, server = self.make([self.ok(0.5)], api_key_env="OTHER_KEY")
        self.call(client)
        assert server.calls[0]["headers"]["Authorization"] == "Bearer sk-test"

    def test_auth_failure_is_not_retried(self):
        client, server = self.make([FakeResponse(401, text="denied")])
        with pytest.raises(GatewayAuthError):
            self.call(client)
        assert len(server.calls) == 1

    def test_rate_limit_then_success_retries(self):
        client, server = self.make([FakeResponse(429), self.ok(0.25)])
        assert self.call(client) == 0.25
        assert len(server.calls) == 2

    def test_succeeds_after_transient_failures(self):
        delays = []
        client, server = self.make([FakeResponse(503), DROP, self.ok(0.5)],
                                    sleep=delays.append)
        assert self.call(client) == 0.5
        assert len(server.calls) == 3
        assert delays == [0.5, 1.0]  # backoff_base_s, then twice that

    def test_server_errors_exhaust_budget(self):
        client, server = self.make([FakeResponse(500)] * 3)
        with pytest.raises(GatewayRetryError) as err:
            self.call(client)
        assert len(server.calls) == 3
        assert isinstance(err.value.__cause__, GatewayTransientError)
        assert str(err.value.__cause__) == "HTTP 500"

    def test_backoff_doubles_per_retry(self):
        delays = []
        client, _ = self.make([FakeResponse(503)] * 3, backoff_base_s=0.2, sleep=delays.append)
        with pytest.raises(GatewayRetryError):
            self.call(client)
        assert delays == [0.2, 0.4]

    def test_timeouts_count_as_transient(self):
        client, server = self.make([STALL, self.ok(0.75)], timeout_s=STALL_TIMEOUT_S)
        assert self.call(client) == 0.75
        assert len(server.calls) == 2

    def test_redirect_is_not_followed(self):
        client, server = self.make([FakeResponse(302, text="moved", headers={"Location": "/elsewhere"})])
        with pytest.raises(GatewayProtocolError, match="HTTP 302.*/elsewhere"):
            self.call(client)
        assert len(server.calls) == 1

    def test_unexpected_status_is_protocol_error(self):
        client, server = self.make([FakeResponse(418, text="teapot")])
        with pytest.raises(GatewayProtocolError):
            self.call(client)
        assert len(server.calls) == 1

    def test_non_json_body_is_protocol_error(self):
        client, server = self.make([FakeResponse(200, None, text="<html>")])
        with pytest.raises(GatewayProtocolError):
            self.call(client)
        assert len(server.calls) == 1


class TestOpenAIChatBackend(WireTransportCases):
    def make(self, outcomes, sleep=lambda _: None, **cfg_overrides):
        server = ScriptedEndpoint(self.loopback, outcomes)
        cfg = WireConfig(base_url=server.url + "/v1", model="m", **cfg_overrides)
        return OpenAIChatBackend(cfg, session=requests.Session(), sleep=sleep), server

    def ok(self, value):
        return FakeResponse(200, completion(str(value)))

    def call(self, backend):
        return float(backend.complete(ChatRequest("hi")).text)

    def test_in_flight_cap_comes_from_config(self):
        backend, _ = self.make([], max_in_flight=3)
        assert backend.max_in_flight == 3

    @pytest.mark.parametrize("url", ["http://unit.test/v1", "https://unit.test/v1"])
    def test_own_session_pools_a_connection_per_slot(self, url):
        backend = OpenAIChatBackend(WireConfig(base_url=url, model="m", max_in_flight=12))
        adapter = backend._endpoint.session.get_adapter(url)
        assert adapter.poolmanager.connection_pool_kw["maxsize"] == 12
        assert backend._endpoint._pool.pool.maxsize == 12  # the pool its POSTs go through

    def test_callers_session_is_left_as_given(self):
        session = requests.Session()
        adapters = dict(session.adapters)
        OpenAIChatBackend(WireConfig(base_url="http://unit.test/v1", model="m", max_in_flight=12), session=session)
        assert session.adapters == adapters

    def test_parses_completion_and_usage(self):
        backend, server = self.make([FakeResponse(200, completion("out"))])
        ex = backend.complete(ChatRequest("hi", temperature=0.3, max_output_tokens=77))
        assert ex.text == "out"
        assert ex.usage == Usage(input_tokens=12, output_tokens=5)
        assert ex.attempts == 1
        call = server.calls[0]
        assert call["url"] == server.url + "/v1/chat/completions"
        assert call["json"]["messages"] == [{"role": "user", "content": "hi"}]
        assert call["json"]["temperature"] == 0.3
        assert call["json"]["max_tokens"] == 77
        assert call["json"]["model"] == "m"

    def test_exchange_counts_attempts(self):
        backend, _ = self.make([FakeResponse(429), FakeResponse(200, completion("later"))])
        ex = backend.complete(ChatRequest("hi"))
        assert ex.text == "later"
        assert ex.attempts == 2

    def test_malformed_payload_is_protocol_error(self):
        backend, _ = self.make([FakeResponse(200, {"choices": []})])
        with pytest.raises(GatewayProtocolError):
            backend.complete(ChatRequest("hi"))

    @pytest.mark.parametrize("usage", [
        {"prompt_tokens": "x"},
        ["a"],
        {"completion_tokens": [5]},
        {"prompt_tokens": "12"},
        {"completion_tokens": True},
        {"prompt_tokens": 2.5},
    ], ids=["non-numeric", "list", "list-count", "numeric-string", "boolean", "fraction"])
    def test_malformed_usage_block_is_protocol_error(self, usage):
        payload = {"choices": [{"message": {"content": "x"}}], "usage": usage}
        backend, _ = self.make([FakeResponse(200, payload)])
        with pytest.raises(GatewayProtocolError):
            backend.complete(ChatRequest("hi"))

    def test_missing_usage_block_defaults_to_zero(self):
        payload = {"choices": [{"message": {"content": "x"}}]}
        backend, _ = self.make([FakeResponse(200, payload)])
        assert backend.complete(ChatRequest("hi")).usage == Usage(0, 0)


class TestWirePrmTransport(WireTransportCases):
    def make(self, outcomes, sleep=lambda _: None, **cfg_overrides):
        server = ScriptedEndpoint(self.loopback, outcomes)
        cfg = PrmWireConfig(base_url=server.url, **cfg_overrides)
        return WirePrm(cfg, session=requests.Session(), sleep=sleep), server

    def ok(self, value):
        return FakeResponse(200, {"score": value})

    def call(self, prm):
        return prm.score("p", "r")


@pytest.mark.parametrize("make_cfg", [
    lambda **kw: WireConfig(base_url="http://unit.test", model="m", **kw),
    lambda **kw: PrmWireConfig(base_url="http://unit.test", **kw),
], ids=["chat", "prm"])
@pytest.mark.parametrize("bad", [
    {"max_attempts": 0},
    {"timeout_s": 0.0},
    {"timeout_s": -1.0},
    {"backoff_base_s": -0.1},
])
def test_wire_configs_reject_unusable_retry_policy(make_cfg, bad):
    with pytest.raises(ValueError):
        make_cfg(**bad)


def test_wire_config_rejects_zero_in_flight_slots():
    with pytest.raises(ValueError, match="max_in_flight"):
        WireConfig(base_url="http://unit.test", model="m", max_in_flight=0)


class TestPrm:
    @pytest.fixture(autouse=True)
    def _loopback(self, loopback):
        self.loopback = loopback

    def wire_prm(self, outcomes, **cfg):
        server = ScriptedEndpoint(self.loopback, outcomes)
        prm = WirePrm(PrmWireConfig(base_url=server.url, **cfg), session=requests.Session(), sleep=lambda _: None)
        return prm, server
    def test_scripted_rules_match_reasoning(self):
        prm = ScriptedPrm([("sum is 7", 0.9), ("wrong", 0.1)], default=0.4)
        assert prm.score("p", "Step 1: the sum is 7") == 0.9
        assert prm.score("p", "Step 1: wrong turn") == 0.1
        assert prm.score("p", "Step 1: nothing known") == 0.4

    def test_score_process_clamps_high(self, caplog):
        prm = ScriptedPrm(default=1.3)
        with caplog.at_level("WARNING"):
            assert score_process(prm, "p", "r") == 1.0
        assert any("clamp" in r.message for r in caplog.records)

    def test_score_process_clamps_low(self):
        assert score_process(ScriptedPrm(default=-0.2), "p", "r") == 0.0

    def test_score_process_passes_through_in_range(self):
        assert score_process(ScriptedPrm(default=0.765), "p", "r") == 0.765

    def test_wire_prm_parses_score(self):
        prm, server = self.wire_prm([FakeResponse(200, {"score": 0.85})])
        assert prm.score("prob", "reasoning") == 0.85
        call = server.calls[0]
        assert call["url"] == server.url + "/score"
        assert call["json"] == {"problem": "prob", "reasoning": "reasoning"}

    def test_wire_prm_retries_then_gives_up(self):
        prm, server = self.wire_prm([FakeResponse(503), FakeResponse(503)], max_attempts=2)
        with pytest.raises(GatewayRetryError):
            prm.score("p", "r")
        assert len(server.calls) == 2

    def test_wire_prm_malformed_payload(self):
        prm, _ = self.wire_prm([FakeResponse(200, {"value": 1})])
        with pytest.raises(GatewayProtocolError):
            prm.score("p", "r")

    @pytest.mark.parametrize("score", [True, "0.5", None, [0.5]], ids=["boolean", "string", "null", "list"])
    def test_wire_prm_score_must_be_a_number(self, score):
        prm, _ = self.wire_prm([FakeResponse(200, {"score": score})])
        with pytest.raises(GatewayProtocolError):
            prm.score("p", "r")

    @pytest.mark.parametrize("score", [1, 0.25])
    def test_wire_prm_takes_integer_and_float_scores(self, score):
        prm, _ = self.wire_prm([FakeResponse(200, {"score": score})])
        assert prm.score("p", "r") == score


class TestUsageLog:
    def exchange(self, n_in, n_out):
        return ScriptedChatBackend(
            [ScriptedRule("", " ".join(["w"] * n_out))]
        ).complete(ChatRequest(" ".join(["p"] * n_in)))

    def test_totals_accumulate(self):
        logbook = UsageLog()
        assert logbook.totals() == Usage(0, 0)
        logbook.record(self.exchange(3, 2))
        logbook.record(self.exchange(5, 1))
        logbook.record(self.exchange(2, 2))
        assert logbook.calls == 3
        assert logbook.totals() == Usage(input_tokens=10, output_tokens=5)

    def test_concurrent_records_sum_exactly(self):
        logbook = UsageLog()
        ex = self.exchange(1, 1)

        def worker():
            for _ in range(200):
                logbook.record(ex)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert logbook.calls == 1600
        assert logbook.totals() == Usage(input_tokens=1600, output_tokens=1600)


class TestOnTheWire:
    """What the wire clients send and how they connect, seen by a loopback endpoint."""

    CHAT_REPLY = (200, completion("ok"))

    def test_sequential_calls_share_one_connection(self, loopback):
        loopback.handler = lambda posted: self.CHAT_REPLY
        backend = OpenAIChatBackend(WireConfig(base_url=loopback.url + "/v1", model="m"))
        for i in range(20):
            assert backend.complete(ChatRequest(f"q{i}")).text == "ok"
        assert len(loopback.received) == 20
        assert loopback.connections == 1

    @pytest.mark.parametrize("key", [None, "sk-wire"], ids=["no-key", "key"])
    def test_request_line_body_and_header_names(self, loopback, monkeypatch, key):
        if key is None:
            monkeypatch.delenv("QNAV_API_KEY", raising=False)
        else:
            monkeypatch.setenv("QNAV_API_KEY", key)
        loopback.handler = lambda posted: self.CHAT_REPLY if posted.path.endswith("/completions") else (
            200, {"score": 0.5})
        session = requests.Session()
        OpenAIChatBackend(WireConfig(base_url=loopback.url + "/v1/", model="m"), session=session).complete(
            ChatRequest("What is 3 + 4?", temperature=0.25, max_output_tokens=64))
        WirePrm(PrmWireConfig(base_url=loopback.url), session=session).score("What is 3 + 4?", "Step 1: 7")
        chat, prm = loopback.received
        assert chat.request_line == "POST /v1/chat/completions HTTP/1.1"
        assert chat.body == json.dumps({
            "model": "m", "messages": [{"role": "user", "content": "What is 3 + 4?"}],
            "temperature": 0.25, "max_tokens": 64,
        }).encode()
        assert prm.request_line == "POST /score HTTP/1.1"
        assert prm.body == json.dumps({"problem": "What is 3 + 4?", "reasoning": "Step 1: 7"}).encode()
        names = {"Host", "User-Agent", "Accept-Encoding", "Accept", "Connection", "Content-Type", "Content-Length"}
        if key is not None:
            names.add("Authorization")
        for posted in (chat, prm):
            assert sorted(posted.headers.keys()) == sorted(names)
            assert posted.headers["Host"] == f"127.0.0.1:{loopback.port}"
            assert posted.headers["Content-Type"] == "application/json"
            assert posted.headers["Content-Length"] == str(len(posted.body))
            for name in ("User-Agent", "Accept-Encoding", "Accept", "Connection"):
                assert posted.headers[name] == session.headers[name]
            if key is not None:
                assert posted.headers["Authorization"] == "Bearer sk-wire"


class TestProxyAndRedirect:
    """Routing follows the proxy variables as requests reads them; a redirect is not followed."""

    HOST = "qnav-proxy-test.invalid"

    @pytest.fixture
    def no_dns(self, monkeypatch):
        """Hosts the client tried to resolve itself; none is looked up for real."""
        asked = []
        real = socket.getaddrinfo

        def getaddrinfo(host, *args, **kwargs):
            if host == self.HOST:
                asked.append(host)
                raise socket.gaierror(socket.EAI_NONAME, "not resolved in tests")
            return real(host, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
        for name in ("HTTP_PROXY", "http_proxy", "NO_PROXY", "no_proxy", "ALL_PROXY", "all_proxy"):
            monkeypatch.delenv(name, raising=False)
        return asked

    def chat(self, **cfg):
        return OpenAIChatBackend(WireConfig(base_url=f"http://{self.HOST}/v1", model="m", **cfg))

    def test_http_proxy_gets_the_absolute_url(self, loopback, monkeypatch, no_dns):
        monkeypatch.setenv("HTTP_PROXY", loopback.url)
        loopback.handler = lambda posted: (200, completion("proxied"))
        assert self.chat().complete(ChatRequest("hi")).text == "proxied"
        (posted,) = loopback.received
        assert posted.request_line == f"POST http://{self.HOST}/v1/chat/completions HTTP/1.1"
        assert posted.headers["Host"] == self.HOST
        assert no_dns == []

    def test_no_proxy_host_is_reached_directly(self, loopback, monkeypatch, no_dns):
        monkeypatch.setenv("HTTP_PROXY", loopback.url)
        monkeypatch.setenv("NO_PROXY", self.HOST)
        with pytest.raises(GatewayRetryError) as err:
            self.chat(max_attempts=1).complete(ChatRequest("hi"))
        assert isinstance(err.value.__cause__, GatewayTransientError)
        assert loopback.received == []
        assert no_dns == [self.HOST]

    def test_proxy_variables_are_read_once_per_endpoint(self, loopback, monkeypatch, no_dns):
        monkeypatch.setenv("HTTP_PROXY", loopback.url)
        loopback.handler = lambda posted: (200, completion("proxied"))
        backend = self.chat()
        monkeypatch.delenv("HTTP_PROXY")
        assert backend.complete(ChatRequest("hi")).text == "proxied"
        assert loopback.paths() == [f"http://{self.HOST}/v1/chat/completions"]

    def test_netrc_is_not_read(self, loopback, monkeypatch, tmp_path):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login user password secret\n")
        monkeypatch.setenv("NETRC", str(netrc))
        monkeypatch.delenv("QNAV_API_KEY", raising=False)
        loopback.handler = lambda posted: (200, {"score": 0.5})
        WirePrm(PrmWireConfig(base_url=loopback.url), session=requests.Session()).score("p", "r")
        assert "Authorization" not in loopback.received[0].headers
