"""Gateway tests: scripted backends, and wire clients with their retry policy.

Wire clients are exercised against a fake requests session; no sockets.
"""

import threading

import pytest
import requests

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


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class FakeSession:
    """Stands in for requests.Session; replays queued responses/exceptions."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def completion_payload(text="hello", prompt_tokens=12, completion_tokens=5):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


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

    def make(self, outcomes, max_attempts):
        session = FakeSession(outcomes)
        cfg = WireConfig(base_url="http://unit.test", model="m", max_attempts=max_attempts, backoff_base_s=0.01)
        return WireEndpoint(cfg, session, sleep=lambda _: None), session

    def test_budget_exhausted_raises_retry_error(self):
        endpoint, session = self.make([requests.ConnectionError("always down")] * 3, max_attempts=3)
        with pytest.raises(GatewayRetryError) as err:
            endpoint.post("/x", {})
        assert len(session.calls) == 3
        assert isinstance(err.value.__cause__, GatewayTransientError)
        assert isinstance(err.value.__cause__.__cause__, requests.ConnectionError)

    def test_non_transient_errors_pass_through(self):
        for status, error in [(401, GatewayAuthError), (403, GatewayAuthError), (418, GatewayProtocolError)]:
            endpoint, session = self.make([FakeResponse(status, text="no")] * 5, max_attempts=5)
            with pytest.raises(error):
                endpoint.post("/x", {})
            assert len(session.calls) == 1


class WireTransportCases:
    """Transport behaviour both wire clients share; a subclass supplies the client.

    make(outcomes, **cfg) -> (client, session); ok(value) is a 200 response
    the client reads as value; call(client) returns what the client read.
    """

    def test_no_auth_header_when_env_unset(self, monkeypatch):
        monkeypatch.delenv("QNAV_API_KEY", raising=False)
        client, session = self.make([self.ok(0.5)])
        self.call(client)
        assert "Authorization" not in session.calls[0]["headers"]

    def test_bearer_header_from_named_env_var(self, monkeypatch):
        monkeypatch.setenv("OTHER_KEY", "sk-test")
        client, session = self.make([self.ok(0.5)], api_key_env="OTHER_KEY")
        self.call(client)
        assert session.calls[0]["headers"]["Authorization"] == "Bearer sk-test"

    def test_auth_failure_is_not_retried(self):
        client, session = self.make([FakeResponse(401, text="denied")])
        with pytest.raises(GatewayAuthError):
            self.call(client)
        assert len(session.calls) == 1

    def test_rate_limit_then_success_retries(self):
        client, session = self.make([FakeResponse(429), self.ok(0.25)])
        assert self.call(client) == 0.25
        assert len(session.calls) == 2

    def test_succeeds_after_transient_failures(self):
        delays = []
        client, session = self.make([FakeResponse(503), requests.ConnectionError("reset"), self.ok(0.5)],
                                    sleep=delays.append)
        assert self.call(client) == 0.5
        assert len(session.calls) == 3
        assert delays == [0.5, 1.0]  # backoff_base_s, then twice that

    def test_server_errors_exhaust_budget(self):
        client, session = self.make([FakeResponse(500)] * 3)
        with pytest.raises(GatewayRetryError) as err:
            self.call(client)
        assert len(session.calls) == 3
        assert isinstance(err.value.__cause__, GatewayTransientError)
        assert str(err.value.__cause__) == "HTTP 500"

    def test_backoff_doubles_per_retry(self):
        delays = []
        client, _ = self.make([FakeResponse(503)] * 3, backoff_base_s=0.2, sleep=delays.append)
        with pytest.raises(GatewayRetryError):
            self.call(client)
        assert delays == [0.2, 0.4]

    def test_timeouts_count_as_transient(self):
        client, _ = self.make([requests.Timeout("slow"), self.ok(0.75)])
        assert self.call(client) == 0.75

    def test_unexpected_status_is_protocol_error(self):
        client, session = self.make([FakeResponse(418, text="teapot")])
        with pytest.raises(GatewayProtocolError):
            self.call(client)
        assert len(session.calls) == 1

    def test_non_json_body_is_protocol_error(self):
        client, session = self.make([FakeResponse(200, None, text="<html>")])
        with pytest.raises(GatewayProtocolError):
            self.call(client)
        assert len(session.calls) == 1


class TestOpenAIChatBackend(WireTransportCases):
    def make(self, outcomes, sleep=lambda _: None, **cfg_overrides):
        cfg = WireConfig(base_url="http://unit.test/v1", model="m", **cfg_overrides)
        session = FakeSession(outcomes)
        return OpenAIChatBackend(cfg, session=session, sleep=sleep), session

    def ok(self, value):
        return FakeResponse(200, completion_payload(str(value)))

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

    def test_callers_session_is_left_as_given(self):
        session = requests.Session()
        adapters = dict(session.adapters)
        OpenAIChatBackend(WireConfig(base_url="http://unit.test/v1", model="m", max_in_flight=12), session=session)
        assert session.adapters == adapters

    def test_parses_completion_and_usage(self):
        backend, session = self.make([FakeResponse(200, completion_payload("out"))])
        ex = backend.complete(ChatRequest("hi", temperature=0.3, max_output_tokens=77))
        assert ex.text == "out"
        assert ex.usage == Usage(input_tokens=12, output_tokens=5)
        assert ex.attempts == 1
        call = session.calls[0]
        assert call["url"] == "http://unit.test/v1/chat/completions"
        assert call["json"]["messages"] == [{"role": "user", "content": "hi"}]
        assert call["json"]["temperature"] == 0.3
        assert call["json"]["max_tokens"] == 77
        assert call["json"]["model"] == "m"

    def test_exchange_counts_attempts(self):
        backend, _ = self.make([FakeResponse(429), FakeResponse(200, completion_payload("later"))])
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
        cfg = PrmWireConfig(base_url="http://unit.test", **cfg_overrides)
        session = FakeSession(outcomes)
        return WirePrm(cfg, session=session, sleep=sleep), session

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
        cfg = PrmWireConfig(base_url="http://unit.test")
        session = FakeSession([FakeResponse(200, {"score": 0.85})])
        prm = WirePrm(cfg, session=session, sleep=lambda _: None)
        assert prm.score("prob", "reasoning") == 0.85
        call = session.calls[0]
        assert call["url"] == "http://unit.test/score"
        assert call["json"] == {"problem": "prob", "reasoning": "reasoning"}

    def test_wire_prm_retries_then_gives_up(self):
        cfg = PrmWireConfig(base_url="http://unit.test", max_attempts=2)
        session = FakeSession([FakeResponse(503), FakeResponse(503)])
        prm = WirePrm(cfg, session=session, sleep=lambda _: None)
        with pytest.raises(GatewayRetryError):
            prm.score("p", "r")
        assert len(session.calls) == 2

    def test_wire_prm_malformed_payload(self):
        cfg = PrmWireConfig(base_url="http://unit.test")
        session = FakeSession([FakeResponse(200, {"value": 1})])
        prm = WirePrm(cfg, session=session, sleep=lambda _: None)
        with pytest.raises(GatewayProtocolError):
            prm.score("p", "r")

    @pytest.mark.parametrize("score", [True, "0.5", None, [0.5]], ids=["boolean", "string", "null", "list"])
    def test_wire_prm_score_must_be_a_number(self, score):
        session = FakeSession([FakeResponse(200, {"score": score})])
        prm = WirePrm(PrmWireConfig(base_url="http://unit.test"), session=session, sleep=lambda _: None)
        with pytest.raises(GatewayProtocolError):
            prm.score("p", "r")

    @pytest.mark.parametrize("score", [1, 0.25])
    def test_wire_prm_takes_integer_and_float_scores(self, score):
        session = FakeSession([FakeResponse(200, {"score": score})])
        prm = WirePrm(PrmWireConfig(base_url="http://unit.test"), session=session, sleep=lambda _: None)
        assert prm.score("p", "r") == score


class TestUsageLog:
    def exchange(self, n_in, n_out):
        return ScriptedChatBackend(
            [ScriptedRule("", " ".join(["w"] * n_out))]
        ).complete(ChatRequest(" ".join(["p"] * n_in)))

    def test_totals_accumulate(self):
        logbook = UsageLog()
        logbook.record(self.exchange(3, 2), question_id="a")
        logbook.record(self.exchange(5, 1), question_id="a")
        logbook.record(self.exchange(2, 2), question_id="b")
        assert logbook.calls == 3
        assert logbook.totals() == Usage(input_tokens=10, output_tokens=5)
        assert logbook.totals_for("a") == Usage(input_tokens=8, output_tokens=3)
        assert logbook.totals_for("b") == Usage(input_tokens=2, output_tokens=2)
        assert logbook.totals_for("missing") == Usage(0, 0)

    def test_concurrent_records_sum_exactly(self):
        logbook = UsageLog()
        ex = self.exchange(1, 1)

        def worker():
            for _ in range(200):
                logbook.record(ex, question_id="q")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert logbook.calls == 1600
        assert logbook.totals() == Usage(input_tokens=1600, output_tokens=1600)
