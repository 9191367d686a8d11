"""LLM and reward-model access: one wire backend, deterministic scripted twins.

The wire backend speaks the OpenAI-compatible chat-completions protocol and
sends each prompt as a single user message (no system message). It and the
wire PRM client reach their endpoints through WireEndpoint, the one HTTP
transport and retry path: each builds a payload and parses the reply.
WireEndpoint POSTs through the urllib3 connection pool that the caller's
requests.Session holds for the endpoint, resolved once. Scripted
backends answer from ordered match rules and make the whole pipeline runnable
offline, byte-for-byte reproducibly; they report zero latency on purpose so
offline artifacts do not embed timing noise.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence
from urllib.parse import urlsplit

import requests
import urllib3
from requests.adapters import HTTPAdapter
from urllib3.exceptions import ProtocolError, ProxyError, SSLError
from urllib3.exceptions import TimeoutError as Urllib3TimeoutError

log = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 1.0
DEFAULT_MAX_OUTPUT_TOKENS = 1024


class GatewayError(Exception):
    """Base class for everything the gateway can raise."""


class GatewayAuthError(GatewayError):
    """Credentials rejected (HTTP 401/403)."""


class GatewayTransientError(GatewayError):
    """Timeouts, connection trouble, 429 and 5xx; safe to retry."""


class GatewayProtocolError(GatewayError):
    """The endpoint answered with something we cannot interpret."""


class GatewayRetryError(GatewayError):
    """Retry budget exhausted; the last transient error is chained."""


class UnmatchedPromptError(GatewayError):
    """A scripted backend saw a prompt no rule covers."""


@dataclass(frozen=True)
class ChatRequest:
    prompt: str
    temperature: float = DEFAULT_TEMPERATURE
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS


@dataclass(frozen=True)
class Usage:
    input_tokens: int = 0
    output_tokens: int = 0

    def __add__(self, other: "Usage") -> "Usage":
        return Usage(self.input_tokens + other.input_tokens, self.output_tokens + other.output_tokens)


@dataclass(frozen=True)
class ChatExchange:
    """One completed request/response pair, with accounting."""

    request: ChatRequest
    text: str
    usage: Usage
    latency_s: float
    attempts: int = 1


class ChatBackend(Protocol):
    # How many complete() calls may run at once. The backend enforces it: a
    # complete() call waits while max_in_flight others are running. mine_hard
    # sizes its worker pool from it; evaluate and training keep
    # env.episodes_in_flight (3 * max_in_flight - 2) episodes in flight.
    max_in_flight: int

    def complete(self, request: ChatRequest) -> ChatExchange: ...


def pooled_session(size: int) -> requests.Session:
    """A requests.Session keeping up to size connections per host.

    requests keeps 10 by default; with more calls in flight, the surplus
    connections are discarded and reopened.
    """
    session = requests.Session()
    adapter = HTTPAdapter(pool_maxsize=size)
    session.mount("http://", adapter)
    session.mount("https://", adapter)
    return session


def _is_http_url(url: str) -> bool:
    """Whether url is an http:// or https:// URL with a host, and with a port in 0-65535 if it names one."""
    parts = urlsplit(url)
    try:
        parts.port  # noqa: B018 - raises ValueError for a port that is not a number in range
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


@dataclass(frozen=True, kw_only=True)
class EndpointConfig:
    """Where and how to reach a wire endpoint, and its retry policy.

    The API key is read from the environment variable named by api_key_env;
    if unset, requests go out without an Authorization header (local
    endpoints often need none) and any 401/403 surfaces as an auth error.
    """

    base_url: str
    api_key_env: str = "QNAV_API_KEY"
    timeout_s: float = 120.0
    max_attempts: int = 3
    backoff_base_s: float = 0.5

    def __post_init__(self) -> None:
        if not _is_http_url(self.base_url):
            raise ValueError(f"base_url must be an http:// or https:// URL with a host, got {self.base_url!r}")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must not be negative")


@dataclass(frozen=True, kw_only=True)
class WireConfig(EndpointConfig):
    """An OpenAI-compatible chat endpoint: the model to ask, and the cap on calls in flight."""

    model: str
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")


class WireEndpoint:
    """One HTTP endpoint: the only transport and retry path of the wire clients.

    At construction it resolves, for cfg.base_url, what requests would: the
    proxies, verify and cert settings of session and the environment, the
    urllib3 connection pool of session's adapter, and the request target
    (the path, or the absolute URL behind an HTTP proxy). Each POST then goes
    straight to that pool. The session owns the pool, so closing the session
    closes its connections. Proxy variables are read once, here; the
    session's auth, cookies and ~/.netrc are not used. EndpointConfig has
    already rejected a base_url that does not parse.
    """

    # What requests raises as Timeout or ConnectionError; urllib3's
    # TimeoutError covers NewConnectionError (connection refused, no such host).
    TRANSIENT = (Urllib3TimeoutError, ProtocolError, SSLError, ProxyError, OSError)

    def __init__(self, cfg: EndpointConfig, session: requests.Session,
                 sleep: Callable[[float], None] = time.sleep):
        self.cfg = cfg
        self.session = session
        self._sleep = sleep
        base = cfg.base_url.rstrip("/")
        settings = session.merge_environment_settings(base, {}, None, None, None)
        prepared = requests.Request("POST", base).prepare()
        adapter = session.get_adapter(prepared.url)
        self._pool = adapter.get_connection_with_tls_context(
            prepared, settings["verify"], settings["proxies"], settings["cert"])
        self._target = adapter.request_url(prepared, settings["proxies"]).rstrip("/")
        self._headers = {**session.headers, "Content-Type": "application/json"}
        self._timeout = urllib3.Timeout(connect=cfg.timeout_s, read=cfg.timeout_s)

    def post(self, path: str, payload: dict) -> tuple[object, float, int]:
        """POST payload to cfg.base_url + path: (decoded JSON body, seconds in the last POST, POSTs made).

        Sends a bearer header when the variable named by cfg.api_key_env is
        set. Connection trouble, timeouts, 429 and 5xx are retried, sleeping
        backoff_base_s * 2^(n - 1) after the n-th POST; after max_attempts
        POSTs GatewayRetryError chains the last. 401/403 raise
        GatewayAuthError, other statuses (a redirect too: none is followed)
        and non-JSON bodies GatewayProtocolError, neither retried.
        """
        cfg = self.cfg
        body = json.dumps(payload, allow_nan=False).encode()
        headers = self._headers
        key = os.environ.get(cfg.api_key_env)
        if key:
            headers = {**headers, "Authorization": f"Bearer {key}"}
        last: GatewayTransientError | None = None
        for attempt in range(1, cfg.max_attempts + 1):
            if last is not None:
                log.warning("transient gateway failure (attempt %d/%d): %s", attempt - 1, cfg.max_attempts, last)
                self._sleep(cfg.backoff_base_s * 2 ** (attempt - 2))
            started = time.monotonic()
            try:
                resp = self._pool.urlopen("POST", self._target + path, body=body, headers=headers,
                                          timeout=self._timeout, retries=False, redirect=False,
                                          assert_same_host=False)
            except self.TRANSIENT as exc:
                last = GatewayTransientError(f"request failed: {exc}")
                last.__cause__ = exc
                continue
            latency = time.monotonic() - started
            status = resp.status
            if status == 429 or status >= 500:
                last = GatewayTransientError(f"HTTP {status}")
                continue
            if status in (401, 403):
                raise GatewayAuthError(f"endpoint rejected credentials (HTTP {status})")
            if 300 <= status < 400:
                raise GatewayProtocolError(f"HTTP {status}: redirect to {resp.headers.get('Location')!r} not followed")
            if status != 200:
                raise GatewayProtocolError(f"HTTP {status}: {resp.data.decode('utf-8', 'replace')[:200]}")
            try:
                return json.loads(resp.data), latency, attempt
            except ValueError as exc:
                raise GatewayProtocolError(f"response body is not JSON: {exc}") from exc
        raise GatewayRetryError(f"gave up after {cfg.max_attempts} attempts") from last


def _reply_number(value: object, kind: type[int] | type[float]) -> int | float:
    """A number from a reply body as kind; a boolean, a string or a fractional count is malformed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return kind(value)


class OpenAIChatBackend:
    """Chat-completions client with an in-flight cap over a WireEndpoint."""

    def __init__(self, cfg: WireConfig, session: requests.Session | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.max_in_flight = cfg.max_in_flight
        self._model = cfg.model
        self._endpoint = WireEndpoint(cfg, pooled_session(cfg.max_in_flight) if session is None else session, sleep)
        self._slots = threading.BoundedSemaphore(cfg.max_in_flight)

    def complete(self, request: ChatRequest) -> ChatExchange:
        payload = {
            "model": self._model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        with self._slots:  # held through retries and their backoff
            doc, latency, attempts = self._endpoint.post("/chat/completions", payload)
        try:
            text = doc["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError("content is not a string")
            usage_doc = doc.get("usage") or {}
            if not isinstance(usage_doc, dict):
                raise TypeError("usage is not an object")
            usage = Usage(
                input_tokens=_reply_number(usage_doc.get("prompt_tokens", 0), int),
                output_tokens=_reply_number(usage_doc.get("completion_tokens", 0), int),
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise GatewayProtocolError(f"malformed completion payload: {exc}") from exc
        if not usage_doc:
            log.warning("completion response carried no usage block")
        return ChatExchange(request=request, text=text, usage=usage, latency_s=latency, attempts=attempts)


@dataclass
class ScriptedRule:
    """Substring matcher -> canned response(s).

    An empty contains matches every prompt. response may be a single string
    or a non-empty sequence consumed call by call (the last entry repeats
    once exhausted). fail_times makes the rule raise GatewayTransientError
    that many times before it answers. Nothing retries a scripted backend in
    a CLI run: each injected failure aborts its eval or train episode with an
    EpisodeFailure, or leaves a mined question undetermined.
    """

    contains: str
    response: str | Sequence[str]
    fail_times: int = 0
    _cursor: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.response, str) and not self.response:
            raise ValueError("response must not be empty")

    def next_response(self) -> str:
        if isinstance(self.response, str):
            return self.response
        idx = min(self._cursor, len(self.response) - 1)
        self._cursor += 1
        return self.response[idx]


def _word_usage(prompt: str, text: str) -> Usage:
    # Offline stand-in for tokenizer counts: deterministic word counts.
    return Usage(input_tokens=len(prompt.split()), output_tokens=len(text.split()))


class ScriptedChatBackend:
    """Deterministic chat backend answering from ordered rules.

    The first rule whose contains occurs in the prompt answers, and a prompt
    no rule matches raises UnmatchedPromptError. A last rule with an empty
    contains is the catch-all reply. Every exchange is appended to call_log.

    Response sequences and fail_times are consumed in call order, so
    max_in_flight is 1: evaluate and mine_hard call a scripted backend one
    call at a time, and offline runs stay byte-identical.
    """

    max_in_flight = 1

    def __init__(self, rules: Sequence[ScriptedRule] = ()):
        self.rules = list(rules)
        self.call_log: list[ChatExchange] = []
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> ChatExchange:
        with self._lock:
            text = self._respond(request.prompt)
            exchange = ChatExchange(
                request=request,
                text=text,
                usage=_word_usage(request.prompt, text),
                latency_s=0.0,
            )
            self.call_log.append(exchange)
            return exchange

    def _respond(self, prompt: str) -> str:
        for rule in self.rules:
            if rule.contains in prompt:
                if rule.fail_times > 0:
                    rule.fail_times -= 1
                    raise GatewayTransientError(f"scripted failure for {rule.contains!r}")
                return rule.next_response()
        raise UnmatchedPromptError(f"no rule matches prompt: {prompt[:120]!r}...")


# -- process reward model -----------------------------------------------------


class PrmBackend(Protocol):
    def score(self, problem: str, reasoning: str) -> float: ...


class ScriptedPrm:
    """Rule-matched process rewards; matches on the reasoning text."""

    def __init__(self, rules: Sequence[tuple[str, float]] = (), default: float = 0.5):
        self.rules = list(rules)
        self.default = default

    def score(self, problem: str, reasoning: str) -> float:
        for contains, value in self.rules:
            if contains in reasoning:
                return value
        return self.default


# The PRM endpoint serves POST {base_url}/score with {problem, reasoning} -> {score}.
PrmWireConfig = EndpointConfig


class WirePrm:
    """PRM client over a WireEndpoint; session's connection pool should fit the score calls made at once.

    It takes no slot: its calls are bounded by the episodes or trials in flight.
    """

    def __init__(self, cfg: PrmWireConfig, session: requests.Session,
                 sleep: Callable[[float], None] = time.sleep):
        self._endpoint = WireEndpoint(cfg, session, sleep)

    def score(self, problem: str, reasoning: str) -> float:
        doc, _latency, _attempts = self._endpoint.post("/score", {"problem": problem, "reasoning": reasoning})
        try:
            return _reply_number(doc["score"], float)
        except (ValueError, KeyError, TypeError) as exc:
            raise GatewayProtocolError(f"malformed score payload: {exc}") from exc


def score_process(prm: PrmBackend, problem: str, reasoning: str) -> float:
    """Score the accumulated reasoning; out-of-range values clamp with a warning."""
    value = float(prm.score(problem, reasoning))
    if not 0.0 <= value <= 1.0:
        log.warning("process reward %.4f outside [0, 1]; clamping", value)
        value = min(1.0, max(0.0, value))
    return value


# -- usage accounting ----------------------------------------------------------


class UsageLog:
    """Thread-safe count of the calls and tokens recorded into it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._total = Usage()
        self._calls = 0

    def record(self, exchange: ChatExchange) -> None:
        with self._lock:
            self._total = self._total + exchange.usage
            self._calls += 1

    @property
    def calls(self) -> int:
        return self._calls

    def totals(self) -> Usage:
        with self._lock:
            return self._total
