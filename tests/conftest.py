"""Shared fixtures: scripted chat rules that exercise every pipeline stage,
and a loopback HTTP endpoint for the wire clients.

The rule strings key off distinctive phrases in the prompt templates, so a
single backend can serve self-evaluation, all four reasoning blocks, and the
answer-producing terminate call for a small arithmetic problem (3 + 4).
"""

import json
import socket
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from qnav.core import DatasetKind, encode_state
from qnav.dqn import Batch
from qnav.env import EnvConfig
from qnav.evalkit import QuestionRecord, save_dataset
from qnav.gateway import ScriptedChatBackend, ScriptedPrm, ScriptedRule
from qnav.net import PARAM_KEYS

EVAL_RESPONSE = (
    "A1 score=2 reason=premises restated\n"
    "A2 score=3 reason=constraints listed\n"
    "A3 score=2 reason=goal identified\n"
    "B1 score=3 reason=step follows\n"
    "B2 score=2 reason=arithmetic checked\n"
    "C1 score=1 reason=partial progress\n"
    "C2 score=2 reason=confidence moderate\n"
)

PLANS_RESPONSE = (
    "### Plan1: Add the numbers directly.\n"
    "### Plan2: Count up from the larger number.\n"
    "### Plan3: Use a number line.\n"
)

SUBTASKS_RESPONSE = (
    "### Subtask1: Find the sum of 3 and 4.\n"
    "### Subtask2: Verify the result.\n"
)


def block_calls(outcome):
    """Sub-calls a step's logic block made, self-evaluation excluded."""
    return tuple(c for c in outcome.transcript if c.stage != "self_eval")


def batch_of(transitions):
    """Encode transitions held outside a replay buffer as a Batch."""
    return Batch(
        np.stack([encode_state(t.state) for t in transitions]),
        np.array([int(t.action) for t in transitions]),
        np.array([t.reward for t in transitions], dtype=np.float64),
        np.stack([encode_state(t.next_state) for t in transitions]),
        np.array([t.done for t in transitions], dtype=bool),
    )


def gradient_of(net, x, dq):
    """Gradient of dq . Q(x) for one state x, one array per parameter.

    backward_batch on a batch of one, split from its flat layout (PARAM_KEYS
    order, like net.flat) into the parameters' shapes.
    """
    flat = net.backward_batch(dq[None], net.forward_batch(x[None])[1])
    ends = np.cumsum([net.params[k].size for k in PARAM_KEYS])
    return {k: part.reshape(net.params[k].shape) for k, part in zip(PARAM_KEYS, np.split(flat, ends[:-1]))}


def value_and_advantage(net, x):
    """V and A for one state x, from the forward pass's last hidden layer and the head parameters."""
    h2 = net.forward_batch(x[None])[1].h2[0]
    p = net.params
    return h2 @ p["wv"] + p["bv"][0], h2 @ p["wa"].T + p["ba"]


def standard_rules():
    """Rules for a complete scripted episode on the 3 + 4 problem."""
    return (
        ScriptedRule("Please evaluate the current step", EVAL_RESPONSE),
        ScriptedRule("reason exactly ONE more step", "We compute 3+4=7."),
        ScriptedRule(
            "Please decompose the current task into subtasks", SUBTASKS_RESPONSE
        ),
        ScriptedRule(
            "Please conduct the following Subtask", "Subtask result: the sum is 7."
        ),
        ScriptedRule(
            "Please give a clear and concise summary", "The sum of 3 and 4 is 7."
        ),
        ScriptedRule("propose three different alternative plans", PLANS_RESPONSE),
        ScriptedRule(
            "tell which one is most promising",
            "The most promising plan is Plan2: counting is reliable.",
        ),
        ScriptedRule("according to the plan here", "Counting up from 3 by 4 gives 7."),
        ScriptedRule(
            "Please check and refine the current thought",
            "Checked: the arithmetic is consistent.",
        ),
        # Terminate endings, one per dataset kind.  The \boxed rule must sit
        # before the bare boxed rule: the former contains the latter.
        ScriptedRule("\\boxed{{answer}}", "The answer is \\boxed{7}."),
        ScriptedRule("boxed{{answer}}", "The answer is \\boxed{7}."),
        ScriptedRule("The answer is numerical_answer", "The answer is 7."),
        ScriptedRule("The answer is (CHOICE)", "The answer is (B)."),
        ScriptedRule("'YES/NO'", "YES"),
        ScriptedRule("'The answer is yes' or 'The answer is no'", "The answer is yes."),
    )


class PooledScriptedChat(ScriptedChatBackend):
    """Static scripted rules answer the same in any call order, so this
    backend allows max_in_flight calls at once and, like every ChatBackend,
    makes further callers wait. Each call sleeps briefly so concurrent
    episodes interleave; peak records the most calls seen running at once."""

    def __init__(self, rules, max_in_flight=4):
        super().__init__(rules)
        self.max_in_flight = max_in_flight
        self.active = 0
        self.peak = 0
        self._count = threading.Lock()
        self._slots = threading.BoundedSemaphore(max_in_flight)

    def complete(self, request):
        with self._slots:
            with self._count:
                self.active += 1
                self.peak = max(self.peak, self.active)
            try:
                time.sleep(0.001)
                return super().complete(request)
            finally:
                with self._count:
                    self.active -= 1


@pytest.fixture
def fast_thread_switching():
    """Switch threads far more often than usual, so a lost update between
    concurrent episodes (say, in the shared usage log) would show."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.fixture
def chat():
    return ScriptedChatBackend(standard_rules())


@pytest.fixture
def prm():
    return ScriptedPrm(default=0.5)


@pytest.fixture
def env_cfg():
    return EnvConfig()


@pytest.fixture
def sample_questions():
    return (
        QuestionRecord(
            id="q1",
            question="What is 3 + 4?",
            answer="7",
            kind=DatasetKind.ELEMENTARY_MATH_NUMERIC,
        ),
        QuestionRecord(
            id="q2",
            question="What is 3 + 4? Choices: (A) 6 (B) 7 (C) 8.",
            answer="B",
            kind=DatasetKind.MULTIPLE_CHOICE,
        ),
    )


@pytest.fixture
def dataset_path(tmp_path, sample_questions):
    path = tmp_path / "dataset.jsonl"
    save_dataset(sample_questions, path)
    return path


# -- loopback endpoint ----------------------------------------------------------

DROP = object()  # a handler result: close the connection without replying


def completion(text="hello", prompt_tokens=12, completion_tokens=5):
    """A chat-completions reply body: text as the message, with a usage block."""
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


@dataclass(frozen=True)
class Posted:
    """One request the loopback endpoint received."""

    request_line: str
    path: str
    headers: object  # http.client.HTTPMessage: case-blind lookup, names as sent
    body: bytes

    def json(self):
        return json.loads(self.body)


class Loopback:
    """An HTTP/1.1 server on 127.0.0.1 answering each request through handler.

    handler(posted) returns DROP, or (status, body) or (status, body, headers),
    where a str body is sent as is and anything else as JSON. It runs
    on the server's connection threads, so a handler with state locks it.
    received lists every request in arrival order; connections counts the
    connections accepted; active counts the POSTs whose handler is running,
    and peak is the most seen at once.
    """

    def __init__(self):
        self.handler = lambda posted: (200, {})
        self.received = []
        self.connections = 0
        self.active = 0
        self.peak = 0
        self._lock = threading.Lock()
        self._sockets = []
        loopback = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def log_message(self, format, *args):  # noqa: A002 - signature of the base class
                pass

            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                posted = Posted(self.requestline, self.path, self.headers, body)
                with loopback._lock:
                    loopback.received.append(posted)
                    loopback.active += 1
                    loopback.peak = max(loopback.peak, loopback.active)
                try:
                    reply = loopback.handler(posted)
                finally:
                    with loopback._lock:
                        loopback.active -= 1
                if reply is DROP:
                    self.close_connection = True
                    return
                status, doc, headers = reply if len(reply) == 3 else (*reply, {})
                data = (doc if isinstance(doc, str) else json.dumps(doc)).encode()
                self.send_response(status)
                for name, value in {"Content-Type": "application/json", **headers}.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        class Server(ThreadingHTTPServer):
            daemon_threads = True

            def process_request(self, request, client_address):
                with loopback._lock:
                    loopback.connections += 1
                    loopback._sockets.append(request)
                super().process_request(request, client_address)

            def handle_error(self, request, client_address):
                pass  # a client that timed out has gone before its reply is written

        self._server = Server(("127.0.0.1", 0), Handler)
        self.port = self._server.server_address[1]
        self.url = f"http://127.0.0.1:{self.port}"
        threading.Thread(target=self._server.serve_forever, args=(0.01,), daemon=True).start()

    def paths(self):
        return [p.path for p in self.received]

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        with self._lock:
            for sock in self._sockets:  # ends connection threads waiting on a kept-alive client
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


@pytest.fixture
def loopback():
    endpoint = Loopback()
    try:
        yield endpoint
    finally:
        endpoint.close()


@pytest.fixture
def dead_url():
    """An http:// URL on 127.0.0.1 whose port has no listener."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}"
