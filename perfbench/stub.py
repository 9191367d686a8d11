"""Deterministic stand-in for the chat LLM and the process reward model.

Run as a process, it serves the two wire protocols qnav speaks:

    POST /v1/chat/completions   OpenAI-compatible chat completion
    POST /score                 {problem, reasoning} -> {score}
    GET  /stats                 request counts and response bookkeeping
    POST /reset                 clear counts and per-body history

Every response is a pure function of the request body and the workload
seed, so reports repeat exactly and stay valid when calls are reordered or
issued concurrently. The one piece of history kept is how often each body
has been seen: a body hash-selected for a transient 503 gets it on its first
arrival only, and a body hash-selected for a "once" flaw is malformed on its
first serve only. Both give the same totals in any call order.

Latency is a service time counted from the moment the request line and
headers are parsed: a fixed time per chat call plus a time per output token,
and a fixed time per PRM call. The stub's own work happens inside it, so
its CPU time stays off the caller's critical path. 503s return at once.
The process exits when its standard input closes, so it never outlives the
benchmark that started it. It prints its port on the first line:

    python3 perfbench/stub.py --seed 0

The shares and latencies below are assumptions, not measurements of a real
endpoint; perfbench/README.md says which metrics each one sets.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# Stage labels match qnav's transcript labels; each key is a phrase of the
# matching prompt template, the same phrases tests/conftest.py keys on.
BLOCK_PHRASES = (
    ("self_eval", "Please evaluate the current step"),
    ("reason_one_step", "reason exactly ONE more step"),
    ("decompose_split", "Please decompose the current task into subtasks"),
    ("decompose_execute", "Please conduct the following Subtask"),
    ("decompose_summary", "Please give a clear and concise summary"),
    ("debate_plans", "propose three different alternative plans"),
    ("debate_choice", "tell which one is most promising"),
    ("debate_execute", "according to the plan here"),
    ("refine", "Please check and refine the current thought"),
)
TERMINATE_PREFIX = "Here is a problem and several reasoning steps"

# Service time: a fixed time per chat call plus a time per output token, and
# a fixed time per PRM call. Large enough that waiting dominates a call, small
# enough that a unit runs a few hundred calls in about four seconds.
CHAT_FIXED_MS = 6.0
CHAT_PER_TOKEN_MS = 0.04
PRM_FIXED_MS = 4.0

# Share of bodies per stage that are malformed on their first serve ("once",
# the re-prompt succeeds) or on every serve ("always", the step fails).
FLAWS = {
    "self_eval": (0.05, 0.0),
    "decompose_split": (0.05, 0.03),
    "debate_plans": (0.05, 0.03),
    "debate_choice": (0.05, 0.03),
}
REJECT_SHARE = 0.03  # first arrivals answered 503
EARLY_ANSWER_SHARE = 0.2  # reasoning steps that already state an answer
TERMINATE_CORRECT_SHARE = 0.7
MINING_CORRECT_SHARE = 0.5

_EXPR_RE = re.compile(r"(\d+) ([+*-]) (\d+)")
_CHOICE_RE = re.compile(r"\(([A-D])\) (-?\d+)")
_EQUAL_RE = re.compile(r"equal to (-?\d+)")
_QID_RE = re.compile(r"\b([A-Z]\d{4})\b")
_STEP_RE = re.compile(r"^Step \d+:", re.MULTILINE)
_SUBTASK_ID_RE = re.compile(r"following Subtask(\d+)")

WORDS = (
    "the quantity we track follows from the given values and each partial result "
    "keeps the structure of the original problem so the next step can use it directly"
).split()


def classify(prompt: str) -> str:
    """Pipeline stage of a chat prompt, or "mining" for a direct answer prompt."""
    for stage, phrase in BLOCK_PHRASES:
        if phrase in prompt:
            return stage
    return "terminate" if prompt.startswith(TERMINATE_PREFIX) else "mining"


def unit_hash(seed: int, *parts: str) -> float:
    """Uniform value in [0, 1) from the seed and the given strings."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed).encode())
    for p in parts:
        h.update(b"\x00" + p.encode())
    return int.from_bytes(h.digest(), "big") / 2.0**64


class Problem:
    """The arithmetic behind a generated question, read from its text."""

    def __init__(self, text: str):
        m = _EXPR_RE.search(text)
        if m is None:
            raise ValueError(f"no arithmetic in prompt: {text[:80]!r}")
        a, op, b = int(m.group(1)), m.group(2), int(m.group(3))
        self.value = a + b if op == "+" else a - b if op == "-" else a * b
        qid = _QID_RE.search(text)
        self.qid = qid.group(1) if qid else ""
        self.choices = _CHOICE_RE.findall(text)
        equal = _EQUAL_RE.search(text)
        self.claimed = int(equal.group(1)) if equal else None
        if self.choices:
            self.kind = "multiple_choice"
        elif self.claimed is not None:
            self.kind = "yes_no"
        elif "Compute" in text:
            self.kind = "math_boxed"
        else:
            self.kind = "elementary_math_numeric"

    def answer(self, correct: bool, u: float) -> str:
        """The true answer in canonical form, or a wrong one picked by u."""
        if self.kind == "multiple_choice":
            letters = [c for c, v in self.choices if int(v) == self.value]
            right = letters[0] if letters else "A"
            if correct:
                return right
            others = [c for c, _ in self.choices if c != right]
            return others[int(u * len(others))]
        if self.kind == "yes_no":
            truth = self.claimed == self.value
            return "yes" if truth == correct else "no"
        if correct:
            return str(self.value)
        return str(self.value + 1 + int(u * 9))

    def stated(self, answer: str, mining: bool = False) -> str:
        """A sentence stating the answer in the format extraction expects."""
        if self.kind == "math_boxed":
            return f"So the result is \\boxed{{{answer}}}."
        if self.kind == "multiple_choice":
            return f"The answer is ({answer})."
        if self.kind == "yes_no":
            return answer.upper() if mining else f"The answer is {answer}."
        return f"The answer is {answer}."


def filler(u: float, lo: int, span: int) -> str:
    """lo..lo+span-1 words of prose, the count and start picked by u."""
    n = lo + int(u * span)
    start = int(u * 997) % len(WORDS)
    return " ".join(WORDS[(start + i) % len(WORDS)] for i in range(n))


class Model:
    """Response rules plus the per-body history and counters.

    What shapes an episode (self-eval scores, subtask count, plan choice,
    early answers, flaws) is drawn from the question id, the stage and the
    number of steps so far, so every seed's question set runs the same mix of
    paths and throughput compares across seeds. What a question says and
    whether an answer is right, the PRM score and the 503s are drawn from
    the seed and the whole body.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._rejected: set[str] = set()
            self._served: Counter[str] = Counter()
            self.requests: Counter[str] = Counter()  # "<path> <status>"
            self.stages: Counter[str] = Counter()
            self.flawed: Counter[str] = Counter()  # "<stage> <once|always>"
            self.mining_wrong: set[str] = set()

    def stats(self) -> dict:
        with self._lock:
            return {
                "requests": dict(self.requests),
                "stages": dict(self.stages),
                "flawed": dict(self.flawed),
                "mining_wrong": sorted(self.mining_wrong),
            }

    def _arrive(self, path: str, key: str) -> int | None:
        """Record an arrival; None means answer 503, else prior serve count."""
        with self._lock:
            if key not in self._rejected and unit_hash(self.seed, "reject", key) < REJECT_SHARE:
                self._rejected.add(key)
                self.requests[f"{path} 503"] += 1
                return None
            self.requests[f"{path} 200"] += 1
            seen = self._served[key]
            self._served[key] += 1
            return seen

    def chat(self, prompt: str) -> tuple[str, float] | None:
        """(reply, injected latency in s), or None for a 503."""
        seen = self._arrive("/v1/chat/completions", prompt)
        if seen is None:
            return None
        stage = classify(prompt)
        qid = _QID_RE.search(prompt)
        sub = _SUBTASK_ID_RE.search(prompt)
        shape = "|".join((qid.group(1) if qid else "", stage, str(len(_STEP_RE.findall(prompt))),
                          sub.group(1) if sub else ""))
        u = unit_hash(0, "shape", shape)
        once, always = FLAWS.get(stage, (0.0, 0.0))
        flaw = "once" if u < once else "always" if u < once + always else ""
        malformed = flaw == "always" or (flaw == "once" and seen == 0)
        text = self._reply(stage, prompt, shape, malformed)
        with self._lock:
            self.stages[stage] += 1
            if malformed:
                self.flawed[f"{stage} {flaw}"] += 1
        return text, (CHAT_FIXED_MS + CHAT_PER_TOKEN_MS * len(text.split())) / 1000.0

    def score(self, problem: str, reasoning: str) -> tuple[float, float] | None:
        """(score, injected latency in s), or None for a 503."""
        key = problem + "\x00" + reasoning
        if self._arrive("/score", key) is None:
            return None
        return round(0.2 + 0.7 * unit_hash(self.seed, "prm", key), 6), PRM_FIXED_MS / 1000.0

    def _reply(self, stage: str, prompt: str, shape: str, malformed: bool) -> str:
        def draw(salt: str) -> float:
            return unit_hash(0, salt, shape)

        u = draw("filler")
        if malformed:
            return "Let me think about this carefully before writing anything down."
        if stage == "self_eval":
            return "\n".join(
                f"{aspect} score={int(draw(aspect) * 4)} reason={filler(draw(aspect + 'r'), 3, 6)}"
                for aspect in ("A1", "A2", "A3", "B1", "B2", "C1", "C2")
            )
        if stage == "decompose_split":
            qid = shape.split("|")[0]
            return "\n".join(
                f"### Subtask{i}: Work out part {i} of problem {qid}, {filler(draw(str(i)), 3, 5)}."
                for i in range(1, 2 + int(draw("count") * 6))
            )
        if stage == "debate_plans":
            return "\n".join(f"### Plan{i}: {filler(draw(str(i)), 6, 8)}." for i in (1, 2, 3))
        if stage == "debate_choice":
            return f"The most promising plan is Plan{1 + int(draw('choice') * 3)}: {filler(u, 8, 10)}."
        if stage in ("decompose_execute", "decompose_summary"):
            return f"{filler(u, 10, 20)}."
        problem = Problem(prompt)
        correct = unit_hash(self.seed, "correct", prompt) < (
            MINING_CORRECT_SHARE if stage == "mining" else TERMINATE_CORRECT_SHARE
        )
        stated = problem.stated(problem.answer(correct, u), mining=stage == "mining")
        if stage == "mining":
            if not correct:
                with self._lock:
                    self.mining_wrong.add(problem.qid)
            return f"{filler(u, 10, 20)}.\n{stated}"
        if stage == "terminate" or draw("early") < EARLY_ANSWER_SHARE:
            return f"{filler(u, 12, 24)}. {stated}"
        return f"{filler(u, 12, 24)}."


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without TCP_NODELAY the body write waits on the client's delayed ACK
    # of the header write, which adds ~40 ms to every call.
    disable_nagle_algorithm = True
    model: Model

    def log_message(self, format, *args):  # noqa: A002 - signature of the base class
        pass

    def _send(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/stats":
            self._send(200, self.model.stats())
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        started = time.perf_counter()
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))) or b"{}")
        if self.path == "/reset":
            self.model.reset()
            self._send(200, {})
        elif self.path == "/v1/chat/completions":
            prompt = body["messages"][0]["content"]
            result = self.model.chat(prompt)
            if result is None:
                self._send(503, {"error": "overloaded"})
                return
            text, delay = result
            time.sleep(max(0.0, delay - (time.perf_counter() - started)))
            self._send(200, {
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {"prompt_tokens": len(prompt.split()), "completion_tokens": len(text.split())},
            })
        elif self.path == "/score":
            result = self.model.score(body["problem"], body["reasoning"])
            if result is None:
                self._send(503, {"error": "overloaded"})
                return
            score, delay = result
            time.sleep(max(0.0, delay - (time.perf_counter() - started)))
            self._send(200, {"score": score})
        else:
            self._send(404, {"error": "not found"})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    Handler.model = Model(args.seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()  # returns when the parent closes the pipe or exits
    server.shutdown()
    os._exit(0)


if __name__ == "__main__":
    main()
