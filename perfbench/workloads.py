"""The four benchmark workloads: seeded inputs, one timed unit each, checks.

A unit is a fixed amount of work through one public entry point of qnav.
Running the same unit again in one invocation must give identical outputs;
run.py compares their fingerprints. The LLM workloads talk to stub.py over
the real wire gateway, started as its own process during set-up.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import requests

from qnav import dqn, evalkit, synthetic
from qnav.core import DatasetKind
from qnav.env import EnvConfig, ReasoningEpisode
from qnav.gateway import ChatRequest, OpenAIChatBackend, PrmWireConfig, UsageLog, WireConfig, WirePrm
from qnav.net import load_checkpoint, save_checkpoint
from qnav.prompts import render_mining

HERE = Path(__file__).resolve().parent

BACKOFF_BASE_S = 0.002

EVAL_QUESTIONS = 12
EVAL_TRIALS = 3
TRAIN_POOL = 24
TRAIN_EPISODES = 40
MINE_QUESTIONS = 400
SYNTH_MIN_RATIO = 0.95
BLOCK_STAGES = ("reason_one_step", "decompose_split", "debate_plans", "refine", "terminate")
STEP_FAILURE_STAGES = ("decompose_split", "debate_plans")  # an "always" flaw here fails the step


@dataclass
class Unit:
    """What one timed unit did."""

    wall_s: float
    cpu_s: float
    ops: int  # env steps (training workloads) or questions (eval, mining)
    fingerprint: str  # digest of the outputs that must repeat exactly
    attempted: int  # operations asked of the program: env steps, episodes, trials or questions
    failed: int = 0  # of those, the ones the program aborted
    problems: list[str] = field(default_factory=list)  # failed correctness checks
    info: dict[str, tuple[float, str]] = field(default_factory=dict)  # workload metrics: value, unit
    stub_stats: dict = field(default_factory=dict)


def digest(*parts: bytes | str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else p)
    return h.hexdigest()[:16]


def timed(tracer, fn):
    """Run fn under the tracer (if any); return (result, wall s, cpu s)."""
    with tracer.installed() if tracer is not None else nullcontext():
        wall, cpu = time.perf_counter(), time.process_time()
        result = fn()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return result, wall, cpu


def make_questions(rng: random.Random, n: int, prefix: str) -> list[evalkit.QuestionRecord]:
    """n arithmetic questions, the four dataset kinds in equal shares.

    Ids are prefix + index, so the stub sees the same ids, and shapes the
    same episodes, for every seed; the seed picks the kinds' order, the
    numbers and the true answers.
    """
    kinds = [list(DatasetKind)[i % len(DatasetKind)] for i in range(n)]
    rng.shuffle(kinds)
    records = []
    for i, kind in enumerate(kinds):
        a, b, op = rng.randint(11, 99), rng.randint(11, 99), rng.choice("+-*")
        value = a + b if op == "+" else a - b if op == "-" else a * b
        qid = f"{prefix}{i:04d}"
        if kind is DatasetKind.ELEMENTARY_MATH_NUMERIC:
            question, answer = f"{qid}. What is {a} {op} {b}?", str(value)
        elif kind is DatasetKind.MATH_BOXED:
            question, answer = f"{qid}. Compute {a} {op} {b}.", str(value)
        elif kind is DatasetKind.MULTIPLE_CHOICE:
            values = [value] + rng.sample([value + d for d in (-3, -2, -1, 1, 2, 3)], 3)
            rng.shuffle(values)
            choices = " ".join(f"({'ABCD'[j]}) {v}" for j, v in enumerate(values))
            question, answer = f"{qid}. What is {a} {op} {b}? Choices: {choices}.", "ABCD"[values.index(value)]
        else:
            claimed = value if rng.random() < 0.5 else value + rng.choice((-2, -1, 1, 2))
            question, answer = f"{qid}. Is {a} {op} {b} equal to {claimed}?", "yes" if claimed == value else "no"
        records.append(evalkit.QuestionRecord(id=qid, question=question, answer=answer, kind=kind))
    return records


class Stub:
    """The stub endpoint as a child process.

    It stands in for an LLM service that is already running when qnav
    starts, so run.py starts it once per run, outside the timed set-up.
    """

    def __init__(self, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._control = requests.Session()
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("stub endpoint did not start")
        self.url = f"http://127.0.0.1:{port}"

    def reset(self) -> None:
        self._control.post(self.url + "/reset", json={}, timeout=10).raise_for_status()

    def stats(self) -> dict:
        resp = self._control.get(self.url + "/stats", timeout=10)
        resp.raise_for_status()
        return resp.json()

    def close(self) -> None:
        self._control.close()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Clients:
    """qnav's wire clients for the stub, on a session of their own.

    One chat and one PRM call on `warm` open the connection before timing.
    """

    def __init__(self, stub: Stub, warm: evalkit.QuestionRecord):
        self.stub = stub
        self.session = requests.Session()
        try:
            self.chat = OpenAIChatBackend(WireConfig(
                base_url=stub.url + "/v1", model="stub", backoff_base_s=BACKOFF_BASE_S, timeout_s=30.0,
            ), session=self.session)
            self.prm = WirePrm(PrmWireConfig(
                base_url=stub.url, backoff_base_s=BACKOFF_BASE_S, timeout_s=30.0,
            ), session=self.session)
            self.chat.complete(ChatRequest(prompt=render_mining(warm.question, warm.kind)))
            self.prm.score(warm.question, "Step 1: warm-up")
        except BaseException:
            self.session.close()
            raise

    def close(self) -> None:
        self.session.close()


def _served(stats: dict, path: str) -> int:
    return stats["requests"].get(f"{path} 200", 0)


def _step_failures(stats: dict) -> int:
    # A failed step asked twice, and got the malformed reply both times.
    return sum(stats["flawed"].get(f"{s} always", 0) for s in STEP_FAILURE_STAGES) // 2


def _aborted(stats: dict, episodes: int) -> int:
    # An episode that was not aborted ended in a terminate call or a step failure.
    return episodes - stats["stages"].get("terminate", 0) - _step_failures(stats)


def _missing_blocks(stats: dict) -> list[str]:
    return [f"block never executed: {s}" for s in BLOCK_STAGES if not stats["stages"].get(s)]


def _same_answer(got: str | None, want: str) -> bool:
    """Benchmark-side answer check; the stub states answers canonically."""
    return got is not None and got.strip().casefold() == want.strip().casefold()


@functools.cache
def navigator_checkpoint() -> bytes:
    """The navigator eval_llm evaluates, as a checkpoint blob.

    It is trained the way a user trains one, on a fixed synthetic MDP, so
    every seed evaluates the same policy; it picks all five blocks on the
    stub's episodes. It is a fixture made once per process, before set-up is
    timed, so a faster trainer does not show in eval_llm's setup_s.
    """
    mdp = synthetic.make_scripted(n_states=32, sharpness=0.7, seed=0)
    net, _ = dqn.run_training(synthetic.make_env_factory(mdp), dqn.TrainerConfig(episodes=200, seed=0))
    return save_checkpoint(net, seed=0, episodes=200)


# -- workloads -------------------------------------------------------------------


class Workload:
    op: str  # the unit of progress in ops_per_s
    needs_stub = True

    @staticmethod
    def prepare() -> None:
        """Build the fixtures that set-up reads, once per process and untimed."""

    def close(self) -> None:
        pass


class SynthTrain(Workload):
    """run_training on the planted-optimum MDP with the default TrainerConfig."""

    op = "env step"
    needs_stub = False

    def __init__(self, seed: int, stub: Stub | None = None):
        self.mdp = synthetic.make_scripted(n_states=8, sharpness=0.7, seed=seed)
        self.cfg = dqn.TrainerConfig(seed=seed)
        self.oracle = synthetic.optimal_return(self.mdp, self.cfg.gamma).value
        self.factory = synthetic.make_env_factory(self.mdp)

    def run_unit(self, tracer=None) -> Unit:
        (net, stats), wall, cpu = timed(tracer, lambda: dqn.run_training(self.factory, self.cfg))
        ratio = synthetic.greedy_return(self.mdp, net, self.cfg.gamma) / self.oracle
        steps = sum(s.steps for s in stats)
        unit = Unit(
            wall_s=wall, cpu_s=cpu, ops=steps, attempted=steps,
            fingerprint=digest(save_checkpoint(net, seed=self.cfg.seed, episodes=self.cfg.episodes),
                               dqn.stats_table(stats)),
            info={
                "env_steps_per_s": (steps / wall, "1/s"),
                "greedy_oracle_ratio": (ratio, "ratio"),
                "mean_return": (sum(s.episode_return for s in stats) / len(stats), "reward"),
            },
        )
        if ratio < SYNTH_MIN_RATIO:
            unit.problems.append(f"greedy/oracle ratio {ratio:.4f} below {SYNTH_MIN_RATIO}")
        return unit


class EvalLlm(Workload):
    """evaluate with 3 trials per question, a NavigatorPolicy, over the stub."""

    op = "question"
    prepare = staticmethod(navigator_checkpoint)

    def __init__(self, seed: int, stub: Stub):
        self.seed = seed
        self.questions = make_questions(random.Random(seed), EVAL_QUESTIONS, "E")
        net, _ = load_checkpoint(navigator_checkpoint())
        self.policy = evalkit.NavigatorPolicy(net)
        self.llm = Clients(stub, self.questions[0])

    def run_unit(self, tracer=None) -> Unit:
        self.llm.stub.reset()
        cfg = evalkit.EvalConfig(trials=EVAL_TRIALS, seed=self.seed)
        report, wall, cpu = timed(tracer, lambda: evalkit.evaluate(
            self.policy, self.questions, self.llm.chat, self.llm.prm, cfg))
        stats = self.llm.stub.stats()
        doc = report.to_jsonable()
        for q in doc["questions"]:
            del q["wall_time_s"]
        n = len(self.questions)
        trials = n * EVAL_TRIALS
        no_answer = sum(a is None for r in report.results for a in r.trial_answers)
        step_failures = _step_failures(stats)
        aborted = _aborted(stats, trials)
        undetermined = sum(r.final_answer is None for r in report.results)
        unit = Unit(
            wall_s=wall, cpu_s=cpu, ops=n, fingerprint=digest(json.dumps(doc, sort_keys=True)),
            attempted=trials, failed=max(0, aborted), stub_stats=stats,
            info={
                "questions_per_s": (n / wall, "1/s"),
                "chat_calls_per_question": (_served(stats, "/v1/chat/completions") / n, "calls"),
                "prm_calls_per_question": (_served(stats, "/score") / n, "calls"),
                "tokens_per_question": ((report.usage.input_tokens + report.usage.output_tokens) / n, "tokens"),
                "accuracy": (report.accuracy, "ratio"),
                "failed_frac": (undetermined / n, "ratio"),
            },
        )
        unit.problems += _missing_blocks(stats)
        if aborted < 0 or no_answer != step_failures + aborted:
            unit.problems.append(
                f"{no_answer} trials without an answer, {step_failures} step failures, {aborted} aborted")
        right = sum(_same_answer(r.final_answer, q.answer) for r, q in zip(report.results, self.questions))
        if right != report.correct or any(
            r.correct != _same_answer(r.final_answer, q.answer) for r, q in zip(report.results, self.questions)
        ):
            unit.problems.append(f"report counts {report.correct} correct, answers say {right}")
        return unit

    def close(self) -> None:
        self.llm.close()


class TrainLlm(Workload):
    """run_training with ReasoningEpisodes over a generated hard set, as cmd_train wires it."""

    op = "env step"

    def __init__(self, seed: int, stub: Stub):
        self.pool = make_questions(random.Random(seed), TRAIN_POOL, "T")
        # A fixed trainer seed samples the same question ids and exploration
        # draws for every seed, so env steps cost the same mix of calls.
        self.cfg = dqn.TrainerConfig(episodes=TRAIN_EPISODES, seed=0)
        self.env_cfg = EnvConfig()
        self.llm = Clients(stub, self.pool[0])

    def run_unit(self, tracer=None) -> Unit:
        self.llm.stub.reset()
        usage = UsageLog()

        def env_factory(rng):
            record = self.pool[rng.randrange(len(self.pool))]
            return ReasoningEpisode(
                problem=record.question, kind=record.kind, chat=self.llm.chat, prm=self.llm.prm,
                cfg=self.env_cfg, question_id=record.id, usage_log=usage,
            )

        (net, stats), wall, cpu = timed(tracer, lambda: dqn.run_training(env_factory, self.cfg))
        served = self.llm.stub.stats()
        steps = sum(s.steps for s in stats)
        episodes = len(stats)
        step_failures = _step_failures(served)
        tokens = usage.totals()
        aborted = _aborted(served, episodes)
        unit = Unit(
            wall_s=wall, cpu_s=cpu, ops=steps,
            fingerprint=digest(save_checkpoint(net, seed=self.cfg.seed, episodes=episodes), dqn.stats_table(stats)),
            attempted=episodes, failed=max(0, aborted), stub_stats=served,
            info={
                "env_steps_per_s": (steps / wall, "1/s"),
                "chat_calls_per_episode": (_served(served, "/v1/chat/completions") / episodes, "calls"),
                "prm_calls_per_episode": (_served(served, "/score") / episodes, "calls"),
                "tokens_per_episode": ((tokens.input_tokens + tokens.output_tokens) / episodes, "tokens"),
                "mean_return": (sum(s.episode_return for s in stats) / episodes, "reward"),
                "failed_frac": (step_failures / episodes, "ratio"),
            },
        )
        unit.problems += _missing_blocks(served)
        # Every env step either got its PRM score or failed; nothing else may end one.
        if aborted < 0 or steps != _served(served, "/score") + step_failures:
            unit.problems.append(
                f"{steps} env steps but {_served(served, '/score')} PRM scores and {step_failures} step failures")
        return unit

    def close(self) -> None:
        self.llm.close()


class MineLlm(Workload):
    """mine_hard: one short chat call per question, no PRM."""

    op = "question"

    def __init__(self, seed: int, stub: Stub):
        self.questions = make_questions(random.Random(seed), MINE_QUESTIONS, "M")
        self.llm = Clients(stub, self.questions[0])

    def run_unit(self, tracer=None) -> Unit:
        self.llm.stub.reset()
        usage = UsageLog()
        result, wall, cpu = timed(tracer, lambda: evalkit.mine_hard(self.questions, self.llm.chat, usage_log=usage))
        stats = self.llm.stub.stats()
        n = len(self.questions)
        hard = [r.id for r in result.hard]
        tokens = usage.totals()
        unit = Unit(
            wall_s=wall, cpu_s=cpu, ops=n, fingerprint=digest(json.dumps([hard, list(result.undetermined)])),
            attempted=n, failed=len(result.undetermined), stub_stats=stats,
            info={
                "questions_per_s": (n / wall, "1/s"),
                "chat_calls_per_question": (_served(stats, "/v1/chat/completions") / n, "calls"),
                "tokens_per_question": ((tokens.input_tokens + tokens.output_tokens) / n, "tokens"),
                "failed_frac": (len(result.undetermined) / n, "ratio"),
                "hard_frac": (len(hard) / n, "ratio"),
            },
        )
        if sorted(hard) != stats["mining_wrong"]:
            unit.problems.append("hard set differs from the questions the stub answered wrongly")
        return unit

    def close(self) -> None:
        self.llm.close()


WORKLOADS = {"synth_train": SynthTrain, "eval_llm": EvalLlm, "train_llm": TrainLlm, "mine_llm": MineLlm}
