"""Datasets, hard-problem mining, inference policies, and the eval harness.

Datasets are JSONL files, one record per line with fields id, question,
answer, kind. Mining keeps the questions a direct prompt gets wrong;
evaluation runs several independent trajectories per question and votes.
Mining runs its calls on up to chat.max_in_flight threads; evaluation runs
its trials on up to episodes_in_flight(chat) = 3C - 2 threads for a chat cap
of C, so trials waiting on the PRM or the policy leave no chat slot idle,
while the backend still holds its calls at C. Both assemble the results in
dataset order.

Eval trials only navigate: no policy is asked once only Terminate is legal,
and the state after the block that forces Terminate is not self-evaluated
(see env). Training still self-evaluates it.
"""

from __future__ import annotations

import json
import logging
import random
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple, Protocol, Sequence, TypeVar

from .answers import answers_equivalent, extract_answer, majority_vote
from .core import ActionKind, DatasetKind, EpisodeFailure, StateVector, atomic_write, encode_state
from .dqn import masked_argmax
from .env import ONLY_TERMINATE, EnvConfig, ReasoningEpisode, episodes_in_flight
from .gateway import ChatBackend, ChatExchange, ChatRequest, GatewayAuthError, GatewayError, PrmBackend, Usage, UsageLog
from .net import DuelingNet
from .prompts import render_mining

log = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

class DatasetError(Exception):
    """A dataset file is malformed; the message carries the line number."""


@dataclass(frozen=True)
class QuestionRecord:
    id: str
    question: str
    answer: str
    kind: DatasetKind


DATASET_FIELDS = tuple(f.name for f in fields(QuestionRecord))


def load_dataset(path: str | Path) -> list[QuestionRecord]:
    """Read a JSONL dataset, validating per line and rejecting duplicate ids."""
    records: list[QuestionRecord] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(doc, dict):
                raise DatasetError(f"{path}: line {lineno}: record is not an object")
            missing = [k for k in DATASET_FIELDS if k not in doc]
            if missing:
                raise DatasetError(f"{path}: line {lineno}: missing fields {missing}")
            try:
                kind = DatasetKind(doc["kind"])
            except ValueError as exc:
                raise DatasetError(f"{path}: line {lineno}: unknown kind {doc['kind']!r}") from exc
            qid = str(doc["id"])
            if qid in seen:
                raise DatasetError(f"{path}: line {lineno}: duplicate id {qid!r}")
            seen.add(qid)
            question = str(doc["question"])
            if not question.strip():
                raise DatasetError(f"{path}: line {lineno}: empty question")
            records.append(QuestionRecord(id=qid, question=question, answer=str(doc["answer"]), kind=kind))
    return records


def save_dataset(records: Sequence[QuestionRecord], path: str | Path) -> None:
    with atomic_write(path) as fh:
        for r in records:
            fh.write(json.dumps(asdict(r), sort_keys=True) + "\n")


# -- concurrency ---------------------------------------------------------------


def _map_in_order(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """fn over items on up to `workers` threads; the results in item order.

    With one worker every call runs on the calling thread, in order. If a
    call raises, or the caller is interrupted (Ctrl-C), no further call
    starts, the queued ones are cancelled, the running ones finish, and the
    exception of the earliest failed item propagates unchanged.
    """
    if workers <= 1:
        return [fn(item) for item in items]
    stop = threading.Event()

    def job(item: T) -> R | None:
        if stop.is_set():
            return None
        try:
            return fn(item)
        except BaseException:
            stop.set()
            raise

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(job, item) for item in items]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)
    # Jobs start in item order, so every skipped or cancelled one comes
    # after the failure that stopped the pool.
    return [f.result() for f in futures]


# -- mining --------------------------------------------------------------------


@dataclass(frozen=True)
class MiningResult:
    """Hard subset plus bookkeeping; undetermined questions are excluded."""

    hard: tuple[QuestionRecord, ...]
    undetermined: tuple[str, ...]
    total: int

    @property
    def proportion(self) -> float:
        determined = self.total - len(self.undetermined)
        return len(self.hard) / determined if determined else 0.0


def mine_hard(
    dataset: Sequence[QuestionRecord],
    chat: ChatBackend,
    *,
    usage_log: UsageLog | None = None,
) -> MiningResult:
    """Keep the questions whose directly-prompted answer is wrong or missing.

    A gateway error leaves its question undetermined, except GatewayAuthError,
    which stops the run and propagates.
    """

    def ask(record: QuestionRecord) -> ChatExchange | None:
        try:
            return chat.complete(ChatRequest(prompt=render_mining(record.question, record.kind)))
        except GatewayAuthError:
            raise
        except GatewayError as exc:
            log.warning("question %s undetermined: %s", record.id, exc)
            return None

    hard: list[QuestionRecord] = []
    undetermined: list[str] = []
    for record, exchange in zip(dataset, _map_in_order(ask, dataset, chat.max_in_flight)):
        if exchange is None:
            undetermined.append(record.id)
            continue
        if usage_log is not None:
            usage_log.record(exchange)
        extracted = extract_answer(exchange.text, record.kind)
        if extracted is None or not answers_equivalent(extracted, record.answer, record.kind):
            hard.append(record)
    return MiningResult(hard=tuple(hard), undetermined=tuple(undetermined), total=len(dataset))


# -- policies ------------------------------------------------------------------


class Policy(Protocol):
    def select(self, state: StateVector, legal: Sequence[ActionKind], actions_taken: int) -> ActionKind:
        """One of legal, which lists the legal actions in index order."""

    def for_trial(self, question_index: int, trial: int) -> "Policy":
        """The policy that drives one eval trial; trials may run concurrently."""


class NavigatorPolicy:
    """Greedy over the trained net's Q-values, masked to the legal set."""

    def __init__(self, net: DuelingNet):
        self.net = net

    def select(self, state: StateVector, legal: Sequence[ActionKind], actions_taken: int) -> ActionKind:
        return masked_argmax(self.net.forward(encode_state(state)), legal)

    def for_trial(self, question_index: int, trial: int) -> "NavigatorPolicy":
        return self


class FixedSequencePolicy:
    """Decompose, reason, refine, then terminate; masking overrides with Terminate."""

    SCRIPT = (ActionKind.DECOMPOSE, ActionKind.REASON_ONE_STEP, ActionKind.REFINE)

    def select(self, state: StateVector, legal: Sequence[ActionKind], actions_taken: int) -> ActionKind:
        wanted = self.SCRIPT[actions_taken] if actions_taken < len(self.SCRIPT) else ActionKind.TERMINATE
        return wanted if wanted in legal else ActionKind.TERMINATE

    def for_trial(self, question_index: int, trial: int) -> "FixedSequencePolicy":
        return self


class RandomPolicy:
    """Uniform over the legal set, seeded."""

    def __init__(self, seed: int | str = 0):
        self.seed = seed
        self.rng = random.Random(seed)

    def select(self, state: StateVector, legal: Sequence[ActionKind], actions_taken: int) -> ActionKind:
        return legal[self.rng.randrange(len(legal))]

    def for_trial(self, question_index: int, trial: int) -> "RandomPolicy":
        # random.Random hashes a str seed with SHA-512, so a trial's draws
        # depend on (seed, question index, trial) only: not on thread order
        # and not on PYTHONHASHSEED.
        return RandomPolicy(f"{self.seed}:{question_index}:{trial}")


def run_episode(episode: ReasoningEpisode, policy: Policy) -> None:
    """Drive one question to termination under a policy.

    A forced Terminate is taken without asking the policy, so a policy never
    sees the unevaluated state a navigate-only step leaves before it.
    """
    state = episode.reset()
    done = False
    while not done:
        assert episode.ctx is not None
        legal = episode.legal_actions()
        if legal == ONLY_TERMINATE:
            action = ActionKind.TERMINATE
        else:
            action = policy.select(state, legal, episode.ctx.actions_taken)
        state, _, done = episode.step(action)


# -- evaluation ----------------------------------------------------------------


@dataclass(frozen=True)
class EvalConfig:
    trials: int = 3  # independent trajectories per question (self-consistency)
    seed: int = 0
    env: EnvConfig = EnvConfig()

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials: need at least one, got {self.trials}")


class _TrialOutcome(NamedTuple):
    started: float  # time.monotonic() at the trial's start
    ended: float
    answer: str | None  # None when the episode failed or extracted nothing
    actions: tuple[str, ...]  # action names; empty when the episode failed
    failed: bool = False  # the episode raised EpisodeFailure


@dataclass(frozen=True)
class QuestionResult:
    id: str
    final_answer: str | None
    correct: bool
    actions: tuple[str, ...]  # action names of the trial that produced the winner
    trial_answers: tuple[str | None, ...]  # None where a trial failed or extracted nothing
    failed_trials: int  # trials that ended in EpisodeFailure
    tie_broken: bool
    input_tokens: int
    output_tokens: int
    wall_time_s: float


@dataclass(frozen=True)
class RunReport:
    results: tuple[QuestionResult, ...]
    correct: int
    total: int
    usage: Usage

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    @property
    def failed_trials(self) -> int:
        return sum(r.failed_trials for r in self.results)

    def to_jsonable(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "correct": self.correct,
            "total": self.total,
            "usage": asdict(self.usage),
            "questions": [asdict(r) for r in self.results],
        }


def evaluate(
    policy: Policy,
    dataset: Sequence[QuestionRecord],
    chat: ChatBackend,
    prm: PrmBackend,
    cfg: EvalConfig = EvalConfig(),
    *,
    offline: bool = False,
) -> RunReport:
    """Run trials per question, vote over extracted answers, score accuracy.

    The (question, trial) episodes are navigate-only and run on up to
    episodes_in_flight(chat) threads, each under policy.for_trial(question
    index, trial). A question's wall_time_s runs from its first trial's
    start to its last trial's end, so it includes time its trials waited for
    a chat slot; offline=True zeroes it so fully scripted runs produce
    byte-identical reports. Each question's trials record their tokens in
    that question's own UsageLog; the run's usage is the sum over questions.
    """
    usage_logs = [UsageLog() for _ in dataset]

    def run_trial(job: tuple[int, int]) -> _TrialOutcome:
        index, trial = job
        record = dataset[index]
        started = time.monotonic()
        episode = ReasoningEpisode(
            problem=record.question,
            kind=record.kind,
            chat=chat,
            prm=prm,
            cfg=cfg.env,
            question_id=record.id,
            usage_log=usage_logs[index],
            navigate_only=True,
        )
        try:
            run_episode(episode, policy.for_trial(index, trial))
        except EpisodeFailure as exc:
            log.warning("question %s trial %d failed: %s", record.id, trial, exc)
            return _TrialOutcome(started, time.monotonic(), None, (), failed=True)
        actions = tuple(a.name for a in episode.actions)
        return _TrialOutcome(started, time.monotonic(), episode.final_answer, actions)

    jobs = [(index, trial) for index in range(len(dataset)) for trial in range(cfg.trials)]
    outcomes = _map_in_order(run_trial, jobs, episodes_in_flight(chat))
    results: list[QuestionResult] = []
    n_correct = 0
    for index, record in enumerate(dataset):
        trials = outcomes[index * cfg.trials:(index + 1) * cfg.trials]
        answered = [t for t in trials if t.answer is not None]
        voted = majority_vote([t.answer for t in answered], record.kind, seed=cfg.seed + index) if answered else None
        if voted is not None:
            winner, actions = voted.winner, answered[voted.index].actions
        else:  # no answer to vote on: the actions of the first trial that acted
            winner, actions = None, next((t.actions for t in trials if t.actions), ())
        correct = winner is not None and answers_equivalent(winner, record.answer, record.kind)
        n_correct += int(correct)
        q_usage = usage_logs[index].totals()
        wall_time_s = max(t.ended for t in trials) - min(t.started for t in trials)
        results.append(
            QuestionResult(
                id=record.id,
                final_answer=winner,
                correct=correct,
                actions=actions,
                trial_answers=tuple(t.answer for t in trials),
                failed_trials=sum(t.failed for t in trials),
                tie_broken=voted.tie_broken if voted is not None else False,
                input_tokens=q_usage.input_tokens,
                output_tokens=q_usage.output_tokens,
                wall_time_s=0.0 if offline else wall_time_s,
            )
        )
    return RunReport(
        results=tuple(results),
        correct=n_correct,
        total=len(dataset),
        usage=sum((question_log.totals() for question_log in usage_logs), Usage()),
    )
