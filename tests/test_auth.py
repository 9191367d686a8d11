"""Rejected credentials stop a run: a 401/403 from the chat endpoint or the
PRM is a GatewayAuthError that no episode, trial or mined question absorbs.
A dead endpoint (retries used up) stays a failure of that one question."""

import threading

import pytest

from conftest import standard_rules
from qnav import dqn
from qnav.core import ActionKind, DatasetKind
from qnav.env import ReasoningEpisode
from qnav.evalkit import EvalConfig, FixedSequencePolicy, QuestionRecord, evaluate, mine_hard
from qnav.gateway import (
    GatewayAuthError,
    OpenAIChatBackend,
    PrmWireConfig,
    ScriptedChatBackend,
    ScriptedPrm,
    WireConfig,
    WirePrm,
)

NUM = DatasetKind.ELEMENTARY_MATH_NUMERIC


class _Status:
    def __init__(self, status_code):
        self.status_code = status_code
        self.text = ""


class StatusSession:
    """Stands in for requests.Session: answers every POST with one HTTP status."""

    def __init__(self, status_code=401):
        self.status_code = status_code
        self.posts = 0
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        with self._lock:
            self.posts += 1
        return _Status(self.status_code)


def questions(n=6):
    return [QuestionRecord(f"q{i}", f"What is 3 + {i}?", str(3 + i), NUM) for i in range(n)]


def wire_chat(session, max_in_flight=2, **cfg):
    return OpenAIChatBackend(
        WireConfig(base_url="http://unit.test/v1", model="m", max_in_flight=max_in_flight, **cfg), session=session
    )


def denying_prm():
    return WirePrm(PrmWireConfig(base_url="http://unit.test"), session=StatusSession(401))


@pytest.mark.parametrize("status", [401, 403])
def test_mining_stops_on_rejected_credentials(status):
    session = StatusSession(status)
    with pytest.raises(GatewayAuthError):
        mine_hard(questions(), wire_chat(session))
    assert session.posts <= 2  # no question starts after the first rejection on each worker


def test_evaluation_stops_on_rejected_credentials():
    with pytest.raises(GatewayAuthError):
        evaluate(FixedSequencePolicy(), questions(), wire_chat(StatusSession()), ScriptedPrm(), EvalConfig(trials=2))


@pytest.mark.parametrize("max_in_flight", [1, 2])
def test_training_stops_on_rejected_credentials(max_in_flight):
    chat = wire_chat(StatusSession(), max_in_flight=max_in_flight)

    def env_factory(rng):
        return ReasoningEpisode(problem="What is 3 + 4?", kind=NUM, chat=chat, prm=ScriptedPrm())

    with pytest.raises(GatewayAuthError):
        dqn.run_training(env_factory, dqn.TrainerConfig(episodes=5, batch_size=2, buffer_capacity=4))


@pytest.mark.parametrize("action", [ActionKind.REASON_ONE_STEP, ActionKind.TERMINATE],
                         ids=["scored-beside-self-eval", "scored-on-the-step-thread"])
def test_prm_rejection_inside_a_step_propagates(action):
    episode = ReasoningEpisode(
        problem="What is 3 + 4?", kind=NUM, chat=ScriptedChatBackend(standard_rules()), prm=denying_prm()
    )
    episode.reset()
    with pytest.raises(GatewayAuthError):
        episode.step(action)


def test_training_stops_on_a_rejected_prm():
    chat = ScriptedChatBackend(standard_rules())
    prm = denying_prm()

    def env_factory(rng):
        return ReasoningEpisode(problem="What is 3 + 4?", kind=NUM, chat=chat, prm=prm)

    with pytest.raises(GatewayAuthError):
        dqn.run_training(env_factory, dqn.TrainerConfig(episodes=5, batch_size=2, buffer_capacity=4))


def test_a_dead_endpoint_fails_one_question_at_a_time():
    session = StatusSession(503)
    chat = wire_chat(session, max_attempts=2, backoff_base_s=0.0)
    records = questions(3)
    result = mine_hard(records, chat)
    assert result.undetermined == tuple(r.id for r in records)
    report = evaluate(FixedSequencePolicy(), records, chat, ScriptedPrm(), EvalConfig(trials=1))
    assert report.correct == 0 and all(q.trial_answers == (None,) for q in report.results)
    assert session.posts == 2 * (len(records) + len(records))
