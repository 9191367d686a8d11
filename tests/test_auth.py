"""Rejected credentials stop a run: a 401/403 from the chat endpoint or the
PRM is a GatewayAuthError that no episode, trial or mined question absorbs.
A dead endpoint (retries used up) stays a failure of that one question."""

import pytest
import requests

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


class StatusEndpoint:
    """Makes the loopback endpoint answer every POST with one HTTP status; posts counts them."""

    def __init__(self, loopback, status_code=401):
        self.loopback = loopback
        self.url = loopback.url
        loopback.handler = lambda posted: (status_code, "")

    @property
    def posts(self):
        return len(self.loopback.received)


def questions(n=6):
    return [QuestionRecord(f"q{i}", f"What is 3 + {i}?", str(3 + i), NUM) for i in range(n)]


def wire_chat(endpoint, max_in_flight=2, **cfg):
    return OpenAIChatBackend(
        WireConfig(base_url=endpoint.url + "/v1", model="m", max_in_flight=max_in_flight, **cfg)
    )


def denying_prm(loopback):
    return WirePrm(PrmWireConfig(base_url=StatusEndpoint(loopback, 401).url), session=requests.Session())


@pytest.mark.parametrize("status", [401, 403])
def test_mining_stops_on_rejected_credentials(loopback, status):
    endpoint = StatusEndpoint(loopback, status)
    with pytest.raises(GatewayAuthError):
        mine_hard(questions(), wire_chat(endpoint))
    assert endpoint.posts <= 2  # no question starts after the first rejection on each worker


def test_evaluation_stops_on_rejected_credentials(loopback):
    with pytest.raises(GatewayAuthError):
        evaluate(FixedSequencePolicy(), questions(), wire_chat(StatusEndpoint(loopback)), ScriptedPrm(),
                 EvalConfig(trials=2))


@pytest.mark.parametrize("max_in_flight", [1, 2])
def test_training_stops_on_rejected_credentials(loopback, max_in_flight):
    chat = wire_chat(StatusEndpoint(loopback), max_in_flight=max_in_flight)

    def env_factory(rng):
        return ReasoningEpisode(problem="What is 3 + 4?", kind=NUM, chat=chat, prm=ScriptedPrm())

    with pytest.raises(GatewayAuthError):
        dqn.run_training(env_factory, dqn.TrainerConfig(episodes=5, batch_size=2, buffer_capacity=4))


@pytest.mark.parametrize("action", [ActionKind.REASON_ONE_STEP, ActionKind.TERMINATE],
                         ids=["scored-beside-self-eval", "scored-on-the-step-thread"])
def test_prm_rejection_inside_a_step_propagates(loopback, action):
    episode = ReasoningEpisode(
        problem="What is 3 + 4?", kind=NUM, chat=ScriptedChatBackend(standard_rules()), prm=denying_prm(loopback)
    )
    episode.reset()
    with pytest.raises(GatewayAuthError):
        episode.step(action)


def test_training_stops_on_a_rejected_prm(loopback):
    chat = ScriptedChatBackend(standard_rules())
    prm = denying_prm(loopback)

    def env_factory(rng):
        return ReasoningEpisode(problem="What is 3 + 4?", kind=NUM, chat=chat, prm=prm)

    with pytest.raises(GatewayAuthError):
        dqn.run_training(env_factory, dqn.TrainerConfig(episodes=5, batch_size=2, buffer_capacity=4))


def test_a_dead_endpoint_fails_one_question_at_a_time(loopback):
    endpoint = StatusEndpoint(loopback, 503)
    chat = wire_chat(endpoint, max_attempts=2, backoff_base_s=0.0)
    records = questions(3)
    result = mine_hard(records, chat)
    assert result.undetermined == tuple(r.id for r in records)
    report = evaluate(FixedSequencePolicy(), records, chat, ScriptedPrm(), EvalConfig(trials=1))
    assert report.correct == 0 and all(q.trial_answers == (None,) for q in report.results)
    assert endpoint.posts == 2 * (len(records) + len(records))
