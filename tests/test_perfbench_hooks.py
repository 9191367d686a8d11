"""What perfbench/ reads of qnav, so a rename or deletion fails here rather
than only in a benchmark run.

perfbench's tracer wraps qnav functions and methods by name, its workloads
import qnav names and build the wire clients, and eval_llm drops wall_time_s
from each report question before fingerprinting it.
"""

import importlib
from pathlib import Path

import pytest
import requests

from conftest import completion, standard_rules
from qnav import evalkit
from qnav.gateway import (
    ChatRequest,
    OpenAIChatBackend,
    PrmWireConfig,
    ScriptedChatBackend,
    ScriptedPrm,
    WireConfig,
    WirePrm,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")  # raises if a qnav name it imports is gone


@pytest.fixture
def tracing(workloads):
    return importlib.import_module("tracing")


def test_every_traced_call_site_exists(tracing):
    patches = [(owner, attr) for owner, attr, _make in tracing.Tracer()._patches()]
    assert patches
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in patches if attr not in owner.__dict__]
    assert not missing


def test_report_questions_carry_wall_time(sample_questions):
    report = evalkit.evaluate(
        evalkit.FixedSequencePolicy(),
        list(sample_questions),
        ScriptedChatBackend(standard_rules()),
        ScriptedPrm(default=0.5),
        evalkit.EvalConfig(trials=2),
        offline=True,
    )
    questions = report.to_jsonable()["questions"]
    assert len(questions) == len(sample_questions)
    assert all("wall_time_s" in q for q in questions)


def stub_reply(posted):
    """Answers each POST by path as perfbench's stub does: a completion or a score."""
    if posted.path.endswith("/chat/completions"):
        return 200, completion("The answer is 7.", 3, 4)
    return 200, {"score": 0.75}


def test_wire_clients_build_as_the_workloads_do(workloads, loopback):
    # As workloads.Clients builds them: one plain session given to both, and no cap on the PRM.
    loopback.handler = stub_reply
    session = requests.Session()
    chat = OpenAIChatBackend(WireConfig(
        base_url=loopback.url + "/v1", model="stub", backoff_base_s=workloads.BACKOFF_BASE_S, timeout_s=30.0,
    ), session=session)
    prm = WirePrm(PrmWireConfig(
        base_url=loopback.url, backoff_base_s=workloads.BACKOFF_BASE_S, timeout_s=30.0,
    ), session=session)
    assert chat.complete(ChatRequest("What is 3 + 4?")).text == "The answer is 7."
    assert prm.score("What is 3 + 4?", "Step 1: warm-up") == 0.75
    assert loopback.paths() == ["/v1/chat/completions", "/score"]
    assert loopback.connections == 1  # both clients POST through the session's one pool for the host
