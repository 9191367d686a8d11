"""What perfbench/ reads of qnav, so a rename or deletion fails here rather
than only in a benchmark run.

perfbench's tracer wraps qnav functions and methods by name, its workloads
import qnav names, and eval_llm drops wall_time_s from each report question
before fingerprinting it.
"""

import importlib
from pathlib import Path

import pytest

from conftest import standard_rules
from qnav import evalkit
from qnav.gateway import ScriptedChatBackend, ScriptedPrm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")  # raises if a qnav name it imports is gone
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
