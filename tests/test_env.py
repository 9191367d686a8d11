"""Reasoning environment tests: masking, block pipelines, rewards, episodes."""

import hashlib
import json
import threading
from types import SimpleNamespace

import pytest

from qnav.core import ActionKind, DatasetKind, EpisodeFailure, StateVector
from qnav.env import (
    ALL_BLOCKS,
    EnvConfig,
    IllegalActionError,
    ReasoningEpisode,
    StepFailureError,
    episodes_in_flight,
    initial_context,
    legal_action_set,
    legal_actions,
    reset,
    step,
)
from qnav.gateway import GatewayError, ScriptedChatBackend, ScriptedPrm, ScriptedRule, Usage, UsageLog
from qnav.prompts import MalformedEvaluationError, format_steps

from conftest import EVAL_RESPONSE, PLANS_RESPONSE, SUBTASKS_RESPONSE, block_calls, standard_rules

R = ActionKind.REASON_ONE_STEP
DEC = ActionKind.DECOMPOSE
DEB = ActionKind.DEBATE
REF = ActionKind.REFINE
T = ActionKind.TERMINATE

EVAL_STATE = StateVector(scores=(2, 3, 2, 3, 2, 1, 2))
NUM = DatasetKind.ELEMENTARY_MATH_NUMERIC


def make_ctx(chat, cfg=EnvConfig()):
    return reset("What is 3 + 4?", NUM, chat, cfg)


class TestMasking:
    def test_truth_table(self):
        table = {
            (False, 0): {R, DEC, DEB, T},
            (False, 1): {R, DEC, DEB, REF, T},
            (False, 2): {R, DEC, DEB, REF, T},
            (False, 3): {R, DEC, DEB, REF, T},
            (False, 4): {T},
            (True, 0): {T},
            (True, 1): {T},
            (True, 2): {T},
            (True, 3): {T},
            (True, 4): {T},
        }
        for (answered, taken), want in table.items():
            got = legal_action_set(answered, taken)
            assert got == frozenset(want), (answered, taken)

    def test_refine_hidden_only_at_start(self):
        assert REF not in legal_action_set(False, 0)
        assert REF in legal_action_set(False, 1)

    def test_disabled_blocks_are_masked(self):
        enabled = frozenset({R, T})
        assert legal_action_set(False, 1, enabled=enabled) == frozenset({R, T})

    def test_shorter_budget_forces_terminate_sooner(self):
        assert legal_action_set(False, 2, max_actions=3) == frozenset({T})
        assert legal_action_set(False, 1, max_actions=3) >= frozenset({R, T})

    def test_context_wrapper_agrees(self, chat):
        ctx, _, _ = make_ctx(chat)
        assert legal_actions(ctx, EnvConfig()) == legal_action_set(False, 0)


class TestEnvConfig:
    def test_requires_terminate_enabled(self):
        with pytest.raises(ValueError):
            EnvConfig(enabled_blocks=frozenset({R, DEC}))

    def test_requires_plain_reasoning_enabled(self):
        with pytest.raises(ValueError):
            EnvConfig(enabled_blocks=frozenset({DEC, T}))

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            EnvConfig(max_actions=0)

    def test_default_enables_everything(self):
        assert EnvConfig().enabled_blocks == ALL_BLOCKS == frozenset(ActionKind)


class TestReset:
    def test_initial_state_from_self_eval(self, chat):
        ctx, state, calls = make_ctx(chat)
        assert state == EVAL_STATE
        assert ctx.steps == ()
        assert ctx.actions_taken == 0
        assert [c.stage for c in calls] == ["self_eval"]

    def test_empty_question_rejected(self, chat):
        with pytest.raises(ValueError):
            reset("   ", NUM, chat)

    def test_retry_recovers_from_one_bad_evaluation(self, prm):
        rules = [ScriptedRule("Please evaluate the current step", ["hmm.", EVAL_RESPONSE])]
        chat = ScriptedChatBackend(rules)
        _, state, calls = make_ctx(chat)
        assert state == EVAL_STATE
        assert [c.stage for c in calls] == ["self_eval", "self_eval"]

    def test_two_bad_evaluations_raise(self):
        rules = [ScriptedRule("Please evaluate the current step", "hmm, unclear.")]
        chat = ScriptedChatBackend(rules)
        with pytest.raises(MalformedEvaluationError):
            make_ctx(chat)

    def test_partial_then_full_prefers_full(self):
        rules = [
            ScriptedRule(
                "Please evaluate the current step",
                ["A1 score=1 reason=only one", EVAL_RESPONSE],
            )
        ]
        _, state, _ = make_ctx(ScriptedChatBackend(rules))
        assert state == EVAL_STATE

    def test_equally_partial_retry_wins(self):
        rules = [
            ScriptedRule(
                "Please evaluate the current step",
                ["A1 score=1 x", "A1 score=3 x"],
            )
        ]
        _, state, _ = make_ctx(ScriptedChatBackend(rules))
        assert state.scores[0] == 3


class TestReasonOneStep:
    def test_appends_single_step(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, R, chat, prm)
        assert out.ctx.steps == ("We compute 3+4=7.",)
        assert out.done is False
        assert out.executed is R
        assert [c.stage for c in block_calls(out)] == ["reason_one_step"]
        assert [c.stage for c in out.transcript] == ["reason_one_step", "self_eval"]

    def test_reward_comes_from_prm_on_numbered_reasoning(self, chat):
        seen = {}

        class RecordingPrm:
            def score(self, problem, reasoning):
                seen["problem"] = problem
                seen["reasoning"] = reasoning
                return 0.765

        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, R, chat, RecordingPrm())
        assert out.reward == 0.765
        assert seen["problem"] == "What is 3 + 4?"
        assert seen["reasoning"] == "Step 1: We compute 3+4=7."

    def test_answer_detection_flips_mask(self, prm):
        rules = list(standard_rules())
        rules[1] = ScriptedRule("reason exactly ONE more step", "The answer is 9.")
        chat = ScriptedChatBackend(rules)
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, R, chat, prm)
        assert out.ctx.answer_present is True
        assert legal_actions(out.ctx, EnvConfig()) == frozenset({T})

    def test_plain_step_does_not_flip_mask(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, R, chat, prm)
        assert out.ctx.answer_present is False


class TestDecompose:
    def test_two_subtasks_cost_four_block_calls(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, DEC, chat, prm)
        stages = [c.stage for c in block_calls(out)]
        assert stages == [
            "decompose_split",
            "decompose_execute",
            "decompose_execute",
            "decompose_summary",
        ]

    def test_only_summary_enters_context(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, DEC, chat, prm)
        assert out.ctx.steps == ("The sum of 3 and 4 is 7.",)
        assert all("Subtask result" not in s for s in out.ctx.steps)

    def test_execute_prompts_accumulate_prior_results(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, DEC, chat, prm)
        executes = [c for c in block_calls(out) if c.stage == "decompose_execute"]
        first, second = (c.exchange.request.prompt for c in executes)
        assert "Result of Subtask1" not in first
        assert "Result of Subtask1: Subtask result: the sum is 7." in second
        assert "Please conduct the following Subtask2" in second

    def test_subtask_cap_limits_execution(self, prm):
        many = "\n".join(f"### Subtask{i}: part {i}" for i in range(1, 9))
        rules = list(standard_rules())
        rules[2] = ScriptedRule("Please decompose the current task into subtasks", many)
        chat = ScriptedChatBackend(rules)
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, DEC, chat, prm)
        executes = [c for c in block_calls(out) if c.stage == "decompose_execute"]
        assert len(executes) == 6

    def test_split_retry_then_failure(self, prm):
        rules = list(standard_rules())
        rules[2] = ScriptedRule(
            "Please decompose the current task into subtasks", "I would rather not."
        )
        chat = ScriptedChatBackend(rules)
        ctx, state, _ = make_ctx(chat)
        with pytest.raises(StepFailureError):
            step(ctx, state, DEC, chat, prm)
        splits = [
            e for e in chat.call_log if "decompose the current task" in e.request.prompt
        ]
        assert len(splits) == 2  # one retry before giving up

    def test_split_retry_recovers(self, prm):
        rules = list(standard_rules())
        rules[2] = ScriptedRule(
            "Please decompose the current task into subtasks",
            ["no markers here", "### Subtask1: just one"],
        )
        chat = ScriptedChatBackend(rules)
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, DEC, chat, prm)
        stages = [c.stage for c in block_calls(out)]
        assert stages.count("decompose_split") == 2
        assert stages.count("decompose_execute") == 1


class TestDebate:
    def test_exactly_three_block_calls(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, DEB, chat, prm)
        assert [c.stage for c in block_calls(out)] == [
            "debate_plans",
            "debate_choice",
            "debate_execute",
        ]

    def test_only_final_reasoning_enters_context(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, DEB, chat, prm)
        assert out.ctx.steps == ("Counting up from 3 by 4 gives 7.",)

    def test_chosen_plan_feeds_execution(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, DEB, chat, prm)
        execute = block_calls(out)[-1].exchange.request.prompt
        assert "Count up from the larger number." in execute
        assert "Add the numbers directly." not in execute

    def test_choice_prompt_carries_raw_plans_text(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, DEB, chat, prm)
        choice = block_calls(out)[1].exchange.request.prompt
        assert PLANS_RESPONSE in choice

    def test_unparseable_choice_falls_back_to_first_plan(self, prm):
        rules = list(standard_rules())
        rules[6] = ScriptedRule("tell which one is most promising", "They all seem fine.")
        chat = ScriptedChatBackend(rules)
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, DEB, chat, prm)
        stages = [c.stage for c in block_calls(out)]
        assert stages.count("debate_choice") == 2  # retry before the fallback
        execute = block_calls(out)[-1].exchange.request.prompt
        assert "Add the numbers directly." in execute

    def test_plans_retry_recovers(self, prm):
        rules = list(standard_rules())
        rules[5] = ScriptedRule(
            "propose three different alternative plans", ["plan stuff, unformatted", PLANS_RESPONSE]
        )
        chat = ScriptedChatBackend(rules)
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, DEB, chat, prm)
        assert [c.stage for c in block_calls(out)] == [
            "debate_plans",
            "debate_plans",
            "debate_choice",
            "debate_execute",
        ]
        choice = block_calls(out)[2].exchange.request.prompt
        assert PLANS_RESPONSE in choice
        assert "unformatted" not in choice

    def test_choice_retry_recovers(self, prm):
        rules = list(standard_rules())
        rules[6] = ScriptedRule(
            "tell which one is most promising",
            ["The most promising plan is Plan7.", "The most promising plan is Plan3: it is visual."],
        )
        chat = ScriptedChatBackend(rules)
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, DEB, chat, prm)
        stages = [c.stage for c in block_calls(out)]
        assert stages == ["debate_plans", "debate_choice", "debate_choice", "debate_execute"]
        execute = block_calls(out)[-1].exchange.request.prompt
        assert "Use a number line." in execute
        assert "Add the numbers directly." not in execute

    def test_unparseable_plans_fail_the_step(self, prm):
        rules = list(standard_rules())
        rules[5] = ScriptedRule(
            "propose three different alternative plans", "plan stuff, unformatted"
        )
        chat = ScriptedChatBackend(rules)
        ctx, state, _ = make_ctx(chat)
        with pytest.raises(StepFailureError):
            step(ctx, state, DEB, chat, prm)


class TestRefine:
    def test_remapped_to_reasoning_at_start(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, REF, chat, prm)
        assert out.executed is R
        assert out.ctx.steps == ("We compute 3+4=7.",)

    def test_runs_normally_after_first_step(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        mid = step(ctx, state, R, chat, prm)
        out = step(mid.ctx, mid.state, REF, chat, prm)
        assert out.executed is REF
        assert out.ctx.steps[-1] == "Checked: the arithmetic is consistent."


class TestTerminate:
    def test_terminal_step_contract(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, T, chat, prm)
        assert out.done is True
        assert out.ctx.steps == ("The answer is 7.",)
        assert out.ctx.answer_present is True
        assert out.state == state  # echoed, no fresh evaluation
        assert [c.stage for c in out.transcript] == ["terminate"]

    def test_final_step_is_scored(self, chat):
        prm = ScriptedPrm([("The answer is 7.", 0.9)], default=0.1)
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, T, chat, prm)
        assert out.reward == 0.9

    def test_out_of_range_reward_clamped(self, chat):
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, T, chat, ScriptedPrm(default=1.3))
        assert out.reward == 1.0


class TestIllegalActions:
    def test_non_terminate_after_answer(self, chat, prm):
        rules = list(standard_rules())
        rules[1] = ScriptedRule("reason exactly ONE more step", "The answer is 9.")
        backend = ScriptedChatBackend(rules)
        ctx, state, _ = make_ctx(backend)
        out = step(ctx, state, R, backend, prm)
        with pytest.raises(IllegalActionError):
            step(out.ctx, out.state, R, backend, prm)

    def test_non_terminate_at_budget_end(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        for _ in range(4):
            out = step(ctx, state, R, chat, prm)
            ctx, state = out.ctx, out.state
        with pytest.raises(IllegalActionError):
            step(ctx, state, DEB, chat, prm)

    def test_disabled_block_is_illegal(self, chat, prm):
        cfg = EnvConfig(enabled_blocks=frozenset({R, T}))
        ctx, state, _ = make_ctx(chat, cfg)
        with pytest.raises(IllegalActionError):
            step(ctx, state, DEC, chat, prm, cfg)


class TestRenderReasoning:
    def test_numbered_steps_without_problem(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, R, chat, prm)
        text = format_steps(out.ctx)
        assert text == "Step 1: We compute 3+4=7."
        assert "What is 3 + 4?" not in text

    def test_empty_context_renders_empty(self):
        assert format_steps(initial_context("q?", NUM)) == ""


class TestReasoningEpisode:
    def make(self, chat, prm, **kwargs):
        return ReasoningEpisode(
            problem="What is 3 + 4?", kind=NUM, chat=chat, prm=prm, **kwargs
        )

    def test_full_episode_records_trajectory(self, chat, prm):
        ep = self.make(chat, prm, question_id="q1")
        state = ep.reset()
        assert state == EVAL_STATE
        ns, r1, done = ep.step(R)
        assert done is False and r1 == 0.5
        ns, r2, done = ep.step(T)
        assert done is True
        assert ep.final_answer == "7"
        assert ep.actions == [R, T]

    def test_trainer_protocol_legal_actions(self, chat, prm):
        ep = self.make(chat, prm)
        ep.reset()
        assert ep.legal_actions() == [R, DEC, DEB, T]
        ep.step(R)
        assert ep.legal_actions() == [R, DEC, DEB, REF, T]

    def test_step_failure_ends_episode_with_zero_reward(self, prm):
        rules = list(standard_rules())
        rules[2] = ScriptedRule(
            "Please decompose the current task into subtasks", "no markers"
        )
        chat = ScriptedChatBackend(rules)
        ep = self.make(chat, prm)
        state = ep.reset()
        ns, reward, done = ep.step(DEC)
        assert (reward, done) == (0.0, True)
        assert ns == state
        assert ep.failed is True
        assert ep.final_answer is None
        assert ep.actions == [DEC]

    def test_gateway_failure_raises_episode_failure(self, prm):
        chat = ScriptedChatBackend([])  # no rules at all
        ep = self.make(chat, prm)
        with pytest.raises(EpisodeFailure):
            ep.reset()

    def test_gateway_failure_mid_episode(self, prm):
        rules = [r for r in standard_rules() if "ONE more step" not in r.contains]
        chat = ScriptedChatBackend(rules)
        ep = self.make(chat, prm)
        ep.reset()
        with pytest.raises(EpisodeFailure):
            ep.step(R)

    def test_malformed_self_evaluation_mid_episode(self, prm):
        rules = list(standard_rules())
        rules[0] = ScriptedRule("Please evaluate the current step", [EVAL_RESPONSE, "hmm.", "hmm."])
        ep = self.make(ScriptedChatBackend(rules), prm)
        ep.reset()
        with pytest.raises(EpisodeFailure) as excinfo:
            ep.step(R)
        assert type(excinfo.value.__cause__) is MalformedEvaluationError
        assert ep.actions == []

    def test_usage_log_collects_all_subcalls(self, chat, prm):
        logbook = UsageLog()
        ep = self.make(chat, prm, question_id="q9", usage_log=logbook)
        ep.reset()
        ep.step(DEC)
        ep.step(T)
        # reset eval + (4 block calls + eval) + terminate
        assert logbook.calls == 7
        total = logbook.totals()
        assert total.input_tokens > 0 and total.output_tokens > 0
        assert total == sum((e.usage for e in chat.call_log), Usage())

    def test_reset_clears_previous_run(self, chat, prm):
        ep = self.make(chat, prm)
        ep.reset()
        ep.step(R)
        ep.step(T)
        ep.reset()
        assert ep.actions == []
        assert ep.final_text is None
        assert ep.final_answer is None


@pytest.mark.parametrize("cap, episodes", [(1, 1), (2, 4), (4, 10)])
def test_episodes_in_flight_is_three_per_chat_slot_less_two(cap, episodes):
    assert episodes_in_flight(SimpleNamespace(max_in_flight=cap)) == episodes


class TestPrmOverlap:
    """The PRM scores on the calling thread, after the block's chat calls and
    before any self-evaluation prompt; a PRM error ends the step there."""

    SELF_EVAL = "Please evaluate the current step"

    class OrderedPrm:
        """Records, per score call, its thread and how many chat calls came before it."""

        def __init__(self, chat, error=None):
            self.chat = chat
            self.error = error
            self.calls = []

        def score(self, problem, reasoning):
            self.calls.append((threading.get_ident(), len(self.chat.call_log)))
            if self.error is not None:
                raise self.error
            return 0.25

    def test_non_terminal_step_scores_inline_before_self_evaluation(self, chat):
        ctx, state, _ = make_ctx(chat)
        prm = self.OrderedPrm(chat)
        out = step(ctx, state, DEC, chat, prm)
        assert out.reward == 0.25 and out.state == EVAL_STATE
        stages = [c.stage for c in out.transcript]
        assert stages == ["decompose_split", "decompose_execute", "decompose_execute", "decompose_summary",
                          "self_eval"]
        # reset's evaluation and the four block calls came before the score, the step's evaluation after.
        assert prm.calls == [(threading.get_ident(), 1 + 4)]

    def test_terminal_step_scores_inline_without_self_evaluation(self, chat):
        threads = []

        class RecordingPrm:
            def score(self, problem, reasoning):
                threads.append(threading.get_ident())
                return 0.75

        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, T, chat, RecordingPrm())
        assert out.reward == 0.75
        assert threads == [threading.get_ident()]
        assert [c.stage for c in out.transcript] == ["terminate"]

    def test_prm_error_ends_the_step_before_self_evaluation(self, chat):
        prm = self.OrderedPrm(chat, GatewayError("prm down"))
        ep = ReasoningEpisode(problem="What is 3 + 4?", kind=NUM, chat=chat, prm=prm)
        ep.reset()
        with pytest.raises(EpisodeFailure) as excinfo:
            ep.step(R)
        assert type(excinfo.value.__cause__) is GatewayError
        assert [self.SELF_EVAL in e.request.prompt for e in chat.call_log] == [True, False]  # reset's, the block's
        assert ep.actions == []


class TestNavigateOnly:
    """Eval steps: once only Terminate is legal, the new context is not
    self-evaluated; training steps still evaluate it as the next state."""

    def answering_rules(self):
        rules = list(standard_rules())
        rules[1] = ScriptedRule("reason exactly ONE more step", "3+4=7. The answer is 7.")
        return rules

    @pytest.mark.parametrize("cfg, rules", [
        (EnvConfig(max_actions=2), standard_rules), (EnvConfig(), "answering"),
    ], ids=["budget-spent", "answer-present"])
    def test_forced_terminate_state_is_not_self_evaluated(self, cfg, rules):
        chat = ScriptedChatBackend(self.answering_rules() if rules == "answering" else rules())
        threads = []

        class RecordingPrm:
            def score(self, problem, reasoning):
                threads.append(threading.get_ident())
                return 0.75

        ctx, state, _ = make_ctx(chat, cfg)
        out = step(ctx, state, R, chat, RecordingPrm(), cfg, navigate_only=True)
        assert legal_actions(out.ctx, cfg) == {T}
        assert [c.stage for c in out.transcript] == ["reason_one_step"]
        assert out.state is state  # the previous state, as Terminate returns it
        assert out.reward == 0.75 and threads == [threading.get_ident()]
        assert out.done is False

    def test_training_step_evaluates_the_forced_terminate_state(self, prm):
        chat = ScriptedChatBackend(self.answering_rules())
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, R, chat, prm)
        assert legal_actions(out.ctx, EnvConfig()) == {T}
        assert [c.stage for c in out.transcript] == ["reason_one_step", "self_eval"]

    def test_step_with_a_choice_left_is_evaluated(self, chat, prm):
        ctx, state, _ = make_ctx(chat)
        out = step(ctx, state, R, chat, prm, navigate_only=True)
        assert [c.stage for c in out.transcript] == ["reason_one_step", "self_eval"]

    def test_episode_passes_the_mode_to_its_steps(self, prm):
        chat = ScriptedChatBackend(self.answering_rules())
        ep = ReasoningEpisode(problem="What is 3 + 4?", kind=NUM, chat=chat, prm=prm, navigate_only=True)
        state = ep.reset()
        assert ep.step(R) == (state, 0.5, False)
        assert ep.step(T)[2] is True
        assert ep.final_answer == "7"
        assert sum(TestPrmOverlap.SELF_EVAL in e.request.prompt for e in chat.call_log) == 1  # reset's only


class TestGoldenTranscript:
    """Every prompt, reply, reward and state of scripted episodes that take
    each block and each re-prompt ending: recovered, failed, and fallback."""

    PRM = ScriptedPrm([("Counting", 0.8), ("sum of 3 and 4", 0.6), ("answer is 7", 0.9)], default=0.3)

    def run(self, rules, actions):
        chat = ScriptedChatBackend(rules)
        ctx, state, calls = reset("What is 3 + 4?", NUM, chat)
        records = [["reset", [self.call(c) for c in calls], list(state.scores)]]
        for action in actions:
            try:
                out = step(ctx, state, action, chat, self.PRM)
            except StepFailureError as exc:
                records.append([action.name, "failed", str(exc)])
                break
            records.append([
                action.name,
                out.executed.name,
                [self.call(c) for c in out.transcript],
                out.reward,
                list(out.state.scores),
                out.done,
                out.ctx.steps[-1],
            ])
            ctx, state = out.ctx, out.state
        records.append(["chat_log", [[e.request.prompt, e.text] for e in chat.call_log]])
        return records

    @staticmethod
    def call(sub):
        return [sub.stage, sub.exchange.request.prompt, sub.exchange.text]

    def test_scripted_transcript_is_pinned(self):
        rules = list(standard_rules())
        rules[0] = ScriptedRule(
            "Please evaluate the current step",
            ["hmm.", EVAL_RESPONSE, "A1 score=1 only one", EVAL_RESPONSE.replace("score=2", "score=1")],
        )
        rules[2] = ScriptedRule(
            "Please decompose the current task into subtasks", ["no markers here", SUBTASKS_RESPONSE]
        )
        rules[5] = ScriptedRule(
            "propose three different alternative plans", ["plan stuff, unformatted", PLANS_RESPONSE]
        )
        rules[6] = ScriptedRule(
            "tell which one is most promising",
            [
                "The most promising plan is Plan7.",
                "The most promising plan is Plan3: it is visual.",
                "They all seem fine.",
            ],
        )
        every_block = self.run(rules, [REF, DEC, DEB, DEB, T])

        rules = list(standard_rules())
        rules[2] = ScriptedRule("Please decompose the current task into subtasks", "I would rather not.")
        failed_split = self.run(rules, [R, DEC])

        rules = list(standard_rules())
        rules[5] = ScriptedRule("propose three different alternative plans", "plan stuff, unformatted")
        failed_plans = self.run(rules, [DEB])

        stages = [[c[0] for c in rec[2]] for rec in every_block[1:-1]]
        assert stages == [
            ["reason_one_step", "self_eval", "self_eval"],
            ["decompose_split", "decompose_split", "decompose_execute", "decompose_execute",
             "decompose_summary", "self_eval"],
            ["debate_plans", "debate_plans", "debate_choice", "debate_choice", "debate_execute", "self_eval"],
            ["debate_plans", "debate_choice", "debate_choice", "debate_execute", "self_eval"],
            ["terminate"],
        ]
        assert failed_split[2][1] == failed_plans[1][1] == "failed"
        # Any change to a prompt, the call order, a reward or a re-prompt ending shows up here.
        doc = json.dumps([every_block, failed_split, failed_plans], sort_keys=True).encode("utf-8")
        assert hashlib.sha256(doc).hexdigest() == (
            "0bba07ec1627da1c882f955e9aed309b98367710e1a3a5a7dfc41032d1573237"
        )
