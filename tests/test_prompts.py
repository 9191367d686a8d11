"""Prompt template and parser tests.

Template text is load-bearing for the scripted backends and for any model
tuned on these exact instructions, so several tests pin whole strings,
including trailing whitespace.
"""

import pytest

from qnav.core import DatasetKind, ReasoningContext
from qnav.prompts import (
    MAX_SUBTASKS,
    NUM_PLANS,
    MalformedEvaluationError,
    ParseFailure,
    format_context,
    format_subtask_progress,
    parse_plan_choice,
    parse_plans,
    parse_self_eval,
    parse_subtasks,
    render_debate_choice,
    render_debate_execute,
    render_debate_plans,
    render_decompose_execute,
    render_decompose_split,
    render_decompose_summary,
    render_mining,
    render_reason_one_step,
    render_refine,
    render_self_eval,
    render_terminate,
)


def ctx(kind=DatasetKind.ELEMENTARY_MATH_NUMERIC, steps=("We compute 3+4=7.",)):
    return ReasoningContext(
        problem="What is 3 + 4?",
        dataset_kind=kind,
        steps=tuple(steps),
        actions_taken=len(steps),
    )


class TestContextFormatting:
    def test_numbered_steps(self):
        text = format_context(ctx(steps=("first", "second")))
        assert text == "What is 3 + 4?\nStep 1: first\nStep 2: second"

    def test_no_steps_is_problem_only(self):
        text = format_context(ctx(steps=()))
        assert text == "What is 3 + 4?"

    def test_subtask_progress_layout(self):
        text = format_subtask_progress(["find sum", "verify"], ["it is 7"])
        assert text == (
            "### Subtask1: find sum\n### Subtask2: verify\nResult of Subtask1: it is 7"
        )


class TestTemplateText:
    def test_self_eval_preserves_trailing_spaces(self):
        prompt = render_self_eval(ctx())
        assert "Please evaluate the current step from the following aspects. \n" in prompt
        assert "is performed correctly. \n" in prompt
        assert prompt.endswith("DONOT conduct further reasoning.")

    def test_self_eval_lists_all_aspects_and_scale(self):
        prompt = render_self_eval(ctx())
        for key in ("A1", "A2", "A3", "B1", "B2", "C1", "C2"):
            assert f"{key}:" in prompt
        assert "score 1 for False, 2 for Unsure, and 3 for True" in prompt
        assert "score 0 if the current step does not involve this aspect" in prompt
        assert "Use the format 'A1 score=[SCORE] reason=[REASON]'." in prompt

    def test_reason_one_step(self):
        prompt = render_reason_one_step(ctx())
        assert prompt.startswith("Here is a problem and several reasoning steps.\n")
        assert prompt.endswith(
            "Please reason exactly ONE more step based on the current step here, "
            "and DONOT reason too many steps at once."
        )

    def test_decompose_split(self):
        prompt = render_decompose_split(ctx())
        assert "Please decompose the current task into subtasks" in prompt
        assert prompt.endswith("Use the format '### Subtask1: subtask1'.")

    def test_decompose_execute_names_target_subtask(self):
        prompt = render_decompose_execute(ctx(), ["find sum", "verify"], ["it is 7"], 2)
        assert "here are the reasonings in the first few subtasks." in prompt
        assert "### Subtask2: verify" in prompt
        assert "Result of Subtask1: it is 7" in prompt
        assert "Please conduct the following Subtask2 to continue the reasoning." in prompt
        assert prompt.endswith("DONOT conduct a more detailed decomposition for the subtask.")

    def test_decompose_summary_keeps_trailing_space_line(self):
        prompt = render_decompose_summary(["find sum"], ["it is 7"])
        assert prompt.startswith("Here are a few detailed reasoning subtasks of a problem.\n")
        assert "in each subtask. \n" in prompt
        assert "### Subtask1: find sum\nit is 7" in prompt
        assert prompt.endswith("DONOT conduct more reasoning or calculation.")

    def test_debate_plans(self):
        prompt = render_debate_plans(ctx())
        assert "Please propose three different alternative plans" in prompt
        assert prompt.endswith("Use the format '### Plan1: plan1'.")

    def test_debate_choice_embeds_raw_plans_text(self):
        plans_raw = "### Plan1: add\n### Plan2: count"
        prompt = render_debate_choice(ctx(), plans_raw)
        assert plans_raw in prompt
        assert "tell which one is most promising" in prompt
        assert "'The most promising plan is Plan[INDEX]: [REASON]'" in prompt

    def test_debate_execute_embeds_plan(self):
        prompt = render_debate_execute(ctx(), "count up from 3")
        assert "we have decided on the most promising plan:\ncount up from 3\n" in prompt
        assert prompt.endswith(
            "Please reason **exactly one** more step according to the plan here, "
            "and DONOT reason too many steps at once."
        )

    def test_refine_header_has_no_period(self):
        prompt = render_refine(ctx())
        assert prompt.startswith("Here is a problem and several reasoning steps\n")
        assert prompt.endswith(
            "Please check and refine the current thought here, "
            "and DONOT conduct further reasoning or calculation."
        )

    def test_terminate_tails_per_kind(self):
        endings = {
            DatasetKind.ELEMENTARY_MATH_NUMERIC: (
                "Please end the answer with 'The answer is numerical_answer'."
            ),
            DatasetKind.MATH_BOXED: "Wrap the answer with \\boxed{{answer}}.",
            DatasetKind.MULTIPLE_CHOICE: "End the answer with 'The answer is (CHOICE)'.",
            DatasetKind.YES_NO: (
                "conclude the answer with 'The answer is yes' or 'The answer is no'."
            ),
        }
        for kind, ending in endings.items():
            prompt = render_terminate(ctx(kind=kind))
            assert prompt.endswith(ending), kind
            assert prompt.startswith("Here is a problem and several reasoning steps\n")

    def test_mining_prompts_per_kind(self):
        q = "Is 7 prime?"
        assert render_mining(q, DatasetKind.MATH_BOXED) == (
            "Is 7 prime? Please generate the answer for the problem. "
            "Wrap the answer with boxed{{answer}}."
        )
        assert render_mining(q, DatasetKind.YES_NO) == (
            "Is 7 prime? Please generate the answer for the problem. "
            "End the answer with 'YES/NO'."
        )
        assert render_mining(q, DatasetKind.MULTIPLE_CHOICE).endswith(
            "End the answer with 'The answer is (CHOICE)'."
        )
        assert render_mining(q, DatasetKind.ELEMENTARY_MATH_NUMERIC).endswith(
            "Please end the answer with 'The answer is numerical_answer'."
        )

    def test_mining_boxed_tail_has_no_backslash(self):
        prompt = render_mining("q", DatasetKind.MATH_BOXED)
        assert "\\boxed" not in prompt
        assert "boxed{{answer}}" in prompt


class TestParseSelfEval:
    FULL = (
        "A1 score=2 reason=modeling ok\n"
        "A2 score=3 reason=clear\n"
        "A3 score=0 reason=no math\n"
        "B1 score=1 reason=far away\n"
        "B2 score=2 reason=unsure\n"
        "C1 score=1 reason=not close\n"
        "C2 score=3 reason=complete\n"
    )

    def test_full_report(self):
        report = parse_self_eval(self.FULL)
        assert report.scores == (2, 3, 0, 1, 2, 1, 3)
        assert report.missing == ()
        assert report.state.scores == (2, 3, 0, 1, 2, 1, 3)

    def test_missing_aspects_default_to_zero(self):
        report = parse_self_eval("A1 score=3 reason=x\nC2 score=2 reason=y")
        assert report.scores == (3, 0, 0, 0, 0, 0, 2)
        assert set(report.missing) == {"A2", "A3", "B1", "B2", "C1"}

    def test_no_markers_raises(self):
        with pytest.raises(MalformedEvaluationError):
            parse_self_eval("I think this looks fine overall.")

    def test_bracketed_scores_and_lowercase_keys(self):
        report = parse_self_eval("a1 score=[2] reason=[fine]\nB1 SCORE = [3]")
        assert report.scores[0] == 2
        assert report.scores[3] == 3

    def test_out_of_range_score_is_treated_missing(self):
        report = parse_self_eval("A1 score=7 reason=x\nA2 score=2 reason=y")
        assert report.scores[0] == 0
        assert "A1" in report.missing
        assert report.scores[1] == 2

    def test_out_of_range_then_valid_marker_recovers(self):
        report = parse_self_eval("A1 score=9 junk\nA1 score=1 reason=second try")
        assert report.scores[0] == 1
        assert "A1" not in report.missing

    def test_first_duplicate_wins(self):
        report = parse_self_eval("A1 score=1 reason=first\nA1 score=3 reason=later")
        assert report.scores[0] == 1

    def test_unknown_aspect_labels_are_ignored(self):
        report = parse_self_eval("A1 score=2 ok\nD1 score=3 bogus")
        assert report.scores == (2, 0, 0, 0, 0, 0, 0)


class TestParseSubtasksAndPlans:
    def test_basic_split(self):
        items = parse_subtasks("### Subtask1: find the sum\n### Subtask2: verify it")
        assert items == ["find the sum", "verify it"]

    def test_bodies_span_to_next_marker(self):
        text = "### Subtask1: first line\nmore detail\n### Subtask2: second"
        assert parse_subtasks(text) == ["first line\nmore detail", "second"]

    def test_cap_limits_items(self):
        text = "\n".join(f"### Subtask{i}: job {i}" for i in range(1, 9))
        items = parse_subtasks(text)
        assert len(items) == MAX_SUBTASKS == 6
        assert items[-1] == "job 6"

    def test_no_markers_raises(self):
        with pytest.raises(ParseFailure):
            parse_subtasks("step one then step two")

    def test_markers_tolerate_spacing_and_case(self):
        assert parse_subtasks("###  subtask 1 :  padded") == ["padded"]

    def test_plans_split(self):
        plans = parse_plans("### Plan1: add\n### Plan2: count\n### Plan3: draw")
        assert plans == ["add", "count", "draw"]
        assert NUM_PLANS == 3

    def test_plan_markers_required(self):
        with pytest.raises(ParseFailure):
            parse_plans("Plan A: wing it")


class TestParsePlanChoice:
    def test_plain_index(self):
        assert parse_plan_choice("The most promising plan is Plan2: solid.") == 2

    def test_bracketed_index(self):
        assert parse_plan_choice("the most promising plan is Plan[3]: why not") == 3

    def test_last_statement_wins(self):
        text = (
            "The most promising plan is Plan1: at first glance.\n"
            "On reflection, the most promising plan is Plan3: deeper reasons."
        )
        assert parse_plan_choice(text) == 3

    def test_out_of_range_raises(self):
        with pytest.raises(ParseFailure):
            parse_plan_choice("The most promising plan is Plan7: bogus")
        with pytest.raises(ParseFailure):
            parse_plan_choice("The most promising plan is Plan0: bogus")

    def test_missing_marker_raises(self):
        with pytest.raises(ParseFailure):
            parse_plan_choice("I like the second one.")

    def test_respects_n_plans(self):
        assert parse_plan_choice("most promising plan is Plan4: x", n_plans=5) == 4
        with pytest.raises(ParseFailure):
            parse_plan_choice("most promising plan is Plan4: x", n_plans=3)
