"""Prompt templates for the five logic blocks, plus parsers for their outputs.

Template text is reproduced exactly, including trailing spaces, the DONOT
spelling, and literal doubled braces; scripted fixtures and downstream
parsers match on the precise wording, so do not "fix" it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import ASPECT_KEYS, MAX_SCORE, DatasetKind, ReasoningContext, StateVector

MAX_SUBTASKS = 6
NUM_PLANS = 3


class ParseFailure(Exception):
    """A structured LLM response did not contain what the format demands."""


class MalformedEvaluationError(ParseFailure):
    """A self-evaluation response carried no aspect markers at all."""


def format_steps(ctx: ReasoningContext) -> str:
    """The numbered reasoning steps so far; what the process reward model scores."""
    return "\n".join(f"Step {i}: {step}" for i, step in enumerate(ctx.steps, 1))


def format_context(ctx: ReasoningContext) -> str:
    """Problem text followed by the numbered reasoning steps so far."""
    return f"{ctx.problem}\n{format_steps(ctx)}" if ctx.steps else ctx.problem


SELF_EVAL_BODY = (
    "Please evaluate the current step from the following aspects. \n"
    "A) Correctness\n"
    "    A1: Correctness of modeling:\n"
    "    Whether the current step is correctly derived from the origin problem.\n"
    "    A2: Clarity for further reasoning:\n"
    "    Whether the current step is clearly presented, without ambiguity, to support further reasoning.\n"
    "    A3: Correctness of calculation:\n"
    "    Whether the numerical computation in the current step is performed correctly. \n"
    "B) Complexity\n"
    "    B1: Complexity to reach the final answer:\n"
    "    Whether it still requires complex reasoning or calculation to reach the final answer from the current step.\n"
    "    B2: Alternative methods in further reasoning:\n"
    "    Whether there exist multiple alternative methods to solve the problem in the current step.\n"
    "C) Completeness\n"
    "    C1: Closeness to the final solution:\n"
    "    Whether the current step is close enough to directly reach the final answer.\n"
    "    C2: Completeness within the step:\n"
    "    Whether all necessary elements within this specific step are known from the problem or previous steps.\n"
    "For each aspect, please score 1 for False, 2 for Unsure, and 3 for True, and score 0 if the current step does not involve this aspect. Please attach the reason for each score.\n"
    "Use the format 'A1 score=[SCORE] reason=[REASON]'.\n"
    "Only score the current reasoning step here, and DONOT conduct further reasoning."
)

HEADER = "Here is a problem and several reasoning steps."
HEADER_NO_PERIOD = "Here is a problem and several reasoning steps"

REASON_ONE_STEP_BODY = (
    "Please reason exactly ONE more step based on the current step here, and DONOT reason too many steps at once."
)

DECOMPOSE_SPLIT_BODY = (
    "Please decompose the current task into subtasks, where we can solve the original problem by combining these results of subtasks.\n"
    "Only provide subtasks decomposition here, and DONOT conduct specific reasoning or calculation.\n"
    "Use the format '### Subtask1: subtask1'."
)

DECOMPOSE_EXECUTE_INTRO = (
    "For the next step, the task is decomposed into subtasks, here are the reasonings in the first few subtasks."
)

DECOMPOSE_SUMMARY_HEADER = "Here are a few detailed reasoning subtasks of a problem."

DECOMPOSE_SUMMARY_BODY = (
    "Please give a clear and concise summary of these subtasks, keeping the key reasoning and results in each subtask. \n"
    "Only provide the summary here, and DONOT conduct more reasoning or calculation."
)

DEBATE_PLANS_BODY = (
    "Please propose three different alternative plans for solving the problem in the current step.\n"
    "Only provide plans here, and DONOT conduct specific reasoning or calculation.\n"
    "Use the format '### Plan1: plan1'."
)

DEBATE_CHOICE_INTRO = "Currently, we have several alternative plans for solving the problem in the current step."

DEBATE_CHOICE_BODY = (
    "Please review and compare these plans carefully, and tell which one is most promising for further reasoning. Only compare the plans here, and DONOT conduct further reasoning or calculation.\n"
    "Use the format 'The most promising plan is Plan[INDEX]: [REASON]', where [INDEX] is an integer index of the plan and [REASON] is a detailed analysis."
)

DEBATE_EXECUTE_INTRO = "For the next step, we have decided on the most promising plan:"

DEBATE_EXECUTE_BODY = (
    "Please reason **exactly one** more step according to the plan here, and DONOT reason too many steps at once."
)

REFINE_BODY = (
    "Please check and refine the current thought here, and DONOT conduct further reasoning or calculation."
)

TERMINATE_TAILS: dict[DatasetKind, str] = {
    DatasetKind.ELEMENTARY_MATH_NUMERIC: (
        "Please generate the answer for the problem. Please end the answer with 'The answer is numerical_answer'."
    ),
    DatasetKind.MATH_BOXED: (
        "Please generate the answer for the problem. Wrap the answer with \\boxed{{answer}}."
    ),
    DatasetKind.MULTIPLE_CHOICE: "End the answer with 'The answer is (CHOICE)'.",
    DatasetKind.YES_NO: (
        "Please generate the answer for the problem. At the end of your answer, conclude the answer with 'The answer is yes' or 'The answer is no'."
    ),
}

MINING_TAILS: dict[DatasetKind, str] = {
    DatasetKind.MATH_BOXED: "Wrap the answer with boxed{{answer}}.",
    DatasetKind.MULTIPLE_CHOICE: "End the answer with 'The answer is (CHOICE)'.",
    DatasetKind.YES_NO: "End the answer with 'YES/NO'.",
    DatasetKind.ELEMENTARY_MATH_NUMERIC: (
        "Please end the answer with 'The answer is numerical_answer'."
    ),
}


def render_self_eval(ctx: ReasoningContext) -> str:
    return f"{format_context(ctx)}\n{SELF_EVAL_BODY}"


def render_reason_one_step(ctx: ReasoningContext) -> str:
    return f"{HEADER}\n{format_context(ctx)}\n{REASON_ONE_STEP_BODY}"


def render_decompose_split(ctx: ReasoningContext) -> str:
    return f"{HEADER}\n{format_context(ctx)}\n{DECOMPOSE_SPLIT_BODY}"


def format_subtask_progress(subtasks: list[str], results: list[str]) -> str:
    """The decomposition plus results for the subtasks executed so far."""
    lines = [f"### Subtask{i}: {s}" for i, s in enumerate(subtasks, 1)]
    for i, r in enumerate(results, 1):
        lines.append(f"Result of Subtask{i}: {r}")
    return "\n".join(lines)


def render_decompose_execute(
    ctx: ReasoningContext, subtasks: list[str], results: list[str], subtask_id: int
) -> str:
    return (
        f"{HEADER}\n"
        f"{format_context(ctx)}\n"
        f"{DECOMPOSE_EXECUTE_INTRO}\n"
        f"{format_subtask_progress(subtasks, results)}\n"
        f"Please conduct the following Subtask{subtask_id} to continue the reasoning.\n"
        "DONOT conduct a more detailed decomposition for the subtask."
    )


def render_decompose_summary(subtasks: list[str], results: list[str]) -> str:
    pairs = "\n".join(
        f"### Subtask{i}: {s}\n{r}" for i, (s, r) in enumerate(zip(subtasks, results), 1)
    )
    return f"{DECOMPOSE_SUMMARY_HEADER}\n{pairs}\n{DECOMPOSE_SUMMARY_BODY}"


def render_debate_plans(ctx: ReasoningContext) -> str:
    return f"{HEADER}\n{format_context(ctx)}\n{DEBATE_PLANS_BODY}"


def render_debate_choice(ctx: ReasoningContext, plans_text: str) -> str:
    return (
        f"{HEADER}\n"
        f"{format_context(ctx)}\n"
        f"{DEBATE_CHOICE_INTRO}\n"
        f"{plans_text}\n"
        f"{DEBATE_CHOICE_BODY}"
    )


def render_debate_execute(ctx: ReasoningContext, plan: str) -> str:
    return (
        f"{HEADER}\n"
        f"{format_context(ctx)}\n"
        f"{DEBATE_EXECUTE_INTRO}\n"
        f"{plan}\n"
        f"{DEBATE_EXECUTE_BODY}"
    )


def render_refine(ctx: ReasoningContext) -> str:
    return f"{HEADER_NO_PERIOD}\n{format_context(ctx)}\n{REFINE_BODY}"


def render_terminate(ctx: ReasoningContext) -> str:
    return f"{HEADER_NO_PERIOD}\n{format_context(ctx)}\n{TERMINATE_TAILS[ctx.dataset_kind]}"


def render_mining(problem: str, kind: DatasetKind) -> str:
    """Direct answer prompt used to find hard questions."""
    return f"{problem} Please generate the answer for the problem. {MINING_TAILS[kind]}"


# -- parsers -------------------------------------------------------------------

_ASPECT_RE = re.compile(r"\b([ABCabc][1-3])\s*score\s*=\s*\[?\s*(-?\d+)\s*\]?", re.IGNORECASE)
_MARKER_RE_TEMPLATE = r"###\s*{label}\s*(\d+)\s*:"
_CHOICE_RE = re.compile(r"most promising plan is\s*Plan\s*\[?\s*(\d+)\s*\]?", re.IGNORECASE)


@dataclass(frozen=True)
class SelfEvalReport:
    """Parsed seven-aspect evaluation; missing lists aspects that defaulted to 0."""

    scores: tuple[int, ...]
    missing: tuple[str, ...]

    @property
    def state(self) -> StateVector:
        return StateVector(self.scores)


def parse_self_eval(text: str) -> SelfEvalReport:
    """Read 'Xn score=k' markers; aspects absent or out of range default to 0.

    Raises MalformedEvaluationError when not a single marker is present.
    """
    matches = list(_ASPECT_RE.finditer(text))
    if not matches:
        raise MalformedEvaluationError("no aspect markers found")
    scores: dict[str, int] = {}
    for m in matches:
        key = m.group(1).upper()
        if key not in ASPECT_KEYS or key in scores:
            continue
        try:
            value = int(m.group(2))
        except ValueError:  # more digits than int() converts: out of range too
            continue
        if not 0 <= value <= MAX_SCORE:
            continue
        scores[key] = value
    return SelfEvalReport(
        scores=tuple(scores.get(k, 0) for k in ASPECT_KEYS),
        missing=tuple(k for k in ASPECT_KEYS if k not in scores),
    )


def _split_markers(text: str, label: str, cap: int | None = None) -> list[str]:
    marker = re.compile(_MARKER_RE_TEMPLATE.format(label=label), re.IGNORECASE)
    matches = list(marker.finditer(text))
    if not matches:
        raise ParseFailure(f"no '### {label}<k>:' markers found")
    items: list[str] = []
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        items.append(text[m.end():end].strip())
    if cap is not None:
        items = items[:cap]
    return items


def parse_subtasks(text: str, cap: int = MAX_SUBTASKS) -> list[str]:
    """Split a decomposition response on its subtask markers (capped)."""
    return _split_markers(text, "Subtask", cap)


def parse_plans(text: str) -> list[str]:
    """Split a debate response on its plan markers."""
    return _split_markers(text, "Plan")


def parse_plan_choice(text: str, n_plans: int = NUM_PLANS) -> int:
    """1-based index of the chosen plan; last statement wins.

    Raises ParseFailure when the marker is missing or the index is outside
    1..n_plans.
    """
    matches = _CHOICE_RE.findall(text)
    if not matches:
        raise ParseFailure("no plan choice marker found")
    try:
        index = int(matches[-1])
    except ValueError:  # more digits than int() converts
        raise ParseFailure("plan index out of range: too many digits") from None
    if not 1 <= index <= n_plans:
        raise ParseFailure(f"plan index out of range: {index}")
    return index
