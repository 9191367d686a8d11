"""Reasoning environment: action masking, logic-block pipelines, PRM rewards.

A step executes one logic block against the chat backend, appends exactly one
durable reasoning step, scores the accumulated reasoning with the process
reward model, and, unless the block was Terminate, self-evaluates the new
context to produce the next state. All of it runs on the calling thread, in
that order: the PRM scores before self-evaluation, so a PRM error ends the
step before any self-evaluation call is sent.

A navigate-only step (evaluation) also skips self-evaluation when the new
context leaves only Terminate legal: no policy chooses from that state, so
the step keeps the previous state, as Terminate does.
Training self-evaluates it, since it is the stored transition's next state.

Re-prompts: a structured reply that does not parse is asked for once more with
the same prompt. If the decompose split or the debate plans still do not
parse, the step raises StepFailureError, which ReasoningEpisode records as
reward 0 ending the episode. A debate choice that still does not parse falls
back to plan 1. Self-evaluation re-prompts up to self_eval_retry times, keeps
the most complete report and defaults the aspects it still lacks to 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from . import prompts
from .answers import extract_answer
from .core import (
    ActionKind,
    DatasetKind,
    EpisodeFailure,
    ReasoningContext,
    StateVector,
)
from .gateway import (
    DEFAULT_MAX_OUTPUT_TOKENS,
    DEFAULT_TEMPERATURE,
    ChatBackend,
    ChatExchange,
    ChatRequest,
    GatewayAuthError,
    GatewayError,
    PrmBackend,
    UsageLog,
    score_process,
)
from .prompts import MalformedEvaluationError, ParseFailure

log = logging.getLogger(__name__)

T = TypeVar("T")

ALL_BLOCKS = frozenset(ActionKind)
ONLY_TERMINATE = (ActionKind.TERMINATE,)
_INDEX_ORDER = tuple(ActionKind)


class IllegalActionError(ValueError):
    """An action outside the current legal set was requested."""


class StepFailureError(EpisodeFailure):
    """A sub-pipeline parse failed even after its re-prompt."""


@dataclass(frozen=True)
class EnvConfig:
    """Knobs for one reasoning episode."""

    max_actions: int = 5
    enabled_blocks: frozenset[ActionKind] = ALL_BLOCKS
    self_eval_retry: int = 1
    subtask_cap: int = prompts.MAX_SUBTASKS
    temperature: float = DEFAULT_TEMPERATURE
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS

    def __post_init__(self) -> None:
        for name in ("max_actions", "subtask_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.self_eval_retry < 0:
            raise ValueError(f"self_eval_retry must not be negative, got {self.self_eval_retry}")
        # The navigator must always be able to reason plainly and to stop.
        for required in (ActionKind.REASON_ONE_STEP, ActionKind.TERMINATE):
            if required not in self.enabled_blocks:
                raise ValueError(f"enabled_blocks must contain {required.name}")


@dataclass(frozen=True)
class SubCall:
    """One LLM exchange within a step, labeled by pipeline stage."""

    stage: str
    exchange: ChatExchange


@dataclass(frozen=True)
class StepOutcome:
    """Everything one environment step produced."""

    ctx: ReasoningContext
    state: StateVector
    reward: float
    done: bool
    transcript: tuple[SubCall, ...]


def legal_action_set(
    answer_present: bool,
    actions_taken: int,
    max_actions: int = 5,
    enabled: frozenset[ActionKind] = ALL_BLOCKS,
) -> tuple[ActionKind, ...]:
    """Masking rules, as a tuple in index order; Terminate is always available, and forced at the end."""
    if answer_present or actions_taken >= max_actions - 1:
        return ONLY_TERMINATE
    hidden = ActionKind.REFINE if actions_taken == 0 else None  # nothing to refine yet
    return tuple([a for a in _INDEX_ORDER if a is not hidden and (a in enabled or a is ActionKind.TERMINATE)])


def legal_actions(ctx: ReasoningContext, cfg: EnvConfig) -> tuple[ActionKind, ...]:
    return legal_action_set(ctx.answer_present, ctx.actions_taken, cfg.max_actions, cfg.enabled_blocks)


def initial_context(question: str, kind: DatasetKind) -> ReasoningContext:
    if not question.strip():
        raise ValueError("empty question")
    return ReasoningContext(problem=question, dataset_kind=kind)


class _Pipeline:
    """Collects sub-calls for one step (or one reset evaluation), each recorded in usage_log as it returns."""

    def __init__(self, chat: ChatBackend, cfg: EnvConfig, usage_log: UsageLog | None):
        self.chat = chat
        self.cfg = cfg
        self.usage_log = usage_log
        self.calls: list[SubCall] = []

    def ask(self, stage: str, prompt: str) -> str:
        request = ChatRequest(
            prompt=prompt,
            temperature=self.cfg.temperature,
            max_output_tokens=self.cfg.max_output_tokens,
        )
        exchange = self.chat.complete(request)
        if self.usage_log is not None:
            self.usage_log.record(exchange)
        self.calls.append(SubCall(stage=stage, exchange=exchange))
        return exchange.text

    def ask_parsed(self, stage: str, prompt: str, parse: Callable[[str], T]) -> tuple[str, T]:
        """(reply, parse(reply)); re-sends the prompt once on ParseFailure, a second one propagates."""
        text = self.ask(stage, prompt)
        try:
            return text, parse(text)
        except ParseFailure:
            text = self.ask(stage, prompt)
            return text, parse(text)


def _self_evaluate(pipe: _Pipeline, ctx: ReasoningContext) -> StateVector:
    """Score the current context; up to self_eval_retry re-prompts, then defaults with a warning."""
    best: prompts.SelfEvalReport | None = None
    for _ in range(pipe.cfg.self_eval_retry + 1):
        text = pipe.ask("self_eval", prompts.render_self_eval(ctx))
        try:
            report = prompts.parse_self_eval(text)
        except MalformedEvaluationError:
            continue
        if best is None or len(report.missing) <= len(best.missing):
            best = report
        if not best.missing:
            break
    if best is None:
        raise MalformedEvaluationError("self-evaluation yielded no aspect markers, even after retry")
    if best.missing:
        log.warning("self-evaluation missing aspects %s; defaulted to 0", ",".join(best.missing))
    return best.state


def reset(
    question: str, kind: DatasetKind, chat: ChatBackend, cfg: EnvConfig = EnvConfig(),
    *, usage_log: UsageLog | None = None,
) -> tuple[ReasoningContext, StateVector, tuple[SubCall, ...]]:
    """Fresh context plus the initial state from evaluating the bare problem."""
    ctx = initial_context(question, kind)
    pipe = _Pipeline(chat, cfg, usage_log)
    state = _self_evaluate(pipe, ctx)
    return ctx, state, tuple(pipe.calls)


def _run_decompose(pipe: _Pipeline, ctx: ReasoningContext) -> str:
    try:
        _, subtasks = pipe.ask_parsed(
            "decompose_split",
            prompts.render_decompose_split(ctx),
            lambda text: prompts.parse_subtasks(text, pipe.cfg.subtask_cap),
        )
    except ParseFailure as exc:
        raise StepFailureError(f"decomposition unparseable after retry: {exc}") from exc
    results: list[str] = []
    for i in range(1, len(subtasks) + 1):
        prompt = prompts.render_decompose_execute(ctx, subtasks, results, i)
        results.append(pipe.ask("decompose_execute", prompt))
    return pipe.ask("decompose_summary", prompts.render_decompose_summary(subtasks, results))


def _run_debate(pipe: _Pipeline, ctx: ReasoningContext) -> str:
    try:
        plans_text, plans = pipe.ask_parsed("debate_plans", prompts.render_debate_plans(ctx), prompts.parse_plans)
    except ParseFailure as exc:
        raise StepFailureError(f"debate plans unparseable after retry: {exc}") from exc
    try:
        _, index = pipe.ask_parsed(
            "debate_choice",
            prompts.render_debate_choice(ctx, plans_text),
            lambda text: prompts.parse_plan_choice(text, n_plans=len(plans)),
        )
    except ParseFailure:
        log.warning("plan choice unparseable after retry; falling back to plan 1")
        index = 1
    return pipe.ask("debate_execute", prompts.render_debate_execute(ctx, plans[index - 1]))


def step(
    ctx: ReasoningContext,
    state: StateVector,
    action: ActionKind,
    chat: ChatBackend,
    prm: PrmBackend,
    cfg: EnvConfig = EnvConfig(),
    *,
    navigate_only: bool = False,
    usage_log: UsageLog | None = None,
) -> StepOutcome:
    """Execute one logic block; see the module docstring for the contract.

    An action outside the legal set raises IllegalActionError before any
    call. With navigate_only, a block after which only Terminate is legal
    returns the previous state unevaluated.
    """
    legal = legal_actions(ctx, cfg)
    if action not in legal:
        raise IllegalActionError(f"{action.name} not legal here (legal: {', '.join(a.name for a in legal)})")

    pipe = _Pipeline(chat, cfg, usage_log)
    match action:
        case ActionKind.REASON_ONE_STEP:
            text = pipe.ask("reason_one_step", prompts.render_reason_one_step(ctx))
        case ActionKind.DECOMPOSE:
            text = _run_decompose(pipe, ctx)
        case ActionKind.DEBATE:
            text = _run_debate(pipe, ctx)
        case ActionKind.REFINE:
            text = pipe.ask("refine", prompts.render_refine(ctx))
        case ActionKind.TERMINATE:
            text = pipe.ask("terminate", prompts.render_terminate(ctx))

    done = action is ActionKind.TERMINATE
    answer_present = done or extract_answer(text, ctx.dataset_kind) is not None
    new_ctx = ctx.with_step(text, answer_present=answer_present)
    reward = score_process(prm, ctx.problem, prompts.format_steps(new_ctx))
    if done or (navigate_only and legal_actions(new_ctx, cfg) == ONLY_TERMINATE):
        next_state = state
    else:
        next_state = _self_evaluate(pipe, new_ctx)
    return StepOutcome(
        ctx=new_ctx,
        state=next_state,
        reward=reward,
        done=done,
        transcript=tuple(pipe.calls),
    )


def episodes_in_flight(chat: ChatBackend) -> int:
    """Episodes to keep in flight on chat, in training and eval: 3C - 2 for a cap of C calls.

    C episodes keep every chat slot busy. Up to C - 1 more can be done with
    their step and parked behind the one the trainer waits on in its fixed
    order, and up to C - 1 more can wait on the PRM or the policy. The
    backend holds its calls at C itself. C = 1 gives 1: one episode at a
    time.
    """
    return 3 * chat.max_in_flight - 2


@dataclass
class ReasoningEpisode:
    """Trainer/eval-facing wrapper running one question to completion.

    Parse failures inside a block terminate the episode with reward 0 for
    that step; gateway and evaluation failures abort it via EpisodeFailure,
    except GatewayAuthError, which propagates: no later episode can succeed.
    navigate_only episodes (eval) pass navigate_only to every step. Each chat
    call is recorded in usage_log as it returns, so a failed step's calls count.
    """

    problem: str
    kind: DatasetKind
    chat: ChatBackend
    prm: PrmBackend
    cfg: EnvConfig = EnvConfig()
    question_id: str = ""
    usage_log: UsageLog | None = None
    navigate_only: bool = False

    ctx: ReasoningContext | None = field(default=None, init=False)
    state: StateVector | None = field(default=None, init=False)
    actions: list[ActionKind] = field(default_factory=list, init=False)  # requested, in step order
    final_text: str | None = field(default=None, init=False)
    failed: bool = field(default=False, init=False)

    def reset(self) -> StateVector:
        try:
            ctx, state, _ = reset(self.problem, self.kind, self.chat, self.cfg, usage_log=self.usage_log)
        except GatewayAuthError:
            raise
        except (GatewayError, MalformedEvaluationError) as exc:
            raise EpisodeFailure(f"reset failed: {exc}") from exc
        self.ctx, self.state = ctx, state
        self.actions.clear()
        self.final_text = None
        self.failed = False
        return state

    @property
    def max_in_flight(self) -> int:
        """Episodes the trainer may run at once: episodes_in_flight(chat)."""
        return episodes_in_flight(self.chat)

    def legal_actions(self) -> tuple[ActionKind, ...]:
        assert self.ctx is not None, "reset() first"
        return legal_actions(self.ctx, self.cfg)

    def step(self, action: ActionKind) -> tuple[StateVector, float, bool]:
        assert self.ctx is not None and self.state is not None, "reset() first"
        try:
            outcome = step(self.ctx, self.state, action, self.chat, self.prm, self.cfg,
                           navigate_only=self.navigate_only, usage_log=self.usage_log)
        except StepFailureError as exc:
            log.warning("question %s: %s", self.question_id or "?", exc)
            self.failed = True
            self.actions.append(action)
            return self.state, 0.0, True
        except GatewayAuthError:
            raise
        except (GatewayError, MalformedEvaluationError) as exc:
            raise EpisodeFailure(f"step failed: {exc}") from exc
        self.actions.append(action)
        self.ctx, self.state = outcome.ctx, outcome.state
        if outcome.done:
            self.final_text = outcome.ctx.steps[-1]
        return outcome.state, outcome.reward, outcome.done

    @property
    def final_answer(self) -> str | None:
        if self.final_text is None:
            return None
        return extract_answer(self.final_text, self.kind)
