"""Shared value types: evaluation states, navigator actions, transitions.

Everything here is an immutable value object, safe to share across threads.
atomic_write, which every artifact goes through, lives here too.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from pathlib import Path
from typing import IO, Iterator

import numpy as np

# Aspect order is fixed everywhere: three correctness scores, two complexity
# scores, two completeness scores.
ASPECT_KEYS = ("A1", "A2", "A3", "B1", "B2", "C1", "C2")

STATE_DIM = 7
NUM_ACTIONS = 5
MAX_SCORE = 3


class EpisodeFailure(Exception):
    """An environment could not finish the current episode."""


class ActionKind(IntEnum):
    """The five logic blocks the navigator chooses between."""

    REASON_ONE_STEP = 0
    DECOMPOSE = 1
    DEBATE = 2
    REFINE = 3
    TERMINATE = 4


class DatasetKind(str, Enum):
    """Answer-format family of a question; drives prompting and extraction."""

    MATH_BOXED = "math_boxed"
    ELEMENTARY_MATH_NUMERIC = "elementary_math_numeric"
    MULTIPLE_CHOICE = "multiple_choice"
    YES_NO = "yes_no"


@dataclass(frozen=True)
class StateVector:
    """Seven self-evaluation scores, each in 0..3, ordered as ASPECT_KEYS."""

    scores: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.scores) != STATE_DIM:
            raise ValueError(f"expected {STATE_DIM} scores, got {len(self.scores)}")
        for s in self.scores:
            if not isinstance(s, int) or not 0 <= s <= MAX_SCORE:
                raise ValueError(f"score out of range 0..{MAX_SCORE}: {s!r}")


def encode_state(state: StateVector) -> np.ndarray:
    """Network input: scores scaled to [0, 1] by the maximum score."""
    return np.asarray(state.scores, dtype=np.float64) / MAX_SCORE


@dataclass(frozen=True)
class ReasoningContext:
    """Accumulated reasoning for one question.

    ``steps`` holds only durable reasoning text; intermediate sub-pipeline
    chatter (subtask executions, debate plans) never lands here.
    """

    problem: str
    dataset_kind: DatasetKind
    steps: tuple[str, ...] = ()
    answer_present: bool = False
    actions_taken: int = 0

    def with_step(self, text: str, answer_present: bool) -> "ReasoningContext":
        return replace(
            self,
            steps=self.steps + (text,),
            answer_present=answer_present,
            actions_taken=self.actions_taken + 1,
        )


@dataclass(frozen=True)
class Transition:
    """One replay-buffer entry."""

    state: StateVector
    action: ActionKind
    reward: float
    next_state: StateVector
    done: bool


@contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """A file to write path's new contents to, put in place only on success.

    The file is a temp file in path's directory. On a clean exit it is synced
    and os.replace'd over path; on an exception it is removed and path keeps
    its old contents. A crash never leaves a truncated artifact behind.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
