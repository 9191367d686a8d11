"""Tiny dueling Q-network navigator steering LLM reasoning through logic blocks."""

from .core import (
    ActionKind,
    DatasetKind,
    EpisodeFailure,
    ReasoningContext,
    StateVector,
    Transition,
    encode_state,
)
from .net import Adam, CheckpointError, DuelingNet, load_checkpoint, parameter_count, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "ActionKind",
    "Adam",
    "CheckpointError",
    "DatasetKind",
    "DuelingNet",
    "EpisodeFailure",
    "ReasoningContext",
    "StateVector",
    "Transition",
    "encode_state",
    "load_checkpoint",
    "parameter_count",
    "save_checkpoint",
    "__version__",
]
