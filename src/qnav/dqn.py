"""Double-dueling DQN machinery: replay, TD targets, schedules, training loop.

Targets are the double-DQN form

    y = r                                        if done
    y = r + gamma * Q_target(s', argmax_a Q_online(s', a))   otherwise

with a target network refreshed by full copy every fixed number of gradient
updates.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Protocol, Sequence

import numpy as np

from .core import STATE_DIM, ActionKind, EpisodeFailure, StateVector, Transition, encode_state
from .net import DEFAULT_WIDTHS, Adam, DuelingNet

log = logging.getLogger(__name__)


class Env(Protocol):
    """What the trainer needs from an environment."""

    def reset(self) -> StateVector: ...

    def legal_actions(self) -> Sequence[ActionKind]: ...

    def step(self, action: ActionKind) -> tuple[StateVector, float, bool]: ...


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters; defaults are the published training settings."""

    gamma: float = 0.9
    episodes: int = 3000
    batch_size: int = 64
    target_sync_interval: int = 50  # counted in gradient updates
    lr: float = 0.01
    lr_decay: float = 0.5
    lr_decay_every: int = 1000  # episodes
    buffer_capacity: int = 500
    epsilon_start: float = 1.0
    epsilon_min: float = 0.0
    epsilon_decay: float = 0.9995  # per environment step
    widths: tuple[int, int] = DEFAULT_WIDTHS
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma out of range: {self.gamma}")
        for name in ("episodes", "batch_size", "target_sync_interval", "lr_decay_every", "buffer_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.buffer_capacity < self.batch_size:
            raise ValueError("buffer capacity smaller than batch size")


@dataclass(frozen=True)
class EpisodeStats:
    """One reward-curve record."""

    episode: int
    episode_return: float
    discounted_return: float
    steps: int
    loss: float  # mean TD loss over this episode's updates; 0.0 if none ran
    epsilon: float
    lr: float


def epsilon_at(cfg: TrainerConfig, step: int) -> float:
    """Exploration rate after `step` environment steps."""
    return max(cfg.epsilon_min, cfg.epsilon_start * cfg.epsilon_decay**step)


def lr_at(cfg: TrainerConfig, episode: int) -> float:
    """Learning rate used during `episode` (stepwise decay)."""
    return cfg.lr * cfg.lr_decay ** (episode // cfg.lr_decay_every)


class Batch(NamedTuple):
    """Encoded transitions, one row per transition."""

    states: np.ndarray  # (B, STATE_DIM) float64
    actions: np.ndarray  # (B,) int
    rewards: np.ndarray  # (B,) float64
    next_states: np.ndarray  # (B, STATE_DIM) float64
    done: np.ndarray  # (B,) bool

    @classmethod
    def of(cls, transitions: Sequence[Transition]) -> "Batch":
        """Encode transitions held outside a replay buffer."""
        return cls(
            np.stack([encode_state(t.state) for t in transitions]),
            np.array([int(t.action) for t in transitions]),
            np.array([t.reward for t in transitions], dtype=np.float64),
            np.stack([encode_state(t.next_state) for t in transitions]),
            np.array([t.done for t in transitions], dtype=bool),
        )


class ReplayBuffer:
    """The last `capacity` transitions, encoded, in preallocated ring arrays.

    Each state is encoded once, on push; once full, a push overwrites the
    oldest transition. sample draws n positions uniformly without
    replacement, counted from the oldest transition, with
    rng.sample(range(len(self)), n): the same draws, from the same RNG
    stream, as sampling a list of the stored transitions.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._states = np.empty((capacity, STATE_DIM))
        self._actions = np.empty(capacity, dtype=np.int64)
        self._rewards = np.empty(capacity)
        self._next_states = np.empty((capacity, STATE_DIM))
        self._done = np.empty(capacity, dtype=bool)
        self._next = 0  # slot the next push writes
        self._size = 0

    def push(self, transition: Transition) -> None:
        i = self._next
        self._states[i] = encode_state(transition.state)
        self._actions[i] = int(transition.action)
        self._rewards[i] = transition.reward
        self._next_states[i] = encode_state(transition.next_state)
        self._done[i] = transition.done
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, n: int, rng: random.Random) -> Batch:
        if n > self._size:
            raise ValueError(f"cannot sample {n} of {self._size}")
        slots = np.array(rng.sample(range(self._size), n), dtype=np.intp)
        slots += self._next - self._size  # position 0 is the oldest transition
        slots %= self.capacity
        return Batch(
            self._states[slots],
            self._actions[slots],
            self._rewards[slots],
            self._next_states[slots],
            self._done[slots],
        )

    def __len__(self) -> int:
        return self._size


def td_targets(batch: Batch, online: DuelingNet, target: DuelingNet, gamma: float) -> np.ndarray:
    """Double-DQN regression targets for a batch, shape (B,)."""
    best = online.forward_batch(batch.next_states).argmax(axis=1)
    next_q = target.forward_batch(batch.next_states)[np.arange(len(best)), best]
    return batch.rewards + np.where(batch.done, 0.0, gamma * next_q)


def train_step(
    online: DuelingNet,
    target: DuelingNet,
    adam: Adam,
    batch: Batch,
    gamma: float,
    lr: float,
) -> float:
    """One gradient step on mean squared TD error; returns the loss."""
    y = td_targets(batch, online, target, gamma)
    q, cache = online.forward_batch_cached(batch.states)
    n = len(y)
    rows = np.arange(n)
    taken = q[rows, batch.actions]
    diff = taken - y
    loss = float(np.mean(diff * diff))
    dq = np.zeros_like(q)
    dq[rows, batch.actions] = 2.0 * diff / n
    grads = online.backward_batch(batch.states, dq, cache)
    adam.step(online, grads, lr)
    return loss


def masked_argmax(q: np.ndarray, legal: Sequence[ActionKind]) -> ActionKind:
    """Greedy action among legal ones; ties go to the lowest action index."""
    if not legal:
        raise ValueError("no legal actions")
    ordered = sorted(legal, key=int)
    return max(ordered, key=lambda a: (q[int(a)], -int(a)))


def select_action(
    net: DuelingNet,
    state: StateVector,
    legal: Sequence[ActionKind],
    epsilon: float,
    rng: random.Random,
) -> ActionKind:
    """Epsilon-greedy over the legal action set only."""
    ordered = sorted(legal, key=int)
    if not ordered:
        raise ValueError("no legal actions")
    if rng.random() < epsilon:
        return ordered[rng.randrange(len(ordered))]
    return masked_argmax(net.forward(encode_state(state)), ordered)


def run_training(
    env_factory: Callable[[random.Random], Env],
    cfg: TrainerConfig,
    *,
    on_episode: Callable[[EpisodeStats, DuelingNet], None] | None = None,
) -> tuple[DuelingNet, list[EpisodeStats]]:
    """Train a fresh navigator; fully deterministic for a deterministic env.

    env_factory is called once per episode with the trainer's RNG so question
    or start-state sampling shares the seed. Episodes that raise
    EpisodeFailure are logged and skipped; training continues.
    """
    rng = random.Random(cfg.seed)
    online = DuelingNet.initialize(cfg.seed, cfg.widths)
    target = online.clone()
    adam = Adam(online)
    buffer = ReplayBuffer(cfg.buffer_capacity)
    stats: list[EpisodeStats] = []
    global_step = 0
    updates = 0

    for episode in range(cfg.episodes):
        lr = lr_at(cfg, episode)
        episode_return = 0.0
        discounted = 0.0
        steps = 0
        losses: list[float] = []
        epsilon = epsilon_at(cfg, global_step)
        try:
            env = env_factory(rng)
            state = env.reset()
            done = False
            while not done:
                epsilon = epsilon_at(cfg, global_step)
                action = select_action(online, state, env.legal_actions(), epsilon, rng)
                next_state, reward, done = env.step(action)
                buffer.push(Transition(state, action, reward, next_state, done))
                global_step += 1
                episode_return += reward
                discounted += cfg.gamma**steps * reward
                steps += 1
                if len(buffer) >= cfg.batch_size:
                    losses.append(train_step(online, target, adam, buffer.sample(cfg.batch_size, rng), cfg.gamma, lr))
                    updates += 1
                    if updates % cfg.target_sync_interval == 0:
                        target.load_state(online)
                state = next_state
        except EpisodeFailure as exc:
            log.warning("episode %d aborted: %s", episode, exc)
        entry = EpisodeStats(
            episode=episode,
            episode_return=episode_return,
            discounted_return=discounted,
            steps=steps,
            loss=float(np.mean(losses)) if losses else 0.0,
            epsilon=epsilon,
            lr=lr,
        )
        stats.append(entry)
        if on_episode is not None:
            on_episode(entry, online)
    return online, stats


STATS_FIELDS = ("episode", "return", "discounted_return", "steps", "loss", "epsilon", "lr")


def stats_table(stats: Iterable[EpisodeStats]) -> str:
    """Reward curve as a tab-separated table (repr floats round-trip exactly)."""
    lines = ["\t".join(STATS_FIELDS)]
    for s in stats:
        lines.append(
            "\t".join(
                [
                    str(s.episode),
                    repr(s.episode_return),
                    repr(s.discounted_return),
                    str(s.steps),
                    repr(s.loss),
                    repr(s.epsilon),
                    repr(s.lr),
                ]
            )
        )
    return "\n".join(lines) + "\n"
