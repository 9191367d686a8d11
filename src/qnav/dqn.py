"""Double-dueling DQN machinery: replay, TD targets, schedules, training loop.

Targets are the double-DQN form

    y = r                                        if done
    y = r + gamma * Q_target(s', argmax_a Q_online(s', a))   otherwise

with a target network refreshed by full copy every fixed number of gradient
updates. run_training keeps as many episodes in flight as the environment
declares (Env.max_in_flight) and feeds them all to one learner.
"""

from __future__ import annotations

import itertools
import logging
import random
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, field, fields
from functools import partial
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence

import numpy as np

from .core import STATE_DIM, ActionKind, EpisodeFailure, StateVector, Transition, encode_state
from .net import DEFAULT_WIDTHS, Adam, DuelingNet

log = logging.getLogger(__name__)


class Env(Protocol):
    """What the trainer needs from an environment.

    max_in_flight is how many episodes of this kind may run at once: 1 for
    an env whose results depend on call order.
    """

    max_in_flight: int

    def reset(self) -> StateVector: ...

    def legal_actions(self) -> Sequence[ActionKind]:
        """The legal actions in index order, as env.legal_action_set returns them."""

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
        if min(self.widths) < 1:
            raise ValueError(f"widths must be positive, got {list(self.widths)}")
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
    best = online.forward_batch(batch.next_states)[0].argmax(axis=1)
    next_q = target.forward_batch(batch.next_states)[0][np.arange(len(best)), best]
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
    q, cache = online.forward_batch(batch.states)
    n = len(y)
    rows = np.arange(n)
    taken = q[rows, batch.actions]
    diff = taken - y
    loss = float(np.mean(diff * diff))
    dq = np.zeros_like(q)
    dq[rows, batch.actions] = 2.0 * diff / n
    adam.step(online, online.backward_batch(dq, cache), lr)
    return loss


def masked_argmax(q: np.ndarray, legal: Sequence[ActionKind]) -> ActionKind:
    """Greedy action among legal ones; ties go to the lowest action index."""
    if not legal:
        raise ValueError("no legal actions")
    return max(legal, key=lambda a: (q[int(a)], -int(a)))


def select_action(
    net: DuelingNet,
    state: StateVector,
    legal: Sequence[ActionKind],
    epsilon: float,
    rng: random.Random,
) -> ActionKind:
    """Epsilon-greedy over legal, which lists the legal actions in index order."""
    if not legal:
        raise ValueError("no legal actions")
    if rng.random() < epsilon:
        return legal[rng.randrange(len(legal))]
    return masked_argmax(net.forward(encode_state(state)), legal)


@dataclass(slots=True, eq=False)
class _Run:
    """One episode in flight: its env, its pending reset or step, its totals."""

    episode: int
    lr: float
    epsilon: float
    env: Env | None = None
    pending: Callable[[], Any] | None = None  # its reset's result until action is set, then its step's
    state: StateVector | None = None
    action: ActionKind | None = None
    episode_return: float = 0.0
    discounted: float = 0.0
    steps: int = 0
    losses: list[float] = field(default_factory=list)

    def stats(self) -> EpisodeStats:
        return EpisodeStats(
            episode=self.episode,
            episode_return=self.episode_return,
            discounted_return=self.discounted,
            steps=self.steps,
            loss=float(np.mean(self.losses)) if self.losses else 0.0,
            epsilon=self.epsilon,
            lr=self.lr,
        )


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

    K = max_in_flight of the first env runs K episodes at once, each in a
    slot, and visits the slots round-robin in a fixed order. For a slot, the
    trainer waits for its pending reset or step, pushes the transition and
    runs one update, then either starts the slot's next episode (a finished
    one) or picks its next action and submits the step. Every RNG draw, push,
    update and episode start is made on this thread in that order, so a run
    is deterministic at any K if the env's results do not depend on timing;
    at K = 1 every call runs on this thread. Episodes take their number and
    lr by start order; stats and on_episode come in episode order. Any
    exception other than EpisodeFailure, or Ctrl-C, stops new work, waits
    for the resets and steps already running, and propagates.

    on_episode(stats, net) for episode n runs as soon as episodes 0..n have
    all finished, with the live online net: it holds every update made so
    far. At K = 1 that is the net after n + 1 episodes; at K > 1 it has also
    learned from the steps later episodes took while an earlier one ran.
    """
    rng = random.Random(cfg.seed)
    online = DuelingNet.initialize(cfg.seed, cfg.widths)
    target = online.clone()
    adam = Adam(online)
    buffer = ReplayBuffer(cfg.buffer_capacity)
    stats: list[EpisodeStats] = []
    finished: dict[int, EpisodeStats] = {}  # episodes that ended before an earlier one
    global_step = 0
    updates = 0

    def finish(run: _Run) -> None:
        finished[run.episode] = run.stats()
        while len(stats) in finished:
            entry = finished.pop(len(stats))
            stats.append(entry)
            if on_episode is not None:
                on_episode(entry, online)

    def episodes() -> Iterator[_Run]:
        """The episodes in start order, each with its env made."""
        for episode in range(cfg.episodes):
            run = _Run(episode, lr_at(cfg, episode), epsilon_at(cfg, global_step))
            try:
                run.env = env_factory(rng)
            except EpisodeFailure as exc:
                log.warning("episode %d aborted: %s", episode, exc)
                finish(run)
                continue
            yield run

    starts = episodes()
    slots = deque(itertools.islice(starts, 1))
    k = slots[0].env.max_in_flight if slots else 1
    log.info("episodes in flight: %d", k)
    pool = ThreadPoolExecutor(k, thread_name_prefix="qnav-train") if k > 1 else None

    def submit(fn: Callable[..., Any], *args: Any) -> Callable[[], Any]:
        """fn(*args) on a pool thread; at K = 1, on this thread once its result is asked for."""
        return pool.submit(fn, *args).result if pool is not None else partial(fn, *args)

    try:
        slots.extend(itertools.islice(starts, k - 1))
        for run in slots:
            run.pending = submit(run.env.reset)
        while slots:
            run = slots.popleft()
            ended = False
            try:
                if run.action is None:
                    run.state = run.pending()
                else:
                    next_state, reward, ended = run.pending()
                    buffer.push(Transition(run.state, run.action, reward, next_state, ended))
                    global_step += 1
                    run.episode_return += reward
                    run.discounted += cfg.gamma**run.steps * reward
                    run.steps += 1
                    if len(buffer) >= cfg.batch_size:
                        run.losses.append(
                            train_step(online, target, adam, buffer.sample(cfg.batch_size, rng), cfg.gamma, run.lr)
                        )
                        updates += 1
                        if updates % cfg.target_sync_interval == 0:
                            target.load_state(online)
                    run.state = next_state
                if not ended:
                    run.epsilon = epsilon_at(cfg, global_step)
                    run.action = select_action(online, run.state, run.env.legal_actions(), run.epsilon, rng)
                    run.pending = submit(run.env.step, run.action)
            except EpisodeFailure as exc:
                log.warning("episode %d aborted: %s", run.episode, exc)
                ended = True
            if ended:
                finish(run)
                run = next(starts, None)
                if run is None:
                    continue
                run.pending = submit(run.env.reset)
            slots.append(run)
    finally:
        if pool is not None:
            pool.shutdown()  # waits for the resets and steps still running
    return online, stats


# The reward curve's header: EpisodeStats' fields, with episode_return as return.
STATS_FIELDS = tuple("return" if f.name == "episode_return" else f.name for f in fields(EpisodeStats))


def stats_table(stats: Iterable[EpisodeStats]) -> str:
    """Reward curve as a tab-separated table (repr floats round-trip exactly)."""
    lines = ["\t".join(STATS_FIELDS)]
    lines.extend("\t".join(map(repr, astuple(s))) for s in stats)
    return "\n".join(lines) + "\n"
