"""Planted-optimum MDP testbed: proves the trainer without any LLM in the loop.

Each state has one planted action whose reward band sits far above the rest;
sharpness 1.0 collapses the bands to exactly 1.0 and 0.0. Planted actions are
always non-terminal ones, so following them is provably optimal at every step
(the band gap 0.7..1.0 vs 0.0..0.3 dominates any discounted continuation
difference). Masking matches the reasoning environment exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .core import MAX_SCORE, NUM_ACTIONS, STATE_DIM, ActionKind, StateVector, encode_state
from .dqn import masked_argmax
from .env import legal_action_set

_TERM = int(ActionKind.TERMINATE)
MAX_STATES = (MAX_SCORE + 1) ** STATE_DIM  # distinct StateVectors


@dataclass(frozen=True)
class ScriptedMdp:
    """Finite MDP over StateVector observations with deterministic tables."""

    states: tuple[StateVector, ...]
    planted: tuple[int, ...]  # optimal action index per state, never Terminate
    rewards: tuple[tuple[float, ...], ...]  # [state][action]
    next_state: tuple[tuple[int, ...], ...]  # [state][action], permutations
    horizon: int = 5

    @property
    def n_states(self) -> int:
        return len(self.states)


def make_scripted(
    n_states: int = 8, sharpness: float = 0.7, seed: int = 0, horizon: int = 5
) -> ScriptedMdp:
    """Deterministic generation of a planted-optimum MDP.

    n_states in [2, MAX_STATES] distinct states are drawn. sharpness in [0, 1]
    shrinks the reward noise band 0.3 * (1 - sharpness): planted actions draw
    from [1 - band, 1], the rest from [0, band].
    """
    if not 2 <= n_states <= MAX_STATES:
        raise ValueError(f"n_states: must lie in [2, {MAX_STATES}], got {n_states}")
    if not 0.0 <= sharpness <= 1.0:
        raise ValueError(f"sharpness: must lie in [0, 1], got {sharpness}")
    rng = np.random.default_rng(seed)
    codes = rng.choice(MAX_STATES, size=n_states, replace=False)
    states = []
    for code in codes:
        digits = []
        value = int(code)
        for _ in range(7):
            digits.append(value % 4)
            value //= 4
        states.append(StateVector(tuple(digits)))
    planted = tuple(int(a) for a in rng.integers(0, NUM_ACTIONS - 1, size=n_states))
    band = 0.3 * (1.0 - sharpness)
    rewards = []
    for s in range(n_states):
        row = []
        for a in range(NUM_ACTIONS):
            u = float(rng.random())
            row.append(1.0 - band * u if a == planted[s] else band * u)
        rewards.append(tuple(row))
    # one permutation per action, applied to every state
    perms = [rng.permutation(n_states) for _ in range(NUM_ACTIONS)]
    next_state = tuple(tuple(int(perms[a][s]) for a in range(NUM_ACTIONS)) for s in range(n_states))
    return ScriptedMdp(
        states=tuple(states),
        planted=planted,
        rewards=tuple(rewards),
        next_state=next_state,
        horizon=horizon,
    )


@dataclass(frozen=True)
class OracleSolution:
    """Exact backward-induction solution over (step, state)."""

    value: float  # expected optimal return from the uniform initial distribution
    values: tuple[tuple[float, ...], ...]  # [step][state]
    actions: tuple[tuple[int, ...], ...]  # [step][state]


def optimal_return(mdp: ScriptedMdp, gamma: float) -> OracleSolution:
    """Exact value iteration over the finite horizon; no sampling anywhere."""
    n, horizon = mdp.n_states, mdp.horizon
    values = [[0.0] * n for _ in range(horizon + 1)]
    actions = [[_TERM] * n for _ in range(horizon)]
    for t in range(horizon - 1, -1, -1):
        legal = legal_action_set(False, t, horizon)
        for s in range(n):
            best_value, best_action = -np.inf, _TERM
            for a in legal:
                q = mdp.rewards[s][a]
                if a != _TERM:
                    q += gamma * values[t + 1][mdp.next_state[s][a]]
                if q > best_value:
                    best_value, best_action = q, a
            values[t][s] = best_value
            actions[t][s] = int(best_action)
    return OracleSolution(
        value=float(np.mean(values[0])),
        values=tuple(tuple(row) for row in values[:horizon]),
        actions=tuple(tuple(row) for row in actions),
    )


def greedy_return(mdp: ScriptedMdp, net, gamma: float) -> float:
    """Exact return of the net's masked greedy policy (uniform initial states).

    net only needs a forward(x) -> (5,) array; tie-breaking matches the
    trainer's greedy action selection.
    """
    n, horizon = mdp.n_states, mdp.horizon
    greedy: list[list[int]] = []
    for t in range(horizon):
        legal = legal_action_set(False, t, horizon)
        row = []
        for s in range(n):
            q = net.forward(encode_state(mdp.states[s]))
            row.append(int(masked_argmax(q, legal)))
        greedy.append(row)
    value = [[0.0] * n for _ in range(horizon + 1)]
    for t in range(horizon - 1, -1, -1):
        for s in range(n):
            a = greedy[t][s]
            v = mdp.rewards[s][a]
            if a != _TERM:
                v += gamma * value[t + 1][mdp.next_state[s][a]]
            value[t][s] = v
    return float(np.mean(value[0]))


class SyntheticEpisode:
    """Trainer-protocol episode over a ScriptedMdp, uniform random start."""

    max_in_flight = 1  # a step costs microseconds; a thread hand-off would cost more

    def __init__(self, mdp: ScriptedMdp, rng: random.Random):
        self.mdp = mdp
        self._start = rng.randrange(mdp.n_states)
        self._state_idx = self._start
        self._taken = 0
        self._done = False

    def reset(self) -> StateVector:
        self._state_idx = self._start
        self._taken = 0
        self._done = False
        return self.mdp.states[self._state_idx]

    def legal_actions(self) -> tuple[ActionKind, ...]:
        return legal_action_set(False, self._taken, self.mdp.horizon)

    def step(self, action: ActionKind) -> tuple[StateVector, float, bool]:
        if self._done:
            raise RuntimeError("episode already finished")
        if action not in self.legal_actions():
            raise ValueError(f"illegal action {action.name} at step {self._taken}")
        s, a = self._state_idx, int(action)
        reward = self.mdp.rewards[s][a]
        self._taken += 1
        if action is ActionKind.TERMINATE:
            self._done = True
            return self.mdp.states[s], reward, True
        self._state_idx = self.mdp.next_state[s][a]
        return self.mdp.states[self._state_idx], reward, False


def make_env_factory(mdp: ScriptedMdp):
    """Factory suitable for dqn.run_training."""

    def factory(rng: random.Random) -> SyntheticEpisode:
        return SyntheticEpisode(mdp, rng)

    return factory
