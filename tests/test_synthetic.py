"""Synthetic testbed tests.

optimal_return is cross-checked against a recursive enumeration oracle that
shares no code with the backward-induction implementation.
"""

import math
import random

import numpy as np
import pytest

from qnav.core import ActionKind, NUM_ACTIONS, StateVector, encode_state
from qnav.env import legal_action_set
from qnav.synthetic import (
    OracleSolution,
    ScriptedMdp,
    SyntheticEpisode,
    greedy_return,
    make_env_factory,
    make_scripted,
    optimal_return,
)
from qnav.net import DuelingNet

TERM = int(ActionKind.TERMINATE)


def all_ones_mdp(horizon=5):
    """Two states, every reward 1.0, identity transitions."""
    return ScriptedMdp(
        states=(StateVector((0,) * 7), StateVector((1,) * 7)),
        planted=(0, 0),
        rewards=((1.0,) * 5, (1.0,) * 5),
        next_state=((0,) * 5, (1,) * 5),
        horizon=horizon,
    )


def brute_force_value(mdp, gamma):
    """Enumerate every legal action sequence recursively; no DP."""

    def best_from(s, t):
        legal = [int(a) for a in legal_action_set(False, t, mdp.horizon)]
        best = -math.inf
        for a in sorted(legal):
            r = mdp.rewards[s][a]
            if a == TERM:
                value = r
            else:
                value = r + gamma * best_from(mdp.next_state[s][a], t + 1)
            best = max(best, value)
        return best

    return sum(best_from(s, 0) for s in range(mdp.n_states)) / mdp.n_states


class TestMakeScripted:
    def test_deterministic_per_seed(self):
        a = make_scripted(6, seed=3)
        b = make_scripted(6, seed=3)
        assert a == b
        assert make_scripted(6, seed=4) != a

    def test_states_are_distinct(self):
        mdp = make_scripted(16, seed=0)
        assert len({s.scores for s in mdp.states}) == 16

    def test_planted_actions_are_never_terminate(self):
        for seed in range(10):
            mdp = make_scripted(8, seed=seed)
            assert all(0 <= p < TERM for p in mdp.planted)

    def test_full_sharpness_makes_rewards_binary(self):
        mdp = make_scripted(8, sharpness=1.0, seed=1)
        for s in range(8):
            for a in range(NUM_ACTIONS):
                want = 1.0 if a == mdp.planted[s] else 0.0
                assert mdp.rewards[s][a] == want

    def test_reward_bands_scale_with_sharpness(self):
        mdp = make_scripted(8, sharpness=0.7, seed=2)
        band = 0.3 * (1 - 0.7)
        for s in range(8):
            for a in range(NUM_ACTIONS):
                r = mdp.rewards[s][a]
                if a == mdp.planted[s]:
                    assert 1.0 - band <= r <= 1.0
                else:
                    assert 0.0 <= r <= band

    def test_transitions_are_permutations_per_action(self):
        mdp = make_scripted(9, seed=5)
        for a in range(NUM_ACTIONS):
            column = [mdp.next_state[s][a] for s in range(9)]
            assert sorted(column) == list(range(9))

    def test_same_permutation_shared_across_states(self):
        # column a is one permutation applied to every state, so two
        # different states never collide under the same action
        mdp = make_scripted(5, seed=6)
        for a in range(NUM_ACTIONS):
            col = [mdp.next_state[s][a] for s in range(5)]
            assert len(set(col)) == 5

    @pytest.mark.parametrize("bad_kwargs", [{"n_states": 1}, {"sharpness": 1.2}, {"sharpness": -0.1}])
    def test_rejects_bad_arguments(self, bad_kwargs):
        with pytest.raises(ValueError):
            make_scripted(**{"n_states": 4, **bad_kwargs})


class TestOptimalReturn:
    def test_all_ones_chain_by_hand(self):
        # 1 + 0.9 + 0.81 + 0.729 + 0.6561
        solution = optimal_return(all_ones_mdp(), gamma=0.9)
        assert solution.value == pytest.approx(4.0951, abs=1e-9)

    def test_gamma_zero_takes_best_immediate_reward(self):
        mdp = make_scripted(4, sharpness=1.0, seed=0)
        solution = optimal_return(mdp, gamma=0.0)
        # best immediate reward is the planted 1.0 unless the planted action
        # is Refine, which the mask hides at step 0
        refine = int(ActionKind.REFINE)
        want = sum(1.0 if p != refine else 0.0 for p in mdp.planted) / 4
        assert solution.value == pytest.approx(want, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        for seed in range(6):
            mdp = make_scripted(n_states=4, sharpness=0.5, seed=seed, horizon=4)
            got = optimal_return(mdp, gamma=0.9).value
            want = brute_force_value(mdp, 0.9)
            assert got == pytest.approx(want, abs=1e-12), seed

    def test_matches_brute_force_on_default_horizon(self):
        mdp = make_scripted(n_states=3, sharpness=0.3, seed=11)
        got = optimal_return(mdp, gamma=0.9).value
        assert got == pytest.approx(brute_force_value(mdp, 0.9), abs=1e-12)

    def test_solution_tables_have_expected_shape(self):
        mdp = make_scripted(4, seed=1)
        solution = optimal_return(mdp, 0.9)
        assert isinstance(solution, OracleSolution)
        assert len(solution.values) == mdp.horizon
        assert len(solution.actions) == mdp.horizon
        assert all(len(row) == 4 for row in solution.values)

    def test_last_step_action_is_terminate(self):
        mdp = make_scripted(4, seed=2)
        solution = optimal_return(mdp, 0.9)
        assert set(solution.actions[-1]) == {TERM}

    def test_refine_not_chosen_at_step_zero(self):
        for seed in range(5):
            mdp = make_scripted(6, seed=seed)
            solution = optimal_return(mdp, 0.9)
            assert int(ActionKind.REFINE) not in solution.actions[0]


class PlantedNet:
    """Duck-typed net whose argmax is the planted action for every state."""

    def __init__(self, mdp):
        self._by_scores = {
            tuple(s.scores): p for s, p in zip(mdp.states, mdp.planted)
        }

    def forward(self, x):
        scores = tuple(int(round(float(v) * 3)) for v in x)
        q = np.zeros(5)
        q[self._by_scores[scores]] = 1.0
        return q


class AffineWrapped:
    def __init__(self, net, scale, shift):
        self.net = net
        self.scale = scale
        self.shift = shift

    def forward(self, x):
        return self.scale * self.net.forward(x) + self.shift


class TestGreedyReturn:
    def test_never_beats_the_oracle(self):
        for seed in range(10):
            mdp = make_scripted(6, sharpness=0.6, seed=seed)
            net = DuelingNet.initialize(seed, (8, 6))
            optimal = optimal_return(mdp, 0.9).value
            assert greedy_return(mdp, net, 0.9) <= optimal + 1e-9

    def test_planted_policy_is_optimal_at_full_sharpness(self):
        mdp = make_scripted(8, sharpness=1.0, seed=3)
        got = greedy_return(mdp, PlantedNet(mdp), 0.9)
        assert got == pytest.approx(optimal_return(mdp, 0.9).value, abs=1e-12)

    def test_invariant_under_positive_affine_rescaling(self):
        mdp = make_scripted(6, sharpness=0.4, seed=4)
        net = DuelingNet.initialize(7, (8, 6))
        base = greedy_return(mdp, net, 0.9)
        scaled = greedy_return(mdp, AffineWrapped(net, 2.5, 7.0), 0.9)
        assert scaled == base

    def test_uses_trainer_tie_breaking(self):
        # all-zero Q ties everywhere; lowest legal index wins, which at step 0
        # is ReasonOneStep, so the policy never terminates early
        class ZeroNet:
            def forward(self, x):
                return np.zeros(5)

        mdp = all_ones_mdp()
        got = greedy_return(mdp, ZeroNet(), 0.9)
        assert got == pytest.approx(4.0951, abs=1e-9)


class TestSyntheticEpisode:
    def test_reset_restores_start_state(self):
        mdp = make_scripted(6, seed=0)
        ep = SyntheticEpisode(mdp, random.Random(3))
        first = ep.reset()
        ep.step(ActionKind.REASON_ONE_STEP)
        assert ep.reset() == first

    def test_rewards_and_transitions_follow_tables(self):
        mdp = make_scripted(6, seed=1)
        ep = SyntheticEpisode(mdp, random.Random(0))
        state = ep.reset()
        s = mdp.states.index(state)
        a = ActionKind.DECOMPOSE
        next_state, reward, done = ep.step(a)
        assert reward == mdp.rewards[s][int(a)]
        assert next_state == mdp.states[mdp.next_state[s][int(a)]]
        assert done is False

    def test_terminate_ends_with_table_reward(self):
        mdp = make_scripted(6, seed=2)
        ep = SyntheticEpisode(mdp, random.Random(1))
        state = ep.reset()
        s = mdp.states.index(state)
        next_state, reward, done = ep.step(ActionKind.TERMINATE)
        assert done is True
        assert reward == mdp.rewards[s][TERM]
        assert next_state == state

    def test_masking_is_enforced(self):
        mdp = make_scripted(6, seed=3)
        ep = SyntheticEpisode(mdp, random.Random(2))
        ep.reset()
        with pytest.raises(ValueError):
            ep.step(ActionKind.REFINE)  # hidden at step 0

    def test_forced_terminate_at_horizon(self):
        mdp = make_scripted(6, seed=4)
        ep = SyntheticEpisode(mdp, random.Random(5))
        ep.reset()
        for _ in range(4):
            ep.step(ActionKind.REASON_ONE_STEP)
        assert ep.legal_actions() == [ActionKind.TERMINATE]
        with pytest.raises(ValueError):
            ep.step(ActionKind.REASON_ONE_STEP)
        _, _, done = ep.step(ActionKind.TERMINATE)
        assert done is True

    def test_stepping_after_done_raises(self):
        mdp = make_scripted(6, seed=5)
        ep = SyntheticEpisode(mdp, random.Random(0))
        ep.reset()
        ep.step(ActionKind.TERMINATE)
        with pytest.raises(RuntimeError):
            ep.step(ActionKind.TERMINATE)

    def test_factory_varies_start_states_with_rng(self):
        mdp = make_scripted(8, seed=6)
        factory = make_env_factory(mdp)
        rng = random.Random(9)
        starts = {factory(rng).reset().scores for _ in range(40)}
        assert len(starts) > 1

    def test_observations_encode_cleanly(self):
        mdp = make_scripted(4, seed=7)
        ep = SyntheticEpisode(mdp, random.Random(0))
        vec = encode_state(ep.reset())
        assert vec.shape == (7,)
        assert np.all((vec >= 0) & (vec <= 1))
