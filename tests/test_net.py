"""Network tests built around independent oracles.

The gradient oracle for the (1, 1)-width net is derived by hand in pure
Python floats, with no shared code path into the implementation.  Larger
widths are covered by central finite differences.
"""

import json
import math

import numpy as np
import pytest

from conftest import gradient_of, value_and_advantage
from qnav.net import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    DEFAULT_WIDTHS,
    PARAM_KEYS,
    Adam,
    CheckpointError,
    DuelingNet,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)


def flat_of(grads):
    """Per-parameter gradients laid out like net.flat: concatenated in PARAM_KEYS order."""
    return np.concatenate([grads[k] for k in PARAM_KEYS], axis=None)


def enumerate_params(net):
    """Independent count: sum of array sizes actually allocated."""
    return sum(net.params[k].size for k in PARAM_KEYS)


class TestParameterCount:
    def test_default_widths(self):
        assert parameter_count(DEFAULT_WIDTHS) == 2590

    def test_unit_widths_by_hand(self):
        # w1 1x7 + b1 1 + w2 1x1 + b2 1 + wv 1 + bv 1 + wa 5x1 + ba 5
        assert parameter_count((1, 1)) == 7 + 1 + 1 + 1 + 1 + 1 + 5 + 5 == 22

    @pytest.mark.parametrize("widths", [(1, 1), (4, 4), (48, 40), (64, 32), (3, 9)])
    def test_formula_matches_allocation(self, widths):
        net = DuelingNet.initialize(0, widths)
        assert parameter_count(widths) == enumerate_params(net)


class TestInitialization:
    def test_same_seed_is_identical(self):
        a = DuelingNet.initialize(7)
        b = DuelingNet.initialize(7)
        for k in PARAM_KEYS:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_different_seeds_differ(self):
        a = DuelingNet.initialize(0)
        b = DuelingNet.initialize(1)
        assert any(not np.array_equal(a.params[k], b.params[k]) for k in PARAM_KEYS)

    def test_biases_zero_and_weights_bounded(self):
        net = DuelingNet.initialize(3, (48, 40))
        for k in ("b1", "b2", "bv", "ba"):
            assert np.all(net.params[k] == 0.0)
        bounds = {
            "w1": math.sqrt(1 / 7),
            "w2": math.sqrt(1 / 48),
            "wv": math.sqrt(1 / 40),
            "wa": math.sqrt(1 / 40),
        }
        for k, bound in bounds.items():
            arr = net.params[k]
            assert np.all(np.abs(arr) <= bound)
            # A degenerate draw this tight would signal a scaling bug.
            assert np.max(np.abs(arr)) > 0.5 * bound

    def test_clone_is_deep(self):
        net = DuelingNet.initialize(0, (4, 4))
        twin = net.clone()
        twin.params["w1"][0, 0] += 1.0
        assert net.params["w1"][0, 0] != twin.params["w1"][0, 0]

    def test_load_state_copies_values(self):
        src = DuelingNet.initialize(0, (4, 4))
        dst = DuelingNet.initialize(1, (4, 4))
        dst.load_state(src)
        for k in PARAM_KEYS:
            np.testing.assert_array_equal(dst.params[k], src.params[k])
        src.params["w1"][0, 0] += 1.0
        assert dst.params["w1"][0, 0] != src.params["w1"][0, 0]


def assert_params_are_views(net):
    for k in PARAM_KEYS:
        assert np.shares_memory(net.params[k], net.flat), k
    assert sum(net.params[k].size for k in PARAM_KEYS) == net.flat.size


class TestFlatParameters:
    def test_initialize_lays_params_over_the_buffer(self):
        net = DuelingNet.initialize(0, (4, 3))
        assert_params_are_views(net)
        net.params["ba"][2] = 123.0
        assert np.count_nonzero(net.flat == 123.0) == 1

    def test_clone_owns_a_separate_buffer(self):
        net = DuelingNet.initialize(0, (4, 3))
        twin = net.clone()
        assert_params_are_views(twin)
        assert not np.shares_memory(twin.flat, net.flat)
        for k in PARAM_KEYS:
            assert not np.shares_memory(twin.params[k], net.flat), k
        np.testing.assert_array_equal(twin.flat, net.flat)

    def test_load_state_keeps_views(self):
        src = DuelingNet.initialize(0, (4, 3))
        dst = DuelingNet.initialize(1, (4, 3))
        dst.load_state(src)
        assert_params_are_views(dst)
        assert not np.shares_memory(dst.flat, src.flat)

    def test_load_checkpoint_keeps_views(self):
        net = DuelingNet.initialize(2, (4, 3))
        loaded, _ = load_checkpoint(save_checkpoint(net, seed=2, episodes=0))
        assert_params_are_views(loaded)

    def test_adam_step_keeps_views(self):
        net = DuelingNet.initialize(3, (4, 3))
        Adam(net).step(net, np.ones_like(net.flat), lr=0.01)
        assert_params_are_views(net)


class TestForward:
    def test_dueling_identity(self):
        net = DuelingNet.initialize(0)
        x = np.linspace(-1, 1, 7)
        v, a = value_and_advantage(net, x)
        q = net.forward(x)
        np.testing.assert_allclose(q, v + a - a.mean(), rtol=0, atol=1e-12)

    def test_batch_matches_single(self):
        net = DuelingNet.initialize(2, (6, 5))
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1, 1, size=(9, 7))
        batch, _ = net.forward_batch(xs)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(batch[i], net.forward(x), atol=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [np.zeros(6), np.zeros((2, 7, 1)), np.array([np.nan] + [0.0] * 6)],
    )
    def test_rejects_bad_inputs(self, bad):
        net = DuelingNet.initialize(0, (4, 4))
        with pytest.raises(ValueError):
            net.forward(bad)


def hand_gradients_unit_net(net, x, dq):
    """Scalar-by-scalar backprop for widths (1, 1), pure Python floats."""
    p = net.params
    w1 = [float(p["w1"][0, j]) for j in range(7)]
    b1 = float(p["b1"][0])
    w2 = float(p["w2"][0, 0])
    b2 = float(p["b2"][0])
    wv = float(p["wv"][0])
    wa = [float(p["wa"][i, 0]) for i in range(5)]

    z1 = sum(w1[j] * float(x[j]) for j in range(7)) + b1
    h1 = max(z1, 0.0)
    z2 = w2 * h1 + b2
    h2 = max(z2, 0.0)

    dqs = [float(g) for g in dq]
    dvalue = sum(dqs)
    mean_dq = dvalue / 5.0
    dadv = [g - mean_dq for g in dqs]

    g = {}
    g["wv"] = np.array([dvalue * h2])
    g["bv"] = np.array([dvalue])
    g["wa"] = np.array([[d * h2] for d in dadv])
    g["ba"] = np.array(dadv)
    dh2 = dvalue * wv + sum(dadv[i] * wa[i] for i in range(5))
    dz2 = dh2 if z2 > 0 else 0.0
    g["w2"] = np.array([[dz2 * h1]])
    g["b2"] = np.array([dz2])
    dh1 = w2 * dz2
    dz1 = dh1 if z1 > 0 else 0.0
    g["w1"] = np.array([[dz1 * float(x[j]) for j in range(7)]])
    g["b1"] = np.array([dz1])
    return g


class TestBackward:
    def test_unit_net_matches_hand_derivation(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            net = DuelingNet.initialize(int(rng.integers(1000)), (1, 1))
            # Shift biases so both relu branches get exercised.
            net.params["b1"][0] = rng.normal() * 0.5
            net.params["b2"][0] = rng.normal() * 0.5
            x = rng.uniform(-1, 1, 7)
            dq = rng.normal(size=5)
            got = gradient_of(net, x, dq)
            want = hand_gradients_unit_net(net, x, dq)
            for k in PARAM_KEYS:
                np.testing.assert_allclose(
                    got[k], want[k], rtol=1e-12, atol=1e-12, err_msg=k
                )

    def test_small_widths_match_finite_differences(self):
        rng = np.random.default_rng(5)
        net = DuelingNet.initialize(5, (4, 3))
        x = rng.uniform(-1, 1, 7)
        dq = rng.normal(size=5)
        analytic = gradient_of(net, x, dq)
        h = 1e-5
        for k in PARAM_KEYS:
            flat = net.params[k].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = float(dq @ net.forward(x))
                flat[i] = orig - h
                down = float(dq @ net.forward(x))
                flat[i] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - analytic[k].ravel()[i]) < 1e-6, (k, i)

    def test_batch_gradient_sums_rows(self):
        net = DuelingNet.initialize(9, (5, 4))
        rng = np.random.default_rng(1)
        xs = rng.uniform(-1, 1, size=(4, 7))
        dqs = rng.normal(size=(4, 5))
        batched = net.backward_batch(dqs, net.forward_batch(xs)[1])
        assert batched.shape == net.flat.shape
        summed = sum(flat_of(gradient_of(net, xs[i], dqs[i])) for i in range(4))
        np.testing.assert_allclose(batched, summed, atol=1e-12)

    @pytest.mark.parametrize("widths", [(1, 1), (5, 4), (48, 40)])
    @pytest.mark.parametrize("batch", [1, 6, 64])
    def test_flat_gradient_is_the_per_key_blocks_concatenated(self, widths, batch):
        # Reference: each block as its own array, from the same expressions,
        # then concatenated in PARAM_KEYS order. Writing the blocks straight
        # into the flat buffer must give the same bits.
        rng = np.random.default_rng(batch)
        net = DuelingNet.initialize(batch, widths)
        q, cache = net.forward_batch(rng.uniform(0, 1, size=(batch, 7)))
        dq = rng.normal(size=q.shape)
        p = net.params
        dvalue = dq.sum(axis=1)
        dadv = dq - dq.sum(axis=1, keepdims=True) / 5
        dz2 = (dvalue[:, None] * p["wv"][None, :] + dadv @ p["wa"]) * (cache.z2 > 0.0)
        dz1 = (dz2 @ p["w2"]) * (cache.z1 > 0.0)
        want = {
            "w1": dz1.T @ cache.x,
            "b1": dz1.sum(axis=0),
            "w2": dz2.T @ cache.h1,
            "b2": dz2.sum(axis=0),
            "wv": cache.h2.T @ dvalue,
            "bv": np.array([dvalue.sum()]),
            "wa": dadv.T @ cache.h2,
            "ba": dadv.sum(axis=0),
        }
        got = net.backward_batch(dq, cache)
        assert got.dtype == np.float64 and got.shape == net.flat.shape
        assert not np.shares_memory(got, net.flat)
        np.testing.assert_array_equal(got, flat_of(want))


class TestAdam:
    def test_matches_per_parameter_reference_bit_for_bit(self):
        # The update as separate per-parameter operations, in the order the
        # Adam formulas read; the flat, in-place step must reproduce it exactly.
        rng = np.random.default_rng(17)
        net = DuelingNet.initialize(8, (6, 5))
        ref = {k: net.params[k].copy() for k in PARAM_KEYS}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(v) for k, v in ref.items()}
        opt = Adam(net)
        for t in range(1, 6):
            grads = {k: rng.normal(size=net.params[k].shape) for k in PARAM_KEYS}
            lr = 0.01 / t
            opt.step(net, flat_of(grads), lr)
            for k in PARAM_KEYS:
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * grads[k]
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * grads[k] * grads[k]
                mhat = m[k] / (1.0 - 0.9**t)
                vhat = v[k] / (1.0 - 0.999**t)
                ref[k] -= lr * mhat / (np.sqrt(vhat) + 1e-8)
                np.testing.assert_array_equal(net.params[k], ref[k], err_msg=k)

    def test_first_step_closed_form(self):
        # With fresh moments, mhat = g and sqrt(vhat) = |g|, so the step is
        # -lr * g / (|g| + eps) regardless of the gradient's magnitude.
        net = DuelingNet.initialize(0, (1, 1))
        theta0 = float(net.params["bv"][0])
        g = 0.2
        grads = {k: np.zeros_like(net.params[k]) for k in PARAM_KEYS}
        grads["bv"][0] = g
        Adam(net).step(net, flat_of(grads), lr=0.01)
        delta = float(net.params["bv"][0]) - theta0
        expected = -0.01 * g / (abs(g) + 1e-8)
        assert abs(delta - expected) < 1e-15
        assert abs(delta + 0.01) < 1e-8

    def test_constant_gradient_steps_accumulate(self):
        net = DuelingNet.initialize(0, (1, 1))
        theta0 = float(net.params["b2"][0])
        g = -0.7
        grads = {k: np.zeros_like(net.params[k]) for k in PARAM_KEYS}
        grads["b2"][0] = g
        opt = Adam(net)
        opt.step(net, flat_of(grads), lr=0.01)
        opt.step(net, flat_of(grads), lr=0.01)
        expected = theta0 - 2 * 0.01 * g / (abs(g) + 1e-8)
        assert abs(float(net.params["b2"][0]) - expected) < 1e-12

    def test_zero_gradient_is_a_no_op(self):
        net = DuelingNet.initialize(4, (3, 3))
        before = {k: net.params[k].copy() for k in PARAM_KEYS}
        grads = {k: np.zeros_like(net.params[k]) for k in PARAM_KEYS}
        Adam(net).step(net, flat_of(grads), lr=0.01)
        for k in PARAM_KEYS:
            np.testing.assert_array_equal(net.params[k], before[k])

    def test_zero_gradients_leave_no_subnormal_moment(self):
        # After ~6,900 zero-gradient steps m would be subnormal; it is flushed
        # to 0 instead, and the parameters match unflushed Adam bit for bit.
        rng = np.random.default_rng(3)
        net = DuelingNet.initialize(5, (4, 3))
        opt = Adam(net)
        flat, m, v = net.flat.copy(), np.zeros_like(net.flat), np.zeros_like(net.flat)
        tiny = np.finfo(np.float64).tiny
        for t in range(1, 7101):
            grads = {k: (rng.normal(size=net.params[k].shape) if t <= 5 else np.zeros(net.params[k].shape))
                     for k in PARAM_KEYS}
            g = flat_of(grads)
            opt.step(net, g, lr=0.01)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            flat -= 0.01 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        assert np.any((m != 0) & (np.abs(m) < tiny))  # the reference did go subnormal
        assert not np.any((opt.m != 0) & (np.abs(opt.m) < tiny))
        np.testing.assert_array_equal(net.flat, flat)

    def test_per_call_learning_rate(self):
        a = DuelingNet.initialize(0, (2, 2))
        b = DuelingNet.initialize(0, (2, 2))
        Adam(a).step(a, np.ones_like(a.flat), lr=0.01)
        Adam(b).step(b, np.ones_like(b.flat), lr=0.005)
        da = a.params["w1"] - DuelingNet.initialize(0, (2, 2)).params["w1"]
        db = b.params["w1"] - DuelingNet.initialize(0, (2, 2)).params["w1"]
        np.testing.assert_allclose(da, 2 * db, rtol=1e-9)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = DuelingNet.initialize(13, (6, 5))
        blob = save_checkpoint(net, seed=13, episodes=42)
        path = tmp_path / "ck.json"
        path.write_bytes(blob)
        loaded, meta = load_checkpoint(path.read_bytes())
        for k in PARAM_KEYS:
            np.testing.assert_array_equal(loaded.params[k], net.params[k])
        assert loaded.widths == (6, 5)
        assert meta["seed"] == 13
        assert meta["episodes"] == 42

    def test_loads_a_file_carrying_extra(self):
        # Older checkpoints could carry an "extra" object; it is ignored.
        net = DuelingNet.initialize(13, (6, 5))
        doc = json.loads(save_checkpoint(net, seed=13, episodes=42))
        doc["extra"] = {"note": "x"}
        loaded, meta = load_checkpoint(json.dumps(doc).encode("utf-8"))
        np.testing.assert_array_equal(loaded.flat, net.flat)
        assert meta == {"widths": (6, 5), "seed": 13, "episodes": 42}

    def test_reload_preserves_forward(self):
        net = DuelingNet.initialize(3)
        loaded, _ = load_checkpoint(save_checkpoint(net, seed=3, episodes=0))
        x = np.linspace(0, 1, 7)
        np.testing.assert_array_equal(loaded.forward(x), net.forward(x))

    def test_rejects_garbage_bytes(self):
        with pytest.raises(CheckpointError):
            load_checkpoint(b"not json at all")

    def test_rejects_wrong_format_tag(self):
        blob = json.loads(save_checkpoint(DuelingNet.initialize(0), seed=0, episodes=0))
        blob["format"] = "something-else"
        with pytest.raises(CheckpointError):
            load_checkpoint(json.dumps(blob).encode())

    def test_rejects_future_version(self):
        blob = json.loads(save_checkpoint(DuelingNet.initialize(0), seed=0, episodes=0))
        blob["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(CheckpointError):
            load_checkpoint(json.dumps(blob).encode())

    def test_rejects_shape_mismatch(self):
        blob = json.loads(save_checkpoint(DuelingNet.initialize(0), seed=0, episodes=0))
        blob["params"]["w1"] = [[0.0] * 7]
        with pytest.raises(CheckpointError):
            load_checkpoint(json.dumps(blob).encode())

    def test_rejects_missing_params(self):
        blob = json.loads(save_checkpoint(DuelingNet.initialize(0), seed=0, episodes=0))
        del blob["params"]["wv"]
        with pytest.raises(CheckpointError):
            load_checkpoint(json.dumps(blob).encode())

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_params(self, value):
        # json reads NaN and Infinity; a net holding one would make every Q-value non-finite.
        blob = json.loads(save_checkpoint(DuelingNet.initialize(0), seed=0, episodes=0))
        blob["params"]["ba"][0] = value
        text = json.dumps(blob)
        assert ("NaN" if math.isnan(value) else "Infinity") in text
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(text.encode())

    def test_format_tag_value(self):
        blob = json.loads(save_checkpoint(DuelingNet.initialize(0), seed=0, episodes=0))
        assert blob["format"] == CHECKPOINT_FORMAT == "qnav-checkpoint"
        assert blob["version"] == CHECKPOINT_VERSION
