"""Hand-rolled dueling MLP and Adam optimizer (no autodiff framework).

Architecture, for state dimension 7 and 5 actions:

    x (7) -> affine -> relu -> h1 -> affine -> relu -> h2
    h2 -> affine -> V (scalar)          value head
    h2 -> affine -> A (5)               advantage head
    Q(x) = V + A - mean(A)

Gradients are derived analytically; the aggregation layer backprops as
dV = sum(dQ), dA = dQ - mean(dQ). Backward returns the gradient laid out like
the parameters' flat buffer, so Adam steps it as one array.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .core import NUM_ACTIONS, STATE_DIM

CHECKPOINT_FORMAT = "qnav-checkpoint"
CHECKPOINT_VERSION = 1

DEFAULT_WIDTHS = (48, 40)

PARAM_KEYS = ("w1", "b1", "w2", "b2", "wv", "bv", "wa", "ba")


class CheckpointError(Exception):
    """Raised for unreadable, mismatched, or wrong-version checkpoints."""


def _param_shapes(widths: tuple[int, int]) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter, in PARAM_KEYS order (the flat-buffer layout)."""
    h1, h2 = widths
    return {
        "w1": (h1, STATE_DIM),
        "b1": (h1,),
        "w2": (h2, h1),
        "b2": (h2,),
        "wv": (h2,),
        "bv": (1,),
        "wa": (NUM_ACTIONS, h2),
        "ba": (NUM_ACTIONS,),
    }


def parameter_count(widths: tuple[int, int]) -> int:
    """Total scalar parameters for the given hidden widths (biases included)."""
    return sum(math.prod(shape) for shape in _param_shapes(widths).values())


def _views(flat: np.ndarray, widths: tuple[int, int]) -> dict[str, np.ndarray]:
    """One shaped view into flat per parameter, in PARAM_KEYS order."""
    views, offset = {}, 0
    for k, shape in _param_shapes(widths).items():
        size = math.prod(shape)
        views[k] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


class _Cache(NamedTuple):
    """Forward activations kept for the backward pass."""

    x: np.ndarray
    z1: np.ndarray
    h1: np.ndarray
    z2: np.ndarray
    h2: np.ndarray


class DuelingNet:
    """Two hidden layers plus value/advantage heads over 5 actions.

    All parameters live in one float64 buffer, ``flat``; each ``params[k]`` is
    a shaped view into it, so optimizer steps and target syncs touch the
    whole net in one operation.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        missing = [k for k in PARAM_KEYS if k not in params]
        if missing:
            raise ValueError(f"missing parameters: {missing}")
        arrays = {k: np.asarray(params[k], dtype=np.float64) for k in PARAM_KEYS}
        self.widths = (arrays["b1"].shape[0], arrays["b2"].shape[0])
        for k, shape in _param_shapes(self.widths).items():
            if arrays[k].shape != shape:
                raise ValueError(f"parameter {k} has shape {arrays[k].shape}, expected {shape}")
        self.flat = np.empty(parameter_count(self.widths))
        self.params = _views(self.flat, self.widths)
        for k, view in self.params.items():
            view[...] = arrays[k]

    @classmethod
    def initialize(cls, seed: int, widths: tuple[int, int] = DEFAULT_WIDTHS) -> "DuelingNet":
        """Seeded init: weights uniform in +-sqrt(1/fan_in), biases zero."""
        h1, h2 = widths
        if h1 < 1 or h2 < 1:
            raise ValueError(f"hidden widths must be positive: {widths}")
        rng = np.random.default_rng(seed)

        def uniform(fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
            bound = np.sqrt(1.0 / fan_in)
            return rng.uniform(-bound, bound, size=shape)

        params = {
            "w1": uniform(STATE_DIM, (h1, STATE_DIM)),
            "b1": np.zeros(h1),
            "w2": uniform(h1, (h2, h1)),
            "b2": np.zeros(h2),
            "wv": uniform(h2, (h2,)),
            "bv": np.zeros(1),
            "wa": uniform(h2, (NUM_ACTIONS, h2)),
            "ba": np.zeros(NUM_ACTIONS),
        }
        return cls(params)

    @property
    def num_parameters(self) -> int:
        return self.flat.size

    def clone(self) -> "DuelingNet":
        return DuelingNet(self.params)

    def load_state(self, other: "DuelingNet") -> None:
        """Copy parameters in place (target-network sync)."""
        if other.widths != self.widths:
            raise ValueError(f"width mismatch: {other.widths} vs {self.widths}")
        np.copyto(self.flat, other.flat)

    # -- forward ------------------------------------------------------------

    def _check_input(self, x: np.ndarray, batched: bool) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        want = (x.shape[-1] if x.ndim else -1)
        if (batched and (x.ndim != 2 or want != STATE_DIM)) or (
            not batched and x.shape != (STATE_DIM,)
        ):
            raise ValueError(f"bad input shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("non-finite input")
        return x

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, _Cache]:
        """Value and advantage for one state (7,) or a batch (B, 7).

        numpy multiplies a single state by the same BLAS call as a batch of
        one, so both shapes give the same bits.
        """
        p = self.params
        z1 = x @ p["w1"].T + p["b1"]
        h1 = np.maximum(z1, 0.0)
        z2 = h1 @ p["w2"].T + p["b2"]
        h2 = np.maximum(z2, 0.0)
        value = h2 @ p["wv"] + p["bv"][0]
        advantage = h2 @ p["wa"].T + p["ba"]
        return value, advantage, _Cache(x, z1, h1, z2, h2)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values for one state, shape (5,)."""
        value, advantage, _ = self._forward(self._check_input(x, batched=False))
        # sum / count is exactly what ndarray.mean computes, minus its overhead
        return value + advantage - advantage.sum() / NUM_ACTIONS

    def forward_batch(self, x: np.ndarray) -> tuple[np.ndarray, _Cache]:
        """Q-values for a batch of states, shape (B, 5), and the activations backward_batch reads."""
        value, advantage, cache = self._forward(self._check_input(x, batched=True))
        q = value[:, None] + advantage - advantage.sum(axis=1, keepdims=True) / NUM_ACTIONS
        return q, cache

    # -- backward -----------------------------------------------------------

    def backward_batch(self, dq: np.ndarray, cache: _Cache) -> np.ndarray:
        """Gradient of sum_b dq[b] . Q(x[b]) w.r.t. every parameter, laid out like flat.

        cache comes from forward_batch(x) with the current parameters; dq is
        the upstream gradient per row. Gradients are summed over the batch,
        so mean-loss scaling belongs in dq itself.
        """
        dq = np.asarray(dq, dtype=np.float64)
        if dq.shape != (cache.x.shape[0], NUM_ACTIONS):
            raise ValueError(f"bad upstream gradient shape {dq.shape}")
        p = self.params
        grad = np.empty_like(self.flat)
        g = _views(grad, self.widths)

        dvalue = dq.sum(axis=1)
        dadv = dq - dq.sum(axis=1, keepdims=True) / NUM_ACTIONS
        np.matmul(cache.h2.T, dvalue, out=g["wv"])
        dvalue.sum(axis=0, keepdims=True, out=g["bv"])
        np.matmul(dadv.T, cache.h2, out=g["wa"])
        dadv.sum(axis=0, out=g["ba"])

        dh2 = dvalue[:, None] * p["wv"][None, :] + dadv @ p["wa"]
        dz2 = dh2 * (cache.z2 > 0.0)
        np.matmul(dz2.T, cache.h1, out=g["w2"])
        dz2.sum(axis=0, out=g["b2"])
        dh1 = dz2 @ p["w2"]
        dz1 = dh1 * (cache.z1 > 0.0)
        np.matmul(dz1.T, cache.x, out=g["w1"])
        dz1.sum(axis=0, out=g["b1"])
        return grad


_TINY = np.finfo(np.float64).tiny


class Adam:
    """Adam with bias correction.

        m <- beta1*m + (1-beta1)*g        mhat = m / (1 - beta1^t)
        v <- beta2*v + (1-beta2)*g^2      vhat = v / (1 - beta2^t)
        theta <- theta - lr * mhat / (sqrt(vhat) + eps)

    The moments and the gradient g are flat, laid out like the net's
    parameter buffer, so one step is a handful of whole-buffer operations.
    The learning rate is passed per step so an external schedule can drive it.

    m decays by beta1 per step where the gradient stays 0, and would turn
    subnormal after about 6,900 steps, which makes every later step several
    times slower. Entries below the smallest normal float are flushed to 0;
    an m that small moves no parameter by even one ulp.
    """

    def __init__(self, net: DuelingNet, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(net.flat)
        self.v = np.zeros_like(net.flat)

    def step(self, net: DuelingNet, g: np.ndarray, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        m[np.abs(m) < _TINY] = 0.0
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        net.flat -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(net: DuelingNet, *, seed: int, episodes: int) -> bytes:
    """Serialize a net plus training metadata to a stable JSON document."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "widths": list(net.widths),
        "seed": seed,
        "episodes": episodes,
        "params": {k: net.params[k].tolist() for k in PARAM_KEYS},
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def load_checkpoint(data: bytes) -> tuple[DuelingNet, dict]:
    """Rebuild (net, meta) from save_checkpoint output.

    Raises CheckpointError for anything that is not a compatible checkpoint.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError("not a navigator checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version: {doc.get('version')!r}")
    try:
        params = {k: np.asarray(doc["params"][k], dtype=np.float64) for k in PARAM_KEYS}
        net = DuelingNet(params)
        meta = {
            "widths": tuple(doc["widths"]),
            "seed": doc["seed"],
            "episodes": doc["episodes"],
        }
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc
    if meta["widths"] != net.widths:
        raise CheckpointError(f"widths field {meta['widths']} does not match parameters {net.widths}")
    if not np.isfinite(net.flat).all():
        raise CheckpointError("checkpoint has non-finite parameters")
    return net, meta
