"""Dense-network core: forward, manual reverse-mode gradients, Adam, soft update.

The kernels work over leading axes, so one net and a stack of nets run the
same lines: one net's batch is (B, in) against weights (in, out) and biases
(out,); m stacked nets' batches are (m, B, in) against weights (m, in, out)
and biases (m, 1, out). Arithmetic stays in the dtype of the arrays given
(the MADDPG nets are float64, the stacked DQNs float32). Hidden activations
are rectifiers and the output is linear; gradients are computed exactly by
hand and are validated against finite differences in the tests.
"""

import copy

import numpy as np

# Adam's moment decays and denominator floor.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def forward(weights, biases, x, acts=None):
    """Forward pass; appends the input and each post-activation to acts if given."""
    a = x
    if acts is not None:
        acts.append(a)
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w + b
        if i < last:
            a = np.maximum(a, 0.0)
        if acts is not None:
            acts.append(a)
    return a


def backward(weights, acts, delta):
    """Exact gradients of a scalar loss from d(loss)/d(output) and forward's acts.

    Returns (weight grads, bias grads, d(loss)/d(input)).
    """
    last = len(weights) - 1
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for i in range(last, -1, -1):
        if i < last:
            delta = delta * (acts[i + 1] > 0.0)  # relu mask on post-activations
        grads_w[i] = acts[i].swapaxes(-1, -2) @ delta
        grads_b[i] = delta.sum(axis=-2)
        delta = delta @ weights[i].swapaxes(-1, -2)
    return grads_w, grads_b, delta


def adam_update(p, g, m, v, b1t, b2t, lr):
    """One Adam step on p, m and v in place; b1t, b2t are 1 - beta**t."""
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    p -= lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)


def blend(target, online, tau):
    """Soft update in place: target <- (1 - tau) * target + tau * online."""
    target *= 1.0 - tau
    target += tau * online


class Mlp:
    """Fully connected net: dims = [in, hidden..., out], relu hiddens, linear out."""

    def __init__(self, dims: list[int], rng: np.random.Generator):
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        self.dims = list(dims)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    @property
    def params(self) -> list[np.ndarray]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def _batch(self, x) -> np.ndarray:
        a = np.asarray(x, dtype=float)
        if a.ndim == 1:
            a = a[None, :]
        if a.shape[1] != self.dims[0]:
            raise ValueError(f"input dim {a.shape[1]} != {self.dims[0]}")
        return a

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Plain forward pass; x is (batch, in) or (in,)."""
        out = forward(self.weights, self.biases, self._batch(x))
        return out[0] if np.ndim(x) == 1 else out

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping post-activation values for backward()."""
        acts = []
        return forward(self.weights, self.biases, self._batch(x), acts), acts

    def backward(self, acts: list[np.ndarray], grad_out: np.ndarray):
        """Exact gradients of a scalar loss given d(loss)/d(output).

        Returns (param_grads, grad_input) where param_grads matches the
        params property layout [W0, b0, W1, b1, ...].
        """
        if acts is None or len(acts) != len(self.weights) + 1:
            raise ValueError("backward() needs the cache from forward_cached()")
        grads_w, grads_b, grad_in = backward(self.weights, acts,
                                             np.asarray(grad_out, dtype=float))
        return [g for pair in zip(grads_w, grads_b) for g in pair], grad_in

    def clone(self) -> "Mlp":
        return copy.deepcopy(self)


class Adam:
    """Adaptive-moment optimizer with bias correction."""

    def __init__(self, params: list[np.ndarray], lr: float):
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]):
        """Update params in place from grads (same layout as construction)."""
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            adam_update(p, g, m, v, b1t, b2t, self.lr)


def soft_update(target: Mlp, online: Mlp, tau: float):
    """Blend online parameters into the target: t <- tau*o + (1-tau)*t."""
    if target.dims != online.dims:
        raise ValueError("architecture mismatch")
    for tp, op in zip(target.params, online.params):
        blend(tp, op, tau)
