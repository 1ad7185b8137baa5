"""Dense-network core: forward, manual reverse-mode gradients, Adam, soft update.

A net's parameters are one vector in the flat layout [W0, b0, W1, b1, ...],
each weight matrix row-major (in, out). A stack of m nets is an (m, P)
matrix, one net per row. param_views cuts either into per-parameter views,
so an optimizer step or a soft update is one elementwise call over the whole
vector, and a stack gathers or scatters a net's parameters in one indexing.

The kernels work over leading axes, so one net and a stack of nets run the
same lines: one net's batch is (B, in) against weights (in, out) and biases
(out,); m stacked nets' batches are (m, B, in) against weights (m, in, out)
and biases (m, 1, out). Arithmetic stays in the dtype of the arrays given
(the MADDPG nets are float64, the stacked DQNs float32). Hidden activations
are rectifiers and the output is linear; gradients are computed exactly by
hand and are validated against finite differences in the tests.
"""

import numpy as np

# Adam's moment decays and denominator floor.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def param_count(dims) -> int:
    """Length P of the flat parameter vector of a net with these dims."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def param_views(flat: np.ndarray, dims) -> list[np.ndarray]:
    """[W0, b0, W1, b1, ...] as views of flat's last axis; leading axes are kept."""
    lead = flat.shape[:-1]
    views, start = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        stop = start + fan_in * fan_out
        views.append(flat[..., start:stop].reshape(lead + (fan_in, fan_out)))
        views.append(flat[..., stop:stop + fan_out])
        start = stop + fan_out
    return views


def layer_views(flat: np.ndarray, dims):
    """forward's (weights, biases) over a flat vector or stack, biases (..., 1, out)."""
    views = param_views(flat, dims)
    return views[0::2], [b[..., None, :] for b in views[1::2]]


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


def backward(weights, acts, delta, param_grads: bool = True, input_grad: bool = True):
    """Exact gradients of a scalar loss from d(loss)/d(output) and forward's acts.

    Returns (parameter gradient in the flat layout, with delta's leading axes;
    d(loss)/d(input)). A gradient not asked for is None and is not computed.
    """
    last = len(weights) - 1
    lead = delta.shape[:-2]
    parts = []
    for i in range(last, -1, -1):
        if i < last:
            delta = delta * (acts[i + 1] > 0.0)  # relu mask on post-activations
        if param_grads:
            parts.append(delta.sum(axis=-2))
            parts.append((acts[i].swapaxes(-1, -2) @ delta).reshape(lead + (-1,)))
        if i > 0 or input_grad:
            delta = delta @ weights[i].swapaxes(-1, -2)
    grad = np.concatenate(parts[::-1], axis=-1) if param_grads else None
    return grad, delta if input_grad else None


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
    """Fully connected net: dims = [in, hidden..., out], relu hiddens, linear out.

    The parameters live in the vector flat; weights, biases and params are
    views of it. Given flat, the net is built over it without drawing.
    """

    def __init__(self, dims: list[int], rng: np.random.Generator | None = None,
                 flat: np.ndarray | None = None):
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        self.dims = list(dims)
        if flat is None:
            flat = np.empty(param_count(self.dims))
            views = param_views(flat, self.dims)
            for w, b in zip(views[0::2], views[1::2]):
                bound = 1.0 / np.sqrt(w.shape[0])
                w[...] = rng.uniform(-bound, bound, size=w.shape)
                b[...] = rng.uniform(-bound, bound, size=b.shape)
        self.flat = flat
        self.params = param_views(flat, self.dims)
        self.weights, self.biases = self.params[0::2], self.params[1::2]

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

    def backward(self, acts: list[np.ndarray], grad_out: np.ndarray,
                 param_grads: bool = True, input_grad: bool = True):
        """Exact gradients of a scalar loss given d(loss)/d(output).

        Returns (parameter gradient as one vector in the layout of flat,
        grad_input); a gradient not asked for is None.
        """
        if acts is None or len(acts) != len(self.weights) + 1:
            raise ValueError("backward() needs the cache from forward_cached()")
        return backward(self.weights, acts, np.asarray(grad_out, dtype=float),
                        param_grads, input_grad)

    def clone(self) -> "Mlp":
        return Mlp(self.dims, flat=self.flat.copy())


class Adam:
    """Adaptive-moment optimizer with bias correction over one parameter vector."""

    def __init__(self, params: np.ndarray, lr: float):
        self.params = params
        self.lr = float(lr)
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, grad: np.ndarray):
        """Update the parameter vector in place from its gradient."""
        self.t += 1
        adam_update(self.params, grad, self.m, self.v,
                    1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t, self.lr)


def soft_update(target: Mlp, online: Mlp, tau: float):
    """Blend online parameters into the target: t <- tau*o + (1-tau)*t."""
    if target.dims != online.dims:
        raise ValueError("architecture mismatch")
    blend(target.flat, online.flat, tau)
