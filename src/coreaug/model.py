"""Small dense feed-forward networks with explicit forward and backward passes.

Hidden layers use tanh (default) or relu; the output layer is always linear,
matching the squared-loss training objective. Parameters follow one fixed
vectorization: for each layer, the (fan_in, fan_out) weight matrix flattened
row-major, then the bias vector. Every gradient routine and the stacked
derivative matrix use that layout, so they can be cross-checked coordinate by
coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import NumericalError, as_matrix

__all__ = [
    "MemoryCapError",
    "Dataset",
    "GradientProxySet",
    "MLP",
    "one_hot",
    "forward",
    "loss",
    "residuals",
    "flatten_layers",
    "checked_rows",
    "residual_and_gradients",
    "weighted_gradient",
    "jacobian",
    "per_example_gradients",
    "gradient_proxy",
    "estimate_lipschitz",
]

JACOBIAN_ENTRY_CAP = 2**28

PROXY_MODES = ("residual", "last_layer")


class MemoryCapError(ValueError):
    """The requested stacked derivative matrix would exceed the entry cap."""


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


@dataclass(frozen=True)
class Dataset:
    """Feature matrix in [0, 1]^(n x d) with integer class labels.

    ``class_index`` partitions row indices by label; labels must lie in
    ``{0, ..., num_classes - 1}``.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = as_matrix(self.features, "features")
        if feats.min() < 0.0 or feats.max() > 1.0:
            raise ValueError("features must lie in [0, 1]")
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise ValueError("labels must be 1-D with one entry per row")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def class_index(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.labels == c) for c in range(self.num_classes)]

    def one_hot_labels(self) -> np.ndarray:
        return one_hot(self.labels, self.num_classes)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx].copy(), self.labels[idx].copy(), self.num_classes)

    def with_labels(self, labels: np.ndarray) -> "Dataset":
        return Dataset(self.features, labels, self.num_classes)


@dataclass(frozen=True)
class GradientProxySet:
    """Per-example gradient proxies (n x p) with their class labels."""

    proxies: np.ndarray
    labels: np.ndarray
    mode: str
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "proxies", as_matrix(self.proxies, "proxies"))
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape[0] != self.proxies.shape[0]:
            raise ValueError("labels length must match proxy rows")
        object.__setattr__(self, "labels", labels)


def _tanh_derivative(a: np.ndarray) -> np.ndarray:
    t = np.square(a)
    return np.subtract(1.0, t, out=t)


def _activation_pair(name: str):
    """(activation, written over the pre-activation it is given; derivative,
    computed from that activation). Each derivative equals its
    pre-activation form bit for bit: ``1 - a**2`` squares the very value
    tanh wrote, and ``maximum(p, 0) > 0`` holds exactly where ``p > 0``."""
    if name == "tanh":
        return lambda p: np.tanh(p, out=p), _tanh_derivative
    if name == "relu":
        return lambda p: np.maximum(p, 0.0, out=p), lambda a: a > 0.0
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class MLP:
    """Feed-forward network: explicit weight matrices, linear output layer."""

    layer_sizes: tuple[int, ...]
    activation: str
    weights: list = field(repr=False)
    biases: list = field(repr=False)

    @classmethod
    def init(cls, layer_sizes, activation: str = "tanh", seed: int = 0,
             scale: float = 1.0) -> "MLP":
        """Seeded init: per-layer uniform in [-scale/sqrt(fan_in), +scale/sqrt(fan_in)]."""
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError("layer_sizes needs at least input and output sizes >= 1")
        _activation_pair(activation)
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = scale / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(sizes, activation, weights, biases)

    @classmethod
    def zeros(cls, layer_sizes, activation: str = "tanh") -> "MLP":
        sizes = tuple(int(s) for s in layer_sizes)
        weights = [np.zeros((i, o)) for i, o in zip(sizes[:-1], sizes[1:])]
        biases = [np.zeros(o) for o in sizes[1:]]
        return cls(sizes, activation, weights, biases)

    @property
    def num_params(self) -> int:
        return sum((i + 1) * o for i, o in zip(self.layer_sizes[:-1], self.layer_sizes[1:]))

    @property
    def num_outputs(self) -> int:
        return self.layer_sizes[-1]

    def get_params(self) -> np.ndarray:
        return flatten_layers(zip(self.weights, self.biases))

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} parameters, got {flat.shape}")
        pos = 0
        for l, (fan_in, fan_out) in enumerate(zip(self.layer_sizes[:-1], self.layer_sizes[1:])):
            k = fan_in * fan_out
            self.weights[l] = flat[pos:pos + k].reshape(fan_in, fan_out).copy()
            pos += k
            self.biases[l] = flat[pos:pos + fan_out].copy()
            pos += fan_out

    def copy(self) -> "MLP":
        return MLP(self.layer_sizes, self.activation,
                   [w.copy() for w in self.weights], [b.copy() for b in self.biases])


def flatten_layers(pairs) -> np.ndarray:
    """Per-layer (weight, bias) pairs in the flat parameter layout."""
    return np.concatenate([g.ravel() for pair in pairs for g in pair])


def _forward_trace(net: MLP, X: np.ndarray) -> list:
    """Activations per layer; ``acts[0]`` is the input, ``acts[-1]`` the output.

    Each layer's activation is computed in place in a fresh array that only
    the trace holds, so a caller may overwrite ``acts[-1]`` once nothing
    else reads it."""
    act, _ = _activation_pair(net.activation)
    acts = [X]
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        p = acts[-1] @ w
        p += b
        acts.append(p if l == last else act(p))
    return acts


def forward(net: MLP, X) -> np.ndarray:
    """Network outputs for a batch, shape (n, C). Output layer is linear."""
    X = as_matrix(X, "X")
    if X.shape[1] != net.layer_sizes[0]:
        raise ValueError(f"X has {X.shape[1]} columns, network expects {net.layer_sizes[0]}")
    return _forward_trace(net, X)[-1]


def residuals(net: MLP, data: Dataset) -> np.ndarray:
    return forward(net, data.features) - data.one_hot_labels()


def loss(net: MLP, data: Dataset) -> float:
    r = residuals(net, data)
    return 0.5 * float(np.sum(r * r))


def _backward(net: MLP, acts, delta: np.ndarray) -> list:
    """Backpropagate ``delta``, a derivative with respect to the output-layer
    pre-activation, one row per example. Returns each layer's (input
    activation, pre-activation derivative) pair, from the output layer down.
    Each hidden derivative is taken from the layer's stored activation; the
    trace and ``delta`` are read, never written."""
    _, deriv = _activation_pair(net.activation)
    pairs = []
    for l in range(len(net.weights) - 1, -1, -1):
        pairs.append((acts[l], delta))
        if l > 0:
            delta = delta @ net.weights[l].T
            delta *= deriv(acts[l])
    return pairs


def checked_rows(net: MLP, X, Y, weights):
    """``(X, Y, weights)`` as float64 arrays, after the checks a gradient
    needs: X finite and 2-D, Y of shape (n, C), one weight per row. A set of
    rows checked once covers every batch drawn from it."""
    X = as_matrix(X, "X")
    Y = np.asarray(Y, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if Y.shape != (X.shape[0], net.num_outputs):
        raise ValueError("Y must be one-hot targets with shape (n, C)")
    if weights.shape != (X.shape[0],):
        raise ValueError("weights must have one entry per row")
    return X, Y, weights


def residual_and_gradients(net: MLP, X: np.ndarray, Y: np.ndarray, weights: np.ndarray):
    """From one forward trace: the residual ``f(X) - Y`` and, per layer in
    forward order, the (weight, bias) gradients of
    ``sum_i w_i * 0.5 * ||f(x_i) - y_i||^2``. The residual is a fresh array
    the caller owns. The rows are not checked (see ``checked_rows``)."""
    acts = _forward_trace(net, X)
    r = acts[-1]
    r -= Y
    delta = r * weights[:, None]
    return r, [(a.T @ d, d.sum(axis=0)) for a, d in _backward(net, acts, delta)][::-1]


def weighted_gradient(net: MLP, X: np.ndarray, Y: np.ndarray,
                      weights: np.ndarray) -> np.ndarray:
    """Flat gradient of ``sum_i w_i * 0.5 * ||f(x_i) - y_i||^2``."""
    return flatten_layers(residual_and_gradients(net, *checked_rows(net, X, Y, weights))[1])


def _row_gradients(net: MLP, acts, delta: np.ndarray) -> np.ndarray:
    """Row i: the flat parameter gradient that ``delta[i]`` backpropagates
    from example i alone."""
    n = delta.shape[0]
    blocks = []
    for a, d in reversed(_backward(net, acts, delta)):
        blocks += [np.einsum("ni,nj->nij", a, d).reshape(n, -1), d]
    return np.concatenate(blocks, axis=1)


def jacobian(net: MLP, X, entry_cap: int = JACOBIAN_ENTRY_CAP) -> np.ndarray:
    """Stacked output derivatives, shape (n*C, m); row i*C + c is d f_c(x_i) / dW.

    Raises MemoryCapError when n*C*m exceeds ``entry_cap``, and
    NumericalError when an entry is not finite (the network's weights or
    outputs overflowed).
    """
    X = as_matrix(X, "X")
    n = X.shape[0]
    C = net.num_outputs
    m = net.num_params
    if n * C * m > entry_cap:
        raise MemoryCapError(f"jacobian would hold {n * C * m} entries, cap is {entry_cap}")
    acts = _forward_trace(net, X)
    out = np.empty((n * C, m))
    for c in range(C):
        delta = np.zeros((n, C))
        delta[:, c] = 1.0
        out[c::C] = _row_gradients(net, acts, delta)
    if not (np.isfinite(out.max()) and np.isfinite(out.min())):
        raise NumericalError(f"stacked derivative matrix ({n * C} x {m}) has "
                             "non-finite entries")
    return out


def per_example_gradients(net: MLP, data: Dataset) -> np.ndarray:
    """Exact loss gradients, one row per example, shape (n, m)."""
    acts = _forward_trace(net, data.features)
    return _row_gradients(net, acts, acts[-1] - data.one_hot_labels())


def gradient_proxy(net: MLP, data: Dataset, mode: str = "last_layer") -> GradientProxySet:
    """Low-dimensional per-example gradient stand-ins.

    ``residual``: proxy_i = f(x_i) - y_i, shape C.
    ``last_layer``: the output-layer pre-activation gradient (equal to the
    residual for a linear output) concatenated with the flattened output-layer
    weight gradient outer(h_i, r_i), where h_i is the penultimate activation.
    """
    if mode not in PROXY_MODES:
        raise ValueError(f"mode must be one of {PROXY_MODES}, got {mode!r}")
    acts = _forward_trace(net, data.features)
    r = acts[-1] - data.one_hot_labels()
    if mode == "residual":
        proxies = r.copy()
    else:
        h = acts[-2]
        wgrad = np.einsum("nh,nc->nhc", h, r).reshape(r.shape[0], -1)
        proxies = np.concatenate([r, wgrad], axis=1)
    return GradientProxySet(proxies, data.labels, mode, data.num_classes)


def estimate_lipschitz(net: MLP, data: Dataset, trials: int = 100,
                       seed: int = 0) -> tuple[float, float]:
    """Empirical lower bounds on the input-Lipschitz constants of J and f.

    Samples ``trials`` index pairs and maximizes the finite ratios
    ``||J(x_i) - J(x_j)||_F / ||x_i - x_j||`` (constant for the derivative) and
    ``||f(x_i) - f(x_j)|| / ||x_i - x_j||`` (constant for the outputs), where
    J(x) is the per-example parameter derivative. Pairs closer than 1e-12 are
    skipped so duplicated points never divide by zero. Deterministic given the
    seed, and nondecreasing in ``trials`` (the pair stream is a prefix).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = data.n
    if n < 2:
        raise ValueError("need at least two data points")
    rng = np.random.default_rng(seed)
    outputs = forward(net, data.features)
    jac_cache: dict[int, np.ndarray] = {}

    def jac_of(i: int) -> np.ndarray:
        if i not in jac_cache:
            jac_cache[i] = jacobian(net, data.features[i:i + 1])
        return jac_cache[i]

    best_j = 0.0
    best_f = 0.0
    any_valid = False
    for _ in range(trials):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        dx = float(np.linalg.norm(data.features[i] - data.features[j]))
        if i == j or dx < 1e-12:
            continue
        any_valid = True
        dj = float(np.linalg.norm(jac_of(i) - jac_of(j)))
        df = float(np.linalg.norm(outputs[i] - outputs[j]))
        best_j = max(best_j, dj / dx)
        best_f = max(best_f, df / dx)
    if not any_valid:
        raise ValueError("all sampled pairs were identical points; dataset is degenerate")
    return best_j, best_f
