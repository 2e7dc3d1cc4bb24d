"""Small dense feed-forward networks with explicit forward and backward passes.

Hidden layers use tanh (default) or relu; the output layer is always linear,
matching the squared-loss training objective. Parameters are stored in one
fixed vectorization, ``MLP.params``: for each layer, the (fan_in, fan_out)
weight matrix flattened row-major, then the bias vector. Weights, biases and
every gradient routine's output are per-layer views of that layout, so a step
is one update of the flat vector and rows can be checked coordinate by
coordinate.

A ``_Backprop`` holds what a net's forward trace and backward pass need
besides the rows: the activation pair, the layer views and the transposed
weights. Its ``trace`` and ``backward`` are the module's only forward and
backward loops, so the outputs, the Jacobian, the proxies and the weighted
gradient all run the same operations in the same order. A ``_Gradient``
adds one flat gradient buffer; the SGD step builds one per epoch, and
every other caller one per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import AT_LEAST_1, NumericalError, as_matrix, check_entries, one_of

PROXY_MODES = ("residual", "last_layer")


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def class_rows(labels) -> list[tuple[int, np.ndarray]]:
    """(label, row indices) of every class that has rows, in label order.
    A class with no rows is absent, so every consumer skips it. Labels are
    nonnegative integers; ``np.bincount`` finds them without the import of
    ``numpy.ma`` that a first ``np.unique`` call makes."""
    labels = np.asarray(labels)
    return [(int(c), np.flatnonzero(labels == c))
            for c in np.flatnonzero(np.bincount(labels))]


@dataclass(frozen=True)
class Dataset:
    """Feature matrix in [0, 1]^(n x d) with integer class labels in
    ``{0, ..., num_classes - 1}``; a label may have no rows."""

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
        AT_LEAST_1.check("num_classes", self.num_classes)
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

    def one_hot_labels(self) -> np.ndarray:
        return one_hot(self.labels, self.num_classes)

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)

    def with_labels(self, labels: np.ndarray) -> "Dataset":
        return Dataset(self.features, labels, self.num_classes)


@dataclass(frozen=True)
class GradientProxySet:
    """Per-example gradient proxies (n x p) with their class labels."""

    proxies: np.ndarray
    labels: np.ndarray
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


def _layer_views(sizes, flat: np.ndarray):
    """(weights, biases): per-layer views of the last axis of ``flat`` in the
    parameter layout. A vector gives (fan_in, fan_out) weights and (fan_out,)
    biases; an (n, m) block of rows gives (n, fan_in, fan_out) and
    (n, fan_out) views. The one place that computes a layer's offset."""
    lead, weights, biases, pos = flat.shape[:-1], [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        k = fan_in * fan_out
        weights.append(flat[..., pos:pos + k].reshape(*lead, fan_in, fan_out))
        biases.append(flat[..., pos + k:pos + k + fan_out])
        pos += k + fan_out
    return tuple(weights), tuple(biases)


def _num_params(sizes) -> int:
    return sum((i + 1) * o for i, o in zip(sizes[:-1], sizes[1:]))


@dataclass
class MLP:
    """Feed-forward network, linear output layer; ``weights`` and ``biases``
    are views of ``params``, so a write to either moves the other."""

    layer_sizes: tuple[int, ...]
    activation: str
    params: np.ndarray = field(repr=False)
    weights: tuple = field(init=False, repr=False)
    biases: tuple = field(init=False, repr=False)

    def __post_init__(self):
        p = self.params
        if not (isinstance(p, np.ndarray) and p.dtype == np.float64
                and p.shape == (self.num_params,)):
            raise ValueError(f"params must be a float64 vector of {self.num_params} entries, "
                             f"got {getattr(p, 'dtype', type(p).__name__)} {np.shape(p)}")
        self.weights, self.biases = _layer_views(self.layer_sizes, p)

    @classmethod
    def init(cls, layer_sizes, activation: str = "tanh", seed: int = 0) -> "MLP":
        """Seeded init: per-layer uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].
        Raises MemoryCapError, before allocating, when the parameter count
        exceeds ``linalg.ENTRY_CAP``."""
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) < 2:
            raise ValueError("layer_sizes needs at least input and output sizes")
        for s in sizes:
            AT_LEAST_1.check("layer_sizes", s)
        _activation_pair(activation)
        count = _num_params(sizes)
        check_entries(f"a network of layer sizes {sizes}", (count,), "--hidden", "parameters")
        net = cls(sizes, activation, np.empty(count))
        rng = np.random.default_rng(seed)
        for w, b in zip(net.weights, net.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
        return net

    @property
    def num_params(self) -> int:
        return _num_params(self.layer_sizes)

    @property
    def num_outputs(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MLP":
        return MLP(self.layer_sizes, self.activation, self.params.copy())

    def __reduce__(self):
        """Pickle and ``copy.deepcopy`` rebuild from ``params`` alone, so the
        copy's ``weights`` and ``biases`` are views of its own ``params``."""
        return MLP, (self.layer_sizes, self.activation, self.params)


def check_activations(net: MLP, rows: int, what: str) -> None:
    """Raise MemoryCapError, naming ``--hidden``, before a forward trace of
    ``rows`` rows would hold more than ``linalg.ENTRY_CAP`` activations in
    its widest layer. Checked once where a row count is fixed, never per
    mini-batch."""
    check_entries(f"{what} activations", (rows, max(net.layer_sizes[1:])), "--hidden")


def check_jacobian(net: MLP, rows: int) -> None:
    """Raise MemoryCapError, naming ``--hidden``, before the Jacobian of
    ``rows`` rows, (rows * C) x m, would hold more than ``linalg.ENTRY_CAP``
    entries."""
    check_entries("jacobian", (rows * net.num_outputs, net.num_params), "--hidden")


class _Backprop:
    """What a net's forward trace and backward pass need besides the rows:
    the activation pair, the (W, b) views and the transposed weights.
    Every view reads ``net.params`` in place, so an object built once sees
    each ``net.params -= step``. ``trace`` and ``backward`` are the module's
    one forward loop and one backward loop."""

    def __init__(self, net: MLP):
        self.act, self.deriv = _activation_pair(net.activation)
        self.layers = tuple(zip(net.weights, net.biases))
        self.weights_T = tuple(w.T for w in net.weights)
        self.sizes = net.layer_sizes

    def trace(self, X: np.ndarray) -> list:
        """Activations per layer; ``acts[0]`` is the input, ``acts[-1]`` the
        output. Each layer's activation is computed in place in a fresh
        array that only the trace holds, so a caller may overwrite
        ``acts[-1]`` once nothing else reads it."""
        act, acts = self.act, [X]
        last = len(self.layers) - 1
        for l, (w, b) in enumerate(self.layers):
            p = acts[-1] @ w
            p += b
            acts.append(p if l == last else act(p))
        return acts

    def backward(self, acts, delta: np.ndarray):
        """Backpropagate ``delta``, a derivative with respect to the
        output-layer pre-activation, one row per example. Yields each layer's
        (input activation, pre-activation derivative) pair, from the output
        layer down. Each hidden derivative is taken from the layer's stored
        activation; the trace and ``delta`` are read, never written."""
        deriv, weights_T = self.deriv, self.weights_T
        for l in range(len(weights_T) - 1, -1, -1):
            yield acts[l], delta
            if l > 0:
                delta = delta @ weights_T[l]
                delta *= deriv(acts[l])


class _Gradient(_Backprop):
    """A ``_Backprop`` with one flat gradient buffer ``grad`` and its
    per-layer views: everything about a net's gradient that does not depend
    on the rows. Called on ``(X, Y, w)``, it returns the residual
    ``f(X) - Y``, a fresh array, and writes the flat gradient of
    ``sum_i w_i * 0.5 * ||f(x_i) - y_i||^2`` into ``grad``; the next call
    writes over it."""

    def __init__(self, net: MLP):
        super().__init__(net)
        self.grad = np.empty(net.num_params)
        gws, gbs = _layer_views(self.sizes, self.grad)
        # output layer first, the order in which ``backward`` yields
        self.grad_views = tuple(zip(gws, gbs))[::-1]

    def __call__(self, X: np.ndarray, Y: np.ndarray, w: np.ndarray) -> np.ndarray:
        acts = self.trace(X)
        r = acts[-1]
        r -= Y
        for (a, d), (gw, gb) in zip(self.backward(acts, r * w[:, None]), self.grad_views):
            np.matmul(a.T, d, out=gw)
            np.add.reduce(d, axis=0, out=gb)
        return r


def forward(net: MLP, X) -> np.ndarray:
    """Network outputs for a batch, shape (n, C). Output layer is linear."""
    X = as_matrix(X, "X")
    if X.shape[1] != net.layer_sizes[0]:
        raise ValueError(f"X has {X.shape[1]} columns, network expects {net.layer_sizes[0]}")
    return _Backprop(net).trace(X)[-1]


def residuals(net: MLP, data: Dataset) -> np.ndarray:
    return forward(net, data.features) - data.one_hot_labels()


def example_losses(net: MLP, data: Dataset) -> np.ndarray:
    """Squared loss ``0.5 * ||f(x_i) - y_i||^2`` of each example."""
    r = residuals(net, data)
    return 0.5 * np.sum(r * r, axis=1)


def checked_rows(net: MLP, X, Y, weights):
    """``(X, Y, weights)`` as float64 arrays, after the checks a gradient
    step needs: X finite and 2-D, Y of shape (n, C), one nonnegative weight
    per row. A set of rows checked once covers every batch drawn from it."""
    X = as_matrix(X, "X")
    Y = np.asarray(Y, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if Y.shape != (X.shape[0], net.num_outputs):
        raise ValueError("Y must be one-hot targets with shape (n, C)")
    if weights.shape != (X.shape[0],):
        raise ValueError("weights must have one entry per row")
    if np.any(weights < 0.0):
        raise ValueError("weights must be nonnegative")
    return X, Y, weights


def weighted_gradient(net: MLP, X: np.ndarray, Y: np.ndarray,
                      weights: np.ndarray) -> np.ndarray:
    """Flat gradient of ``sum_i w_i * 0.5 * ||f(x_i) - y_i||^2``, from a
    one-shot ``_Gradient`` whose buffer goes to the caller."""
    gradient = _Gradient(net)
    gradient(*checked_rows(net, X, Y, weights))
    return gradient.grad


def _row_gradients(backprop: _Backprop, acts, delta: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """Write into row i of ``out``, an (n, m) block, the flat parameter
    gradient that ``delta[i]`` backpropagates from example i alone through
    ``backprop``'s net."""
    ws, bs = _layer_views(backprop.sizes, out)
    for (a, d), w, b in zip(backprop.backward(acts, delta), ws[::-1], bs[::-1]):
        np.einsum("ni,nj->nij", a, d, out=w)
        b[...] = d
    return out


def jacobian(net: MLP, X) -> np.ndarray:
    """Stacked output derivatives, shape (n*C, m); row i*C + c is d f_c(x_i) / dW.

    Raises MemoryCapError when n*C*m exceeds ``linalg.ENTRY_CAP``, and
    NumericalError when an entry is not finite (the network's weights or
    outputs overflowed).
    """
    X = as_matrix(X, "X")
    n = X.shape[0]
    C = net.num_outputs
    m = net.num_params
    check_jacobian(net, n)
    backprop = _Backprop(net)
    acts = backprop.trace(X)
    out = np.empty((n * C, m))
    for c in range(C):
        delta = np.zeros((n, C))
        delta[:, c] = 1.0
        _row_gradients(backprop, acts, delta, out[c::C])
    if not (np.isfinite(out.max()) and np.isfinite(out.min())):
        raise NumericalError(f"stacked derivative matrix ({n * C} x {m}) has "
                             "non-finite entries")
    return out


def per_example_gradients(net: MLP, data: Dataset) -> np.ndarray:
    """Exact loss gradients, one row per example, shape (n, m)."""
    backprop = _Backprop(net)
    acts = backprop.trace(data.features)
    return _row_gradients(backprop, acts, acts[-1] - data.one_hot_labels(),
                          np.empty((data.n, net.num_params)))


def gradient_proxy(net: MLP, data: Dataset, mode: str = "last_layer") -> GradientProxySet:
    """Low-dimensional per-example gradient stand-ins.

    ``residual``: proxy_i = f(x_i) - y_i, shape C.
    ``last_layer``: the output-layer pre-activation gradient (equal to the
    residual for a linear output) concatenated with the flattened output-layer
    weight gradient outer(h_i, r_i), where h_i is the penultimate activation.
    Both parts are written into one (n, h + 1, C) buffer, the residual as
    each example's first row, so the proxies are the only n x hC array.
    """
    one_of(PROXY_MODES).check("mode", mode)
    if mode == "last_layer":
        check_entries("gradient proxies", (data.n, net.layer_sizes[-2] + 1, net.num_outputs),
                      "--hidden")
    check_activations(net, data.n, "proxy")
    acts = _Backprop(net).trace(data.features)
    if mode == "residual":
        proxies = acts[-1] - data.one_hot_labels()
    else:
        h, f = acts[-2], acts[-1]
        n, C = f.shape
        out = np.empty((n, h.shape[1] + 1, C))
        r = np.subtract(f, data.one_hot_labels(), out=out[:, 0])
        # einsum, not h[:, :, None] * r[:, None]: einsum accumulates into a
        # zeroed output, so zero times a negative residual is +0.0 where a
        # multiply gives -0.0
        np.einsum("nh,nc->nhc", h, r, out=out[:, 1:])
        proxies = out.reshape(n, -1)
    return GradientProxySet(proxies, data.labels, data.num_classes)
