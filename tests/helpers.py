"""Constructors and references that only tests need."""

import numpy as np

from coreaug.model import MLP, _num_params


def zero_mlp(layer_sizes, activation: str = "tanh") -> MLP:
    """A network whose weights and biases are all zero."""
    sizes = tuple(int(s) for s in layer_sizes)
    return MLP(sizes, activation, np.zeros(_num_params(sizes)))


def layer_gradients(net: MLP, X, Y, weights) -> list:
    """Reference: per layer in forward order, the (weight, bias) gradients of
    ``sum_i w_i * 0.5 * ||f(x_i) - y_i||^2`` as separate arrays, each
    ``a.T @ d`` and ``d.sum(axis=0)``.

    Written in plain numpy, apart from the network's own weight views, with
    the library's order of operations: ``p = a @ W; p += b``, the activation
    written over ``p``, and a hidden derivative of ``1 - a**2`` (tanh) or
    ``a > 0`` (relu) taken from the stored activation, so a gradient routine
    matches it bit for bit without sharing its code."""
    acts = [X]
    last = len(net.weights) - 1
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        p = acts[-1] @ W
        p += b
        if l < last:
            if net.activation == "tanh":
                np.tanh(p, out=p)
            else:
                np.maximum(p, 0.0, out=p)
        acts.append(p)
    d = (acts[-1] - Y) * weights[:, None]
    grads = []
    for l in range(last, -1, -1):
        a = acts[l]
        grads.append((a.T @ d, d.sum(axis=0)))
        if l > 0:
            d = d @ net.weights[l].T
            if net.activation == "tanh":
                t = np.square(a)
                d *= np.subtract(1.0, t, out=t)
            else:
                d *= a > 0.0
    return grads[::-1]


def layerwise_sgd_epoch(net: MLP, X, Y, w, order, batch_size: int, eta: float) -> None:
    """Reference epoch: the step written layer by layer, every layer's
    gradient computed before any layer moves, then ``w -= eta * gw`` and
    ``b -= eta * gb`` for each layer."""
    X, Y, w = X[order], Y[order], w[order]
    for start in range(0, order.size, batch_size):
        stop = start + batch_size
        grads = layer_gradients(net, X[start:stop], Y[start:stop], w[start:stop])
        for weight, bias, (gw, gb) in zip(net.weights, net.biases, grads):
            weight -= eta * gw
            bias -= eta * gb
