"""Constructors and references that only tests need."""

import numpy as np

from coreaug.model import MLP, _backward, _forward_trace, _num_params


def zero_mlp(layer_sizes, activation: str = "tanh") -> MLP:
    """A network whose weights and biases are all zero."""
    sizes = tuple(int(s) for s in layer_sizes)
    return MLP(sizes, activation, np.zeros(_num_params(sizes)))


def layer_gradients(net: MLP, X, Y, weights) -> list:
    """Reference: per layer in forward order, the (weight, bias) gradients of
    ``sum_i w_i * 0.5 * ||f(x_i) - y_i||^2`` as separate arrays, each
    ``a.T @ d`` and ``d.sum(axis=0)``."""
    acts = _forward_trace(net, X)
    delta = (acts[-1] - Y) * weights[:, None]
    return [(a.T @ d, d.sum(axis=0)) for a, d in _backward(net, acts, delta)][::-1]


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
