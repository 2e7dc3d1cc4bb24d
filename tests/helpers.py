"""Constructors that only tests need."""

import numpy as np

from coreaug.model import MLP


def zero_mlp(layer_sizes, activation: str = "tanh") -> MLP:
    """A network whose weights and biases are all zero."""
    sizes = tuple(int(s) for s in layer_sizes)
    weights = [np.zeros((i, o)) for i, o in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(o) for o in sizes[1:]]
    return MLP(sizes, activation, weights, biases)
