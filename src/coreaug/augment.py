"""Label-invariant bounded additive augmentation.

Every transform draws an additive displacement, rescales it onto the l2 budget
``epsilon0`` when it exceeds it, and clamps the result back into [0, 1].
Clamping only shrinks the distance to the source row, so the budget invariant
holds exactly. Budgets lie in [0, 1e150] (``linalg.BUDGET``), where no squared
row norm overflows float64. Randomness is counter-based: the draw for a given
(seed, round, copy) block is an independent stream, so outputs are bit-stable
and rows never share RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import AT_LEAST_1, BUDGET, as_matrix, one_of

TRANSFORM_KINDS = ("uniform_ball", "gaussian_clipped", "pixel_jitter")


@dataclass(frozen=True)
class TransformSpec:
    """Bounded additive transform family.

    ``epsilon0`` is the l2 budget in feature units, in [0, 1e150]
    (pixel-scale values like 8 and 16 correspond to 8/255 and 16/255 on
    [0, 1] features; a budget of sqrt(d) already reaches every corner of the
    unit box); ``r`` is the number of augmented copies per source row.
    """

    kind: str = "uniform_ball"
    epsilon0: float = 16.0 / 255.0
    r: int = 1
    seed: int = 0

    def __post_init__(self):
        one_of(TRANSFORM_KINDS).check("kind", self.kind)
        BUDGET.check("epsilon0", self.epsilon0)
        AT_LEAST_1.check("r", self.r)


@dataclass(frozen=True)
class AugmentedSet:
    """Augmented rows in copy-major order: output row i*r + c copies source i."""

    features: np.ndarray


def _raw_displacements(spec: TransformSpec, k: int, d: int,
                       rng: np.random.Generator) -> np.ndarray:
    eps = spec.epsilon0
    if spec.kind == "uniform_ball":
        direction = rng.standard_normal((k, d))
        norms = np.linalg.norm(direction, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        radius = eps * rng.uniform(0.0, 1.0, size=(k, 1)) ** (1.0 / d)
        return direction / norms * radius
    if spec.kind == "gaussian_clipped":
        return rng.standard_normal((k, d)) * (eps / np.sqrt(d))
    # pixel_jitter: perturb a random 25% coordinate subset of each row
    n_coords = max(1, int(np.ceil(0.25 * d)))
    scores = rng.uniform(size=(k, d))
    cut = np.sort(scores, axis=1)[:, n_coords - 1:n_coords]
    mask = scores <= cut
    return rng.uniform(-eps, eps, size=(k, d)) * mask


def perturb(spec: TransformSpec, X, round_index: int = 0) -> AugmentedSet:
    """Emit ``spec.r`` bounded perturbed copies of every row of X.

    Each copy block c is drawn from the stream keyed by (seed, round, c), so a
    fixed (spec, X, round_index) reproduces bit-identical output. With
    ``round_index`` varying, each round plays the role of one transform applied
    to all rows.
    """
    X = as_matrix(X, "X")
    if X.min() < 0.0 or X.max() > 1.0:
        raise ValueError("X entries must lie in [0, 1]")
    k, d = X.shape
    eps = spec.epsilon0
    out = np.empty((k * spec.r, d))
    for copy in range(spec.r):
        rng = np.random.default_rng([spec.seed, round_index, copy])
        delta = _raw_displacements(spec, k, d, rng)
        norms = np.linalg.norm(delta, axis=1)
        scale = np.ones(k)
        over = norms > eps
        if np.any(over):
            scale[over] = eps / norms[over]
        out[copy::spec.r] = np.clip(X + delta * scale[:, None], 0.0, 1.0)
    return AugmentedSet(features=out)
