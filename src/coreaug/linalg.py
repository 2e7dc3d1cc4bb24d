"""Dense linear algebra kernels shared by every other module.

All routines operate on float64 numpy arrays, validate their inputs, and are
deterministic: identical inputs produce bit-identical outputs. Decompositions
carry a fixed sign convention so repeated runs are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "SvdResult",
    "as_matrix",
    "svd",
    "spectral_norm",
    "frobenius_norm",
    "principal_angles",
]


class NumericalError(RuntimeError):
    """A numerical routine failed: no convergence, or training reached a
    non-finite loss."""


def as_matrix(a, name: str = "matrix", finite: bool = True) -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array, rejecting empty shapes and, unless
    ``finite`` is false (the caller checks values itself), NaN/Inf."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} is empty")
    if finite and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``A = U @ diag(sigma) @ V.T``.

    ``sigma`` is nonincreasing and nonnegative, U and V have orthonormal
    columns. The largest-magnitude entry of each U column is made nonnegative
    (V flipped to match), pinning the otherwise arbitrary sign choice so that
    repeated decompositions are bit-comparable.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.sigma) @ self.V.T


def svd(A) -> SvdResult:
    """Thin SVD with ``k = min(rows, cols)`` columns and a fixed sign convention."""
    m = as_matrix(A, "A")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        residual = float(np.linalg.norm(m))
        raise NumericalError(
            f"SVD did not converge for shape {m.shape} (input norm {residual:.3e})"
        ) from exc
    u = u.copy()
    v = vt.T.copy()
    for j in range(s.shape[0]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return SvdResult(U=u, sigma=s, V=v)


def spectral_norm(A) -> float:
    """Largest singular value, from LAPACK's singular values of ``A``."""
    return float(np.linalg.norm(as_matrix(A, "A"), 2))


def frobenius_norm(A) -> float:
    m = as_matrix(A, "A")
    return math.sqrt(float(np.sum(m * m)))


def principal_angles(U1, U2) -> np.ndarray:
    """Principal angles (radians) between two column spans, sorted nondecreasing.

    Angles are ``arccos`` of the singular values of ``U1.T @ U2`` clamped into
    [0, 1]. Both inputs must have orthonormal columns on the same row count;
    column counts may differ and the result has ``min(k1, k2)`` entries, each
    in [0, pi/2]. Symmetric in its arguments.
    """
    u1 = as_matrix(U1, "U1")
    u2 = as_matrix(U2, "U2")
    if u1.shape[0] != u2.shape[0]:
        raise ValueError(f"row counts differ: {u1.shape[0]} vs {u2.shape[0]}")
    for name, u in (("U1", u1), ("U2", u2)):
        gram = u.T @ u
        if not np.allclose(gram, np.eye(u.shape[1]), atol=1e-6):
            raise ValueError(f"{name} does not have orthonormal columns")
    s = svd(u1.T @ u2).sigma
    angles = np.arccos(np.clip(s, 0.0, 1.0))
    return np.sort(angles)
