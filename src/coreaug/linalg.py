"""Dense linear algebra kernels and value domains shared by every other module.

All routines operate on float64 numpy arrays, validate their inputs, and are
deterministic: identical inputs produce bit-identical outputs. The signs of
singular vectors are LAPACK's: every caller reads them through sign-invariant
quantities (principal angles, projectors, squared coefficients).

This is the one module that calls LAPACK's SVD. ``svd`` returns U and the
singular values, ``singular_values`` the values alone, and ``spectral_norm``
the largest of those. A non-convergence raises ``NumericalError`` naming the
matrix's shape and input norm. The two forms stay apart because LAPACK's
values computed with U and without it can differ in their last bits.

Each knob's domain is defined once, as a ``Domain``: >= 1, >= 0, > 0,
(0, 1], (0, 1), [0, 1), [0, 1e150] (augmentation budgets), >= 100
(shift-model draws) or ``one_of`` a tuple. No domain holds a non-finite
float. A field outside its domain raises
``ValueError("<field> must <text>, got <value>")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


class NumericalError(RuntimeError):
    """A numerical routine failed: no convergence, or training reached a
    non-finite loss."""


class Domain(NamedTuple):
    """A value domain: a predicate, and the text that completes "must ..."."""

    ok: Callable[[object], bool]
    text: str

    def breach(self, value) -> str | None:
        """``must <text>, got <value>`` when ``value`` lies outside, else None;
        a non-finite float lies outside every domain (``must be finite``)."""
        if isinstance(value, float) and not math.isfinite(value):
            return f"must be finite, got {value}"
        if self.ok(value):
            return None
        return f"must {self.text}, got {repr(value) if isinstance(value, str) else value}"

    def check(self, name: str, value) -> None:
        """Raise ``ValueError`` naming ``name`` when ``value`` lies outside."""
        if (breach := self.breach(value)) is not None:
            raise ValueError(f"{name} {breach}")


AT_LEAST_1 = Domain(lambda v: v >= 1, "be >= 1")
AT_LEAST_0 = Domain(lambda v: v >= 0, "be >= 0")
ABOVE_0 = Domain(lambda v: v > 0, "be > 0")
LEFT_OPEN_UNIT = Domain(lambda v: 0 < v <= 1, "lie in (0, 1]")
OPEN_UNIT = Domain(lambda v: 0 < v < 1, "lie in (0, 1)")
RIGHT_OPEN_UNIT = Domain(lambda v: 0 <= v < 1, "lie in [0, 1)")
AT_LEAST_100 = Domain(lambda v: v >= 100, "be >= 100")
# up to 1e150 no displacement's squared row norm overflows float64 (for up to
# 10^8 features); a budget of sqrt(d) already reaches every corner of [0, 1]^d
BUDGET = Domain(lambda v: 0 <= v <= 1e150, "lie in [0, 1e150]")


def one_of(choices: tuple) -> Domain:
    """Membership in ``choices``."""
    return Domain(lambda v: v in choices, f"be one of {choices}")


def as_matrix(a, name: str = "matrix", finite: bool = True) -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array, rejecting empty shapes and, unless
    ``finite`` is false (the caller checks values itself), NaN/Inf. The
    check is two reductions with no n x p temporary: NaN propagates through
    the maximum, and an infinity is the maximum or the minimum."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} is empty")
    if finite and not (math.isfinite(m.max()) and math.isfinite(m.min())):
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class SvdResult:
    """Left singular vectors and singular values of a thin SVD
    ``A = U @ diag(sigma) @ V.T``; no caller needs V, so it is not kept.

    ``sigma`` is nonincreasing and nonnegative, U has orthonormal columns.
    """

    U: np.ndarray
    sigma: np.ndarray


def _lapack_svd(A, **kwargs):
    """``np.linalg.svd`` of ``as_matrix(A)``; a non-convergence becomes a
    ``NumericalError`` naming the shape and the input's Frobenius norm."""
    m = as_matrix(A, "A")
    try:
        return np.linalg.svd(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge for shape {m.shape} "
                             f"(input norm {float(np.linalg.norm(m)):.3e})") from exc


def svd(A) -> SvdResult:
    """Thin SVD with ``k = min(rows, cols)`` columns."""
    u, s, _ = _lapack_svd(A, full_matrices=False)
    return SvdResult(U=u, sigma=s)


def singular_values(A) -> np.ndarray:
    """LAPACK's singular values of ``A`` computed without U, nonincreasing."""
    return _lapack_svd(A, compute_uv=False)


def spectral_norm(A) -> float:
    """Largest singular value: ``np.linalg.norm(A, 2)`` to the bit."""
    return float(singular_values(A)[0])


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
