"""Numerical checks of derivative-spectrum perturbation theory.

Given a clean stacked derivative matrix J and its augmented counterpart
J + E, this module pairs the two singular spectra by rank, summarizes the
shifts and subspace rotations in up to 30 equal-count bins, and measures both
spectra over augmentation rounds. It checks the classical bounds that govern
them: the Weyl singular-value bound, the Wedin-style singular-vector bound,
the closed form of the expected eigenvalue shift under a piecewise-uniform
shift model (against a Monte Carlo of that model), constant-kernel residual
dynamics, and the gradient bounds and descent envelope for a common linear
transform applied to a weighted subset. The convergence envelope and the
gradient-domination (PL) constants it uses are defined here once, for both
that linear analog and a trained linear network.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .augment import TransformSpec, perturb
from .coreset import compute_weights, pairwise_distances
from .linalg import (AT_LEAST_100, SvdResult, as_matrix, principal_angles, singular_values,
                     spectral_norm, svd)
from .model import MLP, Dataset, _Gradient, checked_rows, jacobian

NUM_BINS = 30
WEYL_TOL = 1e-8


def eigengap(sigma: np.ndarray) -> float:
    """Minimum spacing of consecutive singular values, with a trailing zero
    sentinel (the gap of the smallest value to zero counts)."""
    s = np.asarray(sigma, dtype=np.float64)
    padded = np.concatenate([s, [0.0]])
    return float(np.min(padded[:-1] - padded[1:]))


@dataclass(frozen=True)
class WeylVerdict:
    passed: bool
    max_violation: float


def weyl_check(sigma_clean, sigma_aug, e_norm2: float) -> WeylVerdict:
    """No rank-paired singular value may move more than the perturbation norm:
    |sigma_aug_i - sigma_clean_i| <= ||E||_2 + WEYL_TOL."""
    s0 = np.asarray(sigma_clean, dtype=np.float64)
    s1 = np.asarray(sigma_aug, dtype=np.float64)
    if s0.shape != s1.shape:
        raise ValueError("spectra must be rank-paired with equal lengths")
    violation = float(np.max(np.abs(s1 - s0)) - e_norm2)
    return WeylVerdict(passed=violation <= WEYL_TOL, max_violation=violation)


def augmented_jacobian(net: MLP, X, spec: TransformSpec, round_index: int) -> np.ndarray:
    """The stacked derivative matrix at round ``round_index`` of the one-copy
    augmentation of X by ``spec``, whatever the spec's ``r``.

    This is the one place an augmented derivative matrix is built. A round
    that leaves X unchanged, as every round at zero budget does, gives
    ``jacobian(net, X)`` bit for bit.
    """
    return jacobian(net, perturb(replace(spec, r=1), X, round_index=round_index).features)


@dataclass
class SpectrumBin:
    bin: int
    sigma_lo: float
    sigma_hi: float
    mean_delta_sigma: float
    mean_angle_rad: float
    count: int


@dataclass
class SpectrumReport:
    """Rank-paired spectra, their perturbation norms, and binned summaries.

    There are ``min(NUM_BINS, k)`` bins for k paired values, so none is
    empty. Bin 0 covers the smallest singular values and the last bin the
    largest; bin populations differ by at most one, with remainders pushed to
    the lowest bins.
    """

    sigma_clean: np.ndarray
    sigma_aug: np.ndarray
    e_norm2: float
    e_norm_frobenius: float
    eigengap: float
    bins: list[SpectrumBin]
    weyl: WeylVerdict

    def decile_relative_shifts(self) -> tuple[float, float]:
        """Mean relative shift (sigma_aug - sigma_clean) / sigma_clean over the
        bottom and the top decile of the rank-paired singular values."""
        s_clean = np.sort(self.sigma_clean)
        rel = (np.sort(self.sigma_aug) - s_clean) / np.maximum(s_clean, 1e-12)
        decile = max(1, s_clean.size // 10)
        return float(rel[:decile].mean()), float(rel[-decile:].mean())

    @property
    def shape_reproduced(self) -> bool:
        """The paper's spectrum shape: the small singular values grow more,
        relative to their size, than the large ones, and the top bin's
        singular vectors rotate less than the bottom bin's."""
        bottom, top = self.decile_relative_shifts()
        return bottom > top and self.bins[-1].mean_angle_rad < self.bins[0].mean_angle_rad

    def to_json_dict(self) -> dict:
        """The fields, the decile relative shifts and the shape verdict."""
        bottom, top = self.decile_relative_shifts()
        return {**asdict(self), "sigma_clean": self.sigma_clean.tolist(),
                "sigma_aug": self.sigma_aug.tolist(), "bottom_decile_relative_shift": bottom,
                "top_decile_relative_shift": top, "shape_reproduced": self.shape_reproduced}


def spectrum_report(J_clean, J_aug, clean: SvdResult | None = None) -> SpectrumReport:
    """Pair the two spectra by rank and summarize shift and rotation per bin.

    ``clean`` is ``svd(J_clean)`` when the caller already holds it, so that a
    clean matrix paired with several augmented ones is decomposed once.

    Neither input is written. Besides the inputs, the matrices alive are in
    turn: E = J_aug - J_clean while its two norms are taken; the clean U;
    the clean and the augmented U. E and this function's references to
    J_clean are dropped before ``svd(J_aug)`` runs, so a clean matrix that
    the caller holds no other reference to is freed by then.
    """
    jc = as_matrix(J_clean, "J_clean")
    ja = as_matrix(J_aug, "J_aug")
    if jc.shape != ja.shape:
        raise ValueError(f"shape mismatch: {jc.shape} vs {ja.shape}")
    e = ja - jc
    e_norm2 = spectral_norm(e)
    # linalg.frobenius_norm's value, squared in E's own buffer: numpy's
    # pairwise sum does not depend on the BLAS thread count, as a dot would
    np.square(e, out=e)
    e_normf = math.sqrt(float(e.sum()))
    del e
    dec_c = svd(jc) if clean is None else clean
    del J_clean, jc
    dec_a = svd(ja)
    k = dec_c.sigma.shape[0]
    # ascending order so bin 0 holds the smallest singular values
    asc = np.arange(k - 1, -1, -1)
    s_c = dec_c.sigma[asc]
    s_a = dec_a.sigma[asc]
    delta = s_a - s_c
    bins: list[SpectrumBin] = []
    # equal-count bins, the remainder spread one each to the lowest bins
    for b, ids in enumerate(np.array_split(np.arange(k), min(NUM_BINS, k))):
        cols = asc[ids]
        angles = principal_angles(dec_c.U[:, cols], dec_a.U[:, cols])
        bins.append(SpectrumBin(
            bin=b,
            sigma_lo=float(s_c[ids].min()),
            sigma_hi=float(s_c[ids].max()),
            mean_delta_sigma=float(delta[ids].mean()),
            mean_angle_rad=float(angles.mean()),
            count=int(ids.size),
        ))
    return SpectrumReport(
        sigma_clean=dec_c.sigma,
        sigma_aug=dec_a.sigma,
        e_norm2=e_norm2,
        e_norm_frobenius=e_normf,
        eigengap=eigengap(dec_c.sigma),
        bins=bins,
        weyl=weyl_check(dec_c.sigma, dec_a.sigma, e_norm2),
    )


def budget_spectra(net: MLP, features, epsilons, kind: str = "uniform_ball",
                   seed: int = 0):
    """Yield ``(epsilon0, SpectrumReport)`` per budget: round 0 of a one-copy
    transform at that budget, paired with the clean derivative spectrum,
    which is decomposed once for all budgets.

    Only ``svd(J_clean)`` is kept across budgets. Each budget rebuilds the
    clean J for its E with ``jacobian``, which is deterministic, so every
    value is bit for bit that of one shared clean J. Between draws the
    clean U is the one matrix alive. While a budget's E is formed, the clean
    U, the clean J, J_aug and E are; ``spectrum_report`` then drops the clean
    J and E, so the augmented SVD runs beside the clean U and J_aug alone.
    """
    clean = svd(jacobian(net, features))
    for eps in epsilons:
        spec = TransformSpec(kind=kind, epsilon0=eps, r=1, seed=seed)
        yield eps, spectrum_report(jacobian(net, features),
                                   augmented_jacobian(net, features, spec, 0),
                                   clean=clean)


@dataclass
class ShiftReport:
    """Per index of the shift model: the closed-form expected squared
    singular value, its Monte Carlo mean and that mean's standard error."""

    predicted: np.ndarray
    empirical: np.ndarray
    standard_error: np.ndarray

    @property
    def all_within_3se(self) -> bool:
        return bool(np.all(np.abs(self.empirical - self.predicted)
                           <= 3.0 * self.standard_error))

    @property
    def z(self) -> np.ndarray:
        """Per index, (empirical - closed form) / standard error."""
        return (self.empirical - self.predicted) / np.maximum(self.standard_error, 1e-300)


def _shift_prediction(sigma, p, e_norm: float):
    """Expected squared singular value under the shift model, elementwise."""
    return sigma * sigma + sigma * (1.0 - 2.0 * p) * e_norm + e_norm * e_norm / 3.0


def expected_shift_model_check(sigma, p, e_norm: float, draws: int,
                               seed: int = 0) -> ShiftReport:
    """Monte Carlo over the shift model itself: each singular value moves by a
    draw that is uniform on [-e_norm, 0] with probability p_i and uniform on
    [0, e_norm] otherwise. The empirical mean of the squared shifted values
    must match sigma^2 + sigma (1 - 2 p) e + e^2/3 within sampling error.
    """
    AT_LEAST_100.check("draws", draws)
    sigma = np.asarray(sigma, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    lam = np.empty((sigma.size, draws))
    for i in range(sigma.size):
        down = rng.uniform(size=draws) < p[i]
        mag = rng.uniform(0.0, e_norm, size=draws)
        lam[i] = (sigma[i] + np.where(down, -mag, mag)) ** 2
    empirical = lam.mean(axis=1)
    se = lam.std(axis=1, ddof=1) / math.sqrt(draws)
    return ShiftReport(predicted=_shift_prediction(sigma, p, e_norm),
                       empirical=empirical, standard_error=se)


@dataclass
class VectorBoundReport:
    """Per-index audit of ||u_i - u~_i|| <= 2 sqrt(2) ||E||_2 / gap, applicable
    only when the spectrum gap is at least twice the perturbation norm."""

    skipped: bool
    deviations: np.ndarray | None = None
    bound: float = math.nan

    @property
    def passed(self) -> bool:
        if self.skipped:
            return False
        return bool(np.all(self.deviations <= self.bound + 1e-9))


def singular_vector_bound_check(J, E) -> VectorBoundReport:
    j = as_matrix(J, "J")
    e = as_matrix(E, "E")
    if j.shape != e.shape:
        raise ValueError("J and E must share a shape")
    dec = svd(j)
    gap = eigengap(dec.sigma)
    e2 = spectral_norm(e)
    if gap < 2.0 * e2:
        return VectorBoundReport(skipped=True)
    dec_t = svd(j + e)
    devs = np.empty(dec.sigma.size)
    for i in range(dec.sigma.size):
        u = dec.U[:, i]
        ut = dec_t.U[:, i]
        if float(u @ ut) < 0.0:
            ut = -ut
        devs[i] = float(np.linalg.norm(u - ut))
    bound = 2.0 * math.sqrt(2.0) * e2 / gap if gap > 0.0 else math.inf
    return VectorBoundReport(skipped=False, deviations=devs, bound=bound)


def _descent_residuals(net: MLP, X: np.ndarray, Y: np.ndarray, eta: float,
                       steps: int):
    """Yield the flat residual f(X) - Y before each of ``steps`` full-batch
    gradient-descent steps on a copy of ``net``, and after the last one.
    The rows are checked once, and one ``_Gradient`` serves every step:
    each takes its residual and gradient from one forward trace."""
    work = net.copy()
    X, Y, ones = checked_rows(work, X, Y, np.ones(X.shape[0]))
    gradient = _Gradient(work)
    for t in range(steps + 1):
        r = gradient(X, Y, ones)
        yield r.ravel()
        if t < steps:
            work.params -= eta * gradient.grad


def residual_dynamics_check(net: MLP, data: Dataset, steps: int) -> float:
    """Predict r_t = sum_i (1 - eta lam_i)^t u_i (u_i . r_0) from the initial
    kernel and compare with actual gradient descent, step by step, at the
    stable step eta = 1 / (2 lam_max); lam_max >= 1 from the output biases.
    Returns the largest deviation of a prediction from its measured residual,
    relative to the measured residual's norm, over steps 0 to ``steps``.

    The sum runs over every kernel eigendirection including the zero
    eigenvalues: residual mass outside the range of the derivative matrix
    persists unchanged, so the prediction keeps it rather than dropping it.
    """
    dec = svd(jacobian(net, data.features))
    lam = dec.sigma**2
    eta = 0.5 / lam[0]
    rel = np.empty(steps + 1)
    residuals = _descent_residuals(net, data.features, data.one_hot_labels(), eta, steps)
    for t, r_actual in enumerate(residuals):
        if t == 0:
            r0 = r_actual
            coeffs = dec.U.T @ r0
        decay = (1.0 - eta * lam) ** t
        r_pred = r0 + dec.U @ ((decay - 1.0) * coeffs)
        actual = float(np.linalg.norm(r_actual))
        rel[t] = float(np.linalg.norm(r_pred - r_actual) / max(actual, 1e-300))
    return float(np.max(rel))


@dataclass
class LinearBoundReport:
    """Gradient-difference audits for a common linear transform F.

    ``subset_lhs``: normed difference between full augmented gradient sum and
    the weighted subset's augmented gradient sum; bounded by ||F|| (xi +
    sqrt(d) n omega). ``combined_lhs``: same, with plain and augmented
    gradients pooled; bounded by (||F|| + 1) xi + sqrt(d) ||F|| n omega.
    Here xi is the normed difference of the plain gradient sums and omega
    the largest change that F makes to a row's prediction.
    """

    gamma: np.ndarray
    subset_lhs: float
    subset_bound: float
    combined_lhs: float
    combined_bound: float


def _linear_grad_sum(W: np.ndarray, X: np.ndarray, Y: np.ndarray,
                     weights: np.ndarray) -> np.ndarray:
    residual = X @ W - Y
    return X.T @ (residual * weights[:, None])


def linear_transform_bound_check(W_lin, X, Y, F, indices) -> LinearBoundReport:
    """Audit the weighted-subset gradient bounds for f(x) = W^T x augmented by
    the common linear map x -> F x, with every quantity measured. ``gamma``
    weighs each pick by its coverage of the per-example gradients x (x W - y)^T."""
    W = as_matrix(W_lin, "W_lin")
    X = as_matrix(X, "X")
    Y = np.asarray(Y, dtype=np.float64)
    F = as_matrix(F, "F")
    idx = np.asarray(indices, dtype=np.int64)
    n, d = X.shape
    grads = np.einsum("nd,nc->ndc", X, X @ W - Y).reshape(n, -1)
    gam = compute_weights(pairwise_distances(grads), idx)
    Xa = X @ F.T
    omega = float(np.max(np.linalg.norm(Xa @ W - X @ W, axis=1)))
    f2 = spectral_norm(F)
    ones = np.ones(n)
    full_plain = _linear_grad_sum(W, X, Y, ones)
    sub_plain = _linear_grad_sum(W, X[idx], Y[idx], gam)
    xi = float(np.linalg.norm(full_plain - sub_plain))
    full_aug = _linear_grad_sum(W, Xa, Y, ones)
    sub_aug = _linear_grad_sum(W, Xa[idx], Y[idx], gam)
    subset_lhs = float(np.linalg.norm(full_aug - sub_aug))
    subset_bound = f2 * (xi + math.sqrt(d) * n * omega)
    combined_lhs = float(np.linalg.norm((full_plain + full_aug) - (sub_plain + sub_aug)))
    combined_bound = (f2 + 1.0) * xi + math.sqrt(d) * f2 * n * omega
    return LinearBoundReport(gamma=gam, subset_lhs=subset_lhs, subset_bound=subset_bound,
                             combined_lhs=combined_lhs, combined_bound=combined_bound)


@dataclass
class LinearSgdEnvelopeReport:
    alpha: float
    grad_norms: np.ndarray
    envelope: np.ndarray

    @property
    def passed(self) -> bool:
        return bool(np.all(self.grad_norms <= self.envelope + 1e-9))


def linear_transform_sgd_envelope(W0, X, Y, F, indices,
                                  steps: int) -> LinearSgdEnvelopeReport:
    """Run full-batch descent on the weighted subset plus its F-augmentation
    and compare the gradient-norm trajectory with the measured convergence
    envelope, whose constant is G0' + combined bound: G0' is the gradient norm
    of the full F-augmented set at W0.
    """
    report = linear_transform_bound_check(W0, X, Y, F, indices)
    W = as_matrix(W0, "W0").copy()
    X = as_matrix(X, "X")
    Y = np.asarray(Y, dtype=np.float64)
    F = as_matrix(F, "F")
    idx = np.asarray(indices, dtype=np.int64)
    pool_X = np.concatenate([X[idx], X[idx] @ F.T])
    pool_Y = np.concatenate([Y[idx], Y[idx]])
    pool_w = np.concatenate([report.gamma, report.gamma])
    alpha, lam = pl_constants(pool_X * np.sqrt(pool_w)[:, None])
    beta = float(np.max(pool_w * np.sum(pool_X * pool_X, axis=1)))
    eta = alpha / (lam * beta)
    full_aug_X = np.concatenate([X, X @ F.T])
    full_aug_Y = np.concatenate([Y, Y])
    constant = float(np.linalg.norm(_linear_grad_sum(
        W, full_aug_X, full_aug_Y, np.ones(2 * X.shape[0])))) + report.combined_bound
    grad_norms = np.empty(steps + 1)
    envelope = np.empty(steps + 1)
    for t in range(steps + 1):
        grad = _linear_grad_sum(W, pool_X, pool_Y, pool_w)
        grad_norms[t] = float(np.linalg.norm(grad))
        envelope[t] = pl_convergence_envelope(alpha, eta, constant, t)
        W = W - eta * grad
    return LinearSgdEnvelopeReport(alpha=alpha, grad_norms=grad_norms, envelope=envelope)


def pl_constants(scaled) -> tuple[float, float]:
    """(alpha, lambda) of a weighted squared loss whose derivative matrix,
    each row scaled by the square root of its weight, is ``scaled``.

    alpha is twice the smallest positive eigenvalue of the Gauss Hessian
    ``scaled.T @ scaled`` (the gradient-domination constant) and lambda its
    largest (the smoothness of the total loss). A singular value counts as
    positive above 1e-10 times the largest; when none does, the design has
    rank zero and no gradient-domination constant, a ``ValueError``.
    """
    svals = singular_values(scaled)
    positive = svals[svals > 1e-10 * max(svals[0], 1e-300)]
    if positive.size == 0:
        raise ValueError("a rank-zero design has no gradient-domination (PL) constant")
    return 2.0 * float(positive[-1] ** 2), float(svals[0] ** 2)


def measure_pl_constants(net: MLP, X, weights) -> tuple[float, float, float]:
    """Measured (alpha, lambda, beta) for a single-layer (linear) model:
    ``pl_constants`` of its weighted derivative matrix at X, and beta the
    largest per-example smoothness w_i * (||x_i||^2 + 1)."""
    if len(net.weights) != 1:
        raise ValueError("PL constants are measured on linear (single-layer) models")
    X = np.asarray(X, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    row_scale = np.repeat(np.sqrt(w), net.num_outputs)
    alpha, lam = pl_constants(jacobian(net, X) * row_scale[:, None])
    beta = float(np.max(w * (np.sum(X * X, axis=1) + 1.0)))
    return alpha, lam, beta


def pl_convergence_envelope(alpha: float, eta: float, constant: float, t: int) -> float:
    """Gradient-norm envelope (1/sqrt(alpha)) (1 - alpha eta / 2)^(t/2)
    ``constant`` of gradient-dominated training after t steps."""
    base = 1.0 - alpha * eta / 2.0
    if base <= 0.0:
        raise ValueError("alpha * eta / 2 must stay below 1")
    return constant * base ** (t / 2.0) / math.sqrt(alpha)
