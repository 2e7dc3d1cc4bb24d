"""Per-class selection of weighted representative subsets in gradient space.

The objective is the coverage norm: the root of summed squared distances from
every class member to its nearest selected element, with an empty-set sentinel
``c1 = 2 max D`` per row. Greedy selection maximizes the per-step reduction of
that norm. Because the square root is strictly monotone, the argmax is
identical to maximizing the reduction of the summed squares, which is what the
engines track internally; the squared form has nonincreasing marginal gains,
so lazy evaluation certifies exactly the same picks as the naive scan.

All engines score candidates through one batched row reduction over rows of
D clipped at the current coverage and squared, in blocks of ``_SCORE_BLOCK``
rows, and pick the best with the same smallest-index tie rule; naive, lazy,
and fully-sampled stochastic runs therefore agree bit for bit. The engines
differ only in which candidates they score. D must be symmetric, as
``pairwise_distances`` returns it, so that each row of D is also its column.
Selection holds one n_c x n_c array per class, D itself, plus temporaries of
a block of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import NumericalError, as_matrix, frobenius_norm
from .model import (
    MLP,
    Dataset,
    GradientProxySet,
    jacobian,
    per_example_gradients,
    residuals,
)

__all__ = [
    "SelectionConfig",
    "SelectionResult",
    "ClassCoreset",
    "WeightedCoreset",
    "BaselineSubset",
    "AlignmentReport",
    "NtkBoundVerdict",
    "pairwise_distances",
    "g_frobenius",
    "facility_location_objective",
    "greedy_select",
    "lazy_greedy_select",
    "stochastic_greedy_select",
    "compute_weights",
    "divide_weights",
    "alignment_error",
    "select_all_classes",
    "max_loss_subset",
    "random_subset",
    "coreset_ntk_bound_check",
]

ENGINES = ("naive", "lazy", "stochastic")
STOP_MODES = ("xi_threshold", "fixed_size")

# Candidate rows scored per reduction; bounds the temporary at block x n_c.
_SCORE_BLOCK = 64
# Rows of the Gram matrix turned into distances per step, and the height of
# the tiles it is symmetrised in; bounds the scratch buffer at block x n.
_DIST_BLOCK = 128
# Candidates with the largest stale gains that lazy greedy rescores first; 16
# scores fewer rows than 64 and runs faster at n_c = 1000 and 3000.
_LAZY_BLOCK = 16


@dataclass(frozen=True)
class SelectionConfig:
    """How to stop, which engine to run, and the engine's knobs.

    ``xi`` is used iff ``stop == "xi_threshold"``; ``k_per_class``, else
    ``fraction``, iff ``stop == "fixed_size"``. ``stochastic_sample``
    defaults to ceil((n_c / k) * ln(100)) for fixed-size runs and
    ceil(n_c / 8) for threshold runs.
    """

    stop: str = "fixed_size"
    xi: float | None = None
    k_per_class: int | None = None
    fraction: float | None = None
    engine: str = "lazy"
    stochastic_sample: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.stop not in STOP_MODES:
            raise ValueError(f"stop must be one of {STOP_MODES}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if self.stop == "xi_threshold":
            if self.xi is None or self.xi <= 0.0:
                raise ValueError("xi_threshold mode needs xi > 0")
        elif self.k_per_class is None and self.fraction is None:
            raise ValueError("fixed_size mode needs k_per_class or fraction")
        if self.k_per_class is not None and self.k_per_class < 1:
            raise ValueError("k_per_class must be >= 1")
        if self.fraction is not None and not (0.0 < self.fraction <= 1.0):
            raise ValueError("fraction must lie in (0, 1]")


@dataclass
class SelectionResult:
    """Selected local indices in pick order, the coverage-norm value after each
    pick, and the number of candidate rows scored (marginal-gain evaluations)."""

    indices: list[int]
    trace: list[float]
    evaluations: int


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix: symmetric, zero diagonal, nonnegative.

    Computes ``sq_i + sq_j - 2 (p p^T)``, clamps at zero, takes the root,
    zeroes the diagonal and averages with the transpose. The Gram matrix
    ``p p^T`` is the only n x n buffer: it becomes D in place, in row blocks
    of ``_DIST_BLOCK`` with one block x n scratch buffer, and is then
    averaged with its transpose tile by tile through that buffer, each upper
    tile written to its mirror. These are the same operations in the same
    order as the plain expression, so the result is identical bit for bit.
    IEEE addition commutes, so the average is symmetric bit for bit too.
    """
    p = as_matrix(points, "points")
    n = p.shape[0]
    sq = np.sum(p * p, axis=1)
    g = p @ p.T
    t = np.empty((min(_DIST_BLOCK, n), n))
    for i in range(0, n, _DIST_BLOCK):
        gb = g[i:i + _DIST_BLOCK]
        tb = t[:gb.shape[0]]
        np.add(sq[i:i + _DIST_BLOCK, None], sq[None, :], out=tb)
        gb *= 2.0
        np.subtract(tb, gb, out=gb)
        np.maximum(gb, 0.0, out=gb)
        np.sqrt(gb, out=gb)
    np.fill_diagonal(g, 0.0)
    # tiles two blocks wide: one tile per row block at n = 200, where call
    # overhead dominates; within ~3% of square tiles at n = 3000
    w = 2 * _DIST_BLOCK
    for i in range(0, n, _DIST_BLOCK):
        for j in range(i, n, w):
            u = g[i:i + _DIST_BLOCK, j:j + w]
            v = g[j:j + w, i:i + _DIST_BLOCK]
            s = t[:u.shape[0], :u.shape[1]]
            np.add(u, v.T, out=s)
            s *= 0.5
            u[...] = s
            v[...] = s.T
    return g


def _resolve_k(config: SelectionConfig, n_c: int) -> int | None:
    if config.stop != "fixed_size":
        return None
    k = config.k_per_class
    if k is None:
        k = max(1, int(round(config.fraction * n_c)))
    if k > n_c:
        raise ValueError(f"k={k} exceeds class population {n_c}")
    return k


class _NonFiniteDistances(ValueError):
    """D holds NaN or an infinity, or its squared coverage overflows."""


def _checked_max(D) -> tuple[np.ndarray, float]:
    """D as a nonempty 2-D float64 array, and its largest entry.

    Rejects NaN and infinities with two reductions and no n x n temporary:
    NaN propagates through the maximum, and an infinity is the maximum or
    the minimum.
    """
    D = as_matrix(D, "D", finite=False)
    hi = float(D.max())
    if not (math.isfinite(hi) and math.isfinite(float(D.min()))):
        raise _NonFiniteDistances("D contains non-finite entries")
    return D, hi


def g_frobenius(D, S, c1: float) -> float:
    """Coverage norm sqrt(sum_i min_{j in S} D[i, j]^2); sqrt(n)*c1 when S is empty."""
    D, _ = _checked_max(D)
    if len(S) == 0:
        return math.sqrt(D.shape[0]) * c1
    dmin = D[:, sorted(int(s) for s in S)].min(axis=1)
    return math.sqrt(float(np.sum(dmin * dmin)))


def facility_location_objective(D, S, cap: float | None = None) -> float:
    """Coverage sum ``sum_i (cap - min_{j in S} D[i, j])``, cap defaulting to max D.

    The monotone submodular surrogate used for approximation-guarantee checks.
    """
    D, hi = _checked_max(D)
    if cap is None:
        cap = hi
    if len(S) == 0:
        return 0.0
    dmin = D[:, sorted(int(s) for s in S)].min(axis=1)
    return float(np.sum(cap - dmin))


class _GreedyState:
    """Shared bookkeeping so every engine scores candidates with the same
    floating-point expression: one contiguous row of D per candidate,
    clipped at the current coverage ``dmin``, squared and summed. D is
    symmetric, so a candidate's row holds its distances to every point.
    Rounding is monotone, so fl(min(x, y)^2) = min(fl(x^2), fl(y^2)) bit for
    bit, and no squared copy of D is needed. The empty-set sentinel is
    c1 = 2 max D, above any achievable distance."""

    def __init__(self, D, config: SelectionConfig):
        self.D, hi = _checked_max(D)
        self.n_c = self.D.shape[0]
        self.c1 = 2.0 * hi
        self.k = _resolve_k(config, self.n_c)
        self.config = config
        self.dmin = np.full(self.n_c, self.c1)
        self.q = float(np.sum(np.square(self.dmin)))
        if not math.isfinite(self.q):
            raise _NonFiniteDistances(f"squared coverage overflows: max D = {hi!r}")
        self.remaining = np.ones(self.n_c, dtype=bool)
        self.S: list[int] = []
        self.trace: list[float] = []
        self.evaluations = 0

    def score(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(marginal gains, resulting summed squared coverage) for candidate ids."""
        nq = np.empty(ids.size)
        for start in range(0, ids.size, _SCORE_BLOCK):
            rows = self.D[ids[start:start + _SCORE_BLOCK]]
            np.minimum(rows, self.dmin, out=rows)
            np.square(rows, out=rows)
            nq[start:start + rows.shape[0]] = rows.sum(axis=1)
        self.evaluations += ids.size
        return self.q - nq, nq

    def select_best(self, ids: np.ndarray) -> np.ndarray:
        """Score ascending candidate ids and select the largest gain; argmax
        keeps the first, i.e. smallest, index on ties. Returns the gains."""
        gains, nq = self.score(ids)
        i = int(np.argmax(gains))
        self.select(int(ids[i]), float(nq[i]))
        return gains

    def select(self, s: int, nq: float) -> None:
        self.S.append(s)
        self.remaining[s] = False
        np.minimum(self.dmin, self.D[s], out=self.dmin)
        self.q = nq
        self.trace.append(math.sqrt(max(nq, 0.0)))

    def done(self) -> bool:
        if self.q <= 0.0 or len(self.S) == self.n_c:
            return True
        if self.config.stop == "fixed_size":
            return len(self.S) >= self.k
        return self.trace[-1] <= self.config.xi

    def result(self) -> SelectionResult:
        return SelectionResult(self.S, self.trace, self.evaluations)


def greedy_select(D, config: SelectionConfig) -> SelectionResult:
    """Naive greedy: every step scores all remaining candidates.

    Picks the candidate with the largest coverage-norm reduction, ties broken
    by smallest index. Stops at |S| = k (fixed_size), at norm <= xi
    (xi_threshold), or as soon as the norm hits zero; at least one element is
    always selected. D must be symmetric.
    """
    state = _GreedyState(D, config)
    while True:
        state.select_best(np.flatnonzero(state.remaining))
        if state.done():
            return state.result()


def lazy_greedy_select(D, config: SelectionConfig) -> SelectionResult:
    """Lazy greedy: stale gains decide which candidates are rescored.

    Each step rescores the block of candidates with the largest stale gains,
    then every other remaining candidate whose stale gain, plus a rounding
    margin, reaches the best fresh gain of that block, and selects the best
    rescored candidate, ties to the smallest index. Stale gains start at +inf,
    so the first step scores everything. They upper-bound current ones in
    exact arithmetic (squared-coverage gains are nonincreasing as the
    selection grows), but floating-point sums can understate a stale gain by
    an ulp; the margin keeps such near-ties in the rescored set. Every
    candidate left out therefore has a smaller gain than the pick, and the
    output (set, order, trace) is identical to the naive scan. D must be
    symmetric.
    """
    state = _GreedyState(D, config)
    margin = 1e-9 * state.q
    stale = np.full(state.n_c, np.inf)
    nq = np.empty(state.n_c)
    while True:
        block = min(_LAZY_BLOCK, state.n_c - len(state.S))
        top = np.sort(np.argpartition(stale, -block)[-block:])
        stale[top], nq[top] = state.score(top)
        fresh = np.zeros(state.n_c, dtype=bool)
        fresh[top] = True
        rest = np.flatnonzero(~fresh & (stale + margin >= stale[top].max()))
        stale[rest], nq[rest] = state.score(rest)
        fresh[rest] = True
        ids = np.flatnonzero(fresh)
        s = int(ids[np.argmax(stale[ids])])
        state.select(s, float(nq[s]))
        stale[s] = -np.inf
        if state.done():
            return state.result()


def stochastic_greedy_select(D, config: SelectionConfig) -> SelectionResult:
    """Stochastic greedy: each step scores a uniform random candidate sample
    of size ``stochastic_sample`` (capped at what remains) and takes its best.
    Deterministic given the config seed; a sample covering everything that
    remains reduces to the naive scan. D must be symmetric.
    """
    state = _GreedyState(D, config)
    if config.stochastic_sample is not None:
        sample_size = config.stochastic_sample
    elif state.k is not None:
        sample_size = int(np.ceil((state.n_c / state.k) * np.log(100.0)))
    else:
        sample_size = int(np.ceil(state.n_c / 8.0))
    if sample_size < 1:
        raise ValueError("stochastic_sample must be >= 1")
    rng = np.random.default_rng(config.seed)
    while True:
        cand = np.flatnonzero(state.remaining)
        take = min(sample_size, cand.size)
        state.select_best(np.sort(rng.choice(cand, size=take, replace=False)))
        if state.done():
            return state.result()


_ENGINE_FNS = {
    "naive": greedy_select,
    "lazy": lazy_greedy_select,
    "stochastic": stochastic_greedy_select,
}


def compute_weights(D, S) -> np.ndarray:
    """Nearest-selected assignment counts, aligned with the order of S.

    Every class point is assigned to its nearest element of S, ties going to
    the smallest index in S; gamma_j is the count assigned to j and the counts
    sum to the class population.
    """
    D, _ = _checked_max(D)
    S = [int(s) for s in S]
    if len(S) == 0:
        raise ValueError("S must be nonempty")
    s_arr = np.asarray(S)
    order = np.argsort(s_arr, kind="stable")
    cols = s_arr[order]
    # take gathers C-ordered columns; D[:, cols] is F-ordered, and argmin
    # along its rows would copy it
    assign = np.argmin(np.take(D, cols, axis=1), axis=1)
    counts_sorted = np.bincount(assign, minlength=cols.size)
    gamma = np.empty(len(S), dtype=np.int64)
    gamma[order] = counts_sorted
    return gamma


def divide_weights(gamma, r: int) -> np.ndarray:
    """rho_j = gamma_j / r, exactly."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return np.asarray(gamma, dtype=np.float64) / r


@dataclass
class ClassCoreset:
    """One class's selection in global indices; ``g_frobenius`` is the
    coverage norm it reached, the last value of ``trace``."""

    label: int
    indices: list[int]
    gamma: np.ndarray
    rho: np.ndarray
    g_frobenius: float
    trace: list[float]


@dataclass
class WeightedCoreset:
    """Per-class selections with integer weights gamma and divided weights rho."""

    classes: list[ClassCoreset]
    engine: str
    seed: int
    r: int = 1
    warnings: list[str] = field(default_factory=list)

    @property
    def indices(self) -> np.ndarray:
        return np.concatenate([np.asarray(c.indices, dtype=np.int64) for c in self.classes])

    @property
    def gamma(self) -> np.ndarray:
        return np.concatenate([c.gamma for c in self.classes])

    @property
    def rho(self) -> np.ndarray:
        return np.concatenate([c.rho for c in self.classes])

    def validate(self, class_sizes: dict[int, int] | None = None) -> None:
        seen: set[int] = set()
        for c in self.classes:
            if any(i in seen for i in c.indices):
                raise ValueError("coreset indices are not distinct")
            seen.update(c.indices)
            if np.any(c.gamma < 1):
                raise ValueError(f"class {c.label} has a zero weight")
            if not np.allclose(c.rho * self.r, c.gamma):
                raise ValueError("rho must equal gamma / r exactly")
            if class_sizes is not None and int(c.gamma.sum()) != class_sizes[c.label]:
                raise ValueError(f"class {c.label} weights do not sum to its population")
            if np.any(np.diff(c.trace) >= 0.0):
                raise ValueError("objective trace is not strictly decreasing")

    def to_json_dict(self) -> dict:
        return {
            "classes": [
                {
                    "class": int(c.label),
                    "indices": [int(i) for i in c.indices],
                    "gamma": [int(g) for g in c.gamma],
                    "rho": [float(x) for x in c.rho],
                    "g_frobenius": float(c.g_frobenius),
                    "trace": [float(t) for t in c.trace],
                }
                for c in self.classes
            ],
            "engine": self.engine,
            "seed": int(self.seed),
        }


def select_all_classes(proxies: GradientProxySet, config: SelectionConfig,
                       r: int = 1) -> WeightedCoreset:
    """Run the configured engine on every class and merge the results.

    Classes are processed in label order; empty classes are skipped with a
    warning record. Weight conservation holds per class: gamma sums to the
    class population. The engine's trace already holds the final coverage
    norm, so it is not recomputed. The proxies are finite, so distances that
    are not, or whose squares overflow, raise ``NumericalError`` naming the
    class.
    """
    engine = _ENGINE_FNS[config.engine]
    classes: list[ClassCoreset] = []
    warnings: list[str] = []
    for label in range(proxies.num_classes):
        idx = np.flatnonzero(proxies.labels == label)
        if idx.size == 0:
            warnings.append(f"class {label} is empty; skipped")
            continue
        D = pairwise_distances(proxies.proxies[idx])
        try:
            result = engine(D, config)
        except _NonFiniteDistances as exc:
            raise NumericalError(f"class {label}: distances between its gradient "
                                 f"proxies overflow float64 ({exc})") from exc
        gamma = compute_weights(D, result.indices)
        classes.append(ClassCoreset(
            label=label,
            indices=[int(idx[i]) for i in result.indices],
            gamma=gamma,
            rho=divide_weights(gamma, r),
            g_frobenius=result.trace[-1],
            trace=result.trace,
        ))
        # free this class's matrix before the next class builds its own
        del D
    return WeightedCoreset(classes=classes, engine=config.engine,
                           seed=config.seed, r=r, warnings=warnings)


@dataclass
class BaselineSubset:
    """A baseline selection: indices with uniform per-class weights n_c / k."""

    indices: np.ndarray
    weights: np.ndarray


def _per_class_subset(labels, k: int | None, fraction: float | None,
                      choose) -> BaselineSubset:
    """Classes in label order, each sized like ``SelectionConfig`` (k, else
    the fraction); ``choose(class rows, k_c)`` picks the rows."""
    labels = np.asarray(labels, dtype=np.int64)
    size = SelectionConfig(k_per_class=k, fraction=fraction)
    indices, weights = [], []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        kc = _resolve_k(size, idx.size)
        indices.append(choose(idx, kc))
        weights.append(np.full(kc, idx.size / kc))
    return BaselineSubset(np.concatenate(indices), np.concatenate(weights))


def max_loss_subset(losses, k: int | None, labels,
                    fraction: float | None = None) -> BaselineSubset:
    """Top-k per-example losses within each class; ties to the smallest index."""
    losses = np.asarray(losses, dtype=np.float64)
    return _per_class_subset(
        labels, k, fraction,
        lambda idx, kc: idx[np.argsort(-losses[idx], kind="stable")[:kc]])


def random_subset(k: int | None, labels, seed: int = 0,
                  fraction: float | None = None) -> BaselineSubset:
    """Uniform without-replacement per-class sample with weights n_c / k."""
    rng = np.random.default_rng(seed)
    return _per_class_subset(
        labels, k, fraction,
        lambda idx, kc: np.sort(rng.choice(idx, size=kc, replace=False)))


@dataclass
class AlignmentReport:
    """Measured weighted-subset gradient-sum error against its coverage bound.

    Per class: ``error_c = || sum_i g_i - sum_{j in S_c} gamma_j g_j ||`` over
    proxy vectors; ``bound_c = sqrt(n_c) * coverage_norm_c``. The bound follows
    from the triangle inequality (the error is at most the sum of per-point
    nearest distances) and Cauchy-Schwarz, so it always dominates the error.
    """

    error_total: float
    bound_total: float
    per_class_error: dict[int, float]
    per_class_bound: dict[int, float]

    @property
    def passed(self) -> bool:
        return self.error_total <= self.bound_total + 1e-9


def alignment_error(proxies: GradientProxySet, coreset: WeightedCoreset) -> AlignmentReport:
    """Each class's coverage norm comes from its selection, so no distance
    matrix is built."""
    per_err: dict[int, float] = {}
    per_bound: dict[int, float] = {}
    for c in coreset.classes:
        idx = np.flatnonzero(proxies.labels == c.label)
        total = proxies.proxies[idx].sum(axis=0)
        approx = (proxies.proxies[c.indices] * c.gamma[:, None]).sum(axis=0)
        per_err[c.label] = float(np.linalg.norm(total - approx))
        per_bound[c.label] = math.sqrt(idx.size) * c.g_frobenius
    return AlignmentReport(
        error_total=sum(per_err.values()),
        bound_total=sum(per_bound.values()),
        per_class_error=per_err,
        per_class_bound=per_bound,
    )


@dataclass
class NtkBoundVerdict:
    """Exact-gradient audit of the coreset-kernel eigenvalue lower bound.

    Checks sqrt(sum of coreset NTK eigenvalues) >= |full gradient norm - xi|
    divided by the weight-scaled coreset residual norm, where xi is the
    measured alignment error of the weighted coreset on exact per-example
    gradients.
    """

    lhs: float
    rhs: float
    xi: float
    full_grad_norm: float
    weighted_residual_norm: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs


def coreset_ntk_bound_check(net: MLP, data: Dataset,
                            coreset: WeightedCoreset) -> NtkBoundVerdict:
    grads = per_example_gradients(net, data)
    full = grads.sum(axis=0)
    idx = coreset.indices
    gamma = coreset.gamma.astype(np.float64)
    approx = (grads[idx] * gamma[:, None]).sum(axis=0)
    xi = float(np.linalg.norm(full - approx))
    full_norm = float(np.linalg.norm(full))
    lhs = frobenius_norm(jacobian(net, data.features[idx]))
    r_s = residuals(net, data.subset(idx))
    res_norm = float(np.linalg.norm(r_s * gamma[:, None]))
    if res_norm < 1e-300:
        rhs = 0.0
        passed = abs(full_norm - xi) <= 1e-9
    else:
        rhs = abs(full_norm - xi) / res_norm
        passed = lhs + 1e-9 >= rhs
    return NtkBoundVerdict(
        lhs=lhs, rhs=rhs, xi=xi, full_grad_norm=full_norm,
        weighted_residual_norm=res_norm, passed=passed,
    )
