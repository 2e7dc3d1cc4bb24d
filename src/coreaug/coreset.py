"""Per-class selection of weighted representative subsets in gradient space.

The objective is the coverage norm: the root of summed squared distances from
every class member to its nearest selected element, with an empty-set sentinel
``c1 = 2 max D`` per row. Greedy selection maximizes the per-step reduction of
that norm. Because the square root is strictly monotone, the argmax is
identical to maximizing the reduction of the summed squares, which is what the
engines track internally; the squared form has nonincreasing marginal gains,
so lazy evaluation certifies exactly the same picks as the naive scan.

All engines score candidates through one batched row reduction over rows of
D clipped at the current coverage and squared, and pick the best with the
same smallest-index tie rule; naive, lazy, and fully-sampled stochastic runs
therefore agree bit for bit. The engines differ only in which candidates
they score. D must be symmetric, as ``pairwise_distances`` returns it, so
that each row of D is also its column.

Selection holds one n_c x n_c array per class, D itself. Every other
temporary of the distances, the scoring and the weights is one block of
rows: a block w entries wide has max(``_SCORE_BLOCK``, ``_SCORE_ENTRIES`` /
w) rows (``_block_rows``), so at most 512 KB once w <= 1000 and 64 rows
beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (ABOVE_0, AT_LEAST_1, LEFT_OPEN_UNIT, NumericalError, as_matrix,
                     frobenius_norm, one_of)
from .model import (
    MLP,
    Dataset,
    GradientProxySet,
    class_rows,
    jacobian,
    per_example_gradients,
    residuals,
)

ENGINES = ("naive", "lazy", "stochastic")
STOP_MODES = ("xi_threshold", "fixed_size")

# Rows per block of every selection temporary: at least _SCORE_BLOCK rows,
# and as many as fit _SCORE_ENTRIES entries, so a small class takes one block
# while a block stays at 64 x n_c from n_c = 1000 on.
_SCORE_BLOCK = 64
_SCORE_ENTRIES = 64_000
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
        one_of(STOP_MODES).check("stop", self.stop)
        one_of(ENGINES).check("engine", self.engine)
        for name, domain in (("xi", ABOVE_0), ("k_per_class", AT_LEAST_1),
                             ("fraction", LEFT_OPEN_UNIT), ("stochastic_sample", AT_LEAST_1)):
            if getattr(self, name) is not None:
                domain.check(name, getattr(self, name))
        if self.stop == "xi_threshold" and self.xi is None:
            raise ValueError("xi_threshold mode needs xi")
        if self.stop == "fixed_size" and self.k_per_class is None and self.fraction is None:
            raise ValueError("fixed_size mode needs k_per_class or fraction")


@dataclass
class SelectionResult:
    """Selected local indices in pick order, the coverage-norm value after each
    pick, and the number of candidate rows scored (marginal-gain evaluations)."""

    indices: list[int]
    trace: list[float]
    evaluations: int


def _block_rows(width: int) -> int:
    """Rows per block of a selection temporary ``width`` entries wide."""
    return max(_SCORE_BLOCK, _SCORE_ENTRIES // width)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix: symmetric, zero diagonal, nonnegative.

    Computes ``sq_i + sq_j - 2 (p p^T)``, clamps at zero, takes the root and
    zeroes the diagonal. The Gram matrix ``p p^T`` is the only n x n buffer:
    it becomes D in place, in blocks of ``_block_rows(n)`` rows with one
    block of scratch. These are the same operations in the same order as the
    plain expression, so the result is identical bit for bit. D is symmetric
    bit for bit as built: numpy hands ``p @ p.T`` on a contiguous ``p`` to
    BLAS ``syrk``, which computes one triangle and copies it to the other,
    and every later step is elementwise and gives (i, j) and (j, i) the same
    result, since IEEE addition commutes.
    """
    p = np.ascontiguousarray(as_matrix(points, "points"))
    n = p.shape[0]
    sq = np.sum(p * p, axis=1)
    g = p @ p.T
    rows = _block_rows(n)
    t = np.empty((min(rows, n), n))
    for i in range(0, n, rows):
        gb = g[i:i + rows]
        tb = t[:gb.shape[0]]
        np.add(sq[i:i + rows, None], sq[None, :], out=tb)
        gb *= 2.0
        np.subtract(tb, gb, out=gb)
        np.maximum(gb, 0.0, out=gb)
        np.sqrt(gb, out=gb)
    np.fill_diagonal(g, 0.0)
    return g


def _resolve_k(config: SelectionConfig, n_c: int, label: int | None = None) -> int | None:
    """The class's fixed size: ``k_per_class``, else the rounded fraction of
    its ``n_c`` rows (at least 1); None for a threshold run. A
    ``k_per_class`` above ``n_c`` raises ``ValueError`` naming the class's
    ``label`` when the caller knows it."""
    if config.stop != "fixed_size":
        return None
    k = config.k_per_class
    if k is None:
        k = max(1, int(round(config.fraction * n_c)))
    if k > n_c:
        of = "" if label is None else f" of class {label}"
        raise ValueError(f"k_per_class {k} exceeds the {n_c} rows{of}")
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


def g_frobenius(D, S) -> float:
    """Coverage norm sqrt(sum_i min_{j in S} D[i, j]^2); sqrt(n) 2 max D if S is empty."""
    D, hi = _checked_max(D)
    if len(S) == 0:
        return math.sqrt(D.shape[0]) * (2.0 * hi)
    dmin = D[:, sorted(int(s) for s in S)].min(axis=1)
    return math.sqrt(float(np.sum(dmin * dmin)))


def facility_location_objective(D, S) -> float:
    """Coverage sum ``sum_i (max D - min_{j in S} D[i, j])``, the monotone
    submodular surrogate of the approximation-guarantee checks."""
    D, hi = _checked_max(D)
    if len(S) == 0:
        return 0.0
    dmin = D[:, sorted(int(s) for s in S)].min(axis=1)
    return float(np.sum(hi - dmin))


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
        self.score_rows = _block_rows(self.n_c)
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
        """(marginal gains, resulting summed squared coverage) for candidate
        ids. Each row's sum is the same whatever the block height."""
        self.evaluations += ids.size
        if ids.size <= self.score_rows:
            nq = self._reduce(ids)
        else:
            nq = np.concatenate([self._reduce(ids[start:start + self.score_rows])
                                 for start in range(0, ids.size, self.score_rows)])
        return self.q - nq, nq

    def _reduce(self, ids: np.ndarray) -> np.ndarray:
        rows = self.D[ids]
        np.minimum(rows, self.dmin, out=rows)
        np.square(rows, out=rows)
        return rows.sum(axis=1)

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
    # ndarray methods rather than np.* functions below: at n_c = 200 a step
    # takes tens of microseconds, and each function's dispatch adds 1-2 more
    while True:
        block = min(_LAZY_BLOCK, state.n_c - len(state.S))
        top = stale.argpartition(-block)[-block:]
        top.sort()
        gains, nq = state.score(top)
        i = int(gains.argmax())
        s, best, s_nq = int(top[i]), gains[i], nq[i]
        # the rest: every other candidate that might reach the block's best
        stale[top] = -np.inf
        rest = (stale + margin >= best).nonzero()[0]
        stale[top] = gains
        if rest.size:
            gains, nq = state.score(rest)
            stale[rest] = gains
            j = int(gains.argmax())
            if gains[j] > best or (gains[j] == best and rest[j] < s):
                s, s_nq = int(rest[j]), nq[j]
        state.select(s, float(s_nq))
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
    sum to the class population. The distances to S are read one block of
    ``_block_rows(len(S))`` rows at a time.
    """
    D, _ = _checked_max(D)
    S = [int(s) for s in S]
    if len(S) == 0:
        raise ValueError("S must be nonempty")
    return _assign_counts(D, S)


def _assign_counts(D: np.ndarray, S: list[int]) -> np.ndarray:
    """``compute_weights`` on a D already checked and a nonempty S."""
    s_arr = np.asarray(S)
    order = np.argsort(s_arr, kind="stable")
    cols = s_arr[order]
    n = D.shape[0]
    rows = _block_rows(cols.size)
    assign = np.empty(n, dtype=np.intp)
    # take gathers C-ordered columns; D[:, cols] is F-ordered, and argmin
    # along its rows would copy it. Each row's argmin is its own, so the
    # block height cannot change it.
    for i in range(0, n, rows):
        np.argmin(np.take(D[i:i + rows], cols, axis=1), axis=1, out=assign[i:i + rows])
    counts_sorted = np.bincount(assign, minlength=cols.size)
    gamma = np.empty(len(S), dtype=np.int64)
    gamma[order] = counts_sorted
    return gamma


@dataclass
class ClassCoreset:
    """One class's selection in global indices, its integer weights gamma and
    the coverage norm after each pick."""

    label: int
    indices: list[int]
    gamma: np.ndarray
    trace: list[float]

    @property
    def g_frobenius(self) -> float:
        """The coverage norm the selection reached."""
        return self.trace[-1]


@dataclass
class WeightedCoreset:
    """Per-class selections with integer weights gamma."""

    classes: list[ClassCoreset]
    engine: str
    seed: int

    @property
    def indices(self) -> np.ndarray:
        return np.concatenate([np.asarray(c.indices, dtype=np.int64) for c in self.classes])

    @property
    def gamma(self) -> np.ndarray:
        return np.concatenate([c.gamma for c in self.classes])

    def validate(self, class_sizes: dict[int, int] | None = None) -> None:
        seen: set[int] = set()
        for c in self.classes:
            if any(i in seen for i in c.indices):
                raise ValueError("coreset indices are not distinct")
            seen.update(c.indices)
            if np.any(c.gamma < 1):
                raise ValueError(f"class {c.label} has a zero weight")
            if class_sizes is not None and int(c.gamma.sum()) != class_sizes[c.label]:
                raise ValueError(f"class {c.label} weights do not sum to its population")
            if np.any(np.diff(c.trace) >= 0.0):
                raise ValueError("objective trace is not strictly decreasing")

    def to_json_dict(self, r: int = 1) -> dict:
        """The selections; each of a pick's ``r`` augmented copies weighs gamma / r."""
        return {
            "classes": [
                {
                    "class": int(c.label),
                    "indices": [int(i) for i in c.indices],
                    "gamma": [int(g) for g in c.gamma],
                    "rho": [float(x) for x in c.gamma / r],
                    "g_frobenius": float(c.g_frobenius),
                    "trace": [float(t) for t in c.trace],
                }
                for c in self.classes
            ],
            "engine": self.engine,
            "seed": int(self.seed),
        }


def select_all_classes(proxies: GradientProxySet, config: SelectionConfig) -> WeightedCoreset:
    """Run the configured engine on every class and merge the results.

    Classes are processed in label order; a class with no rows is skipped
    (see ``class_rows``). Weight conservation holds per class: gamma sums to
    the class population. The engine's trace already holds the final
    coverage norm, so it is not recomputed, and the engine's check of D
    covers the weight assignment too. The proxies are finite, so distances
    that are not, or whose squares overflow, raise ``NumericalError`` naming
    the class.
    """
    engine = _ENGINE_FNS[config.engine]
    classes: list[ClassCoreset] = []
    for label, idx in class_rows(proxies.labels):
        _resolve_k(config, idx.size, label)  # the engine sees D alone, not the label
        D = pairwise_distances(proxies.proxies[idx])
        try:
            result = engine(D, config)
        except _NonFiniteDistances as exc:
            raise NumericalError(f"class {label}: distances between its gradient "
                                 f"proxies overflow float64 ({exc})") from exc
        classes.append(ClassCoreset(
            label=label,
            indices=[int(idx[i]) for i in result.indices],
            gamma=_assign_counts(D, result.indices),
            trace=result.trace,
        ))
        # free this class's matrix before the next class builds its own
        del D
    return WeightedCoreset(classes=classes, engine=config.engine, seed=config.seed)


@dataclass
class BaselineSubset:
    """A baseline selection: indices with uniform per-class weights n_c / k."""

    indices: np.ndarray
    weights: np.ndarray


def _per_class_subset(labels, k: int | None, fraction: float | None,
                      choose) -> BaselineSubset:
    """Classes in label order, each sized like ``SelectionConfig`` (k, else
    the fraction); ``choose(class rows, k_c)`` picks the rows."""
    size = SelectionConfig(k_per_class=k, fraction=fraction)
    indices, weights = [], []
    for label, idx in class_rows(labels):
        kc = _resolve_k(size, idx.size, label)
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


def alignment_error(proxies: GradientProxySet, coreset: WeightedCoreset) -> AlignmentReport:
    """Each class's coverage norm comes from its selection, so no distance
    matrix is built."""
    rows = dict(class_rows(proxies.labels))
    errors, bounds = [], []
    for c in coreset.classes:
        idx = rows[c.label]
        total = proxies.proxies[idx].sum(axis=0)
        approx = (proxies.proxies[c.indices] * c.gamma[:, None]).sum(axis=0)
        errors.append(float(np.linalg.norm(total - approx)))
        bounds.append(math.sqrt(idx.size) * c.g_frobenius)
    return AlignmentReport(error_total=sum(errors), bound_total=sum(bounds))


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
    return NtkBoundVerdict(lhs=lhs, rhs=rhs, passed=passed)
