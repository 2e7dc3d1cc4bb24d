import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coreaug.coreset
from coreaug.augment import TransformSpec
from coreaug.coreset import (
    _ENGINE_FNS,
    _SCORE_BLOCK,
    _SCORE_ENTRIES,
    ENGINES,
    STOP_MODES,
    SelectionConfig,
    _GreedyState,
    alignment_error,
    compute_weights,
    coreset_ntk_bound_check,
    facility_location_objective,
    g_frobenius,
    greedy_select,
    lazy_greedy_select,
    max_loss_subset,
    pairwise_distances,
    random_subset,
    select_all_classes,
    stochastic_greedy_select,
)
from coreaug.linalg import NumericalError
from coreaug.model import (Dataset, GradientProxySet, MLP, gradient_proxy,
                           per_example_gradients, residuals)
from helpers import zero_mlp


def random_points(seed, n, p=3, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal((n, p))


def proxy_set(points, labels=None, C=None):
    labels = np.zeros(points.shape[0], dtype=int) if labels is None else labels
    C = int(labels.max()) + 1 if C is None else C
    return GradientProxySet(points, labels, C)


def integer_grid_points(seed, n):
    """Points on a small integer grid: many duplicates and exactly tied gains."""
    return np.random.default_rng(seed).integers(0, 4, size=(n, 2)).astype(float)


# Inputs for the engine-equivalence tests: one spans several scoring blocks,
# one is full of exact ties.
ENGINE_INPUTS = {
    "random_600": lambda: random_points(16, 600, p=4),
    "integer_grid_300": lambda: integer_grid_points(17, 300),
}


def brute_g(D, S):
    """Direct per-point minimum scan over a nonempty S, summed by hand."""
    total = 0.0
    for i in range(D.shape[0]):
        total += min(D[i, j] for j in S) ** 2
    return math.sqrt(total)


class TestDistanceMatrix:
    def test_identical_proxies(self):
        pts = np.tile([[1.0, 2.0]], (4, 1))
        D = pairwise_distances(pts)
        assert np.array_equal(D, np.zeros((4, 4)))

    def test_two_points(self):
        D = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.allclose(D, [[0.0, 5.0], [5.0, 0.0]], atol=1e-12)

    def test_matches_brute_force(self):
        pts = random_points(0, 12, p=4)
        D = pairwise_distances(pts)
        for i in range(12):
            for j in range(12):
                assert D[i, j] == pytest.approx(
                    np.linalg.norm(pts[i] - pts[j]), abs=1e-9)

    def test_per_class(self):
        # one class's rows give the class block of the full distance matrix
        pts = random_points(1, 10)
        labels = np.array([0, 1] * 5)
        rows = np.flatnonzero(labels == 1)
        D = pairwise_distances(proxy_set(pts, labels).proxies[rows])
        assert D.shape == (5, 5)
        assert D == pytest.approx(pairwise_distances(pts)[np.ix_(rows, rows)], abs=1e-12)

    def test_empty_class_errors(self):
        proxies = proxy_set(random_points(2, 4), np.zeros(4, dtype=int), C=2)
        with pytest.raises(ValueError):
            pairwise_distances(proxies.proxies[proxies.labels == 1])

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 257, 600])
    @pytest.mark.parametrize("d", [1, 99])
    @pytest.mark.parametrize("duplicated", [False, True])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bit_identical_to_reference_expression(self, n, d, duplicated, layout):
        """The in-place computation performs the same elementwise operations in
        the same order as the plain expression below, so it matches it bit for
        bit; the greedy engines' tie rules depend on that. It is symmetric bit
        for bit, so the engines read rows of its square as columns. Neither
        depends on the memory layout of the points."""
        rng = np.random.default_rng(1000 * n + d)
        p = rng.random((n, d))
        if duplicated:
            p[rng.integers(0, n, size=n // 2)] = p[rng.integers(0, n, size=n // 2)]
        sq = np.sum(p * p, axis=1)
        ref = sq[:, None] + sq[None, :] - 2.0 * (p @ p.T)
        ref = np.sqrt(np.maximum(ref, 0.0))
        np.fill_diagonal(ref, 0.0)
        if layout == "F":
            p = np.asfortranarray(p)
        elif layout == "strided":
            wide = np.zeros((n, 2 * d))
            wide[:, ::2] = p
            p = wide[:, ::2]
        D = pairwise_distances(p)
        assert D.tobytes() == ref.tobytes()
        assert D.tobytes() == D.T.tobytes()


class TestPeakMemory:
    """Selection holds one n_c x n_c float64 array per class, the distance
    matrix, which ``pairwise_distances`` builds in its Gram buffer. Every
    other temporary, of the distances, the scoring and the weights, is one
    block of rows: a block w entries wide has max(64, 64,000 / w) rows. The
    rest is the engines' coverage vectors. The two-matrix bounds below
    predate that and still hold. The alignment audit builds no matrix."""

    N_C = 1000
    MATRIX_BYTES = N_C * N_C * 8

    def test_pairwise_distances_holds_one_matrix(self, traced_peak_bytes):
        points = random_points(34, self.N_C, p=16)
        peak = traced_peak_bytes(lambda: pairwise_distances(points))
        assert peak <= 1.25 * self.MATRIX_BYTES

    @pytest.mark.parametrize("engine", ENGINES)
    def test_select_all_classes_holds_one_matrix(self, engine, traced_peak_bytes):
        proxies = proxy_set(random_points(35, 2 * self.N_C, p=16),
                            np.repeat([0, 1], self.N_C))
        cfg = SelectionConfig(stop="fixed_size", k_per_class=self.N_C // 10,
                              engine=engine)
        peak = traced_peak_bytes(lambda: select_all_classes(proxies, cfg))
        assert peak <= 1.3 * self.MATRIX_BYTES

    def test_pairwise_distances_holds_two_matrices(self, traced_peak_bytes):
        points = random_points(30, self.N_C, p=16)
        peak = traced_peak_bytes(lambda: pairwise_distances(points))
        assert peak <= 2.1 * self.MATRIX_BYTES

    @pytest.mark.parametrize("engine", ENGINES)
    def test_select_all_classes_holds_two_matrices(self, engine, traced_peak_bytes):
        proxies = proxy_set(random_points(31, 2 * self.N_C, p=16),
                            np.repeat([0, 1], self.N_C))
        cfg = SelectionConfig(stop="fixed_size", k_per_class=self.N_C // 10,
                              engine=engine)
        peak = traced_peak_bytes(lambda: select_all_classes(proxies, cfg))
        assert peak <= 2.25 * self.MATRIX_BYTES

    def test_score_holds_one_block_of_rows(self, traced_peak_bytes):
        """Scoring every candidate of a large class at once holds one block
        of _SCORE_BLOCK rows of D, not a copy of every candidate's row."""
        n_c = 3000
        state = _GreedyState(pairwise_distances(random_points(37, n_c, p=16)),
                             SelectionConfig(stop="fixed_size", k_per_class=1))
        ids = np.arange(n_c)
        peak = traced_peak_bytes(lambda: state.score(ids))
        assert peak <= 1.5 * _SCORE_BLOCK * n_c * 8

    def test_compute_weights_holds_one_column_block(self, traced_peak_bytes):
        D = pairwise_distances(random_points(36, self.N_C, p=16))
        S = list(range(0, self.N_C, 10))
        peak = traced_peak_bytes(lambda: compute_weights(D, S))
        assert peak <= 1.5 * self.N_C * len(S) * 8

    def test_compute_weights_holds_one_row_block(self, traced_peak_bytes):
        """The distances to S are gathered one block of rows at a time, at
        most _SCORE_ENTRIES of them (256 rows at k = 250), not as one
        n_c x k matrix (four times that)."""
        D = pairwise_distances(random_points(38, self.N_C, p=16))
        S = list(range(0, self.N_C, 4))
        peak = traced_peak_bytes(lambda: compute_weights(D, S))
        assert peak <= 1.25 * _SCORE_ENTRIES * 8

    def test_alignment_error_holds_two_matrices(self, traced_peak_bytes):
        proxies = proxy_set(random_points(32, 2 * self.N_C, p=16),
                            np.repeat([0, 1], self.N_C))
        coreset = select_all_classes(
            proxies, SelectionConfig(stop="fixed_size", k_per_class=self.N_C // 10))
        peak = traced_peak_bytes(lambda: alignment_error(proxies, coreset))
        assert peak <= 2.25 * self.MATRIX_BYTES

    def test_alignment_error_builds_no_distance_matrix(self, traced_peak_bytes,
                                                       monkeypatch):
        proxies = proxy_set(random_points(33, 2 * self.N_C, p=16),
                            np.repeat([0, 1], self.N_C))
        coreset = select_all_classes(
            proxies, SelectionConfig(stop="fixed_size", k_per_class=self.N_C // 10))

        def forbidden(points):
            raise AssertionError("alignment_error built a distance matrix")

        monkeypatch.setattr(coreaug.coreset, "pairwise_distances", forbidden)
        peak = traced_peak_bytes(lambda: alignment_error(proxies, coreset))
        assert peak <= 0.25 * self.MATRIX_BYTES


class TestGFrobenius:
    def test_full_set_is_zero(self):
        D = pairwise_distances(random_points(3, 6))
        assert g_frobenius(D, list(range(6))) == 0.0

    def test_empty_set_sentinel(self):
        """An empty selection leaves every row at the engines' sentinel c1."""
        D = pairwise_distances(random_points(5, 6))
        c1 = _GreedyState(D, SelectionConfig(stop="fixed_size", k_per_class=1)).c1
        assert g_frobenius(D, []) == math.sqrt(6) * c1

    def test_brute_force_oracle(self):
        D = pairwise_distances(random_points(4, 5))
        assert g_frobenius(D, [2]) == pytest.approx(brute_g(D, [2]))


def fl_optimum(D, k):
    """Exhaustive search over all k-subsets."""
    best = -math.inf
    for S in itertools.combinations(range(D.shape[0]), k):
        best = max(best, facility_location_objective(D, list(S)))
    return best


def min_cover_size(D, xi):
    """Smallest subset with coverage norm <= xi, by full enumeration."""
    n = D.shape[0]
    for size in range(1, n + 1):
        for S in itertools.combinations(range(n), size):
            if brute_g(D, list(S)) <= xi:
                return size
    return n


class TestGreedy:
    def test_all_identical_points(self):
        D = np.zeros((5, 5))
        res = greedy_select(D, SelectionConfig(stop="fixed_size", k_per_class=3))
        assert res.indices == [0]
        assert res.trace == [0.0]

    def test_k_exceeding_class_errors(self):
        D = pairwise_distances(random_points(5, 4))
        with pytest.raises(ValueError):
            greedy_select(D, SelectionConfig(stop="fixed_size", k_per_class=9))

    def test_fraction_of_one_selects_everything(self):
        D = pairwise_distances(random_points(6, 7))
        res = greedy_select(D, SelectionConfig(stop="fixed_size", fraction=1.0))
        assert sorted(res.indices) == list(range(7))
        assert res.trace[-1] == 0.0

    def test_facility_location_guarantee(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(5, 13))
            k = int(rng.integers(1, 5))
            D = pairwise_distances(rng.standard_normal((n, 3)))
            res = greedy_select(D, SelectionConfig(stop="fixed_size",
                                                   k_per_class=min(k, n)))
            achieved = facility_location_objective(D, res.indices[:k])
            opt = fl_optimum(D, min(k, n))
            assert achieved >= (1.0 - 1.0 / math.e) * opt - 1e-9

    def test_cover_log_approximation(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(5, 11))
            pts = rng.standard_normal((n, 2))
            D = pairwise_distances(pts)
            xi = 0.4 * brute_g(D, [0])
            res = greedy_select(D, SelectionConfig(stop="xi_threshold", xi=xi))
            assert res.trace[-1] <= xi
            opt = min_cover_size(D, xi)
            assert len(res.indices) <= (1.0 + math.log(n)) * opt + 1e-9

    def test_trace_strictly_decreasing(self):
        D = pairwise_distances(random_points(9, 20))
        res = greedy_select(D, SelectionConfig(stop="fixed_size", k_per_class=10))
        assert all(b < a for a, b in zip(res.trace, res.trace[1:]))


class TestLazyGreedy:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 150),
           grid=st.booleans(), stop=st.sampled_from(STOP_MODES))
    @settings(max_examples=60)
    def test_identical_to_naive(self, seed, n, grid, stop):
        """Same picks and trace as the naive scan, from no more scored rows,
        on random points and on integer grids full of exact ties."""
        points = integer_grid_points(seed, n) if grid else random_points(seed, n)
        D = pairwise_distances(points)
        rng = np.random.default_rng(seed)
        if stop == "fixed_size":
            cfg = SelectionConfig(stop=stop, k_per_class=int(rng.integers(1, n + 1)))
        else:
            cfg = SelectionConfig(stop=stop, xi=float(rng.uniform(0.05, 2.0)))
        naive = greedy_select(D, cfg)
        lazy = lazy_greedy_select(D, cfg)
        assert lazy.indices == naive.indices
        assert lazy.trace == naive.trace
        assert lazy.evaluations <= naive.evaluations

    def test_identical_under_xi_threshold(self):
        D = pairwise_distances(random_points(10, 40))
        cfg = SelectionConfig(stop="xi_threshold", xi=0.5)
        naive = greedy_select(D, cfg)
        lazy = lazy_greedy_select(D, cfg)
        assert lazy.indices == naive.indices
        assert lazy.trace == naive.trace

    @pytest.mark.parametrize("name", ENGINE_INPUTS)
    @pytest.mark.parametrize("stop", STOP_MODES)
    def test_identical_across_blocks_and_ties(self, name, stop):
        D = pairwise_distances(ENGINE_INPUTS[name]())
        assert D.shape[0] > _SCORE_BLOCK
        if stop == "fixed_size":
            cfg = SelectionConfig(stop=stop, k_per_class=D.shape[0] // 10)
        else:
            cfg = SelectionConfig(stop=stop, xi=0.5)
        naive = greedy_select(D, cfg)
        lazy = lazy_greedy_select(D, cfg)
        assert lazy.indices == naive.indices
        assert lazy.trace == naive.trace

    def test_single_element_class(self):
        D = np.zeros((1, 1))
        res = lazy_greedy_select(D, SelectionConfig(stop="fixed_size", k_per_class=1))
        assert res.indices == [0]

    def test_top_block_scores_fewer_rows_than_single_top(self):
        """Rescoring a block of the largest stale gains first bounds the rest
        by a better fresh gain than the single largest stale gain does."""
        D = pairwise_distances(ENGINE_INPUTS["random_600"]())
        cfg = SelectionConfig(stop="fixed_size", k_per_class=60)
        single = _GreedyState(D, cfg)
        margin = 1e-9 * single.q
        stale = np.full(single.n_c, np.inf)
        while not single.S or not single.done():
            top = np.argmax(stale, keepdims=True)
            fresh = single.score(top)[0]
            stale[top] = fresh
            ids = np.flatnonzero(stale + margin >= fresh)
            stale[ids] = single.select_best(ids)
            stale[single.S[-1]] = -np.inf
        lazy = lazy_greedy_select(D, cfg)
        assert lazy.indices == single.S
        assert lazy.evaluations < single.evaluations

    def test_fewer_evaluations_than_naive(self):
        D = pairwise_distances(random_points(11, 150))
        cfg = SelectionConfig(stop="fixed_size", k_per_class=20)
        naive = greedy_select(D, cfg)
        lazy = lazy_greedy_select(D, cfg)
        assert lazy.evaluations <= naive.evaluations

    # (seed, n_c, dims, k) -> (evaluations, first picks, SHA-256 prefix of the
    # int64 picks followed by the float64 trace); a faster lazy step must keep
    # all three, evaluation counts included
    PINNED = {
        (50, 200, 8, 20): (969, [176, 43, 159, 14, 160, 54, 7, 129],
                           "cf6c26d798d58d6c"),
        (51, 1000, 16, 100): (6165, [593, 744, 723, 957, 772, 405, 64, 540],
                              "2ea09f59424043e2"),
    }

    @pytest.mark.parametrize("case", PINNED)
    def test_pinned_picks_and_evaluations(self, case):
        seed, n, dims, k = case
        evaluations, first, digest = self.PINNED[case]
        res = lazy_greedy_select(pairwise_distances(random_points(seed, n, p=dims)),
                                 SelectionConfig(stop="fixed_size", k_per_class=k))
        assert res.evaluations == evaluations
        assert res.indices[:len(first)] == first
        assert len(res.indices) == k
        raw = np.asarray(res.indices, np.int64).tobytes() + np.asarray(res.trace).tobytes()
        assert hashlib.sha256(raw).hexdigest()[:16] == digest

    def test_ties_between_top_block_and_rest_go_to_smallest_index(self, monkeypatch):
        """Duplicated rows give exactly equal gains; when the best gain of the
        top block equals the best of the rest, the smaller index is picked,
        whichever set holds it."""
        scored = []
        score = _GreedyState.score

        def recording(state, ids):
            gains, nq = score(state, ids)
            scored.append((len(state.S), ids.copy(), gains.copy()))
            return gains, nq

        monkeypatch.setattr(_GreedyState, "score", recording)
        winners = {"top": 0, "rest": 0}
        for seed in range(12):
            D = pairwise_distances(integer_grid_points(100 + seed, 120))
            cfg = SelectionConfig(stop="fixed_size", k_per_class=12)
            naive = greedy_select(D, cfg)
            scored.clear()
            lazy = lazy_greedy_select(D, cfg)
            steps: dict[int, list] = {}
            for step, ids, gains in scored:
                steps.setdefault(step, []).append((ids, gains))
            for step, sets in steps.items():
                if len(sets) < 2 or sets[1][0].size == 0:
                    continue
                (top, g_top), (rest, g_rest) = sets
                if g_top.max() != g_rest.max():
                    continue
                tied = np.concatenate([top[g_top == g_top.max()],
                                       rest[g_rest == g_rest.max()]])
                assert lazy.indices[step] == tied.min()
                winners["top" if tied.min() in top else "rest"] += 1
            assert lazy.indices == naive.indices
            assert lazy.trace == naive.trace
        assert winners["top"] > 0 and winners["rest"] > 0


class TestBatchedScoring:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 600, 1000])
    def test_row_reduction_matches_column_reduction(self, n):
        """The batched row sums equal the 1-D single-column sums bit for bit; a
        numpy change of summation order would break engine equivalence."""
        rng = np.random.default_rng(n)
        D = pairwise_distances(rng.standard_normal((n, 5)))
        D2 = D * D
        dmin2 = D2[:, rng.integers(0, n, size=3)].min(axis=1)
        batched = np.minimum(dmin2, np.square(D)).sum(axis=1)
        single = [float(np.minimum(dmin2, D2[:, s]).sum()) for s in range(n)]
        assert batched.tolist() == single

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_square_of_minimum_is_minimum_of_squares(self):
        """The engines clip rows of D at the coverage and then square, where
        the squared distances used to be clipped: x -> fl(x^2) is monotone on
        x >= 0, so both give the same bits, also at exact ties, at zero, and
        where the squares underflow (below ~1e-154) or overflow."""
        rng = np.random.default_rng(7)
        tiny = np.geomspace(1e-160, 1e-150, 2000)
        values = np.concatenate([
            tiny, rng.permutation(tiny), rng.random(2000) * 10.0,
            np.zeros(100), np.geomspace(1e150, 1e160, 100), [1.0, 2.5, 3.0]])
        D = rng.choice(values, size=(60, values.size))
        D[:, ::3] = values[::3]  # exact ties with dmin
        dmin = values
        assert (np.square(np.minimum(D, dmin)).tobytes()
                == np.minimum(np.square(D), np.square(dmin)).tobytes())

    def test_state_scores_match_column_reduction(self):
        D = pairwise_distances(random_points(21, 600, p=4))
        state = _GreedyState(D, SelectionConfig(stop="fixed_size", k_per_class=10))
        for _ in range(3):
            state.select_best(np.flatnonzero(state.remaining))
        ids = np.flatnonzero(state.remaining)
        gains, nq = state.score(ids)
        D2 = D * D
        dmin2 = np.square(state.dmin)
        single = [float(np.minimum(dmin2, D2[:, s]).sum()) for s in ids]
        assert nq.tolist() == single
        assert gains.tolist() == [state.q - v for v in single]
        assert state.evaluations == 600 + 599 + 598 + ids.size


class TestStochasticGreedy:
    def test_full_sampling_degenerates_to_naive(self):
        D = pairwise_distances(random_points(12, 25))
        cfg_s = SelectionConfig(stop="fixed_size", k_per_class=6,
                                engine="stochastic", stochastic_sample=25, seed=3)
        cfg_n = SelectionConfig(stop="fixed_size", k_per_class=6)
        assert stochastic_greedy_select(D, cfg_s).indices == greedy_select(D, cfg_n).indices

    @pytest.mark.parametrize("name", ENGINE_INPUTS)
    def test_full_sampling_matches_naive_across_blocks_and_ties(self, name):
        D = pairwise_distances(ENGINE_INPUTS[name]())
        n = D.shape[0]
        cfg_s = SelectionConfig(stop="fixed_size", k_per_class=n // 10,
                                engine="stochastic", stochastic_sample=n, seed=3)
        cfg_n = SelectionConfig(stop="fixed_size", k_per_class=n // 10)
        stochastic = stochastic_greedy_select(D, cfg_s)
        naive = greedy_select(D, cfg_n)
        assert stochastic.indices == naive.indices
        assert stochastic.trace == naive.trace

    def test_seed_determinism(self):
        D = pairwise_distances(random_points(13, 40))
        cfg = SelectionConfig(stop="fixed_size", k_per_class=8,
                              engine="stochastic", stochastic_sample=5, seed=11)
        a = stochastic_greedy_select(D, cfg)
        b = stochastic_greedy_select(D, cfg)
        assert a.indices == b.indices and a.trace == b.trace

    def test_objective_close_to_naive(self):
        D = pairwise_distances(random_points(14, 120, p=4))
        cfg_n = SelectionConfig(stop="fixed_size", k_per_class=12)
        naive_obj = facility_location_objective(D, greedy_select(D, cfg_n).indices)
        objs = []
        for seed in range(10):
            cfg = SelectionConfig(stop="fixed_size", k_per_class=12,
                                  engine="stochastic", seed=seed)
            objs.append(facility_location_objective(
                D, stochastic_greedy_select(D, cfg).indices))
        assert np.mean(objs) >= 0.95 * naive_obj


class TestWeights:
    def test_all_points_selected(self):
        D = pairwise_distances(random_points(15, 8))
        gamma = compute_weights(D, list(range(8)))
        assert np.array_equal(gamma, np.ones(8, dtype=int))

    def test_single_medoid(self):
        D = pairwise_distances(random_points(16, 7))
        assert np.array_equal(compute_weights(D, [4]), [7])

    def test_brute_force_assignment(self):
        D = pairwise_distances(random_points(17, 15))
        S = [2, 9, 13]
        gamma = compute_weights(D, S)
        counts = {j: 0 for j in S}
        for i in range(15):
            best = min(S, key=lambda j: (D[i, j], j))
            counts[best] += 1
        assert list(gamma) == [counts[j] for j in S]

    def test_tie_goes_to_smallest_selected_index(self):
        # point 0 is equidistant from the two selected points
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        D = pairwise_distances(pts)
        gamma = compute_weights(D, [2, 1])
        # order follows S: index 2 then index 1; point 0 ties -> index 1 wins
        assert list(gamma) == [1, 2]

    @pytest.mark.parametrize("entries", [1, 7, 40, 64_000])
    @pytest.mark.parametrize("points", ["random", "integer_grid"])
    def test_blocked_assignment_equals_one_gather(self, points, entries, monkeypatch):
        """Counting one block of rows at a time gives the counts of one
        argmin over the whole n_c x k gather, ties to the smallest selected
        index, whatever the block height (1, 1, 5 and all 150 rows)."""
        pts = (random_points(39, 150) if points == "random"
               else integer_grid_points(39, 150))
        D = pairwise_distances(pts)
        S = [int(s) for s in np.random.default_rng(40).permutation(150)[:8]]
        cols = np.sort(S)
        ref = np.bincount(np.argmin(np.take(D, cols, axis=1), axis=1),
                          minlength=cols.size)[np.searchsorted(cols, S)]
        monkeypatch.setattr(coreaug.coreset, "_SCORE_BLOCK", 1)
        monkeypatch.setattr(coreaug.coreset, "_SCORE_ENTRIES", entries)
        assert np.array_equal(compute_weights(D, S), ref)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30)
    def test_weight_conservation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        k = int(rng.integers(1, n + 1))
        D = pairwise_distances(rng.standard_normal((n, 2)))
        S = list(rng.choice(n, size=k, replace=False))
        gamma = compute_weights(D, S)
        assert gamma.sum() == n


# Every function that takes a distance matrix, called on D and the first two
# points.
TAKES_D = {
    **_ENGINE_FNS,
    "compute_weights": lambda D, config: compute_weights(D, [0, 1]),
    "g_frobenius": lambda D, config: g_frobenius(D, [0, 1]),
    "facility_location": lambda D, config: facility_location_objective(D, [0, 1]),
}


class TestNonFiniteDistances:
    """Engines and weights reject D with NaN or infinities using reductions,
    not an n_c^2 scan; finite proxies whose distances overflow are a
    numerical failure of the class that holds them."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", TAKES_D)
    @pytest.mark.parametrize("where", [(0, 0), (7, 19), (29, 28)])
    def test_rejects_non_finite_entries(self, name, bad, where):
        D = pairwise_distances(random_points(40, 30))
        D[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            TAKES_D[name](D, SelectionConfig(stop="fixed_size", k_per_class=3))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("engine", ENGINES)
    def test_rejects_overflowing_squared_coverage(self, engine):
        D = np.array([[0.0, 1e154], [1e154, 0.0]])
        with pytest.raises(ValueError, match="overflows"):
            _ENGINE_FNS[engine](D, SelectionConfig(stop="fixed_size", k_per_class=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("huge", [
        random_points(41, 10) * 1e160,      # the distances themselves overflow
        np.array([[0.0], [1e154]] * 5),     # finite distances, squares overflow
    ], ids=["non_finite", "squares"])
    def test_overflowing_proxies_are_a_numerical_failure(self, huge):
        pts = np.concatenate([random_points(42, 10, p=huge.shape[1]), huge])
        proxies = proxy_set(pts, np.repeat([0, 1], 10))
        with pytest.raises(NumericalError, match="class 1: .*overflow"):
            select_all_classes(proxies, SelectionConfig(stop="fixed_size", k_per_class=2))


class TestSelectAllClasses:
    def test_fraction_one_is_whole_dataset(self):
        pts = random_points(18, 12)
        labels = np.array([0, 1, 2] * 4)
        proxies = proxy_set(pts, labels)
        coreset = select_all_classes(proxies, SelectionConfig(fraction=1.0))
        assert sorted(coreset.indices.tolist()) == list(range(12))
        assert np.array_equal(coreset.gamma, np.ones(12, dtype=int))

    def test_balanced_classes_equal_share(self):
        pts = random_points(19, 30)
        labels = np.repeat([0, 1, 2], 10)
        coreset = select_all_classes(proxy_set(pts, labels),
                                     SelectionConfig(fraction=0.1))
        sizes = [len(c.indices) for c in coreset.classes]
        assert sizes == [1, 1, 1]

    def test_matches_independent_engine_runs(self):
        pts = random_points(20, 24)
        labels = np.repeat([0, 1], 12)
        proxies = proxy_set(pts, labels)
        cfg = SelectionConfig(stop="fixed_size", k_per_class=4, engine="naive")
        coreset = select_all_classes(proxies, cfg)
        for c in coreset.classes:
            idx = np.flatnonzero(labels == c.label)
            res = greedy_select(pairwise_distances(pts[idx]), cfg)
            assert [idx[i] for i in res.indices] == c.indices
            assert res.trace == c.trace

    def test_empty_class_warns(self):
        pts = random_points(21, 6)
        labels = np.array([0, 2, 0, 2, 0, 2])
        coreset = select_all_classes(
            GradientProxySet(pts, labels, 3),
            SelectionConfig(fraction=0.5))
        assert [c.label for c in coreset.classes] == [0, 2]

    def test_validate_passes_on_engine_output(self):
        pts = random_points(22, 40)
        labels = np.repeat([0, 1], 20)
        coreset = select_all_classes(proxy_set(pts, labels), SelectionConfig(fraction=0.3))
        coreset.validate({0: 20, 1: 20})

    def test_rho_is_gamma_over_r(self):
        """Each of a pick's r augmented copies weighs gamma / r in the
        coreset's JSON."""
        labels = np.repeat([0, 1, 2], 10)
        coreset = select_all_classes(proxy_set(random_points(24, 30), labels),
                                     SelectionConfig(fraction=0.3))
        for c, entry in zip(coreset.classes, coreset.to_json_dict(3)["classes"]):
            assert entry["rho"] == (c.gamma / 3).tolist()

    def test_zero_copies_rejected(self):
        with pytest.raises(ValueError, match="r must be >= 1, got 0"):
            TransformSpec(r=0)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("stop", STOP_MODES)
    @pytest.mark.parametrize("points", [
        lambda: random_points(40, 300, p=4),
        lambda: integer_grid_points(41, 200),
        lambda: np.ones((7, 3)),
        lambda: random_points(42, 1),
    ], ids=["random", "integer_grid", "identical", "single"])
    def test_coverage_norm_is_the_last_trace_value(self, engine, stop, points):
        """Each class's reported coverage norm equals the norm of its
        selection recomputed from the distance matrix, bit for bit."""
        pts = points()
        labels = np.arange(pts.shape[0]) % 2
        cfg = SelectionConfig(stop=stop, xi=0.5 if stop == "xi_threshold" else None,
                              fraction=0.1, engine=engine, seed=5)
        coreset = select_all_classes(proxy_set(pts, labels), cfg)
        for c in coreset.classes:
            idx = np.flatnonzero(labels == c.label)
            D = pairwise_distances(pts[idx])
            local = list(np.searchsorted(idx, c.indices))
            assert c.g_frobenius == g_frobenius(D, local)

    def test_json_schema(self):
        pts = random_points(23, 10)
        labels = np.repeat([0, 1], 5)
        coreset = select_all_classes(proxy_set(pts, labels), SelectionConfig(fraction=0.4))
        payload = coreset.to_json_dict(2)
        assert set(payload) == {"classes", "engine", "seed"}
        for entry in payload["classes"]:
            assert set(entry) == {"class", "indices", "gamma", "rho",
                                  "g_frobenius", "trace"}
            assert len(entry["indices"]) == len(entry["gamma"]) == len(entry["rho"])


class TestBaselines:
    def test_max_loss_tie_rule(self):
        losses = np.ones(8)
        labels = np.repeat([0, 1], 4)
        subset = max_loss_subset(losses, 2, labels)
        assert np.array_equal(subset.indices, [0, 1, 4, 5])

    def test_max_loss_outlier_always_included(self):
        losses = np.array([0.1, 0.2, 9.0, 0.3, 0.1, 0.2])
        labels = np.zeros(6, dtype=int)
        for k in range(1, 6):
            assert 2 in max_loss_subset(losses, k, labels).indices

    def test_max_loss_sort_oracle(self):
        rng = np.random.default_rng(24)
        losses = rng.uniform(size=20)
        labels = rng.integers(0, 2, 20)
        subset = max_loss_subset(losses, 3, labels)
        for label in (0, 1):
            idx = np.flatnonzero(labels == label)
            expected = sorted(idx, key=lambda i: (-losses[i], i))[:3]
            picked = subset.indices[labels[subset.indices] == label]
            assert list(picked) == expected

    def test_random_subset_full_class(self):
        labels = np.repeat([0, 1], 6)
        subset = random_subset(6, labels, seed=0)
        assert sorted(subset.indices.tolist()) == list(range(12))
        assert np.allclose(subset.weights, 1.0)

    def test_random_subset_repeatable(self):
        labels = np.repeat([0, 1, 2], 10)
        a = random_subset(3, labels, seed=42)
        b = random_subset(3, labels, seed=42)
        assert np.array_equal(a.indices, b.indices)

    def test_random_subset_uniform_frequencies(self):
        labels = np.zeros(10, dtype=int)
        counts = np.zeros(10)
        draws = 10_000
        for seed in range(draws):
            counts[random_subset(3, labels, seed=seed).indices] += 1
        p = 3 / 10
        sigma = math.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * sigma)

    def test_k_too_large_errors(self):
        with pytest.raises(ValueError):
            random_subset(5, np.zeros(4, dtype=int), seed=0)


class TestAlignmentError:
    def test_full_selection_zero_error(self):
        pts = random_points(25, 9)
        labels = np.repeat([0, 1, 2], 3)
        proxies = proxy_set(pts, labels)
        coreset = select_all_classes(proxies, SelectionConfig(fraction=1.0))
        report = alignment_error(proxies, coreset)
        assert report.error_total == pytest.approx(0.0, abs=1e-9)
        assert report.error_total <= report.bound_total + 1e-9

    def test_duplicated_dataset_exact(self):
        base = random_points(26, 5)
        pts = np.vstack([base, base])
        labels = np.zeros(10, dtype=int)
        proxies = proxy_set(pts, labels)
        coreset = select_all_classes(proxies, SelectionConfig(stop="fixed_size",
                                                              k_per_class=5))
        report = alignment_error(proxies, coreset)
        assert np.array_equal(np.sort(coreset.gamma), [2, 2, 2, 2, 2])
        assert report.error_total == pytest.approx(0.0, abs=1e-9)

    @given(seed=st.integers(0, 400))
    @settings(max_examples=50)
    def test_bound_dominates_error(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        pts = rng.standard_normal((n, 4))
        labels = np.zeros(n, dtype=int)
        proxies = proxy_set(pts, labels)
        k = int(rng.integers(1, n + 1))
        coreset = select_all_classes(proxies,
                                     SelectionConfig(stop="fixed_size", k_per_class=k))
        report = alignment_error(proxies, coreset)
        assert report.error_total <= report.bound_total + 1e-9


class TestMonotoneCoverage:
    @given(seed=st.integers(0, 400))
    @settings(max_examples=40)
    def test_coverage_norm_nonincreasing_along_chains(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 25))
        D = pairwise_distances(rng.standard_normal((n, 3)))
        order = list(rng.permutation(n))
        prev = g_frobenius(D, [])
        for size in range(1, n + 1):
            cur = g_frobenius(D, order[:size])
            assert cur <= prev + 1e-12
            prev = cur

    @given(seed=st.integers(0, 300))
    @settings(max_examples=30)
    def test_squared_coverage_gains_nonincreasing_along_greedy_path(self, seed):
        # greedy maximizes these gains, so its own gain sequence is sorted
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        D = pairwise_distances(rng.standard_normal((n, 3)))
        c1 = 2.0 * float(D.max())
        res = greedy_select(D, SelectionConfig(stop="fixed_size", k_per_class=n))
        q_values = [n * c1 * c1] + [t * t for t in res.trace]
        gains = -np.diff(q_values)
        assert np.all(np.diff(gains) <= 1e-9 * q_values[0])

    @given(seed=st.integers(0, 300))
    @settings(max_examples=30)
    def test_fl_surrogate_is_submodular(self, seed):
        # gain of a fixed element never grows as the base set grows
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 25))
        D = pairwise_distances(rng.standard_normal((n, 3)))
        perm = list(rng.permutation(n))
        small = perm[:int(rng.integers(1, n - 1))]
        big = perm[:int(rng.integers(len(small), n - 1)) + 1]
        e = perm[-1]
        gain_small = (facility_location_objective(D, small + [e])
                      - facility_location_objective(D, small))
        gain_big = (facility_location_objective(D, big + [e])
                    - facility_location_objective(D, big))
        assert gain_big <= gain_small + 1e-9


class TestNtkBound:
    def test_full_selection_cauchy_schwarz(self):
        """Selecting every row at weight 1 leaves no alignment error, so the
        bound's right side is the full gradient norm over the residual norm."""
        rng = np.random.default_rng(27)
        data = Dataset(rng.uniform(0, 1, (10, 4)), rng.integers(0, 2, 10), 2)
        net = MLP.init([4, 5, 2], seed=1)
        proxies = gradient_proxy(net, data, "last_layer")
        coreset = select_all_classes(proxies, SelectionConfig(fraction=1.0))
        assert np.all(coreset.gamma == 1)
        verdict = coreset_ntk_bound_check(net, data, coreset)
        full_norm = np.linalg.norm(per_example_gradients(net, data).sum(axis=0))
        assert verdict.rhs == pytest.approx(full_norm / np.linalg.norm(residuals(net, data)),
                                            rel=1e-9)
        assert verdict.passed

    def test_zero_residual(self):
        net = zero_mlp([3, 2])
        net.biases[-1][:] = [1.0, 0.0]
        rng = np.random.default_rng(28)
        data = Dataset(rng.uniform(0, 1, (6, 3)), np.zeros(6, dtype=int), 2)
        proxies = gradient_proxy(net, data, "residual")
        coreset = select_all_classes(proxies, SelectionConfig(stop="fixed_size",
                                                              k_per_class=2))
        verdict = coreset_ntk_bound_check(net, data, coreset)
        assert verdict.passed

    def test_random_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(8, 30))
            d = int(rng.integers(3, 6))
            data = Dataset(rng.uniform(0, 1, (n, d)), rng.integers(0, 2, n), 2)
            net = MLP.init([d, 6, 2], seed=int(rng.integers(1 << 20)))
            proxies = gradient_proxy(net, data, "last_layer")
            coreset = select_all_classes(
                proxies, SelectionConfig(stop="fixed_size", k_per_class=2))
            assert coreset_ntk_bound_check(net, data, coreset).passed
