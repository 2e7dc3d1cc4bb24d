import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coreaug.augment import TransformSpec, perturb
from coreaug.linalg import frobenius_norm, spectral_norm
from coreaug.model import MLP, jacobian

ALL_KINDS = ("uniform_ball", "gaussian_clipped", "pixel_jitter")


def source_rows(seed=0, k=10, d=8):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (k, d))


class TestPerturb:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("r", [1, 3])
    def test_zero_budget_is_identity(self, kind, r):
        """At a zero budget every copy is its source row, byte for byte, in
        every round: the box's corners included."""
        X = source_rows(1)
        X[0, :2] = [0.0, 1.0]
        for rnd in range(4):
            out = perturb(TransformSpec(kind=kind, epsilon0=0.0, r=r, seed=5 + rnd), X, rnd)
            assert out.features.tobytes() == np.repeat(X, r, axis=0).tobytes()

    def test_copy_major_origin(self):
        """Row i*r + c copies source i: each output row lies nearest its
        source."""
        X = source_rows(2, k=3, d=4)
        out = perturb(TransformSpec(epsilon0=0.05, r=2, seed=0), X, 0)
        assert out.features.shape == (6, 4)
        dists = np.linalg.norm(out.features[:, None, :] - X[None, :, :], axis=2)
        assert np.array_equal(np.argmin(dists, axis=1), [0, 0, 1, 1, 2, 2])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_budget_audit_1000_draws(self, kind):
        eps = 16.0 / 255.0
        X = source_rows(3, k=50, d=12)
        worst = 0.0
        for rnd in range(20):
            out = perturb(TransformSpec(kind=kind, epsilon0=eps, r=1, seed=9), X, rnd)
            dists = np.linalg.norm(out.features - X, axis=1)
            worst = max(worst, float(dists.max()))
        assert worst <= eps + 1e-12

    def test_entries_stay_in_unit_box(self):
        X = np.clip(source_rows(4, k=30, d=6) * 1.4 - 0.2, 0.0, 1.0)
        out = perturb(TransformSpec(epsilon0=0.5, r=2, seed=1), X, 0)
        assert out.features.min() >= 0.0 and out.features.max() <= 1.0

    def test_deterministic(self):
        X = source_rows(6)
        spec = TransformSpec(kind="pixel_jitter", epsilon0=0.2, r=2, seed=3)
        a = perturb(spec, X, round_index=4)
        b = perturb(spec, X.copy(), round_index=4)
        assert np.array_equal(a.features, b.features)

    def test_rounds_differ(self):
        X = source_rows(7)
        spec = TransformSpec(epsilon0=0.1, r=1, seed=4)
        a = perturb(spec, X, round_index=0)
        b = perturb(spec, X, round_index=1)
        assert not np.array_equal(a.features, b.features)

    def test_rejects_out_of_range_sources(self):
        with pytest.raises(ValueError):
            perturb(TransformSpec(), np.array([[1.5, 0.0]]), 0)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30)
    def test_budget_invariant_random(self, seed):
        X = source_rows(seed, k=8, d=5)
        spec = TransformSpec(kind=ALL_KINDS[seed % 3], epsilon0=0.07, r=2, seed=seed)
        out = perturb(spec, X, round_index=seed % 7)
        dists = np.linalg.norm(out.features - np.repeat(X, 2, axis=0), axis=1)
        assert float(dists.max()) <= 0.07 + 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_largest_budget_moves_every_row(self, kind):
        """At the top of the budget range every row moves, with no overflow
        warning. Each displacement dwarfs the unit box, so every coordinate
        it touches lands on 0 or 1."""
        X = source_rows(8, k=10, d=8)
        out = perturb(TransformSpec(kind=kind, epsilon0=1e150, r=2, seed=6), X, 0).features
        moved = out != np.repeat(X, 2, axis=0)
        assert moved.any(axis=1).all()
        assert np.isin(out[moved], (0.0, 1.0)).all()


class TestSpecValidation:
    def test_negative_budget(self):
        with pytest.raises(ValueError):
            TransformSpec(epsilon0=-0.1)

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_non_finite_budget(self, eps):
        with pytest.raises(ValueError, match="epsilon0 must be finite, got"):
            TransformSpec(epsilon0=eps)

    @pytest.mark.parametrize("eps", [1.0000001e150, 1e160, 1e300, np.finfo(np.float64).max])
    def test_budget_above_range(self, eps):
        with pytest.raises(ValueError, match=r"epsilon0 must lie in \[0, 1e150\], got"):
            TransformSpec(epsilon0=eps)

    def test_zero_copies(self):
        with pytest.raises(ValueError):
            TransformSpec(r=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TransformSpec(kind="rotate")


def shift_matrix(net, X, X_aug):
    """The derivative-matrix shift E = J(augmented rows) - J(source rows) of
    a one-copy augmentation round."""
    return jacobian(net, X_aug) - jacobian(net, X)


class TestPerturbationMatrix:
    def test_zero_budget_zero_shift(self):
        X = source_rows(8, k=6, d=4)
        net = MLP.init([4, 5, 2], seed=0)
        out = perturb(TransformSpec(epsilon0=0.0, r=1, seed=0), X, 0)
        E = shift_matrix(net, X, out.features)
        assert spectral_norm(E) == 0.0 and frobenius_norm(E) == 0.0

    def test_linear_model_closed_form(self):
        # a single linear layer: row i*C+c of the shift holds the input
        # displacement at the W[:, c] positions and zero at the bias slot
        d, C = 4, 2
        net = MLP.init([d, C], seed=1)
        X = source_rows(9, k=5, d=d)
        out = perturb(TransformSpec(epsilon0=0.1, r=1, seed=1), X, 0)
        delta = out.features - X
        E = shift_matrix(net, X, out.features)
        expected = np.zeros((5 * C, net.num_params))
        for i in range(5):
            for c in range(C):
                for j in range(d):
                    expected[i * C + c, j * C + c] = delta[i, j]
        assert E == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        # E pairs each source row with one copy; a two-copy round has none
        net = MLP.init([4, 2], seed=0)
        X = source_rows(10, k=5, d=4)
        out = perturb(TransformSpec(epsilon0=0.1, r=2, seed=0), X, 0)
        with pytest.raises(ValueError):
            shift_matrix(net, X, out.features)

    def test_frobenius_bound_with_exact_lipschitz(self):
        # a linear net's derivative has the exact input-Lipschitz constant
        # sqrt(C), so each of the n rows, moved at most eps, adds at most
        # C eps^2 to ||E||_F^2
        eps = 16.0 / 255.0
        X = np.random.default_rng(11).uniform(0.0, 1.0, (20, 6))
        net = MLP.init([6, 2], seed=2)
        spec = TransformSpec(kind="uniform_ball", epsilon0=eps, r=1, seed=5)
        for rnd in range(20):
            out = perturb(spec, X, round_index=rnd)
            assert frobenius_norm(shift_matrix(net, X, out.features)) <= np.sqrt(20 * 2) * eps

    def test_larger_budget_larger_shift(self):
        X = source_rows(12, k=15, d=6)
        net = MLP.init([6, 8, 3], activation="tanh", seed=3)
        norms = []
        for eps in (8.0 / 255.0, 16.0 / 255.0):
            out = perturb(TransformSpec(epsilon0=eps, r=1, seed=7), X, 0)
            norms.append(frobenius_norm(shift_matrix(net, X, out.features)))
        assert norms[1] >= norms[0]
