import numpy as np
import pytest
from hypothesis import given, strategies as st

from coreaug.linalg import (
    NumericalError,
    as_matrix,
    frobenius_norm,
    principal_angles,
    singular_values,
    spectral_norm,
    svd,
)


def random_matrix(seed, rows, cols, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((rows, cols))


def assert_factorises(a, dec):
    """``a = U diag(sigma) V^T`` for some V with orthonormal columns: ``a``
    lies in the span of U, and the columns of ``a^T U`` (that is, sigma_j
    v_j) are orthogonal with norms sigma."""
    scale = max(np.linalg.norm(a), 1e-300)
    assert np.linalg.norm(a - dec.U @ (dec.U.T @ a)) <= 1e-7 * scale
    g = a.T @ dec.U
    assert np.linalg.norm(g.T @ g - np.diag(dec.sigma**2)) <= 1e-7 * scale**2


def orthonormal_columns(seed, rows, cols):
    q, _ = np.linalg.qr(random_matrix(seed, rows, cols))
    return q[:, :cols]


class TestSvd:
    def test_diagonal(self):
        dec = svd(np.diag([3.0, 2.0, 1.0]))
        assert np.array_equal(dec.sigma, [3.0, 2.0, 1.0])
        assert np.allclose(dec.U, np.eye(3))

    def test_zero_matrix(self):
        dec = svd(np.zeros((4, 3)))
        assert np.array_equal(dec.sigma, np.zeros(3))

    def test_reconstruction_random(self):
        a = random_matrix(0, 20, 10)
        assert_factorises(a, svd(a))

    def test_determinism(self):
        a = random_matrix(1, 12, 7)
        dec1 = svd(a)
        dec2 = svd(a.copy())
        assert np.array_equal(dec1.U, dec2.U)

    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 64), cols=st.integers(1, 64))
    def test_invariants_random(self, seed, rows, cols):
        a = random_matrix(seed, rows, cols, scale=float(1 + seed % 5))
        dec = svd(a)
        k = min(rows, cols)
        assert dec.sigma.shape == (k,)
        assert np.all(dec.sigma >= 0.0)
        assert np.all(np.diff(dec.sigma) <= 0.0)
        assert np.linalg.norm(dec.U.T @ dec.U - np.eye(k)) <= 1e-8
        assert_factorises(a, dec)

    def test_rejects_nan(self):
        bad = np.ones((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            svd(bad)

    def test_rejects_empty_and_1d(self):
        with pytest.raises(ValueError):
            svd(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            svd(np.zeros(5))


class TestSpectralNorm:
    def test_rank_one(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 4.0])
        a = np.outer(u, v)
        expected = np.linalg.norm(u) * np.linalg.norm(v)
        assert spectral_norm(a) == pytest.approx(expected, rel=1e-10)

    def test_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-12)

    def test_zero(self):
        assert spectral_norm(np.zeros((4, 6))) == 0.0

    def test_matches_svd(self):
        a = random_matrix(7, 15, 8)
        assert spectral_norm(a) == pytest.approx(svd(a).sigma[0], rel=1e-6)

    def test_adversarial_start_vector(self):
        # all-ones is an exact eigenvector of the smaller eigenvalue here
        gram_sqrt = np.linalg.cholesky(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        a = gram_sqrt.T
        assert spectral_norm(a) == pytest.approx(np.sqrt(3.0), rel=1e-8)

    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 30), cols=st.integers(1, 30))
    def test_never_exceeds_frobenius(self, seed, rows, cols):
        a = random_matrix(seed, rows, cols)
        assert spectral_norm(a) <= frobenius_norm(a) + 1e-12


@pytest.mark.parametrize("shape", [(1, 1), (15, 8), (8, 15), (40, 60), (180, 51)])
def test_singular_values_are_lapacks_bytes(shape):
    """``singular_values`` is NumPy's ``svd(A, compute_uv=False)`` byte for
    byte, and ``spectral_norm`` its first entry, which is
    ``np.linalg.norm(A, 2)``."""
    a = random_matrix(sum(shape), *shape)
    s = singular_values(a)
    assert s.tobytes() == np.linalg.svd(a, compute_uv=False).tobytes()
    assert np.float64(spectral_norm(a)).tobytes() == s[0].tobytes()
    assert np.float64(spectral_norm(a)).tobytes() == np.linalg.norm(a, 2).tobytes()


@pytest.mark.parametrize("routine", [svd, singular_values, spectral_norm])
def test_svd_nonconvergence_names_shape_and_norm(routine, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(NumericalError, match=r"^SVD did not converge for shape \(4, 3\) "
                                             r"\(input norm 3\.464e\+00\)$"):
        routine(np.ones((4, 3)))


class TestFrobenius:
    def test_identity(self):
        assert frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3.0))

    def test_all_ones(self):
        assert frobenius_norm(np.ones((2, 2))) == pytest.approx(2.0)

    @given(seed=st.integers(0, 10_000))
    def test_energy_identity(self, seed):
        a = random_matrix(seed, 12, 9)
        total = np.sqrt(np.sum(svd(a).sigma ** 2))
        assert frobenius_norm(a) == pytest.approx(total, rel=1e-8)


class TestPrincipalAngles:
    def test_identical_subspace(self):
        u = orthonormal_columns(0, 8, 3)
        assert np.allclose(principal_angles(u, u), 0.0, atol=1e-7)

    def test_orthogonal_vectors(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert principal_angles(e1, e2) == pytest.approx([np.pi / 2])

    def test_cross_gram_oracle(self):
        # oracle: angles from the eigenvalues of M^T M, an independent path
        u1 = orthonormal_columns(3, 10, 3)
        u2 = orthonormal_columns(4, 10, 3)
        m = u1.T @ u2
        eigvals = np.sort(np.linalg.eigvalsh(m.T @ m))[::-1]
        expected = np.sort(np.arccos(np.clip(np.sqrt(np.clip(eigvals, 0.0, None)), 0.0, 1.0)))
        assert principal_angles(u1, u2) == pytest.approx(expected, abs=1e-8)

    @given(seed=st.integers(0, 5_000))
    def test_symmetry(self, seed):
        u1 = orthonormal_columns(seed, 9, 3)
        u2 = orthonormal_columns(seed + 77_000, 9, 4)
        a12 = principal_angles(u1, u2)
        a21 = principal_angles(u2, u1)
        assert a12.shape == a21.shape == (3,)
        assert a12 == pytest.approx(a21, abs=1e-9)

    def test_requires_orthonormal(self):
        with pytest.raises(ValueError):
            principal_angles(np.ones((4, 2)), orthonormal_columns(0, 4, 2))

    def test_requires_equal_rows(self):
        with pytest.raises(ValueError):
            principal_angles(orthonormal_columns(0, 4, 2), orthonormal_columns(0, 5, 2))


def test_as_matrix_coerces_and_validates():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("pos", [(0, 0), (3, 1), (4, 2)], ids=["first", "middle", "last"])
def test_as_matrix_rejects_non_finite(bad, pos):
    m = random_matrix(5, 5, 3)
    m[pos] = bad
    with pytest.raises(ValueError, match="^M contains non-finite entries$"):
        as_matrix(m, "M")
    assert as_matrix(m, "M", finite=False) is m


def test_as_matrix_finite_check_builds_no_mask(traced_peak_bytes):
    """The finite check of a float64 matrix allocates no n x p temporary:
    an ``isfinite`` mask would take n * p bytes."""
    m = random_matrix(6, 2000, 99)
    peak = traced_peak_bytes(lambda: as_matrix(m, "M"))
    assert peak <= m.size // 8
