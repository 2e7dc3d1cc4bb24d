import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coreaug.spectrum
from coreaug.augment import TransformSpec, perturb
from coreaug.audits import _protocol_net_and_data, audit_weyl_augmentation
from coreaug.linalg import singular_values, spectral_norm, svd
from coreaug.model import MLP, Dataset, jacobian, one_hot
from coreaug.spectrum import (
    WEYL_TOL,
    augmented_jacobian,
    budget_spectra,
    eigengap,
    expected_shift_model_check,
    linear_transform_bound_check,
    linear_transform_sgd_envelope,
    residual_dynamics_check,
    singular_vector_bound_check,
    spectrum_report,
    weyl_check,
)


def random_matrix(seed, rows, cols, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal((rows, cols))


class TestEigengap:
    def test_includes_trailing_zero_sentinel(self):
        assert eigengap(np.array([5.0, 3.0, 2.5])) == pytest.approx(0.5)
        assert eigengap(np.array([5.0, 3.0, 0.4])) == pytest.approx(0.4)


class TestWeylCheck:
    def test_zero_perturbation(self):
        s = np.array([3.0, 1.0, 0.5])
        assert weyl_check(s, s, 0.0).passed

    def test_aligned_rank_one_equality(self):
        # shifting along the top singular pair moves sigma_1 by exactly c
        a = random_matrix(0, 8, 6)
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        c = 0.35
        e = c * np.outer(u[:, 0], vt[0])
        s_aug = np.linalg.svd(a + e, compute_uv=False)
        assert s_aug[0] - s[0] == pytest.approx(c, abs=1e-10)
        verdict = weyl_check(s, s_aug, c)
        assert verdict.passed
        assert verdict.max_violation == pytest.approx(0.0, abs=1e-9)

    def test_violation_detected(self):
        assert not weyl_check(np.array([1.0]), np.array([2.0]), 0.5).passed


class TestSpectrumReport:
    def test_identical_inputs(self):
        j = random_matrix(1, 40, 25)
        report = spectrum_report(j, j)
        assert report.e_norm2 == 0.0
        assert report.weyl.passed
        for b in report.bins:
            assert b.mean_delta_sigma == 0.0
            assert b.mean_angle_rad <= 1e-7

    def test_given_clean_decomposition_is_used_as_is(self):
        j = random_matrix(3, 40, 32)
        j_aug = j + 0.05 * random_matrix(4, 40, 32)
        given = spectrum_report(j, j_aug, clean=svd(j)).to_json_dict()
        assert given == spectrum_report(j, j_aug).to_json_dict()

    def test_budget_spectra_decomposes_the_clean_matrix_once(self, monkeypatch):
        X = np.random.default_rng(26).uniform(0, 1, (15, 4))
        net = MLP.init([4, 8, 3], activation="tanh", seed=6)
        shapes = []

        def counting_svd(A):
            shapes.append(np.shape(A))
            return svd(A)

        monkeypatch.setattr(coreaug.spectrum, "svd", counting_svd)
        budgets = (0.02, 0.05, 0.1)
        reports = list(budget_spectra(net, X, budgets, seed=2))
        assert len(shapes) == 1 + len(budgets)
        monkeypatch.undo()
        jac = jacobian(net, X)
        for eps, report in reports:
            x_aug = perturb(TransformSpec(epsilon0=eps, r=1, seed=2), X).features
            assert report.to_json_dict() == spectrum_report(
                jac, jacobian(net, x_aug)).to_json_dict()

    def test_scaling_preserves_vectors(self):
        j = random_matrix(2, 45, 30)
        report = spectrum_report(j, 2.0 * j)
        sigma_by_rank = np.sort(report.sigma_clean)
        pos = 0
        for b in report.bins:
            ids = sigma_by_rank[pos:pos + b.count]
            pos += b.count
            assert b.mean_delta_sigma == pytest.approx(float(ids.mean()), rel=1e-9)
            assert b.mean_angle_rad <= 1e-6

    def test_bin_partition_properties(self):
        for k_rows, k_cols in ((40, 33), (31, 60), (35, 35)):
            report = spectrum_report(random_matrix(3, k_rows, k_cols),
                                     random_matrix(4, k_rows, k_cols))
            counts = [b.count for b in report.bins]
            assert len(counts) == 30
            assert sum(counts) == min(k_rows, k_cols)
            assert max(counts) - min(counts) <= 1
            # remainder sits in the lowest bins
            assert sorted(counts, reverse=True) == counts

    def test_per_bin_delta_matches_independent_recomputation(self):
        j = random_matrix(5, 50, 36)
        e = 0.1 * random_matrix(6, 50, 36)
        report = spectrum_report(j, j + e)
        s_clean = np.sort(np.linalg.svd(j, compute_uv=False))
        s_aug = np.sort(np.linalg.svd(j + e, compute_uv=False))
        delta = s_aug - s_clean
        pos = 0
        for b in report.bins:
            expected = float(delta[pos:pos + b.count].mean())
            assert b.mean_delta_sigma == pytest.approx(expected, abs=1e-10)
            pos += b.count

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            spectrum_report(np.zeros((3, 3)) + 1, np.ones((4, 3)))

    def test_json_outputs(self):
        # 20 singular values: one per bin, and no empty bin to write as NaN
        report = spectrum_report(random_matrix(7, 35, 20),
                                 random_matrix(7, 35, 20) * 1.1)
        payload = report.to_json_dict()
        assert set(payload["weyl"]) == {"passed", "max_violation"}
        assert (payload["bottom_decile_relative_shift"],
                payload["top_decile_relative_shift"]) == report.decile_relative_shifts()
        assert payload["shape_reproduced"] == report.shape_reproduced
        assert len(payload["bins"]) == 20
        assert all(b["count"] >= 1 for b in payload["bins"])
        json.dumps(payload, allow_nan=False)


class TestAugmentedJacobian:
    def setup_method(self):
        rng = np.random.default_rng(25)
        self.X = rng.uniform(0, 1, (9, 4))
        self.net = MLP.init([4, 6, 3], seed=5)

    def counted(self, monkeypatch):
        """Count the ``jacobian`` and ``perturb`` calls made in ``spectrum``."""
        calls = {"jacobian": 0, "perturb": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in calls:
            monkeypatch.setattr(coreaug.spectrum, name,
                                counting(name, getattr(coreaug.spectrum, name)))
        return calls

    def test_zero_budget_reproduces_clean_matrix(self):
        spec = TransformSpec(epsilon0=0.0, r=3, seed=1)
        jac = jacobian(self.net, self.X)
        for rnd in range(4):
            assert augmented_jacobian(self.net, self.X, spec, rnd).tobytes() == jac.tobytes()

    def test_rounds_match_direct_computation(self):
        """Each round is one copy of the spec's stream at that round,
        whatever the spec's ``r``."""
        spec = TransformSpec(epsilon0=0.1, r=2, seed=1)
        one_copy = TransformSpec(epsilon0=0.1, r=1, seed=1)
        for rnd in [7, 3]:
            x_aug = perturb(one_copy, self.X, round_index=rnd).features
            assert (augmented_jacobian(self.net, self.X, spec, rnd).tobytes()
                    == jacobian(self.net, x_aug).tobytes())

    def test_builds_one_matrix_from_one_round(self, monkeypatch):
        calls = self.counted(monkeypatch)
        augmented_jacobian(self.net, self.X, TransformSpec(epsilon0=0.05, r=2, seed=3), 4)
        assert calls == {"jacobian": 1, "perturb": 1}

    def test_weyl_audit_matches_direct_computation(self):
        """Each round's singular values, ||J_aug - J||_2 and Weyl verdict,
        recomputed from ``perturb`` and the LAPACK door, give the audit's
        entry bit for bit."""
        rounds, seed = 3, 4
        net, data = _protocol_net_and_data(seed)
        one_copy = TransformSpec(kind="uniform_ball", epsilon0=16.0 / 255.0, r=1, seed=seed)
        jac = jacobian(net, data.features)
        sigma = singular_values(jac)
        shifts, violations = [], []
        for rnd in range(rounds):
            j_aug = jacobian(net, perturb(one_copy, data.features, round_index=rnd).features)
            e_norm = spectral_norm(j_aug - jac)
            shift = np.abs(singular_values(j_aug) - sigma)
            shifts.append(shift / e_norm)
            violations.append(float(shift.max() - e_norm))
        ratio = np.mean(shifts, axis=0)
        assert audit_weyl_augmentation(rounds, seed) == {
            "rounds": rounds,
            "violations": sum(v > WEYL_TOL for v in violations),
            "max_violation": max(violations),
            "shift_over_e_norm": {"median": float(np.median(ratio)),
                                  "max": float(ratio.max())},
            "passed": max(violations) <= WEYL_TOL}

    def test_budget_spectra_builds_each_matrix_when_asked(self, monkeypatch):
        """``budget_spectra`` is lazy: each report's derivative matrices are
        built when it is drawn, so timing each draw times its own work. A
        draw builds its own clean matrix and its augmented one; only the
        first also builds the clean matrix whose SVD all draws share."""
        calls = self.counted(monkeypatch)
        reports = budget_spectra(self.net, self.X, (0.02, 0.05), seed=2)
        assert calls == {"jacobian": 0, "perturb": 0}
        next(reports)
        assert calls == {"jacobian": 3, "perturb": 1}
        next(reports)
        assert calls == {"jacobian": 5, "perturb": 2}


class TestPeakMemory:
    """Traced peaks of the spectrum path in units of one stacked derivative
    matrix J (600 rows, a [16, 24, 3] tanh net: 1800 x 483). NumPy's LAPACK
    workspace is not traced; the outputs of each SVD are. No clean J may be
    alive beside an augmented one's SVD, and E is formed and dropped before
    either SVD runs."""

    def setup_method(self):
        self.X = np.random.default_rng(39).uniform(0, 1, (600, 16))
        self.net = MLP.init([16, 24, 3], activation="tanh", seed=39)
        self.J = jacobian(self.net, self.X)
        assert self.J.shape == (1800, 483)
        self.unit = self.J.nbytes

    def test_budget_spectra_holds_no_clean_matrix_beside_an_augmented_svd(
            self, traced_peak_bytes):
        """The peak, ~4.0, is the clean U, a clean J, J_aug and E while E's
        norms are taken. A clean J kept beside the augmented SVD would add
        the augmented U and V^T to the first three: ~4.27."""
        peak = traced_peak_bytes(
            lambda: list(budget_spectra(self.net, self.X, (0.02, 0.05))))
        assert peak <= 4.15 * self.unit

    def test_spectrum_report_drops_e_before_either_svd(self, traced_peak_bytes):
        spec = TransformSpec(epsilon0=0.05, r=1, seed=39)
        J_aug = augmented_jacobian(self.net, self.X, spec, 0)
        before = self.J.tobytes(), J_aug.tobytes()
        peak = traced_peak_bytes(lambda: spectrum_report(self.J, J_aug))
        assert peak <= 2.5 * self.unit
        assert (self.J.tobytes(), J_aug.tobytes()) == before


class TestExpectedShift:
    def test_half_probability_closed_form(self):
        sigma = np.array([2.0, 1.0])
        p = np.array([0.5, 0.5])
        report = expected_shift_model_check(sigma, p, e_norm=0.6, draws=5000, seed=0)
        assert report.predicted == pytest.approx(sigma**2 + 0.36 / 3.0)
        assert report.all_within_3se
        assert report.z.tobytes() == ((report.empirical - report.predicted)
                                      / report.standard_error).tobytes()

    def test_model_consistent_agreement(self):
        rng = np.random.default_rng(1)
        sigma = np.sort(rng.uniform(0.5, 4.0, size=10))[::-1]
        p = rng.uniform(0.0, 1.0, size=10)
        report = expected_shift_model_check(sigma, p, e_norm=0.8, draws=2000, seed=2)
        assert report.all_within_3se

    def test_draw_minimum_enforced(self):
        with pytest.raises(ValueError, match=r"^draws must be >= 100, got 10$"):
            expected_shift_model_check(np.array([1.0]), np.array([0.5]), 0.1, draws=10)


class TestSingularVectorBound:
    def test_zero_perturbation(self):
        j = random_matrix(14, 8, 12)
        report = singular_vector_bound_check(j, np.zeros_like(j))
        assert not report.skipped
        assert np.all(report.deviations <= 1e-8)

    def test_tiny_perturbation_large_margin(self):
        j = random_matrix(15, 8, 12)
        gap = eigengap(np.linalg.svd(j, compute_uv=False))
        e = random_matrix(16, 8, 12)
        e *= 1e-6 * gap / np.linalg.norm(e, 2)
        report = singular_vector_bound_check(j, e)
        assert report.passed
        assert np.max(report.deviations) <= 0.1 * report.bound

    def test_gap_condition_unmet_is_skipped(self):
        j = random_matrix(17, 8, 12)
        gap = eigengap(np.linalg.svd(j, compute_uv=False))
        e = random_matrix(18, 8, 12)
        e *= 2.0 * gap / np.linalg.norm(e, 2)
        report = singular_vector_bound_check(j, e)
        assert report.skipped
        assert gap < 2.0 * spectral_norm(e)
        assert not report.passed


class TestResidualDynamics:
    def test_linear_model_exact(self):
        rng = np.random.default_rng(20)
        data = Dataset(rng.uniform(0, 1, (12, 5)), rng.integers(0, 2, 12), 2)
        report = residual_dynamics_check(MLP.init([5, 2], seed=3), data, steps=30)
        assert report.max_relative_deviation <= 1e-8

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_descent_residuals_match_public_step_and_forward(self, activation):
        """Each yielded residual, taken from the same trace as the step's
        gradient, equals a public ``weighted_gradient_step`` followed by a
        separate ``forward`` bit for bit; the input net is left untouched."""
        from coreaug.model import forward
        from coreaug.trainer import weighted_gradient_step

        rng = np.random.default_rng(22)
        data = Dataset(rng.uniform(0, 1, (15, 4)), rng.integers(0, 3, 15), 3)
        net = MLP.init([4, 7, 5, 3], activation=activation, seed=5)
        before = net.params.copy()
        X, Y, eta, steps = data.features, data.one_hot_labels(), 0.05, 12
        ref, work = [], net.copy()
        for t in range(steps + 1):
            if t:
                weighted_gradient_step(work, X, Y, np.ones(X.shape[0]), eta)
            ref.append((forward(work, X) - Y).ravel())
        got = list(coreaug.spectrum._descent_residuals(net, X, Y, eta, steps))
        assert len(got) == steps + 1
        for r_got, r_ref in zip(got, ref):
            assert r_got.tobytes() == r_ref.tobytes()
        assert net.params.copy().tobytes() == before.tobytes()


class TestLinearTransformBounds:
    def _instance(self, seed, n=20, d=4, C=2):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, (n, d))
        W = rng.standard_normal((d, C))
        Y = one_hot(rng.integers(0, C, n), C)
        idx = np.sort(rng.choice(n, size=max(1, n // 4), replace=False))
        return W, X, Y, idx

    @staticmethod
    def holds(report):
        """Both bounds, compared as ``audit_linear_bounds`` compares them."""
        return (report.subset_lhs <= report.subset_bound + 1e-9
                and report.combined_lhs <= report.combined_bound + 1e-9)

    def test_identity_transform_is_tight(self):
        """With F = I the augmented rows are the plain ones, so omega is 0 and
        both sides of the subset bound equal xi, the plain-gradient error."""
        W, X, Y, idx = self._instance(25)
        report = linear_transform_bound_check(W, X, Y, np.eye(4), idx)
        grad_sum = coreaug.spectrum._linear_grad_sum
        xi = float(np.linalg.norm(grad_sum(W, X, Y, np.ones(X.shape[0]))
                                  - grad_sum(W, X[idx], Y[idx], report.gamma)))
        assert report.subset_bound == spectral_norm(np.eye(4)) * xi
        assert report.subset_lhs == pytest.approx(xi, rel=1e-12)
        assert report.subset_bound == pytest.approx(xi, rel=1e-12)
        assert self.holds(report)

    def test_zero_transform(self):
        W, X, Y, idx = self._instance(26)
        report = linear_transform_bound_check(W, X, Y, np.zeros((4, 4)), idx)
        assert report.subset_lhs == 0.0
        assert report.subset_bound == 0.0
        assert self.holds(report)

    @given(seed=st.integers(0, 300))
    @settings(max_examples=50)
    def test_random_instances_pass(self, seed):
        W, X, Y, idx = self._instance(seed)
        rng = np.random.default_rng(seed + 5000)
        F = np.eye(4) + 0.25 * rng.standard_normal((4, 4))
        report = linear_transform_bound_check(W, X, Y, F, idx)
        assert self.holds(report)

    def test_sgd_envelope_holds(self):
        rng = np.random.default_rng(27)
        n, d, C = 30, 4, 2
        # small feature spread keeps the measured PL constant below one
        X = np.clip(0.5 + 0.02 * rng.standard_normal((n, d)), 0.0, 1.0)
        W0 = 0.1 * rng.standard_normal((d, C))
        Y = one_hot(rng.integers(0, C, n), C)
        F = np.eye(d) + 0.05 * rng.standard_normal((d, d))
        idx = np.sort(rng.choice(n, size=8, replace=False))
        report = linear_transform_sgd_envelope(W0, X, Y, F, idx, steps=100)
        assert report.alpha < 1.0
        assert report.passed

    def test_sgd_envelope_rejects_an_all_zero_pool(self):
        """Zero rows give a rank-zero design, which has no PL constant."""
        W, _, Y, idx = self._instance(28)
        X = np.zeros((Y.shape[0], 4))
        with pytest.raises(ValueError, match="rank-zero design"):
            linear_transform_sgd_envelope(W, X, Y, np.eye(4), idx, steps=3)
