import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coreaug.linalg
from coreaug.linalg import MemoryCapError, NumericalError, spectral_norm
from coreaug.model import (
    Dataset,
    MLP,
    _Backprop,
    _Gradient,
    _activation_pair,
    class_rows,
    example_losses,
    forward,
    gradient_proxy,
    jacobian,
    one_hot,
    per_example_gradients,
    residuals,
    weighted_gradient,
)
from helpers import layer_gradients, zero_mlp


def make_dataset(seed=0, n=12, d=4, C=3):
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(0.0, 1.0, (n, d)), rng.integers(0, C, n), C)


def per_example_gradient(net, x, y_onehot):
    """Gradient of ``0.5 * ||f(x) - y||^2`` for one example: the weighted
    gradient of a single row with weight 1."""
    return weighted_gradient(net, np.reshape(x, (1, -1)), np.reshape(y_onehot, (1, -1)),
                             np.ones(1))


def finite_difference_gradient(net, x, y, coords, step=1e-5):
    """Central-difference oracle for d/dW of 0.5 ||f(x) - y||^2."""
    params = net.params.copy()
    out = {}
    for c in coords:
        for sign in (+1.0, -1.0):
            shifted = params.copy()
            shifted[c] += sign * step
            probe = net.copy()
            probe.params[...] = shifted
            pred = forward(probe, x.reshape(1, -1))[0]
            val = 0.5 * float(np.sum((pred - y) ** 2))
            out.setdefault(c, 0.0)
            out[c] += sign * val
    return {c: v / (2 * step) for c, v in out.items()}


class TestDataset:
    def test_rejects_out_of_range_features(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.5, 1.2]]), np.array([0]), 1)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.5, 0.5]]), np.array([3]), 2)

    def test_class_index_partitions(self):
        data = make_dataset(5, n=30, C=4)
        rows = class_rows(data.labels)
        combined = np.sort(np.concatenate([idx for _, idx in rows]))
        assert np.array_equal(combined, np.arange(30))
        assert [c for c, _ in rows] == sorted(set(data.labels.tolist()))
        for c, idx in rows:
            assert np.all(data.labels[idx] == c)

    def test_class_rows_skip_labels_without_rows(self):
        rows = class_rows(np.array([2, 0, 2, 0, 2]))
        assert [(c, idx.tolist()) for c, idx in rows] == [(0, [1, 3]), (2, [0, 2, 4])]


class TestForward:
    def test_zero_net_outputs_zero(self):
        net = zero_mlp([4, 5, 3])
        X = np.random.default_rng(0).uniform(0, 1, (6, 4))
        assert np.array_equal(forward(net, X), np.zeros((6, 3)))

    def test_single_linear_layer(self):
        net = MLP.init([3, 2], seed=1)
        X = np.random.default_rng(1).uniform(0, 1, (5, 3))
        expected = X @ net.weights[0] + net.biases[0]
        assert np.array_equal(forward(net, X), expected)

    def test_shape_mismatch(self):
        net = MLP.init([3, 2], seed=0)
        with pytest.raises(ValueError):
            forward(net, np.zeros((4, 5)))

    def test_deterministic(self):
        net = MLP.init([4, 8, 3], seed=2)
        X = np.random.default_rng(2).uniform(0, 1, (7, 4))
        assert np.array_equal(forward(net, X), forward(net.copy(), X.copy()))


class TestParameterLayout:
    """``params`` is the network's only parameter storage; ``weights`` and
    ``biases`` are views of it in the documented layout."""

    def test_views_share_the_flat_vector(self):
        net = MLP.init([4, 5, 3, 2], seed=11)
        for view in (*net.weights, *net.biases):
            assert np.shares_memory(view, net.params)
        net.params[:] = np.arange(net.num_params)
        assert net.weights[0][0, 1] == 1.0
        assert net.biases[0][0] == 4 * 5
        assert net.weights[1][0, 0] == 4 * 5 + 5
        assert net.biases[-1][-1] == net.num_params - 1

    def test_copy_shares_no_memory(self):
        net = MLP.init([3, 4, 2], seed=12)
        twin = net.copy()
        for a in (twin.params, *twin.weights, *twin.biases):
            assert not np.shares_memory(a, net.params)
        assert np.array_equal(twin.params, net.params)

    @pytest.mark.parametrize("duplicate", [copy.deepcopy,
                                           lambda net: pickle.loads(pickle.dumps(net))],
                             ids=["deepcopy", "pickle"])
    def test_deep_copies_rebuild_their_views(self, duplicate):
        net = MLP.init([3, 4, 2], seed=14)
        twin = duplicate(net)
        assert (twin.layer_sizes, twin.activation) == (net.layer_sizes, net.activation)
        assert np.array_equal(twin.params, net.params)
        for view in (*twin.weights, *twin.biases):
            assert np.shares_memory(view, twin.params)
        for a in (twin.params, *twin.weights, *twin.biases):
            assert not np.shares_memory(a, net.params)
        twin.params[:] = 0.0
        assert not np.any(twin.weights[0]) and not np.any(twin.biases[-1])
        assert np.any(net.weights[0])

    def test_layer_views_cannot_be_rebound(self):
        net = MLP.init([3, 2], seed=0)
        with pytest.raises(TypeError):
            net.weights[0] = np.zeros((3, 2))
        with pytest.raises(TypeError):
            net.biases[0] = np.zeros(2)

    @pytest.mark.parametrize("params", [np.zeros(9), np.zeros(8, dtype=np.float32),
                                        np.zeros((1, 8)), [0.0] * 8])
    def test_rejects_params_off_the_layout(self, params):
        with pytest.raises(ValueError, match="params must be a float64 vector of 8 entries"):
            MLP((3, 2), "tanh", params)

    @pytest.mark.parametrize("sizes", [(4, 3), (4, 5, 3), (4, 6, 5, 3)])
    def test_init_equals_per_layer_draws(self, sizes):
        net = MLP.init(sizes, seed=[3, 5])
        rng = np.random.default_rng([3, 5])
        blocks = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            blocks += [rng.uniform(-bound, bound, size=(fan_in, fan_out)).ravel(),
                       rng.uniform(-bound, bound, size=fan_out)]
        assert np.array_equal(bits(net.params), bits(np.concatenate(blocks)))

    def test_init_checks_each_layer_size(self):
        with pytest.raises(ValueError) as raised:
            MLP.init([2, 0, 3])
        assert str(raised.value) == "layer_sizes must be >= 1, got 0"
        with pytest.raises(ValueError, match="at least input and output"):
            MLP.init([2])


class TestLoss:
    def test_perfect_predictions(self):
        net = zero_mlp([2, 2])
        net.biases[0][:] = [1.0, 0.0]
        data = Dataset(np.random.default_rng(0).uniform(0, 1, (8, 2)),
                       np.zeros(8, dtype=int), 2)
        assert np.array_equal(example_losses(net, data), np.zeros(8))

    def test_zero_net_one_hot(self):
        data = make_dataset(1, n=9)
        net = zero_mlp([data.dim, 6, data.num_classes])
        assert np.array_equal(example_losses(net, data), np.full(9, 0.5))

    def test_matches_forward_recomputation(self):
        data = make_dataset(2)
        net = MLP.init([data.dim, 5, data.num_classes], seed=3)
        preds = forward(net, data.features)
        expected = 0.5 * np.sum((preds - data.one_hot_labels()) ** 2, axis=1)
        assert np.array_equal(example_losses(net, data), expected)


class TestGradients:
    def test_zero_residual_zero_gradient(self):
        net = zero_mlp([2, 2])
        net.biases[0][:] = [1.0, 0.0]
        g = per_example_gradient(net, np.array([0.3, 0.4]), np.array([1.0, 0.0]))
        assert np.array_equal(g, np.zeros(net.num_params))

    def test_linear_closed_form(self):
        net = MLP.init([3, 2], seed=4)
        x = np.array([0.2, 0.5, 0.9])
        y = np.array([1.0, 0.0])
        r = forward(net, x.reshape(1, -1))[0] - y
        g = per_example_gradient(net, x, y)
        # layout: W (3x2) row-major then bias; dL/dW[i, c] = x_i r_c
        expected = np.concatenate([np.outer(x, r).ravel(), r])
        assert g == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("sizes,act", [
        ((4, 6, 3), "tanh"),
        ((4, 5, 4, 2), "tanh"),
        ((3, 8, 2), "relu"),
        ((5, 2), "tanh"),
    ])
    def test_finite_difference_oracle(self, sizes, act):
        net = MLP.init(sizes, activation=act, seed=11)
        rng = np.random.default_rng(12)
        x = rng.uniform(0.1, 0.9, sizes[0])
        y = one_hot(np.array([1]), sizes[-1])[0]
        g = per_example_gradient(net, x, y)
        coords = rng.choice(net.num_params, size=min(50, net.num_params), replace=False)
        fd = finite_difference_gradient(net, x, y, coords)
        for c, val in fd.items():
            denom = max(abs(val), 1e-6)
            assert abs(g[c] - val) / denom <= 1e-5

    def test_weighted_gradient_is_weighted_sum(self):
        data = make_dataset(3, n=6)
        net = MLP.init([data.dim, 5, data.num_classes], seed=5)
        w = np.array([0.5, 0.0, 2.0, 1.0, 0.25, 3.0])
        acc = np.zeros(net.num_params)
        Y = data.one_hot_labels()
        for i in range(data.n):
            acc += w[i] * per_example_gradient(net, data.features[i], Y[i])
        g = weighted_gradient(net, data.features, Y, w)
        assert g == pytest.approx(acc, abs=1e-10)


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300,
            np.inf, -np.inf, np.nan]


class TestActivationDerivatives:
    """The backward pass takes each hidden derivative from the activation
    the forward pass wrote over its pre-activation; that must equal the
    pre-activation form bit for bit."""

    @given(act=st.sampled_from(["tanh", "relu"]),
           values=st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL)),
                           min_size=1, max_size=30),
           scale=st.one_of(st.floats(allow_nan=False), st.sampled_from(_SPECIAL)))
    @settings(max_examples=300, deadline=None)
    def test_derivative_from_activation_equals_preactivation_form(self, act, values, scale):
        apply, deriv = _activation_pair(act)
        p = np.array(values)
        a = p.copy()
        assert apply(a) is a
        activation = np.tanh(p) if act == "tanh" else np.maximum(p, 0.0)
        assert np.array_equal(bits(a), bits(activation))
        with np.errstate(invalid="ignore", over="ignore"):
            reference = (1.0 - np.tanh(p) ** 2 if act == "tanh"
                         else (p > 0.0).astype(np.float64))
            assert np.array_equal(bits(deriv(a)), bits(reference))
            # the backward pass multiplies the derivative into delta in place
            delta = np.full(p.shape, scale)
            expected = delta * reference
            delta *= deriv(a)
        assert np.array_equal(bits(delta), bits(expected))


def residual_and_gradients(net, X, Y, w):
    """The residual and the flat gradient of one forward trace, from a
    one-shot ``_Gradient`` whose buffer goes to the caller."""
    gradient = _Gradient(net)
    return gradient(X, Y, w), gradient.grad


class TestResidualAndGradients:
    @pytest.mark.parametrize("hidden", [(5,), (6, 4)])
    @pytest.mark.parametrize("act", ["tanh", "relu"])
    def test_one_trace_equals_forward_and_weighted_gradient(self, hidden, act):
        """The flat gradient, written through the layer views, holds the
        per-layer ``a.T @ d`` and ``d.sum(axis=0)`` of the reference bit for
        bit, in the parameter layout."""
        data = make_dataset(21, n=17, d=4, C=3)
        net = MLP.init([data.dim, *hidden, data.num_classes], activation=act, seed=9)
        X, Y = data.features, data.one_hot_labels()
        X_before = X.copy()
        w = np.random.default_rng(22).uniform(0.0, 2.0, data.n)
        r, grad = residual_and_gradients(net, X, Y, w)
        assert np.array_equal(bits(r), bits(forward(net, X) - Y))
        reference = np.concatenate([g.ravel() for pair in layer_gradients(net, X, Y, w)
                                    for g in pair])
        assert np.array_equal(bits(grad), bits(reference))
        assert grad.shape == (net.num_params,)
        assert np.array_equal(bits(X), bits(X_before))

    def test_residual_is_owned_by_the_caller(self):
        data = make_dataset(23, n=9)
        net = MLP.init([data.dim, 5, data.num_classes], seed=3)
        X, Y, w = data.features, data.one_hot_labels(), np.ones(data.n)
        r, _ = residual_and_gradients(net, X, Y, w)
        r[:] = np.nan
        again, grad = residual_and_gradients(net, X, Y, w)
        assert np.array_equal(again, forward(net, X) - Y)
        assert np.all(np.isfinite(grad))

    def test_gradient_is_owned_by_the_caller(self):
        """Each call returns a gradient of its own: a later call, or a write
        to an earlier gradient, moves no other."""
        data = make_dataset(26, n=9)
        net = MLP.init([data.dim, 5, data.num_classes], seed=5)
        X, Y, w = data.features, data.one_hot_labels(), np.ones(data.n)
        first, second = (residual_and_gradients(net, X, Y, w)[1] for _ in range(2))
        third, fourth = (weighted_gradient(net, X, Y, w) for _ in range(2))
        for a, b in [(first, second), (third, fourth), (first, third)]:
            assert not np.shares_memory(a, b)
        expected = second.copy()
        first[:] = np.nan
        assert second.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("act", ["tanh", "relu"])
    def test_gradient_built_before_a_step_sees_it(self, act):
        """A ``_Gradient`` reads the net's parameters in place: after
        ``net.params -= step``, its next gradient and residual are a fresh
        ``residual_and_gradients`` at the stepped parameters, bit for bit."""
        data = make_dataset(27, n=11)
        net = MLP.init([data.dim, 6, 4, data.num_classes], activation=act, seed=7)
        X, Y = data.features, data.one_hot_labels()
        w = np.random.default_rng(27).uniform(0.0, 2.0, data.n)
        gradient = _Gradient(net)
        gradient(X, Y, w)
        net.params -= 0.3 * gradient.grad
        r = gradient(X, Y, w)
        fresh_r, fresh_grad = residual_and_gradients(net, X, Y, w)
        assert gradient.grad.tobytes() == fresh_grad.tobytes()
        assert r.tobytes() == fresh_r.tobytes()
        assert not np.shares_memory(gradient.grad, fresh_grad)

    def test_checked_rows_reject_a_negative_weight(self):
        """The one row rule: a weighted gradient takes nonnegative weights."""
        data = make_dataset(24, n=6)
        net = MLP.init([data.dim, 3, data.num_classes], seed=4)
        w = np.ones(data.n)
        w[2] = -1e-300
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            weighted_gradient(net, data.features, data.one_hot_labels(), w)


class TestJacobian:
    def test_contraction_identity(self):
        data = make_dataset(6, n=8)
        net = MLP.init([data.dim, 6, data.num_classes], seed=6)
        jac = jacobian(net, data.features)
        r = residuals(net, data)
        contracted = jac.T @ r.ravel()
        total = weighted_gradient(net, data.features, data.one_hot_labels(),
                                  np.ones(data.n))
        assert np.max(np.abs(contracted - total)) <= 1e-8

    def test_single_linear_layer_structure(self):
        net = MLP.init([3, 2], seed=7)
        X = np.random.default_rng(7).uniform(0, 1, (4, 3))
        jac = jacobian(net, X)
        d, C = 3, 2
        for i in range(4):
            for c in range(C):
                row = jac[i * C + c]
                expected = np.zeros(net.num_params)
                for j in range(d):
                    expected[j * C + c] = X[i, j]
                expected[d * C + c] = 1.0
                assert np.array_equal(row, expected)

    def test_finite_difference_rows(self):
        net = MLP.init([3, 5, 2], seed=8)
        X = np.random.default_rng(8).uniform(0, 1, (3, 3))
        jac = jacobian(net, X)
        step = 1e-5
        params = net.params.copy()
        rng = np.random.default_rng(9)
        for _ in range(40):
            i = int(rng.integers(0, 3))
            c = int(rng.integers(0, 2))
            p = int(rng.integers(0, net.num_params))
            plus, minus = params.copy(), params.copy()
            plus[p] += step
            minus[p] -= step
            probe = net.copy()
            probe.params[...] = plus
            f_plus = forward(probe, X[i:i + 1])[0, c]
            probe.params[...] = minus
            f_minus = forward(probe, X[i:i + 1])[0, c]
            fd = (f_plus - f_minus) / (2 * step)
            assert abs(jac[i * 2 + c, p] - fd) <= 1e-5 * max(abs(fd), 1e-4)

    @pytest.mark.parametrize("act", ["tanh", "relu"])
    def test_rows_equal_per_class_blocks(self, act):
        """Rows written through the layer views equal the per-class blocks
        of ``einsum`` outer products and deltas, concatenated."""
        data = make_dataset(25, n=6)
        net = MLP.init([data.dim, 5, 4, data.num_classes], activation=act, seed=25)
        backprop = _Backprop(net)
        acts = backprop.trace(data.features)
        n, C = data.n, data.num_classes
        expected = np.empty((n * C, net.num_params))
        for c in range(C):
            delta = np.zeros((n, C))
            delta[:, c] = 1.0
            blocks = []
            for a, d in reversed(list(backprop.backward(acts, delta))):
                blocks += [np.einsum("ni,nj->nij", a, d).reshape(n, -1), d]
            expected[c::C] = np.concatenate(blocks, axis=1)
        assert np.array_equal(bits(jacobian(net, data.features)), bits(expected))

    def test_memory_cap(self, monkeypatch):
        net = MLP.init([4, 6, 3], seed=0)
        monkeypatch.setattr(coreaug.linalg, "ENTRY_CAP", 10)
        with pytest.raises(MemoryCapError):
            jacobian(net, np.zeros((10, 4)))

    def test_parameter_count_over_the_cap_is_refused(self, monkeypatch):
        """A 4-6-3 net has 51 parameters: at a cap of 50 ``MLP.init``
        refuses it, at 51 it builds it."""
        monkeypatch.setattr(coreaug.linalg, "ENTRY_CAP", 50)
        with pytest.raises(MemoryCapError, match=r"layer sizes \(4, 6, 3\) would hold "
                                                 r"51 parameters, cap is 50"):
            MLP.init([4, 6, 3], seed=0)
        monkeypatch.setattr(coreaug.linalg, "ENTRY_CAP", 51)
        assert MLP.init([4, 6, 3], seed=0).num_params == 51

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entries_are_numerical_failures(self, bad):
        data = make_dataset(24, n=5)
        net = MLP.init([data.dim, 4, data.num_classes], seed=2)
        net.weights[-1][0, 0] = bad
        with pytest.raises(NumericalError, match="non-finite entries"):
            jacobian(net, data.features)

    def test_per_example_gradients_match(self):
        data = make_dataset(10, n=7)
        net = MLP.init([data.dim, 4, data.num_classes], seed=10)
        rows = per_example_gradients(net, data)
        Y = data.one_hot_labels()
        for i in range(data.n):
            expected = per_example_gradient(net, data.features[i], Y[i])
            assert rows[i] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_per_example_gradients_match_jacobian_contraction(self, seed):
        """Backpropagating the residual equals contracting the stacked
        derivative matrix with it, up to rounding."""
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(2, 5)))]
        data = make_dataset(seed, n=int(rng.integers(1, 15)), d=sizes[0], C=sizes[-1])
        net = MLP.init(sizes, activation=("tanh", "relu")[seed % 2], seed=seed)
        n, C = data.n, data.num_classes
        ref = np.einsum("ncm,nc->nm", jacobian(net, data.features).reshape(n, C, -1),
                        residuals(net, data))
        rows = per_example_gradients(net, data)
        assert rows.shape == ref.shape
        assert np.linalg.norm(rows - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_per_example_gradients_skip_the_stacked_matrix(self, traced_peak_bytes):
        # C = 10 outputs: the stacked derivative matrix alone is 10 n*m floats
        data = make_dataset(18, n=200, d=20, C=10)
        net = MLP.init([20, 50, 10], seed=18)
        rows_bytes = data.n * net.num_params * 8
        peak = traced_peak_bytes(lambda: per_example_gradients(net, data))
        assert peak <= 3 * rows_bytes


class TestGradientProxy:
    def test_zero_residual_zero_proxy(self):
        # zero hidden weights with bias e_0 interpolate the all-class-0 labels
        net = zero_mlp([2, 3, 2])
        data = Dataset(np.random.default_rng(0).uniform(0, 1, (5, 2)),
                       np.zeros(5, dtype=int), 2)
        net.biases[-1][:] = [1.0, 0.0]
        for mode in ("residual", "last_layer"):
            proxies = gradient_proxy(net, data, mode)
            assert np.allclose(proxies.proxies, 0.0)

    def test_last_layer_block_matches_exact_gradient_slice(self):
        data = make_dataset(11, n=6)
        net = MLP.init([data.dim, 5, data.num_classes], seed=12)
        proxies = gradient_proxy(net, data, "last_layer").proxies
        C = data.num_classes
        h = 5
        Y = data.one_hot_labels()
        w_start = net.num_params - (h + 1) * C
        for i in range(data.n):
            g = per_example_gradient(net, data.features[i], Y[i])
            assert proxies[i, C:] == pytest.approx(g[w_start:w_start + h * C], abs=1e-12)
            assert proxies[i, :C] == pytest.approx(g[w_start + h * C:], abs=1e-12)

    def test_identical_examples_identical_proxies(self):
        X = np.tile(np.array([[0.2, 0.8, 0.5]]), (2, 1))
        data = Dataset(X, np.array([1, 1]), 2)
        net = MLP.init([3, 4, 2], seed=13)
        for mode in ("residual", "last_layer"):
            p = gradient_proxy(net, data, mode).proxies
            assert np.array_equal(p[0], p[1])

    @pytest.mark.parametrize("act", ["relu", "tanh"])
    def test_last_layer_equals_einsum_and_concatenate(self, act):
        """Written in place, the proxies equal the residual concatenated
        with the einsum outer products bit for bit, signed zeros included:
        relu zeroes hidden units, and 0 times a negative residual is -0.0
        in a plain multiply but +0.0 in einsum."""
        data = make_dataset(19, n=300, d=6, C=4)
        net = MLP.init([6, 16, 12, 4], activation=act, seed=19)
        h = np.tanh if act == "tanh" else (lambda p: np.maximum(p, 0.0))
        hidden = h(h(data.features @ net.weights[0] + net.biases[0])
                   @ net.weights[1] + net.biases[1])
        r = forward(net, data.features) - data.one_hot_labels()
        ref = np.concatenate(
            [r, np.einsum("nh,nc->nhc", hidden, r).reshape(data.n, -1)], axis=1)
        proxies = gradient_proxy(net, data, "last_layer").proxies
        assert proxies.tobytes() == ref.tobytes()
        if act == "relu":
            assert np.any(ref == 0.0)

    def test_last_layer_holds_one_proxy_matrix(self, traced_peak_bytes):
        """The proxies and the forward trace, with no second n x hC array
        for the outer products before they are joined to the residual."""
        data = make_dataset(20, n=2000, d=8, C=4)
        net = MLP.init([8, 32, 4], activation="relu", seed=20)
        proxy_bytes = data.n * 33 * 4 * 8
        trace_bytes = data.n * (32 + 4) * 8
        peak = traced_peak_bytes(lambda: gradient_proxy(net, data, "last_layer"))
        assert peak <= 1.25 * proxy_bytes + trace_bytes

    def test_rejects_unknown_mode(self):
        data = make_dataset(0, n=4)
        net = MLP.init([data.dim, 3, data.num_classes], seed=0)
        with pytest.raises(ValueError):
            gradient_proxy(net, data, "everything")


class TestLinearLipschitzConstants:
    """A linear net's input-Lipschitz constants are exact, so the
    convergence envelope needs no estimate of them."""

    @staticmethod
    def random_pairs(seed, d, count=50):
        return np.random.default_rng(seed).uniform(0.0, 1.0, (count, 2, d))

    def test_derivative_constant_is_sqrt_outputs(self):
        # each example's derivative rows copy x, once per output
        net = MLP.init([4, 3], seed=14)
        for x, x2 in self.random_pairs(14, 4):
            dj = np.linalg.norm(jacobian(net, x[None]) - jacobian(net, x2[None]))
            assert dj == pytest.approx(np.sqrt(3.0) * np.linalg.norm(x - x2), rel=1e-12)

    def test_output_constant_is_spectral_norm(self):
        net = MLP.init([4, 3], seed=15)
        w_norm = spectral_norm(net.weights[0])
        for x, x2 in self.random_pairs(15, 4):
            df = np.linalg.norm(forward(net, x[None]) - forward(net, x2[None]))
            assert df <= w_norm * np.linalg.norm(x - x2)
