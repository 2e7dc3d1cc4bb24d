import dataclasses
import math
import re

import numpy as np
import pytest

from coreaug.augment import TransformSpec
from coreaug.cli import _write_run_csv
from coreaug.coreset import SelectionConfig, random_subset
from coreaug.linalg import NumericalError
from coreaug.model import MLP, Dataset, jacobian, one_hot, residuals
from coreaug.spectrum import measure_pl_constants, pl_constants, pl_convergence_envelope
from coreaug.trainer import (
    EpochRow,
    LrSchedule,
    TrainConfig,
    _sgd_epoch,
    evaluate,
    inject_label_noise,
    sgd_warmup,
    train,
    training,
    weighted_gradient_step,
)
from helpers import layerwise_sgd_epoch, zero_mlp


def blob_pair(seed=0, n=60, d=4, C=3, n_test=30):
    from coreaug.data import gen_dataset

    return (gen_dataset("gaussian_blobs", n, d, C, seed=seed, noise=0.08),
            gen_dataset("gaussian_blobs", n_test, d, C, seed=seed + 1000, noise=0.08))


def quick_config(**overrides):
    base = dict(
        regime="full_plus_coreset_aug",
        selection=SelectionConfig(stop="fixed_size", fraction=0.2),
        transform=TransformSpec(epsilon0=0.05, r=1, seed=0),
        refresh_r=2,
        epochs=4,
        lr=LrSchedule(0.005),
        batch_size=16,
        seed=3,
        hidden_sizes=(8,),
    )
    base.update(overrides)
    return TrainConfig(**base)


def train_to_final_params(config, data, test):
    """The epoch rows of a run's stream and the parameters of its net once
    the stream ends."""
    states = list(training(config, data, test))
    rows = [s for s in states if isinstance(s, EpochRow)]
    assert len(rows) == config.epochs
    return rows, states[0].net.params


class TestLabelNoise:
    def test_zero_fraction_unchanged(self):
        data, _ = blob_pair(1)
        assert inject_label_noise(data, 0.0, seed=0) is data

    def test_exact_count_and_all_different(self):
        """floor(0.5 * 99) labels change: since a flip always changes its
        label, the changed labels are exactly the flipped ones."""
        data, _ = blob_pair(2, n=99)
        noisy = inject_label_noise(data, 0.5, seed=1)
        assert np.count_nonzero(noisy.labels != data.labels) == 49
        assert np.array_equal(noisy.features, data.features)

    def test_single_class_errors(self):
        data = Dataset(np.random.default_rng(0).uniform(0, 1, (10, 2)),
                       np.zeros(10, dtype=int), 1)
        with pytest.raises(ValueError):
            inject_label_noise(data, 0.5, seed=0)

    def test_flip_distribution_uniform(self):
        # class-0 points flipped across many seeds: targets 1..C-1 uniform
        C = 4
        data = Dataset(np.full((40, 2), 0.5), np.zeros(40, dtype=int), C)
        counts = np.zeros(C)
        total = 0
        for seed in range(300):
            noisy = inject_label_noise(data, 0.9, seed=seed)
            mask = noisy.labels != data.labels
            flipped = noisy.labels[mask]
            for c in range(C):
                counts[c] += np.sum(flipped == c)
            total += mask.sum()
        assert counts[0] == 0
        p = 1.0 / (C - 1)
        sigma = math.sqrt(total * p * (1 - p))
        assert np.all(np.abs(counts[1:] - total * p) <= 3 * sigma)


class TestWeightedStep:
    def test_unit_weights_match_plain_step(self):
        data, _ = blob_pair(3, n=21)
        Y = data.one_hot_labels()
        net_a = MLP.init([data.dim, 5, data.num_classes], seed=2)
        net_b = net_a.copy()
        weighted_gradient_step(net_a, data.features, Y, np.ones(data.n), 0.1)
        from coreaug.model import weighted_gradient

        grad = weighted_gradient(net_b, data.features, Y, np.ones(data.n))
        net_b.params[...] = net_b.params - 0.1 * grad
        assert np.array_equal(net_a.params.copy(), net_b.params.copy())

    def test_zero_weights_no_update(self):
        data, _ = blob_pair(4, n=9)
        net = MLP.init([data.dim, 4, data.num_classes], seed=3)
        before = net.params.copy()
        weighted_gradient_step(net, data.features, data.one_hot_labels(),
                               np.zeros(data.n), 0.5)
        assert np.array_equal(net.params.copy(), before)

    def test_matches_weighted_jacobian_form(self):
        # oracle: step = eta * J^T (row-weighted residual vector)
        data, _ = blob_pair(5, n=12)
        net = MLP.init([data.dim, 4, data.num_classes], seed=4)
        rho = np.random.default_rng(5).uniform(0.0, 2.0, data.n)
        jac = jacobian(net, data.features)
        r = residuals(net, data)
        weighted_vec = (r * rho[:, None]).ravel()
        expected = net.params.copy() - 0.2 * (jac.T @ weighted_vec)
        weighted_gradient_step(net, data.features, data.one_hot_labels(), rho, 0.2)
        assert np.max(np.abs(net.params.copy() - expected)) <= 1e-8

    def test_rejects_negative_weights(self):
        data, _ = blob_pair(6, n=6)
        net = MLP.init([data.dim, 3, data.num_classes], seed=5)
        with pytest.raises(ValueError):
            weighted_gradient_step(net, data.features, data.one_hot_labels(),
                                   -np.ones(data.n), 0.1)


class TestEvaluate:
    def test_perfect_predictions(self):
        net = zero_mlp([2, 2])
        net.biases[0][:] = [1.0, 0.0]
        data = Dataset(np.random.default_rng(0).uniform(0, 1, (6, 2)),
                       np.zeros(6, dtype=int), 2)
        loss, acc = evaluate(net, data)
        assert loss == 0.0 and acc == 1.0

    def test_zero_net_tie_rule(self):
        # all predictions tie at zero; argmax resolves to class 0
        data, _ = blob_pair(7, n=30, C=3)
        net = zero_mlp([data.dim, 4, data.num_classes])
        _, acc = evaluate(net, data)
        assert acc == pytest.approx(np.mean(data.labels == 0))

    def test_recount_oracle(self):
        data, _ = blob_pair(8, n=24)
        net = MLP.init([data.dim, 6, data.num_classes], seed=6)
        loss, acc = evaluate(net, data)
        from coreaug.model import forward

        preds = forward(net, data.features)
        hits = sum(int(np.argmax(preds[i]) == data.labels[i]) for i in range(data.n))
        sq = sum(0.5 * float(np.sum((preds[i] - data.one_hot_labels()[i]) ** 2))
                 for i in range(data.n))
        assert acc == pytest.approx(hits / data.n)
        assert loss == pytest.approx(sq / data.n, rel=1e-12)


class TestTrain:
    def test_refresh_longer_than_epochs_selects_once(self):
        data, test = blob_pair(9)
        record = train(quick_config(refresh_r=10, epochs=3), data, test)
        assert len(record.selection_events) == 1
        assert record.selection_events[0][0] == 0
        assert [r.refreshed for r in record.rows] == [True, False, False]

    def test_seed_determinism(self):
        data, test = blob_pair(10)
        cfg = quick_config(baseline="ours", epochs=3)
        a, a_params = train_to_final_params(cfg, data, test)
        b, b_params = train_to_final_params(cfg, data, test)
        assert np.array_equal(a_params, b_params)
        for ra, rb in zip(a, b):
            assert ra.train_loss == rb.train_loss
            assert ra.test_acc == rb.test_acc
            assert ra.grad_norm == rb.grad_norm

    def test_degenerate_configs_equal_across_regimes(self):
        data, test = blob_pair(11, n=30)
        common = dict(
            selection=SelectionConfig(stop="fixed_size", fraction=1.0),
            transform=TransformSpec(epsilon0=0.0, r=1, seed=9),
            baseline="random",
            random_fraction=1.0,
            epochs=3,
            refresh_r=1,
        )
        records = {
            regime: train_to_final_params(quick_config(regime=regime, **common), data, test)
            for regime in ("coreset_only", "full_plus_coreset_aug",
                           "random_plus_coreset_aug")
        }
        base, base_params = records["coreset_only"]
        for other, other_params in records.values():
            assert np.array_equal(base_params, other_params)
            assert [r.train_loss for r in base] == [r.train_loss for r in other]

    @pytest.mark.parametrize("baseline", ["random", "max_loss"])
    def test_xi_threshold_is_refused_with_a_baseline(self, baseline):
        """A baseline draws a fixed-size subset, so a threshold selection
        with it is refused at construction, not at the first refresh."""
        with pytest.raises(ValueError, match=f"an xi_threshold selection needs baseline "
                                             f"'ours', got '{baseline}'"):
            quick_config(baseline=baseline,
                         selection=SelectionConfig(stop="xi_threshold", xi=0.5))

    def test_degenerate_matches_plain_sgd_on_duplicated_data(self):
        data, test = blob_pair(12, n=24)
        cfg = quick_config(
            regime="full_plus_coreset_aug",
            selection=SelectionConfig(stop="fixed_size", fraction=1.0),
            transform=TransformSpec(epsilon0=0.0, r=1, seed=4),
            baseline="random", epochs=2, refresh_r=1, batch_size=8)
        final_params = train_to_final_params(cfg, data, test)[1]
        # replay: same init, same batch stream, duplicated rows, unit weights
        net = MLP.init([data.dim, *cfg.hidden_sizes, data.num_classes],
                       seed=[cfg.seed, 5])
        rng = np.random.default_rng([cfg.seed, 7])
        X = np.concatenate([data.features, data.features])
        Y = np.concatenate([data.one_hot_labels(), data.one_hot_labels()])
        for _ in range(cfg.epochs):
            order = rng.permutation(X.shape[0])
            for start in range(0, order.size, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                weighted_gradient_step(net, X[batch], Y[batch],
                                       np.ones(batch.size), cfg.lr.initial)
        assert np.array_equal(final_params, net.params.copy())

    def test_points_touched_nondecreasing_and_bounded(self):
        data, test = blob_pair(13, n=30)
        cfg = quick_config(regime="coreset_only", baseline="ours",
                           selection=SelectionConfig(stop="fixed_size", fraction=0.2),
                           transform=TransformSpec(epsilon0=0.05, r=2, seed=1),
                           epochs=4, refresh_r=2)
        record = train(cfg, data, test)
        touched = [r.points_touched for r in record.rows]
        assert all(b >= a for a, b in zip(touched, touched[1:]))
        selected = set()
        for _, idx in record.selection_events:
            selected.update(int(i) for i in idx)
        assert touched[-1] == len(selected)

    @pytest.mark.parametrize("regime", ["coreset_only", "full_plus_coreset_aug",
                                        "random_plus_coreset_aug"])
    def test_points_touched_counts_every_pool_row(self, regime):
        """Each epoch counts the distinct training rows that any pool so far
        has held: the regime's base rows plus every selection."""
        data, test = blob_pair(15, n=30)
        cfg = quick_config(regime=regime, baseline="ours", random_fraction=0.3,
                           selection=SelectionConfig(stop="fixed_size", k_per_class=1),
                           transform=TransformSpec(epsilon0=0.05, r=2, seed=1),
                           epochs=6, refresh_r=2)
        record = train(cfg, data, test)
        base = {"coreset_only": [],
                "full_plus_coreset_aug": range(data.n),
                "random_plus_coreset_aug": random_subset(
                    SelectionConfig(fraction=0.3), data.labels, seed=[cfg.seed, 13]).indices}
        seen = {int(i) for i in base[regime]}
        events = dict(record.selection_events)
        for row in record.rows:
            seen.update(int(i) for i in events.get(row.epoch, []))
            assert row.points_touched == len(seen)

    def test_all_baselines_and_regimes_run(self):
        data, test = blob_pair(14, n=30)
        for baseline in ("ours", "random", "max_loss"):
            for regime in ("coreset_only", "full_plus_coreset_aug",
                           "random_plus_coreset_aug"):
                record = train(quick_config(regime=regime, baseline=baseline,
                                            epochs=2), data, test)
                assert len(record.rows) == 2

    @pytest.mark.parametrize("baseline", ["ours", "random", "max_loss"])
    def test_k_per_class_takes_precedence_over_fraction(self, baseline):
        """Every selector sizes its per-class subset alike: ``k_per_class``
        wins when a fraction is also given."""
        data, test = blob_pair(16, n=90)
        selection = SelectionConfig(stop="fixed_size", k_per_class=3, fraction=0.5)
        first = next(training(quick_config(selection=selection, baseline=baseline),
                              data, test))
        assert first.indices.size == 3 * data.num_classes

    def test_label_invariance(self):
        """Each augmented row of the pool is a bounded perturbation of its
        source row and carries that row's one-hot label."""
        data, test = blob_pair(17, n=30)
        cfg = quick_config(regime="coreset_only",
                           transform=TransformSpec(epsilon0=0.1, r=2, seed=2))
        first = next(training(cfg, data, test))
        X, Y, indices = first.pool.X, first.pool.Y, first.indices
        k = indices.size
        sources = np.repeat(indices, 2)
        assert X.shape[0] == Y.shape[0] == 3 * k
        assert np.all(np.linalg.norm(X[k:] - data.features[sources], axis=1) <= 0.1 + 1e-12)
        assert np.array_equal(Y[k:], one_hot(data.labels[sources], data.num_classes))

    def test_label_noise_recorded(self):
        """A noisy run is a clean run on the labels that
        ``inject_label_noise`` flips under the run's noise stream."""
        data, test = blob_pair(15, n=42)
        cfg = quick_config(label_noise_frac=0.3, epochs=2)
        noisy = inject_label_noise(data, 0.3, seed=[cfg.seed, 11])
        assert np.count_nonzero(noisy.labels != data.labels) == 12
        record = train(cfg, data, test)
        clean = train(dataclasses.replace(cfg, label_noise_frac=0.0), noisy, test)
        for a, b in zip(record.rows, clean.rows, strict=True):
            assert (a.train_loss, a.test_loss, a.test_acc, a.grad_norm) == \
                (b.train_loss, b.test_loss, b.test_acc, b.grad_norm)

    def test_default_quick_config_pool_loss_does_not_grow(self):
        """The unit-test config trains at a step that converges: its pool
        loss (42.9 to 39.3 here) falls across epochs and the refresh at
        epoch 2, so the divergence checks never fire on these tests."""
        data, test = blob_pair(1)
        losses = [r.train_loss for r in train(quick_config(), data, test).rows]
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_csv_round_trip_header(self, tmp_path):
        data, test = blob_pair(16)
        record = train(quick_config(epochs=2), data, test)
        path = tmp_path / "run.csv"
        _write_run_csv(path, record.rows)
        lines = path.read_text().splitlines()
        assert lines[0] == ("epoch,train_loss,test_loss,test_acc,grad_norm,"
                            "refreshed,selection_ms,points_touched")
        assert len(lines) == 3


class TestSchedule:
    def test_monotone_nonincreasing(self):
        sched = LrSchedule(0.4, decay_epochs=(3, 7), factor=0.5)
        values = [sched.value(e) for e in range(10)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[0] == 0.4
        assert values[3] == pytest.approx(0.2)
        assert values[7] == pytest.approx(0.1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"initial": -1.0}, "initial must be > 0, got -1.0"),
        ({"initial": 0.0}, "initial must be > 0, got 0.0"),
        ({"initial": 0.1, "factor": 0.0}, "factor must be > 0, got 0.0"),
        ({"initial": 0.1, "decay_epochs": (3, -5)}, "decay_epochs must be >= 0, got -5"),
    ])
    def test_rejects_fields_outside_their_domains(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            LrSchedule(**kwargs)
        assert str(raised.value) == message


class TestNoisySelection:
    def test_random_subsets_match_base_rate(self):
        """Random selections hold flipped labels, the rows whose labels
        differ, at the noise rate, as the noise protocol's random arm does."""
        data = Dataset(np.full((200, 2), 0.5), np.zeros(200, dtype=int), 2)
        mask = inject_label_noise(data, 0.3, seed=17).labels != data.labels
        size = SelectionConfig(k_per_class=40)
        fractions = [float(np.mean(mask[random_subset(size, data.labels, seed=s).indices]))
                     for s in range(20)]
        p = mask.mean()
        sigma = math.sqrt(p * (1 - p) / 40)
        assert abs(np.mean(fractions) - p) <= 3 * sigma / math.sqrt(20)


class TestEnvelope:
    def test_envelope_decreases(self):
        values = [pl_convergence_envelope(0.5, 0.1, 2.3, t)
                  for t in range(10)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_unstable_step_rejected(self):
        with pytest.raises(ValueError):
            pl_convergence_envelope(4.0, 1.0, 2.0, 1)

    def test_measured_constants_linear_model(self):
        rng = np.random.default_rng(18)
        X = rng.uniform(0.0, 1.0, (30, 4))
        Y = one_hot(rng.integers(0, 2, 30), 2)
        net = MLP.init([4, 2], seed=7)
        alpha, lam, beta = measure_pl_constants(net, X, np.ones(30))
        assert 0.0 < alpha <= 2.0 * lam
        assert beta >= np.max(np.sum(X * X, axis=1))
        # gradient domination with the measured constant at random weights
        from coreaug.model import weighted_gradient

        for trial in range(5):
            probe = MLP.init([4, 2], seed=trial + 50)
            g = weighted_gradient(probe, X, Y, np.ones(30))
            # compare against the loss above its minimum
            jac = jacobian(probe, X)
            r = (X @ probe.weights[0] + probe.biases[0] - Y).ravel()
            w_ls, *_ = np.linalg.lstsq(jac, r, rcond=None)
            floor = 0.5 * float(np.sum((r - jac @ w_ls) ** 2))
            loss_val = 0.5 * float(np.sum(r * r))
            assert np.sum(g * g) >= alpha * (loss_val - floor) - 1e-8

    def test_measured_constants_match_design_oracle(self):
        # a linear net's derivative matrix is the design [X, 1] with each
        # row repeated once per output, so both share their singular values
        rng = np.random.default_rng(21)
        X = rng.uniform(0.0, 1.0, (25, 4))
        w = rng.uniform(0.5, 3.0, 25)
        alpha, lam, _ = measure_pl_constants(MLP.init([4, 3], seed=21), X, w)
        design = np.hstack([X, np.ones((25, 1))]) * np.sqrt(w)[:, None]
        assert (alpha, lam) == pytest.approx(pl_constants(design), rel=1e-9)

    def test_rank_zero_design_has_no_pl_constant(self):
        with pytest.raises(ValueError, match="rank-zero design"):
            pl_constants(np.zeros((3, 2)))

    def test_measured_constants_reject_all_zero_weights(self):
        X = np.random.default_rng(22).uniform(0.0, 1.0, (6, 3))
        with pytest.raises(ValueError, match="rank-zero design"):
            measure_pl_constants(MLP.init([3, 2], seed=22), X, np.zeros(6))

    def test_rejects_deep_net(self):
        net = MLP.init([3, 4, 2], seed=0)
        with pytest.raises(ValueError):
            measure_pl_constants(net, np.zeros((2, 3)), np.ones(2))


def test_sgd_warmup_deterministic():
    data, _ = blob_pair(19, n=21)
    a = MLP.init([data.dim, 5, data.num_classes], seed=8)
    b = a.copy()
    sgd_warmup(a, data, epochs=3, lr=0.05, seed=1)
    sgd_warmup(b, data, epochs=3, lr=0.05, seed=1)
    assert np.array_equal(a.params.copy(), b.params.copy())


@pytest.mark.parametrize("hidden", [(), (6,), (6, 5)])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_flat_sgd_epoch_equals_layerwise_steps(hidden, activation):
    """One update of the flat parameters per batch moves every weight and
    bias exactly as the per-layer ``w -= eta * gw`` steps do, epoch after
    epoch."""
    data, _ = blob_pair(21, n=45)
    net = MLP.init([data.dim, *hidden, data.num_classes], activation=activation, seed=6)
    reference = net.copy()
    X, Y = data.features, data.one_hot_labels()
    w = np.random.default_rng(21).uniform(0.0, 2.0, data.n)
    rng = np.random.default_rng(22)
    for _ in range(4):
        order = rng.permutation(data.n)
        _sgd_epoch(net, X, Y, w, order, 8, 0.05)
        layerwise_sgd_epoch(reference, X, Y, w, order, 8, 0.05)
        assert net.params.tobytes() == reference.params.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_sgd_warmup_replays_weighted_gradient_steps(activation):
    """The warm-up's epoch loop (rows gathered once per epoch, sliced per
    batch) takes exactly the public step on each batch."""
    data, _ = blob_pair(20, n=45)
    net = MLP.init([data.dim, 6, 5, data.num_classes], activation=activation, seed=3)
    replay = net.copy()
    sgd_warmup(net, data, epochs=3, lr=0.01, batch_size=8, seed=4)
    rng = np.random.default_rng(4)
    Y = data.one_hot_labels()
    for _ in range(3):
        order = rng.permutation(data.n)
        for start in range(0, data.n, 8):
            batch = order[start:start + 8]
            weighted_gradient_step(replay, data.features[batch], Y[batch],
                                   np.ones(batch.size), 0.01)
    assert np.array_equal(net.params.copy(), replay.params.copy())


def failing_epoch(exc_info) -> int:
    message = str(exc_info.value)
    assert "loss" in message
    return int(re.search(r"epoch (\d+)", message).group(1))


def test_train_divergence_raises_at_first_non_finite_epoch():
    data, test = blob_pair(4)
    with pytest.raises(NumericalError) as exc_info:
        train(quick_config(lr=LrSchedule(5.0), epochs=40), data, test)
    epoch = failing_epoch(exc_info)
    record = train(quick_config(lr=LrSchedule(5.0), epochs=epoch), data, test)
    assert all(math.isfinite(r.train_loss) and math.isfinite(r.grad_norm)
               for r in record.rows)


def test_train_divergence_to_huge_finite_losses_raises():
    """lr 0.5 drives the pool loss from ~1e18 to ~1e104 in six epochs, 1e16
    to 1e102 times the initial loss, without ever leaving float64's range."""
    data, test = blob_pair(1)
    with pytest.raises(NumericalError, match="exceeds 1e[+]30 x the initial loss") as exc:
        train(quick_config(lr=LrSchedule(0.5), epochs=6), data, test)
    assert failing_epoch(exc) == 1


def test_sgd_warmup_divergence_to_huge_finite_losses_raises():
    """lr 0.5 grows the warm-up loss by ~1e8 per epoch (1.3e5, 1.5e12,
    4.7e20, 9.2e28 and 2.9e37 x the initial loss after epochs 0-4) without
    ever leaving float64's range."""
    data, _ = blob_pair(1)
    net = MLP.init([data.dim, 8, data.num_classes], seed=0)
    initial = evaluate(net, data)[0]
    diverged = "warm-up diverged at epoch 4: .*exceeds 1e[+]30 x the initial loss"
    with pytest.raises(NumericalError, match=diverged):
        sgd_warmup(net.copy(), data, epochs=6, lr=0.5)
    sgd_warmup(net, data, epochs=4, lr=0.5)
    assert 1e20 < evaluate(net, data)[0] / initial <= 1e30


def test_sgd_warmup_divergence_raises_at_first_non_finite_epoch():
    data, _ = blob_pair(4)
    net = MLP.init([data.dim, 8, data.num_classes], seed=0)
    with pytest.raises(NumericalError) as exc_info:
        sgd_warmup(net.copy(), data, epochs=60, lr=5.0)
    epoch = failing_epoch(exc_info)
    sgd_warmup(net, data, epochs=epoch, lr=5.0)
    assert math.isfinite(evaluate(net, data)[0])
