"""Weighted SGD over three training regimes with periodic subset refresh.

Regimes assemble the epoch's weighted pool from a freshly selected subset and
its bounded augmentations:

* ``coreset_only``: the weighted subset itself (integer weights) plus its
  augmented copies (divided weights).
* ``full_plus_coreset_aug``: all training rows at weight 1 plus the augmented
  subset at divided weights.
* ``random_plus_coreset_aug``: a fixed random fraction of the data at weight 1
  plus the augmented subset at divided weights.

Weights enter the gradient, not the sampling probability: mini-batches are
drawn uniformly from the pool and each step applies the weighted gradient sum.
Every random draw derives from the config seed, so a config reproduces its
record bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .augment import TransformSpec, perturb
from .coreset import (
    SelectionConfig,
    max_loss_subset,
    random_subset,
    select_all_classes,
)
from .linalg import (ABOVE_0, AT_LEAST_0, AT_LEAST_1, LEFT_OPEN_UNIT, RIGHT_OPEN_UNIT,
                     NumericalError, one_of)
from .model import (
    MLP,
    Dataset,
    checked_rows,
    example_losses,
    forward,
    gradient_proxy,
    one_hot,
    residual_and_gradients,
    weighted_gradient,
)

REGIMES = ("coreset_only", "full_plus_coreset_aug", "random_plus_coreset_aug")
BASELINES = ("ours", "random", "max_loss")

# Loss, as a multiple of the loss before the first step, past which a
# training run or warm-up counts as diverged although the loss is still
# finite. Converging runs stay near 1 or below; runs at a too-large step grow
# by 1e8 to 1e30 per epoch and pass this within a few epochs, long before
# float64 overflows.
_DIVERGENCE_FACTOR = 1e30


@dataclass(frozen=True)
class LrSchedule:
    """Step schedule: eta(epoch) = initial * factor^(decay epochs passed)."""

    initial: float
    decay_epochs: tuple[int, ...] = ()
    factor: float = 0.1

    def __post_init__(self):
        ABOVE_0.check("initial", self.initial)
        ABOVE_0.check("factor", self.factor)
        for e in self.decay_epochs:
            AT_LEAST_0.check("decay_epochs", e)

    def value(self, epoch: int) -> float:
        drops = sum(1 for e in self.decay_epochs if epoch >= e)
        return self.initial * self.factor**drops


@dataclass(frozen=True)
class TrainConfig:
    regime: str = "full_plus_coreset_aug"
    selection: SelectionConfig = field(default_factory=lambda: SelectionConfig(fraction=0.1))
    transform: TransformSpec = field(default_factory=TransformSpec)
    refresh_r: int = 1
    epochs: int = 10
    lr: LrSchedule = field(default_factory=lambda: LrSchedule(0.01))
    batch_size: int = 32
    seed: int = 0
    label_noise_frac: float = 0.0
    baseline: str = "ours"
    proxy_mode: str = "last_layer"
    random_fraction: float = 0.5
    hidden_sizes: tuple[int, ...] = (32,)
    activation: str = "tanh"

    def __post_init__(self):
        one_of(REGIMES).check("regime", self.regime)
        one_of(BASELINES).check("baseline", self.baseline)
        for name in ("refresh_r", "epochs", "batch_size"):
            AT_LEAST_1.check(name, getattr(self, name))
        RIGHT_OPEN_UNIT.check("label_noise_frac", self.label_noise_frac)
        LEFT_OPEN_UNIT.check("random_fraction", self.random_fraction)


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    test_loss: float
    test_acc: float
    grad_norm: float
    refreshed: bool
    selection_ms: float
    points_touched: int


# A run CSV has one column per EpochRow field, in field order.
CSV_HEADER = ",".join(f.name for f in fields(EpochRow))


@dataclass
class TrainRecord:
    rows: list[EpochRow]
    initial_grad_norm: float
    selection_events: list[tuple[int, np.ndarray]] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            columns = CSV_HEADER.split(",")
            for r in self.rows:
                # floats as repr, which round-trips; int and bool fields as integers
                fh.write(",".join(repr(v) if isinstance(v, float) else str(int(v))
                                  for v in (getattr(r, c) for c in columns)) + "\n")


def inject_label_noise(data: Dataset, frac: float, seed: int = 0):
    """Flip floor(frac * n) uniformly chosen labels to a uniformly chosen
    different class. Returns the noisy dataset and the boolean flip mask."""
    RIGHT_OPEN_UNIT.check("frac", frac)
    mask = np.zeros(data.n, dtype=bool)
    if frac == 0.0:
        return data, mask
    if data.num_classes < 2:
        raise ValueError("cannot flip labels with a single class")
    rng = np.random.default_rng(seed)
    count = int(math.floor(frac * data.n))
    chosen = rng.choice(data.n, size=count, replace=False)
    labels = data.labels.copy()
    for i in chosen:
        draw = int(rng.integers(0, data.num_classes - 1))
        labels[i] = draw + (draw >= labels[i])
        mask[i] = True
    return data.with_labels(labels), mask


def _checked_sgd_rows(net: MLP, X, Y, rho):
    """``checked_rows`` plus nonnegative weights: every check an SGD step
    needs, made once for all the batches drawn from these rows."""
    X, Y, rho = checked_rows(net, X, Y, rho)
    if np.any(rho < 0.0):
        raise ValueError("weights must be nonnegative")
    return X, Y, rho


def weighted_gradient_step(net: MLP, X_batch, y_batch, rho, eta: float) -> MLP:
    """W <- W - eta * sum_i rho_i * grad_i over the flat parameter vector.
    Updates the network in place. The training loops and the descent runs of
    ``spectrum`` take the same step on rows checked once."""
    net.params -= eta * weighted_gradient(net, *_checked_sgd_rows(net, X_batch, y_batch, rho))
    return net


def _sgd_epoch(net: MLP, X: np.ndarray, Y: np.ndarray, w: np.ndarray,
               order: np.ndarray, batch_size: int, eta: float) -> None:
    """One epoch of weighted mini-batch SGD over checked rows, in ``order``:
    each batch is the next ``batch_size`` of them. The rows are gathered
    once, so every batch is a contiguous slice; each step computes the whole
    flat gradient before it updates the flat parameters."""
    X, Y, w = X[order], Y[order], w[order]
    for start in range(0, order.size, batch_size):
        stop = start + batch_size
        net.params -= eta * residual_and_gradients(net, X[start:stop], Y[start:stop],
                                                   w[start:stop])[1]


def _check_epoch(what: str, epoch: int, loss: float, initial_loss: float,
                 grad_norm: float | None = None) -> None:
    """Raise ``NumericalError`` naming the epoch if its loss (or gradient
    norm) is not finite, or its loss exceeds ``_DIVERGENCE_FACTOR`` times the
    loss before the first step."""
    if not (math.isfinite(loss) and (grad_norm is None or math.isfinite(grad_norm))):
        norm = "" if grad_norm is None else f", gradient norm {grad_norm!r}"
        raise NumericalError(f"{what} diverged at epoch {epoch}: loss {loss!r}{norm}")
    if loss > _DIVERGENCE_FACTOR * initial_loss:
        raise NumericalError(f"{what} diverged at epoch {epoch}: loss {loss!r} "
                             f"exceeds {_DIVERGENCE_FACTOR:g} x the initial loss "
                             f"{initial_loss!r}")


def evaluate(net: MLP, data: Dataset) -> tuple[float, float]:
    """(mean squared-error loss with the 1/2 factor, argmax accuracy).

    Prediction ties resolve to the smallest class index.
    """
    preds = forward(net, data.features)
    r = preds - data.one_hot_labels()
    mean_loss = 0.5 * float(np.sum(r * r)) / data.n
    acc = float(np.mean(np.argmax(preds, axis=1) == data.labels))
    return mean_loss, acc


@dataclass
class _Pool:
    X: np.ndarray
    Y: np.ndarray
    w: np.ndarray
    origins: np.ndarray


def _select_subset(config: TrainConfig, net: MLP, data: Dataset,
                   refresh_idx: int):
    """(global indices, per-original-row weights)."""
    sel = config.selection
    if config.baseline == "ours":
        proxies = gradient_proxy(net, data, config.proxy_mode)
        coreset = select_all_classes(proxies, sel)
        return coreset.indices, coreset.gamma.astype(np.float64)
    if config.baseline == "random":
        bs = random_subset(sel.k_per_class, data.labels,
                           seed=[config.seed, 23, refresh_idx],
                           fraction=sel.fraction)
    else:
        bs = max_loss_subset(example_losses(net, data), sel.k_per_class, data.labels,
                             fraction=sel.fraction)
    return bs.indices, bs.weights


def _build_pool(config: TrainConfig, data: Dataset, Y_all: np.ndarray, indices,
                orig_w, refresh_idx: int, base) -> _Pool:
    """The base rows at weight 1 (the selection at its own weights when
    ``base`` is None), then the selection's augmented copies: each of a
    row's r copies weighs its row's weight / r. ``Y_all`` holds the one-hot
    targets of every row of ``data``."""
    aug = perturb(config.transform, data.features[indices], round_index=refresh_idx)
    r = config.transform.r
    base, base_w = (indices, orig_w) if base is None else (base, np.ones(base.size))
    # copy-major: augmented row i*r + c copies selected row i
    origins = np.concatenate([base, np.repeat(indices, r)])
    X = data.features[origins]
    X[base.size:] = aug.features
    return _Pool(X=X, Y=Y_all[origins],
                 w=np.concatenate([base_w, np.repeat(orig_w / r, r)]),
                 origins=origins)


def _pool_metrics(net: MLP, pool: _Pool) -> tuple[float, float]:
    """(weighted pool loss, norm of its flat gradient), from one forward
    trace."""
    r, grad = residual_and_gradients(net, pool.X, pool.Y, pool.w)
    r *= r
    train_loss = 0.5 * float(np.sum(pool.w * np.sum(r, axis=1)))
    return train_loss, float(np.linalg.norm(grad))


def _setup(config: TrainConfig, data: Dataset):
    """(noisy data, initial net, the pool's base rows): the seeded set-up that
    ``train`` and ``initial_pool`` share. The base rows are every row, a fixed
    random fraction of them, or None for the selection itself."""
    data = inject_label_noise(data, config.label_noise_frac, seed=[config.seed, 11])[0]
    net = MLP.init([data.dim, *config.hidden_sizes, data.num_classes],
                   activation=config.activation, seed=[config.seed, 5])
    base = None
    if config.regime == "full_plus_coreset_aug":
        base = np.arange(data.n)
    elif config.regime == "random_plus_coreset_aug":
        base = random_subset(None, data.labels, seed=[config.seed, 13],
                             fraction=config.random_fraction).indices
    return data, net, base


def train(config: TrainConfig, data: Dataset, test_data: Dataset) -> TrainRecord:
    """Run the configured regime and return per-epoch metrics.

    Subsets are re-selected every ``refresh_r`` epochs using the proxies (or
    losses) at the current weights; the grad_norm column is the weighted-pool
    gradient norm at the end of the epoch, and ``initial_grad_norm`` is the
    same quantity at initialization. Raises ``NumericalError`` naming the
    epoch at the end of the first epoch whose loss or gradient norm is not
    finite, or whose loss exceeds ``_DIVERGENCE_FACTOR`` times the pool loss
    before the first step.
    """
    data, net, base = _setup(config, data)
    Y_all = one_hot(data.labels, data.num_classes)
    batch_rng = np.random.default_rng([config.seed, 7])
    rows: list[EpochRow] = []
    events: list[tuple[int, np.ndarray]] = []
    # training rows that some pool has held, its own or augmented
    touched = np.zeros(data.n, dtype=bool)
    initial_loss = initial_grad_norm = None
    refresh_idx = -1
    for epoch in range(config.epochs):
        refreshed = epoch % config.refresh_r == 0
        selection_ms = 0.0
        if refreshed:
            refresh_idx += 1
            t0 = time.perf_counter()
            indices, orig_w = _select_subset(config, net, data, refresh_idx)
            pool = _build_pool(config, data, Y_all, indices, orig_w, refresh_idx, base)
            _checked_sgd_rows(net, pool.X, pool.Y, pool.w)
            selection_ms = (time.perf_counter() - t0) * 1000.0
            events.append((epoch, np.asarray(indices)))
            touched[pool.origins] = True
        if initial_grad_norm is None:
            initial_loss, initial_grad_norm = _pool_metrics(net, pool)
        _sgd_epoch(net, pool.X, pool.Y, pool.w, batch_rng.permutation(pool.X.shape[0]),
                   config.batch_size, config.lr.value(epoch))
        train_loss, grad_norm = _pool_metrics(net, pool)
        _check_epoch("training", epoch, train_loss, initial_loss, grad_norm)
        test_loss, test_acc = evaluate(net, test_data)
        rows.append(EpochRow(
            epoch=epoch, train_loss=train_loss, test_loss=test_loss,
            test_acc=test_acc, grad_norm=grad_norm, refreshed=refreshed,
            selection_ms=selection_ms,
            points_touched=int(np.count_nonzero(touched)),
        ))
    return TrainRecord(rows=rows, initial_grad_norm=float(initial_grad_norm),
                       selection_events=events)


def initial_pool(config: TrainConfig, data: Dataset):
    """Reconstruct the epoch-0 training pool exactly as ``train`` builds it:
    same net init, same selection streams. Returns (net, X, Y, weights,
    selected indices, gamma-style original-row weights)."""
    data, net, base = _setup(config, data)
    indices, orig_w = _select_subset(config, net, data, 0)
    pool = _build_pool(config, data, one_hot(data.labels, data.num_classes),
                       indices, orig_w, 0, base)
    return net, pool.X, pool.Y, pool.w, np.asarray(indices), orig_w


def sgd_warmup(net: MLP, data: Dataset, epochs: int, lr: float,
               batch_size: int = 32, seed: int = 0) -> MLP:
    """Plain uniform-weight mini-batch SGD, in place, through the same epoch
    loop as ``train``. Used to pretrain nets before spectrum analysis or
    loss-based selection. Raises ``NumericalError`` naming the epoch at the
    end of the first epoch whose loss is not finite or exceeds
    ``_DIVERGENCE_FACTOR`` times the loss before the first step."""
    X, Y, w = _checked_sgd_rows(net, data.features,
                                one_hot(data.labels, data.num_classes), np.ones(data.n))
    rng = np.random.default_rng(seed)
    initial_loss = evaluate(net, data)[0]
    for epoch in range(epochs):
        _sgd_epoch(net, X, Y, w, rng.permutation(data.n), batch_size, lr)
        _check_epoch("warm-up", epoch, evaluate(net, data)[0], initial_loss)
    return net


def noisy_selection_audit(indices, noisy_mask: np.ndarray) -> float:
    """Fraction of selected points whose label was flipped."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty selection")
    return float(np.mean(noisy_mask[idx]))
