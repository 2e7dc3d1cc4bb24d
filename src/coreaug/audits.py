"""Randomized audit batteries and experiment protocols.

Each audit generates its own seeded instances, runs the corresponding check,
and returns a JSON-ready summary. Each protocol runs one of the paper's
experiments on its pinned desk-scale instance and returns the raw numbers.
The CLI ``bounds`` and ``experiment`` commands and the acceptance tests all
consume these, so the checked quantities are measured in exactly one place.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .augment import TransformSpec
from .coreset import (
    SelectionConfig,
    coreset_ntk_bound_check,
    max_loss_subset,
    random_subset,
    select_all_classes,
)
from .data import gen_dataset, split_dataset
from .linalg import AT_LEAST_1, AT_LEAST_100, Domain, singular_values, spectral_norm
from .model import MLP, Dataset, example_losses, gradient_proxy, jacobian, one_hot
from .spectrum import (
    augmented_jacobian,
    budget_spectra,
    eigengap,
    expected_shift_model_check,
    linear_transform_bound_check,
    singular_vector_bound_check,
    weyl_check,
)
from .trainer import (
    LrSchedule,
    TrainConfig,
    inject_label_noise,
    sgd_warmup,
    train,
)

PROTOCOL_SEEDS = tuple(range(5))

# The shift-model verdict's cut: the upper 1% point of the chi-square law
# with 10 degrees of freedom, so a correct closed form fails 1% of suite
# runs. It holds because the audit's J is 10 x 20, which always gives 10
# indices (criterion 5 asserts ``indices == 10``).
SHIFT_MODEL_CHI2_CRITICAL = 23.20925115895436


def audit_weyl_random(trials: int, seed: int) -> dict:
    """Random (J, E) pairs of 2-40 rows and 2-60 columns: count rank-paired
    singular-value moves beyond ||E||_2 (there must be none)."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -np.inf
    for _ in range(trials):
        rows = int(rng.integers(2, 41))
        cols = int(rng.integers(2, 61))
        J = rng.standard_normal((rows, cols))
        E = rng.standard_normal((rows, cols)) * float(rng.uniform(0.01, 2.0))
        s0 = singular_values(J)
        s1 = singular_values(J + E)
        verdict = weyl_check(s0, s1, spectral_norm(E))
        worst = max(worst, verdict.max_violation)
        if not verdict.passed:
            violations += 1
    return {"trials": trials, "violations": violations, "max_violation": worst,
            "passed": violations == 0}


def _protocol_net_and_data(seed: int, n_per_class: int = 60, hidden: int = 16):
    data = gen_dataset("gaussian_blobs", n=3 * n_per_class, d=16, num_classes=3,
                       seed=seed, noise=0.08)
    net = MLP.init([16, hidden, 3], activation="tanh", seed=seed)
    # gradients are summed over the batch, so the step scales with its size
    sgd_warmup(net, data, epochs=15, lr=0.002, batch_size=32, seed=seed)
    return net, data


def audit_weyl_augmentation(rounds: int, seed: int) -> dict:
    """Real augmentation rounds at 16/255 on a trained tanh net: the same
    zero-violation requirement on the measured derivative-matrix
    perturbations. ``shift_over_e_norm`` reports, over the indices, the
    median and the largest mean of |sigma_aug_i - sigma_i| / ||E||_2 across
    rounds; the shift model puts every index at 1/2."""
    net, data = _protocol_net_and_data(seed)
    spec = TransformSpec(kind="uniform_ball", epsilon0=16.0 / 255.0, r=1, seed=seed)
    jac = jacobian(net, data.features)
    sigma = singular_values(jac)
    sigma_aug = np.empty((rounds, sigma.size))
    e_norms = np.empty(rounds)
    for rnd in range(rounds):
        j_aug = augmented_jacobian(net, data.features, spec, rnd)
        sigma_aug[rnd] = singular_values(j_aug)
        e_norms[rnd] = spectral_norm(j_aug - jac)
    verdicts = [weyl_check(sigma, s1, e) for s1, e in zip(sigma_aug, e_norms)]
    violations = sum(not v.passed for v in verdicts)
    ratio = (np.abs(sigma_aug - sigma) / e_norms[:, None]).mean(axis=0)
    return {"rounds": rounds,
            "violations": violations,
            "max_violation": max((v.max_violation for v in verdicts), default=-np.inf),
            "shift_over_e_norm": {"median": float(np.median(ratio)),
                                  "max": float(ratio.max())},
            "passed": violations == 0}


def audit_shift_model(draws: int, seed: int) -> dict:
    """Model-consistent Monte Carlo for the expected eigenvalue shift on a
    random 10 x 20 derivative matrix. Each index gives a z-score, (empirical
    - closed form) / standard error; the verdict ``passed`` is one
    chi-square test of their squared sum against
    ``SHIFT_MODEL_CHI2_CRITICAL``. ``all_within_3se`` and
    ``worst_se_units`` report the per-index view, whose ten 3-SE tests
    would fail ~2.7% of runs."""
    rng = np.random.default_rng(seed)
    J = rng.standard_normal((10, 20))
    sigma = singular_values(J)
    p = rng.uniform(0.0, 1.0, size=sigma.size)
    e_norm = float(rng.uniform(0.1, 1.0))
    report = expected_shift_model_check(sigma, p, e_norm, draws=draws, seed=seed + 1)
    z = report.z.tolist()
    chi2 = sum(v * v for v in z)
    return {
        "draws": draws,
        "indices": len(z),
        "all_within_3se": report.all_within_3se,
        "worst_se_units": max(abs(v) for v in z),
        "chi2": chi2,
        "chi2_critical": SHIFT_MODEL_CHI2_CRITICAL,
        "passed": chi2 <= SHIFT_MODEL_CHI2_CRITICAL,
    }


def audit_vector_bound(trials: int, seed: int) -> dict:
    """Random perturbations scaled around the gap condition: the singular
    vector deviation bound must hold whenever the gap condition does. Unmet
    preconditions are skips, never asserted; a battery of skips fails."""
    rng = np.random.default_rng(seed)
    checked = skipped = failures = 0
    for _ in range(trials):
        rows = int(rng.integers(6, 16))
        cols = int(rng.integers(rows, 25))
        J = rng.standard_normal((rows, cols))
        gap = eigengap(singular_values(J))
        E = rng.standard_normal((rows, cols))
        # scales past 1.0 deliberately break the gap condition so that the
        # skip path is exercised alongside the asserted cases
        target = float(rng.uniform(0.05, 1.3)) * gap / 2.0
        E *= target / spectral_norm(E)
        report = singular_vector_bound_check(J, E)
        if report.skipped:
            skipped += 1
            continue
        checked += 1
        if not report.passed:
            failures += 1
    return {"trials": trials, "checked": checked, "skipped": skipped,
            "failures": failures, "passed": failures == 0 and checked >= 1}


def audit_ntk_bound(instances: int, seed: int) -> dict:
    """Small-net coreset kernel bound with the measured alignment error."""
    rng = np.random.default_rng(seed)
    failures = 0
    min_margin = np.inf
    for i in range(instances):
        n = int(rng.integers(12, 40))
        d = int(rng.integers(3, 8))
        C = int(rng.integers(2, 4))
        n -= n % C
        data = Dataset(rng.uniform(0.0, 1.0, size=(n, d)),
                       np.arange(n) % C, C)
        net = MLP.init([d, int(rng.integers(4, 10)), C], seed=int(rng.integers(1 << 30)))
        proxies = gradient_proxy(net, data, "last_layer")
        config = SelectionConfig(stop="fixed_size",
                                 fraction=float(rng.uniform(0.2, 0.6)),
                                 engine="lazy")
        coreset = select_all_classes(proxies, config)
        verdict = coreset_ntk_bound_check(net, data, coreset)
        min_margin = min(min_margin, verdict.margin)
        if not verdict.passed:
            failures += 1
    return {"instances": instances, "failures": failures, "min_margin": min_margin,
            "passed": failures == 0}


def audit_linear_bounds(instances: int, seed: int) -> dict:
    """Common-linear-transform gradient bounds on random coverage-weighted picks."""
    rng = np.random.default_rng(seed)
    subset_failures = combined_failures = 0
    for _ in range(instances):
        n = int(rng.integers(10, 50))
        d = int(rng.integers(2, 10))
        C = int(rng.integers(1, 4))
        X = rng.uniform(0.0, 1.0, size=(n, d))
        W = rng.standard_normal((d, C))
        Y = one_hot(rng.integers(0, C, size=n), C)
        F = np.eye(d) + 0.2 * rng.standard_normal((d, d))
        k = int(rng.integers(1, max(2, n // 2)))
        idx = np.sort(rng.choice(n, size=k, replace=False))
        report = linear_transform_bound_check(W, X, Y, F, idx)
        if report.subset_lhs > report.subset_bound + 1e-9:
            subset_failures += 1
        if report.combined_lhs > report.combined_bound + 1e-9:
            combined_failures += 1
    return {"instances": instances, "subset_failures": subset_failures,
            "combined_failures": combined_failures,
            "passed": subset_failures == 0 and combined_failures == 0}


class Battery(NamedTuple):
    """One ``bounds`` battery: its audit ``(size, seed) -> dict``, the flag
    that sets its size, that flag's default, and the size's domain. An
    empty battery would pass vacuously and write infinite or NaN extremes,
    so every size is at least 1; the shift model's draws take
    ``expected_shift_model_check``'s own floor of 100."""

    audit: Callable[[int, int], dict]
    flag: str
    default: int
    domain: Domain


# Every battery ``bounds`` runs, keyed by its ``bounds.json`` name, in the
# order of its flags. Each audit is called through its module name, so a
# wrapper installed on that name (a tracer) sees the call.
BATTERIES = {
    "weyl_random": Battery(lambda n, seed: audit_weyl_random(n, seed),
                           "--weyl-trials", 1000, AT_LEAST_1),
    "shift_model": Battery(lambda n, seed: audit_shift_model(n, seed),
                           "--shift-draws", 1000, AT_LEAST_100),
    "vector_bound": Battery(lambda n, seed: audit_vector_bound(n, seed),
                            "--vector-trials", 200, AT_LEAST_1),
    "ntk_bound": Battery(lambda n, seed: audit_ntk_bound(n, seed),
                         "--ntk-instances", 100, AT_LEAST_1),
    "linear_bounds": Battery(lambda n, seed: audit_linear_bounds(n, seed),
                             "--linear-instances", 100, AT_LEAST_1),
    "weyl_augmentation": Battery(lambda n, seed: audit_weyl_augmentation(n, seed),
                                 "--augmentation-rounds", 20, AT_LEAST_1),
}


def run_bounds_suite(seed: int, sizes: dict) -> dict:
    """Every battery of ``BATTERIES`` at ``sizes[name]``, keyed by name;
    each carries its verdict as ``passed``. A size outside its battery's
    domain raises ``ValueError`` naming the battery before any audit runs."""
    for name, battery in BATTERIES.items():
        battery.domain.check(name, sizes[name])
    return {name: battery.audit(sizes[name], seed) for name, battery in BATTERIES.items()}


def spectrum_protocol() -> list:
    """Per seed, a 16-20-3 tanh net warmed up on 300 blobs and paired with one
    augmented round at 8/255 and at 16/255. Returns ``(seed, epsilon0,
    SpectrumReport)`` triples in that order."""
    triples = []
    for seed in PROTOCOL_SEEDS:
        net, data = _protocol_net_and_data(seed, n_per_class=100, hidden=20)
        triples += [(seed, eps, report) for eps, report in budget_spectra(
            net, data.features, (8.0 / 255.0, 16.0 / 255.0), seed=seed)]
    return triples


def subset_split():
    """The subset benchmark's instance: 900 noisy blobs split into 600
    training rows and 300 test rows."""
    full = gen_dataset("gaussian_blobs", 900, 8, 3, seed=100, noise=0.25,
                       margin=0.35)
    return split_dataset(full, 1.0 / 3.0, seed=0)


def subset_benchmark() -> dict:
    """Train on 10% per-class subsets of ``subset_split()`` under three arms
    (coreset + augmentation, random subset + augmentation, coreset without
    augmentation). Returns, per arm, the final test accuracy of each seed."""
    tr, te = subset_split()
    arms = {"coreset+aug": ("ours", 16.0 / 255.0),
            "random+aug": ("random", 16.0 / 255.0),
            "coreset-noaug": ("ours", 0.0)}
    accs = {}
    for name, (baseline, eps) in arms.items():
        accs[name] = []
        for seed in PROTOCOL_SEEDS:
            cfg = TrainConfig(
                regime="coreset_only",
                selection=SelectionConfig(stop="fixed_size", fraction=0.1),
                transform=TransformSpec(kind="uniform_ball", epsilon0=eps, r=1,
                                        seed=seed),
                refresh_r=1, epochs=90, lr=LrSchedule(0.001, (60,), 0.1),
                batch_size=16, seed=seed, baseline=baseline,
                hidden_sizes=(32,), activation="relu",
            )
            accs[name].append(train(cfg, tr, te).rows[-1].test_acc)
    return accs


def noise_robustness() -> dict:
    """Flip 30% of 600 blob labels, warm a tanh net up on the noisy data, and
    select 10% per class by coreset, by largest loss and at random. Returns,
    per selector, the flipped fraction of each seed's selection."""
    data = gen_dataset("gaussian_blobs", 600, 8, 3, seed=50, noise=0.10)
    fractions = {"coreset": [], "max_loss": [], "random": []}
    for seed in PROTOCOL_SEEDS:
        noisy = inject_label_noise(data, 0.30, seed=seed)
        net = MLP.init([8, 16, 3], activation="tanh", seed=seed)
        sgd_warmup(net, noisy, epochs=15, lr=0.002, batch_size=32, seed=seed)
        picks = {
            "coreset": select_all_classes(
                gradient_proxy(net, noisy, "last_layer"),
                SelectionConfig(stop="fixed_size", fraction=0.1)).indices,
            "max_loss": max_loss_subset(example_losses(net, noisy), None,
                                        noisy.labels, fraction=0.1).indices,
            "random": random_subset(None, noisy.labels, seed=seed,
                                    fraction=0.1).indices,
        }
        # a flip always changes the label, so the flipped rows are those
        # whose labels differ
        for name, indices in picks.items():
            fractions[name].append(float(np.mean(noisy.labels[indices]
                                                 != data.labels[indices])))
    return fractions
