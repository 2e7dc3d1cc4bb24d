"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk-scale instances are pinned (data seeds, net seeds, budgets), so every
number here reproduces bit for bit across runs.
"""

import dataclasses
import itertools
import json
import math
import time

import numpy as np

from coreaug.audits import (
    audit_linear_bounds,
    audit_ntk_bound,
    audit_shift_model,
    audit_vector_bound,
    audit_weyl_augmentation,
    audit_weyl_random,
    noise_robustness,
    spectrum_protocol,
    subset_benchmark,
    subset_split,
)
from coreaug.augment import TransformSpec
from coreaug.cli import main as cli_main
from coreaug.coreset import (
    SelectionConfig,
    alignment_error,
    compute_weights,
    facility_location_objective,
    g_frobenius,
    greedy_select,
    lazy_greedy_select,
    pairwise_distances,
    select_all_classes,
    stochastic_greedy_select,
)
from coreaug.data import gen_dataset, save_dataset_csv
from coreaug.linalg import spectral_norm
from coreaug.model import (
    Dataset,
    GradientProxySet,
    MLP,
    jacobian,
    per_example_gradients,
    weighted_gradient,
)
from coreaug.spectrum import (
    linear_transform_sgd_envelope,
    measure_pl_constants,
    pl_convergence_envelope,
    residual_dynamics_check,
)
from coreaug.trainer import (
    LrSchedule,
    TrainConfig,
    train,
    training,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_greedy_optimality_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    fl_fails = 0
    for _ in range(50):
        n = int(rng.integers(5, 13))
        k = min(int(rng.integers(1, 5)), n)
        D = pairwise_distances(rng.standard_normal((n, 3)))
        cap = float(D.max())
        res = greedy_select(D, SelectionConfig(stop="fixed_size", k_per_class=k))
        achieved = facility_location_objective(D, res.indices[:k], cap)
        optimum = max(facility_location_objective(D, list(S), cap)
                      for S in itertools.combinations(range(n), k))
        if achieved < (1.0 - 1.0 / math.e) * optimum - 1e-9:
            fl_fails += 1
    cover_fails = 0
    for _ in range(20):
        n = int(rng.integers(5, 11))
        D = pairwise_distances(rng.standard_normal((n, 2)))
        c1 = 2.0 * float(D.max())
        xi = 0.2 * math.sqrt(n) * c1
        res = greedy_select(D, SelectionConfig(stop="xi_threshold", xi=xi))
        min_cover = None
        for size in range(1, n + 1):
            if any(g_frobenius(D, list(S), c1) <= xi
                   for S in itertools.combinations(range(n), size)):
                min_cover = size
                break
        if len(res.indices) > (1.0 + math.log(n)) * min_cover + 1e-9:
            cover_fails += 1
    elapsed = time.monotonic() - t0
    report(1, fl_fails == 0 and cover_fails == 0 and elapsed < 5.0,
           f"fl_violations={fl_fails}/50 cover_violations={cover_fails}/20 "
           f"runtime={elapsed:.2f}s (<5s)")


def test_criterion_02_engine_equivalence():
    mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(seed + 7000)
        n = int(rng.integers(5, 201))
        k = max(1, int(round(0.15 * n)))
        D = pairwise_distances(rng.standard_normal((n, 4)))
        cfg = SelectionConfig(stop="fixed_size", k_per_class=k)
        naive = greedy_select(D, cfg)
        lazy = lazy_greedy_select(D, cfg)
        same = (naive.indices == lazy.indices and naive.trace == lazy.trace
                and np.array_equal(compute_weights(D, naive.indices),
                                   compute_weights(D, lazy.indices)))
        if not same:
            mismatches += 1
    rng = np.random.default_rng(2)
    D = pairwise_distances(rng.standard_normal((500, 4)))
    cap = float(D.max())
    naive_obj = facility_location_objective(
        D, greedy_select(D, SelectionConfig(stop="fixed_size", k_per_class=25)).indices,
        cap)
    objs = []
    for seed in range(20):
        cfg = SelectionConfig(stop="fixed_size", k_per_class=25,
                              engine="stochastic", seed=seed)
        objs.append(facility_location_objective(
            D, stochastic_greedy_select(D, cfg).indices, cap))
    ratio = float(np.mean(objs) / naive_obj)
    report(2, mismatches == 0 and ratio >= 0.95,
           f"lazy_mismatches={mismatches}/100 stochastic_ratio={ratio:.4f} (>=0.95)")


def test_criterion_03_weyl_audit():
    random_res = audit_weyl_random(trials=1000, seed=3)
    aug_res = audit_weyl_augmentation(rounds=20, seed=3)
    report(3, random_res["violations"] == 0 and aug_res["violations"] == 0,
           f"random_violations={random_res['violations']}/1000 "
           f"augmentation_violations={aug_res['violations']}/20 "
           f"worst_slack={max(random_res['max_violation'], aug_res['max_violation']):.2e}")


def test_criterion_04_spectrum_shape_reproduction():
    t0 = time.monotonic()
    epsilons = (8.0 / 255.0, 16.0 / 255.0)
    shape_hits = {eps: 0 for eps in epsilons}
    e_frob = {eps: [] for eps in epsilons}
    for _, eps, rep in spectrum_protocol():
        shape_hits[eps] += int(rep.shape_reproduced)
        e_frob[eps].append(rep.e_norm_frobenius)
    bigger_everywhere = all(b > a for a, b in zip(e_frob[epsilons[0]],
                                                  e_frob[epsilons[1]]))
    elapsed = time.monotonic() - t0
    ok = (all(shape_hits[eps] >= 4 for eps in epsilons)
          and bigger_everywhere and elapsed < 120.0)
    report(4, ok,
           f"shape_hits={{8/255: {shape_hits[epsilons[0]]}/5, "
           f"16/255: {shape_hits[epsilons[1]]}/5}} (>=4/5 each) "
           f"larger_budget_larger_E={bigger_everywhere} runtime={elapsed:.1f}s (<120s)")


def test_criterion_05_shift_model_exactness():
    res = audit_shift_model(draws=1000, seed=5)
    report(5, res["all_within_3se"] and res["indices"] == 10,
           f"all {res['indices']} indices within 3 SE "
           f"(worst {res['worst_se_units']:.2f} SE, 1000 draws)")


def test_criterion_06_vector_bound():
    res = audit_vector_bound(trials=200, seed=6)
    ok = res["failures"] == 0 and res["checked"] > 0 and res["skipped"] > 0
    report(6, ok,
           f"checked={res['checked']} skipped={res['skipped']} "
           f"failures={res['failures']} (bound asserted only when the gap "
           f"condition holds)")


def test_criterion_07_alignment_audit():
    bound_failures = 0
    chain_bound_failures = 0
    measured_monotone = 0
    for seed in range(100):
        rng = np.random.default_rng(seed + 11_000)
        n = int(rng.integers(12, 60))
        pts = rng.standard_normal((n, int(rng.integers(2, 6))))
        proxies = GradientProxySet(pts, np.zeros(n, dtype=int), 1)
        errors, bounds = [], []
        for k in (max(1, n // 8), max(2, n // 4), max(4, n // 2)):
            coreset = select_all_classes(
                proxies, SelectionConfig(stop="fixed_size", k_per_class=k))
            rep = alignment_error(proxies, coreset)
            if rep.error_total > rep.bound_total + 1e-9:
                bound_failures += 1
            errors.append(rep.error_total)
            bounds.append(rep.bound_total)
        if not (bounds[1] <= bounds[0] + 1e-9 and bounds[2] <= bounds[1] + 1e-9):
            chain_bound_failures += 1
        if errors[1] <= errors[0] + 1e-9 and errors[2] <= errors[1] + 1e-9:
            measured_monotone += 1
    ok = bound_failures == 0 and chain_bound_failures == 0
    report(7, ok,
           f"bound_violations={bound_failures}/300 "
           f"chain_bound_violations={chain_bound_failures}/100 "
           f"(coverage-derived error bound nonincreasing on every chain; "
           f"measured error itself monotone on {measured_monotone}/100 chains, "
           f"informational)")


def _pl_instance():
    rng = np.random.default_rng(9)
    n, d, C = 60, 6, 2
    X = np.clip(0.5 + 0.02 * rng.standard_normal((n, d)), 0.0, 1.0)
    return Dataset(X, np.arange(n) % C, C)


def test_criterion_08_pl_envelope():
    data = _pl_instance()
    n = data.n
    eps0 = 8.0 / 255.0
    cfg = TrainConfig(
        regime="full_plus_coreset_aug",
        selection=SelectionConfig(stop="fixed_size", fraction=0.2),
        transform=TransformSpec(kind="uniform_ball", epsilon0=eps0, r=1, seed=5),
        refresh_r=10_000, epochs=200,
        lr=LrSchedule(1.0), batch_size=4096, seed=7, hidden_sizes=(),
    )
    # the first refresh of the run, before any step: it does not depend on the lr
    first = next(training(cfg, data, data))
    net0, pool, indices, gamma = first.net, first.pool, first.indices, first.weights
    alpha, lam, beta = measure_pl_constants(net0, pool.X, pool.w)
    eta = alpha / (lam * beta)
    grads = per_example_gradients(net0, data)
    xi = float(np.linalg.norm(
        grads.sum(axis=0) - (grads[indices] * gamma[:, None]).sum(axis=0)))
    # linear net: exact constants sqrt(C) for J and ||W||_2 for f
    l_bar = max(math.sqrt(data.num_classes), spectral_norm(net0.weights[0]))
    sigma_max = float(np.linalg.svd(jacobian(net0, data.features[indices]),
                                    compute_uv=False)[0])
    slack = (sigma_max * l_bar * math.sqrt(n) * eps0
             + sigma_max * n * eps0**2
             + math.sqrt(2 * n) * l_bar * eps0)
    g0 = float(np.linalg.norm(weighted_gradient(net0, pool.X, pool.Y, pool.w)))
    record = train(dataclasses.replace(cfg, lr=LrSchedule(eta)), data, data)
    below = all(
        row.grad_norm <= pl_convergence_envelope(alpha, eta, 2.0 * g0 + xi + slack, t)
        for t, row in enumerate(record.rows, start=1))
    # linear-transform analog on its own pinned instance
    rng = np.random.default_rng(27)
    Xl = np.clip(0.5 + 0.02 * rng.standard_normal((30, 4)), 0.0, 1.0)
    W0 = 0.1 * rng.standard_normal((4, 2))
    Yl = np.zeros((30, 2))
    Yl[np.arange(30), rng.integers(0, 2, 30)] = 1.0
    F = np.eye(4) + 0.05 * rng.standard_normal((4, 4))
    idx = np.sort(rng.choice(30, size=8, replace=False))
    grads_l = np.einsum("nd,nc->ndc", Xl, Xl @ W0 - Yl).reshape(30, -1)
    gamma_l = compute_weights(pairwise_distances(grads_l), list(idx))
    linear_rep = linear_transform_sgd_envelope(W0, Xl, Yl, F, idx, gamma_l,
                                               steps=200)
    ok = alpha < 1.0 and below and linear_rep.passed and linear_rep.alpha < 1.0
    report(8, ok,
           f"alpha={alpha:.3e} eta={eta:.3e} xi={xi:.3f} slack={slack:.3f} "
           f"trajectory below envelope for all t<=200: {below}; "
           f"linear-transform analog passed={linear_rep.passed}")


def test_criterion_09_constant_kernel_dynamics():
    rng = np.random.default_rng(20)
    lin_data = Dataset(rng.uniform(0, 1, (12, 5)), rng.integers(0, 2, 12), 2)
    lin_net = MLP.init([5, 2], seed=3)
    lam = np.linalg.svd(jacobian(lin_net, lin_data.features),
                        compute_uv=False)[0] ** 2
    lin = residual_dynamics_check(lin_net, lin_data, eta=0.5 / lam, steps=30)
    data = gen_dataset("gaussian_blobs", 60, 8, 3, seed=0, noise=0.08)
    wide_net = MLP.init([8, 512, 3], activation="tanh", seed=0)
    lam_w = np.linalg.svd(jacobian(wide_net, data.features),
                          compute_uv=False)[0] ** 2
    wide = residual_dynamics_check(wide_net, data, eta=0.5 / lam_w, steps=20)
    ok = (lin.max_relative_deviation <= 1e-8
          and wide.max_relative_deviation <= 0.10)
    report(9, ok,
           f"linear_max_rel_dev={lin.max_relative_deviation:.2e} (<=1e-8) "
           f"width512_max_rel_dev={wide.max_relative_deviation:.4f} "
           f"(<=0.10, engineering threshold)")


def test_criterion_10_subset_training_analog():
    assert subset_split()[0].n == 600
    accs = subset_benchmark()
    ours_aug = float(np.mean(accs["coreset+aug"]))
    random_aug = float(np.mean(accs["random+aug"]))
    ours_plain = float(np.mean(accs["coreset-noaug"]))
    ok = ours_aug >= random_aug and ours_aug >= ours_plain and random_aug >= ours_plain
    report(10, ok,
           f"mean test acc over 5 seeds: coreset+aug={ours_aug:.4f} >= "
           f"random+aug={random_aug:.4f} >= coreset-no-aug={ours_plain:.4f}")


def test_criterion_11_label_noise_selection():
    noisy = noise_robustness()
    fractions = list(zip(noisy["coreset"], noisy["max_loss"]))
    wins = sum(int(ours < max_loss) for ours, max_loss in fractions)
    report(11, wins >= 4,
           f"coreset noisy fraction below max-loss in {wins}/5 seeds (>=4); "
           f"pairs={[(round(a, 3), round(b, 3)) for a, b in fractions]}")


def test_criterion_12_inequality_audits():
    ntk = audit_ntk_bound(instances=100, seed=12)
    linear = audit_linear_bounds(instances=100, seed=12)
    ok = (ntk["failures"] == 0 and linear["subset_failures"] == 0
          and linear["combined_failures"] == 0)
    report(12, ok,
           f"coreset-kernel bound failures={ntk['failures']}/100 "
           f"(min margin {ntk['min_margin']:.3f}); linear-transform bound "
           f"failures={linear['subset_failures']}+{linear['combined_failures']}/100")


def _mask_timing_column(text: str) -> str:
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[6] = "MASKED"
        out.append(",".join(parts))
    return "\n".join(out)


def test_criterion_13_reproducibility(tmp_path):
    data_path = tmp_path / "data.csv"
    save_dataset_csv(gen_dataset("gaussian_blobs", 60, 4, 3, seed=13, noise=0.07),
                     data_path)
    args = ["train", "--data", str(data_path), "--epochs", "3",
            "--fraction", "0.2", "--hidden", "6", "--batch-size", "16",
            "--seeds", "1,2"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    identical = []
    for name in ("run_seed1.csv", "run_seed2.csv"):
        a = _mask_timing_column((out_a / name).read_text())
        b = _mask_timing_column((out_b / name).read_text())
        identical.append(a == b)
    identical.append((out_a / "aggregate.json").read_bytes()
                     == (out_b / "aggregate.json").read_bytes())
    man_a = json.loads((out_a / "manifest.json").read_text())
    man_b = json.loads((out_b / "manifest.json").read_text())
    man_a.pop("timings_ms")
    man_b.pop("timings_ms")
    identical.append(man_a == man_b)
    sel_a, sel_b = tmp_path / "sa", tmp_path / "sb"
    sel_args = ["select", "--data", str(data_path), "--fraction", "0.25"]
    assert cli_main(sel_args + ["--out", str(sel_a)]) == 0
    assert cli_main(sel_args + ["--out", str(sel_b)]) == 0
    identical.append((sel_a / "coreset.json").read_bytes()
                     == (sel_b / "coreset.json").read_bytes())
    report(13, all(identical),
           "re-runs reproduce every emitted number byte for byte "
           "(wall-clock timing fields excluded); "
           f"checks={identical}")
