"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion calls the ``coreaug.audits`` function that ``bounds`` or
``experiment`` runs, and keeps only its thresholds here. The desk-scale
instances are pinned there (data seeds, net seeds, budgets), so every number
reproduces bit for bit across runs.
"""

import json
import time

import numpy as np

from coreaug.audits import (
    alignment_chains,
    audit_linear_bounds,
    audit_ntk_bound,
    audit_shift_model,
    audit_vector_bound,
    audit_weyl_augmentation,
    audit_weyl_random,
    engine_equivalence,
    greedy_oracles,
    kernel_dynamics,
    noise_robustness,
    pl_envelope,
    spectrum_protocol,
    subset_benchmark,
    subset_split,
)
from coreaug.cli import main as cli_main
from coreaug.data import gen_dataset, save_dataset_csv


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_greedy_optimality_oracles():
    t0 = time.monotonic()
    res = greedy_oracles()
    elapsed = time.monotonic() - t0
    report(1, res["fl_violations"] == 0 and res["cover_violations"] == 0 and elapsed < 5.0,
           f"fl_violations={res['fl_violations']}/{res['fl_instances']} "
           f"cover_violations={res['cover_violations']}/{res['cover_instances']} "
           f"runtime={elapsed:.2f}s (<5s)")


def test_criterion_02_engine_equivalence():
    res = engine_equivalence()
    report(2, res["lazy_mismatches"] == 0 and res["stochastic_ratio"] >= 0.95,
           f"lazy_mismatches={res['lazy_mismatches']}/{res['instances']} "
           f"stochastic_ratio={res['stochastic_ratio']:.4f} (>=0.95)")


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
    for entry in spectrum_protocol():
        shape_hits[entry["epsilon0"]] += int(entry["shape_reproduced"])
        e_frob[entry["epsilon0"]].append(entry["e_norm_frobenius"])
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
    res = alignment_chains()
    ok = res["bound_violations"] == 0 and res["chain_bound_violations"] == 0
    report(7, ok,
           f"bound_violations={res['bound_violations']}/{res['bound_checks']} "
           f"chain_bound_violations={res['chain_bound_violations']}/{res['chains']} "
           f"(coverage-derived error bound nonincreasing on every chain; "
           f"measured error itself monotone on {res['measured_monotone']}/{res['chains']} "
           f"chains, informational)")


def test_criterion_08_pl_envelope():
    res = pl_envelope()
    ok = (res["alpha"] < 1.0 and res["below_envelope"] and res["linear_passed"]
          and res["linear_alpha"] < 1.0)
    report(8, ok,
           f"alpha={res['alpha']:.3e} eta={res['eta']:.3e} xi={res['xi']:.3f} "
           f"slack={res['slack']:.3f} trajectory below envelope for all t<=200: "
           f"{res['below_envelope']}; linear-transform analog passed={res['linear_passed']}")


def test_criterion_09_constant_kernel_dynamics():
    res = kernel_dynamics()
    ok = res["linear_max_rel_dev"] <= 1e-8 and res["width512_max_rel_dev"] <= 0.10
    report(9, ok,
           f"linear_max_rel_dev={res['linear_max_rel_dev']:.2e} (<=1e-8) "
           f"width512_max_rel_dev={res['width512_max_rel_dev']:.4f} "
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
