"""The four benchmark workloads: set-up, timed region and per-op checks.

Each workload is a closed loop with one client: one pass runs the whole
workload once, in order, in one fresh interpreter. ``--seed`` shifts every
data, split, net and selection seed, except the seed of the ``bounds`` suite
(see ``spectrum_audit_run``); seed 0 gives the pinned values below.

Every call into the program goes through a module attribute
(``coreaug.cli.main``, ``coreaug.trainer.train`` and so on) so that the tracer
in ``tracing.py`` sees it.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import coreaug.audits
import coreaug.augment
import coreaug.cli
import coreaug.coreset
import coreaug.data
import coreaug.model
import coreaug.spectrum
import coreaug.trainer

# Input sizes per scale. "full" is the benchmark; "tiny" only feeds the
# benchmark's self-tests.
SIZES = {
    "subset_train": {
        "full": {"n": 900, "epochs": 90, "decay": 60, "net_seeds": 5},
        "tiny": {"n": 90, "epochs": 6, "decay": 4, "net_seeds": 2},
    },
    "select_large": {
        "full": {"big": 9000, "mid": 3000},
        "tiny": {"big": 900, "mid": 300},
    },
    "full_train": {
        "full": {"n": 2400, "epochs": 200, "refresh": 100},
        "tiny": {"n": 240, "epochs": 10, "refresh": 5},
    },
    "spectrum_audit": {
        "full": {"n": 600, "train_epochs": 15, "per_class_cap": 300, "bounds": [],
                 "protocol_n": 300, "protocol_seeds": 5, "protocol_epochs": 15},
        "tiny": {"n": 60, "train_epochs": 2, "per_class_cap": 20,
                 "bounds": ["--weyl-trials", "20", "--shift-draws", "100",
                            "--vector-trials", "10", "--ntk-instances", "3",
                            "--linear-instances", "5", "--augmentation-rounds", "2"],
                 "protocol_n": 60, "protocol_seeds": 2, "protocol_epochs": 2},
    },
}

EPS_16 = 16.0 / 255.0


class Pass:
    """State of one pass: its inputs, what it observed, and its op results."""

    def __init__(self, workload: str, seed: int, scale: str, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.size = SIZES[workload][scale]
        self.workdir = workdir
        self.inputs = hashlib.sha256()
        self.outputs = hashlib.sha256()
        self.ops: list[dict] = []
        self.info: dict = {}
        self.records: list = []
        self.coresets: list = []
        self.state: dict = {}

    # observers, called with (args, kwargs, result) of the wrapped function
    def observe_train(self, args, kwargs, result) -> None:
        self.records.append(result)

    def observe_selection(self, args, kwargs, result) -> None:
        labels = args[0].labels
        sizes = np.bincount(labels, minlength=args[0].num_classes)
        self.coresets.append((result, {c: int(n) for c, n in enumerate(sizes)}))

    def observers(self) -> dict:
        return {"trainer.train": [self.observe_train],
                "coreset.select_all_classes": [self.observe_selection]}

    def op(self, name: str, problems: list[str]) -> None:
        self.ops.append({"op": name, "ok": not problems, "problems": problems[:5]})

    def write_input(self, data, name: str) -> Path:
        path = self.workdir / name
        coreaug.data.save_dataset_csv(data, path)
        self.inputs.update(path.read_bytes())
        return path

    def hash_output(self, payload) -> None:
        self.outputs.update(payload if isinstance(payload, bytes)
                            else json.dumps(payload, sort_keys=True).encode())


def _blobs(n: int, d: int, seed: int, **kw):
    return coreaug.data.gen_dataset("gaussian_blobs", n, d, 3, seed=seed, **kw)


def _k(fraction: float, n_c: int) -> int:
    return max(1, int(round(fraction * n_c)))


def _check_record(record, labels: np.ndarray, fraction: float) -> list[str]:
    """Every row finite; every refresh picks k distinct rows per class."""
    problems = []
    for row in record.rows:
        values = (row.train_loss, row.test_loss, row.test_acc, row.grad_norm,
                  row.selection_ms)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"epoch {row.epoch}: non-finite row {values}")
    sizes = np.bincount(labels)
    want = np.array([_k(fraction, int(n)) for n in sizes])
    for epoch, indices in record.selection_events:
        if np.unique(indices).size != len(indices):
            problems.append(f"epoch {epoch}: repeated picks")
        got = np.bincount(labels[indices], minlength=sizes.size)
        if not np.array_equal(got, want):
            problems.append(f"epoch {epoch}: picks per class {got.tolist()} != {want.tolist()}")
    return problems


def _check_coresets(coresets, fraction: float) -> list[str]:
    problems = []
    for coreset, sizes in coresets:
        try:
            coreset.validate(sizes)
        except ValueError as exc:
            problems.append(f"validate: {exc}")
        for c in coreset.classes:
            if len(c.indices) != _k(fraction, sizes[c.label]):
                problems.append(f"class {c.label}: {len(c.indices)} picks")
    return problems


def _record_digest(record) -> list:
    # selection_ms is wall-clock time, the only column that is not reproducible
    return [[r.epoch, r.train_loss, r.test_loss, r.test_acc, r.grad_norm,
             r.refreshed, r.points_touched] for r in record.rows]


# --- subset_train: the criterion-10 protocol through trainer.train ---------

SUBSET_ARMS = (("coreset+aug", "ours", EPS_16), ("random+aug", "random", EPS_16),
               ("coreset-no-aug", "ours", 0.0))


def subset_train_setup(p: Pass) -> None:
    s = p.size
    full = _blobs(s["n"], 8, 100 + p.seed, noise=0.25, margin=0.35)
    tr, te = coreaug.data.split_dataset(full, 1.0 / 3.0, seed=p.seed)
    p.inputs.update(tr.features.tobytes() + tr.labels.tobytes() + te.features.tobytes())
    p.state.update(train=tr, test=te)


def subset_train_run(p: Pass) -> None:
    s = p.size
    tr, te = p.state["train"], p.state["test"]
    results = []
    for arm, baseline, eps in SUBSET_ARMS:
        for net_seed in range(p.seed, p.seed + s["net_seeds"]):
            cfg = coreaug.trainer.TrainConfig(
                regime="coreset_only",
                selection=coreaug.coreset.SelectionConfig(stop="fixed_size", fraction=0.1),
                transform=coreaug.augment.TransformSpec(kind="uniform_ball", epsilon0=eps,
                                                        r=1, seed=net_seed),
                refresh_r=1, epochs=s["epochs"],
                lr=coreaug.trainer.LrSchedule(0.001, (s["decay"],), 0.1),
                batch_size=16, seed=net_seed, baseline=baseline,
                hidden_sizes=(32,), activation="relu")
            results.append((arm, net_seed, coreaug.trainer.train(cfg, tr, te)))
    p.state["results"] = results


def subset_train_check(p: Pass) -> None:
    labels = p.state["train"].labels
    accs: dict[str, list[float]] = {}
    for arm, net_seed, record in p.state["results"]:
        p.op(f"train {arm} seed {net_seed}", _check_record(record, labels, 0.1))
        accs.setdefault(arm, []).append(record.rows[-1].test_acc)
        p.hash_output(_record_digest(record))
    p.op("selections validate", _check_coresets(p.coresets, 0.1))
    mean = {arm: float(np.mean(v)) for arm, v in accs.items()}
    p.info["criterion10_mean_acc"] = mean
    p.info["criterion10_ordering_holds"] = bool(
        mean["coreset+aug"] >= mean["random+aug"] >= mean["coreset-no-aug"])


# --- select_large: the README select command at n_c = 3000 and 1000 --------

SELECT_RUNS = (("big", "lazy"), ("big", "stochastic"), ("mid", "naive"), ("mid", "lazy"))


def select_large_setup(p: Pass) -> None:
    s = p.size
    p.state["big"] = p.write_input(_blobs(s["big"], 16, 200 + p.seed), "big.csv")
    p.state["mid"] = p.write_input(_blobs(s["mid"], 16, 300 + p.seed), "mid.csv")


def select_large_run(p: Pass) -> None:
    codes = []
    for data, engine in SELECT_RUNS:
        out = p.workdir / f"select_{data}_{engine}"
        codes.append(coreaug.cli.main([
            "select", "--data", str(p.state[data]), "--fraction", "0.1",
            "--engine", engine, "--proxy-mode", "last_layer",
            "--seed", str(p.seed), "--net-seed", str(p.seed), "--out", str(out)]))
    p.state["codes"] = codes


def select_large_check(p: Pass) -> None:
    picked = {}
    for (data, engine), code, (coreset, sizes) in zip(SELECT_RUNS, p.state["codes"],
                                                      p.coresets):
        problems = [] if code == 0 else [f"exit code {code}"]
        problems += _check_coresets([(coreset, sizes)], 0.1)
        path = p.workdir / f"select_{data}_{engine}" / "coreset.json"
        written = json.loads(path.read_text(encoding="utf-8"))
        if written != coreset.to_json_dict():
            problems.append("coreset.json differs from the returned selection")
        picked[data, engine] = [c["indices"] for c in written["classes"]]
        p.hash_output(path.read_bytes())
        p.op(f"select {engine} {data}", problems)
    if len(p.coresets) != len(SELECT_RUNS):
        p.op("selections observed", [f"{len(p.coresets)} selections"])
    same = picked[("mid", "naive")] == picked[("mid", "lazy")]
    p.op("naive equals lazy", [] if same else ["naive and lazy indices differ"])


# --- full_train: the README train command, weighted SGD dominated ----------

def full_train_setup(p: Pass) -> None:
    p.state["csv"] = p.write_input(_blobs(p.size["n"], 16, 400 + p.seed), "train.csv")


def full_train_run(p: Pass) -> None:
    s = p.size
    p.state["out"] = out = p.workdir / "train"
    p.state["seeds"] = seeds = [p.seed + 1, p.seed + 2]
    p.state["code"] = coreaug.cli.main([
        "train", "--data", str(p.state["csv"]), "--holdout", "0.25",
        "--split-seed", str(p.seed), "--regime", "full_plus_coreset_aug",
        "--baseline", "ours", "--fraction", "0.1", "--refresh-r", str(s["refresh"]),
        "--epochs", str(s["epochs"]), "--epsilon0", "0.0627", "--r", "2",
        "--hidden", "64", "--batch-size", "32", "--lr", "0.005",
        "--seed", str(p.seed), "--seeds", ",".join(map(str, seeds)), "--out", str(out)])


def full_train_check(p: Pass) -> None:
    code = p.state["code"]
    problems = [] if code == 0 else [f"exit code {code}"]
    train_labels = None
    if code == 0:
        full = coreaug.data.load_dataset_csv(p.state["csv"])
        train_labels = coreaug.data.split_dataset(full, 0.25, seed=p.seed)[0].labels
    for seed, record in zip(p.state["seeds"], p.records):
        if train_labels is not None:
            problems += _check_record(record, train_labels, 0.1)
        lines = (p.state["out"] / f"run_seed{seed}.csv").read_text().splitlines()[1:]
        for line in lines:
            if not all(math.isfinite(float(v)) for v in line.split(",")):
                problems.append(f"run_seed{seed}.csv: non-finite row {line}")
        p.hash_output(_record_digest(record))
    if len(p.records) != len(p.state["seeds"]):
        problems.append(f"{len(p.records)} training records for {len(p.state['seeds'])} seeds")
    problems += _check_coresets(p.coresets, 0.1)
    p.op("train full_plus_coreset_aug", problems)
    if code == 0:
        p.info["mean_test_acc"] = json.loads(
            (p.state["out"] / "aggregate.json").read_text())["mean_test_acc"]


# --- spectrum_audit: spectrum + bounds commands and the criterion-4 protocol

def spectrum_audit_setup(p: Pass) -> None:
    s = p.size
    p.state["csv"] = p.write_input(_blobs(s["n"], 16, 500 + p.seed), "spectrum.csv")
    protocol = []
    for seed in range(p.seed, p.seed + s["protocol_seeds"]):
        data = _blobs(s["protocol_n"], 16, seed, noise=0.08)
        p.inputs.update(data.features.tobytes())
        protocol.append((seed, data))
    p.state["protocol"] = protocol


def spectrum_audit_run(p: Pass) -> None:
    s = p.size
    spec_out = p.workdir / "spectrum"
    p.state["spectrum_code"] = coreaug.cli.main([
        "spectrum", "--data", str(p.state["csv"]), "--epsilon0", "0.0314", "0.0627",
        "--train-epochs", str(s["train_epochs"]), "--per-class-cap",
        str(s["per_class_cap"]), "--untrained", "--lr", "0.005",
        "--seed", str(p.seed), "--out", str(spec_out)])
    # The README bounds command at its defaults, seed 0 on every --seed: its
    # shift-model battery is a Monte-Carlo test at 3 standard errors on 10
    # indices, which fails on about 5% of suite seeds (6, 29 and 36 of 0-59)
    # with nothing wrong, and the command then exits 4.
    p.state["bounds_code"] = coreaug.cli.main([
        "bounds", *s["bounds"], "--out", str(p.workdir / "bounds")])
    reports = []
    for seed, data in p.state["protocol"]:
        net = coreaug.model.MLP.init([16, 20, 3], activation="tanh", seed=seed)
        coreaug.trainer.sgd_warmup(net, data, epochs=s["protocol_epochs"], lr=0.002,
                                   batch_size=32, seed=seed)
        jac = coreaug.model.jacobian(net, data.features)
        for eps in (8.0 / 255.0, EPS_16):
            spec = coreaug.augment.TransformSpec(kind="uniform_ball", epsilon0=eps,
                                                 r=1, seed=seed)
            x_aug = coreaug.augment.perturb(spec, data.features, round_index=0).features
            reports.append((seed, eps, coreaug.spectrum.spectrum_report(
                jac, coreaug.model.jacobian(net, x_aug))))
    p.state["reports"] = reports


def _shape_hit(report) -> bool:
    s_clean = np.sort(report.sigma_clean)
    rel = (np.sort(report.sigma_aug) - s_clean) / np.maximum(s_clean, 1e-12)
    decile = max(1, s_clean.size // 10)
    return bool(rel[:decile].mean() > rel[-decile:].mean()
                and report.bins[-1].mean_angle_rad < report.bins[0].mean_angle_rad)


def spectrum_audit_check(p: Pass) -> None:
    code = p.state["spectrum_code"]
    problems = [] if code == 0 else [f"exit code {code}"]
    reports = sorted((p.workdir / "spectrum").glob("spectrum_*.json"))
    if code == 0 and len(reports) != 4:
        problems.append(f"{len(reports)} spectrum reports, expected 4")
    for path in reports:
        if not json.loads(path.read_text())["weyl"]["passed"]:
            problems.append(f"{path.name}: Weyl check failed")
        p.hash_output(path.read_bytes())
    p.op("spectrum command", problems)

    code = p.state["bounds_code"]
    problems = [] if code == 0 else [f"exit code {code}"]
    path = p.workdir / "bounds" / "bounds.json"
    if path.exists():
        suite = json.loads(path.read_text())
        failures = {
            "weyl_random": suite["weyl_random"]["violations"],
            "weyl_augmentation": suite["weyl_augmentation"]["violations"],
            "shift_model": int(not suite["shift_model"]["all_within_3se"]),
            "vector_bound": suite["vector_bound"]["failures"],
            "ntk_bound": suite["ntk_bound"]["failures"],
            "linear_bounds": suite["linear_bounds"]["subset_failures"]
            + suite["linear_bounds"]["combined_failures"],
        }
        problems += [f"{name}: {n} failures" for name, n in failures.items() if n]
        p.hash_output(path.read_bytes())
    else:
        problems.append("no bounds.json")
    p.op("bounds command", problems)

    hits = 0
    for seed, eps, report in p.state["reports"]:
        ok = report.weyl.passed
        p.op(f"protocol seed {seed} eps {eps:.4f}",
             [] if ok else [f"Weyl violation {report.weyl.max_violation:.3e}"])
        hits += _shape_hit(report)
        p.hash_output(report.to_json_dict())
    p.info["criterion4_shape_hits"] = f"{hits}/{len(p.state['reports'])}"


WORKLOADS = {
    "subset_train": (subset_train_setup, subset_train_run, subset_train_check),
    "select_large": (select_large_setup, select_large_run, select_large_check),
    "full_train": (full_train_setup, full_train_run, full_train_check),
    "spectrum_audit": (spectrum_audit_setup, spectrum_audit_run, spectrum_audit_check),
}
