"""Command-line harness.

Subcommands: gen-data, select, train, spectrum, bounds, experiment, report.
Every run writes its artifacts plus a ``manifest.json`` under ``--out``;
re-running with the manifest's seeds reproduces every numeric artifact byte for
byte (wall clock timings live only in the manifest and the selection_ms
column).

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
A JSON config file (``--config``) may supply any flag's value; explicit flags
override it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .audits import (
    PROTOCOL_SEEDS,
    budget_spectra,
    noise_robustness,
    run_bounds_suite,
    spectrum_protocol,
    subset_benchmark,
)
from .augment import TRANSFORM_KINDS, TransformSpec
from .coreset import SelectionConfig, select_all_classes
from .data import DataFormatError, gen_dataset, load_dataset_csv, save_dataset_csv, split_dataset
from .linalg import NumericalError
from .model import MLP, Dataset, gradient_proxy
from .trainer import CSV_HEADER, LrSchedule, TrainConfig, sgd_warmup, train

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, payload: dict | list) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _manifest(out_dir: Path, command: str, config: dict, seeds: list[int],
              inputs: list[Path], outputs: list[str], timings_ms: dict) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "seeds": seeds,
        "versions": {
            "coreaug": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "inputs": [{"path": str(p), "sha256": _sha256(p)} for p in inputs],
        "outputs": sorted(outputs),
        "timings_ms": timings_ms,
    }
    _write_json(out_dir / "manifest.json", payload)


def _hidden_sizes(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _seed_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _selection_config(args) -> SelectionConfig:
    if args.xi is not None:
        return SelectionConfig(stop="xi_threshold", xi=args.xi, engine=args.engine,
                               seed=args.seed, stochastic_sample=args.stochastic_sample)
    return SelectionConfig(
        stop="fixed_size",
        k_per_class=args.k_per_class,
        fraction=args.fraction if args.k_per_class is None else None,
        engine=args.engine,
        seed=args.seed,
        stochastic_sample=args.stochastic_sample,
    )


def cmd_gen_data(args) -> int:
    data = gen_dataset(args.kind, args.n, args.d, args.classes, seed=args.seed,
                       noise=args.noise, margin=args.margin)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset_csv(data, out)
    print(f"wrote {out} ({data.n} rows, {data.dim} features, {data.num_classes} classes)")
    return 0


def cmd_select(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = Path(args.data)
    data = load_dataset_csv(data_path)
    net = MLP.init([data.dim, *args.hidden, data.num_classes], seed=args.net_seed)
    if args.warmup_epochs > 0:
        sgd_warmup(net, data, args.warmup_epochs, args.lr, seed=args.net_seed)
    t0 = time.perf_counter()
    proxies = gradient_proxy(net, data, args.proxy_mode)
    coreset = select_all_classes(proxies, _selection_config(args), r=args.r)
    selection_ms = (time.perf_counter() - t0) * 1000.0
    _write_json(out_dir / "coreset.json", coreset.to_json_dict())
    _manifest(out_dir, "select", {
        "data": str(data_path), "engine": args.engine, "fraction": args.fraction,
        "k_per_class": args.k_per_class, "xi": args.xi, "proxy_mode": args.proxy_mode,
        "hidden": list(args.hidden), "net_seed": args.net_seed,
        "warmup_epochs": args.warmup_epochs, "r": args.r,
    }, [args.seed], [data_path], ["coreset.json"], {"selection_ms": selection_ms})
    print(f"selected {coreset.indices.size} points -> {out_dir / 'coreset.json'}")
    return 0


def _train_config(args, seed: int) -> TrainConfig:
    return TrainConfig(
        regime=args.regime,
        selection=_selection_config(args),
        transform=TransformSpec(kind=args.transform_kind, epsilon0=args.epsilon0,
                                r=args.r, seed=seed),
        refresh_r=args.refresh_r,
        epochs=args.epochs,
        lr=LrSchedule(args.lr, tuple(args.lr_decay_epochs or ()), args.lr_decay_factor),
        batch_size=args.batch_size,
        seed=seed,
        label_noise_frac=args.label_noise,
        baseline=args.baseline,
        proxy_mode=args.proxy_mode,
        random_fraction=args.random_fraction,
        hidden_sizes=args.hidden,
    )


def cmd_train(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = Path(args.data)
    data = load_dataset_csv(data_path)
    inputs = [data_path]
    if args.test_data:
        test_path = Path(args.test_data)
        test = load_dataset_csv(test_path)
        if test.dim != data.dim:
            raise DataFormatError(
                f"{test_path}: {test.dim} features, the training data has {data.dim}")
        if test.num_classes > data.num_classes:
            raise DataFormatError(
                f"{test_path}: test label {test.num_classes - 1} outside the training "
                f"classes 0..{data.num_classes - 1}")
        test = Dataset(test.features, test.labels, data.num_classes)
        inputs.append(test_path)
    else:
        data, test = split_dataset(data, args.holdout, seed=args.split_seed)

    timings = {}
    outputs = []
    records = {}
    for seed in args.seeds:
        t0 = time.perf_counter()
        record = train(_train_config(args, seed), data, test)
        timings[f"train_seed{seed}_ms"] = (time.perf_counter() - t0) * 1000.0
        name = f"run_seed{seed}.csv"
        record.to_csv(out_dir / name)
        outputs.append(name)
        records[seed] = record
    final = {
        seed: {
            "test_acc": records[seed].rows[-1].test_acc,
            "test_loss": records[seed].rows[-1].test_loss,
            "train_loss": records[seed].rows[-1].train_loss,
        }
        for seed in args.seeds
    }
    accs = [v["test_acc"] for v in final.values()]
    aggregate = {
        "per_seed": {str(k): v for k, v in final.items()},
        "mean_test_acc": float(np.mean(accs)),
        "std_test_acc": float(np.std(accs)),
    }
    _write_json(out_dir / "aggregate.json", aggregate)
    outputs.append("aggregate.json")
    _manifest(out_dir, "train", {
        "data": str(data_path), "regime": args.regime, "baseline": args.baseline,
        "fraction": args.fraction, "k_per_class": args.k_per_class,
        "refresh_r": args.refresh_r, "epochs": args.epochs, "lr": args.lr,
        "batch_size": args.batch_size, "epsilon0": args.epsilon0, "r": args.r,
        "transform_kind": args.transform_kind, "label_noise": args.label_noise,
        "hidden": list(args.hidden), "holdout": args.holdout,
        "random_fraction": args.random_fraction,
    }, args.seeds, inputs, outputs, timings)
    print(f"mean test accuracy {aggregate['mean_test_acc']:.4f} "
          f"(std {aggregate['std_test_acc']:.4f}) over seeds {args.seeds}")
    return 0


def _subsample_for_spectrum(data: Dataset, classes_used: int,
                            per_class_cap: int) -> Dataset:
    classes_used = min(classes_used, data.num_classes)
    keep = np.concatenate([data.class_index[c][:per_class_cap]
                           for c in range(classes_used)])
    return Dataset(data.features[keep].copy(), data.labels[keep].copy(), classes_used)


def cmd_spectrum(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = Path(args.data)
    data = _subsample_for_spectrum(load_dataset_csv(data_path),
                                   args.classes_used, args.per_class_cap)
    net = MLP.init([data.dim, *args.hidden, data.num_classes],
                   activation="tanh", seed=args.seed)
    outputs = []
    timings = {}
    variants = [("untrained", net.copy())] if args.untrained else []
    t0 = time.perf_counter()
    sgd_warmup(net, data, args.train_epochs, args.lr, seed=args.seed)
    timings["train_ms"] = (time.perf_counter() - t0) * 1000.0
    variants.append(("trained", net))
    for tag, model in variants:
        t1 = time.perf_counter()
        for eps, report in budget_spectra(model, data.features, args.epsilon0,
                                          args.transform_kind, args.seed):
            timings[f"spectrum_{tag}_eps{eps:.6f}_ms"] = (time.perf_counter() - t1) * 1000.0
            stem = f"spectrum_{tag}_eps{eps:.6f}"
            _write_json(out_dir / f"{stem}.json", report.to_json_dict())
            report.write_bins_csv(out_dir / f"{stem}_bins.csv")
            outputs += [f"{stem}.json", f"{stem}_bins.csv"]
            print(f"{tag} eps={eps:.6f}: ||E||_2={report.e_norm2:.5f} "
                  f"weyl_pass={report.weyl.passed}")
            t1 = time.perf_counter()
    _manifest(out_dir, "spectrum", {
        "data": str(data_path), "epsilon0": list(args.epsilon0),
        "transform_kind": args.transform_kind, "train_epochs": args.train_epochs,
        "hidden": list(args.hidden), "classes_used": args.classes_used,
        "per_class_cap": args.per_class_cap, "untrained": args.untrained,
    }, [args.seed], [data_path], outputs, timings)
    return 0


def cmd_bounds(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    suite = run_bounds_suite(
        seed=args.seed,
        weyl_trials=args.weyl_trials,
        shift_draws=args.shift_draws,
        vector_trials=args.vector_trials,
        ntk_instances=args.ntk_instances,
        linear_instances=args.linear_instances,
        augmentation_rounds=args.augmentation_rounds,
    )
    elapsed = (time.perf_counter() - t0) * 1000.0
    _write_json(out_dir / "bounds.json", suite)
    _manifest(out_dir, "bounds", {
        "weyl_trials": args.weyl_trials, "shift_draws": args.shift_draws,
        "vector_trials": args.vector_trials, "ntk_instances": args.ntk_instances,
        "linear_instances": args.linear_instances,
    }, [args.seed], [], ["bounds.json"], {"bounds_ms": elapsed})
    ok = (suite["weyl_random"]["violations"] == 0
          and suite["weyl_augmentation"]["violations"] == 0
          and suite["shift_model"]["all_within_3se"]
          and suite["vector_bound"]["failures"] == 0
          and suite["ntk_bound"]["failures"] == 0
          and suite["linear_bounds"]["subset_failures"] == 0
          and suite["linear_bounds"]["combined_failures"] == 0)
    print(f"bounds suite {'PASS' if ok else 'FAIL'} -> {out_dir / 'bounds.json'}")
    return 0 if ok else 4


def cmd_experiment(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [f"{args.name}.json"]
    t0 = time.perf_counter()
    if args.name == "spectrum":
        payload = []
        for seed, eps, report in spectrum_protocol():
            stem = f"spectrum_seed{seed}_eps{eps:.6f}"
            report.write_bins_csv(out_dir / f"{stem}_bins.csv")
            outputs.append(f"{stem}_bins.csv")
            bottom, top = report.decile_relative_shifts()
            payload.append({
                "seed": seed, "epsilon0": eps, "e_norm2": report.e_norm2,
                "e_norm_frobenius": report.e_norm_frobenius,
                "weyl_passed": report.weyl.passed,
                "bottom_decile_relative_shift": bottom,
                "top_decile_relative_shift": top,
                "shape_reproduced": report.shape_reproduced,
            })
    else:
        payload = {"subset": subset_benchmark, "noise": noise_robustness}[args.name]()
    elapsed = (time.perf_counter() - t0) * 1000.0
    _write_json(out_dir / outputs[0], payload)
    _manifest(out_dir, "experiment", {"name": args.name}, list(PROTOCOL_SEEDS),
              [], outputs, {"experiment_ms": elapsed})
    print(f"{args.name} experiment -> {out_dir / outputs[0]}")
    return 0


def cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    rows_by_run = {}
    for csv_path in sorted(runs_dir.glob("*.csv")):
        with open(csv_path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                continue
            rows = [line.strip().split(",") for line in fh if line.strip()]
        rows_by_run[csv_path.name] = rows
    if not rows_by_run:
        raise DataFormatError(f"{runs_dir}: no run CSVs found")
    summary = {}
    for name, rows in rows_by_run.items():
        last = rows[-1]
        summary[name] = {
            "epochs": len(rows),
            "final_train_loss": float(last[1]),
            "final_test_loss": float(last[2]),
            "final_test_acc": float(last[3]),
            "final_grad_norm": float(last[4]),
        }
    accs = [v["final_test_acc"] for v in summary.values()]
    payload = {
        "runs": summary,
        "mean_final_test_acc": float(np.mean(accs)),
        "std_final_test_acc": float(np.std(accs)),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, payload)
    print(f"aggregated {len(summary)} runs -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coreaug",
        description="Coreset-driven data augmentation: selection, training, spectrum analysis")
    parser.add_argument("--config", default=None,
                        help="JSON config file; explicit flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p.add_argument("--kind", default="gaussian_blobs",
                   choices=("gaussian_blobs", "two_moons_embedded", "grid_digits"))
    p.add_argument("--n", type=int, default=600)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--margin", type=float, default=0.25)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    def add_selection_flags(p):
        p.add_argument("--engine", default="lazy", choices=("naive", "lazy", "stochastic"))
        p.add_argument("--fraction", type=float, default=0.1)
        p.add_argument("--k-per-class", dest="k_per_class", type=int, default=None)
        p.add_argument("--xi", type=float, default=None)
        p.add_argument("--stochastic-sample", dest="stochastic_sample", type=int, default=None)
        p.add_argument("--proxy-mode", dest="proxy_mode", default="last_layer",
                       choices=("residual", "last_layer"))
        p.add_argument("--r", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("select", help="extract a weighted per-class coreset")
    p.add_argument("--data", required=True)
    add_selection_flags(p)
    p.add_argument("--hidden", type=_hidden_sizes, default=(32,))
    p.add_argument("--net-seed", dest="net_seed", type=int, default=0)
    p.add_argument("--warmup-epochs", dest="warmup_epochs", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("train", help="weighted SGD over a training regime")
    p.add_argument("--data", required=True)
    p.add_argument("--test-data", dest="test_data", default=None)
    p.add_argument("--holdout", type=float, default=0.25)
    p.add_argument("--split-seed", dest="split_seed", type=int, default=0)
    p.add_argument("--regime", default="full_plus_coreset_aug",
                   choices=("coreset_only", "full_plus_coreset_aug",
                            "random_plus_coreset_aug"))
    p.add_argument("--baseline", default="ours", choices=("ours", "random", "max_loss"))
    add_selection_flags(p)
    p.add_argument("--refresh-r", dest="refresh_r", type=int, default=1)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--lr-decay-epochs", dest="lr_decay_epochs", type=int, nargs="*",
                   default=None)
    p.add_argument("--lr-decay-factor", dest="lr_decay_factor", type=float, default=0.1)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=32)
    p.add_argument("--epsilon0", type=float, default=16.0 / 255.0)
    p.add_argument("--transform-kind", dest="transform_kind", default="uniform_ball",
                   choices=TRANSFORM_KINDS)
    p.add_argument("--label-noise", dest="label_noise", type=float, default=0.0)
    p.add_argument("--random-fraction", dest="random_fraction", type=float, default=0.5)
    p.add_argument("--hidden", type=_hidden_sizes, default=(32,))
    p.add_argument("--seeds", type=_seed_list, default=[0])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("spectrum", help="paired clean/augmented spectrum reports")
    p.add_argument("--data", required=True)
    p.add_argument("--epsilon0", type=float, nargs="+",
                   default=[8.0 / 255.0, 16.0 / 255.0])
    p.add_argument("--transform-kind", dest="transform_kind", default="uniform_ball",
                   choices=TRANSFORM_KINDS)
    p.add_argument("--train-epochs", dest="train_epochs", type=int, default=15)
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--hidden", type=_hidden_sizes, default=(24,))
    p.add_argument("--classes-used", dest="classes_used", type=int, default=3)
    p.add_argument("--per-class-cap", dest="per_class_cap", type=int, default=300)
    p.add_argument("--untrained", action="store_true",
                   help="also report the spectrum at initialization")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("bounds", help="run the randomized bound-audit suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weyl-trials", dest="weyl_trials", type=int, default=1000)
    p.add_argument("--shift-draws", dest="shift_draws", type=int, default=1000)
    p.add_argument("--vector-trials", dest="vector_trials", type=int, default=200)
    p.add_argument("--ntk-instances", dest="ntk_instances", type=int, default=100)
    p.add_argument("--linear-instances", dest="linear_instances", type=int, default=100)
    p.add_argument("--augmentation-rounds", dest="augmentation_rounds", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("experiment", help="run one of the paper's experiment protocols")
    p.add_argument("name", choices=("subset", "spectrum", "noise"))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("report", help="aggregate run CSVs into a summary JSON")
    p.add_argument("--runs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Prepend flag values from a JSON config (schema_version checked); explicit
    command-line flags still win because argparse takes the last occurrence."""
    if "--config" not in argv:
        return argv
    pos = argv.index("--config")
    try:
        cfg_path = argv[pos + 1]
    except IndexError as exc:
        raise ConfigError("--config requires a path") from exc
    try:
        payload = json.loads(Path(cfg_path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {cfg_path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"config schema_version must be {SCHEMA_VERSION}")
    injected: list[str] = []
    for key, value in payload.items():
        if key == "schema_version":
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        elif isinstance(value, list):
            injected.append(flag)
            injected += [str(v) for v in value]
        else:
            injected += [flag, str(value)]
    # insert after the subcommand so argparse scopes flags correctly
    command_pos = next((i for i, a in enumerate(argv)
                        if not a.startswith("-") and i != pos + 1), None)
    if command_pos is None:
        raise ConfigError("missing subcommand")
    return argv[:command_pos + 1] + injected + argv[command_pos + 1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        if isinstance(exc, DataFormatError) or isinstance(exc, FileNotFoundError):
            print(f"data error: {exc}", file=sys.stderr)
            return 3
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
