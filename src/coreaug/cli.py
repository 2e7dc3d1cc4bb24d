"""Command-line harness.

Subcommands: gen-data, select, train, spectrum, bounds, experiment, report.
The five that write a directory under ``--out`` run in one frame
(``_recorded``), which times their phases and writes ``manifest.json``;
re-running with its config reproduces every numeric artifact byte for byte
(wall clock timings live only in the manifest and the selection_ms column).

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
A JSON config file (``--config``, before or after the subcommand) holds the
subcommand's defaults, each checked like its flag's value; explicit flags
override them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .audits import (
    BATTERIES,
    PROTOCOL_SEEDS,
    noise_robustness,
    run_bounds_suite,
    spectrum_protocol,
    subset_benchmark,
)
from .augment import TRANSFORM_KINDS, TransformSpec
from .coreset import ENGINES, SelectionConfig, select_all_classes
from .data import (
    GENERATOR_KINDS,
    DataFormatError,
    gen_dataset,
    load_dataset_csv,
    load_training_csv,
    save_dataset_csv,
    split_dataset,
)
from .linalg import (ABOVE_0, AT_LEAST_0, AT_LEAST_1, BUDGET, LEFT_OPEN_UNIT, OPEN_UNIT,
                     RIGHT_OPEN_UNIT, Domain, NumericalError)
from .model import MLP, PROXY_MODES, Dataset, MemoryCapError, class_rows, gradient_proxy
from .spectrum import budget_spectra
from .trainer import (
    BASELINES,
    CSV_HEADER,
    REGIMES,
    LrSchedule,
    TrainConfig,
    sgd_warmup,
    train,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _write_json(path: Path, payload: dict | list) -> None:
    """Strict JSON: a NaN or an infinity raises ``ValueError``, writing nothing."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
                    encoding="utf-8")


class _Run:
    """What a run records: the files it wrote under ``--out``, the ms of each
    timed phase, and its seeds (``--seeds``, else ``--seed``)."""

    def __init__(self, args):
        self.out_dir = Path(args.out)
        self.outputs: set[str] = set()
        self.timings_ms: dict[str, float] = {}
        self.seeds = list(getattr(args, "seeds", None)
                          or ([args.seed] if hasattr(args, "seed") else []))

    def path(self, name: str) -> Path:
        """``--out``/``name``, listed as one of the run's outputs."""
        self.outputs.add(name)
        return self.out_dir / name

    @contextlib.contextmanager
    def timed(self, key: str):
        """Record the wall-clock ms of the ``with`` body as ``timings_ms[key]``."""
        t0 = time.perf_counter()
        yield
        self.timings_ms[key] = (time.perf_counter() - t0) * 1000.0


def _recorded(handler):
    """Run ``handler(args, run)`` in ``--out``, made first, and write its
    ``manifest.json`` once it returns, whatever the exit code; a raise writes
    none. The config holds every parsed argument but the handler, ``--out``
    (re-runs elsewhere match) and ``--config`` (its values are among them);
    the inputs are the ``--data``/``--test-data`` files; the versions name the
    BLAS build (null fields where NumPy cannot report it as data) and thread
    variables (null when unset), since re-runs match bit for bit only under
    the same build and settings."""
    def frame(args) -> int:
        run = _Run(args)
        run.out_dir.mkdir(parents=True, exist_ok=True)
        code = handler(args, run)
        inputs = [Path(p) for p in (getattr(args, "data", None),
                                    getattr(args, "test_data", None)) if p]
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except TypeError:  # NumPy 1.24's show_config only prints, and takes no mode
            blas = {}
        _write_json(run.out_dir / "manifest.json", {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "config": {k: v for k, v in vars(args).items()
                       if k not in ("fn", "out", "config")},
            "seeds": run.seeds,
            "versions": {
                "coreaug": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
                "blas": {"name": blas.get("name"), "version": blas.get("version"),
                         "build": blas.get("openblas configuration")},
                "blas_threads": {v: os.environ.get(v) for v in (
                    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            },
            "inputs": [{"path": str(p), "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
                       for p in inputs],
            "outputs": sorted(run.outputs),
            "timings_ms": run.timings_ms,
        })
        return code
    return frame


def _checked(kind, domain: Domain):
    """An argparse type: ``kind(text)``, rejected with the domain's text
    unless it lies in ``domain``, so the error names the flag."""
    def parse(text: str):
        value = kind(text)
        if (breach := domain.breach(value)) is not None:
            raise argparse.ArgumentTypeError(breach)
        return value
    parse.__name__ = kind.__name__
    return parse


_positive_int = _checked(int, AT_LEAST_1)
_nonnegative_int = _checked(int, AT_LEAST_0)
_positive_float = _checked(float, ABOVE_0)
_nonnegative_float = _checked(float, AT_LEAST_0)
_budget = _checked(float, BUDGET)
_fraction = _checked(float, LEFT_OPEN_UNIT)


def _hidden_sizes(text: str) -> tuple[int, ...]:
    return tuple(_positive_int(v) for v in text.split(",") if v.strip())


def _seed_list(text: str) -> list[int]:
    seeds = [_nonnegative_int(v) for v in text.split(",") if v.strip()]
    if not seeds:
        raise argparse.ArgumentTypeError("needs at least one seed")
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise argparse.ArgumentTypeError(f"seed {seed} repeated")
    return seeds


def _load_data(path: Path) -> Dataset:
    """``load_training_csv``, naming on stderr each label below the largest
    that has no rows: every command skips that class."""
    data = load_training_csv(path)
    for label in np.flatnonzero(np.bincount(data.labels) == 0):
        print(f"warning: {path}: label {label} has no rows; its class is skipped",
              file=sys.stderr)
    return data


def _selection_config(args) -> SelectionConfig:
    return SelectionConfig(
        stop="fixed_size" if args.xi is None else "xi_threshold",
        xi=args.xi,
        k_per_class=args.k_per_class,
        fraction=args.fraction,
        engine=args.engine,
        seed=args.seed,
        stochastic_sample=args.stochastic_sample,
    )


def cmd_gen_data(args) -> int:
    try:
        data = gen_dataset(args.kind, args.n, args.d, args.classes, seed=args.seed,
                           noise=args.noise, margin=args.margin)
    except ValueError as exc:
        raise ConfigError(f"--kind {args.kind} --n {args.n} --d {args.d} --classes {args.classes} "
                          f"--seed {args.seed} --margin {args.margin}: {exc}") from None
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset_csv(data, out)
    print(f"wrote {out} ({data.n} rows, {data.dim} features, {data.num_classes} classes)")
    return 0


@_recorded
def cmd_select(args, run: _Run) -> int:
    data = _load_data(Path(args.data))
    try:
        net = MLP.init([data.dim, *args.hidden, data.num_classes], seed=args.net_seed)
    except MemoryCapError as exc:
        raise ConfigError(f"--hidden: {exc}") from None
    if args.warmup_epochs > 0:
        sgd_warmup(net, data, args.warmup_epochs, args.lr, seed=args.net_seed)
    with run.timed("selection_ms"):
        proxies = gradient_proxy(net, data, args.proxy_mode)
        coreset = select_all_classes(proxies, _selection_config(args))
    out = run.path("coreset.json")
    _write_json(out, coreset.to_json_dict(args.r))
    print(f"selected {coreset.indices.size} points -> {out}")
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


@_recorded
def cmd_train(args, run: _Run) -> int:
    data_path = Path(args.data)
    data = _load_data(data_path)
    if args.test_data:
        test_path = Path(args.test_data)
        test = load_dataset_csv(test_path, data.num_classes)
        if test.dim != data.dim:
            raise DataFormatError(
                f"{test_path}: {test.dim} features, the training data has {data.dim}")
    else:
        try:
            data, test = split_dataset(data, args.holdout, seed=args.split_seed)
        except DataFormatError as exc:
            raise DataFormatError(f"{data_path}: --holdout {args.holdout}: {exc}") from None

    final = {}
    for seed in args.seeds:
        with run.timed(f"train_seed{seed}_ms"):
            try:
                record = train(_train_config(args, seed), data, test)
            except MemoryCapError as exc:  # MLP.init refused the net before allocating
                raise ConfigError(f"--hidden: {exc}") from None
        record.to_csv(run.path(f"run_seed{seed}.csv"))
        last = record.rows[-1]
        final[seed] = {"test_acc": last.test_acc, "test_loss": last.test_loss,
                       "train_loss": last.train_loss}
    accs = [v["test_acc"] for v in final.values()]
    aggregate = {
        "per_seed": {str(k): v for k, v in final.items()},
        "mean_test_acc": float(np.mean(accs)),
        "std_test_acc": float(np.std(accs)),
    }
    _write_json(run.path("aggregate.json"), aggregate)
    print(f"mean test accuracy {aggregate['mean_test_acc']:.4f} "
          f"(std {aggregate['std_test_acc']:.4f}) over seeds {args.seeds}")
    return 0


@_recorded
def cmd_spectrum(args, run: _Run) -> int:
    # each budget names its files by its value to six decimals
    names = [f"eps{eps:.6f}" for eps in args.epsilon0]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"--epsilon0 {args.epsilon0[names.index(name)]!r} and "
                              f"{args.epsilon0[i]!r} both name their files {name}")
    data_path = Path(args.data)
    data = _load_data(data_path)
    classes_used = min(args.classes_used, data.num_classes)
    keep = [idx[:args.per_class_cap] for label, idx in class_rows(data.labels)
            if label < classes_used]
    if not keep:
        raise DataFormatError(f"{data_path}: no rows with a label below "
                              f"--classes-used {classes_used}")
    keep = np.concatenate(keep)
    data = Dataset(data.features[keep], data.labels[keep], classes_used)
    try:
        net = MLP.init([data.dim, *args.hidden, data.num_classes],
                       activation="tanh", seed=args.seed)
        variants = [("untrained", net.copy())] if args.untrained else []
        with run.timed("train_ms"):
            sgd_warmup(net, data, args.train_epochs, args.lr, seed=args.seed)
        variants.append(("trained", net))
        for tag, model in variants:
            reports = budget_spectra(model, data.features, args.epsilon0,
                                     args.transform_kind, args.seed)
            for eps, name in zip(args.epsilon0, names):
                stem = f"spectrum_{tag}_{name}"
                with run.timed(f"{stem}_ms"):
                    _, report = next(reports)
                _write_json(run.path(f"{stem}.json"), report.to_json_dict())
                report.write_bins_csv(run.path(f"{stem}_bins.csv"))
                print(f"{tag} eps={eps:.6f}: ||E||_2={report.e_norm2:.5f} "
                      f"weyl_pass={report.weyl.passed}")
    except MemoryCapError as exc:
        raise ConfigError(f"--hidden: {exc}") from None
    return 0


@_recorded
def cmd_bounds(args, run: _Run) -> int:
    # each flag's value sits under the dest argparse derives from the flag
    sizes = {name: getattr(args, battery.flag[2:].replace("-", "_"))
             for name, battery in BATTERIES.items()}
    with run.timed("bounds_ms"):
        suite = run_bounds_suite(args.seed, sizes)
    out = run.path("bounds.json")
    _write_json(out, suite)
    ok = all(entry["passed"] for entry in suite.values())
    print(f"bounds suite {'PASS' if ok else 'FAIL'} -> {out}")
    return 0 if ok else 4


@_recorded
def cmd_experiment(args, run: _Run) -> int:
    run.seeds = list(PROTOCOL_SEEDS)
    with run.timed("experiment_ms"):
        if args.name == "spectrum":
            payload = []
            for seed, eps, report in spectrum_protocol():
                stem = f"spectrum_seed{seed}_eps{eps:.6f}"
                report.write_bins_csv(run.path(f"{stem}_bins.csv"))
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
    out = run.path(f"{args.name}.json")
    _write_json(out, payload)
    print(f"{args.name} experiment -> {out}")
    return 0


def cmd_report(args) -> int:
    runs_dir = Path(args.runs)
    columns = CSV_HEADER.split(",")
    summary = {}
    for csv_path in sorted(runs_dir.glob("*.csv")):
        with open(csv_path, "r", encoding="utf-8") as fh:
            if fh.readline().strip() != CSV_HEADER:
                continue
            rows = []
            for line_no, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                fields = line.strip().split(",")
                if len(fields) != len(columns):
                    raise DataFormatError(f"{csv_path}: line {line_no}: {len(fields)} "
                                          f"columns, the run header has {len(columns)}")
                try:
                    row = [float(v) for v in fields]
                except ValueError as exc:
                    raise DataFormatError(f"{csv_path}: line {line_no}: {exc}") from None
                for c, v in zip(columns, row):
                    if not math.isfinite(v):
                        raise DataFormatError(f"{csv_path}: line {line_no}: {c}={v} "
                                              "is not finite")
                rows.append(row)
        if not rows:
            raise DataFormatError(f"{csv_path}: no rows below the run header")
        last = dict(zip(columns, rows[-1]))
        summary[csv_path.name] = {"epochs": len(rows), **{
            f"final_{c}": last[c] for c in ("train_loss", "test_loss", "test_acc",
                                            "grad_norm")}}
    if not summary:
        raise DataFormatError(f"{runs_dir}: no run CSVs found")
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
    """The ``coreaug`` parser; its ``subcommands`` maps each subcommand's
    name to that subcommand's parser."""
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None,
                        help="JSON config file whose values become this command's "
                             "defaults; explicit flags override them")
    common = argparse.ArgumentParser(add_help=False, parents=[config])
    common.add_argument("--out", required=True)
    parser = argparse.ArgumentParser(
        prog="coreaug", parents=[config],
        description="Coreset-driven data augmentation: selection, training, spectrum analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    p = sub.add_parser("gen-data", parents=[common], help="generate a synthetic dataset CSV")
    p.add_argument("--kind", default="gaussian_blobs", choices=GENERATOR_KINDS)
    p.add_argument("--n", type=_positive_int, default=600)
    p.add_argument("--d", type=_positive_int, default=16)
    p.add_argument("--classes", type=_positive_int, default=3)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--noise", type=_nonnegative_float, default=0.05)
    p.add_argument("--margin", type=_nonnegative_float, default=0.25)
    p.set_defaults(fn=cmd_gen_data)

    def add_selection_flags(p):
        p.add_argument("--engine", default="lazy", choices=ENGINES)
        p.add_argument("--fraction", type=_fraction, default=0.1)
        p.add_argument("--k-per-class", type=_positive_int, default=None)
        p.add_argument("--xi", type=_positive_float, default=None)
        p.add_argument("--stochastic-sample", type=_positive_int, default=None)
        p.add_argument("--proxy-mode", default="last_layer", choices=PROXY_MODES)
        p.add_argument("--r", type=_positive_int, default=1)
        p.add_argument("--seed", type=_nonnegative_int, default=0)

    p = sub.add_parser("select", parents=[common], help="extract a weighted per-class coreset")
    p.add_argument("--data", required=True)
    add_selection_flags(p)
    p.add_argument("--hidden", type=_hidden_sizes, default=(32,))
    p.add_argument("--net-seed", type=_nonnegative_int, default=0)
    p.add_argument("--warmup-epochs", type=_nonnegative_int, default=0)
    p.add_argument("--lr", type=_positive_float, default=0.005)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("train", parents=[common], help="weighted SGD over a training regime")
    p.add_argument("--data", required=True)
    p.add_argument("--test-data", default=None)
    p.add_argument("--holdout", type=_checked(float, OPEN_UNIT), default=0.25)
    p.add_argument("--split-seed", type=_nonnegative_int, default=0)
    p.add_argument("--regime", default="full_plus_coreset_aug", choices=REGIMES)
    p.add_argument("--baseline", default="ours", choices=BASELINES)
    add_selection_flags(p)
    p.add_argument("--refresh-r", type=_positive_int, default=1)
    p.add_argument("--epochs", type=_positive_int, default=20)
    p.add_argument("--lr", type=_positive_float, default=0.005)
    p.add_argument("--lr-decay-epochs", type=_nonnegative_int, nargs="*", default=None)
    p.add_argument("--lr-decay-factor", type=_positive_float, default=0.1)
    p.add_argument("--batch-size", type=_positive_int, default=32)
    p.add_argument("--epsilon0", type=_budget, default=16.0 / 255.0)
    p.add_argument("--transform-kind", default="uniform_ball", choices=TRANSFORM_KINDS)
    p.add_argument("--label-noise", type=_checked(float, RIGHT_OPEN_UNIT), default=0.0)
    p.add_argument("--random-fraction", type=_fraction, default=0.5)
    p.add_argument("--hidden", type=_hidden_sizes, default=(32,))
    p.add_argument("--seeds", type=_seed_list, default=[0])
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("spectrum", parents=[common],
                       help="paired clean/augmented spectrum reports")
    p.add_argument("--data", required=True)
    p.add_argument("--epsilon0", type=_budget, nargs="+", default=[8.0 / 255.0, 16.0 / 255.0])
    p.add_argument("--transform-kind", default="uniform_ball", choices=TRANSFORM_KINDS)
    p.add_argument("--train-epochs", type=_nonnegative_int, default=15)
    p.add_argument("--lr", type=_positive_float, default=0.005)
    p.add_argument("--hidden", type=_hidden_sizes, default=(24,))
    p.add_argument("--classes-used", type=_positive_int, default=3)
    p.add_argument("--per-class-cap", type=_positive_int, default=300)
    p.add_argument("--untrained", action="store_true",
                   help="also report the spectrum at initialization")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("bounds", parents=[common], help="run the randomized bound-audit suite")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    for battery in BATTERIES.values():
        p.add_argument(battery.flag, type=_checked(int, battery.domain), default=battery.default)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("experiment", parents=[common],
                       help="run one of the paper's experiment protocols")
    p.add_argument("name", choices=("subset", "spectrum", "noise"))
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("report", parents=[common], help="aggregate run CSVs into a summary JSON")
    p.add_argument("--runs", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def _config_value(action: argparse.Action, value, where: str):
    """A config value as its action parses it from the command line: a list
    element-wise for an ``nargs`` flag and comma-joined otherwise, each
    through the action's ``type`` and ``choices``; a switch takes a bool."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: must be true or false, got {value!r}")
        return action.const if value else action.default
    many = action.nargs in ("*", "+")
    if isinstance(value, list) and not many:
        value = ",".join(map(str, value))
    texts = [str(v) for v in value] if isinstance(value, list) else [str(value)]
    try:
        values = [(action.type or str)(t) for t in texts]
    except (argparse.ArgumentTypeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if not values and action.nargs == "+":
        raise ConfigError(f"{where}: needs at least one value")
    for v in values:
        if action.choices is not None and v not in action.choices:
            raise ConfigError(f"{where}: invalid choice {v!r} (choose from "
                              f"{', '.join(map(repr, action.choices))})")
    return values if many else values[0]


def _apply_config_file(argv: list[str], parser: argparse.ArgumentParser) -> None:
    """Make a JSON config's values (schema_version checked) the defaults of
    the subcommand, with ``--config`` before or after it; flags on the
    command line still win. A manifest's ``config`` replays its run: a null
    keeps its flag's default, and a ``command`` key must name the
    subcommand. A key the config sets is no longer required on the command
    line; ``experiment``'s name becomes an optional positional."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        known, rest = pre.parse_known_args(argv)
    except argparse.ArgumentError:
        return  # the full parser names the flag that lacks its path
    if known.config is None:
        return
    cfg_path = known.config
    try:
        payload = json.loads(Path(cfg_path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {cfg_path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"config schema_version must be {SCHEMA_VERSION}")
    command = next((a for a in rest if not a.startswith("-")), None)
    subparser = parser.subcommands.get(command)
    if subparser is None:
        return  # argparse names the missing or unknown subcommand
    if payload.get("command", command) != command:
        raise ConfigError(f"{cfg_path}: command {payload['command']!r} does not match "
                          f"the subcommand {command!r}")
    by_dest = {a.dest: a for a in subparser._actions}
    defaults = {}
    for key, value in payload.items():
        if key in ("schema_version", "command"):
            continue
        action = by_dest.get(key)
        if action is None:
            raise ConfigError(f"{cfg_path}: key {key!r} is not an option of {command!r}")
        if value is None:
            continue
        defaults[key] = _config_value(action, value, f"{cfg_path}: key {key!r}")
        action.required = False
        if not action.option_strings:
            action.nargs = "?"
    subparser.set_defaults(**defaults)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_file(argv, parser)
        args = parser.parse_args(argv)
        return args.fn(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (DataFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
