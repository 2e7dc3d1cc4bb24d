import ast
import dataclasses
import importlib.util
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coreaug.audits
import coreaug.cli
import coreaug.coreset
from coreaug.audits import noise_robustness
from coreaug.cli import build_parser, main
from coreaug.data import (
    DataFormatError,
    gen_dataset,
    load_dataset_csv,
    save_dataset_csv,
    split_dataset,
)


class TestGenerators:
    def test_blobs_balanced_and_clamped(self):
        data = gen_dataset("gaussian_blobs", 600, 8, 3, seed=0)
        assert data.n == 600
        for idx in data.class_index:
            assert idx.size == 200
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0

    def test_blob_means_separated(self):
        data = gen_dataset("gaussian_blobs", 300, 6, 3, seed=1, noise=0.01,
                           margin=0.3)
        means = np.stack([data.features[idx].mean(axis=0)
                          for idx in data.class_index])
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.linalg.norm(means[a] - means[b]) >= 0.25

    def test_moons_and_digits_kinds(self):
        moons = gen_dataset("two_moons_embedded", 100, 5, 2, seed=2)
        assert moons.num_classes == 2
        digits = gen_dataset("grid_digits", 40, 16, 4, seed=3)
        assert digits.num_classes == 4

    def test_moons_require_two_classes(self):
        with pytest.raises(ValueError):
            gen_dataset("two_moons_embedded", 99, 5, 3, seed=0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            gen_dataset("gaussian_blobs", 601, 8, 3, seed=0)
        with pytest.raises(ValueError):
            gen_dataset("nope", 600, 8, 3, seed=0)

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset_csv(gen_dataset("gaussian_blobs", 60, 4, 3, seed=7), a)
        save_dataset_csv(gen_dataset("gaussian_blobs", 60, 4, 3, seed=7), b)
        assert a.read_bytes() == b.read_bytes()


class TestCsvFormat:
    def test_round_trip(self, tmp_path):
        data = gen_dataset("gaussian_blobs", 30, 5, 3, seed=4)
        path = tmp_path / "d.csv"
        save_dataset_csv(data, path)
        loaded = load_dataset_csv(path)
        assert np.array_equal(loaded.features, data.features)
        assert np.array_equal(loaded.labels, data.labels)

    def test_feature_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["f0,f1,label"] + ["0.5,0.5,0"] * 5 + ["0.5,1.2,0"] + ["0.5,0.5,0"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match="line 7"):
            load_dataset_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_dataset_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_dataset_csv(path)

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("f0,f1,label\n0.5,0.5,0\n0.5,0\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_dataset_csv(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("f0,label\n0.5,0\nx,1\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_dataset_csv(path)


def test_split_dataset_stratified():
    data = gen_dataset("gaussian_blobs", 90, 4, 3, seed=5)
    train, test = split_dataset(data, 0.25, seed=1)
    assert train.n + test.n == 90
    for c in range(3):
        assert test.class_index[c].size == pytest.approx(8, abs=1)


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "data.csv"
    save_dataset_csv(gen_dataset("gaussian_blobs", 60, 4, 3, seed=11, noise=0.07), path)
    return path


class TestCli:
    def test_gen_data_roundtrip(self, tmp_path):
        out = tmp_path / "gen.csv"
        assert main(["gen-data", "--n", "30", "--d", "4", "--classes", "3",
                     "--seed", "2", "--out", str(out)]) == 0
        data = load_dataset_csv(out)
        assert data.n == 30

    def test_select_full_fraction(self, dataset_csv, tmp_path):
        out = tmp_path / "sel"
        assert main(["select", "--data", str(dataset_csv), "--fraction", "1.0",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "coreset.json").read_text())
        indices = sorted(i for c in payload["classes"] for i in c["indices"])
        assert indices == list(range(60))
        assert all(g == 1 for c in payload["classes"] for g in c["gamma"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "select"
        assert "selection_ms" in manifest["timings_ms"]

    def test_train_multi_seed_aggregate(self, dataset_csv, tmp_path):
        out = tmp_path / "train"
        code = main(["train", "--data", str(dataset_csv), "--epochs", "2",
                     "--fraction", "0.2", "--hidden", "6", "--batch-size", "16",
                     "--seeds", "1,2,3", "--out", str(out)])
        assert code == 0
        csvs = sorted(out.glob("run_seed*.csv"))
        assert len(csvs) == 3
        aggregate = json.loads((out / "aggregate.json").read_text())
        # aggregation oracle: recompute from the emitted CSVs
        accs = []
        for path in csvs:
            last = path.read_text().splitlines()[-1].split(",")
            accs.append(float(last[3]))
        assert aggregate["mean_test_acc"] == pytest.approx(np.mean(accs))
        assert aggregate["std_test_acc"] == pytest.approx(np.std(accs))

    def test_test_data_with_fewer_classes_scores_on_training_classes(
            self, dataset_csv, tmp_path):
        test_csv = tmp_path / "test2.csv"
        save_dataset_csv(gen_dataset("gaussian_blobs", 40, 4, 2, seed=12, noise=0.07),
                         test_csv)
        out = tmp_path / "train"
        code = main(["train", "--data", str(dataset_csv), "--test-data", str(test_csv),
                     "--epochs", "2", "--fraction", "0.2", "--hidden", "6",
                     "--out", str(out)])
        assert code == 0
        last = (out / "run_seed0.csv").read_text().splitlines()[-1].split(",")
        assert 0.0 <= float(last[3]) <= 1.0
        assert np.isfinite(float(last[2]))

    def test_test_label_outside_training_classes_is_data_error(self, tmp_path, capsys):
        train_csv = tmp_path / "train2.csv"
        save_dataset_csv(gen_dataset("gaussian_blobs", 40, 4, 2, seed=13), train_csv)
        test_csv = tmp_path / "test3.csv"
        save_dataset_csv(gen_dataset("gaussian_blobs", 30, 4, 3, seed=14), test_csv)
        code = main(["train", "--data", str(train_csv), "--test-data", str(test_csv),
                     "--epochs", "1", "--hidden", "6", "--out", str(tmp_path / "t")])
        assert code == 3
        assert str(test_csv) in capsys.readouterr().err

    def test_test_feature_count_mismatch_is_data_error(self, dataset_csv, tmp_path,
                                                       capsys):
        test_csv = tmp_path / "test5.csv"
        save_dataset_csv(gen_dataset("gaussian_blobs", 30, 5, 3, seed=15), test_csv)
        code = main(["train", "--data", str(dataset_csv), "--test-data", str(test_csv),
                     "--epochs", "1", "--hidden", "6", "--out", str(tmp_path / "t")])
        assert code == 3
        assert str(test_csv) in capsys.readouterr().err

    def test_spectrum_untrained_flag_writes_both(self, dataset_csv, tmp_path):
        out = tmp_path / "spec"
        code = main(["spectrum", "--data", str(dataset_csv), "--epsilon0",
                     "0.0627", "--train-epochs", "2", "--hidden", "6",
                     "--per-class-cap", "15", "--untrained", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        json_outputs = [o for o in manifest["outputs"] if o.endswith(".json")]
        assert len(json_outputs) == 2
        assert any("untrained" in o for o in json_outputs)
        assert any("trained" in o and "untrained" not in o for o in json_outputs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_divergence_is_numerical_failure(self, dataset_csv, tmp_path, capsys):
        code = main(["train", "--data", str(dataset_csv), "--lr", "5", "--epochs", "60",
                     "--hidden", "6", "--out", str(tmp_path / "t")])
        assert code == 4
        assert re.search(r"epoch \d+", capsys.readouterr().err)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_spectrum_warmup_divergence_is_numerical_failure(self, dataset_csv, tmp_path,
                                                             capsys):
        code = main(["spectrum", "--data", str(dataset_csv), "--lr", "5",
                     "--train-epochs", "60", "--hidden", "6", "--out", str(tmp_path / "s")])
        assert code == 4
        assert re.search(r"epoch \d+", capsys.readouterr().err)

    def test_bounds_small_suite(self, tmp_path):
        out = tmp_path / "bounds"
        code = main(["bounds", "--weyl-trials", "20", "--shift-draws", "200",
                     "--vector-trials", "10", "--ntk-instances", "3",
                     "--linear-instances", "5", "--augmentation-rounds", "2",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "bounds.json").read_text())
        assert payload["weyl_random"]["violations"] == 0

    def test_bounds_reports_real_augmentation_audits(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["bounds", *_SHORT_RUN_FLAGS["bounds"], "--out", str(out)]) == 0
        written = (outs[0] / "bounds.json").read_bytes()
        assert written == (outs[1] / "bounds.json").read_bytes()
        payload = json.loads(written)
        assert {name: set(entry) for name, entry in payload.items()} == {
            "weyl_random": {"trials", "violations", "max_violation"},
            "weyl_augmentation": {"rounds", "violations", "max_violation"},
            "shift_model": {"draws", "indices", "all_within_3se", "worst_se_units"},
            "vector_bound": {"trials", "checked", "skipped", "failures"},
            "ntk_bound": {"instances", "failures", "min_margin"},
            "linear_bounds": {"instances", "subset_failures", "combined_failures"},
            "shift_empirical": {"draws", "indices", "within_3se", "all_within_3se",
                                "worst_se_units", "e_norm_mean"},
            "augmented_envelope": {"rounds", "steps", "eta", "skipped", "reason",
                                   "passed", "max_excess"},
            "perturbation_decomposition": {"numerical_rank", "pe_norm2", "perp_e_norm2",
                                           "perp_e_sigma_min", "mu_feasible"},
        }
        assert payload["shift_empirical"]["draws"] == coreaug.audits.SHIFT_EMPIRICAL_DRAWS
        assert payload["augmented_envelope"]["rounds"] == 2
        assert payload["augmented_envelope"]["steps"] == coreaug.audits.ENVELOPE_STEPS

    def test_real_augmentation_audits_stay_out_of_the_verdict(self, tmp_path, monkeypatch):
        failing = {
            "shift_empirical": {"all_within_3se": False, "within_3se": 0},
            "augmented_envelope": {"skipped": False, "passed": False, "max_excess": 1.0},
            "perturbation_decomposition": {"mu_feasible": {"top": False, "bottom": False}},
        }
        monkeypatch.setattr(coreaug.audits, "audit_real_augmentation",
                            lambda rounds, seed: failing)
        out = tmp_path / "bounds"
        assert main(["bounds", *_SHORT_RUN_FLAGS["bounds"], "--out", str(out)]) == 0
        payload = json.loads((out / "bounds.json").read_text())
        assert {name: payload[name] for name in failing} == failing

    def test_bounds_without_augmentation_rounds_is_config_error(self, tmp_path, capsys):
        # zero rounds leave the envelope check nothing to average
        argv = ["bounds", *_SHORT_RUN_FLAGS["bounds"], "--augmentation-rounds", "0"]
        assert main(argv + ["--out", str(tmp_path / "b")]) == 2
        assert "rounds must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--weyl-trials", "--shift-draws", "--vector-trials",
                                      "--ntk-instances", "--linear-instances",
                                      "--augmentation-rounds"])
    def test_bounds_empty_battery_is_config_error(self, flag, tmp_path, capsys):
        # an empty battery would pass vacuously and write +-Infinity extremes
        out = tmp_path / "b"
        argv = ["bounds", *_SHORT_RUN_FLAGS["bounds"], flag, "0", "--out", str(out)]
        assert main(argv) == 2
        name = flag[2:].replace("-", "_")
        assert f"{name} must be >= 1, got 0" in capsys.readouterr().err
        assert not (out / "bounds.json").exists()

    def test_bounds_svd_nonconvergence_is_numerical_failure(self, tmp_path, monkeypatch,
                                                            capsys):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        argv = ["bounds", *_SHORT_RUN_FLAGS["bounds"], "--out", str(tmp_path / "b")]
        assert main(argv) == 4
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_select_distance_overflow_is_numerical_failure(self, dataset_csv, tmp_path,
                                                           monkeypatch, capsys):
        proxy = coreaug.cli.gradient_proxy

        def huge_proxy(net, data, mode):
            proxies = proxy(net, data, mode)
            return dataclasses.replace(proxies, proxies=proxies.proxies * 1e160)

        monkeypatch.setattr(coreaug.cli, "gradient_proxy", huge_proxy)
        assert main(["select", "--data", str(dataset_csv), "--k-per-class", "5",
                     "--out", str(tmp_path / "sel")]) == 4
        assert "numerical failure: class 0: " in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_spectrum_non_finite_jacobian_is_numerical_failure(self, dataset_csv, tmp_path,
                                                               monkeypatch, capsys):
        def overflowed_warmup(net, data, epochs, lr, seed=0):
            net.weights[-1][0, 0] = np.inf
            return net

        monkeypatch.setattr(coreaug.cli, "sgd_warmup", overflowed_warmup)
        assert main(["spectrum", "--data", str(dataset_csv), "--train-epochs", "1",
                     "--hidden", "6", "--out", str(tmp_path / "s")]) == 4
        err = capsys.readouterr().err
        assert "numerical failure: stacked derivative matrix" in err
        assert "non-finite entries" in err

    def test_spectrum_jacobian_over_the_entry_cap_is_config_error(self, dataset_csv, tmp_path,
                                                                  monkeypatch, capsys):
        jacobian = coreaug.audits.jacobian
        monkeypatch.setattr(coreaug.audits, "jacobian",
                            lambda net, X: jacobian(net, X, entry_cap=1000))
        assert main(["spectrum", "--data", str(dataset_csv), "--train-epochs", "1",
                     "--hidden", "6", "--out", str(tmp_path / "s")]) == 2
        assert "entries, cap is 1000" in capsys.readouterr().err

    def test_select_rejects_a_bad_fraction_beside_k_per_class(self, dataset_csv, tmp_path,
                                                               capsys):
        assert main(["select", "--data", str(dataset_csv), "--k-per-class", "5",
                     "--fraction", "2", "--out", str(tmp_path / "sel")]) == 2
        assert "fraction must lie in (0, 1]" in capsys.readouterr().err

    def test_experiment_noise_writes_protocol_numbers(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "noise", "--out", str(out_a)]) == 0
        assert main(["experiment", "noise", "--out", str(out_b)]) == 0
        written = (out_a / "noise.json").read_bytes()
        assert json.loads(written) == noise_robustness()
        assert written == (out_b / "noise.json").read_bytes()
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["command"] == "experiment"
        assert manifest["outputs"] == ["noise.json"]

    @pytest.mark.parametrize("argv", [
        ["select", "--data", "{data}", "--engine", "naive", "--lr", "0.01",
         "--stochastic-sample", "5"],
        ["train", "--data", "{data}", "--epochs", "1", "--hidden", "6", "--engine", "naive",
         "--lr-decay-epochs", "1", "--split-seed", "3", "--proxy-mode", "residual"],
        ["spectrum", "--data", "{data}", "--epsilon0", "0.0627", "--train-epochs", "1",
         "--hidden", "6", "--per-class-cap", "15", "--lr", "0.01"],
        ["bounds", "--weyl-trials", "5", "--shift-draws", "100", "--vector-trials", "5",
         "--ntk-instances", "2", "--linear-instances", "2", "--augmentation-rounds", "1"],
    ], ids=lambda argv: argv[0])
    def test_manifest_config_records_every_flag(self, argv, dataset_csv, tmp_path):
        argv = [a.replace("{data}", str(dataset_csv)) for a in argv]
        argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 0
        parsed = vars(build_parser().parse_args(argv))
        expected = {k: v for k, v in parsed.items() if k not in ("fn", "out", "config")}
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"] == json.loads(json.dumps(expected))

    def test_report_aggregates_runs(self, dataset_csv, tmp_path):
        run_dir = tmp_path / "runs"
        main(["train", "--data", str(dataset_csv), "--epochs", "2",
              "--fraction", "0.2", "--hidden", "6", "--seeds", "4,5",
              "--out", str(run_dir)])
        out = tmp_path / "summary.json"
        assert main(["report", "--runs", str(run_dir), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["runs"]) == 2

    def test_config_file_supplies_flags(self, dataset_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "n": 30, "d": 4,
                                   "classes": 3, "seed": 9}))
        out = tmp_path / "from_config.csv"
        assert main(["--config", str(cfg), "gen-data", "--out", str(out)]) == 0
        assert load_dataset_csv(out).n == 30

    def test_cli_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "n": 30, "d": 4,
                                   "classes": 3}))
        out = tmp_path / "o.csv"
        assert main(["--config", str(cfg), "gen-data", "--n", "60",
                     "--out", str(out)]) == 0
        assert load_dataset_csv(out).n == 60

    def test_wrong_schema_version_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 99}))
        assert main(["--config", str(cfg), "gen-data", "--out", "x.csv"]) == 2

    def test_missing_data_file_is_data_error(self, tmp_path):
        assert main(["select", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "sel")]) == 3

    def test_malformed_data_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,label\n2.5,0\n")
        assert main(["select", "--data", str(bad),
                     "--out", str(tmp_path / "sel")]) == 3

    def test_invalid_param_is_config_error(self, dataset_csv, tmp_path):
        assert main(["gen-data", "--n", "7", "--classes", "3",
                     "--out", str(tmp_path / "bad.csv")]) == 2

    def test_entrypoint_subprocess(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "coreaug.cli", "gen-data", "--n", "12",
             "--d", "3", "--classes", "3", "--out", str(tmp_path / "p.csv")],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


def _readme_commands() -> list[str]:
    """Every ``coreaug ...`` command in README's fenced blocks, with ``\\``
    continuations joined and comment lines dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in text.split("```")[1::2]:
        current = None
        for line in block.splitlines():
            line = line.strip()
            if current is None and not line.startswith("coreaug "):
                continue
            current = line if current is None else f"{current} {line}"
            if current.endswith("\\"):
                current = current[:-1]
            else:
                commands.append(current)
                current = None
    return commands


# Appended to a README command so the run stays short; argparse keeps the last
# value of a repeated flag. ``train`` and ``spectrum`` run as documented (about
# 3 s together), so their default learning rate is exercised.
_SHORT_RUN_FLAGS = {
    "bounds": ["--weyl-trials", "20", "--shift-draws", "200", "--vector-trials", "10",
               "--ntk-instances", "3", "--linear-instances", "5",
               "--augmentation-rounds", "2"],
}


def test_readme_commands_parse(tmp_path, monkeypatch, capsys):
    """Every README command parses, and then runs, in order, to exit 0;
    ``bounds`` runs small batteries and the experiments one protocol seed."""
    argvs = [shlex.split(c, comments=True)[1:] for c in _readme_commands()]
    assert {argv[0] for argv in argvs} == {"gen-data", "select", "train", "spectrum",
                                           "bounds", "experiment", "report"}
    parser = build_parser()
    for argv in argvs:
        parser.parse_args(argv)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(coreaug.audits, "PROTOCOL_SEEDS", (0,))
    for argv in argvs:
        assert main(argv + _SHORT_RUN_FLAGS.get(argv[0], [])) == 0, \
            f"{argv}: {capsys.readouterr().err}"


def test_bench_trace_targets_exist():
    """The benchmark's tracer patches functions by name; each one it names
    must exist, or a rename breaks only the traced benchmark passes."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"coreaug.{module}"), attr, None)), \
            f"coreaug.{module}.{attr}"
    assert set(coreaug.coreset._ENGINE_FNS) == {"naive", "lazy", "stochastic"}



def _used_names(tree: ast.AST):
    """(name, line) for every name the code reads, as a bare name or as an
    attribute; imports and ``__all__`` strings are not uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _definition_lines(tree: ast.Module, name: str) -> range:
    """Lines of the top-level class, function or assignment defining ``name``."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            defined = [getattr(node, "name", None)]
        if name in defined:
            return range(node.lineno, node.end_lineno + 1)
    raise AssertionError(f"no top-level definition of {name}")


def test_every_exported_name_has_a_caller():
    """Each name in a coreaug module's ``__all__`` is used by the package
    outside its own definition, or by the acceptance criteria, so no library
    code runs only under unit tests."""
    root = Path(__file__).resolve().parents[1]
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((root / "src" / "coreaug").glob("*.py"))
             if path.name != "__init__.py"}
    uses = {stem: list(_used_names(tree)) for stem, tree in trees.items()}
    acceptance = ast.parse((root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    used_by_acceptance = {name for name, _ in _used_names(acceptance)}
    unused = []
    for stem, tree in trees.items():
        exported = [ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
        for name in exported[0] if exported else ():
            own = _definition_lines(tree, name)
            if name not in used_by_acceptance and not any(
                    used == name and not (other == stem and line in own)
                    for other, names in uses.items() for used, line in names):
                unused.append(f"{stem}.{name}")
    assert not unused, f"only tests reach: {', '.join(unused)}"
