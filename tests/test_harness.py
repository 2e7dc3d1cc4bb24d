import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coreaug.audits
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
