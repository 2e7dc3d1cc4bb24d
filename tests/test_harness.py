import argparse
import ast
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coreaug.audits
import coreaug.cli
import coreaug.coreset
import coreaug.model
import coreaug.spectrum
from coreaug.audits import BATTERIES, noise_robustness, run_bounds_suite
from coreaug.cli import build_parser, main
from coreaug.data import (
    DataFormatError,
    gen_dataset,
    load_dataset_csv,
    save_dataset_csv,
    split_dataset,
)
from coreaug.augment import TransformSpec
from coreaug.coreset import SelectionConfig, select_all_classes
from coreaug.model import MLP, class_rows, gradient_proxy
from coreaug.spectrum import expected_shift_model_check
from coreaug.trainer import CSV_HEADER, LrSchedule, TrainConfig, sgd_warmup


class TestGenerators:
    def test_blobs_balanced_and_clamped(self):
        data = gen_dataset("gaussian_blobs", 600, 8, 3, seed=0)
        assert data.n == 600
        assert np.array_equal(np.bincount(data.labels), [200, 200, 200])
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0

    def test_blob_means_separated(self):
        data = gen_dataset("gaussian_blobs", 300, 6, 3, seed=1, noise=0.01,
                           margin=0.3)
        means = np.stack([data.features[idx].mean(axis=0)
                          for _, idx in class_rows(data.labels)])
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
        with pytest.raises(ValueError, match="num_classes must be >= 1, got 0"):
            gen_dataset("gaussian_blobs", 600, 8, 0, seed=0)
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

    def test_load_holds_text_and_raw_doubles(self, tmp_path, traced_peak_bytes):
        """Loading holds the file's text and its split lines (about twice the
        file) plus the features as raw doubles with their buffer's growth
        slack; a Python float and its list slot per value would take 32
        bytes, not 8, and exceed the bound."""
        data = gen_dataset("gaussian_blobs", 3000, 16, 3, seed=6)
        path = tmp_path / "d.csv"
        save_dataset_csv(data, path)
        peak = traced_peak_bytes(lambda: load_dataset_csv(path))
        assert peak <= 2 * path.stat().st_size + 2 * data.features.nbytes

    def test_load_holds_one_line_of_text(self, tmp_path, traced_peak_bytes):
        """Loading reads the file one line at a time, so its peak is the
        features as raw doubles with their buffer's growth slack plus the
        labels, not the file's text (about 2.4 times the features here)."""
        data = gen_dataset("gaussian_blobs", 3000, 16, 3, seed=6)
        path = tmp_path / "d.csv"
        save_dataset_csv(data, path)
        peak = traced_peak_bytes(lambda: load_dataset_csv(path))
        assert peak <= 2 * data.features.nbytes

    # CRLF ends, a form feed (\x0c), a file separator (\x1c), NEL (\x85) and
    # a blank line: text.splitlines() breaks at each, so the loader does too.
    # Lines 3, 6 and 7 are blank.
    _MIXED_LINE_ENDS = ("f0,f1,label\r\n0.1,0.2,0\r\n\r\n0.3,0.4,1\x0c0.5,0.6,2\n"
                        "\x1c\n0.7,0.8,1\x850.9,1,0\n")

    def test_rows_split_at_every_line_boundary(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_bytes(self._MIXED_LINE_ENDS.encode("utf-8"))
        loaded = load_dataset_csv(path)
        assert loaded.features.tolist() == [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6],
                                            [0.7, 0.8], [0.9, 1.0]]
        assert loaded.labels.tolist() == [0, 1, 2, 1, 0]

    @pytest.mark.parametrize("bad_row, message", [
        ("0.5,0.5", "line 10: expected 3 columns, got 2"),
        ("0.5,x,0", "line 10: non-numeric value"),
        ("0.5,0.5,-1", "line 10: negative label"),
        ("0.5,1.5,0", "line 10: feature f1=1.5 outside [0, 1]"),
        ("0.5,0.5,0\x0c\x1c0.5,1.5,0", "line 12: feature f1=1.5 outside [0, 1]"),
    ])
    def test_line_numbers_count_every_line_boundary(self, bad_row, message, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_bytes((self._MIXED_LINE_ENDS + bad_row + "\r\n").encode("utf-8"))
        with pytest.raises(DataFormatError) as info:
            load_dataset_csv(path)
        assert str(info.value) == f"{path}: {message}"

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

    # (data rows after the header "f0,f1,label", the message after the path);
    # the first offending line wins, and within a line the order is columns,
    # numbers, an integer label, feature range, label sign, label size
    PRECEDENCE = {
        "range_before_columns": (["0.5,0.5,0", "0.5,1.5,0", "0.5,0", "0.5,0.5,0"],
                                 "line 3: feature f1=1.5 outside [0, 1]"),
        "columns_before_range": (["0.5,0.5,0", "0.5,0", "0.5,1.5,0"],
                                 "line 3: expected 3 columns, got 2"),
        "range_before_non_numeric": (["-0.25,0.5,0", "x,0.5,1"],
                                     "line 2: feature f0=-0.25 outside [0, 1]"),
        "non_numeric_before_range": (["0.5,0.5,0", "0.5,0.5,y", "2,0.5,0"],
                                     "line 3: non-numeric value"),
        "range_before_label_same_line": (["0.5,0.5,0", "0.5,7,-1"],
                                         "line 3: feature f1=7.0 outside [0, 1]"),
        "first_bad_feature_of_line": (["1.5,-1,0"],
                                      "line 2: feature f0=1.5 outside [0, 1]"),
        "label_before_range": (["0.5,0.5,-2", "0.5,1.5,0"],
                               "line 2: negative label"),
        "range_before_label": (["0.5,1.5,0", "0.5,0.5,-2"],
                               "line 2: feature f1=1.5 outside [0, 1]"),
        "nan_feature": (["0.5,0.5,0", "nan,0.5,1"],
                        "line 3: feature f0=nan outside [0, 1]"),
        "inf_feature": (["0.5,inf,0"], "line 2: feature f1=inf outside [0, 1]"),
        "minus_inf_feature": (["0.5,0.5,0", "0.5,0.5,1", "-inf,0.5,0"],
                              "line 4: feature f0=-inf outside [0, 1]"),
        "blank_lines_count": (["0.5,0.5,0", "", "   ", "0.5,0.5,1", "", "0.5,1.01,0"],
                              "line 7: feature f1=1.01 outside [0, 1]"),
        "blank_lines_count_for_columns": (["", "0.5,0.5,0", "", "0.5,0.5"],
                                          "line 5: expected 3 columns, got 2"),
        "bounds_are_inclusive": (["0,1,0", "1,0,1", "0.0,1.0,-3"],
                                 "line 4: negative label"),
        "label_not_an_integer_before_range": (["0.5,0.5,0", "0.5,2,1.5"],
                                              "line 3: label '1.5' is not an integer"),
        "label_beyond_int64": (["0.5,0.5,0", "0.5,0.5,100000000000000000000", "0.5,2,0"],
                               "line 3: label 100000000000000000000 does not fit int64"),
        "range_before_label_beyond_int64": (["0.5,2,9223372036854775808"],
                                            "line 2: feature f1=2.0 outside [0, 1]"),
        "largest_int64_label_parses": (["0.5,0.5,9223372036854775807", "0.5,0.5,-1"],
                                       "line 3: negative label"),
    }

    @pytest.mark.parametrize("case", PRECEDENCE)
    def test_error_precedence(self, tmp_path, case):
        rows, message = self.PRECEDENCE[case]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["f0,f1,label"] + rows) + "\n")
        with pytest.raises(DataFormatError) as info:
            load_dataset_csv(path)
        assert str(info.value) == f"{path}: {message}"


def test_split_dataset_stratified():
    data = gen_dataset("gaussian_blobs", 90, 4, 3, seed=5)
    train, test = split_dataset(data, 0.25, seed=1)
    assert train.n + test.n == 90
    assert np.bincount(test.labels, minlength=3) == pytest.approx([8, 8, 8], abs=1)


def strict_json(path: Path):
    """``path`` parsed as strict JSON: a bare NaN or Infinity fails."""
    def reject(token):
        raise ValueError(f"{path}: non-standard JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "data.csv"
    save_dataset_csv(gen_dataset("gaussian_blobs", 60, 4, 3, seed=11, noise=0.07), path)
    return path


# One row per config value that must exit 2: the argv, where {cfg} is the
# config file and {data} a valid 60-row CSV; the config's keys besides
# schema_version; and what stderr must hold, naming the key.
CONFIG_ERRORS = {
    "select engine": (["--config", "{cfg}", "select", "--data", "{data}"],
                      {"engine": "fast"}, ("engine", "'fast'")),
    "select fraction": (["--config", "{cfg}", "select", "--data", "{data}"],
                        {"fraction": 2.0}, ("fraction", "must lie in (0, 1], got 2.0")),
    "train k_per_class": (["train", "--config", "{cfg}"], {"k_per_class": 0},
                          ("key 'k_per_class': must be >= 1, got 0",)),
    "train seeds": (["train", "--config", "{cfg}"], {"seeds": []},
                    ("key 'seeds': needs at least one seed",)),
    "train repeated seed": (["train", "--config", "{cfg}"], {"seeds": [3, 3]},
                            ("key 'seeds': seed 3 repeated",)),
    "train hidden": (["train", "--config", "{cfg}"], {"hidden": ["a"]},
                     ("key 'hidden': invalid literal for int()",)),
    "train lr_decay_epochs": (["train", "--config", "{cfg}"], {"lr_decay_epochs": [1, 2.5]},
                              ("key 'lr_decay_epochs': invalid literal for int()",)),
    "train regime": (["train", "--config", "{cfg}"], {"regime": "all"},
                     ("key 'regime': invalid choice 'all'",)),
    "train lr Infinity": (["train", "--config", "{cfg}"], {"lr": math.inf},
                          ("key 'lr': must be finite, got inf",)),
    "train false epochs": (["train", "--config", "{cfg}"], {"epochs": False},
                           ("key 'epochs': invalid literal for int()",)),
    "train null data": (["train", "--config", "{cfg}"], {"data": None, "epochs": 1},
                        ("the following arguments are required: --data",)),
    "spectrum untrained": (["spectrum", "--data", "{data}", "--config", "{cfg}"],
                           {"untrained": "yes"},
                           ("key 'untrained': must be true or false, got 'yes'",)),
    "spectrum epsilon0": (["spectrum", "--data", "{data}", "--config", "{cfg}"],
                          {"epsilon0": []}, ("key 'epsilon0': needs at least one value",)),
    "gen-data unknown key": (["gen-data", "--config", "{cfg}"], {"epochs": 2},
                             ("key 'epochs' is not an option of 'gen-data'",)),
    "gen-data command": (["gen-data", "--config", "{cfg}"], {"command": "train"},
                         ("command 'train' does not match the subcommand 'gen-data'",)),
}


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

    def test_manifest_records_blas_build_and_threads(self, dataset_csv, tmp_path,
                                                     monkeypatch):
        """Byte-identical outputs hold for one BLAS build at one thread
        setting, so the manifest names both; an unset variable is null."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        out = tmp_path / "sel"
        assert main(["select", "--data", str(dataset_csv), "--fraction", "0.2",
                     "--out", str(out)]) == 0
        versions = json.loads((out / "manifest.json").read_text())["versions"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert versions["blas"] == {"name": blas["name"], "version": blas["version"],
                                    "build": blas.get("openblas configuration")}
        assert versions["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                            "OMP_NUM_THREADS": None,
                                            "MKL_NUM_THREADS": "2"}

    def test_manifest_blas_is_null_where_numpy_cannot_report_it(self, dataset_csv,
                                                                 tmp_path, monkeypatch):
        """NumPy 1.24, the declared floor, has a ``show_config`` that only
        prints and takes no ``mode``: the run still succeeds, with null BLAS
        fields."""
        monkeypatch.setattr(np, "show_config", lambda: None)
        out = tmp_path / "sel"
        assert main(["select", "--data", str(dataset_csv), "--out", str(out)]) == 0
        versions = json.loads((out / "manifest.json").read_text())["versions"]
        assert versions["blas"] == {"name": None, "version": None, "build": None}

    def test_select_warmup_selects_as_the_library_does(self, dataset_csv, tmp_path):
        """``select --warmup-epochs 3`` writes the coreset of ``sgd_warmup``
        followed by ``select_all_classes``, which differs from no warm-up."""
        outs = {w: tmp_path / f"w{w}" for w in (0, 3)}
        for w, out in outs.items():
            assert main(["select", "--data", str(dataset_csv), "--warmup-epochs", str(w),
                         "--fraction", "0.2", "--out", str(out)]) == 0
        written = {w: json.loads((out / "coreset.json").read_text())
                   for w, out in outs.items()}
        data = load_dataset_csv(dataset_csv)
        net = MLP.init([data.dim, 32, data.num_classes], seed=0)
        sgd_warmup(net, data, 3, 0.005, seed=0)
        coreset = select_all_classes(gradient_proxy(net, data, "last_layer"),
                                     SelectionConfig(fraction=0.2))
        assert written[3] == coreset.to_json_dict(1)
        assert written[3] != written[0]

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

    def test_short_test_file_with_a_high_training_label_trains(self, dataset_csv,
                                                                tmp_path):
        """Only the training file sets the class count, so only it must hold
        a row per class; a test file's labels need only be training classes."""
        test_csv = tmp_path / "one_row.csv"
        test_csv.write_text("f0,f1,f2,f3,label\n0.5,0.5,0.5,0.5,2\n")
        out = tmp_path / "train"
        code = main(["train", "--data", str(dataset_csv), "--test-data", str(test_csv),
                     "--epochs", "1", "--hidden", "6", "--out", str(out)])
        assert code == 0
        last = (out / "run_seed0.csv").read_text().splitlines()[-1].split(",")
        assert float(last[3]) in (0.0, 1.0)

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv,message", [
        (["train", "--epochs", "3"],
         "numerical failure: training seed 0 diverged at epoch 0: loss nan, "
         "gradient norm nan"),
        (["spectrum"], "numerical failure: warm-up diverged at epoch 0: loss nan"),
    ], ids=["train", "spectrum"])
    def test_non_finite_loss_is_numerical_failure(self, argv, message, dataset_csv,
                                                  tmp_path, capsys):
        assert main([*argv, "--data", str(dataset_csv), "--lr", "1e300",
                     "--out", str(tmp_path / "o")]) == 4
        assert message in capsys.readouterr().err

    def test_spectrum_svd_nonconvergence_names_the_shape(self, dataset_csv, tmp_path,
                                                         monkeypatch, capsys):
        """``linalg.svd`` turns LAPACK's ``LinAlgError`` into a
        ``NumericalError`` naming the stacked matrix's shape: 60 rows x 3
        classes by the 51 parameters of a 4-6-3 net."""
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        assert main(["spectrum", "--data", str(dataset_csv), "--train-epochs", "1",
                     "--hidden", "6", "--out", str(tmp_path / "s")]) == 4
        assert "numerical failure: SVD did not converge for shape (180, 51)" \
            in capsys.readouterr().err

    def test_bounds_small_suite(self, tmp_path):
        out = tmp_path / "bounds"
        code = main(["bounds", "--weyl-trials", "20", "--shift-draws", "200",
                     "--vector-trials", "10", "--ntk-instances", "3",
                     "--linear-instances", "5", "--augmentation-rounds", "2",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "bounds.json").read_text())
        assert payload["weyl_random"]["violations"] == 0

    def test_bounds_writes_the_six_verdict_batteries(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["bounds", *_SHORT_RUN_FLAGS["bounds"], "--out", str(out)]) == 0
        written = (outs[0] / "bounds.json").read_bytes()
        assert written == (outs[1] / "bounds.json").read_bytes()
        payload = json.loads(written)
        assert {name: set(entry) for name, entry in payload.items()} == {
            "weyl_random": {"trials", "violations", "max_violation", "passed"},
            "weyl_augmentation": {"rounds", "violations", "max_violation",
                                  "shift_over_e_norm", "passed"},
            "shift_model": {"draws", "indices", "all_within_3se", "worst_se_units",
                            "chi2", "chi2_critical", "passed"},
            "vector_bound": {"trials", "checked", "skipped", "failures", "passed"},
            "ntk_bound": {"instances", "failures", "min_margin", "passed"},
            "linear_bounds": {"instances", "subset_failures", "combined_failures",
                              "passed"},
        }
        assert set(payload["weyl_augmentation"]["shift_over_e_norm"]) == {"median", "max"}
        assert all(entry["passed"] is True for entry in payload.values())

    @pytest.mark.parametrize("battery", ["weyl_random", "weyl_augmentation", "shift_model",
                                         "vector_bound", "ntk_bound", "linear_bounds"])
    def test_one_failed_battery_fails_the_suite(self, battery, tmp_path, monkeypatch,
                                                capsys):
        suite = coreaug.audits.run_bounds_suite

        def one_failing(seed, sizes):
            entries = suite(seed, sizes)
            entries[battery]["passed"] = False
            return entries

        monkeypatch.setattr(coreaug.cli, "run_bounds_suite", one_failing)
        out = tmp_path / "bounds"
        assert main(["bounds", *_SHORT_RUN_FLAGS["bounds"], "--out", str(out)]) == 4
        assert "bounds suite FAIL" in capsys.readouterr().out
        assert not json.loads((out / "bounds.json").read_text())[battery]["passed"]

    def test_bounds_without_augmentation_rounds_is_config_error(self, tmp_path, capsys):
        # zero rounds would leave the Weyl battery on real augmentation vacuous
        out = tmp_path / "b"
        argv = ["bounds", *_SHORT_RUN_FLAGS["bounds"], "--augmentation-rounds", "0"]
        assert _exit_code(argv + ["--out", str(out)]) == 2
        assert "argument --augmentation-rounds: must be >= 1, got 0" in capsys.readouterr().err
        assert not (out / "bounds.json").exists()

    @pytest.mark.parametrize("flag", ["--weyl-trials", "--shift-draws", "--vector-trials",
                                      "--ntk-instances", "--linear-instances",
                                      "--augmentation-rounds"])
    def test_bounds_empty_battery_is_config_error(self, flag, tmp_path, capsys):
        # an empty battery would pass vacuously and write +-Infinity extremes
        out = tmp_path / "b"
        argv = ["bounds", *_SHORT_RUN_FLAGS["bounds"], flag, "0", "--out", str(out)]
        assert _exit_code(argv) == 2
        least = 100 if flag == "--shift-draws" else 1
        assert f"argument {flag}: must be >= {least}, got 0" in capsys.readouterr().err
        assert not (out / "bounds.json").exists()

    def test_bounds_that_checked_no_vector_bound_fails(self, tmp_path, capsys):
        """At seed 12 the one vector-bound trial misses the gap condition and
        is skipped, so the battery asserted nothing: it fails, and only it."""
        assert coreaug.audits.audit_vector_bound(1, 12) == {
            "trials": 1, "checked": 0, "skipped": 1, "failures": 0, "passed": False}
        out = tmp_path / "b"
        argv = ["bounds", *_SHORT_RUN_FLAGS["bounds"], "--seed", "12", "--vector-trials", "1"]
        assert main(argv + ["--out", str(out)]) == 4
        assert "bounds suite FAIL" in capsys.readouterr().out
        payload = json.loads((out / "bounds.json").read_text())
        assert [name for name, entry in payload.items() if not entry["passed"]] == [
            "vector_bound"]

    def test_bounds_shift_model_false_alarm_passes(self, tmp_path):
        """At seed 6 one of the ten shift-model indices lies 3.25 SE out,
        a false alarm the chi-square verdict does not raise."""
        argv = ["bounds", "--seed", "6", "--weyl-trials", "20", "--vector-trials", "10",
                "--ntk-instances", "3", "--linear-instances", "5",
                "--augmentation-rounds", "2", "--out", str(tmp_path / "b")]
        assert main(argv) == 0
        shift = json.loads((tmp_path / "b" / "bounds.json").read_text())["shift_model"]
        assert not shift["all_within_3se"] and shift["passed"]

    def test_bounds_shift_model_catches_a_wrong_closed_form(self, monkeypatch):
        """A closed form that overstates ||E|| by 10% fails the verdict at
        seed 0, whose correct closed form passes it."""
        shift = coreaug.audits.audit_shift_model(1000, 0)
        assert shift["passed"]
        assert shift["chi2_critical"] == pytest.approx(23.209, abs=1e-3)
        closed_form = coreaug.spectrum._shift_prediction
        monkeypatch.setattr(coreaug.spectrum, "_shift_prediction",
                            lambda sigma, p, e_norm: closed_form(sigma, p, 1.1 * e_norm))
        assert not coreaug.audits.audit_shift_model(1000, 0)["passed"]

    def test_shift_model_cut_is_the_exact_upper_1_percent_point(self):
        """With 10 degrees of freedom the chi-square upper tail at x is
        exp(-x/2) sum_{k<5} (x/2)^k / k!, which the cut must bring to 1%."""
        h = coreaug.audits.audit_shift_model(100, 0)["chi2_critical"] / 2.0
        tail = math.exp(-h) * sum(h**k / math.factorial(k) for k in range(5))
        assert abs(tail - 0.01) <= 1e-15

    def test_bounds_svd_nonconvergence_is_numerical_failure(self, tmp_path, monkeypatch,
                                                            capsys):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        argv = ["bounds", *_SHORT_RUN_FLAGS["bounds"], "--out", str(tmp_path / "b")]
        assert main(argv) == 4
        assert "numerical failure: SVD did not converge for shape (" in capsys.readouterr().err

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
        monkeypatch.setattr(coreaug.model, "JACOBIAN_ENTRY_CAP", 1000)
        assert main(["spectrum", "--data", str(dataset_csv), "--train-epochs", "1",
                     "--hidden", "6", "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert "config error: --hidden: jacobian would hold " in err
        assert "entries, cap is 1000" in err

    def test_select_rejects_a_bad_fraction_beside_k_per_class(self, dataset_csv, tmp_path,
                                                               capsys):
        assert _exit_code(["select", "--data", str(dataset_csv), "--k-per-class", "5",
                           "--fraction", "2", "--out", str(tmp_path / "sel")]) == 2
        assert "argument --fraction: must lie in (0, 1], got 2.0" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv,inputs,seeds,timings", [
        (["select", "--data", "{data}", "--seed", "3"], ["{data}"], [3], ["selection_ms"]),
        (["train", "--data", "{data}", "--test-data", "{test}", "--epochs", "1",
          "--hidden", "6", "--seeds", "1,2"], ["{data}", "{test}"], [1, 2],
         ["train_seed1_ms", "train_seed2_ms"]),
        (["spectrum", "--data", "{data}", "--epsilon0", "0.03", "0.06", "--train-epochs", "1",
          "--hidden", "6", "--per-class-cap", "15", "--untrained"], ["{data}"], [0],
         ["train_ms", "spectrum_untrained_eps0.030000_ms", "spectrum_untrained_eps0.060000_ms",
          "spectrum_trained_eps0.030000_ms", "spectrum_trained_eps0.060000_ms"]),
        (["bounds", "--weyl-trials", "5", "--shift-draws", "100", "--vector-trials", "5",
          "--ntk-instances", "2", "--linear-instances", "2", "--augmentation-rounds", "1"],
         [], [0], ["bounds_ms"]),
        (["experiment", "noise"], [], [0, 1, 2, 3, 4], ["experiment_ms"]),
    ], ids=["select", "train", "spectrum", "bounds", "experiment"])
    def test_manifest_records_the_run(self, argv, inputs, seeds, timings, dataset_csv,
                                      tmp_path, monkeypatch):
        """The manifest lists exactly the files the run wrote under --out,
        hashes the --data and --test-data files, and names the seeds and the
        timed phases."""
        monkeypatch.setattr(coreaug.cli, "noise_robustness", lambda: {"coreset": [0.0]})
        test_csv = tmp_path / "test.csv"
        save_dataset_csv(gen_dataset("gaussian_blobs", 30, 4, 3, seed=12), test_csv)
        out = tmp_path / "o"
        argv, inputs = ([a.format(data=dataset_csv, test=test_csv) for a in v]
                        for v in (argv, inputs))
        assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == sorted(p.name for p in out.iterdir()
                                             if p.name != "manifest.json")
        assert manifest["inputs"] == [
            {"path": p, "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
            for p in inputs]
        assert manifest["seeds"] == seeds
        assert sorted(manifest["timings_ms"]) == sorted(timings)

    def test_failing_bounds_still_writes_its_manifest(self, tmp_path, monkeypatch, capsys):
        suite = {"weyl_random": {"violations": 1, "passed": False},
                 "weyl_augmentation": {"violations": 0, "passed": True},
                 "shift_model": {"passed": True},
                 "vector_bound": {"failures": 0, "passed": True},
                 "ntk_bound": {"failures": 0, "passed": True},
                 "linear_bounds": {"subset_failures": 0, "combined_failures": 0,
                                   "passed": True}}
        monkeypatch.setattr(coreaug.cli, "run_bounds_suite", lambda seed, sizes: suite)
        out = tmp_path / "b"
        assert main(["bounds", "--out", str(out)]) == 4
        assert "bounds suite FAIL" in capsys.readouterr().out
        assert json.loads((out / "bounds.json").read_text()) == suite
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["bounds.json"]
        assert list(manifest["timings_ms"]) == ["bounds_ms"]

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

    def test_manifest_config_replays_its_run(self, dataset_csv, tmp_path):
        """A manifest's config, with schema_version added, fed back through
        ``--config`` reproduces the run: its nulls keep their defaults, its
        lists become ``--seeds``/``--hidden`` values or ``nargs`` values, and
        its ``command`` names the subcommand."""
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main(["train", "--data", str(dataset_csv), "--epochs", "2", "--hidden", "6,5",
                     "--seeds", "1,2", "--lr-decay-epochs", "1", "--out", str(first)]) == 0
        config = json.loads((first / "manifest.json").read_text())["config"]
        assert None in config.values()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, **config}))
        assert main(["--config", str(cfg), "train", "--out", str(replay)]) == 0
        col = CSV_HEADER.split(",").index("selection_ms")

        def masked(path):
            rows = [line.split(",") for line in path.read_text().splitlines()]
            return "\n".join(",".join(row[:col] + row[col + 1:]) for row in rows)

        for name in ("run_seed1.csv", "run_seed2.csv"):
            assert masked(replay / name) == masked(first / name)
        assert (replay / "aggregate.json").read_bytes() == (first / "aggregate.json").read_bytes()

    def test_experiment_manifest_replays(self, tmp_path, monkeypatch):
        """An experiment manifest's positional ``name`` replays as a bare
        value, unless the command line names the experiment itself."""
        monkeypatch.setattr(coreaug.cli, "noise_robustness", lambda: {"coreset": [0.0]})
        monkeypatch.setattr(coreaug.cli, "subset_benchmark", lambda: {"coreset+aug": [1.0]})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "command": "experiment",
                                   "name": "noise"}))
        out = tmp_path / "e"
        assert main(["--config", str(cfg), "experiment", "--out", str(out)]) == 0
        assert json.loads((out / "noise.json").read_text()) == {"coreset": [0.0]}
        assert main(["--config", str(cfg), "experiment", "subset", "--out", str(out)]) == 0
        assert json.loads((out / "subset.json").read_text()) == {"coreset+aug": [1.0]}

    def test_spectrum_manifest_replays(self, dataset_csv, tmp_path):
        """A spectrum manifest's ``epsilon0`` list replays as the separate
        values of its ``nargs`` flag, and ``untrained`` as a bare flag."""
        first, replay = tmp_path / "first", tmp_path / "replay"
        assert main(["spectrum", "--data", str(dataset_csv), "--epsilon0", "0.03", "0.06",
                     "--train-epochs", "1", "--hidden", "6", "--per-class-cap", "15",
                     "--untrained", "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["config"]["epsilon0"] == [0.03, 0.06]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, **manifest["config"]}))
        assert main(["--config", str(cfg), "spectrum", "--out", str(replay)]) == 0
        assert len(manifest["outputs"]) == 8
        for name in manifest["outputs"]:
            assert (replay / name).read_bytes() == (first / name).read_bytes()

    def test_config_key_outside_the_subcommand_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "n": 30, "epochs": 2}))
        assert _exit_code(["--config", str(cfg), "gen-data", "--out", "x.csv"]) == 2
        assert "key 'epochs' is not an option of 'gen-data'" in capsys.readouterr().err

    def test_config_command_must_name_the_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "command": "train", "n": 30}))
        assert _exit_code(["--config", str(cfg), "gen-data", "--out", "x.csv"]) == 2
        assert "command 'train' does not match the subcommand 'gen-data'" \
            in capsys.readouterr().err

    def test_config_after_the_subcommand_supplies_the_positional(self, tmp_path,
                                                                 monkeypatch):
        monkeypatch.setattr(coreaug.cli, "noise_robustness", lambda: {"coreset": [0.0]})
        cfg = tmp_path / "e.json"
        cfg.write_text(json.dumps({"schema_version": 1, "name": "noise"}))
        out = tmp_path / "x"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "noise.json").read_text()) == {"coreset": [0.0]}

    def test_config_after_the_subcommand_supplies_a_required_flag(self, dataset_csv,
                                                                  tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"schema_version": 1, "data": str(dataset_csv),
                                   "epochs": 1, "hidden": [6]}))
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["data"], config["epochs"], config["hidden"]) == \
            (str(dataset_csv), 1, [6])

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--config", "{cfg}", "--n", "60"],
        ["gen-data", "--n", "60", "--config", "{cfg}"],
    ], ids=["after", "last"])
    def test_flag_overrides_config_in_any_position(self, argv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "n": 30, "d": 4, "classes": 3}))
        out = tmp_path / "o.csv"
        argv = [a.replace("{cfg}", str(cfg)) for a in argv] + ["--out", str(out)]
        assert main(argv) == 0
        data = load_dataset_csv(out)
        assert (data.n, data.dim) == (60, 4)

    @pytest.mark.parametrize("name", CONFIG_ERRORS)
    def test_config_error_names_the_key(self, name, dataset_csv, tmp_path, capsys):
        argv, payload, needles = CONFIG_ERRORS[name]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, **payload}))
        argv = [a.replace("{cfg}", str(cfg)).replace("{data}", str(dataset_csv))
                for a in argv] + ["--out", str(tmp_path / "o")]
        assert _exit_code(argv) == 2
        err = capsys.readouterr().err
        for needle in needles:
            assert needle in err

    def test_config_without_a_path_names_the_flag(self, capsys):
        assert _exit_code(["train", "--data", "d.csv", "--config"]) == 2
        err = capsys.readouterr().err
        assert "coreaug train: error: argument --config: expected one argument" in err

    @pytest.mark.parametrize("command", ["gen-data", "select", "train", "spectrum", "bounds",
                                         "experiment", "report"])
    def test_every_subcommand_help_lists_config(self, command, capsys):
        assert _exit_code([command, "-h"]) == 0
        assert "--config CONFIG" in capsys.readouterr().out

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

    def test_small_spectrum_writes_strict_json(self, dataset_csv, tmp_path):
        """A pair with fewer than 30 singular values (here 27 x 19) gets one
        bin per value, so no bin is empty and no NaN is written."""
        out = tmp_path / "spec"
        assert main(["spectrum", "--data", str(dataset_csv), "--per-class-cap", "3",
                     "--hidden", "2", "--train-epochs", "1", "--out", str(out)]) == 0
        reports = sorted(out.glob("spectrum_*.json"))
        assert len(reports) == 2
        for path in reports:
            bins = strict_json(path)["bins"]
            assert len(bins) == 19 and all(b["count"] == 1 for b in bins)

    def test_entrypoint_subprocess(self, tmp_path):
        """``python -m coreaug.cli`` runs from this checkout's ``src``,
        installed or not."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "coreaug.cli", "gen-data", "--n", "12",
             "--d", "3", "--classes", "3", "--out", str(tmp_path / "p.csv")],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr


def _exit_code(argv) -> int:
    """``main``'s return code, or the code of the ``SystemExit`` argparse
    raises when a flag's type rejects its value."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# Eight rows, four of label 0 and four of label 2: label 1 has no rows.
_NO_LABEL_1 = "f0,f1,label\n" + "".join(f"{i / 10},{1 - i / 10},{2 * (i % 2)}\n"
                                         for i in range(8))

# Five rows labelled 0 to 4: the first label outside the 60-row file's
# classes 0..2 is the 3 on line 5.
_LABELS_0_TO_4 = "f0,f1,f2,f3,label\n" + "".join(f"0.5,0.5,0.5,0.5,{label}\n"
                                                 for label in range(5))

# One row per (command, flag or file, bad value): the argv, where {data} is a
# valid 60-row CSV, {csv} holds the row's own CSV text and {runs} is the
# directory that holds {csv}; that text, or None;
# the exit code; and what stderr must hold, naming the flag, or the file and
# the line ({csv} and {runs} as in the argv).
CLI_ERRORS = {
    "train --batch-size 0": (["train", "--data", "{data}", "--batch-size", "0"], None,
                             2, "argument --batch-size: must be >= 1, got 0"),
    "train --label-noise 1.5": (["train", "--data", "{data}", "--label-noise", "1.5"], None,
                                2, "argument --label-noise: must lie in [0, 1), got 1.5"),
    "train --random-fraction 0": (["train", "--data", "{data}", "--random-fraction", "0"],
                                  None, 2,
                                  "argument --random-fraction: must lie in (0, 1], got 0.0"),
    "spectrum --train-epochs -1": (["spectrum", "--data", "{data}", "--train-epochs", "-1"],
                                   None, 2, "argument --train-epochs: must be >= 0, got -1"),
    "select --warmup-epochs -3": (["select", "--data", "{data}", "--warmup-epochs", "-3"],
                                  None, 2, "argument --warmup-epochs: must be >= 0, got -3"),
    "train --seeds ''": (["train", "--data", "{data}", "--seeds", ""], None,
                         2, "argument --seeds: needs at least one seed"),
    "train --seeds 3,3": (["train", "--data", "{data}", "--seeds", "3,3"], None,
                          2, "argument --seeds: seed 3 repeated"),
    "spectrum --classes-used 0": (["spectrum", "--data", "{data}", "--classes-used", "0"],
                                  None, 2, "argument --classes-used: must be >= 1, got 0"),
    "spectrum --per-class-cap 0": (["spectrum", "--data", "{data}", "--per-class-cap", "0"],
                                   None, 2, "argument --per-class-cap: must be >= 1, got 0"),
    "train --epochs 0": (["train", "--data", "{data}", "--epochs", "0"], None,
                         2, "argument --epochs: must be >= 1, got 0"),
    "train --refresh-r 0": (["train", "--data", "{data}", "--refresh-r", "0"], None,
                            2, "argument --refresh-r: must be >= 1, got 0"),
    "select --r 0": (["select", "--data", "{data}", "--r", "0"], None,
                     2, "argument --r: must be >= 1, got 0"),
    "select --k-per-class 0": (["select", "--data", "{data}", "--k-per-class", "0"], None,
                               2, "argument --k-per-class: must be >= 1, got 0"),
    "select --stochastic-sample 0": (["select", "--data", "{data}", "--engine", "stochastic",
                                      "--stochastic-sample", "0"], None,
                                     2, "argument --stochastic-sample: must be >= 1, got 0"),
    "select --fraction 1.5": (["select", "--data", "{data}", "--fraction", "1.5"], None,
                              2, "argument --fraction: must lie in (0, 1], got 1.5"),
    "train --holdout 1": (["train", "--data", "{data}", "--holdout", "1"], None,
                          2, "argument --holdout: must lie in (0, 1), got 1.0"),
    "train one-row file": (["train", "--data", "{csv}"], "f0,label\n0.5,0\n",
                           3, "{csv}: --holdout 0.25: the split left no training rows"),
    "select label 1.5": (["select", "--data", "{csv}"], "f0,label\n0.5,1.5\n",
                         3, "{csv}: line 2: label '1.5' is not an integer"),
    "select label 1e20": (["select", "--data", "{csv}"], "f0,label\n0.5,100000000000000000000\n",
                          3, "{csv}: line 2: label 100000000000000000000 does not fit int64"),
    # a label names a class, and a file cannot hold more classes than rows
    "select label 1e18 of 2 rows": (["select", "--data", "{csv}"],
                                    "f0,label\n0.5,0\n0.5,1000000000000000000\n",
                                    3, "{csv}: line 3: label 1000000000000000000 names more "
                                       "classes than the file's 2 data rows"),
    "select label 5000 of 2 rows": (["select", "--data", "{csv}"],
                                    "f0,label\n0.5,5000\n\n0.5,0\n",
                                    3, "{csv}: line 2: label 5000 names more classes than "
                                       "the file's 2 data rows"),
    "train label 2 of 2 rows": (["train", "--data", "{csv}"], "f0,label\n0.5,0\n0.5,2\n",
                                3, "{csv}: line 3: label 2 names more classes than the "
                                   "file's 2 data rows"),
    "train --test-data label 3": (["train", "--data", "{data}", "--test-data", "{csv}"],
                                  _LABELS_0_TO_4, 3, "data error: {csv}: line 5: label 3 "
                                                     "outside the training classes 0..2"),
    "train empty class": (["train", "--data", "{csv}", "--epochs", "1"], _NO_LABEL_1,
                          0, "warning: {csv}: label 1 has no rows"),
    "select empty class": (["select", "--data", "{csv}"], _NO_LABEL_1,
                           0, "warning: {csv}: label 1 has no rows"),
    "select --lr -1": (["select", "--data", "{data}", "--lr", "-1", "--warmup-epochs", "1"],
                       None, 2, "argument --lr: must be > 0, got -1.0"),
    "train --lr 0": (["train", "--data", "{data}", "--lr", "0"], None,
                     2, "argument --lr: must be > 0, got 0.0"),
    "spectrum --lr 0": (["spectrum", "--data", "{data}", "--lr", "0"], None,
                        2, "argument --lr: must be > 0, got 0.0"),
    "train --lr-decay-factor -1": (["train", "--data", "{data}", "--lr-decay-epochs", "1",
                                    "--lr-decay-factor", "-1"], None,
                                   2, "argument --lr-decay-factor: must be > 0, got -1.0"),
    "train --epsilon0 -0.1": (["train", "--data", "{data}", "--epsilon0", "-0.1"], None,
                              2, "argument --epsilon0: must lie in [0, 1e150], got -0.1"),
    "spectrum --epsilon0 0.03 -0.1": (["spectrum", "--data", "{data}", "--epsilon0", "0.03",
                                       "-0.1"], None,
                                      2, "argument --epsilon0: must lie in [0, 1e150], "
                                         "got -0.1"),
    "train --epsilon0 inf": (["train", "--data", "{data}", "--epsilon0", "inf",
                              "--transform-kind", "pixel_jitter"], None,
                             2, "argument --epsilon0: must be finite, got inf"),
    "spectrum --epsilon0 0.03 inf": (["spectrum", "--data", "{data}", "--epsilon0", "0.03",
                                      "inf"], None,
                                     2, "argument --epsilon0: must be finite, got inf"),
    "spectrum --epsilon0 0.0300001 0.0300004": (["spectrum", "--data", "{data}", "--epsilon0",
                                                 "0.0300001", "0.0300004"], None, 2,
                                                "--epsilon0 0.0300001 and 0.0300004 both "
                                                "name their files eps0.030000"),
    "spectrum --epsilon0 0.05 0.1 0.05": (["spectrum", "--data", "{data}", "--epsilon0", "0.05",
                                           "0.1", "0.05"], None, 2,
                                          "--epsilon0 0.05 and 0.05 both name their files "
                                          "eps0.050000"),
    # a missing data file would exit 3: the check comes before any data is read
    "spectrum --epsilon0 1e300": (["spectrum", "--data", "{csv}", "--epsilon0", "1e300",
                                   "--untrained"], None, 2,
                                  "argument --epsilon0: must lie in [0, 1e150], got 1e+300"),
    "select --xi 0": (["select", "--data", "{data}", "--xi", "0"], None,
                      2, "argument --xi: must be > 0, got 0.0"),
    "select --xi inf --lr inf": (["select", "--data", "{data}", "--xi", "inf", "--lr", "inf"],
                                 None, 2, "argument --xi: must be finite, got inf"),
    "select --lr inf": (["select", "--data", "{data}", "--lr", "inf"], None,
                        2, "argument --lr: must be finite, got inf"),
    "train --lr nan": (["train", "--data", "{data}", "--lr", "nan"], None,
                       2, "argument --lr: must be finite, got nan"),
    "gen-data --noise inf": (["gen-data", "--noise", "inf"], None,
                             2, "argument --noise: must be finite, got inf"),
    "report header only": (["report", "--runs", "{runs}"], CSV_HEADER + "\n",
                           3, "{csv}: no rows below the run header"),
    "report short row": (["report", "--runs", "{runs}"], CSV_HEADER + "\n1,0.5,0.4\n",
                         3, "{csv}: line 2: 3 columns, the run header has 8"),
    "report non-numeric": (["report", "--runs", "{runs}"],
                           CSV_HEADER + "\n1,0.5,0.4,0.9,0.1,1,2.0,5\n2,0.5,x,0.9,0.1,0,0.0,5\n",
                           3, "{csv}: line 3: could not convert string to float: 'x'"),
    "report nan row": (["report", "--runs", "{runs}"],
                       CSV_HEADER + "\n1,0.5,0.4,0.9,0.1,1,2.0,5\n2,nan,0.4,0.9,0.1,0,0.0,5\n",
                       3, "{csv}: line 3: train_loss=nan is not finite"),
    "report inf row": (["report", "--runs", "{runs}"],
                       CSV_HEADER + "\n1,0.5,0.4,inf,0.1,1,2.0,5\n",
                       3, "{csv}: line 2: test_acc=inf is not finite"),
    "gen-data --classes 0": (["gen-data", "--classes", "0"], None,
                             2, "argument --classes: must be >= 1, got 0"),
    "gen-data --n 0": (["gen-data", "--n", "0"], None,
                       2, "argument --n: must be >= 1, got 0"),
    "gen-data --d 0": (["gen-data", "--d", "0"], None,
                       2, "argument --d: must be >= 1, got 0"),
    "gen-data --noise -0.1": (["gen-data", "--noise", "-0.1"], None,
                              2, "argument --noise: must be >= 0, got -0.1"),
    "gen-data --margin -1": (["gen-data", "--margin", "-1"], None,
                             2, "argument --margin: must be >= 0, got -1.0"),
    "bounds --shift-draws 50": (["bounds", "--shift-draws", "50"], None,
                                2, "argument --shift-draws: must be >= 100, got 50"),
    "select --seed -1": (["select", "--data", "{data}", "--seed", "-1"], None,
                         2, "argument --seed: must be >= 0, got -1"),
    "select --net-seed -1": (["select", "--data", "{data}", "--net-seed", "-1"], None,
                             2, "argument --net-seed: must be >= 0, got -1"),
    "train --seeds 0,-1": (["train", "--data", "{data}", "--seeds", "0,-1"], None,
                           2, "argument --seeds: must be >= 0, got -1"),
    "train --split-seed -1": (["train", "--data", "{data}", "--split-seed", "-1"], None,
                              2, "argument --split-seed: must be >= 0, got -1"),
    "spectrum --seed -1": (["spectrum", "--data", "{data}", "--seed", "-1"], None,
                           2, "argument --seed: must be >= 0, got -1"),
    "bounds --seed -1": (["bounds", "--seed", "-1"], None,
                         2, "argument --seed: must be >= 0, got -1"),
    "gen-data --seed -1": (["gen-data", "--seed", "-1"], None,
                           2, "argument --seed: must be >= 0, got -1"),
    "train --hidden 0": (["train", "--data", "{data}", "--hidden", "0"], None,
                         2, "argument --hidden: must be >= 1, got 0"),
    "spectrum --hidden 8,0": (["spectrum", "--data", "{data}", "--hidden", "8,0"], None,
                              2, "argument --hidden: must be >= 1, got 0"),
    # MLP.init refuses a network over the entry cap before allocating it
    "select --hidden 100000000000": (["select", "--data", "{data}", "--hidden",
                                      "100000000000"], None,
                                     2, "config error: --hidden: a network of "
                                        "layer sizes (4, 100000000000, 3) would hold "
                                        "800000000003 parameters, cap is 268435456"),
    "train --hidden 3000000000": (["train", "--data", "{data}", "--hidden", "3000000000"],
                                  None, 2, "config error: --hidden: a network of "
                                           "layer sizes (4, 3000000000, 3) would hold "
                                           "24000000003 parameters, cap is 268435456"),
    "spectrum --hidden 100000000000": (["spectrum", "--data", "{data}", "--hidden",
                                        "100000000000"], None,
                                       2, "config error: --hidden: a network of "
                                          "layer sizes (4, 100000000000, 3) would hold "
                                          "800000000003 parameters, cap is 268435456"),
    "train --seeds 1,2 --lr 50": (["train", "--data", "{data}", "--seeds", "1,2", "--lr", "50"],
                                  None, 4, "numerical failure: training seed 1 diverged at "
                                           "epoch 1: loss "),
    "train --lr-decay-epochs 2 -1": (["train", "--data", "{data}", "--lr-decay-epochs", "2",
                                      "-1"], None,
                                     2, "argument --lr-decay-epochs: must be >= 0, got -1"),
    "gen-data --n 7 --classes 3": (["gen-data", "--n", "7", "--classes", "3"], None,
                                   2, "--n 7 --d 16 --classes 3 --seed 0 --margin 0.25: "
                                      "n must be a positive multiple of num_classes"),
    "gen-data two moons, 3 classes": (["gen-data", "--kind", "two_moons_embedded", "--n", "6",
                                       "--classes", "3"], None,
                                      2, "--kind two_moons_embedded --n 6 --d 16 --classes 3 "
                                         "--seed 0 --margin 0.25: two_moons_embedded "
                                         "requires num_classes == 2"),
    "select --k-per-class 50": (["select", "--data", "{data}", "--k-per-class", "50"], None,
                                2, "config error: k_per_class 50 exceeds the 20 rows of class 0"),
    # the holdout split leaves 15 rows per class
    "train --k-per-class 50": (["train", "--data", "{data}", "--epochs", "1",
                                "--k-per-class", "50"], None,
                               2, "config error: k_per_class 50 exceeds the 15 rows of class 0"),
    "train --baseline random --k-per-class 50": (["train", "--data", "{data}", "--epochs", "1",
                                                  "--baseline", "random", "--k-per-class", "50"],
                                                 None, 2, "config error: k_per_class 50 exceeds "
                                                          "the 15 rows of class 0"),
    "train --baseline max_loss --k-per-class 50": (["train", "--data", "{data}", "--epochs", "1",
                                                    "--baseline", "max_loss", "--k-per-class",
                                                    "50"], None,
                                                   2, "config error: k_per_class 50 exceeds the "
                                                      "15 rows of class 0"),
    "select malformed header": (["select", "--data", "{csv}"], "f0,label,f1\n0.5,0,0.5\n",
                                3, "data error: {csv}: line 1: malformed header"),
    "report no run CSVs": (["report", "--runs", "{runs}"], None,
                           3, "data error: {runs}: no run CSVs found"),
    "config file missing": (["--config", "{csv}", "gen-data"], None,
                            2, "config error: config file not found: {csv}"),
    "config file not JSON": (["--config", "{csv}", "gen-data"], "n: 30\n",
                             2, "config error: config file is not valid JSON"),
    "gen-data --d 1 --margin 5": (["gen-data", "--d", "1", "--classes", "3", "--margin", "5"],
                                  None, 2, "--d 1 --classes 3 --seed 0 --margin 5.0: could not "
                                           "place 3 means with margin 5.0 in 1 dims"),
}


@pytest.mark.parametrize("case", CLI_ERRORS)
def test_cli_error_names_its_flag_or_file(case, dataset_csv, tmp_path, capsys):
    argv, text, code, message = CLI_ERRORS[case]
    csv = tmp_path / "case.csv"
    if text is not None:
        csv.write_text(text)
    argv = [a.format(data=dataset_csv, csv=csv, runs=tmp_path) for a in argv]
    assert _exit_code(argv + ["--out", str(tmp_path / "out")]) == code
    assert message.format(csv=csv, runs=tmp_path) in capsys.readouterr().err


def _suite_sized(battery: str, size: int):
    """``run_bounds_suite`` at the flags' defaults but ``battery``'s size."""
    return run_bounds_suite(0, {"weyl_random": 1000, "shift_model": 1000,
                                "vector_bound": 200, "ntk_bound": 100,
                                "linear_bounds": 100, "weyl_augmentation": 20,
                                battery: size})


# Per flag: a command line giving it one value outside its domain, the
# library field the flag fills, and a call giving that field the same value.
# The flag is the command line's last but one word.
FLAG_FIELDS = {
    "--fraction": (["select", "--data", "{data}", "--fraction", "1.5"], "fraction",
                   lambda: SelectionConfig(fraction=1.5)),
    "--k-per-class": (["select", "--data", "{data}", "--k-per-class", "0"], "k_per_class",
                      lambda: SelectionConfig(k_per_class=0)),
    "--xi": (["select", "--data", "{data}", "--xi", "-1"], "xi",
             lambda: SelectionConfig(stop="xi_threshold", xi=-1.0)),
    "--stochastic-sample": (["select", "--data", "{data}", "--stochastic-sample", "0"],
                            "stochastic_sample",
                            lambda: SelectionConfig(fraction=0.1, stochastic_sample=0)),
    "--batch-size": (["train", "--data", "{data}", "--batch-size", "0"], "batch_size",
                     lambda: TrainConfig(batch_size=0)),
    "--epochs": (["train", "--data", "{data}", "--epochs", "0"], "epochs",
                 lambda: TrainConfig(epochs=0)),
    "--refresh-r": (["train", "--data", "{data}", "--refresh-r", "0"], "refresh_r",
                    lambda: TrainConfig(refresh_r=0)),
    "--label-noise": (["train", "--data", "{data}", "--label-noise", "1.5"],
                      "label_noise_frac", lambda: TrainConfig(label_noise_frac=1.5)),
    "--random-fraction": (["train", "--data", "{data}", "--random-fraction", "0"],
                          "random_fraction",
                          lambda: TrainConfig(regime="random_plus_coreset_aug",
                                              random_fraction=0.0)),
    "--lr": (["train", "--data", "{data}", "--lr", "-1"], "initial",
             lambda: LrSchedule(-1.0)),
    "--lr-decay-factor": (["train", "--data", "{data}", "--lr-decay-factor", "0"], "factor",
                          lambda: LrSchedule(0.005, (), 0.0)),
    "--lr-decay-epochs": (["train", "--data", "{data}", "--lr-decay-epochs", "-1"],
                          "decay_epochs", lambda: LrSchedule(0.005, (-1,))),
    "--hidden": (["train", "--data", "{data}", "--hidden", "0"], "layer_sizes",
                 lambda: MLP.init([2, 0, 3])),
    "--epsilon0": (["train", "--data", "{data}", "--epsilon0", "-0.1"], "epsilon0",
                   lambda: TransformSpec(epsilon0=-0.1)),
    "--r": (["select", "--data", "{data}", "--r", "0"], "r", lambda: TransformSpec(r=0)),
    "--holdout": (["train", "--data", "{data}", "--holdout", "1"], "test_fraction",
                  lambda: split_dataset(gen_dataset("gaussian_blobs", 30, 2, 3), 1.0)),
    "--shift-draws": (["bounds", "--shift-draws", "50"], "draws",
                      lambda: expected_shift_model_check([1.0], [0.5], 0.1, draws=50)),
    "--n": (["gen-data", "--n", "0"], "n",
            lambda: gen_dataset("gaussian_blobs", 0, 16, 3)),
    "--d": (["gen-data", "--d", "0"], "d",
            lambda: gen_dataset("gaussian_blobs", 600, 0, 3)),
    "--classes": (["gen-data", "--classes", "0"], "num_classes",
                  lambda: gen_dataset("gaussian_blobs", 600, 16, 0)),
    "--noise": (["gen-data", "--noise", "-0.1"], "noise",
                lambda: gen_dataset("gaussian_blobs", 600, 16, 3, noise=-0.1)),
    "--margin": (["gen-data", "--margin", "-1"], "margin",
                 lambda: gen_dataset("gaussian_blobs", 600, 16, 3, margin=-1.0)),
    "bounds --weyl-trials": (["bounds", "--weyl-trials", "0"], "weyl_random",
                             lambda: _suite_sized("weyl_random", 0)),
    "bounds --shift-draws": (["bounds", "--shift-draws", "99"], "shift_model",
                             lambda: _suite_sized("shift_model", 99)),
    "bounds --vector-trials": (["bounds", "--vector-trials", "0"], "vector_bound",
                               lambda: _suite_sized("vector_bound", 0)),
    "bounds --ntk-instances": (["bounds", "--ntk-instances", "0"], "ntk_bound",
                               lambda: _suite_sized("ntk_bound", 0)),
    "bounds --linear-instances": (["bounds", "--linear-instances", "0"], "linear_bounds",
                                  lambda: _suite_sized("linear_bounds", 0)),
    "bounds --augmentation-rounds": (["bounds", "--augmentation-rounds", "0"],
                                     "weyl_augmentation",
                                     lambda: _suite_sized("weyl_augmentation", 0)),
}


@pytest.mark.parametrize("case", FLAG_FIELDS)
def test_flag_and_field_share_one_rule(case, dataset_csv, tmp_path, capsys):
    """A flag's parse error and its field's ``ValueError`` complete
    "must ..." with the same text; the one names the flag, the other the
    field."""
    argv, field, call = FLAG_FIELDS[case]
    argv = [a.format(data=dataset_csv) for a in argv]
    assert _exit_code(argv + ["--out", str(tmp_path / "out")]) == 2
    cli_text = capsys.readouterr().err.partition(f"argument {argv[-2]}: ")[2].strip()
    assert cli_text.startswith("must ")
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == f"{field} {cli_text}"


@pytest.mark.parametrize("value", ["-0.1", "1.0000001e150", "1e160", "1e300",
                                   repr(float(np.finfo(np.float64).max)), "inf", "nan"])
@pytest.mark.parametrize("command", ["train", "spectrum"])
def test_budget_range_is_one_rule(command, value, tmp_path, capsys):
    """Every budget outside [0, 1e150] exits 2 from both ``--epsilon0``
    flags before the (missing) data file is read, with the text
    ``TransformSpec`` gives for the same value."""
    argv = [command, "--data", str(tmp_path / "missing.csv"), "--epsilon0", value,
            "--out", str(tmp_path / "out")]
    assert _exit_code(argv) == 2
    cli_text = capsys.readouterr().err.partition("argument --epsilon0: ")[2].strip()
    with pytest.raises(ValueError) as raised:
        TransformSpec(epsilon0=float(value))
    assert str(raised.value) == f"epsilon0 {cli_text}"


def test_largest_budget_runs_spectrum(dataset_csv, tmp_path):
    """``spectrum --epsilon0 1e150`` writes its files, the longest name
    188 bytes (the float 1e150 lies below 10**150, so its integer part has
    150 digits), and the augmentation shifts the Jacobian."""
    out = tmp_path / "spec"
    assert main(["spectrum", "--data", str(dataset_csv), "--epsilon0", "1e150",
                 "--untrained", "--train-epochs", "1", "--hidden", "6",
                 "--per-class-cap", "15", "--out", str(out)]) == 0
    longest = max(strict_json(out / "manifest.json")["outputs"], key=len)
    assert len(longest.encode()) == 188
    for tag in ("untrained", "trained"):
        assert strict_json(out / f"spectrum_{tag}_eps{1e150:.6f}.json")["e_norm2"] > 0.0


def test_json_artifacts_refuse_non_finite_floats(tmp_path):
    with pytest.raises(ValueError):
        coreaug.cli._write_json(tmp_path / "x.json", {"lr": math.inf})
    assert not (tmp_path / "x.json").exists()


def test_bounds_options_are_the_battery_table():
    """``bounds`` takes ``--seed`` and one option per battery, in the
    table's order, each with its row's default and its row's rule: both
    accept the same probe values and reject the others with one text."""
    actions = [a for a in build_parser().subcommands["bounds"]._actions
               if a.dest not in ("help", "config", "out", "seed")]
    assert [(a.option_strings, a.default) for a in actions] == [
        ([battery.flag], battery.default) for battery in BATTERIES.values()]
    for action, battery in zip(actions, BATTERIES.values()):
        for value in (-1, 0, 1, 99, 100):
            breach = battery.domain.breach(value)
            if breach is None:
                assert action.type(str(value)) == value
            else:
                with pytest.raises(argparse.ArgumentTypeError, match=re.escape(breach)):
                    action.type(str(value))


def test_suite_calls_each_audit_through_its_module_name(monkeypatch):
    """A wrapper set on an audit's name in ``coreaug.audits`` (as the
    benchmark's tracer sets one) sees the suite's call."""
    for name in BATTERIES:
        monkeypatch.setattr(coreaug.audits, f"audit_{name}",
                            lambda size, seed, name=name: {"stub": name, "size": size,
                                                           "seed": seed})
    sizes = {name: battery.default for name, battery in BATTERIES.items()}
    assert run_bounds_suite(3, sizes) == {
        name: {"stub": name, "size": size, "seed": 3} for name, size in sizes.items()}


def test_cli_names_no_battery():
    """The battery table in ``coreaug.audits`` is the one listing: no string
    in ``cli.py`` names a battery, its flag or the flag's dest, and no
    attribute there is a dest."""
    dests = {b.flag[2:].replace("-", "_") for b in BATTERIES.values()}
    words = set(BATTERIES) | {b.flag for b in BATTERIES.values()} | dests
    path = Path(__file__).resolve().parents[1] / "src" / "coreaug" / "cli.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found += [w for w in words if w in node.value]
        elif isinstance(node, ast.Attribute) and node.attr in dests:
            found.append(node.attr)
    assert found == []


@settings(max_examples=40)
@given(rows=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0]),
                               st.sampled_from([0.25, 0.75]), st.integers(0, 3)),
                     min_size=1, max_size=10),
       copies=st.integers(0, 3))
def test_generated_csvs_exit_cleanly(rows, copies, tmp_path_factory):
    """Small files with labels missing, rows repeated and classes of one row:
    every command ends in success, a config error or a data error, and
    never in a traceback."""
    out = tmp_path_factory.mktemp("generated")
    csv = out / "data.csv"
    rows = rows + rows[:copies]
    csv.write_text("f0,f1,label\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows))
    for argv in (["select"], ["train", "--epochs", "1"], ["spectrum", "--train-epochs", "1"]):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = _exit_code(argv + ["--data", str(csv), "--out", str(out / argv[0])])
        assert code in (0, 2, 3), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()


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
    ``bounds`` runs small batteries and the experiments one protocol seed.
    Every JSON artifact the runs write is strict JSON."""
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
    artifacts = sorted(tmp_path.rglob("*.json"))
    assert artifacts
    for path in artifacts:
        strict_json(path)


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


# Definitions in src/coreaug that no program path reaches but the benchmark
# does; each goes when perfbench/ stops naming it.
PERFBENCH_ONLY = {
    "trainer.weighted_gradient_step":
        "perfbench/tracing.py traces it by name; the warm-up replay test takes "
        "it as the public one-batch step",
    "coreset.WeightedCoreset.validate":
        "perfbench/workloads.py checks every selection it observes with it",
    "trainer.TrainRecord.selection_events":
        "perfbench/workloads.py's _check_record reads each refresh's indices "
        "from it",
}


def unreached_definitions(src: Path, acceptance: Path) -> set[str]:
    """Functions, classes, methods and fields of the modules in ``src``, as
    ``module.name``, ``module.Class.method`` or ``module.Class.field``, that
    no call path reaches from ``cli.main``, from a module-level statement or
    from the names ``acceptance`` reads.

    A bare name resolves through its module's definitions and imports, so a
    local variable never stands for a definition elsewhere. ``Cls.attr``
    resolves to that class's member; an attribute of an imported name that
    is not a class (``np.zeros``) resolves to nothing; any other attribute
    that is read reaches every method and field of that name. Reaching a
    class reaches its dunder methods, which Python calls implicitly, but not
    its fields (the annotated names of its body): a field is reached when it
    is read as an attribute, or when its class is serialised whole by
    ``fields(Cls)`` or ``asdict(self)``. ``asdict`` recurses, so it also
    serialises every class that a serialised field's annotation names.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    roots = ast.parse(acceptance.read_text(encoding="utf-8"))
    defs: dict[str, ast.AST] = {}
    members: dict[str, list[str]] = {}
    fields_of: dict[str, list[str]] = {}
    imports: dict[str, dict[str, tuple]] = {}
    for mod, tree in [*trees.items(), ("<acceptance>", roots)]:
        imports[mod] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                source = (node.module or "__init__").rpartition(".")[2]
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (source, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (None, None)
            elif mod != "<acceptance>" and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef):
                        name = item.name
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        name = item.target.id
                        fields_of.setdefault(f"{mod}.{node.name}", []).append(
                            f"{mod}.{node.name}.{name}")
                    else:
                        continue
                    defs[f"{mod}.{node.name}.{name}"] = item
                    members.setdefault(name, []).append(f"{mod}.{node.name}.{name}")

    def resolve(mod, name):
        if f"{mod}.{name}" in defs:
            return f"{mod}.{name}"
        source, original = imports.get(mod, {}).get(name, (None, None))
        return resolve(source, original) if source in trees else None

    def serialised(cls, nested):
        """The fields of ``cls`` and, when ``nested``, of every class that a
        serialised field's annotation names."""
        todo, seen = [cls], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            for field in fields_of.get(cls, ()):
                yield field
                if nested:
                    todo += [resolve(cls.partition(".")[0], sub.id)
                             for sub in ast.walk(defs[field].annotation)
                             if isinstance(sub, ast.Name)]

    serialisers = (("dataclasses", "asdict"), ("dataclasses", "fields"))

    def references(mod, nodes, owner=None):
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    yield resolve(mod, sub.id)
                elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
                    base = sub.value
                    if isinstance(base, ast.Name) and (
                            f"{mod}.{base.id}" in defs or base.id in imports[mod]):
                        owner_cls = resolve(mod, base.id)
                        if isinstance(defs.get(owner_cls), ast.ClassDef):
                            yield f"{owner_cls}.{sub.attr}"
                    else:
                        yield from members.get(sub.attr, ())
                elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Attribute):
                    yield from members.get(sub.target.attr, ())
                elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                      and imports[mod].get(sub.func.id) in serialisers
                      and sub.args and isinstance(sub.args[0], ast.Name)):
                    arg = sub.args[0].id
                    cls = owner if arg == "self" else resolve(mod, arg)
                    yield from serialised(cls, imports[mod][sub.func.id][1] == "asdict")

    def edges(qualified):
        mod = qualified.partition(".")[0]
        node = defs[qualified]
        if isinstance(node, ast.AnnAssign):
            return ()
        if isinstance(node, ast.FunctionDef):
            return references(mod, [node], owner=qualified.rpartition(".")[0])
        body = [item for item in node.body if not isinstance(item, ast.FunctionDef)]
        dunders = [f"{qualified}.{item.name}" for item in node.body
                   if isinstance(item, ast.FunctionDef) and item.name.startswith("__")]
        return [*references(mod, [*node.bases, *node.keywords, *node.decorator_list,
                                  *body]), *dunders]

    frontier = ["cli.main", *references("<acceptance>", [roots])]
    for mod, tree in trees.items():
        frontier += references(mod, [node for node in tree.body
                                     if not isinstance(node, (ast.FunctionDef, ast.ClassDef))])
    reached: set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in defs and name not in reached:
            reached.add(name)
            frontier += edges(name)
    return set(defs) - reached


def test_every_definition_is_reachable():
    """Every function, class and method in src/coreaug runs on some path from
    the CLI entry point, a module-level statement or the acceptance
    criteria, and every field is read on such a path, so no library code
    runs, and no field is filled, only for unit tests; the only exceptions
    are the definitions in ``PERFBENCH_ONLY``."""
    root = Path(__file__).resolve().parents[1]
    unreached = unreached_definitions(root / "src" / "coreaug",
                                      root / "tests" / "test_acceptance.py")
    assert not unreached - set(PERFBENCH_ONLY), \
        f"only tests reach: {', '.join(sorted(unreached - set(PERFBENCH_ONLY)))}"
    assert set(PERFBENCH_ONLY) <= unreached, \
        f"reachable, so not exempt: {', '.join(sorted(set(PERFBENCH_ONLY) - unreached))}"


def test_field_reachability_rule(tmp_path):
    """A field read as an attribute is reached, and so is one that only a
    nested ``asdict`` serialises; a field nothing reads is not."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "cli.py").write_text(
        "from dataclasses import asdict, dataclass\n"
        "\n"
        "@dataclass\n"
        "class Inner:\n"
        "    nested: float\n"
        "\n"
        "@dataclass\n"
        "class Wrapper:\n"
        "    inner: Inner\n"
        "\n"
        "    def to_dict(self):\n"
        "        return asdict(self)\n"
        "\n"
        "@dataclass\n"
        "class Report:\n"
        "    read: float\n"
        "    unread: float\n"
        "\n"
        "def main(report: Report, wrapper: Wrapper):\n"
        "    return report.read, wrapper.to_dict()\n", encoding="utf-8")
    acceptance = tmp_path / "test_acceptance.py"
    acceptance.write_text("", encoding="utf-8")
    assert unreached_definitions(src, acceptance) == {"cli.Report.unread"}


def scoped_nodes(src: Path):
    """Every AST node of each module in ``src``, with its scope: the module's
    stem, then the enclosing classes and functions, dotted (``cli._Run.timed``)."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from walk(child, f"{scope}.{child.name}")
            else:
                yield scope, child
                yield from walk(child, scope)

    for path in sorted(src.glob("*.py")):
        yield from walk(ast.parse(path.read_text(encoding="utf-8")), path.stem)


def spelled_names(node) -> list[str]:
    """The names a node spells: an attribute's, a name's, or those it imports."""
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_wall_clock_is_read_in_two_places():
    """``perf_counter`` is named only in the CLI frame's timer and in
    ``trainer.training``, which times each refresh for the ``selection_ms``
    column; every other phase is timed through the frame."""
    src = Path(__file__).resolve().parents[1] / "src" / "coreaug"
    users = [scope for scope, node in scoped_nodes(src)
             for name in spelled_names(node) if name == "perf_counter"]
    assert sorted(users) == ["cli._Run.timed"] * 2 + ["trainer.training"] * 2


def reaches_lapack_svd(node) -> bool:
    """Whether a node names ``np.linalg.svd`` or calls ``np.linalg.norm`` with
    an ``ord`` (2, -2 and 'nuc' run an SVD)."""
    return ((isinstance(node, ast.Attribute) and ast.unparse(node) == "np.linalg.svd")
            or (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.norm"
                and (len(node.args) > 1 or any(k.arg == "ord" for k in node.keywords))))


def test_lapack_svd_has_one_door():
    """Only ``linalg._lapack_svd`` names ``np.linalg.svd`` or ``LinAlgError``,
    and no module calls ``np.linalg.norm`` with an ``ord``. So every singular
    value comes through its wrap, and a non-convergence has one error path:
    ``cli.main`` has one handler for ``NumericalError``."""
    src = Path(__file__).resolve().parents[1] / "src" / "coreaug"
    users, handlers = [], []
    for scope, node in scoped_nodes(src):
        if reaches_lapack_svd(node) or "LinAlgError" in spelled_names(node):
            users.append(scope)
        if isinstance(node, ast.ExceptHandler) and scope == "cli.main":
            handlers.append(ast.unparse(node.type))
    assert users == ["linalg._lapack_svd"] * 2
    assert [h for h in handlers if "NumericalError" in h] == ["NumericalError"]


def test_acceptance_criteria_reach_lapack_through_linalg():
    """``tests/test_acceptance.py`` takes every singular value from ``linalg``,
    as the program does, so no criterion computes its own decomposition."""
    tests = Path(__file__).resolve().parent
    users = [scope for scope, node in scoped_nodes(tests)
             if scope.partition(".")[0] == "test_acceptance" and reaches_lapack_svd(node)]
    assert users == []


def test_a_failing_given_test_does_not_stop_the_run(pytester):
    """Under the suite's own warning filters a failing ``@given`` test is one
    failure: the hypothesis report that imports libcst does not abort the
    session, so the tests after it still run."""
    root = Path(__file__).resolve().parents[1]
    pytester.makepyprojecttoml((root / "pyproject.toml").read_text(encoding="utf-8"))
    path = pytester.makepyfile(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers(0, 3))\n"
        "def test_fails(x):\n"
        "    assert x < 0\n"
        "\n"
        "def test_passes():\n"
        "    pass\n")
    result = pytester.runpytest_subprocess(path, "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == pytest.ExitCode.TESTS_FAILED


def test_perturb_has_one_caller_per_use():
    """``augment.perturb`` is called only where a training pool is built and
    in ``spectrum.augmented_jacobian``, the one place an augmented
    derivative matrix is built."""
    src = Path(__file__).resolve().parents[1] / "src" / "coreaug"
    callers = [scope for scope, node in scoped_nodes(src)
               if isinstance(node, ast.Call) and "perturb" in spelled_names(node.func)]
    assert sorted(callers) == ["spectrum.augmented_jacobian", "trainer._build_pool"]


def test_training_pools_have_one_builder():
    """``trainer._select_subset`` and ``trainer._build_pool`` are called only
    from ``trainer.training``, so every pool a consumer reads, criterion 8's
    included, is one a run trains on."""
    src = Path(__file__).resolve().parents[1] / "src" / "coreaug"
    callers = {name: sorted(scope for scope, node in scoped_nodes(src)
                            if isinstance(node, ast.Call)
                            and name in spelled_names(node.func))
               for name in ("_select_subset", "_build_pool")}
    assert callers == {"_select_subset": ["trainer.training"],
                       "_build_pool": ["trainer.training"]}


def test_parameter_layout_lives_in_model():
    """Parameters move only through the flat vector: outside ``model.py`` no
    statement assigns to or augments a subscript of ``.weights`` or
    ``.biases``, none rebinds ``.params``, ``.weights`` or ``.biases`` (a
    new ``params`` array would leave the views on the old one; ``-=`` writes
    in place and keeps them), and only ``model.py`` names ``_layer_views``,
    the one place that computes a layer's offset."""
    src = Path(__file__).resolve().parents[1] / "src" / "coreaug"
    writes, namers = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            targets = [t for target in targets
                       for t in (target.elts if isinstance(target, ast.Tuple) else [target])]
            for target in targets:
                if (not isinstance(node, ast.AugAssign) and isinstance(target, ast.Attribute)
                        and target.attr in ("params", "weights", "biases")):
                    writes.append(f"{path.stem}:{node.lineno}")
                while isinstance(target, ast.Subscript):
                    target = target.value
                    if isinstance(target, ast.Attribute) and target.attr in ("weights", "biases"):
                        writes.append(f"{path.stem}:{node.lineno}")
            namers.extend([path.stem] * spelled_names(node).count("_layer_views"))
    assert [w for w in writes if not w.startswith("model:")] == []
    assert set(namers) == {"model"}
