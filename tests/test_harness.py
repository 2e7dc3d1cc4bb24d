import ast
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
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
import coreaug.linalg
import coreaug.spectrum
from coreaug.audits import BATTERIES, EXPERIMENTS, noise_robustness, run_bounds_suite
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
from coreaug.model import MLP, Dataset, class_rows, gradient_proxy
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

    # (data rows joined by "/" below a header of their width; the training
    # data's (num_classes, dim), or None for a training file; the class count
    # loaded, or the message after the path): a training file's labels lie
    # below its row count, a test file's below the training class count, and
    # then a test file's width must be the training data's
    LOADER_RULES = {
        "training_one_row": ("0,0", None, 1),
        "training_label_below_row_count": ("0,0/1,0/0,2", None, 3),
        "training_label_at_row_count": ("0,0/1,1/0,3", None,
                                        "line 4: label 3 names more classes than the file's 3 "
                                        "data rows"),
        "training_first_label_over_wins": ("0,0/1,9/0,5", None, "line 3: label 9 names more "
                                           "classes than the file's 3 data rows"),
        "training_blank_lines_count": ("0,0//1,2", None, "line 4: label 2 names more classes "
                                       "than the file's 2 data rows"),
        "test_takes_training_classes": ("0,0/1,0", (3, 1), 3),
        "test_label_above_its_row_count": ("0,2", (3, 1), 3),
        "test_label_at_class_count": ("0,0/1,3", (3, 1),
                                      "line 3: label 3 outside the training classes 0..2"),
        "test_first_label_outside_wins": ("0,0/1,4/0,3", (3, 1),
                                          "line 3: label 4 outside the training classes 0..2"),
        "test_one_training_class": ("0,0/1,1", (1, 1),
                                    "line 3: label 1 outside the training classes 0..0"),
        "test_more_features": ("0,1,0", (3, 1), "2 features, the training data has 1"),
        "test_fewer_features": ("0,0/1,1", (3, 2), "1 features, the training data has 2"),
        "test_labels_before_features": ("0,1,0/1,0,3", (3, 1),
                                        "line 3: label 3 outside the training classes 0..2"),
        "test_parse_before_labels": ("0,5/1.5,0", (3, 1), "line 3: feature f0=1.5 outside [0, 1]"),
    }

    @pytest.mark.parametrize("case", LOADER_RULES)
    def test_loader_rule(self, tmp_path, case):
        """``load_dataset_csv`` with and without ``training``: a file that
        keeps its rule loads its rows as written with the class count named;
        one that breaks it raises the message naming the file."""
        rows, training, expected = self.LOADER_RULES[case]
        values = [[float(v) for v in row.split(",")] for row in rows.split("/") if row]
        header = [f"f{j}" for j in range(len(values[0]) - 1)] + ["label"]
        path = tmp_path / "case.csv"
        path.write_text("\n".join([",".join(header), *rows.split("/")]) + "\n")
        if training is not None:
            training = Dataset(np.zeros(training), np.arange(training[0]), training[0])
        if isinstance(expected, str):
            with pytest.raises(DataFormatError) as info:
                load_dataset_csv(path, training)
            assert str(info.value) == f"{path}: {expected}"
            return
        loaded = load_dataset_csv(path, training)
        assert loaded.features.tolist() == [v[:-1] for v in values]
        assert loaded.labels.tolist() == [int(v[-1]) for v in values]
        assert loaded.num_classes == expected


def test_split_dataset_stratified():
    data = gen_dataset("gaussian_blobs", 90, 4, 3, seed=5)
    train, test = split_dataset(data, 0.25, seed=1)
    assert train.n + test.n == 90
    assert np.bincount(test.labels, minlength=3) == pytest.approx([8, 8, 8], abs=1)


def split_reference(data: Dataset, test_fraction: float, seed: int):
    """The holdout split written out as a per-class loop: each class with
    rows, in label order, draws max(1, round(f n_c)) of them from one
    generator, and the test rows are their union in ascending row order.
    Returns (training rows, test rows), or None when no training row is left."""
    rng = np.random.default_rng(seed)
    test_idx = np.sort(np.concatenate([
        rng.choice(idx, size=max(1, int(round(test_fraction * idx.size))), replace=False)
        for _, idx in class_rows(data.labels)]))
    if test_idx.size == data.n:
        return None
    return np.setdiff1d(np.arange(data.n), test_idx), test_idx


def _split_case(labels, num_classes, seed):
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    return Dataset(rng.uniform(size=(labels.size, 3)), labels, num_classes)


SPLIT_CASES = {
    # labels cycle through the classes, so a class-by-class order is not the row order
    "interleaved": lambda: _split_case(np.arange(90) % 3, 3, 1),
    "blocks": lambda: _split_case(np.repeat([0, 1, 2, 3], [5, 17, 30, 8]), 4, 2),
    "random_labels": lambda: _split_case(np.random.default_rng(3).integers(0, 5, 77), 5, 3),
    # class 1 has no rows
    "empty_class": lambda: _split_case(np.arange(41) % 2 * 2, 3, 4),
    "one_row_per_class": lambda: _split_case(np.arange(7), 7, 5),
}


@pytest.mark.parametrize("case", SPLIT_CASES)
@pytest.mark.parametrize("fraction", [0.1, 0.25, 1.0 / 3.0, 0.5, 0.9])
def test_split_dataset_matches_per_class_reference(case, fraction):
    """Both sides of the split hold the reference's rows in the reference's
    order, bit for bit, over several seeds; a split that leaves no training
    row raises where the reference has none."""
    data = SPLIT_CASES[case]()
    for seed in range(4):
        expected = split_reference(data, fraction, seed)
        if expected is None:
            with pytest.raises(DataFormatError, match="no training rows"):
                split_dataset(data, fraction, seed=seed)
            continue
        train, test = split_dataset(data, fraction, seed=seed)
        for side, rows in zip((train, test), expected):
            assert side.features.tobytes() == data.features[rows].tobytes()
            assert side.labels.tobytes() == data.labels[rows].tobytes()
            assert side.num_classes == data.num_classes


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


def _stub_experiment(monkeypatch, name: str, payload) -> None:
    """Make ``experiment <name>`` write ``payload``."""
    monkeypatch.setitem(EXPERIMENTS, name, lambda: payload)


class TestCli:
    def test_select_full_fraction(self, dataset_csv, tmp_path):
        out = tmp_path / "sel"
        assert main(["select", "--data", str(dataset_csv), "--fraction", "1.0",
                     "--out", str(out)]) == 0
        payload = json.loads((out / "coreset.json").read_text())
        assert set(payload) == {"classes"}
        assert all(set(c) == {"class", "indices", "gamma", "trace"} for c in payload["classes"])
        indices = sorted(i for c in payload["classes"] for i in c["indices"])
        assert indices == list(range(60))
        assert all(g == 1 for c in payload["classes"] for g in c["gamma"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["command"] == "select"
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

    def test_select_is_identical_under_one_and_two_blas_threads(self, dataset_csv,
                                                                 tmp_path):
        """A tiny ``select``, ``train`` and ``spectrum`` run in a fresh
        interpreter under ``OPENBLAS_NUM_THREADS`` 1 and then 2 write the
        same coreset, spectrum report, aggregate and run CSV (but for its
        wall-clock ``selection_ms`` column). Larger SVDs and longer training
        runs may still differ in their last bits, since BLAS may split a
        product by thread."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            result = subprocess.run(
                [sys.executable, "-c", _THREAD_PROBE, str(dataset_csv), str(out)],
                capture_output=True, text=True, env=env)
            assert result.returncode == 0, result.stderr
            manifest = json.loads((out / "select" / "manifest.json").read_text())
            assert manifest["versions"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == threads
            written.append((
                (out / "select" / "coreset.json").read_bytes(),
                (out / "spectrum" / "spectrum_trained_eps0.050000.json").read_bytes(),
                _artifacts(out / "train")))  # aggregate.json and run_seed1.csv
        assert written[0] == written[1]

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
        assert written[3] == coreset.to_json_dict()
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

    def test_train_aggregate_is_the_report_of_its_runs(self, dataset_csv, tmp_path):
        """``aggregate.json`` is, byte for byte, what ``report --runs`` writes
        for the run CSVs the run wrote; a stale run CSV in a reused --out is
        not among them."""
        out, summary = tmp_path / "train", tmp_path / "summary.json"
        out.mkdir()
        (out / "run_seed9.csv").write_text(CSV_HEADER + "\n0,0.5,0.5,1.0,0.1,1,0.0,5\n")
        assert main(["train", "--data", str(dataset_csv), "--epochs", "2", "--hidden", "6",
                     "--seeds", "3,1,2", "--out", str(out)]) == 0
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert sorted(aggregate["runs"]) == ["run_seed1.csv", "run_seed2.csv", "run_seed3.csv"]
        (out / "run_seed9.csv").unlink()
        assert main(["report", "--runs", str(out), "--out", str(summary)]) == 0
        assert summary.read_bytes() == (out / "aggregate.json").read_bytes()

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
        for name in json_outputs:
            assert set(json.loads((out / name).read_text())["weyl"]) == {"passed",
                                                                         "max_violation"}

    def test_experiment_spectrum_entries_are_spectrum_files(self, dataset_csv, tmp_path,
                                                            monkeypatch):
        """Each ``experiment spectrum`` entry is a seed, a budget and the
        JSON a ``spectrum`` file holds, the shape verdict included."""
        monkeypatch.setattr(coreaug.audits, "PROTOCOL_SEEDS", (0,))
        assert main(["experiment", "spectrum", "--out", str(tmp_path / "e")]) == 0
        assert main(["spectrum", "--data", str(dataset_csv), "--epsilon0", "0.03",
                     "--train-epochs", "1", "--hidden", "6", "--out", str(tmp_path / "s")]) == 0
        file_keys = set(strict_json(tmp_path / "s" / "spectrum_trained_eps0.030000.json"))
        assert {"shape_reproduced", "bottom_decile_relative_shift",
                "top_decile_relative_shift"} <= file_keys
        entries = strict_json(tmp_path / "e" / "spectrum.json")
        assert [(e["seed"], e["epsilon0"]) for e in entries] == [(0, 8 / 255), (0, 16 / 255)]
        assert all(set(e) == file_keys | {"seed", "epsilon0"} for e in entries)

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
        monkeypatch.setattr(coreaug.linalg, "ENTRY_CAP", 1000)
        assert main(["spectrum", "--data", str(dataset_csv), "--train-epochs", "1",
                     "--hidden", "6", "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert "config error: --hidden: jacobian would hold " in err
        assert "entries, cap is 1000" in err

    def test_experiment_noise_writes_protocol_numbers(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "noise", "--out", str(out_a)]) == 0
        assert main(["experiment", "noise", "--out", str(out_b)]) == 0
        written = (out_a / "noise.json").read_bytes()
        assert json.loads(written) == noise_robustness()
        assert written == (out_b / "noise.json").read_bytes()
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["config"] == {"command": "experiment", "name": "noise"}
        assert manifest["outputs"] == ["noise.json"]

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_experiment_is_its_table(self, name, tmp_path, monkeypatch):
        """``experiment`` offers exactly the table's names, and each writes
        its protocol's payload as ``<name>.json``."""
        parser = build_parser().subcommands["experiment"]
        choices = next(a.choices for a in parser._actions if a.dest == "name")
        assert list(choices) == list(EXPERIMENTS)
        _stub_experiment(monkeypatch, name, {"protocol": [name]})
        out = tmp_path / "e"
        assert main(["experiment", name, "--out", str(out)]) == 0
        assert json.loads((out / f"{name}.json").read_text()) == {"protocol": [name]}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [f"{name}.json"]
        assert manifest["config"] == {"command": "experiment", "name": name}

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

    @pytest.mark.parametrize("argv,inputs,timings", [
        (["select", "--data", "{data}", "--seed", "3"], ["{data}"], ["selection_ms"]),
        (["train", "--data", "{data}", "--test-data", "{test}", "--epochs", "1",
          "--hidden", "6", "--seeds", "1,2"], ["{data}", "{test}"],
         ["train_seed1_ms", "train_seed2_ms"]),
        (["spectrum", "--data", "{data}", "--epsilon0", "0.03", "0.06", "--train-epochs", "1",
          "--hidden", "6", "--per-class-cap", "15", "--untrained"], ["{data}"],
         ["train_ms", "spectrum_untrained_eps0.030000_ms", "spectrum_untrained_eps0.060000_ms",
          "spectrum_trained_eps0.030000_ms", "spectrum_trained_eps0.060000_ms"]),
        (["bounds", "--weyl-trials", "5", "--shift-draws", "100", "--vector-trials", "5",
          "--ntk-instances", "2", "--linear-instances", "2", "--augmentation-rounds", "1"],
         [], ["bounds_ms"]),
        (["experiment", "noise"], [], ["experiment_ms"]),
    ], ids=["select", "train", "spectrum", "bounds", "experiment"])
    def test_manifest_records_the_run(self, argv, inputs, timings, dataset_csv,
                                      tmp_path, monkeypatch):
        """The manifest holds six keys, the subcommand only within its
        config; it lists exactly the files the run wrote under --out, hashes
        the --data and --test-data files, and names the timed phases."""
        _stub_experiment(monkeypatch, "noise", {"coreset": [0.0]})
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
        assert sorted(manifest) == ["config", "inputs", "outputs", "schema_version",
                                    "timings_ms", "versions"]
        assert manifest["config"]["command"] == argv[0]
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
        _stub_experiment(monkeypatch, "noise", {"coreset": [0.0]})
        _stub_experiment(monkeypatch, "subset", {"coreset+aug": [1.0]})
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
        assert len(manifest["outputs"]) == 4
        for name in manifest["outputs"]:
            assert (replay / name).read_bytes() == (first / name).read_bytes()

    def test_manifest_of_a_configured_run_replays(self, dataset_csv, tmp_path):
        """A run started from a config records the config of its parsed
        arguments, and that config replays the run."""
        cfg, first, replay = tmp_path / "cfg.json", tmp_path / "first", tmp_path / "replay"
        cfg.write_text(json.dumps({"schema_version": 1, "data": str(dataset_csv),
                                   "engine": "naive", "fraction": 0.2}))
        assert main(["--config", str(cfg), "select", "--out", str(first)]) == 0
        config = json.loads((first / "manifest.json").read_text())["config"]
        assert (config["engine"], config["fraction"]) == ("naive", 0.2)
        cfg.write_text(json.dumps({"schema_version": 1, **config}))
        assert main(["--config", str(cfg), "select", "--out", str(replay)]) == 0
        assert (replay / "coreset.json").read_bytes() == (first / "coreset.json").read_bytes()

    def test_config_after_the_subcommand_supplies_the_positional(self, tmp_path,
                                                                 monkeypatch):
        _stub_experiment(monkeypatch, "noise", {"coreset": [0.0]})
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

    @pytest.mark.parametrize("command", ["gen-data", "select", "train", "spectrum", "bounds",
                                         "experiment", "report"])
    def test_every_subcommand_help_lists_config(self, command, capsys):
        assert _exit_code([command, "-h"]) == 0
        assert "--config CONFIG" in capsys.readouterr().out

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


# Runs a tiny select, train and spectrum on argv[1], writing under argv[2].
_THREAD_PROBE = """
import sys
from coreaug.cli import main
data, out = sys.argv[1:]
for argv in (["select", "--fraction", "0.2"],
             ["train", "--epochs", "2", "--seeds", "1"],
             ["spectrum", "--epsilon0", "0.05", "--train-epochs", "2"]):
    assert main([*argv, "--data", data, "--out", f"{out}/{argv[0]}"]) == 0, argv
"""


# Eight rows, four of label 0 and four of label 2: label 1 has no rows.
_NO_LABEL_1 = "f0,f1,label\n" + "".join(f"{i / 10},{1 - i / 10},{2 * (i % 2)}\n"
                                         for i in range(8))

# Five rows labelled 0 to 4: the first label outside the 60-row file's
# classes 0..2 is the 3 on line 5.
_LABELS_0_TO_4 = "f0,f1,f2,f3,label\n" + "".join(f"0.5,0.5,0.5,0.5,{label}\n"
                                                 for label in range(5))

def _config(**keys) -> str:
    """A config file's JSON text: schema_version 1 and ``keys``."""
    return json.dumps({"schema_version": 1, **keys})


# One row per (command, flag, file or config key, bad value): the argv, where
# {data} is a valid 60-row CSV, {csv} holds the row's own text (a CSV, or a
# config's JSON) and {runs} is the directory that holds {csv}; that text
# (bytes where it is not UTF-8), or None; the exit code; and what stderr must
# hold, naming the flag, or the file and the line or key ({csv} and {runs} as
# in the argv). One flag's value outside its domain, on the command line or
# in a config, is tested from FLAG_RULES instead.
CLI_ERRORS = {
    "train --seeds ''": (["train", "--data", "{data}", "--seeds", ""], None,
                         2, "argument --seeds: needs at least one seed"),
    "train --seeds 3,3": (["train", "--data", "{data}", "--seeds", "3,3"], None,
                          2, "argument --seeds: seed 3 repeated"),
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
    # a test file's features are counted after its labels are checked
    "train --test-data 5 features": (["train", "--data", "{data}", "--test-data", "{csv}"],
                                     "f0,f1,f2,f3,f4,label\n0.5,0.5,0.5,0.5,0.5,2\n",
                                     3, "data error: {csv}: 5 features, the training data has 4"),
    "train --test-data 5 features, label 3": (["train", "--data", "{data}", "--test-data",
                                               "{csv}"],
                                              "f0,f1,f2,f3,f4,label\n0.5,0.5,0.5,0.5,0.5,3\n",
                                              3, "data error: {csv}: line 2: label 3 outside "
                                                 "the training classes 0..2"),
    "train empty class": (["train", "--data", "{csv}", "--epochs", "1"], _NO_LABEL_1,
                          0, "warning: {csv}: label 1 has no rows"),
    "select empty class": (["select", "--data", "{csv}"], _NO_LABEL_1,
                           0, "warning: {csv}: label 1 has no rows"),
    "spectrum --epsilon0 0.0300001 0.0300004": (["spectrum", "--data", "{data}", "--epsilon0",
                                                 "0.0300001", "0.0300004"], None, 2,
                                                "--epsilon0 0.0300001 and 0.0300004 both "
                                                "name their files eps0.030000"),
    "spectrum --epsilon0 0.05 0.1 0.05": (["spectrum", "--data", "{data}", "--epsilon0", "0.05",
                                           "0.1", "0.05"], None, 2,
                                          "--epsilon0 0.05 and 0.05 both name their files "
                                          "eps0.050000"),
    "select --xi inf --lr inf": (["select", "--data", "{data}", "--xi", "inf", "--lr", "inf"],
                                 None, 2, "argument --xi: must be finite, got inf"),
    "select --k-per-class 5 --fraction 2": (["select", "--data", "{data}", "--k-per-class", "5",
                                             "--fraction", "2"], None,
                                            2, "coreaug select: error: argument --fraction: "
                                               "must lie in (0, 1], got 2.0"),
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
    # the other flag-sized arrays, refused at the real cap before allocation
    "train --r 10000000000000000000": (["train", "--data", "{data}", "--epochs", "1", "--r",
                                        "10000000000000000000"], None,
                                       2, "config error: --r: augmented copies would hold "
                                          "240000000000000000000 entries, cap is 268435456"),
    "bounds --shift-draws 10000000000000000000": (["bounds", "--shift-draws",
                                                   "10000000000000000000"], None,
                                                  2, "config error: --shift-draws: shift-model "
                                                     "draws would hold 100000000000000000000 "
                                                     "entries, cap is 268435456"),
    "gen-data --n 30000000000000000000": (["gen-data", "--n", "30000000000000000000",
                                           "--classes", "3", "--d", "4"], None,
                                          2, "--n 30000000000000000000 --d 4 --classes 3 "
                                             "--seed 0 --margin 0.25: features would hold "
                                             "120000000000000000000 entries, cap is 268435456"),
    "train --seeds 1,2 --lr 50": (["train", "--data", "{data}", "--seeds", "1,2", "--lr", "50"],
                                  None, 4, "numerical failure: training seed 1 diverged at "
                                           "epoch 1: loss "),
    "train --lr 5 --epochs 60": (["train", "--data", "{data}", "--lr", "5", "--epochs", "60",
                                  "--hidden", "6"], None,
                                 4, "numerical failure: training seed 0 diverged at epoch 2: "
                                    "loss 1.369115051037283e+35 exceeds 1e+30 x the initial "
                                    "loss 37.816962794098096"),
    "spectrum --lr 5 --train-epochs 60": (["spectrum", "--data", "{data}", "--lr", "5",
                                           "--train-epochs", "60", "--hidden", "6"], None,
                                          4, "numerical failure: warm-up diverged at epoch 2: "
                                             "loss 2.607708979734157e+33 exceeds 1e+30 x the "
                                             "initial loss 0.5412902493887276"),
    # a non-finite loss stops the run at once
    "train --lr 1e300": (["train", "--data", "{data}", "--epochs", "3", "--lr", "1e300"], None,
                         4, "numerical failure: training seed 0 diverged at epoch 0: loss nan, "
                            "gradient norm nan"),
    "spectrum --lr 1e300": (["spectrum", "--data", "{data}", "--lr", "1e300"], None,
                            4, "numerical failure: warm-up diverged at epoch 0: loss nan"),
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
    # one past a class's rows; CLASS_SIZE_EDGES runs the sizes at them
    "select --k-per-class 21": (["select", "--data", "{data}", "--k-per-class", "21"], None,
                                2, "config error: k_per_class 21 exceeds the 20 rows of class 0"),
    "train --k-per-class 16": (["train", "--data", "{data}", "--epochs", "1",
                                "--k-per-class", "16"], None,
                               2, "config error: k_per_class 16 exceeds the 15 rows of class 0"),
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
    "select missing --data file": (["select", "--data", "{csv}"], None,
                                   3, "data error: [Errno 2] No such file or directory: '{csv}'"),
    "select feature 2.5": (["select", "--data", "{csv}"], "f0,label\n2.5,0\n",
                           3, "data error: {csv}: line 2: feature f0=2.5 outside [0, 1]"),
    "select malformed header": (["select", "--data", "{csv}"], "f0,label,f1\n0.5,0,0.5\n",
                                3, "data error: {csv}: line 1: malformed header"),
    "report no run CSVs": (["report", "--runs", "{runs}"], None,
                           3, "data error: {runs}: no run CSVs found"),
    "config file missing": (["--config", "{csv}", "gen-data"], None,
                            2, "config error: config file not found: {csv}"),
    "config file not JSON": (["--config", "{csv}", "gen-data"], "n: 30\n",
                             2, "config error: config file is not valid JSON: {csv}: "),
    # a byte that is not UTF-8 fails its own line's parse, or names the config file
    "select undecodable row": (["select", "--data", "{csv}"], b"f0,label\n0.5,0\n0.\xff5,1\n",
                               3, "data error: {csv}: line 3: non-numeric value"),
    "select undecodable header": (["select", "--data", "{csv}"], b"f0,lab\xffel\n0.5,0\n",
                                  3, "data error: {csv}: line 1: malformed header"),
    "train --test-data undecodable label": (["train", "--data", "{data}", "--test-data",
                                             "{csv}"],
                                            b"f0,f1,f2,f3,label\n0.5,0.5,0.5,0.5,0\n\n"
                                            b"0.5,0.5,0.5,0.5,\xff\n",
                                            3, "data error: {csv}: line 4: non-numeric value"),
    "report undecodable row": (["report", "--runs", "{runs}"],
                               CSV_HEADER.encode() + b"\n1,0.5,0.4,0.9,0.1,1,2.0,5\n"
                                                     b"2,0.5,\xff,0.9,0.1,0,0.0,5\n",
                               3, "data error: {csv}: line 3: could not convert string to "
                                  "float: "),
    # a first line that is not the run header skips its file, decodable or not
    "report undecodable first line": (["report", "--runs", "{runs}"], b"\xff\n1,2\n",
                                      3, "data error: {runs}: no run CSVs found"),
    "config file not UTF-8": (["--config", "{csv}", "gen-data"],
                              b'{"schema_version": 1, "n": "3\xff0"}',
                              2, "config error: config file is not UTF-8: {csv}: "),
    "gen-data --d 1 --margin 5": (["gen-data", "--d", "1", "--classes", "3", "--margin", "5"],
                                  None, 2, "--d 1 --classes 3 --seed 0 --margin 5.0: could not "
                                           "place 3 means with margin 5.0 in 1 dims"),
    # a config's top level is an object that holds schema_version 1
    "config schema_version 99": (["--config", "{csv}", "gen-data"], '{"schema_version": 99}',
                                 2, "config error: {csv}: config schema_version must be 1, "
                                    "got 99"),
    "config a JSON list": (["--config", "{csv}", "gen-data"], "[1, 2]",
                           2, "config error: {csv}: a config is a JSON object, got list"),
    "train --config without a path": (["train", "--data", "{data}", "--config"], None,
                                      2, "coreaug train: error: argument --config: expected "
                                         "one argument"),
    # a config value is checked as its flag's value is, naming the config and the key
    "config select engine": (["--config", "{csv}", "select", "--data", "{data}"],
                             _config(engine="fast"),
                             2, "config error: {csv}: key 'engine': invalid choice 'fast' "
                                "(choose from 'naive', 'lazy', 'stochastic')"),
    "config select fraction": (["--config", "{csv}", "select", "--data", "{data}"],
                               _config(fraction=2.0),
                               2, "config error: {csv}: key 'fraction': must lie in (0, 1], "
                                  "got 2.0"),
    "config train k_per_class": (["train", "--config", "{csv}"], _config(k_per_class=0),
                                 2, "config error: {csv}: key 'k_per_class': must be >= 1, "
                                    "got 0"),
    "config train seeds": (["train", "--config", "{csv}"], _config(seeds=[]),
                           2, "config error: {csv}: key 'seeds': needs at least one seed"),
    "config train repeated seed": (["train", "--config", "{csv}"], _config(seeds=[3, 3]),
                                   2, "config error: {csv}: key 'seeds': seed 3 repeated"),
    "config train hidden": (["train", "--config", "{csv}"], _config(hidden=["a"]),
                            2, "config error: {csv}: key 'hidden': invalid literal for int() "
                               "with base 10: 'a'"),
    "config train lr_decay_epochs": (["train", "--config", "{csv}"],
                                     _config(lr_decay_epochs=[1, 2.5]),
                                     2, "config error: {csv}: key 'lr_decay_epochs': invalid "
                                        "literal for int() with base 10: '2.5'"),
    "config train regime": (["train", "--config", "{csv}"], _config(regime="all"),
                            2, "config error: {csv}: key 'regime': invalid choice 'all' (choose "
                               "from 'coreset_only', 'full_plus_coreset_aug', "
                               "'random_plus_coreset_aug')"),
    "config train lr Infinity": (["train", "--config", "{csv}"], _config(lr=math.inf),
                                 2, "config error: {csv}: key 'lr': must be finite, got inf"),
    "config train false epochs": (["train", "--config", "{csv}"], _config(epochs=False),
                                  2, "config error: {csv}: key 'epochs': invalid literal for "
                                     "int() with base 10: 'False'"),
    "config train null data": (["train", "--config", "{csv}"], _config(data=None, epochs=1),
                               2, "coreaug train: error: the following arguments are required: "
                                  "--data"),
    "config spectrum untrained": (["spectrum", "--data", "{data}", "--config", "{csv}"],
                                  _config(untrained="yes"),
                                  2, "config error: {csv}: key 'untrained': must be true or "
                                     "false, got 'yes'"),
    "config spectrum epsilon0": (["spectrum", "--data", "{data}", "--config", "{csv}"],
                                 _config(epsilon0=[]),
                                 2, "config error: {csv}: key 'epsilon0': needs at least one "
                                    "value"),
    "config gen-data unknown key": (["gen-data", "--config", "{csv}"], _config(epochs=2),
                                    2, "config error: {csv}: key 'epochs' is not an option of "
                                       "'gen-data'"),
    "config gen-data command": (["gen-data", "--config", "{csv}"], _config(command="train"),
                                2, "config error: {csv}: command 'train' does not match the "
                                   "subcommand 'gen-data'"),
    # --help and --config are no run's options: a config cannot set them
    "config select help false": (["--config", "{csv}", "select", "--data", "{data}"],
                                 _config(help=False),
                                 2, "config error: {csv}: key 'help' is not an option of "
                                    "'select'"),
    "config select help true": (["--config", "{csv}", "select", "--data", "{data}"],
                                _config(help=True),
                                2, "config error: {csv}: key 'help' is not an option of "
                                   "'select'"),
    "config train config": (["train", "--config", "{csv}"], _config(config="other.json"),
                            2, "config error: {csv}: key 'config' is not an option of 'train'"),
    # a one-class file has no other label to flip to
    "train --label-noise one-class file": (["train", "--data", "{csv}", "--label-noise", "0.1"],
                                           "f0,label\n0.1,0\n0.2,0\n0.3,0\n0.4,0\n",
                                           3, "data error: {csv}: --label-noise 0.1: cannot "
                                              "flip labels with a single class"),
    # a baseline draws a fixed-size subset; no --data file exists, so the
    # refusal reads none
    "train --xi --baseline random": (["train", "--data", "{csv}", "--xi", "0.5",
                                      "--baseline", "random"], None,
                                     2, "config error: --xi 0.5 --baseline random: an "
                                        "xi_threshold selection needs baseline 'ours', "
                                        "got 'random'"),
    "train --xi --baseline max_loss": (["train", "--data", "{csv}", "--xi", "0.5",
                                        "--baseline", "max_loss"], None,
                                       2, "config error: --xi 0.5 --baseline max_loss: an "
                                          "xi_threshold selection needs baseline 'ours', "
                                          "got 'max_loss'"),
    # --r sets augmented copies, which train alone makes
    "select --r": (["select", "--data", "{data}", "--r", "2"], None,
                   2, "error: unrecognized arguments: --r 2"),
}


@pytest.mark.parametrize("case", CLI_ERRORS)
def test_cli_error_names_its_flag_or_file(case, dataset_csv, tmp_path, capsys):
    argv, text, code, message = CLI_ERRORS[case]
    csv = tmp_path / "case.csv"
    if isinstance(text, bytes):
        csv.write_bytes(text)
    elif text is not None:
        csv.write_text(text)
    argv = [a.format(data=dataset_csv, csv=csv, runs=tmp_path) for a in argv]
    assert _exit_code(argv + ["--out", str(tmp_path / "out")]) == code
    assert message.format(csv=csv, runs=tmp_path) in capsys.readouterr().err


_SELECT = ["select", "--data", "{data}"]
_TRAIN = ["train", "--data", "{data}", "--epochs", "2", "--hidden", "6"]
_SPECTRUM = ["spectrum", "--data", "{data}", "--train-epochs", "1", "--hidden", "6"]

# One row per size at or above a class's rows, on the 60-row file's 20-row
# classes (15 after train's holdout split): the argv, and the argv of a run
# that must write the same artifacts. A stochastic sample that covers a class
# is the naive scan, a k_per_class of a class's rows picks it all as fraction 1
# does, and a per-class cap at or above its rows keeps them all as the default
# cap of 300 does.
CLASS_SIZE_EDGES = {
    "select --k-per-class 20": ([*_SELECT, "--k-per-class", "20"], [*_SELECT, "--fraction", "1"]),
    "select --stochastic-sample 20": ([*_SELECT, "--engine", "stochastic",
                                       "--stochastic-sample", "20"], [*_SELECT, "--engine", "naive"]),
    "select --stochastic-sample 10**30": ([*_SELECT, "--engine", "stochastic",
                                           "--stochastic-sample", str(10**30)],
                                          [*_SELECT, "--engine", "naive"]),
    "train --k-per-class 15": ([*_TRAIN, "--k-per-class", "15"], [*_TRAIN, "--fraction", "1"]),
    "train --stochastic-sample 15": ([*_TRAIN, "--engine", "stochastic",
                                      "--stochastic-sample", "15"], [*_TRAIN, "--engine", "naive"]),
    "train --stochastic-sample 10**30": ([*_TRAIN, "--engine", "stochastic",
                                          "--stochastic-sample", str(10**30)],
                                         [*_TRAIN, "--engine", "naive"]),
    "spectrum --per-class-cap 20": ([*_SPECTRUM, "--per-class-cap", "20"], _SPECTRUM),
    "spectrum --per-class-cap 21": ([*_SPECTRUM, "--per-class-cap", "21"], _SPECTRUM),
}


def _artifacts(out: Path) -> dict:
    """Each file a run wrote but its manifest, without what names the engine
    (``coreset.json``'s ``engine``) or reads the clock (``selection_ms``)."""
    col = CSV_HEADER.split(",").index("selection_ms")
    artifacts = {}
    for path in sorted(out.iterdir()):
        if path.name == "coreset.json":
            artifacts[path.name] = json.loads(path.read_text())["classes"]
        elif path.suffix == ".csv":
            artifacts[path.name] = [row[:col] + row[col + 1:] for row in
                                    (line.split(",") for line in path.read_text().splitlines())]
        elif path.name != "manifest.json":
            artifacts[path.name] = path.read_bytes()
    return artifacts


@pytest.mark.parametrize("case", CLASS_SIZE_EDGES)
def test_size_at_or_above_a_class_takes_the_whole_class(case, dataset_csv, tmp_path, capsys):
    argv, same_as = ([a.format(data=dataset_csv) for a in v] for v in CLASS_SIZE_EDGES[case])
    assert main(argv + ["--out", str(tmp_path / "edge")]) == 0
    assert main(same_as + ["--out", str(tmp_path / "same")]) == 0
    assert capsys.readouterr().err == ""
    edge = _artifacts(tmp_path / "edge")
    assert edge and edge == _artifacts(tmp_path / "same")


# One row per input that sizes an array, at an entry cap of 2**16: the argv,
# where {data} is a 60-row CSV of 4 features and 3 classes, {big} a CSV of
# two 1,100-row classes of 2 features and {tall} a 3,000-row CSV of 4
# features and 3 classes; the exit code; what stderr must hold; and the
# functions the command must not call. Each input sizes its array past
# 2**18 entries (2 MB), so a check made after the array is built,
# or after a smaller array of the same input (the proxies' forward trace,
# 1.9 MB), breaks the traced-peak bound.
CAP_BREACHES = {
    "select --hidden, parameters": (["select", "--data", "{data}", "--hidden", "200000"], 2,
                                    "config error: --hidden: a network of layer sizes "
                                    "(4, 200000, 3) would hold 1600003 parameters", ()),
    "select --hidden, proxies": (["select", "--data", "{data}", "--hidden", "4000"], 2,
                                 "config error: --hidden: gradient proxies would hold "
                                 "720180 entries, cap is 65536", ()),
    # 60 x 9000 activations before the 60 x 3 x 3 proxies; 63,011 parameters
    "select --hidden, proxy activations": (["select", "--data", "{data}", "--hidden",
                                            "9000,2"], 2,
                                           "config error: --hidden: proxy activations would "
                                           "hold 540000 entries, cap is 65536", ()),
    "select --warmup-epochs, warm-up activations": (["select", "--data", "{big}", "--hidden",
                                                     "300", "--warmup-epochs", "1"], 2,
                                                    "config error: --hidden: warm-up "
                                                    "activations would hold 660000 entries, "
                                                    "cap is 65536", ("trainer._sgd_epoch",)),
    "train --hidden, training-set activations": (["train", "--data", "{data}", "--hidden",
                                                  "9000,2"], 2,
                                                 "config error: --hidden: training-set "
                                                 "activations would hold 405000 entries, "
                                                 "cap is 65536", ("trainer._select_subset",)),
    "train --test-data, test-set activations": (["train", "--data", "{data}", "--test-data",
                                                 "{tall}", "--hidden", "200"], 2,
                                                "config error: --hidden: test-set activations "
                                                "would hold 600000 entries, cap is 65536",
                                                ("trainer._select_subset",)),
    # a pool of 45 rows and 45 x 12 copies; residual proxies have no last-layer check
    "train --r, pool activations": (["train", "--data", "{data}", "--hidden", "1000", "--r",
                                     "12", "--fraction", "1", "--proxy-mode", "residual"], 2,
                                    "config error: --hidden: pool activations would hold "
                                    "585000 entries, cap is 65536", ("trainer._pool_metrics",)),
    "spectrum --hidden, jacobian": (["spectrum", "--data", "{data}", "--hidden", "2000"], 2,
                                    "config error: --hidden: jacobian would hold 2880540 "
                                    "entries, cap is 65536", ("cli.sgd_warmup",)),
    "select, a class's distances": (["select", "--data", "{big}", "--hidden", "1"], 3,
                                    "data error: {big}: class 0: distance matrix would hold "
                                    "1210000 entries, cap is 65536", ()),
    # the holdout split leaves 825 training rows per class
    "train, a class's distances": (["train", "--data", "{big}", "--hidden", "1"], 3,
                                   "data error: {big}: class 0: distance matrix would hold "
                                   "680625 entries, cap is 65536", ("trainer._build_pool",)),
    "train --r": (["train", "--data", "{data}", "--r", "100000"], 2,
                  "config error: --r: augmented copies would hold 2400000 entries, "
                  "cap is 65536", ("trainer._sgd_epoch",)),
    "bounds --shift-draws": (["bounds", "--shift-draws", "200000"], 2,
                             "config error: --shift-draws: shift-model draws would hold "
                             "2000000 entries, cap is 65536",
                             tuple(f"audits.audit_{name}" for name in BATTERIES)),
    "gen-data --n": (["gen-data", "--n", "300000", "--d", "4"], 2,
                     "--n 300000 --d 4 --classes 3 --seed 0 --margin 0.25: features would "
                     "hold 1200000 entries, cap is 65536", ("cli.save_dataset_csv",)),
}


@pytest.mark.parametrize("case", CAP_BREACHES)
def test_over_cap_input_is_refused_before_its_array(case, dataset_csv, tmp_path, monkeypatch,
                                                     capsys, traced_peak_bytes):
    """Each input that would size an array past the entry cap exits with its
    code and names its flag, or its file and class, having allocated under
    1 MB (twice the cap) and called none of the functions its row names."""
    argv, code, message, unreached = CAP_BREACHES[case]
    big = tmp_path / "big.csv"
    save_dataset_csv(gen_dataset("gaussian_blobs", 2200, 2, 2, seed=3), big)
    tall = tmp_path / "tall.csv"
    save_dataset_csv(gen_dataset("gaussian_blobs", 3000, 4, 3, seed=4), tall)
    monkeypatch.setattr(coreaug.linalg, "ENTRY_CAP", 2**16)

    def unreachable(*args, **kwargs):
        raise AssertionError("called after the cap was breached")

    for name in unreached:
        module, attr = name.split(".")
        monkeypatch.setattr(getattr(coreaug, module), attr, unreachable)
    argv = [a.format(data=dataset_csv, big=big, tall=tall) for a in argv]
    codes = []
    peak = traced_peak_bytes(lambda: codes.append(
        _exit_code(argv + ["--out", str(tmp_path / "out")])))
    assert codes == [code]
    assert message.format(big=big) in capsys.readouterr().err
    assert peak < 2**20


def _suite_sized(battery: str, size: int):
    """``run_bounds_suite`` at the flags' defaults but ``battery``'s size."""
    return run_bounds_suite(0, {name: b.default for name, b in BATTERIES.items()}
                            | {battery: size})


# Probe values for every domain, in increasing order, as command-line text.
_FLOAT_MAX = repr(float(np.finfo(np.float64).max))
PROBES = ("-3", "-1", "-0.1", "0", "5e-324", "0.9999999999999999", "1", "1.5", "50", "99",
          "100", "1e150", "1.0000001e150", "1e160", "1e300", _FLOAT_MAX)

# Each domain's text, which completes "must ...", with the lowest and the
# highest probe inside it: the probes from the one to the other lie inside,
# every other probe outside.
DOMAIN_CUTS = {
    "be >= 0": ("0", _FLOAT_MAX),
    "be > 0": ("5e-324", _FLOAT_MAX),
    "be >= 1": ("1", _FLOAT_MAX),
    "be >= 100": ("100", _FLOAT_MAX),
    "lie in (0, 1]": ("5e-324", "1"),
    "lie in (0, 1)": ("5e-324", "0.9999999999999999"),
    "lie in [0, 1)": ("0", "0.9999999999999999"),
    "lie in [0, 1e150]": ("0", "1e150"),
}

# The rule of each option that has a type, in whichever subcommands take it:
# its domain's text, the library field it fills, and a call that gives that
# field a value (None, None where no library field takes it).
FLAG_RULES = {
    "--n": ("be >= 1", "n", lambda v: gen_dataset("gaussian_blobs", v, 16, 3)),
    "--d": ("be >= 1", "d", lambda v: gen_dataset("gaussian_blobs", 600, v, 3)),
    "--classes": ("be >= 1", "num_classes", lambda v: gen_dataset("gaussian_blobs", 600, 16, v)),
    "--noise": ("be >= 0", "noise",
                lambda v: gen_dataset("gaussian_blobs", 600, 16, 3, noise=v)),
    "--margin": ("be >= 0", "margin",
                 lambda v: gen_dataset("gaussian_blobs", 600, 16, 3, margin=v)),
    "--seed": ("be >= 0", None, None),
    "--fraction": ("lie in (0, 1]", "fraction", lambda v: SelectionConfig(fraction=v)),
    "--k-per-class": ("be >= 1", "k_per_class", lambda v: SelectionConfig(k_per_class=v)),
    "--xi": ("be > 0", "xi", lambda v: SelectionConfig(stop="xi_threshold", xi=v)),
    "--stochastic-sample": ("be >= 1", "stochastic_sample",
                            lambda v: SelectionConfig(fraction=0.1, stochastic_sample=v)),
    "--r": ("be >= 1", "r", lambda v: TransformSpec(r=v)),
    "--hidden": ("be >= 1", "layer_sizes", lambda v: MLP.init([2, v, 3])),
    "--net-seed": ("be >= 0", None, None),
    "--warmup-epochs": ("be >= 0", None, None),
    "--lr": ("be > 0", "initial", lambda v: LrSchedule(v)),
    "--holdout": ("lie in (0, 1)", "test_fraction",
                  lambda v: split_dataset(gen_dataset("gaussian_blobs", 30, 2, 3), v)),
    "--split-seed": ("be >= 0", None, None),
    "--refresh-r": ("be >= 1", "refresh_r", lambda v: TrainConfig(refresh_r=v)),
    "--epochs": ("be >= 1", "epochs", lambda v: TrainConfig(epochs=v)),
    "--lr-decay-epochs": ("be >= 0", "decay_epochs", lambda v: LrSchedule(0.005, (v,))),
    "--lr-decay-factor": ("be > 0", "factor", lambda v: LrSchedule(0.005, (), v)),
    "--batch-size": ("be >= 1", "batch_size", lambda v: TrainConfig(batch_size=v)),
    "--epsilon0": ("lie in [0, 1e150]", "epsilon0", lambda v: TransformSpec(epsilon0=v)),
    "--label-noise": ("lie in [0, 1)", "label_noise_frac",
                      lambda v: TrainConfig(label_noise_frac=v)),
    "--random-fraction": ("lie in (0, 1]", "random_fraction",
                          lambda v: TrainConfig(regime="random_plus_coreset_aug",
                                                random_fraction=v)),
    "--seeds": ("be >= 0", None, None),
    "--train-epochs": ("be >= 0", None, None),
    "--classes-used": ("be >= 1", "num_classes",
                       lambda v: Dataset(np.zeros((1, 1)), np.zeros(1, dtype=int), v)),
    "--per-class-cap": ("be >= 1", None, None),
    "--weyl-trials": ("be >= 1", "weyl_random", lambda v: _suite_sized("weyl_random", v)),
    "--shift-draws": ("be >= 100", "shift_model", lambda v: _suite_sized("shift_model", v)),
    "--vector-trials": ("be >= 1", "vector_bound", lambda v: _suite_sized("vector_bound", v)),
    "--ntk-instances": ("be >= 1", "ntk_bound", lambda v: _suite_sized("ntk_bound", v)),
    "--linear-instances": ("be >= 1", "linear_bounds",
                           lambda v: _suite_sized("linear_bounds", v)),
    "--augmentation-rounds": ("be >= 1", "weyl_augmentation",
                              lambda v: _suite_sized("weyl_augmentation", v)),
}

# A list option's probe follows a valid first value: in the same word for a
# comma-separated list, as the word before it for an nargs one.
_COMMA_LEADS = {"--hidden": "8,", "--seeds": "7,"}
_NARGS_LEADS = {"--epsilon0": "0.03", "--lr-decay-epochs": "2"}


def typed_options() -> list[str]:
    """``"<subcommand> <flag>"`` for each option that has a type."""
    return [f"{command} {action.option_strings[0]}"
            for command, parser in build_parser().subcommands.items()
            for action in parser._actions if action.type is not None]


def _option(option: str):
    """The parser, the action and the value kind of ``"<subcommand> <flag>"``;
    ``cli._checked`` names its type after the kind, and the list types hold
    ints."""
    parser = build_parser()
    command, flag = option.split()
    action = parser.subcommands[command]._option_string_actions[flag]
    return parser, action, float if action.type.__name__ == "float" else int


def _probe_words(action, probe: str) -> list[str]:
    """The words that give ``action``'s option the value ``probe``."""
    flag = action.option_strings[0]
    if action.nargs in ("*", "+"):
        return [flag, _NARGS_LEADS[flag], probe]
    return [f"{flag}={_COMMA_LEADS.get(flag, '')}{probe}"]


def test_every_typed_option_has_one_rule():
    """The options that have a type, over every subcommand, are exactly the
    rows of ``FLAG_RULES``, so a new flag cannot skip its rule; the probes
    are in increasing order, so a domain's cut falls between two of them."""
    assert {option.split()[1] for option in typed_options()} == set(FLAG_RULES)
    assert [float(p) for p in PROBES] == sorted(float(p) for p in PROBES)


@pytest.mark.parametrize("option", typed_options())
def test_option_keeps_its_rule(option, tmp_path, capsys):
    """Each probe outside the option's domain (a float option is also probed
    at inf and nan) exits 2 before the missing data file is read, naming the
    flag with its rule's text and writing nothing under --out, and its
    library field raises the same text naming the field; each probe inside
    parses to its value. A probe that is not a value of the option's type is
    skipped."""
    command, flag = option.split()
    parser, action, kind = _option(option)
    text, field, call = FLAG_RULES[flag]
    lo, hi = DOMAIN_CUTS[text]
    inside = PROBES[PROBES.index(lo):PROBES.index(hi) + 1]
    argv = [command, "--out", str(tmp_path / "out")]
    if "--data" in parser.subcommands[command]._option_string_actions:
        argv += ["--data", str(tmp_path / "missing.csv")]
    for probe in PROBES + (("inf", "nan") if kind is float else ()):
        try:
            value = kind(probe)
        except ValueError:
            continue
        words = _probe_words(action, probe)
        if probe in inside:
            parsed = getattr(parser.parse_args(argv + words), action.dest)
            assert (parsed[-1] if isinstance(parsed, (list, tuple)) else parsed) == value
            continue
        breach = (f"must {text}, got {value}" if math.isfinite(value)
                  else f"must be finite, got {value}")
        assert _exit_code(argv + words) == 2
        assert f"argument {flag}: {breach}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        if call is not None:
            with pytest.raises(ValueError) as raised:
                call(value)
            assert str(raised.value) == f"{field} {breach}"


@pytest.mark.parametrize("option", typed_options())
def test_config_key_keeps_its_rule(option, tmp_path, capsys):
    """Each probe outside the option's domain, written as its config key's
    JSON value (a list option's after the same valid lead), exits 2 before
    the missing data file is read, naming the key with its rule's text."""
    command, flag = option.split()
    parser, action, kind = _option(option)
    lo, hi = DOMAIN_CUTS[FLAG_RULES[flag][0]]
    inside = PROBES[PROBES.index(lo):PROBES.index(hi) + 1]
    cfg = tmp_path / "cfg.json"
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if "--data" in parser.subcommands[command]._option_string_actions:
        argv += ["--data", str(tmp_path / "missing.csv")]
    lead = _NARGS_LEADS[flag] if action.nargs in ("*", "+") else _COMMA_LEADS.get(flag)
    for probe in PROBES + (("inf", "nan") if kind is float else ()):
        try:
            value = kind(probe)
        except ValueError:
            continue
        if probe in inside:
            continue
        written = value if lead is None else [kind(lead.rstrip(",")), value]
        cfg.write_text(json.dumps({"schema_version": 1, action.dest: written}))
        breach = (f"must {FLAG_RULES[flag][0]}, got {value}" if math.isfinite(value)
                  else f"must be finite, got {value}")
        assert _exit_code(argv) == 2
        assert f"key '{action.dest}': {breach}" in capsys.readouterr().err


# A run of each subcommand on a 30-row file ({data}) that reaches every
# option probed below: the selection, the warm-up, two lr decays and the
# random base pool included; bounds runs each battery at its least size.
_TINY_RUNS = {
    "gen-data": ["gen-data", "--n", "30", "--d", "4"],
    "select": ["select", "--data", "{data}", "--hidden", "4", "--warmup-epochs", "1",
               "--engine", "stochastic"],
    "train": ["train", "--data", "{data}", "--hidden", "4", "--epochs", "2",
              "--lr-decay-epochs", "0", "0", "--engine", "stochastic",
              "--regime", "random_plus_coreset_aug"],
    "spectrum": ["spectrum", "--data", "{data}", "--hidden", "4", "--train-epochs", "1"],
    "bounds": ["bounds", "--weyl-trials", "1", "--shift-draws", "100", "--vector-trials", "1",
               "--ntk-instances", "1", "--linear-instances", "1", "--augmentation-rounds", "1"],
}

# The int options that size no array (epoch counts, which would run for
# ever, and array sizes, which CAP_BREACHES covers, are left out).
_HUGE_INT_OPTIONS = {
    "gen-data": ("--seed",),
    "select": ("--seed", "--net-seed", "--stochastic-sample"),
    "train": ("--seed", "--split-seed", "--seeds", "--refresh-r", "--batch-size",
              "--lr-decay-epochs", "--stochastic-sample"),
    "spectrum": ("--seed", "--classes-used", "--per-class-cap"),
    "bounds": ("--seed",),
}


def accepted_extremes() -> list[str]:
    """``"<subcommand> <flag> <value>"``: each float option of the tiny runs
    at its domain's lowest probe and at its highest, or 1e300 for an
    unbounded domain, and each int option of ``_HUGE_INT_OPTIONS`` at 10**30."""
    cases = []
    for option in typed_options():
        command, flag = option.split()
        # an option with no rule fails test_every_typed_option_has_one_rule
        if command not in _TINY_RUNS or flag not in FLAG_RULES:
            continue
        if _option(option)[2] is float:
            lo, hi = DOMAIN_CUTS[FLAG_RULES[flag][0]]
            cases += [f"{option} {lo}", f"{option} {'1e300' if hi == _FLOAT_MAX else hi}"]
        elif flag in _HUGE_INT_OPTIONS[command]:
            cases.append(f"{option} {10**30}")
    return cases


@pytest.mark.parametrize("case", accepted_extremes())
def test_accepted_extremes_run_clean(case, tmp_path, capsys):
    """A run at an accepted extreme succeeds, or exits 2 naming its flag, 3
    naming its data file, or 4 naming the epoch at which training diverged
    (``bounds``: a failed suite, its ``bounds.json`` written); it raises no
    warning, every JSON it writes is strict, and a run that succeeds, or
    whose suite fails, writes its manifest."""
    option, probe = case.rsplit(" ", 1)
    command, flag = option.split()
    data = tmp_path / "data.csv"
    save_dataset_csv(gen_dataset("gaussian_blobs", 30, 4, 3, seed=11, noise=0.07), data)
    out = tmp_path / ("out.csv" if command == "gen-data" else "out")
    argv = [a.format(data=data) for a in _TINY_RUNS[command]]
    code = _exit_code(argv + _probe_words(_option(option)[1], probe) + ["--out", str(out)])
    written = capsys.readouterr()
    assert code in (0, 2, 3, 4), written.err
    if command == "bounds" and code == 4:
        assert "bounds suite FAIL" in written.out
        strict_json(out / "bounds.json")
    else:
        assert {2: flag, 3: str(data), 4: "diverged at epoch "}.get(code, "") in written.err
    for path in tmp_path.rglob("*.json"):
        strict_json(path)
    if command != "gen-data" and (code == 0 or command == "bounds" and code == 4):
        assert (out / "manifest.json").exists()


def test_largest_budget_runs_spectrum(dataset_csv, tmp_path):
    """``spectrum --epsilon0 1e150`` writes its files, the longest name
    184 bytes (the float 1e150 lies below 10**150, so its integer part has
    150 digits), and the augmentation shifts the Jacobian."""
    out = tmp_path / "spec"
    assert main(["spectrum", "--data", str(dataset_csv), "--epsilon0", "1e150",
                 "--untrained", "--train-epochs", "1", "--hidden", "6",
                 "--per-class-cap", "15", "--out", str(out)]) == 0
    longest = max(strict_json(out / "manifest.json")["outputs"], key=len)
    assert len(longest.encode()) == 184
    for tag in ("untrained", "trained"):
        assert strict_json(out / f"spectrum_{tag}_eps{1e150:.6f}.json")["e_norm2"] > 0.0


def test_json_artifacts_refuse_non_finite_floats(tmp_path):
    with pytest.raises(ValueError):
        coreaug.cli._write_json(tmp_path / "x.json", {"lr": math.inf})
    assert not (tmp_path / "x.json").exists()


def test_bounds_options_are_the_battery_table():
    """``bounds`` takes ``--seed`` and one option per battery, in the
    table's order, each with its row's default; ``FLAG_RULES`` holds each
    option's rule."""
    actions = [a for a in build_parser().subcommands["bounds"]._actions
               if a.dest not in ("help", "config", "out", "seed")]
    assert [(a.option_strings, a.default) for a in actions] == [
        ([battery.flag], battery.default) for battery in BATTERIES.values()]


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


def _bench_module(name: str):
    """``perfbench/<name>.py``, loaded from this checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_trace_targets_exist():
    """The benchmark's tracer patches functions by name; each one it names
    must exist, or a rename breaks only the traced benchmark passes."""
    tracing = _bench_module("tracing")
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(f"coreaug.{module}"), attr, None)), \
            f"coreaug.{module}.{attr}"
    assert set(coreaug.coreset._ENGINE_FNS) == {"naive", "lazy", "stochastic"}


@pytest.mark.parametrize("workload", ["subset_train", "select_large", "full_train",
                                      "spectrum_audit"])
def test_bench_workload_passes_at_tiny_scale(workload, tmp_path):
    """Each benchmark workload's set-up, run and check, as one untraced pass
    runs them at the tiny scale: every op passes, so a program change that
    breaks a call the benchmark makes (a renamed keyword, say) fails here and
    not only in a benchmark run."""
    tracing, workloads = _bench_module("tracing"), _bench_module("workloads")
    assert workload in workloads.WORKLOADS
    setup, run, check = workloads.WORKLOADS[workload]
    p = workloads.Pass(workload, 0, "tiny", tmp_path)
    with tracing.instrument(None, p.observers()):
        setup(p)
        run(p)
    check(p)
    assert p.ops
    assert [op for op in p.ops if not op["ok"]] == []


# Definitions in src/coreaug that no program path reaches but the benchmark
# does; each goes when perfbench/ stops naming it.
PERFBENCH_ONLY = {
    "trainer.weighted_gradient_step":
        "perfbench/tracing.py traces it by name; _sgd_epoch takes the same step "
        "through one _Gradient per epoch, and the warm-up replay test checks "
        "the two bit for bit",
    "coreset.WeightedCoreset.validate":
        "perfbench/workloads.py checks every selection it observes with it",
    "trainer.TrainRecord.selection_events":
        "perfbench/workloads.py's _check_record reads each refresh's indices "
        "from it",
}


def unreached_definitions(src: Path) -> set[str]:
    """Functions, classes, methods and fields of the modules in ``src``, as
    ``module.name``, ``module.Class.method`` or ``module.Class.field``, that
    no call path reaches from ``cli.main`` or from a module-level statement.

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
    defs: dict[str, ast.AST] = {}
    members: dict[str, list[str]] = {}
    fields_of: dict[str, list[str]] = {}
    imports: dict[str, dict[str, tuple]] = {}
    for mod, tree in trees.items():
        imports[mod] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                source = (node.module or "__init__").rpartition(".")[2]
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (source, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (None, None)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
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

    frontier = ["cli.main"]
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
    the CLI entry point or a module-level statement, and every field is read
    on such a path, so no library code runs, and no field is filled, only
    for tests; the only exceptions are the definitions in
    ``PERFBENCH_ONLY``."""
    unreached = unreached_definitions(Path(__file__).resolve().parents[1] / "src" / "coreaug")
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
    assert unreached_definitions(src) == {"cli.Report.unread"}


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


def test_per_class_size_has_one_home():
    """Only ``coreset._resolve_k`` calls ``round``: the rounded fraction of
    a class, at least one row, is computed there alone, and the holdout
    split, the baselines and every protocol size their per-class subsets
    through it."""
    src = Path(__file__).resolve().parents[1] / "src" / "coreaug"
    users = [scope for scope, node in scoped_nodes(src)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "round"]
    assert users == ["coreset._resolve_k"]


def test_entry_cap_has_one_door():
    """Only ``linalg.check_entries`` raises ``MemoryCapError`` or reads the
    entry cap, both defined in ``linalg`` alone, and only ``cli.main``
    catches the error. So every size meets one cap, and a breach has one
    mapping to its exit code."""
    src = Path(__file__).resolve().parents[1] / "src" / "coreaug"

    def names(node) -> list[str]:
        return [name for sub in ast.walk(node) for name in spelled_names(sub)]

    raisers, readers, writers, classes, handlers = [], [], [], [], []
    for scope, node in scoped_nodes(src):
        if scope.split(".")[1:2] == ["MemoryCapError"]:
            classes.append(scope.split(".")[0])
        if isinstance(node, ast.Raise) and "MemoryCapError" in names(node):
            raisers.append(scope)
        if isinstance(node, ast.ExceptHandler) and node.type is not None \
                and "MemoryCapError" in names(node.type):
            handlers.append(scope)
        if isinstance(node, (ast.Name, ast.Attribute)) \
                and spelled_names(node)[0].endswith("ENTRY_CAP"):
            (writers if isinstance(node.ctx, ast.Store) else readers).append(scope)
    assert raisers == ["linalg.check_entries"]
    assert set(readers) == {"linalg.check_entries"}
    assert writers == ["linalg"]
    assert set(classes) == {"linalg"}
    assert handlers == ["cli.main"]


def test_acceptance_criteria_reach_lapack_through_linalg():
    """``tests/test_acceptance.py`` takes every singular value from ``linalg``,
    as the program does, so no criterion computes its own decomposition."""
    tests = Path(__file__).resolve().parent
    users = [scope for scope, node in scoped_nodes(tests)
             if scope.partition(".")[0] == "test_acceptance" and reaches_lapack_svd(node)]
    assert users == []


def test_acceptance_criteria_call_audits():
    """``tests/test_acceptance.py`` imports from ``coreaug`` only the audits,
    the CLI and, for criterion 13's input file, the data module, so every
    criterion runs a protocol that ``bounds`` or ``experiment`` runs too."""
    path = Path(__file__).resolve().parent / "test_acceptance.py"
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert {m for m in modules if m.partition(".")[0] == "coreaug"} <= \
        {"coreaug.audits", "coreaug.cli", "coreaug.data"}


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
