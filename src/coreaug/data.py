"""Synthetic dataset generators and the CSV interchange format.

CSV layout: header ``f0,...,f{d-1},label``, UTF-8, no quoting, one example per
row with features in [0, 1] and an integer class label. Loading validates
every row and reports the first offending line by number; a byte that is not
UTF-8 is read as its ``\\xNN`` escape, which no header or number matches.
"""

from __future__ import annotations

from array import array

import numpy as np

from .coreset import SelectionConfig, random_subset
from .linalg import AT_LEAST_0, AT_LEAST_1, OPEN_UNIT, check_entries, one_of
from .model import Dataset

GENERATOR_KINDS = ("gaussian_blobs", "two_moons_embedded", "grid_digits")
_INT64_MAX = int(np.iinfo(np.int64).max)


class DataFormatError(ValueError):
    """A dataset file violated the CSV contract (the message names the line),
    or its rows cannot serve the requested split."""


def _blob_means(rng: np.random.Generator, num_classes: int, d: int,
                margin: float) -> np.ndarray:
    for _ in range(1000):
        means = rng.uniform(0.25, 0.75, size=(num_classes, d))
        ok = True
        for a in range(num_classes):
            for b in range(a + 1, num_classes):
                if np.linalg.norm(means[a] - means[b]) < margin:
                    ok = False
        if ok:
            return means
    raise ValueError(f"could not place {num_classes} means with margin {margin} in {d} dims")


def gen_dataset(kind: str, n: int, d: int, num_classes: int, seed: int = 0,
                noise: float = 0.05, margin: float = 0.25) -> Dataset:
    """Balanced synthetic datasets with features clamped to [0, 1].

    ``gaussian_blobs``: class means pairwise separated by at least ``margin``.
    ``two_moons_embedded``: the classic two arcs in the first two feature
    dimensions (requires num_classes == 2), the rest held near 0.5.
    ``grid_digits``: per-class binary pixel templates plus noise.
    """
    one_of(GENERATOR_KINDS).check("kind", kind)
    for name, value in (("n", n), ("d", d), ("num_classes", num_classes)):
        AT_LEAST_1.check(name, value)
    AT_LEAST_0.check("noise", noise)
    AT_LEAST_0.check("margin", margin)
    if n % num_classes != 0:
        raise ValueError("n must be a positive multiple of num_classes")
    check_entries("features", (n, d), "--n")
    rng = np.random.default_rng(seed)
    per = n // num_classes
    labels = np.repeat(np.arange(num_classes), per)
    if kind == "gaussian_blobs":
        means = _blob_means(rng, num_classes, d, margin)
        feats = means[labels] + noise * rng.standard_normal((n, d))
    elif kind == "two_moons_embedded":
        if num_classes != 2:
            raise ValueError("two_moons_embedded requires num_classes == 2")
        if d < 2:
            raise ValueError("two_moons_embedded requires d >= 2")
        theta = rng.uniform(0.0, np.pi, size=n)
        x = np.where(labels == 0, np.cos(theta), 1.0 - np.cos(theta))
        y = np.where(labels == 0, np.sin(theta), 0.5 - np.sin(theta))
        feats = np.full((n, d), 0.5)
        feats[:, 0] = 0.5 + 0.3 * (x - 0.5)
        feats[:, 1] = 0.5 + 0.3 * y
        feats += noise * rng.standard_normal((n, d))
    else:
        templates = np.where(rng.uniform(size=(num_classes, d)) < 0.5, 0.15, 0.85)
        feats = templates[labels] + noise * rng.standard_normal((n, d))
    feats = np.clip(feats, 0.0, 1.0)
    return Dataset(feats, labels, num_classes)


def save_dataset_csv(data: Dataset, path) -> None:
    header = ",".join(f"f{i}" for i in range(data.dim)) + ",label"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row, label in zip(data.features, data.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def _parse_failure(parts: list[str]) -> str:
    """Why a row's values do not parse: a value that is not a number, or
    else a label that is a number but not an integer."""
    try:
        [float(v) for v in parts]
    except ValueError:
        return "non-numeric value"
    return f"label {parts[-1]!r} is not an integer"


def load_dataset_csv(path, training: Dataset | None = None) -> Dataset:
    """The dataset of a CSV file; see ``_parse_dataset_csv``.

    A training file's labels set the class count (the largest label plus
    one), which sizes a network's output layer and every per-class count:
    its first line with a label at or above the row count is reported. A
    test file of ``training`` takes that data's class count: its first label
    outside those classes names its line, and then its feature count must be
    ``training``'s."""
    data, line_of = _parse_dataset_csv(path)
    if training is None:
        bound, why = data.n, f"names more classes than the file's {data.n} data rows"
    else:
        bound = training.num_classes
        why = f"outside the training classes 0..{bound - 1}"
    if data.num_classes > bound:
        i = int(np.argmax(data.labels >= bound))
        raise DataFormatError(f"{path}: line {line_of(i)}: label {data.labels[i]} {why}")
    if training is None:
        return data
    if data.dim != training.dim:
        raise DataFormatError(f"{path}: {data.dim} features, the training data has "
                              f"{training.dim}")
    return Dataset(data.features, data.labels, training.num_classes)


def _parse_dataset_csv(path):
    """Parse rows line by line, then range-check every feature at once.
    Returns the dataset and the map from a data row's index to its line.

    The file is read one physical line at a time, and each is split by
    ``str.splitlines``, so lines (and their numbers) are those of the whole
    text's ``splitlines()``, ``\\x0c``, ``\\x1c`` and ``\\x85`` included, while
    only one line's text is held.

    Each fully parsed row's features are appended as raw doubles to one
    growing buffer, which becomes the feature matrix without a copy. Parsing
    stops at the first line with a wrong column count, a non-numeric value,
    a label that is not an integer, a negative label or one past the int64
    maximum; the reported line is the first offending one, a range error on
    that line coming before its label. The range check is two reductions,
    and only a failing file builds the mask ``~((X >= 0) & (X <= 1))`` to
    name the entry; NaN and infinities fail both.
    """
    with open(path, "r", encoding="utf-8", errors="backslashreplace") as fh:
        lines = (line for physical in fh for line in physical.splitlines())
        header = next(lines, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file, no header")
        header = header.split(",")
        if header[-1] != "label" or any(h != f"f{i}" for i, h in enumerate(header[:-1])):
            raise DataFormatError(f"{path}: line 1: malformed header")
        d = len(header) - 1
        feats, labels, blanks = array("d"), [], []
        failure = cause = None
        for lineno, line in enumerate(lines, start=2):
            if not line.strip():
                blanks.append(lineno)
                continue
            parts = line.split(",")
            if len(parts) != d + 1:
                failure = f"line {lineno}: expected {d + 1} columns, got {len(parts)}"
                break
            try:
                row = [float(v) for v in parts[:-1]]
                label = int(parts[-1])
            except ValueError as exc:
                failure, cause = f"line {lineno}: {_parse_failure(parts)}", exc
                break
            feats.extend(row)
            labels.append(label)
            if label < 0:
                failure = f"line {lineno}: negative label"
                break
            if label > _INT64_MAX:
                failure = f"line {lineno}: label {label} does not fit int64"
                break

    def line_of(i: int) -> int:
        # data row i sits on line i + 2 plus the blank lines up to it
        lineno = i + 2
        for blank in blanks:
            lineno += blank <= lineno
        return lineno

    X = np.frombuffer(feats, dtype=np.float64).reshape(len(labels), d)
    if X.size and not (X.min() >= 0.0 and X.max() <= 1.0):
        bad = ~((X >= 0.0) & (X <= 1.0))
        i = int(np.argmax(bad.any(axis=1)))
        j = int(np.argmax(bad[i]))
        raise DataFormatError(
            f"{path}: line {line_of(i)}: feature f{j}={float(X[i, j])} outside [0, 1]")
    if failure is not None:
        raise DataFormatError(f"{path}: {failure}") from cause
    if not labels:
        raise DataFormatError(f"{path}: no data rows")
    labels_arr = np.asarray(labels, dtype=np.int64)
    return Dataset(X, labels_arr, int(labels_arr.max()) + 1), line_of


def split_dataset(data: Dataset, test_fraction: float, seed: int = 0):
    """Stratified deterministic split into (train, test): each class with
    rows gives its ``random_subset`` share, at least one row, to the test
    side. Raises ``DataFormatError`` when that leaves no training rows."""
    OPEN_UNIT.check("test_fraction", test_fraction)
    # random_subset returns its rows class by class; the test side keeps row order
    test_idx = np.sort(random_subset(SelectionConfig(fraction=test_fraction), data.labels,
                                     seed).indices)
    if test_idx.size == data.n:
        raise DataFormatError("the split left no training rows")
    mask = np.zeros(data.n, dtype=bool)
    mask[test_idx] = True
    return data.subset(np.flatnonzero(~mask)), data.subset(test_idx)
