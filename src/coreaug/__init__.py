"""Coreset-driven data augmentation toolkit.

Selects small weighted per-class subsets whose gradient proxies cover the full
dataset, augments only those subsets with bounded additive transforms, trains
with weighted SGD, and numerically audits the derivative-spectrum theory that
justifies the pipeline.
"""

__version__ = "0.1.0"

from .augment import AugmentedSet, TransformSpec, perturb
from .coreset import (
    SelectionConfig,
    WeightedCoreset,
    alignment_error,
    select_all_classes,
)
from .data import gen_dataset, load_dataset_csv, save_dataset_csv
from .linalg import SvdResult, frobenius_norm, principal_angles, spectral_norm, svd
from .model import MLP, Dataset, GradientProxySet, gradient_proxy
from .spectrum import SpectrumReport, spectrum_report
from .trainer import LrSchedule, TrainConfig, TrainRecord, train

__all__ = [
    "__version__",
    "AugmentedSet",
    "TransformSpec",
    "perturb",
    "SelectionConfig",
    "WeightedCoreset",
    "alignment_error",
    "select_all_classes",
    "gen_dataset",
    "load_dataset_csv",
    "save_dataset_csv",
    "SvdResult",
    "frobenius_norm",
    "principal_angles",
    "spectral_norm",
    "svd",
    "MLP",
    "Dataset",
    "GradientProxySet",
    "gradient_proxy",
    "SpectrumReport",
    "spectrum_report",
    "LrSchedule",
    "TrainConfig",
    "TrainRecord",
    "train",
]
