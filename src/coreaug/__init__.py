"""Coreset-driven data augmentation toolkit.

Selects small weighted per-class subsets whose gradient proxies cover the full
dataset, augments only those subsets with bounded additive transforms, trains
with weighted SGD, and numerically audits the derivative-spectrum theory that
justifies the pipeline.
"""

__version__ = "0.1.0"
