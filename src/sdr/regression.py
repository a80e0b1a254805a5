"""Downstream least-squares predictor and MSE evaluation."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RegressionModel:
    """Linear predictor on reduced (or raw) features."""

    coefficients: np.ndarray

    def predict(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != len(self.coefficients):
            raise ValueError(f"expected {len(self.coefficients)} columns, got {z.shape}")
        return z @ self.coefficients


def ols_fit(z: np.ndarray, y: np.ndarray) -> RegressionModel:
    """Minimum-norm least squares of y on the columns of z, without an
    intercept: features and response are fitted centered.

    Pseudo-inverse semantics keep rank-deficient designs deterministic.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if z.ndim != 2 or y.ndim != 1 or z.shape[0] != len(y):
        raise ValueError(f"incompatible shapes {z.shape} and {y.shape}")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite inputs")
    coef, *_ = np.linalg.lstsq(z, y, rcond=None)
    return RegressionModel(coefficients=coef)


def mse(predictions: np.ndarray, truth: np.ndarray) -> float:
    predictions = np.asarray(predictions, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predictions.shape != truth.shape or predictions.ndim != 1 or len(truth) < 1:
        raise ValueError(f"incompatible shapes {predictions.shape} and {truth.shape}")
    diff = predictions - truth
    return float(diff @ diff / len(truth))
