"""Downstream least-squares predictor, MSE evaluation, and the choice among
candidate bases by that MSE."""

from dataclasses import dataclass

import numpy as np

from .data import Factor


@dataclass(frozen=True)
class RegressionModel:
    """Linear predictor on reduced (or raw) features."""

    coefficients: np.ndarray

    def predict(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != len(self.coefficients):
            raise ValueError(f"expected {len(self.coefficients)} columns, got {z.shape}")
        return z @ self.coefficients


def ols_fit(z: np.ndarray, y: np.ndarray | Factor) -> RegressionModel:
    """Minimum-norm least squares of y on the columns of z, without an
    intercept: features and response are fitted centered.

    ``z`` is the N x K design and ``y`` the N-vector response; or ``y`` is a
    dataset's ``Factor`` and ``z`` a P x K map B, for the design X B: the
    one-basis case of ``ols_stack``.  Singular values below eps max(N, K)
    times the largest are dropped, so rank-deficient designs stay
    deterministic.
    """
    if isinstance(y, Factor):
        return RegressionModel(ols_stack(np.asarray(z, dtype=float)[None], y)[0])
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if z.ndim != 2 or y.ndim != 1 or z.shape[0] != len(y):
        raise ValueError(f"incompatible shapes {z.shape} and {y.shape}")
    return RegressionModel(_lstsq(z[None], y, len(y))[0])


def ols_stack(bases: np.ndarray, factor: Factor) -> np.ndarray:
    """The (g, K) coefficients of ``ols_fit(B, factor)`` for each map B of a
    (g, P, K) stack, from one stacked SVD of the K-column systems (r B,
    Q^T y): the minimizers of |X B c - y|, without touching the N rows."""
    bases = np.asarray(bases, dtype=float)
    if bases.ndim != 3 or bases.shape[1] != factor.r.shape[1]:
        raise ValueError(f"incompatible shapes {bases.shape} and {factor.r.shape}")
    # one memory layout, so each slice rounds as its basis solved alone
    return _lstsq(factor.r @ np.ascontiguousarray(bases), factor.qty, factor.n)


def _lstsq(a: np.ndarray, b: np.ndarray, rows: int) -> np.ndarray:
    """Minimum-norm solutions of min |a_i c - b| for a (g, m, K) stack,
    dropping singular values at or below lstsq's default cutoff taken at
    the row count of the unreduced design, eps max(rows, K) times the
    largest."""
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite inputs")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > np.finfo(float).eps * max(rows, a.shape[2]) * s[:, :1]
    ub = np.divide(np.swapaxes(u, 1, 2) @ b, s, out=np.zeros_like(s), where=keep)
    return (np.swapaxes(vt, 1, 2) @ ub[..., None])[..., 0]


def mse(predictions: np.ndarray, truth: np.ndarray) -> float:
    predictions = np.asarray(predictions, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predictions.shape != truth.shape or predictions.ndim != 1 or len(truth) < 1:
        raise ValueError(f"incompatible shapes {predictions.shape} and {truth.shape}")
    diff = predictions - truth
    return float(diff @ diff / len(truth))


def factor_mse(bases: np.ndarray, coefficients: np.ndarray,
               factor: Factor) -> np.ndarray:
    """The MSE of each model (B_i, c_i) of a (g, P, K) stack of maps and a
    (g, K) stack of coefficients on the dataset whose ``Factor`` is given,
    from |X B c - y|^2 = |r B c - Q^T y|^2: exact at any N, P + 1 rows or
    fewer, without touching the N rows."""
    resid = (factor.r @ (bases @ coefficients[..., None]))[..., 0] - factor.qty
    return np.sum(resid * resid, axis=1) / factor.n


def select_candidate(scores: np.ndarray, rtol: float) -> int | None:
    """The earliest candidate whose score is finite and within ``rtol`` of
    the lowest finite one, or None if no score is finite."""
    finite = np.isfinite(scores)
    if not finite.any():
        return None
    cutoff = scores[finite].min() * (1.0 + rtol)
    return int(np.flatnonzero(finite & (scores <= cutoff))[0])
