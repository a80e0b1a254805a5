"""Downstream least-squares predictor, MSE evaluation, and the choice among
candidate bases by that MSE."""

import math
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
    dataset's ``Factor`` X = QR and ``z`` a P x K map B, for the design X B,
    whose fit solves the K-column system (R B, Q^T y): the same minimizer,
    without touching the N rows.  Either way singular values below
    eps max(N, K) times the largest are dropped, so rank-deficient designs
    stay deterministic.
    """
    rows = None
    if isinstance(y, Factor):
        z, y, rows = y.r @ np.asarray(z, dtype=float), y.qty, y.n
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if z.ndim != 2 or y.ndim != 1 or z.shape[0] != len(y):
        raise ValueError(f"incompatible shapes {z.shape} and {y.shape}")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite inputs")
    # lstsq's default cutoff, taken at the row count of the unreduced design
    rcond = np.finfo(float).eps * max(rows or len(y), z.shape[1])
    coef, *_ = np.linalg.lstsq(z, y, rcond=rcond)
    return RegressionModel(coefficients=coef)


def mse(predictions: np.ndarray, truth: np.ndarray) -> float:
    predictions = np.asarray(predictions, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predictions.shape != truth.shape or predictions.ndim != 1 or len(truth) < 1:
        raise ValueError(f"incompatible shapes {predictions.shape} and {truth.shape}")
    diff = predictions - truth
    return float(diff @ diff / len(truth))


def moment_mse(bases: np.ndarray, fit, score) -> tuple[np.ndarray, np.ndarray]:
    """Moment-form MSE of each candidate basis and a bound on its distance
    from the exact score, without touching a row.

    ``bases`` is a (g, P, K) stack of orthonormal bases U; ``fit`` and
    ``score`` are the ``Moments`` of the split the least-squares model is
    fitted on and of the split it is scored on.  With C, w the fit split's
    X^T X, X^T y and G, b the scoring split's U^T X^T X U, U^T X^T y, the
    coefficients are c = A^-1 U^T w for A = U^T C U and the MSE is
    m = (y^T y - 2 c^T b + c^T G c) / n.

    The exact score of U, ``mse(ols_fit(U, F).predict(X_s U), y_s)`` for
    the fit split's thin QR F (``Dataset.factor``) and the scoring split's
    rows X_s, y_s, is what ``methods._choose`` and ``wrappers.fit_bair``
    compute.  It differs from m by rounding, which delta = 1e3 eps T (1 +
    tr(C) / lambda_min(A)) bounds, with T = (y^T y + 2 |c^T b| + c^T G c) /
    n: T covers cancellation in m, and tr(C) / lambda_min(A) the
    conditioning of X U and of forming it.
    delta is inf where A is not positive definite.
    """
    u = np.asarray(bases, dtype=float)
    ut = np.swapaxes(u, 1, 2)
    with np.errstate(all="ignore"):
        lam, vec = np.linalg.eigh(ut @ fit.xx @ u)
        r = np.swapaxes(vec, 1, 2) @ (ut @ fit.xy)[..., None]
        c = (vec @ (r / lam[..., None]))[..., 0]
        cb = np.einsum("gk,gk->g", c, ut @ score.xy)
        cgc = np.einsum("gk,gkl,gl->g", c, ut @ score.xx @ u, c)
        m = (score.yy - 2.0 * cb + cgc) / score.n
        t = (score.yy + 2.0 * np.abs(cb) + cgc) / score.n
        delta = 1e3 * np.finfo(float).eps * t * (1.0 + np.trace(fit.xx) / lam[:, 0])
    return m, np.where(lam[:, 0] > 0, delta, np.inf)


def select_candidate(bases: np.ndarray, fit, score, exact, rtol: float):
    """``(i, exact(i))`` for the earliest candidate whose N-row score
    ``exact(i)`` is finite and within ``rtol`` of the lowest finite one, or
    None if no score is finite.

    Only candidates whose ``moment_mse`` interval could reach the rule's
    cutoff are scored: i is dropped when m_i - delta_i > min(m + delta) *
    (1 + rtol), for its score then exceeds the cutoff.  Every candidate is
    scored, as without the screen, when a moment score or bound is not
    finite or no kept candidate's score is.  A candidate bitwise equal to
    one already scored takes its score without a call to ``exact``.
    """
    m, delta = moment_mse(bases, fit, score)
    keep = range(len(m))
    if np.all(np.isfinite(m) & np.isfinite(delta)):
        keep = np.flatnonzero(m - delta <= np.min(m + delta) * (1.0 + rtol))
    scores = {}  # a basis's bytes -> its score

    def exact_once(i: int) -> float:
        key = bases[i].tobytes()
        if key not in scores:
            scores[key] = exact(i)
        return scores[key]
    scored = [(s, i) for i in keep if math.isfinite(s := exact_once(i))]
    if not scored:
        scored = [(s, i) for i in sorted(set(range(len(m))) - set(keep))
                  if math.isfinite(s := exact_once(i))]
    if not scored:
        return None
    cutoff = min(s for s, _ in scored) * (1.0 + rtol)
    return next((int(i), s) for s, i in scored if s <= cutoff)
