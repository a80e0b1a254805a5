"""Supervised wrappers around classic PCA: pre-selection (Bair), iterative
selection with deflation (PV), and PC post-selection (PCPS).

All fits expect centered data: column means of X and the mean of y removed.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, FittedReducer
from .linalg import DegenerateDirectionError, sym_eig_top1, sym_eig_topk
from .regression import mse, ols_fit, select_candidate


def _pearson_pair(z: np.ndarray, y: np.ndarray) -> float:
    denom = np.linalg.norm(z) * np.linalg.norm(y)
    if denom == 0.0:
        return 0.0
    return float(abs(z @ y) / denom)


def score_variables(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column Pearson scores |<x_j, y>| / (|x_j| |y|) and their
    descending ranking.

    Columns whose norm is negligible at working precision (below 1e-12 of
    the largest column) score 0: a ratio of round-off residues carries no
    signal.  Ties rank the lower column index first.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inner = np.abs(x.T @ y)
    norms = np.linalg.norm(x, axis=0)
    live = norms > 1e-12 * norms.max(initial=0.0)
    denom = norms * np.linalg.norm(y)
    scores = np.divide(inner, denom, out=np.zeros_like(inner),
                       where=live & (denom > 0))
    order = np.argsort(-scores, kind="stable")
    return scores, order


def fit_bair(data: Dataset, k: int) -> FittedReducer:
    """Variable pre-selection, then PCA on the selected columns.

    Scans M = K..P top-scoring variables, runs K-component PCA on each column
    submatrix, and keeps the M whose downstream OLS model has the lowest
    training MSE (ties go to smaller M); ``select_candidate`` fits only the
    Ms its moment screen keeps, each from the split's thin QR.  The basis is
    embedded back into P dimensions, zero outside the selection, so
    reduce() stays a plain projection.
    """
    x, y = data.X, data.y
    n, p = x.shape
    if k > p:
        raise ValueError(f"K={k} exceeds P={p}")
    _, order = score_variables(x, y)
    cov = data.moments.xx  # submatrices are slices of the full covariance
    bases = np.zeros((p - k + 1, p, k))  # M = K..P
    for i, m in enumerate(range(k, p + 1)):
        idx = order[:m]
        bases[i, idx] = sym_eig_topk(cov[np.ix_(idx, idx)], k).vectors

    def train_mse(i: int) -> float:
        return mse(ols_fit(bases[i], data.factor).predict(x @ bases[i]), y)

    chosen = select_candidate(bases, data.moments, data.moments, train_mse, 0.0)
    if chosen is None:
        raise ValueError(f"K={k}: no M gives a finite training MSE")
    i, best_mse = chosen
    return FittedReducer("bair", k, basis=bases[i].copy(),
                         hyperparams={"m": k + i, "score": "pearson",
                                      "selection_mse": best_mse})


def fit_pv(data: Dataset, k: int) -> FittedReducer:
    """Iterative selection: per component, pick the variable-count M whose
    submatrix first PC correlates best with y, then deflate all variables.

    Variables are ranked, and candidate scores z scored against y, by the
    Pearson correlation.  y itself is never deflated.  The deflations
    compose into one P x K map: with the deflated data X M, component i is
    z = X M d_i for the selected direction d_i embedded in P dimensions, so
    W[:, i] = M d_i, and deflating by z b_i^T takes M to M - W[:, i] b_i^T.
    """
    x, y = data.X, data.y
    n, p = x.shape
    if k > p:
        raise ValueError(f"K={k} exceeds P={p}")
    xk = x.copy()
    deflated = np.eye(p)  # M, with xk = X M up to rounding
    basis = np.zeros((p, k))
    m_chosen = []
    # deflation round-off is proportional to the *original* data scale, so
    # candidates whose score vector falls below it are unusable: their
    # correlations are garbage and their deflation would divide by (near)
    # zero.  The scan skips them.
    dust_sq = (1e-12 ** 2) * max(float(np.sum(x * x)), 1e-300)
    for it in range(1, k + 1):
        _, order = score_variables(xk, y)
        cov = xk.T @ xk
        # the candidates' submatrices are the leading blocks of the ordered
        # covariance: one stacked top-eigenvector solve covers them all
        _, directions = sym_eig_top1(cov[np.ix_(order, order)],
                                     sizes=np.arange(1, p + 1))
        best = None  # (pearson score of z vs y, m, indices, direction, z)
        for m in range(1, p + 1):
            idx = order[:m]
            direction = directions[m - 1, :m]
            z = xk[:, idx] @ direction
            if float(z @ z) <= dust_sq:
                continue
            sc = _pearson_pair(z, y)
            if best is None or sc > best[0]:
                best = (sc, m, idx, direction, z)
        if best is None:
            raise DegenerateDirectionError(it, "all candidate score vectors are "
                                               f"zero at iteration {it}")
        _, m, idx, direction, z = best
        b = xk.T @ z / float(z @ z)
        basis[:, it - 1] = deflated[:, idx] @ direction
        deflated -= np.outer(basis[:, it - 1], b)
        m_chosen.append(m)
        xk = xk - np.outer(z, b)
    return FittedReducer("pv", k, basis,
                         hyperparams={"score": "pearson", "m_per_component": m_chosen})


def fit_pcps(data: Dataset, k: int) -> FittedReducer:
    """Full PCA, then keep the K components scoring highest against y.

    Only the min(P, N-1) leading components of centered data carry variance
    and are scored.  Score ties keep the larger-eigenvalue component first;
    the basis is returned in score order.
    """
    x, y = data.X, data.y
    n, p = x.shape
    n_scored = min(p, n - 1)
    if k > n_scored:
        raise ValueError(f"K={k} exceeds the {n_scored} nonzero-variance components")
    pairs = sym_eig_topk(data.moments.xx, n_scored)
    z = x @ pairs.vectors
    scores, order = score_variables(z, y)
    selected = order[:k]
    return FittedReducer("pcps", k, basis=pairs.vectors[:, selected],
                         hyperparams={"score": "pearson",
                                      "selected_components": selected.tolist(),
                                      "component_scores": scores[selected].tolist()})
