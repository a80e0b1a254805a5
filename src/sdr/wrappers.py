"""Supervised wrappers around classic PCA: pre-selection (Bair), iterative
selection with deflation (PV), and PC post-selection (PCPS).

All fits expect centered data: column means of X and the mean of y removed.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, FittedReducer, PVStep
from .linalg import DegenerateDirectionError, sym_eig_top1, sym_eig_topk
from .regression import mse, ols_fit

SCORE_KINDS = ("covariance", "pearson")


def _pearson_pair(z: np.ndarray, y: np.ndarray) -> float:
    denom = np.linalg.norm(z) * np.linalg.norm(y)
    if denom == 0.0:
        return 0.0
    return float(abs(z @ y) / denom)


def score_variables(x: np.ndarray, y: np.ndarray,
                    kind: str = "pearson") -> tuple[np.ndarray, np.ndarray]:
    """Per-column association scores and their descending ranking.

    "covariance" scores |<x_j, y>|; "pearson" normalizes by both vector
    norms.  Columns whose norm is negligible at working precision (below
    1e-12 of the largest column) score 0 under "pearson": a ratio of
    round-off residues carries no signal.  Ties rank the lower column index
    first.
    """
    if kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {kind!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inner = np.abs(x.T @ y)
    if kind == "covariance":
        scores = inner
    else:
        norms = np.linalg.norm(x, axis=0)
        live = norms > 1e-12 * norms.max(initial=0.0)
        denom = norms * np.linalg.norm(y)
        scores = np.divide(inner, denom, out=np.zeros_like(inner),
                           where=live & (denom > 0))
    order = np.argsort(-scores, kind="stable")
    return scores, order


def fit_bair(data: Dataset, k: int, score: str = "pearson") -> FittedReducer:
    """Variable pre-selection, then PCA on the selected columns.

    Scans M = K..P top-scoring variables, runs K-component PCA on each column
    submatrix, and keeps the M whose downstream OLS model has the lowest
    training MSE (ties go to smaller M).  The basis is embedded back into P
    dimensions, zero outside the selection, so reduce() stays a plain
    projection.
    """
    x, y = data.X, data.y
    n, p = x.shape
    if k > p:
        raise ValueError(f"K={k} exceeds P={p}")
    _, order = score_variables(x, y, score)
    cov = data.moments.xx  # submatrices are slices of the full covariance
    best_mse = np.inf
    best_m = None
    best_basis = None
    for m in range(k, p + 1):
        idx = order[:m]
        pairs = sym_eig_topk(cov[np.ix_(idx, idx)], k)
        basis = np.zeros((p, k))
        basis[idx] = pairs.vectors
        z = x @ basis
        candidate_mse = mse(ols_fit(z, y).predict(z), y)
        if candidate_mse < best_mse:
            best_mse = candidate_mse
            best_m = m
            best_basis = basis
    return FittedReducer("bair", k, basis=best_basis,
                         hyperparams={"m": best_m, "score": score,
                                      "selection_mse": best_mse})


def fit_pv(data: Dataset, k: int, score: str = "pearson",
           max_m: int | None = None) -> FittedReducer:
    """Iterative selection: per component, pick the variable-count M whose
    submatrix first PC correlates best with y, then deflate all variables.

    The variable ranking uses ``score``; candidate scores z vs y always use
    the Pearson correlation.  y itself is never deflated.
    """
    x, y = data.X, data.y
    n, p = x.shape
    if k > p:
        raise ValueError(f"K={k} exceeds P={p}")
    m_cap = p if max_m is None else min(max_m, p)
    xk = x.copy()
    steps: list[PVStep] = []
    m_chosen = []
    # deflation round-off is proportional to the *original* data scale, so
    # candidates whose score vector falls below it are unusable: their
    # correlations are garbage and their deflation would divide by (near)
    # zero.  The scan skips them.
    dust_sq = (1e-12 ** 2) * max(float(np.sum(x * x)), 1e-300)
    for it in range(1, k + 1):
        _, order = score_variables(xk, y, score)
        cov = xk.T @ xk
        # the candidates' submatrices are the leading blocks of the ordered
        # covariance: one stacked top-eigenvector solve covers them all
        lead = order[:m_cap]
        _, directions = sym_eig_top1(cov[np.ix_(lead, lead)],
                                     sizes=np.arange(1, m_cap + 1))
        best = None  # (pearson score of z vs y, m, indices, direction, z)
        for m in range(1, m_cap + 1):
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
        z_sq = float(z @ z)
        b = xk.T @ z / z_sq
        steps.append(PVStep(indices=idx, direction=direction.copy(),
                            deflation=b))
        m_chosen.append(m)
        xk = xk - np.outer(z, b)
    return FittedReducer("pv", k, pv_state=steps,
                         hyperparams={"score": score, "m_per_component": m_chosen})


def fit_pcps(data: Dataset, k: int, score: str = "pearson") -> FittedReducer:
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
    scores, order = score_variables(z, y, score)
    selected = order[:k]
    return FittedReducer("pcps", k, basis=pairs.vectors[:, selected],
                         hyperparams={"score": score,
                                      "selected_components": selected.tolist(),
                                      "component_scores": scores[selected].tolist()})
