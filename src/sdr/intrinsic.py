"""Methods whose objective embeds the response directly: partial least
squares and covariance-maximizing projection (Barshan), each balanced by a
variance term, least-squares PCA on the Stiefel manifold, and the supervised
probabilistic latent-factor model fitted by EM.

All fits expect centered data.  gamma = 0 is the fully supervised end of the
balanced objectives; gamma = math.inf reproduces classic PCA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, FittedReducer, SppcaState, reduce
from .linalg import (DegenerateDirectionError, fix_signs, orthonormalize,
                     stiefel_step, sym_eig_topk)

_W_TOL = 1e-13  # relative threshold under which X^T y counts as zero


def _pca_basis(cov: np.ndarray, k: int) -> np.ndarray:
    return sym_eig_topk(cov, k).vectors


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if math.isnan(gamma) or gamma < 0:
        raise ValueError(f"gamma must be >= 0 or math.inf, got {gamma}")
    return gamma


def _supervised_direction(xk: np.ndarray, yk: np.ndarray, iteration: int) -> np.ndarray:
    """Unit top eigenvector of X^T y y^T X, i.e. the normalized X^T y."""
    w = xk.T @ yk
    scale = np.linalg.norm(xk) * np.linalg.norm(yk)
    norm = np.linalg.norm(w)
    if norm <= _W_TOL * max(scale, 1e-300):
        raise DegenerateDirectionError(iteration, f"X^T y vanishes at iteration {iteration}")
    return fix_signs((w / norm)[:, None])[:, 0]


def _is_isotropic(cov: np.ndarray, rtol: float = 1e-9) -> bool:
    """True when X^T X is a multiple of the identity (whitened data)."""
    p = cov.shape[0]
    c = float(np.trace(cov)) / p
    return bool(np.linalg.norm(cov - c * np.eye(p)) <= rtol * max(abs(c), 1e-300) * math.sqrt(p))


def _rank1_completed_basis(w: np.ndarray, cov: np.ndarray, k: int) -> np.ndarray:
    """Deterministic basis for a rank-1 supervised eigenproblem.

    First direction is the normalized w; the remainder are the leading
    eigendirections of the covariance projected onto w's orthogonal
    complement.  This matches the gamma -> 0+ limit of the balanced
    eigenproblem and gives every degenerate caller the same completion.
    """
    u1 = fix_signs((w / np.linalg.norm(w))[:, None])
    if k == 1:
        return u1
    p = cov.shape[0]
    proj = np.eye(p) - u1 @ u1.T
    rest = sym_eig_topk(proj @ cov @ proj, k - 1).vectors
    rest -= u1 @ (u1.T @ rest)  # tighten orthogonality to u1
    return np.hstack([u1, orthonormalize(rest)])


def _deflate(xk: np.ndarray, yk: np.ndarray, u: np.ndarray,
             iteration: int) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the parts of X and y explained along direction u."""
    z = xk @ u
    z_sq = float(z @ z)
    if z_sq <= 0.0:
        raise DegenerateDirectionError(iteration, f"zero score vector at iteration {iteration}")
    x_next = xk - np.outer(z, u)
    y_next = yk - (float(yk @ z) / z_sq) * z
    return x_next, y_next


def fit_pls_extended(data: Dataset, k: int, gamma: float) -> FittedReducer:
    """Iterative PLS directions with X and y deflation, balanced by a
    variance term.

    Each direction is the top eigenvector of X^T (y y^T + gamma I) X; X is
    deflated by the score outer product and y by its projection onto the
    score.  gamma = 0 is classic PLS: the direction solves
    max_(|u|=1) ((X u)^T y)^2, whose closed form is the normalized X^T y.
    """
    gamma = _check_gamma(gamma)
    x, y = data.X, data.y
    if k > data.p:
        raise ValueError(f"K={k} exceeds P={data.p}")
    xk, yk = x.copy(), y.copy()
    cols = []
    for it in range(1, k + 1):
        if gamma == 0.0:
            u = _supervised_direction(xk, yk, it)
        else:
            cov = xk.T @ xk
            if math.isinf(gamma):
                m = cov
            else:
                w = xk.T @ yk
                m = np.outer(w, w) + gamma * cov
            pairs = sym_eig_topk(m, 1)
            if pairs.values[0] <= 0.0:
                raise DegenerateDirectionError(it, f"deflated data vanished at iteration {it}")
            u = pairs.vectors[:, 0]
        cols.append(u)
        xk, yk = _deflate(xk, yk, u, it)
    return FittedReducer("pls", k, basis=np.column_stack(cols),
                         hyperparams={"gamma": gamma})


def fit_barshan_extended(data: Dataset, k: int, gamma: float) -> FittedReducer:
    """Top-K eigenvectors of X^T (y y^T + gamma I) X.

    gamma = 0 is the rank-1 problem X^T y y^T X: for K > 1 the trailing
    directions are completed deterministically with the leading variance
    directions orthogonal to the first (flagged in hyperparams).
    gamma = inf is the classic PCA basis.  On whitened data (X^T X = I) the
    trailing eigenvalues all tie, so the same deterministic completion is
    applied to keep the learned subspace reproducible.
    """
    gamma = _check_gamma(gamma)
    x, y = data.X, data.y
    if k > data.p:
        raise ValueError(f"K={k} exceeds P={data.p}")
    cov = x.T @ x
    hyper = {"gamma": gamma}
    if math.isinf(gamma):
        basis = _pca_basis(cov, k)
    else:
        w = x.T @ y
        if gamma == 0.0:
            scale = np.linalg.norm(x) * np.linalg.norm(y)
            if np.linalg.norm(w) <= _W_TOL * max(scale, 1e-300):
                raise DegenerateDirectionError(1, "X^T y vanishes")
        if gamma == 0.0 or (_is_isotropic(cov) and np.linalg.norm(w) > 0):
            basis = _rank1_completed_basis(w, cov, k)
            hyper["degenerate_completion"] = k > 1
        else:
            basis = sym_eig_topk(np.outer(w, w) + gamma * cov, k).vectors
    return FittedReducer("barshan", k, basis=basis, hyperparams=hyper)


# ---------------------------------------------------------------------------
# Least-squares PCA
# ---------------------------------------------------------------------------

@dataclass
class LspcaOptions:
    max_iters: int = 500
    tol: float = 1e-9          # relative objective decrease for convergence
    initial_step: float = 1.0
    min_step: float = 1e-20


@dataclass
class LspcaSolution:
    basis: np.ndarray
    beta: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    converged: bool = True
    n_iters: int = 0


def fit_lspca(data: Dataset, k: int, gamma: float,
              opts: LspcaOptions | None = None) -> tuple[FittedReducer, LspcaSolution]:
    """Minimize |y - X U beta|^2 + gamma |X - X U U^T|^2 over orthonormal U.

    Alternates a closed-form beta with one projected-gradient step on U (QR
    retraction), backtracking until the objective decreases; initialized at
    the PCA basis.  gamma = inf short-circuits to PCA.  On whitened data the
    reconstruction term is constant on the manifold and the problem reduces
    to the covariance eigenproblem, which is solved in closed form with the
    shared deterministic completion.
    """
    gamma = _check_gamma(gamma)
    opts = opts or LspcaOptions()
    x, y = data.X, data.y
    n, p = x.shape
    if k > p:
        raise ValueError(f"K={k} exceeds P={p}")
    cov = x.T @ x
    w = x.T @ y
    yy = float(y @ y)
    tr_cov = float(np.trace(cov))

    def beta_for(u: np.ndarray) -> np.ndarray:
        gram = u.T @ cov @ u
        try:
            return np.linalg.solve(gram, u.T @ w)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(gram, u.T @ w, rcond=None)[0]

    def objective(u: np.ndarray, beta: np.ndarray, gam: float) -> float:
        cu = cov @ u
        utcu = u.T @ cu
        supervised = yy - 2.0 * float(beta @ (u.T @ w)) + float(beta @ utcu @ beta)
        reconstruction = tr_cov - float(np.trace(utcu))
        return supervised + gam * reconstruction

    if math.isinf(gamma):
        basis = _pca_basis(cov, k)
        beta = beta_for(basis)
        # limit case: report the unweighted objective terms
        sol = LspcaSolution(basis=basis, beta=beta,
                            objective_trace=[objective(basis, beta, 1.0)])
        return (FittedReducer("lspca", k, basis=basis,
                              hyperparams={"gamma": gamma, "converged": True,
                                           "iterations": 0}), sol)
    if gamma == 0.0:
        raise ValueError("gamma must be positive and finite (or math.inf)")

    if _is_isotropic(cov) and np.linalg.norm(w) > 0:
        # X^T X = c I makes the reconstruction term constant over the
        # manifold; the optimum is any subspace containing w.  Use the shared
        # canonical completion so the result matches the balanced
        # covariance-eigenproblem method exactly.
        basis = _rank1_completed_basis(w, cov, k)
        beta = beta_for(basis)
        sol = LspcaSolution(basis=basis, beta=beta,
                            objective_trace=[objective(basis, beta, gamma)])
        return (FittedReducer("lspca", k, basis=basis,
                              hyperparams={"gamma": gamma, "converged": True,
                                           "iterations": 0,
                                           "degenerate_shortcut": True}), sol)

    u = _pca_basis(cov, k)
    beta = beta_for(u)
    f = objective(u, beta, gamma)
    trace = [f]
    step = opts.initial_step
    converged = False
    it = 0
    for it in range(1, opts.max_iters + 1):
        cu = cov @ u
        grad = 2.0 * np.outer(cu @ beta - w, beta) - 2.0 * gamma * cu
        accepted = False
        while step >= opts.min_step:
            u_new = stiefel_step(u, grad, step)
            beta_new = beta_for(u_new)
            f_new = objective(u_new, beta_new, gamma)
            if f_new < f:
                accepted = True
                break
            step /= 2.0
        if not accepted:
            converged = True  # no descent direction at machine precision
            break
        rel = (f - f_new) / max(1.0, abs(f))
        u, beta, f = u_new, beta_new, f_new
        trace.append(f)
        step *= 2.0
        if rel < opts.tol:
            converged = True
            break
    sol = LspcaSolution(basis=u, beta=beta, objective_trace=trace,
                        converged=converged, n_iters=it)
    return (FittedReducer("lspca", k, basis=u,
                          hyperparams={"gamma": gamma, "converged": converged,
                                       "iterations": it}), sol)


# ---------------------------------------------------------------------------
# Supervised probabilistic PCA
# ---------------------------------------------------------------------------

@dataclass
class SppcaOptions:
    max_iters: int = 1000
    tol: float = 1e-8            # relative log-likelihood change
    variance_floor: float = 1e-12


def _sppca_loglik(x, y, u, v, sx2, sy2) -> float:
    """Marginal Gaussian log-likelihood of stacked (x, y) observations."""
    n, p = x.shape
    k = u.shape[1]
    t = np.concatenate([x, y[:, None]], axis=1)
    wmat = np.concatenate([u, v[None, :]], axis=0)
    psi = np.concatenate([np.full(p, sx2), [sy2]])
    b = np.eye(k) + (wmat.T / psi) @ wmat
    sign, logdet_b = np.linalg.slogdet(b)
    if sign <= 0:  # pragma: no cover - b is I + PSD
        raise np.linalg.LinAlgError("posterior precision not positive definite")
    logdet = float(np.sum(np.log(psi)) + logdet_b)
    g = t / psi
    gw = g @ wmat
    quad = float(np.sum(g * t) - np.sum(gw * np.linalg.solve(b, gw.T).T))
    return -0.5 * (n * ((p + 1) * math.log(2.0 * math.pi) + logdet) + quad)


def fit_sppca(data: Dataset, k: int, opts: SppcaOptions | None = None) -> FittedReducer:
    """EM for the joint latent-factor model x = U z + e_x, y = v^T z + e_y.

    The expected second-moment matrix of the latents includes the posterior
    covariance scaled by the sample count.  The log-likelihood is monitored
    and must be nondecreasing (beyond 1e-8 relative) unless the variance
    floor engaged; convergence is a relative log-likelihood change below tol.
    """
    opts = opts or SppcaOptions()
    x, y = data.X, data.y
    n, p = x.shape
    if k > p:
        raise ValueError(f"K={k} exceeds P={p}")

    # deterministic spectral initialization
    pairs = sym_eig_topk(x.T @ x, min(p, k))
    sample_vars = pairs.values / n
    if p > k:
        total = float(np.trace(x.T @ x)) / n
        sx2 = max((total - float(sample_vars.sum())) / (p - k), 1e-8)
    else:
        sx2 = max(1e-3 * float(sample_vars.mean()), 1e-8)
    load_scale = np.sqrt(np.maximum(sample_vars - sx2, 1e-8))
    u = pairs.vectors * load_scale
    z0 = x @ pairs.vectors
    v0, *_ = np.linalg.lstsq(z0, y, rcond=None)
    v = v0 * load_scale  # convert score-space coefficients to loading scale
    resid = y - z0 @ v0
    sy2 = max(float(resid @ resid) / n, 1e-8)

    eye_k = np.eye(k)
    ll_prev = _sppca_loglik(x, y, u, v, sx2, sy2)
    ll_trace = [ll_prev]
    floored = False
    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iters + 1):
        # E-step: posterior moments of z given (x, y)
        a = eye_k + (u.T @ u) / sx2 + np.outer(v, v) / sy2
        a_inv = np.linalg.inv(a)
        m = (x @ u / sx2 + np.outer(y, v) / sy2) @ a_inv
        s = n * a_inv + m.T @ m

        # M-step
        xtm = x.T @ m
        u = np.linalg.solve(s, xtm.T).T
        v = np.linalg.solve(s, m.T @ y)
        sx2_new = (float(np.sum(x * x)) - float(np.sum(u * xtm))) / (n * p)
        sy2_new = (float(y @ y) - float(v @ (m.T @ y))) / n
        floored_now = sx2_new < opts.variance_floor or sy2_new < opts.variance_floor
        floored = floored or floored_now
        sx2 = max(sx2_new, opts.variance_floor)
        sy2 = max(sy2_new, opts.variance_floor)

        ll = _sppca_loglik(x, y, u, v, sx2, sy2)
        ll_trace.append(ll)
        if ll < ll_prev - 1e-8 * max(1.0, abs(ll_prev)) and not floored_now:
            raise RuntimeError(f"EM log-likelihood decreased at iteration "
                               f"{iterations}: {ll_prev} -> {ll}")
        if abs(ll - ll_prev) < opts.tol * max(1.0, abs(ll_prev)):
            converged = True
            ll_prev = ll
            break
        ll_prev = ll

    state = SppcaState(loadings=u, response_loadings=v,
                       sigma_x=math.sqrt(sx2), sigma_y=math.sqrt(sy2))
    return FittedReducer("sppca", k, sppca_state=state,
                         hyperparams={"iterations": iterations,
                                      "converged": converged,
                                      "variance_floored": floored,
                                      "loglik_trace": ll_trace})


def predict_sppca(reducer: FittedReducer, x_new: np.ndarray,
                  y_mean: float = 0.0) -> np.ndarray:
    """Model-native prediction: posterior latent mean from x, then v^T z."""
    if reducer.method != "sppca":
        raise ValueError(f"expected an sppca reducer, got {reducer.method!r}")
    return reduce(reducer, x_new) @ reducer.sppca_state.response_loadings + y_mean
