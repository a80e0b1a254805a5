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
    shared deterministic completion.  At K = P every basis spans the whole
    space, so the PCA basis is returned without iterating.

    This is the one-gamma call of ``fit_lspca_grid``.
    """
    return fit_lspca_grid(data, k, [gamma], opts)[0]


def fit_lspca_grid(data: Dataset, k: int, gammas,
                   opts: LspcaOptions | None = None
                   ) -> list[tuple[FittedReducer, LspcaSolution]]:
    """LSPCA at every gamma of a grid: ``[(reducer, solution), ...]`` in grid
    order, each as ``fit_lspca`` describes it.

    The fits that iterate share one training split and one PCA start, so
    they run in lock-step: each round takes one trial step for every
    unfinished fit as one stacked evaluation.  Each fit keeps its own step
    size, acceptance, iteration count and stopping test, so its trial points
    are those of the same fit run on its own.
    """
    opts = opts or LspcaOptions()
    p = data.p
    checked = []
    for gamma in gammas:
        gamma = _check_gamma(gamma)
        if k > p:
            raise ValueError(f"K={k} exceeds P={p}")
        if gamma == 0.0:
            raise ValueError("gamma must be positive and finite (or math.inf)")
        checked.append(gamma)
    x, y = data.X, data.y
    cov = x.T @ x
    w = x.T @ y
    yy = float(y @ y)
    tr_cov = float(np.trace(cov))

    def evaluate(u: np.ndarray, gam: np.ndarray):
        """beta, objective and cov @ U for a stack of bases (m, p, k)."""
        cu = cov @ u
        ut = u.swapaxes(-1, -2)
        gram = ut @ cu
        utw = ut @ w
        beta = _solve_stack(gram, utw)
        supervised = (yy - 2.0 * (beta * utw).sum(axis=-1)
                      + (beta * (gram @ beta[..., None])[..., 0]).sum(axis=-1))
        reconstruction = tr_cov - gram.trace(axis1=-2, axis2=-1)
        return beta, supervised + gam * reconstruction, cu

    def closed_form(basis: np.ndarray, gamma: float, objective_gamma: float,
                    **flags) -> tuple[FittedReducer, LspcaSolution]:
        beta, f, _ = evaluate(basis[None], np.array([objective_gamma]))
        return _lspca_result(k, gamma, basis, beta[0], [float(f[0])], True, 0,
                             **flags)

    # X^T X = c I makes the reconstruction term constant over the manifold;
    # the optimum is any subspace containing w.  The shared canonical
    # completion makes the result match the balanced covariance-eigenproblem
    # method exactly.
    isotropic = _is_isotropic(cov) and np.linalg.norm(w) > 0
    start = (_pca_basis(cov, k) if any(math.isinf(g) or not isotropic for g in checked)
             else None)
    results: list = [None] * len(checked)
    slots = []  # grid index of each fit that descends
    for i, gamma in enumerate(checked):
        if math.isinf(gamma):
            # limit case: report the unweighted objective terms
            results[i] = closed_form(start, gamma, 1.0)
        elif isotropic:
            results[i] = closed_form(_rank1_completed_basis(w, cov, k), gamma,
                                     gamma, degenerate_shortcut=True)
        elif k == p:
            # every basis spans the whole space: the objective is constant
            results[i] = closed_form(start, gamma, gamma)
        else:
            slots.append(i)

    if not slots:
        return results

    # Per-fit state of the running fits, position j for grid index slots[j]:
    # the stacked basis, beta and cov @ U, and scalar step size, objective,
    # iteration in progress and trace.  A finished fit leaves the stacks.
    m = len(slots)
    gam = np.array([checked[i] for i in slots])
    u = np.repeat(start[None], m, axis=0)
    beta, f_start, cu = evaluate(u, gam)
    f = f_start.tolist()
    traces = [[v] for v in f]
    step = [float(opts.initial_step)] * m
    n_iters = [1 if opts.max_iters >= 1 else 0] * m
    # a fit whose step falls below min_step has no descent direction at
    # machine precision and counts as converged
    converged = [n > 0 and opts.initial_step < opts.min_step for n in n_iters]
    stop = set(range(m)) if opts.max_iters < 1 or any(converged) else set()
    while True:
        if stop:
            for j in stop:
                results[slots[j]] = _lspca_result(k, checked[slots[j]], u[j], beta[j],
                                                  traces[j], converged[j], n_iters[j])
            keep = [j for j in range(len(slots)) if j not in stop]
            slots, f, traces, step, n_iters, converged = (
                [seq[j] for j in keep]
                for seq in (slots, f, traces, step, n_iters, converged))
            u, beta, cu, gam = (arr[keep] for arr in (u, beta, cu, gam))
            stop = set()
        if not slots:
            return results
        u_trial = stiefel_step(u, _lspca_gradient(cu, beta, w, gam), step)
        beta_trial, f_trial, cu_trial = evaluate(u_trial, gam)
        accepted = []
        for j, f_new in enumerate(f_trial.tolist()):
            accepted.append(f_new < f[j])
            if not accepted[-1]:
                step[j] /= 2.0
                if step[j] < opts.min_step:
                    converged[j] = True
                    stop.add(j)
                continue
            rel = (f[j] - f_new) / max(1.0, abs(f[j]))
            f[j] = f_new
            traces[j].append(f_new)
            step[j] *= 2.0
            if rel < opts.tol:
                converged[j] = True
                stop.add(j)
            elif n_iters[j] >= opts.max_iters:
                stop.add(j)
            else:
                n_iters[j] += 1
        take = np.array(accepted)[:, None, None]
        u = np.where(take, u_trial, u)
        cu = np.where(take, cu_trial, cu)
        beta = np.where(take[:, :, 0], beta_trial, beta)


def _lspca_result(k: int, gamma: float, basis: np.ndarray, beta: np.ndarray,
                  trace: list, converged: bool, n_iters: int,
                  **flags) -> tuple[FittedReducer, LspcaSolution]:
    sol = LspcaSolution(basis=basis, beta=beta, objective_trace=trace,
                        converged=converged, n_iters=n_iters)
    return (FittedReducer("lspca", k, basis=basis,
                          hyperparams={"gamma": gamma, "converged": converged,
                                       "iterations": n_iters, **flags}), sol)


def _lspca_gradient(cu: np.ndarray, beta: np.ndarray, w: np.ndarray,
                    gam: np.ndarray) -> np.ndarray:
    """Ambient gradient of the LSPCA objective in U for a stack of fits."""
    resid = (cu @ beta[..., None])[..., 0] - w
    return 2.0 * resid[..., :, None] * beta[..., None, :] - 2.0 * gam[:, None, None] * cu


def _solve_stack(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram[i] @ x[i] = rhs[i] for stacks (m, k, k) and (m, k); a
    singular slice falls back to least squares on its own.

    The right-hand side goes in as (m, k, 1) because numpy 2.0 changed how
    a ``b`` with ``b.ndim == a.ndim - 1`` is read.
    """
    try:
        return np.linalg.solve(gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    out = []
    for g, r in zip(gram, rhs):
        try:
            out.append(np.linalg.solve(g, r))
        except np.linalg.LinAlgError:
            out.append(np.linalg.lstsq(g, r, rcond=None)[0])
    return np.stack(out)


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
