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
from itertools import compress

import numpy as np

from .data import Dataset, FittedReducer
from .linalg import (DegenerateDirectionError, fix_signs,
                     orthonormalize, stiefel_step, sym_eig_top1, sym_eig_topk)

_W_TOL = 1e-13  # relative threshold under which X^T y (or a PLS eigenvalue) is zero


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if math.isnan(gamma) or gamma < 0:
        raise ValueError(f"gamma must be >= 0 or math.inf, got {gamma}")
    return gamma


def _supervised_direction(w: np.ndarray, scale: float, iteration: int) -> np.ndarray:
    """Unit top eigenvector of X^T y y^T X, i.e. the normalized w = X^T y;
    w counts as zero below ``_W_TOL`` of ``scale``, the |X| |y| whose
    round-off it carries."""
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


def _deflate(cov: np.ndarray, w: np.ndarray, yy: float, u: np.ndarray,
             iteration: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The moments (X^T X, X^T y, y^T y) after deflating X along direction
    u and y along the score z = X u: X_k+1 = X_k (I - u u^T) and y_k+1 =
    y_k - (y_k^T z / z^T z) z, in O(P^2) from the moments alone."""
    cu = cov @ u
    z_sq = float(u @ cu)
    if z_sq <= 0.0:
        raise DegenerateDirectionError(iteration, f"zero score vector at iteration {iteration}")
    zy = float(u @ w)
    # (I - u u^T) C (I - u u^T) = C - (d u^T + u d^T), d = C u - (z^T z / 2) u,
    # summed with its transpose so that the result is exactly symmetric
    d_u = np.outer(cu - 0.5 * z_sq * u, u)
    return cov - (d_u + d_u.T), w - (zy / z_sq) * cu, yy - zy * zy / z_sq


def fit_pls_extended(data: Dataset, k: int, gamma: float) -> FittedReducer:
    """Iterative PLS directions with X and y deflation, balanced by a
    variance term.

    Each direction is the top eigenvector of X^T (y y^T + gamma I) X; X is
    deflated by the score outer product and y by its projection onto the
    score.  gamma = 0 is classic PLS: the direction solves
    max_(|u|=1) ((X u)^T y)^2, whose closed form is the normalized X^T y.

    This is the one-gamma call of ``fit_pls_grid``.
    """
    return fit_pls_grid(data, k, [gamma])[0]


def fit_pls_grid(data: Dataset, k: int, gammas) -> list[FittedReducer]:
    """Extended PLS at every gamma of a grid, in grid order, each as
    ``fit_pls_extended`` describes it.

    Every fit starts from the split's shared moments and deflates its own
    copy of them (kernel PLS: Lindgren, Geladi & Wold, J. Chemometrics
    1993; Dayal & MacGregor, J. Chemometrics 1997), so no step touches the
    N rows.  The fits advance one component per round: every gamma > 0
    still running contributes its matrix w w^T + gamma X_k^T X_k (X_k^T X_k
    at gamma = inf) to one ``sym_eig_top1`` stack.  Each fit keeps its own
    degeneracy checks; if any fit raises, the error of the first gamma in
    grid order that raises is raised, as a loop over the grid would.
    """
    errors: dict[int, Exception] = {}  # grid index -> the error it raised
    checked = []
    for i, gamma in enumerate(gammas):
        try:
            gamma = _check_gamma(gamma)
            if k > data.p:
                raise ValueError(f"K={k} exceeds P={data.p}")
        except ValueError as exc:
            # the gammas after the first failing one cannot change the outcome
            errors[i] = exc
            break
        checked.append(gamma)
    mom = data.moments
    # the deflated moments carry round-off of the undeflated scale: below
    # _W_TOL of it, X^T y (scale |X| |y|) and X^T X (trace |X|^2) count as zero
    tr_cov = float(np.trace(mom.xx))
    scale = math.sqrt(tr_cov * mom.yy)
    state = [(mom.xx, mom.xy, mom.yy)] * len(checked)
    live = list(range(len(checked)))
    cols: list[list] = [[] for _ in checked]
    for it in range(1, k + 1):
        stacked = [i for i in live if checked[i] > 0.0]
        if stacked:
            values, vectors = sym_eig_top1(np.array([
                cov if math.isinf(g) else np.outer(w, w) + g * cov
                for g, (cov, w, _) in ((checked[i], state[i]) for i in stacked)]))
        top = {i: j for j, i in enumerate(stacked)}
        for i in live:
            try:
                if i in top:
                    weight = 1.0 if math.isinf(checked[i]) else checked[i]
                    if values[top[i]] <= _W_TOL * weight * tr_cov:
                        raise DegenerateDirectionError(
                            it, f"deflated data vanished at iteration {it}")
                    u = vectors[top[i]]
                else:
                    u = _supervised_direction(state[i][1], scale, it)
                cols[i].append(u)
                state[i] = _deflate(*state[i], u, it)
            except DegenerateDirectionError as exc:
                errors[i] = exc
                break
        live = [i for i in live if i < min(errors, default=len(checked))]
    if errors:
        raise errors[min(errors)]
    return [FittedReducer("pls", k, basis=np.column_stack(cols[i]),
                          hyperparams={"gamma": gamma})
            for i, gamma in enumerate(checked)]


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
    if k > data.p:
        raise ValueError(f"K={k} exceeds P={data.p}")
    cov, w, yy, _ = data.moments
    hyper = {"gamma": gamma}
    if math.isinf(gamma):
        basis = sym_eig_topk(cov, k).vectors
    else:
        if gamma == 0.0:
            scale = math.sqrt(float(np.trace(cov)) * yy)
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

#: An LSPCA descent starts at step size LSPCA_INITIAL_STEP, doubled after an
#: accepted step and halved after a rejected one.  It stops converged once a
#: step lowers the objective by less than LSPCA_TOL relative, or once the
#: step falls below LSPCA_MIN_STEP (no descent direction at machine
#: precision); it stops unconverged when its LSPCA_MAX_ITERS-th step is taken.
LSPCA_MAX_ITERS = 500
LSPCA_TOL = 1e-9
LSPCA_INITIAL_STEP = 1.0
LSPCA_MIN_STEP = 1e-20


@dataclass
class LspcaSolution:
    basis: np.ndarray
    beta: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    converged: bool = True
    n_iters: int = 0


def fit_lspca(data: Dataset, k: int, gamma: float) -> tuple[FittedReducer, LspcaSolution]:
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
    return fit_lspca_grid(data, k, [gamma])[0]


def fit_lspca_grid(data: Dataset, k: int, gammas
                   ) -> list[tuple[FittedReducer, LspcaSolution]]:
    """LSPCA at every gamma of a grid: ``[(reducer, solution), ...]`` in grid
    order, each as ``fit_lspca`` describes it.

    The fits that iterate share one training split and one PCA start, so
    they run in lock-step: each round takes one trial step for every
    unfinished fit as one stacked evaluation.  Each fit keeps its own step
    size, acceptance, iteration count and stopping test, so its trial points
    are those of the same fit run on its own.
    """
    p = data.p
    checked = []
    for gamma in gammas:
        gamma = _check_gamma(gamma)
        if k > p:
            raise ValueError(f"K={k} exceeds P={p}")
        if gamma == 0.0:
            raise ValueError("gamma must be positive and finite (or math.inf)")
        checked.append(gamma)
    cov, w, yy, _ = data.moments
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

    results: list = [None] * len(checked)

    def record(i: int, basis: np.ndarray, beta: np.ndarray, trace: list,
               converged: bool, n_iters: int, **flags) -> None:
        """Enter grid point i's fit as its (reducer, solution) result."""
        hyper = {"gamma": checked[i], "converged": converged,
                 "iterations": n_iters, **flags}
        results[i] = (FittedReducer("lspca", k, basis, hyper),
                      LspcaSolution(basis, beta, trace, converged, n_iters))

    def closed_form(i: int, basis: np.ndarray, objective_gamma: float, **flags):
        beta, f, _ = evaluate(basis[None], np.array([objective_gamma]))
        record(i, basis, beta[0], [float(f[0])], True, 0, **flags)

    # X^T X = c I makes the reconstruction term constant over the manifold;
    # the optimum is any subspace containing w.  The shared canonical
    # completion makes the result match the balanced covariance-eigenproblem
    # method exactly.
    isotropic = _is_isotropic(cov) and np.linalg.norm(w) > 0
    start = sym_eig_topk(cov, k).vectors if checked else None
    slots = []  # grid index of each fit that descends
    for i, gamma in enumerate(checked):
        if math.isinf(gamma):
            # limit case: report the unweighted objective terms
            closed_form(i, start, 1.0)
        elif isotropic:
            closed_form(i, _rank1_completed_basis(w, cov, k), gamma,
                        degenerate_shortcut=True)
        elif k == p:
            # every basis spans the whole space: the objective is constant
            closed_form(i, start, gamma)
        else:
            slots.append(i)

    if not slots:
        return results

    # The running fits' state, one row per fit: grid index, gamma, step
    # size, objective, the iteration of the next step, and the basis, beta
    # and cov @ U stacks.  One keep mask drops the rows of the fits that stop.
    slot = np.array(slots)
    gam = np.array([checked[i] for i in slots])
    u = np.repeat(start[None], len(slots), axis=0)
    beta, f, cu = evaluate(u, gam)
    traces = {i: [v] for i, v in zip(slots, f.tolist())}
    step = np.full(len(slots), LSPCA_INITIAL_STEP)
    n_iters = np.ones(len(slots), dtype=int)
    while slot.size:
        # the ambient gradient of the objective in U
        resid = (cu @ beta[..., None])[..., 0] - w
        grad = 2.0 * (resid[..., :, None] * beta[..., None, :] - gam[:, None, None] * cu)
        u_new = stiefel_step(u, grad, step)
        beta_new, f_new, cu_new = evaluate(u_new, gam)
        took = f_new < f
        rel = (f - f_new) / np.maximum(1.0, np.abs(f))
        back = np.flatnonzero(~took)  # these fits keep their current row
        if back.size:
            for new, old in ((u_new, u), (beta_new, beta), (cu_new, cu)):
                new[back] = old[back]
        u, beta, cu, f = u_new, beta_new, cu_new, np.where(took, f_new, f)
        for i, v in compress(zip(slot.tolist(), f.tolist()), took.tolist()):
            traces[i].append(v)
        step *= np.where(took, 2.0, 0.5)
        n_iters += took  # n_iters - took: the iteration each fit just ran
        converged = np.where(took, rel < LSPCA_TOL, step < LSPCA_MIN_STEP)
        stop = converged | (n_iters > LSPCA_MAX_ITERS)
        if stop.any():
            for j, i in zip(np.flatnonzero(stop), slot[stop].tolist()):
                record(i, u[j], beta[j], traces[i], bool(converged[j]),
                       int(n_iters[j] - took[j]))
            keep = ~stop
            slot, gam, step, f, n_iters, u, beta, cu = (
                a[keep] for a in (slot, gam, step, f, n_iters, u, beta, cu))
    return results


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

#: SPPCA's EM stops after SPPCA_MAX_ITERS steps, or once the log-likelihood
#: moves by less than SPPCA_TOL relative; both noise variances are floored
#: at SPPCA_VARIANCE_FLOOR.
SPPCA_MAX_ITERS = 1000
SPPCA_TOL = 1e-8
SPPCA_VARIANCE_FLOOR = 1e-12


def _sppca_loglik(c, n, u, v, sx2, sy2) -> float:
    """Marginal Gaussian log-likelihood of n observations t = [x, y] whose
    scatter matrix T^T T is c."""
    p, k = c.shape[0] - 1, u.shape[1]
    wmat = np.concatenate([u, v[None, :]], axis=0)
    psi = np.concatenate([np.full(p, sx2), [sy2]])
    d = wmat / psi[:, None]
    b = np.eye(k) + d.T @ wmat
    sign, logdet_b = np.linalg.slogdet(b)
    if sign <= 0:  # pragma: no cover - b is I + PSD
        raise np.linalg.LinAlgError("posterior precision not positive definite")
    logdet = float(np.sum(np.log(psi)) + logdet_b)
    # sum_i t_i^T (Psi + W W^T)^-1 t_i, by the Woodbury identity
    quad = float(np.sum(np.diag(c) / psi) - np.trace(np.linalg.solve(b, d.T @ c @ d)))
    return -0.5 * (n * ((p + 1) * math.log(2.0 * math.pi) + logdet) + quad)


@dataclass(frozen=True)
class SppcaState:
    """Latent-factor model parameters {U, v, sigma_x, sigma_y}."""

    loadings: np.ndarray           # P x K, not necessarily orthogonal
    response_loadings: np.ndarray  # K
    sigma_x: float
    sigma_y: float

    def __post_init__(self):
        if self.sigma_x < 0 or self.sigma_y < 0:
            raise ValueError("noise scales must be nonnegative")
        if not (np.all(np.isfinite(self.loadings))
                and np.all(np.isfinite(self.response_loadings))):
            raise ValueError("non-finite SPPCA parameters")

    def posterior_map(self) -> np.ndarray:
        """The P x K map W = U (U^T U + sigma_x^2 I)^-1 taking a centered x
        to the posterior mean of its latents given x alone."""
        u = self.loadings
        gram = u.T @ u + self.sigma_x ** 2 * np.eye(u.shape[1])
        return np.linalg.solve(gram, u.T).T.copy()


def fit_sppca(data: Dataset, k: int) -> FittedReducer:
    """SPPCA's reducer: the posterior-mean map of ``fit_sppca_model``'s
    fitted parameters, with its EM record as hyperparams."""
    state, hyper = fit_sppca_model(data, k)
    return FittedReducer("sppca", k, state.posterior_map(), hyper)


def fit_sppca_model(data: Dataset, k: int) -> tuple[SppcaState, dict]:
    """EM for the joint latent-factor model x = U z + e_x, y = v^T z + e_y:
    the fitted parameters and the EM record (iterations, convergence,
    variance flooring and the log-likelihood trace).

    The expected second-moment matrix of the latents includes the posterior
    covariance scaled by the sample count.  The log-likelihood is monitored
    and must be nondecreasing (beyond 1e-8 relative) unless the variance
    floor engaged; convergence is a relative change below SPPCA_TOL.
    A stop at a step that floored a variance is a stop on round-off and is
    reported as not converged.
    The start, the EM steps and the log-likelihood read only the moments
    T^T T of T = [X y] (Tipping & Bishop, JRSS-B 1999).
    """
    mom = data.moments
    n, p = mom.n, data.p
    if k > p:
        raise ValueError(f"K={k} exceeds P={p}")
    c = np.block([[mom.xx, mom.xy[:, None]], [mom.xy[None, :], mom.yy]])

    # deterministic spectral initialization
    pairs = sym_eig_topk(mom.xx, min(p, k))
    sample_vars = pairs.values / n
    xx = float(np.trace(mom.xx))
    if p > k:
        sx2 = max((xx / n - float(sample_vars.sum())) / (p - k), 1e-8)
    else:
        sx2 = max(1e-3 * float(sample_vars.mean()), 1e-8)
    load_scale = np.sqrt(np.maximum(sample_vars - sx2, 1e-8))
    u = pairs.vectors * load_scale
    # least squares of y on the scores z0 = X V: z0^T z0 and z0^T y are k x k
    zy = pairs.vectors.T @ mom.xy
    v0, *_ = np.linalg.lstsq(pairs.vectors.T @ mom.xx @ pairs.vectors, zy, rcond=None)
    v = v0 * load_scale  # convert score-space coefficients to loading scale
    sy2 = max((mom.yy - float(v0 @ zy)) / n, 1e-8)

    eye_k = np.eye(k)
    ll_prev = _sppca_loglik(c, n, u, v, sx2, sy2)
    ll_trace = [ll_prev]
    floored = floored_now = converged = False
    iterations = 0
    for iterations in range(1, SPPCA_MAX_ITERS + 1):
        # E-step: posterior moments of z given (x, y), M = T B
        a = eye_k + (u.T @ u) / sx2 + np.outer(v, v) / sy2
        a_inv = np.linalg.inv(a)
        bmat = np.concatenate([u / sx2, v[None, :] / sy2]) @ a_inv
        tm = c @ bmat  # T^T M: X^T M above M^T y
        s = n * a_inv + bmat.T @ tm

        # M-step
        xtm, mty = tm[:p], tm[p]
        u = np.linalg.solve(s, xtm.T).T
        v = np.linalg.solve(s, mty)
        sx2_new = (xx - float(np.sum(u * xtm))) / (n * p)
        sy2_new = (mom.yy - float(v @ mty)) / n
        floored_now = (sx2_new < SPPCA_VARIANCE_FLOOR
                       or sy2_new < SPPCA_VARIANCE_FLOOR)
        floored = floored or floored_now
        sx2 = max(sx2_new, SPPCA_VARIANCE_FLOOR)
        sy2 = max(sy2_new, SPPCA_VARIANCE_FLOOR)

        ll = _sppca_loglik(c, n, u, v, sx2, sy2)
        ll_trace.append(ll)
        if ll < ll_prev - 1e-8 * max(1.0, abs(ll_prev)) and not floored_now:
            raise RuntimeError(f"EM log-likelihood decreased at iteration "
                               f"{iterations}: {ll_prev} -> {ll}")
        converged = abs(ll - ll_prev) < SPPCA_TOL * max(1.0, abs(ll_prev))
        ll_prev = ll
        if converged:
            break

    state = SppcaState(loadings=u, response_loadings=v,
                       sigma_x=math.sqrt(sx2), sigma_y=math.sqrt(sy2))
    return state, {"iterations": iterations,
                   "converged": converged and not floored_now,
                   "variance_floored": floored, "loglik_trace": ll_trace}


def predict_sppca(state: SppcaState, x_new: np.ndarray) -> np.ndarray:
    """Model-native prediction: v^T z for z the posterior mean of centered x."""
    z = np.asarray(x_new, dtype=float) @ state.posterior_map()
    return z @ state.response_loadings
