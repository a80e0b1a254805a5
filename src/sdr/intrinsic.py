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


def _is_isotropic(cov: np.ndarray) -> bool:
    """True when X^T X is a multiple c I of the identity (whitened data), to
    1e-9 of |c I|."""
    p = cov.shape[0]
    c = float(np.trace(cov)) / p
    return bool(np.linalg.norm(cov - c * np.eye(p)) <= 1e-9 * max(abs(c), 1e-300) * math.sqrt(p))


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
    projected = proj @ cov @ proj
    # the dense eigensolve reads the lower triangle; mirroring it keeps every
    # eigenpair's bits and passes the symmetry check at any data scale
    upper = np.triu_indices(p, 1)
    projected[upper] = projected.T[upper]
    rest = sym_eig_topk(projected, k - 1).vectors
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
    contributes its matrix w w^T + gamma X_k^T X_k (X_k^T X_k at gamma =
    inf) to one ``sym_eig_top1`` stack.  Every gamma and K is checked before
    any fit.  Each fit keeps its own degeneracy checks, and the first
    component at which any fails raises the error of the earliest such
    gamma in grid order: a failure at component j is the same at any K >= j.
    """
    checked = [_check_gamma(gamma) for gamma in gammas]
    if k > data.p:
        raise ValueError(f"K={k} exceeds P={data.p}")
    mom = data.moments
    # the deflated moments carry round-off of the undeflated scale: below
    # _W_TOL of it, X^T y (scale |X| |y|) and X^T X (trace |X|^2) count as zero
    tr_cov = float(np.trace(mom.xx))
    scale = math.sqrt(tr_cov * mom.yy)
    state = [(mom.xx, mom.xy, mom.yy)] * len(checked)
    cols: list[list] = [[] for _ in checked]
    stacked = [i for i, gamma in enumerate(checked) if gamma > 0.0]
    for it in range(1, k + 1):
        if stacked:  # the top eigenpairs of the gammas > 0, in grid order
            pairs = iter(zip(*sym_eig_top1(np.array([
                cov if math.isinf(g) else np.outer(w, w) + g * cov
                for g, (cov, w, _) in ((checked[i], state[i]) for i in stacked)]))))
        for i, gamma in enumerate(checked):
            if gamma > 0.0:
                value, u = next(pairs)
                weight = 1.0 if math.isinf(gamma) else gamma
                if value <= _W_TOL * weight * tr_cov:
                    raise DegenerateDirectionError(
                        it, f"deflated data vanished at iteration {it}")
            else:
                u = _supervised_direction(state[i][1], scale, it)
            cols[i].append(u)
            state[i] = _deflate(*state[i], u, it)
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

    This is the one-(K, gamma) call of ``fit_barshan_sweep``.
    """
    fits = fit_barshan_sweep(data, [k], [gamma])[k]
    if isinstance(fits, Exception):
        raise fits
    return fits[0]


def fit_barshan_sweep(data: Dataset, ks, gammas) -> dict:
    """Barshan at every K of ``ks`` and gamma of a grid: ``{k: [reducer per
    gamma]}``, each as ``fit_barshan_extended`` describes it, or at a K the
    error its first failing gamma raises there.

    A K's basis at gamma > 0 is the first K columns of one eigensolve per
    gamma at the sweep's largest K, bit for bit the eigensolve at K (the
    columns are sign-fixed one by one); the rank-1 completion (gamma = 0,
    and every finite gamma on whitened data) runs once per K.
    """
    cov, w, yy, _ = data.moments
    top = max((k for k in ks if k <= data.p), default=1)
    isotropic = _is_isotropic(cov) and np.linalg.norm(w) > 0
    vectors, completed = {}, {}  # gamma -> eigenvectors; K -> completion

    def fit(k: int, gamma: float) -> FittedReducer:
        gamma = _check_gamma(gamma)
        if k > data.p:
            raise ValueError(f"K={k} exceeds P={data.p}")
        hyper = {"gamma": gamma}
        if gamma == 0.0:  # raises where X^T y vanishes, as PLS does
            _supervised_direction(w, math.sqrt(float(np.trace(cov)) * yy), 1)
        if gamma == 0.0 or (isotropic and not math.isinf(gamma)):
            if k not in completed:
                completed[k] = _rank1_completed_basis(w, cov, k)
            basis = completed[k].copy()
            hyper["degenerate_completion"] = k > 1
        else:
            if gamma not in vectors:
                vectors[gamma] = sym_eig_topk(
                    cov if math.isinf(gamma) else np.outer(w, w) + gamma * cov,
                    top).vectors
            basis = vectors[gamma][:, :k].copy(order="K")
        return FittedReducer("barshan", k, basis=basis, hyperparams=hyper)

    out = {}
    for k in ks:
        try:
            out[k] = [fit(k, gamma) for gamma in gammas]
        except Exception as exc:
            out[k] = exc
    return out


# ---------------------------------------------------------------------------
# Least-squares PCA
# ---------------------------------------------------------------------------

#: An LSPCA fit stops converged once a step lowers the objective by less than
#: LSPCA_TOL relative, and unconverged when its LSPCA_MAX_ITERS-th step is
#: taken.  A first-order descent starts at step size LSPCA_INITIAL_STEP,
#: doubled after an accepted step and halved after a rejected one, and also
#: stops converged once the step falls below LSPCA_MIN_STEP (no descent
#: direction at machine precision).
LSPCA_MAX_ITERS = 500
LSPCA_TOL = 1e-9
LSPCA_INITIAL_STEP = 1.0
LSPCA_MIN_STEP = 1e-20
#: A K whose Grassmann manifold has dimension d = (P - K) K of at most
#: LSPCA_NEWTON_DIM takes damped Newton steps through the Hessian's
#: Kronecker structure, at (P - K)^3 + K^3 per fit and round; a larger one
#: takes the first-order descent.  The cap puts every K of a P <= 20 sweep
#: (largest d: 100) on the Newton path, and leaves every synthetic fit (P =
#: 100, K = 15: d = 1,275) on the descent, whose reports the benchmark's
#: reference values were recorded from.
LSPCA_NEWTON_DIM = 100


@dataclass
class LspcaSolution:
    basis: np.ndarray
    beta: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    converged: bool = True
    n_iters: int = 0


def fit_lspca(data: Dataset, k: int, gamma: float) -> tuple[FittedReducer, LspcaSolution]:
    """Minimize |y - X U beta|^2 + gamma |X - X U U^T|^2 over orthonormal U.

    beta is the least-squares coefficient of X U, so the objective depends
    only on the span of U, a point of the Grassmann manifold of dimension
    d = (P - K) K.  Where d <= LSPCA_NEWTON_DIM the fit takes damped
    Riemannian Newton steps from two starts, the PCA basis and the rank-1
    closed form, and keeps the one that ends lower.  Otherwise it alternates
    the closed-form beta with one projected-gradient step on U (QR
    retraction), backtracking until the objective decreases, from the PCA
    basis.  gamma = inf short-circuits to PCA.  On whitened data the
    reconstruction term is constant on the manifold and the problem reduces
    to the covariance eigenproblem, which is solved in closed form with the
    shared deterministic completion.  At K = P every basis spans the whole
    space, so the PCA basis is returned without iterating.

    This is the one-(K, gamma) call of ``fit_lspca_sweep``.
    """
    return fit_lspca_sweep(data, [k], [gamma])[k][0]


def fit_lspca_sweep(data: Dataset, ks, gammas
                    ) -> dict[int, list[tuple[FittedReducer, LspcaSolution]]]:
    """LSPCA at every K of ``ks`` and gamma of a grid: ``{k: [(reducer,
    solution), ...]}``, each list in grid order and each fit as
    ``fit_lspca`` describes it.

    Every fit that iterates starts at the first K columns of one PCA
    eigensolve, and the iterating fits of each K run in one lock-step loop
    over its grid: each round takes one trial step for every unfinished
    fit as one stacked (fits, P, K) evaluation, and each fit keeps its own
    step size or damping, acceptance, iteration count and stopping test.
    So a fit inside a sweep is the one-K fit bit for bit.  A K with (P - K)
    K <= ``LSPCA_NEWTON_DIM`` takes Newton steps (``newton`` below), each
    fit also from the rank-1 closed form, and records the start it keeps as
    hyperparam ``start`` ("pca" or "closed_form"); the other Ks take the
    first-order descent (``descend``).
    """
    p = data.p
    ks = list(ks)
    checked = [_check_gamma(gamma) for gamma in gammas]
    too_large = [k for k in ks if k > p]
    if too_large:
        raise ValueError(f"K={too_large[0]} exceeds P={p}")
    if 0.0 in checked:
        raise ValueError("gamma must be positive and finite (or math.inf)")
    cov, w, yy, _ = data.moments
    tr_cov = float(np.trace(cov))
    results = {k: [None] * len(checked) for k in ks}
    if not (checked and results):
        return results

    def evaluate(u: np.ndarray, gam: np.ndarray):
        """beta, objective and cov @ U for a stack of bases (m, P, K)."""
        cu = cov @ u
        ut = u.swapaxes(-1, -2)
        gram = ut @ cu
        utw = ut @ w
        beta = _solve_stack(gram, utw)
        supervised = (yy - 2.0 * (beta * utw).sum(axis=-1)
                      + (beta * (gram @ beta[..., None])[..., 0]).sum(axis=-1))
        reconstruction = tr_cov - gram.trace(axis1=-2, axis2=-1)
        return beta, supervised + gam * reconstruction, cu

    def record(k: int, i: int, basis: np.ndarray, beta: np.ndarray,
               trace: list, converged: bool, n_iters: int, **flags) -> None:
        """Enter the (K, grid point i) fit as its (reducer, solution)."""
        hyper = {"gamma": checked[i], "converged": converged,
                 "iterations": n_iters, **flags}
        results[k][i] = (FittedReducer("lspca", k, basis, hyper),
                         LspcaSolution(basis, beta, trace, converged, n_iters))

    def closed_form(k: int, i: int, basis: np.ndarray, objective_gamma: float,
                    **flags):
        beta, f, _ = evaluate(basis[None], np.array([objective_gamma]))
        record(k, i, basis, beta[0], [float(f[0])], True, 0, **flags)

    # X^T X = c I makes the reconstruction term constant over the manifold;
    # the optimum is any subspace containing w.  The shared canonical
    # completion makes the result match the balanced covariance-eigenproblem
    # method exactly.
    isotropic = _is_isotropic(cov) and np.linalg.norm(w) > 0
    start = sym_eig_topk(cov, max(results)).vectors
    grids: dict[int, list] = {}  # K -> the grid indices that iterate
    for k in results:
        pca = start[:, :k].copy(order="K")
        completed = None
        for i, gamma in enumerate(checked):
            if math.isinf(gamma):
                # limit case: report the unweighted objective terms
                closed_form(k, i, pca, 1.0)
            elif isotropic:
                if completed is None:
                    completed = _rank1_completed_basis(w, cov, k)
                closed_form(k, i, completed, gamma, degenerate_shortcut=True)
            elif k == p:
                # every basis spans the whole space: the objective is constant
                closed_form(k, i, pca, gamma)
            else:
                grids.setdefault(k, []).append(i)

    def gradient(beta: np.ndarray, cu: np.ndarray, gam: np.ndarray):
        """The residual r = C U beta - w of each fit and the ambient
        gradient 2 [r beta^T - gamma C U] of its objective in U."""
        resid = (cu @ beta[..., None])[..., 0] - w
        return resid, 2.0 * (resid[..., :, None] * beta[..., None, :]
                             - gam[:, None, None] * cu)

    def descend(k: int, grid: list) -> None:
        """The first-order descent for the K-column fits at grid indices
        ``grid``, all from the PCA basis in one lock-step loop."""
        # The running fits' state, one row per fit: its grid index, gamma,
        # step size, objective, the iteration of the next step, and the
        # basis, beta and cov @ U stacks.  One keep mask drops the rows of
        # the fits that stop.
        u = np.repeat(start[None, :, :k], len(grid), axis=0)
        slot = np.array(grid)
        gam = np.array([checked[i] for i in grid])
        beta, f, cu = evaluate(u, gam)
        traces = {i: [v] for i, v in zip(grid, f.tolist())}
        step = np.full(len(grid), LSPCA_INITIAL_STEP)
        n_iters = np.ones(len(grid), dtype=int)
        while slot.size:
            _, grad = gradient(beta, cu, gam)
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
                    # copies: a view would keep the whole stack alive
                    record(k, i, u[j].copy(), beta[j].copy(), traces[i],
                           bool(converged[j]), int(n_iters[j] - took[j]))
                keep = ~stop
                slot, gam, step, f, n_iters, u, beta, cu = (
                    a[keep] for a in (slot, gam, step, f, n_iters, u, beta, cu))

    def newton(k: int, grid: list, b: np.ndarray) -> None:
        """Damped Riemannian Newton (Absil, Mahony & Sepulchre, Optimization
        Algorithms on Matrix Manifolds, 2008) for the K-column fits at grid
        indices ``grid``, from the PCA basis and from the closed form
        ``_rank1_completed_basis(b, C, K)`` (not where b vanishes), all in
        one lock-step loop.  A step is accepted only if the objective falls.
        A fit stops converged once a step gains less than LSPCA_TOL
        relative, once its Riemannian gradient is at most 1e-9 of the
        ambient one, or once no damped step that the retraction can resolve
        lowers the objective; it stops unconverged at LSPCA_MAX_ITERS steps.
        Each (K, gamma) keeps the start that ends lower, the PCA start on a
        tie."""
        starts = {"pca": start[:, :k]}
        if np.any(b):
            starts["closed_form"] = _rank1_completed_basis(b, cov, k)
        fits = [(name, i) for name in starts for i in grid]
        u = np.stack([starts[name] for name, _ in fits])
        gam = np.array([checked[i] for _, i in fits])
        beta, f, cu = evaluate(u, gam)
        traces = [[value] for value in f.tolist()]
        ends = [None] * len(fits)  # (basis, beta, converged, iterations)

        # The running fits' state, one row per fit, as in ``descend``, with
        # its index in ``fits`` as its slot, its damping mu in place of its
        # step size, and its ``_newton_parts``.  Each round takes one damped
        # step per fit; only a fit that moved and runs on forms its parts
        # anew (a rejected step changes only its mu).
        slot = np.arange(len(fits))
        n_iters = np.zeros(len(fits), dtype=int)
        done = np.zeros(len(fits), dtype=bool)
        parts = _newton_parts(cov, u, beta, cu, gam, *gradient(beta, cu, gam))
        mu = np.maximum(0.1 * np.abs(parts[3]).max(axis=-1), 1e-16)
        while True:
            converged = done | parts[-1]  # or its gradient test holds
            stop = converged | (n_iters >= LSPCA_MAX_ITERS)
            if stop.any():
                for j, s in zip(np.flatnonzero(stop), slot[stop].tolist()):
                    ends[s] = (u[j].copy(), beta[j].copy(), bool(converged[j]),
                               int(n_iters[j]))
                keep = ~stop
                slot, gam, mu, n_iters, f, u, beta, cu, *parts = (
                    a[keep] for a in (slot, gam, mu, n_iters, f, u, beta, cu,
                                      *parts))
                if not slot.size:
                    break
            # Levenberg-Marquardt, with mu rising tenfold until H + sigma I (x)
            # A is positive definite.  mu stays at or above 1e-16, a floor
            # that does not scale with |H|: on a wide spectrum 1e-8 |H| would
            # swamp the curvature that matters
            x, pd = _damped_step(parts, mu)
            while not pd.all():
                bad = np.flatnonzero(~pd)
                mu[bad] *= 10.0
                x[bad], pd[bad] = _damped_step([a[bad] for a in parts], mu[bad])
            u_new = orthonormalize(u + x)
            beta_new, f_new, cu_new = evaluate(u_new, gam)
            took = f_new < f
            rel = (f - f_new) / np.maximum(1.0, np.abs(f))
            done = np.where(took, rel < LSPCA_TOL,
                            ~(np.linalg.norm(x, axis=(-2, -1)) > np.finfo(float).eps))
            back = np.flatnonzero(~took)
            if back.size:
                for new, old in ((u_new, u), (beta_new, beta), (cu_new, cu)):
                    new[back] = old[back]
            u, beta, cu, f = u_new, beta_new, cu_new, np.where(took, f_new, f)
            for s, value in compress(zip(slot.tolist(), f.tolist()), took.tolist()):
                traces[s].append(value)
            mu = np.maximum(mu * np.where(took, 0.1, 10.0), 1e-16)
            n_iters += took
            moved = np.flatnonzero(took & ~done & (n_iters < LSPCA_MAX_ITERS))
            if moved.size:
                u_m, beta_m, cu_m, gam_m = u[moved], beta[moved], cu[moved], gam[moved]
                for a, new in zip(parts, _newton_parts(
                        cov, u_m, beta_m, cu_m, gam_m, *gradient(beta_m, cu_m, gam_m))):
                    a[moved] = new
        for i in grid:
            s = min((s for s, (_, j) in enumerate(fits) if j == i),
                    key=lambda s: traces[s][-1])
            basis, beta_end, converged_end, iterations = ends[s]
            record(k, i, basis, beta_end, traces[s], converged_end, iterations,
                   start=fits[s][0])

    b = None  # the closed-form start's direction b = C^-1 w, at minimum norm
    for k, grid in grids.items():
        if (p - k) * k > LSPCA_NEWTON_DIM:
            descend(k, grid)
            continue
        if b is None:
            b = np.linalg.lstsq(cov, w, rcond=None)[0]
        newton(k, grid, b)
    return results


def _newton_parts(cov, u, beta, cu, gam, resid, grad) -> tuple:
    """The Newton model of a stack of K-column LSPCA fits with residuals r
    and ambient gradients: (V, Y, g, D, N, flat), in coordinates where the
    Hessian is diagonal plus rank K.

    With tangent vectors V X, V an orthonormal complement of U for which L
    = V^T C V = diag(lam), and vec X row by row, Hess[V X] = (I - U U^T) D
    grad[V X] - V X U^T grad gives H = 2 [L (x) R + gamma I (x) A - M A^-1
    M^T] ((x) the Kronecker product), where R = beta beta^T - gamma I, A =
    U^T C U and M[(i, j), l] = (V^T C U)[i, l] beta[j] + (V^T r)[i] delta[j,
    l].  The congruence Y^T A Y = I, Y^T R Y = diag(rho) (Golub & Van Loan,
    section 8.7) and X = Xh Y^T take I (x) A to I and H to diag(D) - 2 N
    N^T, D = 2 (lam_i rho_a + gamma), N = (I (x) Y)^T M Y; g is the gradient
    in Xh.  A's eigenvalues are floored at eps tr(C), so that Y exists where
    U meets C's null space.  ``flat``: |g| <= 1e-9 |ambient gradient|.
    """
    m, _, k = u.shape
    v = np.linalg.qr(u, mode="complete")[0][..., k:]
    lam, q = np.linalg.eigh(v.swapaxes(-1, -2) @ cov @ v)
    vt = (v @ q).swapaxes(-1, -2)
    a, y = np.linalg.eigh(u.swapaxes(-1, -2) @ cu)
    # Y = W a^-1/2, so that Y^T A Y = I; then Z diagonalizes Y^T R Y
    y /= np.sqrt(np.maximum(a, np.finfo(float).eps * (np.trace(cov) or 1.0)))[:, None]
    by = (beta[:, None, :] @ y)[:, 0]
    rho, z = np.linalg.eigh(by[:, :, None] * by[:, None, :]
                            - gam[:, None, None] * (y.swapaxes(-1, -2) @ y))
    y = y @ z
    yt = y.swapaxes(-1, -2)
    g = vt @ grad
    n = ((vt @ cu @ y)[:, :, None, :] * (yt @ beta[..., None])[:, None]
         + (vt @ resid[..., None])[..., None] * (yt @ y)[:, None])
    d = 2.0 * (lam[:, :, None] * rho[:, None, :] + gam[:, None, None])
    return (vt.swapaxes(-1, -2), y, (g @ y).reshape(m, -1), d.reshape(m, -1),
            n.reshape(m, -1, k), np.linalg.norm(g, axis=(-2, -1))
            <= 1e-9 * np.linalg.norm(grad, axis=(-2, -1)))


def _damped_step(parts: tuple, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each fit of ``_newton_parts``: the tangent step V X solving (H +
    sigma I (x) A) vec X = -g, sigma = mu beyond the most negative D, and
    whether that matrix is positive definite.  In Xh it is diag(Delta) - 2 N
    N^T with Delta = D + sigma > 0, solved by the Woodbury formula with the
    K x K capacitance I / 2 - N^T Delta^-1 N, and positive definite exactly
    where the capacitance is (Haynsworth inertia additivity)."""
    v, y, g, d, n, _ = parts
    delta = d - np.minimum(d.min(axis=-1), 0.0)[:, None] + mu[:, None]
    nd, gd, nt = n / delta[..., None], g / delta, n.swapaxes(-1, -2)
    e, w = np.linalg.eigh(0.5 * np.eye(n.shape[-1]) - nt @ nd)
    pd = e[:, 0] > 0.0
    rhs = (w.swapaxes(-1, -2) @ (nt @ gd[..., None])
           / np.where(pd[:, None], e, np.inf)[..., None])
    xh = -(gd + (nd @ (w @ rhs))[..., 0]).reshape(len(mu), v.shape[-1], -1)
    return v @ xh @ y.swapaxes(-1, -2), pd


def _solve_stack(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve gram[i] @ x[i] = rhs[i] for stacks (m, k, k) and (m, k), or
    (m, k, r) for r right-hand sides each; a singular slice falls back to
    least squares on its own.

    A vector right-hand side goes in as (m, k, 1) because numpy 2.0 changed
    how a ``b`` with ``b.ndim == a.ndim - 1`` is read.
    """
    vector = rhs.ndim < gram.ndim
    columns = rhs[..., None] if vector else rhs
    try:
        out = np.linalg.solve(gram, columns)
    except np.linalg.LinAlgError:
        out = np.empty(columns.shape)
        for g, r, x in zip(gram, columns, out):
            try:
                x[...] = np.linalg.solve(g, r)
            except np.linalg.LinAlgError:
                x[...] = np.linalg.lstsq(g, r, rcond=None)[0]
    return out[..., 0] if vector else out


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
    # floored at 1e-3 of y's variance, as sigma_x^2 is at K = P: an exact fit
    # would start EM where its log-likelihood is lost to rounding
    sy2 = max((mom.yy - float(v0 @ zy)) / n, 1e-3 * mom.yy / n, 1e-8)

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
