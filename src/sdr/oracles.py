"""Self-contained brute-force oracles behind the oracle-check subcommand.

Each oracle recomputes an expected result by an independent route
(enumeration, finite differences, reconstruction identities, sphere grids)
at small problem sizes, so the whole battery runs in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, fit_centering, reduce
from .intrinsic import (fit_barshan_extended, fit_lspca, fit_pls_extended,
                        fit_sppca_model, predict_sppca)
from .linalg import orthonormalize, stiefel_step, sym_eig_topk
from .regression import ols_fit
from .simulation import SpectrumSpec
from .wrappers import fit_pv


@dataclass
class OracleResult:
    name: str
    ok: bool
    detail: str


def _dataset(rng: np.random.Generator, n: int, p: int) -> Dataset:
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
    x -= x.mean(axis=0)
    return Dataset(x, y - y.mean())


def sphere_grid(step_degrees: float = 1.0) -> np.ndarray:
    """Unit vectors on a 1-degree polar/azimuthal grid of the 2-sphere."""
    theta = np.deg2rad(np.arange(0.0, 180.0, step_degrees))
    phi = np.deg2rad(np.arange(0.0, 360.0, step_degrees))
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    return np.column_stack([(np.sin(tt) * np.cos(pp)).ravel(),
                            (np.sin(tt) * np.sin(pp)).ravel(),
                            np.cos(tt).ravel()])


def _oracle_eig_reconstruction(inject: bool) -> OracleResult:
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5))
    s = (a + a.T) / 2.0
    pairs = sym_eig_topk(s, 5)
    recon = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
    if inject:
        recon = recon + 1e-3  # negative-control hook
    err = float(np.linalg.norm(recon - s))
    return OracleResult("eigen_reconstruction", err <= 1e-8, f"||V L V^T - S|| = {err:.2e}")


def _oracle_qr_projector(inject: bool) -> OracleResult:
    rng = np.random.default_rng(12)
    m = rng.standard_normal((6, 3))
    q = orthonormalize(m)
    e1 = float(np.linalg.norm(q.T @ q - np.eye(3)))
    e2 = float(np.linalg.norm(q @ (q.T @ m) - m))
    return OracleResult("qr_projector_identity", e1 <= 1e-10 and e2 <= 1e-8,
                        f"||Q^T Q - I|| = {e1:.2e}, ||Q Q^T M - M|| = {e2:.2e}")


def _oracle_stiefel_ascent(inject: bool) -> OracleResult:
    rng = np.random.default_rng(13)
    a = rng.standard_normal((5, 5))
    a = a @ a.T  # p.s.d. objective matrix
    u = orthonormalize(rng.standard_normal((5, 2)))
    obj = lambda m: float(np.trace(m.T @ a @ m))
    grad_up = 2.0 * a @ u
    u_next = stiefel_step(u, -grad_up, 1e-4)  # move along +gradient
    gain = obj(u_next) - obj(u)
    return OracleResult("stiefel_finite_difference_ascent", gain > 0,
                        f"objective gain at step 1e-4: {gain:.3e}")


def _oracle_sphere_grid(inject: bool) -> OracleResult:
    grid = sphere_grid()
    worst = math.inf
    detail = []
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        data = _dataset(rng, 30, 3)
        w = data.X.T @ data.y
        cov = data.X.T @ data.X
        cases = {
            "pls": (np.outer(w, w), fit_pls_extended(data, 1, 0.0).basis[:, 0]),
            "barshan": (np.outer(w, w),
                        fit_barshan_extended(data, 1, 0.0).basis[:, 0]),
            "barshan_ext": (np.outer(w, w) + cov,
                            fit_barshan_extended(data, 1, 1.0).basis[:, 0]),
        }
        for name, (m, u) in cases.items():
            grid_best = float(np.max(np.einsum("ij,jk,ik->i", grid, m, grid)))
            attained = float(u @ m @ u)
            ratio = attained / grid_best
            worst = min(worst, ratio)
            if ratio < 1.0 - 1e-3:
                detail.append(f"{name}@seed{seed}: ratio {ratio:.6f}")
    ok = worst >= 1.0 - 1e-3
    return OracleResult("sphere_grid_optimality", ok,
                        f"worst attained/grid ratio = {worst:.6f}" +
                        ("; " + "; ".join(detail) if detail else ""))


def _oracle_pv_decorrelation(inject: bool) -> OracleResult:
    rng = np.random.default_rng(14)
    data = _dataset(rng, 30, 5)
    reducer = fit_pv(data, 3)
    z = reduce(reducer, data.X)
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            denom = np.linalg.norm(z[:, i]) * np.linalg.norm(z[:, j])
            worst = max(worst, abs(float(z[:, i] @ z[:, j])) / denom)
    return OracleResult("pv_score_decorrelation", worst <= 1e-8,
                        f"max |corr(z_i, z_j)| = {worst:.2e}")


def _oracle_lspca_noiseless(inject: bool) -> OracleResult:
    rng = np.random.default_rng(15)
    x = rng.standard_normal((40, 5))
    x -= x.mean(axis=0)
    u_star = sym_eig_topk(x.T @ x, 2).vectors
    beta_star = np.array([1.5, -0.7])
    y = x @ u_star @ beta_star
    data = Dataset(x, y)
    reducer, sol = fit_lspca(data, 2, 1.0)
    resid = y - x @ sol.basis @ sol.beta
    sup = float(resid @ resid)
    proj_err = float(np.linalg.norm(sol.basis @ sol.basis.T - u_star @ u_star.T))
    ok = sup <= 1e-10 and proj_err <= 1e-6
    return OracleResult("lspca_noiseless_recovery", ok,
                        f"supervised residual = {sup:.2e}, projector error = {proj_err:.2e}")


def _oracle_sppca_model_recovery(inject: bool) -> OracleResult:
    rng = np.random.default_rng(16)
    n, p, k, sigma = 400, 5, 2, 1e-3
    u_star = orthonormalize(rng.standard_normal((p, k)))
    v_star = rng.standard_normal(k)
    z = rng.standard_normal((n, k))
    x = z @ u_star.T + sigma * rng.standard_normal((n, p))
    y = z @ v_star + sigma * rng.standard_normal(n)
    data = Dataset(x - x.mean(axis=0), y - y.mean())
    pred = predict_sppca(fit_sppca_model(data, k)[0], data.X)
    err = float(np.mean((pred - data.y) ** 2))
    return OracleResult("sppca_model_recovery", err <= 10 * sigma ** 2,
                        f"prediction MSE = {err:.3e} (allowance {10 * sigma ** 2:.1e})")


def _oracle_ols_residual(inject: bool) -> OracleResult:
    rng = np.random.default_rng(17)
    z = rng.standard_normal((25, 4))
    y = rng.standard_normal(25)
    model = ols_fit(z, y)
    resid = y - model.predict(z)
    worst = float(np.max(np.abs(z.T @ resid))) / max(np.linalg.norm(y), 1.0)
    return OracleResult("ols_residual_orthogonality", worst <= 1e-8,
                        f"max |Z^T r| (relative) = {worst:.2e}")


def _oracle_centering_roundtrip(inject: bool) -> OracleResult:
    rng = np.random.default_rng(18)
    data = _dataset(rng, 20, 4)
    raw = rng.uniform(0.0, 3.0, size=(20, 4))
    transform = fit_centering(Dataset(raw, data.y), unit_scale=True)
    back = transform.invert(transform.apply(raw))
    err = float(np.max(np.abs(back - raw)))
    return OracleResult("centering_roundtrip", err <= 1e-12,
                        f"max |invert(apply(x)) - x| = {err:.2e}")


def _oracle_gaussian_covariance(inject: bool) -> OracleResult:
    rng = np.random.default_rng(19)
    p, n = 5, 100_000
    spectrum = SpectrumSpec("fast", p=p)
    lam = spectrum.eigenvalues()
    q = orthonormalize(rng.standard_normal((p, p)))
    sigma = q @ np.diag(lam) @ q.T
    x = (rng.standard_normal((n, p)) * np.sqrt(lam)) @ q.T
    emp = x.T @ x / n
    # entrywise 3-sigma allowance: Var(x_i x_j) = S_ii S_jj + S_ij^2
    se = np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma ** 2) / n)
    worst = float(np.max(np.abs(emp - sigma) / (3.0 * se)))
    return OracleResult("gaussian_sampler_covariance", worst <= 1.0,
                        f"max |emp - true| / (3 SE) = {worst:.3f}")


ORACLES = (
    _oracle_eig_reconstruction,
    _oracle_qr_projector,
    _oracle_stiefel_ascent,
    _oracle_sphere_grid,
    _oracle_pv_decorrelation,
    _oracle_lspca_noiseless,
    _oracle_sppca_model_recovery,
    _oracle_ols_residual,
    _oracle_centering_roundtrip,
    _oracle_gaussian_covariance,
)


def run_oracles(inject_perturbation: bool = False) -> list[OracleResult]:
    return [fn(inject_perturbation) for fn in ORACLES]
