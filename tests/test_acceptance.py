"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see them live)."""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from sdr.data import Dataset, reduce
from sdr.intrinsic import (fit_barshan_extended, fit_lspca, fit_pls_extended,
                           fit_sppca, fit_sppca_model, predict_sppca)
from sdr.linalg import orthonormalize
from sdr.oracles import sphere_grid
from sdr.realdata import RealDataConfig, run_real_data
from sdr.simulation import (BenchConfig, SweepConfig, gamma_sweep,
                            run_benchmark)
from sdr.wrappers import fit_pv

SEED = 2026


def _line(num, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} {status}: {detail}  [{elapsed:.1f}s]")


def _centered(x, y):
    return Dataset(x - x.mean(axis=0), y - y.mean())


def _random_dataset(seed, n, p, noise=0.5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal(p) + noise * rng.standard_normal(n)
    return _centered(x, y)


def _whitened_dataset(seed, n=40, p=10):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, p))
    g -= g.mean(axis=0)
    vals, vecs = np.linalg.eigh(g.T @ g)
    x = g @ vecs @ np.diag(vals ** -0.5) @ vecs.T
    y = x @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
    return Dataset(x, y - y.mean())


@pytest.fixture(scope="module")
def misaligned_report():
    t0 = time.monotonic()
    cfg = BenchConfig(spectra=("fast",), alignments=("mis",),
                      train_sizes=(150,), n_trials=20, seed=SEED)
    report = run_benchmark(cfg)
    return report, time.monotonic() - t0


def test_criterion_1_noise_floor():
    t0 = time.monotonic()
    cfg = BenchConfig(methods=("pca", "pls", "lspca"), spectra=("fast",),
                      alignments=("well",), train_sizes=(1500,),
                      n_trials=20, seed=SEED)
    report = run_benchmark(cfg)
    elapsed = time.monotonic() - t0
    mses = {m.method: m.mean_test_mse for m in report.settings[0].methods}
    ok = all(0.24 <= mses[m] <= 0.32 for m in ("pca", "pls", "lspca"))
    ok = ok and elapsed < 300
    _line(1, ok, "fast/well/1500 test MSE " +
          ", ".join(f"{m}={mses[m]:.4f}" for m in mses) +
          " all in [0.24, 0.32]", elapsed)
    assert ok, (mses, elapsed)


def test_criterion_2_misalignment_gap(misaligned_report):
    report, elapsed = misaligned_report
    mses = {m.method: m.mean_test_mse for m in report.settings[0].methods}
    ratio = mses["pca"] / mses["lspca"]
    lowest3 = set(sorted(mses, key=mses.get)[:3])
    ok = ratio >= 2.0 and lowest3 == {"pls", "pv", "lspca"} and elapsed < 600
    _line(2, ok, f"fast/mis/150 PCA/LSPCA ratio {ratio:.1f} >= 2; "
          f"three lowest = {sorted(lowest3)}", elapsed)
    assert ok, (mses, ratio, elapsed)


def test_criterion_2b_overfitting_direction(misaligned_report):
    # report-level sanity: at N_train=150 every method's mean train MSE
    # stays below its mean test MSE
    report, _ = misaligned_report
    bad = [m.method for m in report.settings[0].methods
           if not m.mean_train_mse <= m.mean_test_mse]
    assert not bad, bad


def test_criterion_3_slow_decay_parity():
    t0 = time.monotonic()
    cfg = BenchConfig(methods=("ols", "pls"), spectra=("slow",),
                      alignments=("well",), train_sizes=(1500,),
                      n_trials=20, seed=SEED)
    report = run_benchmark(cfg)
    elapsed = time.monotonic() - t0
    mses = {m.method: m.mean_test_mse for m in report.settings[0].methods}
    gap = abs(mses["pls"] - mses["ols"]) / mses["ols"]
    ok = gap <= 0.03 and elapsed < 600
    _line(3, ok, f"slow/well/1500 PLS {mses['pls']:.3f} vs OLS "
          f"{mses['ols']:.3f} (gap {100 * gap:.2f}% <= 3%)", elapsed)
    assert ok, (mses, gap, elapsed)


def test_criterion_4_gamma_sweep_limits():
    t0 = time.monotonic()
    cfg = SweepConfig(spectrum="slow", alignments=("mis",), n_train=150,
                      n_trials=8, seed=SEED)
    curves = gamma_sweep(cfg)[0]
    elapsed = time.monotonic() - t0
    largest_ok = {m: abs(curves.test_mse[m][-1] - curves.pca_ref) / curves.pca_ref
                  for m in ("lspca", "barshan", "pls")}
    small_gap = abs(curves.test_mse["lspca"][0] - curves.ols_ref) / curves.ols_ref
    ok = all(v <= 0.05 for v in largest_ok.values()) and small_gap <= 0.25
    ok = ok and elapsed < 600
    _line(4, ok, "slow/mis/150 largest-gamma vs PCA: " +
          ", ".join(f"{m}={100 * v:.1f}%" for m, v in largest_ok.items()) +
          f" (<=5%); LSPCA smallest-gamma vs OLS {100 * small_gap:.1f}% (<=25%)",
          elapsed)
    assert ok, (largest_ok, small_gap, elapsed)


def test_criterion_5_whitened_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(10):
        data = _whitened_dataset(seed)
        for k in (1, 2, 3):
            for gamma in (0.5, 2.0):
                pb = fit_barshan_extended(data, k, gamma).basis
                pl = fit_lspca(data, k, gamma)[0].basis
                worst = max(worst, float(np.linalg.norm(pb @ pb.T - pl @ pl.T)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 60
    _line(5, ok, f"whitened P=10, K in {{1,2,3}}, 10 seeds: max projector "
          f"difference {worst:.2e} <= 1e-6", elapsed)
    assert ok, (worst, elapsed)


def test_criterion_6_sphere_grid_oracle():
    t0 = time.monotonic()
    grid = sphere_grid()
    worst = math.inf
    for seed in range(10):
        data = _random_dataset(seed, n=40, p=3, noise=0.3)
        w = data.X.T @ data.y
        cov = data.X.T @ data.X
        cases = (
            (np.outer(w, w), fit_pls_extended(data, 1, 0.0).basis[:, 0]),
            (np.outer(w, w), fit_barshan_extended(data, 1, 0.0).basis[:, 0]),
            (np.outer(w, w) + 1.0 * cov,
             fit_barshan_extended(data, 1, 1.0).basis[:, 0]),
        )
        for m, u in cases:
            grid_best = float(np.max(np.einsum("ij,jk,ik->i", grid, m, grid)))
            worst = min(worst, float(u @ m @ u) / grid_best)
    elapsed = time.monotonic() - t0
    ok = worst >= 1.0 - 1e-3 and elapsed < 60
    _line(6, ok, f"P=3 K=1 fitted objective >= {worst:.6f} x 1-degree grid "
          "maximum (threshold 0.999)", elapsed)
    assert ok, (worst, elapsed)


def test_criterion_7_pv_decorrelation():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(50):
        data = _random_dataset(seed, n=60, p=10, noise=1.0)
        z = reduce(fit_pv(data, 5), data.X)
        for i in range(5):
            for j in range(i + 1, 5):
                denom = np.linalg.norm(z[:, i]) * np.linalg.norm(z[:, j])
                worst = max(worst, abs(float(z[:, i] @ z[:, j])) / denom)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 60
    _line(7, ok, f"PV transformed features, 50 seeds: max |corr| "
          f"{worst:.2e} <= 1e-8", elapsed)
    assert ok, (worst, elapsed)


def test_criterion_8_em_monotonicity_and_recovery():
    t0 = time.monotonic()
    worst_drop = 0.0
    for seed in range(20):
        data = _random_dataset(100 + seed, n=80, p=12, noise=1.0)
        trace = np.asarray(fit_sppca(data, 4).hyperparams["loglik_trace"])
        drops = (trace[:-1] - trace[1:]) / np.maximum(1.0, np.abs(trace[:-1]))
        worst_drop = max(worst_drop, float(drops.max(initial=0.0)))

    rng = np.random.default_rng(7)
    n, p, k, sigma = 400, 8, 3, 1e-3
    u_star = orthonormalize(rng.standard_normal((p, k)))
    v_star = rng.standard_normal(k)
    z = rng.standard_normal((n, k))
    x = z @ u_star.T + sigma * rng.standard_normal((n, p))
    y = z @ v_star + sigma * rng.standard_normal(n)
    data = _centered(x, y)
    pred = predict_sppca(fit_sppca_model(data, k)[0], data.X)
    recovery = float(np.mean((pred - data.y) ** 2))
    elapsed = time.monotonic() - t0
    ok = worst_drop <= 1e-8 and recovery <= 10 * sigma ** 2 and elapsed < 120
    _line(8, ok, f"EM max relative log-likelihood drop {worst_drop:.2e} "
          f"<= 1e-8 (20 seeds); recovery MSE {recovery:.2e} <= {10 * sigma ** 2:.0e}",
          elapsed)
    assert ok, (worst_drop, recovery, elapsed)


def test_criterion_9_lspca_descent():
    t0 = time.monotonic()
    worst_rise = -math.inf
    worst_feas = 0.0
    for seed in range(20):
        data = _random_dataset(200 + seed, n=60, p=15, noise=0.5)
        gamma = 10.0 ** ((seed % 5) - 2)
        _, sol = fit_lspca(data, 5, gamma)
        trace = np.asarray(sol.objective_trace)
        worst_rise = max(worst_rise, float(np.diff(trace).max(initial=-math.inf)))
        feas = float(np.linalg.norm(sol.basis.T @ sol.basis - np.eye(5)))
        worst_feas = max(worst_feas, feas)
    elapsed = time.monotonic() - t0
    ok = worst_rise < 0 and worst_feas <= 1e-8 and elapsed < 120
    _line(9, ok, f"LSPCA 20 seeds: max objective increase {worst_rise:.2e} "
          f"(< 0); max ||U^T U - I|| {worst_feas:.2e} <= 1e-8", elapsed)
    assert ok, (worst_rise, worst_feas, elapsed)


def _find_csv(env_var, *candidates):
    path = os.environ.get(env_var)
    if path and Path(path).exists():
        return Path(path)
    for cand in candidates:
        if Path(cand).exists():
            return Path(cand)
    return None


def test_criterion_10_wine_quality():
    path = _find_csv("SDR_WINE_CSV", "data/winequality-white.csv")
    if path is None:
        pytest.skip("wine-quality CSV not supplied (set SDR_WINE_CSV or put "
                    "winequality-white.csv under data/)")
    t0 = time.monotonic()
    config = RealDataConfig(path=str(path), response="quality", delimiter=";",
                            k_min=2, k_max=2, seed=SEED)
    result = run_real_data(config)
    elapsed = time.monotonic() - t0
    mses = {pt.method: pt.test_mse for pt in result.points}
    supervised = ("bair", "pv", "pcps", "pls", "barshan", "lspca")
    ok = all(mses[m] < mses["pca"] for m in supervised) and elapsed < 300
    _line(10, ok, "wine K=2: every supervised method except SPPCA beats PCA "
          f"(PCA {mses['pca']:.4f})", elapsed)
    assert ok, (mses, elapsed)


def test_criterion_10_parkinsons():
    path = _find_csv("SDR_PARKINSONS_CSV", "data/parkinsons_updrs.data",
                     "data/parkinsons_updrs.csv")
    if path is None:
        pytest.skip("Parkinsons telemonitoring CSV not supplied (set "
                    "SDR_PARKINSONS_CSV or put parkinsons_updrs.data under data/)")
    t0 = time.monotonic()
    config = RealDataConfig(path=str(path), response="total_UPDRS",
                            drop=("subject#", "age", "sex", "test_time",
                                  "motor_UPDRS"),
                            k_min=1, k_max=3, seed=SEED,
                            methods=("pca", "pls", "lspca"))
    result = run_real_data(config)
    elapsed = time.monotonic() - t0
    by_k = {}
    for pt in result.points:
        by_k.setdefault(pt.k, {})[pt.method] = pt.test_mse
    ok = all(by_k[k]["pls"] <= by_k[k]["pca"] and by_k[k]["lspca"] <= by_k[k]["pca"]
             for k in (1, 2, 3)) and elapsed < 300
    _line(10, ok, "parkinsons K in {1,2,3}: PLS and LSPCA beat PCA at every K",
          elapsed)
    assert ok, (by_k, elapsed)
