import dataclasses

import numpy as np
import pytest

from sdr.data import Dataset
from sdr.linalg import orthonormalize
from sdr.methods import fit_method
from sdr.simulation import (BenchConfig, SpectrumSpec, SweepConfig, TrialSpec,
                            _centered_views, gamma_sweep,
                            generate_trial, report_to_csv, report_to_json,
                            report_to_table, run_benchmark, sweep_to_csv,
                            trial_seed)


class TestSpectrum:
    def test_fast_decay_ratio(self):
        lam = SpectrumSpec("fast").eigenvalues()
        assert lam[14] / lam[0] <= 0.15

    def test_slow_decay_ratio(self):
        lam = SpectrumSpec("slow").eigenvalues()
        assert lam[14] / lam[0] >= 0.8

    @pytest.mark.parametrize("kind", ["fast", "slow"])
    def test_positive_nonincreasing(self, kind):
        lam = SpectrumSpec(kind).eigenvalues()
        assert np.all(lam > 0)
        assert np.all(np.diff(lam) < 0)
        assert len(lam) == 100

    def test_noise_defaults(self):
        assert SpectrumSpec("fast").noise_sigma == 0.5
        assert SpectrumSpec("slow").noise_sigma == 2.5


def _haar_seeded(p, seed):
    # the trial's eigenbasis: the first draw of the trial's stream
    return orthonormalize(np.random.default_rng(seed).standard_normal((p, p)))


class TestRandomOrthogonal:
    def test_p1_is_sign(self):
        q = _haar_seeded(1, 0)
        assert abs(abs(q[0, 0]) - 1.0) <= 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 123])
    def test_orthogonal(self, seed):
        q = _haar_seeded(7, seed)
        assert np.linalg.norm(q.T @ q - np.eye(7)) <= 1e-10

    def test_reproducible_and_seeds_differ(self):
        a = _haar_seeded(6, 5)
        b = _haar_seeded(6, 5)
        c = _haar_seeded(6, 6)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a - c) > 0.1


class TestGenerateTrial:
    def test_shapes_and_split(self):
        spec = TrialSpec(SpectrumSpec("fast"), "well", n_train=150, seed=0)
        trial = generate_trial(spec)
        assert trial.train.X.shape == (120, 100)
        assert trial.validation.X.shape == (30, 100)
        assert trial.test.X.shape == (10000, 100)
        assert trial.phi.shape == (100, 10)

    def test_phi_orthonormal(self):
        for alignment in ("well", "mis", "partial"):
            spec = TrialSpec(SpectrumSpec("slow"), alignment, n_train=150, seed=1)
            phi = generate_trial(spec).phi
            assert np.linalg.norm(phi.T @ phi - np.eye(10)) <= 1e-10

    def test_partial_random_columns_orthogonal_to_selected(self):
        spec = TrialSpec(SpectrumSpec("fast"), "partial", n_train=150, seed=2)
        trial = generate_trial(spec)
        v = _haar_seeded(100, 2)  # same stream as the trial
        eig_cols = v[:, range(10, 20, 2)]
        rand_cols = trial.phi[:, 5:]
        assert np.abs(eig_cols.T @ rand_cols).max() <= 1e-10
        assert np.linalg.norm(rand_cols.T @ rand_cols - np.eye(5)) <= 1e-10
        np.testing.assert_array_equal(trial.phi[:, :5], eig_cols)

    def test_well_aligned_projection_keeps_signal(self):
        # regressing on the true top-10 eigenvector scores leaves only noise
        spec = TrialSpec(SpectrumSpec("fast"), "well", n_train=1500, seed=4)
        trial = generate_trial(spec)
        v = _haar_seeded(100, 4)
        z = trial.test.X @ v[:, :10]
        coef, *_ = np.linalg.lstsq(z, trial.test.y, rcond=None)
        resid = trial.test.y - z @ coef
        sigma2 = spec.spectrum.noise_sigma ** 2
        assert float(resid @ resid / len(resid)) <= 1.05 * sigma2

    def test_empirical_covariance_matches(self):
        spec = TrialSpec(SpectrumSpec("fast"), "well", n_train=125_000,
                         seed=12)
        trial = generate_trial(spec)
        lam = spec.spectrum.eigenvalues()
        v = _haar_seeded(100, 12)
        sigma = (v * lam) @ v.T
        n = trial.train.X.shape[0]
        assert n == 100_000
        emp = trial.train.X.T @ trial.train.X / n
        se = np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma ** 2) / n)
        dev = np.abs(emp - sigma) / se
        # 10^4 entries: a handful beyond 3 SE is expected, none far beyond
        assert np.mean(dev > 3.0) <= 0.01
        assert dev.max() <= 5.0


class TestRunBenchmark:
    def test_reports_byte_identical_under_same_seed(self):
        cfg = BenchConfig(methods=("pca", "ols"), spectra=("fast",),
                          alignments=("well",), train_sizes=(150,),
                          n_trials=2, seed=7)
        r1, r2 = run_benchmark(cfg), run_benchmark(cfg)
        assert report_to_csv(r1) == report_to_csv(r2)
        assert report_to_json(r1) == report_to_json(r2)

    def test_csv_schema_golden(self):
        cfg = BenchConfig(methods=("pca",), spectra=("fast",),
                          alignments=("well",), train_sizes=(150,),
                          n_trials=1, seed=0)
        lines = report_to_csv(run_benchmark(cfg)).splitlines()
        assert lines[0] == ("spectrum,alignment,n_train,method,"
                            "mean_train_mse,mean_test_mse,n_trials,n_failed")
        assert lines[1].startswith("fast,well,150,pca,")

    def test_noiseless_well_aligned_floors(self):
        # with sigma = 0 the only PCA error is eigenvector estimation leak;
        # PLS recovers the coefficients almost exactly.  The trial is a
        # seed-1 benchmark's first one, each split's y replaced by X beta.
        spec = TrialSpec(SpectrumSpec("fast"), "well", 1500,
                         trial_seed(1, 0, 0, 0, 0))
        trial = generate_trial(spec)
        noiseless = dataclasses.replace(trial, **{
            name: Dataset(d.X, d.X @ trial.beta) for name, d in
            (("train", trial.train), ("validation", trial.validation),
             ("test", trial.test))})
        train, val, test = _centered_views(noiseless)
        assert fit_method("pca", train, val, 15).evaluate(test) <= 0.05
        assert fit_method("pls", train, val, 15).evaluate(test) <= 1e-3

    def test_failures_recorded_not_dropped(self):
        cfg = BenchConfig(methods=("pca",), spectra=("fast",),
                          alignments=("well",), train_sizes=(150,),
                          n_trials=1, seed=0, k=101)  # K > P fails per trial
        report = run_benchmark(cfg)
        summary = report.settings[0].methods[0]
        assert summary.n_failed == 1 and summary.n_ok == 0
        assert summary.trials[0].error is not None
        assert summary.mean_test_mse is None

    def test_table_layout(self):
        cfg = BenchConfig(methods=("pca", "ols"), spectra=("fast",),
                          alignments=("well", "mis"), train_sizes=(150,),
                          n_trials=1, seed=3)
        table = report_to_table(run_benchmark(cfg))
        assert "spectrum: fast" in table
        assert "well/150" in table and "mis/150" in table
        assert "pca" in table and "ols" in table

    def test_trial_seed_stable(self):
        assert trial_seed(0, 1, 2, 3, 4) == trial_seed(0, 1, 2, 3, 4)
        assert trial_seed(0, 1, 2, 3, 4) != trial_seed(0, 1, 2, 3, 5)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            BenchConfig(n_trials=0)
        with pytest.raises(ValueError):
            BenchConfig(methods=("pca", "nope"))

    @pytest.mark.parametrize("field, value, message", [
        ("methods", (), "method list is empty"),
        ("gamma_grid", (), "gamma grid is empty"),
        ("gamma_grid", (1.0, -1e-3), "gamma values must be >= 0"),
        ("gamma_grid", (float("nan"),), "gamma values must be >= 0"),
    ])
    def test_rejects_empty_methods_and_bad_gamma_grid(self, field, value,
                                                      message):
        with pytest.raises(ValueError, match=message):
            BenchConfig(**{field: value})


class TestGammaSweep:
    @pytest.mark.parametrize("grid, message", [
        ((0.0, 1.0),
         r"gamma \[0.0\] lies outside the domain \(0, inf\] of lspca"),
        ((), "gamma grid is empty"),
        ((1.0, -1.0), "gamma values must be >= 0"),
        ((float("nan"),), "gamma values must be >= 0"),
    ])
    def test_config_rejects_grid_outside_a_swept_domain(self, grid, message):
        with pytest.raises(ValueError, match=message):
            SweepConfig(grid=grid)

    def test_curves_shape_and_determinism(self):
        cfg = SweepConfig(alignments=("well",), n_trials=2,
                          grid=(1e-2, 1.0, 1e2), seed=5)
        c1, c2 = gamma_sweep(cfg), gamma_sweep(cfg)
        curves_csv, refs_csv = sweep_to_csv(c1)
        assert curves_csv == sweep_to_csv(c2)[0]
        rows = curves_csv.splitlines()
        assert rows[0] == "method,alignment,gamma,test_mse"
        # exactly |grid| rows per method per case
        assert len(rows) - 1 == 3 * 3
        assert len(refs_csv.splitlines()) - 1 == 2
        for series in c1[0].test_mse.values():
            assert len(series) == 3
            assert all(np.isfinite(v) for v in series)
