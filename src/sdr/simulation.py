"""Synthetic benchmark protocol: eigenvalue spectra, subspace-alignment
cases, Gaussian trial generation, multi-trial benchmark runs, and the
balance-parameter sweep with paired trials.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import product

import numpy as np

from .data import Dataset, center_dataset, csv_text, fit_centering
from .methods import (DEFAULT_GAMMA_GRID, DEFAULT_METHODS, METHODS,
                      attempt_fit, check_gamma_grid, check_methods,
                      fit_method, with_model)

SPECTRUM_KINDS = ("fast", "slow")
ALIGNMENT_KINDS = ("well", "mis", "partial")

#: Sweep grid spanning the fully supervised to the PCA-like regime.
DEFAULT_SWEEP_GRID = tuple(np.logspace(-4.0, 6.0, 21))

#: Spectrum scale (the top eigenvalue of the slow kind) and the fast kind's
#: geometric ratio.
SPECTRUM_SCALE = 25.0
FAST_DECAY = 0.85

#: Rank of the response's signal subspace Phi.
LATENT_DIM = 10

#: Share of a trial's training budget carved off as its validation split.
VAL_FRACTION = 0.2


@dataclass(frozen=True)
class SpectrumSpec:
    """Population covariance eigenvalues: geometric decay or near-linear."""

    kind: str
    p: int = 100

    def __post_init__(self):
        if self.kind not in SPECTRUM_KINDS:
            raise ValueError(f"unknown spectrum kind {self.kind!r}")

    def eigenvalues(self) -> np.ndarray:
        i = np.arange(1, self.p + 1)
        if self.kind == "fast":
            return SPECTRUM_SCALE * FAST_DECAY ** i
        return SPECTRUM_SCALE * (self.p - i + 1) / self.p

    @property
    def noise_sigma(self) -> float:
        return 0.5 if self.kind == "fast" else 2.5


@dataclass(frozen=True)
class TrialSpec:
    """Complete description of one synthetic trial."""

    spectrum: SpectrumSpec
    alignment: str
    n_train: int
    seed: int
    n_test: int = 10000
    noise_sigma: float | None = None  # None: spectrum default

    def __post_init__(self):
        if self.alignment not in ALIGNMENT_KINDS:
            raise ValueError(f"unknown alignment {self.alignment!r}")
        n_fit, n_val = self.split
        if min(n_fit, n_val) < 2:
            raise ValueError(f"n_train={self.n_train} splits into {n_fit} fit "
                             f"and {n_val} validation rows; each needs at "
                             "least 2")

    @property
    def split(self) -> tuple[int, int]:
        """(fit rows, validation rows) of the training budget."""
        n_val = int(round(VAL_FRACTION * self.n_train))
        return self.n_train - n_val, n_val

    @property
    def sigma(self) -> float:
        return self.spectrum.noise_sigma if self.noise_sigma is None else self.noise_sigma


@dataclass(frozen=True)
class TrialData:
    train: Dataset       # fit portion (val already carved off)
    validation: Dataset
    test: Dataset
    phi: np.ndarray      # P x LATENT_DIM, orthonormal columns
    beta: np.ndarray     # P ground-truth coefficient vector


def random_orthogonal(p: int, seed) -> np.ndarray:
    """Haar-distributed orthogonal matrix, reproducible from the seed."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return _haar(np.random.default_rng(seed), p)


def _haar(rng: np.random.Generator, p: int) -> np.ndarray:
    a = rng.standard_normal((p, p))
    q, r = np.linalg.qr(a)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


def _phi_columns(v: np.ndarray, alignment: str, latent_dim: int,
                 rng: np.random.Generator) -> np.ndarray:
    p = v.shape[0]
    if alignment == "well":
        return v[:, :latent_dim].copy()
    if alignment == "mis":
        return v[:, latent_dim:2 * latent_dim].copy()
    # partial: every second eigenvector from the misaligned block plus random
    # unit vectors orthogonal to them and to each other (but free to overlap
    # the remaining eigenvectors)
    eig_idx = list(range(latent_dim, 2 * latent_dim, 2))
    cols = [v[:, j].copy() for j in eig_idx]
    for _ in range(latent_dim - len(eig_idx)):
        g = rng.standard_normal(p)
        for c in cols:
            g -= (c @ g) * c
        g /= np.linalg.norm(g)
        cols.append(g)
    return np.column_stack(cols)


def generate_trial(spec: TrialSpec) -> TrialData:
    """Draw one trial: covariance from the spectrum and a random eigenbasis,
    Gaussian rows, and y = X Phi alpha + noise with alpha all ones.

    The validation split is the last VAL_FRACTION of the training budget;
    the returned train set is the remaining fit portion.
    """
    rng = np.random.default_rng(spec.seed)
    p = spec.spectrum.p
    lam = spec.spectrum.eigenvalues()
    v = _haar(rng, p)
    phi = _phi_columns(v, spec.alignment, LATENT_DIM, rng)
    beta = phi @ np.ones(LATENT_DIM)
    sqrt_lam = np.sqrt(lam)

    def draw(n: int) -> Dataset:
        x = (rng.standard_normal((n, p)) * sqrt_lam) @ v.T
        y = x @ beta + rng.standard_normal(n) * spec.sigma
        return Dataset(x, y)

    full = draw(spec.n_train)
    test = draw(spec.n_test)
    n_fit, _ = spec.split
    train = Dataset(full.X[:n_fit], full.y[:n_fit])
    val = Dataset(full.X[n_fit:], full.y[n_fit:])
    return TrialData(train=train, validation=val, test=test, phi=phi, beta=beta)


# ---------------------------------------------------------------------------
# Benchmark runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchConfig:
    methods: tuple = DEFAULT_METHODS
    spectra: tuple = SPECTRUM_KINDS
    alignments: tuple = ALIGNMENT_KINDS
    train_sizes: tuple = (150, 1500)
    n_trials: int = 20
    k: int = 15
    n_test: int = 10000
    noise_sigma: float | None = None
    gamma_grid: tuple = DEFAULT_GAMMA_GRID
    seed: int = 0

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("trial count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.k < 1:  # K above P fails per trial, with the fit's error
            raise ValueError(f"K must be >= 1, got {self.k}")
        check_methods(self.methods)
        check_gamma_grid(self.gamma_grid)
        # a bad setting is refused here, not when its first trial is drawn
        for spectrum, alignment, n_train in product(
                self.spectra, self.alignments, self.train_sizes):
            TrialSpec(SpectrumSpec(spectrum), alignment, n_train, seed=0)


@dataclass
class TrialRecord:
    trial: int
    seed: int
    train_mse: float | None
    test_mse: float | None
    hyperparams: dict = field(default_factory=dict)
    error: str | None = None


@dataclass
class MethodSummary:
    method: str
    mean_train_mse: float | None
    mean_test_mse: float | None
    n_ok: int
    n_failed: int
    trials: list[TrialRecord] = field(default_factory=list)


@dataclass
class SettingReport:
    spectrum: str
    alignment: str
    n_train: int
    methods: list[MethodSummary] = field(default_factory=list)


@dataclass
class BenchReport:
    config: dict
    settings: list[SettingReport] = field(default_factory=list)
    notes: tuple = (
        "validation split carved from the last 20% of the training budget; "
        "all methods fit on the remaining portion",
        "MSE reported in original response units (centering shift cancels)",
    )


def trial_seed(master_seed: int, *indices: int) -> int:
    ss = np.random.SeedSequence([int(master_seed), *[int(i) for i in indices]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _centered_views(trial: TrialData) -> tuple[Dataset, Dataset, Dataset]:
    transform = fit_centering(trial.train)
    return tuple(center_dataset(d, transform)
                 for d in (trial.train, trial.validation, trial.test))


def run_benchmark(config: BenchConfig) -> BenchReport:
    """Run the full trial grid; per-method failures are recorded, never
    silently dropped.  Fully deterministic given the master seed."""
    report = BenchReport(config={
        "methods": list(config.methods), "spectra": list(config.spectra),
        "alignments": list(config.alignments),
        "train_sizes": list(config.train_sizes), "n_trials": config.n_trials,
        "k": config.k, "n_test": config.n_test, "seed": config.seed,
        "score": "pearson",
        "gamma_grid": [repr(g) for g in config.gamma_grid],
    })
    for si, spectrum_kind in enumerate(config.spectra):
        spectrum = SpectrumSpec(spectrum_kind)
        for ai, alignment in enumerate(config.alignments):
            for ni, n_train in enumerate(config.train_sizes):
                setting = SettingReport(spectrum_kind, alignment, n_train)
                per_method = {m: MethodSummary(m, None, None, 0, 0)
                              for m in config.methods}
                for t in range(config.n_trials):
                    seed = trial_seed(config.seed, si, ai, ni, t)
                    spec = TrialSpec(spectrum=spectrum, alignment=alignment,
                                     n_train=n_train, n_test=config.n_test,
                                     noise_sigma=config.noise_sigma, seed=seed)
                    trial = generate_trial(spec)
                    train, val, test = _centered_views(trial)
                    for m in config.methods:
                        per_method[m].trials.append(TrialRecord(t, seed, *attempt_fit(
                            lambda: fit_method(m, train, val, config.k,
                                               gamma_grid=config.gamma_grid),
                            train, test)))
                for m in config.methods:
                    summary = per_method[m]
                    ok = [r for r in summary.trials if r.error is None]
                    summary.n_ok, summary.n_failed = len(ok), len(summary.trials) - len(ok)
                    if ok:
                        summary.mean_train_mse = float(np.mean([r.train_mse for r in ok]))
                        summary.mean_test_mse = float(np.mean([r.test_mse for r in ok]))
                    setting.methods.append(summary)
                report.settings.append(setting)
    return report


# ---------------------------------------------------------------------------
# Report serialization (deterministic byte-for-byte under a fixed seed)
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("spectrum", "alignment", "n_train", "method",
               "mean_train_mse", "mean_test_mse", "n_trials", "n_failed")


def report_to_csv(report: BenchReport) -> str:
    return csv_text(CSV_COLUMNS, (
        (s.spectrum, s.alignment, s.n_train, m.method, m.mean_train_mse,
         m.mean_test_mse, m.n_ok, m.n_failed)
        for s in report.settings for m in s.methods))


def report_to_json(report: BenchReport) -> str:
    return json.dumps({"config": report.config, "notes": list(report.notes),
                       "settings": [asdict(s) for s in report.settings]},
                      indent=1)


def report_to_table(report: BenchReport) -> str:
    """Human-readable methods x settings table, 'train / test' cells."""
    out = []
    for spectrum in dict.fromkeys(s.spectrum for s in report.settings):
        rows = [s for s in report.settings if s.spectrum == spectrum]
        headers = [f"{s.alignment}/{s.n_train}" for s in rows]
        methods = [m.method for m in rows[0].methods]
        width = max(14, *(len(h) + 2 for h in headers))
        out.append(f"== spectrum: {spectrum} (cells: train / test MSE) ==")
        out.append("method".ljust(10) + "".join(h.rjust(width) for h in headers))
        for method in methods:
            cells = []
            for s in rows:
                summary = next(m for m in s.methods if m.method == method)
                if summary.mean_test_mse is None:
                    cells.append("failed".rjust(width))
                else:
                    cells.append(f"{summary.mean_train_mse:.3f} / "
                                 f"{summary.mean_test_mse:.3f}".rjust(width))
            out.append(method.ljust(10) + "".join(cells))
        out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Balance-parameter sweep (paired trials)
# ---------------------------------------------------------------------------

#: Methods on the sweep, in the row order of the written curves.
SWEEP_METHODS = ("lspca", "barshan", "pls")


@dataclass(frozen=True)
class SweepConfig:
    spectrum: str = "slow"
    alignments: tuple = ALIGNMENT_KINDS
    n_train: int = 150
    n_trials: int = 10
    k: int = 15
    n_test: int = 10000
    grid: tuple = DEFAULT_SWEEP_GRID
    seed: int = 0

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("trial count must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        spectrum = SpectrumSpec(self.spectrum)
        if not 1 <= self.k <= spectrum.p:
            raise ValueError(f"K must lie in [1, {spectrum.p}], got {self.k}")
        for alignment in self.alignments:
            TrialSpec(spectrum, alignment, self.n_train, seed=0)
        check_gamma_grid(self.grid)
        for name in SWEEP_METHODS:  # each is fitted at every grid point
            inside = METHODS[name].tuning_grid(self.grid)
            if len(inside) < len(self.grid):
                outside = [g for g in self.grid if g not in inside]
                raise ValueError(f"gamma {outside} lies outside the domain "
                                 f"{METHODS[name].gamma} of {name}")


@dataclass
class SweepCurves:
    alignment: str
    gammas: list
    test_mse: dict          # method -> list of mean test MSEs, one per gamma
    pca_ref: float
    ols_ref: float


def gamma_sweep(config: SweepConfig) -> list[SweepCurves]:
    """Test-MSE curves over the gamma grid for the three balanced methods.

    The same trial datasets are reused across every gamma (paired design);
    PCA and OLS references come from the identical trials.
    """
    spectrum = SpectrumSpec(config.spectrum)
    curves = []
    for ai, alignment in enumerate(config.alignments):
        trials = []
        for t in range(config.n_trials):
            seed = trial_seed(config.seed, ai, t)
            spec = TrialSpec(spectrum=spectrum, alignment=alignment,
                             n_train=config.n_train, n_test=config.n_test,
                             seed=seed)
            trials.append(_centered_views(generate_trial(spec)))
        refs = {}
        for name in ("pca", "ols"):
            vals = [fit_method(name, train, val, config.k).evaluate(test)
                    for train, val, test in trials]
            refs[name] = float(np.mean(vals))
        per_method = {}
        for name in SWEEP_METHODS:
            # test MSE per trial (rows) and gamma (columns)
            vals = [[with_model(name, reducer, train).evaluate(test)
                     for reducer in METHODS[name].fit(train, config.k,
                                                      config.grid)]
                    for train, _, test in trials]
            per_method[name] = [float(np.mean(col)) for col in zip(*vals)]
        curves.append(SweepCurves(alignment=alignment,
                                  gammas=[float(g) for g in config.grid],
                                  test_mse=per_method,
                                  pca_ref=refs["pca"], ols_ref=refs["ols"]))
    return curves


def sweep_to_csv(curves: list[SweepCurves]) -> tuple[str, str]:
    """(curve rows, reference rows) as CSV text."""
    rows = [(method, c.alignment, gamma, value)
            for c in curves for method, series in c.test_mse.items()
            for gamma, value in zip(c.gammas, series)]
    refs = [(name, c.alignment, value) for c in curves
            for name, value in (("pca", c.pca_ref), ("ols", c.ols_ref))]
    return (csv_text(("method", "alignment", "gamma", "test_mse"), rows),
            csv_text(("method", "alignment", "test_mse"), refs))


def sweep_to_json(curves: list[SweepCurves]) -> str:
    return json.dumps([asdict(c) for c in curves], indent=1)
