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
from .linalg import orthonormalize
from .methods import (DEFAULT_GAMMA_GRID, DEFAULT_METHODS, METHODS,
                      VAL_FRACTION, attempt_fit, check_gamma_grid,
                      check_methods, fit_method, unwrap, with_model)

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

#: Rows in every trial's test split.
N_TEST = 10000


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


@dataclass(frozen=True)
class TrialData:
    train: Dataset       # fit portion (val already carved off)
    validation: Dataset
    test: Dataset
    phi: np.ndarray      # P x LATENT_DIM, orthonormal columns
    beta: np.ndarray     # P ground-truth coefficient vector


def _phi_columns(v: np.ndarray, alignment: str,
                 rng: np.random.Generator) -> np.ndarray:
    p = v.shape[0]
    if alignment == "well":
        return v[:, :LATENT_DIM].copy()
    if alignment == "mis":
        return v[:, LATENT_DIM:2 * LATENT_DIM].copy()
    # partial: every second eigenvector from the misaligned block plus random
    # unit vectors orthogonal to them and to each other (but free to overlap
    # the remaining eigenvectors)
    eig_idx = list(range(LATENT_DIM, 2 * LATENT_DIM, 2))
    cols = [v[:, j].copy() for j in eig_idx]
    for _ in range(LATENT_DIM - len(eig_idx)):
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
    the returned train set is the remaining fit portion.  The test split
    has N_TEST rows.
    """
    rng = np.random.default_rng(spec.seed)
    p = spec.spectrum.p
    lam = spec.spectrum.eigenvalues()
    v = orthonormalize(rng.standard_normal((p, p)))  # Haar-distributed
    phi = _phi_columns(v, spec.alignment, rng)
    beta = phi @ np.ones(LATENT_DIM)
    sqrt_lam = np.sqrt(lam)

    def draw(n: int) -> Dataset:
        x = (rng.standard_normal((n, p)) * sqrt_lam) @ v.T
        y = x @ beta + rng.standard_normal(n) * spec.spectrum.noise_sigma
        return Dataset(x, y)

    full = draw(spec.n_train)
    test = draw(N_TEST)
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


#: The notes every report.json carries.
REPORT_NOTES = (
    "validation split carved from the last 20% of the training budget; "
    "all methods fit on the remaining portion",
    "MSE reported in original response units (centering shift cancels)",
)


@dataclass
class BenchReport:
    config: dict
    settings: list[SettingReport] = field(default_factory=list)


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
        "k": config.k, "n_test": N_TEST, "seed": config.seed,
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
                    trial = generate_trial(
                        TrialSpec(spectrum, alignment, n_train, seed))
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
    return json.dumps({"config": report.config, "notes": list(REPORT_NOTES),
                       "settings": [asdict(s) for s in report.settings]},
                      indent=1)


def report_to_table(report: BenchReport) -> str:
    """Human-readable methods x settings table, 'train / test' cells.  Each
    column is as wide as its widest cell or header plus two, and at least
    14, so no two cells touch."""
    out = []
    for spectrum in dict.fromkeys(s.spectrum for s in report.settings):
        rows = [s for s in report.settings if s.spectrum == spectrum]
        methods = [m.method for m in rows[0].methods]
        columns = []  # per setting: header, then one cell per method
        for s in rows:
            column = [f"{s.alignment}/{s.n_train}"]
            for method in methods:
                summary = next(m for m in s.methods if m.method == method)
                column.append("failed" if summary.mean_test_mse is None else
                              f"{summary.mean_train_mse:.3f} / "
                              f"{summary.mean_test_mse:.3f}")
            width = max(14, *(len(cell) + 2 for cell in column))
            columns.append([cell.rjust(width) for cell in column])
        out.append(f"== spectrum: {spectrum} (cells: train / test MSE) ==")
        for label, cells in zip(["method"] + methods, zip(*columns)):
            out.append(label.ljust(10) + "".join(cells))
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
            spec = TrialSpec(spectrum, alignment, config.n_train, seed)
            trials.append(_centered_views(generate_trial(spec)))
        refs = {}
        for name in ("pca", "ols"):
            vals = [fit_method(name, train, val, config.k).evaluate(test)
                    for train, val, test in trials]
            refs[name] = float(np.mean(vals))
        per_method = {}
        for name in SWEEP_METHODS:
            # test MSE per trial (rows) and gamma (columns)
            vals = [[with_model(reducer, train).evaluate(test)
                     for reducer in unwrap(METHODS[name].fit(
                         train, [config.k], config.grid)[config.k])]
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
