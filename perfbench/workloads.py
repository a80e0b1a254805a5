"""The three benchmark workloads: how each builds its inputs from a seed, the
``sdr`` command line it runs, and how its written reports are read back and
checked.

Every workload runs through ``sdr.cli.main`` in-process, so argument parsing,
report serialization and file writes are part of each measured pass.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Fixed input used by the reference check; its per-method mean test MSEs are
#: stored in reference.json.
REFERENCE_SEED = 20210909


def pass_seed(seed: int, index: int) -> int:
    """CLI seed of the index-th pass of a run started with ``seed``."""
    ss = np.random.SeedSequence([int(seed), int(index)])
    return int(ss.generate_state(1, dtype=np.uint32)[0] >> 1)


@dataclass
class PassResult:
    """What one pass wrote, reduced to the numbers the benchmark checks."""

    attempted: int                        # fits the pass was asked to make
    failed: int                           # fits that raised or never ran
    test_mse: dict = field(default_factory=dict)   # method -> list of MSEs
    problems: list = field(default_factory=list)   # failed output checks
    files: dict = field(default_factory=dict)      # file name -> bytes
    extra: dict = field(default_factory=dict)      # workload-specific values


def _read_files(out: Path, names) -> tuple[dict, list]:
    files, problems = {}, []
    for name in names:
        path = out / name
        if path.is_file():
            files[name] = path.read_bytes()
        else:
            problems.append(f"missing output {name}")
    return files, problems


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(data.decode("utf-8").splitlines()))


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _same(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# simulate-p100
# ---------------------------------------------------------------------------

class Simulate:
    """One fast-spectrum, misaligned P=100 trial per pass, all nine methods,
    gamma tuned over 17 points: P-cubic eigensolves and Stiefel retractions
    at small N."""

    name = "simulate-p100"
    trials = 1
    min_passes = 8
    outputs = ("report.csv", "report.json", "table.txt")

    def prepare(self, seed: int, work: Path):
        return None

    def argv(self, cli_seed: int, out: Path, inputs) -> list[str]:
        return ["simulate", "--spectrum", "fast", "--alignment", "mis",
                "--ntrain", "150", "--trials", str(self.trials),
                "--methods", "all", "--seed", str(cli_seed), "--out", str(out)]

    def expected_fits(self) -> int:
        return 9 * self.trials

    def read(self, out: Path) -> PassResult:
        files, problems = _read_files(out, self.outputs)
        res = PassResult(attempted=self.expected_fits(), failed=0,
                         files=files, problems=problems)
        if problems:
            res.failed = res.attempted
            return res
        doc = json.loads(files["report.json"])
        csv_rows = _csv_rows(files["report.csv"])
        settings = doc["settings"]
        if len(settings) != 1 or len(settings[0]["methods"]) != 9:
            problems.append("report does not hold one setting of nine methods")
            res.failed = res.attempted
            return res
        if len(csv_rows) != 9:
            problems.append(f"report.csv has {len(csv_rows)} rows, expected 9")
        if not files["table.txt"].strip():
            problems.append("table.txt is empty")
        for summary, row in zip(settings[0]["methods"], csv_rows):
            m = summary["method"]
            trials = summary["trials"]
            if len(trials) != self.trials or summary["n_ok"] + summary["n_failed"] != self.trials:
                problems.append(f"{m}: trial records do not add up")
            for rec in trials:
                if rec["error"] is not None:
                    res.failed += 1
                    continue
                if not (_finite(rec["test_mse"]) and _finite(rec["train_mse"])):
                    problems.append(f"{m}: non-finite MSE in trial {rec['trial']}")
                    continue
                res.test_mse.setdefault(m, []).append(rec["test_mse"])
            mean = summary["mean_test_mse"]
            if row["method"] != m or (mean is not None and not _same(float(row["mean_test_mse"]), mean)):
                problems.append(f"{m}: report.csv disagrees with report.json")
        return res

    def check_run(self, results: list[PassResult]) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# sweep-gamma
# ---------------------------------------------------------------------------

class SweepGamma:
    """Two paired slow-spectrum, misaligned trials per pass, lspca, barshan
    and pls on a 21-point gamma grid: no tuning, and pv, bair and sppca never
    run."""

    name = "sweep-gamma"
    trials = 2
    min_passes = 5
    grid_points = 21
    outputs = ("gamma_curves.csv", "gamma_refs.csv", "gamma_curves.json")

    def prepare(self, seed: int, work: Path):
        return None

    def argv(self, cli_seed: int, out: Path, inputs) -> list[str]:
        return ["sweep-gamma", "--spectrum", "slow", "--alignment", "mis",
                "--ntrain", "150", "--trials", str(self.trials),
                "--seed", str(cli_seed), "--out", str(out)]

    def expected_fits(self) -> int:
        # three balanced methods on every grid point, plus the PCA and OLS
        # references, each on every trial
        return self.trials * (3 * self.grid_points + 2)

    def read(self, out: Path) -> PassResult:
        files, problems = _read_files(out, self.outputs)
        res = PassResult(attempted=self.expected_fits(), failed=0,
                         files=files, problems=problems)
        if problems:
            res.failed = res.attempted
            return res
        curves = json.loads(files["gamma_curves.json"])
        rows = _csv_rows(files["gamma_curves.csv"])
        refs = _csv_rows(files["gamma_refs.csv"])
        if len(curves) != 1 or len(curves[0]["gammas"]) != self.grid_points:
            problems.append("sweep does not hold one 21-point curve set")
            res.failed = res.attempted
            return res
        c = curves[0]
        if len(rows) != 3 * self.grid_points or len(refs) != 2:
            problems.append("gamma CSV row counts are wrong")
        by_key = {(r["method"], float(r["gamma"])): float(r["test_mse"]) for r in rows}
        for m in ("lspca", "barshan", "pls"):
            series = c["test_mse"].get(m, [])
            if len(series) != self.grid_points or not all(map(_finite, series)):
                problems.append(f"{m}: curve is incomplete or non-finite")
                continue
            if any(not _same(by_key.get((m, g), math.nan), v)
                   for g, v in zip(c["gammas"], series)):
                problems.append(f"{m}: gamma_curves.csv disagrees with the JSON")
            res.test_mse[m] = list(series)
        for ref in ("pca", "ols"):
            value = c[f"{ref}_ref"]
            if not _finite(value):
                problems.append(f"{ref} reference is not finite")
                continue
            res.test_mse[ref] = [value]
        res.extra = {"largest": {m: c["test_mse"][m][-1] for m in res.test_mse
                                 if m not in ("pca", "ols")},
                     "lspca_smallest": c["test_mse"].get("lspca", [math.nan])[0],
                     "pca_ref": c["pca_ref"], "ols_ref": c["ols_ref"]}
        return res

    def check_run(self, results: list[PassResult]) -> list[str]:
        """Acceptance criterion 4 on the trials of all passes pooled: the
        largest-gamma curves lie within 5% of the PCA reference and the
        smallest-gamma LSPCA point within 25% of OLS.  (Pooled, because two
        trials alone can stray past 5%; the test suite checks eight.)"""
        ok = [r.extra for r in results if r.extra]
        if not ok:
            return []
        pca = float(np.mean([e["pca_ref"] for e in ok]))
        ols = float(np.mean([e["ols_ref"] for e in ok]))
        problems = []
        for m in ("lspca", "barshan", "pls"):
            largest = float(np.mean([e["largest"][m] for e in ok]))
            if abs(largest - pca) > 0.05 * pca:
                problems.append(f"criterion 4: {m} at the largest gamma is "
                                f"{100 * abs(largest - pca) / pca:.1f}% from PCA")
        smallest = float(np.mean([e["lspca_smallest"] for e in ok]))
        if abs(smallest - ols) > 0.25 * ols:
            problems.append("criterion 4: LSPCA at the smallest gamma is more "
                            "than 25% from OLS")
        return problems


# ---------------------------------------------------------------------------
# realdata-tall
# ---------------------------------------------------------------------------

#: Column names and value ranges of the UCI white-wine file.
WINE_COLUMNS = ("fixed acidity", "volatile acidity", "citric acid",
                "residual sugar", "chlorides", "free sulfur dioxide",
                "total sulfur dioxide", "density", "pH", "sulphates", "alcohol")
_WINE_LOW = np.array([3.8, 0.08, 0.0, 0.6, 0.009, 2.0, 9.0, 0.987, 2.72, 0.22, 8.0])
_WINE_SPAN = np.array([10.4, 1.02, 1.66, 65.2, 0.337, 287.0, 431.0, 0.052, 1.1, 0.86, 6.2])
#: Powers > 1 give the right skew (sugar, chlorides, SO2 have long tails).
_WINE_SKEW = np.array([1.5, 2.5, 2.0, 4.0, 4.0, 3.0, 2.0, 3.0, 1.2, 2.0, 1.3])
WINE_ROWS = 4898


def write_wine_csv(seed: int, path: Path, n: int = WINE_ROWS) -> None:
    """Write a seeded, wine-shaped CSV: ';'-delimited, quoted header, eleven
    skewed positive features on very different scales (so the [0,1] scaling
    matters) and an integer-graded response column ``quality``.

    Features are a Gaussian copula: correlated normal scores, mapped to
    uniforms and raised to a per-column power inside each column's range.
    The correlation and response direction are fixed; only the sample
    depends on the seed.  The latent eigenvalues fall by a factor of 0.4
    per component: with flatter spectra SPPCA's EM runs into its iteration
    cap at some K and not at others, depending on the sample, and the cost
    of a pass swings with the seed.
    """
    p = len(WINE_COLUMNS)
    basis = np.linalg.qr(np.random.default_rng(0).standard_normal((p, p)))[0]
    lam = 0.4 ** np.arange(p)
    scale = np.sqrt((basis ** 2) @ lam)
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, p)) * np.sqrt(lam)) @ basis.T / scale
    uniform = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
    x = _WINE_LOW + _WINE_SPAN * uniform ** _WINE_SKEW
    w = basis[:, 1] + basis[:, 3]
    score = z @ w / np.linalg.norm(w)
    quality = np.clip(np.rint(5.9 + 1.5 * score + 0.6 * rng.standard_normal(n)), 3, 9)
    lines = [";".join(f'"{c}"' for c in WINE_COLUMNS + ("quality",))]
    lines += [";".join(f"{v:.6g}" for v in row) + f";{int(q)}"
              for row, q in zip(x, quality)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class RealDataTall:
    """K=1..11 for all methods on a seeded wine-shaped CSV (N=4898, P=11):
    CSV ingest, [0,1] scaling, EM over 3,135 fit rows and 11x11 problems."""

    name = "realdata-tall"
    k_max = len(WINE_COLUMNS)
    min_passes = 5
    outputs = ("curves.csv", "spectrum.csv", "real_data.json")

    def prepare(self, seed: int, work: Path) -> Path:
        path = work / f"wine-{seed}.csv"
        write_wine_csv(seed, path)
        return path

    def argv(self, cli_seed: int, out: Path, inputs: Path) -> list[str]:
        return ["real-data", "--data", str(inputs), "--response", "quality",
                "--delimiter", ";", "--methods", "all", "--k", "1",
                "--k-max", str(self.k_max), "--seed", str(cli_seed),
                "--out", str(out)]

    def expected_fits(self) -> int:
        return 9 * self.k_max

    def read(self, out: Path) -> PassResult:
        files, problems = _read_files(out, self.outputs)
        res = PassResult(attempted=self.expected_fits(), failed=0,
                         files=files, problems=problems)
        if problems:
            res.failed = res.attempted
            return res
        doc = json.loads(files["real_data.json"])
        rows = _csv_rows(files["curves.csv"])
        points = doc["points"]
        if len(points) != res.attempted or len(rows) != res.attempted:
            problems.append(f"{len(points)} curve points, expected {res.attempted}")
        if doc["n_train"] + doc["n_test"] != WINE_ROWS:
            problems.append("train and test rows do not add up to the file")
        spectrum = doc["spectrum"]
        if (len(spectrum) != self.k_max or not all(map(_finite, spectrum))
                or any(a < b for a, b in zip(spectrum, spectrum[1:]))):
            problems.append("spectrum is not 11 finite descending eigenvalues")
        by_method: dict = {}
        for pt, row in zip(points, rows):
            if pt["error"] is not None:
                res.failed += 1
                continue
            if not (_finite(pt["test_mse"]) and _finite(pt["train_mse"])):
                problems.append(f"{pt['method']} K={pt['k']}: non-finite MSE")
                continue
            if row["method"] != pt["method"] or not _same(float(row["test_mse"]), pt["test_mse"]):
                problems.append(f"{pt['method']} K={pt['k']}: curves.csv disagrees")
            by_method.setdefault(pt["method"], []).append(pt)
            res.test_mse.setdefault(pt["method"], []).append(pt["test_mse"])
        # nested PCA subspaces: training error cannot rise with K
        pca_train = [pt["train_mse"] for pt in sorted(by_method.get("pca", []), key=lambda q: q["k"])]
        if any(b > a * (1 + 1e-9) for a, b in zip(pca_train, pca_train[1:])):
            problems.append("PCA training MSE rises with K")
        # OLS ignores K
        ols = [pt["test_mse"] for pt in by_method.get("ols", [])]
        if ols and any(not _same(v, ols[0]) for v in ols):
            problems.append("OLS test MSE changes with K")
        return res

    def check_run(self, results: list[PassResult]) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Simulate(), SweepGamma(), RealDataTall())}
