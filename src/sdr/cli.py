"""Command-line front door: synthetic benchmarks, balance-parameter sweeps,
real-data evaluation, and the brute-force oracle battery.

Option precedence: command-line flags override config-file values override
defaults; SDR_SEED is the seed fallback.  Exit codes: 0 success, 1 oracle or
run failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .data import IngestError
from .methods import DEFAULT_GAMMA_GRID, DEFAULT_METHODS, METHODS
from .realdata import (RealDataConfig, curves_to_csv, result_to_json,
                       run_real_data, spectrum_to_csv)
from .simulation import (ALIGNMENT_KINDS, DEFAULT_SWEEP_GRID, SPECTRUM_KINDS,
                         BenchConfig, SweepConfig, gamma_sweep, report_to_csv,
                         report_to_json, report_to_table, run_benchmark,
                         sweep_to_csv, sweep_to_json)

_ALIGNMENT_ALIASES = {
    "well": "well", "well-aligned": "well",
    "mis": "mis", "misaligned": "mis",
    "partial": "partial", "partially-aligned": "partial",
}


class ConfigError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdr",
        description="Supervised linear dimension-reduction benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--config", default=None,
                       help="flat key-value JSON config file")

    sim = sub.add_parser("simulate", help="multi-trial synthetic benchmark")
    common(sim)
    sim.add_argument("--methods", default=None,
                     help="comma-separated method names, or 'all'")
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--spectrum", choices=SPECTRUM_KINDS, default=None,
                     help="restrict to one spectrum (default: both)")
    sim.add_argument("--alignment", choices=sorted(_ALIGNMENT_ALIASES),
                     default=None, help="restrict to one alignment case")
    sim.add_argument("--ntrain", type=int, choices=(150, 1500), default=None,
                     help="restrict to one training size")
    sim.add_argument("--k", type=int, default=None)
    sim.add_argument("--gamma-grid", default=None,
                     help="comma-separated tuning grid (inf allowed)")

    sweep = sub.add_parser("sweep-gamma", help="paired-trial gamma curves")
    common(sweep)
    sweep.add_argument("--trials", type=int, default=None)
    sweep.add_argument("--spectrum", choices=SPECTRUM_KINDS, default=None)
    sweep.add_argument("--alignment", choices=sorted(_ALIGNMENT_ALIASES),
                       default=None)
    sweep.add_argument("--ntrain", type=int, choices=(150, 1500), default=None)
    sweep.add_argument("--k", type=int, default=None)
    sweep.add_argument("--gamma-grid", default=None)

    real = sub.add_parser("real-data", help="K sweep on a CSV dataset")
    common(real)
    real.add_argument("--data", default=None, help="path to the CSV file")
    real.add_argument("--response", default=None, help="response column name")
    real.add_argument("--delimiter", default=None)
    real.add_argument("--drop", default=None,
                      help="comma-separated columns to exclude")
    real.add_argument("--methods", default=None)
    real.add_argument("--k", type=int, default=None, help="smallest K")
    real.add_argument("--k-max", type=int, default=None, help="largest K")
    real.add_argument("--gamma-grid", default=None)

    oracle = sub.add_parser("oracle-check", help="run the brute-force oracles")
    common(oracle)
    oracle.add_argument("--inject-perturbation", action="store_true",
                        help=argparse.SUPPRESS)  # negative-control test hook
    return parser


class _Options:
    """Flag > config-file > default resolution."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.file: dict = {}
        path = self.args.get("config")
        if path:
            try:
                with open(path, encoding="utf-8") as fh:
                    self.file = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config file {path}: {exc}") from exc
            if not isinstance(self.file, dict):
                raise ConfigError("config file must hold a flat JSON object")

    def get(self, key: str, default=None):
        cli = self.args.get(key.replace("-", "_"))
        if cli is not None:
            return cli
        if key in self.file:
            return self.file[key]
        return default

    def seed(self) -> int:
        value = self.get("seed")
        if value is None:
            value = os.environ.get("SDR_SEED", 0)
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"invalid seed {value!r}") from None


def _parse_methods(raw) -> tuple:
    if raw is None:
        return DEFAULT_METHODS
    if isinstance(raw, (list, tuple)):
        names = [str(m).strip() for m in raw]
    else:
        names = [m.strip() for m in str(raw).split(",")]
        if len(names) == 1 and names[0] == "all":
            return DEFAULT_METHODS
    names = [n for n in names if n]
    if not names:
        raise ConfigError("method list is empty")
    unknown = [n for n in names if n not in METHODS]
    if unknown:
        raise ConfigError(f"unknown methods {unknown}; "
                          f"choose from {', '.join(METHODS)}")
    return tuple(names)


def _parse_gammas(raw, default) -> tuple:
    if raw is None:
        return default
    items = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
    grid = []
    for item in items:
        text = str(item).strip().lower()
        if not text:
            continue
        try:
            grid.append(math.inf if text in ("inf", "infinity") else float(text))
        except ValueError:
            raise ConfigError(f"invalid gamma value {item!r}") from None
    if not grid:
        raise ConfigError("gamma grid is empty")
    if any(g < 0 or math.isnan(g) for g in grid):
        raise ConfigError("gamma values must be >= 0")
    return tuple(grid)


def _alignments(opt) -> tuple:
    raw = opt.get("alignment")
    if raw is None:
        return ALIGNMENT_KINDS
    key = str(raw).lower()
    if key not in _ALIGNMENT_ALIASES:
        raise ConfigError(f"unknown alignment {raw!r}")
    return (_ALIGNMENT_ALIASES[key],)


def _out_dir(opt) -> Path:
    out = Path(opt.get("out", "sdr-out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _cmd_simulate(args) -> int:
    opt = _Options(args)
    spectrum = opt.get("spectrum")
    ntrain = opt.get("ntrain")
    try:
        config = BenchConfig(
            methods=_parse_methods(opt.get("methods")),
            spectra=(spectrum,) if spectrum else SPECTRUM_KINDS,
            alignments=_alignments(opt),
            train_sizes=(int(ntrain),) if ntrain else (150, 1500),
            n_trials=int(opt.get("trials", 20)),
            k=int(opt.get("k", 15)),
            gamma_grid=_parse_gammas(opt.get("gamma-grid"), DEFAULT_GAMMA_GRID),
            seed=opt.seed(),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_dir(opt)
    report = run_benchmark(config)
    (out / "report.csv").write_text(report_to_csv(report), encoding="utf-8")
    (out / "report.json").write_text(report_to_json(report), encoding="utf-8")
    table = report_to_table(report)
    (out / "table.txt").write_text(table, encoding="utf-8")
    print(table)
    print(f"reports written to {out}")
    return 0


def _cmd_sweep(args) -> int:
    opt = _Options(args)
    try:
        config = SweepConfig(
            spectrum=opt.get("spectrum", "slow"),
            alignments=_alignments(opt),
            n_train=int(opt.get("ntrain", 150)),
            n_trials=int(opt.get("trials", 10)),
            k=int(opt.get("k", 15)),
            grid=_parse_gammas(opt.get("gamma-grid"), DEFAULT_SWEEP_GRID),
            seed=opt.seed(),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_dir(opt)
    curves = gamma_sweep(config)
    curve_csv, ref_csv = sweep_to_csv(curves)
    (out / "gamma_curves.csv").write_text(curve_csv, encoding="utf-8")
    (out / "gamma_refs.csv").write_text(ref_csv, encoding="utf-8")
    (out / "gamma_curves.json").write_text(sweep_to_json(curves), encoding="utf-8")
    print(f"sweep curves written to {out}")
    return 0


def _cmd_real_data(args) -> int:
    opt = _Options(args)
    data_path = opt.get("data")
    response = opt.get("response")
    if not data_path or not response:
        raise ConfigError("real-data requires --data and --response")
    drop_raw = opt.get("drop")
    drop = tuple(s.strip() for s in str(drop_raw).split(",") if s.strip()) if drop_raw else ()
    try:
        config = RealDataConfig(
            path=str(data_path),
            response=str(response),
            delimiter=str(opt.get("delimiter", ",")),
            drop=drop,
            methods=_parse_methods(opt.get("methods")),
            k_min=int(opt.get("k", 1)),
            k_max=int(opt.get("k-max")) if opt.get("k-max") is not None else None,
            seed=opt.seed(),
            gamma_grid=_parse_gammas(opt.get("gamma-grid"), DEFAULT_GAMMA_GRID),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_dir(opt)
    try:
        result = run_real_data(config)
    except (IngestError, FileNotFoundError) as exc:
        raise ConfigError(str(exc)) from exc
    (out / "curves.csv").write_text(curves_to_csv(result), encoding="utf-8")
    (out / "spectrum.csv").write_text(spectrum_to_csv(result), encoding="utf-8")
    (out / "real_data.json").write_text(result_to_json(result), encoding="utf-8")
    print(f"curves for {result.n_train} train / {result.n_test} test rows "
          f"written to {out}")
    return 0


def _cmd_oracle_check(args) -> int:
    from .oracles import run_oracles
    results = run_oracles(inject_perturbation=bool(args.inject_perturbation))
    failed = []
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        if not res.ok:
            failed.append(res.name)
    if failed:
        print(f"failed oracles: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep-gamma": _cmd_sweep,
    "real-data": _cmd_real_data,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses code 2 for usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # run failure, never a traceback to the shell
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
