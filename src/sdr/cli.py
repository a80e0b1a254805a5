"""Command-line front door: synthetic benchmarks, balance-parameter sweeps,
real-data evaluation, and the brute-force oracle battery.

Every setting is a flag.  ``--config file.json`` stands for the flags its
flat object names (``{"k": 3}`` is ``--k=3``), placed before the command
line's own, so an explicit flag wins; SDR_SEED is the seed fallback.  A
command passes on only the settings that were given: defaults and value
checks belong to the library configs.  Exit codes: 0 success, 1 oracle or
run failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .data import IngestError
from .realdata import (RealDataConfig, curves_to_csv, result_to_json,
                       run_real_data, spectrum_to_csv)
from .simulation import (BenchConfig, SweepConfig, gamma_sweep, report_to_csv,
                         report_to_json, report_to_table, run_benchmark,
                         sweep_to_csv, sweep_to_json)

_ALIGNMENT_ALIASES = {"well-aligned": "well", "misaligned": "mis",
                      "partially-aligned": "partial"}


class ConfigError(ValueError):
    pass


def _names(text: str) -> tuple:
    """A comma-separated list, blanks dropped."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _methods(text: str) -> tuple | None:
    """A method list; 'all' keeps the config's default, every method."""
    return None if text.strip() == "all" else _names(text)


def _gammas(text: str) -> tuple:
    try:
        return tuple(float(s) for s in _names(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid gamma grid {text!r}") from None


def _alignment(text: str) -> str:
    return _ALIGNMENT_ALIASES.get(text, text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdr",
        description="Supervised linear dimension-reduction benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--seed", type=int, default=os.environ.get("SDR_SEED"))
        p.add_argument("--out", default="sdr-out", help="output directory")
        p.add_argument("--config", help="flat key-value JSON config file")
        return p

    sim = command("simulate", "multi-trial synthetic benchmark")
    sim.add_argument("--methods", type=_methods,
                     help="comma-separated method names, or 'all'")
    sweep = command("sweep-gamma", "paired-trial gamma curves")
    for p in (sim, sweep):
        p.add_argument("--trials", type=int)
        p.add_argument("--spectrum", help="fast or slow")
        p.add_argument("--alignment", type=_alignment,
                       help="well, mis or partial, or their long names "
                            f"{', '.join(_ALIGNMENT_ALIASES)}")
        p.add_argument("--ntrain", type=int, help="training rows per trial")
        p.add_argument("--k", type=int)
        p.add_argument("--gamma-grid", type=_gammas,
                       help="comma-separated gamma grid (inf allowed)")

    real = command("real-data", "K sweep on a CSV dataset")
    real.add_argument("--data", help="path to the CSV file")
    real.add_argument("--response", help="response column name")
    real.add_argument("--delimiter")
    real.add_argument("--drop", type=_names,
                      help="comma-separated columns to exclude")
    real.add_argument("--methods", type=_methods)
    real.add_argument("--k", type=int, help="smallest K")
    real.add_argument("--k-max", type=int, help="largest K")
    real.add_argument("--gamma-grid", type=_gammas)

    oracle = sub.add_parser("oracle-check", help="run the brute-force oracles",
                            allow_abbrev=False)
    oracle.add_argument("--inject-perturbation", action="store_true",
                        help=argparse.SUPPRESS)  # negative-control test hook
    return parser


def _config_flags(path: str) -> list[str]:
    """The flags a flat JSON config file stands for: ``{"k": 3}`` is
    ``--k=3``, a list is comma-joined, and null leaves the flag unset."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a flat JSON object")
    flags = []
    for key, value in doc.items():
        if value is not None:
            items = value if isinstance(value, list) else [value]
            flags.append(f"--{key}=" + ",".join(
                v if isinstance(v, str) else json.dumps(v) for v in items))
    return flags


def _one(value) -> tuple | None:
    return None if value is None else (value,)


def _config(make, **settings):
    """``make`` called with the settings that were given, a bad value among
    them reported as a usage error."""
    try:
        return make(**{k: v for k, v in settings.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _cmd_simulate(args) -> int:
    config = _config(BenchConfig, methods=args.methods,
                     spectra=_one(args.spectrum),
                     alignments=_one(args.alignment),
                     train_sizes=_one(args.ntrain), n_trials=args.trials,
                     k=args.k, gamma_grid=args.gamma_grid, seed=args.seed)
    out = _out_dir(args)
    report = run_benchmark(config)
    (out / "report.csv").write_text(report_to_csv(report), encoding="utf-8")
    (out / "report.json").write_text(report_to_json(report), encoding="utf-8")
    table = report_to_table(report)
    (out / "table.txt").write_text(table, encoding="utf-8")
    print(table)
    print(f"reports written to {out}")
    return 0


def _cmd_sweep(args) -> int:
    config = _config(SweepConfig, spectrum=args.spectrum,
                     alignments=_one(args.alignment), n_train=args.ntrain,
                     n_trials=args.trials, k=args.k, grid=args.gamma_grid,
                     seed=args.seed)
    out = _out_dir(args)
    curves = gamma_sweep(config)
    curve_csv, ref_csv = sweep_to_csv(curves)
    (out / "gamma_curves.csv").write_text(curve_csv, encoding="utf-8")
    (out / "gamma_refs.csv").write_text(ref_csv, encoding="utf-8")
    (out / "gamma_curves.json").write_text(sweep_to_json(curves), encoding="utf-8")
    print(f"sweep curves written to {out}")
    return 0


def _cmd_real_data(args) -> int:
    if not args.data or not args.response:
        raise ConfigError("real-data requires --data and --response")
    config = _config(RealDataConfig, path=args.data, response=args.response,
                     delimiter=args.delimiter, drop=args.drop,
                     methods=args.methods, k_min=args.k, k_max=args.k_max,
                     gamma_grid=args.gamma_grid, seed=args.seed)
    try:
        result = run_real_data(config)
    except (IngestError, OSError) as exc:  # input that cannot be read or split
        raise ConfigError(str(exc)) from exc
    out = _out_dir(args)
    (out / "curves.csv").write_text(curves_to_csv(result), encoding="utf-8")
    (out / "spectrum.csv").write_text(spectrum_to_csv(result), encoding="utf-8")
    (out / "real_data.json").write_text(result_to_json(result), encoding="utf-8")
    print(f"curves for {result.n_train} train / {result.n_test} test rows "
          f"written to {out}")
    return 0


def _cmd_oracle_check(args) -> int:
    from .oracles import run_oracles
    results = run_oracles(inject_perturbation=args.inject_perturbation)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the command name, the file's flags, then the command line's
            args = parser.parse_args(
                argv[:1] + _config_flags(args.config) + argv[1:])
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse uses code 2 for usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
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
