"""Benchmark of the ``sdr`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``.

--trace 0  Runs workload passes through ``sdr.cli.main``, each on inputs
           derived from the seed, until the passes have taken S seconds.
           Prints the end-to-end metrics: wall_s (median pass), setup_s,
           peak_rss_mb, ok_frac and test_mse.
--trace 1  Runs the reference check, then four passes of one input:
           untraced, traced, traced, untraced.  Prints the per-layer metrics
           and the tracing overhead.  Self-tests: per-layer counts repeat
           exactly across the traced passes, and all four passes write
           byte-identical reports.

The load is a closed loop with one client: one pass at a time in one
process, BLAS at its default thread count (recorded, never changed).  The
last line of stdout is the result JSON; the line before it holds machine
facts and per-pass details, which are also written under .bench_work/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(Path(__file__).resolve().parent))

#: Relative tolerance on each method's mean test MSE at the reference input.
REFERENCE_RTOL = 0.02
#: Timed set-up starts after each pass.
SETUP_PER_PASS = 2


def _import_sdr():
    if not (SRC / "sdr" / "cli.py").is_file():
        raise SystemExit(f"error: no sdr package under {SRC}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import sdr.cli
    if Path(sdr.__file__).resolve().parent != SRC / "sdr":
        raise SystemExit(f"error: imported sdr from {sdr.__file__}, not {SRC}")
    return sdr.cli


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _blas_threads():
    """(library path, thread count) of the loaded OpenBLAS, if any."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return lib, int(fn())
    return None, None


def machine_facts() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {}
    lib, threads = _blas_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_library": lib,
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def setup_start(env: dict) -> float:
    """Seconds from starting a fresh interpreter until ``sdr.cli`` is
    imported, the cost every ``sdr`` invocation pays."""
    code = "import sdr.cli, time; print(repr(time.time()))"
    t0 = time.time()
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip()) - t0


def run_pass(cli, workload, argv, out: Path, tracer=None) -> tuple[float, object]:
    """One ``sdr`` invocation; returns (wall seconds, PassResult)."""
    gc.collect()  # each invocation starts without the last one's garbage
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        span = tracer.begin("cli.main") if tracer else None
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        finally:
            wall = time.perf_counter() - t0
            if span is not None:
                tracer.end(span)
    result = workload.read(out)
    if code != 0:
        result.problems.append(f"sdr exited with {code}: {stderr.getvalue().strip()}")
        result.failed = result.attempted
    shutil.rmtree(out, ignore_errors=True)
    return wall, result


def _mse_values(result) -> list[float]:
    return [v for series in result.test_mse.values() for v in series]


def timed_run(cli, workload, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    from workloads import pass_seed
    inputs = workload.prepare(seed, work)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup_start(env)  # untimed, so compiled bytecode exists
    setup, passes = [], []
    # Set-up starts are interleaved with the passes, so that both medians
    # sample the same stretch of the machine's speed.  The budget counts
    # pass time only, and a pass starts only if it is expected to end
    # within it.
    def more() -> bool:
        walls = [w for _, w, _ in passes]
        return (len(passes) < workload.min_passes
                or sum(walls) + statistics.median(walls) <= seconds)

    while more():
        i = len(passes)
        cli_seed = pass_seed(seed, i)
        out = work / f"pass{i}"
        wall, res = run_pass(cli, workload, workload.argv(cli_seed, out, inputs), out)
        passes.append((cli_seed, wall, res))
        setup += [setup_start(env) for _ in range(SETUP_PER_PASS)]
    results = [r for _, _, r in passes]
    problems = [p for r in results for p in r.problems] + workload.check_run(results)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    walls = [w for _, w, _ in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        # geometric mean over the cells of the passes that always run, so it
        # is fixed by the seed and no one method's spread dominates it
        "test_mse": (statistics.geometric_mean(
            v for r in results[:workload.min_passes] for v in _mse_values(r)), "mse"),
    }
    details = {"passes": [{"cli_seed": s, "wall_s": w, "fits": r.attempted,
                           "failed": r.failed}
                          for s, w, r in passes],
               "setup_runs_s": setup, "problems": problems}
    return _result(not problems, attempted, failed, metrics), details


def reference_means(cli, workload, work: Path) -> tuple[dict, list[str]]:
    """Per-method mean test MSEs at the fixed reference input, and the
    problems the output checks found."""
    from workloads import REFERENCE_SEED
    inputs = workload.prepare(REFERENCE_SEED, work)
    out = work / "reference"
    _, res = run_pass(cli, workload, workload.argv(REFERENCE_SEED, out, inputs), out)
    return {m: statistics.fmean(v) for m, v in sorted(res.test_mse.items())}, res.problems


def reference_check(cli, workload, work: Path) -> list[str]:
    """Per-method mean test MSEs at the fixed reference input against the
    values stored in reference.json."""
    stored = json.loads((Path(__file__).parent / "reference.json").read_text())
    means, problems = reference_means(cli, workload, work)
    expect = stored.get(workload.name, {})
    if set(means) != set(expect):
        problems.append(f"reference methods {sorted(means)} != stored {sorted(expect)}")
    for m in sorted(set(means) & set(expect)):
        if abs(means[m] - expect[m]) > REFERENCE_RTOL * abs(expect[m]):
            problems.append(f"reference: {m} mean test MSE {means[m]!r} differs "
                            f"from stored {expect[m]!r} by more than "
                            f"{100 * REFERENCE_RTOL:g}%")
    return problems


def traced_run(cli, workload, seed: int, work: Path, trace_path: Path) -> tuple[dict, dict]:
    from tracing import Tracer, is_count, summarize
    from workloads import pass_seed
    problems = reference_check(cli, workload, work)
    inputs = workload.prepare(seed, work)
    cli_seed = pass_seed(seed, 0)
    argv = lambda out: workload.argv(cli_seed, out, inputs)

    # untraced, traced, traced, untraced: the overhead estimate is not
    # biased by drift over the run
    untraced = [run_pass(cli, workload, argv(work / "u1"), work / "u1")]
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        for i in (1, 2):
            tracer.pass_id = i
            traced.append(run_pass(cli, workload, argv(work / f"t{i}"), work / f"t{i}", tracer))
    finally:
        tracer.uninstall()
    untraced.append(run_pass(cli, workload, argv(work / "u2"), work / "u2"))
    tracer.write_jsonl(trace_path)

    summaries = [summarize([s for s in tracer.spans if s[2] == i]) for i in (1, 2)]
    reports = untraced[0][1].files
    for (_, res), label in zip(traced + untraced[1:], ("first traced", "second traced",
                                                          "second untraced")):
        problems += res.problems
        if res.files != reports:
            problems.append(f"{label} pass wrote different reports than the first untraced pass")
    counts_differ = [k for k in summaries[0]
                     if is_count(k) and summaries[0][k] != summaries[1][k]]
    if counts_differ:
        problems.append(f"per-layer counts differ between traced passes: {counts_differ}")

    metrics = {}
    for k, v in summaries[0].items():
        value = v if is_count(k) else (v + summaries[1][k]) / 2.0
        metrics[k] = (value, _unit(k))
    traced_wall = statistics.fmean(w for w, _ in traced)
    untraced_wall = statistics.fmean(w for w, _ in untraced)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.spans"] = (sum(1 for s in tracer.spans if s[2] == 1), "count")
    attempted = sum(r.attempted for _, r in untraced + traced)
    failed = sum(r.failed for _, r in untraced + traced)
    # a site a refactor removed loses its spans but does not make the
    # program's outputs wrong
    for site in tracer.missing:
        print(f"warning: trace site {site} not found; its spans are missing",
              file=sys.stderr)
    details = {"cli_seed": cli_seed, "trace_file": str(trace_path.relative_to(ROOT)),
               "trace_sites_missing": tracer.missing, "problems": problems}
    return _result(not problems, attempted, failed, metrics), details


def _unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("used_frac"):
        return "frac"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("flops_computed"):
        return "flop"
    return "count"


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cli = _import_sdr()

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            result, details = traced_run(cli, workload, args.seed, work,
                                         WORK / f"spans-{tag}.jsonl")
        else:
            result, details = timed_run(cli, workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details = {"workload": workload.name, "seed": args.seed,
               "machine": machine_facts(), **details}
    (WORK / f"result-{tag}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1))
    for problem in details["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
