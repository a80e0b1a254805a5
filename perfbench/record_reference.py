"""Record reference.json: each workload's per-method mean test MSEs at the
fixed reference input, which every traced run checks against.

    python3 perfbench/record_reference.py

Re-record only when a change to ``sdr`` is meant to change its results.
"""

import json
import shutil
import sys
from pathlib import Path

import run
from workloads import WORKLOADS


def main() -> int:
    cli = run._import_sdr()
    reference = {}
    for name, workload in WORKLOADS.items():
        work = run.WORK / f"reference-{name}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            means, problems = run.reference_means(cli, workload, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        reference[name] = means
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
