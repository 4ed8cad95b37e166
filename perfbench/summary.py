"""Run every workload once and print the end-to-end metrics as a table.

    python3 perfbench/summary.py --seed 1 --seconds 10

Each workload runs through run.py in its own process. The table lists
``ops_per_s``, ``setup_s``, ``peak_rss_mb`` and ``error_rate`` (failed
operations over attempted ones) with their units, then the version stamp.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()

    status, stamp = 0, None
    print(f"{'workload':<16} {'metric':<12} {'value':>12}  unit")
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0"], stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name:<16} run failed with exit code {proc.returncode}")
            status = 1
            continue
        *_, details_line, result_line = proc.stdout.strip().splitlines()
        details, result = json.loads(details_line), json.loads(result_line)
        stamp = details["stamp"]
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("error_rate", result["failed"] / result["attempted"], "fraction"))
        for metric, value, unit in rows:
            print(f"{name:<16} {metric:<12} {value:>12.4f}  {unit}")
        if not result["correct"]:
            print(f"{name:<16} INCORRECT: {details['details']['notes']}")
            status = 1
    if stamp:
        print("stamp: " + json.dumps({k: stamp[k] for k in
                                      ("python", "numpy", "scipy", "nproc", "commit")}))
    return status


if __name__ == "__main__":
    sys.exit(main())
