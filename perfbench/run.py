"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload dueck_chain --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the program is imported from its
``src`` directory. Every measurement happens in fresh interpreters
started from here (see worker.py):

* ``--trace 0`` measures the end-to-end metrics: ``ops_per_s`` is the
  median chunk throughput over ``--seconds``; ``setup_s`` is the median of
  several interpreter-start-to-warm-up times; ``peak_rss_mb`` is the
  measuring process's ``ru_maxrss``;
* ``--trace 1`` runs a fixed amount of work untraced and then traced, and
  reports the per-layer metrics and the tracing overhead.

Standard output ends with a details line (versions, commit, seed, checks,
error rate) and then the result line the contract asks for:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is not 0
when the program or its sources cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dueck_chain", "generic_chain", "bounds_grid", "exponent_curve")
SETUP_SAMPLES = 7  # set-up time is the median over this many fresh interpreters
DEADLINE_S = 170.0  # a run must end within 180 s, workers included


class WorkerError(RuntimeError):
    pass


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "commit": git_commit(ROOT), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def spawn(args, mode: str, work: Path, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds), "--work", str(work)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, work: Path, deadline: float) -> tuple:
    setups = [spawn(args, "setup", work / f"setup{k}", deadline)["setup_s"]
              for k in range(SETUP_SAMPLES - 1)]
    m = spawn(args, "measure", work / "measure", deadline)
    setups.append(m["setup_s"])
    metrics = {
        "ops_per_s": {"value": statistics.median(m["rates"]), "unit": "ops/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MiB"},
    }
    details = {"chunks": len(m["rates"]), "chunk_ops_per_s": m["rates"],
               "measured_s": m["measured_s"], "setup_samples_s": setups}
    return m, metrics, details


def per_layer(args, work: Path, deadline: float) -> tuple:
    t = spawn(args, "trace", work / "trace", deadline)
    values = spans.summarize(t["spans"], t["attempted"])
    values["trace.ops"] = t["attempted"]
    values["trace.overhead_share"] = t["traced_s"] / t["untraced_s"] - 1.0
    metrics = {name: {"value": v, "unit": spans.unit_of(name)} for name, v in values.items()}
    details = {"untraced_s": t["untraced_s"], "traced_s": t["traced_s"],
               "not_traced": t["skipped"]}
    return t, metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fblic" / "cli.py").is_file():
        print(f"error: no fblic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = per_layer if args.trace else end_to_end
        res, metrics, details = run(args, work, deadline)
    except subprocess.TimeoutExpired:
        print("error: the run did not finish before its deadline", file=sys.stderr)
        return 1
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = {k: res[k] for k in ("traced_identical", "threads_identical") if k in res}
    correct = res["failed"] == 0 and all(checks.values())
    details.update(checks, error_rate=res["failed"] / res["attempted"], notes=res["notes"])
    print(json.dumps({"stamp": stamp(args), "details": details}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
