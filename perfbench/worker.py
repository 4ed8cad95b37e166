"""One benchmark process: set up and warm up a workload, then measure or trace it.

``run.py`` starts this script in a fresh interpreter, passing the value of
``time.monotonic()`` it read just before the start, so that set-up time
runs from interpreter start to the end of a one-op warm-up. Modes:

* ``setup``   set up, print the set-up time, exit;
* ``measure`` run chunks until ``--seconds`` is used up, then, outside the
  timed window, check every output and repeat chunk 0 traced (and, on a
  threaded workload, single-threaded) to compare the reports byte for byte;
* ``trace``   run a fixed number of chunks untraced, then the same chunks
  traced, and save the spans.

The last line on standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads


def run_calls(cli, invocations: list) -> list:
    """[(invocation, exit code or None if it raised)]."""
    results = []
    for inv in invocations:
        try:
            code = cli.main(list(inv.argv))
        except Exception:  # a raising command is a failed op, not a crash
            traceback.print_exc(file=sys.stderr)
            code = None
        results.append((inv, code))
    return results


def _report_section(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["report"]


def same_outputs(first: list, second: list, report_only: bool = False) -> bool:
    """True when each pair of output files matches byte for byte (or, with
    report_only, in the report section, since the config echoes --threads)."""
    try:
        for (a, _), (b, _) in zip(first, second, strict=True):
            if report_only:
                if json.dumps(_report_section(a.out)) != json.dumps(_report_section(b.out)):
                    return False
            elif a.out.read_bytes() != b.out.read_bytes():
                return False
    except (OSError, ValueError, KeyError):
        return False
    return True


def traced(cli, modules, invocations) -> tuple:
    """Run the invocations with spans installed; (results, seconds, recorder)."""
    rec = spans.Recorder()
    rec.install(modules)
    try:
        t = time.perf_counter()
        results = run_calls(cli, invocations)
        seconds = time.perf_counter() - t
    finally:
        rec.remove()
    return results, seconds, rec


def threads_check(cli, wl, work, seed, chunk0: list) -> dict:
    """On a threaded workload, chunk 0 again on one thread must report the same."""
    if wl.threads == 1:
        return {}
    single = run_calls(cli, wl.chunk(work, seed, 0, tag="-t1", threads=1))
    return {"threads_identical": same_outputs(chunk0, single, report_only=True)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="checkout holding src/fblic")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--work", required=True, help="directory for inputs and reports")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at launch")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    from fblic import bounds, cli, codec, exponent, probkit, simulate
    modules = {"cli": cli, "simulate": simulate, "codec": codec, "probkit": probkit,
               "exponent": exponent, "bounds": bounds}

    wl = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl.write_inputs(work, args.seed)
    run_calls(cli, wl.warmup(work, args.seed))
    out = {"setup_s": time.monotonic() - args.t0}

    if args.mode == "measure":
        rates, results = [], []
        start = time.perf_counter()
        index = 0
        while True:
            invs = wl.chunk(work, args.seed, index)
            t = time.perf_counter()
            results += run_calls(cli, invs)
            rates.append(sum(inv.ops for inv in invs) / (time.perf_counter() - t))
            index += 1
            elapsed = time.perf_counter() - start
            # stop when one more chunk of average length would overrun the window
            if elapsed * (index + 1) / index > args.seconds:
                break
        out["measured_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["rates"] = rates
        chunk0 = results[:len(wl.chunk(work, args.seed, 0))]
        again, _, _ = traced(cli, modules, wl.chunk(work, args.seed, 0, tag="-traced"))
        out["traced_identical"] = same_outputs(chunk0, again)
        out.update(threads_check(cli, wl, work, args.seed, chunk0))
    elif args.mode == "trace":
        n = max(1, int(args.seconds / (2.0 * wl.chunk_seconds)))
        invs = [inv for i in range(n) for inv in wl.chunk(work, args.seed, i)]
        t = time.perf_counter()
        results = run_calls(cli, invs)
        out["untraced_s"] = time.perf_counter() - t
        tinvs = [inv for i in range(n) for inv in wl.chunk(work, args.seed, i, tag="-traced")]
        again, out["traced_s"], rec = traced(cli, modules, tinvs)
        out["traced_identical"] = same_outputs(results, again)
        chunk0 = results[:len(wl.chunk(work, args.seed, 0))]
        out.update(threads_check(cli, wl, work, args.seed, chunk0))
        rec.save(work / "spans.npz")
        out["spans"] = str(work / "spans.npz")
        out["skipped"] = rec.skipped
    if args.mode != "setup":
        failed, notes = wl.check(results)
        out.update(attempted=sum(inv.ops for inv, _ in results), failed=failed,
                   notes=notes[:20])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
