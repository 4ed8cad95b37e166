"""Rebuild reference.json: the stored outputs the benchmark checks against.

Run from the repository root:

    python3 perfbench/make_reference.py

It draws the exponent workload's random channels from a fixed generator,
then records what the current ``fblic`` CLI prints for the unpermuted
bounds grid and for every exponent curve. Rebuild only when a change is
meant to alter these outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fblic import cli, probkit  # noqa: E402

import workloads  # noqa: E402

CHANNEL_SEED = 170106977
RATE_STEPS = 16  # rates I*k/16 for k < 16, then two rates past I(p;W)


def exponent_channels() -> list:
    rng = np.random.default_rng(CHANNEL_SEED)
    rows = [
        [[0.95, 0.05], [0.05, 0.95]],
        [[0.9, 0.1], [0.1, 0.9]],
        [[0.98, 0.02], [0.15, 0.85]],
        [[0.9, 0.1], [0.3, 0.7]],
    ]
    rows += [rng.dirichlet(np.ones(ny), size=nx).tolist() for nx, ny in ((3, 3), (3, 4), (4, 4))]
    channels = []
    for r in rows:
        dmc = probkit.Dmc(r)
        mi = probkit.mutual_information(probkit.Pmf.uniform(dmc.num_inputs), dmc)
        rates = [round(mi * k / RATE_STEPS, 6) for k in range(RATE_STEPS)]
        rates += [round(mi + 0.01, 6), round(mi + 0.05, 6)]
        channels.append({"rows": r, "mutual_information": mi, "rates": rates})
    return channels


def main() -> int:
    work = HERE / "_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        channels = exponent_channels()
        for k, ch in enumerate(channels):
            (work / f"channel{k}.json").write_text(json.dumps({"rows": ch["rows"]}))
            out = work / f"curve{k}.json"
            code = cli.main(["exponent", "--channel", str(work / f"channel{k}.json"),
                             "--rates", ",".join(repr(r) for r in ch["rates"]),
                             "--no-timestamp", "--out", str(out)])
            if code != 0:
                raise SystemExit(f"exponent exited {code} on channel {k}")
            curve = json.loads(out.read_text())["report"]["curve"]
            ch["exponents"] = [p["exponent"] for p in curve]

        grid = workloads.BoundsGrid()
        (work / "spec.json").write_text(json.dumps(grid.spec()))
        out = work / "grid.csv"
        code = cli.main(["bounds", "search", "--spec", str(work / "spec.json"),
                         "--format", "csv", "--no-timestamp", "--out", str(out)])
        if code not in (0, 1):
            raise SystemExit(f"bounds search exited {code}")
        points = {key: {"min_slack": slack, "phi": phi, "status": s}
                  for key, (s, phi, slack) in grid.read_points(out).items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ref = {"bounds_grid": {"points": points},
           "exponent_curve": {"channel_seed": CHANNEL_SEED, "channels": channels}}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH} ({len(points)} grid points, "
          f"{sum(len(c['rates']) for c in channels)} exponent points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
