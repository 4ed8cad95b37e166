"""The benchmark's four workloads: fixtures, inputs made from the seed, output checks.

Every workload drives the public CLI entry ``fblic.cli.main`` with files it
writes into a work directory. A *chunk* is one pass over a workload's
command lines; the measured phase repeats chunks and reports the median
chunk throughput. The seed reaches the program only through the generated
files and ``--seed``:

* the two Monte Carlo chains pass a seed derived from (seed, chunk, call),
  so every chunk simulates fresh source pairs;
* the bounds grid and the exponent curve permute their grid axes and rate
  lists and shift each value by a tiny amount, both drawn from (seed,
  chunk), so no chunk repeats an earlier chunk's exponent queries while
  every output can still be checked against its stored reference point.

Reference values live in ``reference.json`` beside this file and are
rebuilt by ``make_reference.py``.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
LN2 = math.log(2.0)


@dataclass(frozen=True)
class Invocation:
    """One call of ``fblic.cli.main``."""

    argv: tuple
    ops: int
    out: Path
    part: int = 0  # which channel of the chunk
    expect: tuple = ()  # per-op pairs of (what is sent, its stored reference)


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


@functools.cache
def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _load_report(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["report"]


def _close(value: float, ref: float, atol: float, rtol: float) -> bool:
    return abs(value - ref) <= atol + rtol * abs(ref)


def cross_ic(eps1: float, eps2: float, leak1: float, leak2: float) -> list:
    """Binary interference channel W[x1, x2, y1, y2]:
    y_j = x_j xor Bern(eps_j + leak_j * [x_other = 1])."""
    w = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            e1 = eps1 + leak1 * x2
            e2 = eps2 + leak2 * x1
            for y1 in range(2):
                for y2 in range(2):
                    w[x1, x2, y1, y2] = (1 - e1 if y1 == x1 else e1) * (1 - e2 if y2 == x2 else e2)
    return w.tolist()


def mix_kernel(stay: float) -> list:
    """p(x | u, v) on binary alphabets: x = u with probability stay, else x = v."""
    p = np.zeros((2, 2, 2))
    for u in range(2):
        for v in range(2):
            p[u, v, u] += stay
            p[u, v, v] += 1.0 - stay
    return p.tolist()


def binary_instance(xi: float, ic: list, stay1: float, stay2: float) -> dict:
    """ProblemInstance document of a symmetric binary source pair
    (mismatch probability xi) with identity common-part maps."""
    same = 1.0 - xi
    return {
        "source": [[0.5 * same, 0.5 * xi], [0.5 * xi, 0.5 * same]],
        "f1": [0, 1], "f2": [0, 1], "ic": ic,
        "p_u": [0.5, 0.5], "p_v1": [0.5, 0.5], "p_v2": [0.5, 0.5],
        "p_x1_given_uv1": mix_kernel(stay1), "p_x2_given_uv2": mix_kernel(stay2),
    }


class Workload:
    name = ""
    threads = 1  # --threads of the measured commands; above 1, chunk 0 is rerun at 1
    # nominal seconds of one chunk; sizes the traced run so it fills --seconds
    chunk_seconds = 1.0

    def write_inputs(self, work: Path, seed: int) -> None:
        raise NotImplementedError

    def chunk(self, work: Path, seed: int, index: int, tag: str = "",
              threads: int | None = None) -> list:
        """Command lines of chunk ``index``; ``tag`` names a variant's output files."""
        raise NotImplementedError

    def warmup(self, work: Path, seed: int) -> list:
        """A one-op command of the same kind, run during set-up."""
        raise NotImplementedError

    def check(self, results: list) -> tuple:
        """(failed ops, notes) for a list of (Invocation, exit code or None)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Monte Carlo chains
# ---------------------------------------------------------------------------

class DueckChain(Workload):
    """Criterion 9: the worked-example chain on a materialized fixture."""

    name = "dueck_chain"
    threads = 2
    chunk_seconds = 0.9
    trials = 50
    params = {"joint": [[0.4995, 0.0005], [0.0005, 0.4995]]}
    scheme = {"l": 32, "delta": 1.0, "A": 16 * LN2 / 32, "B": 16 * LN2 / 32,
              "rho": 0.17, "m": 64}
    max_block_error = 0.05
    max_matrix_failure = 0.05

    def write_inputs(self, work, seed):
        _write_json(work / "params.json", self.params)
        _write_json(work / "scheme.json", self.scheme)

    def _call(self, work, seed, trials, out, threads):
        argv = ("simulate", "dueck", "--params", str(work / "params.json"),
                "--scheme", str(work / "scheme.json"), "--trials", str(trials),
                "--e-max", "2", "--hash-bits", "128", "--capacity-slack", "0.2",
                "--threads", str(threads), "--seed", str(seed), "--no-timestamp",
                "--out", str(out))
        return Invocation(argv, trials, out)

    def chunk(self, work, seed, index, tag="", threads=None):
        return [self._call(work, derive_seed(seed, index), self.trials,
                           work / f"c{index}{tag}.json", threads or self.threads)]

    def warmup(self, work, seed):
        return [self._call(work, derive_seed(seed, 1 << 30), 1, work / "warmup.json",
                           self.threads)]

    def check(self, results):
        failed, notes = 0, []
        pooled_trials, pooled_fail = 0, [0, 0]
        for inv, code in results:
            try:
                if code != 0:
                    raise ValueError(f"exit code {code}")
                rep = _load_report(inv.out)
                if rep["trials"] != inv.ops:
                    raise ValueError(f"{rep['trials']} trials reported, {inv.ops} asked")
                if rep["wrong_accepts"] != [0, 0]:
                    raise ValueError(f"wrong accepts {rep['wrong_accepts']}")
                if max(rep["block_error_rate"]) > self.max_block_error:
                    raise ValueError(f"block error {rep['block_error_rate']}")
            except (OSError, KeyError, TypeError, ValueError) as exc:
                failed += inv.ops
                notes.append(f"{inv.out.name}: {exc}")
                continue
            pooled_trials += rep["trials"]
            for j in (0, 1):
                pooled_fail[j] += round(rep["matrix_failure_rate"][j] * rep["trials"])
        # criterion 9 gates the matrix failure rate over a pool of trials, so
        # it is applied to all trials of the run, not to each short chunk
        if pooled_trials and max(pooled_fail) > self.max_matrix_failure * pooled_trials:
            notes.append(f"matrix failures {pooled_fail} in {pooled_trials} trials")
            failed = sum(inv.ops for inv, _ in results)
        return failed, notes


class GenericChain(Workload):
    """Criterion 10: the layered pipeline on three small binary instances."""

    name = "generic_chain"
    chunk_seconds = 1.3
    trials = 30
    # (xi, stay, eps, leak) of the criterion-10 instances
    variants = ((0.01, 0.98, 0.005, 0.01), (0.02, 0.985, 0.003, 0.005),
                (0.005, 0.97, 0.01, 0.008))
    scheme = {"l": 16, "delta": 0.75, "A": 2 * LN2 / 16, "B": 14 * LN2 / 16,
              "rho": 0.02, "m": 64}

    def write_inputs(self, work, seed):
        for k, (xi, stay, eps, leak) in enumerate(self.variants):
            _write_json(work / f"instance{k}.json",
                        binary_instance(xi, cross_ic(eps, eps, leak, leak), stay, stay))
        _write_json(work / "scheme.json", self.scheme)

    def _call(self, work, k, seed, trials, out):
        argv = ("simulate", "generic", "--instance", str(work / f"instance{k}.json"),
                "--scheme", str(work / "scheme.json"), "--trials", str(trials),
                "--e-max", "1", "--hash-bits", "96", "--threads", "1",
                "--seed", str(seed), "--no-timestamp", "--out", str(out))
        return Invocation(argv, trials, out)

    def chunk(self, work, seed, index, tag="", threads=None):
        return [self._call(work, k, derive_seed(seed, index, k), self.trials,
                           work / f"c{index}-{k}{tag}.json")
                for k in range(len(self.variants))]

    def warmup(self, work, seed):
        return [self._call(work, 0, derive_seed(seed, 1 << 30), 1, work / "warmup.json")]

    def check(self, results):
        failed, notes = 0, []
        for inv, code in results:
            try:
                if code != 0:
                    raise ValueError(f"exit code {code}")
                rep = _load_report(inv.out)
                if rep["trials"] != inv.ops:
                    raise ValueError(f"{rep['trials']} trials reported, {inv.ops} asked")
                if not rep["phi_bound"] < 0.5:
                    raise ValueError(f"phi_bound {rep['phi_bound']}")
                if rep["wrong_accepts"] != [0, 0]:
                    raise ValueError(f"wrong accepts {rep['wrong_accepts']}")
                for user, q in rep["extras"]["channel_quality"].items():
                    if not q["tv"] <= q["tv_threshold"]:
                        raise ValueError(f"{user} tv {q['tv']} > {q['tv_threshold']}")
                    if not q["mi_gap"] <= q["mi_gap_threshold"]:
                        raise ValueError(f"{user} mi gap {q['mi_gap']} > {q['mi_gap_threshold']}")
            except (OSError, KeyError, TypeError, ValueError) as exc:
                failed += inv.ops
                notes.append(f"{inv.out.name}: {exc}")
        return failed, notes


# ---------------------------------------------------------------------------
# bound evaluation
# ---------------------------------------------------------------------------

class BoundsGrid(Workload):
    """``bounds search`` over A x rho x B x l on an instance whose users differ.

    Every rho lies below every A, because one invalid point makes the whole
    search exit with code 2. The rates A + rho run from 0.055 past the
    weaker induced channel's mutual information (0.47 nats) toward the
    stronger one's (0.60 nats).

    Each chunk permutes the axes and moves every A and rho up by less than
    1e-9, drawn from (seed, chunk): points repeat exponent queries within a
    search, as the B and l axes do for a user, but never across chunks. That
    moves phi by a relative 1e-6 at most (l <= 512), far inside the check's
    tolerance against the stored unshifted point.
    """

    name = "bounds_grid"
    chunk_seconds = 1.8
    instance = binary_instance(0.001, cross_ic(0.005, 0.02, 0.01, 0.03), 0.98, 0.95)
    base = {"l": 128, "delta": 0.75, "A": 0.1, "B": 0.6, "rho": 0.01, "m": 1}
    axes = {"A": [0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5], "rho": [0.005, 0.01, 0.02, 0.04],
            "B": [0.6, 1.2], "l": [128, 512]}
    shifted = ("A", "rho")
    max_shift = 1e-9
    min_slack_atol = 1e-6
    min_slack_rtol = 1e-4
    phi_atol = 1e-9
    phi_rtol = 1e-4

    @staticmethod
    def key(point: dict) -> str:
        """A point as the search CSV prints it: axis values in name order."""
        return "|".join(str(point[name]) for name in sorted(point))

    def spec(self, axes=None) -> dict:
        return {"instance": self.instance, "scheme": self.base,
                "grid": self.axes if axes is None else axes}

    def write_inputs(self, work, seed):
        _write_json(work / "warmup.json", self.spec({}))

    def _call(self, work, spec, seed, ops, out, expect=()):
        argv = ("bounds", "search", "--spec", str(work / spec), "--format", "csv",
                "--seed", str(seed), "--no-timestamp", "--out", str(out))
        return Invocation(argv, ops, out, expect=expect)

    def chunk(self, work, seed, index, tag="", threads=None):
        rng = np.random.default_rng(derive_seed(seed, index, 0xB6))
        pairs = {}  # axis -> [(value sent, stored value)]
        for name, values in self.axes.items():
            sent = [v + rng.uniform(0.0, self.max_shift) if name in self.shifted else v
                    for v in values]
            pairs[name] = [(sent[i], values[i]) for i in rng.permutation(len(values))]
        _write_json(work / f"spec{index}.json",
                    self.spec({k: [a for a, _ in v] for k, v in pairs.items()}))
        names = sorted(pairs)
        expect = tuple(
            (self.key(dict(zip(names, (a for a, _ in combo)))),
             self.key(dict(zip(names, (b for _, b in combo)))))
            for combo in itertools.product(*(pairs[n] for n in names)))
        return [self._call(work, f"spec{index}.json", seed, len(expect),
                           work / f"c{index}{tag}.csv", expect)]

    def warmup(self, work, seed):
        return [self._call(work, "warmup.json", seed, 1, work / "warmup.csv")]

    @staticmethod
    def read_points(path: Path) -> dict:
        """{"A|B|l|rho": (status, phi, min_slack)} from a search CSV."""
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        head = rows[0]
        if head[:-3] != sorted(BoundsGrid.axes) or head[-3:] != ["phi", "min_slack", "feasible"]:
            raise ValueError(f"unexpected columns {head}")
        points = {}
        for row in rows[1:]:
            phi, slack = float(row[-3]), float(row[-2])
            if row[-1] == "True":
                status = "feasible"
            else:
                status = "infeasible-by-phi" if phi >= 0.5 else "infeasible"
            points["|".join(row[:-3])] = (status, phi, slack)
        return points

    def check(self, results):
        ref = load_reference()[self.name]["points"]
        failed, notes = 0, []
        for inv, code in results:
            try:
                # exit 1 means "nothing feasible, report written"
                if code not in (0, 1):
                    raise ValueError(f"exit code {code}")
                got = self.read_points(inv.out)
                if len(got) != inv.ops:
                    raise ValueError(f"{len(got)} points reported, {inv.ops} asked")
            except (OSError, IndexError, TypeError, ValueError) as exc:
                failed += inv.ops
                notes.append(f"{inv.out.name}: {exc}")
                continue
            for sent, stored in inv.expect:
                point, want = got.get(sent), ref.get(stored)
                if (point is None or want is None or point[0] != want["status"]
                        or not _close(point[1], want["phi"], self.phi_atol, self.phi_rtol)
                        or not _close(point[2], want["min_slack"], self.min_slack_atol,
                                      self.min_slack_rtol)):
                    failed += 1
                    notes.append(f"{inv.out.name} {sent}: {point} vs {want}")
        return failed, notes


# ---------------------------------------------------------------------------
# exponent curves
# ---------------------------------------------------------------------------

class ExponentCurve(Workload):
    """``fblic exponent`` from rate 0 to just past I(p;W) on seven channels.

    The channels and their reference curves are stored in reference.json:
    BSC(0.05), BSC(0.1), two asymmetric binary channels and three random
    channels (3x3, 3x4, 4x4) drawn once from a fixed generator.

    Each chunk permutes every rate list and raises each rate by less than
    1e-6, drawn from (seed, chunk), so that no query repeats within or
    across chunks. E_r has slope -rho* in [-1, 0], so the exponent moves by
    no more than the shift, well inside the tolerance.
    """

    name = "exponent_curve"
    chunk_seconds = 0.9
    max_shift = 1e-6
    exponent_atol = 1e-5
    # slack for solver tolerance when testing that E_r does not increase in R
    monotone_atol = 1e-9

    def write_inputs(self, work, seed):
        for k, ch in enumerate(load_reference()[self.name]["channels"]):
            _write_json(work / f"channel{k}.json", {"rows": ch["rows"]})

    def _call(self, work, k, seed, out, pairs):
        argv = ("exponent", "--channel", str(work / f"channel{k}.json"),
                "--rates", ",".join(repr(r) for r, _ in pairs),
                "--seed", str(seed), "--no-timestamp", "--out", str(out))
        return Invocation(argv, len(pairs), out, k, tuple(pairs))

    def chunk(self, work, seed, index, tag="", threads=None):
        calls = []
        for k, ch in enumerate(load_reference()[self.name]["channels"]):
            rng = np.random.default_rng(derive_seed(seed, index, k, 0xEC))
            rates = np.array(ch["rates"]) + rng.uniform(0.0, self.max_shift, len(ch["rates"]))
            pairs = [(float(rates[i]), ch["exponents"][i])
                     for i in rng.permutation(len(rates))]
            calls.append(self._call(work, k, seed, work / f"c{index}-{k}{tag}.json", pairs))
        return calls

    def warmup(self, work, seed):
        ch = load_reference()[self.name]["channels"][0]
        return [self._call(work, 0, seed, work / "warmup.json",
                           [(ch["rates"][0], ch["exponents"][0])])]

    def check(self, results):
        channels = load_reference()[self.name]["channels"]
        failed, notes = 0, []
        for inv, code in results:
            mi = channels[inv.part]["mutual_information"]
            try:
                if code != 0:
                    raise ValueError(f"exit code {code}")
                curve = _load_report(inv.out)["curve"]
                if [p["rate"] for p in curve] != [r for r, _ in inv.expect]:
                    raise ValueError("reported rates differ from the rates asked")
            except (OSError, KeyError, TypeError, ValueError) as exc:
                failed += inv.ops
                notes.append(f"{inv.out.name}: {exc}")
                continue
            prev = math.inf
            for point, (r, want) in sorted(zip(curve, inv.expect), key=lambda t: t[1][0]):
                e = point["exponent"]
                problems = []
                if not isinstance(e, (int, float)) or not e >= 0.0:
                    problems.append("not a non-negative number")
                else:
                    if r >= mi and e != 0.0:
                        problems.append("nonzero at or above I(p;W)")
                    if e > prev + self.monotone_atol:
                        problems.append("increasing in R")
                    if not _close(e, want, self.exponent_atol, 0.0):
                        problems.append(f"reference {want}")
                    prev = e
                if problems:
                    failed += 1
                    notes.append(f"{inv.out.name} R={r} E={e}: {', '.join(problems)}")
        return failed, notes


WORKLOADS = {w.name: w for w in (DueckChain(), GenericChain(), BoundsGrid(), ExponentCurve())}
