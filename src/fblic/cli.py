"""Command-line entry point.

Commands:
    exponent                     (R, E_r) curve for a channel, CSV or JSON
    dueck lc-check               scan (a, k) for a positive outer-bound margin
    dueck feasibility            the example's feasibility chain as JSON
    bounds check                 run a theorem checker on an instance file
    bounds search                scan scheme parameters over a grid
    simulate dueck               end-to-end chain on the example/fixture
    simulate generic             layered pipeline on a generic instance
    test interleave              column-law chi-square report
    test cc-exponent             ensemble ML error vs the exponent bound

Global flags: --config FILE, --seed, --out, --format {json,csv}, --threads,
--unit {nats,bits}, --no-timestamp. The environment variable FBLIC_SEED
supplies the default seed. A seed, from any of the three, is a
non-negative integer.

A --config file is a JSON object whose keys are long option names, with
hyphens or underscores; it fills what the flags leave unset. Its values go
through the same parser as the flags, under the same command, so they are
checked exactly as the flags are: a switch takes JSON true or false, null
leaves an option unset, and any other value is read as the flag's text.

--threads is accepted for compatibility; trials always run in order on one
thread; it never changes a report. Exit code 0 means success (and
feasible/passed where applicable), 1 means an infeasible or failed report,
2 means an error.

Everything internal is in nats. With --unit bits the unambiguous rate
outputs (exponent curves, simulation rate fields, the cc-exponent rate
and exponent) are divided by log 2 at emission; condition reports mix
rates, probabilities, and log-domain values, so they are always emitted
in nats and say so in their "unit" field.

JSON reports are RFC 8259 JSON: an infinite value is written as null, and
a report that would hold a NaN is an error (exit 2, no --out file).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
import zlib
from dataclasses import dataclass, field, fields

from . import __version__
from . import bounds as _bounds
from . import dueck as _dueck
from . import exponent as _exponent
from . import probkit as _probkit
from . import simulate as _simulate

_LN2 = math.log(2.0)
SEED_ENV_VAR = "FBLIC_SEED"


@dataclass
class RunConfig:
    command: str
    subcommand: str | None = None
    seed: int = 0
    out: str | None = None
    format: str = "json"
    threads: int = 1
    unit: str = "nats"
    no_timestamp: bool = False
    options: dict = field(default_factory=dict)

    def resolved(self) -> dict:
        # the output path is deliberately omitted so two runs writing to
        # different files stay byte-identical
        return {
            "command": self.command, "subcommand": self.subcommand,
            "seed": self.seed, "format": self.format,
            "threads": self.threads, "unit": self.unit,
            "no_timestamp": self.no_timestamp, "options": self.options,
        }


class _Parser(argparse.ArgumentParser):
    """An argument parser whose refusals are one stderr line, like every
    other error of the CLI; --help still prints the usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A seed: a non-negative integer, the only kind numpy's SeedSequence takes."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def _build_parser(strict: bool = False) -> argparse.ArgumentParser:
    """The argument parser, built on first use; parse_args leaves it unchanged.

    The strict build reads --config files: it raises ArgumentError rather
    than exiting, and takes neither abbreviated option names nor --help.
    """
    kw = dict(exit_on_error=not strict, allow_abbrev=not strict, add_help=not strict)
    def shared(*parents):
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    common = shared()
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON file of option defaults")
    common.add_argument("--seed", type=_seed, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output path (default stdout)")
    common.add_argument("--format", choices=["json", "csv"], default=argparse.SUPPRESS)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    common.add_argument("--unit", choices=["nats", "bits"], default=argparse.SUPPRESS)
    common.add_argument("--no-timestamp", action="store_true", default=argparse.SUPPRESS)
    # options of more than one command
    channel = shared()
    channel.add_argument("--channel", help="Dmc JSON file")
    instance = shared()
    instance.add_argument("--instance", help="ProblemInstance JSON file")
    scheme = shared()
    scheme.add_argument("--scheme", help="SchemeParams JSON file")
    example = shared()
    example.add_argument("--eta", type=int)
    example.add_argument("--sat-outputs")
    chain = shared(scheme)
    chain.add_argument("--trials", type=int)
    chain.add_argument("--e-max", type=int)
    chain.add_argument("--hash-bits", type=int)

    p = _Parser(prog="fblic", description=__doc__, parents=[common],
                formatter_class=argparse.RawDescriptionHelpFormatter, **kw)
    p.add_argument("--version", action="version", version=__version__)

    sub = p.add_subparsers(dest="command", required=True)

    def add_sub(parent, name, *parents, **extra):
        return parent.add_parser(name, parents=[common, *parents], **kw, **extra)

    pe = add_sub(sub, "exponent", channel, help="(R, E_r) curve")
    pe.add_argument("--input-pmf", help="Pmf JSON file")
    pe.add_argument("--rates", help="start:stop:step or comma list, nats (default 0:0.7:0.05)")

    pd = sub.add_parser("dueck", help="worked-example reports", **kw)
    dsub = pd.add_subparsers(dest="subcommand", required=True)
    plc = add_sub(dsub, "lc-check", example)
    plc.add_argument("--a-grid")
    plc.add_argument("--k-grid")
    pfe = add_sub(dsub, "feasibility", example)
    pfe.add_argument("--a", type=int)
    pfe.add_argument("--k", type=int)

    pb = sub.add_parser("bounds", help="sufficient-condition checks", **kw)
    bsub = pb.add_subparsers(dest="subcommand", required=True)
    pbc = add_sub(bsub, "check", instance, scheme)
    pbc.add_argument("--theorem", choices=["thm1", "thm3", "thm2-rate"])
    pbs = add_sub(bsub, "search")
    pbs.add_argument("--spec", help="JSON file with instance, base scheme, and grid lists")

    ps = sub.add_parser("simulate", help="Monte Carlo chains", **kw)
    ssub = ps.add_subparsers(dest="subcommand", required=True)
    psd = add_sub(ssub, "dueck", chain)
    psd.add_argument("--params", help="JSON {a,k,eta} or {joint: [[...]]} file")
    psd.add_argument("--capacity-slack", type=float)
    add_sub(ssub, "generic", instance, chain)

    pt = sub.add_parser("test", help="statistical validation runs", **kw)
    tsub = pt.add_subparsers(dest="subcommand", required=True)
    pti = add_sub(tsub, "interleave")
    pti.add_argument("--law", help="JSON {positions: [[...], ...]} per-position pmfs")
    pti.add_argument("--m", type=int)
    pti.add_argument("--significance", type=float)
    pti.add_argument("--control", action="store_true", default=None,
                     help="test raw columns instead of interleaved ones")
    ptc = add_sub(tsub, "cc-exponent", channel)
    ptc.add_argument("--composition", help="comma counts, sums to l")
    ptc.add_argument("--rate", type=float, help="nats per symbol")
    ptc.add_argument("--l", type=int)
    ptc.add_argument("--codebooks", type=int)
    ptc.add_argument("--trials-per-book", type=int)

    return p


def parse_config(argv) -> RunConfig:
    """Parse flags, then fill what they leave unset from the --config file."""
    ns = _build_parser().parse_args(argv)
    if getattr(ns, "config", None):
        _fill_from_config(ns, ns.config)
    values = vars(ns)
    values.pop("config", None)
    if "seed" not in values:
        try:
            values["seed"] = _seed(os.environ.get(SEED_ENV_VAR) or "0")
        except argparse.ArgumentTypeError as exc:
            raise SystemExit(f"error: {SEED_ENV_VAR}: {exc}")
    names = {f.name for f in fields(RunConfig)}
    cfg = RunConfig(**{k: values.pop(k) for k in list(values) if k in names},
                    options=dict(sorted(values.items())))
    if cfg.threads < 1:
        raise SystemExit(f"error: threads must be at least 1, got {cfg.threads}")
    return cfg


def _fill_from_config(ns: argparse.Namespace, path: str) -> None:
    """Set what the flags left unset in ``ns`` from a JSON file.

    Each key is a long option name and goes through the same parser as the
    flags, under the same command: a JSON true or false sets a switch, null
    leaves the option unset, and any other value is read as the flag's text.
    An unknown key, or a value its flag would refuse, is an error naming
    the key.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"error: config file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise SystemExit("error: config file must hold a JSON object")
    key_of, tokens = {}, []
    for key, value in doc.items():
        if not key.replace("-", "_").isidentifier():
            # a space or "=" in a key would change how the parser splits its token
            raise SystemExit(f"error: unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        key_of[flag] = key
        if value is not None:
            # a bool is the bare flag, which only a switch takes (false is restored below)
            tokens.append(flag if isinstance(value, bool) else f"{flag}={value}")
    command = [ns.command] + ([ns.subcommand] if getattr(ns, "subcommand", None) else [])
    try:
        found, unknown = _build_parser(strict=True).parse_known_args(command + tokens)
    except argparse.ArgumentError as exc:
        key = key_of.get(exc.argument_name, exc.argument_name)
        raise SystemExit(f"error: config key {key!r}: {exc.message}")
    if unknown:
        raise SystemExit(f"error: unknown config key {key_of[unknown[0].split('=')[0]]!r}")
    for key, value in doc.items():
        if value is False:
            setattr(found, key.replace("-", "_"), False)
    for dest, value in vars(found).items():
        if getattr(ns, dest, None) is None:
            setattr(ns, dest, value)


# ---------------------------------------------------------------------------
# input loading helpers
# ---------------------------------------------------------------------------

def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_pmf(path: str) -> _probkit.Pmf:
    return _probkit.Pmf(_load_json(path)["probs"])


def _load_dmc(path: str) -> _probkit.Dmc:
    return _probkit.Dmc(_load_json(path)["rows"])


def _load_instance_from_doc(d: dict) -> _bounds.ProblemInstance:
    kw = {k: _probkit.Pmf(d[k]) for k in ("p_w1", "p_w2") if d.get(k) is not None}
    return _bounds.ProblemInstance(
        source=_probkit.JointPmf(d["source"]), f1=d["f1"], f2=d["f2"], ic=d["ic"],
        p_u=_probkit.Pmf(d["p_u"]), p_v1=_probkit.Pmf(d["p_v1"]),
        p_v2=_probkit.Pmf(d["p_v2"]), p_x1_given_uv1=d["p_x1_given_uv1"],
        p_x2_given_uv2=d["p_x2_given_uv2"], k_size=d.get("k_size"), **kw)


def _scheme_from_doc(d: dict) -> _bounds.SchemeParams:
    return _bounds.SchemeParams(l=d["l"], delta=d["delta"], A=d["A"], B=d["B"],
                                rho=d["rho"], m=d.get("m", 1))


def _parse_int_list(text: str, flag: str) -> list[int]:
    """A comma list of integers; an empty list is an error naming the flag."""
    values = [int(v) for v in text.split(",") if v.strip()]
    if not values:
        raise ValueError(f"{flag} {text!r}: no value given")
    return values


def _parse_rates(text: str) -> list[float]:
    """start:stop:step (stop included) or a comma list; a rate list is never empty."""
    if ":" in text:
        start, stop, step = (float(v) for v in text.split(":"))
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"rates {text!r}: start, stop and step must be finite")
        if step <= 0.0:
            raise ValueError(f"rates {text!r}: step must be positive")
        if stop < start:
            raise ValueError(f"rates {text!r}: stop lies below start")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(n)]
    rates = [float(v) for v in text.split(",") if v.strip()]
    if not rates:
        raise ValueError(f"rates {text!r}: no rate given")
    if any(map(math.isinf, rates)):
        raise ValueError(f"rates {text!r}: each rate must be finite")
    return rates


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def json_text(obj, indent: int = 2) -> str:
    """The one JSON writer of reports: RFC 8259 text, so any strict parser
    reads it. An infinite float is written as null (a log-domain value's
    log 0 = -inf, or the +inf capacity of an absent private pipe); a NaN
    raises ValueError."""
    return json.dumps(_nulled(obj), indent=indent, allow_nan=False)


def _nulled(obj):
    """obj with each infinite float replaced by None; a NaN is left for
    json.dumps to refuse."""
    if isinstance(obj, float):
        return None if math.isinf(obj) else obj
    if isinstance(obj, dict):
        return {k: _nulled(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nulled(v) for v in obj]
    return obj


def _emit(payload, cfg: RunConfig, csv_rows=None) -> None:
    """Write the report atomically (or to stdout), embedding the config."""
    if cfg.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        text = buf.getvalue()
    else:
        doc = {"config": cfg.resolved(), "unit": cfg.unit, "report": payload}
        if not cfg.no_timestamp:
            doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        text = json_text(doc) + "\n"
    if cfg.out:
        tmp = cfg.out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, cfg.out)
    else:
        sys.stdout.write(text)


def _unit_factor(cfg: RunConfig) -> float:
    return _LN2 if cfg.unit == "bits" else 1.0


def _in_unit(doc: dict, cfg: RunConfig, *keys: str) -> dict:
    """doc with the named nats fields in cfg's unit (x / 1.0 is x exactly)."""
    factor = _unit_factor(cfg)
    return {**doc, **{k: doc[k] / factor for k in keys}}


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _opt(cfg: RunConfig, name: str, default):
    val = cfg.options.get(name)
    return default if val is None else val


def _given(cfg: RunConfig, *names: str) -> dict:
    """The named options that were set; the library's defaults cover the rest."""
    return {name: cfg.options[name] for name in names if cfg.options[name] is not None}


def _sat_outputs(cfg: RunConfig) -> tuple[int, int]:
    text = _opt(cfg, "sat_outputs", "4,4")
    sizes = _parse_int_list(text, "--sat-outputs")
    if len(sizes) != 2 or min(sizes) < 1:
        raise ValueError(f"--sat-outputs {text!r}: give two output sizes, each at least 1")
    return sizes[0], sizes[1]


def _require(cfg: RunConfig, name: str):
    val = cfg.options.get(name)
    if val is None:
        raise ValueError(f"missing required option {name!r}")
    return val


def _cmd_exponent(cfg: RunConfig) -> int:
    channel = _load_dmc(_require(cfg, "channel"))
    pmf = (_load_pmf(cfg.options["input_pmf"]) if cfg.options.get("input_pmf")
           else _probkit.Pmf.uniform(channel.num_inputs))
    rates = _parse_rates(_opt(cfg, "rates", "0:0.7:0.05"))
    factor = _unit_factor(cfg)
    rows = [("rate", "exponent")]
    curve = []
    solver = _exponent.ChannelExponent(pmf, channel)
    for r in rates:
        er = solver.at(r)
        rows.append((r / factor, er / factor))
        curve.append({"rate": r / factor, "exponent": er / factor})
    _emit({"curve": curve}, cfg, csv_rows=rows)
    return 0


def _cmd_dueck_lc_check(cfg: RunConfig) -> int:
    a_grid = _parse_int_list(
        _opt(cfg, "a_grid", "2,4,8,16,32,64,128,256,512,1024,2048,4096"), "--a-grid")
    k_grid = _parse_int_list(
        _opt(cfg, "k_grid", "2,5,10,20,50,100,200,500,1000,2000"), "--k-grid")
    scan = _dueck.scan_lc_margin(a_grid, k_grid, sat_output_sizes=_sat_outputs(cfg),
                                 **_given(cfg, "eta"))
    rows = [("a", "k", "margin")] + [(a, k, m) for a, k, m in scan.margins]
    _emit(scan.to_dict(), cfg, csv_rows=rows)
    return 0 if scan.first_positive else 1


def _cmd_dueck_feasibility(cfg: RunConfig) -> int:
    params = _dueck.DueckParams(_require(cfg, "a"), _require(cfg, "k"), _opt(cfg, "eta", 8))
    ny1, ny2 = _sat_outputs(cfg)
    report = _dueck.section3a_feasibility(params, sat_output_sizes=(ny1, ny2))
    payload = {"section3a": report.to_dict()}
    try:
        inst, sp = _dueck.lemma2_scheme(params, sat_output_sizes=(ny1, ny2))
        payload["witness"] = _bounds.check_thm1(inst, sp).to_dict()
    except ValueError as exc:
        payload["witness"] = {"skipped": str(exc)}
    payload["lc_margin"] = _dueck.lc_infeasibility_margin(
        params, _dueck.log_output_alphabet(params.a, ny1, ny2))
    _emit(payload, cfg)
    return 0 if report.overall else 1


def _cmd_bounds_check(cfg: RunConfig) -> int:
    inst = _load_instance_from_doc(_load_json(_require(cfg, "instance")))
    sp = _scheme_from_doc(_load_json(_require(cfg, "scheme")))
    check = {"thm1": _bounds.check_thm1, "thm3": _bounds.check_thm3,
             "thm2-rate": _bounds.check_thm2_rate_point}[_opt(cfg, "theorem", "thm1")]
    report = check(inst, sp)
    _emit(report.to_dict(), cfg)
    return 0 if report.overall else 1


def _cmd_bounds_search(cfg: RunConfig) -> int:
    spec = _load_json(_require(cfg, "spec"))
    inst_doc = spec["instance"]
    tmp_inst = json.dumps(inst_doc)
    inst = _load_instance_from_doc(inst_doc)
    base = spec["scheme"]
    grid_axes = spec.get("grid", {})
    names = sorted(grid_axes)
    combos = [()]
    for name in names:
        if not grid_axes[name]:
            raise ValueError(f"grid axis {name!r} is empty")
        combos = [c + (v,) for c in combos for v in grid_axes[name]]

    def make_case(combo):
        return inst, _scheme_from_doc({**base, **dict(zip(names, combo))})

    result = _bounds.search_feasible(make_case, combos)
    rows = [tuple(names) + ("phi", "min_slack", "feasible")]
    for combo, rep in zip(combos, result.reports):
        rows.append(combo + (rep.phi, rep.min_slack, bool(rep.overall)))
    payload = {
        "feasible": [{"params": dict(zip(names, c)), "min_slack": r.min_slack}
                     for c, r in result.feasible],
        "best_attempt": (
            {"params": dict(zip(names, result.best_attempt[0])),
             "report": result.best_attempt[1].to_dict()}
            if result.best_attempt else None),
        "instance_digest": zlib.crc32(tmp_inst.encode()),
    }
    _emit(payload, cfg, csv_rows=rows)
    return 0 if result.feasible else 1


_STATS_COLUMNS = (
    "trials", "m", "l", "seed",
    "inner_error_1", "inner_error_2", "block_error_1", "block_error_2",
    "matrix_fail_1", "matrix_fail_2", "wrong_accepts_1", "wrong_accepts_2",
    "rate_demand", "satellite_capacity", "phi_bound", "s1_neq_s2_rate",
)


def _stats_row(stats: "_simulate.TrialStats", factor: float) -> tuple:
    return (stats.trials, stats.m, stats.l, stats.seed,
            stats.inner_error_rate[0], stats.inner_error_rate[1],
            stats.block_error_rate[0], stats.block_error_rate[1],
            stats.matrix_failure_rate[0], stats.matrix_failure_rate[1],
            stats.wrong_accepts[0], stats.wrong_accepts[1],
            stats.rate_demand / factor, stats.satellite_capacity / factor,
            stats.phi_bound, stats.s1_neq_s2_rate)


def _emit_stats(all_stats: list, cfg: RunConfig) -> None:
    """One JSON document, or a CSV with one row per configuration."""
    factor = _unit_factor(cfg)
    rows = [_STATS_COLUMNS] + [_stats_row(s, factor) for s in all_stats]
    docs = [_in_unit(s.to_dict(), cfg, "rate_demand", "satellite_capacity")
            for s in all_stats]
    _emit(docs[0] if len(docs) == 1 else docs, cfg, csv_rows=rows)


def _simulate_each_scheme(cfg: RunConfig, chain, first, **kw) -> int:
    """Run ``chain(first, scheme, ...)`` for the --scheme document, or for
    each scheme of a list, and emit the reports together."""
    scheme_doc = _load_json(_require(cfg, "scheme"))
    schemes = scheme_doc if isinstance(scheme_doc, list) else [scheme_doc]
    if not schemes:
        raise ValueError("scheme list is empty")
    _emit_stats([chain(first, _scheme_from_doc(sd), seed=cfg.seed, **kw)
                 for sd in schemes], cfg)
    return 0


def _cmd_simulate_dueck(cfg: RunConfig) -> int:
    d = _load_json(_require(cfg, "params"))
    if "joint" in d:
        source = _probkit.JointPmf(d["joint"])
    else:
        source = _dueck.DueckParams(d["a"], d["k"], d["eta"])
    return _simulate_each_scheme(
        cfg, _simulate.simulate_dueck, source, trials=_opt(cfg, "trials", 1000),
        **_given(cfg, "e_max", "hash_bits", "capacity_slack"))


def _cmd_simulate_generic(cfg: RunConfig) -> int:
    return _simulate_each_scheme(
        cfg, _simulate.simulate_generic,
        _load_instance_from_doc(_load_json(_require(cfg, "instance"))),
        trials=_opt(cfg, "trials", 200), **_given(cfg, "e_max", "hash_bits"))


def _cmd_test_interleave(cfg: RunConfig) -> int:
    d = _load_json(_require(cfg, "law"))
    pmfs = [_probkit.Pmf(p) for p in d["positions"]]
    report = _simulate.interleave_iid_test(
        pmfs, m=_opt(cfg, "m", 10000), seed=cfg.seed,
        interleaved=not cfg.options["control"], **_given(cfg, "significance"))
    _emit(report.to_dict(), cfg)
    return 0 if report.passed else 1


def _cmd_test_cc_exponent(cfg: RunConfig) -> int:
    channel = _load_dmc(_require(cfg, "channel"))
    comp = _parse_int_list(_require(cfg, "composition"), "--composition")
    report = _simulate.cc_exponent_test(
        channel, comp, rate=_require(cfg, "rate"), l=_require(cfg, "l"),
        codebooks=_opt(cfg, "codebooks", 100),
        trials_per_book=_opt(cfg, "trials_per_book", 20), seed=cfg.seed)
    _emit(_in_unit(report.to_dict(), cfg, "rate", "exponent"), cfg)
    return 0 if report.passed else 1


_HANDLERS = {
    ("exponent", None): _cmd_exponent,
    ("dueck", "lc-check"): _cmd_dueck_lc_check,
    ("dueck", "feasibility"): _cmd_dueck_feasibility,
    ("bounds", "check"): _cmd_bounds_check,
    ("bounds", "search"): _cmd_bounds_search,
    ("simulate", "dueck"): _cmd_simulate_dueck,
    ("simulate", "generic"): _cmd_simulate_generic,
    ("test", "interleave"): _cmd_test_interleave,
    ("test", "cc-exponent"): _cmd_test_cc_exponent,
}


def run(cfg: RunConfig) -> int:
    try:
        return _HANDLERS[cfg.command, cfg.subcommand](cfg)
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            _exponent.ExponentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    try:
        return run(parse_config(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code
        if isinstance(code, str):
            print(code, file=sys.stderr)
            return 2
        return 2 if code not in (0, None) else int(code or 0)
    except Exception as exc:
        # exit 1 means a written infeasible/failed report, so a crash is an error
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
