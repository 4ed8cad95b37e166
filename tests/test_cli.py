import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fblic import cli
from fblic import codec as cd
from fblic import exponent as ex
from fblic import probkit as pk


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def bsc_file(tmp_path):
    return write(tmp_path / "bsc.json", {"rows": [[0.9, 0.1], [0.1, 0.9]]})


def run_cli(args):
    return cli.run(cli.parse_config(args))


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def test_parse_defaults_and_env_seed(monkeypatch, bsc_file):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    cfg = cli.parse_config(["exponent", "--channel", bsc_file])
    assert cfg.seed == 0 and cfg.format == "json" and cfg.unit == "nats"
    monkeypatch.setenv(cli.SEED_ENV_VAR, "99")
    cfg = cli.parse_config(["exponent", "--channel", bsc_file])
    assert cfg.seed == 99
    # an explicit flag beats the environment
    cfg = cli.parse_config(["exponent", "--channel", bsc_file, "--seed", "7"])
    assert cfg.seed == 7


def test_config_file_fills_unset_values(tmp_path, bsc_file):
    conf = write(tmp_path / "conf.json",
                 {"seed": 5, "rates": "0:0.2:0.1", "format": "csv"})
    cfg = cli.parse_config(["exponent", "--config", conf, "--channel", bsc_file])
    assert cfg.seed == 5
    assert cfg.format == "csv"
    assert cfg.options["rates"] == "0:0.2:0.1"
    # flags override the file
    cfg2 = cli.parse_config(["exponent", "--config", conf, "--channel", bsc_file,
                             "--seed", "1", "--format", "json"])
    assert cfg2.seed == 1 and cfg2.format == "json"
    # a JSON true or false sets a switch on or off
    for value in (True, False):
        switch = write(tmp_path / "switch.json", {"no_timestamp": value})
        cfg3 = cli.parse_config(["exponent", "--config", switch, "--channel", bsc_file])
        assert cfg3.no_timestamp is value


@pytest.mark.parametrize("text, message", [
    ('{"seed": 5', "error: config file is not valid JSON: "),
    ('["seed", 5]', "error: config file must hold a JSON object\n"),
])
def test_config_file_not_a_json_object_exits_2(tmp_path, capsys, bsc_file, text, message):
    conf = tmp_path / "conf.json"
    conf.write_text(text)
    out = tmp_path / "curve.json"
    assert cli.main(["exponent", "--channel", bsc_file, "--config", str(conf),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


def test_config_unknown_key_and_malformed_value(tmp_path, bsc_file):
    conf = write(tmp_path / "bad.json", {"definitely_not_a_key": 1})
    with pytest.raises(SystemExit) as err:
        cli.parse_config(["exponent", "--config", conf, "--channel", bsc_file])
    assert "definitely_not_a_key" in str(err.value)
    conf2 = write(tmp_path / "bad2.json", {"seed": "not-a-number"})
    with pytest.raises(SystemExit) as err2:
        cli.parse_config(["exponent", "--config", conf2, "--channel", bsc_file])
    assert "seed" in str(err2.value)


# (command, inputs, key, value, the same value as flags)
_REJECTED_CONFIG = [
    (["bounds", "check"], "check", "theorem", "thm9", ["--theorem", "thm9"]),
    (["test", "interleave"], "law", "control", "no", ["--control=no"]),
    (["exponent"], "curve", "no_timestamp", "false", ["--no-timestamp=false"]),
    (["simulate", "dueck"], "dueck", "e_max", 2.7, ["--e-max", "2.7"]),
    (["simulate", "dueck"], "dueck", "trials", True, ["--trials"]),
    (["exponent"], "curve", "format", "xml", ["--format", "xml"]),
    (["exponent"], "curve", "unit", "furlongs", ["--unit", "furlongs"]),
    (["exponent"], "curve", "seed", "x", ["--seed", "x"]),
]


@pytest.fixture
def command_inputs(tmp_path, bsc_file):
    inst = write(tmp_path / "inst.json", instance_doc())
    sch = write(tmp_path / "scheme.json", dict(scheme_doc(la_bits=8), m=2))
    params = write(tmp_path / "params.json", {"joint": [[0.45, 0.05], [0.05, 0.45]]})
    law = write(tmp_path / "law.json", {"positions": [[0.5, 0.5], [0.2, 0.8]]})
    return {
        "check": ["--instance", inst, "--scheme", sch],
        "law": ["--law", law, "--m", "500"],
        "curve": ["--channel", bsc_file, "--rates", "0:0.2:0.1"],
        "dueck": ["--params", params, "--scheme", sch],
    }


@pytest.mark.parametrize("command, inputs, key, value, flags", _REJECTED_CONFIG,
                         ids=[case[2] for case in _REJECTED_CONFIG])
def test_config_value_rejected_like_its_flag(tmp_path, capsys, command_inputs,
                                             command, inputs, key, value, flags):
    # a config value takes the flags' path, so it is refused exactly when its flag is
    conf = write(tmp_path / "conf.json", {key: value})
    out = tmp_path / "report.json"
    args = [*command, *command_inputs[inputs]]
    assert cli.main([*args, "--config", conf, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config key {key!r}" in err and err.count("\n") == 1
    assert not out.exists()
    assert cli.main([*args, *flags, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, inputs, flags", [
    (["simulate", "dueck"], "dueck",
     ["--trials", "2", "--e-max", "1", "--hash-bits", "64", "--capacity-slack", "0.5",
      "--unit", "bits"]),
    (["test", "interleave"], "law", ["--control", "--significance", "0.05"]),
    (["exponent"], "curve", ["--format", "json", "--seed", "4", "--threads", "2"]),
])
def test_config_report_matches_flags(tmp_path, command_inputs, command, inputs, flags):
    # the same run, configured once only by flags and once only by a file
    tokens = [*command_inputs[inputs], *flags, "--no-timestamp"]
    doc, i = {}, 0
    while i < len(tokens):
        key = tokens[i][2:].replace("-", "_")
        if i + 1 < len(tokens) and not tokens[i + 1].startswith("--"):
            doc[key], i = tokens[i + 1], i + 2
        else:
            doc[key], i = True, i + 1
    conf = write(tmp_path / "conf.json", doc)
    by_flags, by_file = tmp_path / "flags.json", tmp_path / "file.json"
    code = cli.main([*command, *tokens, "--out", str(by_flags)])
    assert cli.main([*command, "--config", conf, "--out", str(by_file)]) == code
    assert code in (0, 1)
    assert by_file.read_bytes() == by_flags.read_bytes()


@pytest.mark.parametrize("doc, key", [
    ({"out=x.json": "y"}, "out=x.json"),
    ({"out": True, "x y": 1}, "x y"),
    ({"help": True}, "help"),
    ({"tri": 2}, "tri"),
])
def test_config_key_not_an_option_name_is_unknown(tmp_path, monkeypatch, capsys,
                                                  command_inputs, doc, key):
    # neither an abbreviation nor a key the parser would split differently
    # names an option, and no report is written under a name made from one
    conf = write(tmp_path / "conf.json", doc)
    monkeypatch.chdir(tmp_path)
    inputs = sorted(tmp_path.iterdir())
    assert cli.main(["simulate", "dueck", *command_inputs["dueck"], "--config", conf]) == 2
    assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
    assert sorted(tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("source, value", [
    ("config", -3), ("config", "x"), ("config", 1.5), ("env", "x"), ("env", "-3"),
])
def test_bad_seed_from_config_or_environment_exits_2(tmp_path, monkeypatch, capsys,
                                                     bsc_file, source, value):
    # one line naming the key or the variable, exit 2, no report
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    args = ["exponent", "--channel", bsc_file, "--rates", "0.1", "--out", str(tmp_path / "r.json")]
    if source == "config":
        args += ["--config", write(tmp_path / "conf.json", {"seed": value})]
        where = "config key 'seed'"
    else:
        monkeypatch.setenv(cli.SEED_ENV_VAR, value)
        where = cli.SEED_ENV_VAR
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err == f"error: {where}: expected a non-negative integer, got {str(value)!r}\n"
    assert not (tmp_path / "r.json").exists()


def test_invalid_subcommand_exits_2():
    assert cli.main(["nonsense"]) == 2


def test_parser_reuse_gives_fresh_parse_results(tmp_path, bsc_file):
    conf = write(tmp_path / "conf.json", {"seed": 5, "rates": "0:0.2:0.1"})
    spec = write(tmp_path / "spec.json", {})
    a = ["exponent", "--config", conf, "--channel", bsc_file, "--unit", "bits"]
    b = ["bounds", "search", "--spec", spec, "--seed", "2", "--format", "csv"]

    def fresh(argv):
        cli._build_parser.cache_clear()
        return cli.parse_config(argv)

    alone = [fresh(a), fresh(b)]
    in_turn = [cli.parse_config(argv) for argv in (a, b, a)]
    assert in_turn == [alone[0], alone[1], alone[0]]
    assert in_turn[0].seed == 5 and in_turn[0].options["rates"] == "0:0.2:0.1"
    assert in_turn[1].options == {"spec": spec}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_exponent_csv_curve(tmp_path, bsc_file):
    out = tmp_path / "curve.csv"
    code = run_cli(["exponent", "--channel", bsc_file, "--rates", "0:0.4:0.2",
                    "--format", "csv", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "rate,exponent"
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    assert vals[0] == pytest.approx(-math.log(0.8), abs=1e-6)
    assert vals == sorted(vals, reverse=True)
    assert not (tmp_path / "curve.csv.tmp").exists()


def test_exponent_unit_bits(tmp_path, bsc_file):
    out_n = tmp_path / "nats.json"
    out_b = tmp_path / "bits.json"
    run_cli(["exponent", "--channel", bsc_file, "--rates", "0:0.1:0.1",
             "--out", str(out_n), "--no-timestamp"])
    run_cli(["exponent", "--channel", bsc_file, "--rates", "0:0.1:0.1",
             "--out", str(out_b), "--no-timestamp", "--unit", "bits"])
    nats = json.loads(out_n.read_text())["report"]["curve"]
    bits = json.loads(out_b.read_text())["report"]["curve"]
    assert bits[0]["exponent"] == pytest.approx(nats[0]["exponent"] / math.log(2), rel=1e-12)


def test_exponent_input_pmf_file(tmp_path, bsc_file):
    # a non-uniform --input-pmf gives the solver's exponents at that pmf
    pmf = write(tmp_path / "pmf.json", {"probs": [0.3, 0.7]})
    out = tmp_path / "curve.json"
    code = run_cli(["exponent", "--channel", bsc_file, "--input-pmf", pmf,
                    "--rates", "0:0.3:0.1", "--out", str(out)])
    assert code == 0
    curve = json.loads(out.read_text())["report"]["curve"]
    assert [p["rate"] for p in curve] == cli._parse_rates("0:0.3:0.1")
    cfg = cli.parse_config(["exponent", "--channel", bsc_file])
    rows = cli._checked(*cli._read(cfg, "channel"), "channel")["rows"]
    user = ex.ChannelExponent(pk.Pmf([0.3, 0.7]), pk.Dmc(rows))
    for point in curve:
        assert point["exponent"] == user.at(point["rate"])
    # the file is read: the default uniform pmf gives another curve
    assert run_cli(["exponent", "--channel", bsc_file, "--rates", "0:0.3:0.1",
                    "--out", str(out)]) == 0
    uniform = json.loads(out.read_text())["report"]["curve"]
    assert uniform[0]["exponent"] != curve[0]["exponent"]


def test_report_to_stdout_without_out(tmp_path, capsys, bsc_file):
    # with no --out the report goes to stdout, the --out file's bytes exactly
    args = ["exponent", "--channel", bsc_file, "--rates", "0:0.2:0.1", "--no-timestamp"]
    out = tmp_path / "curve.json"
    assert cli.main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(args) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_reports_reproducible_without_timestamp(tmp_path, bsc_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["exponent", "--channel", bsc_file, "--rates", "0:0.2:0.1", "--no-timestamp"]
    run_cli(args + ["--out", str(a)])
    run_cli(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_reports_byte_identical_across_hash_seeds(tmp_path):
    # fresh interpreters differ in their string hash seed; the config echo
    # must not depend on it
    params = write(tmp_path / "params.json", {"joint": [[0.45, 0.05], [0.05, 0.45]]})
    sch = write(tmp_path / "scheme.json", dict(scheme_doc(la_bits=8), m=2))
    src = str(pathlib.Path(cli.__file__).parents[1])
    outs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"h{hash_seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "fblic.cli", "simulate", "dueck",
                        "--params", params, "--scheme", sch, "--trials", "1",
                        "--seed", "1", "--no-timestamp", "--out", str(out)],
                       env=env, check=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_dueck_feasibility_exit_codes(tmp_path):
    out = tmp_path / "feas.json"
    ok = run_cli(["dueck", "feasibility", "--a", "512", "--k", "500",
                  "--eta", "8", "--out", str(out)])
    assert ok == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["section3a"]["overall"] is True
    assert doc["report"]["witness"]["overall"] is True
    assert doc["report"]["lc_margin"] > 0
    bad = run_cli(["dueck", "feasibility", "--a", "4", "--k", "2",
                   "--eta", "8", "--out", str(tmp_path / "feas2.json")])
    assert bad == 1
    # at a = 2 the witness scheme does not exist (rho = 1 needs a >= 3): the
    # report says why in its place
    skipped = tmp_path / "feas3.json"
    assert run_cli(["dueck", "feasibility", "--a", "2", "--k", "2", "--eta", "8",
                    "--out", str(skipped)]) == 1
    doc = json.loads(skipped.read_text())["report"]
    assert doc["witness"] == {"skipped": "rho = 1 needs (1 - 1/k^3) log a > 1, i.e. a >= 3"}
    assert doc["section3a"]["overall"] is False


def test_dueck_lc_check(tmp_path):
    out = tmp_path / "lc.json"
    code = run_cli(["dueck", "lc-check", "--a-grid", "256,512", "--k-grid",
                    "200,500", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["first_positive"] == [512, 500]
    none = run_cli(["dueck", "lc-check", "--a-grid", "2,4", "--k-grid", "2,5",
                    "--out", str(tmp_path / "none.json")])
    assert none == 1


def instance_doc():
    from helpers import cross_ic, mix_kernel
    return {
        "source": [[0.495, 0.005], [0.005, 0.495]],
        "f1": [0, 1], "f2": [0, 1],
        "ic": cross_ic(0.005, 0.005, 0.01, 0.01).tolist(),
        "p_u": [0.5, 0.5], "p_v1": [0.5, 0.5], "p_v2": [0.5, 0.5],
        "p_x1_given_uv1": mix_kernel(0.98).tolist(),
        "p_x2_given_uv2": mix_kernel(0.98).tolist(),
    }


def folded_instance_doc():
    # a 4-symbol source folded onto 2 common-part symbols
    return dict(instance_doc(),
                source=[[0.24, 0.01, 0.0, 0.0], [0.01, 0.24, 0.0, 0.0],
                        [0.0, 0.0, 0.24, 0.01], [0.0, 0.0, 0.01, 0.24]],
                f1=[0, 1, 0, 1], f2=[0, 1, 0, 1])


def scheme_doc(l=16, la_bits=2):
    ln2 = math.log(2)
    return {"l": l, "delta": 0.75, "A": la_bits * ln2 / l,
            "B": (l - la_bits) * ln2 / l, "rho": 0.02, "m": 16}


def test_bounds_check_command(tmp_path):
    inst = write(tmp_path / "inst.json", instance_doc())
    sch = write(tmp_path / "scheme.json", scheme_doc())
    out = tmp_path / "report.json"
    code = run_cli(["bounds", "check", "--instance", inst, "--scheme", sch,
                    "--theorem", "thm1", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["report"]["status"] in ("feasible", "infeasible", "infeasible-by-phi")
    assert code in (0, 1)
    code2 = run_cli(["bounds", "check", "--instance", inst, "--scheme", sch,
                     "--theorem", "thm2-rate", "--out", str(tmp_path / "r2.json")])
    doc2 = json.loads((tmp_path / "r2.json").read_text())
    assert doc2["report"]["status"] == "indeterminate"
    assert code2 == 1


@pytest.mark.parametrize("instance, scheme, message", [
    # numpy would wrap -1 to the last symbol, and truncate 1.7, 2.9, 16.7 and 2.5
    ({"f1": [-1, -1]}, {}, "f1 must be a list of non-negative integers"),
    ({"f2": [0, 1.7]}, {}, "f2 must be a list of non-negative integers"),
    ({"k_size": 2.9}, {}, "k_size must be an integer >= 0, got 2.9"),
    ({}, {"l": 16.7}, "l must be an integer >= 1, got 16.7"),
    ({}, {"m": 2.5}, "m must be an integer >= 1, got 2.5"),
    # a non-finite rate or tolerance would reach a report as NaN or inf
    ({}, {"B": math.nan}, "B must be finite, got nan"),
    ({}, {"A": math.inf}, "A must be finite, got inf"),
    ({}, {"delta": math.inf}, "delta must be finite, got inf"),
    ({}, {"rho": -math.inf}, "rho must be finite, got -inf"),
    # a field that is not a number names itself, not float()'s TypeError
    ({}, {"delta": [0.75]}, "delta must be a number, got [0.75]"),
    ({}, {"A": [0.1]}, "A must be a number, got [0.1]"),
    ({}, {"B": {"nats": 0.6}}, "B must be a number, got {'nats': 0.6}"),
    ({}, {"rho": [0.01, 0.02]}, "rho must be a number, got [0.01, 0.02]"),
    # the dense k x k law of the common parts would take 80 GB
    ({"k_size": 100_000}, {}, "common part of 100000 symbols from k_size"),
    ({"f2": [0, 99_999]}, {}, "common part of 100000 symbols from f2"),
    # p_U = (1/3, 2/3) is no type of denominator 1000, nor of 10^9, where an
    # allowance of 1e-9 * l on the counts would reach 1/2 and pass any pmf
    ({"p_u": [1 / 3, 2 / 3]}, {"l": 1000}, "p_U must be a type of denominator l"),
    ({"p_u": [1 / 3, 2 / 3]}, {"l": 10 ** 9}, "p_U must be a type of denominator l"),
    # a key SchemeParams does not take names the document: "M" in place of
    # "m" would run at m = 1
    ({}, {"M": 8}, "scheme.json: unknown scheme key 'M'"),
])
def test_bounds_check_non_integral_field_exits_2(tmp_path, capsys, instance, scheme, message):
    inst = write(tmp_path / "inst.json", {**instance_doc(), **instance})
    sch = write(tmp_path / "scheme.json", {**scheme_doc(), **scheme})
    out = tmp_path / "report.json"
    code = cli.main(["bounds", "check", "--instance", inst, "--scheme", sch, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and err.count("\n") == 1
    assert not out.exists()


def test_bounds_check_accepts_a_type_of_denominator_10_18(tmp_path):
    # p_U = (1/2, 1/2) is a type of any even l; the check runs and reports
    inst = write(tmp_path / "inst.json", instance_doc())
    sch = write(tmp_path / "scheme.json", {**scheme_doc(), "l": 10 ** 18})
    out = tmp_path / "report.json"
    code = run_cli(["bounds", "check", "--instance", inst, "--scheme", sch, "--out", str(out)])
    assert code in (0, 1) and out.exists()


def test_bounds_search_command(tmp_path):
    spec = write(tmp_path / "spec.json", {
        "instance": instance_doc(),
        "scheme": scheme_doc(),
        "grid": {"B": [0.1, 0.6066017177982121]},
    })
    out = tmp_path / "search.json"
    code = run_cli(["bounds", "search", "--spec", spec, "--out", str(out)])
    doc = json.loads(out.read_text())
    assert code in (0, 1)
    assert "feasible" in doc["report"] and "best_attempt" in doc["report"]
    # the crc32 of the instance as read, before any default is filled in
    assert doc["report"]["instance_digest"] == zlib.crc32(json.dumps(instance_doc()).encode())


def _clean_instance_doc():
    # x_j = 2u + v_j seen without noise by its own receiver, and K = S: I(V_j; Y_j) = log 2,
    # the shared word's channel is clean and H(S_j | K_1) = 0
    ic = [[[[float((y1, y2) == (x1, x2)) for y2 in range(4)] for y1 in range(4)]
           for x2 in range(4)] for x1 in range(4)]
    kernel = [[[float(x == 2 * u + v) for x in range(4)] for v in range(2)] for u in range(2)]
    return {"source": [[0.5, 0.0], [0.0, 0.5]], "f1": [0, 1], "f2": [0, 1], "ic": ic,
            "p_u": [0.5, 0.5], "p_v1": [0.5, 0.5], "p_v2": [0.5, 0.5],
            "p_x1_given_uv1": kernel, "p_x2_given_uv2": kernel}


def test_bounds_search_lists_feasible_points_in_rank_order(tmp_path):
    # B = 0.5 misses the A+B budget and rho = 0.2 leaves no exponent gap, so
    # four of nine points hold; they list by slack, ties in grid order, and the
    # best attempt is the first of them
    spec = write(tmp_path / "spec.json", {
        "instance": _clean_instance_doc(),
        "scheme": {"l": 256, "delta": 0.3, "A": 0.3, "B": 0.5, "rho": 0.05, "m": 4},
        "grid": {"B": [0.5, 0.68, 0.65], "rho": [0.02, 0.05, 0.2]}})
    out = tmp_path / "search.json"
    assert run_cli(["bounds", "search", "--spec", spec, "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert [tuple(p["params"].values()) for p in report["feasible"]] == [
        (0.65, 0.02), (0.65, 0.05), (0.68, 0.02), (0.68, 0.05)]
    slacks = [p["min_slack"] for p in report["feasible"]]
    assert slacks == sorted(slacks, reverse=True) and slacks[-1] > 0.0
    assert report["best_attempt"]["params"] == {"B": 0.65, "rho": 0.02}
    assert report["best_attempt"]["report"]["min_slack"] == slacks[0]


def test_bounds_search_checks_each_point_once(tmp_path, monkeypatch):
    from fblic import bounds as bd
    grid = {"B": [0.1, 0.6066017177982121], "rho": [0.01, 0.02]}
    spec = write(tmp_path / "spec.json",
                 {"instance": instance_doc(), "scheme": scheme_doc(), "grid": grid})
    evals = []
    original = bd.ProblemInstance.thm1_quantities

    def counted(self, sp, **kw):
        evals.append(sp)
        return original(self, sp, **kw)

    monkeypatch.setattr(bd.ProblemInstance, "thm1_quantities", counted)
    out = tmp_path / "search.csv"
    run_cli(["bounds", "search", "--spec", spec, "--format", "csv", "--out", str(out)])
    assert len(evals) == 4
    # every CSV row is the report a fresh check of its point gives
    inst = cli._instance(cli._checked(instance_doc(), "spec.json: instance", "instance"))
    rows = out.read_text().splitlines()
    assert rows[0] == "B,rho,phi,min_slack,feasible"
    for row, sp in zip(rows[1:], evals):
        rep = bd.check_thm1(inst, sp)
        assert row == f"{sp.B!r},{sp.rho!r},{rep.phi!r},{rep.min_slack!r},{bool(rep.overall)}"


def test_bounds_search_computes_rate_free_terms_once(tmp_path, monkeypatch):
    # each user's exponent setup, injective test included, runs once per
    # search; tau once per (l, delta) and the type test once per l
    from fblic import bounds as bd
    grid = {"B": [0.1, 0.6], "rho": [0.01, 0.02], "l": [16, 32], "delta": [0.75, 1.5]}
    spec = write(tmp_path / "spec.json",
                 {"instance": instance_doc(), "scheme": scheme_doc(), "grid": grid})
    calls = {"setup": [], "injective": [], "tau": [], "type": []}

    def counted(name, original, key):
        def wrapper(*args):
            calls[name].append(key(*args))
            return original(*args)
        return wrapper

    monkeypatch.setattr(ex.ChannelExponent, "__init__", counted(
        "setup", ex.ChannelExponent.__init__, lambda self, p, w: w.rows.tobytes()))
    monkeypatch.setattr(ex, "is_deterministic_injective", counted(
        "injective", ex.is_deterministic_injective, lambda w: w.rows.tobytes()))
    monkeypatch.setattr(bd, "log_tau_l_delta", counted(
        "tau", bd.log_tau_l_delta, lambda p, l, delta: (l, delta)))
    monkeypatch.setattr(bd, "is_type_of", counted("type", bd.is_type_of, lambda p, l: l))
    run_cli(["bounds", "search", "--spec", spec, "--format", "csv",
             "--out", str(tmp_path / "search.csv")])
    assert len((tmp_path / "search.csv").read_text().splitlines()) == 1 + 16
    assert len(calls["setup"]) == len(calls["injective"]) == 2
    assert calls["setup"] == calls["injective"]
    assert sorted(calls["tau"]) == [(16, 0.75), (16, 1.5), (32, 0.75), (32, 1.5)]
    assert sorted(calls["type"]) == [16, 32]


def test_simulate_dueck_command(tmp_path):
    params = write(tmp_path / "params.json",
                   {"joint": [[0.4995, 0.0005], [0.0005, 0.4995]]})
    ln2 = math.log(2)
    sch = write(tmp_path / "scheme.json",
                {"l": 32, "delta": 1.0, "A": 16 * ln2 / 32, "B": 16 * ln2 / 32,
                 "rho": 0.17, "m": 16})
    out = tmp_path / "stats.json"
    code = run_cli(["simulate", "dueck", "--params", params, "--scheme", sch,
                    "--trials", "25", "--seed", "5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["trials"] == 25
    assert doc["report"]["wrong_accepts"] == [0, 0]
    # rate fields honor the unit flag
    out_b = tmp_path / "stats_bits.json"
    run_cli(["simulate", "dueck", "--params", params, "--scheme", sch,
             "--trials", "25", "--seed", "5", "--unit", "bits",
             "--out", str(out_b)])
    doc_b = json.loads(out_b.read_text())
    assert doc_b["report"]["rate_demand"] == pytest.approx(
        doc["report"]["rate_demand"] / math.log(2), rel=1e-12)


def test_simulate_dueck_batch_csv(tmp_path):
    params = write(tmp_path / "params.json",
                   {"joint": [[0.4995, 0.0005], [0.0005, 0.4995]]})
    ln2 = math.log(2)
    base = {"l": 32, "delta": 1.0, "A": 16 * ln2 / 32, "B": 16 * ln2 / 32,
            "rho": 0.17, "m": 8}
    sch = write(tmp_path / "schemes.json", [base, dict(base, m=16)])
    out = tmp_path / "batch.csv"
    code = run_cli(["simulate", "dueck", "--params", params, "--scheme", sch,
                    "--trials", "10", "--format", "csv", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("trials,m,l,seed")
    assert len(rows) == 3  # header plus one row per configuration


def test_simulate_generic_command(tmp_path):
    inst = write(tmp_path / "inst.json", instance_doc())
    sch = write(tmp_path / "scheme.json", scheme_doc())
    out = tmp_path / "gstats.json"
    code = run_cli(["simulate", "generic", "--instance", inst, "--scheme", sch,
                    "--trials", "10", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert "channel_quality" in doc["report"]["extras"]


def test_simulate_dueck_e_max_zero(tmp_path):
    params = write(tmp_path / "params.json",
                   {"joint": [[0.4995, 0.0005], [0.0005, 0.4995]]})
    sch = write(tmp_path / "scheme.json", dict(scheme_doc(l=32, la_bits=16), m=8))
    out = tmp_path / "stats.json"
    code = cli.main(["simulate", "dueck", "--params", params, "--scheme", sch,
                     "--trials", "2", "--e-max", "0", "--out", str(out)])
    assert code == 0
    dec = json.loads(out.read_text())["report"]["extras"]["outer_decode"]
    assert dec["searched"] == [2, 2]


@pytest.mark.parametrize("chain, flags, message", [
    ("dueck", ["--trials", "0"], "trials must be at least 1"),
    ("dueck", ["--trials", "-3"], "trials must be at least 1"),
    ("dueck", ["--hash-bits", "-5"], "hash_bits must be non-negative"),
    ("dueck", ["--capacity-slack", "nan"], "capacity_slack must be finite"),
    ("dueck", ["--capacity-slack", "inf"], "capacity_slack must be finite"),
    ("generic", ["--trials", "0"], "trials must be at least 1"),
    ("generic", ["--hash-bits", "-5"], "hash_bits must be non-negative"),
    ("dueck", ["--e-max", "-1"], "e_max must be non-negative"),
    # 16 rows of 16 one-symbol flips make C(16, 3) * 16^3 > 2^20 three-row
    # patterns, which e_max=5 needs
    ("dueck", ["--e-max", "5"], "more than 2^20"),
    ("generic", ["--e-max", "-1"], "e_max must be non-negative"),
    # K is not the source here, so the outer decode never runs
    ("folded", ["--e-max", "-3"], "e_max must be non-negative"),
    # a slack below -1 gives the private pipes a negative capacity
    ("dueck", ["--capacity-slack", "-5"], "capacity_slack must be at least -1"),
    # a seed is a non-negative integer, refused by the parser with one line
    ("dueck", ["--seed", "-3"], "argument --seed: expected a non-negative integer, got '-3'"),
    ("generic", ["--seed", "x"], "argument --seed: expected a non-negative integer, got 'x'"),
    # the dueck chain's maps are the identity, so both users share one alphabet
    ("nonsquare", [], "the joint pmf must be square, got 2 x 3"),
])
def test_simulate_bad_input_exits_2(tmp_path, capsys, chain, flags, message):
    sch = write(tmp_path / "scheme.json", scheme_doc())
    if chain == "dueck":
        inputs = ["--params", write(tmp_path / "params.json", {"joint": [[0.5, 0], [0, 0.5]]})]
    elif chain == "nonsquare":
        inputs = ["--params", write(tmp_path / "params.json",
                                    {"joint": [[0.3, 0.1, 0.1], [0.1, 0.3, 0.1]]})]
        chain = "dueck"
    elif chain == "generic":
        inputs = ["--instance", write(tmp_path / "inst.json", instance_doc())]
    else:
        inputs = ["--instance", write(tmp_path / "inst.json", folded_instance_doc())]
        chain = "generic"
    out = tmp_path / "stats.json"
    code = cli.main(["simulate", chain, *inputs, "--scheme", sch, "--trials", "2",
                     *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and err.count("\n") == 1
    assert not out.exists()


def test_simulate_generic_oversized_codebook_exits_2(tmp_path, capsys, monkeypatch):
    # l = 64 at A = 1 nat asks for ~1.8e18 words of the (32, 32) type class
    def sample(*args, **kw):
        raise AssertionError("the codebook draw started")

    monkeypatch.setattr(cd, "sample_constant_composition", sample)
    inst = write(tmp_path / "inst.json", instance_doc())
    sch = write(tmp_path / "scheme.json",
                {"l": 64, "delta": 0.75, "A": 1.0, "B": 0.5, "rho": 0.02, "m": 16})
    out = tmp_path / "stats.json"
    code = cli.main(["simulate", "generic", "--instance", inst, "--scheme", sch,
                     "--trials", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "more than 2^20" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("l", [10**4, 10**6])
def test_simulate_generic_long_block_codebook_refused_from_logs(tmp_path, capsys, l):
    # at A = 2 ln 2 / 16, l = 10^4 asks for e^866 words, past exp's range, and
    # l = 10^6 for e^86643 words of a ~10^301029-word type class: both are
    # refused from their logs, with no overflow and no exact class size
    inst = write(tmp_path / "inst.json", instance_doc())
    sch = write(tmp_path / "scheme.json",
                {"l": l, "delta": 0.75, "A": 2 * math.log(2) / 16, "B": 0.5, "rho": 0.02, "m": 16})
    out = tmp_path / "stats.json"
    code = cli.main(["simulate", "generic", "--instance", inst, "--scheme", sch,
                     "--trials", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "more than 2^20" in err and err.count("\n") == 1
    assert not out.exists()


def test_simulate_generic_codebook_of_more_than_2_24_symbols_exits_2(tmp_path, capsys,
                                                                    monkeypatch):
    # l = 2000 at A = 13.8 / 2000 asks for 984609 words, under 2^20, but of
    # 2000 symbols each: 15 GiB of codewords, refused before the draw
    def draw(*args, **kw):
        raise AssertionError("the codebook draw started")

    monkeypatch.setattr(cd.np.random, "default_rng", draw)
    inst = write(tmp_path / "inst.json", instance_doc())
    sch = write(tmp_path / "scheme.json",
                {"l": 2000, "delta": 0.75, "A": 13.8 / 2000, "B": 0.5, "rho": 0.003, "m": 16})
    out = tmp_path / "stats.json"
    code = cli.main(["simulate", "generic", "--instance", inst, "--scheme", sch,
                     "--trials", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert ("refusing to draw 984609 codewords of length 2000: 1969218000 symbols, "
            "more than 2^24") in err and err.count("\n") == 1
    assert not out.exists()


def test_simulate_dueck_oversized_digest_matrix_exits_2(tmp_path, capsys, monkeypatch):
    # 2^24 digest bits on the dueck_chain fixture ask for a 2048 x 2^18-word
    # H, 4 GiB: refused before the draw, which is stubbed out here
    def draw(*args, **kw):
        raise AssertionError("the digest matrix draw started")

    monkeypatch.setattr(cd.np.random, "default_rng", draw)
    params = write(tmp_path / "params.json", {"joint": [[0.4995, 0.0005], [0.0005, 0.4995]]})
    sch = write(tmp_path / "scheme.json", dict(scheme_doc(l=32, la_bits=16), m=64))
    out = tmp_path / "stats.json"
    code = cli.main(["simulate", "dueck", "--params", params, "--scheme", sch,
                     "--trials", "2", "--hash-bits", str(1 << 24), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "digest matrix of 536870912 64-bit words: more than 2^20" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    # int() would run a = 2.9 as 2 and eta = 6.5 as 6
    ("a", 2.9, "a must be an integer >= 2, got 2.9"),
    ("k", 2.5, "k must be an integer >= 1, got 2.5"),
    ("eta", 6.5, "eta must be an integer >= 1, got 6.5"),
    ("a", "2", "a must be an integer >= 2, got '2'"),
])
def test_simulate_dueck_non_integral_params_exit_2(tmp_path, capsys, field, value, message):
    params = write(tmp_path / "params.json", {"a": 2, "k": 2, "eta": 8, field: value})
    sch = write(tmp_path / "scheme.json", dict(scheme_doc(l=8, la_bits=8), m=8))
    out = tmp_path / "stats.json"
    code = cli.main(["simulate", "dueck", "--params", params, "--scheme", sch,
                     "--trials", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("chain", ["dueck", "generic"])
def test_simulate_report_independent_of_threads(tmp_path, chain):
    sch = write(tmp_path / "scheme.json", scheme_doc())
    if chain == "dueck":
        inputs = ["--params", write(tmp_path / "params.json",
                                    {"joint": [[0.4995, 0.0005], [0.0005, 0.4995]]})]
    else:
        inputs = ["--instance", write(tmp_path / "inst.json", instance_doc())]
    docs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.json"
        assert cli.main(["simulate", chain, *inputs, "--scheme", sch, "--trials", "6",
                         "--seed", "17", "--threads", threads, "--no-timestamp",
                         "--out", str(out)]) == 0
        docs.append(json.loads(out.read_text()))
    assert [d["config"]["threads"] for d in docs] == [1, 2]
    assert docs[0]["report"] == docs[1]["report"]


_COMMANDS = [["exponent"], ["dueck", "lc-check"], ["dueck", "feasibility"],
             ["bounds", "check"], ["bounds", "search"], ["simulate", "dueck"],
             ["simulate", "generic"], ["test", "interleave"], ["test", "cc-exponent"]]


@pytest.mark.parametrize("command", _COMMANDS, ids=" ".join)
def test_threads_below_one_exits_2(tmp_path, capsys, command):
    conf = write(tmp_path / "conf.json", {"threads": 0})
    out = tmp_path / "report.json"
    for flags in (["--threads", "0"], ["--threads", "-1"], ["--config", conf]):
        code = cli.main([*command, *flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, flags
        assert "threads must be at least 1" in err and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("interleave", ["--m", "0"], "m must be at least 1"),
    ("interleave", ["--m", "-2"], "m must be at least 1"),
    ("cc-exponent", ["--codebooks", "0"], "must be at least 1"),
    ("cc-exponent", ["--trials-per-book", "0"], "must be at least 1"),
    ("cc-exponent", ["--codebooks", "-1"], "must be at least 1"),
    ("interleave", ["--significance", "-1"], "significance must lie in (0, 1)"),
    ("interleave", ["--significance", "0"], "significance must lie in (0, 1)"),
    ("interleave", ["--significance", "1"], "significance must lie in (0, 1)"),
    ("interleave", ["--significance", "2"], "significance must lie in (0, 1)"),
    ("interleave", ["--significance", "nan"], "significance must lie in (0, 1)"),
    ("interleave", ["--seed", "-3"], "argument --seed: expected a non-negative integer"),
    ("cc-exponent", ["--seed", "1.5"], "argument --seed: expected a non-negative integer"),
    ("cc-exponent", ["--rate", "inf"], "rate must be finite, got inf"),
    # refused before any arithmetic: no 0 / 0 composition, no factorial of -1
    ("cc-exponent", ["--composition", "0", "--l", "0"], "l must be at least 1, got 0"),
    ("cc-exponent", ["--composition=-1", "--l=-1"], "l must be at least 1, got -1"),
    ("cc-exponent", ["--composition=-1,9"], "composition counts must be non-negative, got -1"),
    ("cc-exponent", ["--composition", "4,3"], "composition must sum to the block length"),
    ("cc-exponent", ["--rate", "-0.1"], "rate must be a non-negative number"),
    ("cc-exponent", ["--composition", "4,x"], "--composition '4,x': each entry must be an integer"),
    # no position, and positions of two sizes
    ("interleave", {"positions": []}, "the position list is empty"),
    ("interleave", {"positions": [[0.5, 0.5], [0.2, 0.3, 0.5]]},
     "position pmfs differ in size: [2, 3]"),
])
def test_test_bad_input_exits_2(tmp_path, bsc_file, capsys, command, flags, message):
    if isinstance(flags, dict):
        flags = ["--law", write(tmp_path / "bad_law.json", flags)]
    if command == "interleave":
        inputs = ["--law", write(tmp_path / "law.json", {"positions": [[0.5, 0.5]] * 3})]
    else:
        inputs = ["--channel", bsc_file, "--composition", "4,4", "--rate", "0.1",
                  "--l", "8", "--codebooks", "2", "--trials-per-book", "2"]
    out = tmp_path / "report.json"
    code = cli.main(["test", command, *inputs, *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    (["dueck", "lc-check"], ["--a-grid", ""], "--a-grid '': no value given"),
    (["dueck", "lc-check"], ["--k-grid", ""], "--k-grid '': no value given"),
    (["dueck", "lc-check"], ["--sat-outputs", "4"], "--sat-outputs '4': give two"),
    (["dueck", "lc-check"], ["--sat-outputs", "0,4"], "--sat-outputs '0,4': give two"),
    (["dueck", "feasibility", "--a", "4", "--k", "2"], ["--sat-outputs", "4,4,4"],
     "--sat-outputs '4,4,4': give two"),
    (["bounds", "search"], {"l": []}, "grid axis 'l' is empty"),
    # the seed is checked for every command, also one that draws nothing
    (["exponent"], ["--seed", "-3"], "argument --seed: expected a non-negative integer"),
    (["bounds", "search"], ["--seed", "-1"], "argument --seed: expected a non-negative integer"),
    (["dueck", "lc-check"], ["--seed", "x"], "argument --seed: expected a non-negative integer"),
    # a grid value is checked like the scheme's own
    (["bounds", "search"], {"l": [16, 16.5]}, "l must be an integer >= 1, got 16.5"),
    # an input file no flag, config key or default names
    (["exponent"], [], "missing required option 'channel'"),
    (["bounds", "search"], [], "missing required option 'spec'"),
    (["bounds", "search"], {"rho": [0.01, [0.02]]}, "rho must be a number, got [0.02]"),
    # a misspelled axis would run three identical points
    (["bounds", "search"], {"rh0": [0.01, 0.02, 0.03]}, "spec.json: unknown scheme key 'rh0'"),
    # an entry that is not a number names the flag, not int()'s message
    (["dueck", "lc-check"], ["--a-grid", "2,x"], "--a-grid '2,x': each entry must be an integer"),
    (["dueck", "lc-check"], ["--k-grid", "2,2.5"],
     "--k-grid '2,2.5': each entry must be an integer"),
])
def test_empty_grid_and_bad_sat_outputs_exit_2(tmp_path, capsys, command, flags, message):
    if isinstance(flags, dict):
        flags = ["--spec", write(tmp_path / "spec.json", {
            "instance": instance_doc(), "scheme": scheme_doc(), "grid": flags})]
    out = tmp_path / "report.json"
    code = cli.main([*command, *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("chain", ["dueck", "generic"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_empty_scheme_list_exits_2(tmp_path, capsys, chain, fmt):
    # like an empty grid axis: no run, no report with an empty list or a bare header
    if chain == "dueck":
        inputs = ["--params", write(tmp_path / "params.json", {"joint": [[0.45, 0.05],
                                                                          [0.05, 0.45]]})]
    else:
        inputs = ["--instance", write(tmp_path / "inst.json", instance_doc())]
    out = tmp_path / f"report.{fmt}"
    code = cli.main(["simulate", chain, *inputs, "--scheme", write(tmp_path / "s.json", []),
                     "--trials", "2", "--format", fmt, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "scheme list is empty" in err and err.count("\n") == 1
    assert not out.exists()


_BSC = {"rows": [[0.9, 0.1], [0.1, 0.9]]}
_FIXTURE = {"joint": [[0.45, 0.05], [0.05, 0.45]]}
# each kind of input document: the command that reads it (with the inputs it
# reads first), its flag, a valid document, and the refusal of that document
# without its first key (a --params without "joint" is the worked example)
_KINDS = {
    "channel": (["exponent"], "--channel", _BSC, "missing channel key 'rows'"),
    "input-pmf": (["exponent", "--channel", _BSC], "--input-pmf", {"probs": [0.5, 0.5]},
                  "missing input-pmf key 'probs'"),
    "instance": (["bounds", "check"], "--instance", instance_doc(),
                 "missing instance key 'source'"),
    "scheme": (["bounds", "check", "--instance", instance_doc()], "--scheme", scheme_doc(),
               "missing scheme key 'l'"),
    "fixture": (["simulate", "dueck"], "--params", _FIXTURE, "missing example key 'a'"),
    "example": (["simulate", "dueck"], "--params", {"a": 2, "k": 2, "eta": 8},
                "missing example key 'a'"),
    "law": (["test", "interleave"], "--law", {"positions": [[0.5, 0.5]]},
            "missing law key 'positions'"),
    "spec": (["bounds", "search"], "--spec", {"instance": instance_doc(), "scheme": scheme_doc()},
             "missing spec key 'instance'"),
}


def _faulty(kind, fault):
    """(command, flag, document text, refusal) of a kind's document made a
    list, given a key "note", stripped of its first key, or cut short."""
    command, flag, doc, missing = _KINDS[kind]
    text, message = {
        "not an object": (json.dumps([doc]), "expected a JSON object, got list"),
        "unknown key": (json.dumps({**doc, "note": 1}), f"unknown {kind} key 'note'"),
        "missing key": (json.dumps(dict(list(doc.items())[1:])), missing),
        "invalid JSON": (json.dumps(doc)[:-1], "not valid JSON"),
    }[fault]
    return command, flag, text, message


_NO_L = {k: v for k, v in scheme_doc().items() if k != "l"}
_NO_P_V1 = {k: v for k, v in instance_doc().items() if k != "p_v1"}
_GENERIC = ["simulate", "generic", "--instance", instance_doc(), "--trials", "2"]
_BAD_DOCUMENTS = [
    pytest.param(_faulty(kind, fault), id=f"{kind}: {fault}") for kind in _KINDS
    for fault in ("not an object", "unknown key", "missing key", "invalid JSON")
] + [pytest.param((command, flag, json.dumps(doc), message), id=f"{flag} {message}")
     for command, flag, doc, message in [
    # a missing instance key named neither the document nor the problem
    (["bounds", "check"], "--instance", _NO_P_V1, "missing instance key 'p_v1'"),
    # a scheme, or a scheme list entry, that is no object or lacks "l"
    (_GENERIC, "--scheme", [5], "expected a JSON object, got int"),
    (_GENERIC, "--scheme", _NO_L, "missing scheme key 'l'"),
    (_GENERIC, "--scheme", [scheme_doc(), _NO_L], "missing scheme key 'l'"),
    # a bare list of rows, and a "probs" key a channel does not take
    (["exponent"], "--channel", _BSC["rows"], "expected a JSON object, got list"),
    (["exponent"], "--channel", {**_BSC, "probs": [0.5, 0.5]}, "unknown channel key 'probs'"),
    # a fixture and the worked example at once
    (["simulate", "dueck"], "--params", {**_FIXTURE, "a": 2}, "unknown fixture key 'a'"),
    # the spec's instance and scheme are named by their key in the spec
    (["bounds", "search"], "--spec", {"instance": [1], "scheme": scheme_doc()},
     ": instance: expected a JSON object, got list"),
    (["bounds", "search"], "--spec", {"instance": _NO_P_V1, "scheme": scheme_doc()},
     ": instance: missing instance key 'p_v1'"),
    (["bounds", "search"], "--spec", {"instance": instance_doc(), "scheme": _NO_L},
     ": scheme: missing scheme key 'l'"),
    (["bounds", "search"], "--spec", {"instance": instance_doc(), "scheme": scheme_doc(),
                                      "grids": {}}, "unknown spec key 'grids'"),
    (["bounds", "search"], "--spec", {"instance": instance_doc(), "scheme": scheme_doc(),
                                      "grid": [16, 32]}, "grid must map scheme keys to lists"),
    (["bounds", "search"], "--spec", {"instance": instance_doc(), "scheme": scheme_doc(),
                                      "grid": {"l": 16}}, "grid must map scheme keys to lists"),
]] + [pytest.param((command, flag, None, ": No such file or directory"), id=f"{flag} missing")
      for command, flag in [
    # a file that does not exist, an input document's or the --config file
    (["exponent"], "--channel"),
    (["bounds", "check", "--instance", instance_doc()], "--scheme"),
    (["exponent", "--channel", _BSC], "--config"),
]]


@pytest.mark.parametrize("case", _BAD_DOCUMENTS)
def test_bad_document_exits_2_naming_flag_path_and_key(tmp_path, capsys, case):
    # a refused document writes nothing and says why in one line, which names
    # the flag, the path and the key; a document in the command line stands
    # for a valid input file read before it, and a None text for no file
    command, flag, text, message = case
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_text(text)
    inputs = [write(tmp_path / f"input{i}.json", a) if isinstance(a, dict) else a
              for i, a in enumerate(command)]
    out = tmp_path / "report.json"
    code = cli.main([*inputs, flag, str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {flag} {path}" in err and message in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["dueck", "feasibility", "--a", "4", "--k", "4"],
    ["bounds", "check", "--instance", "nope.json", "--scheme", "nope.json"],
    ["test", "interleave", "--law", "nope.json"],
    ["test", "cc-exponent", "--channel", "nope.json", "--composition", "4,4", "--rate", "0.1",
     "--l", "8"],
], ids=lambda command: " ".join(command[:2]))
def test_format_csv_without_a_table_exits_2(tmp_path, capsys, command):
    # a command whose report has no table refuses --format csv before any
    # work: its input files are never read
    out = tmp_path / "report.csv"
    code = cli.main([*command, "--format", "csv", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: --format csv: {' '.join(command[:2])} writes JSON only\n"
    assert not out.exists()


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_every_report_is_strict_json(tmp_path, bsc_file, capsys):
    # RFC 8259 has no NaN or Infinity: a strict parser (JavaScript's
    # JSON.parse) must read every command's report; the generic chain's
    # +inf capacity and the worked example's log 0 = -inf are written as null
    inst = write(tmp_path / "inst.json", instance_doc())
    sch = write(tmp_path / "scheme.json", dict(scheme_doc(la_bits=8), m=2))
    spec = write(tmp_path / "spec.json", {"instance": instance_doc(), "scheme": scheme_doc(),
                                          "grid": {"B": [0.1, 0.6066017177982121]}})
    runs = {
        ("exponent",): ["--channel", bsc_file, "--rates", "0:0.8:0.2"],
        ("dueck", "lc-check"): ["--a-grid", "2,4", "--k-grid", "2,5"],
        ("dueck", "feasibility"): ["--a", "512", "--k", "500"],
        ("bounds", "check"): ["--instance", inst, "--scheme", sch],
        ("bounds", "search"): ["--spec", spec],
        ("simulate", "dueck"): ["--params", write(tmp_path / "params.json", {
            "joint": [[0.45, 0.05], [0.05, 0.45]]}), "--scheme", sch, "--trials", "2"],
        ("simulate", "generic"): ["--instance", inst, "--scheme", sch, "--trials", "2"],
        ("test", "interleave"): ["--law", write(tmp_path / "law.json", {
            "positions": [[0.5, 0.5], [0.2, 0.8]]}), "--m", "500"],
        ("test", "cc-exponent"): ["--channel", bsc_file, "--composition", "4,4",
                                  "--rate", "0.1", "--l", "8", "--codebooks", "2"],
    }
    assert sorted(runs) == sorted(map(tuple, _COMMANDS))
    reports = {}
    for command, flags in runs.items():
        out = tmp_path / "report.json"
        assert cli.main([*command, *flags, "--out", str(out)]) in (0, 1), command
        reports[command] = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert capsys.readouterr().err == ""
    assert reports[("simulate", "generic")]["report"]["satellite_capacity"] is None
    section3a = reports[("dueck", "feasibility")]["report"]["section3a"]
    assert section3a["extras"]["ln_tau"] is None
    here = pathlib.Path(__file__).parent
    for golden in ("golden_reports.json", "golden_conditions.json"):
        json.loads((here / golden).read_text(), parse_constant=_refuse_constant)


def test_nan_in_a_report_exits_2_without_a_file(monkeypatch, bsc_file, tmp_path, capsys):
    monkeypatch.setattr(ex.ChannelExponent, "at", lambda self, rate: math.nan)
    out = tmp_path / "curve.json"
    assert cli.main(["exponent", "--channel", bsc_file, "--rates", "0.1",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "not JSON compliant" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    return {
        ("simulate", "dueck"): [
            "--params", write(d / "params.json", {"joint": [[0.45, 0.05], [0.05, 0.45]]}),
            "--scheme", write(d / "dscheme.json", dict(scheme_doc(la_bits=8), m=2))],
        ("simulate", "generic"): [
            "--instance", write(d / "inst.json", instance_doc()),
            "--scheme", write(d / "gscheme.json", dict(scheme_doc(), m=2))],
        ("test", "interleave"): [
            "--law", write(d / "law.json", {"positions": [[0.5, 0.5], [0.2, 0.8]]})],
        ("test", "cc-exponent"): [
            "--channel", write(d / "bsc.json", {"rows": [[0.9, 0.1], [0.1, 0.9]]}),
            "--composition", "4,4", "--rate", "0.1", "--l", "8"],
        "out": d / "report.json",
        "dir": d,
    }


_FUZZ_FLAGS = {
    ("simulate", "dueck"): ("--trials", "--hash-bits", "--e-max"),
    ("simulate", "generic"): ("--trials", "--hash-bits", "--e-max"),
    ("test", "interleave"): ("--m",),
    ("test", "cc-exponent"): ("--codebooks", "--trials-per-book"),
}
# the least value each flag accepts
_FUZZ_LEAST = {"--threads": 1, "--trials": 1, "--hash-bits": 0, "--e-max": 0, "--m": 1,
               "--codebooks": 1, "--trials-per-book": 1}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(command=st.sampled_from(sorted(_FUZZ_FLAGS)),
       values=st.lists(st.integers(-2, 3), min_size=4, max_size=4))
def test_exit_code_contract_fuzz(fuzz_inputs, command, values):
    # exit 2, exactly when a value lies below the least its flag accepts, writes
    # nothing and says why in one line; exit 0 or 1 writes a report
    drawn = list(zip(("--threads", *_FUZZ_FLAGS[command]), values))
    flags = [str(v) for pair in drawn for v in pair]
    out = fuzz_inputs["out"]
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*command, *fuzz_inputs[command], *flags, "--out", str(out)])
    assert code in (0, 1, 2), (command, flags)
    assert (code == 2) == any(v < _FUZZ_LEAST[f] for f, v in drawn), (command, flags)
    if code == 2:
        assert not out.exists(), (command, flags)
        assert err.getvalue().count("\n") == 1, (command, flags, err.getvalue())
    else:
        assert out.exists(), (command, flags)


# the commands that read an --instance or a --scheme document, and their flags
_DOC_COMMANDS = {
    "bounds check thm1": ["bounds", "check", "--theorem", "thm1"],
    "bounds check thm3": ["bounds", "check", "--theorem", "thm3"],
    "bounds check thm2-rate": ["bounds", "check", "--theorem", "thm2-rate"],
    "simulate generic": ["simulate", "generic", "--trials", "2"],
    "simulate dueck": ["simulate", "dueck", "--trials", "2"],
}
# (command, document, field): the dueck chain reads no instance
_DOC_CASES = [(command, doc, field) for command in sorted(_DOC_COMMANDS)
              for doc, fields in (("instance", instance_doc()), ("scheme", scheme_doc()))
              for field in fields if doc == "scheme" or command != "simulate dueck"]


def _perturbed(value, kind):
    """value with one perturbation: every number zeroed or negated, its
    first number made huge or moved by 1e-7 (a pmf's mass off by 1e-7), or
    the wrong shape (a list's last entry dropped, a number put in a list)."""
    if isinstance(value, list) and kind in ("zero", "negative"):
        return [_perturbed(v, kind) for v in value]
    if isinstance(value, list) and kind in ("huge", "mass"):
        return [_perturbed(value[0], kind), *value[1:]]
    if kind == "wrong shape":
        return value[:-1] if isinstance(value, list) else [value]
    huge = 10 ** 18 if isinstance(value, int) else 1e300
    return {"zero": 0 * value, "negative": -value if value else -1, "huge": huge,
            "mass": value + 1e-7}[kind]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=st.sampled_from(_DOC_CASES),
       kind=st.sampled_from(["zero", "negative", "huge", "wrong shape", "mass", "delete",
                             "rename"]))
# a block of 10^18 symbols: the dueck chain refuses its inner code before
# counting the typical set, the generic chain its codebook from logs
@example(case=("simulate dueck", "scheme", "l"), kind="huge")
@example(case=("simulate generic", "scheme", "l"), kind="huge")
# the one optional key of the two documents, a required one, and a rename
@example(case=("simulate generic", "scheme", "m"), kind="delete")
@example(case=("bounds check thm1", "instance", "p_v1"), kind="delete")
@example(case=("simulate dueck", "scheme", "rho"), kind="rename")
def test_document_exit_code_contract_fuzz(fuzz_inputs, case, kind):
    # one field of the instance or scheme document perturbed, deleted or
    # renamed by one character: exit 2 writes nothing and says why in one
    # line; exit 0 or 1 writes a report. A renamed key, or a deleted one the
    # document requires, is named; a deleted "m" runs at its default of 1
    command, doc, field = case
    docs = {"instance": instance_doc(), "scheme": dict(scheme_doc(la_bits=8), m=2)}
    # no key of either document ends in "x"
    renamed = field[:-1] + "x"
    if kind == "delete":
        del docs[doc][field]
    elif kind == "rename":
        docs[doc][renamed] = docs[doc].pop(field)
    else:
        docs[doc][field] = _perturbed(docs[doc][field], kind)
    code, err, report = _run_documents(fuzz_inputs, command, docs)
    outcome = (case, kind, code, err)
    if code == 2:
        assert report is None and err.count("\n") == 1, outcome
    else:
        assert code in (0, 1) and report is not None, outcome
    if kind == "rename":
        assert code == 2 and f"unknown {doc} key {renamed!r}" in err, outcome
    elif kind == "delete" and field != "m":
        assert code == 2 and f"missing {doc} key {field!r}" in err, outcome
    elif kind == "delete":
        docs[doc]["m"] = 1
        assert (code, report) == _run_documents(fuzz_inputs, command, docs)[::2], outcome


def _run_documents(fuzz_inputs, command, docs):
    """(exit code, stderr, the report or None) of a document fuzz command run
    on the instance and scheme documents docs."""
    d, out = fuzz_inputs["dir"], fuzz_inputs["out"]
    if command == "simulate dueck":
        inputs = [*fuzz_inputs[("simulate", "dueck")][:2],
                  "--scheme", write(d / "doc_scheme.json", docs["scheme"])]
    else:
        inputs = [f"--{name}={write(d / f'doc_{name}.json', body)}" for name, body in docs.items()]
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*_DOC_COMMANDS[command], *inputs, "--out", str(out)])
    report = json.loads(out.read_text())["report"] if out.exists() else None
    return code, err.getvalue(), report


def test_uncaught_exception_exits_2_with_one_line(monkeypatch, bsc_file, capsys):
    def broken(self, rate):
        raise ZeroDivisionError("float division\nby zero")

    monkeypatch.setattr(ex.ChannelExponent, "at", broken)
    assert cli.main(["exponent", "--channel", bsc_file, "--rates", "0.1"]) == 2
    assert capsys.readouterr().err == "error: ZeroDivisionError: float division by zero\n"


def test_test_interleave_command(tmp_path):
    law = write(tmp_path / "law.json", {
        "positions": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]})
    code = run_cli(["test", "interleave", "--law", law, "--m", "2000",
                    "--out", str(tmp_path / "il.json")])
    assert code == 0
    ctrl = run_cli(["test", "interleave", "--law", law, "--m", "2000",
                    "--control", "--out", str(tmp_path / "ilc.json")])
    assert ctrl == 1


def test_test_cc_exponent_command(tmp_path, bsc_file):
    out = tmp_path / "cc.json"
    code = run_cli(["test", "cc-exponent", "--channel", bsc_file,
                    "--composition", "12,12", "--rate", "0.18", "--l", "24",
                    "--codebooks", "10", "--trials-per-book", "10",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["passed"] is True


def test_missing_input_file_exits_2(tmp_path):
    assert run_cli(["exponent", "--channel", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("rates, message", [
    ("0:0.8:0", "step must be positive"),
    ("0.8:0:0.1", "stop lies below start"),
    ("0.1,nan", "rate must be a non-negative number"),
    ("0:inf:0.1", "must be finite"),
    ("0.1,inf", "must be finite"),
    (",", "no rate given"),
    ("-0.1", "rate must be a non-negative number"),
    # an entry that is not a number names the flag, not float()'s message
    ("0:x:0.1", "--rates '0:x:0.1': each entry must be a number"),
    ("0.1,x", "--rates '0.1,x': each entry must be a number"),
    # a start:stop:step form has exactly three non-empty parts
    ("0::0.1", "--rates '0::0.1': give start:stop:step"),
    ("0:1", "--rates '0:1': give start:stop:step"),
    ("0:1:0.1:2", "--rates '0:1:0.1:2': give start:stop:step"),
])
def test_exponent_bad_rates_exit_2(tmp_path, bsc_file, capsys, rates, message):
    out = tmp_path / "curve.json"
    code = cli.main(["exponent", "--channel", bsc_file, "--rates", rates, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and err.count("\n") == 1
    assert not out.exists()


def test_input_pmf_size_mismatch_exits_2(tmp_path, bsc_file, capsys):
    # three input symbols on a binary channel, and two on a ternary one
    pmf = write(tmp_path / "pmf.json", {"probs": [0.2, 0.3, 0.5]})
    ternary = write(tmp_path / "ternary.json",
                    {"rows": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]})
    out = tmp_path / "report.json"
    for args in (["exponent", "--channel", bsc_file, "--input-pmf", pmf],
                 ["test", "cc-exponent", "--channel", ternary, "--composition", "4,4",
                  "--rate", "0.1", "--l", "8", "--codebooks", "2", "--trials-per-book", "2"]):
        code = cli.main([*args, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, args
        assert "input pmf size does not match channel input alphabet" in err, args
        assert err.count("\n") == 1 and not out.exists(), args


def test_exponent_solver_error_exits_2(monkeypatch, bsc_file, capsys):
    def capped(self, rate):
        raise ex.ExponentError("iteration cap 3 reached")

    monkeypatch.setattr(ex.ChannelExponent, "at", capped)
    assert cli.main(["exponent", "--channel", bsc_file, "--rates", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: iteration cap 3 reached\n"


def test_report_embeds_config(tmp_path, bsc_file):
    out = tmp_path / "emb.json"
    run_cli(["exponent", "--channel", bsc_file, "--rates", "0.1",
             "--seed", "3", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 3
    assert doc["config"]["command"] == "exponent"
    assert "timestamp" in doc
