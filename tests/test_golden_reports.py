"""Seeded simulation reports pinned to recorded values.

``golden_reports.json`` holds ``TrialStats.to_dict()`` (through its JSON
form, so floats compare by their exact repr) for small runs of both
chains; the ``_t2`` cases were recorded with two trial threads, and a run
in order must match them. A refactor of the chains must reproduce every
field exactly. To re-record after an intended change of output:

    PYTHONPATH=src:tests python tests/test_golden_reports.py > tests/golden_reports.json
"""

import json
import math
import pathlib

import pytest

from fblic import bounds as bd
from fblic import dueck as dk
from fblic import probkit as pk
from fblic import simulate as sm
from helpers import binary_pair_source, cross_ic, mix_kernel, small_instance, small_scheme

LN2 = math.log(2.0)
GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")


def _fixture_scheme(m):
    return bd.SchemeParams(l=32, delta=1.0, A=16 * LN2 / 32, B=16 * LN2 / 32,
                           rho=0.17, m=m)


def _folded_instance():
    # a 4-symbol source folded onto 2 common-part symbols: K is not the
    # source, so the outer decode is skipped
    src = pk.JointPmf([[0.24, 0.01, 0.0, 0.0], [0.01, 0.24, 0.0, 0.0],
                       [0.0, 0.0, 0.24, 0.01], [0.0, 0.0, 0.01, 0.24]])
    return bd.ProblemInstance(
        source=src, f1=[0, 1, 0, 1], f2=[0, 1, 0, 1],
        ic=cross_ic(0.005, 0.005, 0.01, 0.01), p_u=pk.Pmf([0.5, 0.5]),
        p_v1=pk.Pmf([0.5, 0.5]), p_v2=pk.Pmf([0.5, 0.5]),
        p_x1_given_uv1=mix_kernel(0.98), p_x2_given_uv2=mix_kernel(0.98))


CASES = {
    "dueck_fixture_t1": lambda: sm.simulate_dueck(
        binary_pair_source(0.01), _fixture_scheme(8), trials=4, seed=3, e_max=1),
    "dueck_fixture_t2": lambda: sm.simulate_dueck(
        binary_pair_source(0.02), _fixture_scheme(8), trials=4, seed=11, e_max=2),
    "dueck_fixture_e3": lambda: sm.simulate_dueck(
        binary_pair_source(0.02), _fixture_scheme(8), trials=4, seed=11, e_max=3),
    "dueck_starved": lambda: sm.simulate_dueck(
        binary_pair_source(0.004), _fixture_scheme(8), trials=4, seed=31,
        capacity_slack=-1.0),
    "dueck_params": lambda: sm.simulate_dueck(
        dk.DueckParams(2, 2, 8),
        bd.SchemeParams(l=8, delta=0.9, A=LN2, B=1.1, rho=0.4, m=8),
        trials=4, seed=1, e_max=1),
    "generic_t1": lambda: sm.simulate_generic(
        small_instance(), small_scheme(m=8), trials=4, seed=9, e_max=1),
    "generic_t2": lambda: sm.simulate_generic(
        small_instance(xi=0.05, eps=0.02), small_scheme(m=8), trials=4, seed=12,
        e_max=1),
    "generic_folded": lambda: sm.simulate_generic(
        _folded_instance(), small_scheme(m=8), trials=4, seed=5),
}


def _report(name):
    return json.loads(CASES[name]().to_json())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_recording(name):
    golden = json.loads(GOLDEN.read_text())
    assert _report(name) == golden[name]


if __name__ == "__main__":
    print(json.dumps({name: _report(name) for name in sorted(CASES)}, indent=1))
