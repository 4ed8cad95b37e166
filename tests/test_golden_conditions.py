"""Condition reports pinned to recorded values.

``golden_conditions.json`` holds ``ConditionReport.to_dict()`` (through the
CLI's report writer ``cli.json_text``, so floats compare by their exact
repr and a log 0 = -inf reads as null, as in a report) for each theorem
checker on small instances, including the early ``infeasible-by-phi``
exits, the rate-point oracle outcomes, the worked example's witness and
its section 3A chain. A refactor of the checkers must reproduce every field exactly.
To re-record after an intended change of output:

    PYTHONPATH=src:tests python tests/test_golden_conditions.py > tests/golden_conditions.json

CI runs this command and diffs its output against the committed file.
"""

import json
import pathlib

import numpy as np
import pytest

from fblic import bounds as bd
from fblic import cli
from fblic import dueck as dk
from fblic import probkit as pk
from helpers import small_instance, small_scheme

GOLDEN = pathlib.Path(__file__).with_name("golden_conditions.json")
WITNESS = dk.DueckParams(512, 500, 8)


def _useless_channel_instance():
    # y_j uniform whatever the inputs: g, and so phi, clamp to 1
    eye = np.broadcast_to(np.eye(2)[:, None, :], (2, 2, 2)).copy()
    return bd.ProblemInstance(
        source=pk.JointPmf([[0.495, 0.005], [0.005, 0.495]]),
        f1=[0, 1], f2=[0, 1], ic=np.full((2, 2, 2, 2), 0.25),
        p_u=pk.Pmf([0.5, 0.5]), p_v1=pk.Pmf([0.5, 0.5]), p_v2=pk.Pmf([0.5, 0.5]),
        p_x1_given_uv1=eye, p_x2_given_uv2=eye)


def _noiseless_given_u_instance():
    # y_j = x_j and X independent of U: I(X_j;Y_j|U) = log 2
    ic = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            ic[x1, x2, x1, x2] = 1.0
    return bd.ProblemInstance(
        source=pk.JointPmf([[0.4995, 0.0005], [0.0005, 0.4995]]),
        f1=[0, 1], f2=[0, 1], ic=ic,
        p_u=pk.Pmf([0.5, 0.5]), p_v1=pk.Pmf([0.5, 0.5]), p_v2=pk.Pmf([0.5, 0.5]),
        p_x1_given_uv1=np.full((2, 2, 2), 0.5), p_x2_given_uv2=np.full((2, 2, 2), 0.5))


def _w_layer_instance():
    base = small_instance()
    return bd.ProblemInstance(
        source=base.source, f1=[0, 1], f2=[0, 1], ic=base.ic,
        p_u=base.p_u, p_v1=base.p_v1, p_v2=base.p_v2,
        p_x1_given_uv1=base.p_x1_given_uv1, p_x2_given_uv2=base.p_x2_given_uv2,
        p_w1=pk.Pmf([0.5, 0.5]), p_w2=pk.Pmf([0.25, 0.75]))


def _budget_scheme():
    # meets the A+B budget, so an oracle's verdict decides the rate point
    sp = small_scheme()
    return bd.SchemeParams(l=16, delta=0.75, A=sp.A, B=1.3, rho=sp.rho, m=sp.m)


CASES = {
    "thm1": lambda: bd.check_thm1(small_instance(), small_scheme()),
    "thm1_phi_override": lambda: bd.check_thm1(
        _useless_channel_instance(), small_scheme(), phi_override=0.1),
    "thm1_phi_override_infeasible_by_phi": lambda: bd.check_thm1(
        small_instance(), small_scheme(), phi_override=0.7),
    "thm1_infeasible_by_phi": lambda: bd.check_thm1(
        _useless_channel_instance(), small_scheme()),
    "thm1_witness": lambda: bd.check_thm1(*dk.lemma2_scheme(WITNESS)),
    "thm3": lambda: bd.check_thm3(small_instance(), small_scheme()),
    "thm3_phi_override": lambda: bd.check_thm3(
        small_instance(), small_scheme(), phi_override=0.4),
    "thm3_noiseless_given_u": lambda: bd.check_thm3(
        _noiseless_given_u_instance(),
        bd.SchemeParams(l=16, delta=0.75, A=0.1, B=0.05, rho=0.05, m=4), phi_override=1e-4),
    "thm3_phi_override_infeasible_by_phi": lambda: bd.check_thm3(
        small_instance(), small_scheme(), phi_override=0.7),
    "thm3_infeasible_by_phi": lambda: bd.check_thm3(
        _useless_channel_instance(), small_scheme()),
    "thm2_no_oracle": lambda: bd.check_thm2_rate_point(small_instance(), small_scheme()),
    "thm2_oracle_true": lambda: bd.check_thm2_rate_point(
        small_instance(), _budget_scheme(), hk_oracle=lambda point, inst: True),
    "thm2_oracle_false": lambda: bd.check_thm2_rate_point(
        small_instance(), _budget_scheme(), hk_oracle=lambda point, inst: False),
    "thm2_oracle_over_budget": lambda: bd.check_thm2_rate_point(
        small_instance(), small_scheme(), hk_oracle=lambda point, inst: True),
    "thm2_infeasible_by_phi": lambda: bd.check_thm2_rate_point(
        _useless_channel_instance(), small_scheme(), hk_oracle=lambda point, inst: True),
    "thm2_w_layer": lambda: bd.check_thm2_rate_point(_w_layer_instance(), small_scheme()),
    "section3a_512_500_8": lambda: dk.section3a_feasibility(WITNESS),
}


def _report(name):
    return json.loads(cli.json_text(CASES[name]().to_dict()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_condition_report_matches_recording(name):
    golden = json.loads(GOLDEN.read_text())
    assert _report(name) == golden[name]


if __name__ == "__main__":
    print(cli.json_text({name: _report(name) for name in sorted(CASES)}, indent=1))
