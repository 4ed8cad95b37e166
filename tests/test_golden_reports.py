"""Seeded simulation reports pinned to recorded values.

``golden_reports.json`` holds ``TrialStats.to_dict()`` (through the CLI's
report writer ``cli.json_text``, so floats compare by their exact repr and
an infinity reads as null, as in a report) for small runs of both chains;
the ``_t2`` cases were recorded with two trial threads, and a run in order
must match them. A refactor of the chains must reproduce every
field exactly. To re-record after an intended change of output:

    PYTHONPATH=src:tests python tests/test_golden_reports.py > tests/golden_reports.json

CI runs this command and diffs its output against the committed file.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from fblic import bounds as bd
from fblic import cli
from fblic import dueck as dk
from fblic import simulate as sm
from helpers import binary_pair_source, folded_instance, small_instance, small_scheme

LN2 = math.log(2.0)
GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")


def _fixture_scheme(m):
    return bd.SchemeParams(l=32, delta=1.0, A=16 * LN2 / 32, B=16 * LN2 / 32,
                           rho=0.17, m=m)


# name -> (chain, setup, run options); setup() gives the chain's source or
# instance and its scheme
CASES = {
    "dueck_fixture_t1": (sm.simulate_dueck,
                         lambda: (binary_pair_source(0.01), _fixture_scheme(8)),
                         dict(trials=4, seed=3, e_max=1)),
    "dueck_fixture_t2": (sm.simulate_dueck,
                         lambda: (binary_pair_source(0.02), _fixture_scheme(8)),
                         dict(trials=4, seed=11, e_max=2)),
    "dueck_fixture_e3": (sm.simulate_dueck,
                         lambda: (binary_pair_source(0.02), _fixture_scheme(8)),
                         dict(trials=4, seed=11, e_max=3)),
    "dueck_starved": (sm.simulate_dueck,
                      lambda: (binary_pair_source(0.004), _fixture_scheme(8)),
                      dict(trials=4, seed=31, capacity_slack=-1.0)),
    "dueck_params": (sm.simulate_dueck,
                     lambda: (dk.DueckParams(2, 2, 8),
                              bd.SchemeParams(l=8, delta=0.9, A=LN2, B=1.1, rho=0.4, m=8)),
                     dict(trials=4, seed=1, e_max=1)),
    "generic_t1": (sm.simulate_generic,
                   lambda: (small_instance(), small_scheme(m=8)),
                   dict(trials=4, seed=9, e_max=1)),
    "generic_t2": (sm.simulate_generic,
                   lambda: (small_instance(xi=0.05, eps=0.02), small_scheme(m=8)),
                   dict(trials=4, seed=12, e_max=1)),
    "generic_folded": (sm.simulate_generic,
                       lambda: (folded_instance(), small_scheme(m=8)),
                       dict(trials=4, seed=5)),
}


def _report(name):
    chain, setup, options = CASES[name]
    return json.loads(cli.json_text(chain(*setup(), **options).to_dict()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_recording(name):
    golden = json.loads(GOLDEN.read_text())
    assert _report(name) == golden[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_chain_reports_the_checkers_phi(name):
    chain, setup, options = CASES[name]
    source, sp = setup()
    phi_bound = chain(source, sp, **options).phi_bound
    if chain is sm.simulate_generic:
        assert phi_bound == bd.check_thm1(source, sp).phi
        return
    # the example's channel is deterministic and injective: g = 0
    joint = dk.build_source(source).materialize() if isinstance(source, dk.DueckParams) else source
    xi_block = bd.xi_l(1.0 - float(np.trace(joint.probs)), sp.l)
    phi, _ = bd._phi_from_logs({
        "log_tau": bd.log_tau_l_delta(joint.row_marginal(), sp.l, sp.delta),
        "log_xi_l": math.log(xi_block) if xi_block > 0.0 else -math.inf,
        "log_g": -math.inf,
    })
    assert phi_bound == phi


if __name__ == "__main__":
    print(cli.json_text({name: _report(name) for name in sorted(CASES)}, indent=1))
