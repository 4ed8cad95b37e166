import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fblic import bounds as bd
from fblic import dueck as dk
from fblic import probkit as pk
from helpers import ascent_max_h_y0

LN2 = math.log(2.0)


def test_params_validation_and_warnings():
    with pytest.raises(ValueError):
        dk.DueckParams(1, 2, 8)
    with pytest.raises(ValueError):
        dk.DueckParams(2, 0, 8)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        dk.DueckParams(2, 2, 6)
        dk.DueckParams(2, 2, 1)
    assert len(rec) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dk.DueckParams(2, 2, 8)  # no warning at the stated regime


def test_params_store_integral_values_as_int():
    p = dk.DueckParams(2.0, 2, 8.0)
    assert (p.a, p.k, p.eta) == (2, 2, 8)
    assert all(type(v) is int for v in (p.a, p.k, p.eta))
    # int() would truncate these
    with pytest.raises(ValueError, match="a must be an integer >= 2, got 2.9"):
        dk.DueckParams(2.9, 2, 8)
    with pytest.raises(ValueError, match="eta must be an integer >= 1, got 6.5"):
        dk.DueckParams(2, 2, 6.5)


def test_source_class_masses():
    src = dk.build_source(dk.DueckParams(2, 2, 8))
    assert src.p_diag0 == Fraction(1, 2)
    assert src.p_offdiag == Fraction(1, 2 * 2 ** 16 * 3)
    assert src.pair_mass(0, 1) == src.p_offdiag
    assert src.pair_mass(3, 3) == src.p_diag
    assert src.pair_mass(2, 1) == 0
    assert src.pair_mass(0, 0) == src.p_diag0 == Fraction(1, 2)
    assert src.total_mass() == 1
    for c, d in ((4, 0), (0, 4), (-1, 0)):
        with pytest.raises(ValueError, match="symbol out of range"):
            src.pair_mass(c, d)


@pytest.mark.parametrize("a", [2, 3, 5, 8])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("eta", [6, 8, 10])
def test_source_normalization_exact(a, k, eta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        src = dk.build_source(dk.DueckParams(a, k, eta))
    assert src.total_mass() == 1
    # mismatch probability equals the directly summed off-diagonal mass
    direct = sum((src.pair_mass(0, d) for d in range(1, a ** k)), Fraction(0))
    assert src.xi_exact() == direct == Fraction(1, k * a ** (eta * k))


def test_materialization_cap():
    with pytest.raises(dk.MaterializationError):
        dk.build_source(dk.DueckParams(8, 8, 8)).materialize()
    joint = dk.build_source(dk.DueckParams(2, 2, 8)).materialize()
    assert joint.probs.shape == (4, 4)


def test_source_stats_against_dense():
    params = dk.DueckParams(2, 2, 8)
    stats = dk.source_stats(dk.build_source(params))
    joint = dk.build_source(params).materialize()
    assert stats.xi == pytest.approx(2.0 ** -17, rel=1e-12)
    assert stats.h_joint == pytest.approx(
        pk.entropy(pk.Pmf(joint.probs.ravel() / joint.probs.sum())), rel=1e-9)
    assert stats.h_s1 == pytest.approx(pk.entropy(joint.row_marginal()), rel=1e-9)
    assert stats.h_s2 == pytest.approx(pk.entropy(joint.col_marginal()), rel=1e-9)
    assert stats.h_s2_given_s1 == pytest.approx(pk.conditional_entropy(joint), rel=1e-6)


def test_source_stats_sandwich_larger_params():
    # closed form evaluates fine far beyond materializable sizes
    stats = dk.source_stats(dk.build_source(dk.DueckParams(4, 4, 8)))
    la = math.log(4)
    lower = (1 - 4.0 ** -32) * la - LN2 / 4
    upper = la + pk.binary_entropy(0.25) + LN2 / 4
    for h in (stats.h_s1, stats.h_s2, stats.h_joint):
        assert lower - 1e-9 <= h <= upper + 1e-9


def test_source_stats_at_k_1_past_underflow():
    # at k = 1 the sources differ only when S1 = 0, of mass 2^-1100, which
    # underflows: H(S2 | S1) is 0 (exactly 0 at a = 2, where S2 = 1 always)
    stats = dk.source_stats(dk.build_source(dk.DueckParams(2, 1, 1100)))
    assert stats.h_s2_given_s1 == 0.0
    assert stats.h_s1 == stats.h_s2 == 0.0
    assert stats.log_xi == pytest.approx(-1100 * LN2, rel=1e-15)


def test_diagonal_variant_has_zero_conditional_entropy():
    # force the off-diagonal class to zero and renormalize
    src = dk.build_source(dk.DueckParams(2, 2, 8))
    probs = src.materialize().probs.copy()
    probs[0, 1:] = 0.0
    joint = pk.JointPmf(probs / probs.sum())
    assert pk.conditional_entropy(joint) == pytest.approx(0.0, abs=1e-12)


def test_mismatch_probability_monte_carlo_scaled_fixture():
    # eta = 1 is far outside the construction's regime but gives the
    # mismatch event enough mass to measure; flagged by the constructor
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        src = dk.build_source(dk.DueckParams(2, 2, 1))
    joint = src.materialize()
    xi = float(src.xi_exact())
    assert xi == pytest.approx(1 / (2 * 2 ** 2), abs=0)
    rng = np.random.default_rng(40)
    n = 100_000
    flat = joint.probs.ravel()
    idx = rng.choice(flat.shape[0], size=n, p=flat)
    mism = (idx // joint.col_size != idx % joint.col_size).mean()
    sigma = math.sqrt(xi * (1 - xi) / n)
    assert abs(mism - xi) <= 3 * sigma


def test_shared_channel():
    w = dk.shared_channel(4)
    assert w.rows.shape == (16, 4)
    assert w.rows[3 * 4 + 3, 3] == 1.0  # (3,3) -> 3
    assert w.rows[1 * 4 + 2, 0] == 1.0  # (1,2) -> 0
    for a in (2, 5, 16, 64):
        rows = dk.shared_channel(a).rows
        assert np.allclose(rows.sum(axis=1), 1.0)
        assert set(np.unique(rows)) <= {0.0, 1.0}
    with pytest.raises(ValueError, match="a must be >= 2"):
        dk.shared_channel(1)
    with pytest.raises(dk.MaterializationError, match="capped at a <= 256"):
        dk.shared_channel(257)


def test_satellite_capacities():
    c1, c2 = dk.satellite_capacities(dk.DueckParams(2, 2, 8))
    assert c1 == pytest.approx(LN2, abs=1e-15)  # h_b(1) + log 2
    assert c2 > c1
    # the bump is h_b of the tail mass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = dk.DueckParams(3, 4, 6)
    c1b, c2b = dk.satellite_capacities(params)
    bump = pk.binary_entropy(2.0 / (4 * 3.0 ** 24))
    assert c2b - c1b == pytest.approx(bump, rel=1e-9)
    # capacity vanishes as k grows
    c1c, _ = dk.satellite_capacities(dk.DueckParams(2, 10 ** 6, 8))
    assert 0.0 < c1c < 1e-4
    with pytest.raises(ValueError):
        dk.satellite_capacities(dk.DueckParams(2, 1, 8))


def test_lc_margin_small_params_negative():
    params = dk.DueckParams(2, 2, 8)
    margin = dk.lc_infeasibility_margin(params)
    assert margin < 0.0


def test_lc_margin_scan_finds_witness():
    scan = dk.scan_lc_margin([2, 8, 64, 256, 512, 1024],
                             [2, 20, 100, 200, 500, 1000], eta=8)
    assert scan.first_positive == (512, 500)
    table = {(a, k): m for a, k, m in scan.margins}
    assert table[(512, 500)] > 0.0
    # no a <= 256 admits a positive margin anywhere on the grid
    assert all(m <= 0.0 for (a, _), m in table.items() if a <= 256)


def test_lc_margin_monotone_in_a_beyond_crossover():
    k = 500
    margins = [dk.lc_infeasibility_margin(dk.DueckParams(a, k, 8))
               for a in (512, 1024, 2048, 4096)]
    assert all(hi > lo for lo, hi in zip(margins[:-1], margins[1:]))


def test_h_y0_product_inputs():
    # degenerate inputs give zero output entropy
    a = 4
    point = np.zeros(a)
    point[2] = 1.0
    assert dk.h_y0_product(point, point) == pytest.approx(0.0, abs=1e-12)
    best = dk.max_H_Y0_product_inputs(2)
    # binary case is exactly h_b(1/2) at p1*q1 = 1/2
    assert best == pytest.approx(LN2, abs=1e-3)
    assert best <= LN2 + 0.75 * LN2 + 1e-9
    with pytest.raises(ValueError):
        dk.max_H_Y0_product_inputs(9)


@pytest.mark.parametrize("a", range(2, 9))
def test_case_bound_holds_on_the_two_value_family(a):
    # the maximum lies on the two-value family, which max_H_Y0_product_inputs
    # searches: it stays under the case bound, and the multiplicative
    # ascent, which assumes nothing of the optimum, reaches it. It is ln 2
    # at a = 2 and (3/2) ln 2 (two symbols at 1/2) for every a >= 3
    best = dk.max_H_Y0_product_inputs(a)
    assert best <= LN2 + 0.75 * math.log(a)
    assert best == pytest.approx(LN2 if a == 2 else 1.5 * LN2, abs=1e-9)
    assert ascent_max_h_y0(a, starts=20, iters=400, seed=0) == pytest.approx(best, abs=1e-6)


def test_section3a_small_params_report_failures():
    report = dk.section3a_feasibility(dk.DueckParams(2, 2, 8))
    assert report.overall is False
    by_name = {iq.name: iq for iq in report.inequalities}
    # the chain's phi bound holds even here; the satellite rate does not
    assert by_name["log: phi <= 2 k^3 a^(-eta k/2)"].satisfied
    assert not by_name["user1: B + L^S < C1"].satisfied
    assert by_name["user1: B + L^S < C1"].slack < 0.0


def test_section3a_refuses_k_below_2():
    # at k = 1 the satellite capacities are undefined: no verdict without them
    with pytest.raises(ValueError, match="k >= 2"):
        dk.section3a_feasibility(dk.DueckParams(4, 1, 8))


def test_section3a_witness_params_all_hold():
    report = dk.section3a_feasibility(dk.DueckParams(512, 500, 8))
    assert report.overall is True
    assert all(iq.satisfied for iq in report.inequalities)
    # deterministic across calls
    again = dk.section3a_feasibility(dk.DueckParams(512, 500, 8))
    assert report.to_dict() == again.to_dict()


def test_section3a_phi_half_implication():
    # whenever the chain bound 2k^3 a^(-eta k/2) is below 1/2 and phi is
    # below the bound, the phi < 1/2 row must hold as well
    for (a, k) in [(2, 2), (3, 3), (512, 500)]:
        report = dk.section3a_feasibility(dk.DueckParams(a, k, 8))
        by_name = {iq.name: iq for iq in report.inequalities}
        bound_row = by_name["log: phi <= 2 k^3 a^(-eta k/2)"]
        half_row = by_name["log: phi < 1/2"]
        if bound_row.satisfied and bound_row.right < math.log(0.5):
            assert half_row.satisfied


def test_section3a_at_phi_above_half_has_no_source_loss():
    # at eta = 1 the block is only 32 long and phi >= 1/2: the loss terms
    # have no value, so the L^S row reads +inf and every rate row fails
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # eta = 1 is outside the regime
        report = dk.section3a_feasibility(dk.DueckParams(2, 2, 1))
    by_name = {iq.name: iq for iq in report.inequalities}
    assert not by_name["log: phi < 1/2"].satisfied
    loss = by_name["log: L^S(phi, |S_j|) <= log(a)/(4k)"]
    assert loss.left == math.inf and not loss.satisfied
    assert report.extras["L_S"] == math.inf
    assert not by_name["user1: B + L^S < C1"].satisfied
    assert not by_name["user2: B + H(S2|S1) + L^S < C2"].satisfied
    assert report.status == "infeasible" and report.overall is False


def test_lemma2_scheme_witness_feasible():
    inst, sp = dk.lemma2_scheme(dk.DueckParams(512, 500, 8))
    assert sp.delta == pytest.approx(1 / 500)
    assert sp.rho == 1.0
    assert sp.l == 500 ** 4 * 512 ** 2000
    report = bd.check_thm1(inst, sp)
    assert report.status == "feasible"
    assert report.overall is True
    budget = report.inequality("A+B >= (1+delta)*H(K1)")
    assert budget.slack == pytest.approx(0.0, abs=1e-9)
    for iq in report.inequalities:
        if iq.kind == "lt" and iq.name != "phi < 1/2":
            assert iq.slack > 0.0


def test_lemma2_scheme_rejections():
    with pytest.raises(ValueError):
        dk.lemma2_scheme(dk.DueckParams(2, 2, 8))  # rho = 1 needs A > 1
    with pytest.raises(ValueError), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dk.lemma2_scheme(dk.DueckParams(3, 3, 7))  # odd eta*k


def test_lemma2_small_witness_infeasible():
    # a = 4, k = 2 satisfies the constructor but not the rate conditions
    inst, sp = dk.lemma2_scheme(dk.DueckParams(4, 2, 8))
    report = bd.check_thm1(inst, sp)
    assert report.overall is False
