"""Acceptance suite: one test per criterion, each printing a PASS line.

Headline claims live at scales no simulator can reach, so the gate mixes
exact closed-form reproduction in log domain with property-based runs at
desk scale. Tolerances are pinned here, not deferred: 3 binomial sigmas
for Monte Carlo comparisons, significance 0.01 for chi-square, 1e-3
against dense grid oracles, 1e-9 for exact-zero claims.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fblic import bounds as bd
from fblic import dueck as dk
from fblic import exponent as ex
from fblic import probkit as pk
from fblic import simulate as sm
from helpers import binary_pair_source, er_grid_oracle, small_instance

LN2 = math.log(2.0)

WITNESS_A, WITNESS_K = 512, 500
SCAN_A_GRID = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
SCAN_K_GRID = [2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000]


def report(n, elapsed, budget, detail):
    print(f"PASS criterion {n}: {detail} [{elapsed:.2f}s < {budget}s]")


def test_criterion_1_source_normalization_and_xi_exact():
    t0 = time.time()
    for a in (2, 3, 4, 5, 6, 7, 8):
        for k in (1, 2, 3, 4):
            for eta in (6, 8, 10):
                import warnings
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    src = dk.build_source(dk.DueckParams(a, k, eta))
                assert src.total_mass() == 1
                direct = sum((src.pair_mass(0, d) for d in range(1, a ** k)),
                             Fraction(0))
                assert src.xi_exact() == direct
                assert src.xi_exact() == Fraction(1, k * a ** (eta * k))
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, elapsed, 1, "exact normalization and mismatch mass on the (a,k,eta) grid")


def test_criterion_2_block_mismatch_formula():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    xi, l, n = 0.01, 50, 100_000
    hits = (rng.random((n, l)) < xi).any(axis=1)
    emp = float(hits.mean())
    expect = bd.xi_l(xi, l)
    sigma = math.sqrt(expect * (1.0 - expect) / n)
    assert abs(emp - expect) <= 3.0 * sigma
    for _ in range(1000):
        x = float(rng.random())
        ll = int(rng.integers(1, 100_000))
        assert bd.xi_l(x, ll) <= min(1.0, ll * x) + 1e-12
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(2, elapsed, 10, f"1-(1-xi)^l within 3 sigma of Monte Carlo ({emp:.4f} vs {expect:.4f}) "
                           "and below l*xi on 1000 probes")


def test_criterion_3_typicality_bound_and_exact_counting():
    t0 = time.time()
    rng = np.random.default_rng(1003)
    configs = [
        (pk.Pmf([0.5, 0.5]), 1060, 0.1),
        (pk.Pmf([0.5, 0.5]), 500, 0.15),
        (pk.Pmf([0.7, 0.3]), 800, 0.2),
        (pk.Pmf.uniform(4), 600, 0.25),
        (pk.Pmf([0.5, 0.3, 0.2]), 2000, 0.2),
    ]
    n = 10_000
    for p, l, delta in configs:
        tau = math.exp(min(0.0, bd.log_tau_l_delta(p, l, delta)))
        counts = rng.multinomial(l, p.probs, size=n)
        ok = np.ones(n, dtype=bool)
        for s, prob in enumerate(p.probs):
            # independent frequency check, same closed inequality
            ok &= np.abs(counts[:, s] / l - prob) <= delta * prob
        emp = float((~ok).mean())
        assert emp <= tau, (emp, tau, l, delta)

    for l in range(1, 13):
        for probs in ((0.5, 0.5), (0.7, 0.3), (0.35, 0.65)):
            for delta in (0.25, 0.5):
                p = pk.Pmf(list(probs))
                count = 0
                for x in range(1 << l):
                    ones = bin(x).count("1")
                    zeros = l - ones
                    if (abs(zeros / l - probs[0]) <= delta * probs[0]
                            and abs(ones / l - probs[1]) <= delta * probs[1]):
                        count += 1
                ts = pk.typical_set(p, pk.TypicalityParams(l, delta))
                assert ts.size == count
                got = pk.typical_log_size(p, pk.TypicalityParams(l, delta))
                want = math.log(count) if count else -math.inf
                assert got == want
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(3, elapsed, 30, "atypicality below its bound on 5 configs x 10^4 samples; "
                           "exact counts match full enumeration for l <= 12")


def test_criterion_4_exponent_oracle_and_ensemble():
    t0 = time.time()
    uniform = pk.Pmf.uniform(2)
    bsc05 = pk.Dmc.binary_symmetric(0.05)
    cap05 = pk.mutual_information(uniform, bsc05)
    # zero at and above the mutual information
    for rate in (cap05, cap05 + 0.05, cap05 + 0.5):
        assert ex.ChannelExponent(uniform, bsc05).at(rate) <= 1e-9

    cases = [
        (pk.Dmc.binary_symmetric(0.1), uniform),
        (bsc05, uniform),
        (pk.Dmc([[0.85, 0.15], [0.25, 0.75]]), pk.Pmf([0.6, 0.4])),
        (pk.Dmc([[0.95, 0.05], [0.4, 0.6]]), uniform),
    ]
    worst = 0.0
    for channel, p in cases:
        cap = pk.mutual_information(p, channel)
        for frac in (0.3, 0.7):
            got = ex.ChannelExponent(p, channel).at(frac * cap)
            oracle = er_grid_oracle(frac * cap, channel, p, res=2001)
            worst = max(worst, abs(got - oracle))
            assert abs(got - oracle) <= 1e-3

    l, rate = 64, 12 * LN2 / 64
    rep = sm.cc_exponent_test(bsc05, (32, 32), rate=rate, l=l,
                              codebooks=100, trials_per_book=20, seed=1004)
    assert rep.decoded == 2000
    assert rep.empirical <= rep.bound
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(4, elapsed, 300,
           f"grid-oracle agreement within 1e-3 (worst {worst:.1e}); ensemble ML error "
           f"{rep.empirical:.2e} <= 2 exp(-l E_r) = {rep.bound:.2e} on 100 codebooks")


def test_criterion_5_interleaving_chi_square():
    t0 = time.time()
    laws = []
    for i in range(6):
        v = np.full(3, 0.1)
        v[i % 3] = 0.8
        laws.append(pk.Pmf(v))
    rep = sm.interleave_iid_test(laws, m=10_000, seed=1005, significance=0.01)
    assert rep.passed
    ctrl = sm.interleave_iid_test(laws, m=10_000, seed=1005, significance=0.01,
                                  interleaved=False)
    assert not ctrl.passed
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(5, elapsed, 30, f"interleaved columns fit the mixture (p = {rep.pooled_p:.3f}); "
                           f"non-interleaved control fails (p = {ctrl.pooled_p:.1e})")


def test_criterion_6_outer_bound_witness_and_case_bound():
    t0 = time.time()
    scan = dk.scan_lc_margin(SCAN_A_GRID, SCAN_K_GRID, eta=8,
                             sat_output_sizes=(4, 4))
    assert scan.first_positive == (WITNESS_A, WITNESS_K)
    margin = dk.lc_infeasibility_margin(
        dk.DueckParams(WITNESS_A, WITNESS_K, 8),
        dk.log_output_alphabet(WITNESS_A, 4, 4))
    assert margin > 0.0
    maxima = {}
    for a in (2, 3, 4, 5):
        best = dk.max_H_Y0_product_inputs(a)
        assert best <= LN2 + 0.75 * math.log(a) + 1e-9
        maxima[a] = best
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(6, elapsed, 120,
           f"minimal scan pair ({WITNESS_A},{WITNESS_K}) has margin {margin:.4f} > 0; "
           f"max H(Y0) respects log2 + (3/4)log a for a in 2..5")


def test_criterion_7_layered_scheme_witness():
    t0 = time.time()
    params = dk.DueckParams(WITNESS_A, WITNESS_K, 8)
    margin = dk.lc_infeasibility_margin(params, dk.log_output_alphabet(WITNESS_A, 4, 4))
    assert margin > 0.0
    inst, sp = dk.lemma2_scheme(params)
    assert sp.delta == pytest.approx(1 / WITNESS_K)
    assert sp.rho == 1.0
    assert sp.l == WITNESS_K ** 4 * WITNESS_A ** (8 * WITNESS_K // 2)
    rep = bd.check_thm1(inst, sp)
    assert rep.status == "feasible" and rep.overall is True
    assert rep.phi < 0.5
    for iq in rep.inequalities:
        if iq.kind == "lt" and iq.name != "phi < 1/2":
            assert iq.slack > 0.0, iq.name
    # the bit budget is met with equality by construction
    assert rep.inequality("A+B >= (1+delta)*H(K1)").slack >= -1e-12
    elapsed = time.time() - t0
    assert elapsed < 60.0
    min_rate_slack = min(iq.slack for iq in rep.inequalities if iq.kind == "lt"
                         and iq.name != "phi < 1/2")
    report(7, elapsed, 60,
           f"sufficient conditions feasible at ({WITNESS_A},{WITNESS_K}) where the "
           f"outer-bound margin is also positive (rate slack {min_rate_slack:.4f})")


def test_criterion_8_feasibility_chain():
    t0 = time.time()
    rep = dk.section3a_feasibility(dk.DueckParams(WITNESS_A, WITNESS_K, 8))
    assert rep.overall is True
    for name in ("log: phi <= 2 k^3 a^(-eta k/2)",
                 "log: phi < 1/2",
                 "log: L^S(phi, |S_j|) <= log(a)/(4k)",
                 "B <= 2/l + log(a)/k + (1+1/k) h_b(1/k)",
                 "user1: B + L^S < C1",
                 "user2: B + H(S2|S1) + L^S < C2"):
        assert rep.inequality(name).satisfied, name
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(8, elapsed, 1, "every link of the feasibility chain holds at the witness pair")


def test_criterion_9_end_to_end_regression():
    t0 = time.time()
    joint = binary_pair_source(0.001)
    sp = bd.SchemeParams(l=32, delta=1.0, A=16 * LN2 / 32, B=16 * LN2 / 32,
                         rho=0.17, m=64)
    stats = sm.simulate_dueck(joint, sp, trials=1000, seed=2024, e_max=2,
                              hash_bits=128, capacity_slack=0.2)
    for j in (0, 1):
        assert stats.block_error_rate[j] <= 0.05
        assert stats.matrix_failure_rate[j] <= 0.05
    assert stats.wrong_accepts == (0, 0)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(9, elapsed, 300,
           f"block error {max(stats.block_error_rate):.4f} <= 0.05, zero wrong accepts")


def test_criterion_10_channel_quality_claims():
    t0 = time.time()
    instances = [
        small_instance(xi=0.01, stay=0.98, eps=0.005, leak=0.01),
        small_instance(xi=0.02, stay=0.985, eps=0.003, leak=0.005),
        small_instance(xi=0.005, stay=0.97, eps=0.01, leak=0.008),
    ]
    details = []
    for idx, inst in enumerate(instances):
        sp = bd.SchemeParams(l=16, delta=0.75, A=2 * LN2 / 16, B=14 * LN2 / 16,
                             rho=0.02, m=64)
        stats = sm.simulate_generic(inst, sp, trials=150, seed=1010 + idx, e_max=1)
        assert stats.phi_bound < 0.5
        for j in (1, 2):
            q = stats.extras["channel_quality"][f"user{j}"]
            assert q["tv"] <= q["tv_threshold"], (idx, j, q)
            assert q["mi_gap"] <= q["mi_gap_threshold"], (idx, j, q)
        details.append(stats.extras["channel_quality"]["user1"]["tv"])
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(10, elapsed, 300,
           "interleaved (V,Y) law within phi + 3 sigma of the ideal law and the "
           f"estimated MI gap below the channel loss on 3 instances (TVs {details})")
