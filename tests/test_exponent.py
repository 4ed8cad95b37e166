import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblic import bounds as bd
from fblic import exponent as ex
from fblic import probkit as pk
from helpers import er_grid_oracle, er_two_branch_reference, small_instance

LN2 = math.log(2.0)


def fresh_er(rate, channel, p=None):
    """E_r(rate, p, W) from a solver built for this one rate; p is uniform
    unless given."""
    return ex.ChannelExponent(p or pk.Pmf.uniform(channel.num_inputs), channel).at(rate)


# ---------------------------------------------------------------------------
# induced channel
# ---------------------------------------------------------------------------

def _same_word_instance(ic, px):
    """Both users send x_j drawn by px from the shared word u; V is trivial."""
    return bd.ProblemInstance(
        source=pk.JointPmf([[0.5, 0.0], [0.0, 0.5]]), f1=[0, 1], f2=[0, 1], ic=ic,
        p_u=pk.Pmf.uniform(px.shape[0]), p_v1=pk.Pmf.uniform(1), p_v2=pk.Pmf.uniform(1),
        p_x1_given_uv1=px, p_x2_given_uv2=px)


def test_induced_channel_identity_passthrough():
    # X_j = U and the noiseless channel y_j = x_j: the induced map is identity
    n = 3
    px = np.eye(n)[:, None, :]
    ic = np.einsum("ac,bd->abcd", np.eye(n), np.eye(n))
    inst = _same_word_instance(ic, px)
    for j in (1, 2):
        assert np.allclose(inst.induced_to_user(j).rows, np.eye(n))


def test_induced_channel_shared_example_law():
    # both users send the same u through the worked example's shared channel,
    # which each decoder sees on its own output
    from fblic import dueck as dk
    a = 3
    shared = dk.shared_channel(a).rows.reshape(a, a, a)
    ic = np.einsum("abc,abd->abcd", shared, shared)
    inst = _same_word_instance(ic, np.eye(a)[:, None, :])
    for j in (1, 2):
        got = inst.induced_to_user(j)
        assert np.allclose(got.rows, np.eye(a))
        assert ex.is_deterministic_injective(got)


def test_induced_channel_matches_brute_force():
    rng = np.random.default_rng(5)
    nu, nv1, nv2, nx1, nx2, ny1, ny2 = 2, 2, 3, 2, 2, 2, 3
    p_v1 = pk.Pmf(rng.dirichlet(np.ones(nv1)))
    p_v2 = pk.Pmf(rng.dirichlet(np.ones(nv2)))
    px1 = rng.dirichlet(np.ones(nx1), size=(nu, nv1))
    px2 = rng.dirichlet(np.ones(nx2), size=(nu, nv2))
    w = rng.dirichlet(np.ones(ny1 * ny2), size=nx1 * nx2)
    inst = bd.ProblemInstance(
        source=pk.JointPmf([[0.5, 0.0], [0.0, 0.5]]), f1=[0, 1], f2=[0, 1],
        ic=w.reshape(nx1, nx2, ny1, ny2), p_u=pk.Pmf.uniform(nu), p_v1=p_v1, p_v2=p_v2,
        p_x1_given_uv1=px1, p_x2_given_uv2=px2)
    for j in (1, 2):
        got = inst.induced_to_user(j)
        ny = ny1 if j == 1 else ny2
        expect = np.zeros((nu, ny))
        for u in range(nu):
            for v1 in range(nv1):
                for v2 in range(nv2):
                    for x1 in range(nx1):
                        for x2 in range(nx2):
                            row = w[x1 * nx2 + x2].reshape(ny1, ny2)
                            marg = row.sum(axis=1) if j == 1 else row.sum(axis=0)
                            expect[u] += (p_v1.probs[v1] * p_v2.probs[v2]
                                          * px1[u, v1, x1] * px2[u, v2, x2] * marg)
        assert np.allclose(got.rows, expect, atol=1e-12)


def test_induced_channel_dimension_mismatch():
    # the kernels reach two inputs, the channel takes three: no induced channel
    px = np.zeros((2, 1, 2))
    px[:, 0, 0] = 1.0
    ic = np.einsum("ac,bd->abcd", np.eye(3), np.eye(3))
    with pytest.raises(ValueError, match="do not match the channel input alphabets"):
        _same_word_instance(ic, px)


# ---------------------------------------------------------------------------
# the exponent itself
# ---------------------------------------------------------------------------

def test_exponent_zero_at_and_above_capacity():
    w = pk.Dmc.binary_symmetric(0.1)
    cap = pk.mutual_information(pk.Pmf.uniform(2), w)
    assert fresh_er(cap, w) <= 1e-9
    assert fresh_er(cap + 0.1, w) == 0.0


def test_exponent_noiseless_rate_zero():
    ident = pk.Dmc.identity(2)
    got = fresh_er(0.0, ident)
    assert got == pytest.approx(LN2, abs=1e-9)
    assert er_grid_oracle(0.0, ident, pk.Pmf.uniform(2), res=501) == pytest.approx(LN2, abs=1e-9)


def test_exponent_bsc_half_capacity_vs_grid():
    w = pk.Dmc.binary_symmetric(0.1)
    cap = pk.mutual_information(pk.Pmf.uniform(2), w)
    got = fresh_er(0.5 * cap, w)
    oracle = er_grid_oracle(0.5 * cap, w, pk.Pmf.uniform(2), res=2001)
    assert got == pytest.approx(oracle, abs=1e-3)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("frac", [0.25, 0.6])
def test_exponent_random_binary_channels_vs_grid(seed, frac):
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(2), size=2)
    w = pk.Dmc(rows)
    p = pk.Pmf(rng.dirichlet(np.ones(2)))
    cap = pk.mutual_information(p, w)
    if cap < 1e-3:
        pytest.skip("degenerate random channel")
    rate = frac * cap
    got = fresh_er(rate, w, p)
    oracle = er_grid_oracle(rate, w, p, res=2001)
    assert got == pytest.approx(oracle, abs=1e-3)


def test_exponent_monotone_in_rate():
    w = pk.Dmc.binary_symmetric(0.05)
    cap = pk.mutual_information(pk.Pmf.uniform(2), w)
    values = [fresh_er(f * cap, w) for f in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-9
    assert values[-1] <= 1e-9


def test_exponent_iteration_cap_raises():
    # R = 0.2 lies above the critical rate (~0.131) of BSC(0.1), so the rho
    # search must run past the rho = 1 solve and hits the cap
    user = ex.ChannelExponent(pk.Pmf.uniform(2), pk.Dmc.binary_symmetric(0.1))
    with pytest.raises(ex.ExponentError, match="iteration cap 3 reached"):
        user.at(0.2, tolerance=1e-12, max_iters=3)


def test_channel_exponent_rejects_bad_input():
    w = pk.Dmc.binary_symmetric(0.1)
    with pytest.raises(ValueError, match="input pmf size does not match channel input alphabet"):
        ex.ChannelExponent(pk.Pmf.uniform(3), w)
    user = ex.ChannelExponent(pk.Pmf.uniform(2), w)
    for rate in (-0.1, math.nan):
        with pytest.raises(ValueError, match="rate must be a non-negative number"):
            user.at(rate)
    for tolerance in (0.0, -1e-6, math.nan):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            user.at(0.1, tolerance=tolerance)


def random_case(seed, shape):
    rng = np.random.default_rng(seed)
    w = pk.Dmc(rng.dirichlet(np.ones(shape[1]), size=shape[0]))
    p = pk.Pmf(rng.dirichlet(2.0 * np.ones(shape[0])))
    return w, p


REFERENCE_FRACS = (0.02, 0.1, 0.35, 0.7, 0.95)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (3, 4)])
@pytest.mark.parametrize("seed", [11, 12])
def test_exponent_matches_two_branch_reference(seed, shape):
    w, p = random_case(seed, shape)
    cap = pk.mutual_information(p, w)
    e0 = fresh_er(0.0, w, p)
    below = above = 0
    for frac in REFERENCE_FRACS:
        rate = frac * cap
        want = er_two_branch_reference(rate, w, p)
        assert fresh_er(rate, w, p) == pytest.approx(want, abs=1e-8)
        # below the critical rate E_r(R) = E_r(0) - R; above it E_r lies higher
        assert e0 - want <= rate + 1e-8
        if e0 - want >= rate - 1e-8:
            below += 1
        else:
            above += 1
    assert below >= 1 and above >= 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)]),
       f1=st.floats(0.0, 1.05), f2=st.floats(0.0, 1.05))
def test_exponent_properties(seed, shape, f1, f2):
    w, p = random_case(seed, shape)
    cap = pk.mutual_information(p, w)
    r1, r2 = sorted((f1 * cap, f2 * cap))

    def er(rate):
        return fresh_er(rate, w, p)

    e1, e2, em = er(r1), er(r2), er(0.5 * (r1 + r2))
    assert min(e1, e2, em) >= 0.0
    assert er(cap) == 0.0 and er(cap + 1e-3) == 0.0
    assert e2 <= e1 + 1e-8  # non-increasing in R
    assert em <= 0.5 * (e1 + e2) + 1e-8  # convex in R
    assert e2 - e1 >= -(r2 - r1) - 1e-8  # slope -rho* >= -1


def test_exponent_zero_input_probability_and_unreached_output():
    # input 1 is never sent and output 2 is reached only from it
    w = pk.Dmc([[0.7, 0.3, 0.0], [0.0, 0.0, 1.0], [0.2, 0.8, 0.0]])
    p = pk.Pmf([0.5, 0.0, 0.5])
    w_used = pk.Dmc([[0.7, 0.3], [0.2, 0.8]])
    p_used = pk.Pmf([0.5, 0.5])
    cap = pk.mutual_information(p, w)
    for frac in (0.0, 0.3, 0.8):
        got = fresh_er(frac * cap, w, p)
        assert got == pytest.approx(er_grid_oracle(frac * cap, w_used, p_used, res=2001), abs=1e-3)
        assert got == pytest.approx(fresh_er(frac * cap, w_used, p_used), abs=1e-12)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), nx=st.integers(2, 4), ny=st.integers(2, 4),
       unused_input=st.booleans(), dead_output=st.booleans(), orphan_output=st.booleans(),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_channel_exponent_matches_a_fresh_solve_per_rate(
        seed, nx, ny, unused_input, dead_output, orphan_output, fracs):
    # one object asked at many rates, in any order, gives each rate's fresh solve
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.ones(ny), size=nx)
    probs = rng.dirichlet(2.0 * np.ones(nx))
    if dead_output:  # a zero column: no input reaches the last output
        rows[:, -1] = 0.0
    if unused_input:  # a zero row of p: input 0 is never sent
        probs[0] = 0.0
        if orphan_output and ny - dead_output > 2:  # and output 0 is reached from input 0 alone
            rows[1:, 0] = 0.0
            rows[0] = np.eye(ny)[0]
    w = pk.Dmc(rows / rows.sum(axis=1, keepdims=True))
    p = pk.Pmf(probs / probs.sum())
    user = ex.ChannelExponent(p, w)
    assert user.mutual_information == pytest.approx(pk.mutual_information(p, w), abs=1e-12)
    cap = max(0.0, user.mutual_information)  # one used input rounds it below 0
    rates = [0.0, *(f * cap for f in fracs), cap, cap + 0.05]
    for i in rng.permutation(len(rates)):
        assert user.at(rates[i]) == fresh_er(rates[i], w, p)


# ---------------------------------------------------------------------------
# the two-user miss bound
# ---------------------------------------------------------------------------

def both_users(p, w):
    user = ex.ChannelExponent(p, w)
    return user, user


def test_g_rho_l_domain():
    users = both_users(pk.Pmf.uniform(2), pk.Dmc.binary_symmetric(0.05))
    with pytest.raises(ValueError):
        ex.log_g_rho_l(16, 0.2, 0.3, users)
    with pytest.raises(ValueError):
        ex.log_g_rho_l(16, 0.2, 0.0, users)
    with pytest.raises(ValueError):
        ex.log_g_rho_l(0, 0.2, 0.1, users)


def test_g_rho_l_clamps_to_one():
    # rate above capacity makes the exponent zero, so the bound saturates
    users = both_users(pk.Pmf.uniform(2), pk.Dmc.binary_symmetric(0.4))
    assert ex.log_g_rho_l(16, 0.6, 0.3, users) == 0.0


def test_g_rho_l_exact_zero_for_deterministic_injective():
    users = both_users(pk.Pmf.uniform(3), pk.Dmc.identity(3))
    assert ex.log_g_rho_l(8, 0.9, 0.5, users) == -math.inf


def test_g_rho_l_decreasing_in_l_near_noiseless():
    users = both_users(pk.Pmf.uniform(2), pk.Dmc([[0.999, 0.001], [0.001, 0.999]]))
    logs = [ex.log_g_rho_l(l, 0.3, 0.05, users) for l in (8, 16, 32, 64)]
    for hi, lo in zip(logs[:-1], logs[1:]):
        assert lo <= hi
    assert all(-math.inf < v <= 0.0 for v in logs)


@pytest.mark.parametrize("l", [10**4, 10**16])
def test_log_g_rho_l_stays_finite_where_g_underflows(l):
    w = pk.Dmc.binary_symmetric(0.05)
    p = pk.Pmf.uniform(2)
    gap = fresh_er(0.11, w) - 0.01
    log_g = ex.log_g_rho_l(l, 0.1, 0.01, both_users(p, w))
    # two equal terms: log 2 - l * gap (about log 2 - 2113.6 at l = 10^4)
    assert math.isfinite(log_g)
    assert log_g == pytest.approx(LN2 - l * gap, rel=1e-12)
    assert math.exp(log_g) == 0.0


def test_thm1_quantities_log_g_in_log_domain():
    inst = small_instance()
    sp = bd.SchemeParams(l=10_000, delta=0.75, A=0.1, B=0.6, rho=0.01, m=4)
    log_g = inst.thm1_quantities(sp)["log_g"]
    want = ex.log_g_rho_l(sp.l, sp.A, sp.rho,
                          tuple(ex.ChannelExponent(inst.p_u, inst.induced_to_user(j))
                                for j in (1, 2)))
    assert math.isfinite(log_g) and log_g < -700.0
    assert log_g == want


def test_is_deterministic_injective():
    assert ex.is_deterministic_injective(pk.Dmc.identity(4))
    assert not ex.is_deterministic_injective(pk.Dmc.binary_symmetric(0.1))
    # deterministic but not injective
    assert not ex.is_deterministic_injective(pk.Dmc([[1.0, 0.0], [1.0, 0.0]]))
