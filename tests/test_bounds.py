import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblic import bounds as bd
from fblic import dueck as dk
from fblic import exponent as ex
from fblic import probkit as pk
from helpers import (
    count_computations,
    cross_ic,
    random_instance,
    single_letter_oracle,
    small_instance,
    small_scheme,
    swapped_instance,
)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# elementary formulas
# ---------------------------------------------------------------------------

def test_xi_l_values():
    assert bd.xi_l(0.0, 10) == 0.0
    assert bd.xi_l(0.3, 1) == pytest.approx(0.3, abs=1e-15)
    assert bd.xi_l(0.01, 50) == pytest.approx(1.0 - 0.99 ** 50, rel=1e-12)
    # xi = 1: every block mismatches (log1p(-1) has no value)
    assert bd.xi_l(1.0, 1) == bd.xi_l(1.0, 3) == 1.0
    with pytest.raises(ValueError):
        bd.xi_l(1.5, 4)
    with pytest.raises(ValueError):
        bd.xi_l(0.5, 0)


def test_xi_l_upper_bound_random_probes():
    rng = np.random.default_rng(21)
    for _ in range(300):
        xi = float(rng.random())
        l = int(rng.integers(1, 10_000))
        val = bd.xi_l(xi, l)
        assert val <= min(1.0, l * xi) + 1e-12
        assert 0.0 <= val <= 1.0


def test_xi_l_monte_carlo():
    rng = np.random.default_rng(22)
    xi, l, n = 0.01, 50, 20_000
    blocks = rng.random((n, l)) < xi
    emp = blocks.any(axis=1).mean()
    expect = bd.xi_l(xi, l)
    sigma = math.sqrt(expect * (1 - expect) / n)
    assert abs(emp - expect) <= 3 * sigma


def test_log_xi_l_tiny_regime():
    # matches l*xi when that product is far below one
    got = bd.log_xi_l(math.log(1e-300), math.log(1e6))
    assert got == pytest.approx(math.log(1e-300) + math.log(1e6), rel=1e-12)
    assert bd.log_xi_l(-math.inf, 10.0) == -math.inf
    # xi = 1 makes every block mismatch, at any l
    assert bd.log_xi_l(0.0, math.log(3)) == 0.0 == math.log(bd.xi_l(1.0, 3))
    # moderate regime agrees with the direct formula
    got = bd.log_xi_l(math.log(0.01), math.log(50))
    assert got == pytest.approx(math.log(bd.xi_l(0.01, 50)), rel=1e-9)
    # saturating regime: lots of expected mismatches per block
    got = bd.log_xi_l(math.log(0.2), math.log(200))
    assert got == pytest.approx(math.log(bd.xi_l(0.2, 200)), rel=1e-9)
    # astronomically long blocks neither overflow nor lose the answer
    assert bd.log_xi_l(math.log(1e-9), 5000.0) == pytest.approx(0.0, abs=1e-12)
    tiny = bd.log_xi_l(-20000.0, 5000.0)
    assert tiny == pytest.approx(-15000.0, rel=1e-9)


def tau(p, l, delta):
    return math.exp(min(0.0, bd.log_tau_l_delta(p, l, delta)))


def test_tau_l_delta():
    p = pk.Pmf.uniform(2)
    # delta tiny: the bound exceeds one and clamps
    assert bd.log_tau_l_delta(p, 10, 1e-6) > 0.0
    assert tau(p, 10, 1e-6) == 1.0
    # l large: the bound collapses
    assert tau(p, 10 ** 7, 0.1) < 1e-300
    val = tau(p, 200, 0.1)
    expect = 2 * 2 * math.exp(-2 * 0.1 ** 2 * 0.25 * 200)
    assert val == pytest.approx(min(1.0, expect), rel=1e-12)
    with pytest.raises(ValueError):
        bd.log_tau_l_delta(p, 200, 0.0)
    with pytest.raises(ValueError):
        bd.log_tau_l_delta(p, 0, 0.1)


def test_tau_monte_carlo_bound():
    rng = np.random.default_rng(23)
    p = pk.Pmf.uniform(2)
    l, delta, n = 600, 0.15, 10_000
    counts = rng.binomial(l, 0.5, size=n)
    atypical = ~((np.abs(counts / l - 0.5) <= delta * 0.5)
                 & (np.abs((l - counts) / l - 0.5) <= delta * 0.5))
    assert atypical.mean() <= tau(p, l, delta)


def exact_atypical_mass(weights, l: int, delta: float, probs) -> Fraction:
    """1 - P(typical type) under the law weights / sum(weights), exactly.

    Every type (c_1, ..., c_a) of length l is enumerated and weighed by its
    multinomial probability; it is typical when every symbol passes the
    closed test |c/l - p| <= delta p on the float pmf probs (a symbol of
    probability 0 must not occur), as the chains decide it.
    """
    total = sum(weights)
    typical = 0
    for head in itertools.product(range(l + 1), repeat=len(weights) - 1):
        counts = head + (l - sum(head),)
        if counts[-1] < 0 or not all(c == 0 if q == 0.0 else abs(c / l - q) <= delta * q
                                     for c, q in zip(counts, probs)):
            continue
        ways = math.factorial(l)
        for c in counts:
            ways //= math.factorial(c)
        typical += ways * math.prod(w ** c for w, c in zip(weights, counts))
    return 1 - Fraction(typical, total ** l)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(weights=st.integers(2, 3).flatmap(
           lambda a: st.lists(st.integers(0, 20), min_size=a, max_size=a).filter(any)),
       l=st.integers(1, 64), delta=st.floats(0.05, 2.0))
def test_tau_bounds_the_exact_atypical_mass(weights, l, delta):
    p = pk.Pmf([w / sum(weights) for w in weights])
    log_tau = bd.log_tau_l_delta(p, l, delta)
    if log_tau < 0.0:
        assert float(exact_atypical_mass(weights, l, delta, p.probs.tolist())) <= math.exp(log_tau)


def test_loss_source():
    assert bd.loss_source(0.0, 16, math.log(4)) == 0.0
    phi, l, size = 0.01, 32, 8
    expect = pk.binary_entropy(phi) / l + phi * math.log(size)
    assert bd.loss_source(phi, l, math.log(size)) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        bd.loss_source(0.5, 16, math.log(4))
    with pytest.raises(ValueError):
        bd.loss_source(-0.1, 16, math.log(4))


def test_loss_source_approaches_half_log_size():
    # near phi = 1/2 the loss approaches (k/2) log a for the k-digit source
    a, k, l = 2, 4, 4096
    size = a ** k
    val = bd.loss_source(0.5 - 1e-12, l, math.log(size))
    assert val == pytest.approx(0.5 * math.log(size), abs=1e-3)
    assert 0.5 * math.log(size) == pytest.approx((k / 2) * math.log(a), abs=1e-15)


def test_loss_source_monotone_random():
    rng = np.random.default_rng(24)
    for _ in range(100):
        lo, hi = sorted(rng.random(2) * 0.499)
        assert bd.loss_source(lo, 16, math.log(7)) <= bd.loss_source(hi, 16, math.log(7)) + 1e-15


def _thm3_loss(phi, u, y, x_own, x_other):
    """Theorem 3's channel loss written out in its own evaluation order."""
    plp = 0.0 if phi == 0.0 else phi * math.log(1.0 / phi)
    return pk.binary_entropy(phi) + phi * math.log(u) + x_own * y * u * (1 + x_other) * plp


def test_loss_channel_variants():
    assert bd.loss_channel(0.0, 2, 2) == 0.0
    assert bd.loss_channel_split(0.0, 8) == 0.0
    phi = 0.01
    expect = pk.binary_entropy(phi) + phi * LN2 + 2 * 2 * phi * math.log(1 / phi)
    assert bd.loss_channel(phi, 2, 2) == pytest.approx(expect, rel=1e-12)
    expect3 = pk.binary_entropy(phi) + phi * LN2 + 2 * 3 * 2 * (1 + 4) * phi * math.log(1 / phi)
    assert bd.loss_channel(phi, 2, 2 * 3 * (1 + 4)) == pytest.approx(expect3, rel=1e-12)
    expect2 = pk.binary_entropy(phi) + 5 * phi * math.log(8) + 8 ** 3 * phi * math.log(1 / phi)
    assert bd.loss_channel_split(phi, 8) == pytest.approx(expect2, rel=1e-12)
    with pytest.raises(ValueError):
        bd.loss_channel(0.6, 2, 2)
    with pytest.raises(ValueError):
        bd.loss_channel_split(0.6, 8)
    # Theorem 3's loss is Theorem 1's form at the output size
    # |X_j||Y_j|(1+|X_o|), an exact integer, so every bit is the same
    for phi in (0.0, 1e-300, 1e-9, 0.01, 0.1, 1 / 3, 0.45, 0.499999):
        for u, y, x_own, x_other in itertools.product((1, 2, 3, 7), (1, 2, 5), (1, 2, 4),
                                                      (1, 3, 8)):
            assert bd.loss_channel(phi, u, x_own * y * (1 + x_other)) == \
                _thm3_loss(phi, u, y, x_own, x_other)


def test_loss_channel_thm2_dominates_thm1_on_grid():
    # with |UVW| >= |U| and |UVW|^3 >= |Y||U| the splitting loss dominates
    rng = np.random.default_rng(25)
    for _ in range(60):
        phi = float(rng.random() * 0.45)
        u = int(rng.integers(2, 5))
        y = int(rng.integers(2, 5))
        uvw = u * int(rng.integers(2, 5)) * int(rng.integers(2, 5))
        if uvw ** 3 < y * u:
            continue
        assert bd.loss_channel_split(phi, uvw) >= bd.loss_channel(phi, u, y) - 1e-12


def test_losses_vanish_with_phi():
    tiny = 1e-9
    assert bd.loss_source(tiny, 16, math.log(4)) < 1e-7
    assert bd.loss_channel(tiny, 2, 2) < 1e-6
    assert bd.loss_channel_split(tiny, 8) < 2e-5
    assert bd.loss_channel(tiny, 2, 2 * 2 * (1 + 2)) < 1e-6


# ---------------------------------------------------------------------------
# scheme parameters and instances
# ---------------------------------------------------------------------------

def test_scheme_params_validation():
    with pytest.raises(ValueError):
        bd.SchemeParams(l=0, delta=0.1, A=0.1, B=0.1, rho=0.05)
    with pytest.raises(ValueError):
        bd.SchemeParams(l=8, delta=0.0, A=0.1, B=0.1, rho=0.05)
    with pytest.raises(ValueError):
        bd.SchemeParams(l=8, delta=0.1, A=0.1, B=0.1, rho=0.2)
    for a, b in ((-0.1, 0.1), (0.3, -0.1)):
        with pytest.raises(ValueError, match="A and B must be non-negative"):
            bd.SchemeParams(l=8, delta=0.1, A=a, B=b, rho=0.05)
    sp = bd.SchemeParams(l=8, delta=0.1, A=0.3, B=0.1, rho=0.2, m=4)
    assert sp.m == 4
    # a non-integral or non-positive l or m is refused, not truncated
    for l, m in ((16.7, 1), (16, 2.5), (-3, 1), (16, 0), ("16", 1), (math.inf, 1), (16, math.nan)):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            bd.SchemeParams(l=l, delta=0.1, A=0.3, B=0.1, rho=0.2, m=m)
    # a non-finite rate or tolerance is refused, not carried into a report
    good = dict(l=8, delta=0.1, A=0.3, B=0.1, rho=0.2)
    for name, value in (("delta", math.inf), ("A", math.inf), ("B", math.nan),
                        ("rho", math.nan), ("B", -math.inf)):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            bd.SchemeParams(**{**good, name: value})
    # a value that is not a number names its field
    for name, value in (("delta", [0.1]), ("A", "x"), ("B", None), ("rho", 10 ** 400)):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            bd.SchemeParams(**{**good, name: value})
    # an integral value is stored as an int, also the worked example's huge l
    sp = bd.SchemeParams(l=16.0, delta=0.1, A=0.3, B=0.1, rho=0.2, m=np.int64(4))
    assert type(sp.l) is int and type(sp.m) is int and (sp.l, sp.m) == (16, 4)
    assert bd.SchemeParams(l=3 ** 4000, delta=0.1, A=0.3, B=0.1, rho=0.2).l == 3 ** 4000


def test_is_type_of():
    assert bd.is_type_of(pk.Pmf([0.5, 0.5]), 16)
    assert not bd.is_type_of(pk.Pmf([0.3, 0.7]), 16)
    assert bd.is_type_of(pk.Pmf([0.25, 0.75]), 16)
    # the allowance is float resolution, not a share of l
    assert not bd.is_type_of(pk.Pmf([1 / 3, 2 / 3]), 10 ** 9)
    assert bd.is_type_of(pk.Pmf([1 / 3, 2 / 3]), 3 * 10 ** 9)
    assert bd.is_type_of(pk.Pmf([0.5, 0.5]), 10 ** 18)


def test_instance_validation():
    inst = small_instance()
    assert inst.k_size == 2
    assert inst.nx == (2, 2) and inst.ny == (2, 2)
    good = dict(source=inst.source, f1=[0, 1], f2=[0, 1], ic=inst.ic,
                p_u=inst.p_u, p_v1=inst.p_v1, p_v2=inst.p_v2,
                p_x1_given_uv1=inst.p_x1_given_uv1, p_x2_given_uv2=inst.p_x2_given_uv2)
    three_inputs = np.zeros((2, 2, 3))
    three_inputs[:, :, 0] = 1.0
    for change, message in (
            ({"f1": [0]}, "maps must cover the source alphabets"),
            # numpy would wrap -1 to the last symbol and truncate 1.7 to 1
            ({"f1": [-1, -1]}, "f1 must be a list of non-negative integers"),
            ({"f2": [0, 1.7]}, "f2 must be a list of non-negative integers"),
            ({"f1": [0, math.nan]}, "f1 must be a list of non-negative integers"),
            ({"f2": ["0", "1"]}, "f2 must be a list of non-negative integers"),
            ({"k_size": 2.9}, "k_size must be an integer >= 0"),
            ({"k_size": -1}, "k_size must be an integer >= 0"),
            ({"k_size": math.nan}, "k_size must be an integer >= 0"),
            ({"k_size": 1}, "k_size smaller than the range of the maps"),
            # a k x k law of the common parts past 2^24 entries, asked for or inferred
            ({"k_size": 4097}, "4097 symbols from k_size: .* more than 2\\^24"),
            ({"f1": [5000, 0], "f2": [0, 5000]}, "5001 symbols from f1 and f2"),
            # user 1's kernel reaches three inputs, the channel takes two
            ({"p_x1_given_uv1": three_inputs}, "do not match the channel input alphabets"),
            ({"ic": inst.ic[0]}, "interference channel must be W\\[x1, x2, y1, y2\\]"),
            # a kernel per (u, v) pair: |U| = 2 and |V2| = 2, not one u
            ({"p_x2_given_uv2": inst.p_x2_given_uv2[:1]}, "user 2 input kernel has a bad shape"),
            ({"p_x1_given_uv1": inst.p_x1_given_uv1[0]}, "user 1 input kernel has a bad shape"),
    ):
        with pytest.raises(ValueError, match=message):
            bd.ProblemInstance(**{**good, **change})
    assert bd.ProblemInstance(**{**good, "f1": [0.0, 1.0], "k_size": 3.0}).k_size == 3
    assert bd.ProblemInstance(**{**good, "k_size": 4096}).k_size == 4096


@pytest.mark.parametrize("field", ["ic", "p_x1_given_uv1", "p_x2_given_uv2"])
def test_instance_rejects_nan_kernel_entry(field):
    inst = small_instance()
    kw = {"ic": inst.ic.copy(), "p_x1_given_uv1": inst.p_x1_given_uv1.copy(),
          "p_x2_given_uv2": inst.p_x2_given_uv2.copy()}
    kw[field].reshape(-1)[0] = math.nan
    with pytest.raises(ValueError, match="stochastic"):
        bd.ProblemInstance(source=inst.source, f1=[0, 1], f2=[0, 1], p_u=inst.p_u,
                           p_v1=inst.p_v1, p_v2=inst.p_v2, **kw)


_UNEQUAL_PAIR = st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(nu=st.integers(1, 3), nv=_UNEQUAL_PAIR, nx=_UNEQUAL_PAIR, ny=_UNEQUAL_PAIR,
       seed=st.integers(0, 2 ** 32 - 1))
def test_per_user_view_matches_brute_force_oracle(nu, nv, nx, ny, seed):
    inst = random_instance(np.random.default_rng(seed), nu, nv, nx, ny)
    want = single_letter_oracle(inst)
    for j in (1, 2):
        assert np.allclose(inst.induced_to_user(j).rows, want[j]["induced"], rtol=0, atol=1e-12)
        assert np.allclose(inst.ideal_joint_vy(j).probs, want[j]["joint_vy"], rtol=0, atol=1e-12)
        assert inst.cond_mi_x_y_given_u(j) == pytest.approx(want[j]["cond_mi"], rel=0, abs=1e-12)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(nu=st.integers(1, 4), nv=_UNEQUAL_PAIR, nx=_UNEQUAL_PAIR, ny=_UNEQUAL_PAIR,
       seed=st.integers(0, 2 ** 32 - 1))
def test_per_user_view_exact_under_role_swap(nu, nv, nx, ny, seed):
    # user j of an instance is user 3 - j of its role-swapped twin, to the bit
    inst = random_instance(np.random.default_rng(seed), nu, nv, nx, ny)
    twin = swapped_instance(inst)
    for j in (1, 2):
        assert np.array_equal(inst.induced_to_user(j).rows, twin.induced_to_user(3 - j).rows)
        assert np.array_equal(inst.ideal_joint_vy(j).probs, twin.ideal_joint_vy(3 - j).probs)
        assert inst.mutual_information_vy(j) == twin.mutual_information_vy(3 - j)
        assert inst.cond_mi_x_y_given_u(j) == twin.cond_mi_x_y_given_u(3 - j)


def test_instance_derived_quantities():
    inst = small_instance(xi=0.01)
    assert inst.xi_k() == pytest.approx(0.01, rel=1e-9)
    jk = inst.joint_k()
    assert jk.probs.shape == (2, 2)
    # H(S1|K1) = 0 for the identity map; H(S2|K1) = H(S2|S1)
    assert inst.h_s_given_k1(1) == pytest.approx(0.0, abs=1e-12)
    assert inst.h_s_given_k1(2) == pytest.approx(
        pk.conditional_entropy(inst.source), rel=1e-12)
    # there are two users
    for j in (0, 3):
        with pytest.raises(ValueError, match="user index must be 1 or 2"):
            inst.induced_to_user(j)


def test_phi_total_term_by_term():
    inst = small_instance()
    sp = small_scheme()
    q = inst.thm1_quantities(sp)
    g = math.exp(ex.log_g_rho_l(sp.l, sp.A, sp.rho,
                                tuple(ex.ChannelExponent(inst.p_u, inst.induced_to_user(j))
                                      for j in (1, 2))))
    xil = bd.xi_l(inst.xi_k(), sp.l)
    want = min(1.0, g + tau(inst.p_k1(), sp.l, sp.delta) + xil)
    phi, log_phi = bd._phi_from_logs(q)
    assert math.exp(log_phi) == pytest.approx(want, rel=1e-12)
    assert phi == math.exp(log_phi)


def test_thm1_quantities_refuses_p_u_off_the_l_grid_on_every_call():
    # the type test is memoized per l; its refusal is not
    inst = small_instance()
    for _ in range(2):
        with pytest.raises(ValueError, match="p_U must be a type of denominator l"):
            inst.thm1_quantities(small_scheme(l=15))
    assert inst.thm1_quantities(small_scheme(l=16))["log_g"] < 0.0


def test_phi_total_near_zero_for_clean_setup():
    # common part always agrees, huge tolerance, noiseless channel: the
    # codeword term is exactly zero and the atypicality bound decays away
    inst = small_instance(xi=0.0, stay=1.0, eps=0.0, leak=0.0)
    sp = small_scheme(delta=5.0)
    q = inst.thm1_quantities(sp)
    assert q["log_g"] == -math.inf and q["log_xi_l"] == -math.inf
    assert bd._phi_from_logs(q)[0] == pytest.approx(0.0, abs=1e-12)
    assert bd.check_thm1(inst, sp).phi == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# theorem checkers
# ---------------------------------------------------------------------------

def test_check_thm1_hand_assembled_slacks():
    inst = small_instance()
    sp = small_scheme()
    report = bd.check_thm1(inst, sp)
    phi = report.phi
    for j in (1, 2):
        ls = bd.loss_source(phi, sp.l, math.log(2))
        lc = bd.loss_channel(phi, 2, 2)
        left = sp.B + inst.h_s_given_k1(j) + ls
        right = inst.mutual_information_vy(j) - lc
        iq = report.inequality(f"user{j}: B + H(S{j}|K1) + L^S < I(V{j};Y{j}) - L^C")
        assert iq.left == pytest.approx(left, rel=1e-12)
        assert iq.right == pytest.approx(right, rel=1e-12)
    budget = report.inequality("A+B >= (1+delta)*H(K1)")
    assert budget.right == pytest.approx((1 + sp.delta) * pk.entropy(inst.p_k1()), rel=1e-12)


def test_check_thm1_requires_type_pmf():
    inst = small_instance()
    sp = bd.SchemeParams(l=15, delta=0.75, A=0.1, B=0.6, rho=0.05, m=4)
    with pytest.raises(ValueError):
        bd.check_thm1(inst, sp)


def test_check_thm1_zero_capacity_infeasible():
    # satellite outputs carry nothing: y_j uniform regardless of inputs
    ic = np.full((2, 2, 2, 2), 0.25)
    inst = bd.ProblemInstance(
        source=pk.JointPmf([[0.495, 0.005], [0.005, 0.495]]),
        f1=[0, 1], f2=[0, 1], ic=ic,
        p_u=pk.Pmf([0.5, 0.5]), p_v1=pk.Pmf([0.5, 0.5]), p_v2=pk.Pmf([0.5, 0.5]),
        p_x1_given_uv1=np.broadcast_to(np.eye(2)[:, None, :], (2, 2, 2)).copy(),
        p_x2_given_uv2=np.broadcast_to(np.eye(2)[:, None, :], (2, 2, 2)).copy(),
    )
    sp = small_scheme()
    # the useless channel also kills the codeword-decoding term, so pin
    # phi to isolate the rate comparison: the slack must go negative
    report = bd.check_thm1(inst, sp, phi_override=0.1)
    assert report.overall is False
    iq = report.inequality("user1: B + H(S1|K1) + L^S < I(V1;Y1) - L^C")
    assert iq.slack < 0.0
    assert iq.right < 0.0  # I(V;Y) = 0 minus a positive loss


def test_check_thm1_when_the_common_parts_always_differ():
    # xi = 1 (K1 != K2 on every symbol) makes phi = 1: infeasible, not a crash
    inst = small_instance()
    anti = bd.ProblemInstance(
        source=pk.JointPmf([[0.0, 0.5], [0.5, 0.0]]), f1=[0, 1], f2=[0, 1], ic=inst.ic,
        p_u=inst.p_u, p_v1=inst.p_v1, p_v2=inst.p_v2,
        p_x1_given_uv1=inst.p_x1_given_uv1, p_x2_given_uv2=inst.p_x2_given_uv2)
    report = bd.check_thm1(anti, small_scheme())
    assert anti.xi_k() == 1.0
    assert report.status == "infeasible-by-phi" and report.phi == 1.0
    assert report.extras["quantities"]["log_xi_l"] == 0.0


def test_check_thm1_phi_override_and_infeasible_by_phi():
    inst = small_instance()
    sp = small_scheme()
    report = bd.check_thm1(inst, sp, phi_override=0.7)
    assert report.status == "infeasible-by-phi"
    assert report.overall is False


def test_check_thm3_noiseless_given_u_feasible():
    # y_j = x_j exactly: I(X_j;Y_j|U) = H(X_j|U), close to log 2 here
    ic = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            ic[x1, x2, x1, x2] = 1.0
    inst = bd.ProblemInstance(
        source=pk.JointPmf([[0.4995, 0.0005], [0.0005, 0.4995]]),
        f1=[0, 1], f2=[0, 1], ic=ic,
        p_u=pk.Pmf([0.5, 0.5]), p_v1=pk.Pmf([0.5, 0.5]), p_v2=pk.Pmf([0.5, 0.5]),
        p_x1_given_uv1=np.full((2, 2, 2), 0.5),  # X independent of U: clean V-channel
        p_x2_given_uv2=np.full((2, 2, 2), 0.5),
    )
    # the induced shared-word channel is useless here, so force phi by hand
    sp = bd.SchemeParams(l=16, delta=0.75, A=0.1, B=0.05, rho=0.05, m=4)
    phi = 1e-4
    report = bd.check_thm3(inst, sp, phi_override=phi)
    for j in (1, 2):
        iq = report.inequality(f"user{j}: B + H(S{j}|K1) + L^S < I(X{j};Y{j}|U) - L^C")
        assert iq.right == pytest.approx(
            inst.cond_mi_x_y_given_u(j) - bd.loss_channel(phi, 2, 2 * 2 * (1 + 2)), rel=1e-12)
        assert iq.satisfied
    assert inst.cond_mi_x_y_given_u(1) == pytest.approx(LN2, rel=1e-12)


def test_check_thm3_large_phi_infeasible():
    inst = small_instance()
    sp = small_scheme()
    report = bd.check_thm3(inst, sp, phi_override=0.4)
    assert report.overall is False


def test_check_thm3_hand_slack():
    inst = small_instance()
    sp = small_scheme()
    report = bd.check_thm3(inst, sp)
    phi = report.phi
    iq = report.inequality("user1: B + H(S1|K1) + L^S < I(X1;Y1|U) - L^C")
    left = sp.B + 0.0 + bd.loss_source(phi, sp.l, math.log(inst.k_size))
    right = inst.cond_mi_x_y_given_u(1) - bd.loss_channel(phi, 2, 2 * 2 * (1 + 2))
    assert iq.slack == pytest.approx(right - left, rel=1e-9)


def test_check_thm2_rate_point():
    inst = small_instance()
    sp = small_scheme()
    report = bd.check_thm2_rate_point(inst, sp)
    assert report.status == "indeterminate"
    assert report.overall is None
    rp = report.extras["rate_point"]
    phi = report.phi
    lc = bd.loss_channel_split(phi, 2 * 2 * 2)
    assert rp[0][0] == pytest.approx(sp.B + lc, rel=1e-12)
    assert rp[1][1] == pytest.approx(
        inst.h_s_given_k1(2) + bd.loss_source(phi, sp.l, math.log(2)), rel=1e-12)

    # with the always-true stub the report reduces to the budget and
    # phi rows, so use a scheme that satisfies the bit budget
    sp_ok = bd.SchemeParams(l=16, delta=0.75, A=sp.A, B=1.3, rho=sp.rho, m=sp.m)
    yes = bd.check_thm2_rate_point(inst, sp_ok, hk_oracle=lambda point, i: True)
    assert yes.status == "feasible" and yes.overall is True
    no = bd.check_thm2_rate_point(inst, sp_ok, hk_oracle=lambda point, i: False)
    assert no.status == "infeasible" and no.overall is False


def test_check_thm2_rate_point_with_w_layer():
    base = small_instance()
    inst = bd.ProblemInstance(
        source=base.source, f1=[0, 1], f2=[0, 1], ic=base.ic,
        p_u=base.p_u, p_v1=base.p_v1, p_v2=base.p_v2,
        p_x1_given_uv1=base.p_x1_given_uv1, p_x2_given_uv2=base.p_x2_given_uv2,
        p_w1=pk.Pmf([0.5, 0.5]), p_w2=pk.Pmf([0.25, 0.75]))
    report = bd.check_thm2_rate_point(inst, small_scheme())
    assert report.extras["uvw_size"] == 2 * 2 * 2 * 2 * 2


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_feasible_empty_grid():
    assert bd.search_feasible([], []) == []
    # one report per grid point
    with pytest.raises(ValueError):
        bd.search_feasible([1.0], [])


def test_search_feasible_finds_witness_point():
    inst, sp = dk.lemma2_scheme(dk.DueckParams(512, 500, 8))
    grid = [0.5, 1.0]
    reports = [bd.check_thm1(inst, dataclasses.replace(sp, B=sp.B * scale)) for scale in grid]
    feas_params = [p for p, r in bd.search_feasible(grid, reports) if r.overall]
    assert feas_params == [1.0]  # halving B breaks the bit budget


def test_search_feasible_all_infeasible_diagnostics():
    inst = small_instance()
    grid = [5.0, 6.0]
    ranked = bd.search_feasible(grid, [
        bd.check_thm1(inst, bd.SchemeParams(l=16, delta=0.75, A=0.0866, B=b, rho=0.02, m=4))
        for b in grid])
    assert not any(r.overall for _, r in ranked)
    params, report = ranked[0]
    assert params == 5.0  # smaller B violates the rate inequality less
    assert report.overall is False


def test_search_feasible_ranks_log_scale_slack_before_linear():
    # point "a" has the larger log-scale slack but the smaller linear one,
    # so the mixed min_slack would put "b" first; every point ties with "c"
    # on log scale except "a", and "c" beats "b" on the linear slack
    slacks = {"a": (3.0, 0.01), "b": (0.1, 0.2), "c": (0.1, 0.5), "d": (-1.0, 1.0),
              "e": (-0.5, -0.01), "f": (-0.1, -2.0)}

    def report_of(point):
        log_slack, linear_slack = slacks[point]
        report = bd.ConditionReport(
            inequalities=(bd.Inequality("log row", 0.0, log_slack, kind="le", scale="log"),
                          bd.Inequality("linear row", 0.0, linear_slack, kind="lt")),
            phi=0.0, log_phi=-math.inf, status="")
        report.status = "feasible" if report.overall else "infeasible"
        return report

    ranked = bd.search_feasible(list("bdac"), map(report_of, "bdac"))
    feasible = [(p, r) for p, r in ranked if r.overall]
    assert [p for p, _ in feasible] == ["a", "c", "b"]
    assert ranked[0][0] == "a"
    assert feasible[0][1].min_slack == 0.01  # the report itself is unchanged
    # all infeasible: the best attempt falls short least on log scale
    ranked = bd.search_feasible(list("ef"), map(report_of, "ef"))
    assert not any(r.overall for _, r in ranked) and ranked[0][0] == "f"


# the instance-only quantities each checker reads, and their arguments
_INSTANCE_ONLY = {
    "joint_k": [()], "p_k1": [()], "h_k1": [()], "xi_k": [()],
    "_user": [(1,), (2,)], "induced_to_user": [(1,), (2,)],
    "h_s_given_k1": [(1,), (2,)],
}
_READ_BY = {
    bd.check_thm1: {"ideal_joint_vy": [(1,), (2,)], "mutual_information_vy": [(1,), (2,)]},
    bd.check_thm3: {"ideal_joint_vy": [(1,), (2,)], "mutual_information_vy": [(1,), (2,)],
                    "cond_mi_x_y_given_u": [(1,), (2,)]},
}


@pytest.mark.parametrize("checker", list(_READ_BY), ids=lambda c: c.__name__)
def test_search_with_a_shared_instance_reports_as_fresh_ones(monkeypatch, checker):
    # a 2 x 2 x 2 grid of (B, rho, l): one instance shared by every point
    # computes each instance-only quantity once and gives the reports that a
    # fresh instance per point gives
    grid = list(itertools.product((0.1, 0.6), (0.01, 0.02), (16, 32)))

    def scheme(point):
        b, rho, l = point
        return bd.SchemeParams(l=l, delta=0.75, A=2 * LN2 / 16, B=b, rho=rho, m=4)

    fresh_reports = [checker(small_instance(), scheme(p)) for p in grid]
    fresh = bd.search_feasible(grid, fresh_reports)
    wanted = {**_INSTANCE_ONLY, **_READ_BY[checker]}
    computed = count_computations(monkeypatch, *wanted)
    inst = small_instance()
    shared_reports = [checker(inst, scheme(p)) for p in grid]
    shared = bd.search_feasible(grid, shared_reports)
    assert [r.to_dict() for r in shared_reports] == [r.to_dict() for r in fresh_reports]
    assert [p for p, r in shared if r.overall] == [p for p, r in fresh if r.overall]
    assert shared[0][0] == fresh[0][0]
    assert {name: sorted(args) for name, args in computed.items()} == wanted


def test_instance_arrays_are_read_only():
    ic = cross_ic(0.005, 0.005, 0.01, 0.01)
    inst = bd.ProblemInstance(
        source=pk.JointPmf([[0.495, 0.005], [0.005, 0.495]]), f1=[0, 1], f2=[0, 1], ic=ic,
        p_u=pk.Pmf([0.5, 0.5]), p_v1=pk.Pmf([0.5, 0.5]), p_v2=pk.Pmf([0.5, 0.5]),
        p_x1_given_uv1=np.full((2, 2, 2), 0.5), p_x2_given_uv2=np.full((2, 2, 2), 0.5))
    with pytest.raises(ValueError, match="read-only"):
        inst.ic[0, 0, 0, 0] = 0.5
    for arr in (inst.f1, inst.f2, inst.p_x1_given_uv1, inst.p_x2_given_uv2):
        with pytest.raises(ValueError, match="read-only"):
            arr.reshape(-1)[0] = 0
    # the instance holds a copy: the caller's array stays writable
    ic[0, 0, 0, 0] = 0.5
    assert inst.ic[0, 0, 0, 0] != 0.5


def test_report_json_round_trip_and_determinism():
    inst = small_instance()
    sp = small_scheme()
    r1 = bd.check_thm1(inst, sp)
    r2 = bd.check_thm1(inst, sp)
    assert r1.to_dict() == r2.to_dict()
    import json
    blob = json.dumps(r1.to_dict())
    assert json.loads(blob)["overall"] == r1.overall


def test_report_refuses_unknown_names():
    report = bd.check_thm1(small_instance(), small_scheme())
    assert report.inequality("phi < 1/2").right == 0.5
    with pytest.raises(KeyError, match="no such row"):
        report.inequality("no such row")
    # a kind other than lt, le and ge has no verdict
    with pytest.raises(ValueError, match="unknown inequality kind 'gt'"):
        bd.Inequality("x", 1.0, 0.0, kind="gt").satisfied
