import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fblic import dueck as dk
from fblic import probkit as pk
from fblic.codec import FullCubeCode
from helpers import entropy_brute, mi_from_joint

LN2 = math.log(2.0)


def all_binary_sequences(l):
    for x in range(1 << l):
        yield [(x >> (l - 1 - i)) & 1 for i in range(l)]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_pmf_validation():
    with pytest.raises(ValueError):
        pk.Pmf([0.5, 0.6])
    with pytest.raises(ValueError):
        pk.Pmf([1.2, -0.2])
    with pytest.raises(ValueError):
        pk.Pmf([])
    with pytest.raises(ValueError, match="pmf must be 1-dimensional"):
        pk.Pmf([[0.5, 0.5]])
    p = pk.Pmf([0.25, 0.75])
    with pytest.raises(AttributeError):
        p.probs = None
    assert p.alphabet_size == 2


def test_joint_and_dmc_validation():
    with pytest.raises(ValueError):
        pk.JointPmf([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError):
        pk.Dmc([[0.5, 0.4], [0.5, 0.5]])
    w = pk.Dmc.binary_symmetric(0.1)
    assert w.num_inputs == w.num_outputs == 2
    for crossover in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="crossover must be in"):
            pk.Dmc.binary_symmetric(crossover)
    # like a Pmf, neither is rebound after construction
    with pytest.raises(AttributeError, match="JointPmf is immutable"):
        pk.JointPmf([[0.5, 0.0], [0.0, 0.5]]).probs = None
    with pytest.raises(AttributeError, match="Dmc is immutable"):
        w.rows = None


@pytest.mark.parametrize("l, delta, message", [
    (0, 0.5, "block length l must be a positive integer"),
    (2.5, 0.5, "block length l must be a positive integer"),
    (4, 0.0, "delta must be positive"),
    (4, math.nan, "delta must be positive"),
])
def test_typicality_params_refuse_bad_values(l, delta, message):
    with pytest.raises(ValueError, match=message):
        pk.TypicalityParams(l, delta)


@pytest.mark.parametrize("build", [
    lambda: pk.Pmf([math.nan, math.nan]),
    lambda: pk.Pmf([0.5, math.nan]),
    lambda: pk.Pmf([math.inf, 0.0]),
    lambda: pk.JointPmf([[0.5, math.nan], [0.25, 0.25]]),
    lambda: pk.Dmc([[1.0, 0.0], [math.nan, math.nan]]),
])
def test_non_finite_probabilities_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_mutual_information_of_input_independent_channel_is_not_negative():
    # identical rows: the output ignores the input, so I = 0, and rounding
    # must not push it below (unclamped, seed 0 gives -1.1e-16 by draw 15)
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = pk.Dmc(np.tile(rng.dirichlet(np.ones(3)), (4, 1)))
        mi = pk.mutual_information(pk.Pmf(rng.dirichlet(np.ones(4))), w)
        assert 0.0 <= mi <= 1e-15


# ---------------------------------------------------------------------------
# information measures
# ---------------------------------------------------------------------------

def test_entropy_trivial():
    assert pk.entropy(pk.Pmf.uniform(2)) == pytest.approx(LN2, abs=1e-15)
    assert pk.entropy(pk.Pmf.degenerate(4, 1)) == 0.0


def test_entropy_dueck_marginal_brute_force():
    src = dk.build_source(dk.DueckParams(2, 2, 8))
    marg = src.materialize().row_marginal()
    assert pk.entropy(marg) == pytest.approx(entropy_brute(marg.probs), abs=1e-12)


def test_binary_entropy():
    assert pk.binary_entropy(0.0) == 0.0
    assert pk.binary_entropy(1.0) == 0.0
    assert pk.binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)
    assert pk.binary_entropy(0.11) == pytest.approx(pk.entropy(pk.Pmf([0.11, 0.89])), abs=1e-12)
    with pytest.raises(ValueError):
        pk.binary_entropy(-0.1)
    with pytest.raises(ValueError):
        pk.binary_entropy(1.1)


def test_conditional_entropy():
    # product: H(col | row) = H(col)
    p_row = np.array([0.3, 0.7])
    p_col = np.array([0.2, 0.5, 0.3])
    j = pk.JointPmf(np.outer(p_row, p_col))
    assert pk.conditional_entropy(j) == pytest.approx(entropy_brute(p_col), abs=1e-12)
    # perfectly correlated
    diag = pk.JointPmf(np.diag([0.25, 0.35, 0.4]))
    assert pk.conditional_entropy(diag) == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_dueck_bound():
    params = dk.DueckParams(2, 2, 8)
    joint = dk.build_source(params).materialize()
    h = pk.conditional_entropy(joint)
    a, k, eta = params.a, params.k, params.eta
    bound = pk.binary_entropy(1.0 / ((k - 1) * a ** (eta * k))) + \
        (2.0 / a ** (eta * k)) * math.log(a)
    assert 0.0 < h <= bound + 1e-12
    # cross-check the closed-form path
    assert dk.source_stats(dk.build_source(params)).h_s2_given_s1 == pytest.approx(h, rel=1e-9)


def test_mutual_information():
    p = pk.Pmf.uniform(4)
    assert pk.mutual_information(p, pk.Dmc.identity(4)) == pytest.approx(math.log(4), abs=1e-12)
    constant = pk.Dmc([[1.0, 0.0]] * 3)
    assert pk.mutual_information(pk.Pmf.uniform(3), constant) == pytest.approx(0.0, abs=1e-12)
    w = pk.Dmc.binary_symmetric(0.1)
    closed = LN2 - pk.binary_entropy(0.1)
    got = pk.mutual_information(pk.Pmf.uniform(2), w)
    assert got == pytest.approx(closed, abs=1e-12)
    joint = pk.Pmf.uniform(2).probs[:, None] * w.rows
    assert got == pytest.approx(mi_from_joint(joint), abs=1e-12)
    with pytest.raises(ValueError, match="does not match channel input alphabet"):
        pk.mutual_information(pk.Pmf.uniform(3), w)


def test_least_positive_prob():
    assert pk.least_positive_prob(pk.Pmf([0.5, 0.5])) == (0, 0.5)
    assert pk.least_positive_prob(pk.Pmf([0.7, 0.0, 0.3])) == (2, 0.3)
    marg = dk.build_source(dk.DueckParams(2, 2, 8)).materialize().row_marginal()
    idx, val = pk.least_positive_prob(marg)
    positive = [v for v in marg.probs if v > 0]
    assert val == pytest.approx(min(positive), abs=0)
    assert marg.probs[idx] == val


# ---------------------------------------------------------------------------
# typicality
# ---------------------------------------------------------------------------

def test_is_typical_basics():
    p = pk.Pmf([0.5, 0.5])
    t = pk.TypicalityParams(4, 0.5)
    assert pk.typical_set(p, t).contains([0, 1, 0, 1])
    # boundary count sits exactly on the closed inequality
    assert pk.typical_set(p, t).contains([0, 0, 0, 1])
    # zero-probability symbol is fatal
    p2 = pk.Pmf([0.5, 0.5, 0.0])
    assert not pk.typical_set(p2, pk.TypicalityParams(4, 1.0)).contains([0, 1, 2, 0])
    with pytest.raises(ValueError):
        pk.typical_set(p, t).contains([0, 1])


def test_is_typical_matches_brute_force_l8():
    p = pk.Pmf([0.5, 0.5])
    t = pk.TypicalityParams(8, 0.25)
    for seq in all_binary_sequences(8):
        ones = sum(seq)
        expect = abs(ones / 8 - 0.5) <= 0.25 * 0.5 and abs((8 - ones) / 8 - 0.5) <= 0.25 * 0.5
        assert pk.typical_set(p, t).contains(seq) == expect


def test_typical_log_size():
    degenerate = pk.Pmf([1.0, 0.0])
    assert pk.typical_log_size(degenerate, pk.TypicalityParams(5, 0.5)) == 0.0
    p = pk.Pmf.uniform(2)
    assert pk.typical_log_size(p, pk.TypicalityParams(4, 1.0)) == pytest.approx(4 * LN2, abs=1e-12)
    # exhaustive l=8 delta=0.25
    t = pk.TypicalityParams(8, 0.25)
    count = sum(1 for seq in all_binary_sequences(8) if pk.typical_set(p, t).contains(seq))
    assert pk.typical_set(p, t).size == count
    assert pk.typical_log_size(p, t) == pytest.approx(math.log(count), abs=1e-12)


def test_typical_log_size_empty_set():
    p = pk.Pmf([0.5, 0.5])
    # l=1 can never hit a 0.5 frequency within 25 percent
    assert pk.typical_log_size(p, pk.TypicalityParams(1, 0.25)) == -math.inf


@pytest.mark.parametrize("probs,l,delta", [
    ((0.5, 0.5), 8, 0.25),
    ((0.7, 0.3), 9, 0.3),
    ((0.25, 0.25, 0.5), 6, 0.6),
])
def test_rank_unrank_round_trip(probs, l, delta):
    p = pk.Pmf(list(probs))
    t = pk.TypicalityParams(l, delta)
    ts = pk.typical_set(p, t)
    n = ts.size
    assert n > 0
    prev = None
    for r in range(n):
        x = ts.unrank(r)
        assert ts.rank(x) == r
        key = tuple(int(v) for v in x)
        if prev is not None:
            assert key > prev  # strictly increasing lexicographic order
        prev = key
    # the first typical sequence has rank 0
    assert ts.rank(ts.unrank(0)) == 0


def test_rank_unrank_errors():
    ts = pk.typical_set(pk.Pmf.uniform(2), pk.TypicalityParams(8, 0.25))
    with pytest.raises(ValueError):
        ts.rank([0] * 8)  # atypical
    with pytest.raises(ValueError):
        ts.unrank(ts.size)
    with pytest.raises(ValueError):
        ts.unrank(-1)
    with pytest.raises(ValueError, match="rows must have length 8"):
        ts.contains_rows(np.zeros((2, 7), dtype=np.int64))
    with pytest.raises(ValueError, match="rows must have length 8"):
        ts.typical_ranks(np.zeros(8, dtype=np.int64))
    with pytest.raises(ValueError, match="ranks must be a 1-D array"):
        ts.unrank_rows(np.zeros((2, 1), dtype=np.int64))


# (probs, l, delta, whether the count table is built); the rows methods
# read digits on a full cube (|T| = k^l), look rows up when k^l <= 2^16 and
# read the count table otherwise
ROWS_CASES = [
    ((0.5, 0.5), 32, 1.0, False),  # the dueck fixture, |T| = 2^32: full cube
    ((0.7, 0.3), 9, 0.3, True),
    ((0.25, 0.25, 0.5), 6, 0.6, True),
    ((0.5, 0.3, 0.2), 12, 0.5, True),
    ((0.5, 0.5, 0.0), 6, 1.0, True),
    ((0.25, 0.25, 0.25, 0.25), 10, 0.8, True),
    ((0.125,) * 8, 8, 1.0, False),  # (l + 2)^k = 10^8 > 2^22
    ((0.5, 0.5), 63, 1.0, False),  # full cube, |T| = 2^63: ranks still fit int64
    ((0.5, 0.5), 70, 1.0, False),  # full cube, |T| = 2^70: exact ints
    # ternary full cube, |T| = 3^12 (at delta = 2 the constant rows sit on the
    # closed boundary and rounding drops them)
    ((1 / 3, 1 / 3, 1 / 3), 12, 2.5, False),
    ((0.7, 0.3), 10, 2.5, False),  # a non-uniform pmf whose typical set is the full cube
    ((0.5, 0.5), 64, 1.0, False),  # full cube, |T| = 2^64: exact ints
    ((0.5, 0.5), 70, 0.5, False),  # not a full cube, |T| > 2^63: the exact-int loop
]


def _check_rows_case(case, ranks, rows):
    """The rows methods against the scalar oracle on one ROWS_CASES entry:
    unrank ``ranks``, rank them back, and test membership of ``rows``."""
    probs, l, delta, table = case
    ts = pk.TypicalSet(pk.Pmf(list(probs)), pk.TypicalityParams(l, delta))
    assert (ts._table is not None) == table
    k, n = len(probs), ts.size
    assert (ts._cube is not None) == (n == k ** l)
    assert (ts._lookup is not None) == (n < k ** l <= 1 << 16)
    x = ts.unrank_rows(np.array(ranks, dtype=ts.rank_dtype))
    assert np.array_equal(x, np.stack([ts.unrank(r) for r in ranks]))
    got = ts.rank_rows(x)
    assert got.dtype == ts.rank_dtype
    assert [int(r) for r in got] == ranks == [ts.rank(row) for row in x]

    rows = np.vstack([rows, x])
    assert ts.contains_rows(rows).tolist() == [ts.contains(row) for row in rows]
    atypical = np.vstack([rows[~ts.contains_rows(rows)], np.full(l, k)])[0]
    with pytest.raises(ValueError):
        ts.rank(atypical)
    with pytest.raises(ValueError):
        ts.rank_rows(np.vstack([x, atypical]))
    for bad in (-1, n):
        with pytest.raises(ValueError):
            ts.unrank_rows(np.array([0, bad], dtype=object))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=st.sampled_from(ROWS_CASES), data=st.data())
def test_rows_methods_equal_the_scalar_path(case, data):
    probs, l = case[0], case[1]
    n = pk.typical_set(pk.Pmf(list(probs)), pk.TypicalityParams(l, case[2])).size
    ranks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    rows = data.draw(hnp.arrays(np.int64, (6, l), elements=st.integers(-1, len(probs))))
    _check_rows_case(case, ranks, rows)


@pytest.mark.parametrize("index", range(len(ROWS_CASES)))
def test_rows_methods_on_every_case(index):
    # sampled_from does not reach every case in 60 examples; this does, at
    # the first and last rank and at random ones
    case = ROWS_CASES[index]
    probs, l = case[0], case[1]
    n = pk.typical_set(pk.Pmf(list(probs)), pk.TypicalityParams(l, case[2])).size
    rng = np.random.default_rng(index)
    ranks = [0, n - 1] + [int(rng.integers(0, n)) if n < 1 << 63 else
                          int.from_bytes(rng.bytes(16), "big") % n for _ in range(6)]
    rows = rng.integers(-1, len(probs) + 1, size=(6, l))
    rows[:2] = rng.integers(0, len(probs), size=(2, l))  # in range, so sometimes typical
    _check_rows_case(case, ranks, rows)


def _count_table_twin(ts):
    """A fresh copy of ts whose rows methods read the count table: its
    cached lookup is set to None before first use."""
    twin = pk.TypicalSet(ts.p, pk.TypicalityParams(ts.l, ts.delta))
    twin.__dict__["_lookup"] = None
    return twin


def _check_every_row(ts, scalar):
    """ts's rows methods on every row of its cube against the count-table
    path (when ts looks rows up) and, at the rows scalar picks, against the
    scalar oracle. Ranks are lexicographic, so T in rank order is the cube's
    typical rows in value order."""
    k, l = len(ts.p), ts.l
    rows = pk.BaseDigits(k, l).digits(np.arange(k ** l))
    typical = ts.contains_rows(rows)
    assert int(typical.sum()) == ts.size
    members = rows[typical]
    ranks = np.arange(ts.size)
    assert np.array_equal(ts.rank_rows(members), ranks)
    assert np.array_equal(ts.unrank_rows(ranks), members)
    rank, flags = ts.typical_ranks(rows)
    assert rank.dtype == ts.rank_dtype
    assert np.array_equal(flags, typical) and np.array_equal(rank[typical], ranks)
    assert not rank[~typical].any()
    if ts._lookup is not None:
        twin = _count_table_twin(ts)
        assert twin._lookup is None and twin._table is not None
        assert np.array_equal(twin.contains_rows(rows), typical)
        assert np.array_equal(twin.rank_rows(members), ranks)
        assert np.array_equal(twin.unrank_rows(ranks), members)
    picked = rows[scalar]
    assert ts.contains_rows(picked).tolist() == [ts.contains(row) for row in picked]
    assert [ts.rank(row) for row in members[:: max(1, ts.size // 64)]] == (
        ranks[:: max(1, ts.size // 64)].tolist())
    assert all(np.array_equal(ts.unrank(int(r)), members[r])
               for r in ranks[:: max(1, ts.size // 64)])


@pytest.mark.parametrize("probs, l, delta", [
    ((0.5, 0.5), 16, 0.75),  # the generic_chain inner code: |T| = 65502 of 2^16
    # the constant rows sit exactly on the closed boundary |1 - 1/3| = 2 * 1/3,
    # and rounding drops them: |T| = 3^9 - 3
    ((1 / 3, 1 / 3, 1 / 3), 9, 2.0),
    ((0.25, 0.25, 0.25, 0.25), 8, 0.8),  # 4^8 = 2^16
])
def test_lookup_agrees_on_every_row_of_the_largest_cubes(probs, l, delta):
    ts = pk.TypicalSet(pk.Pmf(list(probs)), pk.TypicalityParams(l, delta))
    assert ts._lookup is not None
    k = len(probs)
    # every constant row, and random ones
    scalar = np.r_[[s * (k ** l - 1) // (k - 1) for s in range(k)],
                   np.random.default_rng(l).integers(0, k ** l, 200)]
    _check_every_row(ts, scalar)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(weights=st.sampled_from([2, 3, 4]).flatmap(
           lambda k: st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any)),
       data=st.data())
def test_lookup_agrees_on_every_row_of_small_cubes(weights, data):
    k = len(weights)
    l = data.draw(st.integers(1, {2: 9, 3: 6, 4: 4}[k]))
    delta = data.draw(st.sampled_from([0.1, 0.3, 0.5, 0.75, 1.0, 2.0]))
    ts = pk.TypicalSet(pk.Pmf(np.array(weights) / sum(weights)), pk.TypicalityParams(l, delta))
    assert (ts._cube is not None) or (ts._lookup is not None)
    _check_every_row(ts, np.arange(k ** l))


def test_lookup_tables_fit_in_a_mebibyte():
    ts = pk.TypicalSet(pk.Pmf.uniform(2), pk.TypicalityParams(16, 0.75))
    digits, position, value_of = ts._lookup
    # 16 bits hold every position 0..65502 and every value 0..2^16 - 1
    assert position.dtype == value_of.dtype == np.uint16
    assert position.nbytes + value_of.nbytes + digits.powers.nbytes <= 1 << 20
    assert ts.rank_rows(np.zeros((1, 16), dtype=np.int64) + [1, 0] * 8).dtype == ts.rank_dtype


@pytest.mark.parametrize("l", [62, 63, 64])
def test_full_cube_words_and_ranks_share_the_int64_rule(l):
    # a^l = 2^l: int64 up to 2^63 inclusive, where the top value 2^63 - 1
    # still fits, and exact Python ints beyond
    cube = FullCubeCode(2, l)
    ts = pk.TypicalSet(pk.Pmf.uniform(2), pk.TypicalityParams(l, 1.0))
    top = np.ones((1, l), dtype=np.int64)
    idx = cube.indices(top)
    assert idx.dtype == ts.rank_dtype == ts.rank_rows(top).dtype == ts._cube.dtype
    assert (idx.dtype == np.int64) == (l <= 63)
    assert int(idx[0]) == 2 ** l - 1 == int(ts.rank_rows(top)[0]) == ts.rank(top[0])
    assert np.array_equal(cube.words(idx), top)
    assert np.array_equal(ts.unrank_rows(idx), top)


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------

def test_entropy_range_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        p = pk.Pmf(rng.dirichlet(np.ones(n)))
        h = pk.entropy(p)
        assert -1e-12 <= h <= math.log(n) + 1e-12


def test_conditional_entropy_vs_marginal_random():
    rng = np.random.default_rng(12)
    for _ in range(50):
        nr, nc = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        j = pk.JointPmf(rng.dirichlet(np.ones(nr * nc)).reshape(nr, nc))
        h_cond = pk.conditional_entropy(j)
        h_col = pk.entropy(j.col_marginal())
        assert h_cond <= h_col + 1e-9
    # equality iff product pmf
    pr, pc = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4))
    prod = pk.JointPmf(np.outer(pr, pc))
    assert pk.conditional_entropy(prod) == pytest.approx(pk.entropy(prod.col_marginal()), abs=1e-9)


def test_mutual_information_nonnegative_random():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n_in, n_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        w = pk.Dmc(rng.dirichlet(np.ones(n_out), size=n_in))
        p = pk.Pmf(rng.dirichlet(np.ones(n_in)))
        assert pk.mutual_information(p, w) >= -1e-12


def test_push_joint():
    j = pk.JointPmf([[0.1, 0.2], [0.3, 0.4]])
    merged = pk.push_joint(j, [0, 0], None, 1, None)
    assert merged.probs.shape == (1, 2)
    assert merged.probs[0, 0] == pytest.approx(0.4)
    assert merged.probs[0, 1] == pytest.approx(0.6)
    with pytest.raises(ValueError, match="map length does not match joint pmf shape"):
        pk.push_joint(j, [0, 0, 1], None)
