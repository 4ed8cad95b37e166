import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fblic import codec as cd
from fblic import probkit as pk
from helpers import (cross_ic, decode_one, digest_words, hamming_ball_rows, ml_decode_oracle,
                     prefix_flip_rows, row_outer_decode)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# inner code
# ---------------------------------------------------------------------------

def test_inner_code_degenerate_source():
    p = pk.Pmf([1.0, 0.0])
    code = cd.InnerCode(p, 5, 0.5)
    assert code.typical.size == 1
    assert code.total_bits == 0 and code.lb_bits == 0
    enc = code.encode_rows([[0, 0, 0, 0, 0]])
    assert enc.index[0] == 0 and not enc.atypical[0]


def test_inner_code_refusals():
    # at l = 3 no count of either symbol lies within 5% of 1.5
    with pytest.raises(ValueError, match="the typical set is empty"):
        cd.InnerCode(pk.Pmf.uniform(2), 3, 0.1)
    # exact inversion reads cube indices, which a sampled codebook has not
    book = cd.sample_constant_composition((2, 2), 4, seed=0, n_codewords=4)
    with pytest.raises(TypeError, match="needs the full-cube codebook"):
        cd.InnerCode(pk.Pmf.uniform(2), 4, 1.0, book).decode_exact_rows([[0, 1, 1, 0]])
    # 21 address bits would score 2^21 codewords
    wide = cd.InnerCode(pk.Pmf.uniform(2), 21, 1.0)
    assert wide.la_bits == 21
    with pytest.raises(ValueError, match="more than 2\\^20 codewords"):
        wide.decode_ml_rows(np.zeros((1, 21), dtype=np.int64), pk.Dmc.identity(2))
    # the typical set is counted one recursion level per symbol
    with pytest.raises(ValueError, match="inner code of block length 100000"):
        cd.InnerCode(pk.Pmf.uniform(2), 100_000, 0.5, cd.FullCubeCode(2, 100_000))


def test_inner_code_split_consistent_with_enumeration():
    p = pk.Pmf.uniform(2)
    code = cd.InnerCode(p, 8, 0.25)
    n = code.typical.size
    assert code.total_bits == (n - 1).bit_length()
    assert code.la_bits + code.lb_bits >= math.ceil(math.log2(n))


def test_reconstruct_rows_beyond_the_typical_set_are_zero():
    # |T| = 182 is not a power of two, so the 8-bit (index, residual) pairs
    # from 182 to 255 name no typical row: an inner decode that errs to a top
    # address can land there, and those rows come back all zero
    code = cd.InnerCode(pk.Pmf.uniform(2), 8, 0.25, max_la_bits=3)
    size = code.typical.size
    assert size == 182 and (code.la_bits, code.lb_bits) == (3, 5)
    ranks = np.array([0, size, 181, 255, 100, size + 1])
    rows = code.reconstruct_rows(ranks >> code.lb_bits, ranks & ((1 << code.lb_bits) - 1))
    beyond = ranks >= size
    assert rows.shape == (6, 8)
    assert not rows[beyond].any()
    assert np.array_equal(rows[~beyond], code.typical.unrank_rows(ranks[~beyond]))


def test_full_cube_convention():
    # the worked example uses every word over the channel alphabet, with
    # floor(log2 a^l) bits addressing them
    p = pk.Pmf([0.5, 0.25, 0.25])
    code = cd.InnerCode(p, 4, 2.0, codebook=cd.FullCubeCode(3, 4))
    assert code.la_bits == min(math.floor(4 * math.log2(3)), code.total_bits)
    assert code.codebook.size == 81
    # the address cap is a bit count: a huge one is no cap, a negative one
    # is refused
    huge = cd.InnerCode(p, 4, 2.0, codebook=cd.FullCubeCode(3, 4), max_la_bits=10 ** 12)
    assert (huge.la_bits, huge.lb_bits) == (code.la_bits, code.lb_bits)
    with pytest.raises(ValueError, match="max_la_bits must be non-negative"):
        cd.InnerCode(p, 4, 2.0, max_la_bits=-1)
    cube = cd.FullCubeCode(3, 4)
    assert cube.index_of(cube.codeword(80)) == 80
    for a, l in ((1, 4), (3, 0)):
        with pytest.raises(ValueError, match="need alphabet >= 2 and l >= 1"):
            cd.FullCubeCode(a, l)
    for idx in (-1, 81):
        with pytest.raises(IndexError, match="codeword index out of range"):
            cube.codeword(idx)
    for word in ([0, 1, 2], [0, 1, 2, 3], [0, -1, 0, 0]):
        with pytest.raises(ValueError, match="word outside the cube"):
            cube.index_of(word)
    for words in ([[0, 1, 2]], [[0, 1, 2, 3]], [0, 1, 2, 0]):
        with pytest.raises(ValueError, match="word outside the cube"):
            cube.indices(words)


def test_encode_roundtrip_and_atypical_fallback():
    p = pk.Pmf.uniform(2)
    code = cd.InnerCode(p, 8, 0.25)
    blk = np.array([0, 1, 1, 0, 1, 0, 0, 1])
    bad = np.zeros(8, dtype=int)
    enc = code.encode_rows([blk, bad])
    assert not enc.atypical[0]
    rec = code.reconstruct_rows(enc.index[:1], enc.residual[:1])
    assert np.array_equal(rec[0], blk)
    assert enc.atypical[1] and enc.index[1] == 0 and enc.residual[1] == 0
    assert np.array_equal(enc.codewords[1], code.codebook.codeword(0))


def test_conditional_coding_agreement_exhaustive():
    # two independently built encoders agree bit for bit on every typical block
    p = pk.Pmf.uniform(2)
    enc1 = cd.InnerCode(p, 6, 0.4)
    enc2 = cd.InnerCode(p, 6, 0.4)
    blks = np.array(list(itertools.product((0, 1), repeat=6)))
    blks = blks[enc1.typical.contains_rows(blks)]
    r1, r2 = enc1.encode_rows(blks), enc2.encode_rows(blks)
    assert np.array_equal(r1.index, r2.index)
    assert np.array_equal(r1.residual, r2.residual)
    assert np.array_equal(r1.codewords, r2.codewords)


def test_decode_exact_agreement_and_disagreement():
    from fblic import dueck as dk
    p = pk.Pmf.uniform(2)
    code = cd.InnerCode(p, 8, 1.0, max_la_bits=4,
                        codebook=cd.FullCubeCode(2, 8))
    blk1 = np.array([1, 0, 1, 0, 1, 0, 0, 1])
    blk2 = np.array([1, 0, 1, 0, 1, 0, 1, 1])  # differs in a residual position
    blk3 = np.array([0, 0, 1, 0, 1, 0, 0, 1])  # differs in an address position
    enc = code.encode_rows([blk1, blk2, blk3])
    e1, e2, e3 = enc.codewords
    # agreement: exact inversion recovers the index
    y = np.where(e1 == e2, e1, 0)
    # disagreement on a codeword digit zeroes that output position
    y2 = np.where(e1 == e3, e1, 0)
    assert (y2 != e1).any()
    index, fallback = code.decode_exact_rows([y, y2])
    assert index[0] == enc.index[0] and not fallback[0]
    assert index[1] == cd.FullCubeCode(2, 8).index_of(y2)
    # the example's channel law produces exactly this masking
    w = dk.shared_channel(2)
    lawful = np.array([int(np.argmax(w.rows[u1 * 2 + u2]))
                       for u1, u2 in zip(e1, e3)])
    assert np.array_equal(lawful, y2)


def test_decode_exact_out_of_range_falls_back():
    p = pk.Pmf.uniform(2)
    code = cd.InnerCode(p, 4, 1.0, max_la_bits=2,
                        codebook=cd.FullCubeCode(2, 4))
    # a word whose cube index exceeds the addressable range
    index, fallback = code.decode_exact_rows(np.array([[1, 1, 1, 1]]))
    assert fallback[0] and index[0] == 0


def test_rows_beyond_int64_use_exact_ints():
    # a^l = 2^64 cube indices and |T| = 2^64 ranks do not fit int64
    cube = cd.FullCubeCode(2, 64)
    code = cd.InnerCode(pk.Pmf.uniform(2), 64, 1.0, max_la_bits=40, codebook=cube)
    assert code.la_bits == 40 and code.lb_bits == 24
    rng = np.random.default_rng(5)
    words = rng.integers(0, 2, size=(6, 64))
    words[0] = 1  # index 2^64 - 1
    words[1, :24] = 0  # index below 2^40
    words[2] = 0
    index, fallback = code.decode_exact_rows(words)
    for w, i, f in zip(words, index, fallback):
        exact = cube.index_of(w)
        assert f == (exact >= 1 << 40)
        assert i == (0 if f else exact)
    assert not fallback[1] and not fallback[2] and fallback[0]
    assert np.array_equal(cube.words(cube.indices(words)), words)
    enc = code.encode_rows(words)
    assert np.array_equal(code.reconstruct_rows(enc.index, enc.residual), words)
    assert [int(i) for i in enc.index] == [cube.index_of(w) >> 24 for w in words]


@pytest.mark.parametrize("l", [32, 63, 64])
def test_inner_round_trip_at_the_int64_edge(l):
    # the binary full cube reads digits; a^l = 2^63 is the last int64 size
    cube = cd.FullCubeCode(2, l)
    code = cd.InnerCode(pk.Pmf.uniform(2), l, 1.0, max_la_bits=l // 2, codebook=cube)
    assert code.typical.size == 2 ** l
    rng = np.random.default_rng(l)
    x = rng.integers(0, 2, size=(8, l))
    x[0], x[1] = 1, 0  # the last and the first rank
    x[2, l - 1] = 2  # out-of-range symbols make a row atypical
    x[3, 0] = -1
    enc = code.encode_rows(x)
    assert enc.index.dtype == enc.residual.dtype == code.typical.rank_dtype
    assert (enc.index.dtype == np.int64) == (l <= 63)
    assert enc.atypical.tolist() == [False, False, True, True] + [False] * 4
    assert [int(v) for v in enc.index[2:4]] == [int(v) for v in enc.residual[2:4]] == [0, 0]
    assert not enc.codewords[2:4].any()
    ok = ~enc.atypical
    assert np.array_equal(code.reconstruct_rows(enc.index, enc.residual)[ok], x[ok])
    for row, index, residual in zip(x[ok], enc.index[ok], enc.residual[ok]):
        rank = code.typical.rank(row)
        assert int(index) == rank >> code.lb_bits
        assert int(residual) == rank & ((1 << code.lb_bits) - 1)
        assert np.array_equal(cube.words(np.array([index]))[0], cube.codeword(int(index)))


def test_decode_ml_matches_brute_force():
    rng = np.random.default_rng(3)
    p_u = pk.Pmf.uniform(2)
    comp = (3, 3)
    book = cd.sample_constant_composition(comp, 6, seed=1, n_codewords=12)
    code = cd.InnerCode(p_u, 6, 1.0, book)
    chan = pk.Dmc([[0.8, 0.2], [0.3, 0.7]])
    ys = rng.integers(0, 2, size=(40, 6))
    got = code.decode_ml_rows(ys, chan)
    # equal joint types score bit for bit the same, so ties go to the
    # lowest index exactly, as in the joint-type oracle
    assert got.tolist() == ml_decode_oracle(book.codewords[: 1 << code.la_bits], ys, chan)
    for y, index in zip(ys, got):
        scores = []
        for i in range(1 << code.la_bits):
            w = book.codewords[i]
            scores.append(math.prod(chan.rows[int(w[t]), int(y[t])] for t in range(6)))
        assert scores[index] == pytest.approx(max(scores), rel=1e-9)


def test_decode_ml_tie_breaks_to_lowest_index():
    p_u = pk.Pmf.uniform(2)
    words = np.array([[0, 1], [1, 0]])
    book = cd.ConstantCompositionCode(composition=(1, 1), codewords=words)
    code = cd.InnerCode(p_u, 2, 1.0, book)
    # symmetric channel and a symmetric observation tie both codewords
    chan = pk.Dmc([[0.5, 0.5], [0.5, 0.5]])
    assert code.decode_ml_rows(np.array([[0, 0]]), chan)[0] == 0


@st.composite
def _permuted_books(draw):
    """A channel over alphabets of 2-4 symbols with zero-probability
    transitions, words that permute one composition, and received rows."""
    nx, ny, l = draw(st.integers(2, 4)), draw(st.integers(2, 4)), draw(st.integers(2, 8))
    weights = draw(hnp.arrays(np.int64, (nx, ny), elements=st.integers(0, 3)))
    weights[weights.sum(axis=1) == 0, 0] = 1
    base = draw(hnp.arrays(np.int64, l, elements=st.integers(0, nx - 1)))
    words = np.array(draw(st.lists(st.permutations(base.tolist()), min_size=1, max_size=8)))
    y = draw(hnp.arrays(np.int64, (draw(st.integers(1, 6)), l), elements=st.integers(0, ny - 1)))
    return pk.Dmc(weights / weights.sum(axis=1, keepdims=True)), words, y


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_permuted_books())
def test_ml_decode_is_the_joint_type_argmax(case):
    # the generic chain decodes through InnerCode.decode_ml_rows, the
    # cc-exponent ensemble through codec.ml_decode over the whole book;
    # both give the oracle's exact decision, equal joint types included
    chan, words, y = case
    nx = chan.rows.shape[0]
    assert cd.ml_decode(words, y, chan).tolist() == ml_decode_oracle(words, y, chan)
    book = cd.ConstantCompositionCode(composition=tuple(np.bincount(words[0], minlength=nx)),
                                      codewords=words)
    code = cd.InnerCode(pk.Pmf.uniform(nx), words.shape[1], 1.0, book)
    assert code.decode_ml_rows(y, chan).tolist() == ml_decode_oracle(
        words[: 1 << code.la_bits], y, chan)


def test_ml_decode_zero_probability_transition_loses():
    # 0 -> 1 is impossible; 1 -> either output has probability 1/2
    chan = pk.Dmc([[1.0, 0.0], [0.5, 0.5]])
    l = 40
    words = np.array([[0] * l, [1] * l, [0] + [1] * (l - 1)])
    y = np.array([[1] + [0] * (l - 1), [0] * l, [1] * l])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cd.ml_decode(words, y, chan)
    # one impossible transition loses against 2^-40; all-0 reads keep word 0
    assert got.tolist() == [1, 0, 1]
    # a symbol off either alphabet would count toward no joint type
    for bad_words, bad_y in ((words + 1, y), (words, y - 1)):
        with pytest.raises(ValueError, match="outside the channel"):
            cd.ml_decode(bad_words, bad_y, chan)


# ---------------------------------------------------------------------------
# constant composition sampling
# ---------------------------------------------------------------------------

def test_constant_composition_degenerate():
    book = cd.sample_constant_composition((4, 0), 4, seed=0, n_codewords=1)
    assert np.array_equal(book.codewords, np.zeros((1, 4), dtype=int))


def test_constant_composition_types_exact():
    book = cd.sample_constant_composition((2, 3, 1), 6, seed=7, n_codewords=50)
    for word in book.codewords:
        assert tuple(np.bincount(word, minlength=3)) == (2, 3, 1)
    with pytest.raises(ValueError, match="a codeword deviates from the composition"):
        cd.ConstantCompositionCode((2, 3, 1), np.vstack([book.codewords[:2], [[0] * 6]]))
    with pytest.raises(ValueError, match="composition must sum to the block length"):
        cd.sample_constant_composition((2, 3, 1), 7, seed=7, n_codewords=5)


@pytest.mark.parametrize("words, l, comp", [
    ((1 << 20) + 1, 16, (4, 4, 4, 4)),
    # ~1e6 words of length 2000: 15 GiB of codewords
    (984_609, 2000, (1000, 1000)),
])
def test_constant_composition_refuses_more_than_2_24_symbols(monkeypatch, words, l, comp):
    # the cap is on words x l, checked before anything is drawn
    class Drawn(Exception):
        pass

    def draw(*args, **kw):
        raise Drawn

    monkeypatch.setattr(cd.np.random, "default_rng", draw)
    with pytest.raises(ValueError, match=f"refusing to draw {words} codewords of length {l}: "
                                         f"{words * l} symbols, more than 2\\^24"):
        cd.sample_constant_composition(comp, l, seed=0, n_codewords=words)
    # a book of exactly 2^24 symbols passes the cap and reaches the draw
    with pytest.raises(Drawn):
        cd.sample_constant_composition(comp, l, seed=0, n_codewords=(1 << 24) // l)


def test_constant_composition_deterministic_and_bounded():
    b1 = cd.sample_constant_composition((4, 4), 8, seed=3, n_codewords=54)
    b2 = cd.sample_constant_composition((4, 4), 8, seed=3, n_codewords=54)
    assert np.array_equal(b1.codewords, b2.codewords)
    with pytest.raises(ValueError):
        cd.sample_constant_composition((2, 2), 4, seed=0, n_codewords=100)


def test_type_class_size_capped_from_logs():
    assert cd.type_class_size((2, 3, 1)) == 60 == math.factorial(6) // (2 * 6)
    assert cd.type_class_size((4, 0)) == 1
    cap = 1 << 20
    # a class near or below the cap is sized exactly
    assert cd.type_class_size((2, 3, 1), cap=cap) == 60
    assert cd.type_class_size((999_999, 1), cap=cap) == 1_000_000
    assert cd.type_class_size((10**6, 0), cap=cap) == 1
    assert cd.type_class_size((10, 10), cap=184_756) == 184_756 == math.comb(20, 10)
    assert cd.type_class_size((10, 10), cap=184_000) == 184_000
    # ~10^301029 sequences: the lgamma log decides, with no exact arithmetic
    assert cd.type_class_size((500_000, 500_000), cap=cap) == cap


def test_constant_composition_position_frequencies():
    # across many sampled codewords each position follows composition/l
    book = cd.sample_constant_composition((12, 4), 16, seed=5, n_codewords=1500)
    freq1 = (book.codewords == 1).mean(axis=0)
    sigma = math.sqrt(0.25 * 0.75 / 1500)
    assert np.all(np.abs(freq1 - 0.25) <= 4 * sigma)


# ---------------------------------------------------------------------------
# permutations and interleaving
# ---------------------------------------------------------------------------

def keyed_permutations(m, l, seed):
    return cd.draw_permutations(np.random.default_rng(seed).random((m, l)))


def test_permutations_basics():
    perm = keyed_permutations(5, 1, seed=0)
    assert np.array_equal(perm.rows, np.zeros((5, 1), dtype=int))
    perm2 = keyed_permutations(50, 7, seed=1)
    for row in perm2.rows:
        assert sorted(row.tolist()) == list(range(7))
    assert np.array_equal(keyed_permutations(50, 7, seed=1).rows, perm2.rows)


def test_interleave_refuses_a_shape_mismatch():
    perm = keyed_permutations(3, 4, seed=2)
    for shape in ((3, 5), (2, 4), (12,)):
        for step in (cd.interleave, cd.deinterleave):
            with pytest.raises(ValueError, match="matrix and permutation shapes disagree"):
                step(np.zeros(shape, dtype=np.int64), perm)


def test_permutation_ties_keep_index_order():
    keys = np.array([[0.5, 0.5, 0.5, 0.5], [0.7, 0.2, 0.7, 0.2], [0.3, 0.1, 0.3, 0.9]])
    assert cd.draw_permutations(keys).rows.tolist() == [
        [0, 1, 2, 3], [1, 3, 0, 2], [1, 0, 2, 3]]


def test_permutation_set_names_the_first_bad_row():
    rows = np.tile(np.arange(5), (4, 1))
    rows[2, 0] = 1
    rows[3, 4] = 0
    with pytest.raises(ValueError, match="row 2 is not a permutation"):
        cd.PermutationSet(rows=rows)


def test_permutation_uniformity_chi_square():
    from scipy import stats as sstats
    n = 100_000
    perm = keyed_permutations(n, 3, seed=9)
    codes = perm.rows[:, 0] * 9 + perm.rows[:, 1] * 3 + perm.rows[:, 2]
    _, counts = np.unique(codes, return_counts=True)
    assert counts.shape[0] == 6
    stat = float(((counts - n / 6) ** 2 / (n / 6)).sum())
    p_value = float(sstats.chi2.sf(stat, 5))
    assert p_value > 0.01


def test_permutation_rows_independent_chi_square():
    # every row comes from one key array: the first entries of rows t and
    # t + 1 (disjoint pairs) must be independent
    from scipy import stats as sstats
    first = keyed_permutations(100_000, 2, seed=9).rows[:, 0]
    table = np.zeros((2, 2), dtype=np.int64)
    np.add.at(table, (first[0::2], first[1::2]), 1)
    assert float(sstats.chi2_contingency(table).pvalue) > 0.01


def test_permutations_differ_across_seeds():
    sets = [keyed_permutations(64, 16, seed).rows.tobytes() for seed in range(50)]
    assert len(set(sets)) == len(sets)
    assert not np.array_equal(keyed_permutations(64, 16, 1).rows[0],
                              keyed_permutations(64, 16, 1).rows[1])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(m=st.integers(1, 6), l=st.integers(1, 12), alphabet=st.integers(2, 300),
       seed=st.integers(0, 2 ** 32 - 1))
def test_interleave_identity_and_roundtrip(m, l, alphabet, seed):
    mat = np.random.default_rng(seed).integers(0, alphabet, size=(m, l))
    ident = cd.PermutationSet(rows=np.tile(np.arange(l), (m, 1)))
    assert np.array_equal(cd.interleave(mat, ident), mat)
    perm = keyed_permutations(m, l, seed)
    assert np.array_equal(cd.deinterleave(cd.interleave(mat, perm), perm), mat)


# keys with ties: repeated values, -0.0 == 0.0 and NaN, which sorts last
TIED_KEYS = st.sampled_from([0.0, -0.0, 0.25, 0.5, math.nan]) | st.floats(0.0, 1.0, exclude_max=True)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(keys=hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 12)),
                       elements=TIED_KEYS),
       seed=st.integers(0, 2 ** 32 - 1))
@example(keys=np.full((3, 5), 0.5), seed=0)  # all-equal rows: the identity
@example(keys=np.random.default_rng(3).random((64, 16)), seed=3)  # no tie
def test_draw_permutations_is_the_stable_argsort(keys, seed):
    perm = cd.draw_permutations(keys)
    assert np.array_equal(perm.rows, np.argsort(keys, axis=1, kind="stable"))
    mat = np.random.default_rng(seed).integers(0, 300, size=keys.shape)
    assert np.array_equal(cd.deinterleave(cd.interleave(mat, perm), perm), mat)
    assert np.array_equal(cd.interleave(cd.deinterleave(mat, perm), perm), mat)


# ---------------------------------------------------------------------------
# hashing and the outer code
# ---------------------------------------------------------------------------

def test_digest_length_matches_rate():
    # the digest is exactly as wide as the bit budget of r nats per row,
    # ceil(r m / log 2) bits in whole words whose spare bits are zero, and a
    # zero budget gives the empty digest
    mat = np.random.default_rng(2).integers(0, 2, size=(8, 4))
    for rate_nats in (0.0, 0.5, 1.37, 9.01, 25.0):
        bits = math.ceil(rate_nats * 8 / LN2 - 1e-12)
        out = _digest_words(cd.MatrixHasher(bits, 1, 2, 4, 8), mat)
        assert out.dtype == np.uint64 and out.shape == (-(-bits // 64),)
        assert int.from_bytes(out.astype("<u8").tobytes(), "little") < 2 ** bits


def test_equal_matrices_equal_digests():
    h = cd.MatrixHasher(96, seed=4, alphabet_size=3, l=5, m=6)
    rng = np.random.default_rng(0)
    mat = rng.integers(0, 3, size=(6, 5))
    assert np.array_equal(_digest_words(h, mat), _digest_words(h, mat.copy()))
    other = mat.copy()
    other[0, 0] = (other[0, 0] + 1) % 3
    assert not np.array_equal(_digest_words(h, other), _digest_words(h, mat))
    # a different seed gives a different map
    h2 = cd.MatrixHasher(96, seed=5, alphabet_size=3, l=5, m=6)
    assert not np.array_equal(_digest_words(h2, mat), _digest_words(h, mat))


def test_outer_encode_digest_uses_the_code_alphabet():
    # a ternary source matrix that never uses symbol 2 is still hashed as
    # ternary, so the decoder's hasher verifies it
    code = cd.InnerCode(pk.Pmf([0.5, 0.3, 0.2]), 4, 2.0)
    mat = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [0, 0, 1, 1]])
    enc = code.encode_rows(mat)
    khat = code.reconstruct_rows(enc.index, enc.residual)
    assert np.array_equal(khat, mat)
    hasher = cd.MatrixHasher(64, 5, code.p_k1.alphabet_size, 4, 3)
    assert not np.array_equal(_digest_words(hasher, mat),
                              _digest_words(cd.MatrixHasher(64, 5, 2, 4, 3), mat))
    res = decode_one(cd.OuterDecoder(hasher, cd.hamming_ball_rule(radius=1), 0), khat,
                     _syndrome(hasher, mat, khat))
    assert res.status == "ok" and np.array_equal(res.matrix, mat)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 200), st.integers(0, 2 ** 32),
       st.data())
def test_digest_is_linear_over_gf2(m, l, bits, seed, data):
    h = cd.MatrixHasher(bits, seed, 2, l, m)
    shape = (m, l)
    a = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 1)))
    b = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 1)))
    assert np.array_equal(_digest_words(h, a) ^ _digest_words(h, b), _digest_words(h, a ^ b))
    assert not _digest_words(h, np.zeros(shape, dtype=np.int64)).any()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(1, 4), st.integers(1, 4), st.integers(1, 130),
       st.integers(0, 2 ** 32), st.data())
def test_digest_symbol_change_shift_is_context_free(a, m, l, bits, seed, data):
    h = cd.MatrixHasher(bits, seed, a, l, m)
    t = data.draw(st.integers(0, m - 1))
    i = data.draw(st.integers(0, l - 1))
    old, new = data.draw(st.lists(st.integers(0, a - 1), min_size=2, max_size=2, unique=True))
    shifts = set()
    for _ in range(2):
        mat = data.draw(hnp.arrays(np.int64, (m, l), elements=st.integers(0, a - 1)))
        mat[t, i] = old
        before = _digest_words(h, mat)
        mat[t, i] = new
        shifts.add((before ^ _digest_words(h, mat)).tobytes())
    assert len(shifts) == 1


def test_digest_collision_rate_is_two_to_minus_b():
    # one fixed distinct pair over 4096 independent maps of b = 4 bits
    rng = np.random.default_rng(17)
    x = rng.integers(0, 3, size=(3, 5))
    y = x.copy()
    y[1, 2] = (y[1, 2] + 1) % 3
    y[2, 4] = (y[2, 4] + 2) % 3
    n, p = 4096, 2.0 ** -4
    hashers = (cd.MatrixHasher(4, s, 3, 5, 3) for s in range(n))
    hits = sum((h.syndromes(x[None], y[None]) == 0).all() for h in hashers)
    assert abs(hits - n * p) <= 3 * math.sqrt(n * p * (1 - p))


def _syndrome(h, sent, khat):
    """The outer decoder's input for one matrix, by the block kernel."""
    return h.syndromes(np.asarray(sent)[None], np.asarray(khat)[None])[0]


def _digest_words(h, mat):
    """digest_words(h, mat), checked against H . bits(mat) summed column by
    column: symbol i owns bits i * sym_bits.., low bit first."""
    loop = np.zeros(h.words, dtype=np.uint64)
    for i, symbol in enumerate(mat.reshape(-1).tolist()):
        for b in range(h.sym_bits):
            if symbol >> b & 1:
                loop ^= h._cols[i * h.sym_bits + b]
    assert np.array_equal(digest_words(h, mat), loop)
    return loop


@settings(derandomize=True, max_examples=80, deadline=None)
@given(alphabet=st.integers(2, 5), bits=st.sampled_from([0, 1, 63, 64, 65, 130]),
       m=st.integers(1, 4), l=st.integers(1, 5),
       differs=st.lists(st.booleans(), min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
@example(alphabet=3, bits=130, m=3, l=4, differs=[False, False, False], seed=1)
@example(alphabet=5, bits=65, m=4, l=5, differs=[True, True, True, True], seed=2)
@example(alphabet=3, bits=63, m=2, l=3, differs=[False, True, False, True], seed=3)
def test_syndromes_are_the_xor_of_two_digests(alphabet, bits, m, l, differs, seed):
    # one block-wide kernel over the bits where the stacks differ, word for
    # word equal to digest(sent[t]) ^ digest(base[t]); at alphabets 3 and 5
    # a ^ b can exceed a - 1. Trials marked False agree and get 0
    rng = np.random.default_rng(seed)
    h = cd.MatrixHasher(bits, seed, alphabet, l, m)
    sent = rng.integers(0, alphabet, size=(len(differs), m, l))
    base = sent.copy()
    for t in np.flatnonzero(differs):
        cells = rng.random((m, l)) < 0.5
        cells.flat[rng.integers(0, m * l)] = True
        base[t][cells] = (base[t][cells] + rng.integers(1, alphabet, size=cells.sum())) % alphabet
    out = h.syndromes(sent, base)
    assert out.dtype == np.uint64 and out.shape == (len(differs), h.words)
    for t in range(len(differs)):
        assert np.array_equal(out[t], _digest_words(h, sent[t]) ^ _digest_words(h, base[t]))
        if not differs[t]:
            assert not out[t].any()


def test_syndromes_refuse_bad_stacks():
    h = cd.MatrixHasher(70, seed=1, alphabet_size=3, l=4, m=2)
    good = np.zeros((3, 2, 4), dtype=np.int64)
    for bad_symbol in (3, -1):
        bad = good.copy()
        bad[2, 1, 3] = bad_symbol
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="outside the hasher's alphabet"):
                h.syndromes(*pair)
    with pytest.raises(ValueError, match="stacks' shapes disagree"):
        h.syndromes(good, good[:2])
    for shape in ((3, 4, 2), (2, 4), (1, 3, 2, 4)):
        with pytest.raises(ValueError, match="shape disagrees with the hasher"):
            h.syndromes(np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64))


@pytest.mark.parametrize("bits, alphabet, l, m, refused", [
    # 2^20 64-bit words of H are drawn, one word more is refused
    (64 * 1024, 2, 32, 32, False),
    (64 * 1024 + 1, 2, 32, 32, True),
    # sym_bits = 2 doubles the columns: 2048 columns of 512 words
    (64 * 512, 3, 32, 32, False),
    (64 * 512 + 1, 4, 32, 32, True),
    # --hash-bits 16777216 on the dueck_chain fixture: 4 GiB
    (1 << 24, 2, 32, 64, True),
])
def test_matrix_hasher_refuses_an_oversized_h_before_drawing_it(monkeypatch, bits, alphabet,
                                                                l, m, refused):
    class Drawn(Exception):
        pass

    def draw(*args, **kw):
        raise Drawn

    monkeypatch.setattr(np.random, "default_rng", draw)
    if refused:
        with pytest.raises(ValueError, match=r"digest matrix of \d+ 64-bit words: more than 2\^20"):
            cd.MatrixHasher(bits, 1, alphabet, l, m)
    else:
        with pytest.raises(Drawn):
            cd.MatrixHasher(bits, 1, alphabet, l, m)


@pytest.mark.parametrize("bits", [1, 63, 64, 65, 100, 128])
def test_outer_decode_refuses_a_bad_syndrome(bits):
    # the syndrome must have the hasher's word count and no bit at or above
    # its width
    h = cd.MatrixHasher(bits, seed=3, alphabet_size=2, l=4, m=3)
    khat = np.zeros((3, 4), dtype=np.int64)
    side = cd.hamming_ball_rule(radius=1)
    for words in (h.words - 1, h.words + 1):
        with pytest.raises(ValueError, match="syndrome width disagrees"):
            decode_one(cd.OuterDecoder(h, side, 1), khat, np.zeros(words, dtype=np.uint64))
    # one syndrome per trial of the stack
    with pytest.raises(ValueError, match="syndrome width disagrees"):
        cd.OuterDecoder(h, side, 1).decode(khat[None], np.zeros((2, h.words), dtype=np.uint64))
    # the spare bits of the last word, if the width leaves any
    for bit in sorted({bits, 64 * h.words - 1} & set(range(bits, 64 * h.words))):
        need = np.zeros(h.words, dtype=np.uint64)
        need[bit // 64] = np.uint64(1 << (bit % 64))
        for e_max in (0, 2):
            with pytest.raises(ValueError, match="exceeds the digest width"):
                decode_one(cd.OuterDecoder(h, side, e_max), khat, need)
    # the highest bit inside the width is a valid syndrome
    need = np.zeros(h.words, dtype=np.uint64)
    need[(bits - 1) // 64] = np.uint64(1 << ((bits - 1) % 64))
    assert decode_one(cd.OuterDecoder(h, side, 0), khat, need).status == "failed"


def test_outer_decode_refuses_a_bad_baseline():
    h = cd.MatrixHasher(64, seed=3, alphabet_size=3, l=4, m=3)
    side = cd.hamming_ball_rule(radius=1)
    need = np.zeros(1, dtype=np.uint64)
    with pytest.raises(ValueError, match="shape disagrees with the hasher"):
        decode_one(cd.OuterDecoder(h, side, 1), np.zeros((4, 3), dtype=np.int64), need)
    for bad_symbol in (3, -1):
        khat = np.zeros((3, 4), dtype=np.int64)
        khat[1, 2] = bad_symbol
        with pytest.raises(ValueError, match="outside the hasher's alphabet"):
            decode_one(cd.OuterDecoder(h, side, 1), khat, need)
    # accepted matrices are written into the stack, so it must be an int64 array
    for stack in (np.zeros((1, 3, 4), dtype=np.int32), np.zeros((1, 3, 4)).tolist()):
        with pytest.raises(TypeError, match="int64 array"):
            cd.OuterDecoder(h, side, 1).decode(stack, need[None])
    with pytest.raises(ValueError, match="e_max must be non-negative"):
        cd.OuterDecoder(h, side, -1)


def test_outer_decode_clean_matrix():
    rng = np.random.default_rng(1)
    truth = rng.integers(0, 2, size=(5, 6))
    h = cd.MatrixHasher(80, seed=2, alphabet_size=2, l=6, m=5)
    side = cd.hamming_ball_rule(radius=1)
    res = decode_one(cd.OuterDecoder(h, side, 2), truth.copy(), _syndrome(h, truth, truth))
    assert res.status == "ok"
    assert np.array_equal(res.matrix, truth)
    # one flipped cell is found among the baseline and 3 rows x 4 flips
    truth = np.array([[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1]])
    khat = truth.copy()
    khat[1, 3] ^= 1
    h = cd.MatrixHasher(64, seed=9, alphabet_size=2, l=4, m=3)
    res = decode_one(cd.OuterDecoder(h, side, 2), khat, _syndrome(h, truth, khat))
    assert res.status == "ok" and np.array_equal(res.matrix, truth)
    assert res.searched == 1 + 3 * 4


def brute_force_outer(khat, digest, rows_rule, e_max, hasher):
    """Enumerate every candidate matrix within e_max row changes, the
    candidate rows of each row from a row rule of tests/helpers.py."""
    m = khat.shape[0]
    rows, owner = rows_rule(khat)
    cands = [list(rows[owner == t]) for t in range(m)]
    matches = []
    rows_sets = []
    for r in range(e_max + 1):
        for rows in itertools.combinations(range(m), r):
            rows_sets.append(rows)
    for rows in rows_sets:
        pools = [range(len(cands[t])) for t in rows]
        for choice in itertools.product(*pools):
            mat = khat.copy()
            for t, ci in zip(rows, choice):
                mat[t] = cands[t][ci]
            if np.array_equal(mat, khat) and rows:
                continue
            if np.array_equal(digest_words(hasher, mat), digest):
                matches.append(mat.copy())
    uniq = []
    for mat in matches:
        if not any(np.array_equal(mat, u) for u in uniq):
            uniq.append(mat)
    return uniq


def test_outer_decode_matches_brute_force_enumeration():
    side, rows_rule = cd.hamming_ball_rule(radius=1), hamming_ball_rows(2, 1)
    rng = np.random.default_rng(8)
    h = cd.MatrixHasher(64, seed=3, alphabet_size=2, l=5, m=4)
    for trial in range(25):
        truth = rng.integers(0, 2, size=(4, 5))
        khat = truth.copy()
        n_bad = int(rng.integers(0, 3))
        for t in rng.choice(4, size=n_bad, replace=False):
            pos = int(rng.integers(0, 5))
            khat[t, pos] ^= 1
        digest = digest_words(h, truth)
        res = decode_one(cd.OuterDecoder(h, side, 2), khat.copy(), _syndrome(h, truth, khat))
        brute = brute_force_outer(khat, digest, rows_rule, 2, h)
        if len(brute) == 1:
            assert res.status == "ok"
            assert np.array_equal(res.matrix, brute[0])
            assert np.array_equal(res.matrix, truth)
        elif len(brute) == 0:
            assert res.status == "failed"
        else:
            assert res.status == "ambiguous"


# name: (inner code, (candidate rule, its row form), alphabet, m, e_max, digest bits)
NARROW_CASES = {
    # ternary alphabet: sym_bits = 2 and the bit pattern of symbol 3 is unused
    "ternary_hamming": (lambda: cd.InnerCode(pk.Pmf([0.5, 0.3, 0.2]), 2, 5.0),
                        lambda code: (cd.hamming_ball_rule(radius=1), hamming_ball_rows(3, 1)),
                        3, 3, 2, 6),
    "quaternary_prefix": (lambda: cd.InnerCode(pk.Pmf.uniform(4), 3, 5.0, max_la_bits=3,
                                               codebook=cd.FullCubeCode(4, 3)),
                          lambda code: (cd.prefix_flip_rule(code), prefix_flip_rows(code)),
                          4, 3, 2, 7),
    "binary_e_max_3": (lambda: cd.InnerCode(pk.Pmf.uniform(2), 2, 5.0),
                       lambda code: (cd.hamming_ball_rule(radius=1), hamming_ball_rows(2, 1)),
                       2, 4, 3, 6),
    "binary_e_max_4": (lambda: cd.InnerCode(pk.Pmf.uniform(2), 2, 5.0),
                       lambda code: (cd.hamming_ball_rule(radius=1), hamming_ball_rows(2, 1)),
                       2, 5, 4, 7),
}


@pytest.mark.parametrize("case", sorted(NARROW_CASES))
def test_outer_decode_matches_brute_force_narrow_digest(case):
    # a digest of a few bits makes spurious matches and equal join keys
    # common, so every status occurs and each is checked against the oracle
    make_code, make_rule, a, m, e_max, bits = NARROW_CASES[case]
    code = make_code()
    side, rows_rule = make_rule(code)
    l = code.l
    rng = np.random.default_rng(21)
    seen = set()
    for r in range(80):
        h = cd.MatrixHasher(bits, seed=r, alphabet_size=a, l=l, m=m)
        truth = rng.integers(0, a, size=(m, l))
        khat = truth.copy()
        for t in rng.choice(m, size=min(m, int(rng.integers(0, e_max + 2))), replace=False):
            i = int(rng.integers(0, l))
            khat[t, i] = (khat[t, i] + rng.integers(1, a)) % a
        digest = digest_words(h, truth)
        res = decode_one(cd.OuterDecoder(h, side, e_max), khat.copy(), _syndrome(h, truth, khat))
        brute = brute_force_outer(khat, digest, rows_rule, e_max, h)
        seen.add(res.status)
        if len(brute) == 1:
            assert res.status == "ok"
            assert np.array_equal(res.matrix, brute[0])
        elif len(brute) == 0:
            assert res.status == "failed"
        else:
            assert res.status == "ambiguous" and res.matches == len(brute)
    assert seen == {"ok", "ambiguous", "failed"}


def _rule_pair(alphabet, rule, l, la_share):
    """(alphabet, candidate rule, its row form) for a rule name: ball1,
    ball2, or prefix, which needs a power-of-two alphabet (3 becomes 2)."""
    if rule != "prefix":
        radius = int(rule[-1])
        return alphabet, cd.hamming_ball_rule(radius), hamming_ball_rows(alphabet, radius)
    alphabet = 2 if alphabet == 3 else alphabet
    sym_bits = (alphabet - 1).bit_length()
    code = cd.InnerCode(pk.Pmf.uniform(alphabet), l, 5.0, cd.FullCubeCode(alphabet, l),
                        max_la_bits=round(la_share * l * sym_bits))
    return alphabet, cd.prefix_flip_rule(code), prefix_flip_rows(code)


def _decode_outcome(decode, *args):
    try:
        res = decode(*args)
    except ValueError as exc:
        return "refused", str(exc)
    matrix = None if res.matrix is None else res.matrix.tolist()
    return res.status, res.matches, res.searched, matrix


@settings(derandomize=True, max_examples=120, deadline=None)
@given(alphabet=st.sampled_from([2, 3, 4]), rule=st.sampled_from(["ball1", "ball2", "prefix"]),
       e_max=st.integers(0, 4), bits=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 64, 96, 128]),
       m=st.integers(1, 5), l=st.integers(1, 6), la_share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
# both refusals: a join of too many equal-key pairs, a table of too many patterns
@example(alphabet=4, rule="ball2", e_max=4, bits=1, m=5, l=6, la_share=0.0, seed=1)
@example(alphabet=4, rule="ball2", e_max=3, bits=64, m=6, l=8, la_share=0.0, seed=1)
def test_outer_decode_equals_the_row_pipeline(alphabet, rule, e_max, bits, m, l, la_share, seed):
    # the substitution search against the row-based search it replaced:
    # same status, matches, searched count and matrix, or the same refusal
    alphabet, side, rows = _rule_pair(alphabet, rule, l, la_share)
    rng = np.random.default_rng(seed)
    h = cd.MatrixHasher(bits, seed=seed, alphabet_size=alphabet, l=l, m=m)
    truth = rng.integers(0, alphabet, size=(m, l))
    khat = truth.copy()
    for t in rng.choice(m, size=min(m, int(rng.integers(0, e_max + 2))), replace=False):
        i = rng.choice(l, size=min(l, int(rng.integers(1, 3))), replace=False)
        khat[t, i] = (khat[t, i] + rng.integers(1, alphabet, size=i.shape[0])) % alphabet
    # the oracle reads the digest, so this also checks the syndrome kernel
    # against the digest's definition
    need, digest = _syndrome(h, truth, khat), digest_words(h, truth)
    assert (_decode_outcome(decode_one, cd.OuterDecoder(h, side, e_max), khat, need)
            == _decode_outcome(row_outer_decode, khat, digest, rows, e_max, h))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(alphabet=st.sampled_from([2, 3, 4]), rule=st.sampled_from(["ball1", "ball2", "prefix"]),
       e_max=st.integers(0, 4), bits=st.sampled_from([0, 1, 2, 3, 5, 8, 64, 96]),
       m=st.integers(1, 4), l=st.integers(1, 5), la_share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1),
       corrupt=st.lists(st.integers(0, 3), min_size=1, max_size=6))
# the one-bit digest of test_outer_decode_caps_each_depth_of_the_shared_join_apart:
# trials 0 and 1 (syndrome 1) are ambiguous, trial 2 (syndrome 0) is
# refused for too many equal-key pairs
@example(alphabet=2, rule="ball1", e_max=2, bits=1, m=21, l=69, la_share=0.0, seed=5,
         corrupt=[1, 1, 0])
def test_outer_decoder_block_equals_the_row_pipeline_trial_by_trial(
        alphabet, rule, e_max, bits, m, l, la_share, seed, corrupt):
    # one decode of a stack of baselines, zero and nonzero syndromes mixed,
    # so a binary decoder's table and zero-syndrome count serve later
    # trials: each trial's outcome equals the row pipeline's on that trial
    # alone, and a refusing stack raises the first refusing trial's refusal
    alphabet, side, rows = _rule_pair(alphabet, rule, l, la_share)
    rng = np.random.default_rng(seed)
    h = cd.MatrixHasher(bits, seed=seed, alphabet_size=alphabet, l=l, m=m)
    truths = rng.integers(0, alphabet, size=(len(corrupt), m, l))
    khats = truths.copy()
    for khat, c in zip(khats, corrupt):
        for t in rng.choice(m, size=min(m, c), replace=False):
            i = int(rng.integers(0, l))
            khat[t, i] = (khat[t, i] + rng.integers(1, alphabet)) % alphabet
    want = [_decode_outcome(row_outer_decode, khat, digest_words(h, truth), rows, e_max, h)
            for khat, truth in zip(khats, truths)]
    stack = khats.copy()
    try:
        res = cd.OuterDecoder(h, side, e_max).decode(stack, h.syndromes(truths, khats))
    except ValueError as exc:
        assert ("refused", str(exc)) == next(w for w in want if w[0] == "refused")
        return
    assert [(str(status), int(matches), int(searched), mat.tolist() if status == "ok" else None)
            for status, matches, searched, mat in zip(*res, stack)] == want
    # a trial that is not accepted keeps its baseline
    assert all(np.array_equal(mat, khat) for status, mat, khat in zip(res.status, stack, khats)
               if status != "ok")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(alphabet=st.sampled_from([2, 3, 4]),
       bits=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 64, 128]),
       m=st.integers(1, 4), l=st.integers(1, 5), la_share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1),
       steps=st.lists(st.tuples(st.sampled_from(["ball1", "ball2", "prefix"]),
                                st.integers(0, 4), st.integers(0, 3)),
                      min_size=2, max_size=8))
# a binary ball at every depth: each decoder reuses its table after its
# first decode, and its zero-syndrome count on the second c = 0
@example(alphabet=2, bits=64, m=4, l=5, la_share=0.0, seed=3,
         steps=[("ball1", e, c) for e in (1, 2, 3, 4) for c in (0, 1, 0, 2)])
# a one-bit digest: baselines that match are ambiguous (kept, then read
# back), or refused at depth 4 (again on the repeat)
@example(alphabet=4, bits=1, m=4, l=3, la_share=1.0, seed=5,
         steps=[("ball2", 4, 0), ("prefix", 2, 0), ("ball2", 2, 0), ("ball2", 4, 0),
                ("ball1", 3, 1), ("ball2", 2, 0), ("ball2", 2, 0)])
def test_outer_decode_reuses_its_table_across_baselines_and_rules(
        alphabet, bits, m, l, la_share, seed, steps):
    # one hasher serves a decoder per (rule, e_max), the decoders taking
    # turns on a sequence of baselines; baseline c is the truth with its
    # first c rows corrupted, so baselines repeat and match their digest
    # when c = 0. Each outcome (or refusal) equals the row pipeline's and
    # a fresh decoder's
    sym_bits = (alphabet - 1).bit_length()
    code = cd.InnerCode(pk.Pmf.uniform(2 ** sym_bits), l, 5.0, cd.FullCubeCode(2 ** sym_bits, l),
                        max_la_bits=round(la_share * l * sym_bits))
    rules = {"ball1": (cd.hamming_ball_rule(1), hamming_ball_rows(alphabet, 1)),
             "ball2": (cd.hamming_ball_rule(2), hamming_ball_rows(alphabet, 2))}
    # the prefix rule needs a power-of-two alphabet: a ternary run uses ball1
    rules["prefix"] = ((cd.prefix_flip_rule(code), prefix_flip_rows(code))
                       if alphabet != 3 else rules["ball1"])
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, alphabet, size=(m, l))
    baselines = [truth.copy()]
    for _ in range(3):
        khat = baselines[-1].copy()
        t = len(baselines) - 1
        if t < m:
            i = int(rng.integers(0, l))
            khat[t, i] = (khat[t, i] + rng.integers(1, alphabet)) % alphabet
        baselines.append(khat)
    h = cd.MatrixHasher(bits, seed=seed, alphabet_size=alphabet, l=l, m=m)
    digest = digest_words(h, truth)
    decoders = {}
    for rule, e_max, c in steps:
        side, rows = rules[rule]
        decoder = decoders.setdefault((rule, e_max), cd.OuterDecoder(h, side, e_max))
        need = _syndrome(h, truth, baselines[c])
        outcome = _decode_outcome(decode_one, decoder, baselines[c], need)
        assert outcome == _decode_outcome(row_outer_decode, baselines[c], digest, rows, e_max, h)
        assert outcome == _decode_outcome(decode_one, cd.OuterDecoder(h, side, e_max),
                                          baselines[c], need)


def test_outer_decode_keeps_the_last_candidate_table(monkeypatch):
    # on a binary alphabet every flip is 1, so a decoder builds one table
    # for its run, whatever the baseline, and keeps a matching baseline's
    # count; another rule's decoder builds its own. A ternary ball flips
    # bits that depend on the baseline, so its decoder builds a table per
    # search and keeps none
    built = []

    def candidates(*args, _fn=cd._candidates):
        built.append(_fn(*args))
        return built[-1]
    monkeypatch.setattr(cd, "_candidates", candidates)
    rng = np.random.default_rng(6)
    truth = rng.integers(0, 2, size=(4, 5))
    khat = truth.copy()
    khat[1, 2] ^= 1
    h = cd.MatrixHasher(64, seed=2, alphabet_size=2, l=5, m=4)
    dec = cd.OuterDecoder(h, cd.hamming_ball_rule(radius=1), 2)
    res = decode_one(dec, truth, _syndrome(h, truth, truth))
    settled = res.matches, res.searched
    assert res.status == "ok" and dec._settled == settled and built == [dec._table]
    res = decode_one(dec, khat, _syndrome(h, truth, khat))
    assert res.status == "ok" and np.array_equal(res.matrix, truth)
    assert built == [dec._table] and dec._settled == settled
    other = cd.OuterDecoder(h, cd.hamming_ball_rule(radius=2), 1)
    decode_one(other, khat, _syndrome(h, truth, khat))
    assert built == [dec._table, other._table]
    ternary = cd.MatrixHasher(64, seed=2, alphabet_size=3, l=5, m=4)
    dec3 = cd.OuterDecoder(ternary, cd.hamming_ball_rule(radius=1), 1)
    for base in (truth, truth, khat):
        decode_one(dec3, base, _syndrome(ternary, truth, base))
    assert len(built) == 2 + 3 and dec3._table is None and dec3._settled is None
    assert not np.array_equal(built[-1].flips, built[-2].flips)


def test_outer_decode_compares_every_digest_word():
    # a target that agrees with a reachable pattern on the low 64 bits but
    # not above them must not match: the join keys on the first word only
    side = cd.hamming_ball_rule(radius=1)
    h = cd.MatrixHasher(128, seed=4, alphabet_size=2, l=4, m=3)
    khat = np.array([[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1]])
    for rows in ((1,), (0, 2)):
        truth = khat.copy()
        truth[list(rows), 2] ^= 1
        exact = _syndrome(h, truth, khat)
        assert decode_one(cd.OuterDecoder(h, side, 2), khat, exact).status == "ok"
        off = exact.copy()
        off[100 // 64] ^= np.uint64(1 << (100 % 64))
        assert decode_one(cd.OuterDecoder(h, side, 2), khat, off).status == "failed"


def test_outer_decode_failure_when_pattern_exceeds_e_max():
    side = cd.hamming_ball_rule(radius=1)
    rng = np.random.default_rng(9)
    truth = rng.integers(0, 2, size=(6, 5))
    khat = truth.copy()
    for t in (0, 2, 4):
        khat[t, 1] ^= 1
    h = cd.MatrixHasher(80, seed=1, alphabet_size=2, l=5, m=6)
    res = decode_one(cd.OuterDecoder(h, side, 2), khat, _syndrome(h, truth, khat))
    assert res.status == "failed"
    res3 = decode_one(cd.OuterDecoder(h, side, 3), khat, _syndrome(h, truth, khat))
    assert res3.status == "ok" and np.array_equal(res3.matrix, truth)


def test_outer_decode_zero_width_digest():
    h = cd.MatrixHasher(0, seed=0, alphabet_size=2, l=4, m=3)
    mat = np.zeros((3, 4), dtype=int)
    side = cd.hamming_ball_rule(radius=1)
    need = _syndrome(h, mat, mat)
    assert need.shape == (0,)
    assert decode_one(cd.OuterDecoder(h, side, 0), mat, need).status == "ok"
    assert decode_one(cd.OuterDecoder(h, side, 1), mat, need).status == "ambiguous"


def test_outer_decode_e_max_zero_checks_only_the_baseline(monkeypatch):
    # depth 0 tests the baseline's digest and builds no candidate table,
    # and neither does a zero-width digest, at any depth
    built = []
    monkeypatch.setattr(cd, "_candidates", lambda *args: built.append(args))
    side = cd.hamming_ball_rule(radius=1)
    rng = np.random.default_rng(4)
    truth = rng.integers(0, 2, size=(4, 5))
    h = cd.MatrixHasher(64, seed=3, alphabet_size=2, l=5, m=4)
    dec = cd.OuterDecoder(h, side, 0)
    res = decode_one(dec, truth.copy(), _syndrome(h, truth, truth))
    assert (res.status, res.matches, res.searched) == ("ok", 1, 1)
    assert np.array_equal(res.matrix, truth)
    khat = truth.copy()
    khat[2, 0] ^= 1
    res = decode_one(dec, khat, _syndrome(h, truth, khat))
    assert (res.status, res.matrix, res.matches, res.searched) == ("failed", None, 0, 1)
    zero_width = cd.MatrixHasher(0, seed=3, alphabet_size=2, l=5, m=4)
    for e_max in (0, 2):
        decode_one(cd.OuterDecoder(zero_width, side, e_max), khat,
                   _syndrome(zero_width, truth, khat))
    assert built == []
    monkeypatch.undo()
    dec = cd.OuterDecoder(h, side, 1)
    res = decode_one(dec, khat, _syndrome(h, truth, khat))
    assert res.status == "ok" and dec._table is not None


def test_outer_decode_without_candidates():
    # no address bits: the prefix rule has no position to search, so only
    # the baseline can match, at every depth
    code = cd.InnerCode(pk.Pmf.uniform(2), 4, 1.0, max_la_bits=0,
                        codebook=cd.FullCubeCode(2, 4))
    side = cd.prefix_flip_rule(code)
    h = cd.MatrixHasher(32, seed=5, alphabet_size=2, l=4, m=3)
    truth = np.array([[0, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1]])
    khat = truth.copy()
    khat[1, 0] ^= 1
    for e_max in range(4):
        res = decode_one(cd.OuterDecoder(h, side, e_max), truth, _syndrome(h, truth, truth))
        assert (res.status, res.searched) == ("ok", 1) and np.array_equal(res.matrix, truth)
        res = decode_one(cd.OuterDecoder(h, side, e_max), khat, _syndrome(h, truth, khat))
        assert (res.status, res.matches, res.searched) == ("failed", 0, 1)


def test_outer_decode_no_wrong_accepts_fuzz():
    # ten thousand corruption rounds, wide digest: never accept a wrong matrix
    side = cd.hamming_ball_rule(radius=1)
    h = cd.MatrixHasher(96, seed=11, alphabet_size=2, l=4, m=4)
    rng = np.random.default_rng(12)
    truths, khats = [], []
    for _ in range(10_000):
        truth = rng.integers(0, 2, size=(4, 4))
        khat = truth.copy()
        for t in rng.choice(4, size=int(rng.integers(0, 3)), replace=False):
            khat[t] = rng.integers(0, 2, size=4)
        truths.append(truth)
        khats.append(khat)
    truths, stack = np.array(truths), np.array(khats)
    res = cd.OuterDecoder(h, side, 2).decode(stack, h.syndromes(truths, stack))
    assert (res.status == "ok").any()
    assert not ((res.status == "ok") & (stack != truths).any(axis=(1, 2))).any()


def test_outer_decode_refuses_an_oversized_pattern_table():
    # 64 rows of 32 bits give 2048 single flips and 2016 * 32 * 32 > 2^20
    # two-row patterns: e_max=3 needs that table and is refused from its
    # size, before it is built
    h = cd.MatrixHasher(64, seed=1, alphabet_size=2, l=32, m=64)
    khat = np.zeros((64, 32), dtype=np.int64)
    side = cd.hamming_ball_rule(radius=1)
    # the syndrome of the digest 1 against the all-zero baseline (digest 0)
    one = np.ones(1, dtype=np.uint64)
    # the decoder keeps its candidate table through the refusal, and the
    # refusal repeats, matching baseline or not
    deep = cd.OuterDecoder(h, side, 3)
    for need in (one, one, _syndrome(h, khat, khat)):
        with pytest.raises(ValueError, match=r"more than 2\^20"):
            decode_one(deep, khat, need)
    assert deep._table is not None and deep._settled is None
    res = decode_one(cd.OuterDecoder(h, side, 2), khat, one)
    assert res.searched >= 1 + 2048
    # e_max = 2 decodes on one decoder equal a fresh decoder's, matching
    # baseline or not
    dec = cd.OuterDecoder(h, side, 2)
    flipped = khat.copy()
    flipped[[3, 40], [0, 17]] = 1
    for target in (khat, flipped):
        for need in (_syndrome(h, target, khat), one):
            assert (_decode_outcome(decode_one, dec, khat, need)
                    == _decode_outcome(decode_one, cd.OuterDecoder(h, side, 2), khat, need))
    # a one-bit digest gives at least 2048^2 / 2 > 2^20 two-row pairs with
    # equal keys when the target is the baseline's digest: refused too, on
    # every call, because a refused search is never kept
    narrow = cd.OuterDecoder(cd.MatrixHasher(1, seed=1, alphabet_size=2, l=32, m=64), side, 2)
    for _ in range(3):
        with pytest.raises(ValueError, match=r"more than 2\^20"):
            decode_one(narrow, khat, _syndrome(narrow.hasher, khat, khat))
    assert narrow._settled is None


def test_outer_decode_caps_each_depth_of_the_shared_join_apart():
    # depths 1 and 2 share one join, but each depth's equal-key pairs are
    # capped on their own: on this one-bit digest depth 2 compares just
    # under 2^20 pairs and the two depths together just over, so the
    # search runs (and is ambiguous), as the row pipeline's does
    m, l = 21, 69
    h = cd.MatrixHasher(1, seed=5, alphabet_size=2, l=l, m=m)
    khat = np.zeros((m, l), dtype=np.int64)
    side = cd.hamming_ball_rule(radius=1)
    one = np.ones(1, dtype=np.uint64)
    dec = cd.OuterDecoder(h, side, 2)
    res = decode_one(dec, khat, one)
    keys = dec._table.delta[:, 0]
    ones = int(keys.sum())
    depth1, depth2 = ones, 2 * ones * (keys.shape[0] - ones)
    assert depth2 <= 1 << 20 < depth1 + depth2
    assert res.status == "ambiguous"
    assert (_decode_outcome(decode_one, dec, khat, one)
            == _decode_outcome(row_outer_decode, khat, one, hamming_ball_rows(2, 1), 2, h))


def test_settled_zero_syndrome_decodes_build_no_table(monkeypatch):
    # on a binary alphabet the decoder's one table serves every baseline,
    # so once a zero-syndrome search has settled its count, the later
    # zero-syndrome trials, of the same block or the next, build no
    # candidate table and run no join; each still equals a fresh decoder's
    rng = np.random.default_rng(11)
    side = cd.hamming_ball_rule(radius=1)
    h = cd.MatrixHasher(64, seed=7, alphabet_size=2, l=6, m=5)
    calls = {"_candidates": 0, "_join": 0}
    for name in calls:
        def counted(*args, _fn=getattr(cd, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(cd, name, counted)
    baselines = rng.integers(0, 2, size=(4, 5, 6))
    stack, zero = baselines.copy(), np.zeros((4, h.words), dtype=np.uint64)
    dec = cd.OuterDecoder(h, side, 2)
    res = [dec.decode(stack[:3], zero[:3])]
    assert calls == {"_candidates": 1, "_join": 1}
    res.append(dec.decode(stack[3:], zero[3:]))
    assert calls == {"_candidates": 1, "_join": 1}
    got = [(str(status), int(matches), int(searched))
           for r in res for status, matches, searched in zip(*r)]
    for k, base in enumerate(baselines):
        want = decode_one(cd.OuterDecoder(h, side, 2), base, zero[k])
        assert got[k] == (want.status, want.matches, want.searched) == ("ok", 1, got[0][2])
        assert np.array_equal(stack[k], want.matrix)
    assert calls["_candidates"] == 1 + 4 and calls["_join"] == 1 + 4


# ---------------------------------------------------------------------------
# candidate rules and multiplexing
# ---------------------------------------------------------------------------

def _candidate_rows(base, rule, alphabet_size):
    """Each candidate of the rule's table on base, written into a copy of
    its row, as (rows, owner)."""
    m, l = base.shape
    table = cd._candidates(base, rule, cd.MatrixHasher(64, 0, alphabet_size, l, m))
    rows = base[table.owner]
    idx = np.arange(rows.shape[0])[:, None]
    rows[idx, table.cells % l] = base.take(table.cells) ^ table.flips
    return rows, table.owner


def test_prefix_flip_rule_positions():
    p = pk.Pmf.uniform(2)
    code = cd.InnerCode(p, 8, 1.0, max_la_bits=3,
                        codebook=cd.FullCubeCode(2, 8))
    rule = cd.prefix_flip_rule(code)
    assert rule == cd.CandidateRule(n_pos=3, radii=(1,))
    base = np.array([np.zeros(8, dtype=int), np.ones(8, dtype=int)])
    cands, owner = _candidate_rows(base, rule, 2)
    assert len(cands) == 2 * 3  # one flip per address position, row by row
    assert owner.tolist() == [0, 0, 0, 1, 1, 1]
    for cand, t in zip(cands, owner):
        diff = np.flatnonzero(cand != base[t])
        assert diff.shape == (1,) and diff[0] < 3
    rows, row_owner = prefix_flip_rows(code)(base)
    assert np.array_equal(cands, rows) and np.array_equal(owner, row_owner)
    with pytest.raises(ValueError, match="needs the full-cube typical set"):
        cd.prefix_flip_rule(cd.InnerCode(p, 8, 0.25))
    with pytest.raises(ValueError, match="needs a power-of-two alphabet"):
        cd.prefix_flip_rule(cd.InnerCode(pk.Pmf.uniform(3), 4, 2.0))


def test_hamming_ball_rule_radius_two():
    rule = cd.hamming_ball_rule(radius=2)
    assert rule == cd.CandidateRule(n_pos=None, radii=(1, 2))
    base = np.zeros((2, 3), dtype=int)
    cands, owner = _candidate_rows(base, rule, 2)
    assert len(cands) == 2 * (3 + 3)  # three singles, three pairs, per row
    assert owner.tolist() == [0] * 6 + [1] * 6
    assert (cands != 0).sum(axis=1).tolist() == [1, 1, 1, 2, 2, 2] * 2
    rows, row_owner = hamming_ball_rows(2, 2)(base)
    assert np.array_equal(cands, rows) and np.array_equal(owner, row_owner)
    with pytest.raises(ValueError):
        cd.hamming_ball_rule(radius=3)


def test_multiplex_inputs():
    u = np.array([[0, 1], [1, 0]])
    v = np.array([[1, 1], [0, 0]])
    # deterministic x = u
    p_xu = np.zeros((2, 2, 2))
    for uu in range(2):
        p_xu[uu, :, uu] = 1.0
    assert np.array_equal(cd.multiplex_inputs(u, v, p_xu, np.random.default_rng(0).random(u.shape)), u)
    # degenerate v alphabet reduces to p(x|u)
    p2 = np.zeros((2, 1, 2))
    p2[0, 0] = [0.5, 0.5]
    p2[1, 0] = [0.0, 1.0]
    out = cd.multiplex_inputs(u, np.zeros_like(u), p2, np.random.default_rng(1).random(u.shape))
    assert np.all(out[u == 1] == 1)
    r = np.random.default_rng(2).random(u.shape)
    for uu, vv, rr in ((u, v[:1], r), (u, v, r[:, :1]), (u[0], v, r)):
        with pytest.raises(ValueError, match="matrix shapes disagree"):
            cd.multiplex_inputs(uu, vv, p_xu, rr)
    with pytest.raises(ValueError, match="must have shape"):
        cd.multiplex_inputs(u, v, p_xu.reshape(4, 2), r)


def test_draw_from_rows_never_falls_through_to_symbol_0():
    # ten 0.1s sum to 1 - 1.1e-16 in floats, the largest uniform draw, so no
    # CDF entry exceeds that draw; the last row of the (0.003, 0.003, 0.005,
    # 0.005) cross channel ends there too
    short = np.array([[0.1] * 10 + [0.0], [0.0] * 10 + [1.0]])
    top = np.nextafter(1.0, 0.0)
    rows = np.array([0, 0, 0, 1, 1])
    r = np.array([top, 0.0, 0.55, top, 0.0])
    # the last positive-probability symbol, not 0 and not the empty 10
    assert cd.draw_from_rows(short, rows, r).tolist() == [9, 0, 5, 10, 10]
    w = cross_ic(0.003, 0.003, 0.005, 0.005).reshape(4, 4)
    assert np.cumsum(w, axis=1)[3, -1] <= top
    assert cd.draw_from_rows(w, np.array([[3]]), np.array([[top]])).tolist() == [[3]]


def test_draw_from_rows_is_the_first_cdf_crossing_elsewhere():
    rng = np.random.default_rng(8)
    for _ in range(200):
        k, n = rng.integers(1, 5), rng.integers(1, 6)
        p = rng.random((k, n)) * (rng.random((k, n)) < 0.7)
        p[p.sum(axis=1) == 0, -1] = 1.0
        p /= p.sum(axis=1, keepdims=True)
        cum = np.cumsum(p, axis=1)
        rows = rng.integers(0, k, size=50)
        # uniforms, plus the CDF values themselves
        r = np.where(rng.random(50) < 0.5, rng.random(50), cum[rows, rng.integers(0, n, 50)])
        r = np.minimum(r, np.nextafter(1.0, 0.0))
        crossed = (cum[rows] > r[:, None]).any(axis=1)
        got = cd.draw_from_rows(p, rows, r)
        assert np.array_equal(got[crossed], (cum[rows] > r[:, None]).argmax(axis=1)[crossed])
        assert (p[rows, got] > 0.0).all()


def _first_crossing_oracle(p, rows, r):
    """The gather-and-argmax rule draw_from_rows replaced: the first CDF
    entry above r, with the last positive symbol's entry set to inf."""
    cum = np.cumsum(p, axis=1)
    last = p.shape[1] - 1 - (p[:, ::-1] > 0.0).argmax(axis=1)
    cum[np.arange(p.shape[0]), last] = np.inf
    return (cum[rows] > r[..., None]).argmax(-1)


@st.composite
def _draw_cases(draw):
    """A stochastic matrix whose rows have zero-probability leading,
    interior and trailing symbols, and uniforms that include its CDF values,
    0 and the largest double below 1."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    weights = np.array(draw(st.lists(st.lists(st.sampled_from([0, 0, 1, 2, 3, 7, 50]),
                                              min_size=k, max_size=k),
                                     min_size=n, max_size=n)), dtype=float)
    weights[weights.sum(axis=1) == 0, draw(st.integers(0, k - 1))] = 1.0
    p = weights / weights.sum(axis=1, keepdims=True)
    size = draw(st.integers(1, 40))
    rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)))
    cum = np.cumsum(p, axis=1)
    top = np.nextafter(1.0, 0.0)
    r = np.array([draw(st.one_of(
        st.floats(0.0, top), st.sampled_from([0.0, top]),
        st.integers(0, k - 1).map(lambda s, row=row: min(float(cum[row, s]), top))))
        for row in rows])
    return p, rows, r


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_draw_cases())
# a CDF ending below 1, at the largest uniform, before two zero symbols
@example((np.array([[0.1] * 10 + [0.0, 0.0]]), np.array([0, 0]),
          np.array([np.nextafter(1.0, 0.0), 0.95])))
def test_draw_from_rows_equals_the_gather_argmax_rule(case):
    p, rows, r = case
    assert np.array_equal(cd.draw_from_rows(p, rows, r), _first_crossing_oracle(p, rows, r))
    # rows and uniforms broadcast: one row index for a (2, size) array
    twice = np.stack([r, r[::-1]])
    assert np.array_equal(cd.draw_from_rows(p, rows[0], twice),
                          _first_crossing_oracle(p, np.full(twice.shape, rows[0]), twice))


@pytest.mark.parametrize("probs", [
    [0.4995, 0.0005, 0.0005, 0.4995],  # the dueck_chain pair law
    [0.495, 0.005, 0.005, 0.495],
    [0.5, 0.5],
    [0.0, 0.3, 0.0, 0.7, 0.0],
    [0.125] * 8,
])
def test_draw_from_rows_equals_generator_choice(probs):
    # choice(p=...) maps one random() per symbol through its CDF, divided by
    # its last entry: with a cumulative sum ending at exactly 1 the two agree
    p = np.array(probs)
    assert np.cumsum(p)[-1] == 1.0
    g1, g2 = np.random.default_rng(21), np.random.default_rng(21)
    drawn = cd.draw_from_rows(p[None], 0, g1.random((64, 16)))
    assert np.array_equal(drawn, g2.choice(len(p), (64, 16), p=p))
    assert g1.random() == g2.random()


def test_multiplex_conditional_frequencies():
    rng = np.random.default_rng(4)
    m, l = 100, 100
    u = rng.integers(0, 2, size=(m, l))
    v = rng.integers(0, 2, size=(m, l))
    p = np.zeros((2, 2, 2))
    p[:, :, 1] = [[0.1, 0.4], [0.6, 0.9]]
    p[:, :, 0] = 1.0 - p[:, :, 1]
    x = cd.multiplex_inputs(u, v, p, np.random.default_rng(5).random((m, l)))
    for uu in range(2):
        for vv in range(2):
            mask = (u == uu) & (v == vv)
            n = int(mask.sum())
            freq = float(x[mask].mean())
            target = p[uu, vv, 1]
            sigma = math.sqrt(target * (1 - target) / n)
            assert abs(freq - target) <= 4 * sigma
