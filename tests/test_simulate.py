import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblic import bounds as bd
from fblic import cli
from fblic import codec as cd
from fblic import dueck as dk
from fblic import probkit as pk
from fblic import simulate as sm
from helpers import (
    binary_pair_source,
    count_computations,
    folded_instance,
    small_instance,
    small_scheme,
)

LN2 = math.log(2.0)


def regression_scheme(m=64):
    return bd.SchemeParams(l=32, delta=1.0, A=16 * LN2 / 32, B=16 * LN2 / 32,
                           rho=0.17, m=m)


# ---------------------------------------------------------------------------
# the worked-example chain
# ---------------------------------------------------------------------------

def test_simulate_dueck_zero_mismatch_zero_errors():
    # diagonal source, full-cube typical set: nothing can go wrong
    joint = pk.JointPmf([[0.5, 0.0], [0.0, 0.5]])
    sp = regression_scheme(m=16)
    stats = sm.simulate_dueck(joint, sp, trials=40, seed=5, e_max=1)
    assert stats.inner_error_rate == (0.0, 0.0)
    assert stats.block_error_rate == (0.0, 0.0)
    assert stats.wrong_accepts == (0, 0)
    assert stats.s1_neq_s2_rate == 0.0


def test_simulate_dueck_regression_fixture_small():
    stats = sm.simulate_dueck(binary_pair_source(0.001), regression_scheme(),
                              trials=120, seed=2024, e_max=2)
    for j in (0, 1):
        assert stats.block_error_rate[j] <= 0.05
        assert stats.matrix_failure_rate[j] <= 0.05
        assert stats.inner_error_rate[j] <= stats.phi_bound + 3 * math.sqrt(
            stats.phi_bound * (1 - stats.phi_bound) / (120 * 64))
    assert stats.wrong_accepts == (0, 0)
    # every outer decode is tallied once, with at least its baseline searched
    dec = stats.extras["outer_decode"]
    for j in (0, 1):
        assert dec["ok"][j] + dec["ambiguous"][j] + dec["failed"][j] == 120
        assert dec["searched"][j] >= 120
        assert dec["failed"][j] + dec["ambiguous"][j] >= round(stats.matrix_failure_rate[j] * 120)
    # the pair-mismatch frequency matches its block formula
    n = 120 * 64
    sigma = math.sqrt(stats.xi_block_expected * (1 - stats.xi_block_expected) / n)
    assert abs(stats.s1_neq_s2_rate - stats.xi_block_expected) <= 3 * sigma


def test_simulate_dueck_reproducible():
    joint = binary_pair_source(0.001)
    sp = regression_scheme(m=16)
    a = sm.simulate_dueck(joint, sp, trials=30, seed=77)
    b = sm.simulate_dueck(joint, sp, trials=30, seed=77)
    assert a.to_dict() == b.to_dict()
    c = sm.simulate_dueck(joint, sp, trials=30, seed=78)
    assert c.to_dict() != a.to_dict()


def test_simulate_dueck_refuses_any_other_source():
    with pytest.raises(TypeError, match="source must be example parameters or a joint pmf"):
        sm.simulate_dueck([[0.5, 0.0], [0.0, 0.5]], regression_scheme(m=8), trials=1, seed=0)


def test_simulate_dueck_accepts_example_params():
    params = dk.DueckParams(2, 2, 8)
    sp = bd.SchemeParams(l=8, delta=0.9, A=LN2, B=1.1, rho=0.4, m=8)
    stats = sm.simulate_dueck(params, sp, trials=20, seed=1, e_max=1)
    assert stats.trials == 20
    assert 0.0 <= stats.inner_error_rate[0] <= 1.0
    assert stats.phi_bound <= 1.0


def test_simulate_dueck_address_cap_is_a_bit_count():
    # A = 2^28 ln 2 / l asks for ~2^28 address bits; the typical set holds
    # 32, so the run equals the one at A = ln 2 and never builds a 2^(2^28)
    # codeword count, a 32 MiB integer
    runs = []
    for a in (2 ** 28 * LN2 / 32, LN2):
        sp = bd.SchemeParams(l=32, delta=1.0, A=a, B=16 * LN2 / 32, rho=0.17, m=64)
        tracemalloc.start()
        try:
            stats = sm.simulate_dueck(binary_pair_source(0.001), sp, trials=20, seed=3,
                                      e_max=2, hash_bits=128, capacity_slack=0.2)
            runs.append((stats.to_dict(), tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
    (large, peak), (small, _) = runs
    assert large == small and large["extras"]["la_bits"] == 32
    assert peak < 4 << 20


def test_simulate_dueck_error_rate_monotone_in_capacity_slack():
    joint = binary_pair_source(0.004)
    sp = regression_scheme(m=16)
    rates = []
    for slack in (-1.0, 0.2, 1.0):
        stats = sm.simulate_dueck(joint, sp, trials=60, seed=31, e_max=2,
                                  capacity_slack=slack)
        rates.append(stats.block_error_rate)
    for worse, better in zip(rates[:-1], rates[1:]):
        assert worse[0] >= better[0] - 1e-12
        assert worse[1] >= better[1] - 1e-12
    # a starved pipe is flagged, not failed
    starved = sm.simulate_dueck(joint, sp, trials=5, seed=31, capacity_slack=-1.0)
    assert starved.rate_exceeded is True
    assert starved.extras["digest_bits"] == 0


def test_simulate_dueck_inner_envelope_assertion_runs():
    # the inclusion check runs on every block of every run; a healthy
    # fixture passes through it without tripping
    stats = sm.simulate_dueck(binary_pair_source(0.01), regression_scheme(m=8),
                              trials=20, seed=3, e_max=1)
    assert stats.trials == 20


# ---------------------------------------------------------------------------
# the generic pipeline
# ---------------------------------------------------------------------------

def test_simulate_generic_reduces_to_clean_chain():
    inst = small_instance(xi=0.0, stay=1.0, eps=0.0, leak=0.0)
    sp = small_scheme(delta=5.0, m=16)
    stats = sm.simulate_generic(inst, sp, trials=20, seed=4, e_max=1)
    assert stats.inner_error_rate == (0.0, 0.0)
    assert stats.block_error_rate == (0.0, 0.0)
    assert stats.wrong_accepts == (0, 0)
    dec = stats.extras["outer_decode"]
    assert dec["ok"] == [20, 20] and dec["ambiguous"] == [0, 0] and dec["failed"] == [0, 0]


def test_simulate_generic_counts_out_of_range_inner_decodes(monkeypatch):
    # |T| = 182 at l = 8 and delta = 1/4 is not a power of two. Its typical
    # rows take addresses 0..5 of the 3 address bits (ranks below 182), but
    # the ML decode over the 8-word codebook may return 6 or 7, or 5 with a
    # large residual: an (index || residual) rank of 182..255, which names no
    # typical row. Such rows come back all zero and count as inner errors.
    sent, rebuilt = [], []
    encode, reconstruct = cd.InnerCode.encode_rows, cd.InnerCode.reconstruct_rows

    def spy_encode(self, blocks):
        sent.append(np.array(blocks))
        return encode(self, blocks)

    def spy_reconstruct(self, index, residual):
        out = reconstruct(self, index, residual)
        rank = np.asarray(index) << self.lb_bits | np.asarray(residual)
        rebuilt.append((rank >= self.typical.size, out))
        return out

    monkeypatch.setattr(cd.InnerCode, "encode_rows", spy_encode)
    monkeypatch.setattr(cd.InnerCode, "reconstruct_rows", spy_reconstruct)
    # floor(exp(l * A)) = 12 words: 3 address bits and 5 residual bits
    sp = bd.SchemeParams(l=8, delta=0.25, A=math.log(12.5) / 8, B=5 * LN2 / 8, rho=0.02, m=16)
    stats = sm.simulate_generic(small_instance(eps=0.2), sp, trials=20, seed=3)
    assert (stats.extras["la_bits"], stats.extras["lb_bits"]) == (3, 5)
    errors, beyond_wrong = [0, 0], 0
    # per block, both users' K are encoded in turn, and both rebuilt in one call
    for k1, (beyond, out) in zip(sent[::2], rebuilt):
        assert not out[beyond].any()
        for j, khat in enumerate(np.split(out, 2)):
            wrong = (khat != k1).any(axis=1)
            errors[j] += int(wrong.sum())
            beyond_wrong += int((wrong & np.split(beyond, 2)[j]).sum())
    assert beyond_wrong > 0
    assert stats.inner_error_rate == tuple(n / (20 * 16) for n in errors)


def test_simulate_generic_channel_quality_bounds():
    inst = small_instance()
    sp = small_scheme(m=32)
    stats = sm.simulate_generic(inst, sp, trials=60, seed=6, e_max=1)
    for j in (1, 2):
        q = stats.extras["channel_quality"][f"user{j}"]
        assert q["tv"] <= q["tv_threshold"]
        assert q["mi_gap"] <= q["mi_gap_threshold"]
        assert q["samples"] == 60 * 32
    assert stats.phi_bound < 0.5


def test_simulate_generic_reproducible():
    inst = small_instance()
    sp = small_scheme(m=8)
    a = sm.simulate_generic(inst, sp, trials=12, seed=9)
    b = sm.simulate_generic(inst, sp, trials=12, seed=9)
    assert a.to_dict() == b.to_dict()
    c = sm.simulate_generic(inst, sp, trials=12, seed=10)
    assert c.to_dict() != a.to_dict()


def test_simulate_generic_computes_each_single_letter_law_once(monkeypatch):
    # thm1_quantities computes I(V; Y) from each user's ideal (V, Y) law; the
    # channel reads both laws and both I(V; Y) back from the instance's memo
    computed = count_computations(monkeypatch, "ideal_joint_vy", "mutual_information_vy")
    sm.simulate_generic(small_instance(), small_scheme(m=8), trials=2, seed=1)
    assert sorted(computed["ideal_joint_vy"]) == [(1,), (2,)]
    assert sorted(computed["mutual_information_vy"]) == [(1,), (2,)]


def test_simulate_generic_reads_type_test_and_xi_l_from_the_memo(monkeypatch):
    # the chain and thm1_quantities share the instance's p_U type verdict and
    # xi^[l]: each is computed once per (instance, l)
    calls = {"type": [], "xi": []}
    is_type_of, xi_l = bd.is_type_of, bd.xi_l
    monkeypatch.setattr(bd, "is_type_of", lambda p, l: calls["type"].append(l) or is_type_of(p, l))
    monkeypatch.setattr(bd, "xi_l", lambda xi, l: calls["xi"].append(l) or xi_l(xi, l))
    for inst in (small_instance(), small_instance(xi=0.02)):
        for l in (16, 32, 16):
            sp = small_scheme(l=l, m=8)
            inst.thm1_quantities(sp)
            sm.simulate_generic(inst, sp, trials=2, seed=1)
    assert calls == {"type": [16, 32] * 2, "xi": [16, 32] * 2}


def test_simulate_generic_requires_type_pmf():
    inst = small_instance()
    sp = bd.SchemeParams(l=15, delta=0.75, A=0.09, B=0.6, rho=0.02, m=8)
    with pytest.raises(ValueError):
        sm.simulate_generic(inst, sp, trials=5, seed=0)


@pytest.fixture
def codebook_sizes(monkeypatch):
    """The n_codewords of every constant-composition codebook drawn."""
    sizes, sample = [], sm._codec.sample_constant_composition

    def recorded(*args, n_codewords, **kw):
        sizes.append(n_codewords)
        return sample(*args, n_codewords=n_codewords, **kw)

    monkeypatch.setattr(sm._codec, "sample_constant_composition", recorded)
    return sizes


def test_simulate_generic_large_rate_caps_the_codebook(codebook_sizes):
    # l * A = 960 would overflow exp; the codebook is the whole type class
    base = small_scheme(m=8)
    sp = bd.SchemeParams(l=16, delta=base.delta, A=60.0, B=base.B, rho=base.rho, m=8)
    stats = sm.simulate_generic(small_instance(), sp, trials=2, seed=1)
    assert stats.trials == 2
    assert codebook_sizes == [cd.type_class_size((8, 8))]


@pytest.mark.parametrize("words", [1 << 20, (1 << 20) + 1])
def test_simulate_generic_refuses_more_than_2_20_codewords(monkeypatch, words):
    # floor(exp(l * A)) words of the (32, 32) type class; above 2^20 the run
    # is refused before the sampler is reached
    class Drawn(Exception):
        pass

    def sample(*args, n_codewords, **kw):
        raise Drawn(n_codewords)

    monkeypatch.setattr(sm._codec, "sample_constant_composition", sample)
    sp = bd.SchemeParams(l=64, delta=0.75, A=math.log(words + 0.5) / 64, B=0.5,
                         rho=0.02, m=8)
    if words <= 1 << 20:
        with pytest.raises(Drawn) as drawn:
            sm.simulate_generic(small_instance(), sp, trials=2, seed=1)
        assert drawn.value.args == (words,)
    else:
        with pytest.raises(ValueError, match="more than 2\\^20"):
            sm.simulate_generic(small_instance(), sp, trials=2, seed=1)


# ---------------------------------------------------------------------------
# block staging
# ---------------------------------------------------------------------------

# name -> (chain, shared-channel class, setup, run options): 7 trials each;
# the _m64 cases have the benchmark chains' trial shapes (64 x 32 and 64 x 16)
BLOCK_CASES = {
    "dueck": (sm.simulate_dueck, sm._ExampleChannel,
              lambda: (binary_pair_source(0.02), regression_scheme(m=8)),
              dict(seed=11, e_max=2)),
    "dueck_m64": (sm.simulate_dueck, sm._ExampleChannel,
                  lambda: (binary_pair_source(0.02), regression_scheme(m=64)),
                  dict(seed=1, e_max=2)),
    "generic": (sm.simulate_generic, sm._SampledChannel,
                lambda: (small_instance(xi=0.05, eps=0.02), small_scheme(m=8)),
                dict(seed=12, e_max=1)),
    "generic_m64": (sm.simulate_generic, sm._SampledChannel,
                    lambda: (small_instance(xi=0.05, eps=0.02), small_scheme(m=64)),
                    dict(seed=1, e_max=1)),
    "generic_folded": (sm.simulate_generic, sm._SampledChannel,
                       lambda: (folded_instance(), small_scheme(m=8)), dict(seed=5)),
}


def count_blocks(monkeypatch, channel, m) -> list:
    """Patch channel.transmit to append each block's trial count to the
    returned list."""
    transmit, blocks = channel.transmit, []

    def counted(self, uniforms, codewords):
        blocks.append(codewords[0].shape[0] // m)
        return transmit(self, uniforms, codewords)

    monkeypatch.setattr(channel, "transmit", counted)
    return blocks


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_split_does_not_change_the_report(name, monkeypatch):
    chain, channel, setup, options = BLOCK_CASES[name]
    source, sp = setup()
    blocks = count_blocks(monkeypatch, channel, sp.m)
    reports = []
    # one trial per block, even blocks under a cap of 3, the whole run as one block
    for per_block, sizes in ((1, [1] * 7), (3, [2, 2, 3]), (1 << 40, [7])):
        monkeypatch.setattr(sm, "_BLOCK_SYMBOLS", per_block * sp.m * sp.l)
        blocks.clear()
        reports.append(cli.json_text(chain(source, sp, trials=7, **options).to_dict()))
        assert blocks == sizes
    assert reports[0] == reports[1] == reports[2]
    searched = json.loads(reports[0])["extras"]["outer_decode"]["searched"]
    if name == "generic_folded":
        # K is not the source: no outer decode runs
        assert searched == [0, 0]
    else:
        # each trial's outer decode searched at least its baseline
        assert min(searched) >= 7


@settings(derandomize=True, max_examples=300, deadline=None)
@given(trials=st.integers(1, 10 ** 5), per_block=st.integers(1, 10 ** 4))
def test_block_edges_split_the_trials_evenly_in_order(trials, per_block):
    edges = sm._block_edges(trials, per_block)
    sizes = np.diff(edges)
    # trial order, covering [0, trials) with no empty block
    assert edges[0] == 0 and edges[-1] == trials and sizes.min() >= 1
    assert len(sizes) == math.ceil(trials / per_block)
    assert sizes.max() <= per_block
    assert sizes.max() - sizes.min() <= 1


# the benchmark chains' shapes: 50 trials of 64 x 32 (dueck_chain) and 30 of
# 64 x 16 (generic_chain) at the default _BLOCK_SYMBOLS
@pytest.mark.parametrize("name, sp, trials, sizes", [
    ("dueck", regression_scheme(m=64), 50, [10] * 5),
    ("generic", small_scheme(m=64), 30, [15, 15]),
], ids=["dueck", "generic"])
def test_default_blocking_of_the_workload_shapes(name, sp, trials, sizes, monkeypatch):
    chain, channel, setup, options = BLOCK_CASES[name]
    source, _ = setup()
    blocks = count_blocks(monkeypatch, channel, sp.m)
    chain(source, sp, trials=trials, **options)
    assert blocks == sizes


@pytest.mark.parametrize("name", ["dueck", "generic"])
def test_each_trial_builds_one_generator(name, monkeypatch):
    # every uniform of a trial, interleaver keys included, comes from its
    # (seed, t) generator: two more trials build exactly two more generators
    chain, _, setup, options = BLOCK_CASES[name]
    source, sp = setup()
    default_rng, built = np.random.default_rng, []

    def counted(*args, **kwargs):
        built.append(1)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    counts = []
    for trials in (3, 5):
        built.clear()
        chain(source, sp, trials=trials, **options)
        counts.append(len(built))
    assert counts[1] - counts[0] == 2


def test_dueck_envelope_check_raises_when_a_row_escapes(monkeypatch):
    # diagonal source on the full cube: every row is typical and the users
    # agree, so a wrong index in any row of a block escapes the envelope
    transmit = sm._ExampleChannel.transmit

    def corrupt_last_row(self, uniforms, codewords):
        (index, _), probe = transmit(self, uniforms, codewords)
        index = index.copy()
        index[-1] ^= 1
        return (index, index), probe

    monkeypatch.setattr(sm._ExampleChannel, "transmit", corrupt_last_row)
    joint = pk.JointPmf([[0.5, 0.0], [0.0, 0.5]])
    with pytest.raises(AssertionError, match="escaped the mismatch/atypicality envelope"):
        sm.simulate_dueck(joint, regression_scheme(m=16), trials=7, seed=5, e_max=1)


# ---------------------------------------------------------------------------
# interleaving statistics
# ---------------------------------------------------------------------------

def make_position_law(l=6, k=3):
    out = []
    for i in range(l):
        v = np.full(k, 0.1)
        v[i % k] = 1.0 - 0.1 * (k - 1)
        out.append(pk.Pmf(v))
    return out


def test_interleave_iid_constant_rows():
    law = [pk.Pmf([0.0, 1.0, 0.0])] * 4
    rep = sm.interleave_iid_test(law, m=400, seed=1)
    assert rep.pooled_p == 1.0
    assert rep.passed


def test_interleave_iid_passes_and_control_fails():
    law = make_position_law()
    rep = sm.interleave_iid_test(law, m=4000, seed=3)
    assert rep.passed
    assert all(p > 1e-6 for p in rep.column_p)
    ctrl = sm.interleave_iid_test(law, m=4000, seed=3, interleaved=False)
    assert not ctrl.passed
    assert ctrl.pooled_p < 1e-9


@pytest.mark.parametrize("m", [0, -4])
def test_interleave_iid_rejects_empty_matrix(m):
    with pytest.raises(ValueError, match="m must be at least 1"):
        sm.interleave_iid_test(make_position_law(), m=m, seed=1)


def test_interleave_iid_report_serializes():
    rep = sm.interleave_iid_test(make_position_law(), m=500, seed=2)
    d = rep.to_dict()
    assert set(d) >= {"pooled_p", "column_p", "independence_p", "passed"}


# ---------------------------------------------------------------------------
# ensemble error vs the exponent
# ---------------------------------------------------------------------------

def test_cc_exponent_noiseless_channel_zero_errors():
    rep = sm.cc_exponent_test(pk.Dmc.identity(2), (12, 12), rate=0.2, l=24,
                              codebooks=5, trials_per_book=10, seed=2)
    assert rep.errors == 0
    assert rep.passed


def test_cc_exponent_vacuous_above_capacity():
    # the book is the whole type class of (8, 8), 12870 words of 16 symbols
    w = pk.Dmc.binary_symmetric(0.05)
    cap = pk.mutual_information(pk.Pmf.uniform(2), w)
    rep = sm.cc_exponent_test(w, (8, 8), rate=1.2 * cap, l=16,
                              codebooks=2, trials_per_book=5, seed=2)
    assert rep.exponent == 0.0
    assert rep.bound >= 2.0
    assert rep.passed


def test_cc_exponent_half_capacity_run():
    w = pk.Dmc.binary_symmetric(0.05)
    cap = pk.mutual_information(pk.Pmf.uniform(2), w)
    rep = sm.cc_exponent_test(w, (12, 12), rate=0.5 * cap, l=24,
                              codebooks=25, trials_per_book=20, seed=11)
    assert rep.decoded == 500
    assert rep.empirical <= rep.bound
    assert rep.passed


def test_cc_exponent_large_rate_caps_the_codebook(codebook_sizes):
    # l * R = 800 would overflow exp; at a rate above capacity the test
    # auto-passes with every codebook at its cap, the 70-word type class
    rep = sm.cc_exponent_test(pk.Dmc.binary_symmetric(0.1), (4, 4), rate=100.0, l=8,
                              codebooks=2, trials_per_book=5, seed=1)
    assert rep.exponent == 0.0 and rep.passed
    assert codebook_sizes == [70, 70]


def test_codebook_size_is_floor_exp_between_least_and_cap():
    assert sm._codebook_size(math.log(5.5), 2, 70) == 5
    assert sm._codebook_size(0.0, 2, 70) == 2
    assert sm._codebook_size(1e6, 2, 70) == 70
    assert sm._codebook_size(math.inf, 1, 3 ** 1000) == 3 ** 1000
    assert sm._codebook_size(5.0, 2, 1) == 1


@pytest.mark.parametrize("codebooks, trials_per_book", [(0, 5), (2, 0), (-1, 5), (2, -3)])
def test_cc_exponent_rejects_empty_ensemble(codebooks, trials_per_book):
    # with nothing decoded there is no error rate to set against the bound
    with pytest.raises(ValueError, match="must be at least 1"):
        sm.cc_exponent_test(pk.Dmc.binary_symmetric(0.1), (4, 4), rate=0.1, l=8,
                            codebooks=codebooks, trials_per_book=trials_per_book,
                            seed=1)
