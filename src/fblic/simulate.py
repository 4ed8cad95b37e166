"""Monte Carlo harness: end-to-end chains and statistical validation runs.

Reproducibility contract: a run is fixed by its seed, whatever its
trials' grouping. It has two stages.

* Draw stage: each trial makes all of its random draws from one
  generator, that of (master seed, trial index). It draws uniforms, not
  symbols: one (1 + channel.uniforms, m, l) array whose layers are the
  source pairs' and then, on a generic instance, V_1's, V_2's, the
  channel's, user 1's and user 2's multiplexers' and the interleaver
  keys. A row's interleaver is the stable argsort of its keys.
* Block stage: the deterministic work (uniforms mapped to symbols,
  inner encode, deinterleaving, multiplexing, the channel outputs, inner
  decode, reconstruction, the (V, Y) probe counts and the envelope
  check) runs once over a block of trials, row by row, so how trials are
  grouped cannot change a row's result. A run of n trials is split, in
  trial order, into ceil(n / per_block) blocks whose sizes differ by at
  most one trial, where per_block is the number of trials in
  _BLOCK_SYMBOLS source symbols (m * l per trial), and at least one.
  Per block and user, one call computes the syndromes (the digest
  of the sent matrix XOR that of the baseline) and one the outer decode.

Every symbol of the two chains is drawn by the one inverse-CDF rule of
codec.draw_from_rows. interleave_iid_test draws its columns with numpy's
Generator.choice(p=...), which also maps one random() per symbol through
its CDF, but divides the CDF by its last entry first, so the two give the
same symbols whenever the pmf's float cumulative sum ends at exactly 1.

Aggregation is a sum of integer counters. Statistical pass thresholds
are three sigmas (or significance 0.01 for chi-square tests) and are
recorded in every report.

The private links are ideal rate-counted pipes: residual bits always
arrive (a capacity shortfall is flagged, not simulated as loss), while
the digest is truncated to whatever bit budget remains below the
configured capacity. Shrinking the budget therefore degrades the outer
decoder gracefully, which is what the capacity-slack regression checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as _bounds
from . import codec as _codec
from . import dueck as _dueck
from . import exponent as _exponent
from .probkit import Dmc, JointPmf, Pmf

_LN2 = math.log(2.0)

# Source symbols per block of trials, at most; a run is split evenly into
# as few blocks as that allows (_block_edges). Batching pays because the
# per-trial arrays (64 x 32 on the dueck chain, 64 x 16 on the generic
# chain) are too small to hide numpy's per-call cost, but one block for the
# whole run holds every trial's arrays at once, and bigger blocks grow the
# peak memory. 3 * 2^13 is the largest even block under the generic chain's
# cache cliff (the cap sweep in BENCH_35.json).
_BLOCK_SYMBOLS = 3 << 13


@dataclass
class TrialStats:
    """Aggregated outcome of a simulation run; each value is held once.

    Pairs are (user 1, user 2); rates are frequencies over trials * m rows,
    or over trials for matrix_failure_rate:

    * inner_error_rate: rows whose reconstructed common part K̂_j differs
      from K_1. Both users are compared with K_1, and user 2 rebuilds K̂_2
      from its own residual, so user 2's rate includes the rows where
      K_1 != K_2 (s1_neq_s2_rate; K_j = S_j on the worked example).
    * block_error_rate: rows of the final matrix (the outer decode's when
      it ends "ok", else the baseline K̂_j) that differ from S_j; 0 when no
      outer decode runs (K is not the source).
    * matrix_failure_rate: trials with at least one such row.
    * wrong_accepts: outer decodes that ended "ok" on a wrong matrix
      (counts, not rates).
    * s1_neq_s2_rate: rows where K_1 != K_2; xi_block_expected is its
      expectation xi^[l].

    rate_demand is the rate (nats/symbol) each private pipe must carry:
    residual bits plus the digest. satellite_capacity is the pipes'
    capacity, +inf where there is no private pipe (generic chain);
    rate_exceeded says the residual bits alone exceed it.

    phi_bound is the inner-layer miss bound phi = min(1, tau + xi^[l] + g)
    in the checkers' log-domain form (bounds._phi_from_logs), so it is the
    phi that check_thm1 reports for the same instance and scheme.
    """

    trials: int
    m: int
    l: int
    seed: int
    inner_error_rate: tuple
    block_error_rate: tuple
    matrix_failure_rate: tuple
    wrong_accepts: tuple
    rate_demand: float
    satellite_capacity: float
    rate_exceeded: bool
    phi_bound: float
    s1_neq_s2_rate: float
    xi_block_expected: float
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {k: getattr(self, k) for k in (
            "trials", "m", "l", "seed", "phi_bound", "s1_neq_s2_rate",
            "xi_block_expected")}
        for k in ("inner_error_rate", "block_error_rate", "matrix_failure_rate",
                  "wrong_accepts"):
            out[k] = list(getattr(self, k))
        for k in ("rate_demand", "satellite_capacity", "rate_exceeded", "extras"):
            out[k] = getattr(self, k)
        return out


def _codebook_size(log_words: float, least: int, cap: int) -> int:
    """min(cap, max(least, floor(exp(log_words)))). exp is taken only below
    log(cap), so it cannot overflow while cap < e^709; every caller caps the
    type class at 2^20 + 1 words or fewer with codec.type_class_size."""
    if log_words >= math.log(cap):
        return cap
    return min(cap, max(least, int(math.floor(math.exp(log_words)))))


def _child_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def _check_run(trials: int, hash_bits: int, e_max: int,
               capacity_slack: float = 0.0) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if e_max < 0:
        raise ValueError(f"e_max must be non-negative, got {e_max}")
    if hash_bits < 0:
        raise ValueError(f"hash_bits must be non-negative, got {hash_bits}")
    if not math.isfinite(capacity_slack):
        raise ValueError(f"capacity_slack must be finite, got {capacity_slack}")
    if capacity_slack < -1.0:
        # the private pipes would get a negative capacity
        raise ValueError(f"capacity_slack must be at least -1, got {capacity_slack}")


# ---------------------------------------------------------------------------
# the one chain: inner code over a shared channel, digest-verified binning
# ---------------------------------------------------------------------------

def _block_edges(trials: int, per_block: int) -> list[int]:
    """Trial-order edges of ceil(trials / per_block) blocks whose sizes
    differ by at most one trial: block b holds trials edges[b]..edges[b+1]-1."""
    n_blocks = -(-trials // per_block)
    return [trials * b // n_blocks for b in range(n_blocks + 1)]


def _simulate(sp, trials: int, seed: int, *, joint: JointPmf, maps,
              code, n_pos, digest_bits: int, e_max: int, outer: bool, channel,
              phi_bound: float, xi_block: float, extras: dict,
              capacity: float = math.inf, rate_exceeded: bool = False) -> TrialStats:
    """Sample sub-block pairs, map them to their common parts K, inner-code
    both users onto the shared channel, rebuild K from each decoded index
    and residual, then, when ``outer`` (K is the source itself), bin-decode
    each user's matrix against its digest_bits-bit digest; tally.

    Trials run in trial order in ceil(trials / per_block) blocks whose
    sizes differ by at most one trial (_block_edges), where per_block is
    max(1, _BLOCK_SYMBOLS // (m * l)). Each trial of a block first draws
    its uniforms; every stage up to the reconstructed baselines then runs
    once on the block's rows. Per user, one hasher.syndromes call gives
    every trial's outer-decode input, one decode call of the user's
    codec.OuterDecoder (built once per run) searches them all in trial
    order, and the outcomes, rows wrong, matrix failures and wrong
    accepts are tallied on the block's arrays. Trial t's (seed, t)
    generator draws one (1 + ``channel.uniforms``, m, l) array of
    uniforms, the pairs' layer first, which is copied into its rows of
    the block's array. The channel protocol:

    * ``channel.uniforms``: how many (m, l) layers a trial draws for it;
    * ``channel.transmit(uniforms, codewords)``: given the block's channel
      layers, each stacked trial after trial on the row axis, and both
      users' codewords, returns both users' decoded inner indices per row
      and the block's probe;
    * ``channel.check(differ, enc, bad)`` vets a user's inner-error rows,
      given the rows where K_1 != K_2 and both users' encodings;
    * ``channel.extras(probes)`` adds report fields.
    """
    m, l = sp.m, sp.l
    decoders = [
        _codec.OuterDecoder(
            _codec.MatrixHasher(digest_bits, _child_seed(seed, 0xD1, j), size, l, m), n_pos, e_max)
        for j, size in ((1, joint.row_size), (2, joint.col_size))
    ]
    demand = (code.lb_bits * m + digest_bits) * _LN2 / (m * l)
    pair_law = joint.probs.reshape(1, -1)  # one table row: pairs (s1, s2) row-major
    # per pair index: both users' source symbols, and both users' common parts
    sources = np.stack(np.divmod(np.arange(pair_law.shape[1]), joint.col_size))
    parts = np.stack([f.take(s) for f, s in zip(maps, sources)])
    edges = _block_edges(trials, max(1, _BLOCK_SYMBOLS // (m * l)))
    mismatch, probes = 0, []
    inner, rows_wrong, matrix_fail, wrong_accepts = ([0, 0] for _ in range(4))
    decodes = {k: [0, 0] for k in ("ok", "ambiguous", "failed", "searched")}
    for start, stop in zip(edges, edges[1:]):
        # the block's layers, each stacked trial after trial on the row axis;
        # trial t's own generator fills its rows of every layer
        u = np.empty((1 + channel.uniforms, (stop - start) * m, l))
        for i, t in enumerate(range(start, stop)):
            rng = np.random.default_rng(np.random.SeedSequence((int(seed), t)))
            u[:, i * m:(i + 1) * m] = rng.random((1 + channel.uniforms, m, l))
        pair = _codec.draw_from_rows(pair_law, 0, u[0])
        kmats = parts.take(pair, axis=1)
        enc = [code.encode_rows(kmat) for kmat in kmats]
        index, probe = channel.transmit(u[1:], [e.codewords for e in enc])
        probes.append(probe)
        differ = (kmats[0] != kmats[1]).any(axis=1)
        mismatch += int(differ.sum())
        # both users' baselines in one unrank
        khats = code.reconstruct_rows(np.concatenate(index),
                                      np.concatenate([e.residual for e in enc])).reshape(2, -1, l)
        for j, khat in enumerate(khats):
            bad = (khat != kmats[0]).any(axis=1)
            inner[j] += int(bad.sum())
            channel.check(differ, enc, bad)
        if not outer:
            continue
        # outer implies both maps are the identity: K is the sent source
        for j, decoder in enumerate(decoders):
            sent, final = kmats[j].reshape(-1, m, l), khats[j].reshape(-1, m, l)
            result = decoder.decode(final, decoder.hasher.syndromes(sent, final))
            for status in ("ok", "ambiguous", "failed"):
                decodes[status][j] += int((result.status == status).sum())
            decodes["searched"][j] += int(result.searched.sum())
            wrong = (final != sent).any(axis=2)
            failed = wrong.any(axis=1)
            rows_wrong[j] += int(wrong.sum())
            matrix_fail[j] += int(failed.sum())
            wrong_accepts[j] += int(((result.status == "ok") & failed).sum())

    total_rows = trials * m
    return TrialStats(
        trials=trials, m=m, l=l, seed=seed,
        inner_error_rate=tuple(n / total_rows for n in inner),
        block_error_rate=tuple(n / total_rows for n in rows_wrong),
        matrix_failure_rate=tuple(n / trials for n in matrix_fail),
        wrong_accepts=tuple(wrong_accepts),
        rate_demand=demand, satellite_capacity=capacity, rate_exceeded=rate_exceeded,
        phi_bound=phi_bound,
        s1_neq_s2_rate=mismatch / total_rows,
        xi_block_expected=xi_block,
        extras={**extras, **channel.extras(probes), "outer_decode": decodes},
    )


class _ExampleChannel:
    """The worked example's deterministic shared channel: each symbol of the
    common codeword where both users send the same one, 0 elsewhere; both
    users see the same output and decode it exactly."""

    uniforms = 0  # the channel is deterministic: nothing to draw

    def __init__(self, code):
        self.code = code

    def transmit(self, uniforms, codewords):
        c1, c2 = codewords
        y = np.where(c1 == c2, c1, 0)
        index, _ = self.code.decode_exact_rows(y)
        return (index, index), None

    def check(self, differ, enc, bad) -> None:
        envelope = differ | enc[0].atypical
        if not bool(np.all(~bad | envelope)):
            raise AssertionError(
                "an inner error escaped the mismatch/atypicality envelope")

    def extras(self, probes) -> dict:
        return {}


class _SampledChannel:
    """A generic instance's interference channel: each user's V drawn and
    deinterleaved, inputs multiplexed from (U, V), the channel sampled, and
    U decoded by ML over each user's induced channel. The interleaved
    column-0 (V, Y) pairs are tallied for the channel-quality check."""

    uniforms = 6  # V_1, V_2, the channel, two multiplexers, interleaver keys

    def __init__(self, inst: _bounds.ProblemInstance, code, phi_bound: float):
        self.inst, self.code = inst, code
        self.phi_bound = phi_bound
        nx1, nx2 = inst.nx
        ny1, ny2 = inst.ny
        self.w = inst.ic.reshape(nx1 * nx2, ny1 * ny2)
        self.induced = (inst.induced_to_user(1), inst.induced_to_user(2))
        self.users = ((inst.p_v1, inst.p_x1_given_uv1, ny1),
                      (inst.p_v2, inst.p_x2_given_uv2, ny2))
        # both users' V laws as the rows of one table, zero-padded to one width
        self.p_v = np.zeros((2, max(len(inst.p_v1), len(inst.p_v2))))
        for j, (p_v, _, _) in enumerate(self.users):
            self.p_v[j, :len(p_v)] = p_v.probs

    def transmit(self, uniforms, codewords):
        v, channel, mux, keys = uniforms[:2], uniforms[2], uniforms[3:5], uniforms[5]
        perms = _codec.draw_permutations(keys)
        vpi = _codec.draw_from_rows(self.p_v, np.arange(2)[:, None, None], v)
        x = [_codec.multiplex_inputs(c, _codec.deinterleave(vpi[j], perms), px_uv, mux[j])
             for j, (c, (_, px_uv, _)) in enumerate(zip(codewords, self.users))]
        y_pair = _codec.draw_from_rows(self.w, x[0] * self.inst.nx[1] + x[1], channel)
        y = divmod(y_pair, self.inst.ny[1])
        index = tuple(self.code.decode_ml_rows(y[j], self.induced[j]) for j in (0, 1))
        vy = []
        for j, (p_v, _, ny) in enumerate(self.users):
            y0 = np.take_along_axis(y[j], perms.rows[:, :1], axis=1)[:, 0]  # interleaved column 0
            vy.append(np.bincount(vpi[j][:, 0] * ny + y0, minlength=len(p_v) * ny).reshape(-1, ny))
        return index, vy

    def check(self, differ, enc, bad) -> None:
        pass

    def extras(self, probes) -> dict:
        """(V, Y) column law against its ideal single-letter law, in total
        variation and in estimated mutual information."""
        quality = {}
        for j in (1, 2):
            counts = sum(p[j - 1] for p in probes)
            n = int(counts.sum())
            emp = counts / n
            # the instance's memo holds both laws and both I(V; Y) from phi's
            # thm1_quantities call
            ideal = self.inst.ideal_joint_vy(j).probs
            tv = 0.5 * float(np.abs(emp - ideal).sum())
            sigma_tv = 0.5 * float(np.sqrt(ideal * (1.0 - ideal) / n).sum())
            i_ideal = self.inst.mutual_information_vy(j)
            i_plug = _bounds._mutual_information(JointPmf(emp / emp.sum()))
            # Miller-Madow style first-order bias removal for the plug-in MI
            bias = (counts.shape[0] - 1) * (counts.shape[1] - 1) / (2.0 * n)
            i_emp = max(0.0, i_plug - bias)
            with np.errstate(divide="ignore", invalid="ignore"):
                pv = ideal.sum(axis=1, keepdims=True)
                py = ideal.sum(axis=0, keepdims=True)
                ratio = np.where(ideal > 0.0, ideal / (pv * py), 1.0)
                terms = np.where(ideal > 0.0, np.log(ratio), 0.0)
            var_mi = float((ideal * terms * terms).sum() - i_ideal ** 2)
            sigma_mi = math.sqrt(max(0.0, var_mi) / n) + bias
            lc = _bounds.loss_channel(min(self.phi_bound, 0.499999),
                                      len(self.inst.p_u), self.users[j - 1][2])
            quality[f"user{j}"] = {
                "tv": tv, "tv_threshold": self.phi_bound + 3.0 * sigma_tv,
                "mi_ideal": i_ideal, "mi_empirical": i_emp,
                "mi_gap": i_ideal - i_emp,
                "mi_gap_threshold": lc + 3.0 * sigma_mi,
                "samples": n,
            }
        return {"channel_quality": quality}


# ---------------------------------------------------------------------------
# the two set-ups: the worked example (or a materialized fixture) and
# generic layered instances
# ---------------------------------------------------------------------------

def simulate_dueck(
    source,
    sp: _bounds.SchemeParams,
    trials: int,
    seed: int,
    e_max: int = 2,
    hash_bits: int = 128,
    capacity_slack: float = 0.2,
) -> TrialStats:
    """The chain on the worked example's deterministic shared channel, with
    residuals and a digest on private pipes of capacity (1 + capacity_slack)
    times the full demand.

    source is the example's parameter triple or any square materialized
    joint pmf fixture (a^k <= 4096 for dense work). phi_bound is the
    checkers' log-domain phi of log tau, log xi^[l] and log g = -inf, as
    the shared channel is deterministic and injective.
    """
    _check_run(trials, hash_bits, e_max, capacity_slack)
    if isinstance(source, _dueck.DueckParams):
        joint = _dueck.build_source(source).materialize()
        a_sh = source.a
    elif isinstance(source, JointPmf):
        joint = source
        a_sh = joint.row_size
    else:
        raise TypeError("source must be example parameters or a joint pmf")
    if joint.row_size != joint.col_size:
        # the maps are the identity (K_j = S_j): one inner code serves both users
        raise ValueError(f"the joint pmf must be square, got {joint.row_size} x {joint.col_size}")

    p_s1 = joint.row_marginal()
    la_target = int(math.floor(sp.l * sp.A / _LN2 + 1e-9))
    code = _codec.InnerCode(p_s1, sp.l, sp.delta, _codec.FullCubeCode(a_sh, sp.l),
                            max_la_bits=la_target)

    # satellite budget: residuals first, the digest gets the remainder
    demand_full = (code.lb_bits * sp.m + hash_bits) * _LN2 / (sp.m * sp.l)
    capacity = demand_full * (1.0 + capacity_slack)
    budget_bits = int(math.floor(capacity * sp.m * sp.l / _LN2 + 1e-9))
    digest_bits = max(0, min(hash_bits, budget_bits - code.lb_bits * sp.m))

    try:
        n_pos = _codec.prefix_flip_rule(code)
    except ValueError:
        n_pos = None

    xi = max(0.0, 1.0 - float(np.trace(joint.probs)))
    xi_block = _bounds.xi_l(xi, sp.l)
    # the shared channel is deterministic and injective: no codeword-miss term
    phi_bound, _ = _bounds._phi_from_logs({
        "log_tau": _bounds.log_tau_l_delta(p_s1, sp.l, sp.delta),
        "log_xi_l": math.log(xi_block) if xi_block > 0.0 else -math.inf,
        "log_g": -math.inf,
    })
    return _simulate(
        sp, trials, seed, joint=joint,
        maps=(np.arange(joint.row_size), np.arange(joint.col_size)),
        code=code, n_pos=n_pos, digest_bits=digest_bits, e_max=e_max, outer=True,
        channel=_ExampleChannel(code), phi_bound=phi_bound, xi_block=xi_block,
        capacity=capacity, rate_exceeded=code.lb_bits * sp.m > budget_bits,
        extras={"e_max": e_max, "digest_bits": digest_bits, "hash_bits": hash_bits,
                "la_bits": code.la_bits, "lb_bits": code.lb_bits, "xi_symbol": xi})


def simulate_generic(
    inst: _bounds.ProblemInstance,
    sp: _bounds.SchemeParams,
    trials: int,
    seed: int,
    e_max: int = 1,
    hash_bits: int = 96,
) -> TrialStats:
    """The chain on an arbitrary instance at desk scale.

    The cloud-center codebook is constant composition with ML decoding
    over the induced channel; the outer layer is transmitted but
    validated at the channel level: the interleaved (V, Y) column law is
    compared against its ideal single-letter law in total variation and
    estimated mutual information, per the rate-loss bound it must obey.
    The outer decode runs only when K is the source itself. phi_bound is
    the checkers' log-domain phi of inst.thm1_quantities(sp). A codebook
    of more than 2^20 words, or of more than 2^24 symbols, is refused
    before anything is drawn.
    """
    _check_run(trials, hash_bits, e_max)
    comp = np.round(inst.p_u.probs * sp.l).astype(int)
    if comp.sum() != sp.l or not inst.p_u_is_type(sp.l):
        raise ValueError("p_U must be a type of denominator l")
    src = inst.source
    outer = (
        inst.k_size == src.row_size == src.col_size
        and np.array_equal(inst.f1, np.arange(src.row_size))
        and np.array_equal(inst.f2, np.arange(src.col_size))
    )
    p_k1 = inst.p_k1()
    n_words = _codebook_size(sp.l * sp.A, 1, _codec.type_class_size(comp, _codec.MAX_ROWS + 1))
    if n_words > _codec.MAX_ROWS:
        raise ValueError(f"refusing to draw a codebook of more than 2^20 words "
                         f"(l*A = {sp.l * sp.A:.6g} nats)")
    cc = _codec.sample_constant_composition(
        tuple(int(c) for c in comp), sp.l, _child_seed(seed, 0xCC), n_codewords=n_words)
    code = _codec.InnerCode(p_k1, sp.l, sp.delta, cc)
    phi_bound, _ = _bounds._phi_from_logs(inst.thm1_quantities(sp))
    return _simulate(
        sp, trials, seed, joint=src, maps=(inst.f1, inst.f2), code=code,
        n_pos=None,
        digest_bits=hash_bits, e_max=e_max, outer=outer,
        channel=_SampledChannel(inst, code, phi_bound),
        phi_bound=phi_bound, xi_block=inst.xi_block(sp.l),
        extras={"e_max": e_max, "digest_bits": hash_bits,
                "la_bits": code.la_bits, "lb_bits": code.lb_bits})


# ---------------------------------------------------------------------------
# statistical validation runs
# ---------------------------------------------------------------------------

@dataclass
class InterleaveReport:
    pooled_stat: float
    pooled_df: int
    pooled_p: float
    column_p: list
    independence_p: float
    significance: float
    interleaved: bool

    @property
    def passed(self) -> bool:
        return self.pooled_p > self.significance and self.independence_p > self.significance

    def to_dict(self) -> dict:
        return {
            "pooled_stat": self.pooled_stat, "pooled_df": self.pooled_df,
            "pooled_p": self.pooled_p, "column_p": self.column_p,
            "independence_p": self.independence_p,
            "significance": self.significance, "interleaved": self.interleaved,
            "passed": self.passed,
        }


def interleave_iid_test(position_pmfs, m: int, seed: int,
                        significance: float = 0.01,
                        interleaved: bool = True) -> InterleaveReport:
    """Chi-square columns of a (de)interleaved iid-row matrix against the
    position mixture, plus a disjoint-pair independence table.

    position_pmfs is the per-position product law of one row. With
    interleaved=False the raw columns are tested instead, which is the
    adversarial control: it must fail whenever the law is position
    dependent.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must lie in (0, 1), got {significance}")
    # scipy.stats costs about 70 MB and 0.3 s to import; only this test needs it
    from scipy import stats as sstats

    pmfs = list(position_pmfs)
    if not pmfs:
        raise ValueError("the position list is empty")
    if len({len(pm) for pm in pmfs}) > 1:
        raise ValueError(f"position pmfs differ in size: {[len(pm) for pm in pmfs]}")
    l = len(pmfs)
    k = len(pmfs[0])
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x17)))
    cols = [rng.choice(k, size=m, p=pm.probs) for pm in pmfs]
    mat = np.stack(cols, axis=1)
    if interleaved:
        perms = _codec.draw_permutations(rng.random((m, l)))
        mat = _codec.interleave(mat, perms)
    mixture = np.mean([pm.probs for pm in pmfs], axis=0)

    support = mixture > 0.0
    expected = mixture[support] * m
    df = int(support.sum()) - 1
    pooled_stat = 0.0
    pooled_df = 0
    column_p = []
    for i in range(l):
        observed = np.bincount(mat[:, i], minlength=k)[support]
        if df == 0:
            # single-symbol mixture: the match is exact by construction
            column_p.append(1.0)
            continue
        stat = float(((observed - expected) ** 2 / expected).sum())
        pooled_stat += stat
        pooled_df += df
        column_p.append(float(sstats.chi2.sf(stat, df)))
    pooled_p = float(sstats.chi2.sf(pooled_stat, pooled_df)) if pooled_df > 0 else 1.0

    # independence across rows: disjoint consecutive pairs within column 0
    a = mat[0:(m // 2) * 2:2, 0]
    b = mat[1:(m // 2) * 2:2, 0]
    table = np.zeros((k, k), dtype=np.int64)
    np.add.at(table, (a, b), 1)
    keep_r = table.sum(axis=1) > 0
    keep_c = table.sum(axis=0) > 0
    sub = table[np.ix_(keep_r, keep_c)]
    if sub.shape[0] > 1 and sub.shape[1] > 1:
        independence_p = float(sstats.chi2_contingency(sub).pvalue)
    else:
        independence_p = 1.0

    return InterleaveReport(
        pooled_stat=pooled_stat, pooled_df=pooled_df, pooled_p=pooled_p,
        column_p=column_p, independence_p=independence_p,
        significance=significance, interleaved=interleaved,
    )


@dataclass
class CcExponentReport:
    rate: float
    exponent: float
    bound: float
    empirical: float
    errors: int
    decoded: int
    codebooks: int

    @property
    def passed(self) -> bool:
        return self.empirical <= self.bound

    def to_dict(self) -> dict:
        return {
            "rate": self.rate, "exponent": self.exponent, "bound": self.bound,
            "empirical": self.empirical, "errors": self.errors,
            "decoded": self.decoded, "codebooks": self.codebooks,
            "passed": self.passed,
        }


def cc_exponent_test(channel: Dmc, composition, rate: float, l: int,
                     codebooks: int, trials_per_book: int, seed: int) -> CcExponentReport:
    """Ensemble-average ML error of constant-composition codes against
    2 exp(-l E_r(R)). Each book holds min(exp(lR), |type class|, 2^20)
    words (a subsampled ensemble keeps the empirical mean honest). A rate
    at or above I(p;W) makes the bound vacuous (E_r = 0, bound 2), so such
    a run passes, unless its book is past 2^24 symbols: then
    codec.sample_constant_composition refuses it ("refusing to draw N
    codewords of length l") before anything is drawn."""
    if codebooks < 1 or trials_per_book < 1:
        raise ValueError(f"codebooks and trials_per_book must be at least 1, "
                         f"got {codebooks} and {trials_per_book}")
    if not math.isfinite(rate):
        raise ValueError(f"rate must be finite, got {rate}")
    if l < 1:
        raise ValueError(f"l must be at least 1, got {l}")
    comp = tuple(int(c) for c in composition)
    if min(comp, default=0) < 0:
        raise ValueError(f"composition counts must be non-negative, got {min(comp)}")
    if sum(comp) != l:
        raise ValueError("composition must sum to the block length")
    p_u = Pmf(np.array(comp, dtype=float) / l)
    er = _exponent.ChannelExponent(p_u, channel).at(rate)
    bound = 2.0 * math.exp(-l * er)

    n_words = _codebook_size(l * rate, 2, _codec.type_class_size(comp, _codec.MAX_ROWS))
    errors = 0
    for b in range(codebooks):
        book = _codec.sample_constant_composition(
            comp, l, _child_seed(seed, 0xB0, b), n_codewords=n_words)
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x7A, b)))
        sent = rng.integers(0, n_words, size=trials_per_book)
        tx = book.codewords[sent]
        y = _codec.draw_from_rows(channel.rows, tx, rng.random(tx.shape))
        errors += int((_codec.ml_decode(book.codewords, y, channel) != sent).sum())

    decoded = codebooks * trials_per_book
    empirical = errors / decoded
    return CcExponentReport(rate=float(rate), exponent=float(er), bound=float(bound),
                            empirical=float(empirical), errors=errors,
                            decoded=decoded, codebooks=codebooks)
