"""Shared oracles and fixture builders for the test suite.

Everything here is deliberately independent of the package's main code
paths: brute-force sums, dense grids, and hand-rolled loops that the fast
implementations are checked against.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from fblic import bounds as bd
from fblic import codec as cd
from fblic import probkit as pk


def entropy_brute(probs) -> float:
    """Direct -sum p log p with an explicit loop."""
    total = 0.0
    for p in probs:
        if p > 0:
            total -= p * math.log(p)
    return total


def mi_from_joint(joint) -> float:
    joint = np.asarray(joint, dtype=float)
    pr = joint.sum(axis=1)
    pc = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0:
                total += joint[i, j] * math.log(joint[i, j] / (pr[i] * pc[j]))
    return total


def er_grid_oracle(rate: float, channel: pk.Dmc, p: pk.Pmf, res: int = 1001) -> float:
    """Dense grid search over binary test channels for the exponent.

    V = [[1-v0, v0], [v1, 1-v1]] on a res x res grid; the objective is
    D(V||W|p) + max(I(p;V) - R, 0) with support violations excluded.
    """
    w = channel.rows
    p0, p1 = float(p.probs[0]), float(p.probs[1])
    v0 = np.linspace(0.0, 1.0, res)[:, None]
    v1 = np.linspace(0.0, 1.0, res)[None, :]

    def kl_bern(a, e0, e1):
        # KL([1-a, a] || [e0, e1]) elementwise, +inf off support
        with np.errstate(divide="ignore", invalid="ignore"):
            t0 = np.where(1.0 - a > 0, (1.0 - a) * (np.log(np.maximum(1.0 - a, 1e-320)) - math.log(e0 if e0 > 0 else 1)), 0.0)
            t1 = np.where(a > 0, a * (np.log(np.maximum(a, 1e-320)) - math.log(e1 if e1 > 0 else 1)), 0.0)
        out = t0 + t1
        bad = ((1.0 - a > 0) & (e0 == 0)) | ((a > 0) & (e1 == 0))
        return np.where(bad, np.inf, out)

    d = p0 * kl_bern(v0, w[0, 0], w[0, 1]) + p1 * kl_bern(v1, w[1, 0], w[1, 1])
    q1 = p0 * v0 + p1 * v1  # output-1 marginal

    def h_bern(a):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(a > 0, -a * np.log(np.maximum(a, 1e-320)), 0.0)
            t = t + np.where(1.0 - a > 0, -(1.0 - a) * np.log(np.maximum(1.0 - a, 1e-320)), 0.0)
        return t

    mi = h_bern(q1) - p0 * h_bern(v0) - p1 * h_bern(v1)
    mi = np.maximum(mi, 0.0)
    objective = d + np.maximum(mi - rate, 0.0)
    return float(np.nanmin(objective))


def _d_and_i(p, v, w):
    """D(V||W|p) and I(p;V), both clamped at 0."""
    mask = v > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        logv = np.log(np.maximum(v, 1e-320))
        d_terms = np.where(mask, v * (logv - np.log(np.maximum(w, 1e-320))), 0.0)
        q = p @ v
        i_terms = np.where(mask & (q[None, :] > 0.0),
                           v * (logv - np.log(np.maximum(q, 1e-320))[None, :]), 0.0)
    return (max(0.0, float((p[:, None] * d_terms).sum())),
            max(0.0, float((p[:, None] * i_terms).sum())))


def _two_branch_inner(p, w, lam, tol, max_iters, v0=None):
    """min D(V||W|p) + lam*I(p;V) by the closed-form alternating steps, full V kept."""
    active = p > 0.0
    v = w.copy() if v0 is None else v0.copy()
    v[~active] = w[~active]
    a = 1.0 / (1.0 + lam)
    prev = math.inf
    iters = 0
    d_val = i_val = 0.0
    for iters in range(1, max_iters + 1):
        q = p @ v
        with np.errstate(divide="ignore"):
            logw = np.where(w > 0.0, np.log(np.maximum(w, 1e-320)), -np.inf)
            logq = np.where(q > 0.0, np.log(np.maximum(q, 1e-320)), -np.inf)
        logv = a * logw + (1.0 - a) * logq[None, :]
        logv[~np.isfinite(logv)] = -np.inf
        vn = np.exp(logv - logv.max(axis=1, keepdims=True))
        vn /= vn.sum(axis=1, keepdims=True)
        v = np.where(active[:, None], vn, w)
        d_val, i_val = _d_and_i(p, v, w)
        cur = d_val + lam * i_val
        if abs(prev - cur) <= tol * max(1.0, abs(cur)):
            break
        prev = cur
    return v, d_val, i_val, iters


def er_two_branch_reference(rate: float, channel: pk.Dmc, p: pk.Pmf,
                            tolerance: float = 1e-6, max_iters: int = 100_000,
                            restarts: int = 8, seed: int = 0) -> float:
    """The exponent solved as two smooth branches (the solver the dual search replaced).

    * min D + I - R unconstrained, from V = W and restarts - 1 random
      starts; its value is E_r only when its minimizer has I(p;V) >= R;
    * min D subject to I(p;V) <= R, by doubling the penalty weight lam in
      D + lam*I until the constraint holds, then bisecting lam.

    E_r is the smaller valid branch value. Raises RuntimeError at the cap.
    """
    pr, w = p.probs.copy(), channel.rows.copy()
    if rate >= pk.mutual_information(p, channel) - 1e-9:
        return 0.0
    tol = min(tolerance * 1e-3, 1e-10)
    spent = 0
    rng = np.random.default_rng(seed)
    inits = [None]
    for _ in range(max(0, restarts - 1)):
        rnd = rng.random(w.shape) * (w > 0.0)
        inits.append(rnd / np.maximum(rnd.sum(axis=1, keepdims=True), 1e-300))
    best = None
    for v0 in inits:
        _, d_val, i_val, used = _two_branch_inner(pr, w, 1.0, tol, max_iters - spent, v0)
        spent += used
        if best is None or d_val + i_val < best[0]:
            best = (d_val + i_val, i_val)
        if spent >= max_iters:
            raise RuntimeError("iteration cap reached in the unconstrained branch")
    candidates = [best[0] - rate] if best[1] >= rate - 1e-9 else []

    lo, hi, v = 0.0, 1.0, w.copy()
    for _ in range(80):
        v, d_hi, i_hi, used = _two_branch_inner(pr, w, hi, tol, max_iters - spent, v)
        spent += used
        if spent >= max_iters:
            raise RuntimeError("iteration cap reached while bracketing")
        if i_hi <= rate:
            break
        lo, hi = hi, 2.0 * hi
    else:
        # no V with support in W reaches I <= R; the unconstrained branch holds
        return max(0.0, min(candidates))
    d_at = d_hi
    for _ in range(200):
        if abs(i_hi - rate) <= max(1e-12, 1e-9 * max(1.0, rate)):
            break
        mid = 0.5 * (lo + hi)
        v, d_mid, i_mid, used = _two_branch_inner(pr, w, mid, tol, max_iters - spent, v)
        spent += used
        if spent >= max_iters:
            raise RuntimeError("iteration cap reached in bisection")
        if i_mid > rate:
            lo = mid
        else:
            hi, d_at, i_hi = mid, d_mid, i_mid
    return max(0.0, min(candidates + [d_at]))


def cross_ic(eps1: float, eps2: float, leak1: float, leak2: float) -> np.ndarray:
    """Binary interference channel: y_j = x_j xor Bern(eps_j + leak_j*[x_other=1])."""
    w = np.zeros((2, 2, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            e1 = eps1 + leak1 * x2
            e2 = eps2 + leak2 * x1
            for y1 in range(2):
                for y2 in range(2):
                    p1 = 1 - e1 if y1 == x1 else e1
                    p2 = 1 - e2 if y2 == x2 else e2
                    w[x1, x2, y1, y2] = p1 * p2
    return w


def mix_kernel(stay: float, n: int = 2) -> np.ndarray:
    """x = u with probability stay, x = v otherwise."""
    p = np.zeros((n, n, n))
    for u in range(n):
        for v in range(n):
            p[u, v, u] += stay
            p[u, v, v] += 1.0 - stay
    return p


def binary_pair_source(xi: float, bias: float = 0.5) -> pk.JointPmf:
    """Symmetric binary pair with per-symbol mismatch probability xi."""
    same = 1.0 - xi
    return pk.JointPmf([
        [bias * same, bias * xi],
        [(1 - bias) * xi, (1 - bias) * same],
    ])


def small_instance(xi: float = 0.01, stay: float = 0.98, eps: float = 0.005,
                   leak: float = 0.01) -> bd.ProblemInstance:
    """A well-conditioned binary instance for pipeline and bound tests."""
    return bd.ProblemInstance(
        source=binary_pair_source(xi),
        f1=[0, 1], f2=[0, 1],
        ic=cross_ic(eps, eps, leak, leak),
        p_u=pk.Pmf([0.5, 0.5]),
        p_v1=pk.Pmf([0.5, 0.5]), p_v2=pk.Pmf([0.5, 0.5]),
        p_x1_given_uv1=mix_kernel(stay), p_x2_given_uv2=mix_kernel(stay),
    )


def folded_instance() -> bd.ProblemInstance:
    """A 4-symbol source folded onto 2 common-part symbols: K is not the
    source, so the generic chain skips the outer decode."""
    src = pk.JointPmf([[0.24, 0.01, 0.0, 0.0], [0.01, 0.24, 0.0, 0.0],
                       [0.0, 0.0, 0.24, 0.01], [0.0, 0.0, 0.01, 0.24]])
    return bd.ProblemInstance(
        source=src, f1=[0, 1, 0, 1], f2=[0, 1, 0, 1],
        ic=cross_ic(0.005, 0.005, 0.01, 0.01), p_u=pk.Pmf([0.5, 0.5]),
        p_v1=pk.Pmf([0.5, 0.5]), p_v2=pk.Pmf([0.5, 0.5]),
        p_x1_given_uv1=mix_kernel(0.98), p_x2_given_uv2=mix_kernel(0.98))


def small_scheme(l: int = 16, delta: float = 0.75, la_bits: int = 2,
                 rho: float = 0.02, m: int = 64) -> bd.SchemeParams:
    ln2 = math.log(2.0)
    a = la_bits * ln2 / l
    return bd.SchemeParams(l=l, delta=delta, A=a, B=(l - la_bits) * ln2 / l,
                           rho=rho, m=m)


def random_instance(rng, nu: int, nv: tuple, nx: tuple, ny: tuple) -> bd.ProblemInstance:
    """A dense instance with Dirichlet-drawn laws on the given alphabet sizes
    (nv, nx and ny give user 1's size, then user 2's) and a 2 x 3 source."""
    def kernel(*shape):
        return rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    return bd.ProblemInstance(
        source=pk.JointPmf(kernel(6).reshape(2, 3)), f1=[0, 1], f2=[1, 0, 1],
        ic=kernel(nx[0] * nx[1], ny[0] * ny[1]).reshape(nx[0], nx[1], ny[0], ny[1]),
        p_u=pk.Pmf(kernel(nu)), p_v1=pk.Pmf(kernel(nv[0])), p_v2=pk.Pmf(kernel(nv[1])),
        p_x1_given_uv1=kernel(nu, nv[0], nx[0]), p_x2_given_uv2=kernel(nu, nv[1], nx[1]))


def swapped_instance(inst: bd.ProblemInstance) -> bd.ProblemInstance:
    """inst with the two users' roles swapped: the source transposed, f1 and
    f2 exchanged, W's axes (1, 0, 3, 2), and the users' pmfs and kernels
    exchanged."""
    return bd.ProblemInstance(
        source=pk.JointPmf(inst.source.probs.T), f1=inst.f2, f2=inst.f1,
        ic=inst.ic.transpose(1, 0, 3, 2), p_u=inst.p_u, p_v1=inst.p_v2, p_v2=inst.p_v1,
        p_x1_given_uv1=inst.p_x2_given_uv2, p_x2_given_uv2=inst.p_x1_given_uv1,
        k_size=inst.k_size)


def single_letter_oracle(inst: bd.ProblemInstance) -> dict:
    """Per-user p(y_j | u), law of (V_j, Y_j) and I(X_j; Y_j | U), each read
    off the full single-letter law p(u, v1, v2, x1, x2, y1, y2), which is
    summed one plain loop at a time."""
    (nx1, nx2), (ny1, ny2) = inst.nx, inst.ny
    nu, nv1, nv2 = len(inst.p_u), len(inst.p_v1), len(inst.p_v2)
    p_uy = [np.zeros((nu, ny1)), np.zeros((nu, ny2))]
    p_vy = [np.zeros((nv1, ny1)), np.zeros((nv2, ny2))]
    p_uxy = [np.zeros((nu, nx1, ny1)), np.zeros((nu, nx2, ny2))]
    for u, v1, v2, x1, x2, y1, y2 in itertools.product(
            range(nu), range(nv1), range(nv2), range(nx1), range(nx2), range(ny1), range(ny2)):
        p = (inst.p_u.probs[u] * inst.p_v1.probs[v1] * inst.p_v2.probs[v2]
             * inst.p_x1_given_uv1[u, v1, x1] * inst.p_x2_given_uv2[u, v2, x2]
             * inst.ic[x1, x2, y1, y2])
        for j, (v, x, y) in enumerate(((v1, x1, y1), (v2, x2, y2))):
            p_uy[j][u, y] += p
            p_vy[j][v, y] += p
            p_uxy[j][u, x, y] += p
    out = {}
    for j in (1, 2):
        joint = p_uxy[j - 1]
        cond_mi = 0.0
        for u, x, y in itertools.product(*(range(n) for n in joint.shape)):
            if joint[u, x, y] > 0.0:
                cond_mi += joint[u, x, y] * math.log(
                    joint[u, x, y] * joint[u].sum() / (joint[u, x].sum() * joint[u, :, y].sum()))
        out[j] = {"induced": p_uy[j - 1] / inst.p_u.probs[:, None],
                  "joint_vy": p_vy[j - 1], "cond_mi": cond_mi}
    return out


# ---------------------------------------------------------------------------
# the inner ML decision and the case-bound maximum, one plain loop at a time
# ---------------------------------------------------------------------------

def ml_decode_oracle(words, y, channel: pk.Dmc) -> list:
    """ML word per row of y, from each (row, word) pair's integer joint-type
    counts N[x][y'], tallied one position at a time. A count matrix scores
    sum N[x][y'] log W[x][y'], added in (x, y') order with the codec's
    sentinel for a zero-probability transition, so equal joint types
    score alike; the first word of the highest score wins."""
    rows = channel.rows
    nx, ny = rows.shape
    logw = np.where(rows > 0.0, np.log(np.where(rows > 0.0, rows, 1.0)), cd._NEG_INF_LLH)
    out = []
    for row in np.asarray(y).tolist():
        best, pick = -math.inf, None
        for i, word in enumerate(np.asarray(words).tolist()):
            counts = [[0] * ny for _ in range(nx)]
            for a, b in zip(word, row):
                counts[a][b] += 1
            score = 0.0
            for a in range(nx):
                for b in range(ny):
                    score += counts[a][b] * float(logw[a, b])
            if score > best:
                best, pick = score, i
        out.append(pick)
    return out


def ascent_max_h_y0(a: int, starts: int, iters: int, seed: int) -> float:
    """max H(Y0) over product input pmfs by multiplicative-weight ascent from
    `starts` random starts and three deterministic ones (uniform, uniform
    off symbol 0, half on symbol 1), with no structural assumption."""
    rng = np.random.default_rng(seed)
    n = starts + 3
    p = rng.dirichlet(np.ones(a), size=n)
    q = rng.dirichlet(np.ones(a), size=n)
    p[0] = q[0] = np.full(a, 1.0 / a)
    off = np.zeros(a)
    off[1:] = 1.0 / (a - 1)
    p[1] = q[1] = off
    half = np.full(a, 0.5 / max(1, a - 1))
    half[1] = 0.5
    half[0] = 0.0
    half /= half.sum()
    p[2] = q[2] = half

    best, step = 0.0, 0.25
    for _ in range(iters):
        r = p * q
        r[:, 0] = 1.0 - r[:, 1:].sum(axis=1)
        r = np.clip(r, 1e-300, 1.0)
        h = -(r * np.log(r)).sum(axis=1)
        best = max(best, float(h.max()))
        ln_ratio = np.log(r[:, :1]) - np.log(r)  # ln(r0 / r_u)
        grad_p = np.clip(q * ln_ratio, -50.0, 50.0)
        grad_q = np.clip(p * ln_ratio, -50.0, 50.0)
        grad_p[:, 0] = 0.0
        grad_q[:, 0] = 0.0
        p = p * np.exp(step * grad_p)
        q = q * np.exp(step * grad_q)
        p /= p.sum(axis=1, keepdims=True)
        q /= q.sum(axis=1, keepdims=True)
    return best


# ---------------------------------------------------------------------------
# the outer decoder one matrix at a time, and the row-based outer decoder:
# rules that build every candidate as a whole row, and a search that finds
# each candidate's digest change from its bit planes; the reference the
# substitution-based codec.OuterDecoder must equal
# ---------------------------------------------------------------------------

class DecodeResult(NamedTuple):
    status: str  # ok | ambiguous | failed
    matrix: np.ndarray | None  # the accepted matrix, None unless ok
    matches: int
    searched: int


def decode_one(decoder, khat, need):
    """decoder.decode on the one-trial stack of khat and its syndrome need."""
    stack = np.array(khat, dtype=np.int64)[None]
    res = decoder.decode(stack, np.asarray(need, dtype=np.uint64)[None])
    status = str(res.status[0])
    return DecodeResult(status, stack[0] if status == "ok" else None,
                        int(res.matches[0]), int(res.searched[0]))


def _row_substitutions(base, n_pos, alphabet_size, radii):
    """Every row of base with r of its first n_pos symbols replaced, for each
    r in radii, nearest first: (cands, owner)."""
    m, l = base.shape
    subs = []
    for radius in radii:
        sites = np.array(list(itertools.combinations(range(n_pos), radius)),
                         dtype=np.int64).reshape(-1, radius)
        offsets = np.array(list(itertools.product(range(alphabet_size - 1), repeat=radius)),
                           dtype=np.int64).reshape(-1, radius)
        pos = np.repeat(sites, offsets.shape[0], axis=0)
        alt = np.tile(offsets, (sites.shape[0], 1))
        out = np.repeat(base[:, None, :], pos.shape[0], axis=1)
        flat = np.arange(pos.shape[0])[:, None] * l + pos
        # offset k is the k-th symbol, ascending, other than the current one
        out.reshape(m, -1)[:, flat] = alt + (alt >= base[:, pos])
        subs.append(out)
    out = np.concatenate(subs, axis=1)
    return out.reshape(-1, l), np.repeat(np.arange(m), out.shape[1])


def hamming_ball_rows(alphabet_size, radius=1):
    """Row form of codec.hamming_ball_rule."""
    return lambda base: _row_substitutions(base, base.shape[1], alphabet_size,
                                           range(1, radius + 1))


def prefix_flip_rows(code):
    """Row form of codec.prefix_flip_rule (same preconditions)."""
    cd.prefix_flip_rule(code)
    alphabet_size = code.p_k1.alphabet_size
    prefix_syms = -(-code.la_bits // (alphabet_size - 1).bit_length())
    return lambda base: _row_substitutions(base, min(prefix_syms, base.shape[1]),
                                           alphabet_size, (1,))


def _bit_planes(hasher, rows):
    n, width = rows.shape
    shifts = np.arange(hasher.sym_bits)
    return ((rows[:, :, None] >> shifts) & 1).astype(bool).reshape(n, width * hasher.sym_bits)


def _distinct_changes(owner, planes):
    """Indices of the distinct nonzero (owner, planes row) pairs, in row order."""
    packed = np.packbits(planes, axis=1)
    keys = np.zeros((packed.shape[0], -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    keys[:, :packed.shape[1]] = packed
    keys = keys.view(np.uint64)
    order = np.lexsort((*keys.T, owner))  # stable, owner first
    k, o = keys[order], owner[order]
    first = np.ones(order.shape[0], dtype=bool)
    first[1:] = (o[1:] != o[:-1]) | (k[1:] != k[:-1]).any(axis=1)
    keep = order[first]
    return keep[planes[keep].any(axis=1)]


def _xor_columns(hasher, owners, planes):
    """The digest change, as (n, words), of XOR-ing planes[c] into the bits of row owners[c]."""
    c, pos = np.nonzero(planes)
    out = np.zeros((planes.shape[0], hasher.words), dtype=np.uint64)
    if c.size:
        starts = np.flatnonzero(np.r_[True, c[1:] != c[:-1]])
        gathered = hasher._cols[owners[c] * planes.shape[1] + pos]
        out[c[starts]] = np.bitwise_xor.reduceat(gathered, starts, axis=0)
    return out


def digest_words(hasher, mat):
    """One matrix's digest words: its syndrome against the zero matrix."""
    return hasher.syndromes(np.asarray(mat)[None], np.zeros((1, *np.shape(mat)), np.int64))[0]


def _capped(total, what):
    if total > 1 << 20:
        raise ValueError(f"refusing to build {total} {what}: more than 2^20")
    return total


def _extend_rows(table, owner, delta):
    idx, tdelta, lo, hi = table
    start = np.searchsorted(owner, hi, "right")
    counts = owner.shape[0] - start
    total = _capped(int(counts.sum()), "error patterns")
    src = np.repeat(np.arange(counts.shape[0]), counts)
    c = np.arange(total) - np.repeat(np.cumsum(counts) - counts - start, counts)
    return (np.column_stack([idx[src], c]), tdelta[src] ^ delta[c],
            np.minimum(lo[src], owner[c]), owner[c])


def _join_rows(left, right, need):
    order = np.argsort(right[1][:, 0], kind="stable")
    key = right[1][order, 0]
    target = left[1][:, 0] ^ need[0]
    lo = np.searchsorted(key, target, "left")
    counts = np.searchsorted(key, target, "right") - lo
    total = _capped(int(counts.sum()), "pattern pairs with equal digest keys")
    i = np.repeat(np.arange(target.shape[0]), counts)
    j = order[np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(total)]
    hit = (left[3][i] < right[2][j]) & ((left[1][i] ^ right[1][j]) == need).all(axis=1)
    return np.column_stack([left[0][i[hit]], right[0][j[hit]]])


def row_outer_decode(khat, digest, side, e_max, hasher):
    """codec.OuterDecoder on one matrix and the sent matrix's digest words, over
    a row rule side(base) -> (cands, owner): baseline rows and repeats within a
    row are dropped, each candidate's digest delta is read off its changed bit
    planes, and depth d joins tables T_(d // 2) and T_(d - d // 2), sorted per join."""
    if e_max < 0:
        raise ValueError("e_max must be non-negative")
    base = np.asarray(khat, dtype=np.int64).copy()
    if hasher.bits <= 0:
        status = "ok" if e_max == 0 else "ambiguous"
        return DecodeResult(status=status, matrix=base if e_max == 0 else None,
                            matches=1 if e_max == 0 else 2, searched=1)
    need = np.asarray(digest, dtype=np.uint64) ^ digest_words(hasher, base)
    cands, owner = (np.asarray(a, dtype=np.int64) for a in side(base))
    planes = _bit_planes(hasher, cands ^ base[owner])
    keep = _distinct_changes(owner, planes)
    cands, owner = cands[keep], owner[keep]
    delta = _xor_columns(hasher, owner, planes[keep])
    tables = [(np.zeros((1, 0), dtype=np.int64), np.zeros((1, hasher.words), dtype=np.uint64),
               np.array([base.shape[0]]), np.array([-1]))]
    found = []
    for d in range(e_max + 1):
        if len(tables) <= d - d // 2:
            tables.append(_extend_rows(tables[-1], owner, delta))
        found.append(_join_rows(tables[d // 2], tables[d - d // 2], need))
    searched = 1 + (cands.shape[0] if e_max >= 1 else 0) + sum(f.shape[0] for f in found[2:3])
    matches = sum(f.shape[0] for f in found)
    if matches != 1:
        return DecodeResult(status="failed" if matches == 0 else "ambiguous",
                            matrix=None, matches=matches, searched=searched)
    pattern = next(f[0] for f in found if f.shape[0])
    base[owner[pattern]] = cands[pattern]
    return DecodeResult(status="ok", matrix=base, matches=1, searched=searched)
