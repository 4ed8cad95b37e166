"""Shared oracles and fixture builders for the test suite.

Everything here is deliberately independent of the package's main code
paths: brute-force sums, dense grids, and hand-rolled loops that the fast
implementations are checked against.
"""

import math

import numpy as np

from fblic import bounds as bd
from fblic import probkit as pk


def entropy_brute(probs) -> float:
    """Direct -sum p log p with an explicit loop."""
    total = 0.0
    for p in probs:
        if p > 0:
            total -= p * math.log(p)
    return total


def kl_row(v, w) -> float:
    total = 0.0
    for a, b in zip(v, w):
        if a > 0 and b == 0:
            return math.inf
        if a > 0:
            total += a * math.log(a / b)
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


def small_scheme(l: int = 16, delta: float = 0.75, la_bits: int = 2,
                 rho: float = 0.02, m: int = 64) -> bd.SchemeParams:
    ln2 = math.log(2.0)
    a = la_bits * ln2 / l
    return bd.SchemeParams(l=l, delta=delta, A=a, B=(l - la_bits) * ln2 / l,
                           rho=rho, m=m)
