"""Random coding exponent for constant-composition codes.

E_r(R, p, W) = min over test channels V of D(V||W|p) + |I(p;V) - R|+ is
solved in its Lagrange-dual form (Arimoto 1976; Csiszar-Korner ch. 10):

    E_r(R) = max over rho in [0, 1] of F(rho) - rho*R,
    F(rho) = min over V of D(V||W|p) + rho*I(p;V).

F is concave, and its slope at rho is I(p;V_rho), the mutual information
of the minimizing test channel, which falls as rho grows from
I(p;W) at rho = 0 (where V_0 = W). So the maximum sits at rho = 1 when
I(p;V_1) >= R (rates below the critical rate) and otherwise at the root
of I(p;V_rho) = R in (0, 1), which a regula falsi search (Anderson-Bjorck
variant) finds from the bracket [0, 1]. As E(rho) = F(rho) - rho*R is
concave with slope f = I(p;V_rho) - R, the maximum lies on the side of
rho that f points to and exceeds E(rho) by at most |f| times the distance
to that end of the bracket; the search stops when this bound falls below
the tolerance.

F(rho) is minimized by alternating closed-form steps: hold the output
pmf q fixed and set each row of V to the normalized geometric mixture
W^a q^(1-a), a = 1/(1+rho), then refresh q as the output marginal of V.
With q held, the step's value is read off the row normalizers
s(x) = sum_y W^a q^(1-a) as G(q) = -(1+rho) sum_x p(x) log s(x), which
falls monotonically to F(rho) and is the convergence test. Every solve
of the search starts from the previous solve's q.

Only the rho search depends on R. ChannelExponent, the one entry to the
solver, holds what depends on (p, W) alone and answers one rate per `at`
call, so a curve or a bounds grid builds it once and asks it at every rate.

The module also provides the two-user miss bound built from the exponent,
in log domain, over the induced channels p(y_j | u) that
bounds.ProblemInstance.induced_to_user derives, and the test that lets a
deterministic injective channel skip the solve.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .probkit import Dmc, Pmf, log_sum_exp

_ACTIVE_TOL = 1e-9
_TINY = np.finfo(float).tiny


class ExponentError(RuntimeError):
    """Raised when the solver hits its iteration cap or loses precision."""


def _minimize_d_plus_lambda_i(
    p: np.ndarray,
    w: np.ndarray,
    logw: np.ndarray,
    lam: float,
    tol: float,
    max_iters: int,
    q: np.ndarray,
) -> tuple[np.ndarray, float, float, int]:
    """Minimize D(V||W|p) + lam*I(p;V) by alternating closed-form steps.

    p > 0 everywhere and every output of w is reached by some input, so q
    stays positive unless it underflows; logw is log w with 0 where w = 0.
    q is the starting output pmf (p @ w starts from V = W). Returns
    (q, D, I, iterations) with q the output pmf of the returned V; D and I
    may round below 0.
    """
    a = 1.0 / (1.0 + lam)
    b = 1.0 - a
    wa = w ** a
    prev = math.inf
    iters = 0
    for iters in range(1, max_iters + 1):
        q_prev = q
        mix = wa * q ** b
        s = np.add.reduce(mix, axis=1)
        weights = p / s
        q = weights @ mix
        p_log_s = float(p @ np.log(s))
        cur = -(1.0 + lam) * p_log_s
        if abs(prev - cur) <= tol * max(1.0, abs(cur)):
            break
        prev = cur
    # V = mix / s. Under p(x)V(y|x), E[log W] = sum of weights * mix * log W and
    # E[log V] = a E[log W] + (1-a) q . log q_prev - p . log s; an output mass
    # that underflowed to 0 adds 0 to q . log q
    v_log_w = float(weights @ (mix * logw).sum(axis=1))
    d_val = b * (float(q @ np.log(np.maximum(q_prev, _TINY))) - v_log_w) - p_log_s
    i_val = d_val + v_log_w - float(q @ np.log(np.maximum(q, _TINY)))
    return q, d_val, i_val, iters


class ChannelExponent:
    """E_r(., p, W) for one input pmf and channel.

    Everything the search reads that does not depend on the rate is
    computed once, here: the law pruned to the inputs p uses and the
    outputs they reach, log W, the output pmf p.W and I(p;W); whether W is
    deterministic and injective is computed at its first use. `at` runs
    the rho search for one rate.
    """

    def __init__(self, input_pmf: Pmf, channel: Dmc):
        if len(input_pmf) != channel.num_inputs:
            raise ValueError("input pmf size does not match channel input alphabet")
        p, w = input_pmf.probs, channel.rows
        # inputs of zero probability and outputs no used input reaches play no part
        if not p.all():
            w = w[p > 0.0]
            p = p[p > 0.0]
        q_w = p @ w
        if not q_w.all():
            w = w[:, q_w > 0.0]
            q_w = q_w[q_w > 0.0]
        logw = np.log(w, out=np.zeros_like(w), where=w > 0.0)
        self._channel = channel
        self._p, self._w, self._logw, self._q_w = p, w, logw, q_w
        self.mutual_information = float(p @ (w * logw).sum(axis=1) - q_w @ np.log(q_w))

    @functools.cached_property
    def deterministic_injective(self) -> bool:
        # lazy: only log_g_rho_l reads it
        return is_deterministic_injective(self._channel)

    def at(self, rate: float, tolerance: float = 1e-6, max_iters: int = 100_000) -> float:
        """E_r(rate, p, W) >= 0, within the tolerance; max_iters caps the
        inner iterations summed over the whole search. A negative or NaN
        rate, or a tolerance that is not positive, is refused."""
        if not rate >= 0.0:
            raise ValueError(f"rate must be a non-negative number, got {rate!r}")
        if not tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        rate = float(rate)
        p, w, logw, q_w = self._p, self._w, self._logw, self._q_w
        i_w = self.mutual_information
        if rate >= i_w - _ACTIVE_TOL:
            return 0.0

        tol = min(tolerance * 1e-3, 1e-10)
        spent = 0

        def solve(rho: float, q_start: np.ndarray) -> tuple[np.ndarray, float, float]:
            """(q, slope I(p;V_rho) - R, value F(rho) - rho*R) at one rho."""
            nonlocal spent
            q_out, d_val, i_val, iters = _minimize_d_plus_lambda_i(
                p, w, logw, rho, tol, max_iters - spent, q_start)
            spent += iters
            if not math.isfinite(d_val + i_val):
                raise ExponentError(f"solve at rho={rho:.6g} lost precision")
            d_val, i_val = max(0.0, d_val), max(0.0, i_val)
            value = d_val + rho * (i_val - rate)
            if spent >= max_iters:
                raise ExponentError(f"iteration cap {max_iters} reached at rho={rho:.6g}")
            return q_out, i_val - rate, value

        # rho = 1: optimal when the slope there is still non-negative
        q_out, f_hi, value = solve(1.0, q_w)
        if f_hi >= -tol:
            return max(0.0, value)
        lo, hi, f_lo = 0.0, 1.0, i_w - rate
        side = -1  # the last point, rho = 1, lies on the high side
        while True:
            rho = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            q_out, f, value = solve(rho, q_out)
            # the maximum lies on the side of rho that f points to
            if f * ((hi if f > 0.0 else lo) - rho) <= tol:
                return max(0.0, value)
            # Anderson-Bjorck: scale down the value kept at an end that stays twice in a row
            if f > 0.0:
                if side > 0:
                    m = 1.0 - f / f_lo
                    f_hi *= m if m > 0.0 else 0.5
                lo, f_lo = rho, f
                side = 1
            else:
                if side < 0:
                    m = 1.0 - f / f_hi
                    f_lo *= m if m > 0.0 else 0.5
                hi, f_hi = rho, f
                side = -1


def is_deterministic_injective(w: Dmc) -> bool:
    """True when every input maps to its own sure output symbol."""
    rows = w.rows
    tops = rows.argmax(axis=1)
    if not np.all(rows[np.arange(rows.shape[0]), tops] >= 1.0 - 1e-12):
        return False
    return len(set(tops.tolist())) == rows.shape[0]


def log_g_rho_l(
    l,
    a_rate: float,
    rho: float,
    users: tuple[ChannelExponent, ChannelExponent],
) -> float:
    """log sum_j exp{-l (E_r(A+rho, p_U, p_Yj|U) - rho)}, clamped to <= 0.

    users holds each user's exponent over its induced channel p(y_j | u).
    The sum is taken as a logsumexp, so the bound keeps its value at any
    block length where exp would underflow. A deterministic injective
    induced channel is decoded without error, so its term is taken as
    exactly zero (-inf in log).
    """
    if not 0.0 < rho < a_rate:
        raise ValueError("rho must lie strictly inside (0, A)")
    if l < 1:
        raise ValueError("block length must be positive")
    lf = math.inf if l > sys.float_info.max else float(l)
    logs = []
    for user in users:
        if user.deterministic_injective:
            continue
        gap = user.at(a_rate + rho) - rho
        if gap <= 0.0:
            return 0.0
        logs.append(-lf * gap)
    return min(0.0, log_sum_exp(*logs))
