"""Closed-form two-source example with a shared deterministic channel.

The example is a pair of k-digit base-a sources that agree except on a
vanishing off-diagonal class, transmitted over an interference channel
made of one shared a-ary word channel (output equals the common input,
else 0) and two private satellite links specified by their capacities.

Everything here is exact: class masses are rational, the summary
statistics have closed forms evaluated in log domain, and the
infeasibility margin of the single-letter outer bound plus the
feasibility chain of the layered scheme are pure functions of (a, k,
eta). Quantities at the a^(eta*k) scale never pass through raw float
underflow on their way into a comparison; both sides are compared as
natural logs.

Satellites are modeled as ideal rate-constrained bit pipes: the example
pins down only their capacities, so their output alphabet sizes (needed
by the outer-bound margin) are a configuration input, default 4 each.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import (
    ConditionReport,
    Inequality,
    SchemeParams,
    _integer,
    log_tau_from_parts,
    log_xi_l,
)
from .probkit import Dmc, JointPmf, binary_entropy


# the most symbols a^k a dense joint may have
_MATERIALIZE_CAP = 4096
# the grid points per axis and the zoom rounds of max_H_Y0_product_inputs
_FAMILY_GRID = 101
_FAMILY_ROUNDS = 6


class MaterializationError(ValueError):
    """Raised when a dense joint would exceed _MATERIALIZE_CAP symbols."""


def _safe_exp(v: float) -> float:
    if v > 709.0:
        return math.inf
    if v < -745.0:
        return 0.0
    return math.exp(v)


def _ln_pow_minus_1(a: int, x: float) -> float:
    """ln(a^x - 1) for a >= 2, x >= 1, stable at any scale."""
    t = x * math.log(a)
    return t + math.log1p(-_safe_exp(-t))


def _hb_from_log(log_p: float) -> float:
    """Binary entropy of p given ln p; accurate down to underflow."""
    if log_p >= math.log(0.5):
        return binary_entropy(_safe_exp(log_p))
    if log_p >= -30.0:
        return binary_entropy(math.exp(log_p))
    # h_b(p) = p(1 - ln p) + O(p^2) in this regime
    return _safe_exp(log_p + math.log(1.0 - log_p))


def _ln_hb(log_p: float) -> float:
    """ln h_b(p) from ln p (p in (0, 1/2])."""
    if log_p == -math.inf:
        return -math.inf
    if log_p >= -30.0:
        val = binary_entropy(math.exp(log_p))
        return math.log(val) if val > 0.0 else -math.inf
    return log_p + math.log(1.0 - log_p)


@dataclass(frozen=True)
class DueckParams:
    """Digit alphabet size a, digits per symbol k, tail exponent eta."""

    a: int
    k: int
    eta: int

    def __post_init__(self):
        for name, least in (("a", 2), ("k", 1), ("eta", 1)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        if self.eta < 6:
            warnings.warn(
                f"eta={self.eta} is outside the construction's regime; "
                "allowed for small-scale simulation fixtures only",
                stacklevel=3,
            )
        elif self.eta < 8:
            warnings.warn(
                f"eta={self.eta} is below 8; the feasibility chain only needs "
                "eta >= 6 but the example is stated with eta >= 8",
                stacklevel=3,
            )

    @property
    def symbol_count(self) -> int:
        return self.a ** self.k


@dataclass(frozen=True)
class DueckSource:
    """Class masses of the example source, exact rationals.

    The three structural classes are the double-zero pair, the a^k - 1
    agreeing nonzero pairs, and the a^k - 1 pairs with a zero first
    coordinate. All other pairs carry no mass.
    """

    params: DueckParams
    p_diag0: Fraction
    p_diag: Fraction
    p_offdiag: Fraction

    def total_mass(self) -> Fraction:
        n1 = self.params.symbol_count - 1
        return self.p_diag0 + n1 * self.p_diag + n1 * self.p_offdiag

    def xi_exact(self) -> Fraction:
        """P(sources differ): the summed off-diagonal class mass."""
        return (self.params.symbol_count - 1) * self.p_offdiag

    def pair_mass(self, c: int, d: int) -> Fraction:
        n = self.params.symbol_count
        if not (0 <= c < n and 0 <= d < n):
            raise ValueError("symbol out of range")
        if c == d == 0:
            return self.p_diag0
        if c == d:
            return self.p_diag
        if c == 0:
            return self.p_offdiag
        return Fraction(0)

    def materialize(self) -> JointPmf:
        n = self.params.symbol_count
        if n > _MATERIALIZE_CAP:
            raise MaterializationError(
                f"dense joint needs a^k = {n} symbols, above the cap {_MATERIALIZE_CAP}")
        probs = np.zeros((n, n))
        probs[0, 0] = float(self.p_diag0)
        diag = float(self.p_diag)
        off = float(self.p_offdiag)
        for c in range(1, n):
            probs[c, c] = diag
            probs[0, c] = off
        return JointPmf(probs / probs.sum())


def build_source(params: DueckParams) -> DueckSource:
    """Exact class masses; normalization is an algebraic identity."""
    a, k, eta = params.a, params.k, params.eta
    big = Fraction(a) ** (eta * k)
    n1 = a ** k - 1
    src = DueckSource(
        params=params,
        p_diag0=Fraction(k - 1, k),
        p_diag=(big - 1) / (k * big * n1),
        p_offdiag=Fraction(1, 1) / (k * big * n1),
    )
    assert src.total_mass() == 1
    return src


@dataclass(frozen=True)
class SourceStats:
    """Closed-form summary of the example source (nats)."""

    xi: float
    log_xi: float
    h_joint: float
    h_s1: float
    h_s2: float
    h_s2_given_s1: float


def source_stats(src: DueckSource) -> SourceStats:
    """Entropies and the mismatch probability, evaluated in log domain.

    For eta >= 6 the marginal entropies are asserted against the sandwich
    (1 - a^{-eta k}) log a - log(2)/k <= H <= log a + h_b(1/k) + log(2)/k.
    """
    p = src.params
    a, k, eta = p.a, p.k, p.eta
    la = math.log(a)
    ln_k = math.log(k)
    ln_big = eta * k * la                     # ln a^(eta k)
    ln_n1 = _ln_pow_minus_1(a, k)             # ln(a^k - 1)

    log_xi = -(ln_k + ln_big)
    xi = _safe_exp(log_xi)

    p0 = (k - 1) / k
    ln_pd = math.log1p(-_safe_exp(-ln_big)) - ln_k - ln_n1
    ln_po = -(ln_k + ln_big + ln_n1)

    def neg_xlogx_scaled(ln_count: float, ln_prob: float) -> float:
        # -(count * prob) * ln(prob), all through logs
        mass_ln = ln_count + ln_prob
        if mass_ln < -745.0:
            return 0.0
        return -math.exp(mass_ln) * ln_prob

    h_joint = (-(p0 * math.log(p0)) if p0 > 0.0 else 0.0)
    h_joint += neg_xlogx_scaled(ln_n1, ln_pd) + neg_xlogx_scaled(ln_n1, ln_po)

    p_s1_zero = p0 + _safe_exp(-(ln_k + ln_big))
    h_s1 = (-(p_s1_zero * math.log(p_s1_zero)) if p_s1_zero > 0.0 else 0.0)
    h_s1 += neg_xlogx_scaled(ln_n1, ln_pd)

    # per nonzero symbol, P(S2 = d) = 1/(k (a^k - 1)) exactly
    ln_ps2 = -(ln_k + ln_n1)
    h_s2 = (-(p0 * math.log(p0)) if p0 > 0.0 else 0.0)
    h_s2 += neg_xlogx_scaled(ln_n1, ln_ps2)

    # H(S2 | S1) = P(S1=0) * H(S2 | S1=0); nonzero S1 pins S2
    if p_s1_zero > 0.0:
        ln_q1 = ln_po - math.log(p_s1_zero)
        q0 = p0 / p_s1_zero
        h_cond0 = (-(q0 * math.log(q0)) if q0 > 0.0 else 0.0)
        h_cond0 += neg_xlogx_scaled(ln_n1, ln_q1)
        h_s2_given_s1 = p_s1_zero * h_cond0
    else:
        h_s2_given_s1 = 0.0

    if eta >= 6:
        lower = (1.0 - _safe_exp(-ln_big)) * la - math.log(2.0) / k
        upper = la + binary_entropy(1.0 / k) + math.log(2.0) / k
        for name, h in (("H(S1)", h_s1), ("H(S2)", h_s2), ("H(S1,S2)", h_joint)):
            if not (lower - 1e-9 <= h <= upper + 1e-9):
                raise AssertionError(
                    f"{name} = {h} escapes the sandwich [{lower}, {upper}]")

    return SourceStats(xi=xi, log_xi=log_xi, h_joint=h_joint, h_s1=h_s1,
                       h_s2=h_s2, h_s2_given_s1=h_s2_given_s1)


def shared_channel(a: int) -> Dmc:
    """Deterministic shared channel: output is the common input, else 0.

    Inputs are the pair (u1, u2), row-major over an a-ary alphabet.
    """
    if a < 2:
        raise ValueError("a must be >= 2")
    if a > 256:
        raise MaterializationError("dense shared channel capped at a <= 256")
    rows = np.zeros((a * a, a))
    for u1 in range(a):
        for u2 in range(a):
            rows[u1 * a + u2, u1 if u1 == u2 else 0] = 1.0
    return Dmc(rows)


def satellite_capacities(params: DueckParams) -> tuple[float, float]:
    """Capacities of the two private links, nats per channel use."""
    a, k, eta = params.a, params.k, params.eta
    if k < 2:
        raise ValueError("satellite capacities need k >= 2")
    c1 = binary_entropy(2.0 / k) + (2.0 / k) * math.log(a)
    bump_log = math.log(2.0) - math.log(k) - eta * k * math.log(a)
    return c1, c1 + _hb_from_log(bump_log)


def log_output_alphabet(a: int, ny1: int = 4, ny2: int = 4) -> float:
    """log |shared output x satellite outputs| for the outer-bound margin."""
    return math.log(a) + math.log(ny1) + math.log(ny2)


def lc_infeasibility_margin(params: DueckParams, log_out_alphabet: float) -> float:
    """Positive margin certifies the single-letter outer bound fails here.

    margin = log a - [2 log 2 + 2 C1 + h_b(2/(k a^{eta k}))
                      + (3/4) log a + log|Y...|/k]
    """
    a, k, eta = params.a, params.k, params.eta
    c1, _ = satellite_capacities(params)
    la = math.log(a)
    bump = _hb_from_log(math.log(2.0) - math.log(k) - eta * k * la)
    rhs = 2.0 * math.log(2.0) + 2.0 * c1 + bump + 0.75 * la + log_out_alphabet / k
    return la - rhs


@dataclass
class LcScanResult:
    first_positive: tuple[int, int] | None
    margins: list  # (a, k, margin) in scan order

    def to_dict(self) -> dict:
        return {
            "first_positive": list(self.first_positive) if self.first_positive else None,
            "margins": [{"a": a, "k": k, "margin": m} for a, k, m in self.margins],
        }


def scan_lc_margin(a_values, k_values, eta: int = 8,
                   sat_output_sizes: tuple[int, int] = (4, 4)) -> LcScanResult:
    """Scan (a, k) lexicographically for a positive infeasibility margin."""
    ny1, ny2 = sat_output_sizes
    margins = []
    first = None
    for a in a_values:
        for k in k_values:
            m = lc_infeasibility_margin(DueckParams(a, k, eta),
                                        log_output_alphabet(a, ny1, ny2))
            margins.append((a, k, m))
            if first is None and m > 0.0:
                first = (a, k)
    return LcScanResult(first_positive=first, margins=margins)


# ---------------------------------------------------------------------------
# product-input output-entropy maximization (outer-bound case analysis)
# ---------------------------------------------------------------------------

def h_y0_product(p, q) -> float:
    """H(Y0) for independent inputs p, q through the shared channel."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    r = p * q
    r[0] = 1.0 - r[1:].sum()
    r = np.clip(r, 0.0, 1.0)
    mask = r > 0.0
    return float(-(r[mask] * np.log(r[mask])).sum())


def max_H_Y0_product_inputs(a: int) -> float:
    """max H(Y0) over product input pmfs, searched on the family that holds it.

    A product input's H(Y0) reads only r_u = p_u q_u (u >= 1), and the
    symmetric input x_u = sqrt(p_u q_u) gives the same r_u with
    sum x_u <= 1 (Cauchy-Schwarz). At an optimum each nonzero x_u solves
    x ln(r_0 / x^2) = c, which has at most two roots, so the nonzero x_u
    take at most two values: k1 symbols at x1 and k2 at x2, with
    k1 + k2 <= a - 1 and k1 x1 + k2 x2 <= 1. For each (k1, k2), a grid
    over x1 and the share of the mass left for x2 is zoomed in around its
    best point. This gives ln 2 at a = 2 and (3/2) ln 2 (two symbols at
    1/2) for a in [3, 8]; the maximum is asserted against the
    log 2 + (3/4) log a case bound.
    """
    if not 2 <= a <= 8:
        raise ValueError("the family search covers a in [2, 8]")

    def xlogx(r):
        return r * np.log(np.where(r > 0.0, r, 1.0))

    n, best = _FAMILY_GRID, 0.0
    for k1 in range(1, a):
        for k2 in range(a - k1):
            x1_lo, x1_hi, f_lo, f_hi = 0.0, 1.0 / k1, 0.0, 1.0
            for _ in range(_FAMILY_ROUNDS):
                x1 = np.linspace(x1_lo, x1_hi, n)[:, None]
                f = np.linspace(f_lo, f_hi, n)[None, :]
                r1 = x1 ** 2
                r2 = (f * (1.0 - k1 * x1) / max(k2, 1)) ** 2
                r0 = np.maximum(1.0 - k1 * r1 - k2 * r2, 0.0)
                h = -(xlogx(r0) + k1 * xlogx(r1) + k2 * xlogx(r2))
                i, j = np.unravel_index(np.argmax(h), h.shape)
                best = max(best, float(h[i, j]))
                dx, df = (x1_hi - x1_lo) / (n - 1), (f_hi - f_lo) / (n - 1)
                x1_lo, x1_hi = max(0.0, x1[i, 0] - 2 * dx), min(1.0 / k1, x1[i, 0] + 2 * dx)
                f_lo, f_hi = max(0.0, f[0, j] - 2 * df), min(1.0, f[0, j] + 2 * df)

    bound = math.log(2.0) + 0.75 * math.log(a)
    if best > bound + 1e-9:
        raise AssertionError(f"max H(Y0) = {best} exceeds the case bound {bound}")
    return best


# ---------------------------------------------------------------------------
# the layered-scheme feasibility chain at the example's natural scale
# ---------------------------------------------------------------------------

def section3a_feasibility(params: DueckParams,
                          sat_output_sizes: tuple[int, int] = (4, 4)) -> ConditionReport:
    """Feasibility chain with l = k^4 a^{eta k / 2} and delta = 1/k.

    Every comparison whose sides live at the a^{eta k} scale is done on
    natural logs (scale="log" rows); ordinary-scale comparisons stay
    linear. Infeasible parameters produce negative slacks, not errors;
    k < 2 raises ValueError, as the satellite capacities need k >= 2.
    """
    a, k, eta = params.a, params.k, params.eta
    c1, c2 = satellite_capacities(params)
    la = math.log(a)
    ln_k = math.log(k)
    delta = 1.0 / k
    ln_l = 4.0 * ln_k + 0.5 * eta * k * la
    stats = source_stats(build_source(params))

    # tau bound 2 a^k exp{-delta^2 l / (2 k^2 a^{2k})}
    decay_ln = 2.0 * math.log(delta) + ln_l - math.log(2.0) - 2.0 * ln_k - 2.0 * k * la
    decay = _safe_exp(decay_ln)
    ln_tau = (math.log(2.0) + k * la - decay) if decay < math.inf else -math.inf
    # xi^[l] <= l / (k a^{eta k})
    ln_xil = ln_l - ln_k - eta * k * la
    ln_phi = np.logaddexp(ln_tau, ln_xil) if ln_tau > -math.inf else ln_xil
    ln_phi_chain = math.log(2.0) + 3.0 * ln_k - 0.5 * eta * k * la

    ineqs = [
        Inequality("log: phi <= 2 k^3 a^(-eta k/2)", float(ln_phi), ln_phi_chain,
                   kind="le", scale="log"),
        Inequality("log: phi < 1/2", float(ln_phi), math.log(0.5),
                   kind="lt", scale="log"),
    ]

    # source loss evaluated at the chain's phi bound (monotone in phi)
    ln_phi_used = min(float(ln_phi), ln_phi_chain)
    if ln_phi_used < math.log(0.5):
        ln_ls = np.logaddexp(_ln_hb(ln_phi_used) - ln_l,
                             ln_phi_used + math.log(k * la))
        ls_val = _safe_exp(float(ln_ls))
        ineqs.append(Inequality("log: L^S(phi, |S_j|) <= log(a)/(4k)",
                                float(ln_ls), math.log(la / (4.0 * k)),
                                kind="le", scale="log"))
    else:
        ls_val = math.inf
        ineqs.append(Inequality("log: L^S(phi, |S_j|) <= log(a)/(4k)",
                                math.inf, math.log(la / (4.0 * k)),
                                kind="le", scale="log"))

    # residual rate: operational bound vs the displayed bound
    inv_l = _safe_exp(-ln_l)
    b_exact = (1.0 + delta) * stats.h_s1 - la + 2.0 * math.log(2.0) * inv_l
    b_chain = 2.0 * inv_l + la / k + (1.0 + 1.0 / k) * binary_entropy(1.0 / k)
    ineqs.append(Inequality("B <= 2/l + log(a)/k + (1+1/k) h_b(1/k)",
                            b_exact, b_chain, kind="le"))

    ineqs.append(Inequality("user1: B + L^S < C1", b_exact + ls_val, c1, kind="lt"))
    ineqs.append(Inequality("user2: B + H(S2|S1) + L^S < C2",
                            b_exact + stats.h_s2_given_s1 + ls_val, c2, kind="lt"))

    phi = _safe_exp(float(ln_phi))
    report = ConditionReport(
        inequalities=tuple(ineqs), phi=min(1.0, phi), log_phi=float(ln_phi),
        status="",
        extras={
            "a": a, "k": k, "eta": eta, "delta": delta, "ln_l": ln_l,
            "ln_tau": float(ln_tau), "ln_xi_l": float(ln_xil),
            "B_exact_bound": b_exact, "B_chain_bound": b_chain,
            "L_S": ls_val, "C1": c1, "C2": c2,
            "H_S2_given_S1": stats.h_s2_given_s1,
        })
    report.status = "feasible" if report.overall else "infeasible"
    return report


# ---------------------------------------------------------------------------
# the layered scheme's witness instantiation for the general theorem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DueckThm2Instance:
    """Log-domain instance adapter: identity maps, uniform shared pmf,
    capacity-achieving outer pmfs, deterministic shared channel."""

    params: DueckParams
    sat_output_sizes: tuple[int, int] = (4, 4)

    def thm1_quantities(self, sp: SchemeParams) -> dict:
        p = self.params
        a, k, eta = p.a, p.k, p.eta
        la = math.log(a)
        stats = source_stats(build_source(p))
        c1, c2 = satellite_capacities(p)
        ln_l = math.log(sp.l)

        # least positive marginal probability of the first source
        ln_p_zero = math.log((k - 1) / k + _safe_exp(-(math.log(k) + eta * k * la))) \
            if k > 1 else -(math.log(k) + eta * k * la)
        ln_pd = math.log1p(-_safe_exp(-eta * k * la)) - math.log(k) - _ln_pow_minus_1(a, k)
        ln_p_star = min(ln_p_zero, ln_pd)

        ny1, ny2 = self.sat_output_sizes
        return {
            "H_K1": stats.h_s1,
            "H_S_given_K1": (0.0, stats.h_s2_given_s1),
            "log_S_sizes": (k * la, k * la),
            "u_size": a,
            "y_sizes": (a * ny1, a * ny2),
            "I_vy": (c1, c2),
            "log_tau": log_tau_from_parts(math.log(2.0) + k * la, ln_p_star,
                                          ln_l, sp.delta),
            "log_xi_l": log_xi_l(stats.log_xi, ln_l),
            # the shared channel is deterministic and injective on agreeing
            # inputs, so the codeword-miss term vanishes identically
            "log_g": -math.inf,
        }


def lemma2_scheme(params: DueckParams,
                  sat_output_sizes: tuple[int, int] = (4, 4)) -> tuple[DueckThm2Instance, SchemeParams]:
    """The witness substitution: delta = 1/k, rho = 1, A = (1 - 1/k^3) log a.

    The residual rate is the operational split B = (1+delta) H(S1) - A,
    which covers the full source-code index; the shorthand H(S1) - A
    would violate the A+B budget inequality by delta*H(S1).
    """
    a, k, eta = params.a, params.k, params.eta
    if (eta * k) % 2 != 0:
        raise ValueError("eta*k must be even so the block length is an integer")
    la = math.log(a)
    big_a = (1.0 - 1.0 / k ** 3) * la
    if big_a <= 1.0:
        raise ValueError("rho = 1 needs (1 - 1/k^3) log a > 1, i.e. a >= 3")
    stats = source_stats(build_source(params))
    b = (1.0 + 1.0 / k) * stats.h_s1 - big_a
    l = k ** 4 * params.a ** (eta * k // 2)
    if l % a != 0:
        raise ValueError("uniform p_U must be a type of denominator l")
    sp = SchemeParams(l=l, delta=1.0 / k, A=big_a, B=max(0.0, b), rho=1.0, m=1)
    return DueckThm2Instance(params, sat_output_sizes), sp
