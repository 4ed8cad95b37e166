"""Sufficient-condition formulas and checkers for the layered scheme.

Every checker returns a ConditionReport: a list of named inequalities with
left/right values, slacks, and satisfied flags, plus the miss-probability
bound phi that feeds the rate-loss terms. Comparisons use a fixed guard
band, DEFAULT_GUARD, so boundary cases do not flap between runs; strict
"<" inequalities must clear the guard, ">=" ones may sit on it.

Quantities that can be astronomically small (the tau and xi terms of the
worked example at its natural scale) are carried as natural logs end to
end, so no comparison ever happens between raw underflowed floats. An
instance participates in the theorem checks through a small quantity
protocol (`thm1_quantities`), which the generic dense instance implements
with plain floats and the closed-form example implements in log domain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import exponent as _exponent
from .probkit import (
    Dmc,
    JointPmf,
    Pmf,
    binary_entropy,
    conditional_entropy,
    entropy,
    least_positive_prob,
    log_sum_exp,
    push_joint,
)

DEFAULT_GUARD = 1e-12
# the most entries of the dense k x k law of the common parts (K1, K2): 128 MiB
# of floats at k = 4096
MAX_COMMON_LAW_ENTRIES = 1 << 24


# ---------------------------------------------------------------------------
# elementary bound formulas
# ---------------------------------------------------------------------------

def xi_l(xi: float, l) -> float:
    """Block mismatch probability 1-(1-xi)^l for an iid pair stream."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must be a probability")
    if l < 1:
        raise ValueError("l must be a positive integer")
    if xi == 0.0:
        return 0.0
    if l > 10**15 or float(l) * xi > 700.0 or xi == 1.0:
        return 1.0
    return -math.expm1(float(l) * math.log1p(-xi))


def log_xi_l(log_xi: float, log_l: float) -> float:
    """log(1-(1-xi)^l) from log(xi) and log(l), safe at any scale.

    Works through t = l*log1p(-xi) < 0 without ever exponentiating log(l)
    alone, so astronomically long blocks are fine.
    """
    if log_xi == -math.inf:
        return -math.inf
    if log_xi >= 0.0:
        return 0.0  # xi = 1 makes the mismatch certain
    if log_xi > -700.0:
        log_neg = math.log(-math.log1p(-math.exp(log_xi)))
    else:
        log_neg = log_xi  # -log1p(-xi) = xi to double precision
    log_abs_t = log_l + log_neg
    if log_abs_t < -30.0:
        return log_abs_t  # 1 - e^t = -t here
    if log_abs_t > 3.7:
        t = -math.exp(min(log_abs_t, 709.0))
        return math.log1p(-math.exp(max(t, -745.0)))
    t = -math.exp(log_abs_t)
    return math.log(-math.expm1(t))


def log_tau_l_delta(p_k: Pmf, l, delta: float) -> float:
    """Natural log of the atypicality bound 2|K| exp{-2 delta^2 p(a*)^2 l},
    unclamped (it may exceed 0)."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if l < 1:
        raise ValueError("l must be a positive integer")
    _, p_star = least_positive_prob(p_k)
    return log_tau_from_parts(math.log(2 * len(p_k)), math.log(p_star), math.log(l), delta)


def log_tau_from_parts(log_2k: float, log_p_star: float, log_l: float, delta: float) -> float:
    """log tau from log(2|K|), log p(a*), log l; robust at extreme scales."""
    exp_arg = math.log(2.0) + 2.0 * math.log(delta) + 2.0 * log_p_star + log_l
    decay = math.exp(exp_arg) if exp_arg < 709.0 else math.inf
    return (log_2k - decay) if decay < math.inf else -math.inf


def loss_source(phi: float, l, alphabet_size) -> float:
    """Extra source-coding rate (1/l) h_b(phi) + phi log|K|, nats per symbol."""
    return loss_source_from_log_size(phi, l, math.log(alphabet_size))


def loss_source_from_log_size(phi: float, l, log_size: float) -> float:
    if not 0.0 <= phi < 0.5:
        raise ValueError("loss_source requires phi in [0, 0.5)")
    inv_l = math.exp(-math.log(l)) if l > 10**15 else 1.0 / float(l)
    return inv_l * binary_entropy(phi) + phi * log_size


def loss_channel(
    variant: str,
    phi: float,
    *,
    u: int | None = None,
    y: int | None = None,
    x_own: int | None = None,
    x_other: int | None = None,
    uvw: int | None = None,
) -> float:
    """Outer-code rate loss from erroneous conditional coding.

    Variants (all use phi*log(1/phi) -> 0 at phi = 0):
      thm1: h_b(phi) + phi log|U| + |Y||U| phi log(1/phi)
      thm2: h_b(phi) + 5 phi log|UVW| + |UVW|^3 phi log(1/phi)
      thm3: h_b(phi) + phi log|U| + |Xj||Y||U|(1+|Xo|) phi log(1/phi)
    """
    if not 0.0 <= phi < 0.5:
        raise ValueError("loss_channel requires phi in [0, 0.5)")
    plp = 0.0 if phi == 0.0 else phi * math.log(1.0 / phi)
    hb = binary_entropy(phi)
    if variant == "thm1":
        if u is None or y is None:
            raise ValueError("thm1 variant needs sizes u and y")
        return hb + phi * math.log(u) + y * u * plp
    if variant == "thm2":
        if uvw is None:
            raise ValueError("thm2 variant needs the aggregate size uvw")
        return hb + 5.0 * phi * math.log(uvw) + float(uvw) ** 3 * plp
    if variant == "thm3":
        if u is None or y is None or x_own is None or x_other is None:
            raise ValueError("thm3 variant needs sizes u, y, x_own, x_other")
        return hb + phi * math.log(u) + x_own * y * u * (1 + x_other) * plp
    raise ValueError(f"unknown loss variant {variant!r}")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Inequality:
    """One checked inequality; slack > 0 means satisfied with margin."""

    name: str
    left: float
    right: float
    kind: str = "lt"  # "lt" strict; "le"/"ge" allow equality within the guard
    scale: str = "linear"  # "log" when left/right are natural logs

    @property
    def slack(self) -> float:
        return self.left - self.right if self.kind == "ge" else self.right - self.left

    @property
    def satisfied(self) -> bool:
        if self.kind == "lt":
            return self.slack > DEFAULT_GUARD
        if self.kind in ("le", "ge"):
            return self.slack >= -DEFAULT_GUARD
        raise ValueError(f"unknown inequality kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "left": self.left,
            "right": self.right,
            "kind": self.kind,
            "scale": self.scale,
            "slack": self.slack,
            "satisfied": self.satisfied,
        }


@dataclass
class ConditionReport:
    """Outcome of one sufficient-condition check."""

    inequalities: tuple[Inequality, ...]
    phi: float
    log_phi: float
    status: str  # feasible | infeasible | infeasible-by-phi | indeterminate
    extras: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool | None:
        if self.status == "indeterminate":
            return None
        verdict = all(iq.satisfied for iq in self.inequalities) and self.phi < 0.5
        if "hk_member" in self.extras:
            verdict = verdict and bool(self.extras["hk_member"])
        return verdict

    @property
    def min_slack(self) -> float:
        return min((iq.slack for iq in self.inequalities), default=-math.inf)

    def inequality(self, name: str) -> Inequality:
        for iq in self.inequalities:
            if iq.name == name:
                return iq
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "overall": self.overall,
            "phi": self.phi,
            "log_phi": self.log_phi,
            "min_slack": self.min_slack,
            "inequalities": [iq.to_dict() for iq in self.inequalities],
            "extras": self.extras,
        }


# ---------------------------------------------------------------------------
# scheme parameters and problem instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeParams:
    """Fixed-block parameters of the layered code (rates in nats/symbol).

    l and m are stored as ints and delta, A, B and rho as floats; a value
    that is neither is refused with its field's name.
    """

    l: int
    delta: float
    A: float
    B: float
    rho: float
    m: int = 1

    def __post_init__(self):
        for name in ("l", "m"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        for name in ("delta", "A", "B", "rho"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        if self.A < 0.0 or self.B < 0.0:
            raise ValueError("A and B must be non-negative")
        if not 0.0 < self.rho < self.A:
            raise ValueError("rho must lie strictly inside (0, A)")


def _integer(value, name: str, least: int) -> int:
    """value as an int, refused unless it is an integer >= least: int()
    alone would truncate 16.7 to 16."""
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """float(value), refused with the field's name when value is not a
    number (a list, say): float() alone names no field."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _symbol_map(values, name: str) -> np.ndarray:
    """A common-part map as an int array. An entry that is not a non-negative
    integer is refused: numpy would truncate 1.7 to 1 and wrap -1 to the last
    symbol."""
    raw = np.asarray(values)
    if (raw.ndim != 1 or raw.dtype.kind not in "iuf"
            or not np.all(np.isfinite(raw) & (raw >= 0) & (raw == np.floor(raw)))):
        raise ValueError(f"{name} must be a list of non-negative integers")
    return raw.astype(int)


def _mutual_information(jp: JointPmf) -> float:
    """I(row; column) of a joint law."""
    return entropy(jp.col_marginal()) - conditional_entropy(jp)


def is_type_of(p: Pmf, l: int) -> bool:
    """True when every entry of p is an integer multiple n/l of 1/l, to float
    resolution: p * l may miss its count n by a few ulps of n. (An allowance
    that grows with l would pass every pmf once it reaches 1/2.)"""
    scaled = p.probs * l
    counts = np.round(scaled)
    return bool(np.all(np.abs(scaled - counts) <= 4.0 * np.spacing(np.maximum(counts, 1.0))))


def _per_instance(compute):
    """A method memoized in its instance's own memo, keyed by the method and
    its arguments. An instance never changes (its arrays are read-only), so
    a value never goes stale, and the memo goes with the instance."""
    @functools.wraps(compute)
    def memoized(self, *args):
        key = (compute, *args)
        if key not in self._memo:
            self._memo[key] = compute(self, *args)
        return self._memo[key]
    return memoized


class ProblemInstance:
    """A dense generic source-channel instance.

    Fields follow the layered construction: a joint source, the per-user
    common-part maps f_j into a shared alphabet K, the interference
    channel as a 4-D array W[x1, x2, y1, y2], the shared-word pmf p_U (a
    type of denominator l), the per-user outer pmfs p_{Vj}, and the input
    synthesis kernels p_{Xj|U,Vj} with shape (|U|, |Vj|, |Xj|). Optional
    p_{Wj} marginals extend the instance for the rate-point check.

    Its arrays are read-only copies, as a Pmf's are, so each quantity that
    depends on the instance alone is computed once per instance (see
    _per_instance), and so is each term the scheme's l and delta alone fix;
    per call, thm1_quantities runs only the two users' rho searches.
    """

    def __init__(
        self,
        source: JointPmf,
        f1,
        f2,
        ic,
        p_u: Pmf,
        p_v1: Pmf,
        p_v2: Pmf,
        p_x1_given_uv1,
        p_x2_given_uv2,
        k_size: int | None = None,
        p_w1: Pmf | None = None,
        p_w2: Pmf | None = None,
    ):
        self.source = source
        self.f1 = _symbol_map(f1, "f1")
        self.f2 = _symbol_map(f2, "f2")
        if self.f1.shape[0] != source.row_size or self.f2.shape[0] != source.col_size:
            raise ValueError("common-part maps must cover the source alphabets")
        inferred = int(max(self.f1.max(), self.f2.max())) + 1
        self.k_size = inferred if k_size is None else _integer(k_size, "k_size", 0)
        if self.k_size < inferred:
            raise ValueError("k_size smaller than the range of the maps")
        if self.k_size ** 2 > MAX_COMMON_LAW_ENTRIES:
            name = "k_size" if k_size is not None else " and ".join(
                f for f, m in (("f1", self.f1), ("f2", self.f2)) if m.max() + 1 == inferred)
            raise ValueError(f"refusing a common part of {self.k_size} symbols from {name}: "
                             f"its {self.k_size} x {self.k_size} law has more than 2^24 entries")

        w = np.array(ic, dtype=float)
        if w.ndim != 4:
            raise ValueError("interference channel must be W[x1, x2, y1, y2]")
        # the checks are phrased so that a NaN entry fails them
        if not (np.all(w >= 0.0) and np.all(np.abs(w.sum(axis=(2, 3)) - 1.0) <= 1e-9)):
            raise ValueError("interference channel rows must be stochastic")
        self.ic = w
        self.p_u = p_u
        self.p_v1 = p_v1
        self.p_v2 = p_v2
        self.p_w1 = p_w1
        self.p_w2 = p_w2
        self.p_x1_given_uv1 = np.array(p_x1_given_uv1, dtype=float)
        self.p_x2_given_uv2 = np.array(p_x2_given_uv2, dtype=float)
        for name, px, pv in (("user 1", self.p_x1_given_uv1, p_v1),
                             ("user 2", self.p_x2_given_uv2, p_v2)):
            if px.ndim != 3 or px.shape[0] != len(p_u) or px.shape[1] != len(pv):
                raise ValueError(f"{name} input kernel has a bad shape")
            if not (np.all(px >= 0.0) and np.all(np.abs(px.sum(axis=2) - 1.0) <= 1e-9)):
                raise ValueError(f"{name} input kernel rows must be stochastic")
        if self.p_x1_given_uv1.shape[2] != w.shape[0] or self.p_x2_given_uv2.shape[2] != w.shape[1]:
            raise ValueError("input kernels do not match the channel input alphabets")
        for arr in (self.f1, self.f2, self.ic, self.p_x1_given_uv1, self.p_x2_given_uv2):
            arr.setflags(write=False)
        self._memo: dict = {}

    # sizes -----------------------------------------------------------------
    @property
    def nx(self) -> tuple[int, int]:
        return int(self.ic.shape[0]), int(self.ic.shape[1])

    @property
    def ny(self) -> tuple[int, int]:
        return int(self.ic.shape[2]), int(self.ic.shape[3])

    # derived quantities, each computed once per instance -------------------
    @_per_instance
    def joint_k(self) -> JointPmf:
        return push_joint(self.source, self.f1, self.f2, self.k_size, self.k_size)

    @_per_instance
    def p_k1(self) -> Pmf:
        return self.joint_k().row_marginal()

    @_per_instance
    def h_k1(self) -> float:
        """H(K1)."""
        return entropy(self.p_k1())

    @_per_instance
    def xi_k(self) -> float:
        jk = self.joint_k().probs
        return max(0.0, 1.0 - float(np.trace(jk)))

    @_per_instance
    def _user(self, j: int) -> tuple[Pmf, np.ndarray, np.ndarray]:
        """User j's view of the single-letter law: (p_Vj, p(x_j | u, v_j),
        p(y_j | u, x_j)).

        The last array is W summed over the other user's output, with the
        other user's input mixed out by its kernel and p_V. User 2's view is
        user 1's computed on W with the two users' axes swapped, so the two
        users' quantities come from one code path.
        """
        if j not in (1, 2):
            raise ValueError("user index must be 1 or 2")
        users = ((self.p_v1, self.p_x1_given_uv1), (self.p_v2, self.p_x2_given_uv2))
        (p_v, px), (p_vo, pxo) = users if j == 1 else users[::-1]
        w = np.ascontiguousarray(self.ic if j == 1 else self.ic.transpose(1, 0, 3, 2))
        other = np.einsum("v,uvx->ux", p_vo.probs, pxo)
        chan = np.einsum("ub,aby->uay", other, w.sum(axis=3))
        chan.setflags(write=False)
        return p_v, px, chan

    @_per_instance
    def induced_to_user(self, j: int) -> Dmc:
        """p(y_j | u) when both encoders transmit the same shared word."""
        p_v, px, chan = self._user(j)
        rows = np.einsum("v,uvx,uxy->uy", p_v.probs, px, chan)
        return Dmc(rows / rows.sum(axis=1, keepdims=True))

    @_per_instance
    def channel_exponent(self, j: int) -> _exponent.ChannelExponent:
        """E_r(., p_U, p(y_j | u)): the rate-independent half of user j's
        exponent, so a point runs only the rho search."""
        return _exponent.ChannelExponent(self.p_u, self.induced_to_user(j))

    @_per_instance
    def ideal_joint_vy(self, j: int) -> JointPmf:
        """Single-letter law of (V_j, Y_j) with both encoders on a common U."""
        p_v, px, chan = self._user(j)
        cond = np.einsum("uvx,uxy->uvy", px, chan)
        joint = np.einsum("u,v,uvy->vy", self.p_u.probs, p_v.probs, cond)
        return JointPmf(joint / joint.sum())

    @_per_instance
    def mutual_information_vy(self, j: int) -> float:
        return _mutual_information(self.ideal_joint_vy(j))

    @_per_instance
    def cond_mi_x_y_given_u(self, j: int) -> float:
        """I(X_j; Y_j | U) under p_U p_{X1|U} p_{X2|U} W."""
        p_v, px, chan = self._user(j)
        own = np.einsum("v,uvx->ux", p_v.probs, px)
        joints = own[:, :, None] * chan
        return sum(float(pu) * _mutual_information(JointPmf(joint / joint.sum()))
                   for pu, joint in zip(self.p_u.probs, joints) if pu > 0.0)

    @_per_instance
    def h_s_given_k1(self, j: int) -> float:
        """H(S_j | K_1): (K1, S_j) is the pushforward through f1 of (S1, S_j),
        whose law is S1's diagonal joint for j = 1 and the source for j = 2."""
        pairs = (JointPmf(np.diag(self.source.row_marginal().probs)), self.source)
        return conditional_entropy(push_joint(pairs[j - 1], self.f1, None, self.k_size, None))

    # terms the scheme's l and delta fix, each computed once per value ----
    @_per_instance
    def p_u_is_type(self, l: int) -> bool:
        """Whether p_U is a type of denominator l."""
        return is_type_of(self.p_u, l)

    @_per_instance
    def _log_tau(self, l: int, delta: float) -> float:
        return log_tau_l_delta(self.p_k1(), l, delta)

    @_per_instance
    def xi_block(self, l: int) -> float:
        """xi^[l] = 1 - (1 - xi)^l, xi = P(K1 != K2): a block of l pairs
        has a mismatch somewhere."""
        return xi_l(self.xi_k(), l)

    # quantity protocol -----------------------------------------------------
    def thm1_quantities(self, sp: SchemeParams) -> dict:
        if not self.p_u_is_type(sp.l):
            raise ValueError("p_U must be a type of denominator l")
        xi_block = self.xi_block(sp.l)
        log_g = _exponent.log_g_rho_l(
            sp.l, sp.A, sp.rho, (self.channel_exponent(1), self.channel_exponent(2)))
        return {
            "H_K1": self.h_k1(),
            "H_S_given_K1": (self.h_s_given_k1(1), self.h_s_given_k1(2)),
            "log_S_sizes": (math.log(self.source.row_size), math.log(self.source.col_size)),
            "u_size": len(self.p_u),
            "y_sizes": self.ny,
            "I_vy": (self.mutual_information_vy(1), self.mutual_information_vy(2)),
            "log_tau": self._log_tau(sp.l, sp.delta),
            "log_xi_l": math.log(xi_block) if xi_block > 0.0 else -math.inf,
            "log_g": log_g,
        }


# ---------------------------------------------------------------------------
# theorem checkers
# ---------------------------------------------------------------------------

def _phi_from_logs(q: dict) -> tuple[float, float]:
    """The miss bound phi = min(1, tau + xi^[l] + g) and its log, summed from
    the quantities' three log terms; the one phi of the checkers and chains."""
    log_phi = min(0.0, log_sum_exp(q["log_tau"], q["log_xi_l"], q["log_g"]))
    phi = math.exp(log_phi) if log_phi > -745.0 else 0.0
    return phi, log_phi


def _check(inst, sp: SchemeParams, phi_override: float | None, theorem) -> ConditionReport:
    """The analysis every checker shares, finished by ``theorem``.

    Computes the quantities and the miss bound phi (or takes phi_override),
    checks the A+B budget and phi < 1/2, and stops with infeasible-by-phi
    when phi is too large for the loss terms. Otherwise theorem(q, phi)
    returns the theorem's own inequalities, placed between the budget row
    and the phi row, and its extras, placed before the quantity summary.
    """
    q = inst.thm1_quantities(sp)
    phi, log_phi = _phi_from_logs(q)
    if phi_override is not None:
        phi = phi_override
        log_phi = math.log(phi) if phi > 0.0 else -math.inf
    budget = Inequality("A+B >= (1+delta)*H(K1)", sp.A + sp.B,
                        (1.0 + sp.delta) * q["H_K1"], kind="ge")
    phi_iq = Inequality("phi < 1/2", phi, 0.5, kind="lt")
    if phi >= 0.5:
        return ConditionReport(
            inequalities=(budget, phi_iq), phi=phi, log_phi=log_phi,
            status="infeasible-by-phi", extras={"quantities": _q_summary(q)})
    rows, extras = theorem(q, phi)
    report = ConditionReport(
        inequalities=(budget, *rows, phi_iq), phi=phi, log_phi=log_phi, status="",
        extras={**extras, "quantities": _q_summary(q)})
    report.status = "feasible" if report.overall else "infeasible"
    return report


def check_thm1(inst, sp: SchemeParams, phi_override: float | None = None) -> ConditionReport:
    """Separation-based sufficient conditions with per-user private streams.

    Accepts the dense ProblemInstance or any object implementing
    thm1_quantities(sp). phi_override substitutes the miss bound (analysis
    aid); everything else is computed from the instance.
    """
    def user_rows(q, phi):
        rows = []
        for j in (1, 2):
            ls = loss_source_from_log_size(phi, sp.l, q["log_S_sizes"][j - 1])
            lc = loss_channel("thm1", phi, u=q["u_size"], y=q["y_sizes"][j - 1])
            left = sp.B + q["H_S_given_K1"][j - 1] + ls
            right = q["I_vy"][j - 1] - lc
            rows.append(Inequality(
                f"user{j}: B + H(S{j}|K1) + L^S < I(V{j};Y{j}) - L^C", left, right,
                kind="lt"))
        return rows, {}

    return _check(inst, sp, phi_override, user_rows)


def check_thm3(inst: ProblemInstance, sp: SchemeParams,
               phi_override: float | None = None) -> ConditionReport:
    """Conditional-decoding conditions: the decoded shared word is side info.

    Note the source-loss term here takes the common alphabet |K|, not
    |S_j|, and the mutual informations condition on U.
    """
    def user_rows(q, phi):
        nx1, nx2 = inst.nx
        rows = []
        for j in (1, 2):
            ls = loss_source(phi, sp.l, inst.k_size)
            lc = loss_channel("thm3", phi, u=q["u_size"], y=q["y_sizes"][j - 1],
                              x_own=nx1 if j == 1 else nx2,
                              x_other=nx2 if j == 1 else nx1)
            left = sp.B + q["H_S_given_K1"][j - 1] + ls
            right = inst.cond_mi_x_y_given_u(j) - lc
            rows.append(Inequality(
                f"user{j}: B + H(S{j}|K1) + L^S < I(X{j};Y{j}|U) - L^C", left, right,
                kind="lt"))
        return rows, {}

    return _check(inst, sp, phi_override, user_rows)


def check_thm2_rate_point(inst: ProblemInstance, sp: SchemeParams,
                          hk_oracle=None) -> ConditionReport:
    """Rate point for the message-splitting step, membership delegated.

    The region itself is defined in an external reference, so membership
    is a pluggable predicate hk_oracle(rate_point, inst) -> bool. With no
    predicate the report is marked indeterminate.
    """
    def rate_point(q, phi):
        nw1 = len(inst.p_w1) if inst.p_w1 is not None else 1
        nw2 = len(inst.p_w2) if inst.p_w2 is not None else 1
        uvw = len(inst.p_u) * len(inst.p_v1) * len(inst.p_v2) * nw1 * nw2
        lc = loss_channel("thm2", phi, uvw=uvw)
        point = tuple(
            (sp.B + lc,
             q["H_S_given_K1"][j - 1]
             + loss_source_from_log_size(phi, sp.l, q["log_S_sizes"][j - 1]))
            for j in (1, 2)
        )
        return (), {"rate_point": point, "uvw_size": uvw}

    report = _check(inst, sp, None, rate_point)
    if report.status == "infeasible-by-phi":
        return report
    if hk_oracle is None:
        report.status = "indeterminate"
        return report
    report.extras["hk_member"] = bool(hk_oracle(report.extras["rate_point"], inst))
    report.status = "feasible" if report.overall else "infeasible"
    return report


def _q_summary(q: dict) -> dict:
    return {k: (v if not isinstance(v, tuple) else list(v)) for k, v in q.items()}


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

@dataclass
class SearchResult:
    """Feasible grid points sorted by decreasing slack, log scale first."""

    feasible: list
    best_attempt: tuple | None  # (params, report) ranked highest by slack

    def __len__(self):
        return len(self.feasible)


def _slack_rank(report: ConditionReport) -> tuple:
    """(least log-scale slack, least linear slack): nats and plain values
    are never compared, and a scale without inequalities has no shortfall."""
    return tuple(min((iq.slack for iq in report.inequalities if iq.scale == scale),
                     default=math.inf) for scale in ("log", "linear"))


def search_feasible(grid, reports) -> SearchResult:
    """Rank a parameter grid by its points' reports, one per point in grid order.

    Points rank by their least log-scale slack, then by their least
    linear slack, larger first, and ties break on grid order, so the
    result is deterministic for a fixed grid. The feasible list holds the
    feasible (params, report) pairs in rank order; best_attempt, the
    top-ranked point, diagnoses an all-infeasible grid.
    """
    # a stable sort: ties keep grid order
    ranked = sorted(zip(grid, reports, strict=True),
                    key=lambda point: [-s for s in _slack_rank(point[1])])
    return SearchResult(feasible=[p for p in ranked if p[1].overall],
                        best_attempt=ranked[0] if ranked else None)
