"""Finite-alphabet probability primitives.

Pmf / JointPmf / Dmc are immutable wrappers around numpy arrays with
validation, and the information measures used by the rest of the
package. Everything is computed in nats with the 0*log(0) = 0
convention; unit conversion happens only at the CLI boundary.

Typicality is the robust (relative-frequency) kind: a sequence is typical
when every symbol frequency is within a relative tolerance of its
probability and zero-probability symbols never occur. The typical set
supports exact counting and lexicographic rank/unrank with arbitrary
precision integers, which is what the inner source code is built on.

The JSON documents the CLI reads them from are listed in README's "File
formats".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

MASS_TOL = 1e-12


def _as_prob_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    # NaN fails this comparison too; an infinite entry fails the mass check
    if not (arr >= 0.0).all():
        raise ValueError(f"{name} entries must be non-negative numbers")
    return arr


def _xlogx(arr: np.ndarray) -> np.ndarray:
    """x*log(x) elementwise with 0*log(0) = 0."""
    out = np.zeros_like(arr, dtype=float)
    mask = arr > 0.0
    out[mask] = arr[mask] * np.log(arr[mask])
    return out


class Pmf:
    """Probability mass function over symbols 0..n-1."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        arr = _as_prob_array(probs, "pmf", 1)
        total = float(arr.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"pmf mass {total!r} differs from 1 by more than {MASS_TOL}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Pmf is immutable")

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.shape[0])

    @classmethod
    def uniform(cls, n: int) -> "Pmf":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def degenerate(cls, n: int, symbol: int) -> "Pmf":
        probs = np.zeros(n)
        probs[symbol] = 1.0
        return cls(probs)

    def __len__(self) -> int:
        return self.alphabet_size

    def __repr__(self) -> str:
        return f"Pmf({self.probs.tolist()})"


class JointPmf:
    """Joint pmf over pairs (row symbol, column symbol)."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        arr = _as_prob_array(probs, "joint pmf", 2)
        total = float(arr.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"joint mass {total!r} differs from 1 by more than {MASS_TOL}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("JointPmf is immutable")

    @property
    def row_size(self) -> int:
        return int(self.probs.shape[0])

    @property
    def col_size(self) -> int:
        return int(self.probs.shape[1])

    def row_marginal(self) -> Pmf:
        m = self.probs.sum(axis=1)
        return Pmf(m / m.sum())

    def col_marginal(self) -> Pmf:
        m = self.probs.sum(axis=0)
        return Pmf(m / m.sum())

    def __repr__(self) -> str:
        return f"JointPmf(shape={self.probs.shape})"


class Dmc:
    """Discrete memoryless channel: one conditional pmf per input symbol.

    Paired inputs (or outputs) are represented row-major: the pair (i, j)
    over alphabets of sizes (n1, n2) maps to index i*n2 + j.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        arr = _as_prob_array(rows, "channel matrix", 2)
        sums = arr.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > MASS_TOL)
        if bad.size:
            raise ValueError(f"channel row {int(bad[0])} has mass {sums[bad[0]]!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Dmc is immutable")

    @property
    def num_inputs(self) -> int:
        return int(self.rows.shape[0])

    @property
    def num_outputs(self) -> int:
        return int(self.rows.shape[1])

    @classmethod
    def identity(cls, n: int) -> "Dmc":
        return cls(np.eye(n))

    @classmethod
    def binary_symmetric(cls, crossover: float) -> "Dmc":
        e = float(crossover)
        if not 0.0 <= e <= 1.0:
            raise ValueError("crossover must be in [0, 1]")
        return cls([[1.0 - e, e], [e, 1.0 - e]])

    def __repr__(self) -> str:
        return f"Dmc(inputs={self.num_inputs}, outputs={self.num_outputs})"


@dataclass(frozen=True)
class TypicalityParams:
    """Block length and relative tolerance of the typical set."""

    l: int
    delta: float

    def __post_init__(self):
        if int(self.l) != self.l or self.l < 1:
            raise ValueError("block length l must be a positive integer")
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        object.__setattr__(self, "l", int(self.l))


# ---------------------------------------------------------------------------
# information measures
# ---------------------------------------------------------------------------

def entropy(p: Pmf) -> float:
    """Shannon entropy in nats."""
    return float(-_xlogx(p.probs).sum())


def binary_entropy(x: float) -> float:
    """Entropy of a Bernoulli(x) in nats; endpoints give 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log(x) - (1.0 - x) * math.log1p(-x))


def conditional_entropy(j: JointPmf) -> float:
    """H(column | row) = H(joint) - H(row marginal), in nats."""
    h_joint = float(-_xlogx(j.probs).sum())
    h_row = float(-_xlogx(j.probs.sum(axis=1)).sum())
    return h_joint - h_row


def mutual_information(p: Pmf, w: Dmc) -> float:
    """I(input; output) for input pmf p through channel w, in nats."""
    if len(p) != w.num_inputs:
        raise ValueError("input pmf size does not match channel input alphabet")
    out = p.probs @ w.rows
    h_out = float(-_xlogx(out).sum())
    h_out_given_in = float(-(p.probs * _xlogx(w.rows).sum(axis=1)).sum())
    # rounding can leave a tiny negative where the output is independent of the input
    return max(0.0, h_out - h_out_given_in)


def log_sum_exp(*vals: float) -> float:
    """log(sum_i exp(vals[i])) without overflow or underflow; -inf for no finite term."""
    finite = [v for v in vals if v > -math.inf]
    if not finite:
        return -math.inf
    m = max(finite)
    return m + math.log(sum(math.exp(v - m) for v in finite))


def least_positive_prob(p: Pmf) -> tuple[int, float]:
    """Symbol with the least positive probability; ties go to the lowest index."""
    best = -1
    best_p = math.inf
    for i, q in enumerate(p.probs):
        if q > 0.0 and q < best_p:
            best, best_p = i, float(q)
    return best, best_p


# ---------------------------------------------------------------------------
# robust typicality, exact counting, enumerative rank/unrank
# ---------------------------------------------------------------------------

def _symbol_count_ok(count: int, l: int, prob: float, delta: float) -> bool:
    """Canonical per-symbol test: |count/l - p| <= delta*p (closed inequality)."""
    if prob == 0.0:
        return count == 0
    return abs(count / l - prob) <= delta * prob


def _count_bounds(probs: np.ndarray, l: int, delta: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Inclusive per-symbol count ranges admitted by the typicality test."""
    lo, hi = [], []
    for prob in probs:
        if prob == 0.0:
            lo.append(0)
            hi.append(0)
            continue
        approx_lo = max(0, math.floor(l * prob * (1.0 - delta)) - 2)
        approx_hi = min(l, math.ceil(l * prob * (1.0 + delta)) + 2)
        ok = [c for c in range(approx_lo, approx_hi + 1) if _symbol_count_ok(c, l, prob, delta)]
        if not ok:
            lo.append(1)
            hi.append(0)  # empty range: no admissible count
        else:
            lo.append(ok[0])
            hi.append(ok[-1])
    return tuple(lo), tuple(hi)


class BaseDigits:
    """Rows of l base-a digits, most significant first, and their values.

    Values are int64 while a^l <= 2^63, so that every l-digit value fits,
    and exact Python ints (object arrays) beyond. Digits are not
    range-checked here; callers check them where they can be wrong.
    """

    def __init__(self, a: int, l: int):
        self.a = int(a)
        self.dtype = np.int64 if self.a ** int(l) <= 1 << 63 else object
        exponents = range(int(l) - 1, -1, -1)
        self.powers = np.array([self.a ** e for e in exponents], dtype=self.dtype)
        bits = self.a.bit_length() - 1
        # a power-of-two base reads digits by shift and mask, ~5x faster than // and %
        self._shifts = (np.array([bits * e for e in exponents], dtype=self.dtype)
                        if 1 << bits == self.a else None)

    def values(self, rows) -> np.ndarray:
        """Base-a value of every row of a (rows, l) digit array."""
        return np.asarray(rows, dtype=np.int64).astype(self.dtype, copy=False) @ self.powers

    def digits(self, values) -> np.ndarray:
        """Inverse of values(): the (rows, l) digits of a 1-D value array."""
        v = np.asarray(values).astype(self.dtype, copy=False)[:, None]
        if self._shifts is not None:
            out = (v >> self._shifts) & (self.a - 1)
        else:
            out = v // self.powers % self.a
        return out.astype(np.int64, copy=False)


_LOOKUP_ROWS = 1 << 16  # largest k^l for which rows are looked up by value
_TABLE_ENTRIES = 1 << 22  # largest (l + 2)^k for which rows use the count table


class TypicalSet:
    """Exact enumeration context for T_delta^l of a pmf.

    Counting walks prefix count vectors with memoization, in exact integer
    arithmetic (sizes overflow 64 bits already at moderate block lengths).
    Rank is the lexicographic position within the set; unrank inverts it.

    The ``*_rows`` methods work on a whole (rows, l) array at once, by the
    first of four paths that applies:

    * digit reads, when T is the full cube (|T| = k^l for k symbols): the
      rank of a row is then its base-k value (``BaseDigits``), and
      membership only asks that every symbol be in range;
    * the lookup, when k^l <= 2^16: a table of 1 + each row's rank, or 0
      when it is not typical, indexed by the row's base-k value, and a
      table of values by rank, both uint8 or uint16 (at most 256 KiB, at
      k = 2 and l = 16). Membership and rank are one matmul and one take
      per row, unrank one take and the digit read. The tables
      are built from the count ranges of ``_count_bounds``, the ones the
      count path of ``contains_rows`` applies, one digit at a time, so no
      array of every row's digits is ever made;
    * the count table: a dense int64 table of cumulative completion counts
      indexed by count vector (coordinate s runs over 0..hi_s + 1), filled
      once from the memo that ``size`` builds. Its entries reach |T|, so it
      needs |T| < 2^63, and (l + 2)^k <= 2^22, which caps it at
      2^22 (k + 1) entries. Rank reads it flat in one 1-D take, unrank
      in one take per position and symbol;
    * otherwise a loop of the exact-int ``rank``/``unrank``.

    On every path ranks are int64 while |T| <= 2^63 and an object array of
    Python ints beyond (``rank_dtype``). The scalar methods are the oracle.
    """

    def __init__(self, p: Pmf, params: TypicalityParams):
        self.p = p
        self.l = params.l
        self.delta = params.delta
        self.lo, self.hi = _count_bounds(p.probs, self.l, self.delta)
        self._memo: dict[tuple[int, ...], int] = {}

    def _completions(self, counts: tuple[int, ...]) -> int:
        """Number of typical sequences extending a prefix with these counts."""
        cached = self._memo.get(counts)
        if cached is not None:
            return cached
        used = sum(counts)
        remaining = self.l - used
        need = 0
        for c, lo_c, hi_c in zip(counts, self.lo, self.hi):
            if c > hi_c:
                self._memo[counts] = 0
                return 0
            if c < lo_c:
                need += lo_c - c
        if need > remaining:
            self._memo[counts] = 0
            return 0
        if remaining == 0:
            self._memo[counts] = 1
            return 1
        total = 0
        lst = list(counts)
        for s in range(len(counts)):
            if lst[s] < self.hi[s]:
                lst[s] += 1
                total += self._completions(tuple(lst))
                lst[s] -= 1
        self._memo[counts] = total
        return total

    @property
    def size(self) -> int:
        return self._completions((0,) * len(self.p))

    def log_size(self) -> float:
        n = self.size
        return math.log(n) if n > 0 else -math.inf

    def contains(self, x) -> bool:
        seq = np.asarray(x, dtype=int)
        if seq.ndim != 1 or seq.shape[0] != self.l:
            raise ValueError(f"sequence length must be {self.l}")
        if seq.size and (seq.min() < 0 or seq.max() >= len(self.p)):
            return False
        counts = np.bincount(seq, minlength=len(self.p))
        return all(
            _symbol_count_ok(int(c), self.l, float(prob), self.delta)
            for c, prob in zip(counts, self.p.probs)
        )

    def rank(self, x) -> int:
        seq = np.asarray(x, dtype=int)
        if not self.contains(seq):
            raise ValueError("sequence is not typical")
        counts = [0] * len(self.p)
        r = 0
        for sym in seq:
            for s in range(int(sym)):
                counts[s] += 1
                r += self._completions(tuple(counts))
                counts[s] -= 1
            counts[int(sym)] += 1
        return r

    def unrank(self, r: int) -> np.ndarray:
        if r < 0 or r >= self.size:
            raise ValueError(f"rank {r} outside [0, {self.size})")
        counts = [0] * len(self.p)
        out = np.empty(self.l, dtype=int)
        for i in range(self.l):
            for s in range(len(self.p)):
                counts[s] += 1
                n = self._completions(tuple(counts))
                if r < n:
                    out[i] = s
                    break
                r -= n
                counts[s] -= 1
        return out

    # -- whole (rows, l) arrays ---------------------------------------------

    @property
    def rank_dtype(self):
        """int64 while every rank fits it, else object (exact Python ints)."""
        return np.int64 if self.size <= 1 << 63 else object

    @cached_property
    def _cube(self) -> BaseDigits | None:
        """The digit reader when T is the full cube, else None."""
        k = len(self.p)
        return BaseDigits(k, self.l) if self.size == k ** self.l else None

    @cached_property
    def _lookup(self):
        """(digits, position, value_of) or None: position[v] is 1 + the rank
        of the row of base-k value v, or 0 when that row is not typical, and
        value_of[r] the value of the row of rank r. None on a full cube,
        which reads digits instead, and when k^l > 2^16."""
        k, n = len(self.p), len(self.p) ** self.l
        if self._cube is not None or n > _LOOKUP_ROWS:
            return None
        # every row's count of symbol s, one digit at a time: prepending a
        # most significant digit d puts the longer rows in k blocks, block d
        # being the shorter rows' counts plus [d == s]
        typical = np.ones(1, dtype=bool)
        for s in range(k):
            count = np.zeros(1, dtype=np.uint8)  # k >= 2 here, so l <= 16
            for _ in range(self.l):
                count = np.concatenate([count + (d == s) for d in range(k)])
            typical = typical & (count >= self.lo[s]) & (count <= self.hi[s])
        # |T| < n <= 2^16: positions 0..|T| and values 0..n-1 fit 16 bits
        position = np.cumsum(typical, dtype=np.min_scalar_type(n - 1))
        position *= typical
        value_of = np.arange(n, dtype=position.dtype)[typical]
        return BaseDigits(k, self.l), position, value_of

    @cached_property
    def _table(self):
        """(strides, cum) or None: cum[v, s] is the number of typical
        sequences extending a prefix with flat count index v by a symbol
        below s, for s = 0..k; v = sum_s counts[s] * strides[s]. None on a
        full cube, which reads digits instead."""
        k = len(self.p)
        if (self._cube is not None or self.size >= 1 << 63
                or (self.l + 2) ** k > _TABLE_ENTRIES):
            return None
        radix = np.array(self.hi, dtype=np.int64) + 2
        strides = np.concatenate(([1], np.cumprod(radix)[:-1]))
        # nonzero entries all have counts <= hi, so they fit the radix; one
        # zero layer above each hi makes v + strides[s] safe to read
        known = [(c, n) for c, n in self._memo.items() if n]
        keys = np.array([c for c, _ in known], dtype=np.int64).reshape(-1, k)
        n = int(np.prod(radix))
        flat = np.zeros(n + int(strides[-1]), dtype=np.int64)
        flat[keys @ strides] = [n_c for _, n_c in known]
        cum = np.zeros((n, k + 1), dtype=np.int64)
        for s in range(k):
            cum[:, s + 1] = cum[:, s] + flat[strides[s]:strides[s] + n]
        return strides, cum

    def _rows(self, x) -> np.ndarray:
        """x as an int64 (rows, l) array."""
        seq = np.asarray(x, dtype=np.int64)
        if seq.ndim != 2 or seq.shape[1] != self.l:
            raise ValueError(f"rows must have length {self.l}")
        return seq

    def _look_up(self, seq: np.ndarray) -> np.ndarray:
        """position[] of every row of an int64 (rows, l) array: 1 + its rank,
        or 0 when it is not typical; a row with a symbol outside 0..k-1 is
        not."""
        digits, position, _ = self._lookup
        k = len(self.p)
        # read unsigned, a negative symbol is out of range too
        symbols = seq.view(np.uint64)
        if symbols.max(initial=0) < k:
            return position.take(digits.values(seq))
        valid = (symbols < k).all(axis=1)
        out = position.take(digits.values(np.where(valid[:, None], seq, 0)))
        out[~valid] = 0
        return out

    def contains_rows(self, x) -> np.ndarray:
        """contains() of every row of a (rows, l) array, as a bool array."""
        seq = self._rows(x)
        k = len(self.p)
        if self._lookup is not None:
            return self._look_up(seq) != 0
        valid = seq.view(np.uint64) < k  # read unsigned, as in _look_up
        if self._cube is not None:
            return valid.all(axis=1)
        offset = np.where(valid, seq, 0) + k * np.arange(seq.shape[0])[:, None]
        counts = np.bincount(offset.ravel(), minlength=seq.shape[0] * k).reshape(-1, k)
        # the count ranges contains() admits, read off once by _count_bounds
        ok = (counts >= np.array(self.lo)) & (counts <= np.array(self.hi))
        return valid.all(axis=1) & ok.all(axis=1)

    def typical_ranks(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(rank, typical) of every row of a (rows, l) array: rank() of each
        typical row and 0 at the others, and contains_rows(). The lookup
        gives both at once; the other paths rank the typical rows, copying
        them out only when some row is not typical."""
        seq = self._rows(x)
        if self._lookup is not None:
            position = self._look_up(seq)
            typical = position != 0
            rank = position.astype(self.rank_dtype)
            rank -= typical
            return rank, typical
        typical = self.contains_rows(seq)
        if typical.all():
            return self._rank_typical_rows(seq), typical
        rank = np.zeros(seq.shape[0], dtype=self.rank_dtype)
        rank[typical] = self._rank_typical_rows(seq[typical])
        return rank, typical

    def rank_rows(self, x) -> np.ndarray:
        """rank() of every row of a (rows, l) array."""
        rank, typical = self.typical_ranks(x)
        if not typical.all():
            raise ValueError("sequence is not typical")
        return rank

    def _rank_typical_rows(self, seq: np.ndarray) -> np.ndarray:
        """rank_rows() of an int64 (rows, l) array already known typical, off
        the lookup path."""
        if self._cube is not None:
            return self._cube.values(seq)
        table = self._table
        if table is None:
            return np.array([self.rank(row) for row in seq], dtype=self.rank_dtype)
        strides, cum = table
        # flat index of (prefix count vector, symbol), built in place: a
        # block's temporaries cost more than its arithmetic
        step = (strides * cum.shape[1]).take(seq)
        at = np.cumsum(step, axis=1)
        at -= step
        at += seq
        return cum.ravel().take(at).sum(axis=1)

    def unrank_rows(self, r) -> np.ndarray:
        """unrank() of every entry of a 1-D array of ranks, as (rows, l)."""
        ranks = np.asarray(r)
        if ranks.ndim != 1:
            raise ValueError("ranks must be a 1-D array")
        if ranks.size and (ranks.min() < 0 or ranks.max() >= self.size):
            raise ValueError(f"rank outside [0, {self.size})")
        if self._cube is not None:
            return self._cube.digits(ranks)
        if self._lookup is not None:
            digits, _, value_of = self._lookup
            return digits.digits(value_of.take(ranks.astype(np.int64)))
        table = self._table
        if table is None:
            return np.array([self.unrank(int(v)) for v in ranks],
                            dtype=int).reshape(ranks.shape[0], self.l)
        strides, cum = table
        width = cum.shape[1]
        flat, steps = cum.ravel(), strides * width
        rest = ranks.astype(np.int64)
        at = np.zeros(rest.shape[0], dtype=np.int64)  # flat index of the prefix's row
        out = np.zeros((self.l, rest.shape[0]), dtype=np.int64)
        for sym in out:
            # cum[v, k] bounds every remaining rank: only s < k can be passed
            for s in range(1, width - 1):
                sym += flat.take(at + s) <= rest
            rest -= flat.take(at + sym)
            at += steps.take(sym)
        return out.T


@lru_cache(maxsize=128)
def _typical_set_cached(probs: tuple[float, ...], l: int, delta: float) -> TypicalSet:
    return TypicalSet(Pmf(np.array(probs)), TypicalityParams(l, delta))


def typical_set(p: Pmf, t: TypicalityParams) -> TypicalSet:
    return _typical_set_cached(tuple(p.probs.tolist()), t.l, t.delta)


def typical_log_size(p: Pmf, t: TypicalityParams) -> float:
    """Exact log |T_delta^l(p)| in nats; -inf when the set is empty.

    The count is done in exact integer arithmetic and checked against the
    l*(1+delta)*H(p) exponential bound before returning.
    """
    ts = typical_set(p, t)
    log_n = ts.log_size()
    if log_n > -math.inf:
        bound = t.l * (1.0 + t.delta) * entropy(p)
        if log_n > bound + 1e-9:
            raise AssertionError(
                f"typical set log-size {log_n} exceeds l(1+delta)H = {bound}"
            )
    return log_n


# ---------------------------------------------------------------------------
# pushforward helpers (finite maps of joint pmfs)
# ---------------------------------------------------------------------------

def push_joint(j: JointPmf, f_row, f_col, row_size: int | None = None,
               col_size: int | None = None) -> JointPmf:
    """Joint law of (f_row(R), f_col(C)) for (R, C) ~ j.

    f_row / f_col are index arrays; None leaves that coordinate unmapped.
    """
    fr = np.arange(j.row_size) if f_row is None else np.asarray(f_row, dtype=int)
    fc = np.arange(j.col_size) if f_col is None else np.asarray(f_col, dtype=int)
    if fr.shape[0] != j.row_size or fc.shape[0] != j.col_size:
        raise ValueError("map length does not match joint pmf shape")
    nr = int(fr.max()) + 1 if row_size is None else row_size
    nc = int(fc.max()) + 1 if col_size is None else col_size
    out = np.zeros((nr, nc))
    np.add.at(out, (fr[:, None], fc[None, :]), j.probs)
    return JointPmf(out)
