"""The layered code: inner fixed-length code, interleaving, outer binning.

The inner code maps a typical source sub-block to its lexicographic rank;
the top lA bits of the rank address a channel codeword, the remaining lB
bits are the residual carried on the private link. Atypical sub-blocks
fall back to codeword 0 with a zero residual (the error events absorb
them). Two encoders fed the same typical sub-block emit bit-identical
outputs, which is the agreement property the whole construction rides on.

The outer stage realizes binning operationally at desk scale: the encoder
sends a seeded GF(2)-linear digest of the whole m x l source matrix (a
syndrome H . bits(x) for a random binary H), and the decoder searches
error patterns touching at most E_max rows, each row rewritten by one of
the substitutions a candidate rule allows (r of its leading symbols),
accepting the unique digest match. Two distinct matrices collide with
probability exactly 2^-b over the draw of H, at any width b. Linearity
lets a candidate's digest change be read straight off the H columns of
the bits it flips, the pattern search run as sorted joins of XOR-delta
tables (one for depths 1 and 2 together), and the decoder's input be the
syndrome digest(sent) ^ digest(baseline) = H . bits(sent ^ baseline),
which reads only the H columns of the bits where the two differ. One
OuterDecoder serves a user's whole run, a block of baselines per call.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .probkit import BaseDigits, Dmc, Pmf, TypicalityParams, typical_set

_NEG_INF_LLH = -1e30
# the most codewords, or search patterns or pairs, one array may hold
MAX_ROWS = 1 << 20
# the most symbols (words x l) a drawn codebook may hold: 2^20 words at l = 16
MAX_CODEBOOK_SYMBOLS = 1 << 24


# ---------------------------------------------------------------------------
# codebooks
# ---------------------------------------------------------------------------

class FullCubeCode:
    """Every l-length word over the alphabet, addressed by base-a value.

    ``words`` and ``indices`` read whole arrays as base-a digits through
    ``BaseDigits``: int64 while a^l <= 2^63 and exact Python ints (object
    arrays) beyond, the rule of ``TypicalSet.rank_dtype``.
    """

    def __init__(self, alphabet_size: int, l: int):
        if alphabet_size < 2 or l < 1:
            raise ValueError("need alphabet >= 2 and l >= 1")
        self.alphabet_size = int(alphabet_size)
        self.l = int(l)

    @functools.cached_property
    def _digits(self) -> BaseDigits:
        # built on first read: its l powers of a hold O(l^2) bits
        return BaseDigits(self.alphabet_size, self.l)

    @property
    def size(self) -> int:
        """a^l, an exact int at any l."""
        return self.alphabet_size ** self.l

    def codeword(self, idx: int) -> np.ndarray:
        if not 0 <= idx < self.size:
            raise IndexError("codeword index out of range")
        out = np.zeros(self.l, dtype=np.int64)
        v = int(idx)
        for i in range(self.l - 1, -1, -1):
            v, out[i] = divmod(v, self.alphabet_size)
        return out

    def index_of(self, word) -> int:
        w = np.asarray(word, dtype=np.int64)
        if w.shape != (self.l,) or w.min() < 0 or w.max() >= self.alphabet_size:
            raise ValueError("word outside the cube")
        v = 0
        for s in w:
            v = v * self.alphabet_size + int(s)
        return v

    def words(self, idx) -> np.ndarray:
        """codeword() of every entry of a 1-D index array, as (rows, l)."""
        return self._digits.digits(idx)

    def indices(self, words) -> np.ndarray:
        """index_of() of every row of a (rows, l) array."""
        w = np.asarray(words, dtype=np.int64)
        if w.ndim != 2 or w.shape[1] != self.l or (
                w.size and (w.min() < 0 or w.max() >= self.alphabet_size)):
            raise ValueError("word outside the cube")
        return self._digits.values(w)


@dataclass(frozen=True)
class ConstantCompositionCode:
    """Codewords all sharing one empirical type over the shared alphabet."""

    composition: tuple
    codewords: np.ndarray

    def __post_init__(self):
        counts = np.array(self.composition, dtype=np.int64)
        words = self.codewords
        per_word = np.stack(
            [(words == s).sum(axis=1) for s in range(len(self.composition))], axis=1)
        if not np.all(per_word == counts[None, :]):
            raise ValueError("a codeword deviates from the composition")

    @property
    def size(self) -> int:
        return int(self.codewords.shape[0])

    def words(self, idx) -> np.ndarray:
        return self.codewords[np.asarray(idx, dtype=np.int64)]


def type_class_size(composition, cap: int | None = None) -> int:
    """|T_P|, the number of sequences of the given composition; with a cap,
    min(cap, |T_P|).

    The capped size is decided from lgamma logs first: a class more than a
    factor e past the cap returns the cap without exact arithmetic, so a
    long block costs no big-int factorials. Otherwise |T_P| is an exact
    product of binomials, each no larger than |T_P| itself.
    """
    comp = [int(c) for c in composition]
    if cap is not None:
        log_size = math.lgamma(sum(comp) + 1) - sum(math.lgamma(c + 1) for c in comp)
        if log_size > math.log(cap) + 1.0:
            return cap
    total, n = 1, 0
    for c in comp:
        n += c
        total *= math.comb(n, c)
    return total if cap is None else min(cap, total)


def sample_constant_composition(composition, l: int, seed: int,
                                n_codewords: int) -> ConstantCompositionCode:
    """Draw n_codewords codewords iid uniform on the type class (repeats
    allowed); the caller sizes the book from its rate. A book of more than
    MAX_CODEBOOK_SYMBOLS symbols is refused before anything is drawn.

    Each codeword is an independent uniform permutation of the composition
    multiset; the draw is a fixed function of the seed.
    """
    comp = tuple(int(c) for c in composition)
    if sum(comp) != l:
        raise ValueError("composition must sum to the block length")
    n = int(n_codewords)
    if n * l > MAX_CODEBOOK_SYMBOLS:
        raise ValueError(f"refusing to draw {n} codewords of length {l}: "
                         f"{n * l} symbols, more than 2^24")
    if type_class_size(comp, cap=n) < n:
        raise ValueError("more codewords requested than the type class holds")
    base = np.repeat(np.arange(len(comp), dtype=np.int64), comp)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xC0DE)))
    chunks = []
    remaining = n
    while remaining > 0:
        take = min(remaining, 65536)
        keys = rng.random((take, l))
        order = np.argsort(keys, axis=1, kind="stable")
        chunks.append(base[order])
        remaining -= take
    words = np.vstack(chunks)
    return ConstantCompositionCode(composition=comp, codewords=words)


# ---------------------------------------------------------------------------
# maximum-likelihood decoding
# ---------------------------------------------------------------------------

def ml_decode(words, y, channel: Dmc) -> np.ndarray:
    """Maximum-likelihood word per row of y over the channel; ties go to the
    lowest index.

    A (row, word) pair scores sum_(x, y') N[x, y'] log W[x, y'], where
    N[x, y'] counts the positions at which the word holds x and the row
    reads y': a 0/1 float matmul, exact below 2^53. The terms are added
    in one fixed (x, y') order, so pairs of equal joint type score bit
    for bit the same and argmax keeps the lowest of tied indices. Words
    are scored in blocks that keep each one-hot and count array within
    2^21 entries. A zero-probability transition costs _NEG_INF_LLH per
    use, finite so that a zero count times it stays 0, not NaN.
    """
    words = np.asarray(words, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    (n, l), rows = words.shape, y.shape[0]
    nx, ny = channel.rows.shape
    # read unsigned, a negative symbol is out of range too
    if words.view(np.uint64).max(initial=0) >= nx or y.view(np.uint64).max(initial=0) >= ny:
        raise ValueError("symbols outside the channel's alphabets")
    logw = np.log(channel.rows, out=np.full((nx, ny), _NEG_INF_LLH), where=channel.rows > 0.0)
    ys = [(y == v).astype(float) for v in range(ny)]
    scores = np.zeros((rows, n))
    step = max(1, (1 << 21) // (l + rows))
    for s in range(0, n, step):
        block = scores[:, s:s + step]
        for x in range(nx):
            xs = (words[s:s + step] == x).astype(float).T
            for yy in range(ny):
                block += (ys[yy] @ xs) * logw[x, yy]
    return scores.argmax(axis=1)


# ---------------------------------------------------------------------------
# the inner fixed-length code
# ---------------------------------------------------------------------------

class InnerRows(NamedTuple):
    """The inner code's output for each row of a block array."""

    index: np.ndarray
    codewords: np.ndarray
    residual: np.ndarray
    atypical: np.ndarray


class InnerCode:
    """Typical-set source code split into a codeword address and a residual.

    The rank of a typical row has total_bits bits; its top la_bits address
    a codeword and the other lb_bits are the residual. la_bits is the
    least of max_la_bits (None: no cap), the widest address the codebook
    holds (bitlen(size) - 1) and total_bits; the cap is a bit count, so a
    large one costs nothing. The codebook defaults to the full cube on K.

    Every method takes a whole (rows, l) array (or one value per row).
    Ranks and their index/residual split are int64 while the typical set
    has at most 2^63 members and exact Python ints (object arrays)
    beyond; full-cube codeword indices are int64 while a^l <= 2^63.
    """

    def __init__(self, p_k1: Pmf, l: int, delta: float, codebook=None,
                 max_la_bits: int | None = None):
        if l >= sys.getrecursionlimit():
            raise ValueError(f"refusing an inner code of block length {l}: its typical-set count "
                             f"recurses once per symbol, to at most {sys.getrecursionlimit()} levels")
        self.p_k1 = p_k1
        self.l = int(l)
        self.delta = float(delta)
        self.typical = typical_set(p_k1, TypicalityParams(l, delta))
        size = self.typical.size
        if size < 1:
            raise ValueError("the typical set is empty")
        if max_la_bits is not None and max_la_bits < 0:
            raise ValueError(f"max_la_bits must be non-negative, got {max_la_bits}")
        self.codebook = FullCubeCode(p_k1.alphabet_size, l) if codebook is None else codebook
        self.total_bits = (size - 1).bit_length()
        cap = self.total_bits if max_la_bits is None else int(max_la_bits)
        self.la_bits = min(cap, self.codebook.size.bit_length() - 1, self.total_bits)
        self.lb_bits = self.total_bits - self.la_bits

    def encode_rows(self, blocks) -> InnerRows:
        """Rank each typical row and split the rank into the codeword index
        (top la_bits) and the residual; atypical rows get codeword 0 and a
        zero residual. Rank and typicality come from one
        TypicalSet.typical_ranks call: one lookup per row when k^l <= 2^16,
        and no copy of the rows when every row is typical."""
        rank, typical = self.typical.typical_ranks(blocks)
        index = rank >> self.lb_bits
        return InnerRows(index=index, codewords=self.codebook.words(index),
                         residual=rank & ((1 << self.lb_bits) - 1), atypical=~typical)

    def decode_exact_rows(self, y_words) -> tuple[np.ndarray, np.ndarray]:
        """Invert a deterministic shared channel row by row: (index, fallback);
        a cube index beyond the la_bits address range falls back to 0."""
        if not isinstance(self.codebook, FullCubeCode):
            raise TypeError("exact inversion needs the full-cube codebook")
        idx = self.codebook.indices(y_words)
        fallback = (idx >> self.la_bits) != 0
        return np.where(fallback, 0, idx), fallback

    def decode_ml_rows(self, y_words, induced: Dmc) -> np.ndarray:
        """ml_decode over the addressable codewords: the maximum-likelihood
        decision per row, ties going to the lowest index."""
        return ml_decode(self._materialized_words(), y_words, induced)

    def _materialized_words(self) -> np.ndarray:
        n = 1 << self.la_bits
        if n > MAX_ROWS:
            raise ValueError("refusing to materialize more than 2^20 codewords")
        return self.codebook.words(np.arange(n))

    def reconstruct_rows(self, index, residual) -> np.ndarray:
        """Unrank (index || residual) per row; a rank beyond the typical set
        gives an all-zero row."""
        dtype = self.typical.rank_dtype
        rank = np.asarray(index).astype(dtype) << self.lb_bits
        rank |= np.asarray(residual).astype(dtype)
        ok = rank < self.typical.size
        if ok.all():
            return self.typical.unrank_rows(rank)
        out = np.zeros((rank.shape[0], self.l), dtype=np.int64)
        out[ok] = self.typical.unrank_rows(rank[ok])
        return out


# ---------------------------------------------------------------------------
# interleaving
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PermutationSet:
    """One permutation of [l] per row."""

    rows: np.ndarray

    def __post_init__(self):
        _, l = self.rows.shape
        ok = np.sort(self.rows, axis=1) == np.arange(l)
        if not ok.all():
            raise ValueError(f"row {int(np.argmin(ok.all(axis=1)))} is not a permutation")


def draw_permutations(keys) -> PermutationSet:
    """One permutation of [l] per row of a (rows, l) array of uniform keys:
    the stable argsort of the row, uniform over the l! permutations. Equal
    keys (a tie, probability about l^2 2^-54 per row) keep index order, so
    a tie still gives a permutation.

    A row whose sorted keys rise strictly has one sorting order, so the
    default argsort finds it; only the other rows (a tie, or a NaN key)
    are sorted again, stably, which keeps the result equal to the stable
    argsort on every input."""
    keys = np.asarray(keys)
    order = np.argsort(keys, axis=1)
    rows, l = keys.shape
    ranked = keys.reshape(-1).take(order + np.arange(0, rows * l, l)[:, None])
    rising = ranked[:, 1:] > ranked[:, :-1]
    if not rising.all():
        tied = np.flatnonzero(~rising.all(axis=1))
        order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
    return PermutationSet(rows=order)


def interleave(mat, perm: PermutationSet):
    """B(t, i) = A(t, pi_t(i))."""
    arr = np.asarray(mat, dtype=np.int64)
    if arr.shape != perm.rows.shape:
        raise ValueError("matrix and permutation shapes disagree")
    return np.take_along_axis(arr, perm.rows, axis=1)


def deinterleave(mat, perm: PermutationSet):
    """Exact inverse of interleave: one scatter into the flat output, entry
    (t, i) of the matrix going to flat cell t * l + pi_t(i)."""
    arr = np.asarray(mat, dtype=np.int64)
    if arr.shape != perm.rows.shape:
        raise ValueError("matrix and permutation shapes disagree")
    rows, l = arr.shape
    out = np.empty_like(arr)
    out.reshape(-1)[perm.rows + np.arange(0, rows * l, l)[:, None]] = arr
    return out


# ---------------------------------------------------------------------------
# seeded GF(2)-linear digest over matrices
# ---------------------------------------------------------------------------

class MatrixHasher:
    """Seeded GF(2)-linear (syndrome) digest of an m x l symbol matrix.

    Each symbol expands to sym_bits = max(1, bitlen(a - 1)) bits, low bit
    first, so the matrix becomes a vector bits(x) of m * l * sym_bits bits.
    The digest is H . bits(x) over GF(2), where H is a uniform
    b x (m * l * sym_bits) binary matrix drawn from the seed. A random
    linear map is a universal hash: two distinct matrices get equal digests
    with probability exactly 2^-b over the draw of H, at every width b.
    Linearity is what the binning decoder exploits: changing one symbol
    XORs a fixed set of H columns into the digest, whatever the rest of
    the matrix holds, and digest(a) ^ digest(b) is the syndrome
    H . bits(a ^ b), which reads only the H columns of the bits where a
    and b differ. That syndrome, as (trials, words) uint64 words of 64
    digest bits, low word first, is the digest's one form: a matrix's own
    digest is its syndrome against the zero matrix. An H of more than
    MAX_ROWS 64-bit words is refused before it is drawn.
    """

    def __init__(self, bits: int, seed: int, alphabet_size: int, l: int, m: int):
        self.bits = int(bits)
        self.seed = int(seed)
        self.alphabet_size = int(alphabet_size)
        self.l = int(l)
        self.m = int(m)
        self.sym_bits = max(1, (self.alphabet_size - 1).bit_length())
        self.words = -(-max(self.bits, 0) // 64)
        n_cols = self.m * self.l * self.sym_bits
        if n_cols * self.words > MAX_ROWS:
            raise ValueError(f"refusing to draw a digest matrix of {n_cols * self.words} "
                             "64-bit words: more than 2^20")
        # the bits of the last word at and above the digest width
        self._spare = np.uint64(0)
        # column p of H, packed little-endian into words of 64 digest bits
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x4855)))
        cols = rng.integers(0, 2 ** 64 - 1, size=(n_cols, self.words),
                            dtype=np.uint64, endpoint=True)
        if self.words:
            self._spare = ~np.uint64((1 << (self.bits - 64 * (self.words - 1))) - 1)
            cols[:, -1] &= ~self._spare
        self._cols = cols

    def _stack(self, x) -> np.ndarray:
        """x as an int64 (trials, m, l) stack, refused unless every symbol
        lies in the alphabet."""
        arr = np.asarray(x, dtype=np.int64)
        if arr.ndim != 3 or arr.shape[1:] != (self.m, self.l):
            raise ValueError("matrix shape disagrees with the hasher")
        # read unsigned, a negative symbol is out of range too
        if arr.view(np.uint64).max(initial=0) >= self.alphabet_size:
            raise ValueError("symbols outside the hasher's alphabet")
        return arr

    def syndromes(self, sent, base) -> np.ndarray:
        """H . bits(sent[t] ^ base[t]) = digest(sent[t]) ^ digest(base[t]) for
        each matrix t of two (trials, m, l) stacks, as (trials, words).

        Symbol i of a flattened stack owns bits i*sym_bits.., low bit first,
        and bits(a) ^ bits(b) = bits(a ^ b), so the H columns to gather are
        the set bits of sent ^ base at the symbols where the stacks differ,
        in ascending order, trial after trial; a trial whose matrices agree
        has syndrome 0. Only the differing symbols are expanded to bits.
        """
        sent, base = self._stack(sent), self._stack(base)
        if sent.shape != base.shape:
            raise ValueError("the two stacks' shapes disagree")
        out = np.zeros((sent.shape[0], self.words), dtype=np.uint64)
        cells = np.flatnonzero(sent != base)
        flips = sent.reshape(-1).take(cells) ^ base.reshape(-1).take(cells)
        bit = np.arange(self.sym_bits)
        hot = (cells[:, None] * self.sym_bits + bit)[(flips[:, None] >> bit & 1).astype(bool)]
        if hot.size and self.words:
            per = self.m * self.l * self.sym_bits
            bounds = np.searchsorted(hot, np.arange(sent.shape[0] + 1) * per)
            # reduceat turns an empty segment into the next bit's column
            has = bounds[1:] > bounds[:-1]
            out[has] = np.bitwise_xor.reduceat(self._cols.take(hot % per, axis=0),
                                               bounds[:-1][has], axis=0)
        return out


# ---------------------------------------------------------------------------
# outer binning code
# ---------------------------------------------------------------------------

def _capped(total: int, what: str) -> int:
    """total, unless it exceeds the 2^20 patterns or pairs one search step may hold."""
    if total > MAX_ROWS:
        raise ValueError(f"refusing to build {total} {what}: more than 2^20")
    return total


class _Candidates(NamedTuple):
    """A rule's candidates on one baseline, by row, and what a search reads
    of them: each candidate's row, digest delta (the XOR of the H columns
    of the bits old ^ new it flips), flat cells and bit flips, padded to
    the widest radius by repeating its last cell; the pattern tables T_0
    and T_1; and the left side [T_0; T_1] of the join that answers depths 1
    and 2, as its (deltas, highest rows): row 0 is T_0's empty pattern and
    row r > 0 is T_1's row r - 1."""

    owner: np.ndarray
    delta: np.ndarray
    cells: np.ndarray
    flips: np.ndarray
    tables: tuple
    merged: tuple


def _candidates(base: np.ndarray, rule: CandidateRule, hasher: MatrixHasher) -> _Candidates:
    """The rule's candidates on this baseline, over the hasher's alphabet.

    The table reads only the rule's cells, fixed by the rule and the
    matrix shape, and the bits each candidate flips there: on a binary
    alphabet every flip is 1, so the table is the same on every baseline.
    """
    m, l = base.shape
    n_pos = l if rule.n_pos is None else min(rule.n_pos, l)
    owner, cells, alt, pad = _substitution_layout(m, l, n_pos, hasher.alphabet_size, rule.radii)
    cur = base.take(cells)
    # offset k is the k-th symbol, ascending, other than the current one
    flips = cur ^ (alt + (alt >= cur))
    # a padded cell repeats one already counted: it adds no delta
    bit = np.arange(hasher.sym_bits)
    on = ((flips[:, :, None] >> bit & 1) * ~pad[:, :, None])[..., None].astype(np.uint64)
    cols = hasher._cols.take(cells[:, :, None] * bit.size + bit, axis=0) * on
    delta = np.bitwise_xor.reduce(cols, axis=(1, 2))
    t0 = _patterns(np.zeros((1, 0), dtype=np.int64), np.zeros((1, hasher.words), dtype=np.uint64),
                   np.array([m]), np.array([-1]))
    t1 = _patterns(np.arange(len(owner))[:, None], delta, owner, owner)
    merged = np.concatenate([t0.delta, t1.delta]), np.concatenate([t0.hi, t1.hi])
    return _Candidates(owner, delta, cells, flips, (t0, t1), merged)


class _Patterns(NamedTuple):
    """Row-disjoint patterns of k candidates each, sorted by the first word
    of their digest delta (their key): the candidate indices (n, k) by
    increasing row, the XOR of their digest deltas (n, words), each
    pattern's lowest and highest row; at the first pattern of each run of
    equal keys, the run's length; and seen, a power-of-two table of flags
    whose entry k & (size - 1) is set for every key k."""

    idx: np.ndarray
    delta: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    run: np.ndarray
    seen: np.ndarray


def _patterns(idx, delta, lo, hi) -> _Patterns:
    """The table of these patterns, in the one order every join reads it in."""
    order = np.argsort(delta[:, 0])
    idx, delta, lo, hi = (a.take(order, axis=0) for a in (idx, delta, lo, hi))
    key = delta[:, 0]
    first = np.flatnonzero(np.r_[key.shape[0] > 0, key[1:] != key[:-1]])
    run = np.zeros_like(first, shape=key.shape)
    run[first] = np.diff(first, append=key.shape[0])
    # about 1 flag in 32 set: a join drops most targets before its search
    seen = np.zeros(1 << min(20, key.shape[0].bit_length() + 5), dtype=bool)
    seen[key & np.uint64(seen.shape[0] - 1)] = True
    return _Patterns(idx, delta, lo, hi, run, seen)


def _extend(table: _Patterns, owner: np.ndarray, delta: np.ndarray) -> _Patterns:
    """Every pattern of the table plus one candidate from a row above its
    highest; owner is non-decreasing, so those candidates are a suffix."""
    start = np.searchsorted(owner, table.hi, "right")
    counts = owner.shape[0] - start
    total = _capped(int(counts.sum()), "error patterns")
    src = np.repeat(np.arange(counts.shape[0]), counts)
    c = np.arange(total) - np.repeat(np.cumsum(counts) - counts - start, counts)
    return _patterns(np.column_stack([table.idx.take(src, axis=0), c]),
                     table.delta.take(src, axis=0) ^ delta.take(c, axis=0),
                     np.minimum(table.lo.take(src), owner.take(c)), owner.take(c))


def _join(delta, hi, right: _Patterns, need: np.ndarray, cuts=()) -> tuple:
    """(i, j): each left pattern i, given by its deltas and highest rows,
    below a right pattern j whose deltas XOR to need with its own.

    A join on the first digest word, by which right is sorted. The
    targets whose low bits no key has are dropped; one searchsorted finds
    where each other target would start in right, and right's run length
    there counts its equal keys. Each left pattern is paired with every
    right one of that run, then the full words and the row order are
    checked. The equal-key pairs of the left rows before, between and
    after the cuts are capped apart, each slice being one depth's join; a
    join with none returns at once.
    """
    target = delta[:, 0] ^ need[0]
    rows = np.flatnonzero(right.seen.take(target & np.uint64(right.seen.shape[0] - 1)))
    key, target = right.delta[:, 0], target.take(rows)
    start = np.searchsorted(key, target)
    # a target above every key clips to the last key, which differs from it
    equal = key.take(start, mode="clip") == target
    rows, start = rows[equal], start[equal]
    if not rows.shape[0]:
        return rows, rows
    c = right.run.take(start)
    total = int(c.sum())
    if total > MAX_ROWS:
        bounds = np.searchsorted(rows, (0, *cuts, delta.shape[0]))
        for a, b in zip(bounds, bounds[1:]):
            _capped(int(c[a:b].sum()), "pattern pairs with equal digest keys")
    if total == rows.shape[0]:
        # every run is one key long (a wide digest): one pair per row
        i, j = rows, start
    else:
        i = np.repeat(rows, c)
        j = np.repeat(start - np.cumsum(c) + c, c) + np.arange(total)
    hit = (hi.take(i) < right.lo.take(j)) & (
        (delta.take(i, axis=0) ^ right.delta.take(j, axis=0)) == need).all(axis=1)
    return i[hit], j[hit]


class OuterDecodes(NamedTuple):
    """OuterDecoder.decode's outcome per trial: status, matches and candidates searched."""

    status: np.ndarray
    matches: np.ndarray
    searched: np.ndarray


# the status of a search by its match count: none, one, two or more
_STATUS = np.array(["failed", "ok", "ambiguous"])


class OuterDecoder:
    """Syndrome-verified bounded-error-pattern search for one user's run:
    one hasher, one candidate rule and one e_max.

    A baseline is the decoder's per-row estimate of the sent matrix
    (already refined by residual bits), and its syndrome is
    digest(sent) ^ digest(baseline) = H . bits(sent ^ baseline), as
    hasher.words 64-bit words (see MatrixHasher.syndromes). The rule fixes
    the candidates of each baseline row: every substitution of r of its
    first n_pos symbols by other symbols of the hasher's alphabet, for
    each r in rule.radii, so no two candidates are equal and each changes
    the cells it writes. All patterns touching at most e_max rows are
    examined; the unique syndrome match wins, two distinct matches report
    ambiguity, none reports a search failure. Depth 0 is the baseline
    itself, which matches iff its syndrome is 0; at e_max = 0 no candidate
    is built. searched counts the baseline, the candidates (when
    e_max >= 1) and the matched row pairs (when e_max >= 2).

    The digest is linear, so a candidate's effect on it is a fixed delta,
    the XOR of the H columns of the bits its substitutions flip, and a
    pattern matches when the XOR of its deltas equals the syndrome. Table
    k holds every pattern of k rows (T_0 is the empty pattern, T_1 the
    candidates), each built from the one below by adding a candidate
    above the pattern's highest row and sorted once by its first digest
    word. A d-row pattern, read by increasing row, splits once into its
    lowest d // 2 rows and the rest, so depth d is a join of T_(d // 2)
    against T_(d - d // 2). Depths 1 and 2 both join against T_1, so one
    join of the stacked table [T_0; T_1] against T_1 answers both, its
    hits split by whether the left pattern is T_0's (at e_max = 1 only
    that row joins); T_1 against T_2 and T_2 against T_2 answer depths 3
    and 4. A table of more than 2^20 patterns, or a depth whose join
    compares more than 2^20 equal-key pairs (a narrow digest), is
    refused.

    On a binary alphabet every flip is 1, so the candidate table (rows,
    deltas, T_1 in its sorted order, and [T_0; T_1]) is every baseline's:
    the decoder keeps the first one it builds for the run, and with it the
    (matches, searched) of the first search whose baseline matches (its
    joins look for zero-delta patterns, which that table alone fixes),
    which every later zero syndrome returns without building or joining
    anything. On a larger alphabet each search builds its own table. The
    tables above T_1 and every refusal are recomputed on each search; a
    refused search is never kept.
    """

    def __init__(self, hasher: MatrixHasher, rule: CandidateRule, e_max: int):
        if e_max < 0:
            raise ValueError("e_max must be non-negative")
        self.hasher, self.rule, self.e_max = hasher, rule, int(e_max)
        # on a binary alphabet: the run's candidate table, and the
        # (matches, searched) of a search whose baseline matches
        self._table = self._settled = None

    def decode(self, khats, needs) -> OuterDecodes:
        """Search each trial of a block of (trials, m, l) int64 baselines
        khats, given their (trials, words) syndromes, writing each accepted
        matrix into khats; a trial not accepted keeps its baseline. The
        whole block is checked before any search, and the first trial whose
        search is refused, in trial order, raises."""
        if getattr(khats, "dtype", None) != np.int64:
            raise TypeError("the baselines must be an int64 array: decode writes into them")
        h = self.hasher
        base = h._stack(khats)
        trials = base.shape[0]
        needs = np.asarray(needs, dtype=np.uint64)
        if needs.shape != (trials, h.words):
            raise ValueError("syndrome width disagrees with the hasher or the trial count")
        searched = np.ones(trials, dtype=np.int64)
        if h.bits <= 0:
            # a zero-width digest verifies nothing: every pattern matches
            matches = np.full(trials, 1 if self.e_max == 0 else 2)
            return OuterDecodes(_STATUS[matches], matches, searched)
        if (needs[:, -1] & h._spare).any():
            raise ValueError("syndrome value exceeds the digest width")
        # depth 0: the baseline matches iff its syndrome is 0
        matches = (~needs.any(axis=1)).astype(np.int64)
        if self.e_max:
            for t in range(trials):
                matches[t], searched[t] = self._search(base[t], needs[t])
        return OuterDecodes(_STATUS[np.minimum(matches, 2)], matches, searched)

    def _search(self, base: np.ndarray, need: np.ndarray) -> tuple:
        """One baseline's (matches, searched) at e_max >= 1; a unique match
        other than the baseline is written into base."""
        baseline_ok = not need.any()
        if baseline_ok and self._settled is not None:
            return self._settled
        table = self._table or _candidates(base, self.rule, self.hasher)
        if self.hasher.alphabet_size == 2:
            # every flip is 1: the table is every baseline's
            self._table = table
        tables = list(table.tables)
        t1 = tables[1]
        # [T_0; T_1] against T_1 answers depths 1 and 2; at e_max = 1 only
        # its first row, T_0's, joins
        n = 1 if self.e_max == 1 else None
        i, j = _join(table.merged[0][:n], table.merged[1][:n], t1, need, cuts=(1,))
        matches = int(baseline_ok) + i.shape[0]
        searched = 1 + len(table.owner) + int(np.count_nonzero(i))
        deeper = []
        for d in range(3, self.e_max + 1):
            if len(tables) <= d - d // 2:
                tables.append(_extend(tables[-1], table.owner, table.delta))
            left, right = tables[d // 2], tables[d - d // 2]
            di, dj = _join(left.delta, left.hi, right, need)
            matches += di.shape[0]
            deeper.append((left.idx.take(di, axis=0), right.idx.take(dj, axis=0)))
        if baseline_ok:
            if table is self._table:
                self._settled = matches, searched
        elif matches == 1:
            if i.shape[0]:
                # left row r > 0 of [T_0; T_1] is T_1's row r - 1
                pattern = t1.idx[[j[0]] if i[0] == 0 else [i[0] - 1, j[0]], 0]
            else:
                pattern = next(np.concatenate([a[0], b[0]]) for a, b in deeper if a.shape[0])
            # a padded cell is written twice with the same symbol
            rows, cols = np.divmod(table.cells[pattern], base.shape[1])
            base[rows, cols] = base[rows, cols] ^ table.flips[pattern]
        return matches, searched


# ---------------------------------------------------------------------------
# candidate rules for flagged-row completion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CandidateRule:
    """Which substitutions the outer decoder tries in each baseline row:
    every replacement of exactly r of the row's first n_pos symbols (the
    whole row when n_pos is None) by other symbols of the hasher's
    alphabet, for each radius r in radii, nearest first."""

    n_pos: int | None
    radii: tuple


@functools.lru_cache(maxsize=64)
def _substitution_layout(m: int, l: int, n_pos: int, alphabet_size: int, radii: tuple):
    """Every substitution of r symbols among the first n_pos of each row of
    an m x l matrix, for r in radii: row by row, nearest first, then in
    lexicographic order of their (position, symbol offset) pairs, taken
    by increasing position. Returns the rows (n,) and the flat cells,
    symbol offsets and padding flags (n, max(radii)): a candidate of a
    smaller radius repeats its last pair, flagged as padding."""
    alts, width = alphabet_size - 1, max(radii)
    pairs, pad = [], []
    for r in radii:
        for c in itertools.combinations(range(n_pos * alts), r):
            if len({p // alts for p in c}) == r:
                pairs.append(c + c[-1:] * (width - r))
                pad.append((False,) * r + (True,) * (width - r))
    owner = np.repeat(np.arange(m), len(pairs))
    pos, alt = np.divmod(np.tile(np.array(pairs, dtype=np.int64).reshape(-1, width), (m, 1)), alts)
    cells = owner[:, None] * l + pos
    pad = np.tile(np.array(pad, dtype=bool).reshape(-1, width), (m, 1))
    for arr in (owner, cells, alt, pad):
        arr.setflags(write=False)
    return owner, cells, alt, pad


def hamming_ball_rule(radius: int = 1) -> CandidateRule:
    """Every row's substitutions within the given Hamming distance."""
    if radius not in (1, 2):
        raise ValueError("supported radii are 1 and 2")
    return CandidateRule(n_pos=None, radii=tuple(range(1, radius + 1)))


def prefix_flip_rule(code: InnerCode) -> CandidateRule:
    """One-symbol substitutions restricted to the positions carried by the
    codeword address.

    Valid when the typical set is the full cube over a power-of-two
    alphabet: ranks are then base-n values of the rows, the address bits
    are exactly the leading symbols, and only those can be corrupted by a
    shared-channel disagreement (the residual pins the rest).
    """
    n = code.p_k1.alphabet_size
    sym_bits = (n - 1).bit_length()
    if 2 ** sym_bits != n:
        raise ValueError("prefix rule needs a power-of-two alphabet")
    if code.typical.size != n ** code.l:
        raise ValueError("prefix rule needs the full-cube typical set")
    return CandidateRule(n_pos=-(-code.la_bits // sym_bits), radii=(1,))


# ---------------------------------------------------------------------------
# input multiplexing and inverse-CDF draws
# ---------------------------------------------------------------------------

def multiplex_inputs(u_mat, v_mat, p_x_given_uv, r):
    """Draw X(t, i) ~ p(x | u(t,i), v(t,i)) entrywise by inverse CDF with
    the uniform r(t, i) (draw_from_rows); whoever draws r owns its stream."""
    u = np.asarray(u_mat, dtype=np.int64)
    v = np.asarray(v_mat, dtype=np.int64)
    r = np.asarray(r, dtype=float)
    if not u.shape == v.shape == r.shape:
        raise ValueError("matrix shapes disagree")
    p = np.asarray(p_x_given_uv, dtype=float)
    if p.ndim != 3:
        raise ValueError("p_x_given_uv must have shape (|U|, |V|, |X|)")
    nu, nv, nx = p.shape
    return draw_from_rows(p.reshape(nu * nv, nx), u * nv + v, r)


def draw_from_rows(probs, rows, r) -> np.ndarray:
    """Inverse-CDF draw from row rows[i] of the stochastic matrix probs with
    the uniform r[i], for arrays rows and r that broadcast together: the
    first symbol whose cumulative probability exceeds r[i]. A row whose
    float cumulative sum ends at or below r[i] gives its last
    positive-probability symbol, not symbol 0.

    Every CDF entry from a row's last positive symbol on is +inf, so each
    row is non-decreasing and the first crossing is the count of entries
    at or below r[i]: one 1-D take and compare per symbol, of that
    symbol's column of the CDF table.
    """
    p = np.asarray(probs, dtype=float)
    k = p.shape[1]
    cum = np.cumsum(p, axis=1)
    last = k - 1 - (p[:, ::-1] > 0.0).argmax(axis=1)
    cum[np.arange(k) >= last[:, None]] = np.inf
    rows, r = np.asarray(rows), np.asarray(r)
    out = np.zeros(np.broadcast_shapes(rows.shape, r.shape), dtype=np.int64)
    for column in cum.T[:-1]:  # the last column is +inf: never at or below r
        out += column.take(rows) <= r
    return out
