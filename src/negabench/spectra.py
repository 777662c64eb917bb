"""Exact Walsh-Hadamard and nega-Hadamard spectra, with no floating point.

One butterfly, `_butterfly`, computes every spectrum, for a stack of
tables of one n at a time; `_spectrum` is its one-table call.  The nega
spectrum is the Walsh spectrum of g = f + sigma2, sigma2(x) = C(wt(x), 2)
mod 2 (Parker & Pott 2007; Stanica et al., IEEE Trans. IT 58(6), 2012):
since i^wt(x) = (-1)^sigma2(x) ((1 + i) + (1 - i)(-1)^wt(x)) / 2, with
u' = u + (1, ..., 1), the index 2^n - 1 - u,

    N_f(u) = ((W_g(u) + W_g(u')) + i (W_g(u) - W_g(u'))) / 2,

term by term, so masked (fragmentary) sums obey it too.  `NegaSpectrum`
stores W_g and derives re and im block by block.  `_grid_sums`, the defining
sums per weight class mod 4 on a grid of low and high parts of u, shares none.

`_butterfly` runs in three stages, each as narrow as its values allow.
Entry: per 64-bit word of the packed tables (for g, XORed with sigma2's),
popcounts against the 64 packed rows u.x do six levels at once, to [-64,
64] (with no restriction set, no mask AND and no popcount of it); for
n <= 6 a row's one word is its whole transform.  int16 (`_pease`): the levels
64 .. 2^13, per chunk of 2^17 points in cache, as constant-geometry
passes between two ping-pong buffers, so no ufunc writes over its own
input, to |v| <= 2^14 < 2^15.  int32 (`_levels`): the rest, in place, to
|W| <= 2^n <= 2^24 < 2^31, in tiles that stay in cache with their 256 KiB
of scratch.  Memory: the output, the packed tables of g for a nega
spectrum, and a 1.125 MiB per-thread workspace that every transform reuses
for its chunks, ping-pong buffers and scratch: about 66 MiB at n = 24.
`classify_many`'s stacks of at most 2^14 points (`_BLOCK`) take 64 KiB of
spectra (one table's, when larger); translates f_a(x) = f(x + a) it keys alike
share a transform, as W_{f_a}(u) = (-1)^(u.a) W_f(u), N_{f_a}(u) = (-1)^(u.a)
i^wt(a) N_f(u + a) (wt(y + a) = wt(y) + wt(a) - 2 wt(y & a)) and wt(f_a) = wt(f).
Squares reach 2^48, so their sums are int64.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    AnfPolynomial,
    BitVector,
    BooleanFunction,
    DimensionError,
    NotBentError,
    VectorSet,
    _index,
    _index_array,
    _raw_bytes,
    _set_bits,
    anf_from_truth_table,
    check_capacity,
    popcounts,
    truth_table_from_anf,
)


def _levels(a: np.ndarray, h: int, stop: int, scratch: np.ndarray) -> None:
    """Butterfly levels h, 2h, ... below stop, in place, two per pass (the
    last alone if one is left): the int32 stage, levels 2^14 and up, whose
    scratch is a view of the workspace's signs.  A pass works through a in
    tiles sized to scratch, so a tile and its scratch stay in cache
    together; sizes are powers of two, so every tile of a pass has one
    shape, but the last when a stack's row count is not."""
    while h < stop:
        q = 4 if 2 * h < stop else 2  # points per group: two levels, or one
        groups = a.reshape(-1, q, h)
        cap = scratch.shape[0] * 2 // q  # entries of each quarter (half) per tile
        rows, cols = min(groups.shape[0], max(1, cap // h)), min(h, cap)
        s = scratch[:rows * cols * q // 2].reshape(q // 2, rows, cols)
        for r in range(0, groups.shape[0], rows):
            for c in range(0, h, cols):
                x = groups[r:r + rows, :, c:c + cols].transpose(1, 0, 2)
                t = s[:, :x.shape[1]]
                if q == 4:
                    x0, x1, x2, x3 = x
                    s0, s1 = t
                    np.add(x0, x1, out=s0)
                    np.subtract(x0, x1, out=s1)
                    np.add(x2, x3, out=x0)
                    np.subtract(x2, x3, out=x1)
                    np.subtract(s0, x0, out=x2)
                    np.add(s0, x0, out=x0)
                    np.subtract(s1, x1, out=x3)
                    np.add(s1, x1, out=x1)
                else:
                    x0, x1 = x
                    np.subtract(x0, x1, out=t[0])
                    x0 += x1
                    x1[...] = t[0]
        h *= q


def _pease(x: np.ndarray, y: np.ndarray, sums: np.ndarray, block: int) -> np.ndarray:
    """Butterfly levels 64 .. block/2 of every `block`-point block of x, in
    constant geometry (Pease 1968); returns whichever of x and y holds them.

    Within a block, a pass transforms the top one or two bits of the index
    of the 64-point rows and moves them to its bottom, so after the last pass
    every bit is transformed once and back in place.  A pass reads the
    contiguous halves or quarters of each block and writes the other buffer,
    so no ufunc's output overlaps its input; `sums` holds a radix-4 pass's
    four partial sums."""
    levels = (block >> 6).bit_length() - 1
    for q in [2] * (levels % 2) + [4] * (levels // 2):
        rows = block // q >> 6  # 64-point rows per half or quarter
        parts = x.reshape(-1, q, rows, 64).transpose(1, 0, 2, 3)
        outs = y.reshape(-1, rows, q, 64).transpose(2, 0, 1, 3)
        if q == 2:
            np.add(*parts, out=outs[0])
            np.subtract(*parts, out=outs[1])
        else:
            s0, s1, s2, s3 = sums.reshape(4, *parts.shape[1:])
            np.add(parts[0], parts[1], out=s0)
            np.subtract(parts[0], parts[1], out=s1)
            np.add(parts[2], parts[3], out=s2)
            np.subtract(parts[2], parts[3], out=s3)
            np.add(s0, s2, out=outs[0])
            np.add(s1, s3, out=outs[1])
            np.subtract(s0, s2, out=outs[2])
            np.subtract(s1, s3, out=outs[3])
        x, y = y, x
    return x


# _ENTRY_ROWS[u] packs u.x, x < 64: (-1)^(u.x) is the Kronecker square of _H8
_H8 = 1 - 2 * (np.bitwise_count(np.arange(8)[:, None] & np.arange(8)) & 1).astype(np.int8)
_ENTRY_ROWS = np.packbits(np.kron(_H8, _H8) < 0, axis=1, bitorder="little").view("<u8")[:, 0]
_WORD_TYPES = {b: np.dtype(f"<u{b}") for b in (1, 2, 4, 8)}  # a table of n <= 6, by its bytes
# _BYTE_XOR[s, b]: byte b with bit i moved to bit i ^ s, s < 8 (row 7 reverses a byte)
_BYTE_XOR = ((np.arange(256)[:, None] >> np.arange(8) & 1)
             << (np.arange(8)[:, None, None] ^ np.arange(8))).sum(axis=-1, dtype=np.uint8)
_INT16_BLOCK = 1 << 14  # the int16 levels sum blocks of 2^14 points: |v| <= 2^14 < 2^15
_ENTRY_WORDS = 1 << 11  # packed words per entry chunk: 2^17 points, 256 KiB in int16
_INT32_TILE = 1 << 16  # int32 scratch per tile of the int32 levels: 256 KiB
# points per block of every pass over a whole spectrum (flatness scans, Parseval sums,
# frame branch counts, the dual's packed sign bits and the lemma passes; a multiple of 8,
# so a block packs into whole bytes): each block's temporaries, at most 128 KiB (int64
# nega parts), reuse the heap memory the last block freed instead of faulting in fresh
# pages; at 2^15 an n = 18 lemma check takes ten times the page faults, and is slower
_BLOCK = 1 << 14
_KEY_BYTES = 1 << 20  # a classify_many call drops its translation keys once they pass 1 MiB


def _blocks(size: int) -> Iterator[slice]:
    """Points 0..size-1 in consecutive blocks of at most _BLOCK, each as its
    slice of a whole spectrum."""
    for start in range(0, size, _BLOCK):
        yield slice(start, min(size, start + _BLOCK))


_THREAD = threading.local()


def _workspace() -> threading.local:
    """The calling thread's butterfly buffers (1.125 MiB), made by its first
    transform and reused by every later one: a chunk's entry `signs` and
    `counts`.  Once a chunk's counts are taken its signs are free, so their
    first 768 KiB, viewed as int16, hold the chunk's ping-pong pair and the
    sums of a constant-geometry pass; the int32 levels run after the last
    chunk and take their scratch from the signs too.  A transform never
    runs inside another."""
    if not hasattr(_THREAD, "signs"):
        _THREAD.signs = np.empty((_ENTRY_WORDS, 64), dtype=np.uint64)
        _THREAD.counts = np.empty((_ENTRY_WORDS, 64), dtype=np.uint8)
    return _THREAD


@functools.lru_cache(maxsize=None)  # n <= 24: under 4 MiB for every n at once
def _sigma2_bytes(n: int) -> np.ndarray:
    """sigma2's packed truth table (one byte for n < 3).  sigma2(8j + x) is
    bit 1 of wt(j) + wt(x), so byte j is one of four patterns, by wt(j) mod 4."""
    patterns = np.array([sum(((w + x.bit_count()) >> 1 & 1) << x for x in range(8))
                         for w in range(4)], dtype=np.uint8)
    table = patterns[np.bitwise_count(np.arange(max(1, 1 << n >> 3), dtype=np.uint32)) & 3]
    table.setflags(write=False)
    return table


def _butterfly(n: int, tables: np.ndarray, nega: bool, mask: Optional[int] = None) -> np.ndarray:
    """sum_{x in mask} (-1)^(p(x) + u.x) for every u as int32 (..., 2^n), p = f + sigma2 if
    `nega` else f, for each packed table f of n variables in `tables` (..., bytes): one
    table, or a stack (rows, bytes); a mask (a bitmask of points, everywhere if None) is
    for one table only."""
    size = 1 << n
    assert size <= 1 << 30 and _INT16_BLOCK < 1 << 15  # the widths argued below
    assert mask is None or tables.ndim == 1
    tables = tables ^ _sigma2_bytes(n) if nega else tables
    if size <= 64:  # one word a table: the entry stage is the whole transform
        # for n < 6 the mask keeps the 2^n live bits, whose u.x read only u's n low bits
        live = (1 << size) - 1 if mask is None else mask
        words = tables.view(_WORD_TYPES[tables.shape[-1]]).astype(np.uint64)  # (..., 1)
        counts = np.bitwise_count((words ^ _ENTRY_ROWS[:size]) & np.uint64(live))
        return live.bit_count() - 2 * counts.astype(np.int32)
    words = tables.reshape(-1).view("<u8")  # table after table: a chunk holds whole ones or a part
    masks = None if mask is None else _raw_bytes(mask, size).view("<u8")
    out = np.empty((*tables.shape[:-1], size), dtype=np.int32)  # the one full-size buffer
    flat = out.reshape(-1)
    ws = _workspace()
    step = min(words.shape[0], _ENTRY_WORDS)
    block = min(step << 6, _INT16_BLOCK, size)
    for start in range(0, words.shape[0], step):
        chunk = words[start:start + step, None]  # the last may be short, by whole tables
        signs, counts = ws.signs[:chunk.shape[0]], ws.counts[:chunk.shape[0]]
        # free once a chunk's counts are taken: the ping-pong pair and a pass's sums
        x, y, sums = ws.signs.reshape(-1).view(np.int16)[:3 * counts.size].reshape(3, -1)
        signs[:] = _ENTRY_ROWS  # then one broadcast operand: one iterator buffer, not two
        signs ^= chunk
        # six levels: popcount(m) - 2 popcount((p ^ u.x) & m) in [-64, 64], exact in int8
        live = np.uint8(64)  # popcount(m) with T everywhere, which needs no AND
        if masks is not None:
            m = masks[start:start + step, None]
            np.bitwise_and(signs, m, out=signs)
            live = np.bitwise_count(m)
        np.bitwise_count(signs, out=counts)
        counts += counts
        np.subtract(live, counts, out=counts)
        x[:] = counts.reshape(-1).view(np.int8)
        flat[start << 6:(start << 6) + counts.size] = _pease(x, y, sums, block)
    # |W| <= 2^n; a level's groups stop at 2^n, so none spans two tables
    _levels(flat, _INT16_BLOCK, size, ws.signs.reshape(-1).view(np.int32)[:_INT32_TILE])
    return out


def _spectrum(f: BooleanFunction, nega: bool, t: Optional[VectorSet] = None) -> np.ndarray:
    """The one-table `_butterfly` of f, masked by t (everywhere if None), read-only."""
    if t is not None and t.n != f.n:
        raise DimensionError("function and subset dimensions differ")
    out = _butterfly(f.n, f.table_bytes, nega, None if t is None else t.mask)
    out.setflags(write=False)
    return out


def _exact_sum_sq(v: np.ndarray) -> int:
    # |v| <= 2^24, so a square is at most 2^48 (it would wrap in int32) and a
    # block of 2^14 squares sums below 2^62 in int64
    total = 0
    for block in _blocks(v.shape[0]):
        chunk = v[block].astype(np.int64)
        assert int(np.abs(chunk).max()) ** 2 * chunk.shape[0] < 1 << 63
        total += int(np.dot(chunk, chunk))
    return total


def _first_flagged(size: int, flags: Callable[[slice], np.ndarray]) -> Optional[int]:
    """The first index below size where flags (a bool array per block of
    points) is True, or None; one block's temporaries at a time."""
    for block in _blocks(size):
        bad = np.flatnonzero(flags(block))
        if bad.size:
            return block.start + int(bad[0])
    return None


def _not_flat(n: int, w: np.ndarray, block: slice) -> np.ndarray:
    """Where the spectrum w (of W_f, or of W_g for N) is not flat at the points of `block`
    (of w's last axis): at even n where |w| != 2^(n/2), for W_f and N alike; at odd n,
    where only N can be flat, on the first half, where N is not.

    |N(u)|^2 = (a^2 + b^2) / 2 with a = W_g(u), b = W_g(u').  Odd squares
    are 1 mod 4, so while a^2 + b^2 = 2^(n+1) is a multiple of 4 both a
    and b are even and halve, down to a sum of 2 at even n, which forces
    |a| = |b| = 2^(n/2).  At odd n the sum of 1 forces {|a|, |b|} =
    {2^((n+1)/2), 0}: the first half is read beside its mirror (in int32)."""
    if n % 2 == 0:
        return np.abs(w[..., block]) != 1 << (n // 2)
    a, b = w[..., block], w[..., ::-1][..., block]
    return (np.abs(a) + np.abs(b) != 2 << (n // 2)) | ((a != 0) & (b != 0))


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """W_f(u) = sum_x (-1)^(f(x) + u.x) for every u, exact integers."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values.setflags(write=False)  # the flatness verdict is kept with them

    def parts(self, block: slice) -> tuple[np.ndarray]:
        """The values at the points of `block`, as a one-part tuple."""
        return (self.values[block],)

    def value(self, u) -> int:
        return int(self.values[_index(u)])

    def parseval_sum(self) -> int:
        return _exact_sum_sq(self.values)

    @functools.cached_property  # the scan, once per spectrum
    def flat_counterexample(self) -> Optional[int]:
        """Index u with |W(u)| != 2^(n/2), or None when bent-flat (even n)."""
        if self.n % 2:
            return 0 if self.values.shape[0] else None
        return _first_flagged(self.values.shape[0],
                              lambda block: _not_flat(self.n, self.values, block))

    def flat_failure(self) -> Optional[str]:
        """'at u: |W| v != flat |W| 2^(n/2)' at the first u where W is not flat, or None."""
        bad = self.flat_counterexample
        return None if bad is None else _walsh_unflat(self.n, bad, self.value(bad))


@dataclass(frozen=True, eq=False)
class NegaSpectrum:
    """N_f(u) = sum_x (-1)^(f(x) + u.x) i^wt(x), stored as the int32 Walsh
    spectrum `wg` of g = f + sigma2; re and im are derived from it."""

    n: int
    wg: np.ndarray

    def __post_init__(self) -> None:
        self.wg.setflags(write=False)  # the flatness verdict is kept with it

    def parts(self, block: slice) -> tuple[np.ndarray, np.ndarray]:
        """int64 re and im of N at the points of `block`, any slice.

        Each W_g value sums as many +-1 terms as the table (or the masked
        set) has entries, so W_g(u) + W_g(u') is even and halves exactly."""
        re = self.wg[block].astype(np.int64)
        re += self.wg[::-1][block]  # + W_g(u') at the same points: u' = 2^n - 1 - u
        re >>= 1
        return re, self.wg[block] - re  # im = W_g(u) - re

    def value(self, u) -> tuple[int, int]:
        """N(u) as the int pair (re, im)."""
        idx = _index(u)
        re, im = self.parts(slice(idx, idx + 1))
        return int(re[0]), int(im[0])

    def parseval_sum(self) -> int:
        """sum_u |N(u)|^2, which is sum_u W_g(u)^2: over each pair {u, u'},
        |N(u)|^2 + |N(u')|^2 = W_g(u)^2 + W_g(u')^2."""
        return _exact_sum_sq(self.wg)

    @functools.cached_property  # the scan, once per spectrum
    def flat_counterexample(self) -> Optional[int]:
        """Index u with |N(u)|^2 != 2^n, or None when negabent-flat (`_not_flat`).
        At even n, u is bad where |W_g| is not flat at u or u': W_g is read once,
        and after a failure at u again from the top down to u, for a mirror."""
        n, wg = self.n, self.wg
        first = _first_flagged(wg.shape[0] >> n % 2, lambda block: _not_flat(n, wg, block))
        if not first or n % 2:  # none, u = 0, or at odd n the first bad pair
            return first
        mirror = _first_flagged(first, lambda block: _not_flat(n, wg[::-1], block))
        return first if mirror is None else mirror

    def flat_failure(self) -> Optional[str]:
        """'at u: |N|^2 v != flat |N|^2 2^n' at the first u where N is not flat, or None."""
        bad = self.flat_counterexample
        return None if bad is None else _nega_unflat(self.n, bad, *self.value(bad))


def _walsh_unflat(n: int, u: int, w: int) -> str:
    return f"at {BitVector(n, u)}: |W| {abs(w)} != flat |W| {1 << (n // 2)}"


def _nega_unflat(n: int, u: int, re: int, im: int) -> str:
    return f"at {BitVector(n, u)}: |N|^2 {re * re + im * im} != flat |N|^2 {1 << n}"


def walsh_transform(f: BooleanFunction) -> WalshSpectrum:
    check_capacity(f.n)
    return WalshSpectrum(f.n, _spectrum(f, False))


def nega_transform(f: BooleanFunction) -> NegaSpectrum:
    check_capacity(f.n)
    return NegaSpectrum(f.n, _spectrum(f, True))


# ---------------------------------------------------------------------------
# fragmentary transforms (sums restricted to a subset)


# _ROW6[u] packs u.x over the x < 64 into one word, for each u < 64
_ROW6 = np.packbits(np.bitwise_count(np.arange(64)[:, None] & np.arange(64)) & 1,
                    axis=1, bitorder="little").view("<u8")[:, 0]
# _CLASS_WORDS[c, w] packs the x < 64 with w + wt(x) = c mod 4: word j of
# the class C_c = {x : wt(x) = c mod 4} is _CLASS_WORDS[c, wt(j) mod 4]
_CLASS_WORDS = np.array([[sum(1 << x for x in range(64) if (w + x.bit_count()) % 4 == c)
                          for w in range(4)] for c in range(4)], dtype=np.uint64)
assert all(sum(map(int, c)) == int(np.bitwise_or.reduce(c)) for c in _CLASS_WORDS.T)  # disjoint
_SUM_ENTRIES = 1 << 18  # int32 class sums and signs (-1)^(u_hi.x_hi) per chunk: 1 MiB


def _grid_sums(f: BooleanFunction, lo: np.ndarray, hi: np.ndarray,
               t: Optional[VectorSet] = None) -> np.ndarray:
    """int32 (W, re N, im N) of f over t (everywhere if None) at u = 64 u_hi + u_lo, as
    [part, place of u_hi in `hi` (uint32), place of u_lo in `lo`]: with A_c(u) = |C_c &
    T| - 2 wt((f + u.x) & C_c & T) on C_c = {x : wt(x) = c mod 4}, W = A_0 + .. + A_3 and
    N = (A_0 - A_2) + i(A_1 - A_3).  Per chunk of words, A_c is popcounted per u_lo and
    summed against (-1)^(u_hi.x_hi) per u_hi; no butterfly, no sigma2 identity, no cache."""
    width = max(64, 1 << f.n)  # whole words; the padding points (n < 6) lie in no class
    assert width <= 1 << 30  # |a| <= 64 a word: every sum is at most 2^n < 2^31 in int32
    mask = t.mask if t is not None else (1 << (1 << f.n)) - 1 if f.n < 6 else None
    live = None if mask is None else _raw_bytes(mask, width).view("<u8")
    table = _raw_bytes(f.bits, width).view("<u8")
    sums = np.zeros((3, hi.size, lo.size), dtype=np.int32)
    step = max(1, _SUM_ENTRIES // max(hi.size, 4 * lo.size, 1))
    for start in range(0, table.size, step):
        x_hi = np.arange(start, min(table.size, start + step), dtype=np.uint32)
        m = np.take(_CLASS_WORDS, np.bitwise_count(x_hi) & 3, axis=1)  # (4, words): the classes
        if live is not None:
            m &= live[start:start + step]
        # a[c, x_hi, r] = |m_c| - 2 popcount((f ^ row(lo[r])) & m_c), in [-64, 64]: exact in int8
        counts = np.bitwise_count((table[start:start + step, None] ^ _ROW6[lo]) & m[:, :, None])
        a = (np.bitwise_count(m)[:, :, None] - 2 * counts).view(np.int8)
        # |A_c| <= |m_c|, the m_c are disjoint, so |A_0| + .. + |A_3| <= 64: int8 folds are exact
        folded = np.array((a[0] + a[1] + a[2] + a[3], a[0] - a[2], a[1] - a[3]))
        # (-1)^(u_hi.x_hi), built in place in one buffer (u_hi, x_hi < 2^18: no sign bit)
        signs = (hi[:, None] & x_hi).view(np.int32)
        np.bitwise_and(np.bitwise_count(signs, out=signs), 1, out=signs)
        np.bitwise_or(np.negative(signs, out=signs), 1, out=signs)  # -p | 1 = 1 - 2p, p = 0, 1
        sums += np.einsum("kwr,hw->khr", folded, signs)
    return sums


def definitional_sums(f: BooleanFunction, us, t: Optional[VectorSet] = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W_{f,T}(u) and N_{f,T}(u) at the points `us` (T everywhere if None) as int64
    arrays (w, re, im), by `_grid_sums` over the points' distinct low and high parts."""
    us = _index_array(f.n, us)
    if t is not None and t.n != f.n:
        raise DimensionError("function and subset dimensions differ")
    u_lo, u_hi = us & 63, us >> 6  # lo, hi: their distinct values in order (no sort)
    lo, hi = (np.flatnonzero(np.bincount(p)) for p in (u_lo, u_hi))
    sums = _grid_sums(f, lo, hi.astype(np.uint32), t)
    return tuple(sums[:, np.searchsorted(hi, u_hi), np.searchsorted(lo, u_lo)].astype(np.int64))


def fragmentary_walsh(f: BooleanFunction, t: VectorSet, u) -> int:
    """W_{f,T}(u) = sum_{x in T} (-1)^(f(x) + u.x), by the defining sum."""
    return int(definitional_sums(f, [_index(u)], t)[0][0])


def fragmentary_nega(f: BooleanFunction, t: VectorSet, u) -> tuple[int, int]:
    """N_{f,T}(u) = sum_{x in T} (-1)^(f(x) + u.x) i^wt(x) as (re, im), by
    the defining sum."""
    _, re, im = definitional_sums(f, [_index(u)], t)
    return int(re[0]), int(im[0])


def fragmentary_walsh_spectrum(f: BooleanFunction, t: VectorSet) -> WalshSpectrum:
    """All fragmentary Walsh values at once: butterfly on the T-masked signs."""
    return WalshSpectrum(f.n, _spectrum(f, False, t))


def fragmentary_nega_spectrum(f: BooleanFunction, t: VectorSet) -> NegaSpectrum:
    """All fragmentary nega values at once: the identity on the T-masked signs."""
    return NegaSpectrum(f.n, _spectrum(f, True, t))


# ---------------------------------------------------------------------------
# classification and duality


@dataclass(frozen=True)
class Classification:
    is_bent: bool
    is_negabent: bool


def classify(f: BooleanFunction) -> Classification:
    """Exact bent / negabent flags: `_stack_flags` of the one function, with no key."""
    check_capacity(f.n)
    return _stack_flags([f])[0]


def classify_many(fs: Iterable[BooleanFunction]) -> Iterator[Classification]:
    """Exact bent / negabent flags of each of fs, functions of one n (the first's, else
    DimensionError), drawn lazily in stacks of at most _BLOCK points (one table, when
    larger).  A call transforms one function a key, x -> f(x + m), m f's least support
    point, and drops the keys it holds once they pass _KEY_BYTES.  Equal keys prove f'(y)
    = f(y + m + m') at every y, so f and f' share their flags (see above); unequal ones
    cost a transform.  A stack's new keys take one `_stack_flags` call; one stack's
    spectra are live at a time."""
    fs, n, seen = iter(fs), None, {}
    for first in fs:
        check_capacity(n := n or first.n)  # the first function's n, for the whole run
        stack = [first, *itertools.islice(fs, max(1, _BLOCK >> n) - 1)]
        if any(f.n != n for f in stack):
            raise DimensionError("classify_many takes functions of one n")
        keys = _translation_keys(np.array([f.table_bytes for f in stack]))
        # each key not seen in the call, by its first row in the stack (the last write)
        new = {key: row for row, key in reversed(list(enumerate(keys))) if key not in seen}
        if new:
            seen.update(zip(new, _stack_flags([stack[row] for row in new.values()])))
        del stack, new  # only the flags of each key and the stack's keys are held
        yield from [seen[key] for key in keys]
        if len(seen) * len(keys[0]) > _KEY_BYTES:
            seen.clear()


def _stack_flags(fs: Sequence[BooleanFunction]) -> list[Classification]:
    """The flags of each of fs, functions of one n, as one stack.  W_f(0) = 2^n - 2 wt(f)
    is a witness against bentness, so the stack takes one nega butterfly call, then one
    Walsh call on the rows with |W_f(0)| = 2^(n/2), which alone decides every True flag;
    at odd n bent is False, not an error."""
    n, tables = fs[0].n, np.array([f.table_bytes for f in fs])
    size = 1 << n
    nega = _flat_rows(n, _butterfly(n, tables, True), size >> n % 2)
    bent = np.array([n % 2 == 0 and abs(size - 2 * f.weight()) == 1 << (n // 2) for f in fs])
    if bent.any():
        bent[bent] = _flat_rows(n, _butterfly(n, tables[bent], False), size)
    return list(map(Classification, bent.tolist(), nega.tolist()))


def _translation_keys(tables: np.ndarray) -> list[bytes]:
    """Each row f of a stack of packed tables as the bytes of x -> f(x + m), m its least
    support point: byte j ^ (m >> 3) of f with bit i moved to bit i ^ (m & 7)."""
    first = (tables != 0).argmax(axis=1)  # m >> 3: the first nonzero byte, 0 in a zero row
    low = tables[np.arange(tables.shape[0]), first]
    shift = np.bitwise_count((low & -low) - np.uint8(1)) & 7  # m & 7, its lowest set bit
    at = np.arange(tables.size).reshape(tables.shape)
    at ^= first[:, None]  # m >> 3 < width, a power of two: the flat index stays in its row
    np.bitwise_or(tables.take(at), shift[:, None].astype(np.intp) << 8, out=at)  # [m & 7, byte]
    return _BYTE_XOR.take(at).view(np.dtype((np.void, tables.shape[1]))).ravel().tolist()


def _flat_rows(n: int, w: np.ndarray, size: int) -> np.ndarray:
    """Per row of a stack of spectra, whether no point below size is `_not_flat`, read a
    block of points at a time."""
    return ~functools.reduce(np.logical_or, (_not_flat(n, w, block).any(axis=-1)
                                             for block in _blocks(size)))


def dual(f: BooleanFunction) -> BooleanFunction:
    """The bent dual: 2^(n/2) (-1)^dual(x) = W_f(x)."""
    if f.n % 2:
        raise NotBentError("bent duals require an even number of variables")
    return dual_of_spectrum(walsh_transform(f))


def dual_of_spectrum(spec: WalshSpectrum) -> BooleanFunction:
    """The bent dual read off an exact Walsh spectrum that is already at hand:
    once W is flat, the dual is 1 exactly where W < 0, packed a block at a time."""
    if (bad := spec.flat_failure()) is not None:
        raise NotBentError(f"not bent: {bad}")
    packed = b"".join(np.packbits(spec.values[block] < 0, bitorder="little").tobytes()
                      for block in _blocks(spec.values.shape[0]))
    return BooleanFunction(spec.n, int.from_bytes(packed, "little"))


def _bent_dual(rows: list[int], q: Callable[[int], int]) -> Optional[BooleanFunction]:
    """The bent dual of a quadratic q, read as q(v), with these rows of B =
    U + U^T; None if q is not bent.  With M = B^-1 (Gauss-Jordan), W_q(u) =
    W_q(0) (-1)^(q(Mu) + q(0)) (Carlet 2021): M's pairs x_i x_j, linear terms
    q(M e_i) + q(0).  The constant term is the sign of W_q(0), read from the
    inverse transform at x = 0: sum_u (-1)^dual(u) = 2^(n/2) (-1)^q(0), so it
    is q(0) + [2 wt(d) > 2^n] for the dual d without it."""
    n = len(rows)
    m = [r | 1 << (n + i) for i, r in enumerate(rows)]
    for c in range(n):
        p = next((k for k in range(c, n) if m[k] >> c & 1), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        m = [r ^ m[c] if i != c and r >> c & 1 else r for i, r in enumerate(m)]
    m = [r >> n for r in m]
    masks = [1 << i | 1 << j for i in range(n) for j in range(i + 1, n) if m[i] >> j & 1]
    masks += [1 << i for i in range(n) if q(m[i]) != q(0)]
    d = truth_table_from_anf(AnfPolynomial.from_monomials(n, masks))
    # B is nonsingular, so q is bent and d's weight is not 2^(n-1)
    if q(0) ^ (2 * d.weight() > 1 << n):
        d = BooleanFunction(n, d.bits ^ ((1 << (1 << n)) - 1))
    return d


def quadratic_duals(f: BooleanFunction) -> tuple[BooleanFunction, BooleanFunction]:
    """The bent duals of a quadratic bent-negabent f and of g = f + sigma2,
    with no butterfly and no defining sum: W_f(u) = 2^(n/2) (-1)^(first dual
    at u), W_g(u) likewise.  Else NotBentError: 'not quadratic: at <top
    monomial>', or 'not bent' / 'not negabent' at u = 0, from the defining
    sums there, since a quadratic that is not bent has |W| = 0 or 2^(n-r),
    r < n/2, at every point."""
    n, anf = f.n, anf_from_truth_table(f)
    top = anf.top_term()
    if top.bit_count() > 2:
        raise NotBentError(f"not quadratic: at {AnfPolynomial(n, 1 << top).to_text()}: "
                           f"degree {top.bit_count()} != quadratic <=2")
    pairs = [m for m in _set_bits(anf.coeffs, 1 << n).tolist() if m.bit_count() == 2]
    rows = [sum(m ^ 1 << i for m in pairs if m >> i & 1) for i in range(n)]
    table = f.table_bytes.tobytes()  # f(v) as a Python int, with no 2^n-bit shift
    dual_f = _bent_dual(rows, lambda v: table[v >> 3] >> (v & 7) & 1)
    # g adds every x_i x_j, so sigma2(v) = bit 1 of wt(v)
    dual_g = None if dual_f is None else _bent_dual(
        [r ^ ((1 << n) - 1) ^ 1 << i for i, r in enumerate(rows)],
        lambda v: (table[v >> 3] >> (v & 7) ^ v.bit_count() >> 1) & 1)
    if dual_g is None:
        w, re, im = (int(v[0]) for v in definitional_sums(f, [0]))  # W_f(0) and N_f(0)
        raise NotBentError(f"not bent: {_walsh_unflat(n, 0, w)}" if dual_f is None
                           else f"not negabent: {_nega_unflat(n, 0, re, im)}")
    return dual_f, dual_g


# ---------------------------------------------------------------------------
# Maiorana-McFarland shapes


def mm_function(pi: Sequence, phi: BooleanFunction) -> BooleanFunction:
    """f(x, y) = x . pi(y) + phi(y) on 2m variables (x = low block).  pi is
    the table of the 2^m images as ints; the caller checks that it is a
    permutation of F_2^m."""
    m = phi.n
    imgs = np.array(pi, dtype=np.int64)
    size = 1 << m
    xs = np.arange(size, dtype=np.int64)
    par = (popcounts(size) & 1).astype(np.uint8)
    # row y is x . pi(y) + phi(y) over every x
    rows = par[xs & imgs[:, None]] ^ phi.value_array()[:, None]
    return BooleanFunction.from_values(2 * m, rows.reshape(-1))
