"""Exact Walsh-Hadamard and nega-Hadamard spectra, with no floating point.

One butterfly, `_spectrum`, computes every spectrum.  The nega
spectrum is the Walsh spectrum of g = f + sigma2, sigma2(x) = C(wt(x), 2)
mod 2 (Parker & Pott 2007; Stanica et al., IEEE Trans. IT 58(6), 2012):
since i^wt(x) = (-1)^sigma2(x) ((1 + i) + (1 - i)(-1)^wt(x)) / 2, with
u' = u + (1, ..., 1), the index 2^n - 1 - u,

    N_f(u) = ((W_g(u) + W_g(u')) + i (W_g(u) - W_g(u'))) / 2,

term by term, so masked (fragmentary) sums obey it too.  `NegaSpectrum`
stores W_g and derives re and im block by block.  `definitional_sums`, the
defining sums at chosen points per weight class mod 4, per low 6 bits of u
and then against the signs of the high bits, shares none of this.

`_spectrum` runs in three stages, each as narrow as its values allow.
Entry: per 64-bit word of the packed table (for g, XORed with sigma2's),
popcounts against the 64 packed rows u.x do six levels at once, to [-64,
64] (with no restriction set, no mask AND and no popcount of it); for
n <= 6 that one word is the whole transform.  int16 (`_pease`): the levels
64 .. 2^13, per chunk of 2^17 points in cache, as constant-geometry
passes between two ping-pong buffers, so no ufunc writes over its own
input, to |v| <= 2^14 < 2^15.  int32 (`_levels`): the rest, in place, to
|W| <= 2^n <= 2^24 < 2^31, in tiles that stay in cache with their 256 KiB
of scratch.  Memory: the output, the packed table of g for a nega
spectrum, and a 1.125 MiB per-thread workspace that every transform reuses
for its chunks, ping-pong buffers and scratch: about 66 MiB at n = 24.
Squares reach 2^48, so their sums are int64.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

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
    shape."""
    while h < stop:
        q = 4 if 2 * h < stop else 2  # points per group: two levels, or one
        groups = a.reshape(-1, q, h)
        cap = scratch.shape[0] * 2 // q  # entries of each quarter (half) per tile
        rows, cols = min(groups.shape[0], max(1, cap // h)), min(h, cap)
        s = scratch[:rows * cols * q // 2].reshape(q // 2, rows, cols)
        for r in range(0, groups.shape[0], rows):
            for c in range(0, h, cols):
                x = groups[r:r + rows, :, c:c + cols].transpose(1, 0, 2)
                if q == 4:
                    x0, x1, x2, x3 = x
                    s0, s1 = s
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
                    np.subtract(x0, x1, out=s[0])
                    x0 += x1
                    x1[...] = s[0]
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
_INT16_BLOCK = 1 << 14  # the int16 levels sum blocks of 2^14 points: |v| <= 2^14 < 2^15
_ENTRY_WORDS = 1 << 11  # packed words per entry chunk: 2^17 points, 256 KiB in int16
_INT32_TILE = 1 << 16  # int32 scratch per tile of the int32 levels: 256 KiB
# points per block of every pass over a whole spectrum (flatness scans,
# Parseval sums, frame codes and the lemma checks): each block's
# temporaries, at most 128 KiB (int64 nega parts), reuse the heap memory the
# last block freed instead of faulting in fresh pages; at 2^15 an n = 18
# lemma check takes ten times the page faults, and is slower
_BLOCK = 1 << 14


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


def _spectrum(f: BooleanFunction, nega: bool, t: Optional[VectorSet] = None) -> np.ndarray:
    """sum_{x in t} (-1)^(p(x) + u.x) for every u as a read-only int32 array,
    with p = f + sigma2 if `nega` else f, and t everywhere if None."""
    if t is not None and t.n != f.n:
        raise DimensionError("function and subset dimensions differ")
    size = 1 << f.n
    assert size <= 1 << 30 and _INT16_BLOCK < 1 << 15  # the widths argued below
    table = f.table_bytes ^ _sigma2_bytes(f.n) if nega else f.table_bytes
    if size <= 64:  # one word: the entry stage is the whole transform
        # for n < 6 the mask keeps the 2^n live bits, whose u.x read only u's n low bits
        live = (1 << size) - 1 if t is None else t.mask
        signs = np.uint64(int.from_bytes(table, "little")) ^ _ENTRY_ROWS[:size]
        out = live.bit_count() - 2 * np.bitwise_count(signs & live).astype(np.int32)
        out.setflags(write=False)
        return out
    words = table.view("<u8")
    masks = None if t is None else _raw_bytes(t.mask, size).view("<u8")
    out = np.empty(size, dtype=np.int32)  # the one full-size buffer
    ws = _workspace()
    step = min(words.shape[0], _ENTRY_WORDS)
    signs, counts = ws.signs[:step], ws.counts[:step]
    # free once a chunk's counts are taken: the ping-pong pair and a pass's sums
    x, y, sums = ws.signs.reshape(-1).view(np.int16)[:3 * (step << 6)].reshape(3, -1)
    block = min(step << 6, _INT16_BLOCK)
    for start in range(0, words.shape[0], step):
        signs[:] = _ENTRY_ROWS  # then one broadcast operand: one iterator buffer, not two
        signs ^= words[start:start + step, None]
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
        out[start << 6:(start + step) << 6] = _pease(x, y, sums, block)
    # |W| <= 2^n
    _levels(out, _INT16_BLOCK, size, ws.signs.reshape(-1).view(np.int32)[:_INT32_TILE])
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
                              lambda block: np.abs(self.values[block]) != 1 << (self.n // 2))

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
        """Index u with |N(u)|^2 != 2^n, or None when negabent-flat.

        |N(u)|^2 = (a^2 + b^2) / 2 with a = W_g(u), b = W_g(u').  Odd squares
        are 1 mod 4, so while a^2 + b^2 = 2^(n+1) is a multiple of 4 both a
        and b are even and halve, down to a sum of 2 at even n, which forces
        |a| = |b| = 2^(n/2).  At odd n the sum of 1 forces {|a|, |b|} =
        {2^((n+1)/2), 0}.  Either test is symmetric in u and u', so the first
        bad u lies in the first half, and the half is read in blocks beside
        its mirror (in int32)."""
        def flags(block: slice) -> np.ndarray:
            a, b = np.abs(self.wg[block]), np.abs(self.wg[::-1][block])
            if self.n % 2 == 0:
                return (a != 1 << (self.n // 2)) | (b != 1 << (self.n // 2))
            return (a + b != 1 << (self.n + 1) // 2) | (np.minimum(a, b) != 0)

        return _first_flagged(self.wg.shape[0] // 2, flags)

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
# _CLASS_BYTES[c, w] holds the x < 8 with w + wt(x) = c mod 4: byte j of
# the class C_c = {x : wt(x) = c mod 4} is _CLASS_BYTES[c, wt(j) mod 4]
_CLASS_BYTES = np.array([[sum(1 << x for x in range(8) if (w + x.bit_count()) % 4 == c)
                          for w in range(4)] for c in range(4)], dtype=np.uint8)
# folds the class sums (A_0, A_1, A_2, A_3) into (W, re N, im N)
_FOLD = np.array([[1, 1, 1, 1], [1, 0, -1, 0], [0, 1, 0, -1]], dtype=np.int32)
_SUM_ENTRIES = 1 << 18  # int32 class sums and signs (-1)^(u_hi.x_hi) per chunk: 1 MiB


@functools.lru_cache(maxsize=None)  # n <= 24: under 16 MiB for every n at once
def _class_masks(n: int) -> np.ndarray:
    """The classes C_0 .. C_3 of the 2^n points packed in whole words, as a
    read-only (4, words) uint64 array; padding points (n < 6) are in none."""
    width = max(64, 1 << n)
    byte_classes = np.bitwise_count(np.arange(width >> 3, dtype=np.uint32)) & 3
    masks = (np.take(_CLASS_BYTES, byte_classes, axis=1).view("<u8")
             & _raw_bytes((1 << (1 << n)) - 1, width).view("<u8"))
    masks.setflags(write=False)
    return masks


def definitional_sums(f: BooleanFunction, us, t: Optional[VectorSet] = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W_{f,T}(u) and N_{f,T}(u) at the points `us` (T everywhere if None)
    straight from the defining sums, as int64 arrays (w, re, im).

    On each class C_c = {x : wt(x) = c mod 4}, A_c(u) = |C_c & T| - 2 wt((f +
    u.x) & C_c & T); then W = A_0 + A_1 + A_2 + A_3 and, splitting i^wt(x)
    by class, N = (A_0 - A_2) + i(A_1 - A_3).  With x and u split at bit 6,
    each packed word's class sums are popcounted once per distinct u_lo and
    summed against (-1)^(u_hi.x_hi) once per distinct u_hi; no butterfly or
    sigma2 identity is reached."""
    us = _index_array(f.n, us)
    if t is not None and t.n != f.n:
        raise DimensionError("function and subset dimensions differ")
    # whole words; the padding points lie outside T (or the live 2^n points)
    width = max(64, 1 << f.n)
    assert width <= 1 << 30  # |b| <= 64 a word: every sum is at most 2^n < 2^31 in int32
    masks = _class_masks(f.n)
    if t is not None:
        masks = masks & _raw_bytes(t.mask, width).view("<u8")
    table = _raw_bytes(f.bits, width).view("<u8")
    u_lo, u_hi = us & 63, us >> 6  # lo, hi: their distinct values in order (no sort)
    lo = np.flatnonzero(np.bincount(u_lo, minlength=64))
    hi = np.flatnonzero(np.bincount(u_hi, minlength=table.size)).astype(np.uint32)
    sums = np.zeros((3, lo.size, hi.size), dtype=np.int32)
    step = max(1, _SUM_ENTRIES // max(hi.size, 4 * lo.size, 1))
    for start in range(0, table.size, step):
        m = masks[:, start:start + step]
        # b[c, r, x_hi] = |m_c| - 2 popcount((f ^ row(lo[r])) & m_c), in [-64, 64]: exact in int8
        counts = np.bitwise_count((table[start:start + step] ^ _ROW6[lo, None]) & m[:, None, :])
        b = (np.bitwise_count(m)[:, None, :] - 2 * counts).view(np.int8)
        folded = (_FOLD @ b.reshape(4, -1)).reshape(3, lo.size, m.shape[1])
        x_hi = np.arange(start, start + m.shape[1], dtype=np.uint32)
        signs = 1 - 2 * (np.bitwise_count(hi[:, None] & x_hi) & 1).astype(np.int32)
        sums += np.einsum("krw,hw->krh", folded, signs)
    return tuple(sums[:, np.searchsorted(lo, u_lo), np.searchsorted(hi, u_hi)].astype(np.int64))


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
    """Exact bent / negabent flags.

    Bentness requires even n; for odd n the flag is False rather than an
    error.  Negabentness is defined for every n.  The weight is a
    witness against bentness: W_f(0) = 2^n - 2 wt(f) by the defining sum, so
    the Walsh butterfly runs only when |W_f(0)| = 2^(n/2), and it alone
    decides every True flag.
    """
    nega_ok = nega_transform(f).flat_counterexample is None
    if f.n % 2:
        return Classification(False, nega_ok)
    bent_ok = (abs((1 << f.n) - 2 * f.weight()) == 1 << (f.n // 2)
               and walsh_transform(f).flat_counterexample is None)
    return Classification(bent_ok, nega_ok)


def dual(f: BooleanFunction) -> BooleanFunction:
    """The bent dual: 2^(n/2) (-1)^dual(x) = W_f(x)."""
    if f.n % 2:
        raise NotBentError("bent duals require an even number of variables")
    return dual_of_spectrum(walsh_transform(f))


def dual_of_spectrum(spec: WalshSpectrum) -> BooleanFunction:
    """The bent dual read off an exact Walsh spectrum that is already at hand."""
    bad = spec.flat_failure()
    if bad is not None:
        raise NotBentError(f"not bent: {bad}")
    target = 1 << (spec.n // 2)
    return BooleanFunction.from_values(spec.n, spec.values == -target)


def _bent_dual(rows: list[int], q: Callable[[int], int], negative: bool) -> Optional[np.ndarray]:
    """The packed bent dual (read-only uint8) of a quadratic q, read as q(v),
    with W_q(0) < 0 if `negative` and these rows of B = U + U^T; None if q is
    not bent.  With M = B^-1 (Gauss-Jordan), W_q(u) = W_q(0) (-1)^(q(Mu) +
    q(0)) (Carlet 2021): M's pairs x_i x_j, linear terms q(M e_i) + q(0)."""
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
    masks += [1 << i for i in range(n) if q(m[i]) != q(0)] + [0] * negative
    return _raw_bytes(truth_table_from_anf(AnfPolynomial.from_monomials(n, masks)).bits, 1 << n)


def quadratic_duals(f: BooleanFunction) -> tuple[np.ndarray, np.ndarray]:
    """The packed bent duals of a quadratic bent-negabent f and of g = f +
    sigma2, with no butterfly: W_f(u) = 2^(n/2) (-1)^(bit u of the first),
    W_g(u) likewise.  Else NotBentError: 'not quadratic: at <top monomial>',
    or 'not bent' / 'not negabent' at u = 0 from weights, since a quadratic
    that is not bent has |W| = 0 or 2^(n-r), r < n/2, at every point."""
    n, anf = f.n, anf_from_truth_table(f)
    top = anf.top_term()
    if top.bit_count() > 2:
        raise NotBentError(f"not quadratic: at {AnfPolynomial(n, 1 << top).to_text()}: "
                           f"degree {top.bit_count()} != quadratic <=2")
    pairs = [m for m in _set_bits(anf.coeffs, 1 << n).tolist() if m.bit_count() == 2]
    rows = [sum(m ^ 1 << i for m in pairs if m >> i & 1) for i in range(n)]
    table = f.table_bytes.tobytes()  # f(v) as a Python int, with no 2^n-bit shift
    w, re, im = (int(v[0]) for v in definitional_sums(f, [0]))  # W_f(0) and N_f(0)
    dual_f = _bent_dual(rows, lambda v: table[v >> 3] >> (v & 7) & 1, w < 0)
    # g adds every x_i x_j, so sigma2(v) = bit 1 of wt(v), and W_g(0) = re N_f(0) + im N_f(0)
    dual_g = None if dual_f is None else _bent_dual(
        [r ^ ((1 << n) - 1) ^ 1 << i for i, r in enumerate(rows)],
        lambda v: (table[v >> 3] >> (v & 7) ^ v.bit_count() >> 1) & 1, re + im < 0)
    if dual_g is None:
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
