"""Exact representations of Boolean functions: truth tables, ANF, bit vectors.

Index convention used everywhere in this package: the truth table entry at
index i is the value of f at the point whose j-th coordinate is bit j of i
(bit 0 = least significant), i.e. the first variable varies fastest.  A vector
and its truth-table index are therefore interchangeable.

Storage: every 2^n-entry table (truth table, vector set, ANF coefficients) is
one Python int whose bit i holds entry i.  This module owns that layout.  Only
`spectra` (`_sigma2_bytes`, `_spectrum`, `_class_masks`, `definitional_sums`,
and `quadratic_duals` with the packed duals of `_bent_dual`) and `oracle`
(`_table_difference`, `check_table1`, and `extract_frame_coefficients` and
`verify_construction`'s frame check, which decode those duals' sign bytes)
also read or write it.
Each conversion to or from it is one O(2^n) pass through numpy or a single
C-level int call, never a Python loop over entries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

DEFAULT_MAX_N = 24

_max_n = DEFAULT_MAX_N


class CapacityError(Exception):
    """Requested variable count exceeds the configured limit."""


class DimensionError(ValueError):
    """Operands live over different numbers of variables."""


class NotBentError(ValueError):
    """An operation that requires a bent function received a non-bent one."""


class InvalidSpecError(ValueError):
    """Malformed construction parameters (bad gamma lengths, coset reuse, ...)."""


def max_n() -> int:
    """Current capacity limit for the number of variables."""
    return _max_n


def set_max_n(limit: int) -> None:
    """Override the capacity limit, 1..24 (default 24).  Sizes above 24 are
    refused: nothing larger has been measured to finish in bounded time."""
    global _max_n
    if not 1 <= limit <= DEFAULT_MAX_N:
        raise ValueError(f"capacity limit must be between 1 and {DEFAULT_MAX_N}")
    _max_n = limit


def check_capacity(n: int) -> None:
    if n < 1:
        raise DimensionError("variable count must be positive")
    if n > _max_n:
        raise CapacityError(f"n={n} exceeds the configured limit of {_max_n} variables")


# ---------------------------------------------------------------------------
# bit packing helpers (numpy <-> python int bitmask)

def _raw_bytes(bits: int, size: int) -> np.ndarray:
    """Bitmask -> its little-endian bytes as a read-only uint8 array."""
    return np.frombuffer(bits.to_bytes(max(1, (size + 7) // 8), "little"), dtype=np.uint8)


def _pack_bits(arr: np.ndarray) -> int:
    packed = np.packbits(arr.astype(np.uint8, copy=False), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


# nonzero 64-bit words of a mask unpacked at once by `_set_bits`
_SET_BITS_CHUNK = 1 << 10


def _set_bits(bits: int, size: int) -> np.ndarray:
    """Positions of the set bits of a `size`-bit mask as an ascending int64
    array.  The result is allocated from the popcount and filled from a
    bounded chunk of the mask's nonzero words at a time, so a dense mask
    costs about 8 bytes a set bit and a sparse one a scan of its words."""
    words = np.frombuffer(bits.to_bytes(-(-size // 64) * 8, "little"), dtype="<u8")
    nz = np.flatnonzero(words)
    out = np.empty(bits.bit_count(), dtype=np.int64)
    filled = 0
    for start in range(0, nz.size, _SET_BITS_CHUNK):
        at = nz[start:start + _SET_BITS_CHUNK]
        rows, cols = np.nonzero(np.unpackbits(words[at].view(np.uint8),
                                              bitorder="little").reshape(-1, 64))
        out[filled:filled + rows.size] = at[rows] * 64 + cols
        filled += rows.size
    return out


def _index_array(n: int, indices: Iterable[int]) -> np.ndarray:
    """Table positions as an int64 array, each checked to lie in 0..2^n-1
    (numpy would silently wrap a negative index)."""
    check_capacity(n)
    if isinstance(indices, np.ndarray):
        idx = indices.astype(np.int64, copy=False)
    else:
        idx = np.fromiter(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= 1 << n):
        raise ValueError(f"index out of range for n={n}")
    return idx


def _check_table(n: int, bits: int, what: str) -> None:
    """A 2^n-entry table is an int in 0..2^(2^n)-1; compared by bit length so
    the 2^n-bit bound itself is never built."""
    check_capacity(n)
    if bits < 0 or bits.bit_length() > 1 << n:
        raise ValueError(f"{what} out of range for dimension")


def popcounts(size: int) -> np.ndarray:
    """Hamming weights of 0..size-1 as an int64 array."""
    return np.bitwise_count(np.arange(size, dtype=np.uint32)).astype(np.int64)


# spectrum lines, or ANF (term, variable) cells, formatted at a time: a few MiB
TEXT_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# vectors and vector sets


@dataclass(frozen=True)
class BitVector:
    """A vector in F_2^n.  `bits` is its truth-table index."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DimensionError("BitVector needs at least one coordinate")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError("bits out of range for dimension")

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        """Parse '0110...' where character j is coordinate j."""
        s = s.strip()
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"not a bit string: {s!r}")
        return cls(len(s), int(s[::-1], 2))

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(n, (1 << n) - 1)

    def weight(self) -> int:
        return self.bits.bit_count()

    def to_string(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1]

    def __str__(self) -> str:
        return self.to_string()


def _index(x) -> int:
    """The truth-table index of a BitVector or an int."""
    return x.bits if isinstance(x, BitVector) else int(x)


@dataclass(frozen=True)
class VectorSet:
    """A subset of F_2^n stored as a membership bitmask over indices."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        _check_table(self.n, self.mask, "membership mask")

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "VectorSet":
        """The set of the given indices; a repeated index counts once."""
        idx = _index_array(n, indices)
        table = np.zeros(1 << n, dtype=np.uint8)
        table[idx] = 1
        return cls(n, _pack_bits(table))

    def indices(self) -> list[int]:
        """Member indices, ascending."""
        return _set_bits(self.mask, 1 << self.n).tolist()


# ---------------------------------------------------------------------------
# Boolean functions


@dataclass(frozen=True)
class BooleanFunction:
    """f: F_2^n -> F_2 as a packed truth table (bit i = value at index i)."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        _check_table(self.n, self.bits, "truth table")

    @classmethod
    def from_values(cls, n: int, values: Sequence[int] | np.ndarray) -> "BooleanFunction":
        """Table from 2^n integer entries (a sequence or an array), each taken mod 2."""
        if len(values) != 1 << n:
            raise DimensionError("truth table length must be 2^n")
        # a uint8 cast keeps each entry's parity and stays 1 byte an entry
        return cls(n, _pack_bits(np.asarray(values).astype(np.uint8) & 1))

    def value(self, x) -> int:
        return (self.bits >> _index(x)) & 1

    @cached_property
    def table_bytes(self) -> np.ndarray:
        """The table's little-endian bytes (entry 8j + i is bit i of byte j)
        as a read-only uint8 array, built on first use and kept with the
        function, so its spectra and lookups pay one `to_bytes` in all."""
        return _raw_bytes(self.bits, 1 << self.n)

    def value_array(self) -> np.ndarray:
        """Truth table as a uint8 numpy array."""
        return np.unpackbits(self.table_bytes, count=1 << self.n, bitorder="little")

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> VectorSet:
        return VectorSet(self.n, self.bits)

    def __xor__(self, other: "BooleanFunction") -> "BooleanFunction":
        if self.n != other.n:
            raise DimensionError("cannot xor functions over different dimensions")
        return BooleanFunction(self.n, self.bits ^ other.bits)

    def to_hex(self) -> str:
        """Little-endian nibble string: hex digit j holds table bits 4j..4j+3."""
        ndigits = max(1, ((1 << self.n) + 3) // 4)
        return format(self.bits, f"0{ndigits}x")[::-1]

    @classmethod
    def from_hex(cls, n: int, s: str) -> "BooleanFunction":
        # refuse the size before 1 << n is ever built
        check_capacity(n)
        s = s.strip().lower()
        ndigits = max(1, ((1 << n) + 3) // 4)
        # int(s, 16) alone would also take '_', a sign and inner whitespace
        if len(s) != ndigits or not re.fullmatch("[0-9a-f]*", s):
            raise ValueError(f"expected {ndigits} hex digits, got {s!r}")
        bits = int(s[::-1], 16)
        if bits.bit_length() > 1 << n:
            raise ValueError("hex table has bits beyond 2^n entries")
        return cls(n, bits)


def characteristic_function(s: VectorSet) -> BooleanFunction:
    """Indicator of membership in s."""
    return BooleanFunction(s.n, s.mask)


# ---------------------------------------------------------------------------
# ANF


_TOP_BIT = np.array([max((i for i in range(8) if b >> i & 1), key=int.bit_count, default=0)
                     for b in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class AnfPolynomial:
    """Algebraic normal form: bit at position u = coefficient of the monomial
    prod_{j: bit j of u} x_j.  Position 0 is the constant term."""

    n: int
    coeffs: int

    def __post_init__(self) -> None:
        _check_table(self.n, self.coeffs, "coefficient mask")

    @classmethod
    def from_monomials(cls, n: int, monomials: Iterable[int]) -> "AnfPolynomial":
        """XOR-accumulate monomial masks (a mask appearing twice cancels)."""
        idx = _index_array(n, monomials)  # each bit XORed into the packed 2^(n-3) bytes
        packed = np.zeros(max(1, (1 << n) >> 3), dtype=np.uint8)
        np.bitwise_xor.at(packed, idx >> 3, (1 << (idx & 7)).astype(np.uint8))
        return cls(n, int.from_bytes(packed.tobytes(), "little"))

    def term_count(self) -> int:
        return self.coeffs.bit_count()

    def __xor__(self, other: "AnfPolynomial") -> "AnfPolynomial":
        if self.n != other.n:
            raise DimensionError("polynomial dimensions differ")
        return AnfPolynomial(self.n, self.coeffs ^ other.coeffs)

    def top_term(self) -> int:
        """Mask of the lowest monomial of largest weight, 0 for the zero
        polynomial.  Mask 8j + i weighs wt(j) + wt(i), and _TOP_BIT[b] is the
        lowest i of largest weight among the set bits of byte b."""
        raw = _raw_bytes(self.coeffs, 1 << self.n)
        nz = np.flatnonzero(raw)
        if nz.size == 0:
            return 0
        low = _TOP_BIT.take(raw[nz])
        j = int(np.argmax(np.bitwise_count(nz) + np.bitwise_count(low)))
        return 8 * int(nz[j]) + int(low[j])

    def degree(self) -> int:
        """Largest monomial weight, 0 for the zero polynomial."""
        return self.top_term().bit_count()

    def to_text(self) -> str:
        """Canonical text: monomials x<i> joined by '*', terms by '+',
        constant term '1', terms in ascending mask order; '0' if empty."""
        masks = _set_bits(self.coeffs, 1 << self.n)
        if masks.size == 0:
            return "0"
        # token 2j + 1 is '*x<j>' and 2j + 2 is '+x<j>', the term's lowest variable;
        # the constant term, the lowest mask, is '+1', and the first '+' is dropped
        tokens = np.array([b""] + [f"{s}x{j}".encode() for j in range(self.n) for s in "*+"])
        odd, step = np.arange(1, 2 * self.n, 2, dtype=np.uint8), TEXT_BLOCK // self.n

        def blocks():  # a generator: join frees the blocks before the text is decoded
            if masks[0] == 0:
                yield b"+1"
            for lo in range(0, masks.size, step):
                m = masks[lo:lo + step]
                bits, low = (np.unpackbits(a.astype("<u4").view(np.uint8).reshape(-1, 4), axis=1,
                                           count=self.n, bitorder="little") for a in (m, m & -m))
                code = bits * odd + low  # the set bits' tokens, term by term, zero-padded
                yield tokens.take(code[bits != 0]).tobytes().translate(None, b"\0")

        return str(memoryview(b"".join(blocks()))[1:], "ascii")


def _mobius(bits: int, n: int) -> int:
    """Self-inverse binary Moebius butterfly on a 2^n bitmask, run on its
    packed 64-bit words: six levels (h = 1 .. 32) by shift and mask inside
    a word, in one reused temporary, then XORed word blocks, 8x fewer
    elements than bytes.  For n < 6 the table is padded to one word and
    only n levels run, so the padding bits stay zero."""
    a = np.frombuffer(bits.to_bytes(max(8, (1 << n) >> 3), "little"), dtype="<u8").copy()
    t = np.empty_like(a)
    lows = (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
            0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF)
    for i, low in enumerate(lows[:n]):
        a ^= np.left_shift(np.bitwise_and(a, np.uint64(low), out=t), np.uint64(1 << i), out=t)
    del t  # freed before the result's bytes are made
    for i in range(n - 6):
        v = a.reshape(-1, 2, 1 << i)
        v[:, 1] ^= v[:, 0]
    return int.from_bytes(a.tobytes(), "little")


def anf_from_truth_table(f: BooleanFunction) -> AnfPolynomial:
    return AnfPolynomial(f.n, _mobius(f.bits, f.n))


def truth_table_from_anf(p: AnfPolynomial) -> BooleanFunction:
    return BooleanFunction(p.n, _mobius(p.coeffs, p.n))


# ---------------------------------------------------------------------------
# cyclic shifts and rotation symmetry


def cyclic_shift_action(f: BooleanFunction, l: int) -> BooleanFunction:
    """The function x -> f(rho_n^l(x)).  With x = hi * 2^l + lo,
    rho^l(x) = lo * 2^(n-l) + hi: the transpose of f's table as 2^l rows."""
    l %= f.n
    if l == 0:
        return f
    return BooleanFunction(f.n, _pack_bits(f.value_array().reshape(1 << l, -1).T))


def rotation_symmetry_order(f: BooleanFunction) -> int:
    """Minimal l > 0 with f(rho^l(x)) = f(x) for all x.

    The invariant shifts form a subgroup of Z_n, so the result divides n and
    only the divisors of n are tried.  Constants (invariant under every
    shift) return 1.
    """
    for l in range(1, f.n + 1):
        if f.n % l == 0 and cyclic_shift_action(f, l) == f:
            return l
    raise AssertionError("unreachable: l = n always fixes f")
