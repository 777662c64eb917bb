"""Coset and orbit machinery, and the modifier sets S1, S2, S3, S4 and the
rotation-symmetric set T.

Every modifier set is a union of cosets of one linear subspace:
`modifier_cells` gives its basis and one offset per coset, and
`coset_union` builds the set from them, about 2^20 points at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .core import (
    BitVector,
    InvalidSpecError,
    VectorSet,
    check_capacity,
)


# ---------------------------------------------------------------------------
# coset unions


def coset_union(n: int, basis: Iterable[int], offsets: Iterable[int]) -> VectorSet:
    """The union over the offsets of the cosets offset + span(basis) in F_2^n.
    Starting from the origin, the span is doubled by its translate under each
    basis vector; a dependent vector only repeats points, which
    `VectorSet.from_indices` counts once.  The cosets are listed about 2^20
    points (8 MiB) at a time, so a union of all 2^24 is never listed whole."""
    check_capacity(n)
    pts = np.zeros(1, dtype=np.int64)
    for b in basis:
        pts = np.concatenate((pts, pts ^ b))
    offs = np.fromiter(offsets, dtype=np.int64)
    step, mask = max(1, (1 << 20) // pts.size), 0
    for start in range(0, offs.size, step):
        mask |= VectorSet.from_indices(n, (offs[start:start + step, None] ^ pts).ravel()).mask
    return VectorSet(n, mask)


def swap_halves(bits: int, half: int) -> int:
    """Exchange the low and high `half`-bit halves of a 2*half-bit vector."""
    return (bits >> half) | ((bits & ((1 << half) - 1)) << half)


# ---------------------------------------------------------------------------
# cyclic orbits


def orbit(x: BitVector) -> tuple[int, ...]:
    """Indices of all cyclic coordinate shifts of x, ascending.  At most n
    points, so they are kept as ints rather than as a 2^n-entry set."""
    n = x.n
    idxs = set()
    cur = x.bits
    for _ in range(n):
        idxs.add(cur)
        low = cur & 1
        cur = (cur >> 1) | (low << (n - 1))
    return tuple(sorted(idxs))


def orbit_representatives(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The least member of every cyclic orbit of F_2^n, ascending, and its
    orbit's length, as uint32 arrays, from 2^16 points at a time: x is least
    when every rotation of it is >= x, and the length is the least l
    dividing n with rho^l x = x (the shifts fixing x are a subgroup of Z_n)."""
    check_capacity(n)
    parts = []
    for start in range(0, 1 << n, 1 << 16):
        x = np.arange(start, min(1 << n, start + (1 << 16)), dtype=np.uint32)
        cur, least, length = x, np.ones(x.shape, dtype=bool), np.full(x.shape, n, dtype=np.uint32)
        for l in range(1, n):
            cur = cur >> 1 | (cur & 1) << (n - 1)
            least &= cur >= x
            if n % l == 0:
                length[(cur == x) & (length == n)] = l
        parts.append((x[least], length[least]))
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


# ---------------------------------------------------------------------------
# modifier-set parameter bundle


class SetShape(NamedTuple):
    """A modifier-set shape: its gammas have 2t bits, and on h0 an E set each."""

    base: str  # g0, h0 or f0
    t_per_k: int  # the base parameter t is t_per_k * k
    bound: int  # the most nega candidates its fragment lemma admits at a point; 0: no lemma

    def n(self, k: int) -> int:  # g0(t) and f0(t) have 4t variables, h0(t) has 4t+2
        return 4 * self.t_per_k * k + 2 * (self.base == "h0")

    @property
    def pairs(self) -> bool:  # whether the cells lie on cosets of A_2^(2k)
        return self.t_per_k == 2


SET_SHAPES = {"S1": SetShape("g0", 1, 1), "S2": SetShape("g0", 2, 1), "S3": SetShape("h0", 1, 2),
              "S4": SetShape("h0", 2, 1), "T": SetShape("f0", 1, 0)}

E_SYMBOLS = {"0": (0,), "1": (1,), "B": (0, 1)}


@dataclass(frozen=True)
class GammaSpec:
    """Parameters of one modifier set.

    `family` names the set shape, a key of SET_SHAPES, whose row fixes the
    expected gamma length 2t.  `e_sets` aligns with `gammas` and is required
    exactly for the h0 shapes ('0', '1' or 'B' = both).
    """

    k: int
    family: str
    gammas: tuple[BitVector, ...]
    e_sets: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidSpecError("k must be a positive integer")
        if self.family not in SET_SHAPES:
            raise InvalidSpecError(f"unknown set family {self.family!r}")
        if not self.gammas:
            raise InvalidSpecError("gamma set must be nonempty")
        glen = 2 * self.shape.t_per_k * self.k
        for g in self.gammas:
            if g.n != glen:
                raise InvalidSpecError(
                    f"{self.family} with k={self.k} needs gammas of length {glen}, "
                    f"got {g.n}"
                )
        if len(set(g.bits for g in self.gammas)) != len(self.gammas):
            raise InvalidSpecError("duplicate gamma")
        if self.shape.base == "h0":
            if self.e_sets is None or len(self.e_sets) != len(self.gammas):
                raise InvalidSpecError(
                    f"{self.family} needs one E entry per gamma")
            for sym in self.e_sets:
                if sym not in E_SYMBOLS:
                    raise InvalidSpecError(f"E entries must be '0', '1' or 'B', got {sym!r}")
        elif self.e_sets is not None:
            raise InvalidSpecError(f"{self.family} takes no E sets")
        if self.shape.pairs:
            # two gammas share a coset of A_2^(2k) iff their pair sums agree
            low = ((1 << glen) - 1) // 3  # the low bit of every pair
            cosets: dict[int, list[BitVector]] = {}
            for g in self.gammas:
                cosets.setdefault((g.bits ^ g.bits >> 1) & low, []).append(g)
            clash = next((c for c in cosets.values() if len(c) > 1), None)
            if clash:
                raise InvalidSpecError(
                    f"gammas {clash[0]} and {clash[1]} lie in the same coset of "
                    "the pair-repetition subspace")

    @property
    def shape(self) -> SetShape:
        return SET_SHAPES[self.family]

    def e_values(self, i: int) -> tuple[int, ...]:
        """The E set of gamma i; a shape without E sets reads as E = {0}."""
        return E_SYMBOLS[self.e_sets[i]] if self.e_sets else (0,)

    def e_size_sum(self) -> int:
        assert self.e_sets is not None
        return sum(len(E_SYMBOLS[s]) for s in self.e_sets)

    def gamma_halves(self, i: int) -> tuple[int, int]:
        """(gamma_1, gamma_2) as ints over the low/high halves."""
        g = self.gammas[i]
        half = g.n // 2
        return g.bits & ((1 << half) - 1), g.bits >> half


def _diagonal(half: int, offset: int) -> list[int]:
    """Basis of z'' = z' on the 2*half coordinates from `offset` on, z' the
    low half."""
    return [(1 | 1 << half) << (offset + j) for j in range(half)]


def modifier_cells(spec: GammaSpec) -> tuple[int, list[int], list[int]]:
    """The modifier set as (n, basis, offsets): the union over the offsets of
    the cosets offset + span(basis).

    * S1: x'' = x' + gamma_1, y'' = y' + gamma_2 inside F_2^(4k).
    * S2: x in A_2^(2k), y in gamma + A_2^(2k) inside F_2^(8k).
    * S3, S4: the S1 and S2 cells with x_m free between x and y, and y_m in
      E_gamma after y.
    * T: the graph {(x, x + gamma)} inside F_2^(4k).
    """
    k = spec.k
    if spec.family == "T":
        return 4 * k, _diagonal(2 * k, 0), [g.bits << (2 * k) for g in spec.gammas]
    pairs = spec.shape.pairs
    w = 2 * spec.shape.t_per_k * k  # width of x and of y
    e = int(spec.e_sets is not None)  # 1 when x_m and y_m are present
    # A_2^(2k) is spanned by the pairs 11 at coordinates (2i, 2i+1)
    x_basis = [3 << (2 * i) for i in range(2 * k)] if pairs else _diagonal(k, 0)
    basis = x_basis + [1 << w] * e + [b << (w + e) for b in x_basis]
    offsets = []
    for i, g in enumerate(spec.gammas):
        # the cell's point with x'' = y'' = 0 (S1, S3) or with x = 0 (S2, S4)
        x, y = (0, g.bits) if pairs else spec.gamma_halves(i)
        offsets += [x | y << (w + e) | ym << (2 * w + 1) for ym in spec.e_values(i)]
    return 2 * (w + e), basis, offsets


def build_modifier_set(spec: GammaSpec) -> VectorSet:
    return coset_union(*modifier_cells(spec))


def build_T(spec: GammaSpec) -> VectorSet:
    """The graph-type set {(x, x + gamma)} of a T-tagged spec; the relation
    table builds its T indicators through this name."""
    if spec.family != "T":
        raise InvalidSpecError(f"spec is tagged {spec.family}, build_T needs T")
    return build_modifier_set(spec)
