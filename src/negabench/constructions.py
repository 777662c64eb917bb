"""Bent-negabent constructions: base functions, modifier families, closed-form
ANFs, closed-form duals and the maximum-degree parity conditions.

A family's function is its base flipped on a modifier set, and its
closed-form dual is the base's dual flipped on a second set.  Both sets are
unions of cosets of one subspace (`subspaces.modifier_cells`, `_dual_cells`)
built by `coset_union`.  The closed-form ANF shares no code with that
builder: each cell is [Z = p] for a few disjoint variable sums Z_j, and
`_covering_sum_masks` sums the cells over the d bits of Z with one subset-sum
transform, then expands the Z^w left in the variables (at most 3^d masks) from
Z-power tables cached per half of the groups (3^6 masks at most at n <= 24).

The rotation-symmetric modifiers depend on x and y only through z = x + y:
an orbit sum is sum_{w in O(v)} z^w and a covering sum is [z = gamma], so
`decompose_orbit_sum` turns orbit sums into covering sums with one
2k-variable Moebius transform.

Variable layouts (fixed across the package):

* 4t-variable base g0 and its families: x = vars 0..2t-1 (x' low half,
  x'' high half), y = vars 2t..4t-1.
* (4t+2)-variable base h0: x = vars 0..2t-1, x_m = var 2t,
  y = vars 2t+1..4t, y_m = var 4t+1.
* 4k-variable rotation-symmetric base f0: x = vars 0..2k-1, y = vars
  2k..4k-1; the even/odd sublists are x_ev = (x_0, x_2, ...),
  x_od = (x_1, x_3, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence, Union

from .core import (
    AnfPolynomial,
    BitVector,
    BooleanFunction,
    InvalidSpecError,
    VectorSet,
    characteristic_function,
    check_capacity,
    truth_table_from_anf,
)
from .subspaces import (
    SET_SHAPES,
    GammaSpec,
    build_modifier_set,
    coset_union,
    modifier_cells,
    orbit,
    swap_halves,
)


@dataclass(frozen=True)
class Family:
    """One construction family: a quadratic bent-negabent base plus the
    indicator of a modifier set.  The base, its parameter, the variable count,
    the maximum degree and rotation symmetry all follow from the set tag."""

    name: str
    set_tag: str  # modifier set: S1..S4, or T for the rotation-symmetric forms
    params_key: str  # key of the parameter vectors in a function file

    @property
    def base(self) -> str:
        return SET_SHAPES[self.set_tag].base

    @property
    def rotation_symmetric(self) -> bool:
        return self.set_tag == "T"

    @property
    def param_keys(self) -> set[str]:
        """The params keys the family reads (GammaSpec refuses E sets outside S3/S4)."""
        return {"k", self.params_key} | (set() if self.rotation_symmetric else {"esets"})

    def base_param(self, k: int) -> int:
        return SET_SHAPES[self.set_tag].t_per_k * k

    def n(self, k: int) -> int:
        return SET_SHAPES[self.set_tag].n(k)

    def max_degree(self, k: int) -> int:
        return self.n(k) // 2


FAMILY_TABLE = {f.name: f for f in (
    Family("G4K", "S1", "gammas"),
    Family("G8K", "S2", "gammas"),
    Family("H4K2", "S3", "gammas"),
    Family("H8K2", "S4", "gammas"),
    Family("F2RS", "T", "p"),
    Family("F2RS_SET", "T", "a_set"),
    Family("F2RS_ORBIT", "T", "gamma"),
)}

FAMILIES = tuple(FAMILY_TABLE)


def normalize_family(name: str) -> str:
    tag = name.strip().upper().replace("-", "_")
    if tag not in FAMILY_TABLE:
        raise InvalidSpecError(f"unknown family {name!r}; choose from {FAMILIES}")
    return tag


def family_of(name: str) -> Family:
    return FAMILY_TABLE[normalize_family(name)]


# ---------------------------------------------------------------------------
# base functions


def _g0_anf(t: int) -> AnfPolynomial:
    """x . y + y' . y'' on 4t variables (m = 2t)."""
    m, n = 2 * t, 4 * t
    mons = [(1 << i) | (1 << (m + i)) for i in range(m)]
    mons += [(1 << (m + i)) | (1 << (m + t + i)) for i in range(t)]
    return AnfPolynomial.from_monomials(n, mons)


def _h0_anf(t: int) -> AnfPolynomial:
    """X . Y + x_0 y_m + y' . y'' on 4t+2 variables (m = 2t)."""
    m, n = 2 * t, 4 * t + 2
    mons = [(1 << i) | (1 << (m + 1 + i)) for i in range(m + 1)]
    mons.append((1 << 0) | (1 << (2 * m + 1)))
    mons += [(1 << (m + 1 + i)) | (1 << (m + 1 + t + i)) for i in range(t)]
    return AnfPolynomial.from_monomials(n, mons)


def _f0_anf(k: int) -> AnfPolynomial:
    """x_ev.x_od + y_ev.y_od + x_od.y_od on 4k variables."""
    n = 4 * k
    mons = []
    for i in range(k):
        mons.append((1 << (2 * i)) | (1 << (2 * i + 1)))
        mons.append((1 << (2 * k + 2 * i)) | (1 << (2 * k + 2 * i + 1)))
        mons.append((1 << (2 * i + 1)) | (1 << (2 * k + 2 * i + 1)))
    return AnfPolynomial.from_monomials(n, mons)


def _sigma2_anf(n: int) -> AnfPolynomial:
    """Homogeneous symmetric quadratic: sum of all x_i x_j, i < j."""
    mons = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    return AnfPolynomial.from_monomials(n, mons)


def _g0_dual_anf(t: int) -> AnfPolynomial:
    """x' . x'' + x . y on 4t variables."""
    m, n = 2 * t, 4 * t
    mons = [(1 << i) | (1 << (t + i)) for i in range(t)]
    mons += [(1 << i) | (1 << (m + i)) for i in range(m)]
    return AnfPolynomial.from_monomials(n, mons)


def _h0_dual_anf(t: int) -> AnfPolynomial:
    """X . Y + x' . x'' + x_m (x_t + y_0) on 4t+2 variables."""
    m, n = 2 * t, 4 * t + 2
    mons = [(1 << i) | (1 << (m + 1 + i)) for i in range(m + 1)]
    mons += [(1 << i) | (1 << (t + i)) for i in range(t)]
    mons.append((1 << m) | (1 << t))
    mons.append((1 << m) | (1 << (m + 1)))
    return AnfPolynomial.from_monomials(n, mons)


def _f0_dual_quadratic_anf(k: int) -> AnfPolynomial:
    """x_ev.x_od + y_ev.y_od + x_ev.y_ev on 4k variables."""
    n = 4 * k
    mons = []
    for i in range(k):
        mons.append((1 << (2 * i)) | (1 << (2 * i + 1)))
        mons.append((1 << (2 * k + 2 * i)) | (1 << (2 * k + 2 * i + 1)))
        mons.append((1 << (2 * i)) | (1 << (2 * k + 2 * i)))
    return AnfPolynomial.from_monomials(n, mons)


# per base, the builders of its ANF and of its dual's; sigma2 is no family's base
_BASES = {"g0": (_g0_anf, _g0_dual_anf), "h0": (_h0_anf, _h0_dual_anf),
          "f0": (_f0_anf, _f0_dual_quadratic_anf), "sigma2": (_sigma2_anf, None)}


# Built once per (base, param), which every spec of one family and k shares.
# n <= 24 leaves 41 keys, and all held at once are 8.8 MiB of ANFs, 8.8 MiB of
# tables (twice that once their bytes are read) and 4.8 MiB of dual bases.
@cache
def base_anf(name: str, param: int) -> AnfPolynomial:
    """ANF of a named base function.  param = t for g0/h0, k for f0, n for sigma2."""
    if name not in _BASES:
        raise InvalidSpecError(f"unknown base function {name!r}")
    if param < 1:
        raise InvalidSpecError("base function parameter must be positive")
    return _BASES[name][0](param)


@cache
def base_function(name: str, param: int) -> BooleanFunction:
    return truth_table_from_anf(base_anf(name, param))


@cache  # one table per (base, param), as for base_function
def _dual_base(name: str, param: int) -> BooleanFunction:
    return truth_table_from_anf(_BASES[name][1](param))


# ---------------------------------------------------------------------------
# covering sums: every modifier cell is [Z = p] for a few linear forms Z_j,
# each the sum of the variables in one of a set of disjoint masks


@cache
def _z_powers(groups: tuple[int, ...]) -> list[list[int]]:
    """The monomials of Z^w = prod_{j in w} Z_j, Z_j the sum of groups[j], for every w."""
    table = [[0]]
    for g in groups:
        table += [[m | 1 << v for m in ms for v in range(g.bit_length()) if g >> v & 1]
                  for ms in table]
    return table


def _z_power_masks(groups: Sequence[int], ws: Iterable[int]) -> list[int]:
    """The monomials of Z^w for each w of ws, each the product of its halves'."""
    h = len(groups) // 2
    lo, hi = _z_powers(tuple(groups[:h])), _z_powers(tuple(groups[h:]))
    return [a | b for w in ws for a in lo[w & (1 << h) - 1] for b in hi[w >> h]]


def _covering_sum_masks(groups: Sequence[int], points: Iterable[int]) -> list[int]:
    """The sum over the points p of [Z = p] = prod_j (Z_j + p_j + 1), the sum of the
    Z^w over the w covering p: the subset-sum transform of the points' indicator over
    the d = len(groups) bits of Z.  Only the Z^w left are expanded: at most 3^d masks."""
    s = 1 << len(groups)
    z_sum, m = 0, (1 << s) - 1
    for p in points:
        z_sum ^= 1 << p
    # written out, not core's Moebius: the closed ANF is the reference that one is checked against
    for _ in groups:  # s = 2^i for i = d-1, ..., 0; below bit 2^d, m keeps the w with bit i clear
        s >>= 1
        m ^= m << s
        z_sum ^= (z_sum & m) << s
    return _z_power_masks(groups, (w for w, b in enumerate(bin(z_sum)[:1:-1]) if b == "1"))


# ---------------------------------------------------------------------------
# rotation-symmetric parameter bundle


@dataclass(frozen=True)
class RotationSpec:
    """Vectors of length 2k parameterizing the rotation-symmetric families:
    orbit representatives P (covering form), representatives A (orbit-sum
    form) or a single gamma (single-orbit form)."""

    k: int
    vectors: tuple[BitVector, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidSpecError("k must be a positive integer")
        if not self.vectors:
            raise InvalidSpecError("vector set must be nonempty")
        for v in self.vectors:
            if v.n != 2 * self.k:
                raise InvalidSpecError(
                    f"rotation-symmetric specs with k={self.k} need vectors of "
                    f"length {2 * self.k}, got {v.n}")
        if len(set(v.bits for v in self.vectors)) != len(self.vectors):
            raise InvalidSpecError("duplicate vector")

    def normalized_reps(self) -> tuple[BitVector, ...]:
        """Canonical orbit representatives, sorted; rejects two vectors from
        the same cyclic orbit."""
        reps = sorted(set(orbit(v)[0] for v in self.vectors))
        if len(reps) != len(self.vectors):
            raise InvalidSpecError("two vectors lie in the same cyclic orbit")
        return tuple(BitVector(2 * self.k, r) for r in reps)


ConstructionSpec = Union[GammaSpec, RotationSpec]


def _resolve(fam: Family, spec: ConstructionSpec) -> ConstructionSpec:
    """Check a spec against its family and return the canonical parameters:
    the GammaSpec itself for S1..S4, the sorted orbit representatives for T."""
    if not fam.rotation_symmetric:
        if not isinstance(spec, GammaSpec) or spec.family != fam.set_tag:
            raise InvalidSpecError(f"{fam.name} needs a {fam.set_tag}-tagged GammaSpec")
        return spec
    if not isinstance(spec, RotationSpec):
        raise InvalidSpecError(f"{fam.name} needs a RotationSpec")
    vectors = spec.normalized_reps()
    if fam.name == "F2RS_ORBIT":
        if len(vectors) != 1:
            raise InvalidSpecError("single-orbit form takes exactly one vector")
        if vectors[0].weight() < 2:
            raise InvalidSpecError(
                "single-orbit form needs wt(gamma) >= 2 (lower weights break flatness)")
    return RotationSpec(spec.k, vectors)


def _modifier_spec(fam: Family, params: ConstructionSpec) -> GammaSpec:
    """Parameters of the modifier set for canonical family parameters.  For
    T this is the orbit closure of the covering-form representatives; the
    orbit-sum forms get theirs by decomposition, so the truth table they
    build is checked against their defining orbit-sum ANF."""
    if not fam.rotation_symmetric:
        return params  # type: ignore[return-value]
    k = params.k
    reps = params.vectors if fam.name == "F2RS" else decompose_orbit_sum(k, params.vectors)
    idx = sorted(set(i for v in reps for i in orbit(v)))
    return GammaSpec(k, "T", tuple(BitVector(2 * k, i) for i in idx))


# ---------------------------------------------------------------------------
# orbit sums as covering sums


def decompose_orbit_sum(k: int, vectors: Iterable[BitVector]) -> tuple[BitVector, ...]:
    """The orbit representatives P whose covering sums add up to the orbit
    sums of the given vectors, ascending.

    Both sums are functions of z = x + y alone: the orbit sums add up to
    the 2k-variable function whose ANF is sum_v sum_{w in O(v)} z^w, and
    the covering sum of gamma is the indicator [z = gamma].  So the
    covering sums to take are those of the support of that function, one
    Moebius transform away; the transform is a bijection, so P always
    exists and is unique.  The support is rotation-closed and P keeps the
    member of each orbit that is minimal."""
    k2 = 2 * k
    anf = AnfPolynomial.from_monomials(k2, (w for v in vectors for w in orbit(v)))
    support = truth_table_from_anf(anf).support().indices()
    return tuple(BitVector(k2, g) for g in support
                 if orbit(BitVector(k2, g))[0] == g)


# ---------------------------------------------------------------------------
# closed-form ANFs


def _cell_covering(spec: GammaSpec) -> tuple[list[int], list[int]]:
    """The cells of an S1..S4 set as (groups, points), the cell of gamma
    being [Z = p] over the points p of gamma.

    * S1, S3: Z = (x' + x'', y' + y''), and p = gamma.
    * S2, S4: Z = the 2k pair sums of x and the 2k of y, and p = (0, the
      pair sums of gamma).
    * S3, S4: x_m sits free between x and y, Z gains y_m, and gamma has
      one point per value of its E set.
    """
    k = spec.k
    pairs = spec.shape.pairs
    w = 2 * spec.shape.t_per_k * k  # width of x and of y
    e = int(spec.e_sets is not None)
    half = [3 << (2 * i) for i in range(2 * k)] if pairs else [(1 | 1 << k) << j for j in range(k)]
    groups = half + [g << (w + e) for g in half] + [1 << (2 * w + 1)] * e
    points = []
    for i, g in enumerate(spec.gammas):
        b = g.bits  # S2, S4: bit j of the y half of p is b_2j + b_2j+1
        p = (sum(((b >> 2 * j ^ b >> 2 * j + 1) & 1) << j for j in range(2 * k)) << 2 * k
             if pairs else b)
        points += [p | ym << (2 * len(half)) for ym in spec.e_values(i)]
    return groups, points


def closed_form_anf(fam: Family, params: ConstructionSpec) -> AnfPolynomial:
    """The base's ANF plus the modifier's for resolved parameters: the
    covering sums of the cells, or for F2RS_SET / F2RS_ORBIT the defining
    orbit sums of z = x + y."""
    k = params.k
    z = [(1 | 1 << (2 * k)) << j for j in range(2 * k)]  # z = x + y on 4k variables
    if not fam.rotation_symmetric:
        masks = _covering_sum_masks(*_cell_covering(params))
    elif fam.name == "F2RS":
        masks = _covering_sum_masks(z, (g for beta in params.vectors for g in orbit(beta)))
    else:
        masks = _z_power_masks(z, (w for v in params.vectors for w in orbit(v)))
    base = base_anf(fam.base, fam.base_param(k))
    return base ^ AnfPolynomial.from_monomials(base.n, masks)


# ---------------------------------------------------------------------------
# closed-form duals


def _dual_cells(spec: GammaSpec) -> tuple[int, list[int], list[int]]:
    """The set on which the closed-form dual flips the base's dual, as
    (n, basis, offsets) in the layout of `subspaces.modifier_cells`.

    * S1: the S1 cells of (gamma_2, gamma_1 + gamma_2 + 1_k).
    * S2: x in gamma + A_2^(2k), y in swap(gamma) + A_2^(2k), where swap
      exchanges the halves of gamma.
    * S3, S4: the S1 and S2 dual cells with x_m in E_gamma and y_m free, and
      x moved by x_m e_0: the x_m (x_t + y_0) term of the h0 dual flips
      bit 0 of x'' only, not all of x''.
    * T: the T cells of d with d_ev = gamma_od and d_od = gamma_ev + gamma_od
      + 1_k, split into even and odd positions, since both coordinates the
      dual reads are linear in x + y.
    """
    n, basis, _ = modifier_cells(spec)
    k = spec.k
    if spec.family == "T":
        ev = ((1 << (2 * k)) - 1) // 3  # the even positions 0, 2, ..., 2k-2
        ds = [(g >> 1) & ev | ((g ^ (g >> 1) ^ ev) & ev) << 1
              for g in (v.bits for v in spec.gammas)]
        return n, basis, [d << (2 * k) for d in ds]
    e, pairs = int(spec.e_sets is not None), spec.shape.pairs
    w = n // 2 - e  # width of x and of y
    if e:  # y_m is free and x_m is restricted instead
        basis = [b for b in basis if b != 1 << w] + [1 << (n - 1)]
    offsets = []
    for i, g in enumerate(spec.gammas):
        if pairs:
            x, y = g.bits, swap_halves(g.bits, 2 * k)
        else:
            g1, g2 = spec.gamma_halves(i)
            x, y = g2, g1 ^ g2 ^ ((1 << k) - 1)
        offsets += [x ^ xm | xm << w | y << (w + e) for xm in spec.e_values(i)]
    return n, basis, offsets


def closed_form_dual(fam: Family, gs: GammaSpec) -> BooleanFunction:
    """The base's dual flipped on the dual set of the modifier spec `gs`."""
    dual_set = coset_union(*_dual_cells(gs))
    return _dual_base(fam.base, fam.base_param(gs.k)) ^ characteristic_function(dual_set)


# ---------------------------------------------------------------------------
# construction driver


@dataclass(frozen=True)
class ConstructedFunction:
    """`function` = `base` + the indicator of `modifier_set`, with its closed forms."""

    function: BooleanFunction
    family: str
    params: ConstructionSpec
    closed_anf: AnfPolynomial
    closed_dual: BooleanFunction
    predicts_max_degree: bool
    base: BooleanFunction
    modifier_set: VectorSet

    @property
    def n(self) -> int:
        return self.function.n

    @property
    def k(self) -> int:
        return self.params.k


def construct(family: str, spec: ConstructionSpec) -> ConstructedFunction:
    """Build the function, its closed-form ANF, its closed-form dual and the
    degree parity flag from one resolution of the spec.  The truth table and
    the closed forms are assembled by independent routes so verification is
    meaningful.

    The flag says whether the parameter parity condition for reaching the
    family's maximum algebraic degree holds: the modifier set has an odd
    number of cells, each value of an E set counted.  The single-orbit form
    instead has degree wt(gamma) exactly."""
    fam = family_of(family)
    # reject over-capacity sizes before the closed-form expansion, whose cost
    # grows much faster than the truth table itself
    check_capacity(fam.n(spec.k))
    params = _resolve(fam, spec)
    gs = _modifier_spec(fam, params)
    if fam.name == "F2RS_ORBIT":
        flag = params.vectors[0].weight() == fam.max_degree(params.k)
    else:
        flag = (len(gs.gammas) if gs.e_sets is None else gs.e_size_sum()) % 2 == 1
    base = base_function(fam.base, fam.base_param(params.k))
    modifier_set = build_modifier_set(gs)
    return ConstructedFunction(
        function=base ^ characteristic_function(modifier_set),
        family=fam.name,
        params=params,
        closed_anf=closed_form_anf(fam, params),
        closed_dual=closed_form_dual(fam, gs),
        predicts_max_degree=flag,
        base=base,
        modifier_set=modifier_set,
    )


# ---------------------------------------------------------------------------
# function-file parameter round trip


def params_to_dict(cf: ConstructedFunction) -> dict:
    spec = cf.params
    key = FAMILY_TABLE[cf.family].params_key
    vectors = spec.gammas if isinstance(spec, GammaSpec) else spec.vectors
    strings = [v.to_string() for v in vectors]
    d: dict = {"k": spec.k, key: strings[0] if key == "gamma" else strings}
    if isinstance(spec, GammaSpec) and spec.e_sets is not None:
        d["esets"] = list(spec.e_sets)
    return d


def _string_list(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise InvalidSpecError(f"{what} must be a list of strings")
    return value


def spec_from_dict(family: str, d: dict) -> ConstructionSpec:
    """Parameters from a function file's params object (or the CLI flags
    gathered into one); params that are not a dict with str keys, or a
    malformed entry, raise InvalidSpecError."""
    fam = family_of(family)
    if not isinstance(d, dict) or not all(isinstance(key, str) for key in d):
        raise InvalidSpecError("params must be an object")
    unread = sorted(set(d) - fam.param_keys)
    if unread:
        raise InvalidSpecError(f"{fam.name} does not read {', '.join(unread)}")
    if "k" not in d:
        raise InvalidSpecError("params need a k entry")
    k = d["k"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise InvalidSpecError(f"params k must be an integer, got {k!r}")
    raw = d.get(fam.params_key, [])
    if fam.params_key == "gamma":
        if not raw or not isinstance(raw, str):
            raise InvalidSpecError("single-orbit gamma must be one bit string")
        raw = [raw]
    vectors = tuple(BitVector.from_string(s) for s in _string_list(raw, fam.params_key))
    if fam.rotation_symmetric:
        return RotationSpec(k, vectors)
    esets = d.get("esets")
    if esets is not None:
        esets = tuple(_string_list(esets, "esets"))
    return GammaSpec(k, fam.set_tag, vectors, esets)


def function_file_dict(cf: ConstructedFunction) -> dict:
    return {
        "n": cf.n,
        "family": cf.family,
        "params": params_to_dict(cf),
        "tt_hex": cf.function.to_hex(),
        "anf": cf.closed_anf.to_text(),
        "dual_tt_hex": cf.closed_dual.to_hex(),
        "predicts_max_degree": cf.predicts_max_degree,
    }
