"""The S1..S4 and F2RS closed ANFs against a literal per-cell expansion.

`closed_form_anf` sums the cells' indicators [Z = p] over the bits of Z
before it expands them in the variables.  The reference below expands each
cell's factored indicator on its own, one product of disjoint variable sums
per cell, and XORs the monomials; it takes nothing from `constructions` but
the base ANFs.  The Z-level sum is also pinned on its own: against the literal
superset lists of its points, and against `decompose_orbit_sum`, whose table
side runs the Moebius transform of `core`.
"""

import random

import pytest

from negabench.core import AnfPolynomial, BitVector, anf_from_truth_table
from negabench.subspaces import GammaSpec, orbit
from negabench.constructions import (
    FAMILY_TABLE,
    RotationSpec,
    _covering_sum_masks,
    _z_power_masks,
    base_anf,
    closed_form_anf,
    construct,
    decompose_orbit_sum,
)

FAMILY_OF_SET = {"S1": "G4K", "S2": "G8K", "S3": "H4K2", "S4": "H8K2"}


# ---------------------------------------------------------------------------
# reference: each cell's indicator expanded on its own


def _expand_product(factors):
    masks = [0]
    for f in factors:
        masks = [m | t for m in masks for t in f]
    return masks


def _s_beta_factors(k, beta_bits, offset):
    """x'' = x' + beta on a 2k-variable block at `offset`, factored as
    prod_j (x'_j + x''_j + beta_j + 1)."""
    factors = []
    for j in range(k):
        terms = [1 << (offset + j), 1 << (offset + k + j)]
        if not (beta_bits >> j) & 1:
            terms.append(0)
        factors.append(terms)
    return factors


def _pair_factors(pairs, offset, gamma_bits=0):
    """gamma + A_2^pairs on a 2*pairs block, factored as
    prod_i (z_{2i} + z_{2i+1} + gamma_{2i} + gamma_{2i+1} + 1)."""
    factors = []
    for i in range(pairs):
        terms = [1 << (offset + 2 * i), 1 << (offset + 2 * i + 1)]
        if (((gamma_bits >> (2 * i)) ^ (gamma_bits >> (2 * i + 1))) & 1) == 0:
            terms.append(0)
        factors.append(terms)
    return factors


def _e_factor(var, symbol):
    """y_m in E over the single variable `var`."""
    return {"1": [1 << var], "0": [1 << var, 0], "B": [0]}[symbol]


def _cell_factors(spec, i):
    k = spec.k
    x_m = 0 if spec.e_sets is None else 1
    if spec.family in ("S1", "S3"):
        g = spec.gammas[i].bits
        g1, g2 = g & ((1 << k) - 1), g >> k
        factors = _s_beta_factors(k, g1, 0) + _s_beta_factors(k, g2, 2 * k + x_m)
        last = 4 * k + 1
    else:
        factors = (_pair_factors(2 * k, 0)
                   + _pair_factors(2 * k, 4 * k + x_m, spec.gammas[i].bits))
        last = 8 * k + 1
    if spec.e_sets is not None:
        factors.append(_e_factor(last, spec.e_sets[i]))
    return factors


def reference_anf(spec):
    k = spec.k
    base = base_anf("h0" if spec.e_sets is not None else "g0",
                    2 * k if spec.family in ("S2", "S4") else k)
    masks = [m for i in range(len(spec.gammas)) for m in _expand_product(_cell_factors(spec, i))]
    return base ^ AnfPolynomial.from_monomials(base.n, masks)


# ---------------------------------------------------------------------------
# seeded specs up to n = 14: S1 at k <= 3, S3 at k <= 3, S2 and S4 at k = 1


def _random_gammas(rng, tag, k, count):
    """`count` distinct gammas; for S2/S4 one random member of each of
    `count` distinct cosets of A_2^(2k)."""
    if tag in ("S1", "S3"):
        return rng.sample(range(1 << (2 * k)), count)
    cosets = rng.sample(range(1 << (2 * k)), count)
    return [sum(((c >> i) & 1) << (2 * i) for i in range(2 * k))
            ^ sum(3 << (2 * i) for i in range(2 * k) if rng.random() < 0.5)
            for c in cosets]


def _spec(rng, tag, k, gammas):
    glen = 4 * k if tag in ("S2", "S4") else 2 * k
    e_sets = None
    if tag in ("S3", "S4"):
        e_sets = tuple(rng.choice("01B") for _ in gammas)
    return GammaSpec(k, tag, tuple(BitVector(glen, g) for g in gammas), e_sets)


def _seeded_specs():
    rng = random.Random(20261018)
    specs = []
    for tag in ("S1", "S2", "S3", "S4"):
        for k in (1,) if tag in ("S2", "S4") else (1, 2, 3):
            cells = 1 << (2 * k)
            for _ in range(12):
                count = rng.randint(1, min(12, cells))
                specs.append(_spec(rng, tag, k, _random_gammas(rng, tag, k, count)))
            # every gamma (every coset for S2/S4)
            specs.append(_spec(rng, tag, k, _random_gammas(rng, tag, k, cells)))
    # S3 gammas that share gamma_1 and differ in gamma_2
    for k in (1, 2, 3):
        for _ in range(4):
            g1 = rng.randrange(1 << k)
            g2s = rng.sample(range(1 << k), rng.randint(2, min(4, 1 << k)))
            specs.append(_spec(rng, "S3", k, [g1 | g2 << k for g2 in g2s]))
    return specs


def _wide_pair_specs():
    """S2 and S4 at k = 2 (n = 16, 18): 8 and 9 groups of Z, so their halves
    hold 4 groups of x, and 4 of y with y_m for S4."""
    rng = random.Random(20261020)
    specs = []
    for tag in ("S2", "S4"):
        for count in (1, 3, 7, 16):
            specs.append(_spec(rng, tag, 2, _random_gammas(rng, tag, 2, count)))
    return specs


SPECS = _seeded_specs() + _wide_pair_specs()


def _spec_id(spec):
    e = "" if spec.e_sets is None else "-" + "".join(spec.e_sets)
    return f"{spec.family}-k{spec.k}-{len(spec.gammas)}g{e}"


def test_specs_cover_the_cases():
    for tag in ("S3", "S4"):
        seen = {s for spec in SPECS if spec.family == tag for s in spec.e_sets}
        assert seen == {"0", "1", "B"}
    assert any(spec.family == "S3" and len(spec.gammas) > 1
               and len({g.bits & ((1 << spec.k) - 1) for g in spec.gammas}) == 1
               for spec in SPECS)
    for tag in ("S1", "S2", "S3", "S4"):
        assert any(spec.family == tag and len(spec.gammas) == 1 << (2 * spec.k)
                   for spec in SPECS)
    assert {spec.k for spec in SPECS if spec.family in ("S2", "S4")} == {1, 2}


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_closed_anf_matches_per_cell_expansion(spec):
    assert closed_form_anf(FAMILY_TABLE[FAMILY_OF_SET[spec.family]], spec) == reference_anf(spec)


def test_reference_matches_the_truth_table():
    # the reference itself is pinned to the Moebius transform of the table
    rng = random.Random(5)
    for tag in ("S1", "S2", "S3", "S4"):
        spec = _spec(rng, tag, 1, _random_gammas(rng, tag, 1, 3))
        cf = construct(FAMILY_OF_SET[tag], spec)
        assert reference_anf(spec) == anf_from_truth_table(cf.function)


# ---------------------------------------------------------------------------
# F2RS: the covering sum of gamma is [x + y = gamma], one cell per member of
# each representative's cyclic orbit


def _orbit_reps(k2):
    """The least member of every cyclic orbit of F_2^k2, by definition."""
    return sorted({orbit(BitVector(k2, v))[0] for v in range(1 << k2)})


def reference_f2rs_anf(k, reps):
    k2 = 2 * k
    masks = [m for beta in reps for g in orbit(BitVector(k2, beta))
             for m in _expand_product([[1 << j, 1 << (k2 + j)] + ([] if g >> j & 1 else [0])
                                       for j in range(k2)])]
    return base_anf("f0", k) ^ AnfPolynomial.from_monomials(2 * k2, masks)


def _f2rs_specs():
    """Every representative alone, seeded subsets and all nonzero ones, k <= 3."""
    rng = random.Random(20261021)
    specs = []
    for k in (1, 2, 3):
        reps = _orbit_reps(2 * k)
        specs += [(k, (r,)) for r in reps]
        specs += [(k, tuple(sorted(rng.sample(reps, rng.randint(2, len(reps))))))
                  for _ in range(4)]
        specs.append((k, tuple(reps[1:])))
    return list(dict.fromkeys(specs))


@pytest.mark.parametrize("k, reps", _f2rs_specs(),
                         ids=lambda v: f"k{v}" if isinstance(v, int) else "-".join(map(str, v)))
def test_f2rs_closed_anf_matches_per_cell_expansion(k, reps):
    spec = RotationSpec(k, tuple(BitVector(2 * k, r) for r in reps))
    assert closed_form_anf(FAMILY_TABLE["F2RS"], spec) == reference_f2rs_anf(k, reps)


def test_f2rs_every_nonzero_rep_at_n24():
    # 351 representatives, 4,095 cells: the closed ANF against the Moebius
    # transform of the truth table
    reps = _orbit_reps(12)[1:]
    assert len(reps) == 351
    cf = construct("F2RS", RotationSpec(6, tuple(BitVector(12, r) for r in reps)))
    assert cf.closed_anf.term_count() == 531434
    assert cf.closed_anf == anf_from_truth_table(cf.function)


# ---------------------------------------------------------------------------
# the Z-level sum: [Z = p] is the sum of the Z^w over the w covering p


def _literal_z_sum(d, points):
    ws = set()
    for p in points:
        ws ^= {w for w in range(1 << d) if w & p == p}
    return sorted(ws)


@pytest.mark.parametrize("d", range(1, 13))
def test_z_sum_matches_the_literal_superset_lists(d):
    rng = random.Random(d)
    groups = [(1 | 2 * (j & 1)) << 2 * j for j in range(d)]  # one or two variables a group
    cases = [[rng.randrange(1 << d)]]
    cases += [rng.sample(range(1 << d), rng.randint(2, min(12, 1 << d))) for _ in range(4)]
    cases.append(cases[-1] + cases[-1][:1])  # a repeated point cancels
    if d <= 8:
        cases.append(list(range(1 << d)))
    for points in cases:
        assert (_covering_sum_masks(groups, points)
                == _z_power_masks(groups, _literal_z_sum(d, points))), points
    # the cells of all 2^d points cover everything: only Z^0 is left
    assert _covering_sum_masks(groups, range(1 << d)) == [0]


def _seeded_a_sets():
    rng = random.Random(20261022)
    sets = []
    for k in (1, 2, 3):
        reps = _orbit_reps(2 * k)
        sets += [(k, tuple(sorted(rng.sample(reps, rng.randint(1, len(reps))))))
                 for _ in range(20)]
    return list(dict.fromkeys(sets))


def test_z_sum_of_the_decomposed_orbits_is_the_orbit_sum():
    # one variable a group, so each Z^w is the monomial w itself
    for k, a_set in _seeded_a_sets():
        vectors = [BitVector(2 * k, a) for a in a_set]
        points = [g for p in decompose_orbit_sum(k, vectors) for g in orbit(p)]
        want = sorted(w for v in vectors for w in orbit(v))
        assert _covering_sum_masks([1 << j for j in range(2 * k)], points) == want, (k, a_set)
