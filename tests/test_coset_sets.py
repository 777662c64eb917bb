"""The coset-union route for the modifier sets and the dual sets, pinned to
the per-point builders it replaced, and kept apart from the routes that
check it."""

import random

import numpy as np
import pytest

from negabench import constructions, core, oracle, subspaces
from negabench.core import (
    BitVector,
    InvalidSpecError,
    VectorSet,
    characteristic_function,
    truth_table_from_anf,
)
from negabench.subspaces import (
    SET_SHAPES,
    GammaSpec,
    build_T,
    build_modifier_set,
    coset_union,
    modifier_cells,
    swap_halves,
)
from negabench.constructions import (
    FAMILY_TABLE,
    RotationSpec,
    _dual_cells,
    base_function,
    closed_form_anf,
)


# ---------------------------------------------------------------------------
# reference: one point at a time, as the sets were built before


def pair_repetition_members(pairs):
    out = [0]
    for i in range(pairs):
        out = [acc | blk << (2 * i) for acc in out for blk in (0, 3)]
    return out


def ref_S1(spec):
    k = spec.k
    idxs = []
    for i in range(len(spec.gammas)):
        g1, g2 = spec.gamma_halves(i)
        for xp in range(1 << k):
            xpart = xp | ((xp ^ g1) << k)
            for yp in range(1 << k):
                idxs.append(xpart | ((yp | ((yp ^ g2) << k)) << (2 * k)))
    return VectorSet.from_indices(4 * k, idxs)


def ref_S2(spec):
    k = spec.k
    a_members = pair_repetition_members(2 * k)
    idxs = []
    for g in spec.gammas:
        for x in a_members:
            for z in a_members:
                idxs.append(x | ((g.bits ^ z) << (4 * k)))
    return VectorSet.from_indices(8 * k, idxs)


def ref_S3(spec):
    k = spec.k
    idxs = []
    for i in range(len(spec.gammas)):
        g1, g2 = spec.gamma_halves(i)
        for xp in range(1 << k):
            for xm in (0, 1):
                xpart = xp | ((xp ^ g1) << k) | (xm << (2 * k))
                for yp in range(1 << k):
                    ypart = (yp | ((yp ^ g2) << k)) << (2 * k + 1)
                    for ym in spec.e_values(i):
                        idxs.append(xpart | ypart | (ym << (4 * k + 1)))
    return VectorSet.from_indices(4 * k + 2, idxs)


def ref_S4(spec):
    k = spec.k
    a_members = pair_repetition_members(2 * k)
    idxs = []
    for i, g in enumerate(spec.gammas):
        for x in a_members:
            for xm in (0, 1):
                xpart = x | (xm << (4 * k))
                for z in a_members:
                    ypart = (g.bits ^ z) << (4 * k + 1)
                    for ym in spec.e_values(i):
                        idxs.append(xpart | ypart | (ym << (8 * k + 1)))
    return VectorSet.from_indices(8 * k + 2, idxs)


def ref_T(spec):
    k = spec.k
    idxs = []
    for g in spec.gammas:
        for x in range(1 << (2 * k)):
            idxs.append(x | ((x ^ g.bits) << (2 * k)))
    return VectorSet.from_indices(4 * k, idxs)


def ref_S1_dual(spec):
    k = spec.k
    ones = (1 << k) - 1
    transformed = tuple(
        BitVector(2 * k, g2 | ((g1 ^ g2 ^ ones) << k))
        for g1, g2 in (spec.gamma_halves(i) for i in range(len(spec.gammas))))
    return ref_S1(GammaSpec(k, "S1", transformed))


def ref_S2_dual(spec):
    k = spec.k
    a_members = pair_repetition_members(2 * k)
    idxs = []
    for g in spec.gammas:
        sw = swap_halves(g.bits, 2 * k)
        for a in a_members:
            x = g.bits ^ a
            for b in a_members:
                idxs.append(x | ((sw ^ b) << (4 * k)))
    return VectorSet.from_indices(8 * k, idxs)


def ref_S3_dual(spec):
    k = spec.k
    idxs = []
    ones = (1 << k) - 1
    for i in range(len(spec.gammas)):
        g1, g2 = spec.gamma_halves(i)
        for xm in spec.e_values(i):
            for xp in range(1 << k):
                xpart = xp | ((xp ^ (xm & 1) ^ g2) << k) | (xm << (2 * k))
                for yp in range(1 << k):
                    ypart = (yp | ((yp ^ ones ^ g1 ^ g2) << k)) << (2 * k + 1)
                    for ym in (0, 1):
                        idxs.append(xpart | ypart | (ym << (4 * k + 1)))
    return VectorSet.from_indices(4 * k + 2, idxs)


def ref_S4_dual(spec):
    k = spec.k
    a_members = pair_repetition_members(2 * k)
    idxs = []
    for i, g in enumerate(spec.gammas):
        sw = swap_halves(g.bits, 2 * k)
        for xm in spec.e_values(i):
            for a in a_members:
                x = g.bits ^ (xm & 1) ^ a
                xpart = x | (xm << (4 * k))
                for b in a_members:
                    ypart = (sw ^ b) << (4 * k + 1)
                    for ym in (0, 1):
                        idxs.append(xpart | ypart | (ym << (8 * k + 1)))
    return VectorSet.from_indices(8 * k + 2, idxs)


def ref_T_dual(spec):
    k = spec.k
    ds = []
    for g in spec.gammas:
        d = 0
        for i in range(k):
            g_ev, g_od = (g.bits >> (2 * i)) & 1, (g.bits >> (2 * i + 1)) & 1
            d |= (g_od << (2 * i)) | ((g_ev ^ g_od ^ 1) << (2 * i + 1))
        ds.append(BitVector(2 * k, d))
    return ref_T(GammaSpec(k, "T", tuple(ds)))


REFERENCE = {"S1": (ref_S1, ref_S1_dual), "S2": (ref_S2, ref_S2_dual),
             "S3": (ref_S3, ref_S3_dual), "S4": (ref_S4, ref_S4_dual),
             "T": (ref_T, ref_T_dual)}


# ---------------------------------------------------------------------------
# seeded specs: every tag, k = 1..3 (S2 and S4 at k = 1..2), 1..3 gammas,
# and every E symbol on the S3 and S4 sets


def _specs():
    rng = random.Random(20261018)
    specs = []
    for tag in ("S1", "S2", "S3", "S4", "T"):
        pairs = tag in ("S2", "S4")
        for k in (1, 2) if pairs else (1, 2, 3):
            glen = 4 * k if pairs else 2 * k
            # S2/S4 gammas lie in distinct cosets of A_2^(2k): distinct values
            # on the low bit of every pair
            pool = ([sum(((c >> i) & 1) << (2 * i) for i in range(2 * k))
                     for c in range(1 << (2 * k))] if pairs else list(range(1 << glen)))
            for count in (1, 2, 3):
                picks = rng.sample(pool, count)
                if pairs:  # a random member of each coset
                    picks = [p ^ sum(3 << (2 * i) for i in range(2 * k) if rng.random() < 0.5)
                             for p in picks]
                gammas = tuple(BitVector(glen, g) for g in picks)
                e_sets = None
                if tag in ("S3", "S4"):
                    e_sets = tuple("01B"[(count + j) % 3] for j in range(count))
                specs.append(GammaSpec(k, tag, gammas, e_sets))
    return specs


SPECS = _specs()


def _spec_id(spec):
    e = "" if spec.e_sets is None else "-" + "".join(spec.e_sets)
    return f"{spec.family}-k{spec.k}-{len(spec.gammas)}g{e}"


def test_specs_cover_every_e_symbol():
    for tag in ("S3", "S4"):
        seen = {s for spec in SPECS if spec.family == tag for s in spec.e_sets}
        assert seen == {"0", "1", "B"}


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_modifier_set_matches_point_builder(spec):
    assert build_modifier_set(spec) == REFERENCE[spec.family][0](spec)


def test_build_t_takes_only_t_specs():
    spec = next(s for s in SPECS if s.family == "T" and len(s.gammas) == 3)
    assert build_T(spec) == ref_T(spec)
    with pytest.raises(InvalidSpecError):
        build_T(SPECS[0])


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_dual_set_matches_point_builder(spec):
    assert coset_union(*_dual_cells(spec)) == REFERENCE[spec.family][1](spec)


@pytest.mark.parametrize("family", ["G4K", "G8K", "H4K2", "H8K2", "F2RS"])
def test_closed_form_dual_flips_the_point_built_set(family):
    fam = FAMILY_TABLE[family]
    spec = next(s for s in SPECS if s.family == fam.set_tag and s.k == 1
                and len(s.gammas) == 2)
    if fam.rotation_symmetric:  # the orbit-closed gamma set of the vectors
        spec = constructions._modifier_spec(fam, RotationSpec(1, spec.gammas[:1]))
    base = constructions._BASES[fam.base][1](fam.base_param(spec.k))
    want = truth_table_from_anf(base) ^ characteristic_function(REFERENCE[fam.set_tag][1](spec))
    assert constructions.closed_form_dual(fam, spec) == want


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("tag", sorted(SET_SHAPES))
def test_routes_agree_on_each_shape(tag, k):
    # the family table, both cell builders and the base read one row of SET_SHAPES
    shape = SET_SHAPES[tag]
    t, h0 = shape.t_per_k * k, shape.base == "h0"
    spec = GammaSpec(k, tag, (BitVector(2 * t, 1),), ("B",) if h0 else None)
    fam = next(f for f in FAMILY_TABLE.values() if f.set_tag == tag)
    n = fam.n(k)
    assert modifier_cells(spec)[0] == _dual_cells(spec)[0] == base_function(shape.base, t).n == n
    if shape.bound:  # the predictor's key tables: u and v's sums, and u_m on h0's Walsh side
        predictor = oracle._predictor(spec)
        assert predictor.n_count.size == predictor.branch.size == 1 << (2 * t)
        assert predictor.w_count.size == 1 << (2 * t + h0)


def test_span_points_and_coset_union():
    assert coset_union(4, [0b0101, 0b1010], [0]).indices() == [0, 5, 10, 15]
    assert coset_union(4, [0b0101, 0b1010], [1, 4]).indices() == [1, 4, 11, 14]
    assert coset_union(6, [], [0, 7, 7]).mask.bit_count() == 2


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_cells_are_independent_and_disjoint(spec):
    # |union| = |offsets| * 2^|basis| holds exactly when every basis is
    # independent and no two cells meet; the parity flag reads this count
    for n, basis, offsets in (modifier_cells(spec), _dual_cells(spec)):
        assert coset_union(n, basis, offsets).mask.bit_count() == len(offsets) << len(basis)


# ---------------------------------------------------------------------------
# independence: the routes that check the builder do not go through it


def test_anf_and_predictors_do_not_use_the_coset_union(monkeypatch):
    def refuse(n, basis, offsets):
        raise AssertionError("coset union called")

    monkeypatch.setattr(subspaces, "coset_union", refuse)
    monkeypatch.setattr(constructions, "coset_union", refuse)
    with pytest.raises(AssertionError, match="coset union called"):
        build_modifier_set(SPECS[0])
    for spec in SPECS:
        if spec.family == "T":
            continue
        fam = next(f for f in FAMILY_TABLE.values() if f.set_tag == spec.family)
        assert closed_form_anf(fam, spec).n == fam.n(spec.k)
        xs = np.arange(1 << min(fam.n(spec.k), 12), dtype=np.int64)
        assert oracle._predictor(spec).walsh(xs)[1].shape == xs.shape


def _closed_anf_cases():
    """Canonical parameters of every family at k <= 2."""
    cases = [(next(f for f in FAMILY_TABLE.values() if f.set_tag == spec.family), spec)
             for spec in SPECS if spec.family != "T" and spec.k <= 2]
    rng = random.Random(20261022)
    for k in (1, 2):
        reps = sorted({subspaces.orbit(BitVector(2 * k, v))[0] for v in range(1 << 2 * k)})
        specs = [("F2RS_ORBIT", (r,)) for r in reps if r.bit_count() >= 2]
        specs += [(name, tuple(rng.sample(reps, count)))
                  for name in ("F2RS", "F2RS_SET") for count in (1, 2, len(reps))]
        for name, vectors in specs:
            fam = FAMILY_TABLE[name]
            spec = RotationSpec(k, tuple(BitVector(2 * k, v) for v in vectors))
            cases.append((fam, constructions._resolve(fam, spec)))
    return cases


def test_closed_anf_uses_no_table_route_for_any_family(monkeypatch):
    # the closed ANF reaches neither the cells, their coset union nor the
    # Moebius transform that it is checked against, for all seven families
    cases = _closed_anf_cases()
    assert {fam.name for fam, _ in cases} == set(FAMILY_TABLE)
    want = [closed_form_anf(fam, params) for fam, params in cases]

    def refuse(*args):
        raise AssertionError("table route called")

    for module, name in ((core, "_mobius"), (subspaces, "coset_union"),
                         (subspaces, "modifier_cells"), (constructions, "coset_union"),
                         (constructions, "modifier_cells")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError, match="table route called"):
        build_modifier_set(SPECS[0])
    with pytest.raises(AssertionError, match="table route called"):
        core.anf_from_truth_table(characteristic_function(VectorSet.from_indices(4, [1])))
    # nothing cached before the refusal may stand in for a route it refuses
    constructions.base_anf.cache_clear()
    constructions._z_powers.cache_clear()
    assert [closed_form_anf(fam, params) for fam, params in cases] == want
