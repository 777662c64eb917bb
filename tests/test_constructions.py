import functools
import random
import time
import tracemalloc

import pytest

from negabench import constructions, core
from negabench.core import (
    AnfPolynomial,
    BitVector,
    CapacityError,
    InvalidSpecError,
    VectorSet,
    anf_from_truth_table,
    characteristic_function,
    rotation_symmetry_order,
    truth_table_from_anf,
)
from negabench.spectra import classify, dual
from negabench.subspaces import (
    GammaSpec,
    coset_union,
    orbit,
    orbit_representatives,
)
from negabench.constructions import (
    FAMILIES,
    FAMILY_TABLE,
    RotationSpec,
    _dual_cells,
    _modifier_spec,
    base_anf,
    base_function,
    closed_form_anf,
    closed_form_dual,
    construct,
    decompose_orbit_sum,
    function_file_dict,
    normalize_family,
    spec_from_dict,
)
from negabench.oracle import verify_construction


def _reps(n):
    """The orbit representatives of F_2^n as BitVectors."""
    return [BitVector(n, int(r)) for r in orbit_representatives(n)[0]]


class TestBases:
    def test_g0_anf(self):
        assert base_anf("g0", 1).to_text() == "x0*x2+x1*x3+x2*x3"

    def test_h0_anf(self):
        # x.y + x_m*y_m + x0*y_m + y'*y'' with blocks x(0..1), x_m(2), y(3..4), y_m(5)
        assert base_anf("h0", 1).coeffs == sum(1 << u for u in (9, 18, 24, 33, 36))

    def test_f0_anf(self):
        assert base_anf("f0", 1).to_text() == "x0*x1+x1*x3+x2*x3"

    def test_sigma2_anf(self):
        assert base_anf("sigma2", 4).to_text() == (
            "x0*x1+x0*x2+x1*x2+x0*x3+x1*x3+x2*x3")

    def test_base_function_matches_anf(self):
        for name, param in (("g0", 2), ("h0", 1), ("f0", 2), ("sigma2", 6)):
            assert base_function(name, param) == truth_table_from_anf(base_anf(name, param))

    def test_f0_rotation_symmetry(self):
        for k in (1, 2):
            assert rotation_symmetry_order(base_function("f0", k)) == 2

    def test_unknown_base(self):
        with pytest.raises(InvalidSpecError):
            base_anf("g9", 1)

    @pytest.mark.parametrize("family, specs", [
        ("G4K", [GammaSpec(2, "S1", (BitVector(4, g),)) for g in (1, 6)]),
        ("H8K2", [GammaSpec(1, "S4", (BitVector(4, g),), ("B",)) for g in (1, 2)]),
        ("F2RS", [RotationSpec(2, (BitVector(4, g),)) for g in (1, 3)]),
    ])
    def test_second_construct_builds_no_base(self, monkeypatch, family, specs):
        # the base table and the dual base are built once per (base, param),
        # so a second spec of one family and k runs no Moebius transform
        first = construct(family, specs[0])
        calls = []

        def counted(bits, n):
            calls.append(n)
            return mobius(bits, n)

        mobius = core._mobius
        monkeypatch.setattr(core, "_mobius", counted)
        second = construct(family, specs[1])
        assert calls == []
        assert second.base is first.base
        assert verify_construction(second).passed

    @pytest.mark.parametrize("family, specs", [
        ("G4K", [GammaSpec(2, "S1", (BitVector(4, g),)) for g in (1, 6)]),
        ("G8K", [GammaSpec(1, "S2", (BitVector(4, g),)) for g in (0, 3)]),
        ("H4K2", [GammaSpec(2, "S3", (BitVector(4, g),), ("0",)) for g in (1, 6)]),
        ("H8K2", [GammaSpec(1, "S4", (BitVector(4, g),), ("B",)) for g in (1, 2)]),
        ("F2RS", [RotationSpec(2, (BitVector(4, g),)) for g in (1, 3)]),
        ("F2RS_SET", [RotationSpec(2, (BitVector(4, g),)) for g in (3, 5)]),
    ])
    def test_second_construct_builds_no_table(self, family, specs):
        # the Z-power tables depend only on the groups of Z, which the
        # family and k fix, so a second spec finds every table in its cache
        constructions._z_powers.cache_clear()
        tables = (constructions._z_powers, constructions.base_anf, constructions.base_function,
                  constructions._dual_base)
        construct(family, specs[0])
        assert constructions._z_powers.cache_info().misses > 0
        misses = [table.cache_info().misses for table in tables]
        construct(family, specs[1])
        assert [table.cache_info().misses for table in tables] == misses


class TestFamilyTable:
    def test_variable_counts(self):
        assert FAMILY_TABLE["G4K"].n(2) == 8
        assert FAMILY_TABLE["G8K"].n(2) == 16
        assert FAMILY_TABLE["H4K2"].n(2) == 10
        assert FAMILY_TABLE["H8K2"].n(1) == 10
        assert FAMILY_TABLE["F2RS"].n(3) == 12

    def test_max_degrees(self):
        assert FAMILY_TABLE["G4K"].max_degree(2) == 4
        assert FAMILY_TABLE["G8K"].max_degree(2) == 8
        assert FAMILY_TABLE["H4K2"].max_degree(2) == 5
        assert FAMILY_TABLE["H8K2"].max_degree(2) == 9
        assert FAMILY_TABLE["F2RS_ORBIT"].max_degree(2) == 4

    def test_normalize(self):
        assert normalize_family("g4k") == "G4K"
        with pytest.raises(InvalidSpecError):
            normalize_family("G16K")
        assert set(FAMILIES) == {
            "G4K", "G8K", "H4K2", "H8K2", "F2RS", "F2RS_SET", "F2RS_ORBIT"}


class TestClosedForms:
    def test_g4k_modifier_is_product_of_sums(self):
        spec = GammaSpec(1, "S1", (BitVector(2, 0),))
        # (x0+x1+1)(x2+x3+1) over 4 variables
        want = AnfPolynomial.from_monomials(4, [5, 9, 6, 10, 1, 2, 4, 8, 0])
        got = closed_form_anf(FAMILY_TABLE["G4K"], spec) ^ base_anf("g0", 1)
        assert got == want

    def test_closed_anf_equals_mobius_everywhere(self):
        cases = [
            ("G4K", GammaSpec(2, "S1", (BitVector(4, 3), BitVector(4, 12)))),
            ("G8K", GammaSpec(1, "S2", (BitVector(4, 1), BitVector(4, 4)))),
            ("H4K2", GammaSpec(1, "S3", (BitVector(2, 2),), ("B",))),
            ("H8K2", GammaSpec(1, "S4", (BitVector(4, 0), BitVector(4, 1)), ("1", "0"))),
            ("F2RS", RotationSpec(2, (BitVector(4, 1), BitVector(4, 15)))),
            ("F2RS_SET", RotationSpec(2, (BitVector(4, 3), BitVector(4, 5)))),
            ("F2RS_ORBIT", RotationSpec(2, (BitVector(4, 7),))),
        ]
        for family, spec in cases:
            cf = construct(family, spec)
            assert anf_from_truth_table(cf.function) == cf.closed_anf, family
            assert cf.closed_anf == closed_form_anf(FAMILY_TABLE[family], spec), family

    def test_closed_dual_matches_spectral_dual(self):
        cases = [
            ("G4K", GammaSpec(1, "S1", (BitVector(2, 1), BitVector(2, 2), BitVector(2, 3)))),
            ("H4K2", GammaSpec(1, "S3", (BitVector(2, 0), BitVector(2, 2)), ("0", "B"))),
            ("F2RS", RotationSpec(2, (BitVector(4, 0), BitVector(4, 5)))),
        ]
        for family, spec in cases:
            cf = construct(family, spec)
            fam = FAMILY_TABLE[family]
            assert dual(cf.function) == cf.closed_dual == closed_form_dual(
                fam, _modifier_spec(fam, spec))

    def test_modifier_set_and_base_recover_function(self):
        spec = GammaSpec(1, "S3", (BitVector(2, 1),), ("1",))
        cf = construct("H4K2", spec)
        rebuilt = cf.base ^ characteristic_function(cf.modifier_set)
        assert rebuilt == cf.function


def _loop_T_dual(spec):
    """The earlier T-dual builder: a scan of all 2^(4k) points."""
    k2 = 2 * spec.k
    ev = [0] * (1 << k2)
    od = [0] * (1 << k2)
    for v in range(1 << k2):
        e = o = 0
        for i in range(spec.k):
            e |= ((v >> (2 * i)) & 1) << i
            o |= ((v >> (2 * i + 1)) & 1) << i
        ev[v], od[v] = e, o
    targets = {(ev[g.bits], od[g.bits]) for g in spec.gammas}
    ones = (1 << spec.k) - 1
    idxs = []
    for z in range(1 << (2 * k2)):
        x, y = z & ((1 << k2) - 1), z >> k2
        if (ev[x] ^ od[x] ^ ev[y] ^ od[y] ^ ones, ev[x] ^ ev[y]) in targets:
            idxs.append(z)
    return VectorSet.from_indices(2 * k2, idxs)


# the rotation-family inputs this module constructs, as (family, k, vectors)
ROTATION_INPUTS = [
    ("F2RS", 1, (0b01,)), ("F2RS", 1, (0b11,)), ("F2RS", 2, (1,)), ("F2RS", 2, (3,)),
    ("F2RS", 2, (5,)), ("F2RS", 2, (15,)), ("F2RS", 2, (0, 5)), ("F2RS", 2, (1, 3)),
    ("F2RS", 2, (1, 5)), ("F2RS", 2, (1, 15)), ("F2RS", 2, (5, 15)),
    ("F2RS", 6, (0b000000000001, 0b000001011011)),
    ("F2RS_SET", 1, (0b01,)), ("F2RS_SET", 2, (3,)), ("F2RS_SET", 2, (1, 7)),
    ("F2RS_SET", 2, (3, 5)), ("F2RS_SET", 3, (0b000011, 0b000111)),
    ("F2RS_ORBIT", 1, (0b11,)), ("F2RS_ORBIT", 2, (3,)), ("F2RS_ORBIT", 2, (5,)),
    ("F2RS_ORBIT", 2, (7,)), ("F2RS_ORBIT", 2, (15,)), ("F2RS_ORBIT", 3, (0b000111,)),
]


class TestRotationDualSet:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cells_match_point_scan(self, k):
        reps = _reps(2 * k)
        for picks in (reps[:1], reps[1:3], reps[-2:], reps[::2]):
            spec = RotationSpec(k, tuple(picks))
            gs = _modifier_spec(FAMILY_TABLE["F2RS"], spec)
            dual_set = coset_union(*_dual_cells(gs))
            assert dual_set == _loop_T_dual(gs), [str(p) for p in picks]

    def test_closed_dual_at_n24(self):
        spec = RotationSpec(6, (BitVector(12, 0b000000000001), BitVector(12, 0b000001011011)))
        fam = FAMILY_TABLE["F2RS"]
        t0 = time.perf_counter()
        d = closed_form_dual(fam, _modifier_spec(fam, spec))
        assert time.perf_counter() - t0 < 2.0
        assert d.n == 24

    def test_modifier_specs_are_rotation_closed(self):
        # the T set is a union of whole orbits, which its closed dual and its
        # rotation order 1 rest on
        for family, k, bits in ROTATION_INPUTS:
            spec = RotationSpec(k, tuple(BitVector(2 * k, b) for b in bits))
            gs = _modifier_spec(FAMILY_TABLE[family], spec)
            idxs = {g.bits for g in gs.gammas}
            assert gs.family == "T" and len(idxs) == len(gs.gammas)
            for g in gs.gammas:
                assert set(orbit(g)) <= idxs, (family, k, bits, str(g))


class TestDegreeParity:
    def test_g4k_flag_follows_gamma_count(self):
        odd = GammaSpec(2, "S1", (BitVector(4, 1),))
        even = GammaSpec(2, "S1", (BitVector(4, 1), BitVector(4, 2)))
        assert construct("G4K", odd).predicts_max_degree
        assert not construct("G4K", even).predicts_max_degree
        assert construct("G4K", odd).closed_anf.degree() == 4
        assert construct("G4K", even).closed_anf.degree() < 4

    def test_h4k2_flag_follows_e_size_sum(self):
        small = GammaSpec(1, "S3", (BitVector(2, 1),), ("1",))
        both = GammaSpec(1, "S3", (BitVector(2, 1),), ("B",))
        assert construct("H4K2", small).predicts_max_degree
        assert not construct("H4K2", both).predicts_max_degree
        assert construct("H4K2", small).closed_anf.degree() == 3

    def test_orbit_degree_equals_weight(self):
        for bits in (3, 5, 7, 15):
            cf = construct("F2RS_ORBIT", RotationSpec(2, (BitVector(4, bits),)))
            w = bin(bits).count("1")
            assert cf.closed_anf.degree() == w
            assert cf.predicts_max_degree == (w == 4)

    def test_f2rs_flag_follows_orbit_size_sum(self):
        # |O(0101)| = 2 even, |O(1111)| = 1 odd on 4 bits
        assert not construct("F2RS", RotationSpec(2, (BitVector(4, 5),))).predicts_max_degree
        assert construct("F2RS", RotationSpec(2, (BitVector(4, 15),))).predicts_max_degree
        assert construct(
            "F2RS", RotationSpec(2, (BitVector(4, 5), BitVector(4, 15)))).predicts_max_degree


def _orbit_covering_poly(k2, beta):
    """Coefficient mask of sum over gamma in O(beta) of the covering sum
    prod_j (x_j + y_j + gamma_j + 1), expanded on 4k variables."""
    masks = []
    for g in orbit(beta):
        terms = [0]
        for j in range(k2):
            factor = (1 << j, 1 << (k2 + j)) + (() if (g >> j) & 1 else (0,))
            terms = [t | m for t in terms for m in factor]
        masks += terms
    return AnfPolynomial.from_monomials(2 * k2, masks).coeffs


@functools.lru_cache(maxsize=None)
def _covering_basis(k2):
    """Every orbit representative of length k2 and an echelon form of their
    covering-sum polynomials as (pivot bit, polynomial, combination) rows."""
    reps = tuple(_reps(k2))
    pivots = []
    for i, rep in enumerate(reps):
        poly, combo = _orbit_covering_poly(k2, rep), 1 << i
        for pb, pv, pc in pivots:
            if (poly >> pb) & 1:
                poly ^= pv
                combo ^= pc
        if poly:
            pivots.append(((poly & -poly).bit_length() - 1, poly, combo))
    return reps, pivots


def _eliminated_decomposition(k, vectors):
    """Reference for `decompose_orbit_sum`: the orbit sums expanded on 4k
    variables, sum over u * v = 0, u + v in O(gamma) of x^u y^v, reduced by
    Gaussian elimination over the covering-sum polynomials."""
    k2 = 2 * k
    reps, pivots = _covering_basis(k2)
    masks = []
    for v in vectors:
        for w in orbit(v):
            u = w
            while True:
                masks.append(u | ((w ^ u) << k2))
                if u == 0:
                    break
                u = (u - 1) & w
    target = AnfPolynomial.from_monomials(2 * k2, masks).coeffs
    combo = 0
    for pb, pv, pc in pivots:
        if (target >> pb) & 1:
            target ^= pv
            combo ^= pc
    assert target == 0, "orbit sum outside the covering-sum span"
    return tuple(reps[i] for i in range(len(reps)) if (combo >> i) & 1)


class TestOrbitDecomposition:
    def test_all_orbits_decompose(self):
        for k in (1, 2, 3):
            for rep in _reps(2 * k):
                p = decompose_orbit_sum(k, (rep,))
                assert p == _eliminated_decomposition(k, (rep,)), str(rep)
                assert all(v.bits == orbit(v)[0] for v in p)
                assert [v.bits for v in p] == sorted(v.bits for v in p)
                # recombining the covering polynomials gives the orbit sum back
                acc = 0
                for beta in p:
                    acc ^= _orbit_covering_poly(2 * k, beta)
                cf = construct("F2RS_SET", RotationSpec(k, (rep,)))
                assert AnfPolynomial(4 * k, acc) ^ base_anf("f0", k) == cf.closed_anf

    def test_seeded_sets_match_elimination_at_k4(self):
        rng = random.Random(8)
        reps = _reps(8)
        for _ in range(30):
            vectors = tuple(rng.sample(reps, rng.randint(2, 5)))
            assert decompose_orbit_sum(4, vectors) == _eliminated_decomposition(4, vectors)

    def test_decomposition_feeds_construction(self):
        vectors = (BitVector(4, 1), BitVector(4, 7))
        cf = construct("F2RS_SET", RotationSpec(2, vectors))
        assert anf_from_truth_table(cf.function) == cf.closed_anf

    @pytest.mark.parametrize("family", ["F2RS_SET", "F2RS_ORBIT"])
    def test_decomposed_once_per_construct_and_verify(self, monkeypatch, family):
        # construct derives the modifier spec once and hands it to the
        # closed dual and the parity flag, and the verifier reads the set
        # construct built
        calls = []

        def counted(k, vectors):
            calls.append(k)
            return decompose_orbit_sum(k, vectors)

        monkeypatch.setattr(constructions, "decompose_orbit_sum", counted)
        vectors = (BitVector(6, 0b000111),) if family == "F2RS_ORBIT" else (
            BitVector(6, 0b000011), BitVector(6, 0b000111))
        report = verify_construction(construct(family, RotationSpec(3, vectors)))
        assert report.passed, report.failures()
        assert calls == [3]

    @pytest.mark.parametrize("family, spec", [
        ("H4K2", GammaSpec(1, "S3", (BitVector(2, 1),), ("B",))),
        ("F2RS_SET", RotationSpec(3, (BitVector(6, 0b000011), BitVector(6, 0b000111)))),
    ])
    def test_resolved_once_per_construct(self, monkeypatch, family, spec):
        # the closed ANF, the closed dual and the parity flag take the
        # parameters construct resolved
        calls = []

        def counted(fam, spec):
            calls.append(fam.name)
            return resolve(fam, spec)

        resolve = constructions._resolve
        monkeypatch.setattr(constructions, "_resolve", counted)
        assert construct(family, spec).family == family
        assert calls == [family]


def _literal_f2rs_anf(k, reps):
    """Reference for the F2RS closed ANF: the base plus each covering sum
    expanded on all 4k variables, 3^zeros(gamma) * 2^ones(gamma) monomials."""
    acc = 0
    for beta in reps:
        acc ^= _orbit_covering_poly(2 * k, beta)
    return base_anf("f0", k) ^ AnfPolynomial(4 * k, acc)


F2RS = FAMILY_TABLE["F2RS"]


class TestF2rsClosedAnf:
    def test_every_orbit_matches_literal_expansion(self):
        for k in (1, 2, 3, 4):
            for rep in _reps(2 * k):
                got = closed_form_anf(F2RS, RotationSpec(k, (rep,)))
                assert got == _literal_f2rs_anf(k, (rep,)), (k, str(rep))

    def test_seeded_sets_match_literal_expansion(self):
        rng = random.Random(9)
        for k in (2, 3, 4):
            reps = _reps(2 * k)
            for _ in range(10):
                vectors = tuple(rng.sample(reps, rng.randint(2, len(reps))))
                got = closed_form_anf(F2RS, RotationSpec(k, vectors))
                assert got == _literal_f2rs_anf(k, vectors), (k, [str(v) for v in vectors])
            everything = tuple(reps)
            assert closed_form_anf(F2RS, RotationSpec(k, everything)) == (
                _literal_f2rs_anf(k, everything))

    def test_every_orbit_at_n24_is_bounded(self):
        # the covering sums over all of F_2^12 add up to 1: 3^12 masks on the
        # 12 bits of z leave one, where the literal route would expand 5^12
        # masks (about 2 GB of int64 indices) on 24 variables
        reps = tuple(_reps(12))
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            got = closed_form_anf(F2RS, RotationSpec(6, reps))
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == base_anf("f0", 6) ^ AnfPolynomial.from_monomials(24, [0])
        assert elapsed <= 10.0, f"{elapsed:.2f} s"
        assert peak <= 128 << 20, f"peak {peak / 2**20:.0f} MiB"


class TestSpecValidation:
    def test_orbit_family_takes_one_vector(self):
        with pytest.raises(InvalidSpecError):
            construct("F2RS_ORBIT", RotationSpec(2, (BitVector(4, 3), BitVector(4, 5))))

    def test_orbit_family_needs_weight_two(self):
        with pytest.raises(InvalidSpecError):
            construct("F2RS_ORBIT", RotationSpec(2, (BitVector(4, 1),)))

    def test_same_orbit_vectors_rejected(self):
        with pytest.raises(InvalidSpecError):
            RotationSpec(2, (BitVector(4, 1), BitVector(4, 2))).normalized_reps()

    def test_wrong_spec_type(self):
        with pytest.raises(InvalidSpecError):
            construct("G4K", RotationSpec(1, (BitVector(2, 1),)))
        with pytest.raises(InvalidSpecError):
            construct("F2RS", GammaSpec(1, "S1", (BitVector(2, 1),)))

    def test_capacity_checked_before_expansion(self):
        # k=9 means n=36; the closed-form product expansion at that size
        # would exhaust memory, so the guard has to fire first
        gamma = BitVector(18, 1 << 17)
        with pytest.raises(CapacityError):
            construct("G4K", GammaSpec(9, "S1", (gamma,)))


class TestSerialization:
    def test_round_trip_every_family(self):
        cases = [
            ("G4K", GammaSpec(1, "S1", (BitVector(2, 1),))),
            ("G8K", GammaSpec(1, "S2", (BitVector(4, 1),))),
            ("H4K2", GammaSpec(1, "S3", (BitVector(2, 3),), ("B",))),
            ("H8K2", GammaSpec(1, "S4", (BitVector(4, 4),), ("0",))),
            ("F2RS", RotationSpec(1, (BitVector(2, 1),))),
            ("F2RS_SET", RotationSpec(2, (BitVector(4, 3),))),
            ("F2RS_ORBIT", RotationSpec(2, (BitVector(4, 15),))),
        ]
        for family, spec in cases:
            cf = construct(family, spec)
            record = function_file_dict(cf)
            assert record["family"] == family
            again = construct(family, spec_from_dict(family, record["params"]))
            assert again.function == cf.function
            assert again.closed_anf == cf.closed_anf
            assert again.closed_dual == cf.closed_dual
            assert again.predicts_max_degree == cf.predicts_max_degree

    def test_record_fields(self):
        cf = construct("G4K", GammaSpec(1, "S1", (BitVector(2, 1),)))
        record = function_file_dict(cf)
        assert record["n"] == 4
        assert record["tt_hex"] == cf.function.to_hex()
        assert record["anf"] == cf.closed_anf.to_text()

    @pytest.mark.parametrize("params", [None, [1], 3, {1: 2}, {"k": 1, 2: "x"}])
    def test_params_not_an_object_refused(self, params):
        with pytest.raises(InvalidSpecError, match="params must be an object"):
            spec_from_dict("G4K", params)


class TestConstructedProperties:
    def test_every_family_yields_bent_negabent(self):
        cases = [
            ("G4K", GammaSpec(1, "S1", (BitVector(2, 2),))),
            ("G8K", GammaSpec(1, "S2", (BitVector(4, 4),))),
            ("H4K2", GammaSpec(1, "S3", (BitVector(2, 0),), ("0",))),
            ("H8K2", GammaSpec(1, "S4", (BitVector(4, 5),), ("B",))),
            ("F2RS", RotationSpec(1, (BitVector(2, 3),))),
            ("F2RS_SET", RotationSpec(1, (BitVector(2, 1),))),
            ("F2RS_ORBIT", RotationSpec(1, (BitVector(2, 3),))),
        ]
        for family, spec in cases:
            cf = construct(family, spec)
            cls = classify(cf.function)
            assert cls.is_bent and cls.is_negabent, family

    def test_rotation_families_have_order_two(self):
        cf = construct("F2RS", RotationSpec(2, (BitVector(4, 1), BitVector(4, 5))))
        assert rotation_symmetry_order(cf.function) == 2
