import dataclasses

import numpy as np
import pytest

from negabench import oracle, spectra
from negabench.core import (
    AnfPolynomial,
    BitVector,
    BooleanFunction,
    CapacityError,
    InvalidSpecError,
    NotBentError,
    popcounts,
    truth_table_from_anf,
)
from negabench.spectra import nega_transform, walsh_transform
from negabench.subspaces import GammaSpec, build_modifier_set
from negabench.constructions import RotationSpec, base_function, construct
from negabench.oracle import (
    SU_CASES,
    SuComparisonCase,
    check_reference_case,
    check_su_conditions,
    check_table1,
    extract_frame_coefficients,
    naive_transforms,
    nega_g0_value,
    nega_h0_value,
    verify_construction,
    verify_fragmentary_lemma,
    walsh_g0_value,
    walsh_h0_value,
)
from negabench.reference import REFERENCE_CASES


def _random_function(n, seed):
    rng = np.random.default_rng(seed)
    nbytes = max(1, (1 << n) // 8)
    return BooleanFunction(n, int.from_bytes(rng.bytes(nbytes), "little") & ((1 << (1 << n)) - 1))


def _reference_transforms(f):
    """The per-point loop naive_transforms replaced: for each u, the dot
    products of (-1)^f, twisted by i^wt(x), with the signs (-1)^(u.x)."""
    size = 1 << f.n
    signs = 1 - 2 * f.value_array().astype(np.int64)
    pops = popcounts(size)
    re_twist = signs * np.array([1, 0, -1, 0], dtype=np.int64)[pops % 4]
    im_twist = signs * np.array([0, 1, 0, -1], dtype=np.int64)[pops % 4]
    xs = np.arange(size, dtype=np.int64)
    w, re, im = (np.empty(size, dtype=np.int64) for _ in range(3))
    for u in range(size):
        dot_signs = 1 - 2 * (pops[xs & u] & 1)
        w[u] = np.dot(signs, dot_signs)
        re[u] = np.dot(re_twist, dot_signs)
        im[u] = np.dot(im_twist, dot_signs)
    return w, re, im


def _reference_cases():
    """Random, all-zero, all-one and linear tables at n = 1..10, plus bent g0."""
    for n in range(1, 11):
        size = 1 << n
        yield _random_function(n, seed=100 + n)
        yield BooleanFunction.zero(n)
        yield BooleanFunction.constant(n, 1)
        a = (0b1011011011 >> (10 - n)) | 1
        yield BooleanFunction.from_values(n, popcounts(size)[np.arange(size) & a] & 1)
    yield base_function("g0", 1)
    yield base_function("g0", 2)


def _assert_reference(f):
    nw, nn = naive_transforms(f)
    w, re, im = _reference_transforms(f)
    assert nw.n == nn.n == f.n
    assert np.array_equal(nw.values, w)
    assert np.array_equal(nn.re, re) and np.array_equal(nn.im, im)
    assert all(a.dtype == np.int64 for a in (nw.values, nn.re, nn.im))


class TestNaiveTransforms:
    def test_matches_per_point_reference(self):
        for f in _reference_cases():
            _assert_reference(f)

    def test_reaches_no_butterfly_code(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("naive_transforms reached the butterfly")

        class RefusedTable:
            __getitem__ = __array__ = __getattr__ = refuse

        for name in ("_levels", "_fwht_inplace", "_spectrum", "_sigma2_bytes",
                     "walsh_transform", "nega_transform"):
            monkeypatch.setattr(spectra, name, refuse)
        for name in ("_T8", "_Z8"):
            monkeypatch.setattr(spectra, name, RefusedTable())
        for name in ("walsh_transform", "nega_transform"):
            monkeypatch.setattr(oracle, name, refuse)
        for n in (3, 8, 11):
            _assert_reference(_random_function(n, seed=n))

    def test_agrees_with_butterfly(self):
        for n in (1, 2, 3, 5, 7):
            f = _random_function(n, seed=n)
            nw, nn = naive_transforms(f)
            wf, nf = walsh_transform(f), nega_transform(f)
            assert np.array_equal(nw.values, wf.values)
            assert np.array_equal(nn.re, nf.re)
            assert np.array_equal(nn.im, nf.im)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            naive_transforms(BooleanFunction.zero(15))


class TestClosedFormBaseSpectra:
    def test_g0_everywhere(self):
        for t in (1, 2):
            f = base_function("g0", t)
            wf, nf = walsh_transform(f), nega_transform(f)
            us = np.arange(1 << f.n)
            assert np.array_equal(wf.values, walsh_g0_value(t, us))
            re, im = nega_g0_value(t, us)
            assert np.array_equal(nf.re, re) and np.array_equal(nf.im, im)

    def test_h0_everywhere(self):
        f = base_function("h0", 1)
        wf, nf = walsh_transform(f), nega_transform(f)
        us = np.arange(1 << 6)
        assert np.array_equal(wf.values, walsh_h0_value(1, us))
        re, im = nega_h0_value(1, us)
        assert np.array_equal(nf.re, re) and np.array_equal(nf.im, im)


def walsh_code(fc, u):
    """Reference text code of the Walsh branch at u: '0', '1' or '!'."""
    b = int(fc.walsh_branch[u.bits if isinstance(u, BitVector) else u])
    return str(b) if b >= 0 else "!"


def nega_code(fc, u):
    """Reference text code of the nega branch at u: '0', '1', 'i', '-i' or '!'."""
    b = int(fc.nega_branch[u.bits if isinstance(u, BitVector) else u])
    return oracle.NEGA_BRANCHES[b] if b >= 0 else "!"


class TestFrameCoefficients:
    def test_single_gamma_counts(self):
        f0 = base_function("g0", 1)
        t = build_modifier_set(GammaSpec(1, "S1", (BitVector(2, 1),)))
        fc = extract_frame_coefficients(f0, t)
        assert fc.admissible
        assert fc.walsh_counts()["!"] == 0
        assert sum(fc.nega_counts()[c] for c in ("0", "1", "i", "-i")) == 16

    def test_codes_are_strings(self):
        f0 = base_function("g0", 1)
        t = build_modifier_set(GammaSpec(1, "S1", (BitVector(2, 0),)))
        fc = extract_frame_coefficients(f0, t)
        assert walsh_code(fc, 0) in ("0", "1")
        assert nega_code(fc, BitVector(4, 3)) in ("0", "1", "i", "-i")

    def test_requires_bent_negabent_base(self):
        t = build_modifier_set(GammaSpec(1, "S1", (BitVector(2, 0),)))
        with pytest.raises(NotBentError):
            extract_frame_coefficients(BooleanFunction.zero(4), t)
        # sigma2 is bent but not negabent
        with pytest.raises(NotBentError):
            extract_frame_coefficients(base_function("sigma2", 4), t)

    def test_generic_subset_can_be_inadmissible(self):
        from negabench.core import VectorSet
        f0 = base_function("g0", 1)
        fc = extract_frame_coefficients(f0, VectorSet.from_indices(4, [0]))
        assert not fc.admissible
        assert fc.walsh_counterexample() is not None


class TestFragmentaryLemma:
    def test_known_fragment_value(self):
        from negabench.spectra import fragmentary_walsh
        f0 = base_function("g0", 1)
        t = build_modifier_set(GammaSpec(1, "S1", (BitVector(2, 0),)))
        assert fragmentary_walsh(f0, t, 8) == 4

    def test_s1_all_single_gammas(self):
        for bits in range(4):
            rep = verify_fragmentary_lemma(GammaSpec(1, "S1", (BitVector(2, bits),)))
            assert rep.passed, rep.failures()

    def test_s3_two_pair_branch(self):
        spec = GammaSpec(1, "S3", (BitVector(2, 0), BitVector(2, 2)), ("0", "1"))
        rep = verify_fragmentary_lemma(spec)
        assert rep.passed
        nega = next(c for c in rep.checks if c.name == "fragment-nega-closed-form")
        assert "full=" in nega.details and "full=0" not in nega.details

    def test_s4_contribution_bound_is_one(self):
        spec = GammaSpec(1, "S4", (BitVector(4, 0), BitVector(4, 1)), ("B", "B"))
        rep = verify_fragmentary_lemma(spec)
        assert rep.passed
        bounds = next(c for c in rep.checks if c.name == "contribution-bounds")
        assert "(bound 1)" in bounds.details

    def test_t_sets_have_no_lemma(self):
        spec = GammaSpec(1, "T", (BitVector(2, 3),), rotation_closed=True)
        with pytest.raises(InvalidSpecError):
            verify_fragmentary_lemma(spec)


class TestTable:
    def test_k1_all_rows(self):
        rep = check_table1(1)
        assert rep.passed, [c.name for c in rep.failures()]
        assert len(rep.checks) == 12


class TestSuComparison:
    def test_recorded_cases_pass(self):
        for case in SU_CASES:
            rep = check_su_conditions(case)
            assert rep.passed, (case.name, [c.name for c in rep.failures()])

    def test_witness_cosets_in_details(self):
        rep = check_su_conditions(SU_CASES[0])
        coset = next(c for c in rep.checks if c.name == "coset-constancy-fails")
        assert "coset {1, 4, 11, 14}" in coset.details
        assert "phi values [0, 1]" in coset.details

    def test_nonlinear_pi_fails_linearity(self):
        base = SU_CASES[0]
        pi = list(base.pi)
        pi[1], pi[2] = pi[2], pi[1]  # still a permutation, no longer additive
        broken = dataclasses.replace(base, pi=tuple(pi))
        rep = check_su_conditions(broken)
        linear = next(c for c in rep.checks if c.name == "pi-linear-permutation")
        assert not linear.passed


class TestVerifyConstruction:
    def test_passes_on_good_constructions(self):
        cases = [
            ("G4K", GammaSpec(1, "S1", (BitVector(2, 3),))),
            ("H8K2", GammaSpec(1, "S4", (BitVector(4, 1),), ("B",))),
            ("F2RS_ORBIT", RotationSpec(1, (BitVector(2, 3),))),
        ]
        for family, spec in cases:
            rep = verify_construction(construct(family, spec))
            assert rep.passed, (family, [c.name for c in rep.failures()])

    def test_rotation_check_present_only_for_rotation_families(self):
        g = verify_construction(construct("G4K", GammaSpec(1, "S1", (BitVector(2, 1),))))
        f = verify_construction(construct("F2RS", RotationSpec(1, (BitVector(2, 1),))))
        names_g = {c.name for c in g.checks}
        names_f = {c.name for c in f.checks}
        assert "rotation-symmetry-order" not in names_g
        assert "rotation-symmetry-order" in names_f

    def test_detects_tampered_function(self):
        cf = construct("G4K", GammaSpec(1, "S1", (BitVector(2, 1),)))
        flip = truth_table_from_anf(AnfPolynomial.from_monomials(4, [0]))
        broken = dataclasses.replace(cf, function=cf.function ^ flip)
        rep = verify_construction(broken)
        assert not rep.passed
        failed = {c.name for c in rep.failures()}
        assert "anf-matches-closed-form" in failed

    def test_detects_wrong_degree_flag(self):
        cf = construct("G4K", GammaSpec(2, "S1", (BitVector(4, 1),)))
        broken = dataclasses.replace(cf, predicts_max_degree=False)
        rep = verify_construction(broken)
        degree = next(c for c in rep.checks if c.name == "degree-parity")
        assert not degree.passed

    @pytest.mark.parametrize("name", ["walsh_transform", "nega_transform"])
    def test_tampered_butterfly_is_named(self, monkeypatch, name):
        # negating one stored value keeps every magnitude and the Parseval sum,
        # so the flatness checks cannot see it.  The definitional cross-check
        # does; a negated W_f also flips the dual read off that spectrum.  The
        # nega spectrum stores W_g (g = f + sigma2), whose value at 201 gives
        # N at 201 and at 255 - 201 = 54, so the first moved point is 54.
        cf = construct("G4K", GammaSpec(2, "S1", (BitVector(4, 0b0110),)))
        point = 201
        original = getattr(oracle, name)
        exact = original(cf.function)

        def turned(g):
            spec = original(g)
            if g != cf.function:
                return spec
            field = "values" if name == "walsh_transform" else "wg"
            values = getattr(spec, field).copy()
            values[point] *= -1
            return dataclasses.replace(spec, **{field: values})

        monkeypatch.setattr(oracle, name, turned)
        failed = {c.name: c for c in verify_construction(cf).failures()}
        if name == "walsh_transform":
            where = BitVector(8, point)
            assert set(failed) == {"butterfly-matches-naive", "dual-matches-closed-form"}
            assert (failed["dual-matches-closed-form"].counterexample
                    == f"first differing point {where}")
            w = int(exact.values[point])
            want = f"walsh at {where}: butterfly {-w} != definitional {w}"
        else:
            first = 255 - point
            where = BitVector(8, first)
            assert set(failed) == {"butterfly-matches-naive"}
            re, im = int(exact.re[first]), int(exact.im[first])
            assert re != im  # the turn below moves N at this point
            # re = (a + b)/2 and im = (a - b)/2 with b = W_g(201) negated
            want = f"nega at {where}: butterfly {im}{re:+d}i != definitional {re}{im:+d}i"
        assert failed["butterfly-matches-naive"].counterexample == want

    def test_failed_involution_is_named(self):
        cf = construct("G4K", GammaSpec(1, "S1", (BitVector(2, 1),)))
        # the dual of g + 1 is dual(g) + 1, so the involution misses everywhere
        broken = dataclasses.replace(
            cf, closed_dual=cf.closed_dual ^ BooleanFunction.constant(4, 1))
        rep = verify_construction(broken)
        inv = next(c for c in rep.checks if c.name == "dual-involution")
        v = cf.function.value(0)
        assert not inv.passed
        assert inv.counterexample == f"at 0000: dual of dual {1 - v} != function {v}"

    def test_failed_negabent_names_squared_norm(self, monkeypatch):
        # W_g(3) + 8 moves re and im of N(3) by 4 each (and N(12), later)
        cf = construct("G4K", GammaSpec(1, "S1", (BitVector(2, 1),)))
        original = oracle.nega_transform
        re, im = original(cf.function).value(3)

        def shifted(g):
            spec = original(g)
            if g != cf.function:
                return spec
            wg = spec.wg.copy()
            wg[3] += 8
            return dataclasses.replace(spec, wg=wg)

        monkeypatch.setattr(oracle, "nega_transform", shifted)
        negabent = next(c for c in verify_construction(cf).checks if c.name == "negabent")
        norm = (re + 4) ** 2 + (im + 4) ** 2
        assert norm != 16
        assert not negabent.passed
        assert negabent.counterexample == f"|N(1100)|^2 = {norm}"

    def test_report_serialization(self):
        rep = verify_construction(construct("G4K", GammaSpec(1, "S1", (BitVector(2, 0),))))
        d = rep.to_dict()
        assert d["passed"] is True
        assert {c["name"] for c in d["checks"]} == {c.name for c in rep.checks}
        names = [c["name"] for c in d["checks"]]
        assert names == sorted(names)


class TestReferenceCases:
    def test_all_recorded_cases(self):
        assert len(REFERENCE_CASES) == 3
        for case in REFERENCE_CASES:
            rep = check_reference_case(case)
            assert rep.passed, (case.name, [c.name for c in rep.failures()])

    def test_case_names(self):
        names = [case.name for case in REFERENCE_CASES]
        assert names == ["g4k-8var-max-degree", "h4k2-10var-max-degree",
                         "f2rs-8var-single-orbit"]
