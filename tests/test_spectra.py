import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from negabench import core
from negabench.core import (
    AnfPolynomial,
    BitVector,
    BooleanFunction,
    NotBentError,
    VectorSet,
    truth_table_from_anf,
)
from negabench.spectra import (
    InvalidPermutationError,
    classify,
    dual,
    fragmentary_nega,
    fragmentary_nega_spectrum,
    fragmentary_walsh,
    fragmentary_walsh_spectrum,
    mm_function,
    nega_transform,
    walsh_transform,
)
from negabench.oracle import verify_fragmentary_lemma
from negabench.subspaces import GammaSpec, build_modifier_set


def _random_functions(n, count, seed):
    rng = np.random.default_rng(seed)
    nbytes = max(1, (1 << n) // 8)
    return [BooleanFunction(n, int.from_bytes(rng.bytes(nbytes), "little") & ((1 << (1 << n)) - 1))
            for _ in range(count)]


class TestWalsh:
    def test_zero_function(self):
        wf = walsh_transform(BooleanFunction.zero(2))
        assert list(wf.values) == [4, 0, 0, 0]
        assert wf.parseval_holds()

    def test_quadratic_bent(self):
        f = truth_table_from_anf(AnfPolynomial.from_monomials(2, [0b11]))
        wf = walsh_transform(f)
        assert list(wf.values) == [2, 2, 2, -2]
        assert wf.flat_counterexample() is None
        assert dual(f) == f

    def test_odd_n_never_flat(self):
        f = BooleanFunction.zero(3)
        assert walsh_transform(f).flat_counterexample() is not None

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), data=st.data())
    def test_parseval_always(self, n, data):
        bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        f = BooleanFunction(n, bits)
        assert walsh_transform(f).parseval_holds()
        assert nega_transform(f).parseval_holds()


class TestNega:
    def test_zero_function_small(self):
        nf = nega_transform(BooleanFunction.zero(1))
        assert nf.value(0) == (1, 1)
        assert nf.value(1) == (1, -1)
        nf2 = nega_transform(BooleanFunction.zero(2))
        assert nf2.value(0) == (0, 2)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6), data=st.data())
    def test_matches_literal_sum(self, n, data):
        bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        f = BooleanFunction(n, bits)
        nf = nega_transform(f)
        full = VectorSet.from_indices(n, range(1 << n))
        u = data.draw(st.integers(0, (1 << n) - 1))
        assert fragmentary_nega(f, full, u) == nf.value(u)


class TestClassify:
    def test_bent_negabent_flags(self):
        f = truth_table_from_anf(AnfPolynomial.from_monomials(2, [0b11]))
        cls = classify(f)
        assert cls.is_bent and not cls.is_negabent

    def test_odd_n_note(self):
        cls = classify(BooleanFunction.zero(3))
        assert not cls.is_bent
        assert "odd" in cls.note

    def test_dual_requires_bent(self):
        with pytest.raises(NotBentError):
            dual(BooleanFunction.zero(2))

    def test_dual_involution_on_bent(self):
        f = truth_table_from_anf(AnfPolynomial.from_monomials(4, [0b0011, 0b1100, 0b0001]))
        assert classify(f).is_bent
        assert dual(dual(f)) == f


class TestFragmentary:
    def test_fragment_plus_complement_is_full(self):
        f = truth_table_from_anf(AnfPolynomial.from_monomials(4, [0b0011, 0b1100]))
        t = VectorSet.from_indices(4, [0, 1, 5, 9, 12])
        tc = VectorSet.from_indices(4, [x for x in range(16) if x not in t])
        wf = walsh_transform(f)
        nf = nega_transform(f)
        wt, wtc = fragmentary_walsh_spectrum(f, t), fragmentary_walsh_spectrum(f, tc)
        nt, ntc = fragmentary_nega_spectrum(f, t), fragmentary_nega_spectrum(f, tc)
        for u in range(16):
            assert wt.value(u) + wtc.value(u) == wf.value(u)
            (re, im), (re_c, im_c) = nt.value(u), ntc.value(u)
            assert (re + re_c, im + im_c) == nf.value(u)

    def test_masked_equals_literal(self):
        for f in _random_functions(5, 4, seed=11):
            t = VectorSet.from_indices(5, [0, 3, 7, 17, 30, 31])
            wt = fragmentary_walsh_spectrum(f, t)
            nt = fragmentary_nega_spectrum(f, t)
            for u in range(32):
                assert wt.value(u) == fragmentary_walsh(f, t, u)
                assert nt.value(u) == fragmentary_nega(f, t, u)

    def test_literal_sums_build_the_member_array_once(self, monkeypatch):
        # literal-sum-agreement takes 128 literal sums over one modifier set;
        # its member array is unpacked from the set's mask once, not per sum
        spec = GammaSpec(2, "S1", (BitVector.from_string("0110"),
                                   BitVector.from_string("1011")))
        mask = build_modifier_set(spec).mask
        builds = []
        unpack = core._set_bits

        def counted(bits, size):
            if bits == mask:
                builds.append(size)
            return unpack(bits, size)

        monkeypatch.setattr(core, "_set_bits", counted)
        report = verify_fragmentary_lemma(spec)
        assert report.passed, report.failures()
        assert "literal-sum-agreement" in [c.name for c in report.checks]
        assert builds == [1 << 8]

    def test_empty_fragment_is_zero(self):
        f = BooleanFunction.zero(3)
        t = VectorSet.from_indices(3, [])
        assert all(fragmentary_walsh_spectrum(f, t).value(u) == 0 for u in range(8))


def mm_dual(pi, phi):
    """Reference dual of the MM bent function x . pi(y) + phi(y):
    (x, y) -> y . pi^{-1}(x) + phi(pi^{-1}(x)), with x in the low block."""
    m = phi.n
    inv = {p: y for y, p in enumerate(pi)}
    values = []
    for idx in range(1 << (2 * m)):
        x, y = idx & ((1 << m) - 1), idx >> m
        w = inv[x]
        values.append((bin(y & w).count("1") + phi.value(w)) & 1)
    return BooleanFunction.from_values(2 * m, values)


class TestMaioranaMcFarland:
    def test_inner_product_shape(self):
        pi = tuple(range(4))
        phi = BooleanFunction.zero(2)
        f = mm_function(pi, phi)
        assert f.n == 4
        # f(x, y) = x.pi(y) + phi(y), x in the low bits
        for idx in range(16):
            x, y = idx & 3, idx >> 2
            want = bin(x & pi[y]).count("1") & 1
            assert f.value(idx) == want
        assert classify(f).is_bent

    def test_dual_formula(self):
        pi = (0, 2, 1, 3)
        phi = BooleanFunction(2, 0b0110)
        f = mm_function(pi, phi)
        assert dual(f) == mm_dual(pi, phi)

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidPermutationError):
            mm_function((0, 0, 1, 3), BooleanFunction.zero(2))
