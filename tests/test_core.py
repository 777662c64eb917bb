import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from negabench.core import (
    AnfPolynomial,
    BitVector,
    BooleanFunction,
    CapacityError,
    VectorSet,
    anf_from_truth_table,
    characteristic_function,
    cyclic_shift_action,
    max_n,
    rotation_symmetry_order,
    set_max_n,
    truth_table_from_anf,
)


def _evaluate(anf, x):
    """Reference: the ANF at point x, summing the monomials x covers."""
    acc = 0
    for u in anf.monomials():
        if u & x == u:
            acc ^= 1
    return acc


class TestBitVector:
    def test_string_round_trip(self):
        v = BitVector.from_string("0110")
        assert v.bits == 0b0110 and v.n == 4
        assert v.to_string() == "0110"
        assert str(v) == "0110"

    def test_from_coords(self):
        assert BitVector.from_coords([1, 0, 0, 1]).bits == 0b1001

    def test_bad_strings(self):
        with pytest.raises(ValueError):
            BitVector.from_string("01x0")
        with pytest.raises(ValueError):
            BitVector.from_string("")

    def test_xor_dot_weight(self):
        a = BitVector(4, 0b0011)
        b = BitVector(4, 0b0110)
        assert (a + b).bits == 0b0101
        assert a.dot(b) == 1
        assert a.weight() == 2


class TestVectorSet:
    def test_membership_and_size(self):
        s = VectorSet.from_indices(3, [1, 5, 5])
        assert len(s) == 2
        assert BitVector(3, 5) in s
        assert BitVector(3, 2) not in s


class TestBooleanFunction:
    def test_values_and_weight(self):
        f = BooleanFunction(2, 0b0100)  # support {2}
        assert f.value_array().tolist() == [0, 0, 1, 0]
        assert f.weight() == 1
        assert sorted(f.support().indices()) == [2]

    def test_hex_round_trip_little_endian_nibbles(self):
        f = BooleanFunction(4, 0x5A)
        assert f.to_hex() == "a500"  # low nibble printed first, fixed width
        assert BooleanFunction.from_hex(4, "a500") == f
        assert BooleanFunction(2, 0b0100).to_hex() == "4"

    def test_from_hex_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            BooleanFunction.from_hex(4, "a5f")

    def test_xor(self):
        f = BooleanFunction(2, 0b0110)
        g = BooleanFunction(2, 0b0011)
        assert (f ^ g).bits == 0b0101

    def test_characteristic_function(self):
        s = VectorSet.from_indices(2, [0, 3])
        chi = characteristic_function(s)
        assert chi.value_array().tolist() == [1, 0, 0, 1]


class TestAnf:
    def test_known_polynomial(self):
        # f = x0*x1 + x1 has truth table [0, 0, 1, 0]
        anf = AnfPolynomial.from_monomials(2, [0b11, 0b10])
        f = truth_table_from_anf(anf)
        assert f.value_array().tolist() == [0, 0, 1, 0]
        assert anf_from_truth_table(f) == anf

    def test_mobius_round_trip_exhaustive_small(self):
        for n in (1, 2, 3):
            for bits in range(1 << (1 << n)):
                f = BooleanFunction(n, bits)
                assert truth_table_from_anf(anf_from_truth_table(f)) == f

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 6), data=st.data())
    def test_mobius_round_trip_random(self, n, data):
        bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        anf = AnfPolynomial(n, bits)
        assert anf_from_truth_table(truth_table_from_anf(anf)) == anf

    def test_text_round_trip(self):
        anf = AnfPolynomial.from_monomials(3, [0, 0b101, 0b010])
        text = anf.to_text()
        assert text == "1+x1+x0*x2"
        assert AnfPolynomial.zero(3).to_text() == "0"

    def test_from_monomials_xor_accumulates(self):
        assert AnfPolynomial.from_monomials(2, [3, 3]) == AnfPolynomial.zero(2)

    def test_degree(self):
        assert AnfPolynomial.zero(3).degree() == 0
        assert AnfPolynomial.from_monomials(3, [0]).degree() == 0
        assert AnfPolynomial.from_monomials(3, [0b1, 0b110]).degree() == 2

    def test_evaluate_matches_table(self):
        anf = AnfPolynomial.from_monomials(3, [0b011, 0b100, 0])
        f = truth_table_from_anf(anf)
        assert all(_evaluate(anf, x) == f.value(x) for x in range(8))


def _reference_text(anf):
    """Reference for `AnfPolynomial.to_text`: one join per monomial."""
    parts = []
    for u in anf.monomials():
        if u == 0:
            parts.append("1")
        else:
            parts.append("*".join(f"x{j}" for j in range(anf.n) if (u >> j) & 1))
    return "+".join(parts) if parts else "0"


class TestAnfText:
    def test_random_polynomials_match_reference(self):
        rng = np.random.default_rng(20261018)
        for n in range(1, 15):
            for density in (0.05, 0.5, 1.0):
                masks = np.flatnonzero(rng.random(1 << n) < density)
                for anf in (AnfPolynomial.from_monomials(n, masks),
                            AnfPolynomial.from_monomials(n, [*masks, 0])):
                    assert anf.to_text() == _reference_text(anf), (n, density)

    def test_text_across_a_block_boundary(self):
        # about 0.6 * 2^17 terms on 17 variables: more than one block of 2^16
        masks = np.flatnonzero(np.random.default_rng(17).random(1 << 17) < 0.6)
        assert masks.size > 1 << 16
        anf = AnfPolynomial.from_monomials(17, masks)
        assert anf.to_text() == _reference_text(anf)

    def test_zero_constant_and_full_monomial_at_n24(self):
        full = "*".join(f"x{j}" for j in range(24))
        assert AnfPolynomial.zero(24).to_text() == "0"
        assert AnfPolynomial.from_monomials(24, [0]).to_text() == "1"
        assert AnfPolynomial.from_monomials(24, [(1 << 24) - 1]).to_text() == full
        assert AnfPolynomial.from_monomials(24, [0, (1 << 24) - 1]).to_text() == "1+" + full


class TestRotation:
    def test_shift_action_order(self):
        # f(x) = x0 on 4 variables: orbit under shifting has size 4
        f = truth_table_from_anf(AnfPolynomial.from_monomials(4, [0b0001]))
        assert rotation_symmetry_order(f) == 4
        shifted = cyclic_shift_action(f, 1)
        assert shifted != f
        assert cyclic_shift_action(f, 4) == f

    def test_constants_have_order_one(self):
        assert rotation_symmetry_order(BooleanFunction.zero(4)) == 1
        assert rotation_symmetry_order(BooleanFunction.constant(4, 1)) == 1

    def test_is_k_rotation_symmetric(self):
        f = truth_table_from_anf(AnfPolynomial.from_monomials(4, [0b0011, 0b1100]))
        assert rotation_symmetry_order(f) == 2


class TestCapacity:
    def test_limit_enforced(self):
        old = max_n()
        try:
            set_max_n(8)
            with pytest.raises(CapacityError):
                BooleanFunction.zero(10)
            BooleanFunction.zero(8)
            for bad in (0, 25):
                with pytest.raises(ValueError):
                    set_max_n(bad)
        finally:
            set_max_n(old)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            BitVector(2, 7)
        with pytest.raises(ValueError):
            BooleanFunction(2, 1 << 16)
