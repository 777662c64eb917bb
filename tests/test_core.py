import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from negabench import core
from negabench.constructions import construct, spec_from_dict
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
    popcounts,
    rotation_symmetry_order,
    set_max_n,
    truth_table_from_anf,
)


def _monomials(anf):
    """Reference: the monomial masks present, ascending, read off the binary
    digits of `coeffs`, lowest first."""
    return [u for u, digit in enumerate(reversed(bin(anf.coeffs)[2:])) if digit == "1"]


def _evaluate(anf, x):
    """Reference: the ANF at point x, summing the monomials x covers."""
    acc = 0
    for u in _monomials(anf):
        if u & x == u:
            acc ^= 1
    return acc


def _ref_mobius(bits, n):
    """Reference Moebius transform: one byte per entry, 2^n XORs a level."""
    size = 1 << n
    raw = np.frombuffer(bits.to_bytes(max(1, size // 8), "little"), dtype=np.uint8)
    arr = np.unpackbits(raw, count=size, bitorder="little")
    h = 1
    while h < size:
        view = arr.reshape(-1, 2 * h)
        view[:, h:] ^= view[:, :h]
        h *= 2
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def _ref_degree(anf):
    """Reference degree: the largest weight among all 2^n masks whose
    coefficient is set."""
    if anf.coeffs == 0:
        return 0
    size = 1 << anf.n
    raw = np.frombuffer(anf.coeffs.to_bytes(max(1, size // 8), "little"), dtype=np.uint8)
    return int(popcounts(size)[np.unpackbits(raw, count=size, bitorder="little") == 1].max())


def _ref_shift(f, l):
    """Reference shift: gather the table at rho^l(x) for every index x."""
    n = f.n
    l %= n
    xs = np.arange(1 << n, dtype=np.int64)
    ys = (xs >> l) | ((xs & ((1 << l) - 1)) << (n - l))
    return BooleanFunction.from_values(n, f.value_array()[ys])


def _ref_rotation_order(f):
    """Reference order: every l in 1..n, divisor of n or not."""
    return next(l for l in range(1, f.n + 1) if _ref_shift(f, l) == f)


def _random_table(rng, n):
    return int.from_bytes(rng.bytes(max(1, (1 << n) // 8)), "little") & ((1 << (1 << n)) - 1)


class TestBitVector:
    def test_string_round_trip(self):
        v = BitVector.from_string("0110")
        assert v.bits == 0b0110 and v.n == 4
        assert v.to_string() == "0110"
        assert str(v) == "0110"

    def test_character_j_is_coordinate_j(self):
        v = BitVector.from_string("1101000")
        assert v.n == 7 and v.bits == 0b0001011
        assert BitVector(7, 0b0001011).to_string() == "1101000"

    def test_bad_strings(self):
        with pytest.raises(ValueError):
            BitVector.from_string("01x0")
        with pytest.raises(ValueError):
            BitVector.from_string("")

    def test_weight(self):
        assert BitVector(4, 0b0011).weight() == 2


class TestVectorSet:
    def test_membership_and_size(self):
        s = VectorSet.from_indices(3, [1, 5, 5])
        assert s.mask.bit_count() == 2
        assert s.mask >> 5 & 1 and not s.mask >> 2 & 1


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_value_array_block_is_a_slice_of_the_table(self, n):
        size = 1 << n
        ends = [None, *range(-size - 1, size + 2)]
        for bits in (0x5A3C & ((1 << size) - 1), (1 << size) - 1):
            f = BooleanFunction(n, bits)
            whole = f.value_array()
            for start in ends:
                for stop in ends:
                    block = slice(start, stop)
                    assert f.value_array(block).tolist() == whole[block].tolist()
        with pytest.raises(ValueError):
            f.value_array(slice(None, None, 2))

    @pytest.mark.parametrize("n", [12, 20])
    def test_value_array_unaligned_and_partial_blocks(self, n):
        size = 1 << n
        f = BooleanFunction(n, int.from_bytes(np.random.default_rng(n).bytes(size >> 3), "little"))
        whole = f.value_array()
        for block in (slice(3, 77), slice(5, 5), slice(size, size), slice(9, 8),
                      slice(size - 5, None), slice(size - 13, size - 2), slice(1, size - 1),
                      slice(8, 16), slice(size // 2 + 1, size // 2 + 2)):
            assert np.array_equal(f.value_array(block), whole[block])


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
        assert AnfPolynomial(3, 0).to_text() == "0"

    def test_from_monomials_xor_accumulates(self):
        assert AnfPolynomial.from_monomials(2, [3, 3]) == AnfPolynomial(2, 0)

    def test_degree(self):
        assert AnfPolynomial(3, 0).degree() == 0
        assert AnfPolynomial.from_monomials(3, [0]).degree() == 0
        assert AnfPolynomial.from_monomials(3, [0b1, 0b110]).degree() == 2

    def test_mobius_matches_unpacked_reference(self):
        # n = 1, 2 keep their tables inside one byte's low bits
        rng = np.random.default_rng(1201)
        for n in range(1, 15):
            for _ in range(4):
                f = BooleanFunction(n, _random_table(rng, n))
                anf = anf_from_truth_table(f)
                assert anf.coeffs == _ref_mobius(f.bits, n), n
                assert truth_table_from_anf(anf) == f
                p = AnfPolynomial(n, _random_table(rng, n))
                assert truth_table_from_anf(p).bits == _ref_mobius(p.coeffs, n), n
                assert anf_from_truth_table(truth_table_from_anf(p)) == p

    @pytest.mark.parametrize("n", range(15, 21))
    def test_mobius_matches_unpacked_reference_beyond_n14(self, n):
        rng = np.random.default_rng(1500 + n)
        f = BooleanFunction(n, _random_table(rng, n))
        anf = anf_from_truth_table(f)
        assert anf.coeffs == _ref_mobius(f.bits, n)
        assert truth_table_from_anf(anf) == f

    @pytest.mark.parametrize("n", [1, 5, 6, 7, 11])
    def test_mobius_at_the_word_edges(self, n):
        # n < 6 pads one word, n = 6 fills it and n > 6 adds block levels:
        # single points at the byte and word edges and the top, the all-ones
        # table and a seeded one each equal the reference
        size = 1 << n
        rng = np.random.default_rng(1100 + n)
        points = {i % size for i in (0, 7, 8, 31, 32, 63, 64, size - 64, size - 1)}
        for bits in [1 << i for i in sorted(points)] + [(1 << size) - 1, _random_table(rng, n)]:
            assert core._mobius(bits, n) == _ref_mobius(bits, n), (n, bits.bit_length())

    def test_degree_matches_reference(self):
        rng = np.random.default_rng(1202)
        for n in range(1, 15):
            size = 1 << n
            cases = [AnfPolynomial(n, 0), AnfPolynomial(n, (1 << size) - 1),
                     AnfPolynomial(n, _random_table(rng, n))]
            for terms in (1, 3):
                cases.append(AnfPolynomial.from_monomials(n, rng.integers(0, size, terms)))
            for anf in cases:
                assert anf.degree() == _ref_degree(anf), (n, anf.coeffs)

    def test_evaluate_matches_table(self):
        anf = AnfPolynomial.from_monomials(3, [0b011, 0b100, 0])
        f = truth_table_from_anf(anf)
        assert all(_evaluate(anf, x) == f.value(x) for x in range(8))


def _reference_text(anf):
    """Reference for `AnfPolynomial.to_text`: one join per monomial."""
    parts = []
    for u in _monomials(anf):
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

    def test_closed_anf_over_several_blocks(self):
        # a construction's closed ANF at n = 20: 12,495 terms, four blocks of
        # (term, variable) cells
        spec = spec_from_dict("G4K", {"k": 5, "gammas": ["1111100000", "0100001111"]})
        anf = construct("G4K", spec).closed_anf
        assert anf.term_count() == 12_495
        assert anf.to_text() == _reference_text(anf)

    def test_zero_constant_and_full_monomial_at_n24(self):
        full = "*".join(f"x{j}" for j in range(24))
        assert AnfPolynomial(24, 0).to_text() == "0"
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
        assert rotation_symmetry_order(BooleanFunction(4, 0)) == 1
        assert rotation_symmetry_order(BooleanFunction(4, (1 << 16) - 1)) == 1

    def test_is_k_rotation_symmetric(self):
        f = truth_table_from_anf(AnfPolynomial.from_monomials(4, [0b0011, 0b1100]))
        assert rotation_symmetry_order(f) == 2

    def test_shift_matches_gather_reference(self):
        rng = np.random.default_rng(1203)
        for n in range(1, 15):
            f = BooleanFunction(n, _random_table(rng, n))
            for l in range(-1, n + 2):
                assert cyclic_shift_action(f, l) == _ref_shift(f, l), (n, l)

    def test_order_matches_brute_force(self):
        rng = np.random.default_rng(1204)
        for n in range(1, 11):
            for d in range(1, n + 1):
                if n % d:
                    continue
                # the XOR of a random table's shifts by multiples of d is
                # invariant under rho^d
                g = BooleanFunction(n, _random_table(rng, n))
                f = BooleanFunction(n, 0)
                for j in range(0, n, d):
                    f ^= _ref_shift(g, j)
                assert _ref_shift(f, d) == f
                for h in (f, g):
                    assert rotation_symmetry_order(h) == _ref_rotation_order(h), (n, d)

    def test_order_tries_only_divisors(self, monkeypatch):
        calls = []

        def counting(f, l):
            calls.append(l)
            return cyclic_shift_action(f, l)

        monkeypatch.setattr(core, "cyclic_shift_action", counting)
        f = BooleanFunction(12, _random_table(np.random.default_rng(1205), 12))
        assert rotation_symmetry_order(f) == 12
        assert calls == [1, 2, 3, 4, 6, 12]


class TestCapacity:
    def test_limit_enforced(self):
        old = max_n()
        try:
            set_max_n(8)
            with pytest.raises(CapacityError):
                BooleanFunction(10, 0)
            BooleanFunction(8, 0)
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
