"""The truth-table conversions in `core` against plain per-entry loops.

Each reference below walks the table one entry at a time, the way the
conversions were first written; the vectorised versions must agree with them
exactly on random tables and on the edge cases (short hex at n = 1, 2,
repeated indices, out-of-range indices, stray characters in hex input).
"""

import random

import numpy as np
import pytest

from negabench import core
from negabench.core import AnfPolynomial, BooleanFunction, VectorSet


def ref_to_hex(bits, n):
    ndigits = max(1, ((1 << n) + 3) // 4)
    return "".join(f"{(bits >> (4 * j)) & 0xF:x}" for j in range(ndigits))


def ref_from_hex(s):
    bits = 0
    for j, c in enumerate(s):
        bits |= int(c, 16) << (4 * j)
    return bits


def ref_from_values(values):
    bits = 0
    for i, v in enumerate(values):
        if v & 1:
            bits |= 1 << i
    return bits


def ref_from_indices(indices):
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def ref_set_bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def ref_from_monomials(masks):
    coeffs = 0
    for m in masks:
        coeffs ^= 1 << m
    return coeffs


@pytest.mark.parametrize("n", range(1, 11))
def test_matches_loop_references(n):
    rng = random.Random(1000 + n)
    size = 1 << n
    for _ in range(5):
        bits = rng.getrandbits(size)
        f = BooleanFunction(n, bits)
        assert f.to_hex() == ref_to_hex(bits, n)
        assert BooleanFunction.from_hex(n, ref_to_hex(bits, n)).bits == bits
        assert ref_from_hex(f.to_hex()) == bits

        values = [rng.randrange(4) for _ in range(size)]  # entries taken mod 2
        want = ref_from_values(values)
        assert BooleanFunction.from_values(n, values).bits == want
        assert BooleanFunction.from_values(n, np.array(values, dtype=np.uint8)).bits == want

        idxs = [rng.randrange(size) for _ in range(rng.randrange(2 * size))]
        s = VectorSet.from_indices(n, idxs)
        assert s.mask == ref_from_indices(idxs)
        assert s.indices() == ref_set_bits(s.mask)

        p = AnfPolynomial.from_monomials(n, idxs)
        assert p.coeffs == ref_from_monomials(idxs)


@pytest.mark.parametrize("chunk", [1, core._SET_BITS_CHUNK])
@pytest.mark.parametrize("n", range(1, 15))
def test_set_bits_on_empty_sparse_dense_and_full_masks(monkeypatch, n, chunk):
    # a chunk of one 64-bit word puts a chunk boundary after every nonzero word
    monkeypatch.setattr(core, "_SET_BITS_CHUNK", chunk)
    rng = random.Random(3000 + n)
    size = 1 << n
    sparse = sum(1 << i for i in rng.sample(range(size), max(1, size // 100)))
    dense = (1 << size) - 1 - sum(1 << i for i in rng.sample(range(size), size // 8))
    for mask in (0, sparse, dense, (1 << size) - 1):
        got = core._set_bits(mask, size)
        assert got.dtype == np.int64
        assert got.tolist() == ref_set_bits(mask)


def test_short_tables_fit_one_digit():
    for n in (1, 2):
        for bits in range(1 << (1 << n)):
            f = BooleanFunction(n, bits)
            assert f.to_hex() == ref_to_hex(bits, n) == f"{bits:x}"
            assert BooleanFunction.from_hex(n, f.to_hex()) == f
    # a digit holding more than the 2 or 4 entries the table has
    for n, s in ((1, "f"), (1, "4"), (2, "0f"), (2, "g")):
        with pytest.raises(ValueError):
            BooleanFunction.from_hex(n, s)


def test_repeats_merge_or_cancel():
    assert VectorSet.from_indices(3, [5, 5, 5, 1]).indices() == [1, 5]
    assert AnfPolynomial.from_monomials(3, [5, 5, 5, 1]).coeffs == 1 << 1 | 1 << 5
    assert AnfPolynomial.from_monomials(3, [6, 6, 2, 2]).coeffs == 0
    assert VectorSet.from_indices(3, []).mask == 0
    assert AnfPolynomial.from_monomials(3, iter(())).coeffs == 0


@pytest.mark.parametrize("bad", [-1, 8])
def test_out_of_range_index_raises(bad):
    with pytest.raises(ValueError):
        VectorSet.from_indices(3, [0, bad])
    with pytest.raises(ValueError):
        AnfPolynomial.from_monomials(3, [bad])


@pytest.mark.parametrize("s", ["a_00", "+a50", "a5 0", "-a50", "0xa5"])
def test_from_hex_rejects_non_digits(s):
    with pytest.raises(ValueError):
        BooleanFunction.from_hex(4, s)


def test_range_check_without_building_the_bound():
    with pytest.raises(ValueError):
        BooleanFunction(3, 1 << 8)
    with pytest.raises(ValueError):
        VectorSet(3, -1)
    assert AnfPolynomial(3, (1 << 8) - 1).term_count() == 8


@pytest.mark.parametrize("n", range(1, 11))
def test_values_at_and_array_indices(n):
    rng = random.Random(2000 + n)
    size = 1 << n
    idxs = [rng.randrange(size) for _ in range(2 * size)]
    assert VectorSet.from_indices(n, np.array(idxs, dtype=np.int32)).mask == ref_from_indices(idxs)


@pytest.mark.parametrize("bad", [-1, 8])
def test_values_at_out_of_range_raises(bad):
    with pytest.raises(ValueError):
        VectorSet.from_indices(3, np.array([0, bad]))
