import numpy as np
import pytest

from negabench.core import BitVector, InvalidSpecError
from negabench.subspaces import (
    GammaSpec,
    build_T,
    build_modifier_set,
    coset_union,
    orbit,
    orbit_representatives,
)


def in_pair_repetition(bits, pairs):
    """Membership in A_2^pairs: every coordinate pair (2i, 2i+1) is 00 or 11."""
    return all((bits >> (2 * i) & 3) in (0, 3) for i in range(pairs))


class TestLinearSubspace:
    def test_span_and_membership(self):
        s = coset_union(4, [0b0101, 0b1010], [0])
        assert s.mask.bit_count() == 4
        assert s.indices() == [0, 5, 10, 15]

    def test_dependent_generators_collapse(self):
        s = coset_union(3, [0b011, 0b101, 0b110], [0])
        assert s.indices() == [0, 3, 5, 6]


class TestOrbits:
    def test_orbit_contents(self):
        assert sorted(orbit(BitVector(3, 1))) == [1, 2, 4]
        assert sorted(orbit(BitVector(4, 0b0101))) == [5, 10]

    def test_orbit_is_ints_at_capacity(self):
        o = orbit(BitVector(24, 1))
        assert isinstance(o, tuple) and len(o) == 24
        assert list(o) == [1 << j for j in range(24)]

    def test_representative_is_minimal(self):
        assert orbit(BitVector(4, 0b1000))[0] == 1

    def test_representatives_n3(self):
        assert orbit_representatives(3)[0].tolist() == [0, 1, 3, 7]

    def test_representatives_n4(self):
        assert orbit_representatives(4)[0].tolist() == [0, 1, 3, 5, 7, 15]

    def test_orbit_sizes_partition_space(self):
        reps, lengths = orbit_representatives(4)
        assert lengths.tolist() == [len(orbit(BitVector(4, int(r)))) for r in reps]
        assert lengths.sum() == 16

    @pytest.mark.parametrize("n", range(1, 11))
    def test_representatives_and_lengths_by_definition(self, n):
        # the least member of each orbit and its size, by the per-vector orbit
        orbits = {orbit(BitVector(n, x)) for x in range(1 << n)}
        reps, lengths = orbit_representatives(n)
        assert reps.tolist() == sorted(o[0] for o in orbits)
        assert lengths.tolist() == [len(o) for o in sorted(orbits)]

    def test_blocks_join_at_n17(self):
        # two blocks of 2^16 points; 17 is prime, so (2^17 - 2) / 17 orbits
        # of length 17 and the two fixed points
        reps, lengths = orbit_representatives(17)
        assert reps.size == 7712 and lengths.sum() == 1 << 17
        assert np.all(np.diff(reps.astype(np.int64)) > 0)
        sample = reps[::97]
        assert [len(orbit(BitVector(17, int(r)))) for r in sample] == lengths[::97].tolist()
        assert all(orbit(BitVector(17, int(r)))[0] == r for r in sample)


class TestGammaSpecValidation:
    def test_lengths(self):
        with pytest.raises(InvalidSpecError):
            GammaSpec(1, "S1", (BitVector(3, 1),))
        with pytest.raises(InvalidSpecError):
            GammaSpec(1, "S2", (BitVector(2, 1),))

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidSpecError):
            GammaSpec(1, "S1", (BitVector(2, 1), BitVector(2, 1)))

    def test_esets_only_for_s3_s4(self):
        with pytest.raises(InvalidSpecError):
            GammaSpec(1, "S1", (BitVector(2, 1),), ("B",))
        with pytest.raises(InvalidSpecError):
            GammaSpec(1, "S3", (BitVector(2, 1),))  # missing esets

    def test_eset_symbols(self):
        with pytest.raises(InvalidSpecError):
            GammaSpec(1, "S3", (BitVector(2, 1),), ("2",))

    def test_s2_same_coset_rejected(self):
        # 0000 and 1100 differ by a pair-repetition element
        with pytest.raises(InvalidSpecError):
            GammaSpec(1, "S2", (BitVector(4, 0b0000), BitVector(4, 0b0011)))

    @pytest.mark.parametrize("family, e_sets", [("S2", None), ("S4", ("0", "1", "B"))])
    def test_same_coset_names_the_clashing_pair(self, family, e_sets):
        # only the 2nd and 3rd gamma differ by a member of A_2^2 (pairs 00 or 11)
        gammas = tuple(BitVector.from_string(s) for s in ("0001", "0100", "1000"))
        with pytest.raises(InvalidSpecError) as err:
            GammaSpec(1, family, gammas, e_sets)
        assert str(err.value) == (f"gammas {gammas[1]} and {gammas[2]} lie in the same "
                                  "coset of the pair-repetition subspace")

    def test_gamma_halves(self):
        spec = GammaSpec(2, "S1", (BitVector.from_string("0111"),))
        g1, g2 = spec.gamma_halves(0)
        assert (g1, g2) == (0b10, 0b11)

    def test_e_values(self):
        spec = GammaSpec(1, "S3", (BitVector(2, 0),), ("B",))
        assert spec.e_values(0) == (0, 1)


class TestBuilders:
    def test_s1_defining_equations(self):
        spec = GammaSpec(2, "S1", (BitVector.from_string("0001"), BitVector.from_string("1010")))
        s = build_modifier_set(spec)
        assert s.mask.bit_count() == 2 * 16  # |Gamma| * 4^k
        halves = [spec.gamma_halves(i) for i in range(2)]
        for z in range(1 << 8):
            x, y = z & 0xF, z >> 4
            xp, xpp = x & 3, x >> 2
            yp, ypp = y & 3, y >> 2
            member = any(xpp == xp ^ g1 and ypp == yp ^ g2 for g1, g2 in halves)
            assert bool(s.mask >> z & 1) == member

    def test_s2_defining_membership(self):
        g = BitVector.from_string("1000")
        s = build_modifier_set(GammaSpec(1, "S2", (g,)))
        assert s.mask.bit_count() == 16  # |A|^2 per gamma
        for z in range(1 << 8):
            u, v = z & 0xF, z >> 4
            member = in_pair_repetition(u, 2) and in_pair_repetition(v ^ g.bits, 2)
            assert bool(s.mask >> z & 1) == member

    def test_s3_size(self):
        spec = GammaSpec(1, "S3", (BitVector(2, 1), BitVector(2, 2)), ("B", "1"))
        # per gamma: 2^k x' choices, free x_m, 2^k y' choices, |E| y_m choices
        assert build_modifier_set(spec).mask.bit_count() == (2 * 2 * 2 * 2) + (2 * 2 * 2 * 1)

    def test_s4_size(self):
        spec = GammaSpec(1, "S4", (BitVector(4, 0),), ("0",))
        assert build_modifier_set(spec).mask.bit_count() == 4 * 4 * 2

    def test_t_defining_equations(self):
        gammas = (BitVector(2, 0b01), BitVector(2, 0b10))
        s = build_T(GammaSpec(1, "T", gammas))
        for z in range(16):
            x, y = z & 3, z >> 2
            assert bool(s.mask >> z & 1) == ((x ^ y) in (1, 2))
