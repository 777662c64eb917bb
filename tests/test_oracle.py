import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from negabench import oracle, spectra
from negabench.core import (
    AnfPolynomial,
    BitVector,
    BooleanFunction,
    CapacityError,
    DimensionError,
    InvalidSpecError,
    NotBentError,
    VectorSet,
    characteristic_function,
    popcounts,
    truth_table_from_anf,
)
from negabench.spectra import (
    classify,
    fragmentary_nega_spectrum,
    fragmentary_walsh_spectrum,
    mm_function,
    nega_transform,
    walsh_transform,
)
from negabench.subspaces import GammaSpec, build_modifier_set
from negabench.constructions import (
    FAMILY_TABLE,
    RotationSpec,
    base_function,
    construct,
)
from negabench.oracle import (
    SU_CASES,
    SuComparisonCase,
    check_reference_case,
    check_su_conditions,
    check_table1,
    extract_frame_coefficients,
    g0_nega_closed_form,
    g0_walsh_closed_form,
    h0_nega_closed_form,
    h0_walsh_closed_form,
    naive_transforms,
    split_points,
    verify_construction,
    verify_fragmentary_lemma,
)
from negabench.reference import REFERENCE_CASES


def _random_function(n, seed):
    rng = np.random.default_rng(seed)
    nbytes = max(1, (1 << n) // 8)
    return BooleanFunction(n, int.from_bytes(rng.bytes(nbytes), "little") & ((1 << (1 << n)) - 1))


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def _reference_transforms(f, t=None, us=None):
    """The per-point loop the definitional sums replaced: for each u (every
    point if us is None), the dot products of (-1)^f on t (everywhere if
    None), twisted by i^wt(x), with the signs (-1)^(u.x)."""
    size = 1 << f.n
    signs = 1 - 2 * f.value_array().astype(np.int64)
    if t is not None:
        signs *= characteristic_function(t).value_array()
    pops = popcounts(size)
    re_twist = signs * np.array([1, 0, -1, 0], dtype=np.int64)[pops % 4]
    im_twist = signs * np.array([0, 1, 0, -1], dtype=np.int64)[pops % 4]
    xs = np.arange(size, dtype=np.int64)
    us = range(size) if us is None else us
    w, re, im = (np.empty(len(us), dtype=np.int64) for _ in range(3))
    for i, u in enumerate(us):
        dot_signs = 1 - 2 * (pops[xs & u] & 1)
        w[i] = np.dot(signs, dot_signs)
        re[i] = np.dot(re_twist, dot_signs)
        im[i] = np.dot(im_twist, dot_signs)
    return w, re, im


def _reference_cases():
    """Random, all-zero, all-one and linear tables at n = 1..10, plus bent g0."""
    for n in range(1, 11):
        size = 1 << n
        yield _random_function(n, seed=100 + n)
        yield BooleanFunction(n, 0)
        yield BooleanFunction(n, (1 << size) - 1)
        a = (0b1011011011 >> (10 - n)) | 1
        yield BooleanFunction.from_values(n, popcounts(size)[np.arange(size) & a] & 1)
    yield base_function("g0", 1)
    yield base_function("g0", 2)


def _assert_reference(f):
    got = naive_transforms(f)
    want = _reference_transforms(f)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert all(a.dtype == np.int64 and not a.flags.writeable for a in got)


def _random_set(n, seed):
    return VectorSet(n, _random_function(n, seed).bits)


def _assert_restricted(f, t, us):
    got = spectra.definitional_sums(f, us, t)
    want = _reference_transforms(f, t, us)
    assert all(a.dtype == np.int64 and a.shape == (len(us),) for a in got)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _restricted_cases(n, seed):
    """Seeded points (with a repeat) and sets: none, empty, everything, random."""
    rng = np.random.default_rng(seed)
    size = 1 << n
    us = rng.integers(0, size, 12).tolist() + [size - 1, 0, size - 1]
    sets = (None, VectorSet(n, 0), VectorSet(n, (1 << size) - 1), _random_set(n, seed + 1))
    return [(_random_function(n, seed), t, us) for t in sets]


def _refuse(*args, **kwargs):
    raise AssertionError("one spectrum route reached the other's code")


class _RefusedTable:
    __getitem__ = __array__ = __getattr__ = _refuse


class TestNaiveTransforms:
    def test_matches_per_point_reference(self):
        for f in _reference_cases():
            _assert_reference(f)

    def test_reaches_no_butterfly_code(self, monkeypatch):
        for name in ("_levels", "_pease", "_spectrum", "_sigma2_bytes", "_workspace",
                     "walsh_transform", "nega_transform"):
            monkeypatch.setattr(spectra, name, _refuse)
        monkeypatch.setattr(spectra, "_ENTRY_ROWS", _RefusedTable())
        for name in ("walsh_transform", "nega_transform"):
            monkeypatch.setattr(oracle, name, _refuse)
        for n in (3, 8, 11, 13):
            _assert_reference(_random_function(n, seed=n))
            for f, t, us in _restricted_cases(n, seed=40 + n):
                _assert_restricted(f, t, us)

    def test_butterfly_reaches_no_definitional_code(self, monkeypatch):
        def all_spectra(f, t):
            return (walsh_transform(f).values, nega_transform(f).wg,
                    fragmentary_walsh_spectrum(f, t).values, fragmentary_nega_spectrum(f, t).wg)

        cases = [(_random_function(n, seed=n), _random_set(n, seed=60 + n)) for n in (3, 8, 11)]
        want = [all_spectra(f, t) for f, t in cases]
        for name in ("_ROW6", "_CLASS_WORDS"):
            monkeypatch.setattr(spectra, name, _RefusedTable())
        monkeypatch.setattr(spectra, "definitional_sums", _refuse)
        for (f, t), arrays in zip(cases, want):
            assert all(np.array_equal(g, w) for g, w in zip(all_spectra(f, t), arrays))

    def test_agrees_with_butterfly(self, nega_parts):
        for n in (1, 2, 3, 5, 7):
            f = _random_function(n, seed=n)
            w, re, im = naive_transforms(f)
            wf, nf = walsh_transform(f), nega_transform(f)
            assert np.array_equal(w, wf.values)
            assert all(np.array_equal(a, b) for a, b in zip((re, im), nega_parts(nf)))

    def test_capacity_guard(self):
        got = naive_transforms(_random_function(14, seed=14))
        assert [(a.dtype, a.shape, a.flags.writeable) for a in got] == [
            (np.int64, (1 << 14,), False)] * 3
        with pytest.raises(CapacityError):
            naive_transforms(BooleanFunction(15, 0))


def _every_table_reference(n, t):
    """(W, re N, im N) of every 2^n-entry table over t (everywhere if None) at
    every point, as int64 [part, table, u], by the literal double sum over
    (u, x) of (-1)^(f(x) + u.x) and its twist by i^wt(x)."""
    size = 1 << n
    xs = np.arange(size)
    signs = 1 - 2 * (np.arange(1 << size)[:, None] >> xs & 1)  # (-1)^f(x), table by table
    if t is not None:
        signs *= characteristic_function(t).value_array()
    chi = 1 - 2 * (np.bitwise_count(xs[:, None] & xs) & 1).astype(np.int64)  # (-1)^(u.x)
    twist = np.array([[1, 0, -1, 0], [0, 1, 0, -1]])[:, np.bitwise_count(xs) % 4]
    return np.array([np.einsum("fx,ux->fu", signs * part, chi) for part in (1, *twist)])


def _whole_grid(f, t=None):
    """_grid_sums at every point, as int64 [part, u]."""
    size = 1 << f.n
    grid = spectra._grid_sums(f, np.arange(min(64, size)),
                              np.arange(max(1, size >> 6), dtype=np.uint32), t)
    assert grid.dtype == np.int32 and grid.shape[0] == 3
    return grid.reshape(3, size).astype(np.int64)


class TestGridSums:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_table_matches_the_literal_double_sum(self, n):
        for t in (None, _random_set(n, seed=970 + n)):
            want = _every_table_reference(n, t)
            for bits in range(1 << (1 << n)):
                assert np.array_equal(_whole_grid(BooleanFunction(n, bits), t), want[:, bits])

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_seeded_tables_match_the_per_point_reference(self, n):
        for seed in range(3):
            f = _random_function(n, seed=980 + 10 * n + seed)
            for t in (None, _random_set(n, seed=990 + 10 * n + seed)):
                assert np.array_equal(_whole_grid(f, t), np.array(_reference_transforms(f, t)))

    @pytest.mark.parametrize("n", [7, 8])
    def test_any_product_set_of_parts(self, n):
        # places in hi and lo index the axes, whatever parts the caller picks
        rng = np.random.default_rng(1000 + n)
        f, t = _random_function(n, seed=1010 + n), _random_set(n, seed=1020 + n)
        lo = np.sort(rng.choice(64, size=5, replace=False))
        hi = np.sort(rng.choice(1 << n >> 6, size=2, replace=False)).astype(np.uint32)
        us = (64 * hi[:, None].astype(np.int64) + lo).reshape(-1)
        want = np.array(_reference_transforms(f, t, us.tolist())).reshape(3, hi.size, lo.size)
        assert np.array_equal(spectra._grid_sums(f, lo, hi, t), want)

    @pytest.mark.parametrize("n", range(8, 15))
    def test_definitional_sums_read_the_grid(self, n):
        # shuffled points with repeats, the 64-point stride sample, and no points
        rng = np.random.default_rng(1030 + n)
        size = 1 << n
        f = _random_function(n, seed=1040 + n)
        for t in (None, _random_set(n, seed=1050 + n)):
            grid = _whole_grid(f, t)
            picked = rng.integers(0, size, 40)
            us = rng.permutation(np.concatenate([picked, picked[:15], [0, size - 1, 0]]))
            for points in (us, range(0, size, size // 64)):
                got = spectra.definitional_sums(f, points, t)
                assert all(a.dtype == np.int64 for a in got)
                assert np.array_equal(np.array(got), grid[:, list(points)])
            assert [a.shape for a in spectra.definitional_sums(f, [], t)] == [(0,)] * 3


class TestDefinitionalSums:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_per_point_reference(self, n):
        for f, t, us in _restricted_cases(n, seed=700 + n):
            _assert_restricted(f, t, us)

    @pytest.mark.parametrize("n", [13, 14])
    def test_high_bits_flip_whole_words(self, n):
        # the one-word row of u's low 6 bits is tiled over the words and
        # flipped per word x_hi by u_hi.x_hi; here u_hi also has bits past 2^12
        rng = np.random.default_rng(900 + n)
        size = 1 << n
        us = [size - 1, 1 << 12, (1 << 12) + 5] + rng.integers(0, size, 3).tolist()
        f = _random_function(n, seed=910 + n)
        for t in (None, _random_set(n, seed=920 + n)):
            _assert_restricted(f, t, us)

    @pytest.mark.parametrize("n", [16, 18])
    def test_stride_sample_with_a_random_set(self, n):
        # the literal-sum-agreement points: one low part, 64 high parts
        us = list(range(0, 1 << n, (1 << n) // 64))
        _assert_restricted(_random_function(n, seed=940 + n), _random_set(n, seed=950 + n), us)

    def test_sums_at_the_width_edge(self):
        # n = 24, so a sum reaches 2^24 in int32: on a constant table W(0) =
        # +-2^24 and W(2^24 - 1) = 0, and N(u) = +-prod_j (1 + (-1)^u_j i),
        # which is (1 + i)^24 = (2i)^12 = 2^12 at u = 0 and (1 - i)^24 =
        # (-2i)^12 = 2^12 at u = 2^24 - 1
        n, size = 24, 1 << 24
        for value in (0, 1):
            f = BooleanFunction(n, ((1 << size) - 1) * value)
            sign = 1 - 2 * value
            for t in (None, VectorSet(n, (1 << size) - 1)):
                w, re, im = spectra.definitional_sums(f, [0, size - 1], t)
                assert w.tolist() == [sign * size, 0]
                assert re.tolist() == [sign << 12, sign << 12] and im.tolist() == [0, 0]

    @pytest.mark.parametrize("n", [1, 7, 13])
    def test_no_points(self, n):
        for t in (None, _random_set(n, seed=n)):
            got = spectra.definitional_sums(_random_function(n, seed=n), [], t)
            assert [(a.dtype, a.shape) for a in got] == [(np.int64, (0,))] * 3

    def test_one_point_forms(self):
        f, t = _random_function(6, seed=5), _random_set(6, seed=6)
        w, re, im = _reference_transforms(f, t, [37])
        assert spectra.fragmentary_walsh(f, t, BitVector(6, 37)) == w[0]
        assert spectra.fragmentary_nega(f, t, 37) == (re[0], im[0])

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_rejects_points_out_of_range(self, bad):
        with pytest.raises(ValueError):
            spectra.definitional_sums(BooleanFunction(3, 0), [0, bad])
        with pytest.raises(ValueError):
            spectra.fragmentary_walsh(BooleanFunction(3, 0), VectorSet(3, 5), bad)

    def test_rejects_a_set_of_another_dimension(self):
        with pytest.raises(DimensionError):
            spectra.definitional_sums(BooleanFunction(3, 0), [0], VectorSet(4, 5))
        with pytest.raises(DimensionError):
            spectra.fragmentary_nega(BooleanFunction(4, 0), VectorSet(3, 5), 0)


class TestClosedFormBaseSpectra:
    def test_g0_everywhere(self, nega_parts):
        for t in (1, 2):
            f = base_function("g0", t)
            wf, nf = walsh_transform(f), nega_transform(f)
            us = np.arange(1 << f.n)
            split = split_points(t, False, us)
            w, (re, im) = g0_walsh_closed_form(t, *split), g0_nega_closed_form(t, *split)
            assert np.array_equal(wf.values, w)
            nf_re, nf_im = nega_parts(nf)
            assert np.array_equal(nf_re, re) and np.array_equal(nf_im, im)

    def test_h0_everywhere(self, nega_parts):
        f = base_function("h0", 1)
        wf, nf = walsh_transform(f), nega_transform(f)
        us = np.arange(1 << 6)
        split = split_points(1, True, us)
        w, (re, im) = h0_walsh_closed_form(1, *split), h0_nega_closed_form(1, *split)
        assert np.array_equal(wf.values, w)
        nf_re, nf_im = nega_parts(nf)
        assert np.array_equal(nf_re, re) and np.array_equal(nf_im, im)


def walsh_code(codes, u):
    """Reference text code of the Walsh branch at u: '0', '1' or '!'."""
    b = int(codes[0][u.bits if isinstance(u, BitVector) else u])
    return str(b) if b >= 0 else "!"


def nega_code(codes, u):
    """Reference text code of the nega branch at u: '0', '1', 'i', '-i' or '!'."""
    b = int(codes[1][u.bits if isinstance(u, BitVector) else u])
    return oracle.NEGA_BRANCHES[b] if b >= 0 else "!"


def admissible(codes):
    """No point's ratio is outside the branch table: no code < 0."""
    return all(not (code < 0).any() for code in codes)


def _counts(f0, t):
    """Frame branch counts of f0 over t, from the spectra of f1 = f0 + 1_t."""
    f1 = f0 ^ characteristic_function(t)
    return extract_frame_coefficients(f0, walsh_transform(f1), nega_transform(f1))


def _code_counts(codes):
    """The branch counts of per-point codes, in ("0", "1") and NEGA_BRANCHES order."""
    return tuple(np.bincount(code, minlength=m) for code, m in zip(codes, (2, 4)))


# the per-point nega branch by the sign bits [W_g0(u) < 0] + 2 [W_g0(u') < 0] + 4 [W_g1(u) < 0]
# + 8 [W_g1(u') < 0]: the sign units (a1, b1) are (a0, b0), (-a0, -b0), (b0, -a0) or
# (-b0, a0), which for units a0, b0 are all four sign pairs
_NEGA_BRANCH = np.array([[(a, b), (-a, -b), (b, -a), (-b, a)].index((a1, b1))
                         for b1 in (1, -1) for a1 in (1, -1) for b in (1, -1) for a in (1, -1)])


def _sign_codes(f0, t):
    """Per-point branches read off sign bits: Walsh 1 where W_f1 and W_f0
    differ in sign, nega `_NEGA_BRANCH` at the signs of W_g0 and W_g1 at u
    and u', and -1 wherever f1 = f0 + 1_t is not flat (there, at u or u')."""
    f1 = f0 ^ characteristic_function(t)
    flat = 1 << f0.n // 2
    w0, w1 = walsh_transform(f0).values, walsh_transform(f1).values
    g0, g1 = nega_transform(f0).wg < 0, nega_transform(f1).wg
    walsh = np.where(np.abs(w1) == flat, (w0 < 0) ^ (w1 < 0), -1)
    signs = g0 | g0[::-1] << 1 | (g1 < 0) << 2 | (g1[::-1] < 0) << 3
    nega = np.where((np.abs(g1) == flat) & (np.abs(g1[::-1]) == flat),
                    _NEGA_BRANCH[signs], -1)
    return walsh, nega


class TestFrameCoefficients:
    def test_single_gamma_counts(self):
        f0 = base_function("g0", 1)
        t = build_modifier_set(GammaSpec(1, "S1", (BitVector(2, 1),)))
        walsh, nega = _counts(f0, t)
        assert walsh.dtype == nega.dtype == np.int64
        assert walsh.shape == (2,) and nega.shape == (4,)
        assert walsh.sum() == nega.sum() == 16
        codes = _reference_frame_codes(f0, t)
        assert admissible(codes)
        assert all(np.array_equal(a, b) for a, b in zip((walsh, nega), _code_counts(codes)))

    def test_codes_are_strings(self):
        f0 = base_function("g0", 1)
        t = build_modifier_set(GammaSpec(1, "S1", (BitVector(2, 0),)))
        codes = _reference_frame_codes(f0, t)
        walsh, nega = _counts(f0, t)
        assert walsh_code(codes, 0) in ("0", "1")
        assert walsh[int(walsh_code(codes, 0))] >= 1
        assert nega_code(codes, BitVector(4, 3)) in ("0", "1", "i", "-i")
        assert nega[oracle.NEGA_BRANCHES.index(nega_code(codes, BitVector(4, 3)))] >= 1

    def test_requires_bent_negabent_base(self):
        t = build_modifier_set(GammaSpec(1, "S1", (BitVector(2, 0),)))
        with pytest.raises(NotBentError):
            _counts(BooleanFunction(4, 0), t)
        # sigma2 is bent but not negabent
        with pytest.raises(NotBentError):
            _counts(base_function("sigma2", 4), t)

    def test_refuses_spectra_of_another_dimension(self):
        f0, other = base_function("g0", 1), base_function("g0", 2)
        for w1, n1 in ((walsh_transform(other), nega_transform(f0)),
                       (walsh_transform(f0), nega_transform(other))):
            with pytest.raises(DimensionError):
                extract_frame_coefficients(f0, w1, n1)

    def test_runs_no_butterfly(self, monkeypatch):
        cf = construct("H4K2", GammaSpec(2, "S3", (BitVector(4, 3), BitVector(4, 12)), ("0", "B")))
        want = _code_counts(_reference_frame_codes(cf.base, cf.modifier_set))
        w1, n1 = walsh_transform(cf.function), nega_transform(cf.function)

        def refused(*args):
            raise AssertionError("butterfly called")

        monkeypatch.setattr(spectra, "_spectrum", refused)
        oracle._base_spectra.cache_clear()
        got = extract_frame_coefficients(cf.base, w1, n1)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_generic_subset_can_be_inadmissible(self):
        f0 = base_function("g0", 1)
        t = VectorSet.from_indices(4, [0])
        codes = _reference_frame_codes(f0, t)
        assert not admissible(codes)
        assert (codes[0] < 0).any()
        u = int(np.flatnonzero(codes[0] < 0)[0])
        with pytest.raises(NotBentError, match=f"not flat: at {BitVector(4, u)}: [|]W[|] "):
            _counts(f0, t)

    @pytest.mark.parametrize("family, spec", [
        ("G4K", GammaSpec(5, "S1", (BitVector(10, 0b1101001110), BitVector(10, 0b0010110001)))),
        ("H4K2", GammaSpec(5, "S3", (BitVector(10, 0b1101001110), BitVector(10, 0b0010110001)),
                           ("B", "0")))], ids=["n20", "n22"])
    def test_counts_allocate_no_full_size_array(self, family, spec):
        # a 2^n int8 array alone would be 1 MiB at n = 20; with the base warm
        # (its duals and their packed bytes kept), f1's flatness scans and the
        # counts take one block at a time
        cf = construct(family, spec)
        w1, n1 = walsh_transform(cf.function), nega_transform(cf.function)
        for dual in oracle._base_spectra(cf.base):
            dual.table_bytes
        tracemalloc.start()
        try:
            walsh, nega = extract_frame_coefficients(cf.base, w1, n1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert walsh.sum() == nega.sum() == 1 << cf.n
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("family, spec", [
        ("H4K2", GammaSpec(4, "S3", (BitVector(8, 0b10110100), BitVector(8, 0b01001110)),
                           ("B", "0"))),
        ("G4K", GammaSpec(5, "S1", (BitVector(10, 0b1101001110), BitVector(10, 0b0010110001))))],
        ids=["n18", "n20"])
    def test_packed_counts_match_masked_route_across_blocks(self, family, spec):
        # 16 and 64 blocks of 2^14 points, each beside its mirror block: the
        # popcounts of the packed sign planes give the masked route's branch
        # counts, for the rebuilt function and for a tampered table, whose
        # report takes f1's own spectra
        cf = construct(family, spec)
        walsh, nega = _code_counts(_reference_frame_codes(cf.base, cf.modifier_set))
        assert family == "G4K" or nega[2] and nega[3]  # the i and -i branches
        got = _counts(cf.base, cf.modifier_set)
        assert all(np.array_equal(a, b) for a, b in zip(got, (walsh, nega)))
        want = "; ".join(f"{kind} branches " + " ".join(
            f"{b}={c}" for b, c in zip(names, counts) if c) for kind, names, counts in (
            ("walsh", ("0", "1"), walsh), ("nega", oracle.NEGA_BRANCHES, nega)))
        for function in (cf.function, _tampered_functions(cf)["one-point"]):
            report = verify_construction(dataclasses.replace(cf, function=function))
            assert _check(report, "fragment-ratios-admissible").details == want


def _reference_frame_codes(f0, t):
    """Branch codes by the masked route: the fragment spectra of f0 over t,
    doubled in int64 and compared with the full spectra of f0."""
    wf, nf = walsh_transform(f0), nega_transform(f0)
    wt = fragmentary_walsh_spectrum(f0, t).values.astype(np.int64)
    r0, i0 = nf.parts(slice(None))
    rt, it = (2 * p for p in fragmentary_nega_spectrum(f0, t).parts(slice(None)))
    walsh = np.full(1 << f0.n, -1, dtype=np.int8)
    walsh[wt == 0] = 0
    walsh[wt == wf.values] = 1
    nega = np.full(1 << f0.n, -1, dtype=np.int8)
    for code, (re, im) in enumerate(((0, 0), (2 * r0, 2 * i0),
                                     (r0 + i0, i0 - r0), (r0 - i0, r0 + i0))):
        nega[(rt == re) & (it == im)] = code
    return walsh, nega


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(spectra, "_BLOCK", 32)  # every n >= 6 crosses blocks


def _frame_specs():
    """Seeded specs of all seven families at n <= 14."""
    rng = random.Random(20261018)

    def vectors(length, count, pairs=False):
        if pairs:  # distinct cosets of the pair-repetition subspace
            labels = rng.sample(range(1 << (length // 2)), count)
            return tuple(BitVector(length, sum(((c >> i & 1) << 2 * i)
                                               ^ (3 << 2 * i) * rng.randrange(2)
                                               for i in range(length // 2)))
                         for c in labels)
        return tuple(BitVector(length, v) for v in rng.sample(range(1 << length), count))

    specs = []
    for family, k in (("G4K", 1), ("G4K", 2), ("G4K", 3), ("G8K", 1),
                      ("H4K2", 1), ("H4K2", 2), ("H4K2", 3), ("H8K2", 1)):
        tag = FAMILY_TABLE[family].set_tag
        pairs = tag in ("S2", "S4")
        for count in (1, 2, 3):
            gammas = vectors((4 if pairs else 2) * k, count, pairs)
            esets = (tuple(rng.choice("01B") for _ in gammas)
                     if tag in ("S3", "S4") else None)
            specs.append((family, GammaSpec(k, tag, gammas, esets)))
    for k in (2, 3):
        reps = sorted({min(((v >> s) | (v << (2 * k - s))) & ((1 << 2 * k) - 1)
                           for s in range(2 * k)) for v in range(1, 1 << 2 * k)})
        for family in ("F2RS", "F2RS_SET"):
            picks = rng.sample(reps, 2)
            specs.append((family, RotationSpec(k, tuple(BitVector(2 * k, v) for v in picks))))
        gamma = rng.choice([v for v in reps if v.bit_count() >= 2])
        specs.append(("F2RS_ORBIT", RotationSpec(k, (BitVector(2 * k, gamma),))))
    return specs


@pytest.mark.usefixtures("small_blocks")
class TestFrameCodesFromSpectra:
    @pytest.mark.parametrize("family, spec", _frame_specs(),
                             ids=lambda x: x if isinstance(x, str) else f"k{x.k}")
    def test_construction_codes_match_masked_route(self, family, spec):
        cf = construct(family, spec)
        f0, t = cf.base, cf.modifier_set
        want_walsh, want_nega = codes = _reference_frame_codes(f0, t)
        walsh, nega = _sign_codes(f0, t)
        assert admissible(codes)
        assert np.array_equal(walsh, want_walsh)
        assert np.array_equal(nega, want_nega)
        assert all(np.array_equal(a, b) for a, b in zip(_counts(f0, t), _code_counts(codes)))

    @pytest.mark.parametrize("base, k", [("g0", 1), ("h0", 1), ("g0", 2), ("h0", 2)])
    def test_random_subsets_match_masked_route(self, base, k):
        f0 = base_function(base, k)
        for t in _random_subsets(f0):
            want_walsh, want_nega = codes = _reference_frame_codes(f0, t)
            walsh, nega = _sign_codes(f0, t)
            assert np.array_equal(walsh, want_walsh)
            assert np.array_equal(nega, want_nega)
            if admissible(codes):
                assert all(np.array_equal(a, b)
                           for a, b in zip(_counts(f0, t), _code_counts(codes)))
        assert not admissible(_reference_frame_codes(f0, _random_subsets(f0)[0]))


def _random_subsets(f0):
    """Three single points and sets of density 0.1, 0.5 and 0.9, seeded by n."""
    size = 1 << f0.n
    rng = np.random.default_rng(500 + f0.n)
    subsets = [VectorSet.from_indices(f0.n, [int(u)]) for u in rng.integers(size, size=3)]
    for density in (0.1, 0.5, 0.9):
        subsets.append(VectorSet.from_indices(f0.n, np.flatnonzero(rng.random(size) < density)))
    return subsets


def _tampered_functions(cf):
    """The complement of a construction's function, and the function with
    one point flipped."""
    n = cf.function.n
    point = BooleanFunction(n, 1 << ((1 << n) // 3))
    return {"complement": cf.function ^ BooleanFunction(n, (1 << (1 << n)) - 1),
            "one-point": cf.function ^ point}


_SEVEN = [("G4K", GammaSpec(2, "S1", (BitVector(4, 6), BitVector(4, 9)))),
          ("G8K", GammaSpec(1, "S2", (BitVector(4, 0b0001), BitVector(4, 0b0100)))),
          ("H4K2", GammaSpec(2, "S3", (BitVector(4, 3), BitVector(4, 12)), ("0", "B"))),
          ("H8K2", GammaSpec(1, "S4", (BitVector(4, 0b0100),), ("1",))),
          ("F2RS", RotationSpec(2, (BitVector(4, 1), BitVector(4, 3)))),
          ("F2RS_SET", RotationSpec(2, (BitVector(4, 1), BitVector(4, 7)))),
          ("F2RS_ORBIT", RotationSpec(2, (BitVector(4, 5),)))]


class TestFrameCheckOfTamperedFunctions:
    @pytest.mark.parametrize("family, spec", _SEVEN, ids=[f for f, _ in _SEVEN])
    def test_verdict_and_detail_are_the_rebuilt_ones(self, family, spec):
        cf = construct(family, spec)
        good = _check(verify_construction(cf), "fragment-ratios-admissible")
        assert good.passed and good.details
        for how, bad in _tampered_functions(cf).items():
            got = _check(verify_construction(dataclasses.replace(cf, function=bad)),
                         "fragment-ratios-admissible")
            assert (got.passed, got.details, got.counterexample) == (
                good.passed, good.details, good.counterexample), how

    def test_the_kept_base_and_set_decide_the_frame_check(self):
        # replacing the function, as verify --in does, keeps the base and set
        # construct built: one flipped point of g is named by the involution
        # check, while the frame check keeps the construction's verdict; a
        # point toggled in the kept set instead moves every W_f1(u) to
        # +-2^(n/2) +- 2, so the first inadmissible ratio is at u = 0
        family, spec = _SEVEN[0]
        cf = construct(family, spec)
        n, x0 = cf.n, (1 << cf.n) // 3
        g = cf.function ^ BooleanFunction(n, 1 << x0)
        report = verify_construction(dataclasses.replace(cf, function=g))
        assert not report.passed
        assert _check(report, "dual-involution").counterexample.startswith(
            f"at {BitVector(n, x0)}: ")
        assert _check(report, "fragment-ratios-admissible").passed
        moved = VectorSet(n, cf.modifier_set.mask ^ 1 << x0)
        frame = _check(verify_construction(dataclasses.replace(cf, modifier_set=moved)),
                       "fragment-ratios-admissible")
        assert not frame.passed
        w1 = walsh_transform(cf.base ^ characteristic_function(moved)).value(0)
        assert abs(w1) != 1 << (n // 2)
        assert frame.counterexample == (f"at {BitVector(n, 0)}: W_f1 {w1} "
                                        f"!= +-W_f0 {1 << (n // 2)}")

    def test_a_failing_frame_check_takes_f1_spectra_once(self, monkeypatch):
        # a point toggled in the kept set makes f1 differ from f: W and N of
        # f, of f1 and of the closed dual, in that order, so one pair is live
        # at a time, and none of the base, cold or kept
        cf = construct(*_SEVEN[0])
        moved = dataclasses.replace(
            cf, modifier_set=VectorSet(cf.n, cf.modifier_set.mask ^ 1 << 85))
        calls = []
        real = spectra._spectrum
        monkeypatch.setattr(spectra, "_spectrum", lambda *args: calls.append(args) or real(*args))
        oracle._base_spectra.cache_clear()
        f1 = cf.base ^ characteristic_function(moved.modifier_set)
        want = [(g, nega) for g in (cf.function, f1, cf.closed_dual) for nega in (False, True)]
        for _ in range(2):  # a cold base, then the base kept from the first report
            calls.clear()
            frame = _check(verify_construction(moved), "fragment-ratios-admissible")
            assert frame.counterexample.startswith("at ")
            assert calls == want

    @pytest.mark.parametrize("family, spec", _SEVEN, ids=[f for f, _ in _SEVEN])
    def test_no_butterfly_runs_on_the_base(self, monkeypatch, family, spec):
        cf = construct(family, spec)
        sigma2 = base_function("sigma2", cf.n)
        real = spectra._spectrum

        def refusing(f, *args):
            assert f not in (cf.base, cf.base ^ sigma2), "butterfly on the base"
            return real(f, *args)

        monkeypatch.setattr(spectra, "_spectrum", refusing)
        oracle._base_spectra.cache_clear()
        for function in (cf.function, *_tampered_functions(cf).values()):
            report = verify_construction(dataclasses.replace(cf, function=function))
            assert _check(report, "fragment-ratios-admissible").passed

    def test_six_butterfly_passes_and_no_masked_route(self, monkeypatch):
        cf = construct("H4K2", GammaSpec(2, "S3", (BitVector(4, 3), BitVector(4, 12)),
                                         ("0", "B")))
        calls = {"walsh_transform": 0, "nega_transform": 0}
        for name in calls:
            def counted(f, name=name, real=getattr(oracle, name)):
                calls[name] += 1
                return real(f)
            monkeypatch.setattr(oracle, name, counted)

        def refused(*args):
            raise AssertionError("masked butterfly called")

        for module in (oracle, spectra):
            for name in ("fragmentary_walsh_spectrum", "fragmentary_nega_spectrum"):
                monkeypatch.setattr(module, name, refused)
        for function, want in ((cf.function, 2),
                               (_tampered_functions(cf)["complement"], 3)):
            oracle._base_spectra.cache_clear()
            calls.update(dict.fromkeys(calls, 0))
            report = verify_construction(dataclasses.replace(cf, function=function))
            assert _check(report, "fragment-ratios-admissible").passed
            assert calls == {"walsh_transform": want, "nega_transform": want}
            if function is cf.function:
                assert report.passed

    def test_four_flatness_scans_with_a_warm_base(self, monkeypatch):
        # W_f, N_f and the closed dual's W and N are scanned once each; the
        # dual and the involution reuse their verdicts, and the base spectra
        # kept from the first report keep theirs
        cf = construct("H4K2", GammaSpec(2, "S3", (BitVector(4, 3),), ("B",)))
        assert verify_construction(cf).passed
        scans = []

        def counted(size, flags):
            scans.append(size)
            return first_flagged(size, flags)

        first_flagged = spectra._first_flagged
        monkeypatch.setattr(spectra, "_first_flagged", counted)
        assert verify_construction(cf).passed
        assert len(scans) == 4


def _assert_frame_verdict_is_flatness(cf, t):
    """The reference codes over t are all admissible exactly when f1 = f0 +
    1_t is bent and negabent.  Where they are not, the frame check on the
    moved set names the reference's first inadmissible point, Walsh before
    nega, and the counts are refused at that point."""
    f0, n = cf.base, cf.n
    codes = _reference_frame_codes(f0, t)
    f1 = f0 ^ characteristic_function(t)
    flags = classify(f1)
    frame = _check(verify_construction(dataclasses.replace(cf, modifier_set=t)),
                   "fragment-ratios-admissible")
    assert admissible(codes) == (flags.is_bent and flags.is_negabent)
    assert frame.passed == admissible(codes)
    if frame.passed:
        return
    bad_walsh, bad_nega = (np.flatnonzero(code < 0) for code in codes)
    if bad_walsh.size:
        u = int(bad_walsh[0])
        want = f"at {BitVector(n, u)}: W_f1 {walsh_transform(f1).value(u)} != +-W_f0 {1 << n // 2}"
    else:
        u = int(bad_nega[0])
        mirror = (1 << n) - 1 - u
        g0, g1 = nega_transform(f0).wg, nega_transform(f1).wg
        want = (f"at {BitVector(n, u)}: (W_g1,W_g1') ({g1[u]},{g1[mirror]}) != "
                f"a quarter turn of (W_g0,W_g0') ({g0[u]},{g0[mirror]})")
    assert frame.counterexample == want
    with pytest.raises(NotBentError, match=f"not flat: at {BitVector(n, u)}: "):
        _counts(f0, t)


@pytest.mark.usefixtures("small_blocks")
class TestFrameVerdictIsFlatness:
    @pytest.mark.parametrize("base, k", [("g0", 1), ("h0", 1), ("g0", 2), ("h0", 2)])
    def test_random_subsets(self, base, k):
        gamma = (BitVector(2 * k, 1),)
        cf = construct(*(("G4K", GammaSpec(k, "S1", gamma)) if base == "g0" else
                         ("H4K2", GammaSpec(k, "S3", gamma, ("0",)))))
        assert cf.base == base_function(base, k)
        for t in _random_subsets(cf.base) + _moved_sets(cf):
            _assert_frame_verdict_is_flatness(cf, t)

    @pytest.mark.parametrize("family, spec", _SEVEN, ids=[f for f, _ in _SEVEN])
    def test_moved_sets(self, family, spec):
        cf = construct(family, spec)
        for t in _moved_sets(cf):
            _assert_frame_verdict_is_flatness(cf, t)


def _moved_sets(cf):
    """The kept modifier set, with one point toggled, and the sets that make
    f1 sigma2 or a Maiorana-McFarland x.pi(y): bent and not negabent, so
    the frame check names a nega point."""
    n, m = cf.n, cf.n // 2
    mm = mm_function(random.Random(n).sample(range(1 << m), 1 << m), BooleanFunction(m, 0))
    return [cf.modifier_set, VectorSet(n, cf.modifier_set.mask ^ 1 << (1 << n) // 3),
            (cf.base ^ base_function("sigma2", n)).support(), (cf.base ^ mm).support()]


class TestFragmentaryLemma:
    def test_known_fragment_value(self):
        from negabench.spectra import fragmentary_walsh
        f0 = base_function("g0", 1)
        t = build_modifier_set(GammaSpec(1, "S1", (BitVector(2, 0),)))
        assert fragmentary_walsh(f0, t, 8) == 4

    @pytest.mark.parametrize("kind", ["walsh", "nega"])
    def test_literal_sum_disagreement_names_both_values(self, monkeypatch, kind):
        # n = 4, so all 16 points are sampled; W_{f0,T}(8) = 4 above.  Moving
        # the stored W_g(8) by 4 moves N at 8 and at 15 - 8 = 7 by 2 + 2i and
        # 2 - 2i, and 7 is reached first
        spec = GammaSpec(1, "S1", (BitVector(2, 0),))
        name = f"fragmentary_{kind}_spectrum"
        original = getattr(oracle, name)

        def tampered(f, t):
            exact = original(f, t)
            field = "values" if kind == "walsh" else "wg"
            values = getattr(exact, field).copy()
            values[8] = 0 if kind == "walsh" else values[8] + 4
            return dataclasses.replace(exact, **{field: values})

        monkeypatch.setattr(oracle, name, tampered)
        check = _check(verify_fragmentary_lemma(spec), "literal-sum-agreement")
        assert not check.passed
        if kind == "walsh":
            assert check.counterexample == "at 0001: definitional W 4 != masked butterfly W 0"
        else:
            re, im = original(base_function("g0", 1), build_modifier_set(spec)).value(7)
            assert check.counterexample == (f"at 1110: definitional N {re}{im:+d}i "
                                            f"!= masked butterfly N {re + 2}{im - 2:+d}i")

    def test_literal_sum_walsh_named_first_where_both_differ(self, monkeypatch):
        # W moved at 7 and W_g at 8, so N differs at 7 and 8: point 7 differs
        # on both sides and its walsh value is the one reported
        spec = GammaSpec(1, "S1", (BitVector(2, 0),))
        walsh, nega = oracle.fragmentary_walsh_spectrum, oracle.fragmentary_nega_spectrum

        def moved(exact, field, at, by):
            values = getattr(exact, field).copy()
            values[at] += by
            return dataclasses.replace(exact, **{field: values})

        monkeypatch.setattr(oracle, "fragmentary_walsh_spectrum",
                            lambda f, t: moved(walsh(f, t), "values", 7, 2))
        monkeypatch.setattr(oracle, "fragmentary_nega_spectrum",
                            lambda f, t: moved(nega(f, t), "wg", 8, 4))
        check = _check(verify_fragmentary_lemma(spec), "literal-sum-agreement")
        w = walsh(base_function("g0", 1), build_modifier_set(spec)).value(7)
        assert check.counterexample == (f"at 1110: definitional W {w} "
                                        f"!= masked butterfly W {w + 2}")

    def test_literal_sum_strided_sample(self, monkeypatch):
        # n = 8: 64 points with stride 4; W_g moved at 8 moves N at 8 and at
        # 255 - 8 = 247, and only 8 is sampled
        spec = GammaSpec(1, "S2", (BitVector(4, 1),))
        nega = oracle.fragmentary_nega_spectrum

        def tampered(f, t):
            exact = nega(f, t)
            values = exact.wg.copy()
            values[8] += 4
            return dataclasses.replace(exact, wg=values)

        assert _check(verify_fragmentary_lemma(spec), "literal-sum-agreement").details == (
            "64 sampled points")
        monkeypatch.setattr(oracle, "fragmentary_nega_spectrum", tampered)
        check = _check(verify_fragmentary_lemma(spec), "literal-sum-agreement")
        assert check.counterexample.startswith(f"at {BitVector(8, 8)}: definitional N ")

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
        spec = GammaSpec(1, "T", (BitVector(2, 3),))
        with pytest.raises(InvalidSpecError):
            verify_fragmentary_lemma(spec)


class TestTable:
    def test_k1_all_rows(self):
        rep = check_table1(1)
        assert rep.passed, [c.name for c in rep.failures()]
        assert len(rep.checks) == 12

    @pytest.mark.parametrize("k, walsh, nega", [(1, 44, 145), (2, 18, 241)])
    def test_butterflies_per_table(self, monkeypatch, k, walsh, nega):
        # every classification takes the nega butterfly; the Walsh one runs
        # only at bent weight, which no modifier-set indicator has at k = 2.
        # Tables are counted as the butterfly's rows: the sweeps stack theirs,
        # so 189 tables take 29 calls at k = 1 and 259 take 95 at k = 2
        rows, calls = {False: 0, True: 0}, []
        real = spectra._butterfly

        def counted(n, tables, is_nega, mask=None):
            rows[is_nega] += tables.shape[0]
            calls.append(n)
            return real(n, tables, is_nega, mask)

        monkeypatch.setattr(spectra, "_butterfly", counted)
        assert check_table1(k).passed
        assert rows == {False: walsh, True: nega}
        assert len(calls) == {1: 29, 2: 95}[k]

    @pytest.mark.parametrize("k, bound", [(1, 1 << 18), (2, 3 << 19)])
    def test_one_stack_of_spectra_at_a_time(self, k, bound):
        # indicators are built as the sweeps draw them, and a stack's nega
        # spectra are dropped before its Walsh ones are taken: at k = 2 one
        # n = 18 spectrum (1 MiB) is live at a time (1.27 MiB read on a
        # 2-core x86 host), at k = 1 a stack of at most 2^14 points (0.13 MiB)
        check_table1(k)  # warm-up: workspace, cached bases and sigma2 tables
        tracemalloc.start()
        try:
            assert check_table1(k).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB over {bound / 2**20:.2f} MiB"


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

    @pytest.mark.parametrize("pi", [(0, 0) + SU_CASES[0].pi[2:], SU_CASES[0].pi[:-1]],
                             ids=["not-bijective", "short"])
    def test_malformed_pi_is_named_by_every_check_that_reads_it(self, pi):
        rep = check_su_conditions(dataclasses.replace(SU_CASES[0], pi=pi))
        assert {c.name: c.counterexample for c in rep.failures()} == dict.fromkeys(
            ("mm-shape-matches-base", "pi-linear-permutation", "pi-fixes-dual-subspace"),
            "image table is a permutation False != True")


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
    def test_tampered_butterfly_is_named(self, monkeypatch, nega_parts, name):
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
            d = cf.closed_dual.value(point)
            assert (failed["dual-matches-closed-form"].counterexample
                    == f"at {where}: dual {1 - d} != closed dual {d}")
            w = int(exact.values[point])
            want = f"at {where}: butterfly W {-w} != definitional W {w}"
        else:
            first = 255 - point
            where = BitVector(8, first)
            assert set(failed) == {"butterfly-matches-naive"}
            re, im = (int(part[first]) for part in nega_parts(exact))
            assert re != im  # the turn below moves N at this point
            # re = (a + b)/2 and im = (a - b)/2 with b = W_g(201) negated
            want = f"at {where}: butterfly N {im}{re:+d}i != definitional N {re}{im:+d}i"
        assert failed["butterfly-matches-naive"].counterexample == want

    def test_failed_involution_is_named(self):
        cf = construct("G4K", GammaSpec(1, "S1", (BitVector(2, 1),)))
        # the dual of g + 1 is dual(g) + 1, so the involution misses everywhere
        broken = dataclasses.replace(
            cf, closed_dual=cf.closed_dual ^ BooleanFunction(4, (1 << 16) - 1))
        rep = verify_construction(broken)
        inv = next(c for c in rep.checks if c.name == "dual-involution")
        v = cf.function.value(0)
        assert not inv.passed
        assert inv.counterexample == f"at 0000: dual of dual {1 - v} != function {v}"

    def test_failed_dual_flatness_is_named(self):
        # flipping the closed dual at 0 moves every W and N value by 2
        cf = construct("G4K", GammaSpec(1, "S1", (BitVector(2, 1),)))
        bad = cf.closed_dual ^ BooleanFunction(cf.n, 1)
        check = _check(verify_construction(dataclasses.replace(cf, closed_dual=bad)),
                       "dual-bent-negabent")
        w = walsh_transform(bad).value(0)
        re, im = nega_transform(bad).value(0)
        assert not check.passed
        assert check.details == ""
        assert check.counterexample == (f"at 0000: |W| {abs(w)} != flat |W| 4; "
                                        f"at 0000: |N|^2 {re * re + im * im} != flat |N|^2 16")

    def test_first_points_are_read_without_listing_them(self, monkeypatch):
        # a complement differs from the closed forms everywhere, a one-point
        # flip at one point (and, in the ANF, at every monomial covering it)
        cf = construct("G4K", GammaSpec(2, "S1", (BitVector(4, 6), BitVector(4, 9))))
        n, f = cf.n, cf.function
        p = (1 << n) // 3
        flip = AnfPolynomial(n, 1 << p).to_text()
        c0, cp = cf.closed_anf.coeffs & 1, cf.closed_anf.coeffs >> p & 1
        d0 = cf.closed_dual.value(0)
        want = {
            "complement": {
                "anf-matches-closed-form": f"at 1: ANF {1 - c0} != closed ANF {c0}",
                "dual-matches-closed-form": (f"at {BitVector(n, 0)}: dual {1 - d0} "
                                             f"!= closed dual {d0}"),
                "dual-involution": (f"at {BitVector(n, 0)}: dual of dual {f.value(0)} "
                                    f"!= function {1 - f.value(0)}")},
            "one-point": {
                "anf-matches-closed-form": f"at {flip}: ANF {1 - cp} != closed ANF {cp}",
                "dual-involution": (f"at {BitVector(n, p)}: dual of dual {f.value(p)} "
                                    f"!= function {1 - f.value(p)}")},
        }

        def refused(self):
            raise AssertionError("every differing point listed")

        text = AnfPolynomial.to_text

        def one_term(self):
            assert self.term_count() == 1, "every differing monomial listed"
            return text(self)

        monkeypatch.setattr(VectorSet, "indices", refused)
        monkeypatch.setattr(AnfPolynomial, "to_text", one_term)
        for how, bad in _tampered_functions(cf).items():
            report = verify_construction(dataclasses.replace(cf, function=bad))
            got = {c.name: c.counterexample for c in report.failures()
                   if c.name in want["complement"]}
            if how == "one-point":  # not bent, so the dual check names the flat failure
                assert got.pop("dual-matches-closed-form").startswith("not bent: at ")
            assert got == want[how]

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
        assert negabent.counterexample == f"at 1100: |N|^2 {norm} != flat |N|^2 16"

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
