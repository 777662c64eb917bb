import dataclasses
import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from negabench import core, oracle, spectra
from negabench.constructions import base_function, construct
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
    NegaSpectrum,
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
from negabench.oracle import verify_construction, verify_fragmentary_lemma
from negabench.subspaces import GammaSpec, build_modifier_set


def _random_functions(n, count, seed):
    rng = np.random.default_rng(seed)
    nbytes = max(1, (1 << n) // 8)
    return [BooleanFunction(n, int.from_bytes(rng.bytes(nbytes), "little") & ((1 << (1 << n)) - 1))
            for _ in range(count)]


class TestWalsh:
    def test_zero_function(self):
        wf = walsh_transform(BooleanFunction(2, 0))
        assert list(wf.values) == [4, 0, 0, 0]
        assert wf.parseval_holds()

    def test_quadratic_bent(self):
        f = truth_table_from_anf(AnfPolynomial.from_monomials(2, [0b11]))
        wf = walsh_transform(f)
        assert list(wf.values) == [2, 2, 2, -2]
        assert wf.flat_counterexample() is None
        assert dual(f) == f

    def test_odd_n_never_flat(self):
        f = BooleanFunction(3, 0)
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
        nf = nega_transform(BooleanFunction(1, 0))
        assert nf.value(0) == (1, 1)
        assert nf.value(1) == (1, -1)
        nf2 = nega_transform(BooleanFunction(2, 0))
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


class TestByteTables:
    def test_entry_rows_pack_dot_products(self):
        # bit x of row u is u.x = parity(u & x), for all u, x < 64
        rows = spectra._ENTRY_ROWS
        assert rows.dtype == np.uint64 and rows.shape == (64,)
        for u in range(64):
            assert int(rows[u]) == sum(((u & x).bit_count() & 1) << x for x in range(64))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sigma2_bytes_pack_sigma2(self, n):
        # sigma2(x) = C(wt(x), 2) mod 2; for n < 3 only the low 2^n bits count
        want = [(x.bit_count() * (x.bit_count() - 1) // 2) & 1 for x in range(1 << n)]
        table = spectra._sigma2_bytes(n)
        got = np.unpackbits(table, count=1 << n, bitorder="little").tolist()
        assert got == want
        assert table.shape == (max(1, (1 << n) // 8),) and not table.flags.writeable



@pytest.mark.parametrize("block", [slice(None), slice(3, 100, 7), slice(0, 128, 32),
                                   slice(None, None, -5), slice(120, 8, -9)])
def test_nega_parts_at_any_slice(block):
    # the mirror point u' = 2^n - 1 - u is read through the same slice
    for f in _random_functions(7, 3, seed=17):
        _, re, im = oracle.naive_transforms(f)
        got = nega_transform(f).parts(block)
        assert [a.tolist() for a in got] == [re[block].tolist(), im[block].tolist()]


def _reference_flat_counterexample(nf):
    """The block loop the int32 route replaced: |N(u)|^2 from int64 re and im."""
    for start in range(0, nf.wg.shape[0], 1 << 18):
        re, im = nf.parts(slice(start, start + (1 << 18)))
        bad = np.flatnonzero(re * re + im * im != 1 << nf.n)
        if bad.size:
            return start + int(bad[0])
    return None


def _reference_detail(nf):
    """The failing `negabent` check's text at the reference counterexample."""
    bad = _reference_flat_counterexample(nf)
    re, im = nf.value(bad)
    return f"|N({BitVector(nf.n, bad)})|^2 = {re * re + im * im}"


def _negabent_functions(n):
    """Flat nega spectra: the bent-negabent bases at their n, and affine
    functions, which are negabent at every n."""
    bases = {4: ("g0", 1), 6: ("h0", 1), 8: ("g0", 2), 10: ("h0", 2), 12: ("g0", 3)}
    if n in bases:
        yield base_function(*bases[n])
    xs = np.arange(1 << n)
    for a in (0, (1 << n) - 1, 0b101 & ((1 << n) - 1)):
        yield BooleanFunction.from_values(n, np.bitwise_count(xs & a) & 1)


def _tampered(nf, u):
    wg = nf.wg.copy()
    wg[u] += 2  # W_g stays even, so re and im still halve exactly
    wg.setflags(write=False)
    return NegaSpectrum(nf.n, wg)


class TestNegaFlatness:
    @pytest.mark.parametrize("n", [*range(2, 13), 16])
    def test_random_functions_match_block_loop(self, n):
        for f in _random_functions(n, 8, seed=300 + n):
            nf = nega_transform(f)
            assert nf.flat_counterexample() == _reference_flat_counterexample(nf)

    @pytest.mark.parametrize("n", [*range(2, 13), 16])
    def test_one_tampered_value_matches_block_loop(self, n):
        size = 1 << n
        rng = np.random.default_rng(400 + n)
        for f in _negabent_functions(n):
            nf = nega_transform(f)
            assert nf.flat_counterexample() is None
            assert _reference_flat_counterexample(nf) is None
            for u in {0, 1, size // 2 - 1, size // 2, size - 1, *rng.integers(size, size=4)}:
                for at in (int(u), size - 1 - int(u)):  # at u, then at u' instead
                    bad = _tampered(nf, at)
                    assert bad.flat_counterexample() == _reference_flat_counterexample(bad)
                    assert bad.flat_counterexample() == min(at, size - 1 - at)

    @pytest.mark.parametrize("family, k", [("G4K", 1), ("H4K2", 1), ("G4K", 2),
                                           ("H4K2", 2), ("G4K", 3)])
    def test_failing_negabent_check_text(self, monkeypatch, family, k):
        e_sets = ("1",) if family == "H4K2" else None
        tag = "S3" if e_sets else "S1"
        cf = construct(family, GammaSpec(k, tag, (BitVector(2 * k, 1),), e_sets))
        size = 1 << cf.n
        real = oracle.nega_transform
        for at in (3, size - 1 - 3, size // 2):
            bad = _tampered(real(cf.function), at)
            monkeypatch.setattr(oracle, "nega_transform",
                                lambda f: bad if f is cf.function else real(f))
            check = next(c for c in verify_construction(cf).checks if c.name == "negabent")
            assert not check.passed
            assert check.counterexample == _reference_detail(bad)


# SHA-256 of the int32 little-endian outputs in test_outputs_are_pinned,
# recorded from the butterfly before it kept its buffers per thread
KERNEL_DIGEST = "5343775e67b220e91e272b31a9caa31998ec84a08293a3ef79a07dbd875000c8"


class TestButterflyKernel:
    def test_outputs_are_pinned(self):
        # Walsh and nega, unmasked and masked, of a seeded random table and of
        # the all-0 and all-1 tables: one word, one chunk, and many chunks
        digest = hashlib.sha256()
        for n in (*range(1, 21), 22):
            size = 1 << n
            rng = np.random.default_rng(n)

            def draw():
                return int.from_bytes(rng.bytes(max(1, size >> 3)), "little") & ((1 << size) - 1)

            t = VectorSet(n, draw())
            for bits in (draw(), 0, (1 << size) - 1):
                f = BooleanFunction(n, bits)
                for nega in (False, True):
                    for mask in (None, t):
                        digest.update(spectra._spectrum(f, nega, mask).astype("<i4").tobytes())
        assert digest.hexdigest() == KERNEL_DIGEST

    @pytest.mark.parametrize("n", [*range(1, 21), 22])
    def test_unmasked_entry_equals_the_full_mask(self, n):
        # with T absent the entry stage skips the mask AND and takes
        # popcount(m) = 64, so it must equal the masked path with T everywhere
        size = 1 << n
        everywhere = VectorSet(n, (1 << size) - 1)
        rng = np.random.default_rng(2400 + n)
        seeded = int.from_bytes(rng.bytes(max(1, size >> 3)), "little") & ((1 << size) - 1)
        for bits in (seeded, 0, (1 << size) - 1):
            f = BooleanFunction(n, bits)
            for nega in (False, True):
                assert np.array_equal(spectra._spectrum(f, nega),
                                      spectra._spectrum(f, nega, everywhere)), (n, bits == 0, nega)

    def test_workspace_is_one_and_an_eighth_mib(self):
        # 1 MiB of entry signs and 128 KiB of counts; the int16 ping-pong pair,
        # a pass's sums and the int32 scratch are views of the signs, so the
        # constant-geometry passes add no buffer
        ws = spectra._workspace()
        assert sum(a.nbytes for a in vars(ws).values()) == (1 << 20) + (1 << 17)

    def test_threads_keep_their_own_buffers(self):
        # more threads than cores, switching often: a transform equals its
        # serial result only if no other thread writes into its buffers
        fs = _random_functions(18, 4, seed=500)
        t = VectorSet(18, _random_functions(18, 1, seed=501)[0].bits)
        want = [(spectra._spectrum(f, True), spectra._spectrum(f, False, t)) for f in fs]
        wrong = []

        def run(i):
            for _ in range(4):
                got = (spectra._spectrum(fs[i], True), spectra._spectrum(fs[i], False, t))
                if not all(np.array_equal(g, w) for g, w in zip(got, want[i])):
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(fs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_only_the_output_is_allocated(self):
        # h0 at n = 18 is bent and negabent, so each flatness scan reads every block
        f = base_function("h0", 4)
        flat = (walsh_transform(f), nega_transform(f))  # warm-up: workspace, tables
        tracemalloc.start()
        try:
            nega_transform(f)
            transform_peak = tracemalloc.get_traced_memory()[1]
            scan_peaks = []
            for spec in flat:
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                assert spec.flat_counterexample() is None
                scan_peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        # nega reads 98 KiB above its 1 MiB output, most of it the entry
        # XOR's one 64 KiB iterator buffer
        assert transform_peak <= (1 << 20) + (192 << 10), transform_peak
        assert max(scan_peaks) <= 256 << 10, scan_peaks

    def test_bent_scan_names_a_point_in_a_late_block(self):
        wf = walsh_transform(base_function("g0", 4))  # n = 16: four blocks
        for at in (3 * (1 << 14) + 5, (1 << 16) - 1):
            values = wf.values.copy()
            values[at] += 2
            assert spectra.WalshSpectrum(16, values).flat_counterexample() == at

    def test_replaced_values_get_their_own_verdict(self):
        # the verdict is kept with the spectrum, so its array is made
        # read-only, and a copy put in by dataclasses.replace is scanned anew
        f = base_function("g0", 2)
        for spec, field in ((walsh_transform(f), "values"), (nega_transform(f), "wg")):
            assert spec.flat_counterexample() is None
            values = getattr(spec, field).copy()
            values[5] += 2
            bad = dataclasses.replace(spec, **{field: values})
            assert bad.flat_counterexample() == 5
            assert spec.flat_counterexample() is None
            with pytest.raises(ValueError):
                values[5] -= 2


def _witness_functions():
    """All 16 functions at n = 2; at n = 4..10 sigma2, g0, h0, f0, seeded
    functions of bent weight (most not bent) and seeded ones of any weight."""
    yield from (BooleanFunction(2, bits) for bits in range(16))
    for name, params in (("sigma2", (4, 6, 8, 10)), ("g0", (1, 2)), ("h0", (1, 2)),
                         ("f0", (1, 2))):
        yield from (base_function(name, p) for p in params)
    rng = np.random.default_rng(2026)
    for n in (4, 6, 8, 10):
        size = 1 << n
        for weight in (size // 2 - (1 << (n // 2 - 1)), size // 2 + (1 << (n // 2 - 1))):
            for _ in range(3):
                values = np.zeros(size, dtype=np.uint8)
                values[rng.choice(size, weight, replace=False)] = 1
                yield BooleanFunction.from_values(n, values)
        yield from _random_functions(n, 3, seed=n)


class TestClassify:
    def test_bent_negabent_flags(self):
        f = truth_table_from_anf(AnfPolynomial.from_monomials(2, [0b11]))
        cls = classify(f)
        assert cls.is_bent and not cls.is_negabent

    def test_weight_witness_agrees_with_definitional_flags(self, monkeypatch):
        # W_f(0) = 2^n - 2 wt(f), so only a function of weight 2^(n-1) +-
        # 2^(n/2-1) can be bent: the Walsh butterfly runs for those alone
        walsh_calls = []

        def counted(f):
            walsh_calls.append(f)
            return walsh_transform(f)

        monkeypatch.setattr(spectra, "walsh_transform", counted)
        kinds = {"bent": 0, "bent weight, not bent": 0, "other weight": 0, "negabent": 0}
        for f in _witness_functions():
            w, re, im = oracle.naive_transforms(f)
            want = (bool(np.all(np.abs(w) == 1 << (f.n // 2))),
                    bool(np.all(re * re + im * im == 1 << f.n)))
            cls = classify(f)
            assert (cls.is_bent, cls.is_negabent) == want, f.to_hex()
            bent_weight = abs((1 << f.n) - 2 * f.weight()) == 1 << (f.n // 2)
            assert walsh_calls == ([f] if bent_weight else [])
            walsh_calls.clear()
            kinds["bent" if want[0] else
                  "bent weight, not bent" if bent_weight else "other weight"] += 1
            kinds["negabent"] += want[1]
        # each route decides some verdicts
        assert min(kinds.values()) >= 4, kinds

    def test_odd_n_note(self):
        cls = classify(BooleanFunction(3, 0))
        assert not cls.is_bent
        assert "odd" in cls.note

    def test_dual_requires_bent(self):
        with pytest.raises(NotBentError):
            dual(BooleanFunction(2, 0))

    def test_dual_involution_on_bent(self):
        f = truth_table_from_anf(AnfPolynomial.from_monomials(4, [0b0011, 0b1100, 0b0001]))
        assert classify(f).is_bent
        assert dual(dual(f)) == f


class TestFragmentary:
    def test_fragment_plus_complement_is_full(self):
        f = truth_table_from_anf(AnfPolynomial.from_monomials(4, [0b0011, 0b1100]))
        t = VectorSet.from_indices(4, [0, 1, 5, 9, 12])
        tc = VectorSet(4, t.mask ^ 0xFFFF)
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

    def test_literal_sums_never_unpack_the_set(self, monkeypatch):
        # literal-sum-agreement takes its definitional sums over the set's
        # packed mask; the set is never unpacked into a member array
        spec = GammaSpec(2, "S1", (BitVector.from_string("0110"),
                                   BitVector.from_string("1011")))
        mask = build_modifier_set(spec).mask
        unpack = core._set_bits

        def refused(bits, size):
            assert bits != mask, "the modifier set was unpacked"
            return unpack(bits, size)

        monkeypatch.setattr(core, "_set_bits", refused)
        report = verify_fragmentary_lemma(spec)
        assert report.passed, report.failures()
        assert "literal-sum-agreement" in [c.name for c in report.checks]

    def test_empty_fragment_is_zero(self):
        f = BooleanFunction(3, 0)
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
        phi = BooleanFunction(2, 0)
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
            mm_function((0, 0, 1, 3), BooleanFunction(2, 0))
