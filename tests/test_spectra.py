import dataclasses
import hashlib
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from negabench import core, oracle, spectra
from negabench.constructions import _dual_base, base_function, construct
from negabench.core import (
    AnfPolynomial,
    BitVector,
    BooleanFunction,
    NotBentError,
    VectorSet,
    truth_table_from_anf,
)
from negabench.spectra import (
    Classification,
    NegaSpectrum,
    classify,
    classify_many,
    definitional_sums,
    dual,
    dual_of_spectrum,
    fragmentary_nega,
    fragmentary_nega_spectrum,
    fragmentary_walsh,
    fragmentary_walsh_spectrum,
    mm_function,
    nega_transform,
    quadratic_duals,
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
        assert wf.parseval_sum() == 1 << 4

    def test_quadratic_bent(self):
        f = truth_table_from_anf(AnfPolynomial.from_monomials(2, [0b11]))
        wf = walsh_transform(f)
        assert list(wf.values) == [2, 2, 2, -2]
        assert wf.flat_counterexample is None
        assert dual(f) == f

    def test_odd_n_never_flat(self):
        f = BooleanFunction(3, 0)
        assert walsh_transform(f).flat_counterexample is not None

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), data=st.data())
    def test_parseval_always(self, n, data):
        bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
        f = BooleanFunction(n, bits)
        assert walsh_transform(f).parseval_sum() == 1 << (2 * n)
        assert nega_transform(f).parseval_sum() == 1 << (2 * n)


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
    return f"at {BitVector(nf.n, bad)}: |N|^2 {re * re + im * im} != flat |N|^2 {1 << nf.n}"


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
            assert nf.flat_counterexample == _reference_flat_counterexample(nf)

    @pytest.mark.parametrize("n", [*range(2, 13), 16])
    def test_one_tampered_value_matches_block_loop(self, n):
        size = 1 << n
        rng = np.random.default_rng(400 + n)
        for f in _negabent_functions(n):
            nf = nega_transform(f)
            assert nf.flat_counterexample is None
            assert _reference_flat_counterexample(nf) is None
            for u in {0, 1, size // 2 - 1, size // 2, size - 1, *rng.integers(size, size=4)}:
                for at in (int(u), size - 1 - int(u)):  # at u, then at u' instead
                    bad = _tampered(nf, at)
                    assert bad.flat_counterexample == _reference_flat_counterexample(bad)
                    assert bad.flat_counterexample == min(at, size - 1 - at)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_two_tampered_values_scan_twice_at_even_n(self, monkeypatch, n):
        # the index-order scan finds the first bad u; a second scan, only then
        # and only down to u, finds the last one's mirror when that comes first
        size = 1 << n
        scans = []

        def counted(stop, flags):
            scans.append(stop)
            return first_flagged(stop, flags)

        first_flagged = spectra._first_flagged
        monkeypatch.setattr(spectra, "_first_flagged", counted)
        nf = nega_transform(next(_negabent_functions(n)))
        assert nf.flat_counterexample is None and scans == [size]
        for lo, hi in ((3, size - 2), (3, size - 9), (size // 2 - 1, size // 2 + 1)):
            wg = nf.wg.copy()
            wg[[lo, hi]] += 2
            scans.clear()
            bad = NegaSpectrum(n, wg)
            assert bad.flat_counterexample == min(lo, size - 1 - hi)
            assert bad.flat_counterexample == _reference_flat_counterexample(bad)
            assert scans == [size, lo]

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
                assert spec.flat_counterexample is None
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
            assert spectra.WalshSpectrum(16, values).flat_counterexample == at

    def test_replaced_values_get_their_own_verdict(self):
        # the verdict is kept with the spectrum, so its array is made
        # read-only, and a copy put in by dataclasses.replace is scanned anew
        f = base_function("g0", 2)
        for spec, field in ((walsh_transform(f), "values"), (nega_transform(f), "wg")):
            assert spec.flat_counterexample is None
            values = getattr(spec, field).copy()
            values[5] += 2
            bad = dataclasses.replace(spec, **{field: values})
            assert bad.flat_counterexample == 5
            assert spec.flat_counterexample is None
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
        real = spectra._butterfly

        def counted(n, tables, nega, mask=None):
            walsh_calls.extend([] if nega else [BooleanFunction(
                n, int.from_bytes(t.tobytes(), "little") & ((1 << (1 << n)) - 1)) for t in tables])
            return real(n, tables, nega, mask)

        monkeypatch.setattr(spectra, "_butterfly", counted)
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

    def test_no_translation_key(self, monkeypatch):
        # classify transforms its one table: it computes no key it could reuse
        def refused(tables):
            raise AssertionError("classify computed a translation key")

        fs = [base_function(name, p) for name in ("g0", "h0", "f0") for p in (1, 2)]
        fs += _random_functions(10, 1, seed=10)
        want = [_unstacked_flags(f) for f in fs]
        monkeypatch.setattr(spectra, "_translation_keys", refused)
        assert [classify(f) for f in fs] == want
        assert want[:6] == [Classification(True, True)] * 6 and want[6] != want[0]

    def test_odd_n_is_never_bent(self):
        # bentness needs even n; the constant function is negabent at every n
        assert classify(BooleanFunction(3, 0)) == Classification(False, True)

    def test_dual_requires_bent(self):
        with pytest.raises(NotBentError):
            dual(BooleanFunction(2, 0))

    def test_dual_involution_on_bent(self):
        f = truth_table_from_anf(AnfPolynomial.from_monomials(4, [0b0011, 0b1100, 0b0001]))
        assert classify(f).is_bent
        assert dual(dual(f)) == f


class TestStackedButterfly:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_rows_equal_one_row_calls(self, n):
        # a stack with an all-0 and an all-1 row; from n = 6 on, rows enough
        # that the 2^17-point entry chunks split it and the last one is short
        size = 1 << n
        count = ((spectra._ENTRY_WORDS << 6) >> n) + 3 if n >= 6 else 40
        fs = [BooleanFunction(n, 0), BooleanFunction(n, (1 << size) - 1),
              *_random_functions(n, count - 2, seed=600 + n)]
        tables = np.array([f.table_bytes for f in fs])
        for nega in (False, True):
            got = spectra._butterfly(n, tables, nega)
            assert got.shape == (count, size) and got.dtype == np.int32
            for f, row in zip(fs, got):
                assert np.array_equal(row, spectra._spectrum(f, nega)), (n, nega)


def _unstacked_flags(f):
    """The flags read off f's own spectra by their flatness scans, with no stack."""
    return Classification(f.n % 2 == 0 and walsh_transform(f).flat_counterexample is None,
                          nega_transform(f).flat_counterexample is None)


class TestClassifyMany:
    def test_every_table_of_at_most_four_variables(self):
        # 2^16 tables at n = 4: 64 stacks of 1,024
        for n in range(1, 5):
            fs = [BooleanFunction(n, bits) for bits in range(1 << (1 << n))]
            got = list(classify_many(fs))
            assert got == [classify(f) for f in fs] == [_unstacked_flags(f) for f in fs], n

    @pytest.mark.parametrize("n", range(5, 15))
    def test_seeded_tables(self, n):
        # two whole stacks and part of a third, with bent rows at even n
        count = 2 * max(1, spectra._BLOCK >> n) + 1
        fs = _random_functions(n, count, seed=700 + n)
        if n % 2 == 0:
            fs[1:1] = _bent_functions(n, seed=700 + n)
        got = list(classify_many(fs))
        assert got == [classify(f) for f in fs] == [_unstacked_flags(f) for f in fs]

    @pytest.mark.parametrize("name, param", [("g0", 1), ("g0", 2), ("h0", 1), ("h0", 2),
                                             ("f0", 1), ("f0", 2)])
    def test_bases_and_one_bit_flips(self, name, param):
        # the even-n base and, at odd n, its half at x_(n-1) = 0, each with
        # one-bit flips at even and odd points
        f = base_function(name, param)
        half = BooleanFunction(f.n - 1, f.bits & ((1 << (1 << f.n >> 1)) - 1))
        assert classify(f) == Classification(True, True)
        for g in (f, half):
            size = 1 << g.n
            fs = [g, *(BooleanFunction(g.n, g.bits ^ 1 << u) for u in (0, 3, size // 2, size - 1))]
            got = list(classify_many(fs))
            assert got == [classify(h) for h in fs] == [_unstacked_flags(h) for h in fs], g.n

    def test_one_nega_call_a_stack_and_one_walsh_call_on_witness_rows(self, monkeypatch):
        # n = 8: 64 tables a stack; sigma2 and the MM function pass the weight witness
        calls = []
        real = spectra._butterfly

        def counted(n, tables, nega, mask=None):
            calls.append((tables.shape[0], nega))
            return real(n, tables, nega, mask)

        monkeypatch.setattr(spectra, "_butterfly", counted)
        fs = _random_functions(8, 150, seed=8)
        fs[70:70] = _bent_functions(8, seed=8)
        got = list(classify_many(fs))
        witness = [abs(256 - 2 * f.weight()) == 16 for f in fs]
        want = []
        for start in range(0, len(fs), 64):
            stack = witness[start:start + 64]
            want += [(len(stack), True)] + ([(sum(stack), False)] if any(stack) else [])
        assert calls == want and len(want) >= 4
        assert got[70:72] == [Classification(True, False)] * 2

    def test_draws_one_stack_at_a_time(self):
        drawn = []

        def tables():
            for f in _random_functions(10, 40, seed=10):
                drawn.append(f)
                yield f

        classes = classify_many(tables())
        next(classes)
        assert len(drawn) == spectra._BLOCK >> 10  # 16 tables a stack at n = 10
        assert len(list(classes)) == 39 and len(drawn) == 40

    def test_mixed_n_is_refused(self):
        # in the first stack and as the first function of a later one: the n = 1
        # table 0b10 and the n = 2 table 0b0010 both key to the byte 0x01, but
        # the first is balanced and the second bent
        for n, other in ((4, 5), (1, 2), (8, 10)):
            f, g = BooleanFunction(n, (1 << (1 << n)) - 2), BooleanFunction(other, 0b0010)
            for count in (1, spectra._BLOCK >> n):
                with pytest.raises(core.DimensionError):
                    list(classify_many([f] * count + [g]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 10])
    def test_translates_and_complements_against_their_own_scans(self, monkeypatch, n):
        # every translate of f and of its complement, the zero and all-ones
        # functions, and at n = 8 a stack of other tables before f's translates
        # come back: each flag is the one read off the function's own spectra,
        # and one function a key, x -> g(x + m) for g's least support point m, is
        # transformed
        size = 1 << n
        f = _random_functions(n, 1, seed=900 + n)[0]
        flip = BooleanFunction(n, f.bits ^ (1 << size) - 1)
        others = _random_functions(n, 70, seed=950 + n) if n == 8 else []
        fs = [BooleanFunction(n, 0), BooleanFunction(n, (1 << size) - 1), f, flip, *others,
              *(_translate(g, a) for a in range(size) for g in (f, flip))]
        if n % 2 == 0:
            fs += [h for b in _bent_functions(n, seed=n) for h in (b, _translate(b, size - 1))]
        want = [_unstacked_flags(g) for g in fs]
        rows = _counted_rows(monkeypatch)
        assert list(classify_many(fs)) == want
        assert rows[True] == len({_key(g) for g in fs}) < len(fs)

    def test_single_table_stacks_at_n18(self, monkeypatch):
        # sigma2, a Maiorana-McFarland function and a random table, each with a
        # translate and its key, which keys as the function: sigma2's and the
        # random table's translates key apart, the MM function's by x_0 does not
        fs = [*_bent_functions(18, seed=18), *_random_functions(18, 1, seed=18)]
        fs = [h for f, a in zip(fs, (0x2A5C3, 1, 0x3FFFF)) for h in (f, _translate(f, a), _key(f))]
        want = [_unstacked_flags(f) for f in fs]
        rows = _counted_rows(monkeypatch)
        assert list(classify_many(fs)) == want
        keys = {_key(f): f for f in fs}  # the bent weight: |2^18 - 2 wt| = 2^9
        bent_weight = sum(abs((1 << 18) - 2 * f.weight()) == 1 << 9 for f in keys.values())
        assert rows == {False: bent_weight, True: len(keys)} == {False: 3, True: 5}

    def test_held_keys_are_capped(self):
        # 200 distinct n = 18 tables, one 32 KiB key each: the call drops its keys
        # once they pass 1 MiB, where holding all would take 6.25 MiB
        fs = _random_functions(18, 203, seed=1800)
        for f in fs:
            f.table_bytes  # built and kept with each function before the trace
        list(classify_many(fs[:3]))  # the butterfly workspace, made on first use
        tracemalloc.start()
        try:
            list(classify_many(fs[3:]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 << 19, f"peak {peak / 2**20:.2f} MiB"  # 2.5 MiB

    def test_equal_weight_non_translates_both_transformed(self, monkeypatch):
        # 1_{0,1} and 1_{0,3} share a weight but no translate: the key tells
        # them apart, so both reach the butterfly, and 1_{2,3} takes 1_{0,1}'s
        fs = [BooleanFunction(4, 0b11), BooleanFunction(4, 0b1001), BooleanFunction(4, 0b1100)]
        want = [_unstacked_flags(f) for f in fs]
        rows = _counted_rows(monkeypatch)
        assert list(classify_many(fs)) == want
        assert rows == {False: 0, True: 2}


@pytest.mark.parametrize("n", range(1, 11))
def test_translation_permutes_both_spectra(n):
    # the identities the classes rest on, by the defining sums of f(x + a) built
    # from its values: W_{f_a}(u) = (-1)^(u.a) W_f(u) and N_{f_a}(u) =
    # (-1)^(u.a) i^wt(a) N_f(u + a), in exact integers at every u
    rng = np.random.default_rng(1000 + n)
    size = 1 << n
    us = np.arange(size)
    for f in _random_functions(n, 3, seed=1000 + n):
        a = int(rng.integers(size))
        w, re, im = definitional_sums(f, us)
        wa, re_a, im_a = definitional_sums(_translate(f, a), us)
        sign = 1 - 2 * (np.bitwise_count(us & a) & 1).astype(np.int64)
        assert np.array_equal(wa, sign * w)
        re, im = re[us ^ a], im[us ^ a]
        for _ in range(a.bit_count() % 4):  # times i: (re, im) -> (-im, re)
            re, im = -im, re
        assert np.array_equal(re_a, sign * re) and np.array_equal(im_a, sign * im)


def _translate(f, a):
    """x -> f(x + a), built from f's values."""
    return BooleanFunction.from_values(f.n, f.value_array()[np.arange(1 << f.n) ^ a])


def _key(f):
    """f translated by its least support point (by 0 if none), as classify_many keys it."""
    return _translate(f, (f.bits & -f.bits).bit_length() - 1 if f.bits else 0)


def _counted_rows(monkeypatch):
    """Rows of each kind (nega True, Walsh False) through spectra._butterfly from now on."""
    rows = {False: 0, True: 0}
    real = spectra._butterfly

    def counted(n, tables, nega, mask=None):
        rows[nega] += tables.shape[0]
        return real(n, tables, nega, mask)

    monkeypatch.setattr(spectra, "_butterfly", counted)
    return rows


def _bent_functions(n, seed):
    """sigma2 and a random Maiorana-McFarland function x . pi(y) + phi(y) on n variables."""
    rng = np.random.default_rng(seed)
    m = n // 2
    phi = BooleanFunction.from_values(m, rng.integers(0, 2, 1 << m))
    return base_function("sigma2", n), mm_function(rng.permutation(1 << m).tolist(), phi)


class TestDualOfSpectrum:
    """The dual of a flat spectrum is its sign bits, packed a block at a time."""

    @pytest.mark.parametrize("block", [spectra._BLOCK, 16])
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 20])
    def test_sign_bits_are_the_dual(self, monkeypatch, n, block):
        monkeypatch.setattr(spectra, "_BLOCK", block)
        for f in _bent_functions(n, seed=n):
            w = walsh_transform(f)
            want = BooleanFunction.from_values(n, w.values == -(1 << n // 2))
            assert dual_of_spectrum(w) == want
            assert dual_of_spectrum(walsh_transform(want)) == f

    def test_no_full_size_temporary_at_n20(self):
        # a whole-array compare and its uint8 copies would take 3 MiB; the
        # blocks, their packed bytes and the dual's int take under 1 MiB
        w = walsh_transform(_bent_functions(20, seed=20)[1])
        tracemalloc.start()
        try:
            dual_of_spectrum(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"


class TestFragmentary:
    def test_definitional_sums_stay_per_chunk_at_n24(self):
        # literal-sum-agreement at capacity: an S1 set, 64 evenly spaced
        # points.  The table, the set's words and a chunk's class words and
        # signs take 6.23 MiB at the peak, the signs built in place in one
        # buffer; a chain of full-size sign temporaries reads 7.22 MiB, and a
        # whole class-mask table (8 MiB) more still
        spec = GammaSpec(6, "S1", (BitVector.from_string("000111000111"),
                                   BitVector.from_string("101010101010")))
        f, t = base_function("g0", 6), build_modifier_set(spec)
        tracemalloc.start()
        try:
            spectra.definitional_sums(f, range(0, 1 << 24, 1 << 18), t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 27 << 18, f"peak {peak / 2**20:.2f} MiB"  # 6.75 MiB

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


def _rule_values(dual, n, us=None):
    """+-2^(n/2) from a bent dual, at the points us (every point if None)."""
    bits = dual.value_array() if us is None else dual.value_array()[us]
    return (1 - 2 * bits.astype(np.int64)) << n // 2


# every base of every family up to n = 24: g0 and f0 have 4t variables, h0 4t + 2
_RULE_BASES = ([("g0", t) for t in range(1, 7)] + [("h0", t) for t in range(1, 6)]
               + [("f0", k) for k in range(1, 7)])


class TestQuadraticRule:
    """The GF(2) rule's spectra against routes that share none of its code:
    the closed-form duals, the butterfly and the definitional sums."""

    @pytest.mark.parametrize("name, param", _RULE_BASES)
    def test_bent_dual_is_the_closed_form_dual(self, name, param):
        dual_f, _ = quadratic_duals(base_function(name, param))
        assert dual_f == _dual_base(name, param)

    @pytest.mark.parametrize("name, param", [(name, p) for name, p in _RULE_BASES
                                             if 4 * p + 2 * (name == "h0") <= 16])
    def test_equals_the_butterfly_up_to_n16(self, name, param):
        f = base_function(name, param)
        dual_f, dual_g = quadratic_duals(f)
        assert np.array_equal(_rule_values(dual_f, f.n), walsh_transform(f).values)
        assert np.array_equal(_rule_values(dual_g, f.n), nega_transform(f).wg)

    @pytest.mark.parametrize("name, param", [("g0", 5), ("f0", 5), ("g0", 6), ("f0", 6)])
    def test_equals_the_definitional_sums_at_n20_and_n24(self, name, param):
        f = base_function(name, param)
        us = np.random.default_rng(f.n).integers(1 << f.n, size=16)
        dual_f, dual_g = quadratic_duals(f)
        w, re, im = spectra.definitional_sums(f, us)
        # W_g(u) = re N(u) + im N(u) by the sigma2 identity
        assert np.array_equal(_rule_values(dual_f, f.n, us), w)
        assert np.array_equal(_rule_values(dual_g, f.n, us), re + im)

    @pytest.mark.parametrize("name, param", _RULE_BASES)
    def test_reaches_no_definitional_or_butterfly_code(self, monkeypatch, name, param):
        # the duals' signs come from their own weights: on its success path
        # the rule shares no code with the routes that pin it
        f = base_function(name, param)
        want = quadratic_duals(f)

        def refuse(*args, **kwargs):
            raise AssertionError("the rule reached a spectrum route's code")

        class Refused:
            __getitem__ = __array__ = __getattr__ = refuse

        for table in ("definitional_sums", "_spectrum", "_levels", "_sigma2_bytes"):
            monkeypatch.setattr(spectra, table, refuse)
        for table in ("_ROW6", "_CLASS_WORDS", "_ENTRY_ROWS"):
            monkeypatch.setattr(spectra, table, Refused())
        assert quadratic_duals(f) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
    def test_random_quadratics_match_the_butterfly(self, n):
        # linear terms, a constant and non-bent forms, which no base has
        rng = np.random.default_rng(70 + n)
        pairs = [1 << i | 1 << j for i in range(n) for j in range(i + 1, n)]
        seen = set()
        for _ in range(60):
            masks = [m for m in pairs + [1 << i for i in range(n)] + [0] if rng.random() < 0.5]
            f = truth_table_from_anf(AnfPolynomial.from_monomials(n, masks))
            wf, nf = walsh_transform(f), nega_transform(f)
            failure = (f"not bent: {wf.flat_failure()}" if wf.flat_failure() else
                       f"not negabent: {nf.flat_failure()}" if nf.flat_failure() else None)
            seen.add(failure.split(":")[0] if failure else "bent-negabent")
            if failure:
                with pytest.raises(NotBentError, match=f"^{re.escape(failure)}$"):
                    quadratic_duals(f)
                continue
            dual_f, dual_g = quadratic_duals(f)
            assert np.array_equal(_rule_values(dual_f, n), wf.values)
            assert np.array_equal(_rule_values(dual_g, n), nf.wg)
        # odd n is never bent, and at n = 2 f + sigma2 is affine when f is bent
        assert seen == ({"not bent"} if n % 2 else {"not bent", "not negabent"}
                        | ({"bent-negabent"} if n > 2 else set()))

    @pytest.mark.parametrize("f, want", [
        (BooleanFunction(4, 0), lambda f: f"not bent: {walsh_transform(f).flat_failure()}"),
        (base_function("sigma2", 4),
         lambda f: f"not negabent: {nega_transform(f).flat_failure()}"),
        (base_function("g0", 2) ^ BooleanFunction(8, 1 << 85),
         lambda f: "not quadratic: at x0*x1*x2*x3*x4*x5*x6*x7: degree 8 != quadratic <=2"),
    ])
    def test_failures_name_the_butterflys_first_counterexample(self, f, want):
        # a quadratic that is not bent is non-flat everywhere, so u = 0 is the
        # butterfly's first counterexample too
        with pytest.raises(NotBentError) as exc:
            quadratic_duals(f)
        assert str(exc.value) == want(f)


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
