"""Acceptance gate.

Twenty-five criteria, each asserted exactly (integer and structural equality, no
tolerances) inside a wall-clock budget, and each reported as a single
pass/fail line (visible with -s; pytest -v shows the same verdict per test).
"""

import hashlib
import random
import time
import tracemalloc
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from negabench.core import (
    AnfPolynomial,
    BitVector,
    BooleanFunction,
    anf_from_truth_table,
    popcounts,
    rotation_symmetry_order,
    truth_table_from_anf,
)
from negabench.spectra import classify, definitional_sums, nega_transform, walsh_transform
from negabench.subspaces import (
    GammaSpec,
    build_modifier_set,
    orbit_representatives,
)
from negabench.constructions import (
    RotationSpec,
    construct,
    decompose_orbit_sum,
    params_to_dict,
)
from negabench.oracle import (
    SU_CASES,
    check_reference_case,
    check_su_conditions,
    check_table1,
    naive_transforms,
    verify_construction,
    verify_fragmentary_lemma,
)
from negabench.cli import main
from negabench.reference import REFERENCE_CASES


def _reps(n):
    """The orbit representatives of F_2^n as BitVectors."""
    return [BitVector(n, int(r)) for r in orbit_representatives(n)[0]]


@contextmanager
def criterion(name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        print(f"\n[{name}] FAIL ({dt:.2f}s, budget {budget_s:g}s)")
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt <= budget_s else "FAIL"
    print(f"\n[{name}] {verdict} ({dt:.2f}s, budget {budget_s:g}s)")
    assert dt <= budget_s, f"{name}: {dt:.2f}s over the {budget_s:g}s budget"


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


# ---------------------------------------------------------------------------
# shared soundness sweep (criteria 4, 5 and 6 read the same reports)

_SWEEP: list = []

_E_SYMBOLS = ("0", "1", "B")


def _sweep_reports():
    if _SWEEP:
        return _SWEEP
    specs = []

    g2 = [BitVector(2, b) for b in range(4)]
    for size in range(1, 5):
        for combo in combinations(g2, size):
            specs.append(("G4K", GammaSpec(1, "S1", combo)))

    rng = np.random.default_rng(424242)
    chosen: set = set()
    while len(chosen) < 20:
        size = int(rng.integers(1, 17))
        combo = tuple(sorted(int(v) for v in rng.choice(16, size=size, replace=False)))
        chosen.add(combo)
    for combo in sorted(chosen):
        specs.append(("G4K", GammaSpec(2, "S1", tuple(BitVector(4, b) for b in combo))))

    reps = [BitVector(4, x) for x in range(16) if not x & 0b1010]  # least of each A_2^2 coset
    for size in range(1, 5):
        for combo in combinations(reps, size):
            specs.append(("G8K", GammaSpec(1, "S2", combo)))

    for b in range(4):
        for e in _E_SYMBOLS:
            specs.append(("H4K2", GammaSpec(1, "S3", (BitVector(2, b),), (e,))))
    for _ in range(10):
        size = int(rng.integers(2, 5))
        gbits = rng.choice(4, size=size, replace=False)
        es = tuple(_E_SYMBOLS[int(i)] for i in rng.integers(0, 3, size=size))
        specs.append(("H4K2", GammaSpec(
            1, "S3", tuple(BitVector(2, int(b)) for b in gbits), es)))

    for r in reps:
        for e in _E_SYMBOLS:
            specs.append(("H8K2", GammaSpec(1, "S4", (r,), (e,))))
    for _ in range(10):
        size = int(rng.integers(2, 5))
        picks = rng.choice(4, size=size, replace=False)
        es = tuple(_E_SYMBOLS[int(i)] for i in rng.integers(0, 3, size=size))
        specs.append(("H8K2", GammaSpec(
            1, "S4", tuple(reps[int(i)] for i in picks), es)))

    for k in (1, 2):
        rr = _reps(2 * k)
        for size in range(1, len(rr) + 1):
            for combo in combinations(rr, size):
                specs.append(("F2RS", RotationSpec(k, combo)))

    for bits in (3, 5, 7, 15):
        specs.append(("F2RS_ORBIT", RotationSpec(2, (BitVector(4, bits),))))
    specs.append(("F2RS_SET", RotationSpec(2, (BitVector(4, 1), BitVector(4, 7)))))
    specs.append(("F2RS_SET", RotationSpec(
        2, (BitVector(4, 3), BitVector(4, 5), BitVector(4, 15)))))

    for family, spec in specs:
        cf = construct(family, spec)
        _SWEEP.append((family, spec, cf, verify_construction(cf)))
    return _SWEEP


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_first_example_replay():
    with criterion("criterion-01 first worked example", 1.0):
        case = REFERENCE_CASES[0]
        assert case.family == "G4K" and len(case.expected_terms) == 56
        report = check_reference_case(case)
        assert report.passed, report.failures()
        assert _check(report, "bent-negabent").passed
        assert _check(report, "degree").details == "degree 4"


def test_criterion_02_second_example_replay():
    with criterion("criterion-02 second worked example", 1.0):
        case = REFERENCE_CASES[1]
        assert case.family == "H4K2" and len(case.expected_terms) == 92
        report = check_reference_case(case)
        assert report.passed, report.failures()
        assert _check(report, "degree").details == "degree 5"


def test_criterion_03_third_example_replay():
    with criterion("criterion-03 third worked example", 1.0):
        case = REFERENCE_CASES[2]
        assert case.family == "F2RS_ORBIT"
        assert case.delta_over_base and len(case.expected_terms) == 16
        report = check_reference_case(case)
        assert report.passed, report.failures()
        assert _check(report, "rotation-order").details == "rotation order 2"


def test_criterion_04_soundness_sweep():
    with criterion("criterion-04 soundness sweep", 60.0):
        sweep = _sweep_reports()
        counts = {}
        for family, spec, cf, report in sweep:
            counts[family] = counts.get(family, 0) + 1
            assert _check(report, "bent").passed, (family, spec)
            assert _check(report, "negabent").passed, (family, spec)
            assert report.passed, (family, spec, report.failures())
        assert counts["G4K"] == 35          # 15 exhaustive k=1 + 20 random k=2
        assert counts["G8K"] == 15
        assert counts["H4K2"] == 22
        assert counts["H8K2"] == 22
        assert counts["F2RS"] == 70         # 7 at k=1, 63 at k=2


def test_criterion_05_closed_forms_everywhere():
    with criterion("criterion-05 closed forms on every swept spec", 60.0):
        for family, spec, cf, report in _sweep_reports():
            assert _check(report, "anf-matches-closed-form").passed, (family, spec)
            assert _check(report, "dual-matches-closed-form").passed, (family, spec)
            assert _check(report, "dual-involution").passed, (family, spec)


def test_criterion_06_degree_parity():
    with criterion("criterion-06 degree parity", 60.0):
        for family, spec, cf, report in _sweep_reports():
            assert _check(report, "degree-parity").passed, (family, spec)

        # a false flag forces the degree strictly below the family maximum
        # wherever that maximum exceeds the quadratic floor
        below = [
            ("G4K", GammaSpec(2, "S1", (BitVector(4, 1), BitVector(4, 6))), 4),
            ("G8K", GammaSpec(1, "S2", (BitVector(4, 0), BitVector(4, 1))), 4),
            ("H4K2", GammaSpec(1, "S3", (BitVector(2, 1),), ("B",)), 3),
            ("H8K2", GammaSpec(1, "S4", (BitVector(4, 1),), ("B",)), 5),
            ("F2RS", RotationSpec(2, (BitVector(4, 1),)), 4),
        ]
        for family, spec, dmax in below:
            cf = construct(family, spec)
            assert not cf.predicts_max_degree, (family, spec)
            assert cf.closed_anf.degree() < dmax, (family, spec)

        # single-orbit degrees equal the orbit weight exactly
        for bits, w in ((3, 2), (7, 3), (15, 4)):
            cf = construct("F2RS_ORBIT", RotationSpec(2, (BitVector(4, bits),)))
            assert cf.closed_anf.degree() == w
            assert cf.predicts_max_degree == (w == 4)


def test_criterion_07_fragment_lemma_suite():
    with criterion("criterion-07 fragment lemma suite", 30.0):
        reps = [BitVector(4, x) for x in range(16) if not x & 0b1010]  # least of each A_2^2 coset
        specs = []
        for b in range(4):
            specs.append(GammaSpec(1, "S1", (BitVector(2, b),)))
        for r in reps:
            specs.append(GammaSpec(1, "S2", (r,)))
        for b in range(4):
            for e in _E_SYMBOLS:
                specs.append(GammaSpec(1, "S3", (BitVector(2, b),), (e,)))
        for r in reps:
            for e in _E_SYMBOLS:
                specs.append(GammaSpec(1, "S4", (r,), (e,)))
        assert len(specs) == 32

        rng = np.random.default_rng(77)
        multi = []
        for _ in range(3):
            size = int(rng.integers(2, 5))
            gbits = rng.choice(4, size=size, replace=False)
            multi.append(GammaSpec(1, "S1", tuple(BitVector(2, int(b)) for b in gbits)))
        for size in (2, 4):
            picks = rng.choice(4, size=size, replace=False)
            multi.append(GammaSpec(1, "S2", tuple(reps[int(i)] for i in picks)))
        for _ in range(3):
            size = int(rng.integers(2, 5))
            gbits = rng.choice(4, size=size, replace=False)
            es = tuple(_E_SYMBOLS[int(i)] for i in rng.integers(0, 3, size=size))
            multi.append(GammaSpec(1, "S3", tuple(BitVector(2, int(b)) for b in gbits), es))
        for _ in range(3):
            size = int(rng.integers(2, 5))
            picks = rng.choice(4, size=size, replace=False)
            es = tuple(_E_SYMBOLS[int(i)] for i in rng.integers(0, 3, size=size))
            multi.append(GammaSpec(1, "S4", tuple(reps[int(i)] for i in picks), es))
        assert len(multi) >= 10

        # k=2 (n = 8, 16, 10, 18): one single- and two multi-gamma specs per set
        pair_reps = [BitVector(8, x) for x in range(256) if not x & 0b10101010]
        pools = {"S1": [BitVector(4, b) for b in range(16)],
                 "S2": pair_reps,
                 "S3": [BitVector(4, b) for b in range(16)],
                 "S4": pair_reps}
        rng = np.random.default_rng(78)
        at_k2 = []
        for family, pool in pools.items():
            for size in (1, 2, 4):
                picks = rng.choice(len(pool), size=size, replace=False)
                es = None
                if family in ("S3", "S4"):
                    es = tuple(_E_SYMBOLS[int(i)] for i in rng.integers(0, 3, size=size))
                at_k2.append(GammaSpec(2, family, tuple(pool[int(i)] for i in picks), es))
        assert len(at_k2) == 12

        for spec in specs + multi + at_k2:
            report = verify_fragmentary_lemma(spec)
            assert report.passed, (spec.family, report.failures())
            if spec.family == "S4":
                # at most one contributing parameter pair at every point
                assert _check(report, "contribution-bounds").passed


def test_criterion_08_relation_table_and_comparison():
    with criterion("criterion-08 relation table and comparison cases", 5.0):
        table = check_table1(1)
        assert table.passed, table.failures()
        for case in SU_CASES:
            report = check_su_conditions(case)
            assert report.passed, (case.name, report.failures())
            witness = _check(report, "coset-constancy-fails")
            print(f"  {case.name}: {witness.details}")


def test_criterion_09_fast_equals_naive(nega_parts):
    with criterion("criterion-09 fast equals naive with Parseval", 30.0):
        # every function on up to 4 variables, against the definitional sums
        for n in (1, 2, 3, 4):
            size = 1 << n
            pops = popcounts(size)
            xs = np.arange(size)
            sign_mat = 1 - 2 * (pops[xs[:, None] & xs[None, :]] & 1)
            re_twist = np.array([1, 0, -1, 0], dtype=np.int64)[pops % 4]
            im_twist = np.array([0, 1, 0, -1], dtype=np.int64)[pops % 4]
            for bits in range(1 << size):
                f = BooleanFunction(n, bits)
                signs = 1 - 2 * f.value_array().astype(np.int64)
                wf = walsh_transform(f)
                nf = nega_transform(f)
                re, im = nega_parts(nf)
                assert np.array_equal(wf.values, sign_mat @ signs)
                assert np.array_equal(re, sign_mat @ (signs * re_twist))
                assert np.array_equal(im, sign_mat @ (signs * im_twist))
                assert wf.parseval_sum() == nf.parseval_sum() == 1 << (2 * n)

        # random functions on 5..10 variables against the reference oracle
        rng = np.random.default_rng(20260814)
        for n in range(5, 11):
            nbytes = (1 << n) // 8
            for _ in range(100):
                f = BooleanFunction(n, int.from_bytes(rng.bytes(nbytes), "little"))
                w, re, im = naive_transforms(f)
                wf, nf = walsh_transform(f), nega_transform(f)
                assert np.array_equal(w, wf.values)
                assert all(np.array_equal(a, b) for a, b in zip((re, im), nega_parts(nf)))
                assert wf.parseval_sum() == nf.parseval_sum() == 1 << (2 * n)


def test_criterion_10_scale():
    with criterion("criterion-10a full verification at n=16 (G4K)", 10.0):
        cf = construct("G4K", GammaSpec(4, "S1", (BitVector(8, 0b10010110),)))
        assert cf.n == 16
        report = verify_construction(cf)
        assert report.passed, report.failures()

    with criterion("criterion-10b full verification at n=16 (G8K)", 10.0):
        cf = construct("G8K", GammaSpec(2, "S2", (BitVector(8, 0b01000010),)))
        assert cf.n == 16
        report = verify_construction(cf)
        assert report.passed, report.failures()

    with criterion("criterion-10c classification at n=20", 180.0):
        cf = construct("G4K", GammaSpec(5, "S1", (BitVector(10, 0b0110100101),)))
        assert cf.n == 20
        cls = classify(cf.function)
        assert cls.is_bent and cls.is_negabent


def test_criterion_11_codec_linear_at_n20():
    # every table conversion is one linear pass, so a round trip through the
    # file format at n=20 costs milliseconds, not the minutes of a per-entry loop
    rng = np.random.default_rng(20261018)
    values = (rng.integers(0, 3, size=1 << 20) == 0).astype(np.uint8)
    want = np.flatnonzero(values).tolist()
    with criterion("criterion-11 table round trip at n=20 (density 1/3)", 3.0):
        f = BooleanFunction.from_values(20, values)
        g = BooleanFunction.from_hex(20, f.to_hex())
        assert g.support().indices() == want


def test_criterion_12_lemma_at_n20():
    # the fragment-lemma checks compare whole arrays, so all 2^20 points of
    # an S1 set at k=5 are checked in seconds, not the minutes of a per-point loop
    spec = GammaSpec(5, "S1", (BitVector.from_string("1101001110"),
                               BitVector.from_string("0010110001")))
    with criterion("criterion-12 fragment lemma at n=20", 6.0):
        report = verify_fragmentary_lemma(spec)
        assert report.passed, report.failures()
        assert _check(report, "fragment-walsh-closed-form").details.startswith("1048576 points")


def test_criterion_13_definitional_spectra_at_n14(nega_parts):
    # the definitional sums popcount each packed word once per distinct low
    # part of u and sum the words against the signs of each high part, so
    # both spectra at the naive limit take milliseconds, not the seconds of
    # a per-point loop
    rng = np.random.default_rng(20261018)
    f = BooleanFunction(14, int.from_bytes(rng.bytes((1 << 14) // 8), "little"))
    wf, nf = walsh_transform(f), nega_transform(f)
    with criterion("criterion-13 definitional spectra at n=14", 0.04):
        w, re, im = naive_transforms(f)
    assert np.array_equal(w, wf.values)
    assert all(np.array_equal(a, b) for a, b in zip((re, im), nega_parts(nf)))


def test_criterion_14_modifier_set_at_n24():
    # a modifier set is one numpy union of cosets of a subspace, so 2^22
    # members at n=24 take a fraction of a second, not a per-point loop
    rng = random.Random(20261018)
    gammas = tuple(BitVector(12, g) for g in rng.sample(range(1 << 12), 1024))
    spec = GammaSpec(6, "S1", gammas)
    with criterion("criterion-14 S1 modifier set with 1024 gammas at n=24", 0.5):
        s = build_modifier_set(spec)
    assert s.n == 24 and s.mask.bit_count() == 1024 * 4 ** 6


def test_criterion_15_full_verification_at_n24():
    # one int32 butterfly per spectrum, the nega spectrum by the sigma2
    # identity, and each spectrum taken once, so the whole check battery on
    # a 24-variable construction fits seconds and well under a GiB
    spec = GammaSpec(6, "S1", (BitVector.from_string("100110100101"),))
    tracemalloc.start()
    try:
        with criterion("criterion-15 full verification at n=24 (G4K)", 15.0):
            cf = construct("G4K", spec)
            report = verify_construction(cf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cf.n == 24
    assert report.passed, report.failures()
    print(f"  tracemalloc peak {peak / 2**20:.0f} MiB")
    assert peak <= 1 << 30, f"peak {peak / 2**20:.0f} MiB over 1 GiB"


def test_criterion_16_orbit_sum_family_at_n24():
    # the orbit-sum modifier set comes from one Moebius transform on the 2k
    # bits of z = x + y, not from an elimination over 2^(4k)-bit polynomials
    vectors = tuple(BitVector.from_string(s) for s in ("110000000000", "101000000000"))
    tracemalloc.start()
    try:
        with criterion("criterion-16 construct and verify F2RS_SET at n=24", 30.0):
            with criterion("criterion-16 construct F2RS_SET at n=24", 5.0):
                cf = construct("F2RS_SET", RotationSpec(6, vectors))
            report = verify_construction(cf)
        peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        decompose_orbit_sum(6, vectors)
        decompose_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert cf.n == 24
    assert report.passed, report.failures()
    print(f"  construct and verify peak {peak / 2**20:.0f} MiB, "
          f"decompose_orbit_sum peak {decompose_peak / 2**10:.0f} KiB")
    assert peak <= 640 << 20, f"peak {peak / 2**20:.0f} MiB over 640 MiB"
    assert decompose_peak <= 1 << 20, f"decomposition peak {decompose_peak} B over 1 MiB"


def test_criterion_17_spectrum_text_at_n24(tmp_path):
    # spectrum lines are cut from per-block tables of each column's distinct
    # values and written block by block, so the 2^24-line text of the
    # criterion-15 construction takes seconds and is never held whole
    out = tmp_path / "spectrum.tsv"
    argv = ["spectrum", "--family", "G4K", "--k", "6", "--gamma", "100110100101",
            "--kind", "both", "--out", str(out)]
    tracemalloc.start()
    try:
        with criterion("criterion-17 spectrum --kind both at n=24 (G4K)", 15.0):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    try:
        digest = hashlib.sha256()
        with open(out, "rb") as fh:
            while chunk := fh.read(1 << 24):
                digest.update(chunk)
    finally:
        out.unlink(missing_ok=True)  # 335,540,224 bytes
    assert code == 0
    # the text the per-line formatter printed before
    assert digest.hexdigest() == (
        "2ef99beeb9fd9efd64a4122141eb33ecf8f92eff669db3d0a983b19d13177045")
    print(f"  tracemalloc peak {peak / 2**20:.0f} MiB")
    assert peak <= 256 << 20, f"peak {peak / 2**20:.0f} MiB over 256 MiB"


def test_criterion_18_relation_table_at_k2():
    # every spectrum enters the butterfly from the packed truth-table bytes,
    # negabent flatness is read off |W_g| in int32, and the weight rules out
    # bentness before any Walsh butterfly (223 of the 241 classifications
    # skip it), and the butterfly enters six levels per word by popcount and
    # runs the next eight in int16 as four constant-geometry radix-4 passes
    # between two buffers, so the relation table at k = 2 (48 S4 indicator
    # functions at n = 18 among them) takes 0.11-0.14 s and fits 0.35 s
    with criterion("criterion-18 relation table at k=2", 0.35):
        table = check_table1(2)
    assert [(c.name, c.passed, c.details) for c in table.checks] == [
        ("sigma2-bent-not-negabent", True, "bent=True negabent=False"),
        ("g0-bent-negabent", True, "bent=True negabent=True"),
        ("h0-bent-negabent", True, "bent=True negabent=True"),
        ("f0-2rs-bent-negabent", True, "bent-negabent, rotation order 2"),
        ("chi-s1-negabent-not-bent", True, "16 indicator functions"),
        ("chi-s2-negabent-not-bent", True, "16 indicator functions"),
        ("chi-s3-negabent-not-bent", True, "48 indicator functions"),
        ("chi-s4-negabent-not-bent", True, "48 indicator functions"),
        ("chi-t-rotation-symmetric-negabent-not-bent", True,
         "2 indicator functions, rotation order 1"),
        ("base-plus-indicator-bent-negabent", True,
         "S1, S2, S3, S4 and T sums all bent-negabent"),
        ("named-sigma2-sums", True,
         "bent base -> negabent sum; negabent indicator -> bent sum"),
        ("sigma2-exchange-sampled", True, "50 random functions"),
    ]


def test_criterion_19_packed_passes_at_n24():
    # the rotation order tries only the divisors of n, each shift one
    # transpose of the table, so a table with no rotation symmetry (a
    # tampered file, say) takes 8 shifts, not 24; the Moebius transform runs
    # on the packed 64-bit words, six levels inside each by shift and mask,
    # and a round trip takes about 0.03 s
    rng = np.random.default_rng(19)
    f = BooleanFunction(24, int.from_bytes(rng.bytes(1 << 21), "little"))
    tracemalloc.start()
    try:
        with criterion("criterion-19a rotation order of a random table at n=24", 3.0):
            order = rotation_symmetry_order(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order == 24
    print(f"  tracemalloc peak {peak / 2**20:.0f} MiB")
    assert peak <= 128 << 20, f"peak {peak / 2**20:.0f} MiB over 128 MiB"
    with criterion("criterion-19b Moebius round trip of a random table at n=24", 0.1):
        back = truth_table_from_anf(anf_from_truth_table(f))
    assert back == f


def test_criterion_20_covering_sums_at_n24(tmp_path):
    # the closed ANF sums the cells' indicators [Z = p] over the 12 bits of Z
    # before expanding them, so 2047 S1 cells make at most 3^12 masks, not
    # 2^wt(gamma) * 3^(12 - wt(gamma)) for each cell expanded on its own
    rng = random.Random(20)
    gammas = tuple(BitVector(12, g) for g in rng.sample(range(1 << 12), 2047))
    tracemalloc.start()
    try:
        with criterion("criterion-20 construct G4K with 2047 gammas at n=24", 8.0):
            cf = construct("G4K", GammaSpec(6, "S1", gammas))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"  tracemalloc peak {peak / 2**20:.0f} MiB")
    assert peak <= 256 << 20, f"peak {peak / 2**20:.0f} MiB over 256 MiB"
    # an odd number of cells: the parity flag predicts the maximum degree
    assert cf.predicts_max_degree
    assert cf.closed_anf == anf_from_truth_table(cf.function)
    assert cf.closed_anf.degree() == 12
    out = tmp_path / "g4k.json"
    argv = ["gen", "--family", "G4K", "--k", "6", "--out", str(out)]
    for g in params_to_dict(cf)["gammas"]:
        argv += ["--gamma", g]
    assert main(argv) == 0
    # the record the per-cell expansion wrote before
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3d269d480263f78d6cfc088f9e79e94f649fff4ad1ea9ab7d36d3412025dc385")


def test_criterion_21_lemma_with_every_gamma_at_n20():
    # each point looks its (gamma, eps) candidates up in key tables of at
    # most 2^(n/2) entries, so all 1,024 gammas of an S1 set at k=5 cost
    # 2^n + |Gamma| work, not one pass over the 2^n points per gamma
    spec = GammaSpec(5, "S1", tuple(BitVector(10, g) for g in range(1 << 10)))
    with criterion("criterion-21 fragment lemma with 1024 gammas at n=20", 4.0):
        report = verify_fragmentary_lemma(spec)
    assert report.passed, report.failures()
    assert _check(report, "contribution-bounds").details == (
        "max walsh matches 1, max nega matches 1 (bound 1)")


def test_criterion_22_lemma_with_every_gamma_at_n24():
    # the literal sums at the 64 sampled points are popcounts of packed rows
    # u.x per weight class, over the set's packed mask, taken once for the
    # sample's one low part of u, so a set of all 2^24 points costs 2^n / 16
    # popcounts and 3 * 2^n multiply-adds, not a sum over its members
    spec = GammaSpec(6, "S1", tuple(BitVector(12, g) for g in range(1 << 12)))
    with criterion("criterion-22 fragment lemma with 4096 gammas at n=24", 20.0):
        report = verify_fragmentary_lemma(spec)
    assert report.passed, report.failures()
    assert _check(report, "literal-sum-agreement").details == "64 sampled points"


def test_criterion_23_nega_transform_at_n24():
    # the butterfly's one full-size buffer is its int32 output (64 MiB); the
    # packed table of g is 2 MiB, and the entry, int16 and int32 stages
    # reuse a 1.125 MiB per-thread workspace, so a nega spectrum at n = 24
    # takes well under a second and about 66 MiB
    rng = np.random.default_rng(23)
    f = BooleanFunction(24, int.from_bytes(rng.bytes(1 << 21), "little"))
    tracemalloc.start()
    try:
        with criterion("criterion-23 nega transform of a random table at n=24", 1.5):
            nf = nega_transform(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"  tracemalloc peak {peak / 2**20:.0f} MiB")
    assert peak <= 80 << 20, f"peak {peak / 2**20:.0f} MiB over 80 MiB"
    assert nf.parseval_sum() == 1 << 48
    us = [0, 1, 12345, (1 << 24) - 1]
    _, re, im = definitional_sums(f, us)
    assert [nf.value(u) for u in us] == list(zip(re.tolist(), im.tolist()))


def test_criterion_24_naive_cross_check_at_n12(nega_parts):
    # butterfly-matches-naive runs on every report up to n = 12; the
    # definitional sums popcount each packed word once per distinct low part
    # of u and sum the 64 words against the signs of each high part, so 24
    # tables at n = 12 take about a millisecond each, not the 4-6 ms of one
    # popcount pass over the words per point
    rng = np.random.default_rng(24)
    fs = [BooleanFunction(12, int.from_bytes(rng.bytes(1 << 9), "little")) for _ in range(24)]
    with criterion("criterion-24 naive transforms of 24 random tables at n=12", 0.09):
        got = [naive_transforms(f) for f in fs]
    for f, (w, re, im) in zip(fs, got):
        assert np.array_equal(w, walsh_transform(f).values)
        assert all(np.array_equal(a, b) for a, b in zip((re, im), nega_parts(nega_transform(f))))


def test_criterion_25_text_memory_at_n20(tmp_path):
    # each spectrum column takes its distinct values' texts with one `take`
    # into one bytes item a line, and the ANF text takes one token per
    # (term, variable) cell, so a block's transient arrays stay small:
    # spectrum --kind both at n = 20 holds the two spectra (8 MiB) plus a
    # few MiB, and a dense ANF's text peaks at the joined bytes and the str
    out = tmp_path / "spectrum.tsv"
    argv = ["spectrum", "--family", "G4K", "--k", "5", "--gamma", "1111100000",
            "--gamma", "0100001111", "--kind", "both", "--out", str(out)]
    tracemalloc.start()
    try:
        with criterion("criterion-25a spectrum --kind both at n=20 (G4K)", 1.0):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # the text the per-field gather printed before
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "a3f23079c15bff51a2ca26dd886ae4462041a096d84d3a94b8108f0d0871f5a1")
    print(f"  tracemalloc peak {peak / 2**20:.1f} MiB")
    assert peak <= 16 << 20, f"peak {peak / 2**20:.1f} MiB over 16 MiB"

    rng = np.random.default_rng(25)
    anf = AnfPolynomial(20, int.from_bytes(rng.bytes(1 << 17), "little"))
    assert anf.term_count() == 524_018
    tracemalloc.start()
    try:
        with criterion("criterion-25b ANF text of a random polynomial at n=20", 2.0):
            text = anf.to_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "308dcad4947b87e25ef7244e9594ef324bc32eff3c34ba3dcfd70f787b544dd7")
    print(f"  tracemalloc peak {peak / 2**20:.1f} MiB")
    assert peak <= 57 << 20, f"peak {peak / 2**20:.1f} MiB over 57 MiB"
