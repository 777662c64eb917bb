"""Whole-array fragment-lemma checks against per-point references.

The reference functions below are the earlier scalar implementations: one
point at a time on Python ints and Gaussian integers, with loop-based pair
predicates.  The array closed forms and predictors must agree with them at
every point, and the key tables' largest counts must be the points'.  The
tamper tests make one exact value wrong at one point: a
masked spectrum's stored entry shifted (a Walsh value by 2^(n/2), or the W_g
value a nega spectrum is derived from by 2^(n/2+1), which moves re and im by
2^(n/2)), or one bit of a base dual from the GF(2) rule flipped (W_f0
negated, or W_g0, which turns N_f0 = re + i im into -im - i re).  The
matching check must fail alone, naming the first wrong point and both
values, also when the point lies in a later block of the blockwise checks;
a patched key table fails the contribution bound alone, naming the first
point the patched entries count.  The block tests require the same reports
whatever the block size, grid blocks that equal their points listed flat,
one evaluation of each closed form a block, check times that sum within
the report's, no butterfly on the base, and an n=20 check within a
tracemalloc budget.
"""

import dataclasses
import random
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from negabench import oracle, spectra
from negabench.constructions import FAMILY_TABLE, base_function
from negabench.core import BitVector, BooleanFunction
from negabench.subspaces import (
    GammaSpec,
    build_modifier_set,
    swap_halves,
)


# ---------------------------------------------------------------------------
# per-point references


@dataclass(frozen=True)
class Gauss:
    """The scalar Gaussian-integer arithmetic the references are written in."""

    re: int
    im: int

    def __add__(self, other):
        return Gauss(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return Gauss(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    def scale(self, c):
        return Gauss(c * self.re, c * self.im)


def i_power(e):
    return (Gauss(1, 0), Gauss(0, 1), Gauss(-1, 0), Gauss(0, -1))[e % 4]


def ref_in_pair_repetition(bits: int, pairs: int) -> bool:
    for i in range(pairs):
        if ((bits >> (2 * i)) & 3) in (1, 2):
            return False
    return True


def ref_in_pair_antirepetition(bits: int, pairs: int) -> bool:
    for i in range(pairs):
        if ((bits >> (2 * i)) & 3) in (0, 3):
            return False
    return True


def _parity(bits: int) -> int:
    return bits.bit_count() & 1


def ref_walsh_g0(t: int, point: int) -> int:
    """Closed form of the Walsh spectrum of the 4t-variable base g0."""
    m = 2 * t
    u, v = point & ((1 << m) - 1), point >> m
    up, upp = u & ((1 << t) - 1), u >> t
    sign = -1 if _parity(up & upp) ^ _parity(u & v) else 1
    return sign << m


def ref_nega_g0(t: int, point: int) -> Gauss:
    """Closed form of the nega spectrum of the 4t-variable base g0."""
    m = 2 * t
    u, v = point & ((1 << m) - 1), point >> m
    up, upp = u & ((1 << t) - 1), u >> t
    vp, vpp = v & ((1 << t) - 1), v >> t
    sign = -1 if _parity((up ^ vp) & (upp ^ vpp)) else 1
    return i_power(t - u.bit_count()).scale(sign << m)


def ref_walsh_h0(t: int, point: int) -> int:
    """Closed form of the Walsh spectrum of the (4t+2)-variable base h0."""
    m = 2 * t
    big_u = point & ((1 << (m + 1)) - 1)
    big_v = point >> (m + 1)
    u, um = big_u & ((1 << m) - 1), big_u >> m
    v = big_v & ((1 << m) - 1)
    up, upp = u & ((1 << t) - 1), u >> t
    exp = _parity(up & upp) ^ _parity(big_u & big_v) ^ (um & ((v ^ (u >> t)) & 1))
    sign = -1 if exp else 1
    return sign << (m + 1)


def ref_nega_h0(t: int, point: int) -> Gauss:
    """Closed form of the nega spectrum of the (4t+2)-variable base h0."""
    m = 2 * t
    big_u = point & ((1 << (m + 1)) - 1)
    big_v = point >> (m + 1)
    u, um = big_u & ((1 << m) - 1), big_u >> m
    v, vm = big_v & ((1 << m) - 1), big_v >> m
    base = ref_nega_g0(t, u | (v << m))
    b = (u ^ (u >> t) ^ (v >> t) ^ vm) & 1  # u_0 + u_t + v_t + v_m
    if b == 0:
        return base.scale(2)
    return (base * Gauss(0, 1)).scale(-2 if um else 2)


# ---------------------------------------------------------------------------
# closed-form fragment spectra of the four modifier families


@dataclass(frozen=True)
class _FragmentPrediction:
    walsh: int
    walsh_matches: int
    nega_doubled: Gauss
    nega_matches: int
    nega_branch: str  # "zero", "half" or "full"
    structure_ok: bool


_ZERO = Gauss(0, 0)


def _halved_branch(full: Gauss, s: int) -> Gauss:
    """Doubled value of (1 + i*(-1)^s)/2 * full."""
    return full + full * Gauss(0, 1 - 2 * s)


def ref_predict_s1(spec: GammaSpec, point: int) -> _FragmentPrediction:
    k = spec.k
    maskk = (1 << k) - 1
    u, v = point & ((1 << 2 * k) - 1), point >> (2 * k)
    up, upp = u & maskk, u >> k
    vp, vpp = v & maskk, v >> k
    halves = [spec.gamma_halves(i) for i in range(len(spec.gammas))]

    w_target = (up ^ upp ^ vp ^ vpp ^ maskk, up ^ upp)
    w_matches = sum(1 for h in halves if h == w_target)
    walsh = ref_walsh_g0(k, point) if w_matches else 0

    n_target = (vp ^ vpp, up ^ upp ^ vp ^ vpp ^ maskk)
    n_matches = sum(1 for h in halves if h == n_target)
    if n_matches:
        nega2 = ref_nega_g0(k, point).scale(2)
        branch = "full"
    else:
        nega2, branch = _ZERO, "zero"
    return _FragmentPrediction(walsh, w_matches, nega2, n_matches, branch, True)


def ref_predict_s2(spec: GammaSpec, point: int) -> _FragmentPrediction:
    k = spec.k
    pairs = 2 * k
    u, v = point & ((1 << 4 * k) - 1), point >> (4 * k)

    w_matches = n_matches = 0
    for g in spec.gammas:
        sw = swap_halves(g.bits, 2 * k)
        if ref_in_pair_repetition(u ^ g.bits, pairs) and ref_in_pair_repetition(v ^ sw, pairs):
            w_matches += 1
        if (ref_in_pair_antirepetition(u ^ g.bits, pairs)
                and ref_in_pair_antirepetition(v ^ g.bits ^ sw, pairs)):
            n_matches += 1
    walsh = ref_walsh_g0(2 * k, point) if w_matches else 0
    if n_matches:
        nega2 = ref_nega_g0(2 * k, point).scale(2)
        branch = "full"
    else:
        nega2, branch = _ZERO, "zero"
    return _FragmentPrediction(walsh, w_matches, nega2, n_matches, branch, True)


def ref_predict_s3(spec: GammaSpec, point: int) -> _FragmentPrediction:
    k = spec.k
    m = 2 * k
    maskk = (1 << k) - 1
    big_u = point & ((1 << (m + 1)) - 1)
    big_v = point >> (m + 1)
    u, um = big_u & ((1 << m) - 1), big_u >> m
    v, vm = big_v & ((1 << m) - 1), big_v >> m
    up, upp = u & maskk, u >> k
    vp, vpp = v & maskk, v >> k
    halves = [spec.gamma_halves(i) for i in range(len(spec.gammas))]

    w_matches = 0
    for i, (g1, g2) in enumerate(halves):
        if (g2 == up ^ upp ^ um and (g1 ^ g2) == vp ^ vpp ^ maskk
                and um in spec.e_values(i)):
            w_matches += 1
    walsh = ref_walsh_h0(k, point) if w_matches else 0

    candidates = []
    for i, (g1, g2) in enumerate(halves):
        for eps in spec.e_values(i):
            if g1 == vp ^ vpp and (g1 ^ g2) == up ^ upp ^ maskk ^ eps:
                candidates.append((i, eps))
    structure_ok = len(candidates) <= 2
    if len(candidates) == 0:
        nega2, branch = _ZERO, "zero"
    elif len(candidates) == 1:
        _, eps = candidates[0]
        s = (u ^ (u >> k) ^ (v >> k) ^ vm ^ um ^ eps) & 1
        nega2, branch = _halved_branch(ref_nega_h0(k, point), s), "half"
    else:
        # two contributions: distinct gammas sharing gamma_1, complementary eps
        (i1, e1), (i2, e2) = candidates[:2]
        structure_ok = (structure_ok and i1 != i2 and (e1 ^ e2) == 1
                        and halves[i1][0] == halves[i2][0])
        nega2, branch = ref_nega_h0(k, point).scale(2), "full"
    return _FragmentPrediction(walsh, w_matches, nega2, len(candidates),
                               branch, structure_ok)


def ref_predict_s4(spec: GammaSpec, point: int) -> _FragmentPrediction:
    k = spec.k
    pairs = 2 * k
    m = 4 * k
    big_u = point & ((1 << (m + 1)) - 1)
    big_v = point >> (m + 1)
    u, um = big_u & ((1 << m) - 1), big_u >> m
    v, vm = big_v & ((1 << m) - 1), big_v >> m

    w_matches = 0
    candidates = []
    for i, g in enumerate(spec.gammas):
        sw = swap_halves(g.bits, 2 * k)
        if (um in spec.e_values(i)
                and ref_in_pair_repetition(u ^ um ^ g.bits, pairs)
                and ref_in_pair_repetition(v ^ sw, pairs)):
            w_matches += 1
        for eps in spec.e_values(i):
            if (ref_in_pair_antirepetition(u ^ g.bits ^ eps, pairs)
                    and ref_in_pair_antirepetition(v ^ g.bits ^ sw, pairs)):
                candidates.append((i, eps))
    walsh = ref_walsh_h0(2 * k, point) if w_matches else 0
    if not candidates:
        nega2, branch = _ZERO, "zero"
    else:
        _, eps = candidates[0]
        s = (u ^ (u >> 2 * k) ^ (v >> 2 * k) ^ vm ^ um ^ eps) & 1
        nega2, branch = _halved_branch(ref_nega_h0(2 * k, point), s), "half"
    return _FragmentPrediction(walsh, w_matches, nega2, len(candidates),
                               branch, len(candidates) <= 1)


# ---------------------------------------------------------------------------
# arrays against the references at every point


def _nega_pairs(values) -> tuple[list[int], list[int]]:
    values = list(values)
    return [z.re for z in values], [z.im for z in values]


def _closed_forms(base, t, xs):
    """(W, re N, im N) of the base g0 or h0 at the points xs, one closed form each."""
    split = oracle.split_points(t, base == "h0", xs)
    walsh = getattr(oracle, f"{base}_walsh_closed_form")(t, *split)
    return walsh, *getattr(oracle, f"{base}_nega_closed_form")(t, *split)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_g0_closed_forms(t):
    pts = range(1 << (4 * t))
    xs = np.arange(1 << (4 * t), dtype=np.int64)
    walsh, re, im = _closed_forms("g0", t, xs)
    assert walsh.tolist() == [ref_walsh_g0(t, p) for p in pts]
    assert (re.tolist(), im.tolist()) == _nega_pairs(ref_nega_g0(t, p) for p in pts)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_h0_closed_forms(t):
    pts = range(1 << (4 * t + 2))
    xs = np.arange(1 << (4 * t + 2), dtype=np.int64)
    walsh, re, im = _closed_forms("h0", t, xs)
    assert walsh.tolist() == [ref_walsh_h0(t, p) for p in pts]
    assert (re.tolist(), im.tolist()) == _nega_pairs(ref_nega_h0(t, p) for p in pts)


@pytest.mark.parametrize("n, t, base, walsh_ref, nega_ref", [
    (24, 6, "g0", ref_walsh_g0, ref_nega_g0),
    (22, 5, "h0", ref_walsh_h0, ref_nega_h0),
], ids=["g0-n24", "h0-n22"])
def test_int32_closed_forms_at_capacity(n, t, base, walsh_ref, nega_ref):
    # the top points of the largest g0 and h0 set every bit of an int32 point
    size = 1 << n
    xs = oracle._points(slice(size - 256, size))
    pts = range(size - 256, size)
    walsh, re, im = _closed_forms(base, t, xs)
    assert {a.dtype for a in (xs, walsh, re, im)} == {np.dtype(np.int32)}
    assert walsh.tolist() == [walsh_ref(t, p) for p in pts]
    assert (re.tolist(), im.tolist()) == _nega_pairs(nega_ref(t, p) for p in pts)


def _spec(k, family, gammas, esets=None):
    return GammaSpec(k, family, tuple(BitVector.from_string(g) for g in gammas), esets)


# multi-gamma specs of every set at k=1 and k=2, together using every E symbol
PREDICTOR_SPECS = {
    "S1-k1": _spec(1, "S1", ("00", "10", "11")),
    "S1-k2": _spec(2, "S1", ("0110", "1011", "0001", "1111")),
    "S2-k1": _spec(1, "S2", ("0000", "1000", "0010", "1010")),
    "S2-k2": _spec(2, "S2", ("10000000", "00101000", "01000010")),
    "S3-k1": _spec(1, "S3", ("00", "01", "11"), ("0", "1", "B")),
    "S3-k1-pairs": _spec(1, "S3", ("00", "01", "10", "11"), ("B", "B", "0", "1")),
    "S3-k2": _spec(2, "S3", ("1000", "1010", "0111", "0101"), ("1", "0", "B", "B")),
    "S4-k1": _spec(1, "S4", ("0000", "1000", "0010"), ("B", "0", "1")),
    "S4-k2": _spec(2, "S4", ("00000000", "10000000", "00100000"), ("B", "0", "1")),
    # every gamma, so the key tables reach their largest counts: every S3 nega
    # key has two candidates, and S2/S4 take one gamma from every coset of
    # the pair-repetition subspace
    "S1-k2-all": _spec(2, "S1", [f"{g:04b}" for g in range(16)]),
    "S2-k1-all": _spec(1, "S2", ("0000", "0001", "0100", "0101")),
    "S3-k1-all": _spec(1, "S3", ("00", "01", "10", "11"), ("B",) * 4),
    "S4-k1-all": _spec(1, "S4", ("0000", "0001", "0100", "0101"), ("B", "0", "1", "B")),
}

_REFERENCE = {"S1": ref_predict_s1, "S2": ref_predict_s2,
              "S3": ref_predict_s3, "S4": ref_predict_s4}


def _n(spec):
    return next(f for f in FAMILY_TABLE.values() if f.set_tag == spec.family).n(spec.k)


@pytest.mark.parametrize("name", sorted(PREDICTOR_SPECS))
def test_predictor_matches_reference(name):
    spec = PREDICTOR_SPECS[name]
    xs = np.arange(1 << _n(spec), dtype=np.int64)
    predictor = oracle._predictor(spec)
    _, walsh = predictor.walsh(xs)
    _, (re, im) = predictor.nega(xs)
    # per point, its number of candidates and its branch, as the halves read them
    wkey, nkey = predictor.keys(xs)
    walsh_matches, nega_matches = predictor.w_count[wkey], predictor.n_count[nkey]
    branch = predictor.branch[nkey]
    refs = [_REFERENCE[spec.family](spec, p) for p in range(1 << _n(spec))]
    assert walsh.tolist() == [r.walsh for r in refs]
    assert walsh_matches.tolist() == [r.walsh_matches for r in refs]
    assert (re.tolist(), im.tolist()) == _nega_pairs(r.nega_doubled for r in refs)
    assert nega_matches.tolist() == [r.nega_matches for r in refs]
    assert [oracle.BRANCHES[b] for b in branch] == [r.nega_branch for r in refs]
    # the nega table's verdict: no key has more candidates than the lemma
    # admits, and two under one key are S3's admissible pair
    n_count, bound = predictor.n_count, spec.shape.bound
    n_bad = (n_count > bound) | ((n_count == 2) & ~predictor.pair_ok)
    assert (not n_bad.any()) == all(r.structure_ok for r in refs)
    _assert_tables_reach_maxima(predictor, xs, max(r.walsh_matches for r in refs),
                                max(r.nega_matches for r in refs))
    # the specs reach beyond the trivial branch
    assert {r.nega_branch for r in refs} - {"zero"}


def _assert_tables_reach_maxima(predictor, xs, walsh_max, nega_max):
    """contribution-bounds reads its maxima off the key tables: both key maps
    are onto, so every entry is some point's and the tables' maxima are the
    points' largest counts."""
    wkey, nkey = predictor.keys(xs)
    assert np.bincount(wkey, minlength=predictor.w_count.size).all()
    assert np.bincount(nkey, minlength=predictor.n_count.size).all()
    assert (predictor.w_count.max(), predictor.n_count.max()) == (walsh_max, nega_max)


def test_key_tables_reach_the_per_point_maxima_at_n20():
    # five distinct gammas drawn for an S1 set at k = 5.  The per-point counts
    # are the tables read at the points' keys, as the halves read them, which
    # the test above pins to the reference at every smaller spec
    rng = random.Random(20261020)
    spec = _spec(5, "S1", [f"{g:010b}" for g in rng.sample(range(1 << 10), 5)])
    predictor = oracle._predictor(spec)
    xs = np.arange(1 << 20, dtype=np.int64)
    wkey, nkey = predictor.keys(xs)
    _assert_tables_reach_maxima(predictor, xs, predictor.w_count[wkey].max(),
                                predictor.n_count[nkey].max())


# one two-gamma spec per set at k = 1..3 (S4 stops at k = 2, n = 18: k = 3 is
# n = 26, beyond capacity), and the claims-suite's two n = 18 one-gamma shapes
GRID_SPECS = {
    "S1-k1": _spec(1, "S1", ("01", "10")),
    "S1-k2": _spec(2, "S1", ("0110", "1011")),
    "S1-k3": _spec(3, "S1", ("011010", "110001")),
    "S2-k1": _spec(1, "S2", ("0000", "1000")),
    "S2-k2": _spec(2, "S2", ("10000000", "00101000")),
    "S2-k3": _spec(3, "S2", ("100000000000", "001010000000")),
    "S3-k1": _spec(1, "S3", ("01", "10"), ("0", "B")),
    "S3-k2": _spec(2, "S3", ("1000", "0111"), ("1", "B")),
    "S3-k3": _spec(3, "S3", ("101100", "010011"), ("B", "0")),
    "S3-k4-claims": _spec(4, "S3", ("10110100",), ("B",)),
    "S4-k1": _spec(1, "S4", ("0000", "1000"), ("B", "1")),
    "S4-k2": _spec(2, "S4", ("10000000", "00100000"), ("0", "B")),
    "S4-k2-claims": _spec(2, "S4", ("01001011",), ("1",)),
}


def _arrays(result):
    """The arrays of a predictor half's result, its nega pairs unpacked."""
    return [a for part in result for a in (part if isinstance(part, tuple) else (part,))]


@pytest.mark.parametrize("name", sorted(GRID_SPECS))
def test_grid_blocks_match_flat_points(name):
    # an aligned block is split as a grid, its u-parts (u with u_m) a row and
    # its v-parts a column; each half of the predictor, and the keys, over the
    # block equal their evaluation at the block's points listed flat
    spec = GRID_SPECS[name]
    size, h0 = 1 << _n(spec), spec.e_sets is not None
    t = 2 * spec.k if spec.family in ("S2", "S4") else spec.k
    bits, step = 2 * t + h0, min(spectra._BLOCK, size)
    predictor = oracle._predictor(spec)
    for start in sorted({0, size // 2 // step * step, size - step}):  # first, middle, last
        block = slice(start, start + step)
        split = oracle.split_points(t, h0, block)
        assert (split[0].shape, split[-3 if h0 else 1].shape) == ((1 << bits,), (step >> bits, 1))
        points = oracle._points(block)
        for half in (predictor.walsh, predictor.nega):
            grid, flat = _arrays(half(block)), _arrays(half(points))
            assert [(a.dtype, a.shape) for a in grid] == [(np.dtype(np.int32), (step,))] * len(flat)
            assert all(np.array_equal(g, f) for g, f in zip(grid, flat))
        assert all(np.array_equal(g.ravel(), f) for g, f in
                   zip(predictor.keys(block), predictor.keys(points)))


# ---------------------------------------------------------------------------
# non-vacuity: a single wrong spectrum entry is caught and named


TAMPER_SPEC = _spec(2, "S3", ("1000", "1010", "0111"), ("1", "0", "B"))  # n = 10
TAMPER_POINT = 37  # off the 64-point literal-sum sample (every 16th point)
DELTA = 1 << 5  # 2^(n/2)


# the base's spectra, by the index of the GF(2) rule's dual that the lemma
# reads them from: dual_w for W_f0, dual_g (of g0 = f0 + sigma2) for N_f0
BASE_DUALS = {"walsh_transform": 0, "nega_transform": 1}


def _exact(name, spec=TAMPER_SPEC):
    """The untampered spectrum `name` for `spec`: spectra.<name> of the base
    for a base spectrum, else oracle.<name> of the base over the set."""
    f0 = base_function("h0", spec.k)
    if name in BASE_DUALS:
        return getattr(spectra, name)(f0)
    return getattr(oracle, name)(f0, build_modifier_set(spec))


def _tamper(monkeypatch, name, field, delta, point=TAMPER_POINT):
    """Spectrum `name` made wrong at `point`: for a base spectrum, bit `point`
    of the rule's dual flipped (W_f0 or W_g0 negated there), else entry
    `point` of oracle.<name>'s `field` moved by delta."""
    if name in BASE_DUALS:
        rule, which = oracle._base_spectra, BASE_DUALS[name]

        def flipped(f):
            duals = list(rule(f))
            duals[which] ^= BooleanFunction(f.n, 1 << point)
            return tuple(duals)

        monkeypatch.setattr(oracle, "_base_spectra", flipped)
        return
    original = getattr(oracle, name)

    def tampered(*args):
        spec = original(*args)
        values = getattr(spec, field).copy()
        values[point] += delta
        return dataclasses.replace(spec, **{field: values})

    monkeypatch.setattr(oracle, name, tampered)


# the label of the tampered spectrum in each closed-form check's counterexample
LABELS = {"base-walsh-closed-form": "W_f0", "fragment-walsh-closed-form": "W_f0,T",
          "base-nega-closed-form": "N_f0", "fragment-nega-closed-form": "2N_f0,T"}


def _failed_check(report, name):
    failed = {c.name: c for c in report.failures()}
    assert set(failed) == {name}
    return failed[name]


@pytest.mark.parametrize("name, check", [
    ("walsh_transform", "base-walsh-closed-form"),
    ("fragmentary_walsh_spectrum", "fragment-walsh-closed-form"),
])
def test_tampered_walsh_entry_is_named(monkeypatch, name, check):
    want = int(_exact(name).values[TAMPER_POINT])
    _tamper(monkeypatch, name, "values", DELTA)
    failed = _failed_check(oracle.verify_fragmentary_lemma(TAMPER_SPEC), check)
    got = -want if name in BASE_DUALS else want + DELTA
    assert failed.counterexample == (f"at {BitVector(10, TAMPER_POINT)}: {LABELS[check]} "
                                     f"{got} != closed form {want}")


def _moved_nega(name, re, im, delta):
    """N at the tampered point: a flipped W_g(u) = a of ((a + b) + i(a - b))/2
    gives -im - i re, and a W_g(u) moved by 2 delta moves re and im by delta."""
    return (-im, -re) if name in BASE_DUALS else (re + delta, im + delta)


@pytest.mark.parametrize("name, check, scale", [
    ("nega_transform", "base-nega-closed-form", 1),
    ("fragmentary_nega_spectrum", "fragment-nega-closed-form", 2),
])
def test_tampered_nega_entry_is_named(monkeypatch, name, check, scale, nega_parts):
    exact = _exact(name)
    re, im = (int(part[TAMPER_POINT]) for part in nega_parts(exact))
    # N(u) = ((W_g(u) + W_g(u')) + i(W_g(u) - W_g(u'))) / 2, so the tampered
    # W_g(u) moves both parts at u and both at u' = 2^n - 1 - u, which is later
    assert TAMPER_POINT < (1 << exact.n) - 1 - TAMPER_POINT
    _tamper(monkeypatch, name, "wg", 2 * DELTA)
    failed = _failed_check(oracle.verify_fragmentary_lemma(TAMPER_SPEC), check)
    got_re, got_im = _moved_nega(name, re, im, DELTA)
    got = f"{scale * got_re}{scale * got_im:+d}i"
    want = f"{scale * re}{scale * im:+d}i"
    assert failed.counterexample == (f"at {BitVector(10, TAMPER_POINT)}: {LABELS[check]} {got} "
                                     f"!= closed form {want}")


# blocks of 16 points put the tampered point in the third block
@pytest.mark.parametrize("test, args", [
    (test_tampered_walsh_entry_is_named, ("walsh_transform", "base-walsh-closed-form")),
    (test_tampered_walsh_entry_is_named,
     ("fragmentary_walsh_spectrum", "fragment-walsh-closed-form")),
    (test_tampered_nega_entry_is_named, ("nega_transform", "base-nega-closed-form", 1)),
    (test_tampered_nega_entry_is_named,
     ("fragmentary_nega_spectrum", "fragment-nega-closed-form", 2)),
], ids=["base-walsh", "fragment-walsh", "base-nega", "fragment-nega"])
def test_tampered_entry_is_named_across_blocks(monkeypatch, nega_parts, test, args):
    monkeypatch.setattr(spectra, "_BLOCK", 16)
    fixtures = {"nega_parts": nega_parts} if test is test_tampered_nega_entry_is_named else {}
    test(monkeypatch, *args, **fixtures)


# S3 k=4: n = 18, sixteen blocks of 2^14 points.  The point lies in the
# sixth block, off the literal-sum stride of 2^12, and so does its mirror
LATE_SPEC = _spec(4, "S3", ("10110100",), ("B",))
LATE_POINT = 5 * (1 << 14) + 37


@pytest.mark.parametrize("name, field, check", [
    ("walsh_transform", "values", "base-walsh-closed-form"),
    ("fragmentary_walsh_spectrum", "values", "fragment-walsh-closed-form"),
    ("nega_transform", "wg", "base-nega-closed-form"),
    ("fragmentary_nega_spectrum", "wg", "fragment-nega-closed-form"),
])
def test_tampered_entry_in_a_late_block(monkeypatch, name, field, check):
    exact = _exact(name, LATE_SPEC)
    delta = 1 << (exact.n // 2)
    if field == "values":
        w = int(exact.values[LATE_POINT])
        got, want = f"{-w if name in BASE_DUALS else w + delta}", f"{w}"
    else:
        scale = 2 if check.startswith("fragment") else 1
        re, im = exact.value(LATE_POINT)
        got_re, got_im = _moved_nega(name, re, im, delta)
        got = f"{scale * got_re}{scale * got_im:+d}i"
        want = f"{scale * re}{scale * im:+d}i"
    _tamper(monkeypatch, name, field, delta * (1 if field == "values" else 2), LATE_POINT)
    report = oracle.verify_fragmentary_lemma(LATE_SPEC)
    failed = _failed_check(report, check)
    assert failed.counterexample == (f"at {BitVector(18, LATE_POINT)}: {LABELS[check]} {got} "
                                     f"!= closed form {want}")
    monkeypatch.setattr(spectra, "_BLOCK", 1 << 18)  # the whole of n = 18 in one block
    whole = oracle.verify_fragmentary_lemma(LATE_SPEC)
    assert (whole.subject, _verdicts(whole)) == (report.subject, _verdicts(report))


def _patch_table(monkeypatch, table):
    """oracle._predictor with one key table patched in place, where its
    halves read it: a Walsh key with a candidate gains one, a nega key with
    two (the S3 bound) gains a third, or no pair is admissible.  None of
    these moves a predicted value."""
    real = oracle._predictor

    def patched(spec):
        predictor = real(spec)
        if table == "w_count":
            predictor.w_count[predictor.w_count > 0] += 1
        elif table == "n_count":
            predictor.n_count[predictor.n_count == 2] += 1
        else:
            predictor.pair_ok[:] = False
        return predictor

    monkeypatch.setattr(oracle, "_predictor", patched)


# per patched table: which reference points it breaches, and the text it names one with
BREACHES = {
    "w_count": (lambda r: r.walsh_matches > 0,
                lambda r: f"walsh matches {r.walsh_matches + 1} != at most 1"),
    "n_count": (lambda r: r.nega_matches == 2, lambda r: "nega matches 3 != at most 2"),
    "pair_ok": (lambda r: r.nega_matches == 2, lambda r: "admissible structure False != True"),
}


@pytest.mark.parametrize("block", [spectra._BLOCK, 16])
def test_contribution_bound_breach_is_named(monkeypatch, block):
    # each key table patched in turn: the first of the points it breaches, by
    # the reference predictor, is named, and lies past the first 16-point block
    refs = [ref_predict_s3(TAMPER_SPEC, p) for p in range(1 << 10)]
    monkeypatch.setattr(spectra, "_BLOCK", block)
    for table, (breached, text) in BREACHES.items():
        with monkeypatch.context() as mp:
            _patch_table(mp, table)
            report = oracle.verify_fragmentary_lemma(TAMPER_SPEC)
        at = next(p for p, r in enumerate(refs) if breached(r))
        assert at >= 16
        assert _failed_check(report, "contribution-bounds").counterexample == (
            f"at {BitVector(10, at)}: {text(refs[at])}")


# ---------------------------------------------------------------------------
# blocks: the reports do not depend on the block size, and memory is bounded


def _verdicts(report):
    return [(c.name, c.passed, c.details, c.counterexample) for c in report.checks]


@pytest.mark.parametrize("name", sorted(PREDICTOR_SPECS))
def test_reports_do_not_depend_on_block_size(monkeypatch, name):
    spec = PREDICTOR_SPECS[name]
    whole = _verdicts(oracle.verify_fragmentary_lemma(spec))
    n = next(f for f in FAMILY_TABLE.values() if f.set_tag == spec.family).n(spec.k)
    monkeypatch.setattr(spectra, "_BLOCK", 1 << (n - 3))  # eight blocks
    assert _verdicts(oracle.verify_fragmentary_lemma(spec)) == whole


@pytest.mark.parametrize("spec", [TAMPER_SPEC, LATE_SPEC], ids=["n10", "n18"])
def test_check_times_sum_within_the_report(monkeypatch, spec):
    # the GF(2) rule gives both base duals in one call, slowed here by 50 ms:
    # it is charged once, to base-walsh-closed-form, so the checks' times sum
    # to at most the report's
    real = oracle._base_spectra

    def slow(f0):
        time.sleep(0.05)
        return real(f0)

    monkeypatch.setattr(oracle, "_base_spectra", slow)
    report = oracle.verify_fragmentary_lemma(spec)
    assert report.passed, report.failures()
    assert sum(c.elapsed_ms for c in report.checks) <= report.elapsed_ms
    charged = {c.name: c.elapsed_ms for c in report.checks}
    assert charged["base-walsh-closed-form"] >= 50 > charged["base-nega-closed-form"]


@pytest.mark.parametrize("name", ["S1-k2", "S2-k1", "S3-k2", "S4-k1"])
def test_closed_forms_run_once_a_block(monkeypatch, name):
    # each half of the predictor evaluates its base closed form once per
    # block, for the base check and the prediction alike, and nothing
    # evaluates the other base's, but for g0's nega form, which h0's builds on
    spec = PREDICTOR_SPECS[name]
    fam = next(f for f in FAMILY_TABLE.values() if f.set_tag == spec.family)
    other = "h0" if fam.base == "g0" else "g0"
    calls = []
    for kind in ("walsh", "nega"):
        used = getattr(oracle, f"{fam.base}_{kind}_closed_form")

        def counted(t, u, *coordinates, kind=kind, used=used):
            calls.append((kind, np.broadcast(u, *coordinates).size))  # points, grid or flat
            return used(t, u, *coordinates)

        monkeypatch.setattr(oracle, used.__name__, counted)
        if (other, kind) != ("g0", "nega"):
            monkeypatch.setattr(oracle, f"{other}_{kind}_closed_form", None)
    monkeypatch.setattr(spectra, "_BLOCK", 16)
    report = oracle.verify_fragmentary_lemma(spec)
    assert report.passed, report.failures()
    blocks = (1 << fam.n(spec.k)) // 16
    assert calls == [("walsh", 16)] * blocks + [("nega", 16)] * blocks


@pytest.mark.parametrize("name", sorted(PREDICTOR_SPECS))
def test_no_butterfly_runs_on_the_base(monkeypatch, name):
    # the base checks read W_f0 and W_g0 from the GF(2) rule: the only
    # butterflies on f0 are the masked pair
    spec = PREDICTOR_SPECS[name]
    fam = next(f for f in FAMILY_TABLE.values() if f.set_tag == spec.family)
    f0 = base_function(fam.base, fam.base_param(spec.k))
    base = (f0, f0 ^ base_function("sigma2", f0.n))
    real, masked = spectra._spectrum, []

    def refusing(f, nega, t=None):
        assert t is not None or f not in base, "butterfly on the base"
        masked.append(t is not None)
        return real(f, nega, t)

    monkeypatch.setattr(spectra, "_spectrum", refusing)
    oracle._base_spectra.cache_clear()
    report = oracle.verify_fragmentary_lemma(spec)
    assert report.passed, report.failures()
    assert masked == [True, True]


def test_lemma_memory_is_bounded_at_n20():
    # the criterion-12 spec: n = 20, 64 blocks of 2^14 points.  The Walsh
    # pass holds the whole masked Walsh spectrum (one int32 array, 4 MiB),
    # which is dropped before the nega pass takes the masked nega spectrum,
    # beside the base's two rule duals (0.5 MiB with their bytes);
    # everything else, the int32 doubled nega parts included, is per block.
    # The butterfly workspace, kept per thread, is made before the trace, so
    # the peak reads the same alone and in the suite: 6.1 MiB (5.1 MiB if the
    # rule's duals are cached).  The bound leaves 0.7 MiB of margin, and the
    # two masked spectra held at once (11.9 MiB), a butterfly spectrum of the
    # base (4 MiB) or a view that keeps the masked nega spectrum alive past
    # its pass (8.0 MiB) crosses it
    spec = _spec(5, "S1", ("1101001110", "0010110001"))
    spectra._workspace()
    tracemalloc.start()
    try:
        report = oracle.verify_fragmentary_lemma(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed, report.failures()
    assert peak <= 6.8 * 2**20, f"peak {peak / 2**20:.2f} MiB"
