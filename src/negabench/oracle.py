"""Independent verification machinery.

Everything a construction claims is rechecked here by a second route:
definitional (quadratic-time) reference transforms against the butterfly
kernels, closed-form spectrum formulas against exact spectra at every point,
fragment-to-full spectrum ratios against the admissible branch table, and
whole-construction reports covering ANF, flatness, degree parity, duals and
rotation symmetry.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .core import (
    AnfPolynomial,
    BitVector,
    BooleanFunction,
    CapacityError,
    DimensionError,
    InvalidSpecError,
    NotBentError,
    anf_from_truth_table,
    characteristic_function,
    check_capacity,
    rotation_symmetry_order,
    truth_table_from_anf,
)
from .spectra import (
    NegaSpectrum,
    WalshSpectrum,
    classify,
    definitional_sums,
    dual_of_spectrum,
    fragmentary_nega_spectrum,
    fragmentary_walsh_spectrum,
    mm_function,
    nega_transform,
    walsh_transform,
)
from .subspaces import (
    GammaSpec,
    LinearSubspace,
    VectorSet,
    build_T,
    build_modifier_set,
    coset_representatives,
    orbit,
    orthogonal_complement,
    swap_halves,
)
from .constructions import (
    FAMILY_TABLE,
    ConstructedFunction,
    base_function,
    construct,
)
from .reference import ReferenceCase


# ---------------------------------------------------------------------------
# check plumbing


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named verification step."""

    name: str
    passed: bool
    details: str = ""
    counterexample: Optional[str] = None
    elapsed_ms: float = 0.0

    def to_dict(self) -> dict:
        d: dict = {
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample
        return d


@dataclass(frozen=True)
class VerificationReport:
    subject: str
    checks: tuple[CheckResult, ...]
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
        }


class _Checks:
    """Accumulates timed check outcomes for one report."""

    def __init__(self) -> None:
        self.results: list[CheckResult] = []
        self._start = time.perf_counter()
        self._spent_ms: dict[str, float] = {}

    @contextmanager
    def timing(self, name: str) -> Iterator[None]:
        """Charge the enclosed work to check `name`, whose verdict `add` gives later."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._spent_ms[name] = (self._spent_ms.get(name, 0.0)
                                    + (time.perf_counter() - t0) * 1000.0)

    def add(self, name: str, fn: Callable[[], tuple[bool, str, Optional[str]]]) -> None:
        t0 = time.perf_counter()
        passed, details, counterexample = fn()
        self.results.append(
            CheckResult(name, passed, details, counterexample,
                        self._spent_ms.pop(name, 0.0) + (time.perf_counter() - t0) * 1000.0))

    def report(self, subject: str) -> VerificationReport:
        return VerificationReport(
            subject, tuple(self.results),
            (time.perf_counter() - self._start) * 1000.0)


# ---------------------------------------------------------------------------
# definitional reference transforms


_NAIVE_LIMIT = 14


def naive_transforms(f: BooleanFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only int64 (w, re, im) at every point by `definitional_sums` (3 2^(2n-6)
    multiply-adds, so refused above n = 14): the butterfly kernels' cross-check on
    an algorithmically independent route (no butterfly, no sigma2 identity)."""
    if f.n > _NAIVE_LIMIT:
        raise CapacityError(f"naive transforms are limited to n <= {_NAIVE_LIMIT}")
    sums = definitional_sums(f, np.arange(1 << f.n))
    for arr in sums:
        arr.setflags(write=False)
    return sums


# ---------------------------------------------------------------------------
# fragment-to-full spectrum ratios of a flat base


NEGA_BRANCHES = ("0", "1", "i", "-i")


# a sweep-small pass cycles through 8 bases (8 misses, 274 hits), so fewer
# entries rebuild one every pass; an entry is 2^(n+3) bytes, and two bases have
# n = 24, one 22 and two 20, so 8 entries hold at most 307 MiB
@functools.lru_cache(maxsize=8)
def _base_spectra(f0: BooleanFunction) -> tuple[WalshSpectrum, NegaSpectrum]:
    """Both spectra of a base function, with their flatness verdicts once
    scanned.  Every spec of one family and k has the same base."""
    return walsh_transform(f0), nega_transform(f0)


def extract_frame_coefficients(f0: BooleanFunction, t: VectorSet, held: Optional[tuple[
        BooleanFunction, WalshSpectrum, NegaSpectrum]] = None) -> tuple[np.ndarray, np.ndarray]:
    """Branch codes of the fragment ratios of f0 over t at every point, as
    read-only int8 (walsh, nega) arrays.

    Flipping a bent-negabent f0 on t turns each spectrum value into (1 - 2c)
    times the original, where c is the fragment-to-full ratio at that point.
    Flatness survives exactly when |1 - 2c| = 1: Walsh code 0 or 1 (ratio 0
    or 1), nega code 0, 1, 2 or 3 (ratio 0, 1, (1-i)/2 or (1+i)/2, named by
    NEGA_BRANCHES).  -1 marks a point whose ratio is outside that table.

    Each branch is an equality of the int32 spectra of f0 and f1 = f0 + 1_t,
    never a division: with a = W_g(u) and b = W_g(u') for g = f + sigma2,
    N_f1 = N_f0, -N_f0, i N_f0 or -i N_f0 iff (a1, b1) = (a0, b0), (-a0,
    -b0), (b0, -a0) or (-b0, a0).  `held`, a function and its two spectra,
    serves as f1 when its table is f1's.  Raises NotBentError unless f0 is
    bent-negabent (the ratios need flat denominators).
    """
    if f0.n != t.n:
        raise DimensionError("function and subset dimensions differ")
    w0, n0 = _base_spectra(f0)
    if f0.n % 2 or w0.flat_counterexample() is not None:
        raise NotBentError("fragment ratios need a bent base function")
    if n0.flat_counterexample() is not None:
        raise NotBentError("fragment ratios need a negabent base function")
    f1 = f0 ^ characteristic_function(t)
    same = held is not None and held[0] == f1
    w1, n1 = held[1:] if same else (walsh_transform(f1), nega_transform(f1))
    size = 1 << f0.n
    walsh = np.full(size, -1, dtype=np.int8)
    nega = np.full(size, -1, dtype=np.int8)
    # f0 is flat, so no value is 0 and at most one branch holds at a point
    for block in _blocks(size):
        a0, a1 = w0.values[block], w1.values[block]
        for code, a in enumerate((a0, -a0)):
            walsh[block][a1 == a] = code
        mirror = slice(size - block.stop, size - block.start)  # the points u', descending
        a0, b0 = n0.wg[block], n0.wg[mirror][::-1]
        a1, b1 = n1.wg[block], n1.wg[mirror][::-1]
        for code, (a, b) in enumerate(((a0, b0), (-a0, -b0), (b0, -a0), (-b0, a0))):
            nega[block][(a1 == a) & (b1 == b)] = code
    walsh.setflags(write=False)
    nega.setflags(write=False)
    return walsh, nega


# ---------------------------------------------------------------------------
# closed-form base spectra, at every point of an int32 index array
#
# Integer widths: a point is below 2^n <= 2^24 and every key, mask or shift
# of it below that, and each base closed form is 2^(n/2) times a unit (+-1,
# or a power of i for the nega spectra); a doubled predicted fragment value
# is 0, 2N or (1 +- i)N, so no part exceeds 2^(n/2+2) <= 2^14 in magnitude.
# Every array here is int32.  `_points` asserts the point bound, and
# `verify_fragmentary_lemma` the value bound on every closed-form array it
# compares.

_I_RE = np.array([1, 0, -1, 0], dtype=np.int32)
_I_IM = np.array([0, 1, 0, -1], dtype=np.int32)


def _sign(z: np.ndarray, scale: int) -> np.ndarray:
    """scale (-1)^wt(z) at each entry of z, as int32."""
    return np.where(np.bitwise_count(z) & 1, np.int32(-scale), np.int32(scale))


def _combine(nega: tuple[np.ndarray, np.ndarray], a, b) -> tuple[np.ndarray, np.ndarray]:
    """a*N + b*iN for N = (re, im) and integer multipliers a, b."""
    re, im = nega
    return a * re - b * im, a * im + b * re


def _nega_g0(t: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) of the nega spectrum of the 4t-variable base g0 at the points (u, v)."""
    d = v ^ u  # d & (d >> t) = (u' + v') & (u'' + v'')
    scale = _sign(d & (d >> t), 1 << (2 * t))
    e = (t - np.bitwise_count(u)) & 3  # uint8: the wrap mod 256 keeps it mod 4
    return _I_RE.take(e) * scale, _I_IM.take(e) * scale


def split_points(t: int, h0: bool, points) -> tuple[np.ndarray, ...]:
    """Each point as its base's closed forms take it: (u, v) of F_2^(4t) for
    g0, (u, u_m, v, v_m, turn) of F_2^(4t+2) for h0, where turn = u_0 + u_t
    + v_t + v_m says whether N_h0 is a quarter turn of 2N_g0 at (u, v)."""
    x = np.asarray(points, dtype=np.int32)
    m = 2 * t
    if not h0:
        return x & ((1 << m) - 1), x >> m
    big_u, big_v = x & ((1 << (m + 1)) - 1), x >> (m + 1)
    u, v, vm = big_u & ((1 << m) - 1), big_v & ((1 << m) - 1), big_v >> m
    return u, big_u >> m, v, vm, (u ^ (u >> t) ^ (v >> t) ^ vm) & 1


def g0_closed_forms(t: int, u: np.ndarray,
                    v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed forms of the spectra of the 4t-variable base g0 at the points
    (u, v) of `split_points`, as (W, re N, im N)."""
    # wt(u' & u'') + wt(u & v) mod 2, with u & (u >> t) = u' & u''
    return (_sign(u & ((u >> t) ^ v), 1 << (2 * t)), *_nega_g0(t, u, v))


def h0_closed_forms(t: int, u: np.ndarray, um: np.ndarray, v: np.ndarray, vm: np.ndarray,
                    turn: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed forms of the spectra of the (4t+2)-variable base h0 at the
    points of `split_points`, as (W, re N, im N): N is 2N_g0 where the turn
    bit is 0, else 2iN_g0, negated where u_m = 1."""
    # wt(u' & u'') + wt(u & v) + u_m v_m + u_m (v + u >> t)_0 mod 2
    walsh = _sign((u & ((u >> t) ^ v)) ^ (um & (vm ^ v ^ (u >> t))), 2 << (2 * t))
    return (walsh, *_combine(_nega_g0(t, u, v), 2 - 2 * turn, turn * (2 - 4 * um)))


# ---------------------------------------------------------------------------
# closed-form fragment spectra of the four modifier families, at every point


BRANCHES = ("zero", "half", "full")
_HALF, _FULL = 1, 2
# the doubled nega value is a*N + b*iN: a by branch, b = (-1)^s on the half branch
_N_MULTIPLIER = np.array([0, 1, 2], dtype=np.int32)


@dataclass(frozen=True, eq=False)
class _Prediction:
    """Predicted fragment values and contribution counts, one entry a point.
    The nega value is doubled so the half branch (1 + i(-1)^s)/2 * N stays
    integral; `branch` indexes BRANCHES."""

    walsh: np.ndarray
    walsh_matches: np.ndarray
    nega2_re: np.ndarray
    nega2_im: np.ndarray
    nega_matches: np.ndarray
    branch: np.ndarray
    structure_ok: np.ndarray


def _predictor(spec: GammaSpec) -> Callable[[np.ndarray], _Prediction]:
    """The closed-form fragment spectra of an S1..S4 set, read off the spec
    alone, as a function of an array of points.

    A parameter (gamma, eps) contributes at a point exactly when its key
    equals the point's: the half sums (u' + u'', v' + v'') for S1/S3, the
    pair sums of u and of v interleaved for S2/S4, and on the Walsh side of
    S3/S4 also u_m, which is XORed into bit 0 of the u-sum.  No key is wider
    than n/2 bits, so each point looks its candidates up in tables of at most
    2^(n/2) entries, built here once from the spec: 2^n + |Gamma||E| work in
    all, however many blocks the points come in.
    """
    k = spec.k
    pairs = spec.family in ("S2", "S4")
    h0 = spec.e_sets is not None  # S3, S4: the base h0, with u_m and v_m
    t = 2 * k if pairs else k  # the base parameter
    w = 2 * t  # the width of u and of v
    if pairs:
        low, shift = ((1 << w) - 1) // 3, 1  # the low bit of every pair of u

        def sums(z):
            return (z ^ (z >> 1)) & low
    else:
        low, shift = (1 << k) - 1, k

        def sums(z):
            return (z & low) ^ (z >> k)

    # the (gamma, eps) candidates in spec order, and their keys
    cand = np.array([(i, e) for i in range(len(spec.gammas))
                     for e in (spec.e_values(i) if h0 else (0,))], dtype=np.int32)
    gi, eps = cand[:, 0], cand[:, 1]
    g = np.array([gm.bits for gm in spec.gammas], dtype=np.int32)[gi]
    if pairs:
        a, b = sums(g), sums(swap_halves(g, w // 2))
        wk, nk = a | (b << 1), (a ^ low ^ eps) | ((a ^ b ^ low) << 1)
    else:
        g1, g2 = g & low, g >> k
        wk, nk = g2 | ((g1 ^ g2 ^ low) << k), (g1 ^ g2 ^ low ^ eps) | (g1 << k)
    # a point has at most 2|Gamma| <= 2^13 candidates at n <= 24
    w_count = np.bincount(wk | (eps << w), minlength=1 << (w + h0)).astype(np.int32)
    n_count = np.bincount(nk, minlength=1 << w).astype(np.int32)
    # per nega key: the eps of its first candidate, and (S3) whether its first
    # two are distinct gammas sharing gamma_1 with complementary eps
    order = np.argsort(nk, kind="stable")
    sk = nk[order]
    head = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
    first_eps = np.zeros(1 << w, dtype=np.int32)
    first_eps[sk[head]] = eps[order[head]]
    pair_ok = np.zeros(1 << w, dtype=bool)
    if spec.family == "S3":
        two = head[head + 1 < sk.size]
        two = two[sk[two + 1] == sk[two]]
        p, q = order[two], order[two + 1]
        pair_ok[sk[two]] = (gi[p] != gi[q]) & (eps[p] != eps[q]) & (g1[p] == g1[q])

    closed_forms = h0_closed_forms if h0 else g0_closed_forms

    def predict(x: np.ndarray) -> _Prediction:
        # the point split once, for both the closed forms and the keys
        split = split_points(t, h0, x)
        walsh, *nega = closed_forms(t, *split)
        if h0:
            u, um, v, _, turn = split
            turn ^= um
        else:
            (u, v), um = split, 0
        nkey = sums(u) | (sums(v) << shift)
        wkey = (nkey ^ um) | (um << w)
        w_matches, count = w_count.take(wkey), n_count.take(nkey)
        # one h0 candidate gives half of N and two (S3) all of it; one g0
        # candidate gives all of N
        branch = np.minimum(count if h0 else _FULL * count, _FULL)
        s = (turn ^ first_eps.take(nkey)) & 1 if h0 else 0
        half = (branch == _HALF).astype(np.int32)
        nega2 = _combine(nega, _N_MULTIPLIER.take(branch), half * (1 - 2 * s))
        return _Prediction(np.where(w_matches > 0, walsh, 0), w_matches, *nega2, count, branch,
                           (count <= 1) | ((count == 2) & pair_ok.take(nkey)))

    return predict


# per modifier set, the largest admissible number of nega candidates at one point
_LEMMAS = {"S1": 1, "S2": 1, "S3": 2, "S4": 1}


def _fmt(values) -> str:
    """One Walsh value as an int, or one nega value (re, im) as a+bi."""
    if len(values) == 1:
        return str(int(values[0]))
    re, im = map(int, values)
    return f"{re}{im:+d}i"


# points compared at once: every closed-form and predictor array is one block
# long, at most 128 KiB (the int64 nega parts), so each block reuses the heap
# memory the last one freed instead of faulting in fresh pages; at 2^15 an
# n = 18 lemma check takes ten times the page faults, and is slower
_BLOCK = 1 << 14


def _blocks(size: int) -> Iterator[slice]:
    """Points 0..size-1 in consecutive blocks of at most _BLOCK, each as its
    slice of a whole spectrum."""
    for start in range(0, size, _BLOCK):
        yield slice(start, min(size, start + _BLOCK))


def _points(block: slice) -> np.ndarray:
    assert block.stop <= 1 << 24  # the closed forms' int32 widths hold below 2^24
    return np.arange(block.start, block.stop, dtype=np.int32)


def _first_difference(got: tuple, want: tuple) -> Optional[int]:
    """First index where the aligned arrays of got and want differ, or None."""
    if all(np.array_equal(g, w) for g, w in zip(got, want)):
        return None
    return int(np.flatnonzero(np.any([g != w for g, w in zip(got, want)], axis=0))[0])


class _Agreement:
    """Equality of aligned (got, want) spectra at every point, fed block by
    block; the first differing point and both values are the counterexample."""

    def __init__(self, n: int, label: str = "") -> None:
        self.bound = 1 << (n // 2 + 2)
        self.label = label
        self.counterexample: Optional[str] = None

    def feed(self, block: slice, got: tuple, want: tuple) -> None:
        assert all(int(np.abs(w).max()) <= self.bound for w in want)
        if self.counterexample is not None:
            return
        i = _first_difference(got, want)
        if i is not None:
            self.counterexample = (f"point {block.start + i}: {self.label}"
                                   f"{_fmt([g[i] for g in got])} != "
                                   f"{_fmt([w[i] for w in want])}")

    def result(self, details: Callable[[], str]) -> tuple[bool, str, Optional[str]]:
        if self.counterexample is None:
            return True, details(), None
        return False, "", self.counterexample


def verify_fragmentary_lemma(spec: GammaSpec) -> VerificationReport:
    """Compare the closed-form fragment spectra of one modifier set against
    exact masked transforms at every point.

    Also checks the closed-form base spectra, the per-point bound on the
    number of contributing parameters, and (on a deterministic sample) the
    definitional restricted sums against the masked butterfly route.  Two
    passes run over blocks of at most 2^14 points (`_BLOCK`), each holding
    two whole exact spectra: the base pass compares W_f0 and N_f0 with the
    base's closed forms, and frees both before the fragment pass compares
    the masked spectra with the predictions.  Each pass evaluates the base's
    closed forms once per block.  `_predictor` reads only the spec, never
    the set or a spectrum: each point looks its (gamma, eps) candidates up in
    key tables of at most 2^(n/2) entries built once from the spec, so the
    predictions cost 2^n + |Gamma||E| whatever the number of gammas.
    """
    if spec.family not in _LEMMAS:
        raise InvalidSpecError(f"no fragment lemma for family {spec.family!r}")
    bound = _LEMMAS[spec.family]
    fam = next(f for f in FAMILY_TABLE.values() if f.set_tag == spec.family)
    check_capacity(fam.n(spec.k))
    t = fam.base_param(spec.k)
    f0 = base_function(fam.base, t)
    size = 1 << f0.n
    checks = _Checks()

    # the base pass: W_f0 and N_f0, freed before the masked two are taken
    h0 = fam.base == "h0"
    closed_forms = h0_closed_forms if h0 else g0_closed_forms
    base_walsh, base_nega = _Agreement(f0.n), _Agreement(f0.n)
    with checks.timing("base-walsh-closed-form"):
        w0 = walsh_transform(f0)
    with checks.timing("base-nega-closed-form"):
        n0 = nega_transform(f0)
    for block in _blocks(size):
        walsh, *nega = closed_forms(t, *split_points(t, h0, _points(block)))
        with checks.timing("base-walsh-closed-form"):
            base_walsh.feed(block, w0.parts(block), (walsh,))
        with checks.timing("base-nega-closed-form"):
            base_nega.feed(block, n0.parts(block), nega)
    del w0, n0, walsh, nega
    checks.add("base-walsh-closed-form", lambda: base_walsh.result(lambda: f"{size} points"))
    checks.add("base-nega-closed-form", lambda: base_nega.result(lambda: f"{size} points"))

    tset = build_modifier_set(spec)
    wt = fragmentary_walsh_spectrum(f0, tset)
    nt = fragmentary_nega_spectrum(f0, tset)
    walsh_agree, nega_agree = _Agreement(f0.n), _Agreement(f0.n, "2N = ")
    nonzero = 0
    branches = np.zeros(len(BRANCHES), dtype=np.int64)
    max_w = max_n = 0
    over_bound: Optional[str] = None
    predict = _predictor(spec)
    for block in _blocks(size):
        pred = predict(_points(block))
        with checks.timing("fragment-walsh-closed-form"):
            walsh_agree.feed(block, wt.parts(block), (pred.walsh,))
            nonzero += int(np.count_nonzero(pred.walsh_matches))
        with checks.timing("fragment-nega-closed-form"):
            nega_agree.feed(block, tuple(2 * p for p in nt.parts(block)),
                            (pred.nega2_re, pred.nega2_im))
            branches += np.bincount(pred.branch, minlength=len(BRANCHES))
        with checks.timing("contribution-bounds"):
            w, m, ok = pred.walsh_matches, pred.nega_matches, pred.structure_ok
            max_w, max_n = max(max_w, int(w.max())), max(max_n, int(m.max()))
            bad = np.flatnonzero((w > 1) | (m > bound) | ~ok)
            if bad.size and over_bound is None:
                i = int(bad[0])
                over_bound = (f"point {block.start + i}: walsh matches {w[i]}, "
                              f"nega matches {m[i]}, structure ok {bool(ok[i])}")
        del pred  # free this block's arrays before the next block's prediction

    checks.add("fragment-walsh-closed-form", lambda: walsh_agree.result(
        lambda: f"{size} points, {nonzero} nonzero"))

    def branch_counts() -> str:
        detail = " ".join(f"{b}={c}" for b, c in zip(BRANCHES, branches))
        return f"{size} points, branches {detail}"

    checks.add("fragment-nega-closed-form", lambda: nega_agree.result(branch_counts))
    checks.add("contribution-bounds", lambda: (
        (False, "", over_bound) if over_bound is not None else
        (True, f"max walsh matches {max_w}, max nega matches {max_n} (bound {bound})", None)))

    def literal_sample_check():
        sample = slice(0, size, max(1, size // 64))  # every point up to 64, else 64 evenly spaced
        pts = range(size)[sample]
        got, want = definitional_sums(f0, pts, tset), wt.parts(sample) + nt.parts(sample)
        i = _first_difference(got, want)
        if i is None:
            return True, f"{len(pts)} sampled points", None
        kind, cols = ("walsh", slice(0, 1)) if got[0][i] != want[0][i] else ("nega", slice(1, 3))
        return False, "", (f"{kind} point {pts[i]}: definitional {_fmt([a[i] for a in got[cols]])} "
                           f"!= masked butterfly {_fmt([a[i] for a in want[cols]])}")

    checks.add("literal-sum-agreement", literal_sample_check)

    subject = f"{spec.family} fragment lemma k={spec.k} |Gamma|={len(spec.gammas)}"
    return checks.report(subject)


# ---------------------------------------------------------------------------
# reference-case replay


def check_reference_case(case: ReferenceCase) -> VerificationReport:
    """Rebuild a recorded construction and compare against its fixture."""
    cf = construct(case.family, case.spec)
    checks = _Checks()
    anf = anf_from_truth_table(cf.function)

    def terms_check():
        got = anf ^ anf_from_truth_table(cf.base) if case.delta_over_base else anf
        got_masks = frozenset(got.monomials())
        if got_masks == case.expected_terms:
            return True, f"{len(got_masks)} monomials", None
        missing = sorted(case.expected_terms - got_masks)
        extra = sorted(got_masks - case.expected_terms)
        def fmt(masks):
            return ", ".join(AnfPolynomial(cf.n, 1 << m).to_text() for m in masks[:4])
        return False, "", (
            f"{len(missing)} missing ({fmt(missing)}), {len(extra)} extra ({fmt(extra)})")

    checks.add("anf-terms-match", terms_check)

    checks.add("closed-anf-agrees", lambda: (
        cf.closed_anf == anf, f"{anf.term_count()} terms", None))

    def degree_check():
        d = anf.degree()
        return d == case.expected_degree, f"degree {d}", (
            None if d == case.expected_degree else f"expected {case.expected_degree}")

    checks.add("degree", degree_check)

    def flat_check():
        cls = classify(cf.function)
        return cls.is_bent_negabent, "bent and negabent", (
            None if cls.is_bent_negabent else f"bent={cls.is_bent} negabent={cls.is_negabent}")

    checks.add("bent-negabent", flat_check)

    if case.expected_rotation_order is not None:
        def rotation_check():
            order = rotation_symmetry_order(cf.function)
            return (order == case.expected_rotation_order,
                    f"rotation order {order}", None)

        checks.add("rotation-order", rotation_check)

    return checks.report(case.name)


# ---------------------------------------------------------------------------
# relation table between bent and negabent behaviour


def _random_function(rng: np.random.Generator, n: int) -> BooleanFunction:
    nbytes = max(1, (1 << n) // 8)
    return BooleanFunction(n, int.from_bytes(rng.bytes(nbytes), "little"))


def check_table1(k: int = 1) -> VerificationReport:
    """Recheck the classification rows relating the bases, the modifier-set
    indicators and the quadratic symmetric function at parameter k."""
    # the largest table below is the H8K2 base, 8k+2 variables
    check_capacity(max(fam.n(k) for fam in FAMILY_TABLE.values()))
    checks = _Checks()
    n4 = 4 * k
    k2 = 2 * k
    sigma4 = base_function("sigma2", n4)
    g0 = base_function("g0", k)
    h0 = base_function("h0", k)
    f0 = base_function("f0", k)

    def named_flat(f: BooleanFunction, want_bent: bool, want_nega: bool):
        cls = classify(f)
        ok = cls.is_bent == want_bent and cls.is_negabent == want_nega
        return ok, f"bent={cls.is_bent} negabent={cls.is_negabent}", None

    checks.add("sigma2-bent-not-negabent", lambda: named_flat(sigma4, True, False))
    checks.add("g0-bent-negabent", lambda: named_flat(g0, True, True))
    checks.add("h0-bent-negabent", lambda: named_flat(h0, True, True))

    def f0_check():
        cls = classify(f0)
        order = rotation_symmetry_order(f0)
        ok = cls.is_bent_negabent and order == 2
        return ok, f"bent-negabent, rotation order {order}", None

    checks.add("f0-2rs-bent-negabent", f0_check)

    def sweep_chis(specs):
        count = 0
        for spec in specs:
            chi = characteristic_function(build_modifier_set(spec))
            cls = classify(chi)
            if cls.is_bent or not cls.is_negabent:
                return False, "", (
                    f"{spec.family} gammas {[str(g) for g in spec.gammas]}: "
                    f"bent={cls.is_bent} negabent={cls.is_negabent}")
            count += 1
        return True, f"{count} indicator functions", None

    s1_specs = [GammaSpec(k, "S1", (BitVector(k2, g),)) for g in range(1 << k2)]
    checks.add("chi-s1-negabent-not-bent", lambda: sweep_chis(s1_specs))

    pair_basis = [(1 << (2 * i)) | (1 << (2 * i + 1)) for i in range(k2)]
    reps = coset_representatives(LinearSubspace.span(4 * k, pair_basis))
    s2_specs = [GammaSpec(k, "S2", (r,)) for r in reps]
    checks.add("chi-s2-negabent-not-bent", lambda: sweep_chis(s2_specs))

    s3_specs = [GammaSpec(k, "S3", (BitVector(k2, g),), (e,))
                for g in range(1 << k2) for e in ("0", "1", "B")]
    checks.add("chi-s3-negabent-not-bent", lambda: sweep_chis(s3_specs))

    s4_specs = [GammaSpec(k, "S4", (r,), (e,)) for r in reps for e in ("0", "1", "B")]
    checks.add("chi-s4-negabent-not-bent", lambda: sweep_chis(s4_specs))

    unit_orbit = tuple(BitVector(k2, i) for i in orbit(BitVector(k2, 1)))
    t_specs = [GammaSpec(k, "T", unit_orbit, rotation_closed=True),
               GammaSpec(k, "T", (BitVector.ones(k2),), rotation_closed=True)]

    def chi_t_check():
        for spec in t_specs:
            chi = characteristic_function(build_T(spec))
            cls = classify(chi)
            order = rotation_symmetry_order(chi)
            if cls.is_bent or not cls.is_negabent or order != 1:
                return False, "", (
                    f"gammas {[str(g) for g in spec.gammas]}: bent={cls.is_bent} "
                    f"negabent={cls.is_negabent} rotation order {order}")
        return True, f"{len(t_specs)} indicator functions, rotation order 1", None

    checks.add("chi-t-rotation-symmetric-negabent-not-bent", chi_t_check)

    def sums_check():
        cases = [
            (g0, s1_specs[1]),
            (base_function("g0", k2), s2_specs[0]),
            (h0, s3_specs[2]),
            (base_function("h0", k2), s4_specs[1]),
        ]
        for base, spec in cases:
            f = base ^ characteristic_function(build_modifier_set(spec))
            if not classify(f).is_bent_negabent:
                return False, "", f"base + {spec.family} indicator is not bent-negabent"
        ft = f0 ^ characteristic_function(build_T(t_specs[0]))
        if not classify(ft).is_bent_negabent or rotation_symmetry_order(ft) != 2:
            return False, "", "f0 + T indicator lost flatness or 2-rotation symmetry"
        return True, "S1, S2, S3, S4 and T sums all bent-negabent", None

    checks.add("base-plus-indicator-bent-negabent", sums_check)

    def named_exchange_check():
        # adding the quadratic symmetric function swaps the two flatness kinds
        if not classify(g0 ^ sigma4).is_negabent:
            return False, "", "g0 + sigma2 is not negabent"
        chi = characteristic_function(build_modifier_set(s1_specs[1]))
        if not classify(chi ^ sigma4).is_bent:
            return False, "", "S1 indicator + sigma2 is not bent"
        return True, "bent base -> negabent sum; negabent indicator -> bent sum", None

    checks.add("named-sigma2-sums", named_exchange_check)

    def sampled_exchange_check():
        rng = np.random.default_rng(20260814)
        for _ in range(50):
            f = _random_function(rng, n4)
            cls = classify(f)
            shifted = classify(f ^ sigma4)
            if cls.is_negabent != shifted.is_bent or cls.is_bent != shifted.is_negabent:
                return False, "", f"table {f.to_hex()}"
        return True, "50 random functions", None

    checks.add("sigma2-exchange-sampled", sampled_exchange_check)

    return checks.report(f"relation table k={k}")


# ---------------------------------------------------------------------------
# subspace-modification comparison cases


@dataclass(frozen=True)
class SuComparisonCase:
    """A parameter choice under which the subspace-modification recipe would
    have to cover our sets: its linearity condition holds but its coset-
    constancy condition fails at a recorded witness coset."""

    name: str
    base_name: str
    base_t: int
    m: int
    pi: tuple[int, ...]
    phi: BooleanFunction
    l_basis: tuple[int, ...]
    alpha: int
    expected_coset: tuple[int, ...]


def _su_cases() -> tuple[SuComparisonCase, ...]:
    phi4 = truth_table_from_anf(AnfPolynomial.from_monomials(4, [0b0101, 0b1010]))
    phi5 = truth_table_from_anf(AnfPolynomial.from_monomials(5, [0b0101, 0b1010]))
    ident4 = tuple(range(16))
    fold5 = tuple(idx ^ ((idx >> 4) & 1) for idx in range(32))
    return (
        SuComparisonCase(
            name="g0-diagonal-subspace",
            base_name="g0", base_t=2, m=4,
            pi=ident4, phi=phi4,
            l_basis=(0b0101, 0b1010), alpha=1,
            expected_coset=(1, 4, 11, 14),
        ),
        SuComparisonCase(
            name="g0-pair-repetition-subspace",
            base_name="g0", base_t=2, m=4,
            pi=ident4, phi=phi4,
            l_basis=(0b0011, 0b1100), alpha=1,
            expected_coset=(1, 2, 13, 14),
        ),
        SuComparisonCase(
            name="h0-diagonal-subspace",
            base_name="h0", base_t=2, m=5,
            pi=fold5, phi=phi5,
            l_basis=(0b00101, 0b01010, 0b10000), alpha=1,
            expected_coset=(1, 4, 11, 14),
        ),
        SuComparisonCase(
            name="h0-pair-repetition-subspace",
            base_name="h0", base_t=2, m=5,
            pi=fold5, phi=phi5,
            l_basis=(0b00011, 0b01100, 0b10000), alpha=1,
            expected_coset=(1, 2, 13, 14),
        ),
    )


SU_CASES: tuple[SuComparisonCase, ...] = _su_cases()


def check_su_conditions(case: SuComparisonCase) -> VerificationReport:
    """Check that the case's base has the stated shape, that the linearity
    condition on pi holds, and that coset constancy of phi fails at the
    recorded witness coset."""
    checks = _Checks()

    def shape_check():
        built = mm_function(case.pi, case.phi)
        want = base_function(case.base_name, case.base_t)
        return built == want, f"{case.base_name} on {want.n} variables", None

    checks.add("mm-shape-matches-base", shape_check)

    def linear_check():
        size = 1 << case.m
        if sorted(case.pi) != list(range(size)):
            return False, "", "image table is not a permutation"
        if case.pi[0] != 0:
            return False, "", "pi(0) != 0"
        for a in range(size):
            for b in range(size):
                if case.pi[a ^ b] != case.pi[a] ^ case.pi[b]:
                    return False, "", f"pi({a}^{b}) != pi({a})^pi({b})"
        return True, f"additive on all {size * size} pairs", None

    checks.add("pi-linear-permutation", linear_check)

    space = LinearSubspace.span(case.m, case.l_basis)
    perp = orthogonal_complement(space)
    perp_members = sorted(v.bits for v in perp.members())

    def fixes_check():
        image = sorted(case.pi[x] for x in perp_members)
        ok = image == perp_members
        return ok, f"dim L = {space.dim}, dim L-perp = {perp.dim}", None

    checks.add("pi-fixes-dual-subspace", fixes_check)

    def coset_check():
        coset = tuple(sorted(case.alpha ^ x for x in perp_members))
        if coset != case.expected_coset:
            return False, "", f"coset {coset} != recorded {case.expected_coset}"
        values = sorted({case.phi.value(x) for x in coset})
        detail = (f"coset {{{', '.join(str(i) for i in coset)}}} "
                  f"phi values {values}")
        return values == [0, 1], detail, None

    checks.add("coset-constancy-fails", coset_check)

    return checks.report(case.name)


# ---------------------------------------------------------------------------
# whole-construction verification


_NAIVE_CROSSCHECK_LIMIT = 12


def _lowest_bit(x: int) -> int:
    """The first point of a nonempty packed table, without listing the rest."""
    return (x & -x).bit_length() - 1


def verify_construction(cf: ConstructedFunction) -> VerificationReport:
    """Recheck every claim attached to a constructed function.

    ANF against the truth table, flatness of both spectra with Parseval sums,
    the degree parity condition, the closed-form dual (pointwise, flatness
    and involution), admissibility of the fragment ratios over the modifier
    set, rotation symmetry for the rotation-symmetric families, and (when n
    is small enough) agreement of both butterfly spectra with the
    definitional transforms.  Each spectrum is taken once, six butterfly
    passes in all: the dual is read off W_f, the closed dual's W serves its
    flatness and its involution, and the frame codes compare the base's
    spectra with W_f and N_f, or with those of f0 + 1_T if f differs from it.
    """
    checks = _Checks()
    f = cf.function
    n = f.n
    wf = walsh_transform(f)
    nf = nega_transform(f)
    anf = anf_from_truth_table(f)
    degree = anf.degree()

    checks.add("walsh-parseval", lambda: (
        wf.parseval_holds(), f"sum of squares = 2^{2 * n}", None))
    checks.add("nega-parseval", lambda: (
        nf.parseval_holds(), f"sum of squared magnitudes = 2^{2 * n}", None))

    def bent_check():
        bad = wf.flat_failure()
        return bad is None, "" if bad else f"|W| = 2^{n // 2} everywhere", bad

    checks.add("bent", bent_check)

    def negabent_check():
        bad = nf.flat_failure()
        return bad is None, "" if bad else f"|N|^2 = 2^{n} everywhere", bad

    checks.add("negabent", negabent_check)

    def anf_check():
        if anf == cf.closed_anf:
            return True, f"{anf.term_count()} terms, degree {degree}", None
        first = _lowest_bit(anf.coeffs ^ cf.closed_anf.coeffs)
        return False, "", f"first differing monomial {AnfPolynomial(n, 1 << first).to_text()}"

    checks.add("anf-matches-closed-form", anf_check)

    def degree_check():
        dmax = FAMILY_TABLE[cf.family].max_degree(cf.k)
        detail = f"degree {degree}, family max {dmax}, parity flag {cf.predicts_max_degree}"
        if cf.family == "F2RS_ORBIT":
            want = cf.params.vectors[0].weight()
            ok = degree == want and cf.predicts_max_degree == (want == dmax)
            return ok, f"{detail}, orbit weight {want}", None
        if cf.predicts_max_degree:
            return degree == dmax, detail, None
        # when the family maximum is 2 the base is already quadratic, so the
        # parity condition cannot push the degree below it
        if dmax <= 2:
            return degree <= dmax, detail, None
        return degree < dmax, detail, None

    checks.add("degree-parity", degree_check)

    def dual_check():
        try:
            d = dual_of_spectrum(wf)
        except NotBentError as exc:
            return False, "", str(exc)
        if d == cf.closed_dual:
            return True, "pointwise equal", None
        first = _lowest_bit(d.bits ^ cf.closed_dual.bits)
        return False, "", f"first differing point {BitVector(n, first)}"

    checks.add("dual-matches-closed-form", dual_check)

    # the closed dual's spectra, taken once for its flatness and its involution
    with checks.timing("dual-bent-negabent"):
        wd, nd = walsh_transform(cf.closed_dual), nega_transform(cf.closed_dual)

    def dual_flat_check():
        bad_w, bad_n = wd.flat_failure(), nd.flat_failure()
        return (bad_w is None and bad_n is None,
                f"bent={bad_w is None} negabent={bad_n is None}",
                "; ".join(b for b in (bad_w, bad_n) if b) or None)

    checks.add("dual-bent-negabent", dual_flat_check)

    def involution_check():
        try:
            back = dual_of_spectrum(wd)
        except NotBentError as exc:
            return False, "", str(exc)
        if back == f:
            return True, "dual of dual returns the function", None
        i = _lowest_bit(back.bits ^ f.bits)
        return False, "", (f"at {BitVector(n, i)}: dual of dual {back.value(i)} != "
                           f"function {f.value(i)}")

    checks.add("dual-involution", involution_check)

    def frame_check():
        try:
            codes = extract_frame_coefficients(cf.base, cf.modifier_set, (f, wf, nf))
        except NotBentError as exc:
            return False, "", str(exc)
        details = []
        for kind, names, code in zip(("walsh", "nega"), (("0", "1"), NEGA_BRANCHES), codes):
            bad = np.flatnonzero(code < 0)
            if bad.size:  # the first Walsh failure, else the first nega one
                return False, "", f"inadmissible ratio at {BitVector(n, int(bad[0]))}"
            counts = [(b, np.count_nonzero(code == i)) for i, b in enumerate(names)]
            details.append(f"{kind} branches " + " ".join(f"{b}={c}" for b, c in counts if c))
        return True, "; ".join(details), None

    checks.add("fragment-ratios-admissible", frame_check)

    if FAMILY_TABLE[cf.family].rotation_symmetric:
        def rotation_check():
            order = rotation_symmetry_order(f)
            return order == 2, f"rotation order {order}", None

        checks.add("rotation-symmetry-order", rotation_check)

    if n <= _NAIVE_CROSSCHECK_LIMIT:
        def naive_check():
            w, re, im = naive_transforms(f)
            whole = slice(None)
            for kind, fast, naive in (("walsh", wf.parts(whole), (w,)),
                                      ("nega", nf.parts(whole), (re, im))):
                i = _first_difference(fast, naive)
                if i is not None:
                    return False, "", (f"{kind} at {BitVector(n, i)}: butterfly "
                                       f"{_fmt([a[i] for a in fast])} != definitional "
                                       f"{_fmt([a[i] for a in naive])}")
            return True, "butterfly equals definitional sums", None

        checks.add("butterfly-matches-naive", naive_check)

    return checks.report(f"{cf.family} k={cf.k} n={n}")
