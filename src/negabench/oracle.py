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
from typing import Callable, Iterable, Iterator, Optional

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
    cyclic_shift_action,
    rotation_symmetry_order,
    truth_table_from_anf,
)
from .spectra import (
    Classification,
    NegaSpectrum,
    WalshSpectrum,
    _blocks,
    classify,
    definitional_sums,
    dual_of_spectrum,
    fragmentary_nega_spectrum,
    fragmentary_walsh_spectrum,
    mm_function,
    nega_transform,
    quadratic_duals,
    walsh_transform,
)
from .subspaces import (
    GammaSpec,
    VectorSet,
    build_T,
    build_modifier_set,
    orbit,
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
    """Outcome of one named verification step: it passes exactly when it
    names no counterexample, and only a pass carries details."""

    name: str
    details: str = ""
    counterexample: Optional[str] = None
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.counterexample is None

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

    def add(self, name: str, check: Callable[[], Optional[str]],
            details: Callable[[], str]) -> None:
        """Run check `name`: `check()` gives its counterexample, None on a
        pass, and `details()` runs only on a pass."""
        t0 = time.perf_counter()
        counterexample = check()
        text = details() if counterexample is None else ""
        self.results.append(
            CheckResult(name, text, counterexample,
                        self._spent_ms.pop(name, 0.0) + (time.perf_counter() - t0) * 1000.0))

    def report(self, subject: str) -> VerificationReport:
        return VerificationReport(
            subject, tuple(self.results),
            (time.perf_counter() - self._start) * 1000.0)


# Counterexamples read 'at <point|monomial>: <label> <v> != <label> <v>'
# where one point or monomial differs, and '<label> <v> != <v>' for a
# scalar; a point is its bit string, a monomial its ANF text.


def _first(counterexamples: Iterable[Optional[str]]) -> Optional[str]:
    """The first counterexample of a lazy run of checks, or None."""
    return next(filter(None, counterexamples), None)


def _unequal(label: str, got, want) -> Optional[str]:
    """The counterexample of a scalar check, or None when got == want."""
    return None if got == want else f"{label} {got} != {want}"


def _flags(subject: str, cls: Classification, bent: bool = True,
           negabent: bool = True) -> Optional[str]:
    """None when classify gave the flags (bent, negabent), else both pairs."""
    return _unequal(f"{subject}:", f"bent={cls.is_bent} negabent={cls.is_negabent}",
                    f"bent={bent} negabent={negabent}")


def _table_difference(n: int, got: int, want: int, got_label: str, want_label: str,
                      monomials: bool = False) -> Optional[str]:
    """The lowest entry where two packed 2^n-entry tables differ, with both
    bits, or None; the other differences are never listed."""
    diff = got ^ want
    if not diff:
        return None
    i = (diff & -diff).bit_length() - 1
    where = AnfPolynomial(n, 1 << i).to_text() if monomials else BitVector(n, i)
    return f"at {where}: {got_label} {got >> i & 1} != {want_label} {want >> i & 1}"


def _fmt(values) -> str:
    """One Walsh value as an int, or one nega value (re, im) as a+bi."""
    if len(values) == 1:
        return str(int(values[0]))
    re, im = map(int, values)
    return f"{re}{im:+d}i"


class _Agreement:
    """Equality of aligned (got, want) spectra at every point, fed block by
    block (any slice of the 2^n points, strided too); the first differing
    point and both values are the counterexample.  `bounded` asserts the
    int32 width of every wanted part: at most 2^(n/2+2) in magnitude."""

    def __init__(self, n: int, got_label: str, want_label: str, bounded: bool = False) -> None:
        self.n = n
        self.labels = got_label, want_label
        self.bound = 1 << (n // 2 + 2) if bounded else None
        self.counterexample: Optional[str] = None

    def feed(self, block: slice, got: tuple, want: tuple) -> Optional[str]:
        """Compare the points of `block`; gives the counterexample so far."""
        assert self.bound is None or all(int(np.abs(w).max()) <= self.bound for w in want)
        if self.counterexample is None and not all(
                np.array_equal(g, w) for g, w in zip(got, want)):
            i = int(np.flatnonzero(np.any([g != w for g, w in zip(got, want)], axis=0))[0])
            point = BitVector(self.n, range(1 << self.n)[block][i])
            self.counterexample = (f"at {point}: {self.labels[0]} {_fmt([g[i] for g in got])} "
                                   f"!= {self.labels[1]} {_fmt([w[i] for w in want])}")
        return self.counterexample


def _spectra_difference(n: int, block: slice, got: tuple, want: tuple, got_label: str,
                        want_label: str) -> Optional[str]:
    """The first point of `block` where aligned (W, re N, im N) triples
    differ, a W difference before an N one, or None."""
    return _first(_Agreement(n, f"{got_label} {kind}", f"{want_label} {kind}").feed(
        block, got[parts], want[parts]) for kind, parts in (("W", slice(1)), ("N", slice(1, 3))))


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


# W_f0 and W_g0 as packed bent duals; a sweep meets each base many times
_base_spectra = functools.lru_cache(maxsize=8)(quadratic_duals)

# frame codes by index, three bits a point (the base's sign bit, f1's [v = 2^(n/2)]
# and [v = -2^(n/2)]): the branch that takes the base's units to f1's, else -1
_UNITS = [(1 - 2 * (x & 1), (0, 1, -1, 0)[x >> 1]) for x in range(8)]
_WALSH_CODES = np.array([{a: 0, -a: 1}.get(a1, -1) for a, a1 in _UNITS], dtype=np.int8)
_NEGA_CODES = np.array([{(a, b): 0, (-a, -b): 1, (b, -a): 2, (-b, a): 3}.get((a1, b1), -1)
                        for b, b1 in _UNITS for a, a1 in _UNITS], dtype=np.int8)


def extract_frame_coefficients(f0: BooleanFunction, t: VectorSet, held: Optional[tuple[
        BooleanFunction, WalshSpectrum, NegaSpectrum]] = None) -> tuple[np.ndarray, np.ndarray]:
    """Branch codes of the fragment ratios of f0 over t at every point, as
    read-only int8 (walsh, nega) arrays.

    Flipping a bent-negabent f0 on t turns each spectrum value into (1 - 2c)
    times the original, where c is the fragment-to-full ratio at that point.
    Flatness survives exactly when |1 - 2c| = 1: Walsh code 0 or 1 (ratio 0
    or 1), nega code 0, 1, 2 or 3 (ratio 0, 1, (1-i)/2 or (1+i)/2, named by
    NEGA_BRANCHES).  -1 marks a point whose ratio is outside that table.

    Each branch is an equality of the int32 spectra of f1 = f0 + 1_t with
    the base's +-2^(n/2) (`_base_spectra`, by table lookup on their signs):
    with a = W_g(u) and b = W_g(u') for g = f + sigma2, N_f1 = N_f0, -N_f0,
    i N_f0 or -i N_f0 iff (a1, b1) = (a0, b0), (-a0, -b0), (b0, -a0) or (-b0,
    a0).  `held`, a function and its two spectra, serves as f1 when its table
    is f1's.  Raises NotBentError unless f0 is quadratic bent-negabent.
    """
    if f0.n != t.n:
        raise DimensionError("function and subset dimensions differ")
    dual_w, dual_g = _base_spectra(f0)
    f1 = f0 ^ characteristic_function(t)
    same = held is not None and held[0] == f1
    w1, n1 = held[1:] if same else (walsh_transform(f1), nega_transform(f1))
    size, flat = 1 << f0.n, 1 << f0.n // 2
    walsh, nega = np.empty(size, dtype=np.int8), np.empty(size, dtype=np.int8)

    def code(dual: np.ndarray, values: np.ndarray, block: slice) -> np.ndarray:
        # a block starts at a multiple of 8, so its sign bits start a byte
        bits = np.unpackbits(dual[block.start >> 3:], count=values.shape[0], bitorder="little")
        bits |= (values == flat).view(np.uint8) << 1 | (values == -flat).view(np.uint8) << 2
        return bits

    for block in _blocks(size):
        mirror = slice(size - block.stop, size - block.start)  # the points u', descending
        walsh[block] = _WALSH_CODES.take(code(dual_w, w1.values[block], block))
        nega[block] = _NEGA_CODES.take(code(dual_g, n1.wg[block], block)
                                       | code(dual_g, n1.wg[mirror], mirror)[::-1] << 3)
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


def _points(block: slice) -> np.ndarray:
    assert block.stop <= 1 << 24  # the closed forms' int32 widths hold below 2^24
    return np.arange(block.start, block.stop, dtype=np.int32)


def verify_fragmentary_lemma(spec: GammaSpec) -> VerificationReport:
    """Compare the closed-form fragment spectra of one modifier set against
    exact masked transforms at every point.

    Also checks the closed-form base spectra, the per-point bound on the
    number of contributing parameters, and (on a deterministic sample) the
    definitional restricted sums against the masked butterfly route.  Two
    passes run over blocks of at most 2^14 points (`spectra._BLOCK`), each holding
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
    base_walsh = _Agreement(f0.n, "W_f0", "closed form", bounded=True)
    base_nega = _Agreement(f0.n, "N_f0", "closed form", bounded=True)
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
    checks.add("base-walsh-closed-form", lambda: base_walsh.counterexample,
               lambda: f"{size} points")
    checks.add("base-nega-closed-form", lambda: base_nega.counterexample,
               lambda: f"{size} points")

    tset = build_modifier_set(spec)
    wt = fragmentary_walsh_spectrum(f0, tset)
    nt = fragmentary_nega_spectrum(f0, tset)
    walsh_agree = _Agreement(f0.n, "W_f0,T", "closed form", bounded=True)
    nega_agree = _Agreement(f0.n, "2N_f0,T", "closed form", bounded=True)
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
                over_bound = f"at {BitVector(f0.n, block.start + i)}: " + (
                    f"walsh matches {w[i]} != at most 1" if w[i] > 1 else
                    f"nega matches {m[i]} != at most {bound}" if m[i] > bound else
                    "admissible structure False != True")
        del pred  # free this block's arrays before the next block's prediction

    checks.add("fragment-walsh-closed-form", lambda: walsh_agree.counterexample,
               lambda: f"{size} points, {nonzero} nonzero")
    checks.add("fragment-nega-closed-form", lambda: nega_agree.counterexample, lambda: (
        f"{size} points, branches " + " ".join(f"{b}={c}" for b, c in zip(BRANCHES, branches))))
    checks.add("contribution-bounds", lambda: over_bound, lambda: (
        f"max walsh matches {max_w}, max nega matches {max_n} (bound {bound})"))

    # every point up to 64, else 64 evenly spaced
    sample = slice(0, size, max(1, size // 64))

    checks.add("literal-sum-agreement", lambda: _spectra_difference(
        f0.n, sample, definitional_sums(f0, range(size)[sample], tset),
        wt.parts(sample) + nt.parts(sample), "definitional", "masked butterfly"),
        lambda: f"{len(range(size)[sample])} sampled points")

    subject = f"{spec.family} fragment lemma k={spec.k} |Gamma|={len(spec.gammas)}"
    return checks.report(subject)


# ---------------------------------------------------------------------------
# reference-case replay


def check_reference_case(case: ReferenceCase) -> VerificationReport:
    """Rebuild a recorded construction and compare against its fixture."""
    cf = construct(case.family, case.spec)
    checks = _Checks()
    n, anf = cf.n, anf_from_truth_table(cf.function)
    got = anf ^ anf_from_truth_table(cf.base) if case.delta_over_base else anf
    checks.add("anf-terms-match", lambda: _table_difference(
        n, got.coeffs, AnfPolynomial.from_monomials(n, case.expected_terms).coeffs,
        "ANF", "recorded", monomials=True), lambda: f"{got.term_count()} monomials")
    checks.add("closed-anf-agrees", lambda: _table_difference(
        n, cf.closed_anf.coeffs, anf.coeffs, "closed ANF", "ANF", monomials=True),
        lambda: f"{anf.term_count()} terms")
    checks.add("degree", lambda: _unequal("degree", anf.degree(), case.expected_degree),
               lambda: f"degree {case.expected_degree}")
    checks.add("bent-negabent", lambda: _flags(case.name, classify(cf.function)),
               lambda: "bent and negabent")
    if case.expected_rotation_order is not None:
        checks.add("rotation-order", lambda: _unequal(
            "rotation order", rotation_symmetry_order(cf.function), case.expected_rotation_order),
            lambda: f"rotation order {case.expected_rotation_order}")
    return checks.report(case.name)


# ---------------------------------------------------------------------------
# relation table between bent and negabent behaviour


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

    def row(subject: str, f: BooleanFunction, bent: bool = True, negabent: bool = True,
            order: Optional[int] = None) -> Optional[str]:
        """classify's flags on f, then its rotation order when one is asked."""
        return _flags(subject, classify(f), bent, negabent) or (order and _unequal(
            f"{subject} rotation order", rotation_symmetry_order(f), order))

    checks.add("sigma2-bent-not-negabent", lambda: row("sigma2", sigma4, negabent=False),
               lambda: "bent=True negabent=False")
    checks.add("g0-bent-negabent", lambda: row("g0", g0), lambda: "bent=True negabent=True")
    checks.add("h0-bent-negabent", lambda: row("h0", h0), lambda: "bent=True negabent=True")
    checks.add("f0-2rs-bent-negabent", lambda: row("f0", f0, order=2),
               lambda: "bent-negabent, rotation order 2")

    def sweep(name: str, specs: list[GammaSpec], build=build_modifier_set,
              order: Optional[int] = None) -> None:
        """One row a spec: its indicator is negabent, not bent, and of rotation order `order`."""
        checks.add(name, lambda: _first(row(
            f"{spec.family} gammas {[str(g) for g in spec.gammas]}",
            characteristic_function(build(spec)), False, order=order) for spec in specs),
            lambda: f"{len(specs)} indicator functions"
            + ("" if order is None else f", rotation order {order}"))

    s1_specs = [GammaSpec(k, "S1", (BitVector(k2, g),)) for g in range(1 << k2)]
    sweep("chi-s1-negabent-not-bent", s1_specs)

    # the least member of each coset of A_2^(2k): every pair 00 or 10, no odd bit
    odd = 2 * ((1 << n4) - 1) // 3
    reps = [BitVector(n4, x) for x in range(1 << n4) if not x & odd]
    s2_specs = [GammaSpec(k, "S2", (r,)) for r in reps]
    sweep("chi-s2-negabent-not-bent", s2_specs)

    s3_specs = [GammaSpec(k, "S3", (BitVector(k2, g),), (e,))
                for g in range(1 << k2) for e in ("0", "1", "B")]
    sweep("chi-s3-negabent-not-bent", s3_specs)

    s4_specs = [GammaSpec(k, "S4", (r,), (e,)) for r in reps for e in ("0", "1", "B")]
    sweep("chi-s4-negabent-not-bent", s4_specs)

    unit_orbit = tuple(BitVector(k2, i) for i in orbit(BitVector(k2, 1)))
    t_specs = [GammaSpec(k, "T", unit_orbit), GammaSpec(k, "T", (BitVector.ones(k2),))]
    sweep("chi-t-rotation-symmetric-negabent-not-bent", t_specs, build_T, order=1)

    def sums() -> Iterator[Optional[str]]:
        for base, spec in ((g0, s1_specs[1]), (base_function("g0", k2), s2_specs[0]),
                           (h0, s3_specs[2]), (base_function("h0", k2), s4_specs[1])):
            yield row(f"base + {spec.family} indicator",
                      base ^ characteristic_function(build_modifier_set(spec)))
        yield row("f0 + T indicator", f0 ^ characteristic_function(build_T(t_specs[0])), order=2)

    checks.add("base-plus-indicator-bent-negabent", lambda: _first(sums()),
               lambda: "S1, S2, S3, S4 and T sums all bent-negabent")

    def named_exchange_check() -> Optional[str]:
        # adding the quadratic symmetric function swaps the two flatness kinds
        chi = characteristic_function(build_modifier_set(s1_specs[1]))
        return (_unequal("g0 + sigma2 negabent", classify(g0 ^ sigma4).is_negabent, True)
                or _unequal("S1 indicator + sigma2 bent", classify(chi ^ sigma4).is_bent, True))

    checks.add("named-sigma2-sums", named_exchange_check,
               lambda: "bent base -> negabent sum; negabent indicator -> bent sum")

    def exchanged(f: BooleanFunction) -> Optional[str]:
        cls = classify(f)
        return row(f"table {f.to_hex()} + sigma2", f ^ sigma4, cls.is_negabent, cls.is_bent)

    rng = np.random.default_rng(20260814)
    checks.add("sigma2-exchange-sampled", lambda: _first(
        exchanged(BooleanFunction(n4, int.from_bytes(rng.bytes(1 << n4 >> 3), "little")))
        for _ in range(50)), lambda: "50 random functions")

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
    pi: tuple[int, ...]
    phi: BooleanFunction
    l_basis: tuple[int, ...]
    alpha: int
    expected_coset: tuple[int, ...]


_PHI4, _PHI5 = (truth_table_from_anf(AnfPolynomial.from_monomials(m, [0b0101, 0b1010]))
                for m in (4, 5))
_FOLD5 = tuple(idx ^ ((idx >> 4) & 1) for idx in range(32))

SU_CASES: tuple[SuComparisonCase, ...] = (
    SuComparisonCase(
        name="g0-diagonal-subspace",
        base_name="g0", base_t=2,
        pi=tuple(range(16)), phi=_PHI4,
        l_basis=(0b0101, 0b1010), alpha=1,
        expected_coset=(1, 4, 11, 14),
    ),
    SuComparisonCase(
        name="g0-pair-repetition-subspace",
        base_name="g0", base_t=2,
        pi=tuple(range(16)), phi=_PHI4,
        l_basis=(0b0011, 0b1100), alpha=1,
        expected_coset=(1, 2, 13, 14),
    ),
    SuComparisonCase(
        name="h0-diagonal-subspace",
        base_name="h0", base_t=2,
        pi=_FOLD5, phi=_PHI5,
        l_basis=(0b00101, 0b01010, 0b10000), alpha=1,
        expected_coset=(1, 4, 11, 14),
    ),
    SuComparisonCase(
        name="h0-pair-repetition-subspace",
        base_name="h0", base_t=2,
        pi=_FOLD5, phi=_PHI5,
        l_basis=(0b00011, 0b01100, 0b10000), alpha=1,
        expected_coset=(1, 2, 13, 14),
    ),
)


def check_su_conditions(case: SuComparisonCase) -> VerificationReport:
    """Check that the case's base has the stated shape, that the linearity
    condition on pi holds, and that coset constancy of phi fails at the
    recorded witness coset.  Every check that reads pi first names it when
    it is no permutation of F_2^m."""
    checks = _Checks()
    m = case.phi.n  # phi and pi live on F_2^m
    size = 1 << m

    def permutation() -> Optional[str]:
        return _unequal("image table is a permutation", sorted(case.pi) == list(range(size)), True)

    def shape_check() -> Optional[str]:
        want = base_function(case.base_name, case.base_t)
        return (_unequal("variables", 2 * m, want.n) or permutation()
                or _table_difference(want.n, mm_function(case.pi, case.phi).bits, want.bits,
                                     "MM shape", case.base_name))

    checks.add("mm-shape-matches-base", shape_check,
               lambda: f"{case.base_name} on {2 * m} variables")

    # a = b = 0 asks pi(0) = 0
    checks.add("pi-linear-permutation", lambda: permutation() or _first(
        f"at ({a},{b}): pi(a^b) {case.pi[a ^ b]} != pi(a)^pi(b) {case.pi[a] ^ case.pi[b]}"
        for a in range(size) for b in range(size) if case.pi[a ^ b] != case.pi[a] ^ case.pi[b]),
        lambda: f"additive on all {size * size} pairs")

    # L-perp by definition: every x whose dot product with each generator of L is 0
    perp_members = [x for x in range(size) if not any((x & b).bit_count() & 1
                                                      for b in case.l_basis)]
    perp_dim = len(perp_members).bit_length() - 1  # dim L = m - dim L-perp

    checks.add("pi-fixes-dual-subspace", lambda: permutation() or _first(
        _unequal(f"rank {i} of sorted pi(L-perp)", a, b)
        for i, (a, b) in enumerate(zip(sorted(case.pi[x] for x in perp_members), perp_members))),
        lambda: f"dim L = {m - perp_dim}, dim L-perp = {perp_dim}")

    coset = tuple(sorted(case.alpha ^ x for x in perp_members))
    values = sorted({case.phi.value(x) for x in coset})
    checks.add("coset-constancy-fails", lambda: _unequal(
        "coset", str(coset).replace(" ", ""), str(case.expected_coset).replace(" ", ""))
        or _unequal("distinct phi values on the coset", len(values), 2), lambda: (
        f"coset {{{', '.join(str(i) for i in coset)}}} phi values {values}"))

    return checks.report(case.name)


# ---------------------------------------------------------------------------
# whole-construction verification


_NAIVE_CROSSCHECK_LIMIT = 12


def verify_construction(cf: ConstructedFunction) -> VerificationReport:
    """Recheck every claim attached to a constructed function.

    ANF against the truth table, flatness of both spectra with Parseval sums,
    the degree parity condition, the closed-form dual (pointwise, flatness
    and involution), admissibility of the fragment ratios over the modifier
    set, rotation symmetry for the rotation-symmetric families, and (when n
    is small enough) agreement of both butterfly spectra with the
    definitional transforms.  Each spectrum is taken once, four butterfly
    passes in all, six when f's table differs from the rebuilt construction,
    none on the base: the dual is read off W_f, the closed dual's W serves
    its flatness and its involution, and the frame codes compare the base's
    (GF(2) rule) with W_f and N_f, or with those of f0 + 1_T if f is not it.
    """
    checks = _Checks()
    f = cf.function
    n = f.n
    wf = walsh_transform(f)
    nf = nega_transform(f)
    anf = anf_from_truth_table(f)
    degree = anf.degree()

    checks.add("walsh-parseval", lambda: _unequal(
        "sum of squares", wf.parseval_sum(), 1 << (2 * n)),
        lambda: f"sum of squares = 2^{2 * n}")
    checks.add("nega-parseval", lambda: _unequal(
        "sum of squared magnitudes", nf.parseval_sum(), 1 << (2 * n)),
        lambda: f"sum of squared magnitudes = 2^{2 * n}")
    checks.add("bent", wf.flat_failure, lambda: f"|W| = 2^{n // 2} everywhere")
    checks.add("negabent", nf.flat_failure, lambda: f"|N|^2 = 2^{n} everywhere")
    checks.add("anf-matches-closed-form", lambda: _table_difference(
        n, anf.coeffs, cf.closed_anf.coeffs, "ANF", "closed ANF", monomials=True),
        lambda: f"{anf.term_count()} terms, degree {degree}")

    dmax = FAMILY_TABLE[cf.family].max_degree(cf.k)
    orbit_weight = cf.params.vectors[0].weight() if cf.family == "F2RS_ORBIT" else None

    def degree_check() -> Optional[str]:
        # when the family maximum is 2 the base is already quadratic, so the
        # parity condition cannot push the degree below it
        ok, want = ((degree == orbit_weight, f"orbit weight {orbit_weight}") if orbit_weight else
                    (degree == dmax, f"flag predicts {dmax}") if cf.predicts_max_degree else
                    (degree <= dmax, f"flag predicts <={dmax}") if dmax <= 2 else
                    (degree < dmax, f"flag predicts <{dmax}"))
        if not ok:
            top = AnfPolynomial(n, 1 << anf.top_term()).to_text()
            return f"at {top}: degree {degree} != {want}"
        return orbit_weight and _unequal("parity flag", cf.predicts_max_degree,
                                         orbit_weight == dmax)

    checks.add("degree-parity", degree_check, lambda: (
        f"degree {degree}, family max {dmax}, parity flag {cf.predicts_max_degree}"
        + ("" if orbit_weight is None else f", orbit weight {orbit_weight}")))

    def dual_difference(spectrum: WalshSpectrum, want: BooleanFunction, got_label: str,
                        want_label: str) -> Optional[str]:
        try:
            got = dual_of_spectrum(spectrum)
        except NotBentError as exc:
            return str(exc)
        return _table_difference(n, got.bits, want.bits, got_label, want_label)

    checks.add("dual-matches-closed-form", lambda: dual_difference(
        wf, cf.closed_dual, "dual", "closed dual"), lambda: "pointwise equal")

    # the closed dual's spectra, taken once for its flatness and its involution
    with checks.timing("dual-bent-negabent"):
        wd, nd = walsh_transform(cf.closed_dual), nega_transform(cf.closed_dual)
    checks.add("dual-bent-negabent", lambda: "; ".join(
        b for b in (wd.flat_failure(), nd.flat_failure()) if b) or None,
        lambda: "bent=True negabent=True")

    checks.add("dual-involution", lambda: dual_difference(wd, f, "dual of dual", "function"),
               lambda: "dual of dual returns the function")

    # f1 = f0 + 1_T and its spectra, taken once for the codes and for the
    # counterexample; W_f and N_f serve when f is f1
    with checks.timing("fragment-ratios-admissible"):
        f1 = cf.base ^ characteristic_function(cf.modifier_set)
        w1, n1 = (wf, nf) if f1 == f else (walsh_transform(f1), nega_transform(f1))
    frame = functools.cache(
        lambda: extract_frame_coefficients(cf.base, cf.modifier_set, (f1, w1, n1)))

    def frame_check() -> Optional[str]:
        try:
            walsh, nega = frame()
        except NotBentError as exc:  # 'not <property>: <counterexample>' of the base
            kind, _, where = str(exc).partition(": ")
            return f"fragment ratios need a {kind.removeprefix('not ')} base: {where}"
        bad_walsh, bad_nega = np.flatnonzero(walsh < 0), np.flatnonzero(nega < 0)
        if not (bad_walsh.size or bad_nega.size):
            return None
        if bad_walsh.size:  # the first Walsh failure, else the first nega one
            u = int(bad_walsh[0])  # the codes were taken, so |W_f0| = |W_g0| = 2^(n/2)
            return f"at {BitVector(n, u)}: W_f1 {w1.value(u)} != +-W_f0 {1 << n // 2}"
        u, dual_g = int(bad_nega[0]), _base_spectra(cf.base)[1]
        mirror = (1 << n) - 1 - u
        a0, b0 = ((1 - 2 * (int(dual_g[v >> 3]) >> (v & 7) & 1)) << n // 2 for v in (u, mirror))
        return (f"at {BitVector(n, u)}: (W_g1,W_g1') ({n1.wg[u]},{n1.wg[mirror]}) != "
                f"a quarter turn of (W_g0,W_g0') ({a0},{b0})")

    def frame_details() -> str:
        return "; ".join(
            f"{kind} branches " + " ".join(f"{b}={c}" for b, c in (
                (b, np.count_nonzero(code == i)) for i, b in enumerate(names)) if c)
            for kind, names, code in zip(("walsh", "nega"), (("0", "1"), NEGA_BRANCHES), frame()))

    checks.add("fragment-ratios-admissible", frame_check, frame_details)

    if FAMILY_TABLE[cf.family].rotation_symmetric:
        def rotation_check() -> Optional[str]:
            # the order is 2 exactly when rho^2 fixes f and rho does not
            return _table_difference(n, cyclic_shift_action(f, 2).bits, f.bits,
                                     "f(rho^2 x)", "f(x)") or (
                _unequal("rotation order", 1, 2) if cyclic_shift_action(f, 1) == f else None)

        checks.add("rotation-symmetry-order", rotation_check, lambda: "rotation order 2")

    if n <= _NAIVE_CROSSCHECK_LIMIT:
        whole = slice(None)
        checks.add("butterfly-matches-naive", lambda: _spectra_difference(
            n, whole, wf.parts(whole) + nf.parts(whole), naive_transforms(f),
            "butterfly", "definitional"), lambda: "butterfly equals definitional sums")

    return checks.report(f"{cf.family} k={cf.k} n={n}")
