"""Independent verification machinery.

Everything a construction claims is rechecked here by a second route:
definitional (quadratic-time) reference transforms against the butterfly
kernels, closed-form spectrum formulas against exact spectra at every point
(a base's from the GF(2) rule, a fragment's from the masked butterfly),
fragment-to-full spectrum ratios against the admissible branch table, and
whole-construction reports on ANF, flatness, degree parity, duals and rotation symmetry.
"""

from __future__ import annotations

import functools
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

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
    _first_flagged,
    _grid_sums,
    classify,
    classify_many,
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
    E_SYMBOLS,
    SET_SHAPES,
    GammaSpec,
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


def _difference(n: int, block: slice, got: tuple, want: tuple, got_label: str,
                want_label: str) -> Optional[str]:
    """The first point of `block` (any slice of the 2^n points, strided too)
    where aligned (got, want) spectra differ, with both values, or None."""
    if all(np.array_equal(g, w) for g, w in zip(got, want)):
        return None
    i = int(np.flatnonzero(np.any([g != w for g, w in zip(got, want)], axis=0))[0])
    return (f"at {BitVector(n, range(1 << n)[block][i])}: {got_label} "
            f"{_fmt([g[i] for g in got])} != {want_label} {_fmt([w[i] for w in want])}")


def _spectra_difference(n: int, block: slice, got: tuple, want: tuple, got_label: str,
                        want_label: str) -> Optional[str]:
    """The first point of `block` where aligned (W, re N, im N) triples
    differ, a W difference before an N one, or None."""
    return _first(_difference(n, block, got[parts], want[parts], f"{got_label} {kind}",
                              f"{want_label} {kind}")
                  for kind, parts in (("W", slice(1)), ("N", slice(1, 3))))


# ---------------------------------------------------------------------------
# definitional reference transforms


_NAIVE_LIMIT = 14


def naive_transforms(f: BooleanFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only int64 (w, re, im) at every u = 64 u_hi + u_lo by `_grid_sums` on the whole
    grid (3 2^(2n-6) multiply-adds, so refused above n = 14): the butterfly kernels'
    cross-check on an algorithmically independent route (no butterfly, no sigma2 identity)."""
    if f.n > _NAIVE_LIMIT:
        raise CapacityError(f"naive transforms are limited to n <= {_NAIVE_LIMIT}")
    size = 1 << f.n
    grid = _grid_sums(f, np.arange(min(64, size)), np.arange(max(1, size >> 6), dtype=np.uint32))
    sums = grid.reshape(3, size).astype(np.int64)
    sums.setflags(write=False)
    return tuple(sums)


# ---------------------------------------------------------------------------
# fragment-to-full spectrum ratios of a flat base


NEGA_BRANCHES = ("0", "1", "i", "-i")


# W_f0 and W_g0 as bent duals; a sweep meets each base many times
_base_spectra = functools.lru_cache(maxsize=8)(quadratic_duals)

# each byte with its bits reversed: a packed table read backwards so holds u' = 2^n - 1 - u at u
_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def extract_frame_coefficients(f0: BooleanFunction, w1: WalshSpectrum, n1: NegaSpectrum
                               ) -> tuple[np.ndarray, np.ndarray]:
    """How many points take each branch of the fragment ratios of f0 over T,
    as int64 (walsh, nega) counts in ("0", "1") and NEGA_BRANCHES order, from
    f1 = f0 + 1_T's spectra w1, n1.

    Flipping a bent-negabent f0 on T turns each spectrum value into (1 - 2c)
    times the original, where c is the fragment-to-full ratio at that point.
    Flatness survives exactly when |1 - 2c| = 1: Walsh ratio 0 or 1, nega
    ratio 0, 1, (1-i)/2 or (1+i)/2.  The GF(2) rule (`_base_spectra`)
    certifies every base value +-2^(n/2), so every ratio is admissible
    exactly when f1 is bent and negabent, and its branch is then a matter of
    signs: Walsh branch 1 where W_f1 = -W_f0, and with a = W_g(u) and b =
    W_g(u') for g = f + sigma2, N_f1 = N_f0, -N_f0, i N_f0 or -i N_f0 iff
    (a1, b1) = (a0, b0), (-a0, -b0), (b0, -a0) or (-b0, a0).  On packed sign
    bits (1 where negative), with x = a0^a1, y = b0^b1, z = b0^a1 and v =
    a0^b1, these are ~(x|y), x&y, v&~z and z&~v, and as x^y = z^v, each
    point takes one: the popcounts of x&y, x|y and v&(x^y) give all four.
    Raises NotBentError unless f0 is quadratic bent-negabent and f1 is bent
    and negabent, naming the first point that is not flat.
    """
    if not f0.n == w1.n == n1.n:
        raise DimensionError("function and spectra dimensions differ")
    dual_w, dual_g = _base_spectra(f0)
    if failure := w1.flat_failure() or n1.flat_failure():
        raise NotBentError(f"f1 = f0 + 1_T not flat: {failure}")
    size = 1 << f0.n  # n >= 4 for a bent-negabent base: every block is whole bytes
    table = dual_g.table_bytes
    counts = [0, 0, 0, 0]  # the popcounts of w0^w1, x&y, x|y and v&(x^y)
    for block in _blocks(size):
        at = slice(block.start >> 3, block.stop >> 3)
        signs = np.packbits(np.array((w1.values[block], n1.wg[block], n1.wg[::-1][block])) < 0,
                            axis=1, bitorder="little")  # W_f1, a1, b1
        w0, a0, b0, w, a1, b1 = (int.from_bytes(row.tobytes(), "little") for row in (
            dual_w.table_bytes[at], table[at], _REVERSED.take(table[::-1][at]), *signs))
        x, y, v = a0 ^ a1, b0 ^ b1, a0 ^ b1
        counts = [c + p.bit_count() for c, p in zip(counts, (w0 ^ w, x & y, x | y, v & (x ^ y)))]
    flips, both, either, quarter = counts
    return (np.array([size - flips, flips], dtype=np.int64),
            np.array([size - either, both, quarter, either - both - quarter], dtype=np.int64))


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
    return np.int32(scale) - np.int32(2 * scale) * (np.bitwise_count(z) & 1)


def _combine(nega: tuple[np.ndarray, np.ndarray], a, b) -> tuple[np.ndarray, np.ndarray]:
    """a*N + b*iN for N = (re, im) and integer multipliers a, b."""
    re, im = nega
    return a * re - b * im, a * im + b * re


def split_points(t: int, h0: bool, points) -> tuple[np.ndarray, ...]:
    """Each point as its base's closed forms take it: (u, v) of F_2^(4t) for
    g0, (u, u_m, v, v_m, turn) of F_2^(4t+2) for h0, where turn = u_0 + u_t
    + v_t + v_m says whether N_h0 is a quarter turn of 2N_g0 at (u, v).  A block
    (a slice) of whole rows of 2^(2t+h0) points is split as a grid, u-parts (u,
    u_m) a row and v-parts a column, so terms in u or v alone run once a block."""
    m, bits = 2 * t, 2 * t + h0  # bits: of u, with u_m
    if isinstance(points, slice) and not (points.start | points.stop) & ((1 << bits) - 1):
        big_u = _points(slice(0, 1 << bits))
        big_v = _points(slice(points.start, points.stop, 1 << bits))[:, None] >> bits
    else:
        x = _points(points) if isinstance(points, slice) else np.asarray(points, dtype=np.int32)
        big_u, big_v = x & ((1 << bits) - 1), x >> bits
    if not h0:
        return big_u, big_v
    u, v, vm = big_u & ((1 << m) - 1), big_v & ((1 << m) - 1), big_v >> m
    return u, big_u >> m, v, vm, ((u ^ (u >> t)) & 1) ^ (((v >> t) ^ vm) & 1)


def g0_walsh_closed_form(t: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """W of the 4t-variable base g0 at the points (u, v) of `split_points`."""
    # wt(u' & u'') + wt(u & v) mod 2, with u & (u >> t) = u' & u''
    return _sign(u & ((u >> t) ^ v), 1 << (2 * t))


def g0_nega_closed_form(t: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(re N, im N) of the 4t-variable base g0 at the points (u, v) of `split_points`."""
    d = v ^ u  # d & (d >> t) = (u' + v') & (u'' + v'')
    scale = _sign(d & (d >> t), 1 << (2 * t))
    e = (t - np.bitwise_count(u)) & 3  # uint8: the wrap mod 256 keeps it mod 4
    return _I_RE.take(e) * scale, _I_IM.take(e) * scale


def h0_walsh_closed_form(t: int, u: np.ndarray, um: np.ndarray, v: np.ndarray, vm: np.ndarray,
                         _turn: np.ndarray) -> np.ndarray:
    """W of the (4t+2)-variable base h0 at the points of `split_points`."""
    # wt(u' & u'') + wt(u & v) + u_m v_m + u_m (v + u >> t)_0 mod 2
    return _sign((u & ((u >> t) ^ v)) ^ (um & (vm ^ v ^ (u >> t))), 2 << (2 * t))


def h0_nega_closed_form(t: int, u: np.ndarray, um: np.ndarray, v: np.ndarray, _vm: np.ndarray,
                        turn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(re N, im N) of the (4t+2)-variable base h0 at the points of `split_points`:
    2N_g0 where the turn bit is 0, else 2iN_g0, negated where u_m = 1."""
    return _combine(g0_nega_closed_form(t, u, v), 2 - 2 * turn, turn * (2 - 4 * um))


# ---------------------------------------------------------------------------
# closed-form fragment spectra of the four modifier families, at every point


BRANCHES = ("zero", "half", "full")
_HALF, _FULL = 1, 2  # the doubled nega value is a*N + b*iN, a the branch's index


class _Predictor(NamedTuple):
    """The two halves of `_predictor`, and the key tables they read.  A nega
    value N is (re, im), and the predicted one is doubled so the half branch
    (1 + i(-1)^s)/2 * N stays integral; a branch indexes BRANCHES."""

    walsh: Callable  # points or a block -> (W_f0, the predicted W_f0,T) at each point
    nega: Callable  # points or a block -> (N_f0, the predicted 2N_f0,T) at each point
    keys: Callable  # points or a block -> (their Walsh keys, their nega keys)
    w_count: np.ndarray  # per Walsh key, its number of (gamma, eps) candidates
    n_count: np.ndarray  # per nega key, its number of candidates
    branch: np.ndarray  # per nega key, its branch
    pair_ok: np.ndarray  # per nega key, whether its candidates are S3's admissible pair


def _predictor(spec: GammaSpec) -> _Predictor:
    """The closed-form fragment spectra of an S1..S4 set, read off the spec
    alone, as functions of points or a block, one for each spectrum.

    A parameter (gamma, eps) contributes at a point exactly when its key
    equals the point's: the half sums (u' + u'', v' + v'') for S1/S3, the
    pair sums of u and of v interleaved for S2/S4, and on the Walsh side of
    S3/S4 also u_m, which is XORed into bit 0 of the u-sum.  No key is wider
    than n/2 bits, so each point looks its candidates up in tables of at most
    2^(n/2) entries, built here once from the spec: 2^n + |Gamma||E| work in
    all, however many blocks the points come in.
    """
    k, shape = spec.k, spec.shape
    pairs = shape.pairs
    h0 = spec.e_sets is not None  # S3, S4: the base h0, with u_m and v_m
    t = shape.t_per_k * k  # the base parameter
    w = 2 * t  # the width of u and of v
    # the low bit of every pair of u, else the low half of u
    low, shift = (((1 << w) - 1) // 3, 1) if pairs else ((1 << k) - 1, k)

    def sums(z):  # the sum of each pair of z's bits, else of its two halves
        return (z ^ (z >> 1)) & low if pairs else (z & low) ^ (z >> k)

    # the (gamma, eps) candidates in spec order, and their keys
    cand = np.array([(i, e) for i in range(len(spec.gammas))
                     for e in spec.e_values(i)], dtype=np.int32)
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
    # per nega key, its candidates' eps summed: a lone one's eps, and for two
    # (S3) 1 when they are the admissible pair, as an S3 key fixes gamma_1 and
    # gamma_2 + eps: its candidates are distinct gammas that share gamma_1
    eps_sum = np.bincount(nk, weights=eps, minlength=1 << w).astype(np.int32)
    pair_ok = (eps_sum == 1) & (shape.bound == 2)
    # one h0 candidate gives half of N, two (S3) all of it; one g0 candidate all of N.
    # On the half branch b = (-1)^(turn + u_m + eps): per key, its eps part
    branch = np.minimum(n_count if h0 else _FULL * n_count, _FULL)
    half_sign = (branch == _HALF) * (1 - 2 * (eps_sum & 1))
    walsh_form, nega_form = ((h0_walsh_closed_form, h0_nega_closed_form) if h0 else
                             (g0_walsh_closed_form, g0_nega_closed_form))

    def nega_key(split: tuple, um=0) -> np.ndarray:  # intp, so a table takes it as is
        return ((sums(split[0]).astype(np.intp) ^ um) | (um << w)
                | (sums(split[2 if h0 else 1]).astype(np.intp) << shift))

    def walsh_key(split: tuple) -> np.ndarray:  # u_m XORed into bit 0, and above the key
        return nega_key(split, split[1]) if h0 else nega_key(split)

    def walsh(x) -> tuple:
        split = split_points(t, h0, x)  # once, for both the closed form and the key
        base = walsh_form(t, *split)
        return base.ravel(), (base * (w_count.take(walsh_key(split)) > 0)).ravel()

    def nega(x) -> tuple:
        split = split_points(t, h0, x)
        base, nkey = nega_form(t, *split), nega_key(split)
        a = branch.take(nkey)
        nega2 = (_combine(base, a, half_sign.take(nkey) * (1 - 2 * ((split[-1] ^ split[1]) & 1)))
                 if h0 else (a * base[0], a * base[1]))
        return tuple(tuple(p.ravel() for p in pair) for pair in (base, nega2))

    return _Predictor(walsh, nega, lambda x: (walsh_key(s := split_points(t, h0, x)), nega_key(s)),
                      w_count, n_count, branch, pair_ok)


def _points(block: slice) -> np.ndarray:
    assert block.stop <= 1 << 24  # the closed forms' int32 widths hold below 2^24
    return np.arange(block.start, block.stop, block.step or 1, dtype=np.int32)


def verify_fragmentary_lemma(spec: GammaSpec) -> VerificationReport:
    """Compare the closed-form fragment spectra of one modifier set against
    exact masked transforms at every point.

    Also checks the closed-form base spectra against the GF(2) rule's exact
    W_f0 and W_g0 (`_base_spectra`, no butterfly), the bound on the number
    of contributing parameters, read off `_predictor`'s key tables, and (on
    a deterministic sample) the definitional restricted sums against the
    masked butterfly route.  A Walsh pass, then a nega pass, runs over blocks
    of at most 2^14 points (`spectra._BLOCK`), holding its one whole masked
    spectrum; per block, its half of `_predictor` evaluates the base's
    closed form once, for the base check and the prediction alike.
    """
    shape = spec.shape
    bound = shape.bound
    if not bound:
        raise InvalidSpecError(f"no fragment lemma for family {spec.family!r}")
    check_capacity(shape.n(spec.k))
    f0 = base_function(shape.base, shape.t_per_k * spec.k)
    n = f0.n
    size, scale = 1 << n, 1 << (n // 2)
    checks = _Checks()
    # the rule gives both duals at once: its one call is charged to the first base check
    with checks.timing("base-walsh-closed-form"):
        dual_w, dual_g = _base_spectra(f0)

    tset = build_modifier_set(spec)
    predictor = _predictor(spec)
    # each check's first counterexample, or None
    base_walsh = base_nega = walsh_agree = nega_agree = None
    sample = slice(0, size, max(1, size // 64))  # every point up to 64, else 64 evenly spaced
    with checks.timing("fragment-walsh-closed-form"):
        wt = fragmentary_walsh_spectrum(f0, tset)
    for block in _blocks(size):
        with checks.timing("fragment-walsh-closed-form"):
            base, walsh = predictor.walsh(block)
            assert max(int(np.abs(v).max()) for v in (base, walsh)) <= 1 << (n // 2 + 2)
            walsh_agree = walsh_agree or _difference(
                n, block, wt.parts(block), (walsh,), "W_f0,T", "closed form")
        with checks.timing("base-walsh-closed-form"):
            exact = scale * (1 - 2 * dual_w.value_array(block).astype(np.int32))  # int32
            base_walsh = base_walsh or _difference(n, block, (exact,), (base,), "W_f0",
                                                   "closed form")
    sampled = (wt.parts(sample)[0].copy(),)  # a copy, so no view keeps wt alive
    del wt  # before the nega spectrum is taken: one whole spectrum at a time
    with checks.timing("fragment-nega-closed-form"):
        nt = fragmentary_nega_spectrum(f0, tset)
    for block in _blocks(size):
        with checks.timing("fragment-nega-closed-form"):
            base, nega2 = predictor.nega(block)
            assert max(int(np.abs(v).max()) for v in (*base, *nega2)) <= 1 << (n // 2 + 2)
            wg, wg_mirror = nt.wg[block], nt.wg[::-1][block]  # at u and u': 2N = sum, difference
            nega_agree = nega_agree or _difference(
                n, block, (wg + wg_mirror, wg - wg_mirror), nega2, "2N_f0,T", "closed form")
        with checks.timing("base-nega-closed-form"):  # a, b = W_g0(u), W_g0(u'): from sign
            # bits p, q (the table read backwards for u'), re N = (a + b)/2 = 2^(n/2) (1 - p - q)
            # and im N = (a - b)/2 = 2^(n/2) (q - p), from int8 units
            at = slice(block.start >> 3, (block.stop + 7) >> 3)
            p, q = np.unpackbits(np.array((dual_g.table_bytes[at], _REVERSED.take(
                dual_g.table_bytes[::-1][at]))), axis=1, bitorder="little").view(np.int8)[
                    :, block.start & 7:][:, :block.stop - block.start]
            base_nega = base_nega or _difference(n, block, np.multiply(
                (1 - p - q, q - p), scale, dtype=np.int32), base, "N_f0", "closed form")
    sampled += nt.parts(sample)
    del nt, wg, wg_mirror  # with the last block's views of it
    # both key maps are linear and onto (`sums` reaches every value, u_m is a free bit), so
    # 2^n / (table size) points share each key: the tables' tallies and verdicts are the points'
    w_count, n_count, branch = predictor.w_count, predictor.n_count, predictor.branch

    def over_bound() -> Optional[str]:  # scans the points only to name a bad key's first
        w_bad, n_bad = w_count > 1, (n_count > bound) | ((n_count == 2) & ~predictor.pair_ok)
        if not (w_bad.any() or n_bad.any()):
            return None
        at = _first_flagged(size, lambda block: np.logical_or(*map(  # a bad Walsh or nega key
            np.take, (w_bad, n_bad), predictor.keys(block))))
        (w,), (m,) = map(np.take, (w_count, n_count), predictor.keys(slice(at, at + 1)))
        return f"at {BitVector(n, at)}: " + (
            f"walsh matches {w} != at most 1" if w > 1 else
            f"nega matches {m} != at most {bound}" if m > bound else
            "admissible structure False != True")

    checks.add("base-walsh-closed-form", lambda: base_walsh, lambda: f"{size} points")
    checks.add("base-nega-closed-form", lambda: base_nega, lambda: f"{size} points")
    checks.add("fragment-walsh-closed-form", lambda: walsh_agree, lambda: (
        f"{size} points, {np.count_nonzero(w_count) * (size // w_count.size)} nonzero"))
    checks.add("fragment-nega-closed-form", lambda: nega_agree, lambda: f"{size} points, branches "
               + " ".join(f"{b}={c * (size // branch.size)}" for b, c in zip(BRANCHES, np.bincount(
                   branch, minlength=len(BRANCHES)))))
    checks.add("contribution-bounds", over_bound, lambda: (
        f"max walsh matches {w_count.max()}, max nega matches {n_count.max()} (bound {bound})"))
    checks.add("literal-sum-agreement", lambda: _spectra_difference(
        n, sample, definitional_sums(f0, range(size)[sample], tset), sampled,
        "definitional", "masked butterfly"), lambda: f"{len(range(size)[sample])} sampled points")

    return checks.report(f"{spec.family} fragment lemma k={spec.k} |Gamma|={len(spec.gammas)}")


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


def _classified(fs: Iterable[BooleanFunction]) -> Iterator[tuple[BooleanFunction, Classification]]:
    """Each of a lazy run of functions of one n with its `classify_many` flags."""
    held: deque[BooleanFunction] = deque()
    for cls in classify_many(held.append(f) or f for f in fs):
        yield held.popleft(), cls


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
            order: Optional[int] = None, cls: Optional[Classification] = None) -> Optional[str]:
        """classify's flags on f (cls, when given), then its rotation order when one is asked."""
        return _flags(subject, cls or classify(f), bent, negabent) or (order and _unequal(
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
            f"{spec.family} gammas {[str(g) for g in spec.gammas]}", f, False, order=order,
            cls=cls) for spec, (f, cls) in zip(specs, _classified(
                characteristic_function(build(spec)) for spec in specs))),
            lambda: f"{len(specs)} indicator functions"
            + ("" if order is None else f", rotation order {order}"))

    picks = {}  # per S shape, the sweep's second spec: gamma 1, or on h0 gamma 0 with E 1
    for tag, shape in SET_SHAPES.items():
        if tag == "T":  # swept below, on rotation-closed gamma sets
            continue
        glen = 2 * shape.t_per_k * k
        # pair-shaped: the least member of each coset of A_2^(2k), every pair 00 or 10
        odd = 2 * ((1 << glen) - 1) // 3 if shape.pairs else 0
        esets = [(e,) for e in E_SYMBOLS] if shape.base == "h0" else [None]
        specs = [GammaSpec(k, tag, (BitVector(glen, g),), e)
                 for g in range(1 << glen) if not g & odd for e in esets]
        sweep(f"chi-{tag.lower()}-negabent-not-bent", specs)
        picks[tag] = specs[1]

    unit_orbit = tuple(BitVector(k2, i) for i in orbit(BitVector(k2, 1)))
    t_specs = [GammaSpec(k, "T", unit_orbit), GammaSpec(k, "T", (BitVector.ones(k2),))]
    sweep("chi-t-rotation-symmetric-negabent-not-bent", t_specs, build_T, order=1)

    def sums() -> Iterator[Optional[str]]:
        for tag, spec in picks.items():
            base = base_function(SET_SHAPES[tag].base, SET_SHAPES[tag].t_per_k * k)
            yield row(f"base + {tag} indicator",
                      base ^ characteristic_function(build_modifier_set(spec)))
        yield row("f0 + T indicator", f0 ^ characteristic_function(build_T(t_specs[0])), order=2)

    checks.add("base-plus-indicator-bent-negabent", lambda: _first(sums()),
               lambda: "S1, S2, S3, S4 and T sums all bent-negabent")

    def named_exchange_check() -> Optional[str]:
        # adding the quadratic symmetric function swaps the two flatness kinds
        chi = characteristic_function(build_modifier_set(picks["S1"]))
        return (_unequal("g0 + sigma2 negabent", classify(g0 ^ sigma4).is_negabent, True)
                or _unequal("S1 indicator + sigma2 bent", classify(chi ^ sigma4).is_bent, True))

    checks.add("named-sigma2-sums", named_exchange_check,
               lambda: "bent base -> negabent sum; negabent indicator -> bent sum")

    def exchanged() -> Iterator[Optional[str]]:  # each table, then its sum, in one run
        both = _classified(g for _ in range(50) for f in [BooleanFunction(
            n4, int.from_bytes(rng.bytes(1 << n4 >> 3), "little"))] for g in (f, f ^ sigma4))
        for (f, cls), (g, swapped) in zip(both, both):
            yield row(f"table {f.to_hex()} + sigma2", g, cls.is_negabent, cls.is_bent, cls=swapped)

    rng = np.random.default_rng(20260814)
    checks.add("sigma2-exchange-sampled", lambda: _first(exchanged()),
               lambda: "50 random functions")

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
    its flatness and its involution, and the frame check's verdict is the
    flatness of W_f and N_f, or of those of f0 + 1_T if f is not it, over a
    base the GF(2) rule certifies flat; its frame branch counts popcount their
    packed sign bits against the base's.  W_f and N_f, then f1's, are read and
    dropped before the closed dual's are taken: one pair of 2^n spectra is
    live at a time, and each verdict keeps its place in the report.
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

    # the last readers of W_f and N_f, then of f1's, run before the closed dual's
    # spectra are taken (one pair live at a time); each verdict is added below
    if n <= _NAIVE_CROSSCHECK_LIMIT:
        with checks.timing("butterfly-matches-naive"):
            whole = slice(None)
            naive = _spectra_difference(n, whole, wf.parts(whole) + nf.parts(whole),
                                        naive_transforms(f), "butterfly", "definitional")

    def frame_check() -> Optional[str]:
        try:
            dual_g = _base_spectra(cf.base)[1]
        except NotBentError as exc:  # 'not <property>: <counterexample>' of the base
            kind, _, where = str(exc).partition(": ")
            return f"fragment ratios need a {kind.removeprefix('not ')} base: {where}"
        # |W_f0| = |W_g0| = 2^(n/2), so a ratio is admissible exactly where f1 is
        # flat: the first Walsh failure, else the first nega one
        if (u := w1.flat_counterexample) is not None:
            return f"at {BitVector(n, u)}: W_f1 {w1.value(u)} != +-W_f0 {1 << n // 2}"
        if (u := n1.flat_counterexample) is None:
            return None
        mirror = (1 << n) - 1 - u
        a0, b0 = ((1 - 2 * dual_g.value(v)) << n // 2 for v in (u, mirror))
        return (f"at {BitVector(n, u)}: (W_g1,W_g1') ({n1.wg[u]},{n1.wg[mirror]}) != "
                f"a quarter turn of (W_g0,W_g0') ({a0},{b0})")

    # f1 = f0 + 1_T's spectra: W_f and N_f when f is f1, else its own once f's are dropped
    with checks.timing("fragment-ratios-admissible"):
        f1 = cf.base ^ characteristic_function(cf.modifier_set)
        w1, n1 = (wf, nf) if f1 == f else (None, None)
        del wf, nf
        if w1 is None:
            w1, n1 = walsh_transform(f1), nega_transform(f1)
        frame = frame_check()
        details = "" if frame else "; ".join(
            f"{kind} branches " + " ".join(f"{b}={c}" for b, c in zip(names, counts) if c)
            for kind, names, counts in zip(("walsh", "nega"), (("0", "1"), NEGA_BRANCHES),
                                           extract_frame_coefficients(cf.base, w1, n1)))
        del w1, n1

    # the closed dual's spectra, taken once for its flatness and its involution
    with checks.timing("dual-bent-negabent"):
        wd, nd = walsh_transform(cf.closed_dual), nega_transform(cf.closed_dual)
    checks.add("dual-bent-negabent", lambda: "; ".join(
        b for b in (wd.flat_failure(), nd.flat_failure()) if b) or None,
        lambda: "bent=True negabent=True")

    checks.add("dual-involution", lambda: dual_difference(wd, f, "dual of dual", "function"),
               lambda: "dual of dual returns the function")
    del wd, nd  # before the rotation check's 2^n-entry temporaries
    checks.add("fragment-ratios-admissible", lambda: frame, lambda: details)

    if FAMILY_TABLE[cf.family].rotation_symmetric:
        def rotation_check() -> Optional[str]:
            # the order is 2 exactly when rho^2 fixes f and rho does not
            return _table_difference(n, cyclic_shift_action(f, 2).bits, f.bits,
                                     "f(rho^2 x)", "f(x)") or (
                _unequal("rotation order", 1, 2) if cyclic_shift_action(f, 1) == f else None)

        checks.add("rotation-symmetry-order", rotation_check, lambda: "rotation order 2")

    if n <= _NAIVE_CROSSCHECK_LIMIT:
        checks.add("butterfly-matches-naive", lambda: naive,
                   lambda: "butterfly equals definitional sums")

    return checks.report(f"{cf.family} k={cf.k} n={n}")
