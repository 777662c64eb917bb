"""Exact Walsh-Hadamard and nega-Hadamard spectra.

All arithmetic is integer-exact: spectra are int64 arrays produced by
butterfly kernels, flatness tests compare squared magnitudes against powers
of two, and no floating point is ever involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    BitVector,
    BooleanFunction,
    DimensionError,
    NotBentError,
    VectorSet,
    characteristic_function,
    check_capacity,
    popcount,
    popcounts,
)


@dataclass(frozen=True)
class GaussianInteger:
    """a + b*i with integer a, b: one nega-spectrum value."""

    re: int
    im: int

    def __add__(self, other: "GaussianInteger") -> "GaussianInteger":
        return GaussianInteger(self.re + other.re, self.im + other.im)

    def norm_sq(self) -> int:
        return self.re * self.re + self.im * self.im

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"


def _fwht_inplace(a: np.ndarray) -> None:
    """In-place Walsh-Hadamard butterfly: a[u] <- sum_x (-1)^(u.x) a[x]."""
    size = a.shape[0]
    h = 1
    while h < size:
        view = a.reshape(-1, 2 * h)
        lo = view[:, :h].copy()
        view[:, :h] += view[:, h:]
        view[:, h:] *= -1
        view[:, h:] += lo
        h *= 2


def _exact_sum_sq(v: np.ndarray) -> int:
    total = 0
    step = 1 << 14
    for i in range(0, v.shape[0], step):
        chunk = v[i:i + step]
        total += int(np.dot(chunk, chunk))
    return total


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    """W_f(u) = sum_x (-1)^(f(x) + u.x) for every u, exact integers."""

    n: int
    values: np.ndarray

    def value(self, u) -> int:
        idx = u.bits if isinstance(u, BitVector) else int(u)
        return int(self.values[idx])

    def parseval_sum(self) -> int:
        return _exact_sum_sq(self.values)

    def parseval_holds(self) -> bool:
        return self.parseval_sum() == 1 << (2 * self.n)

    def flat_counterexample(self) -> Optional[int]:
        """Index u with |W(u)| != 2^(n/2), or None when bent-flat (even n)."""
        if self.n % 2:
            return 0 if self.values.shape[0] else None
        target = 1 << (self.n // 2)
        bad = np.nonzero(np.abs(self.values) != target)[0]
        return int(bad[0]) if bad.size else None


@dataclass(frozen=True, eq=False)
class NegaSpectrum:
    """N_f(u) = sum_x (-1)^(f(x) + u.x) i^wt(x), split into re/im int64 arrays."""

    n: int
    re: np.ndarray
    im: np.ndarray

    def value(self, u) -> GaussianInteger:
        idx = u.bits if isinstance(u, BitVector) else int(u)
        return GaussianInteger(int(self.re[idx]), int(self.im[idx]))

    def norm_sq_value(self, u) -> int:
        return self.value(u).norm_sq()

    def parseval_sum(self) -> int:
        return _exact_sum_sq(self.re) + _exact_sum_sq(self.im)

    def parseval_holds(self) -> bool:
        return self.parseval_sum() == 1 << (2 * self.n)

    def flat_counterexample(self) -> Optional[int]:
        """Index u with |N(u)|^2 != 2^n, or None when negabent-flat."""
        target = np.int64(1) << self.n
        norms = self.re * self.re + self.im * self.im
        bad = np.nonzero(norms != target)[0]
        return int(bad[0]) if bad.size else None


_RE_TWIST = np.array([1, 0, -1, 0], dtype=np.int64)
_IM_TWIST = np.array([0, 1, 0, -1], dtype=np.int64)


def _walsh_of_signs(n: int, signs: np.ndarray) -> WalshSpectrum:
    """Butterfly a (-1)^f sign vector, in place, into a Walsh spectrum."""
    _fwht_inplace(signs)
    signs.setflags(write=False)
    return WalshSpectrum(n, signs)


def _nega_of_signs(n: int, signs: np.ndarray) -> NegaSpectrum:
    """Twist a (-1)^f sign vector by i^wt(x) and butterfly both parts."""
    w4 = popcounts(1 << n) % 4
    re = signs * _RE_TWIST[w4]
    im = signs * _IM_TWIST[w4]
    for part in (re, im):
        _fwht_inplace(part)
        part.setflags(write=False)
    return NegaSpectrum(n, re, im)


def walsh_transform(f: BooleanFunction) -> WalshSpectrum:
    check_capacity(f.n)
    return _walsh_of_signs(f.n, f.sign_array())


def nega_transform(f: BooleanFunction) -> NegaSpectrum:
    check_capacity(f.n)
    return _nega_of_signs(f.n, f.sign_array())


# ---------------------------------------------------------------------------
# fragmentary transforms (sums restricted to a subset)


def _restricted_signs(f: BooleanFunction, t: VectorSet, u) -> tuple[np.ndarray, np.ndarray]:
    """The members x of t as an int64 array, and (-1)^(f(x) + u.x) at each."""
    if f.n != t.n:
        raise DimensionError("function and subset dimensions differ")
    ub = u.bits if isinstance(u, BitVector) else int(u)
    xs = np.array(t.indices(), dtype=np.int64)
    exps = f.values_at(xs) ^ (popcount(xs & ub) & 1)
    return xs, 1 - 2 * exps


def fragmentary_walsh(f: BooleanFunction, t: VectorSet, u) -> int:
    """W_{f,T}(u) = sum_{x in T} (-1)^(f(x) + u.x), by the literal sum."""
    return int(_restricted_signs(f, t, u)[1].sum())


def fragmentary_nega(f: BooleanFunction, t: VectorSet, u) -> GaussianInteger:
    """N_{f,T}(u) = sum_{x in T} (-1)^(f(x) + u.x) i^wt(x), literal sum."""
    xs, signs = _restricted_signs(f, t, u)
    w4 = popcount(xs) % 4
    return GaussianInteger(int(np.dot(signs, _RE_TWIST[w4])),
                           int(np.dot(signs, _IM_TWIST[w4])))


def _masked_signs(f: BooleanFunction, t: VectorSet) -> np.ndarray:
    """(-1)^f on t and 0 elsewhere."""
    if f.n != t.n:
        raise DimensionError("function and subset dimensions differ")
    return f.sign_array() * characteristic_function(t).value_array()


def fragmentary_walsh_spectrum(f: BooleanFunction, t: VectorSet) -> WalshSpectrum:
    """All fragmentary Walsh values at once: butterfly on the T-masked signs."""
    return _walsh_of_signs(f.n, _masked_signs(f, t))


def fragmentary_nega_spectrum(f: BooleanFunction, t: VectorSet) -> NegaSpectrum:
    return _nega_of_signs(f.n, _masked_signs(f, t))


# ---------------------------------------------------------------------------
# classification and duality


@dataclass(frozen=True)
class Classification:
    is_bent: bool
    is_negabent: bool
    note: Optional[str] = None

    @property
    def is_bent_negabent(self) -> bool:
        return self.is_bent and self.is_negabent


def classify(f: BooleanFunction) -> Classification:
    """Exact bent / negabent flags.

    Bentness requires even n; for odd n the flag is False with a note rather
    than an error.  Negabentness is defined for every n.
    """
    nega_ok = nega_transform(f).flat_counterexample() is None
    if f.n % 2:
        return Classification(False, nega_ok, note="bent undefined for odd n; reported false")
    bent_ok = walsh_transform(f).flat_counterexample() is None
    return Classification(bent_ok, nega_ok)


def dual(f: BooleanFunction) -> BooleanFunction:
    """The bent dual: 2^(n/2) (-1)^dual(x) = W_f(x)."""
    if f.n % 2:
        raise NotBentError("bent duals require an even number of variables")
    spec = walsh_transform(f)
    bad = spec.flat_counterexample()
    if bad is not None:
        raise NotBentError(
            f"not bent: |W({BitVector(f.n, bad)})| = {abs(spec.value(bad))} "
            f"!= {1 << (f.n // 2)}"
        )
    target = 1 << (f.n // 2)
    return BooleanFunction.from_values(f.n, spec.values == -target)


# ---------------------------------------------------------------------------
# Maiorana-McFarland shapes


def _permutation_images(pi: Sequence, m: int) -> list[int]:
    imgs = [p.bits if isinstance(p, BitVector) else int(p) for p in pi]
    if len(imgs) != 1 << m:
        raise DimensionError("permutation table length must be 2^m")
    if sorted(imgs) != list(range(1 << m)):
        raise InvalidPermutationError("image table is not a bijection of F_2^m")
    return imgs


class InvalidPermutationError(ValueError):
    """The supplied image table is not a permutation."""


def mm_function(pi: Sequence, phi: BooleanFunction) -> BooleanFunction:
    """f(x, y) = x . pi(y) + phi(y) on 2m variables (x = low block)."""
    m = phi.n
    imgs = _permutation_images(pi, m)
    size = 1 << m
    xs = np.arange(size, dtype=np.int64)
    par = (popcounts(size) & 1).astype(np.uint8)
    phi_vals = phi.value_array()
    rows = np.empty((size, size), dtype=np.uint8)
    for y in range(size):
        rows[y] = par[xs & imgs[y]] ^ phi_vals[y]
    return BooleanFunction.from_values(2 * m, rows.reshape(-1))
