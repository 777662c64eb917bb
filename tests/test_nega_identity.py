"""The nega spectrum by the sigma2 identity, pinned to routes that share none
of its code.

`nega_transform` and `fragmentary_nega_spectrum` butterfly (-1)^(f + sigma2)
into W_g on int32 and derive N_f(u) = ((W_g(u) + W_g(u')) + i(W_g(u) -
W_g(u'))) / 2 from it.  Here they are compared with:

* `oracle.naive_transforms`, the defining sums taken per weight class mod 4,
  at every n in 1..14 on random, sigma2 and affine functions.  A masked sum
  is reached through 2 N_{f,T} = N_f - N_{f + 1_T}: flipping f on T negates
  exactly the terms of T.
* the earlier route, kept below as reference code: the i^wt(x) twist split
  into re and im, each run through its own int64 butterfly, at n = 16 and 20.

The butterfly itself (`spectra._spectrum`: popcount entry, int16 and int32
levels) is compared with the same int64 butterfly on the unpacked signs, at
n = 1..20, masked and not, and where the int16 levels reach +-2^14.
"""

import numpy as np
import pytest

from negabench import spectra
from negabench.constructions import base_function
from negabench.core import BooleanFunction, VectorSet, characteristic_function, popcounts
from negabench.oracle import naive_transforms
from negabench.spectra import fragmentary_nega_spectrum, nega_transform, walsh_transform


def _random_bits(rng, n):
    return int.from_bytes(rng.bytes(max(1, (1 << n) // 8)), "little") & ((1 << (1 << n)) - 1)


def _functions(n, rng):
    """A random function, sigma2, and an affine function a.x + 1."""
    a = int(rng.integers(1 << n))
    yield BooleanFunction(n, _random_bits(rng, n))
    yield base_function("sigma2", n)
    yield BooleanFunction.from_values(n, 1 ^ (popcounts(1 << n)[np.arange(1 << n) & a] & 1))


def _fwht(a):
    """The int64 reference butterfly, one level at a time, in place."""
    h = 1
    while h < a.shape[0]:
        view = a.reshape(-1, 2 * h)
        lo = view[:, :h].copy()
        view[:, :h] += view[:, h:]
        view[:, h:] *= -1
        view[:, h:] += lo
        h *= 2


def _reference_nega(n, signs):
    """The earlier route: twist the signs by i^wt(x), split re from im, and
    run each part through an int64 butterfly."""
    w4 = popcounts(1 << n) % 4
    signs = signs.astype(np.int64)
    re = signs * np.array([1, 0, -1, 0], dtype=np.int64)[w4]
    im = signs * np.array([0, 1, 0, -1], dtype=np.int64)[w4]
    _fwht(re)
    _fwht(im)
    return re, im


@pytest.mark.parametrize("n", range(1, 15))
def test_identity_matches_definitional_sums(n, nega_parts):
    rng = np.random.default_rng(700 + n)
    for f in _functions(n, rng):
        _, naive_re, naive_im = naive_transforms(f)
        nf = nega_transform(f)
        assert nf.wg.dtype == np.int32
        re, im = nega_parts(nf)
        assert np.array_equal(re, naive_re) and np.array_equal(im, naive_im)

        t = VectorSet(n, _random_bits(rng, n))
        _, flipped_re, flipped_im = naive_transforms(f ^ characteristic_function(t))
        re, im = nega_parts(fragmentary_nega_spectrum(f, t))
        assert np.array_equal(2 * re, naive_re - flipped_re)
        assert np.array_equal(2 * im, naive_im - flipped_im)


@pytest.mark.parametrize("n", [16, 20])
def test_identity_matches_twisted_two_butterfly_route(n, nega_parts):
    rng = np.random.default_rng(800 + n)
    f = BooleanFunction(n, _random_bits(rng, n))
    t = VectorSet(n, _random_bits(rng, n))
    signs = 1 - 2 * f.value_array().astype(np.int64)
    mask = characteristic_function(t).value_array()
    for got, want in ((nega_transform(f), _reference_nega(n, signs)),
                      (fragmentary_nega_spectrum(f, t), _reference_nega(n, signs * mask))):
        re, im = nega_parts(got)
        assert np.array_equal(re, want[0]) and np.array_equal(im, want[1])
        assert got.parseval_sum() == int(np.dot(want[0], want[0]) + np.dot(want[1], want[1]))


def test_blocks_of_parts_cover_the_whole_spectrum(nega_parts):
    f = BooleanFunction(10, _random_bits(np.random.default_rng(5), 10))
    nf = nega_transform(f)
    re, im = nega_parts(nf)
    for start in range(0, 1 << 10, 96):  # blocks that straddle the midpoint
        part_re, part_im = nf.parts(slice(start, start + 96))
        assert np.array_equal(part_re, re[start:start + 96])
        assert np.array_equal(part_im, im[start:start + 96])
    for u in (0, 37, 511, 512, 1023):
        assert nf.value(u) == (re[u], im[u])


def test_exact_sum_sq_widens_int32():
    # squares of 2^24 are 2^48 and wrap in int32; two chunks of 2^14 such
    # squares would also pass 2^63 if summed in one int64 dot product
    rng = np.random.default_rng(24)
    v = np.where(rng.integers(0, 2, (1 << 15) + 3) == 1, 1 << 24, -(1 << 24)).astype(np.int32)
    v[-1] = 3
    assert spectra._exact_sum_sq(v) == sum(int(x) ** 2 for x in v.tolist())


def _assert_kernel(f, t=None):
    """`_spectrum` against the int64 butterfly on (-1)^p(x) [x in t], with
    p = f and p = f + sigma2."""
    w = popcounts(1 << f.n).astype(np.int64)
    mask = 1 if t is None else characteristic_function(t).value_array()
    for nega, p in ((False, f.value_array()), (True, f.value_array() ^ (w * (w - 1) >> 1 & 1))):
        want = (1 - 2 * p.astype(np.int64)) * mask
        _fwht(want)
        got = spectra._spectrum(f, nega, t)
        assert got.dtype == np.int32 and not got.flags.writeable
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [*range(1, 17), 18, 20])
def test_kernel_matches_int64_butterfly(n):
    # n = 18 and 20 span several entry chunks of 2^17 points
    rng = np.random.default_rng(900 + n)
    f = BooleanFunction(n, _random_bits(rng, n))
    _assert_kernel(f)
    _assert_kernel(f, VectorSet(n, _random_bits(rng, n)))


@pytest.mark.parametrize("n", range(13, 18))
def test_kernel_at_the_int16_edge(n):
    # a constant function over the full mask sums 2^14 equal signs in each
    # int16 block, the most the int16 levels hold before the int32 ones
    full = VectorSet(n, (1 << (1 << n)) - 1)
    for bits in (0, (1 << (1 << n)) - 1):
        f = BooleanFunction(n, bits)
        _assert_kernel(f)
        _assert_kernel(f, full)
        assert abs(int(walsh_transform(f).values[0])) == 1 << n
