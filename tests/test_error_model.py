"""The premises of the error model in ``enclosure`` on the host that runs
the tests: numpy's ``power``, ``log``, ``log1p``, ``expm1`` and complex
``abs`` within 4 ulps (``LIB`` = 8 U relative) over the arguments their
call sites pass, C ``hypot`` within 1 ulp, elementwise results that do
not depend on how an array is chunked (the streamed readers evaluate the
same entries in blocks of any alignment), ``np.sum`` of a contiguous
float64 array within gamma(``pairwise_depth(n)``) of the exact sum,
relative to the sum of the moduli, and ``math.ldexp`` into the subnormal
range within half a step of the exact product."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cesdirichlet.enclosure import LIB, U, gamma, pairwise_depth

# 4 ulps, the premise behind LIB = 8 U: an ulp is between U and 2 U of
# the value it is taken at
PREMISE_ULPS = 4.0
assert 2.0 * PREMISE_ULPS <= LIB
# arguments per function against mpmath, and per chunking comparison
SAMPLES = 3000
CHUNKED = 100_000


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(lo, hi, size))


def _power_args(rng, size):
    # kernels: n^(1-x) and k^-x for n up to 2^53, 1 < x <= 64, within
    # their guard x log2(n) <= 1000; sequences and dual: A^p, u^q and s^r
    # with bases at most about 1
    half = size // 2
    n = np.floor(_log_uniform(rng, 0.0, 53 * math.log(2.0), half))
    big = (n, -rng.uniform(0.5, np.minimum(64.0, 1000.0 / np.maximum(np.log2(n), 1.0)), half))
    small = (_log_uniform(rng, -50 * math.log(2.0), 0.0, half), rng.uniform(1.0, 10.0, half))
    return tuple(np.concatenate(pair) for pair in zip(big, small))


def _complex_args(rng, size):
    # half with parts of one scale, half with one part up to e^25 smaller
    z = rng.normal(size=size) + 1j * rng.normal(size=size)
    z[size // 2:] = z.real[size // 2:] + 1j * z.imag[size // 2:] * _log_uniform(rng, -25.0, 0.0, size - size // 2)
    swap = rng.random(size) < 0.5
    z[swap] = z[swap].imag + 1j * z[swap].real
    return (z * _log_uniform(rng, -30.0, 30.0, size),)


# name -> (ufunc, argument sampler, mpmath reference)
FUNCTIONS = {
    "power": (np.power, _power_args, lambda x, y: mpmath.mpf(x) ** mpmath.mpf(y)),
    # r log r and log n up to 2^53; the dual chain's spreads of tiny ratios
    "log": (np.log, lambda rng, size: (_log_uniform(rng, -700.0, 37.0, size),), mpmath.log),
    # w_k / A_{k-1} in ces_norm_stream and (b - a)/a in power_segment
    "log1p": (np.log1p, lambda rng, size: (_log_uniform(rng, -700.0, 40.0, size),), mpmath.log1p),
    # -s log1p(...) <= 0 in the same two places
    "expm1": (np.expm1, lambda rng, size: (-_log_uniform(rng, -700.0, 6.5, size),), mpmath.expm1),
    # |a_n| of complex coefficients at any scale
    "abs": (np.abs, _complex_args, lambda z: mpmath.hypot(mpmath.mpf(z.real), mpmath.mpf(z.imag))),
}


def _ulps(got: float, ref) -> float:
    """|got - ref| in ulps of the exact value ref (nonzero, normal)."""
    _, exp = mpmath.frexp(ref)  # |ref| = m 2^exp, 1/2 <= m < 1
    return float(abs(mpmath.mpf(got) - ref) / mpmath.ldexp(1, exp - 53))


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_library_function_within_the_premise(name):
    ufunc, sample, reference = FUNCTIONS[name]
    args = sample(np.random.default_rng(2026), 2 * SAMPLES if name in ("power", "abs") else SAMPLES)
    got = ufunc(*args)
    worst, at = 0.0, None
    with mpmath.workprec(160):
        for k, value in enumerate(got.tolist()):
            err = _ulps(value, reference(*(a[k] for a in args)))
            if err > worst:
                worst, at = err, tuple(a[k] for a in args)
    assert worst <= PREMISE_ULPS, f"{name}: {worst:.3f} ulps at {at!r}"


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_library_function_ignores_chunking(name):
    ufunc, sample, _ = FUNCTIONS[name]
    args = sample(np.random.default_rng(7), CHUNKED)
    whole = ufunc(*args)
    chunks = np.concatenate([ufunc(*(a[s:s + 7] for a in args)) for s in range(0, whole.size, 7)])
    assert whole.tobytes() == chunks.tobytes()
    if whole.dtype == args[0].dtype:  # the streamed readers work in place
        in_place = args[0].copy()
        ufunc(in_place, *args[1:], out=in_place)
        assert whole.tobytes() == in_place.tobytes()


def _exact_sum(x: np.ndarray) -> Fraction:
    """The exact sum of the float64 array x: its terms are dyadic."""
    ratios = [v.as_integer_ratio() for v in x.tolist()]
    den = max(d for _, d in ratios)
    return Fraction(sum(n * (den // d) for n, d in ratios), den)


@pytest.mark.parametrize("n", [7, 128, 129, 1000, 2 ** 15, 2 ** 16 + 3])
def test_np_sum_within_the_pairwise_bound(n):
    rng = np.random.default_rng(n)
    # 1 and then n - 1 halves of its ulp: each addition in turn rounds the
    # half away (to even), so only a sum that adds them up first keeps them
    adversarial = np.concatenate(([1.0], np.full(n - 1, U)))
    for x in (rng.uniform(0.0, 1.0, n), np.exp(rng.uniform(-30.0, 30.0, n)), adversarial):
        assert x.flags.c_contiguous and x.dtype == np.float64
        exact = _exact_sum(x)  # every term is positive
        bound = Fraction(gamma(pairwise_depth(n))) * exact
        assert abs(Fraction(float(np.sum(x))) - exact) <= bound
    # a left-to-right sum is off by n - 1 U, past the bound from n = 128 on:
    # the adversarial array tells a sequential np.sum from a pairwise one
    sequential = float(np.cumsum(adversarial)[-1])
    exact = _exact_sum(adversarial)
    assert sequential == 1.0 and exact - 1 == (n - 1) * Fraction(U)
    assert (exact - 1 > Fraction(gamma(pairwise_depth(n))) * exact) == (n >= 128)


def test_hypot_within_one_ulp():
    # the multiplier estimate's |a_i| (``enclosure``): C hypot, which
    # Python's complex abs also calls, within 1 ulp, so at most 2 U
    (z,) = _complex_args(np.random.default_rng(2027), 2 * SAMPLES)
    got = np.hypot(z.real, z.imag)
    assert got.tolist() == [abs(v) for v in z.tolist()]
    with mpmath.workprec(160):
        worst = max(_ulps(x, mpmath.hypot(mpmath.mpf(v.real), mpmath.mpf(v.imag)))
                    for x, v in zip(got.tolist(), z.tolist()))
    assert worst <= 1.0, f"hypot: {worst:.3f} ulps"


def test_ldexp_into_the_subnormal_range_within_half_a_step():
    # ``Enclosure.scaled`` moves an endpoint that ``math.ldexp`` unscaled
    # below 2^-1022 one step (2^-1074) outward: that covers the rounding
    # only if ldexp rounds to nearest, within half a step of x 2^k
    rng = np.random.default_rng(2031)
    half = Fraction(1, 2 ** 1075)
    xs = rng.uniform(0.5, 1.0, 20_000) * 2.0 ** rng.integers(-60, 61, 20_000)
    worst = Fraction(0)
    for x in xs.tolist():
        # x 2^k from just below 2^-1022 down to below half a step
        k = int(rng.integers(-1077, -1021)) - math.frexp(x)[1]
        got = math.ldexp(x, k)
        assert got <= 2.0 ** -1022
        worst = max(worst, abs(Fraction(got) - Fraction(x) * Fraction(2) ** k))
    assert worst <= half, f"ldexp: {float(worst / half) / 2:.3f} steps"
