"""Closed real intervals certifying values of infinite sums.

Every infinite series evaluated in this package is returned as an
``Enclosure`` [lo, hi] guaranteed, under the floating-point model below,
to contain the exact value.  Finite sums are returned as plain floats.

Error model of ``kernels.hurwitz_zeta``, ``kernels.power_segment``,
``kernels.log_power_sum``, ``sequences.ces_norm_stream`` (which
``ces_norm`` is, over the stored sequence's own blocks),
``dual.jagers_dual_norm`` and the self-check bound of
``multipliers.multiplier_lower_estimate`` on ``sequences.ar_norm``: a
basic operation rounds to nearest (relative error <= ``U`` = 2**-53;
negation is exact, and so is power-of-two scaling to a normal result:
``math.ldexp`` rounds a subnormal one to nearest, within half a step,
so ``Enclosure.scaled`` moves such an endpoint one step outward); numpy's
``power``, ``log``, ``log1p``, ``expm1`` and complex ``abs`` are within 4 ulps, a
relative error <= ``LIB`` = 8 U (worst of 100,000 arguments each from
the ranges their call sites pass, against mpmath, with numpy 2.4.6 on a
2-core x86-64 host dispatching AVX-512: 0.67, 0.52, 0.56, 0.50 and
1.94 ulps; ``tests/test_error_model.py`` checks this on the host that
runs it), and so are the scalar ``**``, ``math.log1p`` and
``math.expm1`` (0.5, 0.77, 0.73 on x86-64, numpy 2.4);
``np.sum`` of a contiguous array is pairwise, at most
``pairwise_depth(n)`` additions per term; ``math.fsum`` is correctly
rounded; a result below the normal range is off by at most ``TINY``.
Relative errors are counted to first order, a step of condition number <= 1 passing its
argument's count on, and a count n becomes the bound ``gamma(n)`` =
nU/(1 - nU) (Higham, "Accuracy and Stability of Numerical Algorithms",
Lemma 3.1).  A power x^t whose exponent t was itself rounded is off by
a further |t log x| U.

``ces_norm_stream`` sums in blocks of at most n entries.  Within a block the
running sums A_k come from ``np.cumsum`` with each rounding recovered
by TwoSum and added back, (1 + (n + 1)^2 U) U of exact; A crosses a
block boundary as a carry hi + lo whose own error grows by at most
(n + 1)^2 U^2 per block, so after J blocks every A_k is within
(1 + J (n + 1)^2 U) U.  With n = ``sequences.BLOCK`` = 2^15 each block
adds (2^15 + 1)^2 U, about 1.2e-7, to that count, so a sequence of K
entries adds about K 2^15 U, half of what blocks of 2^16 added.  Each
block's terms go through one pairwise ``np.sum`` and the J block sums
through ``math.fsum``, one rounding more when J > 1.

Where no two products share an index, ``multipliers.multiplier_lower_estimate``
streams |a_i| g_j, |a_i| by C ``hypot`` within 1 ulp (2 U; 0.52 ulps measured, checked
in ``tests/test_error_model.py``): 3 U with the product, inside the LIB counted for
|a_k| in ``ces_norm_stream``.  Elsewhere it encloses the rounded complex product.
A subnormal product is not within 3 U, so the estimate refuses an f whose least
|a_i| times g's least value (its last: g decreases from r_m) is below 2^-1022.

``ces_norm_stream`` and ``dual.jagers_dual_norm`` scale a complex value part by
part before its modulus is taken (``sequences._scaled_abs``; a real value's
modulus is exact and scaled after), so no modulus is rounded to the subnormal
grid before it is scaled.  A part the scaling makes subnormal is off by at most
2^-1075, which moves the modulus by at most sqrt(2) 2^-1075: under 1.5 U of a
modulus >= 2^-1022 (a smaller one is refused, or in the dual norm carries 2 TINY),
and with complex ``abs``'s measured 1.94 ulps (3.9 U) inside the LIB counted for it.

Every sum of n^-x over a range of integers is one call of the two
kernels: ``kernels.zeta_real`` is ``hurwitz_zeta(x, 1)`` (past x = 64,
which the kernel rejects, 1 <= zeta(x) <= 1 + 2^-x (x+1)/(x-1) rounded
outward), ``kernels.zeta_tail(x, n)`` is ``hurwitz_zeta(x, n + 1)`` and
``kernels.power_sum_range`` one ``power_segment``, which admits x = 1
for the harmonic sums.  So the point-evaluation bounds and the Schur
``power`` sums (zeta(q beta + 1) whole, or the harmonic witness) carry
the kernels' margins; its beta < 0 witness horizon^(-(q beta + 1)) horizon
widens by gamma of (3 |q beta| + |q beta + 1|) log(horizon) + LIB + 2
(q rounded twice, the product with beta and the sum once each in the
exponent, the power, and two products).  In ``delta_norm_exact_p2`` each explicit term
n^2 (n^-s - (n+1)^-s)^2, n < 1024, computed as the square of
n^(1-s) (-expm1(-s log1p(1/n))), carries 6 LIB + 7 roundings, and their
``math.fsum`` and the join with the tail add one each; each of the K = 6
tail terms c_k zeta(2s + k, 1024) carries at most 12 K + 7 = 79 (c_k, the
product, the rounded exponent 2s + k, the join), and the terms past K add
at most 14 * 1024^-6 zeta(2s, 1024).  ``kernels.log_power_sum`` (the Schur
``log-power`` sums) widens by gamma of (c + 9) LIB + c (lam + 4) + 20
roundings, five of them additions, times the terms' absolute sum, plus
TINY per result that may underflow: c LIB comes from the log inside a
power of condition c, and c lam, lam <= 3.61 (7.21 + 1/(c - 1) for a
tail), from the rounded exponent c = q alpha.  ``multipliers.schur_finite``
widens the ``math.fsum`` of its sup-sum terms |b_k|^q / n_k times their
gaps by gamma of the largest per-term count: q LIB for the complex abs
(none for a real or imaginary b_k), LIB for the power, 2 q |log |b_k||
for q = p / (p - 1) rounded twice, 3 for the quotient, the product with
the gap and the sum, 2 more when an index exceeds 2^53, and 1 for the
product with 1 -+ gamma; |b_k|, its power, the quotient and the product
may each fall below the normal range, so every term whose suffix holds
such a value adds 4 TINY times its gap.  All of this is engineering
certification, not formally verified arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

U = 2.0 ** -53
LIB = 8.0
TINY = 2.0 ** -1074


def gamma(n: float) -> float:
    """Bound on the relative error accumulated by n roundings of at most U."""
    return ulp_up(n * U / (1.0 - n * U), 2)


def pairwise_depth(n: int) -> int:
    """Most additions a term passes through in ``np.sum`` of n terms."""
    # blocks of <= 128 terms: 8 lanes of <= 16 terms, 3 levels to join
    # them, <= 7 leftovers; one level per halving above; 1 for the start
    return 26 + max(0, math.ceil(math.log2(max(n, 1))))


def ulp_up(x: float, steps: int = 1) -> float:
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


def ulp_down(x: float, steps: int = 1) -> float:
    for _ in range(steps):
        x = math.nextafter(x, -math.inf)
    return x


@dataclass(frozen=True)
class Enclosure:
    """A closed interval [lo, hi] with finite endpoints, lo <= hi.  Sums
    with an Enclosure or a float, ``power`` and ``root`` round outward."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"enclosure endpoints must be finite: [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"inverted enclosure: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        # lo + hi overflows when both endpoints exceed half the float64 maximum
        return m if math.isfinite(m) else 0.5 * self.lo + 0.5 * self.hi

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __add__(self, other):
        if isinstance(other, Enclosure):
            return Enclosure(ulp_down(self.lo + other.lo), ulp_up(self.hi + other.hi))
        o = float(other)
        return Enclosure(ulp_down(self.lo + o), ulp_up(self.hi + o))

    def power(self, t: float) -> "Enclosure":
        """x -> x**t for t > 0, requires lo >= 0 (monotone on [0, inf))."""
        if t <= 0:
            raise ValueError("power exponent must be positive")
        if self.lo < 0:
            raise ValueError("power requires a nonnegative enclosure")
        return Enclosure(ulp_down(self.lo ** t, 2), ulp_up(self.hi ** t, 2))

    def root(self, p: float) -> "Enclosure":
        """p-th root of a nonnegative enclosure."""
        return self.power(1.0 / p)

    def scaled(self, shift: int, name: str) -> "Enclosure":
        """[lo, hi] times 2**shift: ``math.ldexp``, exact unless it rounds a
        subnormal endpoint to nearest, which then moves a step outward (lo
        floored at 0).  Past the float64 range DomainError names ``name``."""
        try:
            lo, hi = math.ldexp(self.lo, shift), math.ldexp(self.hi, shift)
        except OverflowError:
            raise DomainError(f"the {name} exceeds the float64 range") from None
        # a lo of 2^-1022 may be a subnormal rounded up
        return Enclosure(max(ulp_down(lo), 0.0) if lo <= 2.0 ** -1022 else lo,
                         ulp_up(hi) if hi < 2.0 ** -1022 else hi)

    def __repr__(self):
        return f"Enclosure({self.lo!r}, {self.hi!r})"

