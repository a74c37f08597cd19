"""The former dense power sums, kept as independent references for the
certified kernels.

An explicit sum of n**-x over every integer of a range, in chunks of
2^20 terms joined by ``math.fsum``, plus the directed integral bracket

    (n+1)^(1-x)/(x-1) <= sum_{k>n} k^-x <= n^(1-x)/(x-1)

for a tail, with endpoints widened by four units in the last place per
accumulated term.  Nothing here calls ``kernels.hurwitz_zeta`` or
``kernels.power_segment``, the kernels it is compared with.
"""

import math

import numpy as np

from cesdirichlet.enclosure import Enclosure, ulp_down, ulp_up

EPS = 2.0 ** -52
_SUM_CHUNK = 1 << 20


def dense_power_sum(x: float, start: int, stop: int) -> float:
    """sum_{n=start}^{stop-1} n**-x, exact to rounding (chunked + fsum)."""
    if stop <= start:
        return 0.0
    parts = []
    for lo in range(start, stop, _SUM_CHUNK):
        hi = min(lo + _SUM_CHUNK, stop)
        ns = np.arange(lo, hi, dtype=np.float64)
        parts.append(float(np.sum(ns ** -x)))
    return math.fsum(parts)


def integral_bracket(x: float, n: int) -> tuple[float, float]:
    lo = (n + 1.0) ** (1.0 - x) / (x - 1.0)
    hi = float(n) ** (1.0 - x) / (x - 1.0)
    return ulp_down(lo, 2), ulp_up(hi, 2)


def dense_zeta_tail(x: float, n: int, prefix: int = 10_000) -> Enclosure:
    """sum_{k>n} k**-x: ``prefix`` explicit terms, then the bracket."""
    explicit = dense_power_sum(x, n + 1, n + prefix + 1)
    blo, bhi = integral_bracket(x, n + prefix)
    slack = 4.0 * EPS * explicit
    return Enclosure(ulp_down(explicit + blo) - slack, ulp_up(explicit + bhi) + slack)


def dense_zeta_real(x: float, terms: int) -> Enclosure:
    """zeta(x): ``terms`` explicit terms, then the bracket."""
    partial = dense_power_sum(x, 1, terms + 1)
    blo, bhi = integral_bracket(x, terms)
    slack = 4.0 * EPS * partial
    return Enclosure(ulp_down(partial + blo) - slack, ulp_up(partial + bhi) + slack)
