"""The former dense power sums and the former dense p = 2 point-evaluation
series, kept as independent references for the certified kernels and for
``dual.delta_norm_exact_p2``.

An explicit sum of n**-x over every integer of a range, in chunks of
2^20 terms joined by ``math.fsum``, plus the directed integral bracket

    (n+1)^(1-x)/(x-1) <= sum_{k>n} k^-x <= n^(1-x)/(x-1)

for a tail, with endpoints widened by four units in the last place per
accumulated term.  The power sums call neither ``kernels.hurwitz_zeta``
nor ``kernels.power_segment``, the kernels they are compared with.
``dense_delta_norm_p2`` sums ``terms`` terms of the point-evaluation
series and brackets the rest termwise; only that tail is a
``hurwitz_zeta`` call.  ``least_decreasing_majorant`` is the dense
majorant that ``sequences.dq_norm`` collapses to suffix maxima.
"""

import math

import numpy as np

from cesdirichlet.dual import delta_norm_bounds
from cesdirichlet.enclosure import LIB, Enclosure, gamma, pairwise_depth, ulp_down, ulp_up
from cesdirichlet.errors import DomainError
from cesdirichlet.kernels import hurwitz_zeta
from cesdirichlet.sequences import CoeffSeq, Exponent

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


def dense_delta_norm_p2(sigma: float, terms: int = 10 ** 6) -> Enclosure:
    """Exact p = 2 point-evaluation norm as a certified enclosure:

        norm^2 = sum_n n^2 (n^-sigma - (n+1)^-sigma)^2,

    valid on 1/2 < sigma <= 1.  The tail past the explicit terms is
    bracketed termwise by
    (2^sigma - 1)^2/(n+1)^(2 sigma) <= term_n <= sigma^2/(n+1)^(2 sigma).
    For sigma > 1 the exact-series representation is not available and
    the two-sided bounds are returned as the enclosure instead.
    """
    if not 0.5 < sigma < math.inf:
        raise DomainError(f"exact p=2 series requires 1/2 < sigma < inf, got {sigma}")
    if terms < 1:
        raise DomainError("need at least one explicit term")
    if sigma > 1.0:
        return delta_norm_bounds(sigma, Exponent.from_p(2.0))
    parts = []
    chunk = 1 << 20
    for lo_n in range(1, terms + 1, chunk):
        hi_n = min(lo_n + chunk, terms + 1)
        ns = np.arange(lo_n, hi_n, dtype=np.float64)
        # n (n^-s - (n+1)^-s) = n^(1-s) * (-expm1(-s log1p(1/n))), cancellation-free
        base = ns ** (1.0 - sigma) * (-np.expm1(-sigma * np.log1p(1.0 / ns)))
        parts.append(float(np.sum(base * base)))
    explicit = math.fsum(parts)
    # relative error counts in units of U (model in ``enclosure``): 1/n 1,
    # log1p (condition <= 1) LIB, times sigma 1, expm1 (condition <= 1)
    # LIB, n^(1 - sigma) LIB (1 - sigma is exact), the product 1: 3 LIB + 3
    # per base, 6 LIB + 7 per term; the chunk's pairwise sum and the fsum
    count = 6 * LIB + 7 + pairwise_depth(min(chunk, terms)) + 1
    slack = ulp_up(gamma(count) * explicit)
    # sum_{n > terms} (n + 1)^(-2 sigma) = zeta(2 sigma, terms + 2)
    z_lo, z_hi = hurwitz_zeta(2.0 * sigma, [terms + 2])
    c_lo = (2.0 ** sigma - 1.0) ** 2
    c_hi = sigma * sigma
    sq = Enclosure(
        ulp_down(ulp_down(explicit - slack) + ulp_down(c_lo * float(z_lo[0]))),
        ulp_up(ulp_up(explicit + slack) + ulp_up(c_hi * float(z_hi[0]))),
    )
    return sq.root(2.0)


def least_decreasing_majorant(b: CoeffSeq, horizon: int) -> np.ndarray:
    """The smallest nonincreasing sequence dominating |b|, on 1..horizon.

    ``horizon`` must reach the last support index; entries beyond the
    support are zero.
    """
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    if horizon < b.max_index:
        raise DomainError(
            f"horizon {horizon} is smaller than the largest support index {b.max_index}"
        )
    dense = np.zeros(horizon, dtype=np.float64)
    if not b.is_empty:
        dense[b.idx - 1] = b.abs_values()
        dense = np.maximum.accumulate(dense[::-1])[::-1]
    return dense
