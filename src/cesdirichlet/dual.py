"""Dual norms and point-evaluation functionals.

``jagers_dual_norm`` evaluates the exact dual norm of a finitely
supported sequence against the Cesaro-mean space via the greedy chain

    m(1)   = largest maximizer of |b_k|,
    m(n+1) = largest minimizer over j > m(n) of
             (|b_{m(n)}| - |b_j|) / (B_{m(n)} - B_j),

where B_k = sum_{j >= k} j^-p and the index j = infinity is a
first-class candidate with b_inf = B_inf = 0.  Geometrically the chain
walks the upper-left convex hull of the points (B_j, |b_j|) from the
largest maximizer to the sentinel (0, 0), so the chain values strictly
decrease and every difference quotient is nonnegative.  For indices with
zero coefficient strictly between support points the quotient is always
beaten by the sentinel (their B exceeds B_inf = 0 with the same
numerator), so only support indices and the sentinel are candidates.

The hull is built in one O(support) pass by Andrew's monotone chain
(Andrew, IPL 9, 1979).  Each orientation test compares two cross
products of |b|-differences and B-differences, the latter direct
certified enclosures about 1e-14 wide relatively however close the
indices: ``kernels.power_segment`` between finite indices,
``kernels.hurwitz_zeta`` towards the sentinel.  Equality pops, as the
greedy takes the largest minimizer (so equal |b| keep the larger
index).  A test the enclosures cannot decide keeps the point and marks
it; ``ArgminTieError`` is raised only if the marked point and the one
beneath it both stay on the chain, since every pop is certified and a
point popped by a chord between two input points is off the hull
whatever else was on the stack.

``dual_norm_oracle`` is an independent check: direct numerical
maximization of the pairing over the unit ball, by normalized
coordinate ascent with random restarts.  It never consults the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .enclosure import LIB, TINY, U, Enclosure, gamma, pairwise_depth, ulp_down, ulp_up
from .errors import ArgminTieError, DomainError, ResourceLimitError
from .kernels import hurwitz_zeta, power_segment, zeta_real
from .sequences import CoeffSeq, Exponent, _scale, _unscale, dq_norm

SENTINEL = math.inf

_ORACLE_SUPPORT_GUARD = 8
# coordinate sweeps per ascent of the oracle
_ORACLE_SWEEPS = 24
# absolute slack of the Bennett equivalence window, scaled by max(1, dq)
_BENNETT_SLACK = 1e-9

# an orientation cross product (|b_i| - |b_j| +- err) S: the difference,
# the error term, the product and the factor one rounding each
_TURN_LO = ulp_down(1.0 - gamma(4))
_TURN_HI = ulp_up(1.0 + gamma(4))

# the p = 2 point-evaluation series: explicit terms below _DELTA_HEAD,
# then _DELTA_ORDER terms of the expansion in 1/n
_DELTA_HEAD = 1024
_DELTA_ORDER = 6


@dataclass(frozen=True)
class JagersTrace:
    """Result of one greedy dual-norm run.

    ``m_chain`` lists the chosen indices; the final entry is the
    infinity sentinel unless the input was empty.  ``norm`` encloses the
    dual norm.  ``d_set``, derived from the chain, holds the positions n
    for which m(n) is finite.
    """

    m_chain: tuple
    norm: Enclosure

    @property
    def d_set(self) -> tuple:
        return tuple(range(1, len(self.m_chain)))


# |v|^2 exactly
def _exact_sq(v: complex) -> Fraction:
    return Fraction(v.real) ** 2 + Fraction(v.imag) ** 2


def _exact_diff(w: list, err: list, vals: np.ndarray, shift: int, i: int, j: int):
    """Rational [lo, hi] of w_i - w_j for w = |vals| 2^-shift: (|v_i|^2 -
    |v_j|^2) 4^-shift / (w_i + w_j), the squared moduli exact and the sum
    within err_i + err_j; w_i - w_j -+ (err_i + err_j) when that sum may be 0."""
    e = Fraction(err[i]) + Fraction(err[j])
    s = Fraction(w[i]) + Fraction(w[j])
    if s <= e:
        d = Fraction(w[i]) - Fraction(w[j])
        return d - e, d + e
    d = (_exact_sq(vals[i]) - _exact_sq(vals[j])) / Fraction(4) ** shift
    return tuple(sorted((d / (s - e), d / (s + e))))


def _upper_hull(w: list, err: list, vals: np.ndarray, shift: int, seg_lo: list, seg_hi: list,
                tail_lo: list, tail_hi: list):
    """The upper-left hull of (B_k, w_k), k = 0..n-1, with w_0 the maximum
    and position n the sentinel (w[n] = err[n] = vals[n] = 0), as a list of
    (position, lo, hi, undecided): [lo, hi] encloses the B-difference to
    the hull point beneath, and ``undecided`` marks a point kept by a test
    that could not decide whether the point beneath lies on the hull.
    ``err`` bounds the error of w = |vals| 2^-shift, ``seg`` encloses
    B_k - B_(k+1) and ``tail`` B_k.  A test the floats leave open with an
    inexact modulus is decided again in rationals, from ``_exact_diff``."""
    n = len(w) - 1
    hull = [(0, 0.0, 0.0, False)]
    for k in range(1, n + 1):
        if k == n:
            lo2, hi2 = tail_lo[hull[-1][0]], tail_hi[hull[-1][0]]
        else:
            lo2, hi2 = seg_lo[k - 1], seg_hi[k - 1]
        undecided = False
        while len(hull) > 1:
            i = hull[-2][0]
            j, lo1, hi1, _ = hull[-1]
            n2, e2 = w[j] - w[k], err[j] + err[k]
            # |b_j| <= |b_k| pops j, as |b_i| > |b_j| down the hull (equal |b|
            # keep the larger index); a sign the floats cannot fix is taken
            # from exact squared moduli
            if n2 + e2 > 0.0 and (n2 - e2 > 0.0 or _exact_sq(vals[j]) > _exact_sq(vals[k])):
                # pop j iff (|b_i| - |b_j|)(B_j - B_k) >= (|b_j| - |b_k|)(B_i - B_j)
                n1, e1 = w[i] - w[j], err[i] + err[j]
                if (n1 + e1) * hi2 * _TURN_HI + TINY < (n2 - e2) * lo1 * _TURN_LO - TINY:
                    break
                if (n1 - e1) * lo2 * _TURN_LO - TINY < (n2 + e2) * hi1 * _TURN_HI + TINY:
                    if not (e1 or e2):
                        undecided = True
                        break
                    # the same two tests in rationals, the |b|-differences
                    # from exact squared moduli (upper ends b1, b2 >= 0)
                    a1, b1 = _exact_diff(w, err, vals, shift, i, j)
                    a2, b2 = _exact_diff(w, err, vals, shift, j, k)
                    if b1 * Fraction(hi2) < a2 * Fraction(lo1):
                        break
                    if a1 * Fraction(lo2) < b2 * Fraction(hi1):
                        undecided = True
                        break
            if k == n:
                lo2, hi2 = tail_lo[i], tail_hi[i]
            else:
                lo2, hi2 = ulp_down(lo1 + lo2), ulp_up(hi1 + hi2)
            hull.pop()
        hull.append((k, lo2, hi2, undecided))
    return hull


def _chain_norm(db_lo: np.ndarray, db_hi: np.ndarray, d_lo: np.ndarray, d_hi: np.ndarray,
                e: Exponent) -> Enclosure:
    """(sum_k delta_b_k^q / delta_B_k^(q-1))^(1/q) for delta_b_k in
    [db_lo_k, db_hi_k], endpoints within two roundings, and delta_B_k in
    [d_lo_k, d_hi_k].

    This is the q-norm of v_k = delta_b_k delta_B_k^(-1/p), taken as
    top (sum_k (v_k/top)^q)^(1/q) with top = max v_k so that nothing
    overflows.  A rounded exponent t moves x^t by |t log x| U besides
    the power's own LIB; a result below the normal range is off by TINY."""
    # q and 1/q from p, one rounding each
    t, q, r = -1.0 / e.p, e.q, (e.p - 1.0) / e.p
    spread = max(float(np.max(np.abs(np.log(d_lo)))), float(np.max(np.abs(np.log(d_hi)))))
    # delta_b 2, exponent |t| spread, power LIB, product 1, factor 1
    g = gamma(4 + LIB + abs(t) * spread)
    v_lo = np.maximum(db_lo * np.power(d_hi, t) * ulp_down(1.0 - g) - TINY, 0.0)
    v_hi = db_hi * np.power(d_lo, t) * ulp_up(1.0 + g) + TINY
    top = float(v_hi.max())
    u_lo = v_lo / top
    u_hi = v_hi / top
    # (v/top)^q: the quotient 1 (condition q), the exponent q |log u|, power
    # LIB, the factor and the product 1 each.  Below the normal range a
    # quotient or a power is off by up to TINY: such u_lo count as 0, and
    # each term of either sum may move by TINY
    u_lo[u_lo < 2.0 ** -1022] = 0.0
    cnt = q * (1.0 - np.log(np.maximum(u_lo, 2.0 ** -1022))) + (LIB + 2.0)
    if float(cnt.max()) * U > 2.0 ** -10:
        raise DomainError(f"p = {e.p} is too close to 1 for a certified dual norm")
    rel = cnt * U / (1.0 - cnt * U)
    size = db_lo.size
    g_sum = gamma(pairwise_depth(size) + 1)
    s_lo = float(np.sum(np.power(u_lo, q) * (1.0 - rel))) - size * TINY
    s_hi = float(np.sum(np.power(u_hi, q) * (1.0 + rel))) + size * TINY
    s_lo = max(s_lo, 0.0) * ulp_down(1.0 - g_sum)
    s_hi = s_hi * ulp_up(1.0 + g_sum)
    # s >= 1/2 (the top term is about 1).  The root: power LIB, exponent
    # 1/q |log s|, the products with top and with the factor 1 each
    g_root = gamma(LIB + 2 + abs(math.log(s_hi)) * r)
    return Enclosure(float(np.power(s_lo, r)) * top * ulp_down(1.0 - g_root),
                     float(np.power(s_hi, r)) * top * ulp_up(1.0 + g_root))


def jagers_dual_norm(b: CoeffSeq, e: Exponent) -> JagersTrace:
    """Exact dual norm of ``b`` with a certified enclosure and the full
    greedy trace, in O(support).  Raises ArgminTieError when two points
    that the enclosures cannot tell apart remain adjacent on the chain."""
    if b.is_empty:
        return JagersTrace(m_chain=(SENTINEL,), norm=Enclosure(0.0, 0.0))
    p = e.p
    w = b.abs_values()
    # the dual norm is homogeneous: |b| is scaled by a power of two into [1/2, 1)
    shift = _scale(w)
    # |b| is exact for a real or imaginary value and within LIB otherwise,
    # scaled below the normal range within TINY; twice that also covers
    # the roundings of the differences it enters
    err = np.where((b.val.real == 0) | (b.val.imag == 0), 0.0, w * (2.0 * LIB * U))
    err[w < 2.0 ** -1022] += 2.0 * TINY
    first = int(np.flatnonzero(w == w.max())[-1])  # largest maximizer, exact float tie
    near = np.flatnonzero(w + err >= w[first] - err[first])
    if err[near].any():
        # the largest maximizer among the moduli the floats cannot order,
        # from exact squared moduli
        first = int(max(near[::-1], key=lambda k: _exact_sq(b.val[k])))
    idx = b.idx[first:]
    w = np.append(w[first:], 0.0)
    err = np.append(err[first:], 0.0)
    seg_lo, seg_hi = power_segment(p, idx[:-1], idx[1:])
    tail_lo, tail_hi = hurwitz_zeta(p, idx)
    hull = _upper_hull(w.tolist(), err.tolist(), np.append(b.val[first:], 0.0), shift,
                       seg_lo.tolist(), seg_hi.tolist(), tail_lo.tolist(), tail_hi.tolist())
    pos, d_lo, d_hi, tied = (np.array(col) for col in zip(*hull))
    chain = [int(idx[k]) for k in pos[:-1]] + [SENTINEL]
    if tied.any():
        s = int(np.argmax(tied))
        raise ArgminTieError(chain[:s - 1], chain[s - 1:s + 1])
    delta_b = w[pos[:-1]] - w[pos[1:]]
    delta_err = err[pos[:-1]] + err[pos[1:]]
    norm = _chain_norm(delta_b - delta_err, delta_b + delta_err, d_lo[1:], d_hi[1:], e)
    norm = Enclosure(_unscale(norm.lo, shift, "dual norm"), _unscale(norm.hi, shift, "dual norm"))
    return JagersTrace(m_chain=tuple(chain), norm=norm)


# ---------------------------------------------------------------------------
# Independent optimization oracle
# ---------------------------------------------------------------------------

def dual_norm_oracle(b: CoeffSeq, e: Exponent, restarts: int, seed: int = 0) -> float:
    """Numerical sup of |<a, b>| over ces-unit-ball a supported in supp(b).

    Aligning phases reduces the problem to maximizing sum x_n |b_n| over
    x >= 0 with unit Cesaro norm; the ascent maximizes the scale-free
    ratio coordinate by coordinate (the ratio of an affine numerator to
    a convex positive denominator is unimodal along each axis).  Returns
    the best value found: a lower bound on the true dual norm,
    empirically tight at these dimensions.

    Each line search continues from the sums over the coordinates before
    the one it moves, memoised once per coordinate, and adds the rest in
    the same order, so every value is bitwise that of a full
    re-evaluation.
    """
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if restarts < 1:
        raise DomainError("need at least one restart")
    if b.is_empty:
        return 0.0
    m = len(b)
    if m > _ORACLE_SUPPORT_GUARD:
        raise ResourceLimitError(
            f"oracle support {m} exceeds the guard of {_ORACLE_SUPPORT_GUARD}"
        )
    p = e.p
    inv_p = 1.0 / p
    c = [float(v) for v in b.abs_values()]
    seg_lo, seg_hi = power_segment(p, b.idx[:-1], b.idx[1:])
    tail_lo, tail_hi = hurwitz_zeta(p, b.idx[-1:])
    # the weight of acc ** p at each position: B_k - B_(k+1), then B_last
    w = (0.5 * seg_lo + 0.5 * seg_hi).tolist()
    w.append(0.5 * float(tail_lo[0]) + 0.5 * float(tail_hi[0]))

    def along(x: list[float], i: int):
        """t -> the ratio at x with x[i] = t; along(x, 0)(x[0]) is the
        ratio at x.  The sums over k < i are taken once, and each call
        continues from them in the same order."""
        acc0 = 0.0
        total0 = 0.0
        num0 = 0.0
        for k in range(i):
            acc0 += x[k]
            total0 += acc0 ** p * w[k]
            num0 += c[k] * x[k]
        ci, wi = c[i], w[i]
        rest = list(zip(x[i + 1:], w[i + 1:], c[i + 1:]))

        def f(t: float) -> float:
            acc = acc0 + t
            total = total0 + acc ** p * wi
            num = num0 + ci * t
            for xk, wk, ck in rest:
                acc += xk
                total += acc ** p * wk
                num += ck * xk
            if total <= 0.0:
                return 0.0
            return num / total ** inv_p

        return f

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def ascend(x: list[float]) -> float:
        best = along(x, 0)(x[0])
        for _ in range(_ORACLE_SWEEPS):
            improved = best
            for i in range(m):
                f = along(x, i)
                lo_t, hi_t = 0.0, 2.0 * x[i] + 2.0 * max(x) + 1.0
                f_hi = f(hi_t)
                # expand while the objective still grows toward the right end
                for _ in range(60):
                    f_in = f(0.75 * hi_t)
                    if f_hi > f_in:
                        hi_t *= 2.0
                        f_hi = f(hi_t)
                    else:
                        break
                # golden-section maximization, one evaluation per step
                t1 = hi_t - inv_phi * (hi_t - lo_t)
                t2 = lo_t + inv_phi * (hi_t - lo_t)
                f1, f2 = f(t1), f(t2)
                for _ in range(56):
                    if f1 < f2:
                        lo_t, t1, f1 = t1, t2, f2
                        t2 = lo_t + inv_phi * (hi_t - lo_t)
                        f2 = f(t2)
                    else:
                        hi_t, t2, f2 = t2, t1, f1
                        t1 = hi_t - inv_phi * (hi_t - lo_t)
                        f1 = f(t1)
                x[i] = 0.5 * (lo_t + hi_t)
                # the ratio is homogeneous of degree 0: keep max(x) = 1 so
                # the bracket expansion cannot overflow acc ** p
                top = max(x)
                x[:] = [t / top for t in x]
                val = along(x, 0)(x[0])
                if val > best:
                    best = val
            if best - improved < 1e-13:
                break
        return best

    rng = np.random.default_rng(seed)
    best = ascend([1.0] * m)  # deterministic uniform start
    for _ in range(restarts - 1):
        start = [float(t) + 1e-3 for t in rng.random(m)]
        best = max(best, ascend(start))
    return float(best)


def bennett_equivalence_check(b: CoeffSeq, e: Exponent) -> bool:
    """True iff the certified dual-norm enclosure sits inside the
    two-sided majorant-norm equivalence window
    [(1/q) dq, (p-1)^(1/p) dq] widened by ``_BENNETT_SLACK``."""
    trace = jagers_dual_norm(b, e)
    dq = dq_norm(b, e)
    pad = _BENNETT_SLACK * max(1.0, dq)
    lo_bound = dq / e.q - pad
    hi_bound = (e.p - 1.0) ** (1.0 / e.p) * dq + pad
    return lo_bound <= trace.norm.lo and trace.norm.hi <= hi_bound


# ---------------------------------------------------------------------------
# Point-evaluation norms
# ---------------------------------------------------------------------------

def delta_norm_bounds(sigma: float, e: Exponent) -> Enclosure:
    """Two-sided bounds for the point-evaluation norm at abscissa
    1/q < sigma < inf, as an enclosure:

        (1/q) zeta(sigma q)^(1/q)  <=  norm  <=  min(sigma, (p-1)^(1/p)) zeta(sigma q)^(1/q).
    """
    if not 1.0 / e.q < sigma < math.inf:
        raise DomainError(f"point evaluation needs 1/q = {1.0 / e.q} < sigma < inf, got {sigma}")
    zq = zeta_real(sigma * e.q).root(e.q)
    return Enclosure(ulp_down(zq.lo / e.q, 2),
                     ulp_up(min(sigma, (e.p - 1.0) ** (1.0 / e.p)) * zq.hi, 2))


def delta_norm_exact_p2(sigma: float) -> Enclosure:
    """Exact p = 2 point-evaluation norm as a certified enclosure:

        norm^2 = sum_n n^2 (n^-sigma - (n+1)^-sigma)^2,

    valid on 1/2 < sigma <= 1, in O(1): the terms below N = 1024
    explicitly, then K = 6 terms of the expansion of the tail in 1/n,
    sum_k c_k zeta(2 sigma + k, N), from ``kernels.hurwitz_zeta``.  For
    sigma > 1 the exact-series representation is not available and the
    two-sided bounds are returned as the enclosure instead.
    """
    if not 0.5 < sigma < math.inf:
        raise DomainError(f"exact p=2 series requires 1/2 < sigma < inf, got {sigma}")
    if sigma > 1.0:
        return delta_norm_bounds(sigma, Exponent.from_p(2.0))
    ns = np.arange(1, _DELTA_HEAD, dtype=np.float64)
    # n (n^-s - (n+1)^-s) = n^(1-s) * (-expm1(-s log1p(1/n))), cancellation-free
    base = ns ** (1.0 - sigma) * (-np.expm1(-sigma * np.log1p(1.0 / ns)))
    head = math.fsum((base * base).tolist())
    # from N on, with u = 1/n, a term is n^-2sigma g(u)^2 for
    # g(u) = (1 - (1+u)^-sigma)/u = sum_m g_m u^m, g_0 = sigma and
    # g_m = -g_(m-1) (sigma + m)/(m + 1); so the tail is
    # sum_k c_k zeta(2 sigma + k, N) for c = g * g.  For sigma <= 1,
    # |g_m| <= 1 and |c_k| <= k + 1, so the terms from K on add at most
    # zeta(2 sigma, N) sum_{k >= K} (k + 1) N^-k
    g = [sigma]
    for m in range(1, _DELTA_ORDER):
        g.append(-g[-1] * (sigma + m) / (m + 1))
    c = np.convolve(g, g)[:_DELTA_ORDER]
    z_lo, z_hi = np.array([hurwitz_zeta(2.0 * sigma + k, [_DELTA_HEAD])
                           for k in range(_DELTA_ORDER)])[:, :, 0].T
    # g_m has the sign (-1)^m, so c_k has the sign (-1)^k
    t_lo = c * np.where(c > 0.0, z_lo, z_hi)
    t_hi = c * np.where(c > 0.0, z_hi, z_lo)
    # relative error counts in units of U (model in ``enclosure``).  A head
    # term: 1/n 1, log1p (condition <= 1) LIB, times sigma 1, expm1
    # (condition <= 1) LIB, n^(1 - sigma) LIB (1 - sigma is exact), the
    # product 1: 3 LIB + 3 per base, 6 LIB + 7 squared; the fsum and the
    # join with the tail 1 each.  A tail term c_k zeta: g_m 3 m (a sum, a
    # product and a quotient per step), c_k 4 k + 1 (k + 1 products of one
    # sign, k additions), the product 1, so at most 4 K - 2.  The exponent
    # x = 2 sigma + k <= K + 1 is rounded by at most x U, and over n >= N
    # the mean of log n under the weights n^-x is below
    # log N + 1/(x - 1) + (x - 1) log N / N < 8 for N = 1024, K = 6 (the
    # integral test), so zeta(x, N) moves by less than 8 (K + 1) U of
    # itself; with the join, 12 K + 7.  The cut-off rest is at most
    # (K + 1) N^-K (1 - 1/N)^-2 zeta(2 sigma, N); a factor 2 in place of
    # (1 - 1/N)^-2 also covers its rounding
    size = float(np.sum(np.abs(t_hi)))
    rest = 2.0 * (_DELTA_ORDER + 1) * _DELTA_HEAD ** -_DELTA_ORDER * float(z_hi[0])
    pad = gamma(6 * LIB + 9) * head + gamma(12 * _DELTA_ORDER + 7) * size + rest
    sq = Enclosure(ulp_down(math.fsum([head, *t_lo.tolist()]) - pad),
                   ulp_up(math.fsum([head, *t_hi.tolist()]) + pad))
    return sq.root(2.0)


def sigma_threshold(e: Exponent) -> float:
    """The abscissa past which the point-evaluation norm freezes at
    zeta(p)^(-1/p):

        sigma_p = p - 1 + (log(p - 1) + log zeta(p)) / log 2,

    evaluated from the midpoint of the certified ``zeta_real(p)``
    enclosure (relative width about 1e-14)."""
    z = zeta_real(e.p).mid
    return e.p - 1.0 + (math.log(e.p - 1.0) + math.log(z)) / math.log(2.0)
