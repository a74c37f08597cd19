"""Dual norms and point-evaluation functionals.

``jagers_dual_norm`` evaluates the exact dual norm of a finitely
supported sequence against the Cesaro-mean space via the greedy chain

    m(1)   = largest maximizer of |b_k|,
    m(n+1) = largest minimizer over j > m(n) of
             (|b_{m(n)}| - |b_j|) / (B_{m(n)} - B_j),

where B_k = sum_{j >= k} j^-p and the index j = infinity is a
first-class candidate with b_inf = B_inf = 0.  Geometrically the chain
walks the upper-left convex hull of the points (B_j, |b_j|), so the
chain values strictly decrease and every difference quotient is
nonnegative.  For indices with zero coefficient strictly between
support points the quotient is always beaten by the sentinel (their B
exceeds B_inf = 0 with the same numerator), so only support indices and
the sentinel are scanned.

All B-differences between finite candidates are evaluated as explicit
segment sums (no cancellation); only the sentinel terms need zeta tail
brackets.  When two candidate quotient enclosures overlap, the tail
prefix is doubled up to three times before a tie error is raised --
the greedy takes the *largest* minimizer, and with floating point we
must not silently guess which candidate that is.  Exact ties with a
zero numerator are resolved exactly (the quotient is 0 regardless of
the denominator) by taking the largest index.

``dual_norm_oracle`` is an independent check: direct numerical
maximization of the pairing over the unit ball, by normalized
coordinate ascent with random restarts.  It never consults the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .enclosure import EPS, Enclosure, div_pos, ulp_down, ulp_up
from .errors import ArgminTieError, DomainError, ResourceLimitError
from .kernels import DEFAULT_TAIL_PREFIX, hurwitz_zeta, power_sum_range, zeta_real, zeta_tail
from .sequences import CoeffSeq, Exponent

SENTINEL = math.inf

_TIGHTEN_ROUNDS = 3

_ORACLE_SUPPORT_GUARD = 8


@dataclass(frozen=True)
class JagersTrace:
    """Result of one greedy dual-norm run.

    ``m_chain`` lists the chosen indices; the final entry is the
    infinity sentinel unless the input was empty.  ``d_set`` holds the
    positions n for which m(n) is finite.  ``norm`` encloses the dual
    norm.
    """

    m_chain: tuple
    d_set: tuple
    norm: Enclosure


class _Ambiguous(Exception):
    def __init__(self, chain, candidates):
        self.chain = chain
        self.candidates = candidates


def _big_b(k: int, p: float, prefix: int) -> Enclosure:
    """B_k = sum_{j >= k} j^-p as an enclosure."""
    return zeta_tail(p, int(k), prefix=prefix) + float(k) ** -p


def _segment_cumsums(idx: np.ndarray, p: float) -> np.ndarray:
    """cum[k] = sum_{l = idx[0]}^{idx[k]-1} l^-p, one entry per support index.

    Kahan-compensated accumulation keeps the error within the 4-ulp slack
    budget independently of the chain length.
    """
    cum = np.empty(idx.size, dtype=np.float64)
    total = 0.0
    comp = 0.0
    cum[0] = 0.0
    for k in range(1, idx.size):
        seg = power_sum_range(p, int(idx[k - 1]), int(idx[k]))
        y = seg - comp
        t = total + y
        comp = (t - total) - y
        total = t
        cum[k] = total
    return cum


def _denom_between(cum: np.ndarray, a: int, b: int) -> Enclosure:
    """Enclosure of B_{idx[a]} - B_{idx[b]} via the explicit segment sum."""
    d = cum[b] - cum[a]
    slack = 4.0 * EPS * (cum[b] + cum[a]) + 4.0 * EPS
    return Enclosure(ulp_down(d - slack), ulp_up(d + slack))


def _attempt(idx: np.ndarray, w: np.ndarray, e: Exponent, prefix: int) -> JagersTrace:
    p, q = e.p, e.q
    cum = _segment_cumsums(idx, p)
    mx = float(w.max())
    pos = int(np.nonzero(w == mx)[0][-1])  # largest maximizer, exact float tie
    chain = [int(idx[pos])]
    terms: list[Enclosure] = []
    while True:
        bm = float(w[pos])
        cand_pos = list(range(pos + 1, idx.size))  # sentinel handled separately
        quotients = []
        for j in cand_pos:
            num = bm - float(w[j])
            if num < 0:
                raise AssertionError("chain invariant violated: increasing coefficient")
            den = _denom_between(cum, pos, j)
            num_enc = Enclosure(ulp_down(num), ulp_up(num))
            quotients.append(div_pos(num_enc, den))
        b_here = _big_b(int(idx[pos]), p, prefix)
        sent_q = div_pos(bm, b_here)
        all_q = quotients + [sent_q]
        all_ids = [int(idx[j]) for j in cand_pos] + [SENTINEL]
        min_hi = min(enc.hi for enc in all_q)
        poss = [k for k, enc in enumerate(all_q) if enc.lo <= min_hi]
        if len(poss) > 1:
            # zero-numerator quotients are exactly 0 no matter the tail;
            # candidate order follows index order, so max(poss) is the
            # largest tied index
            if min_hi == 0.0 and all(all_q[k].hi == 0.0 for k in poss):
                winner = max(poss)
            else:
                raise _Ambiguous(tuple(chain), tuple(all_ids[k] for k in poss))
        else:
            winner = poss[0]
        if winner == len(cand_pos):
            delta_b = bm
            delta_big = b_here
            chain.append(SENTINEL)
        else:
            nxt = cand_pos[winner]
            delta_b = bm - float(w[nxt])
            delta_big = _denom_between(cum, pos, nxt)
            chain.append(int(idx[nxt]))
        # term: delta_b**q / delta_B**(q-1)
        num_pow = Enclosure(ulp_down(delta_b ** q, 2), ulp_up(delta_b ** q, 2))
        den_pow = delta_big.power(q - 1.0) if q != 2.0 else delta_big
        terms.append(div_pos(num_pow, den_pow))
        if chain[-1] == SENTINEL:
            break
        pos = int(np.searchsorted(idx, chain[-1]))
    total = Enclosure(0.0, 0.0)
    for t in terms:
        total = total + t
    return JagersTrace(
        m_chain=tuple(chain),
        d_set=tuple(range(1, len(chain))),
        norm=total.root(q),
    )


def jagers_dual_norm(b: CoeffSeq, e: Exponent,
                     tail_prefix: int = DEFAULT_TAIL_PREFIX) -> JagersTrace:
    """Exact dual norm of ``b`` with a certified enclosure and the full
    greedy trace.  Raises ArgminTieError when candidates stay
    numerically tied after the adaptive tightening rounds."""
    if b.is_empty:
        return JagersTrace(m_chain=(SENTINEL,), d_set=(), norm=Enclosure(0.0, 0.0))
    w = b.abs_values()
    last: _Ambiguous | None = None
    for round_ in range(_TIGHTEN_ROUNDS + 1):
        try:
            return _attempt(b.idx, w, e, tail_prefix << round_)
        except _Ambiguous as amb:
            last = amb
    raise ArgminTieError(last.chain, last.candidates)


# ---------------------------------------------------------------------------
# Independent optimization oracle
# ---------------------------------------------------------------------------

def dual_norm_oracle(b: CoeffSeq, e: Exponent, restarts: int,
                     seed: int = 0, sweeps: int = 24) -> float:
    """Numerical sup of |<a, b>| over ces-unit-ball a supported in supp(b).

    Aligning phases reduces the problem to maximizing sum x_n |b_n| over
    x >= 0 with unit Cesaro norm; the ascent maximizes the scale-free
    ratio coordinate by coordinate (the ratio of an affine numerator to
    a convex positive denominator is unimodal along each axis).  Returns
    the best value found: a lower bound on the true dual norm,
    empirically tight at these dimensions.
    """
    if b.is_empty:
        return 0.0
    m = len(b)
    if m > _ORACLE_SUPPORT_GUARD:
        raise ResourceLimitError(
            f"oracle support {m} exceeds the guard of {_ORACLE_SUPPORT_GUARD}"
        )
    if restarts < 1:
        raise DomainError("need at least one restart")
    p = e.p
    c = [float(v) for v in b.abs_values()]
    idx = [int(n) for n in b.idx]
    seg = [power_sum_range(p, idx[k], idx[k + 1]) for k in range(m - 1)]
    tail = _big_b(idx[-1], p, DEFAULT_TAIL_PREFIX).mid

    def norm_p(x: list[float]) -> float:
        acc = 0.0
        total = 0.0
        for k in range(m - 1):
            acc += x[k]
            total += acc ** p * seg[k]
        acc += x[m - 1]
        return total + acc ** p * tail

    def ratio(x: list[float]) -> float:
        n = norm_p(x)
        if n <= 0.0:
            return 0.0
        return sum(ck * xk for ck, xk in zip(c, x)) / n ** (1.0 / p)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0

    def ascend(x: list[float]) -> float:
        best = ratio(x)
        for _ in range(sweeps):
            improved = best
            for i in range(m):
                def f(t):
                    x[i] = t
                    return ratio(x)

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
                val = ratio(x)
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


def bennett_equivalence_check(b: CoeffSeq, e: Exponent, slack: float = 1e-9) -> bool:
    """True iff the certified dual-norm enclosure sits inside the
    two-sided majorant-norm equivalence window
    [(1/q) dq, (p-1)^(1/p) dq] widened by ``slack``."""
    from .sequences import dq_norm

    trace = jagers_dual_norm(b, e)
    dq = dq_norm(b, e)
    pad = slack * max(1.0, dq)
    lo_bound = dq / e.q - pad
    hi_bound = (e.p - 1.0) ** (1.0 / e.p) * dq + pad
    return lo_bound <= trace.norm.lo and trace.norm.hi <= hi_bound


# ---------------------------------------------------------------------------
# Point-evaluation norms
# ---------------------------------------------------------------------------

def delta_norm_bounds(sigma: float, e: Exponent, terms: int = 10 ** 6) -> tuple[float, float]:
    """Two-sided bounds for the point-evaluation norm at abscissa sigma:

        (1/q) zeta(sigma q)^(1/q)  <=  norm  <=  min(sigma, (p-1)^(1/p)) zeta(sigma q)^(1/q).
    """
    if sigma <= 1.0 / e.q:
        raise DomainError(
            f"point evaluation is unbounded for abscissa {sigma} <= 1/q = {1.0 / e.q}"
        )
    z = zeta_real(sigma * e.q, terms)
    zq = z.root(e.q)
    lo = ulp_down(zq.lo / e.q, 2)
    hi = ulp_up(min(sigma, (e.p - 1.0) ** (1.0 / e.p)) * zq.hi, 2)
    return lo, hi


def delta_norm_exact_p2(sigma: float, terms: int = 10 ** 6) -> Enclosure:
    """Exact p = 2 point-evaluation norm as a certified enclosure:

        norm^2 = sum_n n^2 (n^-sigma - (n+1)^-sigma)^2,

    valid on 1/2 < sigma <= 1.  The tail past the explicit terms is
    bracketed termwise by
    (2^sigma - 1)^2/(n+1)^(2 sigma) <= term_n <= sigma^2/(n+1)^(2 sigma).
    For sigma > 1 the exact-series representation is not available and
    the two-sided bounds are returned as the enclosure instead.
    """
    if sigma <= 0.5:
        raise DomainError(f"exact p=2 series requires sigma > 1/2, got {sigma}")
    if terms < 1:
        raise DomainError("need at least one explicit term")
    if sigma > 1.0:
        lo, hi = delta_norm_bounds(sigma, Exponent.from_p(2.0))
        return Enclosure(lo, hi)
    parts = []
    chunk = 1 << 20
    for lo_n in range(1, terms + 1, chunk):
        hi_n = min(lo_n + chunk, terms + 1)
        ns = np.arange(lo_n, hi_n, dtype=np.float64)
        # n (n^-s - (n+1)^-s) = n^(1-s) * (-expm1(-s log1p(1/n))), cancellation-free
        base = ns ** (1.0 - sigma) * (-np.expm1(-sigma * np.log1p(1.0 / ns)))
        parts.append(float(np.sum(base * base)))
    explicit = math.fsum(parts)
    zt = zeta_tail(2.0 * sigma, terms + 1)
    c_lo = (2.0 ** sigma - 1.0) ** 2
    c_hi = sigma * sigma
    slack = 4.0 * EPS * explicit
    sq = Enclosure(
        ulp_down(explicit + c_lo * zt.lo) - slack,
        ulp_up(explicit + c_hi * zt.hi) + slack,
    )
    return sq.root(2.0)


def sigma_threshold(e: Exponent) -> float:
    """The abscissa past which the point-evaluation norm freezes at
    zeta(p)^(-1/p):

        sigma_p = p - 1 + (log(p - 1) + log zeta(p)) / log 2,

    evaluated from the midpoint of the certified zeta(p) = zeta(p, 1)
    enclosure of ``hurwitz_zeta`` (relative width about 1e-14)."""
    lo, hi = hurwitz_zeta(e.p, [1])
    z = 0.5 * (float(lo[0]) + float(hi[0]))
    return e.p - 1.0 + (math.log(e.p - 1.0) + math.log(z)) / math.log(2.0)
