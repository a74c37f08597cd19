"""Multiplier-norm machinery.

The multiplier norm of f on the Cesaro-coefficient space equals its
weighted-ell^1 norm  sum |a_n| n^{-1/q}; the operations here probe that
identity numerically from both sides:

* ``monomial_multiplier_check`` verifies the sharp two-sided monomial
  law  ||m^-s g|| <= m^{-1/q} ||g||  together with the single-monomial
  probe that approaches equality,
* ``build_test_function`` constructs the prime-supported test functions
  g (coefficients (phi^alpha)'(r) at the r-th prime, r >= r_m, where
  phi(x) = x log x), and ``multiplier_lower_estimate`` evaluates the
  certified quotient  ||f g|| / ||g||  which lower-bounds the multiplier
  norm for every admissible g,
* ``find_rm`` scans a prime table for the onset of the two-sided
  prime-counting window  m p_r/(m+1) <= r log r <= m p_r/(m-1), and
  returns None when the table holds no such onset.  The upper half
  holds unconditionally (r log r < p_r for every r, Rosser 1939), but
  the lower half requires p_r/(r log r) <= 1 + 1/m, which at desk scale
  is only reachable for small m: the ratio still sits at ~1.122 at the
  664579-th prime (the last below 10^7), so no verified window exists
  for m >= 9 within a 10^7 table.  Estimates built without a verified
  window carry ``window_verified=False``, a ``heuristic-window`` flag in
  their records, with r_m anchored at the minimal admissible value m + 1,
* ``lemma_j_check`` verifies the phi^alpha summation sandwich used to
  control the prime sums,
* ``noncompactness_bound`` checks the quantitative lower bound
  ||m^{1/q} m^-s f|| >= (1/2) ||f||  behind the absence of nonzero
  compact multipliers,
* ``schur_finite``, ``schur_log_power`` and ``schur_power`` decide
  whether coefficientwise multiplication by a sequence family (finitely
  supported, (log n)^-alpha, n^-beta) maps the space into the
  multiplier algebra, via the summability of  sup_{k>=n} |b_k|^q / k;
  only log-power and power take a horizon (``schur-test --horizon``), each in O(1).

The quotient estimates converge to the multiplier norm only in a limit
whose entry threshold (n_m of order p_{r_m}^{m r_m}) is far beyond any
computation, so at desk scale they are heuristic approximations of a
rigorous limit and are flagged as such, never silently asserted.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import sequences
from .enclosure import LIB, TINY, U, Enclosure, gamma, ulp_down, ulp_up
from .errors import DomainError, ResourceLimitError, SelfCheckError
from .kernels import (
    PrimeTable,
    decrease_onset,
    phi_alpha_deriv,
    phi_xlogx,
    lambert_w,
    log_power_sum,
    power_sum_range,
    zeta_real,
)
from .sequences import (CoeffSeq, Exponent, PrimeCoeffs, abs_sum_exponent, ar_norm, ces_norm,
                        ces_norm_stream)
from .series import DirichletPoly, product_blocks, products_distinct

HEURISTIC_WINDOW_FLAG = "heuristic-window"
DESK_SCALE_FLAG = "desk-scale"

# absolute slack of the two norm inequalities, the monomial law and the
# non-compactness bound, and the relative slack of the Lemma J sandwich
_SLACK = 1e-10
_LEMMA_J_REL_SLACK = 1e-12
# random probes of the monomial law, a work bound: each is two Cesaro
# norms of at most 200 terms, 0.27-0.39 ms on a 2-core x86-64 host, so
# about 4 s
_MAX_SAMPLES = 10_000
# the largest index of a random probe g of the monomial law
_PROBE_MAX_INDEX = 200


@dataclass(frozen=True)
class MultiplierEstimate:
    """One certified lower-estimate run for the multiplier norm of f.  ``conv_limit``
    is the prime limit times f's largest index; the record's ``flag`` adds
    ``heuristic-window`` to ``desk-scale`` when ``window_verified`` is false."""

    m: int
    alpha: float
    r_m: int
    prime_limit: int
    conv_limit: int
    ratio: float
    reference: float
    window_verified: bool

    def as_record(self) -> dict:
        unverified = "" if self.window_verified else "," + HEURISTIC_WINDOW_FLAG
        return asdict(self) | {"flag": DESK_SCALE_FLAG + unverified}


# ---------------------------------------------------------------------------
# Monomial multipliers
# ---------------------------------------------------------------------------

def monomial_multiplier_check(
    m: int,
    e: Exponent,
    samples: int,
    j_probe: int,
    seed: int = 42,
) -> tuple[bool, float]:
    """Probe the monomial multiplier norm m^{-1/q} from both sides.

    upper_ok: no random g violated  ||m^-s g|| <= m^{-1/q} ||g|| + 1e-10
    (hi endpoint of the product against lo endpoint of the bound).
    lower_est: the certified quotient for the probe g = j^-s, which is
    at least ((j-1)/(j m))^{1/q} and approaches m^{-1/q} as j grows.
    """
    if m < 1:
        raise DomainError(f"monomial index must be >= 1, got {m}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if j_probe < 2:
        raise DomainError(f"probe index must be >= 2, got {j_probe}")
    if samples < 1:
        raise DomainError(f"sample count must be >= 1, got {samples}")
    if samples > _MAX_SAMPLES:
        raise ResourceLimitError(f"sample count exceeds the {_MAX_SAMPLES} work guard")
    if m == 1:
        return True, 1.0
    if m * max(_PROBE_MAX_INDEX, j_probe) > 2 ** 53:  # the Cesaro norms' index range
        raise DomainError(f"m={m} times max({_PROBE_MAX_INDEX}, j_probe={j_probe}) passes 2**53")
    bound = float(m) ** (-1.0 / e.q)
    rng = np.random.default_rng(seed)
    upper_ok = True
    for _ in range(samples):
        g = sequences.random_seq(rng, max_index=_PROBE_MAX_INDEX)
        # m^-s g moves the entry at n to m n
        lhs = ces_norm(CoeffSeq(m * g.idx, g.val, _validated=True), e)
        rhs = ces_norm(g, e)
        if lhs.hi > bound * rhs.lo + _SLACK:
            upper_ok = False
    # single-monomial probe: ||m^-s j^-s|| / ||j^-s|| with exact supports
    num = ces_norm(CoeffSeq.from_pairs([(m * j_probe, 1.0)]), e)
    den = ces_norm(CoeffSeq.from_pairs([(j_probe, 1.0)]), e)
    lower_est = num.lo / den.hi
    return upper_ok, lower_est


# ---------------------------------------------------------------------------
# Prime-counting window and test functions
# ---------------------------------------------------------------------------

def find_rm(m: int, table: PrimeTable) -> int | None:
    """Smallest r_m > m such that m p_r/(m+1) <= r log r <= m p_r/(m-1)
    for every r from r_m through the end of the table, or None when no
    rank qualifies: the table holds fewer than m + 2 primes, or even its
    last rank fails (the case for m >= 9 with tables up to 10^7).  Only
    the lower half is tested, empirically over the table range: r log r
    < p_r (Rosser 1939, see ``kernels``) settles the upper, in float64 too.

    The table is scanned from its end in chunks of ``sequences.BLOCK``
    ranks, each decoded from the table's mark before it (marks every 2^8
    ranks), stopping at the first chunk with a failing rank."""
    if m < 2:
        raise DomainError(f"window parameter m must be >= 2, got {m}")
    count = len(table)
    if count < m + 2:
        return None
    step = sequences.BLOCK
    last_bad = -1
    for s in range((count - 1) // step * step, -1, -step):
        r = np.arange(s + 1, min(s + step, count) + 1, dtype=np.float64)
        v = r * np.log(r)  # r log r; r=1 gives 0 and fails the lower side
        pr = table.read(s, s + step).astype(np.float64)
        bad = np.flatnonzero(m * pr / (m + 1.0) > v)
        if bad.size:
            last_bad = s + int(bad[-1])
            break
    r_m = max(m + 1, last_bad + 2)
    return r_m if r_m <= count else None


def build_test_function(
    m: int,
    alpha: float,
    e: Exponent,
    table: PrimeTable,
    r_m: int,
) -> DirichletPoly:
    """The prime-supported test function: coefficient (phi^alpha)'(r) at
    index p_r for r_m <= r <= pi(table.limit), zero elsewhere.

    alpha must lie in (1/(2q), 1/q), and r_m must exceed m and lie at or past
    the numerically certified onset of monotone decrease of (phi^alpha)';
    ``multiplier_lower_estimate`` decides r_m.

    g is a ``PrimeCoeffs``: its support is the table's ranks from r_m on,
    read from the table's one-byte gaps whenever it is needed, and its
    values are real float64, filled in blocks of ``sequences.BLOCK``: g
    adds one float64 array of length pi(L) - r_m + 1 to the table.
    """
    q = e.q
    if not (1.0 / (2.0 * q) < alpha < 1.0 / q):
        raise DomainError(f"alpha={alpha} outside (1/(2q), 1/q) = ({1/(2*q)}, {1/q})")
    if m < 2:
        raise DomainError(f"m must be >= 2, got {m}")
    if r_m <= m:
        raise DomainError(f"r_m={r_m} must exceed m={m}")
    onset = decrease_onset(1.0 / q)
    if r_m < onset:
        raise DomainError(f"r_m={r_m} is before the monotone-decrease onset {onset}")
    count = len(table)
    if r_m > count:
        raise DomainError(f"r_m={r_m} exceeds the table ({count} primes)")
    values = np.empty(count - r_m + 1)
    step = sequences.BLOCK
    for s in range(0, values.size, step):
        rs = np.arange(r_m + s, r_m + min(s + step, values.size), dtype=np.float64)
        values[s:s + step] = phi_alpha_deriv(rs, alpha)
    return DirichletPoly(PrimeCoeffs(table, r_m - 1, values))


def multiplier_lower_estimate(
    f: DirichletPoly,
    m: int,
    alpha: float,
    e: Exponent,
    table: PrimeTable,
    r_m: int | None = None,
) -> MultiplierEstimate:
    """Certified quotient  ces(f*g).lo / ces(g).hi  for the (m, alpha)
    test function g, a valid lower bound for the multiplier norm of f.
    This is the one place that decides g: r_m is the given anchor, else the
    window onset of ``find_rm``, else the minimal admissible anchor m + 1.
    The product f*g runs over the whole table, to ``table.limit`` times the
    largest index of f, and is streamed through the Cesaro sum, never stored.
    Where no two products share an index (``products_distinct``), it
    streams |f|*g instead: |c_(ip)| = |a_i| g_p, the same norm in float64,
    with |a_i| from C ``hypot`` (``enclosure``); a real f keeps its bits.
    An f whose least |a_i| times g's least value is below 2^-1022 raises
    DomainError: such products are subnormal, with too few bits.

    ``reference`` records the weighted-ell^1 norm  sum |a_n| n^{-1/q},
    which the quotient can never exceed: a quotient above its certified
    upper bound ``_reference_hi`` raises SelfCheckError (rounding the
    quotient is monotone, so it cannot cross the bound by itself).
    """
    if f.is_zero:
        raise DomainError("multiplier estimate needs a nonzero f")
    onset = find_rm(m, table)
    if r_m is None:
        r_m = m + 1 if onset is None else onset
        if r_m > len(table):
            raise DomainError(
                f"m={m} is too large for the table to prime limit {table.limit} "
                f"({len(table)} primes): its fallback anchor m + 1 lies past the end"
            )
    g = build_test_function(m, alpha, e, table, r_m=r_m)
    conv_limit = table.limit * f.max_index
    # sum |c_n| <= sum |a_k| sum |b_m| scales the streamed product f*g
    scale = abs_sum_exponent(f.coeffs) + abs_sum_exponent(g.coeffs)
    v = f.coeffs.val
    moduli = np.hypot(v.real, v.imag)
    # g decreases from r_m (at or past the onset): its last value is its least
    if float(moduli.min()) * float(g.coeffs.val[-1]) < 2.0 ** -1022:
        raise DomainError("a product |a_i| g_j falls below the float64 normal range")
    factor = (DirichletPoly(CoeffSeq(f.coeffs.idx, moduli, _validated=True))
              if products_distinct(f, g) else f)
    num = ces_norm_stream(product_blocks(factor, g, conv_limit), scale, e)
    den = ces_norm(g.coeffs, e)
    ratio = num.lo / den.hi
    reference = ar_norm(f.coeffs, 1.0 / e.q)
    if ratio > _reference_hi(f.coeffs, 1.0 / e.q, reference):
        raise SelfCheckError(
            f"quotient {ratio} exceeds the weighted-ell1 reference {reference}; "
            "enclosure arithmetic is broken"
        )
    return MultiplierEstimate(
        m=m,
        alpha=alpha,
        r_m=int(r_m),
        prime_limit=table.limit,
        conv_limit=conv_limit,
        ratio=float(ratio),
        reference=float(reference),
        window_verified=onset is not None and r_m >= onset,
    )


def _reference_hi(a: CoeffSeq, r: float, reference: float) -> float:
    """An upper bound of the exact  sum |a_n| n^-r  (0 < r < 1) from
    ``reference``, its value from ``ar_norm``.  Error model in
    ``enclosure``: per term complex abs LIB, the int64 index to float64
    1, the power LIB plus |r log n| U for the rounded exponent r = 1/q,
    the product 1; ``math.fsum`` one rounding.  Below the normal range
    the abs and the final scaling lose up to TINY, the scaling by
    2**-shift and the product up to TINY 2**shift each (n^-r <= 1)."""
    count = 2 * LIB + 2 + r * math.log(a.max_index)
    shift = math.frexp(float(np.max(a.abs_values())))[1]
    under = (len(a) + 1.0) * TINY + math.ldexp(2.0 * len(a), shift - 1074)
    return ulp_up((reference + under) / (1.0 - gamma(count + 1)), 2)


# ---------------------------------------------------------------------------
# The phi^alpha summation sandwich
# ---------------------------------------------------------------------------

def _phi_sublevel_top(c: float) -> int:
    """Largest integer r >= 1 with phi(r) <= c (0 when even r = 1 fails).

    Seeded by the exact inverse r = c / W(c), then corrected by direct
    phi comparison so boundary indices are classified by the float value
    of phi rather than by Lambert-W rounding.
    """
    if c <= 0:
        return 1 if c >= 0.0 else 0  # phi(1) = 0
    r = max(1, math.floor(c / lambert_w(c)))
    while phi_xlogx(float(r + 1)) <= c:
        r += 1
    while r > 1 and phi_xlogx(float(r)) > c:
        r -= 1
    return r


def lemma_j_check(
    r0: int,
    c1: float,
    c2: float,
    alpha: float,
    beta: float,
    j_set: list[int],
) -> bool:
    """Check  C2^alpha - phi(r0)^alpha <= sum_{r in J} (phi^alpha)'(r)
    <= C1^alpha - phi(r0-1)^alpha  for an index set J wedged between the
    sublevel sets {r >= r0 : phi(r) <= C2} and {r >= r0 : phi(r) <= C1}.

    The inclusions are validated before the sums are compared
    (DomainError on violation); phi-sublevel membership is decided via
    the exact inverse x = C/W(C) of phi.
    """
    if not (0 < alpha <= beta < 1):
        raise DomainError(f"need 0 < alpha <= beta < 1, got alpha={alpha}, beta={beta}")
    if r0 < 2:
        raise DomainError(f"r0 must be >= 2, got {r0}")
    phi_r0 = phi_xlogx(float(r0))
    if not (c1 >= c2 >= phi_r0):
        raise DomainError(f"need C1 >= C2 >= phi(r0), got {c1}, {c2}, {phi_r0}")
    onset = decrease_onset(beta)
    if r0 < onset:
        raise DomainError(f"r0={r0} is before the monotone-decrease onset {onset}")
    js = sorted(set(int(r) for r in j_set))
    if js and js[0] < r0:
        raise DomainError(f"J contains {js[0]} < r0={r0}")
    top1 = _phi_sublevel_top(c1)
    # indices sitting numerically on the C2 boundary are optional members,
    # not required ones (phi(r) == C2 decides either way in real arithmetic)
    top2 = _phi_sublevel_top(c2 * (1.0 - 1e-12))
    j_must = set(range(r0, top2 + 1))
    j_may = set(range(r0, top1 + 1))
    j_given = set(js)
    if not j_must <= j_given:
        raise DomainError(f"J misses required indices {sorted(j_must - j_given)[:5]}")
    if not j_given <= j_may:
        raise DomainError(f"J contains excluded indices {sorted(j_given - j_may)[:5]}")
    if js:
        rs = np.array(js, dtype=np.float64)
        total = float(np.sum(phi_alpha_deriv(rs, alpha)))
    else:
        total = 0.0
    lo = c2 ** alpha - phi_r0 ** alpha
    hi = c1 ** alpha - phi_xlogx(float(r0 - 1)) ** alpha if r0 > 1 else c1 ** alpha
    pad = _LEMMA_J_REL_SLACK * max(1.0, abs(total))
    return lo - pad <= total <= hi + pad


# ---------------------------------------------------------------------------
# Non-compactness inequality
# ---------------------------------------------------------------------------

def noncompactness_bound(f: DirichletPoly, m: int, e: Exponent) -> bool:
    """True iff  ||m^-s f||.hi >= (m^{1/p} / (2m)) ||f||.lo - 1e-10,
    i.e. the normalized form  ||m^{1/q} m^-s f|| >= (1/2) ||f||."""
    if f.is_zero:
        raise DomainError("the bound is vacuous for f = 0")
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if m * f.max_index > 2 ** 53:  # the Cesaro norms' index range
        raise DomainError(f"m={m} times the largest index {f.max_index} of f passes 2**53")
    lhs = ces_norm(CoeffSeq(m * f.coeffs.idx, f.coeffs.val, _validated=True), e)  # m^-s f
    rhs = ces_norm(f.coeffs, e)
    factor = float(m) ** (1.0 / e.p) / (2.0 * m)
    return lhs.hi >= factor * rhs.lo - _SLACK


# ---------------------------------------------------------------------------
# Schur multipliers into the weighted-ell^1 algebra
# ---------------------------------------------------------------------------

def schur_finite(b: CoeffSeq, e: Exponent) -> tuple[str, Enclosure]:
    """Schur test of a finitely supported b: always 'schur', the sup-sum
    enclosed exactly (the sup-sequence vanishes past the support), widened
    by the largest per-term count of the ``enclosure`` error model."""
    if b.is_empty:
        return "schur", Enclosure(0.0, 0.0)
    a = b.abs_values()
    with np.errstate(over="ignore"):  # an infinite w fails the finite-sum check below
        w = a ** e.q / b.idx.astype(np.float64)
    gaps = np.diff(np.concatenate(([0], b.idx)))
    try:
        total = math.fsum(np.maximum.accumulate(w[::-1])[::-1] * gaps)
    except OverflowError:  # finite terms whose sum is not
        total = math.inf
    if total < math.inf:
        # q LIB for the complex abs (exact for real or imaginary b_k), the
        # rounded q, the power, the quotient, the product with the gap and
        # fsum, and the floats of indices and gaps past 2^53
        cnt = float(np.max(e.q * LIB * ((b.val.real != 0) & (b.val.imag != 0))
                           + 2.0 * e.q * np.abs(np.log(a))))
        cnt += LIB + 3.0 + 2.0 * (b.max_index > 2 ** 53)
        if cnt * U > 2.0 ** -10:
            raise DomainError(f"p = {e.p} is too close to 1 for a certified Schur sum")
        g = gamma(cnt + 1.0)  # and the product with 1 -+ g
        # |b_k|, its power, the quotient and the product may each be off by
        # TINY below the normal range, for every term whose suffix holds one
        tiny = 4.0 * TINY * float(gaps[np.minimum.accumulate(w[::-1])[::-1] < 2.0 ** -1021].sum())
        hi = total * ulp_up(1.0 + g) + tiny
        if hi < math.inf:
            return "schur", Enclosure(max(total * ulp_down(1.0 - g) - tiny, 0.0), hi)
    raise DomainError("the finite sup-sum exceeds the float64 range")


def schur_log_power(alpha: float, e: Exponent, horizon: int) -> tuple[str, Enclosure]:
    """Schur test of b_n = (log n)^-alpha, n >= 2: 'schur' iff q alpha > 1,
    enclosing the whole sup-sum; 'not_schur' encloses only the partial sum
    to the horizon.  Both are ``log_power_sum`` calls, O(1) at any horizon."""
    if not 0 < alpha < math.inf:
        raise DomainError(f"log_power needs a finite alpha > 0, got {alpha}")
    if not 2 <= horizon < 2 ** 53:
        raise DomainError(f"horizon must lie in [2, 2**53), got {horizon}")
    c = e.q * alpha
    # t_n = (log n)^-c / n is decreasing from n = 2, so sup_{k>=n} t_k = t_n;
    # the n = 1 term equals t_2 (the sequence starts at 2)
    t2 = log_power_sum(c, 2, 3)
    if c > 1.0:
        return "schur", t2 + log_power_sum(c, 2)
    # c <= 1: termwise at least 1/(n log n) for n >= 3 up to a constant,
    # and sum 1/(n log n) diverges
    return "not_schur", t2 + log_power_sum(c, 2, horizon + 1)


def schur_power(beta: float, e: Exponent, horizon: int) -> tuple[str, Enclosure]:
    """Schur test of b_n = n^-beta, n >= 1: 'schur' iff beta > 0, enclosing
    zeta(q beta + 1); 'not_schur' a lower bound of the sup-sum to the horizon."""
    if not math.isfinite(beta):
        raise DomainError(f"power needs a finite real beta, got {beta}")
    if not 2 <= horizon < 2 ** 53:
        raise DomainError(f"horizon must lie in [2, 2**53), got {horizon}")
    exponent = e.q * beta + 1.0
    if beta > 0:
        # t_n = n^-(q beta + 1) decreasing, exponent > 1: the sum is zeta
        return "schur", zeta_real(exponent)
    if beta == 0:
        # the harmonic sum to the horizon
        return "not_schur", power_sum_range(1.0, 1, horizon + 1)
    # beta < 0: t_k = k^-exponent with exponent < 1, so the sum diverges
    # (each sup is infinite once t_k grows); the witness horizon t_horizon
    # is at most the sup-sum with sups taken up to the horizon.  Error
    # model in ``enclosure``: q rounded twice and its product with beta
    # put 3 |q beta| U into the exponent and the sum with 1 |exponent| U,
    # each moving the power by log(horizon) times as much; the power adds
    # LIB, the product with the (exact) float horizon 1 and that with
    # 1 -+ g 1
    count = (3.0 * abs(e.q * beta) + abs(exponent)) * math.log(horizon) + LIB + 2.0
    g = gamma(count)
    try:
        partial = float(horizon) ** (-exponent) * horizon
        return "not_schur", Enclosure(partial * ulp_down(1.0 - g), partial * ulp_up(1.0 + g))
    except (OverflowError, ValueError):  # the power, or an endpoint, is not finite
        raise DomainError(f"the beta={beta} sup-sum witness exceeds the float64 range") from None
