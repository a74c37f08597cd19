"""Number-theoretic and special-function kernels.

Prime tables in one byte per prime, with the prime before every 2^8-th
rank as a mark, so a read starts at any rank; membership in the
p_1..p_r-smooth integers; certified Hurwitz zeta values, power-sum
segments (and the real zeta values, tails and power sums taken from
them) and sums of 1/(n (log n)^c); the principal Lambert W branch; and
the derivative of (x log x)**alpha used by the prime-supported
multiplier test functions.

The prime-number facts the program uses, with their sources:

* pi(x) < 1.25506 x / log x for x > 1 and p_r < r (log r + log log r)
  for r >= 6 (Rosser and Schoenfeld, Illinois J. Math. 6, 1962, (3.6) and
  (3.13)): ``_pi_upper`` and ``_nth_prime_upper``;
* prime gaps below 1e9 are at most 282, and maximal gaps stay below 510
  up to about 3e11 (Oliveira e Silva, Herzog and Pardi, Math. Comp. 83,
  2014), so a half-gap fits the one byte per prime of ``PrimeTable``;
* p_r > r log r for r >= 1 (Rosser, Proc. London Math. Soc. 45, 1939),
  so ``multipliers.find_rm`` tests one side of its window.

All functions here are pure; returned tables are immutable and safe to
share across threads.  ``sieve_primes`` keeps the two most recently
used tables, shared read-only: about 1.3 MiB for limits up to 1e7 (the
marks 20 KiB a table) and about 100 MiB at the 1e9 guard (the marks
1.5 MiB a table).  A ladder pass sieves 1e6 and 1e7 once each;
``verify --suite all`` sieves 1e7, then the projection suite's tables
up to 11: 424 calls, 17 misses, 16 of them about 50 us each.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .enclosure import LIB, TINY, Enclosure, gamma, ulp_down, ulp_up
from .errors import ConvergenceError, DomainError

# Odd numbers per sieve segment: a 1 MB flag array.
_SEGMENT_SIZE = 1 << 20

_MAX_SIEVE_LIMIT = 10 ** 9

# Ranks between the marks of a ``PrimeTable``: a read sums fewer half-gaps
# than this before its first rank, and the marks take 8 bytes per this
# many primes.
_MARK_STEP = 1 << 8


# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, ascending, in one byte per prime.

    With ranks counted from 0 and p_0 = 2 read as 1, every gap
    p_j - p_{j-1} is even; ``halves[j]`` is half of it (``halves[0]`` = 0),
    a uint8, which every half-gap below the sieve guard fits (the prime
    gaps in the module docstring).  ``marks[c]`` is the prime before rank
    c ``step`` (1 for c = 0), ``step`` = 2^8 unless the table was sieved
    with another spacing, so a read from any rank sums fewer than
    ``step`` half-gaps before its first rank.  No int64 copy is held: ``read``
    decodes a run of ranks into a fresh array, and ``nth`` one prime.
    """

    limit: int
    halves: np.ndarray
    marks: np.ndarray
    step: int

    def __post_init__(self):
        self.halves.setflags(write=False)
        self.marks.setflags(write=False)

    def __len__(self) -> int:
        return int(self.halves.size)

    def read(self, start: int, stop: int) -> np.ndarray:
        """The primes of ranks start..stop-1 (from 0, clipped to the
        table) as a fresh int64 array, walked from the mark before
        start."""
        c = min(start // self.step, self.marks.size - 1)
        out = np.cumsum(self.halves[start:stop], dtype=np.int64)
        out *= 2
        out += int(self.marks[c]) + 2 * int(self.halves[c * self.step:start].sum(dtype=np.int64))
        if start == 0 and out.size:
            out[0] = 2
        return out

    def nth(self, r: int) -> int:
        """The r-th prime, 1-indexed (nth(1) == 2)."""
        if not 1 <= r <= len(self):
            raise DomainError(f"prime index {r} outside table of {len(self)} primes")
        return int(self.read(r - 1, r)[0])


def _pi_upper(x: int) -> int:
    """A bound on pi(x) for x >= 2: pi(x) < 1.25506 x / log x (Rosser and Schoenfeld, (3.6))."""
    return int(1.25506 * x / math.log(x)) + 2


def _nth_prime_upper(r: int) -> int:
    """A bound on p_r: p_r < r (log r + log log r) for r >= 6 (ibid., (3.13)); p_r <= 11 below."""
    return 11 if r < 6 else math.ceil(r * (math.log(r) + math.log(math.log(r))))


def _half_gaps(k: np.ndarray, last: int) -> np.ndarray:
    """The gaps of the increasing, nonempty k after ``last``: for the odd
    primes 2k + 1 the half-gaps of ``PrimeTable``, each at most 255."""
    gaps = np.empty_like(k)
    gaps[0] = k[0] - last
    np.subtract(k[1:], k[:-1], out=gaps[1:])
    if int(gaps.max()) > 255:
        raise DomainError(f"a prime gap of {2 * int(gaps.max())} does not fit the one-byte table")
    return gaps


def _sieve(limit: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """``PrimeTable.halves`` and ``marks`` of the primes <= limit (>= 2),
    segmented and odd-only: flag k of a segment stands for 2k + 1, and the
    odd primes up to sqrt(limit) strike their odd multiples from p^2 on,
    stepping p in k.  Half-gaps are gaps in k, 2 taking k = 0, and a mark
    is 2k + 1 of the rank before each run of ``step`` ranks.  The half-gaps
    fill one uint8 array sized by ``_pi_upper``, shrunk in place at the
    end."""
    root = math.isqrt(limit)
    base = (2 * np.cumsum(_sieve(root, step)[0], dtype=np.int64) + 1)[1:].tolist() if root >= 3 else []
    stop = (limit - 1) // 2 + 1  # k = 1 .. (limit - 1) // 2 stand for 3 .. limit

    def ks():
        yield np.zeros(1, dtype=np.int64)  # 2, read as 1
        for lo in range(1, stop, _SEGMENT_SIZE):
            hi = min(lo + _SEGMENT_SIZE, stop)
            flags = np.ones(hi - lo, dtype=bool)
            for p in base:
                first = (p * p) // 2
                if first >= hi:
                    break
                # 2k + 1 = 0 mod p  <=>  k = (p - 1)/2 mod p
                first = max(first, lo + (p // 2 - lo) % p)
                flags[first - lo:: p] = False
            found = np.flatnonzero(flags)
            found += lo
            yield found

    halves = np.empty(_pi_upper(limit), dtype=np.uint8)
    marks = [np.zeros(1, dtype=np.int64)]  # k before rank 0
    count = last = 0  # ranks so far, k of the last prime
    for found in ks():
        if found.size:
            halves[count:count + found.size] = _half_gaps(found, last)
            marks.append(found[(step - 1 - count) % step::step].copy())
            count += found.size
            last = int(found[-1])
    halves.resize(count, refcheck=False)
    return halves, 1 + 2 * np.concatenate(marks)[:-(-count // step)]


@functools.lru_cache(maxsize=2)
def _table(limit: int, step: int) -> PrimeTable:
    """The table of ``sieve_primes``, with a mark every ``step`` ranks."""
    halves, marks = _sieve(limit, step)
    return PrimeTable(limit=limit, halves=halves, marks=marks, step=step)


def sieve_primes(limit: int) -> PrimeTable:
    """Complete table of primes <= limit (2 <= limit <= 1e9), with a mark
    before every ``_MARK_STEP``-th rank.

    Each (limit, ``_MARK_STEP``) is sieved once while it stays among the
    two most recently used, which are kept and shared read-only.  The limit
    is checked on every call, before the lookup, so ``1e6`` stays an
    error after ``10**6`` is kept."""
    if not isinstance(limit, (int, np.integer)) or limit < 2:
        raise DomainError(f"sieve limit must be an integer >= 2, got {limit!r}")
    if limit > _MAX_SIEVE_LIMIT:
        raise DomainError(f"sieve limit {limit} exceeds the {_MAX_SIEVE_LIMIT} memory guard")
    return _table(int(limit), _MARK_STEP)


def smooth_mask(ns, r: int) -> np.ndarray:
    """For every n in ``ns``, whether all prime factors of n are among
    the first r primes, as a bool array; n == 1 is smooth for every r.
    The table sieved to min(max(ns), ``_nth_prime_upper(r)``) holds p_r
    or every prime <= max(ns).  Trial division by its primes up to
    min(p_r, sqrt(max(ns))), decoded once, leaves of n 1, a prime or a
    product of primes past p_r: n is smooth iff the rest is at most p_r
    (the table's limit when it holds fewer than r primes)."""
    ns = [int(n) for n in ns]
    if min(ns, default=1) < 1:
        raise DomainError(f"smoothness is defined for positive integers, got {min(ns)}")
    if r < 1:
        raise DomainError(f"prime count r must be >= 1, got {r}")
    top = max(ns, default=1)
    # from r = max(ns) on, p_r > r needs no bound (and r may pass the float range)
    table = sieve_primes(max(2, top if r >= top else min(top, _nth_prime_upper(r))))
    root = math.isqrt(top)
    roots = [p for p in table.read(0, min(r, _pi_upper(max(root, 2)))).tolist() if p <= root]
    bound = table.nth(r) if r <= len(table) else table.limit
    out = np.empty(len(ns), dtype=bool)
    for k, n in enumerate(ns):
        for p in roots:
            if p * p > n:
                break
            while n % p == 0:
                n //= p
        out[k] = n <= bound
    return out


# ---------------------------------------------------------------------------
# Certified zeta values, tails and power sums
# ---------------------------------------------------------------------------

# Euler-Maclaurin for the Hurwitz zeta function: B_2j/(2j)! for the
# Bernoulli numbers B_2, B_4, ..., B_18, each the float quotient of the
# rounded B_2j and the exact (2j)! (below 2**53).  At most K = 8 of them
# enter the sum; B_18 bounds the remainder.
_BERNOULLI_RATIOS = tuple(b / math.factorial(2 * j) for j, b in enumerate((
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798), 1))
_EM_TERMS = len(_BERNOULLI_RATIOS) - 1
_MAX_HURWITZ_EXPONENT = 64.0
_MAX_EXACT_INDEX = 2 ** 53


def _em_sum(m: np.ndarray, x: float, coef: list[float]) -> np.ndarray:
    """m^(1-x) (1/(x-1) + y/2 + y^2 sum_j C_j y^(2j-2)), y = 1/m, by Horner
    (``coef`` is C_K..C_1)."""
    y = 1.0 / m
    if len(coef) == 1:
        acc = y * coef[0]
    else:
        v = y * y
        acc = v * coef[0]
        acc += coef[1]
        for c in coef[2:]:
            acc *= v
            acc += c
        acc *= y
    acc += 0.5
    acc *= y
    acc += 1.0 / (x - 1.0)
    acc *= np.power(m, 1.0 - x)
    return acc


def _em_setup(x, n, harmonic=False) -> tuple[float, np.ndarray, int, int, list[float]]:
    """Checks shared by the Euler-Maclaurin kernels (``harmonic`` admits
    x = 1).  Returns x, the int64 indices, N0 = 16 + ceil(x), the least
    index (N0 when there is none) and C_1..C_{K+1},
    C_j = B_2j/(2j)! x (x+1) ... (x+2j-2)."""
    x = float(x)
    if not ((x >= 1.0 if harmonic else x > 1.0) and x <= _MAX_HURWITZ_EXPONENT):
        raise DomainError(f"{'segment' if harmonic else 'Hurwitz'} kernel needs "
                          f"1 {'<=' if harmonic else '<'} x <= {_MAX_HURWITZ_EXPONENT:g}, got {x}")
    n = np.asarray(n, dtype=np.int64)
    n0 = 16 + math.ceil(x)
    least = int(n.min()) if n.size else n0
    if n.size and (least < 1 or int(n.max()) > _MAX_EXACT_INDEX):
        raise DomainError(f"Hurwitz kernel indices must lie in [1, 2**53], got "
                          f"[{least}, {int(n.max())}]")
    # every m^(1-x) must stay far above the subnormal range
    if n.size and (x - 1.0) * math.log2(max(int(n.max()), n0)) > 1000.0:
        raise DomainError(f"zeta({x}, {int(n.max())}) leaves the float64 normal range")
    coef, rising = [], x
    for j, ratio in enumerate(_BERNOULLI_RATIOS, start=1):
        coef.append(ratio * rising)
        rising *= (x + 2 * j - 1) * (x + 2 * j)
    return x, n, n0, least, coef


def _add_head(x: float, n0: int, a: np.ndarray, lo: np.ndarray, hi: np.ndarray, b=None) -> None:
    """Where a < N0, adds the explicit head sum_{a <= k < min(b, N0)} k^-x
    (b None: k < N0) to lo and hi in place and widens them.  Row s of
    one (N0 + 1) x (N0 - 1) table holds the terms k < s from k = N0 - 1
    down, summed along the row, so every head is summed from its
    smallest term: LIB per term, at most N0 - 2 additions, 1 to join
    the Euler-Maclaurin part from N0 and 1 to scale."""
    small = a < n0
    if not small.any():
        return
    k = np.arange(n0 - 1, 0, -1)
    table = np.where(k < np.arange(n0 + 1)[:, None], np.power(k.astype(np.float64), -x), 0.0)
    np.cumsum(table, axis=1, out=table)
    head = table[n0 if b is None else np.minimum(b[small], n0), n0 - 1 - a[small]]
    g = gamma(LIB + n0 + 1)
    lo[small] = (head + lo[small]) * ulp_down(1.0 - g)
    hi[small] = (head + hi[small]) * ulp_up(1.0 + g)


def hurwitz_zeta(x: float, n) -> tuple[np.ndarray, np.ndarray]:
    """Certified [lo, hi] arrays of zeta(x, n) = sum_{k >= n} k**-x for an
    integer array 1 <= n <= 2**53 and real 1 < x <= 64.

    Below N0 = 16 + ceil(x) the explicit head of ``_add_head``, shared
    with ``power_segment`` and summed from its smallest term under
    gamma(LIB + N0 + 1); from N0 on, Euler-Maclaurin with K <= 8 terms
    (Johansson, Numer. Algorithms 2015, arXiv:1309.2877):
    zeta(x, m) = m^(1-x) (1/(x-1) + 1/(2m) + sum_j C_j m^-2j) + R with
    C_j = B_2j/(2j)! x (x+1) ... (x+2j-2).  k**-x is completely monotone,
    so R lies between 0 and the first omitted term, which for m >= N0 is
    at most |C_{K+1}| (x-1)/m^(2K+2) times the sum.  The margin is the one
    of K = 8 at N0, and each call takes the fewest terms whose omitted
    term is no larger there, and below 2^-71 of the sum, at its least
    index m: at x = 2, K = 8 at N0, K = 2 from m = 1958 and K = 1 from
    m = 94190.
    """
    x, n, n0, least, coef = _em_setup(x, n)
    # remainder bound of K = 8 at N0, doubled to cover its own rounding
    eps_r = 2.0 * coef[-1] * (x - 1.0) / float(n0) ** (2 * _EM_TERMS + 2)
    # the fewest terms K whose omitted term is at most eps_r / 2 and 2^-71
    # of the sum at the least index m.  R then has the sign of C_{K+1}:
    # a positive R lies within eps_r, a negative one within the U/2 that
    # f_lo's outward ulp leaves below 1 - gamma.  2^-71 (4e-6 U) keeps the
    # K = 8 bits in practice: 1 value in 2e7 moved by an ulp, sampled at
    # the cut-offs of x = 1.01..64
    m = float(max(least, n0))
    cut = min(eps_r, 2.0 ** -70)
    k = next((k for k in range(1, _EM_TERMS)
              if 2.0 * abs(coef[k]) * (x - 1.0) / m ** (2 * k + 2) <= cut), _EM_TERMS)
    # for m >= N0 each Horner term is at most 1/(4 pi^2) of the one before
    # (|B_2j+2|/(2j+2)! < |B_2j|/(2j)!/(4 pi^2)), so the bracket is within
    # 11 U of exact (C_1 within 2 U, C_j within (4j + 2) U but damped,
    # 1/(x-1) within 1 U, 1 - x exact), the power adds LIB and the
    # product 1; scaling by the factors below 1 more.  The factors
    # themselves are rounded outwards
    f_lo = ulp_down(1.0 - gamma(LIB + 13))
    f_hi = ulp_up(1.0 + (gamma(LIB + 13) + eps_r))
    # zeta(x, n) = sum_{n <= k < N0} k^-x + zeta(x, N0) below N0
    em = _em_sum((np.maximum(n, n0) if least < n0 else n).astype(np.float64), x, coef[k - 1::-1])
    lo, hi = em * f_lo, em * f_hi
    if least < n0:
        _add_head(x, n0, n, lo, hi)
    return lo, hi


def power_segment(x: float, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Certified [lo, hi] arrays of S_x(a, b) = sum_{a <= k < b} k**-x for
    integer arrays 1 <= a < b <= 2**53 and real 1 <= x <= 64, with
    x log2(b) <= 1000 so that every term is a normal float.

    Unlike zeta(x, a) - zeta(x, b), which cancels when b - a << a, the
    relative width stays about 1e-14 however short the segment.  Below
    N0 = 16 + ceil(x) the explicit head of ``_add_head``, shared with
    ``hurwitz_zeta`` and summed from its smallest term under
    gamma(LIB + N0 + 1); from N0 on, Euler-Maclaurin on the segment
    itself: with y = 1/a, L = log1p((b - a)/a) and
    E(s) = -expm1(-s L) = 1 - (a/b)^s, every power difference
    a^(1-x-2j) - b^(1-x-2j) is a^(1-x) y^2j E(x+2j-1), so
    S = a^(1-x) (E(x-1)/(x-1) + y E(x)/2 + sum_j C_j y^2j E(x+2j-1)) + R.
    k**-x is completely monotone, so R lies between 0 and the first
    omitted term a^(1-x) C_{K+1} y^(2K+2) E(x+2K+1) (Graham, Knuth and
    Patashnik, "Concrete Mathematics", section 9.5).  At x = 1 the first
    term E(x-1)/(x-1) is its limit L and a^(1-x) = 1: the harmonic sums.
    """
    x, b, n0, _, coef = _em_setup(x, b, harmonic=True)
    a = np.asarray(a, dtype=np.int64)
    if a.shape != b.shape or (a.size and (int(a.min()) < 1 or bool(np.any(a >= b)))):
        raise DomainError("segments need integer arrays of equal shape with 1 <= a < b")
    if b.size and x * math.log2(int(b.max())) > 1000.0:
        raise DomainError(f"{int(b.max())}**-{x} leaves the float64 normal range")
    lo = np.zeros(a.shape)
    hi = np.zeros(a.shape)
    start = np.maximum(a, n0)
    em = b > start
    if em.any():
        af = start[em].astype(np.float64)
        y = 1.0 / af
        ell = np.log1p((b[em] - start[em]).astype(np.float64) / af)

        def e_of(s):
            return -np.expm1(-s * ell)

        terms = [ell if x == 1.0 else e_of(x - 1.0) / (x - 1.0), 0.5 * y * e_of(x)]
        v = y * y
        pw = v
        for j, c in enumerate(coef[:-1], start=1):
            terms.append(c * pw * e_of(x + 2 * j - 1))
            pw = pw * v
        rem = coef[-1] * pw * e_of(x + 2 * _EM_TERMS + 1)
        bracket = terms.pop()
        while terms:
            bracket = bracket + terms.pop()
        # E(s) is within 2 LIB + 4 U (s, the quotient and the product 1
        # each; log1p and expm1 LIB each, both of condition <= 1 here), so
        # the terms are within 2 LIB + 5, 2 LIB + 6 and 2 LIB + 8j + 8 U
        # (C_j within 4j + 2, y^2j within 4j).  For a >= N0 the half term
        # is at most 1/2, the C_1 term 1/12 and the later ones together
        # 1/400 of the first (E(s)/E(x-1) <= s/(x-1), and the Horner
        # damping of ``hurwitz_zeta``), so with the 9 additions the
        # bracket is within 4 LIB + 24 U of exact; the power adds LIB,
        # the products 2.  At x = 1 the first term L is within LIB + 1 U
        # (the quotient, log1p), the others stay within the same fractions
        # of it (E(s)/L <= s) and the power is exactly 1, so the same count
        # holds.  The remainder is doubled to cover its rounding
        g = gamma(5 * LIB + 26)
        scale = np.power(af, 1.0 - x)
        lo[em] = bracket * scale * ulp_down(1.0 - g)
        hi[em] = (bracket + 2.0 * rem) * scale * ulp_up(1.0 + g)
    _add_head(x, n0, a, lo, hi, b)
    return lo, hi


def _single(lo: np.ndarray, hi: np.ndarray) -> Enclosure:
    return Enclosure(float(lo[0]), float(hi[0]))


def power_sum_range(x: float, start: int, stop: int) -> Enclosure:
    """Enclosure of sum_{n=start}^{stop-1} n**-x for 1 <= start < stop and
    1 <= x <= 64, one ``power_segment``."""
    return _single(*power_segment(x, [start], [stop]))


def zeta_tail(x: float, n: int) -> Enclosure:
    """Enclosure of sum_{k>n} k**-x = zeta(x, n + 1), one ``hurwitz_zeta``."""
    return _single(*hurwitz_zeta(x, [n + 1]))


def zeta_real(x: float) -> Enclosure:
    """Enclosure of zeta(x) for real x > 1: ``hurwitz_zeta(x, 1)`` up to
    x = 64.  Past it, 1 <= zeta(x) <= 1 + 2^-x + int_2^inf t^-x dt
    = 1 + 2^-x (x+1)/(x-1), rounded outward; written 2^-x (1 + 2/(x-1)),
    the excess stays finite at x = inf."""
    if x > _MAX_HURWITZ_EXPONENT:
        return Enclosure(1.0, ulp_up(1.0 + 2.0 ** -x * (1.0 + 2.0 / (x - 1.0))))
    return _single(*hurwitz_zeta(x, [1]))


_LOG_HEAD = 2 ** 12


def log_power_sum(c: float, a: int, b: int | None = None) -> Enclosure:
    """Enclosure of sum_{a <= n < b} 1/(n (log n)^c) for integers
    2 <= a < b <= 2**53 and real c > 0, or of the tail sum_{n >= a} when
    ``b`` is None and c > 1; c may carry one rounding, as q alpha does.

    An explicit head below N0 = 2**12, then Euler-Maclaurin with one
    Bernoulli term: f(x) = 1/(x (log x)^c) is completely monotone, so the
    remainder lies between 0 and the first omitted term, as in ``hurwitz_zeta``.
    """
    stop = _MAX_EXACT_INDEX if b is None else b
    if not (0.0 < c < math.inf and 2 <= a < stop <= _MAX_EXACT_INDEX
            and (b is not None or c > 1.0)
            and abs(c * math.log(math.log(a)) + math.log(a)) < 690.0):
        raise DomainError(f"log-power sums need 2 <= a < b <= 2**53, c > 0 (c > 1 for a tail) "
                          f"and a first term in the float64 range, got c={c}, a={a}, b={b}")
    # The first and largest term lies within e^+-690, so the sum stays
    # finite and every factor applied to f(x) at x >= N0 below is < 1
    # (c/L < 900 there): an underflow loses at most TINY.
    ns = np.arange(a, min(stop, _LOG_HEAD), dtype=np.float64)
    total = size = math.fsum((np.log(ns) ** -c / ns).tolist())
    # From A = max(a, N0) to B (inf for a tail), with L = log x:
    # S = I + (f(A) - f(B))/2 + (f'(B) - f'(A))/12 + R, and the integral
    # I = L_A^(1-c) (1 - (L_A/L_B)^(c-1))/(c-1) (log(L_B/L_A) at c = 1)
    # comes from log1p and expm1 as in ``power_segment``; at B = inf it is
    # L_A^(1-c)/(c-1).  1 + y and log(1 + y) are Bernstein functions of
    # y = x - 1, and t^-1 and t^-c completely monotone, so f is completely
    # monotone (Schilling, Song and Vondracek, "Bernstein Functions", 2012,
    # ch. 3) and R lies between 0 and -(f'''(B) - f'''(A))/720.  When
    # b <= N0 the segment [b, b) is empty and its terms cancel exactly.
    start, end = max(a, min(stop, _LOG_HEAD)), math.inf if b is None else b
    # f, -f'/12 and -f'''/720 at A and B, all positive (0 at B = inf)
    x = np.array([start, end], dtype=np.float64)
    lx = np.log(x)
    f, u = lx ** -c / x, 1.0 / lx
    d1 = f * ((1.0 + c * u) / x) / 12.0
    d3 = f * ((6.0 + c * u * (11.0 + (c + 1.0) * u * (6.0 + (c + 2.0) * u))) / (x * x * x)) / 720.0
    ell = math.log1p(math.log1p((end - start) / start) / lx[0])
    integral = ell if c == 1.0 else lx[0] ** (1.0 - c) * -math.expm1((1.0 - c) * ell) / (c - 1.0)
    total += integral + 0.5 * (f[0] - f[1]) + (d1[0] - d1[1])
    size += integral + 0.5 * (f[0] + f[1]) + d1[0] + d1[1] + d3[0] + d3[1]
    # The head terms are within (c + 1) LIB + 2 U (log, power of
    # condition c, quotient, fsum), f within (c + 1) LIB + 1, the f' and
    # f''' terms within (c + 2) LIB + 7 and (c + 4) LIB + 19; log(L_B/L_A)
    # within 3 LIB + 2, so the integral within 9 LIB + 15 for c < 1
    # (expm1 of condition <= 2: L_B/L_A <= 4.5) and (c + 4) LIB + 4c + 7
    # for c >= 1, counting |(1 - c) log L_A| U for the rounded exponent.
    # Five additions join the six terms.  A c rounded by U moves the sum
    # by at most c lam U of itself: lam bounds |log L| over a finite sum
    # (log log 2**53 < 3.61) or, for a tail from A, 2 log L_A + 1/(c-1)
    # (f is convex and f log L decreasing).  Each of about 2 N0 + 16
    # results may underflow.
    lam = 3.61 if b is not None else 7.21 + 1.0 / (c - 1.0)
    margin = gamma((c + 9.0) * LIB + c * (lam + 4.0) + 20.0) * size + (2 * _LOG_HEAD + 32) * TINY
    return Enclosure(ulp_down(total - (d3[0] - d3[1]) - margin, 2), ulp_up(total + margin))


# ---------------------------------------------------------------------------
# Lambert W (principal branch on (0, inf)) and (x log x)**alpha
# ---------------------------------------------------------------------------

_LAMBERT_MAX_STEPS = 50


def lambert_w(x: float) -> float:
    """Principal-branch solution w of w * exp(w) = x, for x > 0.

    Halley refinement from the initial guess log(1 + x); the residual
    |w e^w - x| is driven below 1e-12 * max(1, x).
    """
    if not x > 0:
        raise DomainError(f"principal Lambert branch implemented for x > 0 only, got {x}")
    w = math.log1p(x)
    tol = 1e-12 * max(1.0, x)
    for _ in range(_LAMBERT_MAX_STEPS):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            return w
        fp = ew * (w + 1.0)
        # Halley step: f'' = e^w (w + 2)
        denom = fp - f * (w + 2.0) / (2.0 * (w + 1.0))
        w -= f / denom
    ew = math.exp(w)
    if abs(w * ew - x) <= tol:
        return w
    raise ConvergenceError(f"Lambert W failed to converge for x = {x}")


def phi_xlogx(x: float) -> float:
    """phi(x) = x log x on [1, inf)."""
    if x < 1:
        raise DomainError(f"phi is defined on [1, inf), got {x}")
    return x * math.log(x)


def phi_alpha_deriv(x, alpha: float):
    """Derivative of phi**alpha:  alpha * (x log x)**(alpha-1) * (log x + 1),
    at a point x > 1 or elementwise over an array of them.

    Strictly positive for x > 1, 0 < alpha < 1.
    """
    if not np.all(np.greater(x, 1.0)):
        raise DomainError(f"phi_alpha_deriv needs x > 1, got {np.min(x)}")
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    lx = np.log(x)
    return alpha * (x * lx) ** (alpha - 1.0) * (lx + 1.0)


def _deriv_sign_factor(x: float, alpha: float) -> float:
    # (phi**alpha)'' has the sign of  alpha - 1 + log x / (log x + 1)^2.
    lx = math.log(x)
    return alpha - 1.0 + lx / (lx + 1.0) ** 2


def decrease_onset(beta: float) -> float:
    """Smallest x0 such that phi_alpha_deriv(., alpha) is nonincreasing on
    [x0 - 1, inf) for every alpha <= beta.

    The sign factor ``beta - 1 + log x/(log x + 1)**2`` is maximal at
    x = e with value beta - 3/4, so for beta <= 3/4 the derivative
    decreases on all of (1, inf) and the onset is 2.  For larger beta the
    onset is past the larger root of (1-beta) t^2 - (2 beta - 1) t + (1-beta)
    in t = log x.  Verified numerically on a log grid before returning.
    """
    if not 0 < beta < 1:
        raise DomainError(f"beta must lie in (0, 1), got {beta}")
    if beta <= 0.75:
        onset = 2.0
    else:
        gamma = 1.0 - beta
        disc = 1.0 - 4.0 * gamma  # > 0 here
        t_plus = ((1.0 - 2.0 * gamma) + math.sqrt(disc)) / (2.0 * gamma)
        onset = math.exp(t_plus) + 1.0
    # numeric certification of the sign condition on a log grid past onset
    for k in range(0, 220, 4):
        x = (onset - 1.0) * (1.0 + 0.25 * k)
        if x > 1.0 and _deriv_sign_factor(x, beta) > 1e-13:
            raise ConvergenceError(
                f"decrease onset {onset} for beta={beta} failed the sign scan at x={x}"
            )
    return onset
