import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import dense_power_sum, dense_zeta_real, dense_zeta_tail

from cesdirichlet import kernels
from cesdirichlet.enclosure import Enclosure
from cesdirichlet.errors import DomainError
from cesdirichlet.kernels import (
    decrease_onset,
    lambert_w,
    phi_alpha_deriv,
    phi_xlogx,
    power_sum_range,
    sieve_primes,
    zeta_real,
    zeta_tail,
)

ZETA_2 = math.pi ** 2 / 6  # independent closed form
ZETA_15 = 2.6123753486854883  # high-precision series value, frozen


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------

def test_sieve_smallest():
    t = sieve_primes(2)
    assert list(t.read(0, len(t))) == [2]


def test_sieve_100():
    t = sieve_primes(100)
    assert len(t) == 25
    assert t.read(0, len(t))[-1] == 97
    assert t.nth(1) == 2


def test_sieve_10():
    t = sieve_primes(10)
    assert list(t.read(0, len(t))) == [2, 3, 5, 7]


@pytest.mark.parametrize("bad", [1, 0, -5, 10 ** 9 + 1, 1e6, True])
def test_sieve_domain(bad):
    # checked before the kept tables: 1e6 == 10**6 hashes alike, so a
    # lookup first would hand the kept 10**6 table to the float
    sieve_primes(10 ** 6)
    with pytest.raises(DomainError):
        sieve_primes(bad)


def test_sieve_prefix_property():
    small = sieve_primes(1_000)
    large = sieve_primes(10_000)
    assert np.array_equal(large.read(0, len(small)), small.read(0, len(small)))


def plain_sieve_reference(limit: int) -> np.ndarray:
    """The former unsegmented sieve over every integer up to the limit."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i:: i] = False
    return np.nonzero(flags)[0].astype(np.int64)


def test_segmented_sieve_agrees(monkeypatch):
    for limit in [*range(2, 130), 10 ** 6 - 1, 10 ** 6]:
        table = sieve_primes(limit)
        assert np.array_equal(table.read(0, len(table)), plain_sieve_reference(limit))
    # segments of 64 odd numbers and marks every 5 ranks: many
    # boundaries of both, primes up to 1e4 crossing them
    # _SEGMENT_SIZE is not part of the table cache's key: clear it, so the
    # small segments really run whatever was sieved before
    monkeypatch.setattr(kernels, "_SEGMENT_SIZE", 64)
    monkeypatch.setattr(kernels, "_MARK_STEP", 5)
    kernels._table.cache_clear()
    for limit in (127, 128, 129, 10 ** 4 + 7):
        table = sieve_primes(limit)
        assert table.step == 5
        assert np.array_equal(table.read(0, len(table)), plain_sieve_reference(limit))


@pytest.mark.parametrize("step", [1, 2, 5, 1 << 8])
def test_table_reads_match_decoded(step, monkeypatch):
    # 2^8 > 109 ranks: one mark, every read walks from rank 0
    monkeypatch.setattr(kernels, "_MARK_STEP", step)
    table = sieve_primes(600)
    ref = plain_sieve_reference(600)
    assert table.step == step  # not a kept table of another step
    assert len(table) == ref.size == 109
    for start in range(ref.size + 1):
        for stop in (start, start + 1, start + 2, start + 7, ref.size, ref.size + 3):
            assert np.array_equal(table.read(start, stop), ref[start:stop])
    for r in range(1, ref.size + 1):
        assert table.nth(r) == ref[r - 1]


def test_sieve_keeps_each_table():
    table = sieve_primes(10 ** 6)
    assert sieve_primes(10 ** 6) is table
    assert sieve_primes(np.int64(10 ** 6)) is table
    halves, marks = kernels._sieve(10 ** 6, kernels._MARK_STEP)
    assert np.array_equal(table.halves, halves) and np.array_equal(table.marks, marks)
    assert (table.limit, table.step) == (10 ** 6, kernels._MARK_STEP)
    assert not table.halves.flags.writeable and not table.marks.flags.writeable
    with pytest.raises(ValueError):
        table.halves[0] = 1


def test_sieve_keeps_two_tables_until_cleared():
    kernels._table.cache_clear()
    first = sieve_primes(1000)
    second = sieve_primes(2000)
    assert sieve_primes(1000) is first and sieve_primes(2000) is second
    assert kernels._table.cache_info().currsize == 2
    sieve_primes(3000)  # evicts the least recently used, 1000
    again = sieve_primes(1000)
    assert again is not first and np.array_equal(again.halves, first.halves)
    kernels._table.cache_clear()
    fresh = sieve_primes(2000)
    assert fresh is not second and np.array_equal(fresh.halves, second.halves)
    assert kernels._table.cache_info().misses == 1


def test_table_odd_first_gap():
    # 2 -> 3 is the one odd gap: 2 is read as 1, so half-gaps start 0, 1, 1
    table = sieve_primes(7)
    assert table.halves.tolist() == [0, 1, 1, 1]
    assert table.marks.tolist() == [1]
    assert table.read(0, 4).tolist() == [2, 3, 5, 7]
    assert table.read(1, 3).tolist() == [3, 5]
    assert (table.nth(1), table.nth(2)) == (2, 3)


def test_table_half_gap_past_one_byte_raises():
    ks = np.array([3, 258], dtype=np.int64)
    assert kernels._half_gaps(ks, 0).tolist() == [3, 255]
    with pytest.raises(DomainError, match="does not fit"):
        kernels._half_gaps(np.array([3, 259], dtype=np.int64), 0)
    with pytest.raises(DomainError, match="does not fit"):
        kernels._half_gaps(np.array([256], dtype=np.int64), 0)


def test_table_bytes():
    for limit in (2, 100, 10 ** 5, 10 ** 6):
        table = sieve_primes(limit)
        assert table.halves.dtype == np.uint8 and table.marks.dtype == np.int64
        marks = -(-len(table) // table.step)
        assert table.marks.size == marks
        assert table.halves.nbytes + table.marks.nbytes <= len(table) + 8 * marks
        assert not table.halves.flags.writeable and not table.marks.flags.writeable


@pytest.mark.parametrize("limit, count", [(10 ** 7, 664579), (10 ** 8, 5761455)])
def test_sieve_prime_counts(limit, count):
    table = sieve_primes(limit)
    # the last prime is the count-th and nothing is read past it
    assert len(table) == count and table.read(count - 1, count + 5).size == 1
    assert table.halves.dtype == np.uint8
    assert table.nth(count) == {10 ** 7: 9999991, 10 ** 8: 99999989}[limit]


# ---------------------------------------------------------------------------
# zeta enclosures
# ---------------------------------------------------------------------------

def test_zeta2_enclosure():
    z = zeta_real(2.0)
    assert z.contains(ZETA_2)
    assert z.width < 1e-11


def test_zeta_single_term_bracket():
    # the former one-term setting: 1 plus the bare integral bracket
    z = zeta_real(2.0)
    assert z.contains(ZETA_2)
    assert z.lo >= 1.0
    assert dense_zeta_real(2.0, 1).encloses(z)


def test_zeta_15():
    z = zeta_real(1.5)
    assert z.contains(ZETA_15)


def test_zeta_against_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for x in (1.01, 1.25, 1.5, 2.0, 3.0, 5.0, 64.0, 65.0, 200.0):
            z = zeta_real(x)
            assert z.lo <= mp.zeta(x) <= z.hi
            assert z.width <= 3e-14 * z.hi


def test_zeta_past_kernel_range():
    # x > 64: 1 <= zeta(x) <= 1 + 2^-x (x+1)/(x-1) < 1 + 2^-63, one ulp wide
    for x in (64.5, 200.0, 1e300, math.inf):
        assert zeta_real(x) == Enclosure(1.0, math.nextafter(1.0, 2.0))


def test_tail_and_power_sum_against_mpmath():
    mp = pytest.importorskip("mpmath")
    # 80 digits: at 40, mpmath's zeta(64, 101) is already off by 8e-16
    with mp.workdps(80):
        for x, n in ((1.01, 1), (1.01, 2 ** 40), (2.0, 7), (2.0, 17), (5.0, 10 ** 6), (64.0, 100)):
            t = zeta_tail(x, n)
            assert t.lo <= mp.zeta(x, n + 1) <= t.hi
        for x, start, stop in ((1.0, 1, 2), (1.0, 1, 10 ** 12 + 1), (1.0, 17, 10 ** 15),
                               (1.5, 3, 40), (3.0, 1, 100), (64.0, 2, 9)):
            s = power_sum_range(x, start, stop)
            if x == 1.0:
                ref = mp.harmonic(stop - 1) - mp.harmonic(start - 1)
            else:
                ref = mp.zeta(x, start) - mp.zeta(x, stop)
            assert s.lo <= ref <= s.hi
            assert s.width <= 3e-14 * s.hi


@pytest.mark.parametrize("x", [1.0, 0.5, -2.0])
def test_zeta_divergent_domain(x):
    with pytest.raises(DomainError):
        zeta_real(x)
    with pytest.raises(DomainError):
        zeta_tail(x, 5)


def test_zeta_tail_basic():
    t = zeta_tail(2.0, 1)
    assert t.contains(ZETA_2 - 1.0)


def test_zeta_tail_bare_bracket():
    # the former prefix = 0 setting: the bare integral bracket [1/8, 1/7]
    bare = dense_zeta_tail(2.0, 7, prefix=0)
    assert bare.lo == pytest.approx(8.0 ** -1, rel=1e-12)
    assert bare.hi == pytest.approx(7.0 ** -1, rel=1e-12)
    assert bare.encloses(zeta_tail(2.0, 7))


def test_zeta_tail_integral_window():
    # 1/(n+1) <= tail <= 1/n for x = 2
    n = 10
    t = zeta_tail(2.0, n)
    assert 1.0 / (n + 1) <= t.lo and t.hi <= 1.0 / n


def test_zeta_tail_nesting():
    for n in (2, 5, 17):
        outer = zeta_tail(2.0, n - 1)
        inner = zeta_tail(2.0, n)
        # tail(n) = tail(n-1) - n^-2
        assert inner.lo <= outer.hi - n ** -2.0 + 1e-12
        assert inner.hi >= outer.lo - n ** -2.0 - 1e-12


def test_zeta_real_nested_in_terms():
    # the former explicit-term counts nest, and each encloses the kernel's value
    z = zeta_real(2.0)
    prev = dense_zeta_real(2.0, 10)
    for terms in (100, 1_000, 10_000):
        cur = dense_zeta_real(2.0, terms)
        assert cur.lo >= prev.lo - 1e-12
        assert cur.hi <= prev.hi + 1e-12
        assert cur.encloses(z)
        prev = cur


def test_power_sum_range_matches_zeta_split():
    z = zeta_real(3.0)
    head = power_sum_range(3.0, 1, 100)
    tail = zeta_tail(3.0, 99)
    assert tail.lo + head.lo <= z.hi
    assert tail.hi + head.hi >= z.lo
    assert head.contains(dense_power_sum(3.0, 1, 100))


# ---------------------------------------------------------------------------
# Lambert W and the phi derivative
# ---------------------------------------------------------------------------

def test_lambert_at_e():
    assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-12)


def test_lambert_omega():
    # bisection oracle for w e^w = 1
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    assert lambert_w(1.0) == pytest.approx(0.5 * (lo + hi), abs=1e-12)


@pytest.mark.parametrize("x", [0.1, 1.0, math.e, 10.0, 100.0, 1e4])
def test_lambert_identities(x):
    w = lambert_w(x)
    assert abs(w * math.exp(w) - x) <= 1e-10 * max(1.0, x)
    assert abs(phi_xlogx(x / w) - x) <= 1e-10 * max(1.0, x)


def test_lambert_against_mpmath():
    mp = pytest.importorskip("mpmath")
    for x in (0.05, 0.5, 2.0, 123.0, 1e6):
        assert lambert_w(x) == pytest.approx(float(mp.lambertw(x)), rel=1e-12)


def test_lambert_domain():
    with pytest.raises(DomainError):
        lambert_w(0.0)
    with pytest.raises(DomainError):
        lambert_w(-1.0)


def test_phi_deriv_at_e():
    assert phi_alpha_deriv(math.e, 0.5) == pytest.approx(math.exp(-0.5), rel=1e-13)


def test_phi_deriv_positive_and_alpha1_slope():
    # at the alpha -> 1 boundary the derivative reduces to log x + 1
    for x in (1.5, 4.0, 100.0):
        assert phi_alpha_deriv(x, 0.999999) == pytest.approx(math.log(x) + 1.0, rel=1e-4)
        assert phi_alpha_deriv(x, 0.5) > 0


def test_phi_deriv_domain():
    with pytest.raises(DomainError):
        phi_alpha_deriv(1.0, 0.5)
    with pytest.raises(DomainError):
        phi_alpha_deriv(2.0, 1.0)
    # an array is checked elementwise
    with pytest.raises(DomainError):
        phi_alpha_deriv(np.array([3.0, 1.0, 2.0]), 0.5)
    with pytest.raises(DomainError):
        phi_alpha_deriv(np.array([2.0, np.nan]), 0.5)


def test_phi_deriv_array_matches_points():
    # over an array the values are those of the former vectorised form,
    # bit for bit, and agree with the pointwise calls to rounding (numpy's
    # array and scalar log may differ in the last place)
    xs = np.geomspace(1.5, 1e7, 257)
    for alpha in (0.3, 0.45, 0.999):
        h = phi_alpha_deriv(xs, alpha)
        lx = np.log(xs)
        assert np.array_equal(h, alpha * (xs * lx) ** (alpha - 1.0) * (lx + 1.0))
        assert h.tolist() == pytest.approx([phi_alpha_deriv(float(x), alpha) for x in xs], rel=1e-14)


def test_phi_deriv_monotone_decrease_grid():
    # finite differences of h on a log grid in [10, 1e6] at alpha = 0.5
    xs = np.geomspace(10.0, 1e6, 200)
    h = [phi_alpha_deriv(float(x), 0.5) for x in xs]
    assert all(h[i + 1] < h[i] for i in range(len(h) - 1))


def test_decrease_onset():
    assert decrease_onset(0.5) == 2.0
    onset = decrease_onset(0.9)
    # the sign factor must be nonpositive from onset - 1 on
    from cesdirichlet.kernels import _deriv_sign_factor

    assert _deriv_sign_factor(onset - 1.0, 0.9) <= 1e-9
    assert _deriv_sign_factor(onset * 10.0, 0.9) < 0


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

def smooth_mask_reference(ns, r, table):
    """The former ``smooth_mask``: the caller's table, and a DomainError
    where its primes cannot decide."""
    ns = [int(n) for n in ns]
    if min(ns, default=1) < 1:
        raise DomainError(f"smoothness is defined for positive integers, got {min(ns)}")
    if r < 1:
        raise DomainError(f"prime count r must be >= 1, got {r}")
    root = math.isqrt(max(ns, default=1))
    count = min(r, len(table), kernels._pi_upper(root)) if root >= 2 else 0
    decoded = table.read(0, count)
    roots = decoded[:np.searchsorted(decoded, root, side="right")].tolist()
    p_r = None if r > len(table) else int(decoded[r - 1]) if r <= count else table.nth(r)
    out = np.empty(len(ns), dtype=bool)
    for k, n in enumerate(ns):
        whole = True  # n not cut short by p * p > n
        for p in roots:
            if p * p > n:
                whole = False
                break
            while n % p == 0:
                n //= p
        if n == 1 or (whole and len(roots) == r):
            out[k] = n == 1  # else every factor of n lies past p_r
        elif (not whole or root <= table.limit) and (p_r is not None or n <= table.limit):
            # every prime <= sqrt(n) was tried, so n is a prime; with r past
            # the table, a prime <= the limit is in it
            out[k] = p_r is None or n <= p_r
        else:
            # n's factors lie past the table, maybe among p_{len+1}..p_r
            raise DomainError(
                f"prime table with {len(table)} primes cannot decide {r}-smoothness of remainder {n}"
            )
    return out


def test_smooth_one():
    for r in (1, 2, 5):
        assert kernels.smooth_mask([1], r)[0]


def test_smooth_examples():
    assert kernels.smooth_mask([12], 2)[0]      # 2^2 * 3
    assert not kernels.smooth_mask([10], 2)[0]  # factor 5
    assert kernels.smooth_mask([10], 3)[0]
    assert kernels.smooth_mask([97], 25)[0]
    assert not kernels.smooth_mask([97], 24)[0]


def test_smooth_past_the_sieve_guard():
    # p_r for r = 10**8 may lie anywhere below 2.1e9, past the 1e9 guard,
    # and 2e9 + 11 is prime: no table the guard allows decides it
    with pytest.raises(DomainError, match="memory guard"):
        kernels.smooth_mask([2 * 10 ** 9 + 11], 10 ** 8)


def test_smooth_mask_matches_the_reference():
    # the reference decides a batch with one table, or refuses the whole
    # batch.  A batch holds the n of one integer square root, so that the
    # reference gives every part of it, a single n too, the same answers.
    # Wherever the reference decides, smooth_mask agrees; where it refuses,
    # smooth_mask decides as the largest prime factor says
    ns = np.arange(1, 2500)
    primes = sieve_primes(2500).read(0, 2500)
    top_rank = np.zeros(ns.size + 1, dtype=np.int64)  # rank of n's largest prime factor
    for rank, p in enumerate(primes.tolist(), 1):
        top_rank[p::p] = rank
    batches = [range(k * k, min((k + 1) ** 2, 2500)) for k in range(1, 50)]
    refused = 0
    for r in list(range(1, 41)) + [10 ** 6]:
        got = kernels.smooth_mask(ns, r)
        assert got.tolist() == (top_rank[1:] <= r).tolist()
        for table in (sieve_primes(10), sieve_primes(100), sieve_primes(1000)):
            for batch in batches:
                mine = got[batch.start - 1:batch.stop - 1].tolist()
                try:
                    want = smooth_mask_reference(batch, r, table).tolist()
                except DomainError:
                    refused += len(batch)
                    continue
                assert mine == want
    assert refused > 0


def test_smooth_mask_matches_single_calls():
    # one decode for many n: the same answers as one n at a time, each
    # of which sieves its own, smaller table
    for r in (1, 2, 4, 5, 25, 26, 40):
        ns = list(range(1, 400))
        singles = [kernels.smooth_mask([n], r)[0] for n in ns]
        assert kernels.smooth_mask(ns, r).tolist() == singles
    with pytest.raises(DomainError, match="positive"):
        kernels.smooth_mask([3, 0], 2)


def test_smooth_mask_matches_factorization():
    # a batch tries each n only up to its own square root
    table = sieve_primes(100)
    ns = list(range(1, 3000))
    for r in range(1, len(table) + 1):
        want = []
        for n in ns:
            for p in table.read(0, r).tolist():
                while n % p == 0:
                    n //= p
            want.append(n == 1)
        assert kernels.smooth_mask(ns, r).tolist() == want


def test_smooth_reads_only_primes_to_the_root(monkeypatch):
    # a large n and r decode the primes up to sqrt(n), not up to n or p_r
    table = sieve_primes(10 ** 6)
    decoded = []
    read = kernels.PrimeTable.read

    def counted(self, start, stop, *a, **k):
        out = read(self, start, stop, *a, **k)
        decoded.append(out.size)
        return out

    monkeypatch.setattr(kernels.PrimeTable, "read", counted)
    r = 70_000
    p_r, p_next = table.nth(r), table.nth(r + 1)
    for n, smooth in ((p_r, True), (2 * p_r, True), (p_next, False), (3 * p_next, False),
                      (10 ** 6, True), (997 * 1009, True), (p_r * p_next, False)):
        decoded.clear()
        assert kernels.smooth_mask([n], r)[0] == smooth
        assert sum(decoded) <= kernels._pi_upper(math.isqrt(n)) + 1


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=5000), r=st.integers(min_value=1, max_value=15))
def test_smooth_matches_factorization(n, r):
    table = sieve_primes(100)
    limit = table.nth(r)
    m = n
    for p in table.read(0, len(table)):
        p = int(p)
        if p > limit:
            break
        while m % p == 0:
            m //= p
    assert kernels.smooth_mask([n], r)[0] == (m == 1)
