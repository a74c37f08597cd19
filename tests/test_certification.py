"""Containment of the certified Hurwitz, segment and log-power kernels, of
``ces_norm`` (whole, cut into small blocks, and streamed products) and
of ``jagers_dual_norm``.

mpmath's Hurwitz zeta at 40 digits is the independent reference, and
the former dense ``ces_norm`` (a sweep over every integer up to the
largest index plus an integral-bracket tail) is kept here as a second
one: the O(support) enclosure must lie inside it.  The last tests check
the assumptions of the floating-point model in ``enclosure``.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from dense_reference import EPS, dense_zeta_tail
from frozen import frozen
from cesdirichlet.enclosure import LIB, TINY, U, Enclosure, gamma, pairwise_depth, ulp_down, ulp_up
from cesdirichlet.errors import DomainError
from cesdirichlet.dual import SENTINEL, jagers_dual_norm
from cesdirichlet.kernels import hurwitz_zeta, log_power_sum, power_segment, sieve_primes
from cesdirichlet import dual, kernels, multipliers, sequences
from cesdirichlet.sequences import (CoeffSeq, Exponent, PrimeCoeffs, _prefix_sums, abs_sum_exponent,
                                    ces_norm, ces_norm_stream)
from cesdirichlet.multipliers import build_test_function, multiplier_lower_estimate
from cesdirichlet.series import DirichletPoly, convolve, product_blocks

mpmath.mp.dps = 40

P_SET = (1.01, 1.5, 2.0, 3.0)


def dense_ces_norm_reference(a: CoeffSeq, e: Exponent) -> Enclosure:
    """The former ces_norm: (A(n)/n)^p summed densely for n below the
    largest index N, plus A_N^p (N^-p + sum_{k>N} k^-p), the tail from the
    dense prefix and integral bracket of ``dense_reference``."""
    p = e.p
    cum = np.cumsum(a.abs_values())
    first, last = int(a.idx[0]), int(a.idx[-1])
    ns = np.arange(first, last, dtype=np.int64)
    pos = np.searchsorted(a.idx, ns, side="right") - 1
    explicit = math.fsum((cum[pos] / ns.astype(np.float64)) ** p)
    tail = dense_zeta_tail(p, last) + float(last) ** -p
    head = float(cum[-1]) ** p
    slack = 4.0 * EPS * (explicit + head * tail.hi)
    return Enclosure(ulp_down(explicit + head * tail.lo) - slack,
                     ulp_up(explicit + head * tail.hi) + slack).root(p)


def mp_ces_norm(a, p: float):
    """||a||^p = sum_k zeta(p, i_k) (A_k^p - A_{k-1}^p) at 40 digits, for
    a ``CoeffSeq`` or (n, a_n) pairs in order, a_n an mpmath number."""
    s = mpmath.mpf(p)
    total, acc, prev = mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0)
    for n, v in a.entries() if isinstance(a, CoeffSeq) else a:
        acc += mpmath.sqrt(mpmath.mpf(v.real) ** 2 + mpmath.mpf(v.imag) ** 2)
        power = acc ** s
        total += mpmath.zeta(s, n) * (power - prev)
        prev = power
    return total ** (1 / s)


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

@frozen
def test_hurwitz_contains_mpmath(p, ns):
    lo, hi = hurwitz_zeta(p, np.array(ns, dtype=np.int64))
    for n, l, h in zip(ns, lo, hi):
        ref = mpmath.zeta(mpmath.mpf(p), n)
        assert l <= ref <= h, (p, n, l, h, ref)
        assert h - l <= 2e-14 * h


def test_hurwitz_both_sides_of_head():
    # N0 = 16 + ceil(x): explicit head below, Euler-Maclaurin from N0 on
    for p in P_SET:
        n0 = 16 + math.ceil(p)
        ns = np.arange(1, n0 + 3, dtype=np.int64)
        lo, hi = hurwitz_zeta(p, ns)
        for n, l, h in zip(ns, lo, hi):
            assert l <= mpmath.zeta(mpmath.mpf(p), int(n)) <= h
        assert np.all(np.diff(hi) < 0)


def test_hurwitz_long_array_matches_single_calls():
    # one call on 70,000 indices, across what were the kernel's own blocks
    # of 2^15, gives the bits of one call per index
    rng = np.random.default_rng(5)
    ns = np.concatenate([np.arange(1, 40_001), rng.integers(1, 2 ** 53, 30_000)])
    lo, hi = hurwitz_zeta(2.5, ns)
    single = [hurwitz_zeta(2.5, ns[k:k + 1]) for k in range(ns.size)]
    assert np.array_equal(lo.view(np.int64), np.concatenate([l for l, _ in single]).view(np.int64))
    assert np.array_equal(hi.view(np.int64), np.concatenate([h for _, h in single]).view(np.int64))


def hurwitz_reference(x: float, n) -> tuple[np.ndarray, np.ndarray]:
    """The former kernel: K = 8 Euler-Maclaurin terms at every index."""
    x, n, n0, _, coef = kernels._em_setup(x, n)
    eps_r = 2.0 * coef.pop() * (x - 1.0) / float(n0) ** 18
    f_lo = ulp_down(1.0 - gamma(LIB + 13))
    f_hi = ulp_up(1.0 + (gamma(LIB + 13) + eps_r))

    def em_sum(m):
        y = 1.0 / m
        v = y * y
        acc = np.full_like(m, coef[-1])
        for c in coef[-2::-1]:
            acc *= v
            acc += c
        acc *= y
        acc += 0.5
        acc *= y
        acc += 1.0 / (x - 1.0)
        return acc * np.power(m, 1.0 - x)

    em = em_sum(n.astype(np.float64))
    lo, hi = em * f_lo, em * f_hi
    small = n < n0
    if small.any():
        at_n0 = em_sum(np.array([float(n0)]))[0]
        head = np.power(np.arange(1, n0 + 1, dtype=np.float64), -x)
        head[-1] = 0.0
        head = np.cumsum(head[::-1])[::-1][n[small] - 1]
        g = gamma(LIB + n0 + 1)
        lo[small] = (head + at_n0 * f_lo) * ulp_down(1.0 - g)
        hi[small] = (head + at_n0 * f_hi) * ulp_up(1.0 + g)
    return lo, hi


def _terms_used(x: float, m: int, monkeypatch) -> int:
    """The number K of Euler-Maclaurin terms the kernel takes for [m]."""
    seen = []
    em_sum = kernels._em_sum
    monkeypatch.setattr(kernels, "_em_sum", lambda n, x, coef: seen.append(len(coef)) or em_sum(n, x, coef))
    hurwitz_zeta(x, [m])
    monkeypatch.undo()
    return seen[0]


@pytest.mark.parametrize("x", (1.01, 1.5, 2.0, 2.5, 3.0, 7.3, 64.0))
def test_hurwitz_fewer_terms_keep_the_bits(x, monkeypatch):
    # around N0 and around each least index from which the kernel drops a
    # term, alone, together and as the least index of a longer array, lo
    # and hi are the bits of K = 8
    n0 = 16 + math.ceil(x)
    top = 2 ** 53 if (x - 1.0) * 53 <= 1000 else int(2.0 ** (1000 / (x - 1.0)))
    cuts = []
    for k in range(7, 0, -1):
        if _terms_used(x, top, monkeypatch) > k:
            break
        lo, hi = n0, top  # the least m that takes at most k terms
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _terms_used(x, mid, monkeypatch) <= k else (mid + 1, hi)
        cuts.append(lo)
    assert _terms_used(x, n0, monkeypatch) == 8 and len(cuts) >= 6
    rng = np.random.default_rng(19)
    for c in [n0] + cuts:
        near = np.arange(max(1, c - 3), min(c + 3, top) + 1)
        arrays = [near] + [near[j:j + 1] for j in range(near.size)] + [
            np.concatenate(([m], rng.integers(m, min(4 * m, top) + 1, 300))) for m in near]
        for ns in arrays:
            lo, hi = hurwitz_zeta(x, ns)
            ref_lo, ref_hi = hurwitz_reference(x, ns)
            assert lo.tobytes() == ref_lo.tobytes() and hi.tobytes() == ref_hi.tobytes(), (x, ns[0])
        # mpmath's own Hurwitz zeta is off by 4e-11 relatively at x = 64, n = 251
        for n, l, h in zip(near, *hurwitz_zeta(x, near)) if x < 64 else ():
            assert l <= mpmath.zeta(mpmath.mpf(x), int(n)) <= h


@pytest.mark.parametrize("x, ns", [(2.0, [2 ** 53 + 1]), (2.0, [0]), (1.0, [1]),
                                   (65.0, [1]), (30.0, [10 ** 12])])
def test_hurwitz_domain(x, ns):
    with pytest.raises(DomainError):
        hurwitz_zeta(x, np.array(ns, dtype=np.int64))


@frozen
def test_segment_contains_mpmath(p, starts, gaps):
    a = np.array(starts, dtype=np.int64)
    b = np.minimum(a + np.array(gaps[:a.size]), 2 ** 53)
    keep = a < b
    a, b = a[keep], b[keep]
    lo, hi = power_segment(p, a, b)
    s = mpmath.mpf(p)
    for m, n, l, h in zip(a.tolist(), b.tolist(), lo, hi):
        if n - m <= 40:
            ref = mpmath.fsum(mpmath.mpf(k) ** -s for k in range(m, n))
        elif p == 1.0:
            ref = mpmath.harmonic(n - 1) - mpmath.harmonic(m - 1)
        else:
            ref = mpmath.zeta(s, m) - mpmath.zeta(s, n)
        assert l <= ref <= h, (p, m, n, l, h, ref)
        assert h - l <= 3e-14 * h


def test_segment_domain():
    for a, b in (([2], [2]), ([0], [3]), ([1, 2], [3]), ([1], [2 ** 53 + 1])):
        with pytest.raises(DomainError):
            power_segment(2.0, np.array(a), np.array(b))
    with pytest.raises(DomainError):
        power_segment(30.0, np.array([1]), np.array([10 ** 12]))


# [a, b) below N0 = 16 + ceil(x), across it, past it, and of one term
SEGMENT_PIN_A = [3, 5, 100, 2000]
SEGMENT_PIN_B = [12, 300, 5000, 2001]
SEGMENT_PINS = [
    (1.0, [("0x1.8516ae822df30p+0", "0x1.8516ae822df5ap+0"),
           ("0x1.0c8b37e5aa3dap+2", "0x1.0c8b37e5aa429p+2"),
           ("0x1.f55e0188fde26p+1", "0x1.f55e0188fdeabp+1"),
           ("0x1.0624dd2f1a9dap-11", "0x1.0624dd2f1aa1fp-11")]),
    (1.01, [("0x1.7e959ad420d0fp+0", "0x1.7e959ad420d3ap+0"),
            ("0x1.030e25133e838p+2", "0x1.030e25133e883p+2"),
            ("0x1.d591ce272d944p+1", "0x1.d591ce272d9bfp+1"),
            ("0x1.e5ea0afbf40c8p-12", "0x1.e5ea0afbf4149p-12")]),
    (1.5, [("0x1.56a07e900b865p-1", "0x1.56a07e900b88cp-1"),
           ("0x1.a6cfface885f1p-1", "0x1.a6cfface88652p-1"),
           ("0x1.60b28dc966922p-3", "0x1.60b28dc96697fp-3"),
           ("0x1.7726636ae6e47p-17", "0x1.7726636ae6eaap-17")]),
    (2.0, [("0x1.3b6cca9cf9de2p-2", "0x1.3b6cca9cf9e05p-2"),
           ("0x1.be6e6d5d33728p-3", "0x1.be6e6d5d33777p-3"),
           ("0x1.42c504e315857p-7", "0x1.42c504e3158acp-7"),
           ("0x1.0c6f7a0b5ed6ap-22", "0x1.0c6f7a0b5edb1p-22")]),
    (3.0, [("0x1.2c2b1c2e22b41p-4", "0x1.2c2b1c2e22b64p-4"),
           ("0x1.8f981ae5a62cap-6", "0x1.8f981ae5a62fep-6"),
           ("0x1.a77a55a12a22ep-15", "0x1.a77a55a12a29dp-15"),
           ("0x1.12e0be826d671p-33", "0x1.12e0be826d6bap-33")]),
    (7.3, [("0x1.8eb3c423282edp-12", "0x1.8eb3c42328323p-12"),
           ("0x1.75942c4df2b25p-17", "0x1.75942c4df2b58p-17"),
           ("0x1.7293ff0fde102p-45", "0x1.7293ff0fde163p-45"),
           ("0x1.ee7b702facc2bp-81", "0x1.ee7b702faccaep-81")]),
    (64.0, [("0x1.7a0a91594ed7cp-102", "0x1.7a0a91594ee02p-102"),
            ("0x1.5100915716627p-149", "0x1.510091571669fp-149"),
            ("0x1.dabcfb281980dp-425", "0x1.dabcfb281988ap-425"),
            ("0x1.23ff06eea8455p-702", "0x1.23ff06eea84a2p-702")]),
]


@pytest.mark.parametrize("x, pins", SEGMENT_PINS)
def test_segment_bits_are_pinned(x, pins):
    # a change that moves any of these bits must say so and update the pins
    lo, hi = power_segment(x, SEGMENT_PIN_A, SEGMENT_PIN_B)
    assert [(l.hex(), h.hex()) for l, h in zip(lo.tolist(), hi.tolist())] == pins


def mp_log_power_sum(c, a, b):
    """sum_{a <= n < b} 1/(n (log n)^c) at 25 digits: fsum below 64, mpmath.sumem
    on the finite rest (sumem over [N, inf] is off by percents at c near 1).
    For b None, the sum to H = 1e15 plus the tail L(H)^(1-c)/(c-1) - f(H)/2,
    whose next term f'(H)/12 is below 1e-30 of it."""
    with mpmath.workdps(25):
        c = mpmath.mpf(c)

        def f(n):
            return 1 / (n * mpmath.log(n) ** c)

        if b is None:
            big = mpmath.mpf(10 ** 15)
            tail = mpmath.log(big) ** (1 - c) / (c - 1) - f(big) / 2
            return mp_log_power_sum(c, a, 10 ** 15 + 1) + tail
        head = mpmath.fsum(f(mpmath.mpf(n)) for n in range(a, min(b, 64)))
        return head + (mpmath.sumem(f, [max(a, 64), b - 1]) if b > 64 else 0)


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0, 7.0))
def test_log_power_contains_mpmath(p):
    # every horizon H of the schur-test grid (the kernel over [2, H + 1)),
    # the N0 = 4096 edge, and the infinite sum
    for alpha in (0.05, 0.3, 0.4, 1.0, 3.0):
        c = Exponent.from_p(p).q * alpha
        for b in (3, 4, 4096, 4097, 4098, 10 ** 5 + 1, 10 ** 15 + 1) + ((None,) if c > 1.0 else ()):
            ref = mp_log_power_sum(c, 2, b)
            enc = log_power_sum(c, 2, b)
            assert enc.lo <= ref <= enc.hi, (p, alpha, b, enc, ref)
            assert enc.width <= 1e-13 * enc.hi, (p, alpha, b, enc)


@pytest.mark.parametrize("c, a, b", [
    (0.3, 4096, 4097), (2.0, 4095, 4100), (1.0, 10 ** 12, 10 ** 12 + 5),
    (3.0, 2 ** 53 - 3, 2 ** 53), (1.5, 5000, 10 ** 15), (0.7, 3, 10 ** 9),
    (1.2, 10 ** 6, None), (9.0, 4096, None), (300.0, 3, 5000),
])
def test_log_power_segments_contain_mpmath(c, a, b):
    # segments off the schur-test path: short ones at large a, where the
    # Euler-Maclaurin differences cancel, and large c
    if b is not None and b - a <= 40:
        ref = mpmath.fsum(1 / (mpmath.mpf(n) * mpmath.log(n) ** c) for n in range(a, b))
    else:
        ref = mp_log_power_sum(c, a, b)
    enc = log_power_sum(c, a, b)
    assert enc.lo <= ref <= enc.hi, (c, a, b, enc, ref)
    # the margin grows like c: each log sits inside a power of condition c
    assert enc.width <= 5e-15 * (c + 10.0) * enc.hi


@pytest.mark.parametrize("c, a, b", [
    (0.3, 2, 10 ** 5), (1.0, 2, 4097), (2.0, 4095, 4100), (1.5, 2, None), (9.0, 4096, None),
    (0.7, 3, 10 ** 9), (1.0, 10 ** 12, 10 ** 12 + 5), (300.0, 3, 5000),
])
def test_log_power_at_least_its_margin_wide(c, a, b):
    # each side carries the modelled margin, gamma((c + 9) LIB + c (lam + 4)
    # + 20) times the terms' absolute sum, which is at least lo.  float64
    # rounding stays far inside it, so containment alone would not show a
    # deleted or miscounted margin
    enc = log_power_sum(c, a, b)
    lam = 3.61 if b is not None else 7.21 + 1.0 / (c - 1.0)
    assert enc.width >= 2.0 * gamma((c + 9.0) * LIB + c * (lam + 4.0) + 20.0) * enc.lo


@pytest.mark.parametrize("c, a, b", [
    (1.0, 2, None), (0.5, 1, 10), (2.0, 5, 5), (2.0, 2, 2 ** 53 + 1), (0.0, 2, 10),
    (math.inf, 3, 10), (math.nan, 2, 10), (1e300, 2, 3), (2000.0, 2, 10), (200.0, 2 ** 50, None),
])
def test_log_power_domain(c, a, b):
    # bad ranges, a divergent tail, and first terms outside the float64 range
    with pytest.raises(DomainError):
        log_power_sum(c, a, b)


# ---------------------------------------------------------------------------
# ces_norm
# ---------------------------------------------------------------------------

@frozen
def test_ces_norm_contains_mpmath(p, first, gaps, vals):
    idx = np.cumsum([first] + gaps)
    a = CoeffSeq(idx, np.array(vals[:idx.size]))
    enc = ces_norm(a, Exponent.from_p(p))
    assert enc.lo <= mp_ces_norm(a, p) <= enc.hi
    assert enc.width <= 1e-13 * enc.hi


@frozen
def test_ces_norm_inside_dense_reference(p, d):
    a = CoeffSeq.from_pairs(d.items())
    e = Exponent.from_p(p)
    assert dense_ces_norm_reference(a, e).encloses(ces_norm(a, e))


@frozen
def test_ces_norm_blocks_contain_mpmath(p, block, first, gaps, vals):
    # blocks of 1..4 entries: the running sum crosses block boundaries
    idx = np.cumsum([first] + gaps)
    a = CoeffSeq(idx, np.array(vals[:idx.size]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "BLOCK", block)
        enc = ces_norm(a, Exponent.from_p(p))
    assert enc.lo <= mp_ces_norm(a, p) <= enc.hi
    assert enc.width <= 1e-13 * enc.hi


@frozen
def test_streamed_product_contains_mpmath(p, block, f, g, cut):
    # the enclosure certifies the norm of the rounded product, which
    # ``convolve`` (bitwise the same blocks) stores for the reference
    f, g = DirichletPoly.from_pairs(f.items()), DirichletPoly.from_pairs(g.items())
    limit = max(1, int(cut * f.max_index * g.max_index))
    scale = abs_sum_exponent(f.coeffs) + abs_sum_exponent(g.coeffs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "BLOCK", block)
        enc = ces_norm_stream(product_blocks(f, g, limit), scale, Exponent.from_p(p))
    prod = convolve(f, g, limit).coeffs
    if prod.is_empty:
        assert enc == Enclosure(0.0, 0.0)
        return
    assert enc.lo <= mp_ces_norm(prod, p) <= enc.hi
    assert enc.width <= 1e-13 * enc.hi


@pytest.mark.parametrize("p, alpha", [(1.5, 0.3), (2.0, 0.45), (3.0, 0.6)])
def test_estimate_moduli_contain_mpmath(p, alpha, monkeypatch):
    # phases on 1, 2, 3 end below g's first prime: the numerator streamed as
    # |a_i| g_j encloses the norm of the exact product, |a_i| g_j at 40
    # digits, and that of the rounded complex product, as the test above
    f = DirichletPoly.from_pairs([(1, 0.6 + 0.8j), (2, cmath.exp(2j)), (3, cmath.exp(-4j))])
    e, table = Exponent.from_p(p), sieve_primes(1000)
    seen = []
    monkeypatch.setattr(multipliers, "ces_norm_stream",
                        lambda *a: seen.append(ces_norm_stream(*a)) or seen[-1])
    est = multiplier_lower_estimate(f, 10, alpha, e, table)
    g = build_test_function(10, alpha, e, table, est.r_m)
    exact = sorted((i * int(n), abs(mpmath.mpc(a)) * mpmath.mpf(b.real))
                   for i, a in f.coeffs.entries() for n, b in g.coeffs.entries())
    (num,) = seen
    assert num.lo <= mp_ces_norm(exact, p) <= num.hi
    assert num.lo <= mp_ces_norm(convolve(f, g, est.conv_limit).coeffs, p) <= num.hi


def test_ces_norm_rejects_inexact_indices():
    with pytest.raises(DomainError):
        ces_norm(CoeffSeq.from_pairs([(1, 1.0), (2 ** 53 + 1, 1.0)]), Exponent.from_p(2.0))


def test_ces_norm_huge_coefficients():
    e = Exponent.from_p(2.0)
    unit = ces_norm(CoeffSeq.from_pairs([(2, 1.0), (5, 1.0)]), e)
    huge = ces_norm(CoeffSeq.from_pairs([(2, 1e308), (5, 1e308)]), e)
    assert math.isfinite(huge.hi)
    assert huge.lo == pytest.approx(1e308 * unit.lo, rel=1e-13)
    assert huge.hi == pytest.approx(1e308 * unit.hi, rel=1e-13)


# fixed sequences to be scaled by 2^-k for k in SUBNORMAL_SHIFTS: real or
# imaginary values, whose moduli are exact at any scale, and complex ones
# with both parts nonzero, whose moduli are taken after the parts are scaled
SUBNORMAL_SEQS = [
    [(1, 1.0), (5, 0.5)],
    [(2, 0.75), (3, -0.3), (10, 1.25), (41, 0.1), (42, 0.6)],
    [(1, 0.6j), (4, -0.3), (9, 0.05j), (30, 1.7)],
    [(1, 0.6 + 0.8j), (4, -0.3 + 0.1j), (9, 0.05j), (30, 1.7 - 0.2j)],
    [(2, 0.3 - 0.4j), (7, -1.1 + 0.9j), (8, 0.2 - 0.7j), (20, 0.01 + 0.02j)],
]
SUBNORMAL_SHIFTS = (1000, 1030, 1050, 1070)


@pytest.mark.parametrize("k", SUBNORMAL_SHIFTS)
@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
@pytest.mark.parametrize("pairs", SUBNORMAL_SEQS)
def test_norms_below_the_normal_range_contain_mpmath(pairs, p, k):
    # the norms are computed at scale 1 and multiplied back by ldexp, which
    # rounds to nearest below 2^-1022: such an endpoint moves a step outward
    a = CoeffSeq.from_pairs((n, v * 2.0 ** -k) for n, v in pairs)
    e = Exponent.from_p(p)
    enc = ces_norm(a, e)
    assert enc.lo <= mp_ces_norm(a, p) <= enc.hi
    trace = jagers_dual_norm(a, e)
    chain, norm = mp_dual_norm(a, p)
    assert trace.m_chain == chain
    assert trace.norm.lo <= norm <= trace.norm.hi


def test_normal_norms_keep_their_bits_when_unscaled():
    # an endpoint at or above 2^-1022 after unscaling is exact, and kept
    x = Enclosure(0.75, ulp_up(0.75))
    assert x.scaled(-1021, "norm") == Enclosure(0.75 * 2.0 ** -1021, ulp_up(0.75) * 2.0 ** -1021)
    assert x.scaled(40, "norm") == Enclosure(0.75 * 2.0 ** 40, ulp_up(0.75) * 2.0 ** 40)
    one = Enclosure(0.5, 0.5).scaled(-1021, "norm")
    assert (one.lo, one.hi) == (ulp_down(2.0 ** -1022), 2.0 ** -1022)
    assert Enclosure(0.0, 0.5).scaled(-1100, "norm") == Enclosure(0.0, TINY)  # 2^-1101 rounds to 0
    with pytest.raises(DomainError, match="the norm exceeds"):
        Enclosure(0.5, 0.75).scaled(1025, "norm")


def _margin_input(kind, size):
    """``size`` entries with values 1..size (reversed), stored or on the
    primes of a table from rank 5 on: ``ces_norm`` reads both block by
    block through their ``read``."""
    val = np.arange(size, 0, -1, dtype=np.float64)
    if kind == "stored":
        return CoeffSeq(np.arange(1, 3 * size + 1, 3), val)
    return PrimeCoeffs(sieve_primes(2000), 5, val)


@pytest.mark.parametrize("kind", ["stored", "table"])
@pytest.mark.parametrize("p, size, block", [(1.5, 1, 1 << 15), (2.0, 40, 1 << 15), (3.0, 40, 7),
                                            (2.0, 200, 1)])
def test_ces_norm_at_least_its_margin_wide(kind, p, size, block, monkeypatch):
    # each side of the p-th power carries gamma(count) of the modelled
    # count (``ces_norm_stream``): hi/lo of the power is at least
    # 1/(1 - gamma)**2, on top of the zeta values' own width, while
    # float64 rounding stays far inside it
    monkeypatch.setattr(sequences, "BLOCK", block)
    enc = ces_norm(_margin_input(kind, size), Exponent(p))
    blocks, widest = -(-size // block), min(size, block)
    rel_a = LIB + 1.0 + blocks * (widest + 1) ** 2 * U
    count = ((p * rel_a + LIB) + (LIB + rel_a + 1) + 2 * (LIB + 1) + 2
             + pairwise_depth(widest) + (blocks > 1))
    ratio = (mpmath.mpf(enc.hi) / mpmath.mpf(enc.lo)) ** p
    assert ratio >= 1 / (1 - mpmath.mpf(gamma(count))) ** 2


@pytest.mark.parametrize("kind", ["stored", "table"])
def test_ces_norm_carries_underflow_and_ulp_steps(kind, monkeypatch):
    # exact zeta values z (patched) and one term 2**-64 z = 64 TINY, deep
    # in the subnormal range, where gamma(count) rounds away: what is left
    # of each side's margin is the underflow term (2 TINY here) and the
    # outward steps, one ulp down and two up
    z = 2.0 ** -1004
    monkeypatch.setattr(sequences, "hurwitz_zeta",
                        lambda x, n: (np.full(len(n), z), np.full(len(n), z)))
    p = 64.0
    enc = ces_norm(_margin_input(kind, 1), Exponent(p))
    under = TINY * ((p + 2.0) * z + 2.0)
    # the single value 1 is scaled by 2**-1 before the sum
    lo, hi = (mpmath.mpf(x) / 2 for x in (enc.lo, enc.hi))
    assert lo ** 64 <= 64 * TINY - under - TINY
    assert hi ** 64 >= 64 * TINY + under + 2 * TINY


def _bits_or_error(norm):
    try:
        enc = norm()
    except DomainError as ex:
        return str(ex)
    return enc.lo.hex(), enc.hi.hex()


@frozen
def test_ces_norm_is_the_stream_of_its_blocks(p, block, first, gaps, mags):
    # blocks of 1..5 entries, so A(n) crosses block edges, and magnitudes
    # 1e-300..1e301, so the scaling decides between a norm and the
    # exponent-range error: both answers agree bit for bit
    idx = np.cumsum([first] + gaps)
    a = CoeffSeq(idx, np.array([m * 10.0 ** k * complex(math.cos(t), math.sin(t))
                                for m, k, t in mags[:idx.size]]))
    e = Exponent.from_p(p)
    blocks = [(a.idx[s:s + block], a.val[s:s + block]) for s in range(0, len(a), block)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "BLOCK", block)
        whole = _bits_or_error(lambda: ces_norm(a, e))
        streamed = _bits_or_error(lambda: ces_norm_stream(iter(blocks), abs_sum_exponent(a), e))
    assert whole == streamed


def test_coeffseq_rejects_non_finite():
    for bad in (math.nan, math.inf, complex(1.0, -math.inf)):
        with pytest.raises(DomainError):
            CoeffSeq.from_pairs([(1, 1.0), (3, bad)])


# ---------------------------------------------------------------------------
# jagers_dual_norm
# ---------------------------------------------------------------------------

def mp_dual_norm(b: CoeffSeq, p: float):
    """The greedy chain (largest minimizer of the difference quotients,
    sentinel last) and the dual norm at 40 digits, B_k = zeta(p, k)."""
    s = mpmath.mpf(p)
    q = s / (s - 1)
    with mpmath.workprec(4400):
        # moduli from exact squares: |1e-38 + 1j| must exceed |1| as it
        # does in ``jagers_dual_norm``'s exact comparison, which 40 digits
        # cannot tell
        w = [mpmath.hypot(v.real, v.imag) for v in b.val.tolist()] + [mpmath.mpf(0)]
    big = [mpmath.zeta(s, n) for n in b.idx.tolist()] + [mpmath.mpf(0)]
    pos = max(k for k, v in enumerate(w) if v == max(w))
    chain, total = [pos], mpmath.mpf(0)
    while pos < len(b):
        quot = [((w[pos] - w[j]) / (big[pos] - big[j]), j) for j in range(pos + 1, len(w))]
        best = min(v for v, _ in quot)
        nxt = max(j for v, j in quot if v == best)
        total += (w[pos] - w[nxt]) ** q / (big[pos] - big[nxt]) ** (q - 1)
        chain.append(nxt)
        pos = nxt
    labels = tuple(int(b.idx[k]) for k in chain[:-1]) + (SENTINEL,)
    return labels, total ** (1 / q)


@frozen
def test_jagers_contains_mpmath(p, first, gaps, vals, decreasing):
    idx = np.cumsum([first] + gaps)
    vals = vals[:idx.size]
    if decreasing:
        vals.sort(key=abs, reverse=True)
    b = CoeffSeq(idx, np.array(vals, dtype=np.complex128))
    trace = jagers_dual_norm(b, Exponent.from_p(p))
    chain, norm = mp_dual_norm(b, p)
    assert trace.m_chain == chain
    assert trace.norm.lo <= norm <= trace.norm.hi
    assert trace.norm.width <= 1e-13 * trace.norm.hi


# ---------------------------------------------------------------------------
# assumptions of the error model
# ---------------------------------------------------------------------------

def _chain_margin(db_lo, db_hi, d_lo, d_hi, p):
    """What ``dual._chain_norm`` must at least return from its endpoints:
    the exact (sum_k delta_b_k^q delta_B_k^(1-q))^(1/q) of each side's
    endpoints, moved out by each modelled margin (the per-term gamma of
    delta_b, the rounded exponent and the power; the least per-term count
    of the q-th powers and the pairwise sum's gamma, both under the root;
    the root's gamma), each at its smallest."""
    mp = mpmath.mpf
    q = mp(p) / (mp(p) - 1)
    spread = max(abs(math.log(x)) for x in (*d_lo, *d_hi))
    g = mp(gamma(4 + LIB + spread / p))
    rel = mp((q + LIB + 2) * U)
    g_sum = mp(gamma(pairwise_depth(len(db_lo)) + 1))
    v_lo = [mp(b) * mp(d) ** (-1 / mp(p)) for b, d in zip(db_lo, d_hi)]
    v_hi = [mp(b) * mp(d) ** (-1 / mp(p)) for b, d in zip(db_hi, d_lo)]
    top = max(v_hi)
    g_root = mp(gamma(LIB + 2 + float(mpmath.log(sum((v / top) ** q for v in v_hi)) / q)))
    lo = sum(v ** q for v in v_lo) ** (1 / q)
    hi = sum(v ** q for v in v_hi) ** (1 / q)
    return (lo * (1 - g) * ((1 - rel) * (1 - g_sum)) ** (1 / q) * (1 - g_root),
            hi * (1 + g) * ((1 + rel) * (1 + g_sum)) ** (1 / q) * (1 + g_root))


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
def test_chain_norm_at_least_its_margin_wide(p, monkeypatch):
    # every dual-norm enclosure is at least its modelled margin wider than
    # the exact value of its endpoints on each side, while float64
    # rounding stays within 2 U of it: on point inputs (all delta_b 1,
    # all delta_B one value) of 1 to 300 terms, and on the chains that
    # ``jagers_dual_norm`` builds for a decreasing and a random b
    e = Exponent.from_p(p)
    calls = []
    chain_norm = dual._chain_norm
    monkeypatch.setattr(dual, "_chain_norm",
                        lambda *a: calls.append((a[:4], chain_norm(*a))) or calls[-1][1])
    for n in (1, 40, 300):
        for d in (1.0, 1000.0, 1e-3):
            ones, ds = np.ones(n), np.full(n, d)
            calls.append(((ones, ones, ds, ds), chain_norm(ones, ones, ds, ds, e)))
    rng = np.random.default_rng(7)
    jagers_dual_norm(CoeffSeq.from_pairs([(k, 1.0 / k) for k in range(1, 50)]), e)
    jagers_dual_norm(CoeffSeq.from_pairs(
        (int(k), complex(*rng.normal(size=2))) for k in np.unique(rng.integers(1, 3000, 200))), e)
    assert len(calls) == 11
    for args, enc in calls:
        lo, hi = _chain_margin(*(x.tolist() for x in args), p)
        assert enc.lo <= lo * (1 + 2 * U) and enc.hi >= hi * (1 - 2 * U)


def test_elementary_functions_within_model():
    rng = np.random.default_rng(7)
    ns = np.floor(np.exp(rng.uniform(0.0, math.log(2.0 ** 53), 400)))
    ratios = np.exp(rng.uniform(-40.0, 40.0, 400))
    zs = rng.normal(size=400) + 1j * rng.normal(size=400)
    cases = [(np.power(ns, -p), [mpmath.mpf(n) ** -mpmath.mpf(p) for n in ns]) for p in P_SET]
    cases.append((np.log1p(ratios), [mpmath.log1p(r) for r in ratios]))
    cases.append((-np.expm1(-ratios), [-mpmath.expm1(-r) for r in ratios]))
    cases.append((np.abs(zs), [mpmath.hypot(z.real, z.imag) for z in zs]))
    for got, ref in cases:
        worst = max(abs((g - r) / r) for g, r in zip(got, ref))
        assert worst <= LIB * U


def test_sum_is_pairwise():
    # one rounding per step in a sequential float32 sum of 2^22 copies of
    # 0.1 drifts by about 4e-2; numpy's pairwise summation stays near 1e-7
    a = np.full(1 << 22, 0.1, dtype=np.float32)
    exact = float(np.float32(0.1)) * a.size
    assert abs(float(a.sum()) - exact) <= 1e-6 * exact


def test_prefix_sums_compensated():
    rng = np.random.default_rng(3)
    w = rng.random(2000) * np.exp(rng.uniform(-20.0, 0.0, 2000))
    plain = np.cumsum(w)
    assert np.array_equal(plain[1:], plain[:-1] + w[1:])  # one rounding per step
    got = _prefix_sums(w, [0.0, 0.0])
    for k in range(0, w.size, 97):
        exact = mpmath.fsum(mpmath.mpf(float(t)) for t in w[:k + 1])
        assert abs(got[k] - exact) <= (1.0 + w.size ** 2 * U) * U * exact


def test_prefix_sums_carry_across_blocks():
    # 40 blocks of 50: every running sum within (1 + J (n + 1)^2 U) U,
    # and the carry within J (n + 1)^2 U^2 of the exact total
    rng = np.random.default_rng(4)
    w = rng.random(2000) * np.exp(rng.uniform(-20.0, 0.0, 2000))
    blocks, n = 40, 50
    carry = [0.0, 0.0]
    got = np.concatenate([_prefix_sums(w[s:s + n], carry) for s in range(0, w.size, n)])
    exact = np.cumsum([mpmath.mpf(float(t)) for t in w])
    for k in range(0, w.size, 37):
        assert abs(got[k] - exact[k]) <= (1.0 + blocks * (n + 1) ** 2 * U) * U * exact[k]
    assert abs(mpmath.mpf(carry[0]) + carry[1] - exact[-1]) <= blocks * (n + 1) ** 2 * U * U * exact[-1]
    assert carry[0] == got[-1] and abs(carry[1]) <= U * carry[0]
