import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frozen import frozen

from cesdirichlet import kernels, sequences, series
from cesdirichlet.enclosure import gamma
from cesdirichlet.errors import DomainError
from cesdirichlet.kernels import sieve_primes
from cesdirichlet.sequences import CoeffSeq, Exponent, PrimeCoeffs, ar_norm, ces_norm
from cesdirichlet.series import (
    DirichletPoly,
    EvalPoint,
    convolve,
    evaluate,
    product_blocks,
    qr_project,
)

E2 = Exponent.from_p(2.0)
ONE = DirichletPoly.from_pairs([(1, 1.0)])


def poly(*pairs):
    return DirichletPoly.from_pairs(pairs)


def ones_upto(n):
    return poly(*((k, 1.0) for k in range(1, n + 1)))


small_polys = st.dictionaries(
    st.integers(min_value=1, max_value=20),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=5.0,
                       allow_nan=False, allow_infinity=False),
    min_size=1, max_size=6,
).map(lambda d: DirichletPoly(CoeffSeq.from_pairs(d.items())))


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def test_convolve_divisor_counts():
    f = ones_upto(6)
    h = convolve(f, f, 6)
    got = dict(h.coeffs.entries())
    for n in range(1, 7):
        assert got[n] == divisor_count(n)
    assert got[6] == 4


def test_convolve_monomials():
    h = convolve(poly((3, 1.0)), poly((5, 1.0)), 100)
    assert h.coeffs.entries() == [(15, 1.0)]


@settings(max_examples=30, deadline=None)
@given(f=small_polys)
def test_convolve_identity(f):
    assert convolve(f, ONE, f.max_index) == f


def exact_convolution(*polys):
    """Exact c_n = sum_{ij...=n} f_i g_j ... as (real, imag) Fraction
    pairs, the magnitude sums sum_{ij...=n} |f_i||g_j|... and the product
    counts."""
    exact, mass, count = {}, {}, {}
    for terms in itertools.product(*(f.coeffs.entries() for f in polys)):
        n = math.prod(i for i, _ in terms)
        pr, pi = Fraction(1), Fraction(0)
        for _, a in terms:
            ar, ai = Fraction(a.real), Fraction(a.imag)
            pr, pi = pr * ar - pi * ai, pr * ai + pi * ar
        re, im = exact.get(n, (Fraction(0), Fraction(0)))
        exact[n] = (re + pr, im + pi)
        mass[n] = mass.get(n, 0.0) + math.prod(abs(a) for _, a in terms)
        count[n] = count.get(n, 0) + 1
    return exact, mass, count


def frozen_poly(coeffs):
    """A frozen example's ``{index: value}`` as a ``DirichletPoly``."""
    return DirichletPoly(CoeffSeq.from_pairs(coeffs.items()))


# frozen (see ``frozen.py``): 200 draws of small_polys for f and g, after
# the example f = 1.8125 + 2^-s + 3^-s + (-1 + 1.3e-79j) 5^-s,
# g = (-1.8125 + 8e-91j) + 2^-s + 3^-s + (-1 + 1.3e-79j) 5^-s
@frozen
def test_convolve_commutative(f, g):
    # both orders against the exact convolution.  A complex product is
    # within sqrt(2) gamma(2) of exact and k summed products add gamma(k - 1),
    # relative to sum_{ij=n} |f_i||g_j|: colliding products that cancel
    # leave order-dependent residues, or exact zeros (dropped, read as 0)
    f, g = frozen_poly(f), frozen_poly(g)
    limit = f.max_index * g.max_index
    exact, mass, count = exact_convolution(f, g)
    for h in (convolve(f, g, limit), convolve(g, f, limit)):
        got = dict(h.coeffs.entries())
        assert set(got) <= set(exact)
        for n, (re, im) in exact.items():
            c = got.get(n, 0j)
            err2 = (Fraction(c.real) - re) ** 2 + (Fraction(c.imag) - im) ** 2
            bound = (math.sqrt(2.0) * gamma(2) + gamma(count[n] - 1)) * mass[n]
            assert err2 <= Fraction(bound) ** 2


def test_convolve_commutative_exact_integers():
    rng = np.random.default_rng(3)
    for _ in range(25):
        fi = np.sort(rng.choice(np.arange(1, 30), size=5, replace=False))
        gi = np.sort(rng.choice(np.arange(1, 30), size=4, replace=False))
        f = DirichletPoly(CoeffSeq(fi.astype(np.int64),
                                   rng.integers(-4, 5, size=5).astype(np.complex128)))
        g = DirichletPoly(CoeffSeq(gi.astype(np.int64),
                                   rng.integers(-4, 5, size=4).astype(np.complex128)))
        if f.is_zero or g.is_zero:
            continue
        limit = f.max_index * g.max_index
        assert convolve(f, g, limit) == convolve(g, f, limit)


@settings(max_examples=20, deadline=None)
@given(f=small_polys, g=small_polys, h=small_polys)
@example(f=poly((1, 0.40625)), g=poly((1, 0.375), (2, 0.001)), h=poly((1, -0.375), (2, 0.001)))
def test_convolve_associative(f, g, h):
    # both groupings against the exact triple convolution.  Each of the
    # two convolutions is within beta = sqrt(2) gamma(2) + gamma(k - 1) of
    # exact relative to its magnitude sum (test_convolve_commutative), k
    # at most the triple count, and the first one's error passes through
    # the second: 2 beta + beta^2 relative to sum |f_i||g_j||h_l|.
    # Products that cancel can round to an exact zero in one grouping only
    # (dropped, read as 0), so the groupings need not share an index list
    limit = f.max_index * g.max_index * h.max_index
    exact, mass, count = exact_convolution(f, g, h)
    for w in (convolve(convolve(f, g, limit), h, limit),
              convolve(f, convolve(g, h, limit), limit)):
        got = dict(w.coeffs.entries())
        assert set(got) <= set(exact)
        for n, (re, im) in exact.items():
            c = got.get(n, 0j)
            err2 = (Fraction(c.real) - re) ** 2 + (Fraction(c.imag) - im) ** 2
            beta = math.sqrt(2.0) * gamma(2) + gamma(count[n] - 1)
            assert err2 <= Fraction((2.0 * beta + beta * beta) * mass[n]) ** 2


@settings(max_examples=30, deadline=None)
@given(f=small_polys, g=small_polys, n=st.integers(min_value=1, max_value=50))
def test_convolve_truncation_coherence(f, g, n):
    limit = f.max_index * g.max_index
    whole = convolve(f, g, limit).coeffs
    keep = whole.idx <= n
    assert CoeffSeq(whole.idx[keep], whole.val[keep]) == convolve(f, g, min(n, limit)).coeffs


def test_convolve_domain():
    with pytest.raises(DomainError):
        convolve(ONE, ONE, 0)


def convolve_reference(f: DirichletPoly, g: DirichletPoly, limit: int) -> DirichletPoly:
    """The former convolve: every product stored, one global stable
    argsort, equal indices summed by reduceat."""
    fa, ga = f.coeffs, g.coeffs
    idx_parts = []
    val_parts = []
    for i, a in zip(fa.idx, fa.val):
        take = np.searchsorted(ga.idx, limit // int(i), side="right")
        if take == 0:
            continue
        idx_parts.append(int(i) * ga.idx[:take])
        val_parts.append(a * ga.val[:take])
    if not idx_parts:
        return DirichletPoly(CoeffSeq.empty())
    idx = np.concatenate(idx_parts)
    val = np.concatenate(val_parts)
    order = np.argsort(idx, kind="stable")
    idx, val = idx[order], val[order]
    starts = np.nonzero(np.concatenate(([True], np.diff(idx) != 0)))[0]
    return DirichletPoly(CoeffSeq(idx[starts], np.add.reduceat(val, starts)))


# frozen (see ``frozen.py``): f and g drew 1..40 indices in 1..60, a range
# small enough that products collide often, with values of modulus in
# [1e-3, 5] or one of 1, -1, 2 and 1j, so that integer values cancel
# exactly; block from 1, 2, 3, 5, 16, 2^15 and 2^16; cut in [0, 1.2]
@frozen
def test_convolve_matches_reference_bitwise(f, g, block, cut):
    f, g = frozen_poly(f), frozen_poly(g)
    assert_blocks_match_reference(f, g, max(1, int(cut * f.max_index * g.max_index)), block)


def assert_blocks_match_reference(f, g, limit, block):
    """At ``BLOCK`` = block, ``convolve`` has the bits of the reference, and
    each block of ``product_blocks`` is sorted, distinct, nonzero, above the
    block before and at most max(block, the indices of f with a product
    within the limit) long."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "BLOCK", block)
        got = convolve(f, g, limit).coeffs
        blocks = list(product_blocks(f, g, limit))
    want = convolve_reference(f, g, limit).coeffs
    assert got.idx.tobytes() == want.idx.tobytes()
    assert got.val.tobytes() == want.val.tobytes()
    live = sum(1 for i in f.coeffs.idx if g.coeffs.idx[0] * int(i) <= limit)
    for (idx, val), nxt in zip(blocks, blocks[1:] + [None]):
        assert idx.size <= max(block, live) and np.all(np.diff(idx) > 0)
        assert np.all(val != 0)
        if nxt is not None:
            assert idx[-1] < nxt[0][0]


@pytest.mark.parametrize("block", [1, 3, 16, 1 << 15])
def test_single_slice_blocks_skip_the_merge(block, monkeypatch):
    # with one index in f every block is one slice of g, already sorted
    # and distinct: no argsort runs and the blocks match the reference
    f = poly((3, 2.0 - 1.0j))
    g = DirichletPoly(CoeffSeq(np.arange(1, 200, 2), np.linspace(-1.5, 2.0, 100) + 0.5j))
    want = convolve_reference(f, g, 400).coeffs

    def no_argsort(*args, **kwargs):
        raise AssertionError("a single slice needs no merge")

    monkeypatch.setattr(sequences, "BLOCK", block)
    monkeypatch.setattr(np, "argsort", no_argsort)
    blocks = list(product_blocks(f, g, 400))
    monkeypatch.undo()
    assert all(idx.size <= block for idx, _ in blocks)
    assert np.concatenate([b[0] for b in blocks]).tobytes() == want.idx.tobytes()
    assert np.concatenate([b[1] for b in blocks]).tobytes() == want.val.tobytes()


def test_product_blocks_reject_overflow():
    big = DirichletPoly.from_pairs([(1, 1e300), (2, 1e300)])
    with pytest.raises(DomainError):
        list(product_blocks(big, big, 4))


def test_product_blocks_refuse_indices_past_int64():
    # 7 * (2**63 - 1)/7 is the largest int64 and passes; 2 * 2**62 is one
    # past it and raises below the limit, but is dropped past it
    top = 2 ** 63 - 1
    fit = list(product_blocks(poly((7, 1.0)), poly((top // 7, 1.0)), 2 ** 64))
    assert fit[0][0].tolist() == [top]
    with pytest.raises(DomainError, match="exceeds int64"):
        list(product_blocks(poly((1, 1.0), (2, 1.0)), poly((3, 1.0), (2 ** 62, 1.0)), 2 ** 63))
    assert [b[0].tolist() for b in product_blocks(poly((1, 1.0), (2, 1.0)),
                                                  poly((3, 1.0), (2 ** 62, 1.0)), top)] == [
        [3, 6, 2 ** 62]]


PRIMES = sieve_primes(2000)


def on_primes(start, values):
    """g with real ``values`` on the primes of ranks start, start + 1, ...
    (from 0) of a table to 2000."""
    return DirichletPoly(PrimeCoeffs(PRIMES, start, np.asarray(values, dtype=np.float64)))


SCAN_CASES = {
    # f's largest index 6 is past g's first prime 2: the products 2 * 3
    # and 3 * 2 merge, cancel to 0 and are dropped
    "collisions": (poly((1, 0.5), (2, 1.0), (3, -1.0), (6, 2.0 - 1.0j)), on_primes(0, [1.0] * 60)),
    # |a b| up to 5e307, past 2^1020 but finite
    "near-max": (poly((1, 1e300), (2, -3.0j)), on_primes(1, np.linspace(1.0, 5e7, 60))),
    # 1e-200 * 1e-200 rounds to 0 and is dropped
    "underflow": (poly((1, 1e-200), (2, 1.0)), on_primes(1, [1e-200, 1.0] * 30)),
}


@pytest.mark.parametrize("block", [1, 7, 1 << 15])
@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_product_blocks_scan_where_one_look_cannot_rule_out(case, block, monkeypatch):
    # the blocks of each case go through the duplicate, finite and zero
    # scans, and give the bits of the reference
    f, g = SCAN_CASES[case]
    limit = f.max_index * g.max_index
    want = convolve_reference(f, g, limit).coeffs
    monkeypatch.setattr(sequences, "BLOCK", block)
    got = convolve(f, g, limit).coeffs
    assert got.idx.tobytes() == want.idx.tobytes()
    assert got.val.tobytes() == want.val.tobytes()
    assert len(got) < len(f.coeffs) * len(g.coeffs) or case == "near-max"


@pytest.mark.parametrize("block", [1, 7, 1 << 15])
def test_product_blocks_stop_each_cursor_at_the_limit(block):
    # g on the primes 3..179: limits below every i g_0 (an empty product),
    # at i times a prime (5 * 101), between primes (300 // i for i > 1),
    # at every 61st value (anywhere in a window) and at and past the last
    # product; each cursor finds its end in the entries it peeks
    f = poly((1, 0.5), (2, 1.0 - 1.0j), (3, -0.25), (5, 2.0j), (12, 1.5))
    g = on_primes(1, np.linspace(-1.0, 2.0, 40) + 0.005)
    last = 12 * g.max_index
    for limit in (2, 5 * 101, 300, *range(1, last, 61), last, 10 ** 6):
        assert_blocks_match_reference(f, g, limit, block)


def test_product_blocks_read_past_each_end_once(monkeypatch):
    # 300 indices of f against the primes to 1999, cut at 3000: most
    # cursors find their end in the first window and stay live until the
    # window reaches their products, while the share grows as others
    # finish; each decodes entries past its end in one peek at most
    readers = []

    class Recorded(sequences.Reader):
        def __init__(self, seq):
            super().__init__(seq)
            self.spans = []  # (decoded before, decoded after) per peek
            readers.append(self)

        def peek(self, n):
            before = self.pos + self.ahead.size
            out = super().peek(n)
            self.spans.append((before, self.pos + self.ahead.size))
            return out

    monkeypatch.setattr(series, "Reader", Recorded)
    f = poly(*((i, 1.0) for i in range(1, 301)))
    g = on_primes(0, np.linspace(2.0, 1.0, 300))
    want = convolve_reference(f, g, 3000).coeffs
    assert np.concatenate([b[0] for b in product_blocks(f, g, 3000)]).tobytes() == want.idx.tobytes()
    support = g.coeffs.idx
    for i, reader in zip(range(1, 301), readers, strict=True):
        end = int(np.searchsorted(support, 3000 // i, side="right"))
        assert sum(1 for a, b in reader.spans if b > max(a, end)) <= 1


def test_product_blocks_refuse_a_prime_product_past_int64():
    # (2^40 + 1) p passes int64 for the primes p past 2^63 // (2^40 + 1),
    # about 2^23: at the limit 2^64 the cursor of 2^40 + 1 raises when it
    # peeks the first of them, after the blocks below have streamed; at the
    # int64 limit their products are dropped
    table = sieve_primes(10 ** 7)
    f = poly((1, 1.0), (2 ** 40 + 1, -0.5))
    g = DirichletPoly(PrimeCoeffs(table, len(table) - 150_000, np.linspace(2.0, 1.0, 150_000)))
    top = 2 ** 63 - 1
    assert g.coeffs.read(0, 1)[0] < top // (2 ** 40 + 1) < g.max_index
    want = convolve_reference(f, g, top).coeffs
    got = convolve(f, g, top).coeffs
    assert got.idx.tobytes() == want.idx.tobytes()
    assert got.val.tobytes() == want.val.tobytes()
    streamed = []
    with pytest.raises(DomainError, match="exceeds int64"):
        for idx, val in product_blocks(f, g, 2 ** 64):
            streamed.append(idx)
    assert len(streamed) > 1
    joined = np.concatenate(streamed)
    assert joined.tobytes() == want.idx[:joined.size].tobytes()
    assert joined[-1] > 2 ** 62  # products of 2^40 + 1 among them


def test_product_blocks_overflow_past_the_look_raises():
    f, g = poly((1, 1e300), (2, 1.0)), on_primes(1, [1.0, 1e10, 2.0])
    with pytest.raises(DomainError, match="finite"):
        list(product_blocks(f, g, 10 ** 6))


@pytest.mark.parametrize("block", [1, 7, 1 << 15])
def test_product_blocks_skip_the_scans_on_primes_past_f(block, monkeypatch):
    # g's first prime 5 exceeds f's largest index 4 and every |a b| is
    # normal, so no block is scanned; complex f with zero real or
    # imaginary parts gives the bits of the reference
    f = poly((1, 2.0j), (2, 3.0), (3, -1.5 + 0.5j), (4, -1e-3 + 0.0j))
    g = on_primes(2, np.linspace(-2.0, 3.0, 200) + 0.01)
    limit = f.max_index * g.max_index
    want = convolve_reference(f, g, limit).coeffs

    def no_scan(*args, **kwargs):
        raise AssertionError("no block needs a finite scan")

    monkeypatch.setattr(sequences, "BLOCK", block)
    monkeypatch.setattr(np, "isfinite", no_scan)
    blocks = list(product_blocks(f, g, limit))
    monkeypatch.undo()
    assert np.concatenate([b[0] for b in blocks]).tobytes() == want.idx.tobytes()
    assert np.concatenate([b[1] for b in blocks]).tobytes() == want.val.tobytes()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_constant():
    assert evaluate(ONE, EvalPoint(2.0, 5.0)) == 1.0


def test_evaluate_two_terms():
    assert evaluate(ones_upto(2), EvalPoint(1.0, 0.0)) == pytest.approx(1.5)


def test_evaluate_phase_convention():
    # n^{-it} = exp(-i t log n)
    val = evaluate(poly((2, 1.0)), EvalPoint(0.0, 1.0))
    assert val == pytest.approx(complex(math.cos(math.log(2.0)), -math.sin(math.log(2.0))))


@settings(max_examples=30, deadline=None)
@given(f=small_polys, sigma=st.floats(min_value=0.6, max_value=3.0))
def test_evaluate_dominated_by_weighted_l1(f, sigma):
    assert abs(evaluate(f, EvalPoint(sigma, 0.0))) <= ar_norm(f.coeffs, sigma) + 1e-12


@settings(max_examples=30, deadline=None)
@given(f=small_polys, lam=st.floats(min_value=-5.0, max_value=5.0))
def test_evaluate_linear_in_coefficients(f, lam):
    s = EvalPoint(0.9, 1.3)
    scaled = DirichletPoly(CoeffSeq(f.coeffs.idx, f.coeffs.val * lam))
    assert evaluate(scaled, s) == pytest.approx(lam * evaluate(f, s), rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(f=small_polys, g=small_polys)
def test_evaluate_multiplicative_under_convolution(f, g):
    s = EvalPoint(1.2, 0.7)
    prod = convolve(f, g, f.max_index * g.max_index)
    assert evaluate(prod, s) == pytest.approx(evaluate(f, s) * evaluate(g, s), rel=1e-10)


def test_point_eval_bound_random_campaign():
    # |f(s)| <= min(sigma, (p-1)^{1/p}) zeta(sigma q)^{1/q} ||f|| at p = 2
    from cesdirichlet.kernels import zeta_real

    rng = np.random.default_rng(7)
    sigma = 0.75
    z_hi = zeta_real(2.0 * sigma).hi
    cap = min(sigma, 1.0) * math.sqrt(z_hi)
    for _ in range(100):
        size = int(rng.integers(1, 12))
        idx = np.sort(rng.choice(np.arange(1, 80), size=size, replace=False))
        val = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        f = DirichletPoly(CoeffSeq(idx.astype(np.int64), val))
        bound = cap * ces_norm(f.coeffs, E2).hi
        assert abs(evaluate(f, EvalPoint(sigma, float(rng.standard_normal())))) <= bound + 1e-9


# ---------------------------------------------------------------------------
# smooth projection
# ---------------------------------------------------------------------------

def test_qr_powers_of_two():
    f = ones_upto(6)
    assert qr_project(f, 1).coeffs.idx.tolist() == [1, 2, 4]


def test_qr_keeps_one():
    assert qr_project(ONE, 3) == ONE


def test_qr_keeps_143_at_r_8():
    # 143 = 11 * 13 = p_5 p_6: smooth_mask sieves what it needs, where a
    # table to 10 once left 8-smoothness of 143 undecided
    assert kernels.smooth_mask([143], 20)[0]
    assert not kernels.smooth_mask([143], 5)[0]
    assert qr_project(poly((143, 1.0)), 8) == poly((143, 1.0))


def test_qr_multiplicative_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        size_f, size_g = rng.integers(1, 9, size=2)
        fi = np.sort(rng.choice(np.arange(1, 25), size=size_f, replace=False))
        gi = np.sort(rng.choice(np.arange(1, 25), size=size_g, replace=False))
        f = DirichletPoly(CoeffSeq(fi.astype(np.int64),
                                   rng.integers(-3, 4, size=size_f).astype(np.complex128)))
        g = DirichletPoly(CoeffSeq(gi.astype(np.int64),
                                   rng.integers(-3, 4, size=size_g).astype(np.complex128)))
        if f.is_zero or g.is_zero:
            continue
        limit = f.max_index * g.max_index
        for r in (1, 2, 3):
            left = qr_project(convolve(f, g, limit), r)
            right = convolve(qr_project(f, r), qr_project(g, r), limit)
            assert left == right
