import dataclasses
import gc
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cesdirichlet import kernels, multipliers, sequences
from cesdirichlet.enclosure import LIB, TINY, U, ulp_down, ulp_up
from cesdirichlet.errors import DomainError, SelfCheckError
from cesdirichlet.kernels import (decrease_onset, lambert_w, log_power_sum, phi_alpha_deriv,
                                  phi_xlogx, sieve_primes)
from cesdirichlet.multipliers import (
    HEURISTIC_WINDOW_FLAG,
    build_test_function,
    find_rm,
    lemma_j_check,
    monomial_multiplier_check,
    multiplier_lower_estimate,
    noncompactness_bound,
    schur_finite,
    schur_log_power,
    schur_power,
)
from cesdirichlet.sequences import (CoeffSeq, Exponent, PrimeCoeffs, abs_sum_exponent, ar_norm,
                                    ces_norm, ces_norm_stream, random_seq)
from cesdirichlet.reports import normalize_record
from cesdirichlet.series import DirichletPoly, convolve, product_blocks

E2 = Exponent.from_p(2.0)
ONE = DirichletPoly.from_pairs([(1, 1.0)])


@pytest.fixture(scope="module")
def table_1e5():
    return sieve_primes(10 ** 5)


@pytest.fixture(scope="module")
def table_1e4():
    return sieve_primes(10 ** 4)


# ---------------------------------------------------------------------------
# monomial multipliers
# ---------------------------------------------------------------------------

def test_monomial_identity():
    ok, lower = monomial_multiplier_check(1, E2, samples=5, j_probe=100)
    assert ok and lower == 1.0


def test_monomial_m2_probe():
    ok, lower = monomial_multiplier_check(2, E2, samples=25, j_probe=10 ** 4, seed=3)
    assert ok
    assert lower >= (9999.0 / 20000.0) ** 0.5 - 1e-9
    assert lower <= 2.0 ** -0.5


def test_monomial_m4_campaign():
    ok, _ = monomial_multiplier_check(4, E2, samples=100, j_probe=100, seed=9)
    assert ok


def test_monomial_probe_approaches_bound():
    _, l1 = monomial_multiplier_check(2, E2, samples=1, j_probe=100, seed=0)
    _, l2 = monomial_multiplier_check(2, E2, samples=1, j_probe=10 ** 5, seed=0)
    assert l1 < l2 <= 2.0 ** -0.5


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
def test_dilation_has_the_bits_of_the_convolve_product(p):
    # the monomial law and the non-compactness bound take m^-s g as g's
    # support times m; ``convolve`` with m^-s is the reference
    e = Exponent.from_p(p)
    rng = np.random.default_rng(int(10 * p))
    for m in (2, 3, 10, 97, 2 ** 20, 2 ** 45):
        for _ in range(20):
            g = random_seq(rng, max_index=200, integer=bool(rng.integers(2)))
            g = CoeffSeq(g.idx, g.val * 2.0 ** int(rng.integers(-600, 601)))
            got = ces_norm(CoeffSeq(m * g.idx, g.val, _validated=True), e)
            ref = convolve(DirichletPoly.from_pairs([(m, 1.0)]), DirichletPoly(g), m * g.max_index)
            want = ces_norm(ref.coeffs, e)
            assert (got.lo.hex(), got.hi.hex()) == (want.lo.hex(), want.hi.hex())


def test_monomial_domain():
    with pytest.raises(DomainError):
        monomial_multiplier_check(0, E2, samples=1, j_probe=10)
    with pytest.raises(DomainError):
        monomial_multiplier_check(2, E2, samples=1, j_probe=1)
    # no g tested is no evidence for upper_ok, also where m = 1 needs none
    for m in (1, 2):
        for samples in (0, -5):
            with pytest.raises(DomainError):
                monomial_multiplier_check(m, E2, samples=samples, j_probe=10)


# ---------------------------------------------------------------------------
# prime-counting window
# ---------------------------------------------------------------------------

def test_find_rm_small_m(table_1e5):
    r2 = find_rm(2, table_1e5)
    r3 = find_rm(3, table_1e5)
    r5 = find_rm(5, table_1e5)
    assert 2 < r2 <= r3 <= r5
    # verify the window across the whole table past each onset
    primes = table_1e5.read(0, len(table_1e5)).astype(float)
    for m, rm in ((2, r2), (3, r3), (5, r5)):
        rs = np.arange(rm, len(table_1e5) + 1, dtype=float)
        v = rs * np.log(rs)
        pr = primes[rm - 1:]
        assert np.all(m * pr / (m + 1) <= v)
        assert np.all(v <= m * pr / (m - 1))
        assert rm > m


def test_find_rm_window_one_sided_always():
    # the upper half r log r <= m p_r/(m-1) holds for every r >= 1
    # (r log r < p_r, Rosser 1939), so only the lower half can fail: in
    # float64 too, as the scan computes it, over the 1e6 table
    table = sieve_primes(10 ** 6)
    primes = table.read(0, len(table)).astype(np.float64)
    rs = np.arange(1, len(table) + 1, dtype=np.float64)
    assert np.all(rs * np.log(rs) < primes)


def test_find_rm_unreachable_for_large_m(table_1e5):
    # p_r/(r log r) is still ~1.13 at the end of a 1e5 table, so
    # deviations below 1/9 are unverifiable
    assert find_rm(50, table_1e5) is None


def test_find_rm_domain(table_1e5):
    with pytest.raises(DomainError):
        find_rm(1, table_1e5)


def dense_find_rm(m, table):
    """The window scan over the whole table at once (five full-length
    float arrays), the reference for the chunked ``find_rm``: None where
    no rank of the table qualifies."""
    if m < 2:
        raise DomainError(f"window parameter m must be >= 2, got {m}")
    count = len(table)
    if count < m + 2:
        return None
    r = np.arange(1, count + 1, dtype=np.float64)
    v = r * np.log(r)
    pr = table.read(0, count).astype(np.float64)
    ok = (m * pr / (m + 1.0) <= v) & (v <= m * pr / (m - 1.0))
    bad = np.nonzero(~ok)[0]
    r_m = m + 1 if bad.size == 0 else max(m + 1, int(bad[-1]) + 2)
    return r_m if r_m <= count else None


def dense_test_function(m, alpha, e, table, r_m):
    """The test function built in one piece, values complex, support
    copied: the reference for the blocked ``build_test_function``."""
    q = e.q
    if not (1.0 / (2.0 * q) < alpha < 1.0 / q):
        raise DomainError(f"alpha={alpha} outside (1/(2q), 1/q) = ({1/(2*q)}, {1/q})")
    if r_m <= m or r_m < decrease_onset(1.0 / q) or r_m > len(table):
        raise DomainError(f"bad r_m={r_m}")
    rs = np.arange(r_m, len(table) + 1, dtype=np.float64)
    values = phi_alpha_deriv(rs, alpha).astype(np.complex128)
    support = table.read(r_m - 1, len(table))
    return DirichletPoly(CoeffSeq(support, values, _validated=True))


def test_find_rm_one_sided_scan_matches_two_sided(table_1e5, table_1e4):
    # the scan tests the lower half only; the reference tests both
    for table in (table_1e4, table_1e5, sieve_primes(10 ** 6)):
        for m in range(2, 13):
            assert find_rm(m, table) == dense_find_rm(m, table)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_chunked_find_rm_matches_dense(block, table_1e5, table_1e4, monkeypatch):
    monkeypatch.setattr(sequences, "BLOCK", block)
    short = sieve_primes(40)  # 12 primes: too short for m = 10 and 50
    for table in (table_1e5, table_1e4, sieve_primes(200), short):
        for m in (2, 3, 5, 10, 50):
            assert find_rm(m, table) == dense_find_rm(m, table)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_blocked_test_function_matches_dense(block, table_1e4, monkeypatch):
    monkeypatch.setattr(sequences, "BLOCK", block)
    for m, r_m in ((2, None), (5, None), (10, 11), (50, 51), (10, len(table_1e4))):
        r_m = r_m or find_rm(m, table_1e4)
        g = build_test_function(m, 0.45, E2, table_1e4, r_m=r_m).coeffs
        ref = dense_test_function(m, 0.45, E2, table_1e4, r_m).coeffs
        assert g.idx.tobytes() == ref.idx.tobytes()
        assert g.abs_values().tobytes() == ref.abs_values().tobytes()
        # g holds its values as real float64 and no 8-byte-per-entry support
        assert g.val.dtype == np.float64
        assert_no_wide_support(g, table_1e4)
        assert not g.val.flags.writeable
        assert ces_norm(g, E2) == ces_norm(ref, E2)


def assert_no_wide_support(g, table):
    """g is the table's ranks from ``start`` on and its float64 values: the
    only arrays behind it are the values, the one-byte half-gaps and one
    int64 mark per table block, none of them an int64 support."""
    assert isinstance(g, PrimeCoeffs) and g.table is table
    # g has no __dict__, and its slots hold only the table, an int and
    # the float64 values (the inherited int64 slot stays empty)
    assert not hasattr(g, "__dict__")
    held = [o for o in gc.get_referents(g) if o is not type(g)]
    assert sorted(type(o).__name__ for o in held) == ["PrimeTable", "int", "ndarray"]
    assert g.val.dtype == np.float64 and any(o is g.val for o in held)
    assert table.halves.itemsize == 1
    assert table.marks.size == -(-len(table) // table.step)


def array_twin(g):
    """g with its support decoded into an int64 array."""
    return DirichletPoly(CoeffSeq(g.coeffs.idx, g.coeffs.val, _validated=True))


@pytest.mark.parametrize("block, step", [(2, 1), (3, 7), (64, 5), (1 << 15, 1 << 8)])
def test_table_test_function_matches_array_twin(block, step, monkeypatch):
    # the same product blocks, denominator blocks and estimates, bit for
    # bit, whether g's support is read from the table or from an array
    monkeypatch.setattr(kernels, "_MARK_STEP", step)
    table = sieve_primes(1500)
    monkeypatch.setattr(sequences, "BLOCK", block)
    fs = [DirichletPoly.from_pairs([(1, 1.0), (2, 1.0), (3, 1.0)]),
          DirichletPoly.from_pairs([(2, 0.5j), (3, -1.0), (7, 2.0), (10, 1.0 + 1.0j)])]
    for r_m in (11, 52, len(table) - 3):
        g = build_test_function(10, 0.45, E2, table, r_m=r_m)
        twin = array_twin(g)
        assert g.coeffs.max_index == twin.max_index == table.nth(len(table))
        for f in fs:
            for limit in (table.nth(r_m), 1000, 2500, 10 ** 4):
                got = list(product_blocks(f, g, limit))
                want = list(product_blocks(f, twin, limit))
                assert len(got) == len(want)
                for (gi, gv), (wi, wv) in zip(got, want):
                    assert gi.tobytes() == wi.tobytes() and gv.tobytes() == wv.tobytes()
            est = multiplier_lower_estimate(f, 10, 0.45, E2, table, r_m=r_m)
            monkeypatch.setattr(multipliers, "build_test_function",
                                lambda *a, **k: array_twin(build_test_function(*a, **k)))
            assert multiplier_lower_estimate(f, 10, 0.45, E2, table, r_m=r_m) == est
            monkeypatch.setattr(multipliers, "build_test_function", build_test_function)


class _SlicedHalves(np.ndarray):
    """Half-gaps that record how many entries each slice of them holds."""

    sliced: list = []

    def __getitem__(self, key):
        out = np.asarray(super().__getitem__(key))
        self.sliced.append(out.size)
        return out


def test_estimate_reads_each_entry_of_g_once_per_reader(monkeypatch):
    # one product_blocks pass and its denominator, with windows of 100
    # products and table marks every 64 ranks: each reader of g (one per
    # index of f) and the denominator's blocks decode each entry they reach
    # once, plus one look-ahead entry per cursor, and each rank or nth
    # call one mark's run; every read sums fewer than 64 half-gaps from
    # the mark before its start, whatever read came before it
    monkeypatch.setattr(kernels, "_MARK_STEP", 64)
    table = sieve_primes(10 ** 5)
    table = dataclasses.replace(table, halves=table.halves.view(_SlicedHalves))
    monkeypatch.setattr(sequences, "BLOCK", 100)
    f = DirichletPoly.from_pairs([(1, 1.0), (2, 1.0), (3, 1.0)])
    g = build_test_function(10, 0.45, E2, table, r_m=11)
    support = g.coeffs.idx
    decoded, walks, calls = [], [], []
    read, rank, nth = kernels.PrimeTable.read, kernels.PrimeTable.rank, kernels.PrimeTable.nth
    sliced = _SlicedHalves.sliced

    def counted_read(self, start, stop):
        sliced.clear()
        out = read(self, start, stop)
        decoded.append(out.size)
        walks.append(sum(sliced) - out.size)  # the half-gaps summed before start
        return out

    monkeypatch.setattr(kernels.PrimeTable, "read", counted_read)
    monkeypatch.setattr(kernels.PrimeTable, "rank", lambda t, v: calls.append(v) or rank(t, v))
    monkeypatch.setattr(kernels.PrimeTable, "nth", lambda t, r: calls.append(r) or nth(t, r))
    scale = abs_sum_exponent(f.coeffs) + abs_sum_exponent(g.coeffs)
    for limit in (3 * table.limit, 2 * table.limit, 123_457):
        decoded.clear(), walks.clear(), calls.clear()
        ces_norm_stream(product_blocks(f, g, limit), scale, E2)
        ces_norm(g.coeffs, E2)
        reached = sum(int(np.searchsorted(support, limit // i, side="right")) for i in (1, 2, 3))
        kept = len(g.coeffs)
        assert sum(decoded) <= reached + kept + 3 + len(calls) * table.step
        assert min(walks) >= 0 and 0 < max(walks) < table.step


# ---------------------------------------------------------------------------
# test functions and the quotient ladder
# ---------------------------------------------------------------------------

def test_test_function_compares_by_value(table_1e4):
    # equal test functions are equal, from two tables of the same limit
    # and against their int64 twin, and read as a CoeffSeq would
    rm = find_rm(5, table_1e4)
    g = build_test_function(5, 0.45, E2, table_1e4, r_m=rm)
    twin = array_twin(g)
    assert g == build_test_function(5, 0.45, E2, sieve_primes(10 ** 4), r_m=rm)
    assert g == twin and twin == g
    assert g != build_test_function(5, 0.44, E2, table_1e4, r_m=rm)
    assert g != build_test_function(10, 0.45, E2, table_1e4, r_m=rm + 1)
    assert g.coeffs.entries() == twin.coeffs.entries()
    assert repr(g.coeffs) == repr(twin.coeffs).replace("CoeffSeq", "PrimeCoeffs")


def test_build_test_function_support(table_1e4):
    rm = find_rm(5, table_1e4)
    g = build_test_function(5, 0.45, E2, table_1e4, r_m=rm)
    assert g.coeffs.idx[0] == table_1e4.nth(rm)
    prime_set = set(table_1e4.read(0, len(table_1e4)).tolist())
    assert all(int(n) in prime_set for n in g.coeffs.idx)
    vals = g.coeffs.val.real
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)  # h decreasing along r


def test_build_test_function_alpha_domain(table_1e4):
    with pytest.raises(DomainError):
        build_test_function(5, 0.6, E2, table_1e4, r_m=find_rm(5, table_1e4))  # alpha >= 1/q
    with pytest.raises(DomainError):
        build_test_function(5, 0.2, E2, table_1e4, r_m=find_rm(5, table_1e4))  # alpha <= 1/(2q)
    with pytest.raises(DomainError):
        build_test_function(5, 0.45, E2, table_1e4, r_m=4)  # r_m <= m


def test_norm_bound_closed_form(table_1e4):
    # ||g||^p is capped by the window upper half, which holds regardless
    # of window verification:
    # (m/(m-1))^(alpha p) / ((p(1-alpha)-1) (p_rm - 1)^(p(1-alpha)-1))
    m, alpha = 10, 0.45
    rm = m + 1
    g = build_test_function(m, alpha, E2, table_1e4, r_m=rm)
    enc = ces_norm(g.coeffs, E2)
    p = 2.0
    p_rm = table_1e4.nth(rm)
    cap = (m / (m - 1.0)) ** (alpha * p) / (
        (p * (1.0 - alpha) - 1.0) * (p_rm - 1.0) ** (p * (1.0 - alpha) - 1.0)
    )
    assert enc.hi ** p <= cap + 1e-12


def test_estimate_identity_multiplier(table_1e4):
    est = multiplier_lower_estimate(ONE, 5, 0.45, E2, table_1e4)
    assert est.reference == 1.0
    assert est.ratio == pytest.approx(1.0, abs=1e-4)
    assert est.ratio <= 1.0


def test_estimate_said_heuristic_when_window_missing(table_1e4):
    f = DirichletPoly.from_pairs([(1, 1.0), (2, 1.0)])
    est = multiplier_lower_estimate(f, 50, 0.45, E2, table_1e4)
    assert not est.window_verified
    assert HEURISTIC_WINDOW_FLAG in est.as_record()["flag"]
    assert est.r_m == 51


def test_estimate_verified_for_small_m(table_1e4):
    f = DirichletPoly.from_pairs([(1, 1.0), (2, 1.0)])
    est = multiplier_lower_estimate(f, 3, 0.45, E2, table_1e4)
    assert est.window_verified
    assert HEURISTIC_WINDOW_FLAG not in est.as_record()["flag"]


@pytest.mark.parametrize("m, verified", [(3, True), (50, False)])
def test_estimate_uses_the_test_function_of_its_anchor(m, verified, table_1e4, monkeypatch):
    # a verified window (m = 3) and the m + 1 fallback (m = 50 at 1e4): the g
    # the product and the denominator read is build_test_function at the
    # record's r_m, bit for bit
    seen = []
    monkeypatch.setattr(multipliers, "ces_norm", lambda a, e: seen.append(a) or ces_norm(a, e))
    monkeypatch.setattr(multipliers, "product_blocks",
                        lambda f, g, limit: seen.append(g.coeffs) or product_blocks(f, g, limit))
    f = DirichletPoly.from_pairs([(1, 1.0), (2, 1.0), (3, 1.0)])
    est = multiplier_lower_estimate(f, m, 0.45, E2, table_1e4)
    assert est.window_verified is verified and (est.r_m == m + 1) is not verified
    g = build_test_function(m, 0.45, E2, table_1e4, r_m=est.r_m).coeffs
    assert len(seen) == 2
    for got in seen:
        assert got.idx.tobytes() == g.idx.tobytes() and got.val.tobytes() == g.val.tobytes()


# numerator and denominator endpoints and the quotient of the f6b estimate
# at prime limit 1e6 and m = 10, as float.hex; recorded before the
# Euler-Maclaurin order and the block scans were cut per call
ESTIMATE_PINS = [
    (1.5, 0.3, ("0x1.b6001d8d61c39p+2", "0x1.b6001d8d61ccfp+2"),
     ("0x1.6171b26dc7277p+1", "0x1.6171b26dc72f3p+1"), "0x1.3d3e86c587e8ap+1"),
    (2.0, 0.45, ("0x1.da722bec76230p+1", "0x1.da722bec762aep+1"),
     ("0x1.a1d74525a88ffp+0", "0x1.a1d74525a896fp+0"), "0x1.22ae309215f2dp+1"),
    (3.0, 0.6, ("0x1.0602f9c943e16p+1", "0x1.0602f9c943e4ap+1"),
     ("0x1.f45759bff558fp-1", "0x1.f45759bff55eep-1"), "0x1.0c1def4f3b8e0p+1"),
]


@pytest.fixture(scope="module")
def table_1e6():
    return sieve_primes(10 ** 6)


@pytest.mark.parametrize("p, alpha, num, den, ratio", ESTIMATE_PINS)
def test_estimate_bits_are_pinned(p, alpha, num, den, ratio, table_1e6, monkeypatch):
    # a change that moves any of these bits must say so and update the pins
    seen = []
    for name in ("ces_norm_stream", "ces_norm"):
        norm = getattr(multipliers, name)
        monkeypatch.setattr(multipliers, name, lambda *a, norm=norm: seen.append(norm(*a)) or seen[-1])
    f = DirichletPoly.from_pairs([(1, 1.0), (2, 1.0), (3, 1.0)])
    est = multiplier_lower_estimate(f, 10, alpha, Exponent.from_p(p), table_1e6)
    got_num, got_den = seen
    assert (got_num.lo.hex(), got_num.hi.hex()) == num
    assert (got_den.lo.hex(), got_den.hi.hex()) == den
    assert est.ratio.hex() == ratio


def phase_poly(phases, indices=(1, 2, 3)):
    """Unit-modulus coefficients e^(i t) on ``indices``, as in the ladder benchmark."""
    return DirichletPoly.from_pairs([(n, complex(math.cos(t), math.sin(t)))
                                     for n, t in zip(indices, phases)])


def spy_numerator(monkeypatch):
    """Patch the estimate's ``ces_norm_stream``: returns the list that
    collects the dtype of every block and then the enclosure."""
    seen = []

    def noted(blocks):
        for idx, val in blocks:
            seen.append(val.dtype)
            yield idx, val

    def spy(blocks, scale, e):
        seen.append(ces_norm_stream(noted(blocks), scale, e))
        return seen[-1]

    monkeypatch.setattr(multipliers, "ces_norm_stream", spy)
    return seen


@pytest.mark.parametrize("limit", [10 ** 4, 10 ** 5, 10 ** 6])
def test_estimate_moduli_give_the_complex_product_record(limit, monkeypatch):
    # f ends below g's first prime, so the stream is |f| g in float64; the
    # record printed is the one of the complex product f g
    table = sieve_primes(limit)
    for seed, (p, alpha) in enumerate([(1.5, 0.3), (2.0, 0.45), (3.0, 0.6)]):
        f = phase_poly(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, 3))
        e = Exponent.from_p(p)
        with monkeypatch.context() as mp:
            seen = spy_numerator(mp)
            est = multiplier_lower_estimate(f, 10, alpha, e, table)
        assert len(seen) > 1 and set(seen[:-1]) == {np.dtype(np.float64)}
        with monkeypatch.context() as mp:
            mp.setattr(multipliers, "products_distinct", lambda f, g: False)
            ref = multiplier_lower_estimate(f, 10, alpha, e, table)
        assert normalize_record(est.as_record()) == normalize_record(ref.as_record())


def test_estimate_keeps_the_complex_product_where_products_collide(table_1e4, monkeypatch):
    # g from p_3 = 5 holds 13 and 17, so c_221 = a_13 g_17 + a_17 g_13: the
    # numerator is bitwise the stream of the complex product
    f = phase_poly([0.5, 2.0], indices=(13, 17))
    seen = spy_numerator(monkeypatch)
    est = multiplier_lower_estimate(f, 2, 0.3, E2, table_1e4, r_m=3)
    *dtypes, num = seen
    assert set(dtypes) == {np.dtype(np.complex128)}
    g = build_test_function(2, 0.3, E2, table_1e4, r_m=3)
    scale = abs_sum_exponent(f.coeffs) + abs_sum_exponent(g.coeffs)
    ref = ces_norm_stream(product_blocks(f, g, est.conv_limit), scale, E2)
    assert (num.lo.hex(), num.hi.hex()) == (ref.lo.hex(), ref.hi.hex())


def test_estimate_monomial_consistency(table_1e4):
    # f = 2^-s: reference 2^{-1/2}; the quotient stays below it
    f = DirichletPoly.from_pairs([(2, 1.0)])
    est = multiplier_lower_estimate(f, 5, 0.45, E2, table_1e4)
    assert est.reference == pytest.approx(2.0 ** -0.5)
    assert est.ratio <= est.reference
    assert est.ratio >= 0.5 * est.reference


def test_estimate_alpha_trend(table_1e4):
    f = DirichletPoly.from_pairs([(1, 1.0), (2, 1.0), (3, 1.0)])
    r40 = multiplier_lower_estimate(f, 10, 0.40, E2, table_1e4).ratio
    r49 = multiplier_lower_estimate(f, 10, 0.49, E2, table_1e4).ratio
    assert r40 < r49 <= ar_norm(f.coeffs, 0.5) + 1e-9


def test_estimate_rejects_zero(table_1e4):
    with pytest.raises(DomainError):
        multiplier_lower_estimate(DirichletPoly(CoeffSeq.empty()), 5, 0.45, E2, table_1e4)


@pytest.fixture(scope="module")
def table_1e7():
    return sieve_primes(10 ** 7)


def test_streamed_numerator_memory(table_1e7):
    # at prime limit 1e7 f*g has 2.0e6 entries; storing it and its sort
    # temporaries took 278 MB, the stream holds one block at a time
    table = table_1e7
    f = DirichletPoly.from_pairs([(1, 1.0), (2, 1.0), (3, 1.0)])
    g = build_test_function(10, 0.45, E2, table, r_m=11)
    scale = abs_sum_exponent(f.coeffs) + abs_sum_exponent(g.coeffs)
    tracemalloc.start()
    try:
        num = ces_norm_stream(product_blocks(f, g, 3 * table.limit), scale, E2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert 0 < num.width <= 1e-13 * num.hi
    # the whole estimate holds g's real values (5.1 MB) beside the table
    # and moves everything else in blocks; the dense window scan, complex
    # g and full |g| copies peaked at 23.8 MB (7.8 MiB now)
    tracemalloc.start()
    try:
        est = multiplier_lower_estimate(f, 10, 0.45, E2, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert 0 < est.ratio <= est.reference


def test_estimate_memory_with_sieve():
    # a whole 1e7 estimate with its own sieve: the one-byte table
    # (0.63 MiB) beside g's values (5.07 MiB) and one block of the stream,
    # 8.4 MiB traced; with the int64 table (5.07 MiB) it peaked at 12.7 MiB.
    # No kept table: the sieve runs inside the trace
    f = DirichletPoly.from_pairs([(1, 1.0), (2, 1.0), (3, 1.0)])
    kernels._table.cache_clear()
    tracemalloc.start()
    try:
        est = multiplier_lower_estimate(f, 10, 0.45, E2, sieve_primes(10 ** 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert est.r_m == 11 and 0 < est.ratio <= est.reference


def test_streamed_numerator_block_budget(table_1e7):
    # one block of 2**15 products built in place, and freed before the
    # next: the stream's traced peak beside the prebuilt table and g
    # (6.6 MB with blocks of 2**16 and their concatenated temporaries)
    f = DirichletPoly.from_pairs([(1, 1.0), (2, 1.0), (3, 1.0)])
    g = build_test_function(10, 0.45, E2, table_1e7, r_m=11)
    scale = abs_sum_exponent(f.coeffs) + abs_sum_exponent(g.coeffs)
    tracemalloc.start()
    try:
        ces_norm_stream(product_blocks(f, g, 3 * table_1e7.limit), scale, E2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def test_self_check_certified(table_1e4, monkeypatch):
    # for f = 1 the quotient is ||g||.lo / ||g||.hi, within 1e-13 of the
    # reference 1; a weighted sum short by 1e-10 (well inside the old
    # absolute slack of 1e-9) must fail the self-check
    f = ONE
    est = multiplier_lower_estimate(f, 5, 0.45, E2, table_1e4)
    assert 1.0 - 1e-13 < est.ratio <= est.reference == 1.0
    monkeypatch.setattr(multipliers, "ar_norm", lambda a, r: ar_norm(a, r) - 1e-10)
    with pytest.raises(SelfCheckError, match="exceeds the weighted-ell1 reference"):
        multiplier_lower_estimate(f, 5, 0.45, E2, table_1e4)


def test_reference_upper_bound_contains_exact():
    # magnitudes from 1e-300 to 1e300, indices up to 2**62
    rng = np.random.default_rng(11)
    for p in (1.01, 1.5, 2.0, 3.0):
        r = 1.0 / Exponent.from_p(p).q
        for size, top in ((1, 10), (5, 100), (40, 2 ** 40), (200, 2 ** 62)):
            idx = np.sort(rng.choice(top, size=size, replace=False) + 1)
            val = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            a = CoeffSeq(idx, val * 10.0 ** rng.integers(-300, 300, size))
            reference = ar_norm(a, r)
            hi = multipliers._reference_hi(a, r, reference)
            with mpmath.workdps(60):
                exact = mpmath.fsum(abs(mpmath.mpc(complex(v))) * mpmath.mpf(int(n)) ** -r
                                    for n, v in zip(a.idx, a.val))
            assert exact <= hi <= reference * (1.0 + 1e-13) + 1e-300


# ---------------------------------------------------------------------------
# summation sandwich
# ---------------------------------------------------------------------------

def test_lemma_grid():
    for r0 in (100, 1000):
        for fac in (2.0, 10.0):
            c = fac * phi_xlogx(float(r0))
            top = math.floor(c / lambert_w(c))
            j = list(range(r0, top + 1))
            for alpha in (0.3, 0.5):
                assert lemma_j_check(r0, c, c, alpha, 0.5, j)


def test_lemma_empty_j():
    c = phi_xlogx(100.0)
    assert lemma_j_check(100, c, c, 0.5, 0.5, [])


def test_lemma_rejects_bad_j():
    c = 2.0 * phi_xlogx(100.0)
    top = math.floor(c / lambert_w(c))
    with pytest.raises(DomainError):
        lemma_j_check(100, c, c, 0.3, 0.5, list(range(100, top - 5)))  # misses required
    with pytest.raises(DomainError):
        lemma_j_check(100, c, c, 0.3, 0.5, list(range(100, top + 50)))  # overshoots


def test_lemma_rejects_bad_constants():
    with pytest.raises(DomainError):
        lemma_j_check(100, 10.0, 5.0, 0.3, 0.5, [])  # C2 < phi(r0)
    with pytest.raises(DomainError):
        lemma_j_check(100, phi_xlogx(100.0), phi_xlogx(100.0), 0.6, 0.5, [])  # alpha > beta


# ---------------------------------------------------------------------------
# non-compactness bound
# ---------------------------------------------------------------------------

def test_noncompact_explicit_m4():
    # f = 1, m = 4, p = 2: 2 sqrt(zeta(2) - 49/36) vs 0.5 sqrt(zeta(2))
    assert noncompactness_bound(ONE, 4, E2)
    lhs = 2.0 * math.sqrt(math.pi ** 2 / 6 - 1.0 - 0.25 - 1.0 / 9.0)
    rhs = 0.5 * math.sqrt(math.pi ** 2 / 6)
    assert lhs >= rhs


def test_noncompact_m1_trivial():
    f = DirichletPoly.from_pairs([(1, 2.0), (3, -1.0)])
    assert noncompactness_bound(f, 1, E2)


def test_noncompact_campaign():
    rng = np.random.default_rng(23)
    for p in (1.5, 2.0):
        e = Exponent.from_p(p)
        for m in (2, 8, 64):
            for _ in range(10):
                size = int(rng.integers(1, 10))
                idx = np.sort(rng.choice(np.arange(1, 60), size=size, replace=False))
                val = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                f = DirichletPoly(CoeffSeq(idx.astype(np.int64), val))
                assert noncompactness_bound(f, m, e)


def test_noncompact_rejects_zero():
    with pytest.raises(DomainError):
        noncompactness_bound(DirichletPoly(CoeffSeq.empty()), 2, E2)


def test_noncompact_refuses_products_past_2_53():
    # m times the largest index of f must stay in the Cesaro norms' range
    f = DirichletPoly.from_pairs([(1, 1.0), (3, 2.0)])
    assert noncompactness_bound(f, 2 ** 53 // 3, E2)
    with pytest.raises(DomainError, match="m=3002399751580331"):
        noncompactness_bound(f, 2 ** 53 // 3 + 1, E2)


# ---------------------------------------------------------------------------
# Schur test
# ---------------------------------------------------------------------------

def test_schur_finite_always():
    verdict, enc = schur_finite(CoeffSeq.from_pairs([(2, 3.0)]), E2)
    assert verdict == "schur"
    # sup-sum: positions 1 and 2 both see |3|^2/2
    assert enc.lo == pytest.approx(9.0, rel=1e-12)


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
@pytest.mark.parametrize("pairs", [[(2, 3.0)], [(1, 0.3 - 0.4j), (7, 2.5), (40, -1e-3j)],
                                   [(k, 1.0 / k) for k in range(1, 60, 3)]])
def test_schur_finite_at_least_four_ulps_wide(p, pairs):
    # each endpoint lies 4 ulps out from the correctly rounded sup-sum of
    # the float terms
    b, e = CoeffSeq.from_pairs(pairs), Exponent.from_p(p)
    w = b.abs_values() ** e.q / b.idx.astype(np.float64)
    total = math.fsum(np.maximum.accumulate(w[::-1])[::-1] * np.diff(b.idx, prepend=0))
    _, enc = schur_finite(b, e)
    assert enc.lo <= ulp_down(total, 4) and enc.hi >= ulp_up(total, 4)


def _mp_sup_sum(b, p):
    """The sup-sum of the float entries of b at the exact q = p/(p-1) of
    the float p, at 60 digits."""
    with mpmath.workdps(60):
        q = mpmath.mpf(p) / (mpmath.mpf(p) - 1)
        w = [abs(mpmath.mpc(complex(v))) ** q / int(n) for n, v in zip(b.idx, b.val)]
        total, prev = mpmath.mpf(0), 0
        for k, n in enumerate(b.idx):
            total += max(w[k:]) * (int(n) - prev)
            prev = int(n)
        return total


def _random_schur_pairs(rng):
    size = int(rng.integers(1, 31))
    idx = np.sort(rng.choice(np.arange(1, 200), size, replace=False))
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size) if rng.integers(2) else rng.uniform(0.1, 3.0, size)
    val = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))
    # complex, real and imaginary entries: the abs is exact for the last two
    kind = rng.integers(3, size=size)
    val = np.where(kind == 1, val.real, np.where(kind == 2, 1j * val.imag, val))
    return list(zip(idx.tolist(), (scale * val).tolist()))


SCHUR_EDGE_CASES = [
    (1.1, [(1, -0.43758332786509146 - 2.2107342145382507j)]),
    (1.5, [(3, 1e-200)]),  # |b|^q underflows to 0
    (1.5, [(2, 1e-105), (9, 1e-300 + 1e-300j)]),  # a subnormal sup-sum
    (1.5, [(1, 0.3 - 0.4j), (12, 1e-150j), (2 ** 60, 1.5)]),  # an index past 2^53
]


@pytest.mark.parametrize("p, pairs", SCHUR_EDGE_CASES)
def test_schur_finite_contains_exact_edge_cases(p, pairs):
    b = CoeffSeq.from_pairs(pairs)
    _, enc = schur_finite(b, Exponent.from_p(p))
    exact = _mp_sup_sum(b, p)
    assert enc.lo <= exact <= enc.hi


@pytest.mark.parametrize("p", (1.1, 1.5, 2.0, 3.0))
def test_schur_finite_contains_exact(p):
    rng = np.random.default_rng(int(p * 10))
    e = Exponent.from_p(p)
    for _ in range(250):
        b = CoeffSeq.from_pairs(_random_schur_pairs(rng))
        _, enc = schur_finite(b, e)
        exact = _mp_sup_sum(b, p)
        assert enc.lo <= exact <= enc.hi, (b, p)


@pytest.mark.parametrize("p", (1.1, 1.5, 3.0))
@pytest.mark.parametrize("pairs", [pairs for _, pairs in SCHUR_EDGE_CASES])
def test_schur_finite_at_least_its_margin_wide(p, pairs):
    # each endpoint lies at least the modelled margin out from the fsum of
    # the float terms: the largest per-term count times the sum, or 4 TINY
    # per gap of a term whose suffix reaches below the normal range
    b, e = CoeffSeq.from_pairs(pairs), Exponent.from_p(p)
    a = np.abs(b.val)
    with np.errstate(under="ignore"):
        w = a ** e.q / b.idx.astype(np.float64)
    gaps = np.diff(b.idx, prepend=0)
    total = Fraction(math.fsum(np.maximum.accumulate(w[::-1])[::-1] * gaps))
    count = max(e.q * LIB * (v.real != 0 and v.imag != 0) + 2.0 * e.q * abs(math.log(x))
                for v, x in zip(b.val, a)) + LIB + 3.0 + 2.0 * (b.max_index > 2 ** 53)
    under = 4 * Fraction(TINY) * sum(int(gaps[k]) for k in range(len(w))
                                     if w[k:].min() < 2.0 ** -1021)
    margin = max(total * Fraction(count) * Fraction(U), under)
    _, enc = schur_finite(b, e)
    assert Fraction(enc.lo) <= max(total - margin, 0) and Fraction(enc.hi) >= total + margin


def test_schur_finite_p_too_close_to_one():
    # q = 2^44 times the complex abs error is past what a first-order
    # count certifies
    with pytest.raises(DomainError, match="too close to 1"):
        schur_finite(CoeffSeq.from_pairs([(1, 0.6 + 0.8j)]), Exponent.from_p(1.0 + 2.0 ** -44))
    verdict, _ = schur_finite(CoeffSeq.from_pairs([(1, 1.0)]), Exponent.from_p(1.0 + 2.0 ** -44))
    assert verdict == "schur"


def test_schur_log_power_threshold():
    v1, enc1 = schur_log_power(1.0, E2, 10 ** 5)
    assert v1 == "schur" and enc1.width < 1e-3
    v2, _ = schur_log_power(0.4, E2, 10 ** 5)
    assert v2 == "not_schur"
    v3, _ = schur_log_power(0.5, E2, 10 ** 4)
    assert v3 == "not_schur"  # q alpha = 1 exactly: divergent


def test_schur_power_kinds():
    v, enc = schur_power(0.5, E2, 10 ** 4)
    assert v == "schur"
    assert enc.contains(math.pi ** 2 / 6)  # q beta + 1 = 2
    assert schur_power(0.0, E2, 100)[0] == "not_schur"
    assert schur_power(-1.0, E2, 100)[0] == "not_schur"


def test_schur_translated_series_joins_algebra():
    # any finite f shifted right by eps > 0 has finite weighted-ell^1
    # norm at the critical weight, hence multiplies the space
    f = DirichletPoly.from_pairs([(n, 1.0) for n in range(1, 50)])
    shifted = CoeffSeq(f.coeffs.idx, f.coeffs.val * f.coeffs.idx.astype(np.float64) ** -0.25)
    assert ar_norm(shifted, 0.5) < ar_norm(f.coeffs, 0.25)
    verdict, _ = schur_finite(shifted, E2)
    assert verdict == "schur"


def test_sequence_spec_validation():
    with pytest.raises(DomainError):
        schur_log_power(-1.0, E2, 10)
    with pytest.raises(DomainError):
        schur_log_power(1.0, E2, 1)
    with pytest.raises(DomainError):
        schur_power(0.5, E2, 1)
    with pytest.raises(DomainError):
        schur_power(-1.0, E2, 2 ** 53)


def test_schur_log_power_is_kernel_calls():
    # t_2 (the n = 1 term) plus the whole sum for q alpha > 1, plus the
    # partial sum to the horizon otherwise
    for p in (1.5, 2.0, 3.0):
        e = Exponent.from_p(p)
        for alpha in (0.3, 0.5, 1.0, 2.5):
            c = e.q * alpha
            t2 = log_power_sum(c, 2, 3)
            for horizon in (2, 17, 4096, 100_001):
                verdict, enc = schur_log_power(alpha, e, horizon)
                rest = log_power_sum(c, 2) if c > 1.0 else log_power_sum(c, 2, horizon + 1)
                assert verdict == ("schur" if c > 1.0 else "not_schur")
                assert (enc.lo, enc.hi) == ((t2 + rest).lo, (t2 + rest).hi)


def test_schur_log_power_memory():
    # an explicit head below 2**12 and one Euler-Maclaurin segment: the
    # former per-term loop traced 1.5 MiB at horizon 3e6
    tracemalloc.start()
    try:
        verdict, _ = schur_log_power(0.4, E2, 2 ** 53 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == "not_schur"
    assert peak <= 2 ** 20


def test_schur_log_power_any_horizon():
    # O(1) at every horizon below 2**53; the partial sums grow with it
    # and the whole sum does not depend on it
    last = 0.0
    for horizon in (10 ** 8, 10 ** 8 + 1, 10 ** 12, 2 ** 53 - 1):
        verdict, enc = schur_log_power(0.4, E2, horizon)
        assert verdict == "not_schur" and math.isfinite(enc.hi) and enc.lo > last
        last = enc.hi
        assert schur_log_power(1.0, E2, horizon) == schur_log_power(1.0, E2, 2)


def test_schur_power_negative_beta_witness():
    # the divergent witness horizon^(-(q beta + 1)) * horizon, at least
    # 4 ulps wide
    for beta, horizon in ((-1.0, 100), (-1.0, 10 ** 5), (-0.25, 7), (-29.5, 10 ** 5)):
        partial = float(horizon) ** (-(E2.q * beta + 1.0)) * horizon
        verdict, enc = schur_power(beta, E2, horizon)
        assert verdict == "not_schur"
        assert enc.lo <= ulp_down(partial, 4) and enc.hi >= ulp_up(partial, 4)


SCHUR_POWER_GRID = [(p, beta, horizon) for p in (1.1, 1.5, 2.0, 3.0)
                    for beta in (-0.3, -0.7, -1.3, -2.9, -0.01)
                    for horizon in (10 ** 4, 10 ** 8, 10 ** 12, 2 ** 52)]


@pytest.mark.parametrize("p, beta, horizon", SCHUR_POWER_GRID)
def test_schur_power_negative_beta_contains_exact(p, beta, horizon):
    # horizon^(-q beta) at the exact q of the float p, 50 digits; past the
    # float64 range the witness raises
    e = Exponent.from_p(p)
    with mpmath.workdps(50):
        exact = mpmath.mpf(horizon) ** (-mpmath.mpf(p) / (mpmath.mpf(p) - 1) * mpmath.mpf(beta))
        try:
            verdict, enc = schur_power(beta, e, horizon)
        except DomainError:
            assert exact > 2 ** 1000
            return
        assert verdict == "not_schur" and enc.lo <= exact <= enc.hi, (p, beta, horizon)


@pytest.mark.parametrize("p, beta, horizon", [(p, beta, h) for p, beta, h in SCHUR_POWER_GRID[::5]
                                               if -beta * p / (p - 1) * math.log2(h) < 1000])
def test_schur_power_witness_at_least_its_margin_wide(p, beta, horizon):
    # each endpoint lies the modelled count out from the float witness: the
    # rounded exponent's 3 |q beta| + |q beta + 1| times log(horizon), the
    # power and the product with the horizon
    e = Exponent.from_p(p)
    exponent = e.q * beta + 1.0
    partial = float(horizon) ** (-exponent) * horizon
    count = (3.0 * abs(e.q * beta) + abs(exponent)) * math.log(horizon) + LIB + 1.0
    margin = Fraction(partial) * Fraction(count) * Fraction(U)
    _, enc = schur_power(beta, e, horizon)
    assert Fraction(enc.lo) <= Fraction(partial) - margin
    assert Fraction(enc.hi) >= Fraction(partial) + margin
