import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import least_decreasing_majorant

from cesdirichlet import kernels, sequences
from cesdirichlet.errors import DomainError, ResourceLimitError
from cesdirichlet.kernels import sieve_primes
from cesdirichlet.sequences import (
    CoeffSeq,
    Exponent,
    PrimeCoeffs,
    Reader,
    ar_norm,
    ces_norm,
    dq_norm,
    hardy_ratio,
    lp_norm,
    m_n_functionals_p2,
)

ZETA_2 = math.pi ** 2 / 6
E2 = Exponent.from_p(2.0)


def seq(*pairs):
    return CoeffSeq.from_pairs(pairs)


coeff_seqs = st.dictionaries(
    st.integers(min_value=1, max_value=60),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0,
                       allow_nan=False, allow_infinity=False),
    min_size=1, max_size=10,
).map(lambda d: CoeffSeq.from_pairs(d.items()))


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_exponent_conjugacy():
    e = Exponent.from_p(1.5)
    assert e.q == pytest.approx(3.0)
    with pytest.raises(DomainError):
        Exponent.from_p(1.0)
    # q is derived from p, never given
    for p in (1.01, 1.5, 2.0, 3.0, 7.0):
        assert Exponent(p).q == p / (p - 1.0)
        assert Exponent(p) == Exponent.from_p(p)
    with pytest.raises(TypeError):
        Exponent(2.0, 3.0)


def test_coeffseq_validation():
    with pytest.raises(DomainError):
        seq((0, 1.0))
    with pytest.raises(DomainError):
        seq((2, 1.0), (2, 3.0))
    s = seq((5, 2.0), (1, 1.0), (3, 0.0))  # sorts, drops the zero
    assert s.entries() == [(1, 1.0), (5, 2.0)]
    assert s.max_index == 5


def test_coeffseq_equality_and_empty():
    assert seq((1, 1.0)) == seq((1, 1.0))
    assert seq((1, 1.0)) != seq((2, 1.0))
    assert CoeffSeq.empty().is_empty


@pytest.mark.parametrize("kind", ["stored", "table"])
def test_reader_returns_slices_of_the_support(kind, monkeypatch):
    # random peeks and takes, on a table with a mark every 3 ranks,
    # return exactly the slices of the decoded support and values from
    # the reader's position, whatever was peeked before
    monkeypatch.setattr(kernels, "_MARK_STEP", 3)
    table = sieve_primes(3000)
    assert table.step == 3
    primes = table.read(0, len(table))
    rng = np.random.default_rng(7)
    for start in (0, 1, 2, 5, 200):
        val = rng.standard_normal(len(table) - start)
        a = PrimeCoeffs(table, start, val)
        if kind == "stored":
            a = CoeffSeq(primes[start:], val, _validated=True)
        idx = primes[start:]
        rd = Reader(a)
        while rd.pos < len(a):
            pos, n = rd.pos, int(rng.integers(0, 13))
            if rng.random() < 0.5:
                assert rd.peek(n).tobytes() == idx[pos:pos + n].tobytes()
                assert rd.pos == pos
            else:
                got, vals = rd.take(n)
                assert got.tobytes() == idx[pos:pos + n].tobytes()
                assert vals.tobytes() == val[pos:pos + n].tobytes()
                assert rd.pos == pos + got.size
        assert rd.peek(4).size == 0 and rd.take(4)[0].size == 0
        # ces_norm's blocks are the same reads in steps of BLOCK
        monkeypatch.setattr(sequences, "BLOCK", 4)
        blocks = list(sequences._blocks(a))
        monkeypatch.setattr(sequences, "BLOCK", 1 << 15)
        assert [b[0].size for b in blocks[:-1]] == [4] * (len(blocks) - 1)
        assert np.concatenate([b[0] for b in blocks]).tobytes() == idx.tobytes()
        assert np.concatenate([b[1] for b in blocks]).tobytes() == val.tobytes()


def test_prime_coeffs_is_a_coeffseq(monkeypatch):
    # every method but the support reads is inherited, and reads as on the
    # stored sequence with the same entries
    monkeypatch.setattr(kernels, "_MARK_STEP", 5)
    table = sieve_primes(500)
    val = np.linspace(2.0, 0.5, len(table) - 4)
    g = PrimeCoeffs(table, 4, val)
    twin = CoeffSeq(table.read(4, len(table)), val, _validated=True)
    assert isinstance(g, CoeffSeq) and g == twin and twin == g
    for name in ("__len__", "is_empty", "entries", "abs_values", "__eq__", "__repr__"):
        assert name not in vars(PrimeCoeffs)
    assert (len(g), g.is_empty, g.max_index) == (len(twin), False, twin.max_index)
    assert g.read(3, 9).tobytes() == twin.read(3, 9).tobytes()
    assert g.rank([1, 11, 12, 499, 10 ** 6]).tolist() == twin.rank([1, 11, 12, 499, 10 ** 6]).tolist()
    assert repr(PrimeCoeffs(table, 4, val[:2])) == "PrimeCoeffs(11:2, 13:1.98333)"
    with pytest.raises(AttributeError):
        g.val = val


# ---------------------------------------------------------------------------
# ces norm
# ---------------------------------------------------------------------------

def test_ces_unit_at_one():
    enc = ces_norm(seq((1, 1.0)), E2)
    assert enc.contains(math.sqrt(ZETA_2))
    assert enc.width < 1e-7


def test_ces_empty():
    enc = ces_norm(CoeffSeq.empty(), E2)
    assert enc.lo == enc.hi == 0.0


def test_ces_spike_at_two():
    # ||sqrt(2) * e_2|| = sqrt(2 (zeta(2) - 1)), below the uniform
    # spike bound 2^{1/q} / (p-1)^{1/p} = sqrt(2)
    enc = ces_norm(seq((2, math.sqrt(2.0))), E2)
    assert enc.contains(math.sqrt(2.0 * (ZETA_2 - 1.0)))
    assert enc.hi <= math.sqrt(2.0)


def test_ces_spike_bound_general():
    # m^{1/q} ||e_m|| <= 2^{1/q}/(p-1)^{1/p} for every m >= 2
    for p in (1.5, 2.0, 3.0):
        e = Exponent.from_p(p)
        cap = 2.0 ** (1.0 / e.q) / (p - 1.0) ** (1.0 / p)
        for m in (2, 3, 10, 1000):
            enc = ces_norm(seq((m, 1.0)), e)
            assert float(m) ** (1.0 / e.q) * enc.hi <= cap + 1e-9


def test_ces_against_bruteforce_partial_sums():
    # independent oracle: dense partial sums to a large horizon bracket
    # the infinite sum between consecutive horizons
    a = seq((1, 2.0), (3, -1.5), (7, 0.5j))
    w = np.zeros(7, dtype=float)
    for n, v in a.entries():
        w[n - 1] = abs(v)
    horizon = 200_000
    cums = np.cumsum(np.concatenate([w, np.zeros(horizon - 7)]))
    ns = np.arange(1, horizon + 1, dtype=float)
    partial = float(np.sum((cums / ns) ** 2))
    total = cums[-1] ** 2
    lower = partial + total / (horizon + 1.0)       # tail >= A^2/(H+1)
    upper = partial + total / horizon                # tail <= A^2/H
    enc = ces_norm(a, E2)
    assert math.sqrt(lower) <= enc.hi + 1e-12
    assert math.sqrt(upper) >= enc.lo - 1e-12


@settings(max_examples=40, deadline=None)
@given(a=coeff_seqs)
def test_ces_homogeneity(a):
    enc = ces_norm(a, E2)
    doubled = ces_norm(CoeffSeq(a.idx, a.val * 2.0), E2)
    assert doubled.lo == pytest.approx(2.0 * enc.lo, rel=1e-12)
    assert doubled.hi == pytest.approx(2.0 * enc.hi, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(a=coeff_seqs, lam=st.floats(min_value=0.01, max_value=50.0))
def test_ces_homogeneity_general(a, lam):
    enc = ces_norm(a, E2)
    scaled = ces_norm(CoeffSeq(a.idx, a.val * lam), E2)
    assert scaled.mid == pytest.approx(lam * enc.mid, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(a=coeff_seqs)
def test_ces_entrywise_monotonicity(a):
    bigger = CoeffSeq(a.idx.copy(), (np.abs(a.val) + 0.5).astype(np.complex128))
    assert ces_norm(a, E2).hi <= ces_norm(bigger, E2).hi + 1e-12


def test_ces_monotone_under_truncation():
    a = seq(*((n, 1.0 / n) for n in range(1, 30)))
    prev_hi = 0.0
    for n in range(1, 30):
        take = [(i, 1.0 / i) for i in range(1, n + 1)]
        enc = ces_norm(seq(*take), E2)
        assert enc.hi >= prev_hi - 1e-12
        prev_hi = enc.hi
    assert ces_norm(a, E2).hi == pytest.approx(prev_hi, rel=1e-12)


# ---------------------------------------------------------------------------
# lp / majorant / dq / ar
# ---------------------------------------------------------------------------

def test_lp_345():
    assert lp_norm(seq((1, 3.0), (2, 4.0)), 2.0) == pytest.approx(5.0)


def test_lp_counting_and_empty():
    assert lp_norm(seq((1, 1.0), (2, 1.0), (3, 1.0)), 1.0) == pytest.approx(3.0)
    assert lp_norm(CoeffSeq.empty(), 2.0) == 0.0
    with pytest.raises(DomainError):
        lp_norm(seq((1, 1.0)), 0.5)


@pytest.mark.parametrize("norm, value", [
    (lambda a: lp_norm(a, 1075), 1.0),       # 2**-1075 is 0
    (lambda a: lp_norm(a, 1060), 1.0000001),  # a subnormal largest term
    (lambda a: dq_norm(a, Exponent(1.0009)), 1.0),  # q about 1112
])
def test_lp_dq_largest_term_below_normal_range(norm, value):
    # max |a| is scaled into [1/2, 1), so its power can leave the normal
    # range; the norm raises rather than print lost bits
    with pytest.raises(DomainError, match="normal range"):
        norm(seq((1, value)))


def test_lp_largest_term_still_normal():
    assert lp_norm(seq((1, 1.3)), 1070) == 1.3
    assert lp_norm(seq((1, 3.0)), 1100) == 3.0


def test_majorant_examples():
    assert list(least_decreasing_majorant(seq((1, 1.0), (2, 0.5)), 3)) == [1.0, 0.5, 0.0]
    assert list(least_decreasing_majorant(seq((1, 0.5), (2, 1.0)), 2)) == [1.0, 1.0]
    assert list(least_decreasing_majorant(CoeffSeq.empty(), 2)) == [0.0, 0.0]
    with pytest.raises(DomainError):
        least_decreasing_majorant(seq((5, 1.0)), 3)


def test_dq_examples():
    assert dq_norm(seq((1, 1.0), (2, 0.5)), E2) == pytest.approx(math.sqrt(1.25))
    assert dq_norm(seq((1, 0.5), (2, 1.0)), E2) == pytest.approx(math.sqrt(2.0))
    assert dq_norm(CoeffSeq.empty(), E2) == 0.0


@settings(max_examples=40, deadline=None)
@given(b=coeff_seqs)
def test_dq_matches_dense_majorant(b):
    horizon = b.max_index
    maj = least_decreasing_majorant(b, horizon)
    expected = float(np.sum(maj ** 2)) ** 0.5
    assert dq_norm(b, E2) == pytest.approx(expected, rel=1e-12)


def test_dq_equals_lq_for_decreasing_initial_segment():
    vals = [(n, 1.0 / (n + 1)) for n in range(1, 20)]
    b = seq(*vals)
    assert dq_norm(b, E2) == pytest.approx(lp_norm(b, 2.0), rel=1e-12)


def test_ar_examples():
    assert ar_norm(seq((1, 1.0)), 0.7) == 1.0
    for m in (2, 5, 12):
        assert ar_norm(seq((m, 1.0)), 0.5) == pytest.approx(m ** -0.5)
    assert ar_norm(seq((1, 1.0), (2, 1.0), (3, 1.0)), 0.5) == pytest.approx(
        1.0 + 2.0 ** -0.5 + 3.0 ** -0.5
    )


# ---------------------------------------------------------------------------
# hardy ratio
# ---------------------------------------------------------------------------

def test_hardy_unit():
    assert hardy_ratio(seq((1, 1.0)), E2) == pytest.approx(math.sqrt(ZETA_2), rel=1e-7)


def test_hardy_ones_block():
    a = seq(*((n, 1.0) for n in range(1, 101)))
    assert hardy_ratio(a, E2) <= 2.0


def test_hardy_far_spike():
    assert hardy_ratio(seq((10 ** 6, 1.0)), E2) <= 2.0


def test_hardy_empty():
    with pytest.raises(DomainError):
        hardy_ratio(CoeffSeq.empty(), E2)


@settings(max_examples=60, deadline=None)
@given(a=coeff_seqs, p=st.sampled_from([1.5, 2.0, 3.0]))
def test_hardy_bound_property(a, p):
    e = Exponent.from_p(p)
    assert hardy_ratio(a, e) <= p / (p - 1.0)


# ---------------------------------------------------------------------------
# M / N functionals
# ---------------------------------------------------------------------------

def test_mn_unit():
    assert m_n_functionals_p2(seq((1, 1.0))) == (pytest.approx(1.0), pytest.approx(1.0))


def test_mn_empty():
    assert m_n_functionals_p2(CoeffSeq.empty()) == (0.0, 0.0)


def test_mn_guard():
    big = CoeffSeq(np.arange(1, 10_002, dtype=np.int64),
                   np.ones(10_001, dtype=np.complex128))
    with pytest.raises(ResourceLimitError):
        m_n_functionals_p2(big)


@settings(max_examples=60, deadline=None)
@given(a=coeff_seqs)
def test_mn_chain_property(a):
    m_v, n_v = m_n_functionals_p2(a)
    enc = ces_norm(a, E2)
    assert n_v <= m_v + 1e-10
    assert m_v <= enc.hi + 1e-10
    assert enc.lo <= math.sqrt(2.0) * m_v + 1e-10
    assert math.sqrt(2.0) * m_v <= 2.0 * n_v + 1e-10
