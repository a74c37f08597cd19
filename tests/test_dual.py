import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesdirichlet.dual import (
    SENTINEL,
    bennett_equivalence_check,
    delta_norm_bounds,
    delta_norm_exact_p2,
    dual_norm_oracle,
    jagers_dual_norm,
    sigma_threshold,
)
from cesdirichlet.errors import DomainError, ResourceLimitError
from cesdirichlet.kernels import zeta_real
from cesdirichlet.sequences import CoeffSeq, Exponent, dq_norm

ZETA_2 = math.pi ** 2 / 6
E2 = Exponent.from_p(2.0)

# frozen oracle values (zeta(2) = pi^2/6 closed form)
ZETA2_INV_SQRT = 0.7796968012336761
SQRT_ZETA2_MINUS_1 = 0.8030778709740584
SIGMA_P2 = 1.7180297582234814
# high-precision series values for the exact p = 2 point-evaluation norm
# (Euler-Maclaurin summation at 40 digits; plain Richardson acceleration
# silently misconverges on this series, so the method matters)
DELTA_EXACT = {0.6: 1.2523852863228009, 0.75: 0.9196991702579470, 0.9: 0.8291089911942133}
DELTA_WIDTH_CAP = {0.6: 2e-2, 0.75: 1e-3, 0.9: 1e-5}


def seq(*pairs):
    return CoeffSeq.from_pairs(pairs)


small_seqs = st.dictionaries(
    st.integers(min_value=1, max_value=40),
    st.complex_numbers(min_magnitude=1e-2, max_magnitude=5.0,
                       allow_nan=False, allow_infinity=False),
    min_size=1, max_size=6,
).map(CoeffSeq.from_dict)


# ---------------------------------------------------------------------------
# greedy chain
# ---------------------------------------------------------------------------

def test_jagers_empty():
    trace = jagers_dual_norm(CoeffSeq.empty(), E2)
    assert trace.d_set == ()
    assert trace.norm.lo == trace.norm.hi == 0.0


def test_jagers_unit():
    trace = jagers_dual_norm(seq((1, 1.0)), E2)
    assert trace.m_chain == (1, SENTINEL)
    assert trace.d_set == (1,)
    assert trace.norm.contains(ZETA2_INV_SQRT)
    assert trace.norm.width < 1e-7


def test_jagers_largest_maximizer():
    # equal top values: the chain starts at the largest index
    trace = jagers_dual_norm(seq((1, 1.0), (3, 1.0)), E2)
    assert trace.m_chain[0] == 3


def test_jagers_skips_dominated_point():
    # the middle value lies below the hull chord and is skipped
    trace = jagers_dual_norm(seq((1, 1.0), (2, 0.1), (3, 0.9)), E2)
    assert trace.m_chain == (1, 3, SENTINEL)
    assert trace.d_set == (1, 2)


def test_jagers_scaling_invariance():
    b = seq((1, 1.0), (2, 0.4), (5, 0.7))
    t1 = jagers_dual_norm(b, E2)
    t2 = jagers_dual_norm(b.scaled(3.5), E2)
    assert t1.m_chain == t2.m_chain
    assert t2.norm.mid == pytest.approx(3.5 * t1.norm.mid, rel=1e-9)


def test_jagers_plateau_for_powers_past_threshold():
    for sigma in (1.8, 2.5):
        idx = np.arange(1, 201, dtype=np.int64)
        b = CoeffSeq(idx, (idx.astype(float) ** -sigma).astype(np.complex128))
        trace = jagers_dual_norm(b, E2)
        assert trace.d_set == (1,)
        assert trace.norm.contains(ZETA2_INV_SQRT)


def test_jagers_full_chain_for_powers_below_one():
    # for sigma <= 1 every support point lies on the hull: m(n) = n
    idx = np.arange(1, 31, dtype=np.int64)
    b = CoeffSeq(idx, (idx.astype(float) ** -0.8).astype(np.complex128))
    trace = jagers_dual_norm(b, E2)
    assert trace.m_chain[:5] == (1, 2, 3, 4, 5)
    assert trace.d_set == tuple(range(1, 31))


def test_jagers_tie_error_carries_candidates():
    # engineered exact tie: B_1 - B_2 = 1 and B_1 - B_3 = 1.25 exactly,
    # so b = (1, 0.4, 0.25) gives equal difference quotients 0.6 at
    # j = 2 and j = 3; tightening cannot separate them and silently
    # picking the larger index is forbidden
    from cesdirichlet.errors import ArgminTieError

    b = seq((1, 1.0), (2, 0.4), (3, 0.25))
    with pytest.raises(ArgminTieError) as exc:
        jagers_dual_norm(b, E2)
    assert set(exc.value.candidates) >= {2, 3}
    assert exc.value.prefix_chain == (1,)


# ---------------------------------------------------------------------------
# ascent oracle against the chain
# ---------------------------------------------------------------------------

def test_oracle_empty_and_guard():
    assert dual_norm_oracle(CoeffSeq.empty(), E2, restarts=2) == 0.0
    big = seq(*((n, 1.0) for n in range(1, 10)))
    with pytest.raises(ResourceLimitError):
        dual_norm_oracle(big, E2, restarts=2)


def test_oracle_unit():
    val = dual_norm_oracle(seq((1, 1.0)), E2, restarts=4, seed=5)
    assert val == pytest.approx(ZETA2_INV_SQRT, abs=1e-6)


def test_oracle_no_overflow_regression():
    # this support drove the bracket expansion of the ascent into an
    # OverflowError from acc ** p before x was kept at max(x) = 1
    b = seq((4422, 0.16133009814968746), (13354, 0.16111672839444496),
            (13765, 0.5905991852031559), (15059, 0.9305576827613137),
            (20314, 0.24724944348899275), (29790, 0.06782320818737399))
    e3 = Exponent.from_p(3.0)
    norm = jagers_dual_norm(b, e3).norm
    oracle = dual_norm_oracle(b, e3, restarts=4, seed=46055)
    assert norm.lo * (1 - 1e-9) <= oracle <= norm.hi * (1 + 1e-9)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_oracle_sandwich_campaign(p):
    e = Exponent.from_p(p)
    rng = np.random.default_rng(17)
    for k in range(25):
        size = int(rng.integers(1, 7))
        idx = np.sort(rng.choice(np.arange(1, 41), size=size, replace=False))
        val = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        b = CoeffSeq(idx.astype(np.int64), val)
        trace = jagers_dual_norm(b, e)
        oracle = dual_norm_oracle(b, e, restarts=4, seed=100 + k)
        assert trace.norm.lo - 1e-4 <= oracle <= trace.norm.hi + 1e-4
        assert bennett_equivalence_check(b, e)


@settings(max_examples=25, deadline=None)
@given(b=small_seqs)
def test_equivalence_sandwich_property(b):
    assert bennett_equivalence_check(b, E2)


def test_equivalence_explicit():
    dq = dq_norm(seq((1, 1.0)), E2)
    assert dq == 1.0
    trace = jagers_dual_norm(seq((1, 1.0)), E2)
    assert 0.5 * dq <= trace.norm.lo and trace.norm.hi <= 1.0 * dq


# ---------------------------------------------------------------------------
# point-evaluation norms
# ---------------------------------------------------------------------------

def test_delta_bounds_p2_sigma1():
    lo, hi = delta_norm_bounds(1.0, E2)
    assert lo == pytest.approx(0.5 * math.sqrt(ZETA_2), rel=1e-9)
    assert hi == pytest.approx(math.sqrt(ZETA_2), rel=1e-9)


def test_delta_bounds_ordering():
    for p in (1.5, 2.0, 3.0):
        e = Exponent.from_p(p)
        for sigma in (1.0 / e.q + 0.1, 1.0, 2.0):
            lo, hi = delta_norm_bounds(sigma, e)
            assert lo <= hi


def test_delta_bounds_domain():
    with pytest.raises(DomainError):
        delta_norm_bounds(0.5, E2)
    with pytest.raises(DomainError):
        delta_norm_bounds(0.4, E2)


def test_delta_bounds_contain_plateau():
    lo, hi = delta_norm_bounds(2.5, E2)
    assert lo <= ZETA2_INV_SQRT <= hi


def test_delta_exact_sigma1():
    enc = delta_norm_exact_p2(1.0, terms=10 ** 6)
    assert enc.contains(SQRT_ZETA2_MINUS_1)
    assert enc.width < 1e-6


def test_delta_exact_sigma1_closed_form():
    # termwise the series telescopes to sum 1/(n+1)^2 = zeta(2) - 1
    enc = delta_norm_exact_p2(1.0, terms=2000)
    assert enc.contains(math.sqrt(ZETA_2 - 1.0))


@pytest.mark.parametrize("sigma", [0.6, 0.75, 0.9])
def test_delta_exact_against_highprecision(sigma):
    # the width is dominated by the termwise tail-constant gap, which
    # opens up as sigma decreases
    enc = delta_norm_exact_p2(sigma, terms=10 ** 6)
    assert enc.contains(DELTA_EXACT[sigma])
    assert enc.width < DELTA_WIDTH_CAP[sigma]


@pytest.mark.parametrize("sigma", [0.6, 0.75, 0.9, 1.0])
def test_delta_exact_inside_both_brackets(sigma):
    enc = delta_norm_exact_p2(sigma, terms=10 ** 5)
    z = zeta_real(2.0 * sigma, 10 ** 5)
    lo_b = (2.0 ** sigma - 1.0) * math.sqrt(z.hi - 1.0)
    hi_b = sigma * math.sqrt(z.lo - 1.0)
    assert enc.lo >= lo_b - 1e-9
    assert enc.hi <= hi_b + 1e-9
    blo, bhi = delta_norm_bounds(sigma, E2)
    assert enc.lo >= blo - 1e-9
    assert enc.hi <= bhi + 1e-9


def test_delta_exact_domain_and_fallback():
    with pytest.raises(DomainError):
        delta_norm_exact_p2(0.5)
    with pytest.raises(DomainError):
        delta_norm_exact_p2(0.3)
    # past sigma = 1 the exact series is unproven; the two-sided bounds
    # are returned instead
    enc = delta_norm_exact_p2(1.5)
    lo, hi = delta_norm_bounds(1.5, E2)
    assert (enc.lo, enc.hi) == (lo, hi)


# ---------------------------------------------------------------------------
# the threshold abscissa
# ---------------------------------------------------------------------------

def test_sigma_threshold_p2():
    assert sigma_threshold(E2) == pytest.approx(SIGMA_P2, abs=1e-10)


def test_sigma_threshold_formula():
    # direct formula evaluation with the closed-form zeta(2)
    expected = 1.0 + math.log(ZETA_2) / math.log(2.0)
    assert sigma_threshold(E2) == pytest.approx(expected, abs=1e-10)


def test_sigma_threshold_exceeds_p_minus_1():
    e3 = Exponent.from_p(3.0)
    assert sigma_threshold(e3) > 2.0


def test_sigma_threshold_marks_chain_collapse():
    # just above the threshold the truncated power sequence collapses to
    # a single chain element
    idx = np.arange(1, 201, dtype=np.int64)
    sigma = sigma_threshold(E2) + 0.05
    b = CoeffSeq(idx, (idx.astype(float) ** -sigma).astype(np.complex128))
    assert jagers_dual_norm(b, E2).d_set == (1,)
