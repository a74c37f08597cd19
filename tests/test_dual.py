import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (EPS, dense_delta_norm_p2, dense_power_sum, dense_zeta_real,
                             dense_zeta_tail)
from frozen import frozen
from cesdirichlet.dual import (
    _DELTA_HEAD,
    _DELTA_ORDER,
    SENTINEL,
    JagersTrace,
    bennett_equivalence_check,
    delta_norm_bounds,
    delta_norm_exact_p2,
    dual_norm_oracle,
    jagers_dual_norm,
    sigma_threshold,
)
from cesdirichlet.enclosure import LIB, Enclosure, gamma, ulp_down, ulp_up
from cesdirichlet.errors import ArgminTieError, DomainError, ResourceLimitError
from cesdirichlet.kernels import zeta_real
from cesdirichlet.sequences import CoeffSeq, Exponent, dq_norm

ZETA_2 = math.pi ** 2 / 6
E2 = Exponent.from_p(2.0)

# frozen oracle values (zeta(2) = pi^2/6 closed form)
ZETA2_INV_SQRT = 0.7796968012336761
SQRT_ZETA2_MINUS_1 = 0.8030778709740584
SIGMA_P2 = 1.7180297582234814
# high-precision series values for the exact p = 2 point-evaluation norm,
# from the 40-digit expansion of ``mp_delta_norm_p2`` (plain Richardson
# acceleration silently misconverges on this series, so the method matters)
DELTA_EXACT = {0.6: 1.2523852863880134, 0.75: 0.9196991702579470, 0.9: 0.8291089911942133}
DELTA_WIDTH_CAP = {0.6: 2e-2, 0.75: 1e-3, 0.9: 1e-5}


def seq(*pairs):
    return CoeffSeq.from_pairs(pairs)


small_seqs = st.dictionaries(
    st.integers(min_value=1, max_value=40),
    st.complex_numbers(min_magnitude=1e-2, max_magnitude=5.0,
                       allow_nan=False, allow_infinity=False),
    min_size=1, max_size=6,
).map(lambda d: CoeffSeq.from_pairs(d.items()))


# ---------------------------------------------------------------------------
# the former O(support^2) greedy, kept as a reference for the hull
# ---------------------------------------------------------------------------

def div_pos(num, den: Enclosure) -> Enclosure:
    """(num / den) for a nonnegative numerator and a strictly positive
    denominator enclosure.  ``num`` may be a float or an Enclosure."""
    if den.lo <= 0:
        raise ZeroDivisionError("denominator enclosure must be strictly positive")
    if isinstance(num, Enclosure):
        nlo, nhi = num.lo, num.hi
    else:
        nlo = nhi = float(num)
    if nlo < 0:
        raise ValueError("numerator must be nonnegative")
    return Enclosure(ulp_down(nlo / den.hi), ulp_up(nhi / den.lo))


class _Ambiguous(Exception):
    def __init__(self, chain, candidates):
        self.chain = chain
        self.candidates = candidates


def _reference_attempt(idx, w, e, prefix):
    p, q = e.p, e.q
    # cum[k] = sum_{idx[0] <= l < idx[k]} l^-p, Kahan-compensated
    cum = np.zeros(idx.size)
    total = comp = 0.0
    for k in range(1, idx.size):
        y = dense_power_sum(p, int(idx[k - 1]), int(idx[k])) - comp
        t = total + y
        comp = (t - total) - y
        total = cum[k] = t

    def denom(a, b):
        d = cum[b] - cum[a]
        slack = 4.0 * EPS * (cum[b] + cum[a]) + 4.0 * EPS
        return Enclosure(ulp_down(d - slack), ulp_up(d + slack))

    pos = int(np.nonzero(w == w.max())[0][-1])
    chain, terms = [int(idx[pos])], []
    while True:
        bm = float(w[pos])
        cand = list(range(pos + 1, idx.size))
        all_q = [div_pos(Enclosure(ulp_down(bm - w[j]), ulp_up(bm - w[j])), denom(pos, j))
                 for j in cand]
        b_here = dense_zeta_tail(p, int(idx[pos]), prefix=prefix) + float(idx[pos]) ** -p
        all_q.append(div_pos(bm, b_here))
        ids = [int(idx[j]) for j in cand] + [SENTINEL]
        min_hi = min(enc.hi for enc in all_q)
        poss = [k for k, enc in enumerate(all_q) if enc.lo <= min_hi]
        if len(poss) > 1:
            if min_hi == 0.0 and all(all_q[k].hi == 0.0 for k in poss):
                winner = max(poss)
            else:
                raise _Ambiguous(tuple(chain), tuple(ids[k] for k in poss))
        else:
            winner = poss[0]
        if winner == len(cand):
            delta_b, delta_big = bm, b_here
        else:
            delta_b, delta_big = bm - float(w[cand[winner]]), denom(pos, cand[winner])
        chain.append(ids[winner])
        num_pow = Enclosure(ulp_down(delta_b ** q, 2), ulp_up(delta_b ** q, 2))
        terms.append(div_pos(num_pow, delta_big.power(q - 1.0) if q != 2.0 else delta_big))
        if chain[-1] == SENTINEL:
            break
        pos = cand[winner]
    total = Enclosure(0.0, 0.0)
    for t in terms:
        total = total + t
    return JagersTrace(tuple(chain), total.root(q))


def greedy_dual_norm_reference(b: CoeffSeq, e: Exponent) -> JagersTrace:
    """The greedy chain by rescanning every later candidate at each step
    (O(support^2)): B-differences from running totals of explicit
    segment sums with a 4-ulp slack, sentinel tails from a 10^4-term
    prefix plus an integral bracket, doubled up to three times while two
    quotient enclosures overlap."""
    if b.is_empty:
        return JagersTrace((SENTINEL,), Enclosure(0.0, 0.0))
    w = b.abs_values()
    for round_ in range(4):
        try:
            return _reference_attempt(b.idx, w, e, 10_000 << round_)
        except _Ambiguous as amb:
            last = amb
    raise ArgminTieError(last.chain, last.candidates)


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
    t2 = jagers_dual_norm(CoeffSeq(b.idx, b.val * 3.5), E2)
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


@pytest.mark.parametrize("b3", [4.822548874288783 + 1.3202357195198104j,
                                2.229978631622077e-293 + 4.999999999999999j])
def test_jagers_equal_float_moduli_are_no_tie(b3):
    # |b_1|, |b_2|, |b_3| agree to the last float place, and |b_2| - |b_3|
    # is within the rounding of the complex moduli; exact squared moduli
    # give |b_2| <= |b_3|, so 2 pops
    b2 = b3 if b3.real > 1.0 else 4.999999999999999
    b = seq((1, 5.0), (2, b2), (3, b3))
    for p in (1.5, 2.0, 3.0):
        e = Exponent.from_p(p)
        trace = jagers_dual_norm(b, e)
        assert trace.m_chain == (1, 3, SENTINEL)
        oracle = dual_norm_oracle(b, e, restarts=4)
        assert trace.norm.lo - 1e-4 <= oracle <= trace.norm.hi + 1e-4
        assert bennett_equivalence_check(b, e)


def mp_chain_norm(b: CoeffSeq, p: float):
    """The hull chain (without the sentinel) and the dual norm at 60
    digits, from the moduli of the float entries and B_k = zeta(p, k)."""
    with mpmath.workdps(60):
        q = mpmath.mpf(p) / (mpmath.mpf(p) - 1)
        pts = [(mpmath.zeta(mpmath.mpf(p), int(n)), abs(mpmath.mpc(complex(v))))
               for n, v in b.entries()] + [(mpmath.mpf(0), mpmath.mpf(0))]
        top = max(w for _, w in pts)
        hull = [max(k for k, (_, w) in enumerate(pts) if w == top)]
        for k in range(hull[0] + 1, len(pts)):
            (bk, wk) = pts[k]
            while len(hull) > 1:
                (bi, wi), (bj, wj) = pts[hull[-2]], pts[hull[-1]]
                if wj > wk and (wi - wj) * (bj - bk) < (wj - wk) * (bi - bj):
                    break
                hull.pop()
            hull.append(k)
        total = mpmath.fsum((pts[i][1] - pts[j][1]) ** q / (pts[i][0] - pts[j][0]) ** (q - 1)
                            for i, j in zip(hull, hull[1:]))
        return tuple(int(b.idx[k]) for k in hull[:-1]), total ** (1 / q)


def test_jagers_near_equal_complex_moduli_decided_exactly():
    # |b_2| rounds to 5.0 and |b_3| to 4.999999999999999: the float slope
    # test after (1,) cannot tell 2 from 3, and exact squared moduli can
    b = seq((1, 5.0), (2, 0.395438093295585 + 4.984338342686093j),
            (3, 4.649143252813783 + 1.8399638623668855j))
    chain, exact = mp_chain_norm(b, 2.0)
    trace = jagers_dual_norm(b, E2)
    assert chain == (1, 2, 3) and trace.m_chain == chain + (SENTINEL,)
    assert trace.norm.lo <= exact <= trace.norm.hi


def test_jagers_exact_tie_with_inexact_modulus_still_raises():
    # |3 + 4i| = 5 exactly but carries a rounding bound: the exact re-decision
    # meets the engineered tie of 5 (1, 0.4, 0.25) and raises
    with pytest.raises(ArgminTieError) as exc:
        jagers_dual_norm(seq((1, 3.0 + 4.0j), (2, 2.0), (3, 1.25)), E2)
    assert exc.value.candidates == (2, 3) and exc.value.prefix_chain == (1,)


@frozen
def test_hull_matches_reference_greedy(p, idx, mags, decreasing):
    mags = mags[:len(idx)]
    if decreasing:
        mags.sort(reverse=True)
    b = CoeffSeq(np.array(sorted(idx)), np.array(mags, dtype=np.complex128))
    e = Exponent.from_p(p)
    try:
        ref = greedy_dual_norm_reference(b, e)
    except ArgminTieError:
        return
    hull = jagers_dual_norm(b, e)
    assert hull.m_chain == ref.m_chain
    assert hull.d_set == ref.d_set
    assert ref.norm.encloses(hull.norm)


def _draw(seed, size, top, sigma=0.8):
    idx = np.sort(np.random.default_rng(seed).choice(top, size, replace=False) + 1)
    return CoeffSeq(idx, (idx.astype(float) ** -sigma).astype(np.complex128))


def test_jagers_benchmark_draw_has_no_tie():
    # the fixed support-1000 draw of the benchmark's dual workload: the
    # greedy raised ArgminTieError between 9137 and 9138 at p = 3, from
    # cancellation in B-differences taken from running totals
    b = _draw([30000, 1000], 1000, 30000)
    e3 = Exponent.from_p(3.0)
    trace = jagers_dual_norm(b, e3)
    assert len(trace.m_chain) == 1001
    assert trace.m_chain[:-1] == tuple(int(n) for n in b.idx)
    assert bennett_equivalence_check(b, e3)


def test_jagers_roadmap_reproducer_full_chain():
    # 3000 indices from 1..30000, b = idx^-0.8, p = 2: every index is on the chain
    trace = jagers_dual_norm(_draw(0, 3000, 30000), E2)
    assert len(trace.m_chain) == 3001
    assert trace.norm.width < 1e-13 * trace.norm.hi


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_jagers_support_1e5(p):
    b = _draw(5, 10 ** 5, 10 ** 6)
    trace = jagers_dual_norm(b, Exponent.from_p(p))
    assert len(trace.m_chain) == 10 ** 5 + 1
    assert trace.norm.width < 1e-13 * trace.norm.hi


def test_jagers_start_from_exact_moduli():
    # |1e-72 + 1j| rounds to 1.0 = |1| but exceeds it: the chain starts at 2
    trace = jagers_dual_norm(CoeffSeq.from_pairs([(1, 1.0), (2, 1e-72 + 1j)]), E2)
    assert trace.m_chain == (2, SENTINEL)


def test_jagers_huge_coefficients():
    unit = jagers_dual_norm(seq((2, 1.0), (5, 0.5)), E2)
    huge = jagers_dual_norm(seq((2, 1e308), (5, 0.5e308)), E2)
    assert huge.m_chain == unit.m_chain
    assert huge.norm.lo == pytest.approx(1e308 * unit.norm.lo, rel=1e-13)
    assert huge.norm.hi == pytest.approx(1e308 * unit.norm.hi, rel=1e-13)


def test_jagers_norm_past_float64_range():
    # |b_16| zeta(2, 16)^(-1/2), about 5.9e308: the scaled chain is finite
    # and only the final scaling overflows
    b = CoeffSeq(np.arange(1, 17), np.full(16, 1.5e308))
    with pytest.raises(DomainError, match="^the dual norm exceeds the float64 range$"):
        jagers_dual_norm(b, E2)


# ---------------------------------------------------------------------------
# ascent oracle against the chain
# ---------------------------------------------------------------------------

def test_oracle_empty_and_guard():
    assert dual_norm_oracle(CoeffSeq.empty(), E2, restarts=2) == 0.0
    with pytest.raises(DomainError, match="restart"):
        dual_norm_oracle(CoeffSeq.empty(), E2, restarts=0)
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


# the oracle on supports 1 to 8 (the guard's limit) of PIN_IDX, with real
# and with complex b (inexact moduli), at restarts 1 and at restarts 4 with
# seed support % 2, as float.hex; recorded before the line search continued
# from memoised prefix sums
PIN_IDX = (1, 2, 3, 5, 8, 13, 21, 34)
PIN_VALUES = {
    "real": (0.9, -0.35, 1.25, 0.6, -0.8, 0.15, 1.1, -0.45),
    "complex": (0.7 + 0.2j, -0.3 + 0.9j, 0.5 - 0.5j, 1.1 + 0.1j, -0.2 - 0.6j, 0.4 + 0.8j,
                0.9 - 0.3j, 0.1 + 0.2j),
}
ORACLE_PINS = {
    ("real", 1.1): (
        "0x1.af9abb2e38e71p-4", "0x1.af9abb2e38e73p-4", "0x1.af9abb2e38e70p-4", "0x1.af9abb2e38e70p-4",
        "0x1.573f444c6c6f3p-3", "0x1.573f444c6c6f3p-3", "0x1.573f444c6c6f1p-3", "0x1.573f444c6c6f5p-3",
        "0x1.573f444c6c6f3p-3", "0x1.573f444c6c6f4p-3", "0x1.573f444c6c6f0p-3", "0x1.573f444c6c6f4p-3",
        "0x1.6d852d44efde1p-3", "0x1.6d852d44efde1p-3", "0x1.6d852d44efde0p-3", "0x1.6d852d44efde0p-3",
    ),
    ("real", 1.5): (
        "0x1.e5de56580a3dap-2", "0x1.e5de56580a3dbp-2", "0x1.e5de56580a3d7p-2", "0x1.e5de56580a3d9p-2",
        "0x1.127a4c2bccd80p+0", "0x1.127a4c2bccd81p+0", "0x1.127a4c2bccd7ep+0", "0x1.127a4c2bccd80p+0",
        "0x1.16724519ded3bp+0", "0x1.16724519ded3cp+0", "0x1.16724519ded3ap+0", "0x1.16724519ded3dp+0",
        "0x1.e5a725f2b8344p+0", "0x1.e5a725f2bf1d9p+0", "0x1.e5a725f2b5e69p+0", "0x1.e5a725f2b5e8cp+0",
    ),
    ("real", 2.0): (
        "0x1.6748c6f7c51f9p-1", "0x1.6748c6f7c51f9p-1", "0x1.6748c6f7c51f7p-1", "0x1.6748c6f7c51f7p-1",
        "0x1.fd32fc3b46f13p+0", "0x1.fd32fc3b46f13p+0", "0x1.fd32fc3b46f13p+0", "0x1.fd32fc3b46f13p+0",
        "0x1.2e60a79284fa5p+1", "0x1.2e60a792860f2p+1", "0x1.2e60a792815b2p+1", "0x1.2e60a7928170dp+1",
        "0x1.3f32cd4318175p+2", "0x1.3f32cd4322a21p+2", "0x1.3f32cd431e125p+2", "0x1.3f32cd431e125p+2",
    ),
    ("real", 3.0): (
        "0x1.b161c5de8425ap-1", "0x1.b161c5de8425ap-1", "0x1.d214bd5cfb6c0p-1", "0x1.d214bd5cfb6c1p-1",
        "0x1.77fee1b225b7ep+1", "0x1.77fee1b225b80p+1", "0x1.8319ed5f1c6dbp+1", "0x1.8319ed5f1f41ap+1",
        "0x1.1002810b61a66p+2", "0x1.1002810b61a66p+2", "0x1.1002810b5fed9p+2", "0x1.1002810b600fcp+2",
        "0x1.4da6fafdf6645p+3", "0x1.4da6fafdfd0c3p+3", "0x1.4e1203d6a67a1p+3", "0x1.4e1203d6a67a2p+3",
    ),
    ("real", 7.0): (
        "0x1.cc40c3abec4c6p-1", "0x1.cc40c3abec4c7p-1", "0x1.209e3d9cd40a2p+0", "0x1.209e3d9cd40a3p+0",
        "0x1.d521033087066p+1", "0x1.d521033087068p+1", "0x1.14e77892ad760p+2", "0x1.14e77892b0160p+2",
        "0x1.ad69cad1b3198p+2", "0x1.ad69cad1b3905p+2", "0x1.b5d2944ce6c53p+2", "0x1.b5d2944ce6c53p+2",
        "0x1.321dc30a7cc2cp+4", "0x1.321dc30a7cc2cp+4", "0x1.5175dac167642p+4", "0x1.5175dac167642p+4",
    ),
    ("complex", 1.1): (
        "0x1.5d2012e8276fep-4", "0x1.5d2012e8276ffp-4", "0x1.f1e7f67e0d6dcp-4", "0x1.f1e7f67e0d6dcp-4",
        "0x1.f1e7f67e0d6dep-4", "0x1.f1e7f67e0d6dep-4", "0x1.3fcf106017a26p-3", "0x1.3fcf106017a26p-3",
        "0x1.3fcf106017a22p-3", "0x1.3fcf106017a24p-3", "0x1.3fcf106017a22p-3", "0x1.3fcf106017a22p-3",
        "0x1.3fcf106017a21p-3", "0x1.3fcf106017a27p-3", "0x1.3fcf106017a26p-3", "0x1.3fcf106017a27p-3",
    ),
    ("complex", 1.5): (
        "0x1.890502616a308p-2", "0x1.890502616a308p-2", "0x1.613fa43ecaa0fp-1", "0x1.613fa43ecaa0fp-1",
        "0x1.613fa43ecaa10p-1", "0x1.613fa43ecaa10p-1", "0x1.2661fdec1ea3ep+0", "0x1.2661fdec1ea3fp+0",
        "0x1.2661fdec1ea3dp+0", "0x1.2661fdec1ea3dp+0", "0x1.520cfffd0c24bp+0", "0x1.520cfffd0c29ap+0",
        "0x1.a339cfdc4ee68p+0", "0x1.a339cfdc4ee68p+0", "0x1.a339cfdc45cdap+0", "0x1.a339cfdc4783dp+0",
    ),
    ("complex", 2.0): (
        "0x1.22a01dbc71c5ap-1", "0x1.22a01dbc71c5ap-1", "0x1.2e6a480b73652p+0", "0x1.2e6a480b73652p+0",
        "0x1.397ab96ce2b98p+0", "0x1.397ab96ce2b99p+0", "0x1.2c85b332380bap+1", "0x1.2c85b332380bap+1",
        "0x1.2c85b332380bap+1", "0x1.2c85b332380bbp+1", "0x1.9b263044c2387p+1", "0x1.9b263044c3db9p+1",
        "0x1.13f9dcfda69b7p+2", "0x1.13f9dcfda69b7p+2", "0x1.13f9dcfda38d1p+2", "0x1.13f9dcfda38d2p+2",
    ),
    ("complex", 3.0): (
        "0x1.5e90285a57abbp-1", "0x1.5e90285a57abbp-1", "0x1.9de031ae04175p+0", "0x1.9de031ae04175p+0",
        "0x1.d4c425c54a4c2p+0", "0x1.d4c425c54a4c2p+0", "0x1.e77af51adf368p+1", "0x1.e77af51adf368p+1",
        "0x1.fdc8e132bb783p+1", "0x1.fdc8e132bb783p+1", "0x1.90082faa6d34bp+2", "0x1.90082faa6ddb0p+2",
        "0x1.216c8ed290cfbp+3", "0x1.216c8ed290cfcp+3", "0x1.216c8ed2905a4p+3", "0x1.216c8ed2905a4p+3",
    ),
    ("complex", 7.0): (
        "0x1.744c94d2e8c44p-1", "0x1.744c94d2e8c45p-1", "0x1.e12301698b473p+0", "0x1.e12301698b473p+0",
        "0x1.32744884fc3e5p+1", "0x1.32744884fc3e6p+1", "0x1.4f5909e808e71p+2", "0x1.4f5909e808e71p+2",
        "0x1.9237881f1bf40p+2", "0x1.9237881f1bf40p+2", "0x1.552de81663534p+3", "0x1.552de81663af8p+3",
        "0x1.0b45c84d53a65p+4", "0x1.0b45c84d53b79p+4", "0x1.142d11b9371b0p+4", "0x1.142d11b9371b0p+4",
    ),
}


@pytest.mark.parametrize("kind, p", list(ORACLE_PINS))
def test_oracle_bits_are_pinned(kind, p):
    # a change that moves any of these bits must say so and update the pins
    e = Exponent.from_p(p)
    got = []
    for size in range(1, len(PIN_IDX) + 1):
        b = CoeffSeq.from_pairs(zip(PIN_IDX[:size], PIN_VALUES[kind][:size]))
        got += [dual_norm_oracle(b, e, restarts=1).hex(),
                dual_norm_oracle(b, e, restarts=4, seed=size % 2).hex()]
    assert tuple(got) == ORACLE_PINS[kind, p]


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
    b = delta_norm_bounds(1.0, E2)
    assert b.lo == pytest.approx(0.5 * math.sqrt(ZETA_2), rel=1e-9)
    assert b.hi == pytest.approx(math.sqrt(ZETA_2), rel=1e-9)


def test_delta_bounds_ordering():
    for p in (1.5, 2.0, 3.0):
        e = Exponent.from_p(p)
        for sigma in (1.0 / e.q + 0.1, 1.0, 2.0):
            b = delta_norm_bounds(sigma, e)
            assert b.lo <= b.hi


def test_delta_bounds_domain():
    with pytest.raises(DomainError):
        delta_norm_bounds(0.5, E2)
    with pytest.raises(DomainError):
        delta_norm_bounds(0.4, E2)


def test_delta_bounds_contain_plateau():
    b = delta_norm_bounds(2.5, E2)
    assert b.lo <= ZETA2_INV_SQRT <= b.hi


def test_delta_exact_sigma1():
    enc = delta_norm_exact_p2(1.0)
    assert enc.contains(SQRT_ZETA2_MINUS_1)
    assert enc.width < 1e-6


def test_delta_exact_sigma1_closed_form():
    # termwise the series telescopes to sum 1/(n+1)^2 = zeta(2) - 1
    enc = delta_norm_exact_p2(1.0)
    assert enc.contains(math.sqrt(ZETA_2 - 1.0))
    assert enc.width <= 2e-14 * enc.hi


@pytest.mark.parametrize("sigma", [0.6, 0.75, 0.9])
def test_delta_exact_against_highprecision(sigma):
    enc = delta_norm_exact_p2(sigma)
    assert enc.contains(DELTA_EXACT[sigma])
    assert enc.width < DELTA_WIDTH_CAP[sigma]
    ref = float(mp_delta_norm_p2(sigma))
    assert abs(DELTA_EXACT[sigma] - ref) <= 2 * math.ulp(ref)


@pytest.mark.parametrize("sigma", [0.500001, 0.51, 0.6, 0.75, 0.9, 1.0])
def test_delta_exact_at_least_its_pad_wide(sigma):
    # the squared enclosure carries the modelled pad on each side:
    # gamma(6 LIB + 9) of the explicit head and gamma(12 K + 7) of the tail
    # terms' absolute sum, which is at least the tail.  float64 rounding
    # stays far inside it, so containment alone would not show a deleted
    # or miscounted pad
    enc = delta_norm_exact_p2(sigma)
    ns = np.arange(1, _DELTA_HEAD, dtype=np.float64)
    head = math.fsum((ns * (ns ** -sigma - (ns + 1.0) ** -sigma)) ** 2)
    tail = enc.mid ** 2 - head
    pad = gamma(6 * LIB + 9) * head + gamma(12 * _DELTA_ORDER + 7) * tail
    assert enc.hi ** 2 - enc.lo ** 2 >= 2.0 * pad * (1.0 - 1e-3)


@pytest.mark.parametrize("sigma", [0.6, 0.75, 0.9, 1.0])
def test_delta_exact_inside_both_brackets(sigma):
    enc = delta_norm_exact_p2(sigma)
    z = zeta_real(2.0 * sigma)
    assert dense_zeta_real(2.0 * sigma, 10 ** 5).encloses(z)
    lo_b = (2.0 ** sigma - 1.0) * math.sqrt(z.hi - 1.0)
    hi_b = sigma * math.sqrt(z.lo - 1.0)
    assert enc.lo >= lo_b - 1e-9
    assert enc.hi <= hi_b + 1e-9
    b = delta_norm_bounds(sigma, E2)
    assert enc.lo >= b.lo - 1e-9
    assert enc.hi <= b.hi + 1e-9


def mp_delta_norm_p2(sigma: float, head: int = 30, order: int = 45) -> mpmath.mpf:
    """The exact p = 2 series at 40 digits, independent of the Hurwitz
    kernel: terms below ``head`` summed directly; from there on
    term_n = n^-2s h(1/n)^2 with h(x) = (1 - (1 + x)^-s)/x = sum_j b_j x^j,
    so the rest is sum_j d_j zeta(2s + j, head) for d = b * b (the
    neglected part is of order head^-order)."""
    with mpmath.workdps(40):
        s = mpmath.mpf(sigma)
        b = [-mpmath.binomial(-s, j + 1) for j in range(order)]
        d = [mpmath.fsum(b[i] * b[j - i] for i in range(j + 1)) for j in range(order)]
        explicit = mpmath.fsum(mpmath.mpf(n) ** 2 * (mpmath.mpf(n) ** -s - mpmath.mpf(n + 1) ** -s) ** 2
                               for n in range(1, head))
        rest = mpmath.fsum(d[j] * mpmath.zeta(2 * s + j, head) for j in range(order))
        return mpmath.sqrt(explicit + rest)


def test_delta_reference_self_consistent():
    # two different splits agree, and sigma = 1 gives sqrt(zeta(2) - 1)
    with mpmath.workdps(40):
        for sigma in (0.51, 0.75):
            assert abs(mp_delta_norm_p2(sigma) - mp_delta_norm_p2(sigma, 5, 120)) <= 1e-30
        assert abs(mp_delta_norm_p2(1.0) - mpmath.sqrt(mpmath.zeta(2) - 1)) <= 1e-30


DELTA_GRID = [0.5 + 1e-6, 0.501, 0.51, 0.6, 0.75, 0.9, 0.99, 1.0]


@pytest.mark.parametrize("sigma", DELTA_GRID)
def test_delta_exact_contains_mpmath_grid(sigma):
    # head below 1024 and six Hurwitz zeta terms: relative width 7e-15 to
    # 1.3e-14 on the grid
    enc = delta_norm_exact_p2(sigma)
    assert enc.lo <= mp_delta_norm_p2(sigma) <= enc.hi
    assert enc.width <= 1e-13 * enc.hi


@pytest.mark.parametrize("terms", [10 ** 4, 10 ** 5])
@pytest.mark.parametrize("sigma", DELTA_GRID)
def test_delta_exact_contains_mpmath(sigma, terms):
    # inside the former dense enclosure with ``terms`` explicit terms,
    # which brackets the rest termwise and contains the true value too
    enc = delta_norm_exact_p2(sigma)
    dense = dense_delta_norm_p2(sigma, terms)
    assert dense.encloses(enc)
    assert dense.lo <= mp_delta_norm_p2(sigma) <= dense.hi


def test_delta_exact_domain_and_fallback():
    with pytest.raises(DomainError):
        delta_norm_exact_p2(0.5)
    with pytest.raises(DomainError):
        delta_norm_exact_p2(0.3)
    # past sigma = 1 the exact series is unproven; the two-sided bounds
    # are returned instead
    enc = delta_norm_exact_p2(1.5)
    b = delta_norm_bounds(1.5, E2)
    assert (enc.lo, enc.hi) == (b.lo, b.hi)


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
