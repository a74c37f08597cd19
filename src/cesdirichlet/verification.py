"""The property-based verification suites behind ``cesdir verify``.

Each suite checks one family of identities or inequalities at explicit
tolerances over seeded random campaigns and returns only what it found:
its failures and the observed numbers.  ``run_suites`` times each suite
against its budget in ``ALL_SUITES``.  The acceptance tests assert the
suites one-for-one, so ``verify --suite all`` and ``pytest`` agree.

Frozen reference constants were computed from the independent oracles
(integral-bracketed partial sums, high-precision series evaluation) and
are accurate to the printed digits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dual import (
    bennett_equivalence_check,
    delta_norm_exact_p2,
    dual_norm_oracle,
    jagers_dual_norm,
    sigma_threshold,
)
from .errors import DomainError
from .kernels import lambert_w, phi_xlogx, sieve_primes, zeta_real
from .multipliers import (
    lemma_j_check,
    monomial_multiplier_check,
    multiplier_lower_estimate,
    noncompactness_bound,
    schur_finite,
    schur_log_power,
)
from .sequences import CoeffSeq, Exponent, ces_norm, hardy_ratio, m_n_functionals_p2, random_seq
from .series import DirichletPoly, convolve, qr_project

# sigma_p at p = 2 and the frozen dual-norm plateau value; both follow
# from the zeta(2) enclosure (midpoint accurate to ~1e-12)
SIGMA_P2 = 1.7180297582234814
ZETA2_INV_SQRT = 0.7796968012336761
SQRT_ZETA2_MINUS_1 = 0.8030778709740584
LADDER_REFERENCE = 2.284457050376173  # 1 + 2^-1/2 + 3^-1/2


@dataclass
class SuiteResult:
    name: str
    duration: float
    budget: float
    details: dict
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_record(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "detail": "; ".join(self.failures) if self.failures else self._summary(),
        }

    def _summary(self) -> str:
        bits = []
        for k, v in self.details.items():
            if isinstance(v, float):
                bits.append(f"{k}={v:.6g}")
            elif isinstance(v, (int, str, bool)):
                bits.append(f"{k}={v}")
        return ", ".join(bits[:6])


# ---------------------------------------------------------------------------

def run_hardy(seed: int) -> tuple[list, dict]:
    """1000 random sequences x p in {1.5, 2, 3}: the averaging-operator
    ratio never exceeds p/(p-1)."""
    rng = np.random.default_rng(seed)
    failures = []
    checked = 0
    worst = 0.0
    seqs = [random_seq(rng) for _ in range(1000)]
    for p in (1.5, 2.0, 3.0):
        e = Exponent.from_p(p)
        bound = p / (p - 1.0)
        for a in seqs:
            r = hardy_ratio(a, e)
            checked += 1
            worst = max(worst, r / bound)
            if r > bound:
                failures.append(f"ratio {r} > {bound} at p={p}, seq={a!r}")
    return failures, {"checked": checked, "worst_fraction_of_bound": worst}


def run_dual_oracle(seed: int) -> tuple[list, dict]:
    """100 random b (support <= 6) x p in {1.5, 2, 3}: the ascent oracle
    lands inside the certified chain enclosure within 1e-4, and the
    majorant-norm equivalence sandwich holds throughout."""
    rng = np.random.default_rng(seed)
    failures = []
    worst_gap = 0.0
    seqs = [random_seq(rng, max_len=6, max_index=40) for _ in range(100)]
    for p in (1.5, 2.0, 3.0):
        e = Exponent.from_p(p)
        for k, b in enumerate(seqs):
            trace = jagers_dual_norm(b, e)
            oracle = dual_norm_oracle(b, e, restarts=4, seed=seed + k)
            lo, hi = trace.norm.lo - 1e-4, trace.norm.hi + 1e-4
            gap = max(trace.norm.lo - oracle, oracle - trace.norm.hi)
            worst_gap = max(worst_gap, gap)
            if not lo <= oracle <= hi:
                failures.append(
                    f"oracle {oracle} outside [{lo}, {hi}] at p={p}, seq #{k}"
                )
            if not bennett_equivalence_check(b, e):
                failures.append(f"equivalence sandwich failed at p={p}, seq #{k}")
    return failures, {"pairs": 300, "worst_oracle_gap": worst_gap}


def run_point_eval_p2(seed: int) -> tuple[list, dict]:
    """The exact p = 2 point-evaluation series: at sigma = 1 it encloses
    sqrt(zeta(2) - 1) within width 1e-6 in under a second; on the sigma
    grid it stays inside the two-sided (2^s - 1 / s) bracket."""
    failures = []
    t_call = time.perf_counter()
    enc = delta_norm_exact_p2(1.0)
    call_s = time.perf_counter() - t_call
    if not enc.contains(SQRT_ZETA2_MINUS_1):
        failures.append(f"sigma=1 enclosure {enc} misses {SQRT_ZETA2_MINUS_1}")
    if enc.width > 1e-6:
        failures.append(f"sigma=1 width {enc.width} > 1e-6")
    if call_s >= 1.0:
        failures.append(f"sigma=1 run took {call_s:.3f}s >= 1s")
    for sigma in (0.6, 0.75, 0.9):
        e = delta_norm_exact_p2(sigma)
        z = zeta_real(2.0 * sigma)
        lo_b = (2.0 ** sigma - 1.0) * math.sqrt(z.hi - 1.0)
        hi_b = sigma * math.sqrt(z.lo - 1.0)
        # containment certified against the conservative bracket endpoints
        if not (e.lo >= lo_b * (1 - 1e-12) - 1e-12 and e.hi <= hi_b * (1 + 1e-12) + 1e-12):
            failures.append(f"sigma={sigma}: {e} outside bracket [{lo_b}, {hi_b}]")
    # the measured call time feeds the pass/fail decision but stays out of
    # the details so that passing reports remain byte-deterministic
    return failures, {"sigma1_width": enc.width}


def run_sigma_threshold(seed: int) -> tuple[list, dict]:
    """sigma_p at p = 2 against the frozen formula value, and the greedy
    chain on truncated (n^-sigma) past the threshold: single-element
    chain with the frozen plateau norm."""
    failures = []
    e2 = Exponent.from_p(2.0)
    s2 = sigma_threshold(e2)
    if abs(s2 - SIGMA_P2) > 1e-6:
        failures.append(f"sigma_2 = {s2} differs from {SIGMA_P2} by {abs(s2 - SIGMA_P2)}")
    for sigma in (1.8, 2.5):
        idx = np.arange(1, 201, dtype=np.int64)
        b = CoeffSeq(idx, (idx.astype(float) ** -sigma).astype(np.complex128))
        trace = jagers_dual_norm(b, e2)
        if trace.d_set != (1,):
            failures.append(f"sigma={sigma}: D(b) = {trace.d_set}, expected (1,)")
        if not trace.norm.contains(ZETA2_INV_SQRT):
            failures.append(f"sigma={sigma}: norm {trace.norm} misses {ZETA2_INV_SQRT}")
        if abs(trace.norm.mid - ZETA2_INV_SQRT) > 1e-6:
            failures.append(f"sigma={sigma}: norm off by {abs(trace.norm.mid - ZETA2_INV_SQRT)}")
    return failures, {"sigma_2": s2}


def run_monomial(seed: int) -> tuple[list, dict]:
    """m in {2, 3, 4, 10} x p in {1.5, 2}: 100 random g satisfy the
    monomial upper law at 1e-10, and the j = 1e6 probe reaches
    m^{-1/q} (1 - 1e-5)."""
    failures = []
    worst = math.inf
    for p in (1.5, 2.0):
        e = Exponent.from_p(p)
        for m in (2, 3, 4, 10):
            ok, lower = monomial_multiplier_check(m, e, samples=100, j_probe=10 ** 6, seed=seed)
            target = float(m) ** (-1.0 / e.q)
            worst = min(worst, lower / target)
            if not ok:
                failures.append(f"upper law violated for m={m}, p={p}")
            if lower < target * (1.0 - 1e-5):
                failures.append(f"probe {lower} below {target}*(1-1e-5) for m={m}, p={p}")
    return failures, {"worst_probe_fraction": worst}


def run_multiplier_ladder(seed: int) -> tuple[list, dict]:
    """Desk-scale quotient ladder for f = 1 + 2^-s + 3^-s at p = 2 with
    primes to 1e7 (heuristic-window flagged): every certified quotient
    stays below the weighted-ell^1 reference, quotients are nondecreasing
    in m per alpha within 1e-3, and the best quotient clears 80% of the
    reference."""
    failures = []
    e2 = Exponent.from_p(2.0)
    table = sieve_primes(10 ** 7)
    f = DirichletPoly.from_pairs([(1, 1.0), (2, 1.0), (3, 1.0)])
    ratios = {}
    flagged = 0
    for alpha in (0.40, 0.45, 0.49):
        for m in (10, 50, 100):
            est = multiplier_lower_estimate(f, m, alpha, e2, table)
            ratios[(m, alpha)] = est.ratio
            if not est.window_verified:
                flagged += 1
            if est.ratio > LADDER_REFERENCE + 1e-9:
                failures.append(
                    f"(a) ratio {est.ratio} exceeds reference {LADDER_REFERENCE} "
                    f"at m={m}, alpha={alpha}"
                )
    for alpha in (0.40, 0.45, 0.49):
        row = [ratios[(m, alpha)] for m in (10, 50, 100)]
        for i in range(2):
            if row[i + 1] < row[i] - 1e-3:
                failures.append(
                    f"(b) ratio decreases in m at alpha={alpha}: "
                    f"{row[i]:.6f} -> {row[i + 1]:.6f} (drop {row[i] - row[i + 1]:.2e} > 1e-3)"
                )
    best = max(ratios.values())
    if best <= 0.8 * LADDER_REFERENCE:
        failures.append(f"(c) best ratio {best} below 0.8 * {LADDER_REFERENCE}")
    details = {"best_ratio": best, "reference": LADDER_REFERENCE,
               "heuristic_window_runs": flagged}
    details.update({f"ratio_m{m}_a{alpha}": r for (m, alpha), r in ratios.items()})
    return failures, details


def run_phi_sums_lambert(seed: int) -> tuple[list, dict]:
    """The phi^alpha summation sandwich on the sampled grid, plus both
    Lambert identities (w e^w = x and phi(x / W(x)) = x) at 1e-10
    relative on the standard points."""
    failures = []
    for r0 in (100, 1000):
        for fac in (2.0, 10.0):
            c = fac * phi_xlogx(float(r0))
            top = math.floor(c / lambert_w(c))
            j = list(range(r0, top + 1))
            for alpha in (0.3, 0.5):
                if not lemma_j_check(r0, c, c, alpha, 0.5, j):
                    failures.append(f"sandwich failed at r0={r0}, C={fac}*phi, alpha={alpha}")
    for x in (0.1, 1.0, math.e, 10.0, 1e4):
        w = lambert_w(x)
        res1 = abs(w * math.exp(w) - x) / max(1.0, x)
        res2 = abs(phi_xlogx(x / w) - x) / max(1.0, x)
        if res1 > 1e-10 or res2 > 1e-10:
            failures.append(f"Lambert residuals {res1}, {res2} at x={x}")
    return failures, {"grid_points": 8}


def run_projection_multiplicativity(seed: int) -> tuple[list, dict]:
    """50 random integer-coefficient pairs, r in {1, 2, 3}, full-support
    convolution limits: the smooth-index projection is exactly
    multiplicative."""
    rng = np.random.default_rng(seed)
    failures = []
    for k in range(50):
        f = DirichletPoly(random_seq(rng, max_len=10, max_index=24, integer=True))
        g = DirichletPoly(random_seq(rng, max_len=10, max_index=24, integer=True))
        if f.is_zero or g.is_zero:
            continue
        limit = f.max_index * g.max_index
        fg = convolve(f, g, limit)
        for r in (1, 2, 3):
            left = qr_project(fg, r)
            right = convolve(qr_project(f, r), qr_project(g, r), limit)
            if left != right:
                failures.append(f"projection not multiplicative at pair #{k}, r={r}")
    return failures, {"pairs": 50}


def run_noncompactness(seed: int) -> tuple[list, dict]:
    """50 random f x m in {2, 8, 64} x p in {1.5, 2}: the quantitative
    lower bound  ||m^{1/q} m^-s f|| >= (1/2) ||f|| - 1e-10."""
    rng = np.random.default_rng(seed)
    failures = []
    seqs = [random_seq(rng) for _ in range(50)]
    for p in (1.5, 2.0):
        e = Exponent.from_p(p)
        for m in (2, 8, 64):
            for k, a in enumerate(seqs):
                if not noncompactness_bound(DirichletPoly(a), m, e):
                    failures.append(f"bound failed at p={p}, m={m}, seq #{k}")
    return failures, {"checked": 300}


def run_schur(seed: int) -> tuple[list, dict]:
    """Coefficientwise multipliers into the weighted-ell^1 algebra:
    (log n)^-1 qualifies at p = 2, (log n)^-0.4 does not, and finite
    sequences always do."""
    rng = np.random.default_rng(seed)
    failures = []
    e2 = Exponent.from_p(2.0)
    verdict, enc = schur_log_power(1.0, e2, 10 ** 5)
    if verdict != "schur" or not math.isfinite(enc.hi):
        failures.append(f"log alpha=1.0: verdict {verdict}, enclosure {enc}")
    verdict, _ = schur_log_power(0.4, e2, 10 ** 5)
    if verdict != "not_schur":
        failures.append(f"log alpha=0.4: verdict {verdict}, expected not_schur")
    for _ in range(10):
        b = random_seq(rng, max_len=12, max_index=60)
        verdict, enc = schur_finite(b, e2)
        if verdict != "schur":
            failures.append(f"finite sequence gave verdict {verdict}")
    return failures, {}


def run_norm_chain(seed: int) -> tuple[list, dict]:
    """100 random a at p = 2: the functional chain
    N <= M <= ||a||.hi  and  ||a||.lo <= sqrt(2) M <= 2 N + slack."""
    rng = np.random.default_rng(seed)
    failures = []
    e2 = Exponent.from_p(2.0)
    tol = 1e-10
    for k in range(100):
        a = random_seq(rng, max_len=40, max_index=200)
        m_v, n_v = m_n_functionals_p2(a)
        enc = ces_norm(a, e2)
        if not (n_v <= m_v + tol):
            failures.append(f"N > M at #{k}")
        if not (m_v <= enc.hi + tol):
            failures.append(f"M > norm hi at #{k}")
        if not (enc.lo <= math.sqrt(2.0) * m_v + tol):
            failures.append(f"norm lo > sqrt2 M at #{k}")
        if not (math.sqrt(2.0) * m_v <= 2.0 * n_v + tol):
            failures.append(f"sqrt2 M > 2N at #{k}")
    return failures, {"checked": 100}


# each suite with its runtime budget in seconds
ALL_SUITES = {
    "hardy": (run_hardy, 10.0),
    "dual-oracle": (run_dual_oracle, 60.0),
    "point-eval-p2": (run_point_eval_p2, 10.0),
    "sigma-threshold": (run_sigma_threshold, 10.0),
    "monomial-multiplier": (run_monomial, 30.0),
    "multiplier-ladder": (run_multiplier_ladder, 180.0),
    "phi-sums-lambert": (run_phi_sums_lambert, 5.0),
    "projection-multiplicativity": (run_projection_multiplicativity, 10.0),
    "noncompactness": (run_noncompactness, 30.0),
    "schur": (run_schur, 5.0),
    "norm-chain": (run_norm_chain, 10.0),
}


def run_suites(names: list[str], seed: int) -> list[SuiteResult]:
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    results = []
    for name in names:
        if name not in ALL_SUITES:
            raise KeyError(f"unknown suite {name!r}")
        check, budget = ALL_SUITES[name]
        t0 = time.perf_counter()
        failures, details = check(seed)
        results.append(SuiteResult(name, time.perf_counter() - t0, budget, details, failures))
    return results
