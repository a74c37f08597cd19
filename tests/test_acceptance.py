"""Acceptance criteria, one test per criterion (criterion 6 split into
its three labelled sub-assertions).

Every test prints a single pass/fail line (visible with ``pytest -s``;
``cesdir verify --suite all`` prints the same suites) and asserts the
criterion at its stated tolerance, including the runtime budget.

Criterion 6(b) asserts the m-monotonicity of the desk-scale quotient
ladder within its stated 1e-3 slack.  At prime limit 1e7 the measured
quotients drift *down* by 1.0e-3 .. 1.9e-3 per rung, so the assertion
fails; the analysis lives in the project notes.  The failure is real
and reproducible, not a flake.
"""

import pytest

from cesdirichlet.verification import LADDER_REFERENCE, run_suites

SEED = 42


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")


def check_suite(criterion: str, result) -> None:
    detail = "; ".join(result.failures) if result.failures else result._summary()
    ok = result.passed and result.duration < result.budget
    report(criterion, ok, f"{detail} [{result.duration:.1f}s / {result.budget:.0f}s]")
    assert result.passed, result.failures
    assert result.duration < result.budget, (
        f"runtime {result.duration:.1f}s over the {result.budget:.0f}s budget"
    )


def test_criterion_01_hardy_bound():
    check_suite("1 (averaging-operator bound)", run_suites(["hardy"], SEED)[0])


def test_criterion_02_dual_norm_oracle():
    check_suite("2 (dual-norm oracle sandwich)", run_suites(["dual-oracle"], SEED)[0])


def test_criterion_03_point_evaluation_p2():
    check_suite("3 (exact p=2 point evaluation)", run_suites(["point-eval-p2"], SEED)[0])


def test_criterion_04_sigma_threshold():
    check_suite("4 (threshold abscissa and chain collapse)",
                run_suites(["sigma-threshold"], SEED)[0])


def test_criterion_05_monomial_multipliers():
    check_suite("5 (monomial multiplier norms)", run_suites(["monomial-multiplier"], SEED)[0])


@pytest.fixture(scope="module")
def ladder():
    return run_suites(["multiplier-ladder"], SEED)[0]


def _ladder_ratios(result):
    return {
        (m, alpha): result.details[f"ratio_m{m}_a{alpha}"]
        for m in (10, 50, 100)
        for alpha in (0.40, 0.45, 0.49)
    }


def test_criterion_06a_ladder_upper_law(ladder):
    ratios = _ladder_ratios(ladder)
    worst = max(ratios.values())
    ok = all(r <= LADDER_REFERENCE + 1e-9 for r in ratios.values())
    report("6a (quotients below the weighted-ell1 reference)", ok,
           f"max ratio {worst:.6f} vs reference {LADDER_REFERENCE:.6f}")
    assert ok


def test_criterion_06b_ladder_monotone_in_m(ladder):
    ratios = _ladder_ratios(ladder)
    drops = []
    for alpha in (0.40, 0.45, 0.49):
        row = [ratios[(m, alpha)] for m in (10, 50, 100)]
        for i in range(2):
            if row[i + 1] < row[i] - 1e-3:
                drops.append((alpha, row[i] - row[i + 1]))
    ok = not drops
    report("6b (quotients nondecreasing in m, 1e-3 slack)", ok,
           f"decreasing rungs: {[(a, f'{d:.2e}') for a, d in drops]}" if drops
           else "all rungs nondecreasing")
    assert ok, (
        "desk-scale quotients decrease along the m-ladder beyond the stated "
        f"1e-3 slack: {drops}"
    )


def test_criterion_06c_ladder_reaches_threshold(ladder):
    best = max(_ladder_ratios(ladder).values())
    ok = best > 0.8 * LADDER_REFERENCE
    report("6c (best quotient above 80% of reference)", ok,
           f"best {best:.6f} vs threshold {0.8 * LADDER_REFERENCE:.6f}")
    assert ok


def test_criterion_06_runtime(ladder):
    ok = ladder.duration < ladder.budget
    report("6 (ladder runtime)", ok, f"{ladder.duration:.1f}s / {ladder.budget:.0f}s")
    assert ok


def test_criterion_07_phi_sums_and_lambert():
    check_suite("7 (summation sandwich and Lambert identities)",
                run_suites(["phi-sums-lambert"], SEED)[0])


def test_criterion_08_projection_multiplicativity():
    check_suite("8 (smooth-projection multiplicativity)",
                run_suites(["projection-multiplicativity"], SEED)[0])


def test_criterion_09_noncompactness():
    check_suite("9 (non-compactness inequality)", run_suites(["noncompactness"], SEED)[0])


def test_criterion_10_schur():
    check_suite("10 (coefficientwise multiplier test)", run_suites(["schur"], SEED)[0])


def test_criterion_11_norm_chain():
    check_suite("11 (p=2 functional chain)", run_suites(["norm-chain"], SEED)[0])
