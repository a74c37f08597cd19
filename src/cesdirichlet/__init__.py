"""Dirichlet series with p-summable Cesaro coefficient means.

Norms and dual norms of the coefficient space, point-evaluation
functionals, and certified lower estimates for the multiplier algebra
(the weighted-ell^1 space with weight n^{-1/q}), all at desk scale with
interval-certified tails.
"""

from .enclosure import Enclosure
from .errors import (
    ArgminTieError,
    ConvergenceError,
    DomainError,
    InputError,
    ResourceLimitError,
    SelfCheckError,
)
from .kernels import (
    PrimeTable,
    decrease_onset,
    lambert_w,
    phi_alpha_deriv,
    phi_xlogx,
    sieve_primes,
    zeta_real,
    zeta_tail,
)
from .sequences import (
    CoeffSeq,
    Exponent,
    ar_norm,
    ces_norm,
    dq_norm,
    hardy_ratio,
    lp_norm,
    m_n_functionals_p2,
)
from .series import (
    DirichletPoly,
    EvalPoint,
    convolve,
    evaluate,
    qr_project,
)
from .dual import (
    SENTINEL,
    JagersTrace,
    bennett_equivalence_check,
    delta_norm_bounds,
    delta_norm_exact_p2,
    dual_norm_oracle,
    jagers_dual_norm,
    sigma_threshold,
)
from .multipliers import (
    MultiplierEstimate,
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

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
