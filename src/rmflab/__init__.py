"""Numerical laboratory for Rademacher random multiplicative functions.

The package simulates two models of random multiplicative function driven by
independent +-1 signs on the primes: ``f`` (supported on squarefree integers)
and ``fstar`` (completely multiplicative).  It provides weighted partial sums
M_alpha(x) = sum_{n<=x} g(n)/n^alpha with sign-change detection, truncated
Euler products and zeta-based exponential-formula diagnostics, exact
Mellin-type integrals of the step function M_alpha, and a Monte Carlo driver
with reproducible seeding and CSV/manifest output.
"""

__version__ = "0.1.0"

from .errors import DomainError, MissingSignError, ResourceError
from .primes import SpfTable, build_spf_sieve, primes_up_to
from .signs import MultiplicativeEvaluator, SignAssignment, SignMode, load_explicit_signs, trial_seed
from .series import (
    Model,
    SignChangeLog,
    WeightedSumSeries,
    compute_series,
    detect_sign_changes,
)
from .dirichlet import (
    EulerProduct,
    euler_product_F,
    euler_product_F_star,
    exponential_formula_check,
    sup_scans,
    zeta,
)
from .mellin import (
    divergence_rows,
    mellin_step_integral,
    signed_and_absolute_integrals,
    truncated_identity_sides,
)
from .experiments import (
    AggregateStats,
    ExperimentConfig,
    replay_experiment,
    run_experiment,
    write_experiment,
)

__all__ = [
    "DomainError",
    "MissingSignError",
    "ResourceError",
    "SpfTable",
    "build_spf_sieve",
    "primes_up_to",
    "SignMode",
    "SignAssignment",
    "MultiplicativeEvaluator",
    "load_explicit_signs",
    "trial_seed",
    "Model",
    "WeightedSumSeries",
    "SignChangeLog",
    "compute_series",
    "detect_sign_changes",
    "EulerProduct",
    "zeta",
    "euler_product_F",
    "euler_product_F_star",
    "exponential_formula_check",
    "sup_scans",
    "mellin_step_integral",
    "signed_and_absolute_integrals",
    "truncated_identity_sides",
    "divergence_rows",
    "ExperimentConfig",
    "AggregateStats",
    "run_experiment",
    "write_experiment",
    "replay_experiment",
    "__version__",
]
