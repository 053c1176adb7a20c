"""The package's public surface is what its commands run, and the
functions the benchmark traces resolve.

perfbench/spans.py wraps rmflab functions by "module:qualname"; a rename or
deletion in the package would otherwise surface only in a traced benchmark
run.  Scalar cross-check routes live in tests/oracles.py, not in the package.
"""

import importlib
import importlib.util
import os

import rmflab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perfbench_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PUBLIC_NAMES = [
    "AggregateStats", "DivergenceRow", "DomainError", "EulerProduct", "ExperimentConfig",
    "HarperScanResult", "MissingSignError", "Model", "MultiplicativeEvaluator", "ResourceError",
    "SignAssignment", "SignChangeLog", "SignMode", "SpfTable", "WeightedSumSeries", "__version__",
    "build_spf_sieve", "compute_series", "detect_sign_changes", "divergence_comparison",
    "euler_product_F", "euler_product_F_star", "exponential_formula_check",
    "harper_sup_statistic", "load_explicit_signs", "mellin_step_integral", "primes_up_to",
    "replay_experiment", "run_experiment", "signed_and_absolute_integrals", "trial_seed",
    "truncated_identity_residual", "write_experiment", "zeta",
]


def test_public_surface():
    assert sorted(rmflab.__all__) == PUBLIC_NAMES
    moved = [
        (rmflab.primes, "factorize"),
        (rmflab.primes, "is_squarefree"),
        (rmflab.signs, "sign_at_prime"),
        (rmflab.dirichlet, "prime_cosine_sum"),
        (rmflab.series, "riesz_mean"),
        (rmflab.signs.MultiplicativeEvaluator, "evaluate_f"),
        (rmflab.signs.MultiplicativeEvaluator, "evaluate_f_star"),
        (rmflab.series, "growth_statistic"),
        (rmflab.series.WeightedSumSeries, "from_values"),
    ]
    assert [name for owner, name in moved if hasattr(owner, name)] == []


def test_every_public_name_resolves():
    assert [name for name in rmflab.__all__ if not hasattr(rmflab, name)] == []


def test_every_traced_function_resolves():
    unresolved = []
    for targets in _perfbench_spans().LAYERS.values():
        for target in targets:
            module_name, qualname = target.split(":")
            obj = importlib.import_module(f"rmflab.{module_name}")
            for part in qualname.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                unresolved.append(target)
    assert unresolved == []
    # the benchmark's own tests also read this binding
    assert rmflab.experiments.primes_up_to is rmflab.primes.primes_up_to
