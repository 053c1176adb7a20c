"""The package's public surface is what its commands run, and the
functions the benchmark traces resolve.

perfbench/spans.py wraps rmflab functions by "module:qualname"; a rename or
deletion in the package would otherwise surface only in a traced benchmark
run.  Scalar cross-check routes live in tests/oracles.py, not in the package.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
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
    "AggregateStats", "DomainError", "EulerProduct", "ExperimentConfig",
    "MissingSignError", "Model", "MultiplicativeEvaluator", "ResourceError",
    "SignAssignment", "SignChangeLog", "SignMode", "SpfTable", "WeightedSumSeries", "__version__",
    "build_spf_sieve", "compute_series", "detect_sign_changes", "divergence_rows",
    "euler_product_F", "euler_product_F_star", "exponential_formula_check",
    "load_explicit_signs", "mellin_step_integral", "primes_up_to",
    "replay_experiment", "run_experiment", "signed_and_absolute_integrals", "sup_scans", "trial_seed",
    "truncated_identity_sides", "write_experiment", "zeta",
]

#: Public names that nothing in src/rmflab/ uses, each with its reason.
UNUSED_IN_SRC = {
    "exponential_formula_check": "the README lists the exponential-formula residual as a feature",
    "MultiplicativeEvaluator": "perfbench traces MultiplicativeEvaluator.values_up_to",
}


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
        # single-realization wrappers: callers pass a batch of one
        (rmflab.dirichlet, "harper_sup_statistic"),
        (rmflab.mellin, "divergence_comparison"),
        (rmflab.mellin, "truncated_identity_residual"),
        (rmflab.experiments, "_map_series"),
        # each computation sizes its own run and stream_trials does the seed-free setup
        (rmflab.series, "plan_run"),
        (rmflab.series, "RunPlan"),
        (rmflab.experiments, "_shared_table"),
        # command-level runs build their own sieve
        (rmflab.experiments, "_series_table"),
        # CSVs are written in blocks of rows; the series command is its engine
        (rmflab.output, "csv_text"),
        (rmflab.experiments, "run_series"),
        # the sup scan and the divergence table return their CSV columns
        (rmflab.dirichlet, "HarperScanResult"),
        (rmflab.mellin, "DivergenceRow"),
        (rmflab.experiments, "_field_columns"),
        # one fan-out: map_ordered splits its items into one run per thread
        (rmflab.series, "map_runs"),
        # each worker builds the weights n^-alpha a segment at a time
        (rmflab.series, "_seed_free"),
    ]
    assert [name for owner, name in moved if hasattr(owner, name)] == []


def test_only_the_primitives_take_a_table():
    # each command-level run sizes and builds its own sieve; the primitives
    # that callers in src/ share a sieve through keep an optional table
    runs = [rmflab.run_experiment, rmflab.divergence_rows, rmflab.truncated_identity_sides,
            *(spec.body for spec in rmflab.experiments.EXPERIMENTS.values())]
    primitives = [rmflab.compute_series, rmflab.series.stream_trials, rmflab.sup_scans, rmflab.euler_product_F,
                  rmflab.euler_product_F_star, rmflab.exponential_formula_check]
    takes_table = {f.__name__: "table" in inspect.signature(f).parameters for f in runs + primitives}
    assert takes_table == {**{f.__name__: False for f in runs}, **{f.__name__: True for f in primitives}}
    a = rmflab.SignAssignment.iid(1)
    assert list(rmflab.sup_scans([a], (0.56,), None, 100)) == [
        "sigma", "t_star", "sup_value", "centered_value", "grid_step", "prime_limit"]
    assert list(rmflab.divergence_rows([a], "f", 0.5, (0.56,), 100, 100)) == [
        "sigma", "signed", "absolute", "harper_witness", "N", "prime_limit"]
    assert [field.name for field in dataclasses.fields(rmflab.AggregateStats)] == ["config", "columns", "summary"]


def test_every_public_name_resolves():
    assert [name for name in rmflab.__all__ if not hasattr(rmflab, name)] == []


def _names_used_in_src() -> set[str]:
    """Names and attributes read in src/rmflab/ outside __init__.py, each
    top-level definition's own name left out inside its body (imports and
    docstrings do not count)."""
    used = set()
    package = os.path.join(ROOT, "src", "rmflab")
    for file_name in sorted(os.listdir(package)):
        if not file_name.endswith(".py") or file_name == "__init__.py":
            continue
        with open(os.path.join(package, file_name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for statement in tree.body:
            own = getattr(statement, "name", None)
            for node in ast.walk(statement):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    used.add(name)
    return used


def test_every_public_function_and_class_is_used_in_src():
    # a public name only tests reach belongs in tests/oracles.py, or is a
    # single realization that callers get as a batch of one
    used = _names_used_in_src()
    public = [name for name in rmflab.__all__ if inspect.isfunction(getattr(rmflab, name))
              or inspect.isclass(getattr(rmflab, name))]
    assert sorted(name for name in public if name not in used) == sorted(UNUSED_IN_SRC)


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


def _callers_in_src(callee: str) -> set[tuple[str, str]]:
    """(file, top-level function or class) of every call to `callee` in
    src/rmflab/, by name or attribute."""
    callers = set()
    package = os.path.join(ROOT, "src", "rmflab")
    for file_name in sorted(os.listdir(package)):
        if not file_name.endswith(".py"):
            continue
        with open(os.path.join(package, file_name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for statement in tree.body:
            for node in ast.walk(statement):
                func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
                if (getattr(func, "id", None) or getattr(func, "attr", None)) == callee:
                    callers.add((file_name, getattr(statement, "name", "<module>")))
    return callers


def test_every_sieve_and_memory_check_goes_through_the_gate():
    # primes.sieve_for sizes, checks and builds every sieve, and makes every
    # memory check: each computation hands it what it allocates besides
    assert _callers_in_src("build_spf_sieve") == {("primes.py", "sieve_for")}
    assert _callers_in_src("require_memory") == {("primes.py", "sieve_for")}


def test_each_rule_is_stated_once():
    # SignAssignment.of is the one map from sign mode to assignment
    for constructor in ("iid", "all_minus_one", "explicit"):
        assert {file for file, _ in _callers_in_src(constructor)} == {"signs.py"}, constructor
    # the experiment subparsers' dests are ExperimentConfig's fields, so the
    # CLI passes the parsed inputs through, not field by field
    with open(os.path.join(ROOT, "src", "rmflab", "cli.py"), encoding="utf-8") as fh:
        calls = [node for node in ast.walk(ast.parse(fh.read()))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ExperimentConfig"]
    assert [[k.arg for k in call.keywords if k.arg is not None] for call in calls] == [["experiment"]]
