"""The package's public names, and the functions the benchmark traces, resolve.

perfbench/spans.py wraps rmflab functions by "module:qualname"; a rename or
deletion in the package would otherwise surface only in a traced benchmark
run.
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
