"""Spans around calls into rmflab's public functions, recorded from outside.

``Tracer.installed()`` swaps each function named in ``LAYERS`` for a wrapper
in every loaded rmflab module that holds it (including names bound by
``from .x import y``) and restores the originals on exit; nothing in the
package is edited.  Each call records a span (name, start, end, parent, run
id) in memory.  Spans nest by a single stack, so a traced run must use one
worker thread; a call from any other thread raises.

A span's self time is its duration minus the durations of its direct child
spans.  Three counts are computed from call arguments, not measured: the
cosines and GEMM flops of ``scan_grid_max`` and the characters handed to
``atomic_write`` (the package writes ASCII, so characters are bytes).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time

#: Metric prefix -> the "module:qualname" functions it covers.
LAYERS = {
    "primes.build_spf_sieve": ["primes:build_spf_sieve"],
    "primes.primes_up_to": ["primes:primes_up_to"],
    "signs.values_up_to": ["signs:MultiplicativeEvaluator.values_up_to"],
    "signs.prime_sign_table": ["signs:prime_sign_table"],
    "series.compute_series": ["series:compute_series"],
    "series.detect_sign_changes": ["series:detect_sign_changes"],
    "dirichlet.scan_grid_max": ["dirichlet:scan_grid_max"],
    "dirichlet.euler_product": ["dirichlet:euler_product_F", "dirichlet:euler_product_F_star"],
    "mellin.signed_and_absolute": ["mellin:signed_and_absolute_integrals"],
    "experiments.run_experiment": ["experiments:run_experiment"],
    "experiments.write_experiment": ["experiments:write_experiment"],
    "experiments.trials_csv": ["experiments:trials_csv"],
    "output.atomic_write": ["output:atomic_write"],
    "output.sha256": ["output:sha256_text"],
    "cli.parse_and_dispatch": ["cli:parse_and_dispatch"],
}
MODULES = ("primes", "signs", "series", "dirichlet", "mellin", "experiments", "output", "cli")
#: Counts derived from call arguments rather than measured.
COMPUTED = {
    "dirichlet.scan_cos_evals": "count",
    "dirichlet.scan_gemm_flops": "flop",
    "output.bytes_written": "B",
}
WALLS = ("traced_wall_s", "untraced_wall_s", "trace_overhead_s")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for prefix in LAYERS:
        units[f"{prefix}_s"] = "s"
        units[f"{prefix}_self_s"] = "s"
        units[f"{prefix}_calls"] = "count"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
        units[f"{module}.calls"] = "count"
    units.update(COMPUTED)
    units.update({name: "s" for name in WALLS})
    return units


def _computed_counts(prefix: str, args, kwargs) -> dict[str, int]:
    if prefix == "dirichlet.scan_grid_max":
        weights, logp, _t_start, _step, n_points = args[:5]
        rows = weights.shape[0] if getattr(weights, "ndim", 1) == 2 else 1
        evals = int(n_points) * len(logp)
        return {"dirichlet.scan_cos_evals": evals, "dirichlet.scan_gemm_flops": 2 * rows * evals}
    if prefix == "output.atomic_write":
        data = args[1] if len(args) > 1 else kwargs["data"]
        return {"output.bytes_written": len(data)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [run, parent, prefix, start_ns, end_ns]
        self.counts: dict[str, int] = dict.fromkeys(COMPUTED, 0)
        self.run_id = 0
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def _wrap(self, prefix: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise RuntimeError("traced runs must use a single worker thread")
            for name, n in _computed_counts(prefix, args, kwargs).items():
                self.counts[name] += n
            span = [self.run_id, self._stack[-1] if self._stack else None, prefix, 0, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[3] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every LAYERS function for the duration of the block."""
        for module_name in MODULES:
            importlib.import_module(f"rmflab.{module_name}")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "rmflab"]
        undo = []
        try:
            for prefix, targets in LAYERS.items():
                for target in targets:
                    module_name, qualname = target.split(":")
                    owner = sys.modules[f"rmflab.{module_name}"]
                    if "." in qualname:
                        cls_name, attr = qualname.split(".")
                        cls = getattr(owner, cls_name)
                        original = cls.__dict__[attr]
                        undo.append((cls, attr, original))
                        setattr(cls, attr, self._wrap(prefix, original))
                        continue
                    original = getattr(owner, qualname)
                    wrapper = self._wrap(prefix, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                undo.append((module, attr, original))
                                setattr(module, attr, wrapper)
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)

    def per_layer(self, runs: int) -> dict[str, float]:
        """Per-run averages of every span metric and computed count."""
        child_ns = [0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals = dict.fromkeys(metric_units(), 0.0)
        for i, (_, _, prefix, start, end) in enumerate(self.spans):
            module = prefix.split(".")[0]
            self_s = (end - start - child_ns[i]) / 1e9
            totals[f"{prefix}_s"] += (end - start) / 1e9
            totals[f"{prefix}_self_s"] += self_s
            totals[f"{prefix}_calls"] += 1
            totals[f"{module}.self_s"] += self_s
            totals[f"{module}.calls"] += 1
        totals.update(self.counts)
        return {name: value / runs for name, value in totals.items() if name not in WALLS}

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, times in ns from the first span."""
        origin = self.spans[0][3] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (run, parent, prefix, start, end) in enumerate(self.spans):
                record = {
                    "id": i, "run": run, "parent": parent, "name": prefix,
                    "start_ns": start - origin, "end_ns": end - origin,
                }
                fh.write(json.dumps(record) + "\n")
