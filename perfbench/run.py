"""rmflab benchmark: closed-loop workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload sign-changes-1e6 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

Run from the repository root; rmflab is imported from ``src/``.  With
``--trace 0`` a run measures set-up (``import rmflab`` plus the workload's
sieve, in fresh interpreters) after one warm-up iteration, then repeats the
workload at two worker threads for ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it alternates untraced and traced iterations at
one worker thread and reports per-layer metrics (see spans.py); the spans go
to ``.perfbench_out/``.  Every iteration's outputs are checked against
golden.json; a run at one thread matching digests recorded at two threads is
the worker-count invariance check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in its own process, because peak RSS can only be read
per process, and prints a table.  Exit code 2 means the program under test
could not be set up; no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import spans
import workloads as wl

OUT_DIR = os.path.join(wl.ROOT, ".perfbench_out")
#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 9
END_TO_END = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

_SETUP_CODE = """
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import rmflab
rmflab.build_spf_sieve({limit})
print(time.perf_counter() - start)
"""


def measure_setup(limit: int, repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds to import rmflab and build the sieve, once per fresh process."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE.format(src=wl.SRC, limit=limit)],
            capture_output=True, text=True, timeout=120, cwd=wl.ROOT,
        )
        if proc.returncode != 0:
            raise wl.SetupError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def environment(seed: int, threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "nproc": os.cpu_count(),
        "threads": threads,
        "seed": seed,
        "computed": sorted(spans.COMPUTED),
    }


class Run:
    """Iterations of one workload, each checked; counts attempts and failures."""

    def __init__(self, workload: wl.Workload, seed: int, size: str, threads: int, golden: dict):
        self.workload = workload
        self.size = size
        self.threads = threads
        self.golden = golden
        self.seeds = workload.seeds(seed)
        self.workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        self.attempted = 0
        self.failed = 0

    def iterate(self) -> float | None:
        """Run and check the next iteration; its wall time, or None if it failed."""
        seed = self.seeds[self.attempted % len(self.seeds)]
        self.attempted += 1
        outdir = os.path.join(self.workdir, str(seed))
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            wall = self.workload.run(seed, outdir, self.threads)
            expected = wl.expected_outputs(self.golden, self.size, self.workload.name, seed)
            problems = wl.check(self.workload.outputs(outdir), expected)
        except Exception:  # a failing iteration is counted, and the run goes on
            problems = [traceback.format_exc()]
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"FAIL {self.workload.name} seed {seed}: {problems}", file=sys.stderr)
            return None
        return wall

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class Window:
    """Admits at least one step, then each step expected, at the mean pace so
    far, to end within the measuring window, so a run stays close to it."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.steps = 0

    def next(self) -> bool:
        spent = time.perf_counter() - self.start
        if self.steps and spent * (self.steps + 1) / self.steps > self.seconds:
            return False
        self.steps += 1
        return True


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", q1 {q1:.6g}, q3 {q3:.6g}"


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """(metric values, sample counts) of an untraced run."""
    run.iterate()  # warm-up: checked, not timed
    # Timed after the warm-up, as the workload is, so both see a warmed-up machine.
    setup = measure_setup(run.workload.sieve_limit)
    walls = []
    window = Window(seconds)
    while window.next():
        wall = run.iterate()
        if wall is not None:
            walls.append(wall)
    rates = [run.workload.trials / wall for wall in walls]
    # Trials over the summed wall time of the checked iterations, not a median
    # of per-iteration rates: when the host's speed shifts within a run, the
    # median jumps between the slow and fast iterations while this averages.
    values = {
        "trials_per_s": run.workload.trials * len(rates) / sum(walls) if walls else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"trials_per_s = {values['trials_per_s']:.6g} 1/s (over {len(walls)} iterations; "
          f"per-iteration median {statistics.median(rates) if rates else 0.0:.6g}{_quartiles(rates)})")
    print(f"setup_s = {values['setup_s']:.6g} s (median of {len(setup)} processes{_quartiles(setup)})")
    print(f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB (ru_maxrss of the run)")
    return values, {"trials_per_s": len(rates), "setup_s": len(setup), "peak_rss_mb": 1}


def measure_layers(run: Run, seconds: float, spans_path: str) -> tuple[dict, dict]:
    """(per-layer values, sample counts): untraced and traced iterations alternate."""
    tracer = spans.Tracer()
    run.iterate()  # warm-up
    untraced, traced = [], []
    window = Window(seconds)
    while window.next():
        plain = run.iterate()
        with tracer.installed():
            wall = run.iterate()
        tracer.run_id += 1
        if plain is not None and wall is not None:
            untraced.append(plain)
            traced.append(wall)
    values = tracer.per_layer(tracer.run_id)
    values["untraced_wall_s"] = statistics.median(untraced) if untraced else 0.0
    values["traced_wall_s"] = statistics.median(traced) if traced else 0.0
    values["trace_overhead_s"] = values["traced_wall_s"] - values["untraced_wall_s"]
    tracer.dump(spans_path)
    selfs = {k[: -len("_self_s")]: v for k, v in values.items() if k.endswith("_self_s")}
    top = max(selfs, key=selfs.get)
    print(f"largest self time: {top} {selfs[top]:.6g} s of {values['traced_wall_s']:.6g} s traced wall")
    print(f"trace_overhead_s = {values['trace_overhead_s']:.6g} s (median of {len(traced)} pairs)")
    print(f"spans: {len(tracer.spans)} -> {spans_path}")
    return values, {"traced": len(traced)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload; prints its report and returns the result object."""
    wl.load_rmflab()
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = wl.SIZES[size][name]
    threads = 1 if trace else wl.THREADS
    print("env " + json.dumps(environment(seed, threads)))
    run = Run(workload, seed, size, threads, wl.load_golden())
    try:
        if trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
            values, samples = measure_layers(run, seconds, spans_path)
            units = spans.metric_units()
        else:
            values, samples = measure_end_to_end(run, seconds)
            units = END_TO_END
    finally:
        run.close()
    fail_frac = run.failed / run.attempted
    print(f"fail_frac = {fail_frac:.6g} ({run.failed} of {run.attempted} iterations)")
    print("summary " + json.dumps({
        "workload": name, "trials": workload.trials, "samples": samples, "fail_frac": fail_frac,
    }))
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a child process; a table of the results."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.FULL:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=wl.ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {name}\n" + "\n".join(lines[:-1]))
        if proc.returncode != 0:
            raise wl.SetupError(f"{name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        summary = next(json.loads(l[len("summary "):]) for l in lines if l.startswith("summary "))
        rows.append((name, result, summary))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if not trace:
        print(f"{'workload':<20}" + "".join(f"{m + ' (' + u + ')':>24}" for m, u in END_TO_END.items())
              + f"{'fail_frac':>12}")
        for name, result, summary in rows:
            cells = "".join(
                f"{result['metrics'][m]['value']:>16.6g} (n={summary['samples'][m]:>2})"
                for m in END_TO_END
            )
            print(f"{name:<20}{cells}{summary['fail_frac']:>12.3g}")
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.FULL, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (wl.SetupError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
