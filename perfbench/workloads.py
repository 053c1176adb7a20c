"""The benchmark workloads: generated inputs, one timed run, and its check.

A workload iteration is one closed-loop unit of work a researcher waits for:
one rmflab experiment command (``run_experiment`` + ``write_experiment``),
run in-process through ``cli.parse_and_dispatch``.  The benchmark hands
rmflab only generated CLI argv; every iteration's files are then read back
and checked against digests recorded in ``golden.json``.

Inputs come from a table of ``GOLDEN_SEEDS`` experiment seeds whose outputs
were recorded by ``record_golden.py``; the workload seed picks the order in
which a run walks through that table, so the same workload seed always gives
the same inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

#: Number of experiment seeds whose outputs golden.json records per workload.
GOLDEN_SEEDS = 16
#: Experiment seed k of the golden table is FIRST_SEED + k.
FIRST_SEED = 1000
#: Worker threads of the untraced runs: the CLI default on the 2-core
#: reference host, fixed so the workload does not change with the machine.
THREADS = 2
#: harper_witness depends on a BLAS matrix product (see README); it is
#: checked to this relative tolerance instead of by digest.
WITNESS_RTOL = 1e-6


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


def load_rmflab():
    """Import rmflab from the checkout's src/ and nowhere else."""
    init = os.path.join(SRC, "rmflab", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError(f"no rmflab sources at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import rmflab

    if os.path.abspath(rmflab.__file__) != init:
        raise SetupError(f"rmflab imported from {rmflab.__file__}, expected {init}")
    return rmflab


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: The rmflab experiment command.
    kind: str
    model: str
    alpha: float
    limit: int
    #: Realizations per iteration.
    trials: int
    sigma_grid: tuple[float, ...] | None = None
    prime_limit: int | None = None

    @property
    def sieve_limit(self) -> int:
        return max(self.limit, self.prime_limit or 2, 2)

    def seeds(self, workload_seed: int) -> list[int]:
        """Experiment seeds of one run, in order: a permutation of the table."""
        order = random.Random(workload_seed).sample(range(GOLDEN_SEEDS), GOLDEN_SEEDS)
        return [FIRST_SEED + k for k in order]

    def argv(self, seed: int, outdir: str, threads: int) -> list[str]:
        """The rmflab command line of one iteration."""
        argv = [
            self.kind, "--model", self.model, "--alpha", repr(self.alpha),
            "--limit", str(self.limit), "--trials", str(self.trials), "--seed", str(seed),
            "--threads", str(threads), "--out", outdir,
        ]
        if self.sigma_grid is not None:
            argv += ["--sigma-grid", ",".join(map(repr, self.sigma_grid))]
        if self.prime_limit is not None:
            argv += ["--prime-limit", str(self.prime_limit)]
        return argv

    def run(self, seed: int, outdir: str, threads: int) -> float:
        """One iteration into outdir; returns its wall time in seconds."""
        from rmflab.cli import parse_and_dispatch

        printed = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            code = parse_and_dispatch(self.argv(seed, outdir, threads))
        wall = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"{self.kind} exit code {code}: {printed.getvalue()[-500:]}")
        return wall

    def outputs(self, outdir: str) -> dict:
        """What the check compares: CSV digests and, for divergence, the
        BLAS-dependent witness column kept apart from its exact columns."""
        path = os.path.join(outdir, "trials.csv")
        if self.kind != "divergence":
            return {"trials.csv": sha256_file(path)}
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("harper_witness")
        exact = "".join(",".join(r[:col] + r[col + 1 :]) + "\n" for r in rows)
        return {
            "trials.csv-without-witness": hashlib.sha256(exact.encode()).hexdigest(),
            "harper_witness": [float(r[col]) for r in rows[1:]],
            "triangle_ok": all(
                float(r[rows[0].index("absolute")]) >= abs(float(r[rows[0].index("signed")]))
                for r in rows[1:]
            ),
        }


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check(outputs: dict, expected: dict | None) -> list[str]:
    """Problems with one iteration's outputs; empty when they are correct.

    Digests must match exactly.  Each harper_witness value must lie within
    WITNESS_RTOL of the recorded one, be finite and positive, and every row
    must satisfy the triangle inequality absolute >= |signed|.
    """
    if expected is None:
        return ["no recorded outputs for this seed"]
    problems = []
    if outputs.get("triangle_ok") is False:
        problems.append("triangle inequality absolute >= |signed| violated")
    for key, want in expected.items():
        got = outputs.get(key)
        if key == "harper_witness":
            if got is None or len(got) != len(want):
                problems.append("harper_witness: wrong row count")
                continue
            for i, (g, w) in enumerate(zip(got, want)):
                if not (math.isfinite(g) and g > 0 and abs(g - w) <= WITNESS_RTOL * abs(w)):
                    problems.append(f"harper_witness row {i + 1}: {g!r} vs recorded {w!r}")
                    break
        elif got != want:
            problems.append(f"{key}: {got!r} != recorded {want!r}")
    return problems


#: Two workloads, so each run can be long enough to average over the host's
#: slow and fast phases; between them they reach all eight rmflab modules.
#: The smaller-trial positivity shape and the series + replay output path
#: spread past the throughput bound on a shared 2-vCPU host and are left out.
FULL = {
    w.name: w
    for w in (
        Workload(
            "sign-changes-1e6",
            "paper-scale M_alpha sign changes: per-n work in values_up_to dominates, "
            "working set beyond L2, few trials",
            "sign-changes", "fstar", 0.25, 10**6, 16,
        ),
        Workload(
            "divergence-1e5",
            "signed vs absolute Mellin table: the cosine sup scan dominates; only "
            "workload on mellin and Euler products",
            "divergence", "f", 0.5, 10**5, 20,
            sigma_grid=(0.56, 0.54, 0.52), prime_limit=10**5,
        ),
    )
}

#: The same workloads at a size that runs in well under a second, for tests.
TINY = {
    "sign-changes-1e6": Workload("sign-changes-1e6", "", "sign-changes", "fstar", 0.25, 3000, 4),
    "divergence-1e5": Workload(
        "divergence-1e5", "", "divergence", "f", 0.5, 2000, 2,
        sigma_grid=(0.56, 0.54, 0.52), prime_limit=2000,
    ),
}

SIZES = {"full": FULL, "tiny": TINY}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def expected_outputs(golden: dict, size: str, name: str, seed: int) -> dict | None:
    return golden.get(size, {}).get(name, {}).get(str(seed))
