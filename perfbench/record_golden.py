"""Record the expected outputs of every workload seed into golden.json.

    python3 perfbench/record_golden.py

Runs each workload, at full and tiny size, once per seed of the golden table
at the benchmark's thread count, and stores what ``Workload.outputs`` reads
back.  Re-record only when a change to rmflab alters its outputs on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import workloads as wl


def main() -> int:
    wl.load_rmflab()
    workdir = os.path.join(wl.ROOT, ".perfbench_out", "record")
    golden = {}
    for size, table in wl.SIZES.items():
        for name, workload in table.items():
            entries = golden.setdefault(size, {}).setdefault(name, {})
            for k in range(wl.GOLDEN_SEEDS):
                seed = wl.FIRST_SEED + k
                outdir = os.path.join(workdir, f"{size}-{name}-{seed}")
                workload.run(seed, outdir, wl.THREADS)
                outputs = workload.outputs(outdir)
                if outputs.pop("triangle_ok", True) is not True:
                    raise SystemExit(f"{name} seed {seed}: triangle inequality violated")
                entries[str(seed)] = outputs
                shutil.rmtree(outdir)
                print(f"{size} {name} {seed}", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
