#!/usr/bin/env python3
"""Record the reference outputs that every benchmark op is checked against.

    python3 corrbench/record_references.py

Runs one op of each workload for every input seed 0 .. REFERENCE_SEEDS - 1
and writes corrbench/references/<workload>.json, stamped with the commit and
source digest it was recorded at.  The stored references were recorded at
the commit that introduced the benchmark; a later change whose outputs
legitimately differ must say why when it records them again.
"""

import json
import shutil
import sys

import run  # pins the BLAS thread count before numpy is imported


def main() -> int:
    workloads = run.import_workloads()
    env = run.environment()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in run.WORKLOAD_NAMES:
        wl_class = workloads.WORKLOADS[name]
        seeds = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            workdir = run.make_workdir()
            try:
                out = wl_class(seed, workdir, run.ROOT).op()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            seeds[str(seed)] = wl_class.reference(out)
            bad, units = wl_class.units(out)
            print(f"{name} seed {seed}: {bad}/{units} failed units")
        record = {
            "workload": name,
            "recorded_at": {"git_sha": env["git_sha"], "source_sha256": env["source_sha256"]},
            "seeds": seeds,
        }
        (workloads.REFERENCE_DIR / f"{name}.json").write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
