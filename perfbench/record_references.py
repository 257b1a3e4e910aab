"""Record the correctness gate's reference values.

    python3 perfbench/record_references.py

Runs one traced pass of every workload for each input seed 0..9 and
writes, per workload and seed, the checked output values and the study's
simulated days (the sum of `days_lived` over every lifecycle the study runs,
which `sim_days_per_s` divides by the pass wall time).  Rerun it only when a
change is meant to move the checked values, and say so where the change is
described.
"""

from __future__ import annotations

import json
import os
import shutil

import run
import workloads


def record(seeds: int, out: str, tiny: bool = False) -> dict:
    refs = {"input_seeds": seeds, "workloads": {}}
    work_dir = os.path.join(run.WORK_ROOT, f"record-{os.getpid()}")
    try:
        for workload in workloads.WORKLOADS:
            per_seed = refs["workloads"][workload] = {}
            for seed in range(seeds):
                report = run.run_pass(workload, seed, work_dir, True, tiny)
                if report.get("exit_code") != 0:
                    raise SystemExit(f"{workload} seed {seed} failed: {report}")
                per_seed[str(seed)] = {
                    "study_days": report["layers"]["lifecycle.days"],
                    "checks": workloads.extract_checks(workload,
                                                       os.path.join(work_dir, "out")),
                }
                print(f"{workload} seed {seed}: {per_seed[str(seed)]['study_days']} days, "
                      f"{report['wall_s']:.2f} s traced", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return refs


def main() -> None:
    record(10, run.REFERENCES)


if __name__ == "__main__":
    main()
