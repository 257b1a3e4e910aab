"""Quick self-test of the benchmark on tiny studies (about 90 s).

    python3 perfbench/selftest.py

Records references for tiny versions of every workload, then checks that
each run prints every metric of BENCHMARK.json by name with its unit, in the
human-readable lines and in the final JSON line, with and without tracing;
that no metric reads 0; that the traced sweeps hold lifecycle spans from
their pool workers; and that the correctness gate trips, naming the
workload and grid point, when a reference value is perturbed.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import record_references
import run
import workloads

# One grid point per workload whose reference lb_star is perturbed.
PERTURBED = {
    "lifecycle-busy": "mu=35.0",
    "mdc-sweep": "mu=50.0",
    "curve-sweep": "curve=(-10.0,180.0) price=160.0",
}

# Workloads whose lifecycles run in a process pool.
SWEEPS = ("mdc-sweep", "curve-sweep")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def bench(workload: str, trace: int, references: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny",
         "--references", references],
        capture_output=True, text=True, timeout=170, check=False)
    check(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}: "
                                f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload: str, trace: int, lines: list[str], result: dict,
                  declared: dict[str, str]) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace {trace}: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    check(set(result["metrics"]) == set(declared),
          f"{workload} trace {trace}: metrics {sorted(result['metrics'])} "
          f"!= BENCHMARK.json {sorted(declared)}")
    printed = "\n".join(lines)
    for name, unit in declared.items():
        metric = result["metrics"][name]
        check(metric["unit"] == unit, f"{workload}: {name} unit {metric['unit']!r} != {unit!r}")
        check(isinstance(metric["value"], (int, float)), f"{workload}: {name} not a number")
        check(re.search(rf"^{re.escape(name)} = \S+ {re.escape(unit)}\b", printed, re.M),
              f"{workload} trace {trace}: {name} not printed with unit {unit}")
    zero = sorted(name for name, metric in result["metrics"].items() if metric["value"] == 0)
    check(not zero, f"{workload} trace {trace}: metrics read 0: {zero}")
    if trace and workload in SWEEPS:
        # The sweeps run their lifecycles in pool workers, so these come only
        # from the workers' span files.
        check(result["metrics"]["optimizers.lifecycle_processes"]["value"] >= 2,
              f"{workload}: no lifecycle spans from pool workers")
    if not trace:
        check(re.search(r"^failed_ratio = 0 fraction \(0 of \d+ passes\)$", printed, re.M),
              f"{workload}: failed_ratio line missing")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench_spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench_spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench_spec["per_layer"]},
    }
    check({w["name"] for w in bench_spec["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    work = os.path.join(run.WORK_ROOT, f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        refs_path = os.path.join(work, "references.json")
        refs = record_references.record(2, refs_path, tiny=True)
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                lines, result = bench(workload, trace, refs_path)
                check_metrics(workload, trace, lines, result, declared[trace])
            print(f"ok {workload}: every metric printed with its unit")

        bad = json.loads(json.dumps(refs))
        for workload, point in PERTURBED.items():
            # Seed 3 reads input seed 3 mod 2 = 1.
            bad["workloads"][workload]["1"]["checks"][point]["lb_star"] *= 1.001
        bad_path = os.path.join(work, "perturbed.json")
        with open(bad_path, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        for workload, point in PERTURBED.items():
            lines, result = bench(workload, 0, bad_path)
            check(not result["correct"] and result["failed"] == result["attempted"],
                  f"{workload}: perturbed reference not caught: {result}")
            check(any(line.startswith(f"FAIL {workload} seed 3 {point}: lb_star")
                      for line in lines),
                  f"{workload}: failure does not name the grid point {point}")
            print(f"ok {workload}: gate trips at {point}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
