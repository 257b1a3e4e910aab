"""swapval benchmark: three CLI studies, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it uses the checkout it sits in.  Each pass is one CLI
study, `swapval.cli.run_cli` in a fresh process (one_pass.py), while this
process samples the resident memory of the pass and its pool workers.
Passes repeat until the next one, and the set-up samples still owed,
would end after S seconds (at least two passes run).  With `--trace 0` the
last line of output reports the end-to-end metrics, medians over the
passes: set-up time (over at least 11 samples, one from each pass and the
rest from set-up-only processes), pass wall time, simulated days per second
and peak memory.  With `--trace 1` passes alternate untraced and traced,
and it reports the per-layer metrics of the traced passes and the tracing
overhead.  Every pass is checked against reference
values (references.json); a miss names the workload and grid point and
counts as a failed pass.

Inputs come from input seed N mod the number of recorded reference seeds,
so every seed has references.  Exits 2 without a result line when the
program cannot be set up (for example when `src/` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
REFERENCES = os.path.join(HERE, "references.json")

# Two lifecycle workers on two cores, one BLAS/OpenMP thread per process, so
# the numbers measure the program rather than the CPU scheduler.
PINNED_ENV = {
    "SWAPVAL_THREADS": "2",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "sim_days_per_s": "days/s", "peak_rss_mb": "MB"}
# Set-up samples per run: every pass gives one and a set-up-only process
# follows each pass; more set-up-only processes make up the rest.
SETUP_SAMPLES = 11
# A median of one pass is a single sample; mdc-sweep passes take about half a run.
MIN_PASSES = 2
PASS_TIMEOUT_S = 170.0
SAMPLE_INTERVAL_S = 0.05


class PassError(RuntimeError):
    """A pass process died or could not set up, so it wrote no report."""


def _read_status(pid: int) -> tuple[int, int]:
    """(VmRSS in KiB, thread count) of a live process, or (0, 0)."""
    rss = threads = 0
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    rss = int(line.split()[1])
                elif line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return rss, threads


def _tree(pid: int) -> list[int]:
    """A process and all its live descendants."""
    found, todo = [], [pid]
    while todo:
        p = todo.pop()
        found.append(p)
        try:
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children", encoding="ascii") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            pass
    return found


def _group_members(pgid: int) -> list[int]:
    members = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat", encoding="ascii", errors="replace") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except (FileNotFoundError, ProcessLookupError):
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                members.append(int(name))
    return members


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a pass's process group and wait until it is gone."""
    for _ in range(200):
        if not _group_members(pgid):
            return
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_pass(workload: str, input_seed: int, work_dir: str, trace: bool, tiny: bool,
             setup_only: bool = False) -> dict:
    """Run one_pass.py in a fresh process and return its report.

    Adds `peak_rss_kb`, the largest sampled sum of resident memory over the
    pass process and its workers (at least the pass process's own peak), and
    `threads_max`, the most threads seen in any one of them.  Raises
    PassError when the pass process exits without a report.
    """
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), workload, str(input_seed),
           work_dir, "1" if trace else "0"]
    cmd += ["--tiny"] if tiny else []
    cmd += ["--setup-only"] if setup_only else []
    env = dict(os.environ, **PINNED_ENV, PYTHONPATH=os.path.join(ROOT, "src"))
    log_path = os.path.join(work_dir, "pass.log")
    peak_kb = threads_max = 0
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        deadline = time.monotonic() + PASS_TIMEOUT_S
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    break
                total = 0
                for pid in _tree(proc.pid):
                    rss, threads = _read_status(pid)
                    total += rss
                    threads_max = max(threads_max, threads)
                peak_kb = max(peak_kb, total)
                time.sleep(SAMPLE_INTERVAL_S)
        finally:
            _stop_group(proc.pid)
            proc.wait()
    report_path = os.path.join(work_dir, "pass.json")
    if proc.returncode != 0 or not os.path.exists(report_path):
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise PassError(f"pass process exited with {proc.returncode}:\n{tail}")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["peak_rss_kb"] = max(peak_kb, report["maxrss_kb"])
    report["threads_max"] = threads_max
    return report


def check_pass(workload: str, seed: int, report: dict, work_dir: str,
               reference: dict) -> list[str]:
    """Correctness gate: exit code 0 and every output value at its reference."""
    if report.get("exit_code") != 0:
        detail = report.get("error") or f"exit code {report.get('exit_code')}"
        return [f"{workload} seed {seed}: study failed: {detail.strip()}"]
    try:
        got = workloads.extract_checks(workload, os.path.join(work_dir, "out"))
    except (OSError, KeyError, ValueError) as exc:
        return [f"{workload} seed {seed}: unreadable output: {exc!r}"]
    return workloads.compare(workload, seed, got, reference["checks"])


def _setup_sample(workload: str, input_seed: int, pass_dir: str, tiny: bool) -> float:
    return run_pass(workload, input_seed, pass_dir, False, tiny, setup_only=True)["setup_s"]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _environment(report: dict, threads_max: int) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        **PINNED_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        **report["versions"],
        "start_method": report["start_method"],
        "threads_per_process_max": threads_max,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            references_path: str = REFERENCES) -> dict:
    """Run the passes of one benchmark run and return its summary."""
    with open(references_path, encoding="utf-8") as fh:
        refs = json.load(fh)
    input_seed = seed % refs["input_seeds"]
    reference = refs["workloads"][workload][str(input_seed)]
    run_dir = os.path.join(WORK_ROOT, f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}")
    pass_dir = os.path.join(run_dir, "pass")
    try:
        # Warm-up: compiles bytecode and fills the file cache; not measured.
        began = time.monotonic()
        first = run_pass(workload, input_seed, pass_dir, False, tiny, setup_only=True)
        setup_cost = time.monotonic() - began
        setups, plain, traced, misses = [], [], [], []
        # A traced run reports no set-up time.
        setup_samples = 0 if trace else SETUP_SAMPLES
        threads_max = 0
        start = time.monotonic()
        while True:
            began = time.monotonic()
            for is_traced in ((False, True) if trace else (False,)):
                try:
                    report = run_pass(workload, input_seed, pass_dir, is_traced, tiny)
                except PassError as exc:
                    report = {"exit_code": None, "error": str(exc)}
                else:
                    setups.append(report["setup_s"])
                    threads_max = max(threads_max, report["threads_max"])
                failed = check_pass(workload, seed, report, pass_dir, reference)
                report["failed"] = bool(failed)
                misses.extend(failed)
                (traced if is_traced else plain).append(report)
                if not trace:
                    # Set-up samples spread over the run, not bunched at its end.
                    setups.append(_setup_sample(workload, input_seed, pass_dir, tiny))
            now = time.monotonic()
            # The next round adds two set-up samples; time the rest it leaves owed.
            owed = max(0, setup_samples - len(setups) - 2) * setup_cost
            if (len(plain) + len(traced) >= MIN_PASSES
                    and now - start + (now - began) + owed > seconds):
                break
        while len(setups) < setup_samples:
            setups.append(_setup_sample(workload, input_seed, pass_dir, tiny))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    good = [r for r in plain if not r["failed"]]
    walls = [r["wall_s"] for r in good]
    summary = {
        "workload": workload, "seed": seed, "input_seed": input_seed, "trace": int(trace),
        "seconds": seconds,
        "environment": _environment(first, threads_max),
        "attempted": len(plain) + len(traced),
        "failed": sum(r["failed"] for r in plain + traced),
        "misses": misses,
        "samples": {"setup_s": setups, "wall_s": walls},
        "end_to_end": {
            "setup_s": _median(setups),
            "wall_s": _median(walls),
            "sim_days_per_s": _median([reference["study_days"] / w for w in walls]),
            "peak_rss_mb": _median([r["peak_rss_kb"] * 1024 / 1e6 for r in good]),
        },
        "passes": plain + traced,
    }
    if trace:
        layered = [r["layers"] for r in traced if "layers" in r]
        layers = {name: _median([m[name] for m in layered])
                  for name in tracing.UNITS if name != "trace.overhead_ratio"}
        traced_walls = [r["wall_s"] for r in traced if not r["failed"]]
        layers["trace.overhead_ratio"] = (_median(traced_walls) / _median(walls) - 1.0
                                          if traced_walls and walls else 0.0)
        summary["per_layer"] = layers
    return summary


def _print_summary(summary: dict) -> None:
    n_plain = len(summary["samples"]["wall_s"])
    print(f"perfbench workload={summary['workload']} seed={summary['seed']} "
          f"input_seed={summary['input_seed']} trace={summary['trace']}")
    print("environment " + json.dumps(summary["environment"], sort_keys=True))
    for miss in summary["misses"]:
        print(f"FAIL {miss}")
    counts = {"setup_s": len(summary["samples"]["setup_s"])}
    for name, unit in END_TO_END.items():
        n = counts.get(name, n_plain)
        print(f"{name} = {summary['end_to_end'][name]:.6g} {unit} (median of {n})")
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"failed_ratio = {failed / attempted:.6g} fraction ({failed} of {attempted} passes)")
    for name, value in summary.get("per_layer", {}).items():
        print(f"{name} = {value:.6g} {tracing.UNITS[name]}")


def result_line(summary: dict) -> dict:
    if summary["trace"]:
        metrics = {name: {"value": value, "unit": tracing.UNITS[name]}
                   for name, value in summary["per_layer"].items()}
    else:
        metrics = {name: {"value": summary["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The self-test's tiny studies and their own references.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--references", default=REFERENCES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                          tiny=args.tiny, references_path=args.references)
    except PassError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    results = os.path.join(WORK_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    with open(os.path.join(results, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    _print_summary(summary)
    print(json.dumps(result_line(summary)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
