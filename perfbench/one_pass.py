"""One benchmark pass in a fresh process: set up, then run one CLI study.

    python3 perfbench/one_pass.py WORKLOAD INPUT_SEED WORK_DIR TRACE [--tiny] [--setup-only]

Set-up is what a user pays before a study starts: importing `swapval` with
its numpy/scipy stack, plus generating the workload's inputs.  The pass then
times one `swapval.cli.run_cli` call, from call to return with reports
written, and writes everything it measured to WORK_DIR/pass.json.  With
TRACE=1 it wraps the layers' public functions first (see tracing.py).
`--setup-only` stops after set-up.  Needs `src` of the checkout on
PYTHONPATH; run.py sets it.
"""

import json
import multiprocessing
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def main(argv: list[str]) -> int:
    workload, input_seed, work_dir, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    tiny, setup_only = "--tiny" in argv, "--setup-only" in argv

    start = time.perf_counter()
    import numpy
    import scipy
    import scipy.optimize  # noqa: F401
    import swapval.cli
    import_s = time.perf_counter() - start
    source = os.path.dirname(os.path.abspath(swapval.__file__))
    if source != os.path.join(ROOT, "src", "swapval"):
        print(f"swapval imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    import workloads

    start = time.perf_counter()
    study = workloads.prepare(workload, input_seed, work_dir, tiny=tiny)
    gen_s = time.perf_counter() - start
    report = {
        "import_s": import_s, "gen_s": gen_s, "setup_s": import_s + gen_s,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "start_method": multiprocessing.get_start_method(),
    }
    if not setup_only:
        out = os.path.join(work_dir, "out")
        run_cli = swapval.cli.run_cli
        tracer = None
        if trace:
            import tracing

            trace_dir = os.path.join(work_dir, "spans")
            os.makedirs(trace_dir)
            tracer = tracing.Tracer(trace_dir)
            tracer.install()
            run_cli = tracer.wrap("cli.run_cli", run_cli)
        start = time.perf_counter()
        try:
            report["exit_code"] = run_cli(study + ["--out", out])
        except Exception:
            report["exit_code"] = None
            report["error"] = traceback.format_exc()
        report["wall_s"] = time.perf_counter() - start
        report["argv"] = study
        if tracer is not None and report["exit_code"] == 0:
            report["layers"] = tracing.layer_metrics(tracer.collect(), _dir_bytes(out))
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(work_dir, "pass.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
