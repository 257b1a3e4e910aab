"""Span tracing of swapval's layers, installed from the benchmark's own files.

`Tracer.install` replaces the public functions of each layer with timing
wrappers in every swapval module namespace that holds them, so a call made
through any import alias is recorded.  It must run before any pool forks:
forked workers inherit the wrappers, record their own `lifecycle`,
`scheduler` and `lp` spans in memory, and write them to the trace directory
when they exit.  `Tracer.collect` merges every process's spans and
`layer_metrics` derives the per-layer metrics, self times included, from the
span tree.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import statistics
import sys
import time
from multiprocessing import util as mp_util
from typing import NamedTuple

# Public functions timed per layer.  The pass wraps `cli.run_cli` itself.
LAYERS = {
    "config": ("load_config", "emit_config"),
    "market_data": ("load_price_series", "synth_price_series"),
    "optimizers": ("optimize_mdc", "refine_mdc", "sweep_swap_price",
                   "optimize_price_for_curve"),
    "lifecycle": ("simulate_lifecycle",),
    "scheduler": ("solve_day", "build_daily_lp"),
    "lp": ("solve_lp",),
    "report": ("emit_lifecycle", "emit_mdc_sweep", "emit_price_sweep",
               "emit_curve_optima", "emit_eol_sensitivity"),
}
POOL = "optimizers.pool"

# Per-layer metric units, in the order they are printed.  Every one is
# nonzero on every workload: a layer a workload does not use is folded into
# a metric it does use (the two market_data loaders, for instance).
UNITS = {
    "lp.solve_lp.calls": "count",
    "lp.solve_lp.ms_p50": "ms",
    "lp.solve_lp.ms_p99": "ms",
    "lp.solve_lp.total_s": "s",
    "scheduler.build_daily_lp.ms_p50": "ms",
    "scheduler.build_daily_lp.total_s": "s",
    "scheduler.solve_day.calls": "count",
    "scheduler.solve_day.ms_p50": "ms",
    "scheduler.solve_day.ms_p99": "ms",
    "scheduler.solve_day.self_s": "s",
    "lifecycle.simulate_lifecycle.calls": "count",
    "lifecycle.simulate_lifecycle.total_s": "s",
    "lifecycle.self_s": "s",
    "lifecycle.days": "days",
    "lifecycle.days_solved": "days",
    "lifecycle.solved_share": "ratio",
    "lifecycle.ms_per_day": "ms",
    "optimizers.runs_per_unique": "ratio",
    "optimizers.lifecycle_processes": "count",
    "optimizers.parallel_efficiency": "ratio",
    "optimizers.overhead_s": "s",
    "config.load_config.ms": "ms",
    "market_data.ms": "ms",
    "report.emit.ms": "ms",
    "report.bytes": "bytes",
    "cli.run_cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _lifecycle_note(args, kwargs, result):
    """Days lived and an identity key, so duplicate lifecycles can be counted.

    A swap policy with a zero daily cap swaps nothing, so it keys the same
    as no swap policy at all.
    """
    spec, econ, prices, mu = args[:4]
    swap = kwargs.get("swap_policy", args[4] if len(args) > 4 else None)
    reserve = kwargs.get("reserve_enabled", args[5] if len(args) > 5 else True)
    if swap is not None and swap.daily_swap_cap == 0:
        swap = None
    digest = hashlib.blake2b(prices.lmp.tobytes() + prices.reserve_price.tobytes(),
                             digest_size=16).hexdigest()
    key = repr((spec, econ, digest, float(mu), swap, bool(reserve)))
    return {"days": result.days_lived, "key": key}


NOTES = {"lifecycle.simulate_lifecycle": _lifecycle_note}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same process, or -1
    note: dict | None
    proc: str  # "main" for the pass process, else the worker's span file
    pos: int  # index of this span in its process

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one pass process and its forked workers.

    A span is `(name, start, end, parent, note)`: `parent` is the index of the
    enclosing span in the same process, or -1, and `note` is a dict or None.
    """

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.spans: list = []
        self.stack: list[int] = []
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # Runs in a multiprocessing child after its finalizers are reset.
        # The parent's spans are the parent's to report; start empty.
        self.spans.clear()
        self.stack.clear()
        mp_util.Finalize(None, self._flush, exitpriority=100)

    def _flush(self) -> None:
        path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        note = NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[idx] = (name, start, end, parent,
                          note(args, kwargs, result) if note else None)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions wherever swapval imported them."""
        import swapval.cli  # noqa: F401  (imports every layer)
        import swapval.optimizers

        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"swapval.{layer}"]
            for attr in names:
                fn = getattr(module, attr)
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "swapval" and not mod_name.startswith("swapval."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        swapval.optimizers.ProcessPoolExecutor = self._pool_class(
            swapval.optimizers.ProcessPoolExecutor)

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Records one span from pool start to shutdown, with its size."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._trace_span = len(tracer.spans)
                self._trace_parent = tracer.stack[-1] if tracer.stack else -1
                self._trace_workers = max_workers or os.cpu_count() or 1
                self._trace_start = time.perf_counter()
                tracer.spans.append(None)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if tracer.spans[self._trace_span] is None:
                    tracer.spans[self._trace_span] = (
                        POOL, self._trace_start, time.perf_counter(), self._trace_parent,
                        {"workers": self._trace_workers})

        return TracedPool

    def collect(self) -> list[Span]:
        """This process's spans plus every exited worker's, each tagged by process."""
        merged = [Span(*span, "main", pos) for pos, span in enumerate(self.spans)
                  if span is not None]
        for path in sorted(glob.glob(os.path.join(self.trace_dir, "spans-*.json"))):
            with open(path, encoding="utf-8") as fh:
                proc = os.path.basename(path)
                merged.extend(Span(*span, proc, pos) for pos, span in enumerate(json.load(fh))
                              if span is not None)
        return merged


def _pct(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans: list[Span], report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but `trace.overhead_ratio`).

    A span's `parent` indexes its own process's span list, so its self time
    is its duration minus its direct children's in that process.  The
    `optimizers` metrics cover every lifecycle of the study, in a pool
    worker or in the pass process, so a study without a pool has them too.
    """
    by_name: dict[str, list[Span]] = {}
    child_s: dict[tuple[str, int], float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent >= 0:
            child_s[s.proc, s.parent] = child_s.get((s.proc, s.parent), 0.0) + s.seconds

    def durations(name):
        return [s.seconds for s in by_name.get(name, [])]

    def total(name):
        return sum(durations(name))

    def self_total(name):
        return sum(s.seconds - child_s.get((s.proc, s.pos), 0.0) for s in by_name.get(name, []))

    solve_lp = durations("lp.solve_lp")
    solve_day = durations("scheduler.solve_day")
    lifecycles = by_name.get("lifecycle.simulate_lifecycle", [])
    days = sum(s.note["days"] for s in lifecycles if s.note)
    solved = len(solve_day)
    unique = len({s.note["key"] for s in lifecycles if s.note})
    # Lifecycles run at once: the largest pool, or one without a pool.
    workers = max((s.note["workers"] for s in by_name.get(POOL, [])), default=1)
    busy = total("lifecycle.simulate_lifecycle")
    run_cli_s = total("cli.run_cli")

    return {
        "lp.solve_lp.calls": len(solve_lp),
        "lp.solve_lp.ms_p50": _pct(solve_lp, 0.50) * 1e3,
        "lp.solve_lp.ms_p99": _pct(solve_lp, 0.99) * 1e3,
        "lp.solve_lp.total_s": sum(solve_lp),
        "scheduler.build_daily_lp.ms_p50":
            _pct(durations("scheduler.build_daily_lp"), 0.50) * 1e3,
        "scheduler.build_daily_lp.total_s": total("scheduler.build_daily_lp"),
        "scheduler.solve_day.calls": solved,
        "scheduler.solve_day.ms_p50": _pct(solve_day, 0.50) * 1e3,
        "scheduler.solve_day.ms_p99": _pct(solve_day, 0.99) * 1e3,
        "scheduler.solve_day.self_s": self_total("scheduler.solve_day"),
        "lifecycle.simulate_lifecycle.calls": len(lifecycles),
        "lifecycle.simulate_lifecycle.total_s": busy,
        "lifecycle.self_s": self_total("lifecycle.simulate_lifecycle"),
        "lifecycle.days": days,
        "lifecycle.days_solved": solved,
        "lifecycle.solved_share": solved / days if days else 0.0,
        "lifecycle.ms_per_day": busy * 1e3 / days if days else 0.0,
        "optimizers.runs_per_unique": len(lifecycles) / unique if unique else 0.0,
        "optimizers.lifecycle_processes": len({s.proc for s in lifecycles}),
        "optimizers.parallel_efficiency": busy / (run_cli_s * workers) if run_cli_s else 0.0,
        "optimizers.overhead_s": run_cli_s * workers - busy,
        "config.load_config.ms": total("config.load_config") * 1e3,
        "market_data.ms": sum(total(f"market_data.{n}") for n in LAYERS["market_data"]) * 1e3,
        "report.emit.ms": sum(total(f"report.{n}") for n in LAYERS["report"]) * 1e3,
        "report.bytes": report_bytes,
        "cli.run_cli.self_s": self_total("cli.run_cli"),
    }
