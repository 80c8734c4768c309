#!/usr/bin/env python3
"""Benchmark of selfdistill's training workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload baseline --seed 0 --seconds 26 --trace 0

Workloads (see ``bench_workloads.py``): ``baseline``, ``sda_k5`` and
``sdv_k5`` each time one 4-epoch ``fine_tune``; ``stability`` times one
1-epoch stability study over the four strategies and two data orders.

With ``--trace 0`` the timed call repeats, untraced, until ``--seconds``
would be exceeded (at least once), and the end-to-end metrics are printed.
With ``--trace 1`` untraced and traced calls alternate (at least one each),
the layer boundaries are wrapped by ``bench_trace.LayerTracer``, and the
per-layer metrics are printed. Every call's outputs are checked; a failed
check makes the exit code 1. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. A full record,
with the environment, goes to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
from bench_micro import MICRO_METRICS, time_primitives
from bench_trace import AUTODIFF_PRIMS, LayerTracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
DEFAULT_SEED = 0
WORKLOADS = ("baseline", "sda_k5", "sdv_k5", "stability")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"wall_s": "s", "examples_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# per-layer metrics read straight off the spans: (span name, fields)
SPAN_METRICS = (
    [(f"distill.{f}", ("calls", "busy_s", "self_s"))
     for f in ("train_step", "sda_teacher", "sdv_teacher_logits", "evaluate_params")]
    + [(f"encoder.{f}", ("calls", "busy_s", "self_s"))
       for f in ("classify_train", "classify_eval", "predict_proba")]
    + [(f"autodiff.{p}", ("calls", "busy_s")) for p in AUTODIFF_PRIMS + ("backward",)]
    + [(s, ("calls", "busy_s")) for s in ("optim.adamw_step", "optim.accumulate",
                                          "ensemble.window_mean",
                                          "ensemble.ring_push")]
    + [("harness.fine_tune", ("calls", "busy_s", "self_s"))]
)
DERIVED_METRICS = (
    "distill.step_ms.p50", "distill.step_ms.p99",
    "distill.counters.student_forwards", "distill.counters.teacher_forwards",
    "distill.unaccounted_s", "encoder.tape_nodes_per_forward",
    "encoder.params_copy.calls", "ensemble.window_mean.useful_ratio",
    "data.batch_wait_s", "data.batches", "harness.build_task.busy_s",
    "harness.overhead_s", "harness.cell_parallelism",
    "trace.wall_s", "trace.overhead_s", "trace.spans",
)
PER_LAYER = ([f"{span}.{f}" for span, fields in SPAN_METRICS for f in fields]
             + list(DERIVED_METRICS) + list(MICRO_METRICS))


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_ms") or ".step_ms." in metric:
        return "ms"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_parallelism")):
        return "ratio"
    return "count"


def import_library():
    """Put the checkout's ``src`` first on the path and import from it."""
    if not (SRC / "selfdistill" / "__init__.py").is_file():
        sys.exit(f"benchmark: library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import selfdistill
    if Path(selfdistill.__file__).resolve().parent != SRC / "selfdistill":
        sys.exit(f"benchmark: imported selfdistill from {selfdistill.__file__}, "
                 f"not from {SRC}")
    return selfdistill


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import bench_workloads
bench_workloads.build_task(int(sys.argv[3]))
print(time.perf_counter() - t0)
"""


def measure_setup(seed: int) -> list[float]:
    """Import plus task build, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR), str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Runner:
    """Times units of one workload and collects their check results."""

    def __init__(self, workload):
        self.workload = workload
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.accuracies: list[float] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run(self, tracer=None) -> bool:
        """One timed unit, traced when a tracer is given; returns False
        once a unit has failed."""
        self.attempted += 1
        problems = []
        t0 = perf_counter()
        try:
            outcome = self.workload.unit()
        except Exception:  # a crash of the program under test is a failed unit
            wall = perf_counter() - t0
            problems.append(traceback.format_exc())
        else:
            wall = perf_counter() - t0
            problems += outcome.problems
            if self.accuracies and outcome.accuracy != self.accuracies[0]:
                problems.append(f"accuracy {outcome.accuracy!r} differs from the "
                                f"first call's {self.accuracies[0]!r} (same seed)")
            self.accuracies.append(outcome.accuracy)
        if tracer is not None:
            expected = self.workload.expected()
            got = tracer.counters[-len(expected):]
            if got != expected:
                problems.append(f"counters {got} != expected {expected}")
        self.walls[tracer is not None].append(wall)
        if problems:
            self.failed += 1
            self.problems += problems
            for p in problems:
                print(f"CHECK FAILED: {p}", file=sys.stderr)
        return not problems


def end_to_end(runner: Runner, seconds: float, setup: list[float]) -> dict:
    start = perf_counter()
    while runner.run():
        walls = runner.walls[False]
        if perf_counter() - start + median(walls) > seconds:
            break
    walls = runner.walls[False]
    w = runner.workload
    return {
        "wall_s": median(walls),
        "examples_per_s": median(w.examples / t for t in walls),
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(sd, runner: Runner, seconds: float, seed: int, spans_path) -> dict:
    micro = time_primitives(sd.autodiff, seed)
    tracer = LayerTracer()
    start = perf_counter()
    ok = True
    while ok:
        if len(runner.walls[True]) < len(runner.walls[False]):
            tracer.install_layers(sd)
            try:
                ok = runner.run(tracer)
            finally:
                stuck = tracer.restore()
            if stuck:
                print(f"CHECK FAILED: attributes not restored: {stuck}",
                      file=sys.stderr)
                runner.problems.append(f"attributes not restored: {stuck}")
                runner.failed += ok   # the call counts as failed once
                ok = False
        else:
            ok = runner.run()
        plain, traced_walls = runner.walls[False], runner.walls[True]
        if traced_walls and (perf_counter() - start
                             + median(plain + traced_walls) > seconds):
            break
    tracer.save(spans_path)

    traced_walls, plain = runner.walls[True], runner.walls[False]
    n = max(len(traced_walls), 1)
    wall = sum(traced_walls) / n
    tot = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0},
                      {name: {k: v / n for k, v in row.items()}
                       for name, row in tracer.totals().items()})
    m = {f"{span}.{f}": tot[span][f] for span, fields in SPAN_METRICS for f in fields}
    steps = tracer.durations("distill.train_step") * 1e3
    p50, p99 = np.percentile(steps, [50, 99]) if steps.size else (0.0, 0.0)
    counters = tracer.counters
    window_calls = tot["ensemble.window_mean"]["calls"] * n
    m.update({
        "distill.step_ms.p50": float(p50),
        "distill.step_ms.p99": float(p99),
        "distill.counters.student_forwards":
            sum(c["student_forwards"] for c in counters) / n,
        "distill.counters.teacher_forwards":
            sum(c["teacher_forwards"] for c in counters) / n,
        "distill.unaccounted_s": wall - tot["distill.train_step"]["busy_s"]
            - tot["distill.evaluate_params"]["busy_s"] - tot["data.next"]["busy_s"],
        "encoder.tape_nodes_per_forward":
            float(median(tracer.tape_nodes)) if tracer.tape_nodes else 0.0,
        "encoder.params_copy.calls": tot["encoder.params_copy"]["calls"],
        "ensemble.window_mean.useful_ratio":
            tracer.window_useful / window_calls if window_calls else 0.0,
        "data.batch_wait_s": tot["data.next"]["busy_s"],
        "data.batches": tracer.train_batches / n,
        "harness.build_task.busy_s": tot["harness.build_task"]["busy_s"],
        "harness.overhead_s": wall - tot["harness.fine_tune"]["busy_s"]
            - tot["harness.build_task"]["busy_s"],
        "harness.cell_parallelism":
            tot["harness.fine_tune"]["busy_s"] / wall if wall else 0.0,
        "trace.wall_s": wall,
        "trace.overhead_s": median(traced_walls) - median(plain)
            if traced_walls and plain else 0.0,
        "trace.spans": len(tracer.start) / n,
    })
    m.update(micro)
    return {name: m[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs every workload in turn, each in its "
                             "own interpreter")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed: dataset, init and data order "
                             f"(default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return max([subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS])

    sd = import_library()
    sys.path.insert(1, str(BENCH_DIR))
    import bench_workloads

    env = environment()
    setup = measure_setup(args.seed)
    workload = bench_workloads.make(args.workload, args.seed)
    workload.prepare()
    runner = Runner(workload)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = per_layer(sd, runner, args.seconds, args.seed,
                            stem.with_suffix(".spans.npz"))
    else:
        metrics = end_to_end(runner, args.seconds, setup)

    failed_fraction = runner.failed / runner.attempted
    record = {
        "workload": args.workload, "trace": args.trace,
        "seed": args.seed, "default_seed": DEFAULT_SEED,
        "seeds": bench_workloads.seeds(args.seed),
        "environment": env, "setup_s": setup,
        "unit_walls_s": {"untraced": runner.walls[False],
                         "traced": runner.walls[True]},
        "accuracies": runner.accuracies,
        "failed_fraction": failed_fraction, "problems": runner.problems,
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# seeds: {json.dumps(record['seeds'])}  calls: "
          f"{len(runner.walls[False])} untraced, {len(runner.walls[True])} traced")
    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit_of(name)}")
    accuracy = runner.accuracies[0] if runner.accuracies else float("nan")
    print(f"{'test_accuracy':<40} {accuracy:>14.6g} ratio (checked, not a metric)")
    print(f"{'failed_fraction':<40} {failed_fraction:>14.6g} "
          f"ratio ({runner.failed}/{runner.attempted} calls)")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
