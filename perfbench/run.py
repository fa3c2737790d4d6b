"""Benchmark entry point: time-to-accuracy of netl1's criterion experiments.

    python3 perfbench/run.py --workload grid64_row --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src. With
--trace 0 the run reports the end-to-end metrics, measured with every
library function unwrapped; with --trace 1 it reports per-layer metrics
from a traced run. Either way it checks every reported run against the
certified oracle. The last line of standard output is one JSON object;
the exit code is 0 only when every check passed.

The end-to-end times are in reference seconds: wall seconds scaled by
REFERENCE_S over the mean time of a fixed reference kernel, run after every
timed piece of work (one batch of set-ups, one job) for about a tenth of
its time. Each repetition of the solve phase is scaled by the kernel runs
after the repetition before it and after its own jobs, the set-up phase by
its own. The shared host's speed drifts by a quarter from one minute to
the next; the kernel slows and speeds up with it, so the scaled times
compare runs made at different moments. The wall times are in the report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 7
SETUP_BATCH = 10  # set-ups per timed piece: one takes only ~25 ms
#: The typical time of reference_kernel() on the host the benchmark was
#: tuned on (2-vCPU KVM Xeon, Python 3.11.7, numpy 2.4.6): a reference
#: second is a wall second on that host at that speed.
REFERENCE_S = 0.1
KERNEL_SHARE = 0.1
MIN_REPS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; with ten samples or fewer none has, and the maximum (100)
    is reported."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def keep_going(reps: list[float], elapsed: float, seconds: float, min_reps: int) -> bool:
    """Start another repetition while it is expected to end within half a
    repetition of the measuring window."""
    return len(reps) < min_reps or elapsed + 0.5 * statistics.mean(reps) <= seconds


@functools.cache
def kernel_blocks():
    """96 fixed 40 x 160 blocks, 4.9 MB in all: more than a core's own
    caches hold, like the library's working set of blocks and Python
    objects."""
    import numpy as np

    rng = np.random.default_rng(7)
    return [rng.standard_normal((40, 160)) for _ in range(96)]


def reference_kernel() -> float:
    """Fixed work of the kind the library does (products with and against
    small blocks, elementwise selection, reductions to Python floats),
    cycling over kernel_blocks(); returns its wall time. It calls nothing
    in the library, so no change there moves it. A kernel on one block
    that stays in cache tracked the workloads' slow-downs far less well."""
    import numpy as np

    blocks = kernel_blocks()
    x, acc = np.ones(160), 0.0
    start = perf_counter()
    for _ in range(80):
        for A in blocks:
            y = A @ x
            u = A.T @ y
            x = np.where(u > 1.0, 1e-3 * u, x)
            acc += float(np.abs(y).sum())
    return perf_counter() - start


class HostClock:
    """Times pieces of work on the wall clock and runs the reference kernel
    after each, for about KERNEL_SHARE of the piece's time (at least once),
    so that the kernel samples the host's speed all through the run."""

    def __init__(self):
        self.kernel_s = [reference_kernel()]

    def time(self, fn, *args):
        """(result, wall seconds) of fn(*args)."""
        start = perf_counter()
        result = fn(*args)
        wall = perf_counter() - start
        for _ in range(max(1, round(KERNEL_SHARE * wall / REFERENCE_S))):
            self.kernel_s.append(reference_kernel())
        return result, wall

    def scale(self, start: int = 0, stop: int | None = None) -> float:
        """Reference seconds per wall second over kernel_s[start:stop]."""
        return REFERENCE_S / statistics.mean(self.kernel_s[start:stop])


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def measure(workload, seed: int, seconds: float, traced: bool):
    """Set up, run the solve phase repeatedly for about `seconds`, check.

    Returns (metrics, notes, attempted, failures, problems): metrics maps
    names to (value, unit), notes holds report-only lines, failures the
    failed runs and problems the failed checks that are not about one run.
    """
    import workloads as wl
    from tracer import Tracer

    notes, failures, problems = [], [], []
    clock = HostClock()
    setup_wall = []
    if traced:
        with Tracer() as setup_tracer:
            inputs = wl.setup(workload, seed)
    else:
        for _ in range(SETUP_REPS):
            batch, wall = clock.time(lambda: [wl.setup(workload, seed) for _ in range(SETUP_BATCH)])
            inputs = batch[-1]
            setup_wall.append(wall / SETUP_BATCH)

    setup_scale = clock.scale()

    def timed_solve():
        """The solve phase job by job: (outcomes, wall seconds)."""
        outcomes, wall = [], 0.0
        for job in workload.jobs:
            outcome, job_wall = clock.time(wl.solve_job, job, inputs)
            outcomes.append(outcome)
            wall += job_wall
        return outcomes, wall

    window = perf_counter()
    starts = [len(clock.kernel_s)]  # the index of the first kernel run of each repetition
    reference, untraced_s = timed_solve()
    expected = wl.counts(reference)
    runs, walls = [reference], [untraced_s]
    if traced:
        tracer = Tracer()
        originals = [(m, name, getattr(m, name)) for m, name, _ in tracer.targets()]
        runs, walls = [], []
        with tracer:
            while keep_going(walls, perf_counter() - window, seconds, 1):
                outcomes, wall = timed_solve()
                runs.append(outcomes)
                walls.append(wall)
        if any(getattr(m, name) is not f for m, name, f in originals):
            problems.append("a traced function was not restored")
    else:
        while keep_going(walls, perf_counter() - window, seconds, MIN_REPS):
            starts.append(len(clock.kernel_s))
            outcomes, wall = timed_solve()
            runs.append(outcomes)
            walls.append(wall)

    replayed = [wl.replay_failure(inputs, o) for o in reference]
    for outcomes in runs:
        mismatch = wl.counts(outcomes) != expected
        for outcome, replay in zip(outcomes, replayed):
            reason = wl.outcome_failure(outcome) or replay
            if mismatch:
                reason = f"counts {wl.counts(outcomes)} differ from {expected}"
            if reason:
                failures.append(reason)
    attempted = len(runs) * len(workload.jobs)

    if traced:
        c = tracer.count
        per_rep = {"comm_steps": sum(1 for s in tracer.spans if s[0] == "step"),
                   "bb_evals": c["bb_evals"]}
        for key, total in per_rep.items():
            if total != expected[key] * len(runs):
                problems.append(f"traced {key} {total} != {len(runs)} x {expected[key]}")
        metrics = tracer.solve_metrics(len(runs))
        for name, (value, unit) in setup_tracer.setup_metrics().items():
            if name in metrics:
                value += metrics[name][0]
            metrics[name] = (value, unit)
        overhead = statistics.median(walls) - untraced_s
        metrics["bench.trace_overhead_s"] = (overhead, "s")
        notes.append(f"traced wall solve {statistics.median(walls):.4f} s over {len(walls)} reps, "
                     f"untraced {untraced_s:.4f} s: overhead {overhead:+.4f} s "
                     f"({100 * overhead / untraced_s:+.1f}%)")
        notes += tracer.report_only(len(runs))
        return metrics, notes, attempted, failures, problems

    # a repetition is scaled by the kernel runs after the one before it (the
    # last of set-up, for the first) and after its own jobs: centred on it
    bounds = [starts[0] - 1, *starts, len(clock.kernel_s)]
    reps = [wall * clock.scale(bounds[i], bounds[i + 2]) for i, wall in enumerate(walls)]
    setup_s = [wall * setup_scale for wall in setup_wall]
    solve_s = statistics.median(reps)
    tail_s, percentile = tail(reps)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "solve_s": (solve_s, "s"),
        "solve_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "steps_per_s": (expected["comm_steps"] / solve_s, "1/s"),
        "comm_steps": (expected["comm_steps"], "count"),
        "steps_to_target": (expected["steps_to_target"], "count"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes.append(f"solve_s is the median of {len(reps)} reps: "
                 + ", ".join(f"{r:.4f}" for r in reps))
    notes.append(f"solve_s_tail is p{percentile:g} of {len(reps)} samples")
    notes.append(f"setup_s is the median of {len(setup_s)} pieces of {SETUP_BATCH} set-ups: "
                 + ", ".join(f"{r:.4f}" for r in setup_s))
    notes.append(f"wall solve {statistics.median(walls):.4f} s (reps "
                 + ", ".join(f"{r:.4f}" for r in walls)
                 + f"), wall setup {statistics.median(setup_wall):.4f} s")
    notes.append(f"reference kernel: {len(clock.kernel_s)} runs, mean "
                 f"{statistics.mean(clock.kernel_s):.4f} s; REFERENCE_S {REFERENCE_S:g}, "
                 f"set-up scale {setup_scale:.4f}")
    notes.append(f"failed_share {len(failures) / attempted:g} ({len(failures)} of {attempted} runs)")
    notes.append(f"bb_evals {expected['bb_evals']} (exact)")
    for outcome in reference:
        steps = outcome.trace.steps_to_accuracy
        notes.append(f"{outcome.job.kind} rho={outcome.rho:g}: steps_to_accuracy "
                     + ", ".join(f"{t:g}@{s}" for t, s in sorted(steps.items(), reverse=True)))
    return metrics, notes, attempted, failures, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "netl1" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread: the benchmark runs in one process with workers=1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import netl1
    import workloads as wl

    if Path(netl1.__file__).resolve().parent != SRC / "netl1":
        print(f"error: imported netl1 from {netl1.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")

    metrics, notes, attempted, failures, problems = measure(
        wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("# env " + json.dumps(environment(args.seed)))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    for line in notes:
        print("# " + line)
    for reason in failures + problems:
        print("# FAILED " + reason)
    ok = not failures and not problems
    result = {
        "correct": ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
