"""Timing loop, metrics and traced run of the genus1 benchmark.

Every workload runs in one process, sequentially, in a closed loop with
one caller: the next job starts when the previous one has returned.  The
outputs of a pass are checked once it is over.  No thread or process pool
is used.
"""

from __future__ import annotations

import itertools
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, subprocess_env

OUT = Path(__file__).resolve().parent / "out"

# A run makes passes over a fixed list of ``workload.jobs`` cases until
# its seconds are spent, and at least MIN_PASSES.  Each pass is timed as a
# whole loop; the figures come from the fastest pass.
MIN_PASSES = 3
# The traced run makes this many pairs of passes, untraced and traced.
TRACE_PASSES = 5
# setup_s is the fastest of SETUPS fresh interpreters importing genus1,
# spread over the run.  cli_split_ms starts 2 * PROBE_RUNS interpreters.
SETUPS = 16
PROBE_RUNS = 7
MAX_ERRORS_SHOWN = 3


class Tally:
    """Attempted and failed jobs, and the first few errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, workload, case, output, error=None):
        self.attempted += 1
        if error is None:
            try:
                if workload.check(case, output):
                    return
                error = "output does not match the expected value"
            except Exception as exc:  # a malformed output is a failed job
                error = f"check raised {exc!r}"
        self.failed += 1
        if self.failed <= MAX_ERRORS_SHOWN:
            print(f"job {self.attempted - 1} failed: {error}", file=sys.stderr)


def run_job(runner, case):
    """(latency in s, output, error) of one job."""
    start = time.perf_counter()
    try:
        output = runner(case)
    except Exception as exc:  # counted in failed_ratio, the loop goes on
        return time.perf_counter() - start, None, repr(exc)
    return time.perf_counter() - start, output, None


def run_pass(runner, cases):
    """Run ``cases`` in order; return the wall time of the whole loop and
    each job's (latency, output, error).  Nothing is checked inside it."""
    start = time.perf_counter()
    results = [run_job(runner, case) for case in cases]
    return time.perf_counter() - start, results


def record(workload, cases, results, tally):
    """Check and count the outputs of a pass; return its latencies."""
    for case, (_, output, error) in zip(cases, results):
        tally.record(workload, case, output, error)
    return [latency for latency, _, _ in results]


def tail(latencies):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples)."""
    ordered = sorted(latencies)
    k = len(ordered) - 11
    return ordered[k], 100 * (k + 1) / len(ordered), len(ordered)


def setup_seconds():
    """Time for a fresh interpreter to import genus1."""
    code = ("import time; t = time.perf_counter(); import genus1; "
            "print(time.perf_counter() - t)")
    return float(subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                                check=True, capture_output=True, text=True,
                                timeout=60).stdout)


def cli_split_ms():
    """(interpreter, import) in ms: the fastest of PROBE_RUNS fresh
    interpreters running ``pass``, and the fastest running ``import
    genus1.cli`` minus the first.  The two alternate, so that both see
    the same host."""
    walls = {"pass": [], "import genus1.cli": []}
    for _ in range(PROBE_RUNS):
        for code, times in walls.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=subprocess_env(), check=True,
                           timeout=60)
            times.append(time.perf_counter() - start)
    bare, imported = (1000 * min(times) for times in walls.values())
    return bare, imported - bare


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, seed, seconds):
    """Run one workload untraced; return (tally, metrics, summary lines).

    The run makes passes over the same ``workload.jobs`` cases until
    ``seconds`` have passed, and at least MIN_PASSES.  jobs_per_s and
    latency_ms_p50 come from the fastest pass, timed as a whole loop: on
    a shared host whose speed changes from second to second, this keeps
    most of the contention of other tenants out of the figures, and every
    cost of the program, collector pauses included, in them.  Every pass
    is checked and counted.  The set-ups are spread over the run, and the
    fastest counts, for the same reason.
    """
    workload = WORKLOADS[name](seed)
    cases = list(itertools.islice(workload.cases(), workload.jobs))
    run_job(workload.run, cases[0])  # warm-up, not counted
    tally = Tally()
    passes, setups, latencies = [], [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        if len(setups) < SETUPS * (time.perf_counter() - start) / seconds:
            setups.append(setup_seconds())
        wall, results = run_pass(workload.run, cases)
        times = record(workload, cases, results, tally)
        passes.append((wall, times))
        latencies += times
    while len(setups) < SETUPS:
        setups.append(setup_seconds())

    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB
    wall, best = min(passes)
    p50 = 1000 * statistics.median(best)
    tail_s, pct, n = tail(latencies)
    setup_s = min(setups)
    metrics = {
        "jobs_per_s": _metric(len(best) / wall, "1/s"),
        "latency_ms_p50": _metric(p50, "ms"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }
    lines = [
        f"workload {name}, seed {seed}: {len(cases)} cases x {len(passes)} passes "
        f"(closed loop, one caller; figures from the fastest pass)",
        f"  jobs_per_s      {metrics['jobs_per_s']['value']:12.4f} 1/s",
        f"  latency_ms_p50  {p50:12.3f} ms",
        f"  latency_ms_tail {1000 * tail_s:12.3f} ms  (p{pct:.1f} of {n} jobs "
        f"in all passes, 10 beyond)",
        f"  failed_ratio    {tally.failed / tally.attempted:12.4f} ratio "
        f"({tally.failed} of {tally.attempted} jobs)",
        f"  peak_rss_mb     {peak_mb:12.2f} MB"
        + ("  (largest child process)" if name == "cli_cold" else ""),
        f"  setup_s         {setup_s:12.5f} s  (import genus1, fastest of {SETUPS} "
        f"fresh interpreters)",
    ]
    return tally, metrics, lines


def traced_pass(workload, cases, runner, tally):
    """Run ``cases`` with the tracer installed; return the tracer, the wall
    time of the pass and the per-job latencies.  Outputs are checked after
    tracing is over."""
    tracer = Tracer()
    jobs = iter(range(len(cases)))

    def traced(case):
        tracer.job = next(jobs)
        return runner(case)

    tracer.install()
    try:
        wall, results = run_pass(traced, cases)
    finally:
        tracer.uninstall()
    return tracer, wall, record(workload, cases, results, tally)


# Per-layer metrics read from the span totals: (metric, span, field, unit).
# Fields: 0 calls, 1 total, 2 self, 3 exact work count.
LAYER_METRICS = [
    ("poly.mul.calls", "poly.mul", 0, "count"),
    ("poly.mul.self_s", "poly.mul", 2, "s"),
    ("poly.mul.term_products", "poly.mul", 3, "count"),
    ("poly.add.self_s", "poly.add", 2, "s"),
    ("poly.derivative.self_s", "poly.derivative", 2, "s"),
    ("poly.exact_divide.self_s", "poly.exact_divide", 2, "s"),
]
for _det in ("pencil", "secant", "dual", "other"):
    LAYER_METRICS += [
        (f"linalg.det_{_det}.calls", f"linalg.det_{_det}", 0, "count"),
        (f"linalg.det_{_det}.total_s", f"linalg.det_{_det}", 1, "s"),
        (f"linalg.det_{_det}.self_s", f"linalg.det_{_det}", 2, "s"),
        (f"linalg.det_{_det}.terms", f"linalg.det_{_det}", 3, "count"),
    ]
LAYER_METRICS += [("linalg.solve_linear.calls", "linalg.solve_linear", 0, "count")]
LAYER_METRICS += [(f"{span}.total_s", span, 1, "s") for span in (
    "linalg.solve_linear", "linalg.scalar_rank", "linalg.scalar_det",
    "linalg.adjugate", "linalg.kernel_basis",
    "invariants.deg5_covariants", "invariants.contract_quintics",
    "invariants.discriminant_deg5_matrix",
    "invariants.invariants_deg1", "invariants.invariants_deg2",
    "invariants.invariants_deg3", "invariants.invariants_deg4",
    "invariants.discriminant_deg3_matrix", "invariants.discriminant_deg4_matrix",
    "invariants.deg4_auxiliary_quadrics",
    "models.pfaffians", "models.weierstrass_model", "models.project_from_point",
    "transforms.apply", "transforms.det_character")]


def per_layer(name, seed, seconds):
    """The traced run: the untraced run of end_to_end, then TRACE_PASSES
    pairs of passes, untraced and traced, over the same ``workload.jobs``
    cases, in this process (for cli_cold through ``genus1.cli.run``).
    Layer times are totals over those cases in the fastest traced pass, so
    that they compare across commits whatever the speed; the exact counts
    are the same in every pass.  Return (tally, metrics, summary lines)."""
    tally, _, lines = end_to_end(name, seed, seconds)
    workload = WORKLOADS[name](seed)
    runner = workload.run_in_process if name == "cli_cold" else workload.run
    cases = list(itertools.islice(workload.cases(), workload.jobs))
    untraced, traced = [], []
    for _ in range(TRACE_PASSES):
        wall, results = run_pass(runner, cases)
        untraced.append((wall, record(workload, cases, results, tally)))
        traced.append(traced_pass(workload, cases, runner, tally))
    _, untraced_times = min(untraced)
    tracer, _, traced_times = min(traced, key=lambda t: t[1])
    # Each job's traced latency minus its untraced one in the pass just
    # before, so that a change of host speed between passes mostly cancels.
    overhead_ms = 1000 * statistics.median(
        t - u for (_, before), (_, _, after) in zip(untraced, traced)
        for u, t in zip(before, after))

    stats = tracer.layer_stats()
    metrics = {}
    for metric, span, field, unit in LAYER_METRICS:
        value = stats.get(span, [0, 0, 0, 0])[field]
        metrics[metric] = _metric(value / 1e9 if unit == "s" else value, unit)

    traced_ms = 1000 * statistics.median(traced_times)
    covered = tracer.covered_ns()
    uncovered_ms = statistics.median(1000 * latency - covered.get(job, 0) / 1e6
                                     for job, latency in enumerate(traced_times))
    if name == "cli_cold":
        interpreter_ms, import_ms = cli_split_ms()
        run_ms = 1000 * statistics.median(untraced_times)
    else:  # the in-process workloads start no CLI process: nothing to split
        interpreter_ms = import_ms = run_ms = 0.0
    metrics.update({
        "cli.interpreter_ms": _metric(interpreter_ms, "ms"),
        "cli.import_ms": _metric(import_ms, "ms"),
        "cli.run_ms": _metric(run_ms, "ms"),
        "trace.latency_ms_p50": _metric(traced_ms, "ms"),
        "trace.overhead_ms": _metric(overhead_ms, "ms"),
        "trace.uncovered_ms": _metric(uncovered_ms, "ms"),
    })

    path = OUT / f"trace-{name}-{seed}.json"
    tracer.dump(path, {"workload": name, "seed": seed,
                       "metrics": {k: v["value"] for k, v in metrics.items()}})
    lines += [f"traced run over the first {len(cases)} cases (spans written to {path})"]
    width = max(len(m) for m in metrics)
    lines += [f"  {m:{width}} {v['value']:14.6g} {v['unit']}" for m, v in metrics.items()]
    lines.append(f"  tracing overhead {overhead_ms:.3f} ms per job (median of traced minus "
                 f"untraced latency, passes back to back); span self times leave "
                 f"{uncovered_ms:.3f} ms per job uncovered")
    if name == "cli_cold":
        dominant = "interpreter start" if interpreter_ms > import_ms else "import genus1.cli"
        lines.append(f"  cli_cold split: interpreter {interpreter_ms:.1f} ms, import "
                     f"{import_ms:.1f} ms, in-process run {run_ms:.1f} ms; "
                     f"{dominant} dominates")
    return tally, metrics, lines
