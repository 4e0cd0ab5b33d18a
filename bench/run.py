"""Benchmark of genus1: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload quintic --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` adds a
traced run that gives the per-layer metrics.  ``--workload all`` runs
every workload in turn, each in a child process of its own, so that its
peak memory is its own.  The summary lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every job's output was
correct, 1 when some were not, and 2 when the package cannot be found
next to this directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
NAMES = ("quintic", "quintic_big", "low_degree", "cli_cold")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "genus1" / "__init__.py").is_file():
        print(f"error: no genus1 package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        attempted, failed, metrics = run_children(args)
    else:
        attempted, failed, metrics = run_workload(args)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_workload(args):
    """Measure one workload in this process; return (attempted, failed, metrics)."""
    sys.path[:0] = [str(BENCH), str(SRC)]
    import genus1
    if Path(genus1.__file__).resolve().parent != SRC / "genus1":
        print(f"error: genus1 was imported from {genus1.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    import harness

    measure = harness.per_layer if args.trace else harness.end_to_end
    tally, metrics, lines = measure(args.workload, args.seed, args.seconds)
    print("\n".join(lines), flush=True)
    return tally.attempted, tally.failed, metrics


def run_children(args):
    """Run every workload in a child process of its own; merge their results,
    each metric named after its workload."""
    attempted = failed = 0
    metrics = {}
    for name in NAMES:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        *lines, last = done.stdout.splitlines() or [""]
        print("\n".join(lines), flush=True)
        if done.returncode not in (0, 1):
            print(f"error: workload {name} exited with code {done.returncode}",
                  file=sys.stderr)
            sys.exit(done.returncode)
        result = json.loads(last)
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    return attempted, failed, metrics


if __name__ == "__main__":
    sys.exit(main())
