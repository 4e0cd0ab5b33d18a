"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/sweep.py --workloads quintic low_degree --seeds 1-10 --seconds 25 \
        --out bench/baseline.json

For each workload and end-to-end metric it prints the median and the
quartiles of the per-run values (``statistics.quantiles(values, n=4)``)
and the spread, (Q3 - Q1) / median.  ``--out FILE`` also writes the machine,
each workload's job definition and reason, every run's metrics and the
summary as JSON; the end-to-end part of bench/baseline.json was written
this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def machine():
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": sys.version.split()[0]}


def definition(name):
    sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    return {"job": " ".join(workload.__doc__.split()), "why": workload.why}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run([sys.executable, str(RUN), "--workload", name,
                                   "--seed", str(seed), "--seconds", str(args.seconds),
                                   "--trace", "0"], capture_output=True, text=True)
            result = json.loads(done.stdout.splitlines()[-1])
            if done.returncode or not result["correct"]:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v:.5g}" for k, v in runs[-1].items()), flush=True)
        summary = {k: summarise([r[k] for r in runs]) for k in runs[0]}
        for k, s in summary.items():
            print(f"  {name:12} {k:16} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {s['spread']:.4f}", flush=True)
        report[name] = {**definition(name), "seeds": args.seeds, "units": units,
                        "runs": runs, "summary": summary}
    if args.out:
        out = {"machine": machine(), "seconds": args.seconds, "workloads": report}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
