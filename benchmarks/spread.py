"""Run-to-run spread of the end-to-end metrics, and the baseline file.

Runs one workload once per seed, one run after another, and prints for each
end-to-end metric the median over the runs and the spread: the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median.  With ``--out`` it also makes one traced run of each
named workload on the first seed, and writes every run, the medians, the
spreads and the per-layer metrics to a JSON file (the format of
``baseline.json``).

    python3 benchmarks/spread.py --workload construct --seeds 1-10 --seconds 30
    python3 benchmarks/spread.py --workload construct,query,corpus --seeds 1-10 \\
        --seconds 30 --out benchmarks/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SUMMED = ("ops", "check_fail_frac")  # read from the report lines


def seeds_arg(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def one_run(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    run = {"seed": seed, "wall_s": round(wall, 1),
           "digest": lines[0].split("digest ")[-1]}
    run.update({k: result[k] for k in ("correct", "attempted", "failed")})
    run["metrics"] = {m: v["value"] for m, v in result["metrics"].items()}
    for line in lines[1:-1]:
        parts = line.split()
        if parts and parts[0] in SUMMED:
            run["metrics"][parts[0]] = float(parts[1])
    return run


def summarise(runs: list[dict]) -> tuple[dict, dict]:
    medians, spreads = {}, {}
    for m in runs[0]["metrics"]:
        values = [r["metrics"][m] for r in runs]
        med = statistics.median(values)
        medians[m] = round(med, 6)
        if m not in SUMMED and len(values) >= 2:
            q = statistics.quantiles(values, n=4)
            spreads[m] = round((q[2] - q[0]) / med, 4) if med else 0.0
    return medians, spreads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="comma-separated workloads")
    parser.add_argument("--seeds", type=seeds_arg, required=True, help="e.g. 1-10 or 3,7,9")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", help="write every run and the summary here")
    args = parser.parse_args()
    report = {"machine": f"{os.cpu_count()} CPUs ({platform.processor() or platform.machine()}), "
                         f"Python {platform.python_version()}",
              "run_seconds": args.seconds, "seeds": args.seeds,
              "median": {}, "iqr_over_median": {}, "runs": {}}
    for workload in args.workload.split(","):
        runs = []
        for seed in args.seeds:
            run = one_run(workload, seed, args.seconds)
            runs.append(run)
            print(f"{workload} seed {seed:>3} wall {run['wall_s']:>5}s correct {run['correct']} "
                  + " ".join(f"{m}={v:.5g}" for m, v in run["metrics"].items()), flush=True)
        medians, spreads = summarise(runs)
        print(f"{workload} median " + " ".join(f"{m}={v:.5g}" for m, v in medians.items()))
        print(f"{workload} spread " + " ".join(f"{m}={v:.3f}" for m, v in spreads.items()),
              flush=True)
        report["median"][workload] = medians
        report["iqr_over_median"][workload] = spreads
        report["runs"][workload] = runs
    if args.out:
        seed = args.seeds[0]
        traced = {}
        for workload in args.workload.split(","):
            run = one_run(workload, seed, args.seconds, trace=1)
            print(f"{workload} seed {seed:>3} traced, wall {run['wall_s']}s", flush=True)
            traced[workload] = run["metrics"]
        report[f"traced_seed{seed}"] = traced
        report["note"] = (f"median and iqr_over_median are over the runs in 'runs' (--trace 0); "
                          f"traced_seed{seed} holds the per-layer metrics of one --trace 1 run "
                          f"per workload")
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
