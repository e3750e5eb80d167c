"""Benchmark for stabforce: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload construct --seed 0 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 50 --trace 0

Load is a closed loop: one client, one process, one thread; the next op
starts when the previous one has returned.  Each op starts from JSON text, so
it builds fresh objects with cold caches, as each CLI call does.  One op runs
before timing starts so that imports are warm.  Inputs come from ``--seed``
only; set-up runs several times and ``setup_s`` is the median.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` the run measures the workload untraced, then traced (spans at
the package's layer boundaries, see ``bench_trace``), half of ``--seconds``
each, then a construction-size and exception-count sweep, and the last line
carries the per-layer metrics.  Answers are checked outside the timed region
(``bench_ops``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# BENCHMARK.json declares construct and query.  corpus is run by hand: three
# workloads cannot each get runs long enough to ride out the slow phases of a
# shared machine in the time the declared runs are given (see NOTES.md).
WORKLOADS = ("construct", "query", "corpus")
SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.0
SETUP_MAX = 25
# (points, patterns) for the traced construction sweep; N = 20, 40 and 80
# also give the 40-, 80- and 160-key systems of the exception-count sweep
SWEEP = ((10, 3), (20, 3), (40, 3), (80, 1))
SWEEP_PRED_POINTS = 16

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# printed beside the metrics; zero on a healthy run, so they gate correctness
# (through "correct" and "failed") instead of carrying a regression bound
REPORTED = {"ops": "count", "error_frac": "ratio", "wrong_frac": "ratio",
            "check_fail_frac": "ratio"}


def _layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in ("ordinal.parse_ordinal", "ordinal.format_ordinal",
                 "ordinal.IntervalSet.intersect"):
        units[name + ".calls"] = "calls/op"
        units[name + ".ms"] = "ms/op"
    units["ordinal.Ordinal.cmp.calls"] = "calls/op"
    units["ordinal.Ordinal.add.calls"] = "calls/op"
    for name in ("stability.validate", "stability.lt_k", "stability.pred_set"):
        units[name + ".calls"] = "calls/op"
        units[name + ".ms"] = "ms/op"
    units["stability.validate.self_ms"] = "ms/op"
    units["stability.pred_set.self_ms"] = "ms/op"
    for keys in (40, 80, 160):
        units[f"stability.pred_set.us.keys{keys}"] = "us"
    units["stability.is_k_limit.calls"] = "calls/op"
    units["stability.is_k_lim2.calls"] = "calls/op"
    units["stability.is_k_lim2.ms"] = "ms/op"
    units["stability.dom_f.calls"] = "calls/op"
    units["stability.check_laws.ms"] = "ms/op"
    units["poset.extend_with_top_exception.calls"] = "calls/op"
    units["poset.extend_with_top_exception.ms"] = "ms/op"
    units["poset.extend_with_top_exception.raised"] = "calls/op"
    units["poset.extend_to_chain_limit.calls"] = "calls/op"
    units["poset.extend_to_chain_limit.ms"] = "ms/op"
    units["poset.canonical_extend.calls"] = "calls/op"
    units["poset.extends.calls"] = "calls/op"
    units["poset.extends.ms"] = "ms/op"
    units["poset.chain_infimum.ms"] = "ms/op"
    units["poset.meet_dense.ms"] = "ms/op"
    units["poset.meet_dense.useful_frac"] = "ratio"
    units["simulate.run_construction.ms"] = "ms/op"
    units["simulate.run_construction.self_ms"] = "ms/op"
    for n, _ in SWEEP:
        units[f"simulate.run_construction.ms.n{n}"] = "ms"
    units["simulate.growth_exp"] = "exponent"
    for name in ("check_requirements", "check_stable_pairs", "minimality_report"):
        units[f"simulate.{name}.ms"] = "ms/op"
    units["cli.main.self_ms"] = "ms/op"
    units["cli.stdout_bytes"] = "bytes/op"
    units["trace_overhead_frac"] = "ratio"
    return units


PER_LAYER = _layer_units()


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "stabforce", "__init__.py")):
        sys.exit(f"benchmark: no program source under {SRC}; run it from a full checkout")
    sys.path.insert(0, SRC)
    import stabforce
    if not os.path.abspath(stabforce.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: imported stabforce from {stabforce.__file__}, not from {SRC}")


# -- set-up -------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, sizes: dict) -> list[dict]:
    import bench_inputs
    rng = random.Random(f"{workload}-{seed}")
    if workload == "construct":
        return bench_inputs.construct_inputs(rng, **sizes)
    if workload == "query":
        return bench_inputs.query_inputs(rng, **sizes)
    return bench_inputs.corpus_inputs(rng, **sizes)


def write_patterns(items: list[dict], workdir: str) -> None:
    """The construct op reads its pattern from a file, as the CLI does.  The
    files are written once, after the timed set-ups: file-system latency on
    the benchmark machine swings far more than the input generation does."""
    for i, item in enumerate(items):
        item["path"] = os.path.join(workdir, f"pattern-{i}.json")
        with open(item["path"], "w", encoding="utf-8") as fh:
            fh.write(item["pattern"])


def timed_setup(workload: str, seed: int, sizes: dict):
    """Set up SETUP_REPEATS times, and more while the total stays under
    SETUP_BUDGET_S (a cheap set-up is noisy); return the inputs, the median
    time, the repeat count, and whether every repeat made the same inputs."""
    times, first, same = [], None, True
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        t0 = time.perf_counter()
        items = make_inputs(workload, seed, sizes)
        times.append(time.perf_counter() - t0)
        if first is None:
            first = items
        same = same and items == first
    return first, statistics.median(times), len(times), same


# -- the timed loop -------------------------------------------------------------------


def guarded(op, item):
    try:
        return op(item)
    except (Exception, SystemExit):
        return 3, "", traceback.format_exc()


def verdict(outcome) -> str:
    code, out, err = outcome
    if code not in (0, 1) or "Traceback (most recent call last)" in out + err:
        return "error"
    return "ok" if code == 0 else "check_failed"


def run_phase(op, items: list, seconds: float, first: dict, tracer=None) -> list:
    """Closed loop over the inputs, in order and round after round, until
    ``seconds`` have passed.  ``first`` keeps each input's first outcome;
    later outcomes are only compared with it, so memory does not grow with
    the op count.  Returns [(input index, verdict, latency s, stdout bytes,
    same outcome as the first)]."""
    records = []
    clock = time.perf_counter
    start = clock()
    i = 0
    while True:
        idx = i % len(items)
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        outcome = guarded(op, items[idx])
        t1 = clock()
        same = first.setdefault(idx, outcome) == outcome
        records.append((idx, verdict(outcome), t1 - t0, len(outcome[1].encode()), same))
        i += 1
        if t1 - start >= seconds:
            return records


def check_outputs(op, check, items: list, first: dict, records: list):
    """Check every distinct input's first output once, untimed; a later output
    that differs from the first counts as wrong.  Inputs the loop did not
    reach are run here, so the digest covers the whole input set.  Returns the
    number of wrong ops and the digest."""
    for idx in range(len(items)):
        if idx not in first:
            first[idx] = guarded(op, items[idx])
    good = {}
    for idx, outcome in first.items():
        try:
            good[idx] = verdict(outcome) == "error" or bool(check(items[idx], outcome))
        except Exception:
            good[idx] = False
    wrong = sum(1 for idx, v, _, _, same in records
                if v != "error" and not (same and good[idx]))
    h = hashlib.sha256()
    for idx in range(len(items)):
        h.update(json.dumps(first[idx]).encode())
    return wrong, h.hexdigest()


def latency(records: list) -> dict[str, float]:
    """Timing metrics from per-input latencies.

    The loop passes over the same inputs several times.  An op is
    deterministic and starts cold every time, so its repeats differ only by
    interference from outside; each input's latency is the least of its
    repeats, which keeps dips in machine speed out of the figures unless
    they cover every repeat.  ``ops_per_s`` is one pass over the inputs at
    those latencies: the input count over the sum of their latencies."""
    repeats: dict[int, list[float]] = {}
    for idx, _, dt, _, _ in records:
        repeats.setdefault(idx, []).append(dt * 1000)
    lat_ms = [min(v) for v in repeats.values()]
    return {
        "ops_per_s": 1000 * len(lat_ms) / sum(lat_ms),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0],
    }


def verdict_counts(records: list) -> dict[str, int]:
    verdicts = [v for _, v, _, _, _ in records]
    return {"ops": len(records), "errors": verdicts.count("error"),
            "check_failed": verdicts.count("check_failed")}


# -- the traced run -------------------------------------------------------------------


def sweep(tracer, patterns: list) -> dict[str, float]:
    """Construction time by point count and cold pred_set cost by key count.

    Calls go through module attributes so the tracer's wrappers are used.
    Every pred_set call runs on a freshly parsed system, so it is cold."""
    simulate = sys.modules["stabforce.simulate"]
    stability = sys.modules["stabforce.stability"]
    tracer.reset()
    by_n: dict[int, list[float]] = {}
    largest: dict[int, str] = {}
    for i, (n, text) in enumerate(patterns):
        tracer.op_id = -1 - i
        pattern = simulate.pattern_from_dict(json.loads(text))
        tracer.toplevel["simulate.run_construction"].clear()
        g = simulate.run_construction(pattern).g
        by_n.setdefault(n, []).append(tracer.toplevel["simulate.run_construction"][0] / 1e6)
        largest.setdefault(g.exception_count(), stability.system_to_json(g))
    out = {f"simulate.run_construction.ms.n{n}": statistics.median(v) for n, v in by_n.items()}
    xs = [math.log(n) for n in by_n]
    ys = [math.log(statistics.median(v)) for v in by_n.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    out["simulate.growth_exp"] = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                                  / sum((x - mx) ** 2 for x in xs))
    for keys in (40, 80, 160):
        text = largest[keys]
        g = stability.system_from_json(text)
        points = stability.probe_points(g)
        step = max(1, len(points) // SWEEP_PRED_POINTS)
        durations = []
        for k in range(1, g.depth + 1):
            for b in points[::step]:
                fresh = stability.system_from_json(text)
                tracer.toplevel["stability.pred_set"].clear()
                stability.pred_set(fresh, k, b)
                durations.append(tracer.toplevel["stability.pred_set"][0] / 1e3)
        out[f"stability.pred_set.us.keys{keys}"] = statistics.median(durations)
    return out


def traced_metrics(name, op, items, seconds, seed, via_cli, sweep_patterns, first):
    """Untraced phase, traced phase (half of ``seconds`` each), then the
    sweep.  Returns the per-layer metrics and every op record (both phases)
    for checking."""
    import bench_ops
    from bench_trace import Tracer
    plain = run_phase(op, items, seconds / 2, first)
    tracer = Tracer()
    tracer.install([bench_ops])
    try:
        traced = run_phase(op, items, seconds / 2, first, tracer)
        layers = tracer.per_op(len(traced))
        layers.update(sweep(tracer, sweep_patterns))
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"))
    layers["cli.stdout_bytes"] = (statistics.fmean(r[3] for r in traced) if via_cli else 0.0)
    untraced_rate = latency(plain)["ops_per_s"]
    layers["trace_overhead_frac"] = (latency(traced)["ops_per_s"] - untraced_rate) / untraced_rate
    return {m: layers[m] for m in PER_LAYER}, plain + traced, len(traced)


# -- one workload -----------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> dict:
    """Run one workload; ``sizes`` overrides the input generator's defaults.
    Returns the result object, the report lines and the reported shares."""
    # the benchmark modules import stabforce, so they load after import_program()
    import bench_inputs
    import bench_ops
    op, check, via_cli = bench_ops.WORKLOADS[name]
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        items, setup_s, setups, same = timed_setup(name, seed, sizes or {})
        if name == "construct":
            write_patterns(items, workdir)
        # the collector need not rescan what set-up left behind during the ops
        gc.collect()
        gc.freeze()
        first: dict[int, tuple] = {}
        guarded(op, items[0])  # warm imports before timing
        if trace:
            patterns = bench_inputs.sweep_patterns(random.Random(f"sweep-{seed}"), SWEEP)
            metrics, records, samples = traced_metrics(name, op, items, seconds, seed,
                                                       via_cli, patterns, first)
            units = PER_LAYER
        else:
            records = run_phase(op, items, seconds, first)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = latency(records)
            metrics["peak_rss_mb"] = peak_kb / 1024
            metrics["setup_s"] = setup_s
            units, samples = END_TO_END, len(records)
        wrong, digest = check_outputs(op, check, items, first, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    counts = verdict_counts(records)
    ops = counts["ops"]
    reported = {"ops": ops, "error_frac": counts["errors"] / ops, "wrong_frac": wrong / ops,
                "check_fail_frac": counts["check_failed"] / ops}
    lines = [f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}  "
             f"inputs {len(items)}  digest sha256:{digest}"]
    for m, v in metrics.items():
        n = f"n={setups} set-ups" if m == "setup_s" else f"n={samples} ops"
        lines.append(f"  {m:<44} {v:>14.6g} {units[m]:<9} {n}")
    for m, unit in REPORTED.items():
        lines.append(f"  {m:<44} {reported[m]:>14.6g} {unit:<9} n={ops} ops")
    lines.append(f"  {'set-ups identical':<44} {str(same):>14}")
    return {
        "lines": lines,
        "reported": reported,
        "result": {
            "correct": wrong == 0 and counts["errors"] == 0 and same,
            "attempted": ops,
            "failed": wrong + counts["errors"],
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        },
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process, one after another; prints a table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"benchmark: workload {name} failed with exit code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            combined["metrics"][f"{name}.{m}"] = v
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(run["lines"]))
        result = run["result"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
