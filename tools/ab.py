"""Compare two revisions of the package on one benchmark workload, in-process.

    python3 tools/ab.py REV_A REV_B --workload construct [--seed 5 [--seed 77 ...]]

Each side's ``src/`` is taken from git with ``git archive`` into a temporary
directory; ``benchmarks/`` (inputs, op and check) comes from the current
checkout for both.  For each ``--seed`` in turn (5 when none is given), ten
rounds alternate the sides, A first in even rounds and B first in odd ones.
Each round runs one process per side that builds the workload's inputs from
the seed, as ``benchmarks/run.py`` does, runs one warm-up pass and then eight
timed passes over every input, and reports its best pass in ms per op and a
digest of the first pass's outputs.  Each seed's table gives each side's
best and quartiles of those per-process figures, the ratio of the medians
and the number of rounds in which B was faster.  The exit code is 1 when a
digest differs between any two processes of one seed, else 0.

To measure uncommitted changes against the last commit, name the working
tree through a stash commit, which leaves the tree and the stash list alone:

    python3 tools/ab.py HEAD "$(git stash create)" --workload construct
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(ROOT, "benchmarks")
sys.path.insert(0, BENCHMARKS)
import run  # noqa: E402  (it imports the package only when asked to build inputs)

ROUNDS = 10
PASSES = 8


def worker(src: str, workload: str, seed: int, workdir: str) -> dict:
    """One process's figures, with the package imported from ``src``."""
    sys.path.insert(0, src)
    import stabforce
    if not os.path.abspath(stabforce.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"ab: imported stabforce from {stabforce.__file__}, not from {src}")
    import bench_ops
    items = run.make_inputs(workload, seed, {})
    if workload == "construct":
        run.write_patterns(items, workdir)
    op = bench_ops.WORKLOADS[workload][0]
    gc.collect()
    gc.freeze()  # as the benchmark does after set-up
    digest = hashlib.sha256()
    for item in items:  # the warm-up pass, also the digested one
        digest.update(json.dumps(run.guarded(op, item)).encode())
    best = float("inf")
    clock = time.perf_counter
    for _ in range(PASSES):
        t0 = clock()
        for item in items:
            op(item)
        best = min(best, clock() - t0)
    return {"ms_per_op": 1000 * best / len(items), "digest": digest.hexdigest()}


def export_src(rev: str, into: str) -> str:
    """``rev``'s ``src/`` under ``into``; the path of the copy's ``src``."""
    os.makedirs(into)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return os.path.join(into, "src")


def rounds(revs: list[str], srcs: list[str], workload: str,
           seed: int) -> tuple[list[list[float]], set[str]]:
    """Each side's ms per op, one figure per round, and the digests seen."""
    figures: list[list[float]] = [[], []]
    digests: set[str] = set()
    for r in range(ROUNDS):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--worker-src", srcs[side]]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                                  env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"ab: {revs[side]} failed with exit code {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            figures[side].append(result["ms_per_op"])
            digests.add(result["digest"])
    return figures, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("revs", nargs="*", metavar="REV")
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, action="append",
                        help="input seed; give it again for more seeds (default 5)")
    parser.add_argument("--worker-src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = args.seed or [5]
    if args.worker_src:
        with tempfile.TemporaryDirectory() as workdir:
            result = worker(args.worker_src, args.workload, seeds[0], workdir)
        print(json.dumps(result))
        return 0
    if len(args.revs) != 2:
        parser.error("name two revisions")
    status = 0
    with tempfile.TemporaryDirectory() as scratch:
        srcs = [export_src(rev, os.path.join(scratch, side))
                for rev, side in zip(args.revs, "ab")]
        for seed in seeds:
            figures, digests = rounds(args.revs, srcs, args.workload, seed)
            quartiles = [statistics.quantiles(f, n=4, method="inclusive") for f in figures]
            faster = sum(b < a for a, b in zip(*figures))
            print(f"workload {args.workload}  seed {seed}  rounds {ROUNDS}  "
                  f"passes {PASSES}  (ms/op)")
            for rev, f, (q1, median, q3) in zip(args.revs, figures, quartiles):
                print(f"  {rev:<42} best {min(f):8.4f}  q1 {q1:8.4f}  "
                      f"median {median:8.4f}  q3 {q3:8.4f}")
            print(f"  median ratio B/A {quartiles[1][1] / quartiles[0][1]:.4f}  "
                  f"B faster in {faster} of {ROUNDS} rounds")
            if len(digests) > 1:
                print(f"  outputs differ: {len(digests)} digests")
                status = 1
            else:
                print("  outputs identical")
            sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
