"""Compare two revisions of the package on one benchmark workload, in-process.

    python3 tools/ab.py REV_A REV_B --workload construct [--seed 5]

Each side's ``src/`` is taken from git with ``git archive`` into a temporary
directory; ``benchmarks/`` (inputs, op and check) comes from the current
checkout for both.  Ten rounds alternate the sides, A first in even rounds
and B first in odd ones.  Each round runs one process per side that builds
the workload's inputs from ``--seed``, as ``benchmarks/run.py`` does, runs
one warm-up pass and then eight timed passes over every input, and reports
its best pass in ms per op and a digest of the first pass's outputs.  The table gives each side's best and median of those per-process
figures and the ratio of the medians.  The exit code is 1 when a digest
differs between any two processes, else 0.

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("revs", nargs="*", metavar="REV")
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--worker-src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker_src:
        with tempfile.TemporaryDirectory() as workdir:
            result = worker(args.worker_src, args.workload, args.seed, workdir)
        print(json.dumps(result))
        return 0
    if len(args.revs) != 2:
        parser.error("name two revisions")
    with tempfile.TemporaryDirectory() as scratch:
        srcs = [export_src(rev, os.path.join(scratch, side))
                for rev, side in zip(args.revs, "ab")]
        figures: list[list[float]] = [[], []]
        digests: set[str] = set()
        for r in range(ROUNDS):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                       "--seed", str(args.seed), "--worker-src", srcs[side]]
                proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                                      env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    sys.exit(f"ab: {args.revs[side]} failed with exit code {proc.returncode}")
                result = json.loads(proc.stdout.splitlines()[-1])
                figures[side].append(result["ms_per_op"])
                digests.add(result["digest"])
    medians = [statistics.median(f) for f in figures]
    print(f"workload {args.workload}  seed {args.seed}  rounds {ROUNDS}  "
          f"passes {PASSES}  (ms/op)")
    for rev, f, median in zip(args.revs, figures, medians):
        print(f"  {rev:<42} best {min(f):8.4f}  median {median:8.4f}")
    print(f"  median ratio B/A {medians[1] / medians[0]:.4f}")
    if len(digests) > 1:
        print(f"  outputs differ: {len(digests)} digests")
        return 1
    print("  outputs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
