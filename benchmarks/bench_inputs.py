"""Seeded input generators for the three benchmark workloads.

Everything here runs during set-up and counts toward ``setup_s``.  The
program under test receives only the JSON text these functions produce, so
every operation starts from text and builds fresh, cold-cache objects, as a
CLI call would.  The same seed always yields the same text.
"""

from __future__ import annotations

import json
import random
from collections import Counter

from stabforce.errors import BudgetExhaustedError
from stabforce.gen import random_chain, random_system, random_tower
from stabforce.ordinal import OMEGA, Ordinal, format_ordinal
from stabforce.poset import meet_dense, taller_than, top_chain_limit
from stabforce.simulate import pattern_from_dict, run_construction, validate_pattern
from stabforce.stability import probe_points, system_from_json, system_to_dict, system_to_json

# construct: (points, adjacent-only) slots, interleaved.  In rising order of
# cost they are 6, 10 with non-adjacent degrees, 10, 12 and 16 points.  With
# one slot per cost class, the median lands in the middle of the adjacent
# 10-point class and the 90th percentile in the middle of the 16-point class,
# so each is a median over CONSTRUCT_CYCLES patterns of one kind, not the edge
# between two kinds.  Non-adjacent degrees go on 10-point patterns only: most
# of those fail a check or hit an unreachable target (see NOTES.md), and on
# large patterns the point of failure, and so the cost, varies too widely.
# Larger patterns (20 to 80 points) run in the traced sweep only.  Short ops
# and a pass over the inputs of about a second let each input be timed many
# times in a run (see ``run.latency``).
CONSTRUCT_SLOTS = ((6, True), (10, False), (10, True), (12, True), (16, True))
CONSTRUCT_CYCLES = 8

# query: systems from adjacent-only constructions of 40 points.  After i
# points a construction's trace holds a system with exactly 2i exception keys,
# so each construction gives a 40-, a 60- and an 80-key system.  A single
# system's query cost varies by about 15% from seed to seed, so one run
# averages over several independent constructions.  The batch shrinks as the
# system grows (1500, 1000 and 750 queries), so every op does about the same
# work and the latency percentiles are taken over one population.  The
# 160-key systems are left to the traced sweep: each costs seconds to build.
QUERY_CONSTRUCTIONS = 8
QUERY_PREFIXES = (20, 30, 40)
QUERY_BATCH_KEYS = 60_000  # queries x keys per batch
QUERY_KINDS = (("lt", 3), ("le", 1), ("pred", 2), ("lim", 1), ("lim2", 1))

# corpus: shares of systems by exception count, close to how often
# gen.random_system(small=True) makes each count.  The count sets most of an
# op's cost, so fixing the shares keeps the latency median from moving with
# the seed; the systems themselves are the generator's own, unchanged.
CORPUS_ITEMS = 960
CORPUS_KEY_SHARES = ((0, 16), (1, 34), (2, 27), (3, 16), (4, 6), (5, 1))
CORPUS_BUDGET = 8


def _w(m: int) -> str:
    return "w" if m == 1 else f"w*{m}"


def _quota(rng: random.Random, n: int, shares: tuple) -> list:
    """n values in the given whole-number proportions, in a random order.

    Drawing a feature by quota instead of independently for each item keeps
    the cost of inputs of one kind close together, so a run's latency
    percentiles move little from seed to seed."""
    total = sum(share for _, share in shares)
    out: list = []
    acc = 0
    for value, share in shares:
        acc += share
        out += [value] * (round(n * acc / total) - len(out))
    rng.shuffle(out)
    return out


def pattern_dict(rng: random.Random, n: int, adjacent_only: bool) -> dict:
    """A pattern with n points that passes axioms A1-A4.

    Positions are multiples of w with gaps of w*2 to w*4 (A1).  Club points
    get downward-closed cofinality flags (A3), and every declared degree of
    a club point stays within what its flags allow (A4).  Non-adjacent
    degrees are added on request and then lowered until coherence (A2)
    holds.  Three in four points are club points; a club point has 0, 1 or 2
    flags in the ratio 3:2:1, any other point 0 or 1 in the ratio 2:1; the
    gaps are a third each; seven in ten adjacent pairs declare a degree.
    """
    clubs = _quota(rng, n, ((True, 3), (False, 1)))
    club_flags = iter(_quota(rng, clubs.count(True), ((0, 3), (1, 2), (2, 1))))
    other_flags = iter(_quota(rng, clubs.count(False), ((0, 2), (1, 1))))
    gaps = iter(_quota(rng, n, ((2, 1), (3, 1), (4, 1))))
    points = []
    m = rng.randrange(4, 9)
    for club in clubs:
        flags = next(club_flags) if club else next(other_flags)
        points.append({"pos": _w(m), "inC": club, "cofinalLevels": list(range(1, flags + 1))})
        m += next(gaps)

    def max_degree(i: int) -> int:
        pt = points[i]
        return len(pt["cofinalLevels"]) + 1 if pt["inC"] else 2

    st: dict[tuple[int, int], int] = {}
    for i, declared in enumerate(_quota(rng, n - 1, ((True, 7), (False, 3)))):
        if declared:
            st[(i, i + 1)] = rng.randint(1, max_degree(i))
    if not adjacent_only and n > 2:
        for _ in range(max(1, n // 3)):
            i = rng.randrange(n - 2)
            st[(i, rng.randint(i + 2, min(n - 1, i + 5)))] = rng.randint(1, max_degree(i))
    while True:
        clash = next(((i, j) for (i, j), dij in sorted(st.items())
                      for jp in range(i + 1, j)
                      if min(dij - 1, st.get((jp, j), 0)) >= 1
                      and st.get((i, jp), 0) < min(dij - 1, st.get((jp, j), 0)) + 1), None)
        if clash is None:
            break
        st[clash] -= 1
        if not st[clash]:
            del st[clash]
    d = {"points": points,
         "st": [[points[i]["pos"], points[j]["pos"], deg] for (i, j), deg in sorted(st.items())]}
    report = validate_pattern(pattern_from_dict(d))
    if not report.passed:
        raise AssertionError(f"generator produced an invalid pattern: {report.violations}")
    return d


def construct_inputs(rng: random.Random, cycles: int = CONSTRUCT_CYCLES,
                     slots: tuple[tuple[int, bool], ...] = CONSTRUCT_SLOTS) -> list[dict]:
    """Patterns for ``cli simulate``, in slot order; the survivor grid is the
    origin plus every declared position."""
    items = []
    for _ in range(cycles):
        for n, adjacent_only in slots:
            d = pattern_dict(rng, n, adjacent_only)
            grid = ",".join(["0"] + [pt["pos"] for pt in d["points"]])
            items.append({"pattern": json.dumps(d), "grid": grid})
    return items


def construction_prefixes(rng: random.Random, prefixes: tuple[int, ...]) -> list[str]:
    """JSON text of the systems an adjacent-only construction holds after each
    prefix of its points: 2i exception keys after i points, depth at least 3."""
    while True:
        trace = run_construction(pattern_from_dict(
            pattern_dict(rng, max(prefixes), adjacent_only=True))).trace
        systems = [trace[2 * i].system for i in prefixes]
        if all(g.depth >= 3 and g.exception_count() == 2 * i for g, i in zip(systems, prefixes)):
            return [system_to_json(g) for g in systems]


def query_batch(rng: random.Random, points: list[str], depth: int, size: int) -> str:
    """A seeded batch of order queries over a shared point table, with the
    kinds in the fixed shares of QUERY_KINDS."""
    queries = []
    for kind in _quota(rng, size, QUERY_KINDS):
        k = rng.randint(1, depth + 1)
        i, j = rng.randrange(len(points)), rng.randrange(len(points))
        if kind in ("lt", "le"):
            if rng.random() < 0.9:
                i, j = min(i, j), max(i, j)
            queries.append([kind, k, i, j])
        else:
            queries.append([kind, k, j])
    return json.dumps({"points": points, "queries": queries})


def query_inputs(rng: random.Random, constructions: int = QUERY_CONSTRUCTIONS,
                 prefixes: tuple[int, ...] = QUERY_PREFIXES,
                 batch_keys: int = QUERY_BATCH_KEYS) -> list[dict]:
    """One op per system, each with its own batch, interleaved by size."""
    items = []
    for _ in range(constructions):
        for text in construction_prefixes(rng, prefixes):
            g = system_from_json(text)
            points = [format_ordinal(a) for a in probe_points(g)]
            size = batch_keys // g.exception_count()
            items.append({"system": text, "batch": query_batch(rng, points, g.depth, size)})
    return items


def corpus_item(rng: random.Random, p) -> dict:
    """A tiny system plus the tower, chain and dense sets its op exercises."""
    limits = []
    m = 1
    while Ordinal(((1, m),)) < p.bound:
        limits.append(_w(m))
        m += 1
    tp, tq, tr, level = random_tower(rng, small=True)
    (cp, cq, cr), target = random_chain(rng, small=True)
    taller = p.top + OMEGA + OMEGA
    values = sorted({v for _, entries in p.levels for _, v in entries} | {Ordinal()},
                    key=lambda a: a.terms)
    ell = rng.randint(1, 2)
    value = values[rng.randrange(len(values))]
    try:
        meet_dense(p, [taller_than(taller), top_chain_limit(ell, value)], CORPUS_BUDGET)
    except BudgetExhaustedError:
        value = Ordinal()  # 0 sits below every fresh chain limit, so this set is always met
    return {
        "system": system_to_dict(p),
        "limits": limits,
        "tower": [system_to_dict(s) for s in (tp, tq, tr)],
        "level": level,
        "chain": {"chain": [system_to_dict(s) for s in (cp, cq, cr)],
                  "target": format_ordinal(target), "ell": 1},
        "dense": {"taller": format_ordinal(taller), "ell": ell,
                  "value": format_ordinal(value), "budget": CORPUS_BUDGET},
    }


def corpus_inputs(rng: random.Random, count: int = CORPUS_ITEMS) -> list[dict]:
    """``count`` systems, their exception counts in CORPUS_KEY_SHARES; a
    system whose count has its quota filled is drawn again."""
    left = Counter(_quota(rng, count, CORPUS_KEY_SHARES))
    items = []
    while len(items) < count:
        p = random_system(rng, small=True)
        if left[p.exception_count()] > 0:
            left[p.exception_count()] -= 1
            items.append({"item": json.dumps(corpus_item(rng, p))})
    return items


def sweep_patterns(rng: random.Random, plan: tuple[tuple[int, int], ...]) -> list[tuple[int, str]]:
    """Adjacent-only patterns for the traced construction-size sweep."""
    return [(n, json.dumps(pattern_dict(rng, n, adjacent_only=True)))
            for n, reps in plan for _ in range(reps)]
