"""Rows keyed by level number, holding a set only at the levels that carry keys.

A level without keys keeps the level below's order, so a system whose key
levels are renumbered, in order, answers every query at a key level as the
original does at the matching one, and at a gap level as at the key level
below it.  Deep level numbers therefore cost nothing, and a system that adds
a level below its parent's deepest still links to its end-extension base.
"""

import random
import time
import tracemalloc

from stabforce import StabilitySystem
from stabforce.cli import main
from stabforce.errors import TargetNotReachableError
from stabforce.gen import mutate_system, random_chain, random_system
from stabforce.ordinal import OMEGA
from stabforce.ordinal import parse_ordinal as O
from stabforce.poset import extend_with_top_exception
from stabforce.simulate import make_pattern, run_construction
from stabforce.stability import (
    Violation,
    _compiled,
    _pred,
    dom_f,
    f_eval,
    is_k_lim2,
    is_k_limit,
    le_k,
    lt_k,
    pred_set,
    probe_points,
    system_from_json,
    system_to_json,
    validate,
)
from test_incremental import (  # noqa: F401  (fixture)
    assert_same_as_cold,
    linear_base_at_most,
    made_from,
    random_pattern,
)

DEEP = 300_000_000
RENUMBER = {1: 1, 2: 7, 3: 1000, 4: DEEP}
# every key level, the levels around it, and one past the deepest
LEVELS = sorted({m + d for m in RENUMBER.values() for d in (-1, 0, 1)} - {0})
GRID = 6
# A kernel stepping through every level number took about 18 s on the deep
# file and ran out of memory; rows with sets only at key levels take
# milliseconds.  The bound is loose so that a loaded machine does not fail
# it, and tracemalloc checks the cost.
SLOW_S = 2.0


def dense_level(m: int) -> int:
    """The dense level whose order the renumbered level m has: the deepest
    renumbered key level at or below m, or 0 below the first."""
    return max((k for k, s in RENUMBER.items() if s <= m), default=0)


def renumbered(p: StabilitySystem) -> StabilitySystem:
    return StabilitySystem(p.bound, {RENUMBER[k]: dict(e) for k, e in p.levels})


def renumbered_chain(chain: list[StabilitySystem]) -> list[StabilitySystem]:
    """A chain of end-extensions rebuilt on renumbered levels: each system is
    made from the previous one by ``with_bound`` and ``with_exception``, so
    its links form as the library forms them."""
    out = [renumbered(chain[0])]
    for prev, q in zip(chain, chain[1:]):
        s = out[-1] if q.bound == prev.bound else out[-1].with_bound(q.bound)
        old = {(k, g) for k, e in prev.levels for g, _ in e}
        for k, e in reversed(q.levels):  # deepest first, so a later level may be new
            for g, v in e:
                if (k, g) not in old:
                    s = s.with_exception(RENUMBER[k], g, v)
        out.append(s)
    return out


def renumbered_violation(v: Violation) -> Violation:
    m = RENUMBER.get(v.level, v.level)
    return Violation(v.check, m, v.subject,
                     v.message.replace(f"level-{v.level} ", f"level-{m} "))


def grid(p: StabilitySystem) -> tuple:
    pts = probe_points(p)
    step = -(-len(pts) // GRID)
    return pts[::step] + pts[-1:] if len(pts) > GRID else pts


def assert_renumbering_agrees(p: StabilitySystem, s: StabilitySystem) -> None:
    """s is p on renumbered levels: the order queries at every level of
    ``LEVELS`` read as p's at its dense level, and so does the map there,
    which at a gap level is the identity on the level-below limits."""
    assert validate(s).violations == tuple(map(renumbered_violation, validate(p).violations))
    if not p.bound.is_successor:
        return
    pts = grid(p)
    for m in LEVELS:
        k = dense_level(m)
        key_level = RENUMBER.get(k) == m
        for b in pts:
            assert pred_set(s, m, b) == pred_set(p, k, b), (p, m, b)
            assert is_k_limit(s, m, b) == is_k_limit(p, k, b), (p, m, b)
            assert is_k_lim2(s, m, b) == is_k_lim2(p, k, b), (p, m, b)
            if key_level:
                assert dom_f(s, m, b) == dom_f(p, k, b), (p, m, b)
                assert f_eval(s, m, b) == f_eval(p, k, b), (p, m, b)
            else:
                assert dom_f(s, m, b) == dom_f(p, k + 1, b), (p, m, b)
                assert f_eval(s, m, b) == (b if dom_f(p, k + 1, b) else None), (p, m, b)
            for a in pts:
                assert lt_k(s, m, a, b) == lt_k(p, k, a, b), (p, m, a, b)
                assert le_k(s, m, a, b) == le_k(p, k, a, b), (p, m, a, b)


def test_renumbered_levels_answer_as_the_dense_ones():
    rng = random.Random(1707)
    systems = linked = 0
    for i in range(120):
        p = random_system(rng, small=i % 2 == 0)
        for q in (p, mutate_system(rng, p)):
            assert_renumbering_agrees(q, renumbered(q))
            systems += 1
    for _ in range(60):
        chain, _ = random_chain(rng)
        for p, s in zip(chain, renumbered_chain(list(chain))):
            assert_renumbering_agrees(p, s)
            systems += 1
            linked += s._base is not None
    assert systems >= 400 and linked >= 60, (systems, linked)


def test_a_construction_whose_pin_levels_go_down_matches_cold(made_from):
    """The pins go to level 3, then 1, then 2.  Levels 1 and 2 first appear
    below the deepest level, 4, so the systems that add them link to a base
    with a level deeper than the one they add, and every step answers as its
    cold rebuild does."""
    pattern = make_pattern([("w*6", True, [1, 2]), ("w*20", True, []), ("w*30", True, [1])],
                           [("w*6", "w*20", 1), ("w*20", "w*30", 1)])
    result = run_construction(pattern)
    assert [o.ell for o in result.per_point] == [3, 1, 2]
    for step in result.trace:
        assert_same_as_cold(step.system)
    added_below = 0
    for parent, cut, q in made_from:
        new = {k for k, _ in q.levels} - {k for k, _ in parent.levels}
        if new and parent.levels and min(new) < parent.levels[-1][0]:
            assert q._base is linear_base_at_most(parent, cut), q
            assert q._base.depth > min(new), q
            added_below += 1
    assert added_below >= 2


def unshared_rows(result) -> int:
    """How many compiled keys of the systems along a construction's trace
    hold a row other than the final system's row for that key."""
    final = {}
    for entries, _, rows, _ in _compiled(result.g).values():
        for (g, _), row in zip(entries, rows):
            final.setdefault(g, row)
    return sum(row is not final[g] for step in result.trace
               for entries, _, rows, _ in _compiled(step.system).values()
               for (g, _), row in zip(entries, rows))


def test_a_construction_compiles_each_key_once():
    """Along a construction, every system holds the final system's row for
    each of its keys, also where a step adds a level below its parent's
    deepest, so no key of the trace is compiled twice."""
    pins_going_down = make_pattern(
        [("w*6", True, [1, 2]), ("w*20", True, []), ("w*30", True, [1])],
        [("w*6", "w*20", 1), ("w*20", "w*30", 1)])
    results = [run_construction(pins_going_down)]
    rng = random.Random(19)
    while len(results) < 21:
        try:
            results.append(run_construction(random_pattern(rng, 7, len(results) % 2 == 0)))
        except TargetNotReachableError:
            pass
    for result in results:
        assert unshared_rows(result) == 0, result.g


def test_siblings_that_add_a_level_below_the_deepest_share_rows_soundly():
    """A base with levels 3 and 4 gets two siblings that add level 1 and
    level 2.  Both link to the base and share its key rows, which they fill
    at a level the base lacks.  Queried interleaved, in both level orders,
    each system answers as its cold rebuild does."""
    base = run_construction(make_pattern([("w*6", True, [1, 2])], [])).g
    assert [k for k, _ in base.levels] == [3, 4]
    siblings = [extend_with_top_exception(base, base.top + OMEGA, lvl, O("0")) for lvl in (1, 2)]
    assert all(q._base is base for q in siblings)
    systems = [base, *siblings]
    colds = [system_from_json(system_to_json(q)) for q in systems]
    pts = sorted({b for q in systems for b in probe_points(q)}, key=lambda a: a.terms)
    levels = range(7)
    for order in (levels, levels[::-1]):
        for b in pts:
            for k in order:
                for q, r in zip(systems, colds):
                    if b < q.bound:
                        assert _pred(q, k, b) == _pred(r, k, b), (q, k, b)
    level3 = _compiled(base)[3][2]
    assert any(row is x for q in siblings for x in q._memo.values() for row in level3)
    for q, r in zip(systems, colds):
        assert validate(q) == validate(r)


def run_timed(capsys, *argv):
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    return code, capsys.readouterr().out, elapsed


def deep_file(tmp_path, level: int) -> str:
    path = tmp_path / f"deep{level}.json"
    path.write_text('{"bound": "w*3+1", "levels": {"%d": {"w*2": "5"}}}' % level,
                    encoding="utf-8")
    return str(path)


def test_a_key_at_a_deep_level_costs_what_a_shallow_one_does(capsys, tmp_path):
    path = deep_file(tmp_path, DEEP)
    for argv, expect in ((("validate", path), "valid"),
                         (("rel", "--k", "1", "0", "w", path), "true"),
                         (("preds", "--k", str(DEEP), "w*3", path), "[0, 6) u [w*2, w*3)")):
        code, out, elapsed = run_timed(capsys, *argv)
        assert (code, out.strip()) == (0, expect), argv
        assert elapsed < SLOW_S, (argv, elapsed)

    def peak(level: int) -> int:
        p = system_from_json(open(deep_file(tmp_path, level), encoding="utf-8").read())
        tracemalloc.start()
        try:
            assert validate(p).valid
            assert str(pred_set(p, level, O("w*3"))) == "[0, 6) u [w*2, w*3)"
            assert lt_k(p, 1, O("0"), O("w"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    shallow, deep = peak(2), peak(DEEP)
    assert deep <= 2 * shallow, (shallow, deep)
