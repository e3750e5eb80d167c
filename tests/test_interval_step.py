"""The interval-bisecting ``_step`` and the key-scanning ``_blocking_witness``
against copies of the walks they replaced.

``walking_step`` is ``stability._step`` as it was: it walks down every key
below the bound it is given, one membership test in ``below`` each, until one
with a stored row lies in ``below``.  ``_step`` now bisects the keys once per
interval of ``below`` and steps down only past row-less keys inside an
interval.  Each system is built and queried twice, once with the walk
monkeypatched in as the reference, and every ``pred_set`` at levels 1 to
depth + 1 and every ``validate`` report must agree.  Systems are queried cold
in ascending order and, after ``validate`` has compiled them, in descending
order.  ``full_scan_witness`` is ``_blocking_witness`` before it started its
scan at the first key above alpha.
"""

import random
from bisect import bisect_right

from stabforce import StabilitySystem, minimality_report, probe_points, simulate
from stabforce import stability
from stabforce.gen import mutate_system, random_system
from stabforce.ordinal import IntervalSet, _cut
from stabforce.ordinal import parse_ordinal as O
from stabforce.simulate import run_construction
from stabforce.stability import _blocking_witness, _compiled, pred_set, validate
from test_incremental import random_pattern
from test_stability import _chain_pattern, grow_linked, random_invalid_system
from test_successor_rows import query_points
from test_terms_comparisons import constructions

SKIPS = []  # one entry per walking step that passed a row-less key inside ``below``


def walking_step(terms, rows, j, i, below, c):
    lows, highs = below.lows, below.highs
    skipped = False
    for i in range(i - 1, -1, -1):
        g = terms[i]
        if (x := bisect_right(lows, g)) and g < highs[x - 1]:
            if rows[i] is None:
                skipped = True
                continue
            SKIPS.append(skipped)
            head = rows[i][j]
            if head.highs and c < head.highs[-1]:
                return IntervalSet._ends(*_cut(head.lows, head.highs, (), c))
            lows, highs = _cut(lows, highs, g, c)
            return IntervalSet._ends(head.lows + lows, head.highs + highs)
    SKIPS.append(skipped)
    if not highs or highs[-1] <= c:
        return below
    return IntervalSet._ends(*_cut(lows, highs, (), c))


def points(p):
    """The probe grid (for a successor bound) with 0, 1, every key and value
    and their successors x + 1 and x + 2 below the bound, ascending."""
    pts = set(query_points(p))
    if p.bound.is_successor:
        pts.update(probe_points(p))
    return sorted(pts, key=lambda a: a.terms)


def answers(build):
    """Every set and report of the systems ``build()`` makes, queried cold in
    ascending order, then on a second build, compiled first, descending."""
    out = []
    for warm in (False, True):
        for p in build():
            if warm:
                validate(p)
            pts = points(p)
            for b in (pts[::-1] if warm else pts):
                out += [pred_set(p, k, b) for k in range(1, p.depth + 2)]
            out.append(validate(p))
    return out


def assert_matches_walk(monkeypatch, build):
    """0 disagreements with the walk; returns the walk's steps that skipped
    a row-less key."""
    SKIPS.clear()
    with monkeypatch.context() as m:
        m.setattr(stability, "_step", walking_step)
        want = answers(build)
    skipped = sum(SKIPS)
    got = answers(build)
    assert len(got) == len(want) > 0
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, (len(bad), bad[0])
    return skipped


def random_systems(seed, count, small):
    rng = random.Random(seed)
    return [random_system(rng, small=small) for _ in range(count)]


def test_random_systems_small_and_full_range(monkeypatch):
    for small in (True, False):
        assert_matches_walk(monkeypatch, lambda: random_systems(71, 60, small))


def test_mutants_skip_row_less_keys_inside_below(monkeypatch):
    def build():
        rng = random.Random(73)
        return [mutate_system(rng, random_system(rng, small=i % 2 == 0)) for i in range(120)]

    built = build()
    assert sum(not validate(p).valid for p in built) > 100
    assert assert_matches_walk(monkeypatch, build) > 50


def test_linked_chains(monkeypatch):
    """Chains grown by ``with_bound`` and ``with_exception`` on valid, mutated
    and invalid bases.  The valid bases are linked too: ``random_system``
    places each exception with ``extend_with_top_exception``, which links
    through ``_with_top_exception``."""
    def build():
        rng = random.Random(79)
        out = []
        for i in range(45):
            base = (random_system(rng), mutate_system(rng, random_system(rng)),
                    random_invalid_system(rng))[i % 3]
            out += grow_linked(rng, base, steps=2)
        return out

    built = build()
    assert sum(p._base is not None for p in built) > 100
    assert assert_matches_walk(monkeypatch, build) > 0


def test_constructions_up_to_160_keys(monkeypatch):
    def build():
        rng = random.Random(83)
        out = [run_construction(random_pattern(rng, 6, i % 2 == 0)).g for i in range(4)]
        for n in (20, 80):  # 40 and 160 keys, the 160 cold
            g = run_construction(_chain_pattern(n)).g
            out.append(g if n < 80 else StabilitySystem(g.bound, g._as_dict()))
        return out

    assert max(p.exception_count() for p in build()) == 160
    assert_matches_walk(monkeypatch, build)


def test_a_row_less_key_between_g_star_and_b(monkeypatch):
    """At level 1, w*3 binds nothing (its value is above it) and lies between
    g* = w*2 and b = w*4 inside ``P_0(b)``; at level 2, the key w lies in a
    gap of ``P_1(b)``."""
    def build():
        return [StabilitySystem(O("w*5+1"), {1: {O("w*2"): O("5"), O("w*3"): O("w*3+1")},
                                             2: {O("w"): O("0")}})]

    p = build()[0]
    assert _compiled(p)[1][2][1] is None  # level 1's rows: w*3 has none
    assert str(pred_set(p, 1, O("w*4"))) == "[0, 6) u [w*2, w*4)"
    assert str(pred_set(p, 2, O("w*4"))) == "[0, 6) u [w*2, w*4)"
    assert [v.check for v in validate(p).violations] == ["V3", "V5"]  # w*3 binds nothing
    assert assert_matches_walk(monkeypatch, build) > 0


def full_scan_witness(g, k, alpha, below):
    entries, terms, rows, _ = _compiled(g)[k]
    t = alpha.terms
    return next((k, key, value) for (key, value), g_t, row in zip(entries, terms, rows)
                if row is not None and t < g_t and value.terms < t and below.member(key))


def test_blocking_witness_matches_the_full_scan(monkeypatch):
    """On the minimality grids of 300 constructions, with points above the
    top, the scan from the first key above alpha finds the full scan's key."""
    pairs = []

    def both(g, k, alpha, below):
        got = _blocking_witness(g, k, alpha, below)
        pairs.append((got, full_scan_witness(g, k, alpha, below)))
        return got

    monkeypatch.setattr(simulate, "_blocking_witness", both)
    for r in constructions(300, 89):
        top = r.g.top
        minimality_report(r, list(probe_points(r.g)) + [top + O("w"), top + O("w*2+3")])
    assert len(pairs) > 1000
    assert all(got[0] == want[0] and got[1] is want[1] and got[2] is want[2]
               for got, want in pairs)
