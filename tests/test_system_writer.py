"""The system writer and the term-level pattern code against what they replaced.

``stability._json_text`` writes a ``StabilitySystem`` straight from its level
tuples, with the bytes ``json.dumps(system_to_dict(p), indent=2)`` gives at
the same indentation, and caches the text of each entry and of each level
tuple for one call.  The reference here maps every system of a payload
through ``system_to_dict`` and hands the result to ``json.dumps``.

``simulate._check_axioms`` keys positions and declared pairs by CNF terms
and tests the A1 gap as the sum a + w + w, ``StabilitySystem.exception_value``
bisects a level's entries, and ``simulate._derive_assignments`` looks each
(earlier point, point) degree up once.  Each is compared with a test-local
copy of the code it replaced, on generated patterns and systems, valid and
not.
"""

import json
import random
from functools import lru_cache

from hypothesis import example, given, settings, strategies as st

from stabforce import CheckReport, StabilitySystem, Violation, cli, extend_to_chain_limit
from stabforce import stability
from stabforce.gen import random_system
from stabforce.ordinal import OMEGA, ZERO, Ordinal
from stabforce.ordinal import parse_ordinal as O
from stabforce.simulate import (
    Assignment,
    PatternPoint,
    StabilityPattern,
    _check_axioms,
    _derive_assignments,
    _least_unflagged,
    pattern_to_dict,
    result_payload,
    result_to_dict,
    run_construction,
)
from stabforce.stability import _json_text, system_to_dict, system_to_json
from test_stability import _chain_pattern, grow_linked, predecessor_law_systems


def plain(obj):
    """``obj`` with every system replaced by its ``system_to_dict``."""
    if isinstance(obj, StabilitySystem):
        return system_to_dict(obj)
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [plain(v) for v in obj]
    return obj


def assert_writes_like_dumps(payload):
    assert _json_text(payload) == json.dumps(plain(payload), indent=2)


@lru_cache(maxsize=None)
def construction(points: int):
    return run_construction(_chain_pattern(points))


@lru_cache(maxsize=None)
def system_pool() -> tuple:
    """Systems with no levels, random, linked and cold ones, and the trace of
    a construction, whose systems share their entries and level tuples."""
    rng = random.Random(7)
    pool = [StabilitySystem(O("1")), StabilitySystem(O("w^2*3+w+5"))]
    for _ in range(6):
        pool += grow_linked(rng, random_system(rng), steps=2)
    pool += [StabilitySystem(p.bound, p._as_dict()) for p in pool[2:6]]
    pool += [step.system for step in construction(10).trace]
    return tuple(pool)


_leaves = st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.text(max_size=4)
_systems = st.integers(0, 10**6).map(lambda i: system_pool()[i % len(system_pool())])
_payloads = st.recursive(
    _leaves | _systems | _systems,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=5),
    max_leaves=24)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_payloads)
@example(StabilitySystem(O("1")))
@example({"a": [StabilitySystem(O("1"))], "b": {}})
def test_systems_at_random_depths_match_json_dumps(payload):
    assert_writes_like_dumps(payload)


def test_the_same_system_at_two_depths():
    g = construction(10).g
    assert_writes_like_dumps({"system": g, "trace": [{"system": g}, [[g]]], "again": g})
    assert_writes_like_dumps([g, {"x": {"y": g}}, g])


def test_linked_chains_share_level_tuples():
    rng = random.Random(3)
    shared = 0
    for _ in range(40):
        chain = grow_linked(rng, random_system(rng), steps=3)
        ids = [id(entries) for p in chain for _, entries in p.levels]
        shared += len(ids) - len(set(ids))
        assert_writes_like_dumps(chain)
        assert_writes_like_dumps({"chain": chain, "last": chain[-1], "first": [chain[0]]})
    assert shared > 20


def test_a_system_with_no_levels():
    p = StabilitySystem(O("w*3+1"))
    assert system_to_json(p) == json.dumps({"bound": "w*3+1", "levels": {}}, indent=2)
    assert_writes_like_dumps({"p": p, "q": [p, extend_to_chain_limit(p, 1, O("5"))]})


def test_the_cache_dies_with_the_call():
    # fresh systems reuse the ids of those freed before them; a cache that
    # outlived its call would print a freed tuple's text for a new one
    for i in range(200):
        p = StabilitySystem(O(f"w*{i + 3}+1"), {1: {O(f"w*{i + 2}"): O(str(i % 7))},
                                                2: {O("w"): O(str(i % 5 + 1))}})
        assert system_to_json(p) == json.dumps(system_to_dict(p), indent=2)


def test_construction_outputs_match_the_dict_view():
    for points in (1, 10, 40, 80):
        result = construction(points)
        payload = result_payload(result)
        assert plain(payload) == result_to_dict(result)
        assert_writes_like_dumps(payload)


def test_simulate_formats_each_entry_once(tmp_path, monkeypatch):
    """``simulate --json`` on a 40-point pattern formats each distinct entry's
    key and value once and each printed system's bound once; a writer that
    formats every entry of every trace step makes thousands of calls."""
    pattern = _chain_pattern(40)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(pattern_to_dict(pattern)), encoding="utf-8")
    result = construction(40)
    entries = {(k, e) for step in result.trace for k, es in step.system.levels for e in es}
    systems = len(result.trace) + 1  # the trace and the result, printed twice
    calls = []
    real = stability.format_ordinal
    monkeypatch.setattr(stability, "format_ordinal", lambda a: calls.append(a) or real(a))
    assert cli.main(["simulate", str(path), "--json"]) == 0
    assert len(entries) == 80
    assert len(calls) <= 2 * len(entries) + systems + 4


# -- term-level pattern code against the code it replaced ---------------------


_POSITIONS = [O(t) for t in ("0", "5", "w", "w+3", "w*2", "w*3", "w*4", "w*5", "w*7", "w*9",
                             "w^2", "w^2+5", "w^2+w", "w^2+w*2", "w^2+w*3", "w^2+w*5",
                             "w^2*2+w*4", "w^3", "w^3+w", "w^3+w^2+w", "w^3+w^2+w*3")]


def random_pattern(rng):
    """Up to 10 points from a pool of limits, successors and lim2 points,
    sorted in most patterns and shuffled or repeated in the rest, and degree
    entries among them, some out of order, repeated or naming no point."""
    pos = rng.sample(_POSITIONS, rng.randrange(1, 11))
    if rng.random() < 0.7:
        pos.sort()
    elif rng.random() < 0.5:
        pos.append(rng.choice(pos))
    points = tuple(PatternPoint(p, rng.random() < 0.7,
                                frozenset(rng.sample(range(0, 4), rng.randrange(0, 3))))
                   for p in pos)
    names = pos + [O("w*41")]
    st = tuple((rng.choice(names), rng.choice(names), rng.randrange(0, 4))
               for _ in range(rng.randrange(0, 12)))
    return StabilityPattern(points=points, st=st)


def axioms_by_ordinals(pattern):
    """``_check_axioms`` as it was, with ``Ordinal`` keys and sums."""
    violations = []
    pts = pattern.points
    positions = {pt.pos: pt for pt in reversed(pts)}
    for pt in pts:
        if not (pt.pos.is_limit and not pt.pos.is_lim2):
            violations.append(Violation("A1", 0, str(pt.pos),
                                        "position must be a limit with last exponent 1"))
        for lvl in pt.cofinal_levels:
            if lvl < 1:
                violations.append(Violation("A3", lvl, str(pt.pos),
                                            "cofinal levels must be >= 1"))
    for a, b in zip(pts, pts[1:]):
        if not a.pos < b.pos:
            violations.append(Violation("A1", 0, str(b.pos), "positions must strictly increase"))
        elif not a.pos + O("w*2") <= b.pos:
            violations.append(Violation("A1", 0, str(b.pos),
                                        f"gap below {a.pos} is smaller than w*2"))
    declared = set()
    for i, j, d in pattern.st:
        if d < 1:
            violations.append(Violation("A2", 0, f"({i}, {j})", "declared degrees must be >= 1"))
        if i not in positions or j not in positions or not i < j:
            violations.append(Violation("A2", 0, f"({i}, {j})",
                                        "degree must relate two listed positions in order"))
        if (i, j) in declared:
            violations.append(Violation("A2", 0, f"({i}, {j})", "pair declared more than once"))
        declared.add((i, j))
    for i, j, dij in pattern.st:
        for pt in pts:
            jp = pt.pos
            if not i < jp < j:
                continue
            k_max = min(dij - 1, pattern.degree(jp, j))
            if k_max >= 1 and pattern.degree(i, jp) < k_max + 1:
                violations.append(Violation(
                    "A2", k_max, f"({i}, {jp}, {j})",
                    f"coherence forces degree >= {k_max + 1} on ({i}, {jp})"))
    for pt in pts:
        closure = set(range(1, len(pt.cofinal_levels) + 1))
        if set(pt.cofinal_levels) != closure and pt.cofinal_levels:
            violations.append(Violation("A3", 0, str(pt.pos),
                                        "cofinal levels must be downward closed"))
    for i, j, d in pattern.st:
        pt = positions.get(i)
        if pt is not None and pt.in_c and _least_unflagged(pt) < d:
            violations.append(Violation(
                "A4", d, f"({i}, {j})",
                f"degree {d} of a club point needs cofinality flags up to {d - 1}"))
    return CheckReport(name="pattern axioms", violations=tuple(violations))


def assignments_per_level(pattern):
    """``_derive_assignments`` as it was: one degree lookup per pair and level."""
    out = {}
    for pt in pattern.points:
        ell = _least_unflagged(pt)
        sup = {}
        for level in range(1, ell + 2):
            best = ZERO
            for prev in pattern.points:
                if prev.pos >= pt.pos:
                    break
                if prev.in_c and pattern.degree(prev.pos, pt.pos) >= level:
                    best = prev.pos
            sup[level] = best
        out[pt.pos] = Assignment(ell=ell, sup_stable=sup)
    return out


def test_pattern_axioms_and_assignments_match_the_ordinal_code():
    rng = random.Random(23)
    gaps = kinds = nonzero = 0
    for _ in range(400):
        pattern = random_pattern(rng)
        got = _check_axioms(pattern)
        assert got == axioms_by_ordinals(pattern)
        gaps += any(v.message.startswith("gap below") for v in got.violations)
        kinds += len({v.check for v in got.violations}) == 4
        assignments = _derive_assignments(pattern)
        assert assignments == assignments_per_level(pattern)
        nonzero += any(v for a in assignments.values() for v in a.sup_stable.values())
    assert gaps > 100 and kinds > 100 and nonzero > 80


def test_gap_on_terms_at_its_edges():
    # a + w*2 merges a's coefficient of w, drops its finite part and keeps
    # the terms above w; b one below, at and one above the sum
    for a in _POSITIONS:
        total = a + O("w*2")
        for b in (total, total + O("1"), total + O("w")):
            pattern = StabilityPattern(points=(PatternPoint(a, True, frozenset()),
                                               PatternPoint(b, True, frozenset())), st=())
            assert _check_axioms(pattern) == axioms_by_ordinals(pattern)
        for b in _POSITIONS:
            if a < b < total:
                pattern = StabilityPattern(points=(PatternPoint(a, True, frozenset()),
                                                   PatternPoint(b, True, frozenset())), st=())
                assert any(v.message.startswith("gap below") for v in
                           _check_axioms(pattern).violations)


def gap_on_terms(t, u):
    """The A1 gap test as it was on the CNF terms t of a and u of b: a + w*2
    keeps a's terms above w and adds 2 to its coefficient of w."""
    return (*[x for x in t if x[0] > 1], (1, next((c for e, c in t if e == 1), 0) + 2)) > u


def random_position(rng):
    """An ordinal below w^4 with random terms: zero, finite, a limit or lim2."""
    exponents = sorted(rng.sample(range(4), rng.randrange(0, 5)), reverse=True)
    return Ordinal(tuple((e, rng.randrange(1, 4)) for e in exponents))


def test_a1_gap_sum_matches_the_terms_expression():
    rng = random.Random(31)
    seen = set()
    for _ in range(3000):
        a = random_position(rng)
        for b in (random_position(rng), a + random_position(rng), a + OMEGA + random_position(rng),
                  a + OMEGA + OMEGA + random_position(rng)):
            if not a < b:
                continue
            pattern = StabilityPattern(points=(PatternPoint(a, True, frozenset()),
                                               PatternPoint(b, True, frozenset())), st=())
            small = any(v.message.startswith("gap below") for v in _check_axioms(pattern).violations)
            assert small == gap_on_terms(a.terms, b.terms), (a, b)
            kind = "zero" if a.is_zero else "finite" if not a.is_limit else \
                "lim2" if a.is_lim2 else "limit"
            seen.add((kind, small))
    assert len(seen) == 8


def test_assignments_match_on_constructions():
    for points in (10, 40):
        pattern = _chain_pattern(points)
        assert _derive_assignments(pattern) == assignments_per_level(pattern)


def test_exception_value_matches_the_linear_scan():
    rng = random.Random(9)
    systems = hits = 0
    for p in predecessor_law_systems(random.Random(5)):
        systems += 1
        probes = [g for _, entries in p.levels for g, _ in entries]
        probes += [g + O("1") for g in probes] + [ZERO, p.bound, O("w*2"), O("w^2")]
        for k in range(0, p.depth + 2):
            for alpha in rng.sample(probes, min(12, len(probes))):
                old = next((v for g, v in p.entries_at(k) if g == alpha), None)
                assert p.exception_value(k, alpha) == old
                hits += old is not None
    for step in construction(40).trace:
        p = step.system
        for k, entries in p.levels:
            for g, v in entries:
                assert p.exception_value(k, g) is v
                assert p.exception_value(k, g + O("1")) is None
    assert systems > 1000 and hits > 3000
