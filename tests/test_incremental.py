"""The end-extension path against cold rebuilds.

Systems made by ``with_bound`` and ``with_exception`` keep a link to an
end-extension base, answer queries below the base's bound through it, and
validate only the keys at or above it.  A cold rebuild of the same system has
no link, so every comparison here sets the incremental path against the
from-scratch one.
"""

import random

import pytest

from stabforce import StabilitySystem
from stabforce.errors import BudgetExhaustedError, TargetNotReachableError
from stabforce.gen import random_chain, random_system, random_tower
from stabforce.ordinal import OMEGA
from stabforce.ordinal import parse_ordinal as O
from stabforce.poset import canonical_extend, meet_dense, taller_than, top_chain_limit
from stabforce.simulate import (
    check_requirements,
    check_stable_pairs,
    make_pattern,
    run_construction,
    validate_pattern,
)
from stabforce.stability import is_k_limit, le_k, lt_k, pred_set, probe_points, validate

PROBE_SIZE = 10


def cold(q: StabilitySystem) -> StabilitySystem:
    return StabilitySystem(q.bound, q._as_dict())


def assert_same_as_cold(q: StabilitySystem) -> None:
    r = cold(q)
    assert r._base is None
    assert validate(q) == validate(r)
    grid = probe_points(q)
    step = -(-len(grid) // PROBE_SIZE)
    pts = grid[::step] + grid[-1:]
    for k in range(1, q.depth + 2):
        for b in pts:
            assert pred_set(q, k, b) == pred_set(r, k, b), (q, k, b)
            assert is_k_limit(q, k, b) == is_k_limit(r, k, b), (q, k, b)
            for a in pts:
                assert lt_k(q, k, a, b) == lt_k(r, k, a, b), (q, k, a, b)
                assert le_k(q, k, a, b) == le_k(r, k, a, b), (q, k, a, b)


@pytest.fixture
def made(monkeypatch):
    """Every system made by with_bound or with_exception, in creation order."""
    out: list[StabilitySystem] = []
    for name in ("with_bound", "with_exception"):
        original = getattr(StabilitySystem, name)

        def recording(self, *args, _original=original):
            q = _original(self, *args)
            out.append(q)
            return q

        monkeypatch.setattr(StabilitySystem, name, recording)
    return out


def random_pattern(rng: random.Random, n: int, adjacent_only: bool):
    """A pattern passing axioms A1-A4; non-adjacent degrees on request."""
    while True:
        m = rng.randrange(4, 9)
        pts = []
        for _ in range(n):
            club = rng.random() < 0.75
            flags = rng.choice([0, 0, 0, 1, 1, 2]) if club else rng.choice([0, 0, 1])
            pts.append((f"w*{m}", club, range(1, flags + 1)))
            m += rng.randrange(2, 5)
        pairs = [(i, i + 1) for i in range(n - 1) if rng.random() < 0.7]
        if not adjacent_only:
            pairs += [(i, rng.randint(i + 2, min(n - 1, i + 4)))
                      for i in rng.sample(range(n - 2), n // 3)]
        st = {(i, j): rng.randint(1, len(pts[i][2]) + 1 if pts[i][1] else 2) for i, j in pairs}
        pattern = make_pattern(pts, [(pts[i][0], pts[j][0], d) for (i, j), d in st.items()])
        if validate_pattern(pattern).passed:
            return pattern


def test_construction_steps_match_cold_rebuilds(made):
    rng = random.Random(4)
    outcomes = set()
    for t in range(10):
        pattern = random_pattern(rng, 7, adjacent_only=t % 2 == 0)
        made.clear()
        try:
            result = run_construction(pattern)
        except TargetNotReachableError:
            outcomes.add("unreachable")
        else:
            passed = (check_requirements(result, pattern).passed
                      and check_stable_pairs(result, pattern).passed)
            outcomes.add("pass" if passed else "check failed")
            for step in result.trace[1:]:
                assert step.system._base is not None
        for q in made:
            assert_same_as_cold(q)
    assert outcomes == {"pass", "check failed", "unreachable"}


def test_generator_systems_match_cold_rebuilds(made):
    rng = random.Random(7)
    for _ in range(12):
        random_tower(rng)
        random_chain(rng)
    for i in range(6):
        p = random_system(rng)
        dense = [taller_than(p.top + O("w*3")), top_chain_limit(1, O(str(i % 3)))]
        try:
            meet_dense(p, dense, 8)
        except BudgetExhaustedError:
            pass
    assert sum(q._base is not None for q in made) > len(made) // 2
    for q in made:
        assert_same_as_cold(q)


def invalid_bases():
    v5 = StabilitySystem(O("w*3+1"), {1: {O("w"): O("2"), O("w*2"): O("5")}})
    v3 = StabilitySystem(O("w*3+1"), {1: {O("w*2"): O("w*2+1")},
                                      2: {O("w*2"): O("w*2+2")}})
    return [v5, v3]


@pytest.mark.parametrize("base", invalid_bases())
def test_invalid_base_violations_are_inherited_in_order(base):
    before = validate(base)
    assert {"V3", "V5"} & {v.check for v in before.violations}
    taller = base.with_bound(O("w*6+1"))
    assert taller._base is base
    assert validate(taller) == validate(cold(taller)) == before
    for k, key, value in ((1, O("w*4"), O("w+3")), (1, O("w*4"), O("w*4+2")),
                          (2, O("w*5"), O("1")), (3, O("w*5"), O("0"))):
        q = taller.with_exception(k, key, value)
        assert q._base is base
        assert validate(q) == validate(cold(q))
        r = q.with_exception(1, O("w*5"), O("w*3"))
        assert validate(r) == validate(cold(r))
        assert_same_as_cold(r)


def test_base_with_key_at_or_above_its_bound_gets_no_link():
    p = StabilitySystem(O("w*2+1"), {1: {O("w*3"): O("5")}})
    assert not validate(p).valid
    assert p.with_bound(O("w*4+1"))._base is None
    assert p.with_exception(1, O("w*5"), O("3"))._base is None
    q = StabilitySystem(O("w+1")).with_bound(O("w*2+1"))
    assert q._base is not None
    r = q.with_exception(1, O("w*3"), O("w*2"))  # key above r's own bound
    assert r._base is q
    assert r.with_bound(O("w*6+1"))._base is q
    for s in (r, r.with_bound(O("w*6+1"))):
        assert validate(s) == validate(cold(s))


def test_key_at_a_limit_bound_of_the_base_is_checked_fresh():
    base = StabilitySystem(O("w*2"))  # V1: limit bound, so a key may sit on it
    for value in ("3", "w*2+1"):
        q = base.with_exception(1, O("w*2"), O(value)).with_bound(O("w*3+1"))
        assert q._base is base
        assert [v.check for v in validate(q).violations] == ([] if value == "3" else ["V3", "V5"])
        assert_same_as_cold(q)


def test_long_chain_has_no_recursion():
    p = StabilitySystem(O("w+1"), {1: {O("w"): O("3")}})
    for _ in range(3000):
        p = canonical_extend(p, p.top + OMEGA)
    assert validate(p).valid
    assert lt_k(p, 1, O("3"), O("w")) and not lt_k(p, 1, O("4"), O("w*3"))
    q = StabilitySystem(O("w+1"), {1: {O("w"): O("3")}})
    for _ in range(3000):
        q = q.with_bound(q.bound + OMEGA)
    assert validate(q) == validate(cold(q))
    assert pred_set(q, 2, O("w*2")) == pred_set(cold(q), 2, O("w*2"))
