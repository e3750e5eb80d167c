"""The end-extension path against cold rebuilds.

Systems made by ``with_bound``, ``with_exception`` and
``_with_top_exception`` keep a link to an end-extension base and extend the
base's compiled levels, violations included, with their own keys, which the
compile pass checks as it compiles them.  A cold rebuild of the same system
has no link, so every comparison here sets the incremental path against the
from-scratch one.
"""

import random

import pytest

from stabforce import StabilitySystem
from stabforce.errors import BudgetExhaustedError, TargetNotReachableError
from stabforce.gen import random_chain, random_system, random_tower
from stabforce.ordinal import OMEGA, ONE
from stabforce.ordinal import parse_ordinal as O
from stabforce.poset import (
    canonical_extend,
    extend_to_chain_limit,
    extend_with_top_exception,
    meet_dense,
    taller_than,
    top_chain_limit,
)
from stabforce.simulate import (
    check_requirements,
    check_stable_pairs,
    make_pattern,
    run_construction,
    validate_pattern,
)
from stabforce.stability import (
    _compiled,
    _pred,
    is_k_limit,
    le_k,
    lt_k,
    pred_set,
    probe_points,
    system_from_json,
    system_to_json,
    validate,
)
from test_stability import _chain_pattern

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
    """Every system made by with_bound, with_exception or _with_top_exception,
    in creation order."""
    out: list[StabilitySystem] = []
    for name in ("with_bound", "with_exception", "_with_top_exception"):
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


# -- shared structure -------------------------------------------------------------


def linear_base_at_most(p: StabilitySystem, cut):
    """``_base_at_most`` by walking the base links one at a time."""
    node = p
    while node is not None and not (node.bound <= cut and node._keys_below_bound()):
        node = node._base
    return node


def chain_of(q: StabilitySystem) -> list[StabilitySystem]:
    out = []
    while q is not None:
        out.append(q)
        q = q._base
    return out


def assert_compiled_extends_base(q: StabilitySystem) -> None:
    """Each of q's compiled levels is its base's object when it gains no key,
    and otherwise starts with the base's keys, rows and violations; every
    old key's row is its base's very object.  A key has one row at all its
    levels, keyed by level number, holding at least its own level's set."""
    levels = _compiled(q)
    assert list(levels) == [k for k, _ in q.levels]
    row_of: dict = {}
    for k, (entries, terms, rows, violations) in levels.items():
        assert entries == q.entries_at(k)
        assert terms == [g.terms for g, _ in entries]
        assert len(rows) == len(entries)
        for (g, _), row in zip(entries, rows):
            assert k in row and row_of.setdefault(g, row) is row, (k, g)
        assert all(x.level == k for x in violations)
    if q._base is None:
        return
    for k, old in _compiled(q._base).items():
        new = levels[k]
        if len(new[0]) == len(old[0]):
            assert new is old and new[3] is old[3], k
        else:
            assert new[1][:len(old[1])] == old[1]
            assert all(x is y for x, y in zip(new[2], old[2])), k
            assert new[3][:len(old[3])] == old[3], k


def chain_points(q: StabilitySystem) -> list:
    """0, and each chain system's top, bound and the points around them that
    lie below q's bound."""
    pts = [O("0")]
    for node in chain_of(q):
        b = node.bound
        pts += [b, b + ONE]
        if b.is_successor:
            pts.append(b.predecessor())
    return [b for b in pts if b < q.bound]


@pytest.fixture
def made_from(monkeypatch):
    """(parent, cut, made system) for every with_bound, with_exception or
    _with_top_exception call; the cut is the new bound or the new key."""
    out: list = []
    for name, cut_at in (("with_bound", 0), ("with_exception", 1),
                         ("_with_top_exception", 1)):
        original = getattr(StabilitySystem, name)

        def recording(self, *args, _original=original, _cut_at=cut_at):
            q = _original(self, *args)
            out.append((self, args[_cut_at], q))
            return q

        monkeypatch.setattr(StabilitySystem, name, recording)
    return out


def assert_structure_matches_cold(q: StabilitySystem) -> None:
    r = cold(q)
    assert q.levels == r.levels
    assert q == r and hash(q) == hash(r)
    if q.bound.is_successor:
        assert q.top == r.top
    else:
        for s in (q, r, q):  # a limit bound raises on every call
            with pytest.raises(ValueError):
                s.top


def run_seeded_constructions(seed: int, count: int) -> None:
    rng = random.Random(seed)
    for t in range(count):
        pattern = random_pattern(rng, 7, adjacent_only=t % 2 == 0)
        try:
            result = run_construction(pattern)
        except TargetNotReachableError:
            continue
        check_requirements(result, pattern)
        check_stable_pairs(result, pattern)


def run_generators(seed: int) -> None:
    rng = random.Random(seed)
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


@pytest.mark.parametrize("make", [lambda: run_seeded_constructions(4, 10),
                                  lambda: run_generators(7)],
                         ids=["constructions", "generators"])
def test_extensions_share_structure_and_match_cold(made_from, make):
    make()
    assert made_from
    for parent, cut, q in made_from:
        assert_structure_matches_cold(q)
        assert q._base is linear_base_at_most(parent, cut)
        assert_compiled_extends_base(q)


def test_with_bound_reuses_the_levels():
    p = StabilitySystem(O("w*3+1"), {1: {O("w*2"): O("5")}, 2: {O("w*3"): O("1")}})
    q = p.with_bound(O("w*5+1"))
    assert q.levels is p.levels
    with pytest.raises(TypeError):
        p.with_bound(5)


def reference_with_exception(p: StabilitySystem, k, key, value) -> StabilitySystem:
    """``with_exception`` as a dict rebuild."""
    d = p._as_dict()
    lvl = d.setdefault(k, {})
    if key in lvl:
        raise ValueError(f"level {k} already has an exception at {key}")
    lvl[key] = value
    return StabilitySystem(p.bound, d)


def outcome(make):
    try:
        q = make()
    except ValueError as exc:
        return ("ValueError", str(exc))
    return ("ok", q.bound, q.levels)


def test_with_exception_matches_a_dict_rebuild():
    rng = random.Random(11)
    keys = [O(t) for t in ("w", "w*2", "w*3", "w*4", "w^2", "w^2+w", "7")]
    for _ in range(300):
        p = random_system(rng)
        for _ in range(4):
            k = rng.choice([-1, 0, 1, 1, 2, 3, p.depth + 2])
            key = rng.choice(keys + [g for _, e in p.levels for g, _ in e])
            value = rng.choice([key, O("0"), O("3"), key + ONE])
            got = outcome(lambda: p.with_exception(k, key, value))
            assert got == outcome(lambda: reference_with_exception(p, k, key, value))
            if got[0] == "ok":
                p = p.with_exception(k, key, value)
                assert [lvl for lvl, _ in p.levels] == sorted({lvl for lvl, _ in p.levels})


def test_with_exception_errors_identity_and_level_order():
    p = StabilitySystem(O("w*5+1"), {2: {O("w*2"): O("1")}})
    for k in (0, -3):
        with pytest.raises(ValueError, match=f"exception level {k} must be >= 1"):
            p.with_exception(k, O("w*3"), O("1"))
    with pytest.raises(ValueError, match="level 2 already has an exception at w\\*2"):
        p.with_exception(2, O("w*2"), O("w*2"))
    same = p.with_exception(3, O("w*4"), O("w*4"))  # identity: not stored
    assert same.levels is p.levels
    q = p.with_exception(3, O("w*4"), O("2")).with_exception(1, O("w*3"), O("0"))
    assert [k for k, _ in q.levels] == [1, 2, 3]
    r = q.with_exception(2, O("w"), O("0")).with_exception(2, O("w*3"), O("w"))
    assert [g for g, _ in r.entries_at(2)] == [O("w"), O("w*2"), O("w*3")]
    assert r.entries_at(1) is q.entries_at(1)  # untouched levels are shared
    assert r == cold(r)


def assert_long_chain_matches_cold(chain: list[StabilitySystem]) -> None:
    """The tip of a 3,000-link chain answers as its cold rebuild does, and
    every link shares its base's compiled levels by identity."""
    p = chain[-1]
    r = cold(p)
    for beta in chain_points(p)[::10] + [O("w"), O("5")]:
        for k in (1, 2):
            assert pred_set(p, k, beta) == pred_set(r, k, beta), (k, beta)
    assert validate(p) == validate(r)
    assert len(chain_of(p)) == len(chain)
    for node in chain[1:]:
        assert node._base is not None
        levels, base_levels = node._compiled, node._base._compiled
        assert list(levels) == list(base_levels) == [1]
        assert levels[1] is base_levels[1]


def test_long_with_bound_chain_shares_compiled_levels():
    p = StabilitySystem(O("w+1"), {1: {O("w"): O("3")}})
    chain = [p]
    for _ in range(3000):
        p = p.with_bound(p.bound + OMEGA)
        chain.append(p)
    assert all(node._compiled is None for node in chain)  # the tip compiles them all
    assert_long_chain_matches_cold(chain)


def test_long_canonical_chain_shares_compiled_levels():
    p = StabilitySystem(O("w+1"), {1: {O("w"): O("3")}})
    chain = [p]
    for _ in range(3000):
        p = canonical_extend(p, p.top + OMEGA)
        chain.append(p)
    assert_long_chain_matches_cold(chain)


def test_siblings_and_a_rejected_candidate_share_rows_soundly(made):
    """Two extensions of one base with different new keys, one at a level
    above the base's depth, and a candidate ``extend_with_top_exception``
    rejects all hold the base's key rows.  Queried interleaved, in both level
    orders, each answers as its cold rebuild does."""
    base = run_construction(_chain_pattern(6)).g
    top = base.top + OMEGA
    shallow = extend_to_chain_limit(base, 1, O("w*19"))
    deep = extend_to_chain_limit(base, 4, O("w*23"))
    made.clear()
    with pytest.raises(TargetNotReachableError):
        extend_with_top_exception(base, top, 2, O("w*6"))
    candidate = made[-1]
    assert candidate.exception_value(2, top) == O("w*6")
    systems = [base, shallow, deep, candidate]
    assert all(q._base is base for q in systems[1:])
    assert deep.depth == 5 > base.depth
    colds = [system_from_json(system_to_json(q)) for q in systems]
    pts = sorted({b for q in systems for b in probe_points(q)}, key=lambda a: a.terms)
    levels = range(deep.depth + 2)
    for order in (levels, levels[::-1]):
        for b in pts:
            for k in order:
                for q, r in zip(systems, colds):
                    if b < q.bound:
                        assert _pred(q, k, b) == _pred(r, k, b), (q, k, b)
    grown = [row for row in _compiled(base)[1][2] if max(row) > base.depth]
    assert grown and all(any(row is x for x in deep._memo.values()) for row in grown)
    for q, r in zip(systems, colds):
        assert validate(q) == validate(r)
