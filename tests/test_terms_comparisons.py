"""Three lookups that compare CNF terms, against copies of the versions that
compared ``Ordinal`` objects with Python-level operators.

- ``stability._blocking_witness`` tests ``alpha < key`` and ``value < alpha``
  on terms; ``old_blocking_witness`` is the ``Ordinal`` version.
- ``StabilitySystem.max_key`` takes the largest last key of each level by
  its terms, and ``_keys_below_bound`` compares those keys' terms with the
  bound's; ``old_max_key`` and ``old_keys_below_bound`` are the ``Ordinal``
  versions.
- ``SimulationResult.outcome_at`` is one dict lookup by terms;
  ``old_outcome_at`` is the linear scan with ``Ordinal.__eq__``.
"""

import random

import pytest

from stabforce import StabilitySystem, minimality_report, probe_points, run_construction, simulate
from stabforce.errors import TargetNotReachableError
from stabforce.gen import mutate_system, random_system
from stabforce.ordinal import parse_ordinal as O
from stabforce.stability import _blocking_witness, _compiled
from test_incremental import random_pattern
from test_stability import random_invalid_system, w_plus


def old_blocking_witness(g, k, alpha, below):
    entries, _, rows, _ = _compiled(g)[k]
    return next((k, key, value) for (key, value), row in zip(entries, rows)
                if row is not None and alpha < key and value < alpha and below.member(key))


def old_max_key(p):
    keys = [entries[-1][0] for _, entries in p.levels]
    return max(keys) if keys else None


def old_keys_below_bound(p):
    top_key = old_max_key(p)
    return top_key is None or top_key < p.bound


def old_outcome_at(result, pos):
    for o in result.per_point:
        if o.pos == pos:
            return o
    raise KeyError(str(pos))


def constructions(count, seed):
    rng = random.Random(seed)
    made = 0
    while made < count:
        try:
            r = run_construction(random_pattern(rng, rng.randrange(2, 8), made % 2 == 0))
        except TargetNotReachableError:
            continue
        made += 1
        yield r


def test_blocking_witness_matches_ordinal_comparisons(monkeypatch):
    """On 300 constructions, with grids that reach above the top, every
    witness ``minimality_report`` asks for is the one the ``Ordinal`` version
    finds, down to the key and value objects."""
    pairs = []

    def both(g, k, alpha, below):
        new = _blocking_witness(g, k, alpha, below)
        pairs.append((new, old_blocking_witness(g, k, alpha, below)))
        return new

    monkeypatch.setattr(simulate, "_blocking_witness", both)
    for r in constructions(300, 61):
        top = r.g.top
        minimality_report(r, list(probe_points(r.g)) + [top + O("w"), top + O("w*2+3")])
    assert len(pairs) > 1000
    assert all(new[0] == old[0] and new[1] is old[1] and new[2] is old[2] for new, old in pairs)
    assert len({new[0] for new, _ in pairs}) > 1


def systems():
    """Random valid systems, their mutants and systems with keys valued at
    random, each also cut to a bound at or below its largest key."""
    rng = random.Random(67)
    for i in range(360):
        kind = i % 3
        p = (random_system(rng, small=rng.random() < 0.5) if kind == 0
             else mutate_system(rng, random_system(rng)) if kind == 1
             else random_invalid_system(rng))
        yield p
        keys = [g for _, entries in p.levels for g, _ in entries]
        if keys:
            cut = rng.choice(keys)
            yield p.with_bound(cut + O("1") if rng.random() < 0.5 else cut)
    yield StabilitySystem(O("w*3+1"))
    # the same largest key at two levels, and a key above the bound
    yield StabilitySystem(O("w*2+1"), {1: {O("w"): O("1"), O("w*2"): O("3")},
                                       2: {O("w*2"): O("5")}})
    yield StabilitySystem(O("w*2+1"), {1: {O("w"): O("1")}, 3: {w_plus(4, 0): O("2")}})


def test_max_key_and_keys_below_bound_match_ordinal_comparisons():
    below = set()
    for p in systems():
        assert p.max_key() is old_max_key(p)
        assert p._keys_below_bound() == old_keys_below_bound(p)
        below.add(p._keys_below_bound())
    assert below == {True, False}


def test_outcome_at_matches_a_linear_scan():
    checked = 0
    for r in constructions(60, 71):
        for o in r.per_point:
            assert r.outcome_at(o.pos) is old_outcome_at(r, o.pos) is o
            checked += 1
        for pos in (O("0"), r.g.bound, r.per_point[0].pos + O("1")):
            with pytest.raises(KeyError) as new:
                r.outcome_at(pos)
            with pytest.raises(KeyError) as old:
                old_outcome_at(r, pos)
            assert new.value.args == old.value.args == (str(pos),)
    assert checked > 100
