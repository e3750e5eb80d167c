import random

import pytest

from stabforce import (
    IntervalSet,
    StabilitySystem,
    is_k_limit,
    lt_k,
    pred_set,
    probe_points,
    validate,
)
from stabforce.errors import BoundTooLargeError
from stabforce.gen import mutate_system, random_system
from stabforce.oracle import BruteEvaluator
from stabforce.ordinal import parse_ordinal as O


def test_brute_examples(pstar):
    ev = BruteEvaluator(pstar)
    assert ev.lt(1, O("3"), O("w*3")) is True
    assert ev.lt(1, O("3"), O("w*3")) == lt_k(pstar, 1, O("3"), O("w*3"))
    assert ev.pred_set(1, O("w*2")) == IntervalSet.of((O("0"), O("6")))
    assert ev.is_k_limit(1, O("w*3")) and not ev.is_k_limit(1, O("w*2"))
    assert ev.validate().valid


def test_brute_rejects_large_bounds():
    with pytest.raises(BoundTooLargeError):
        BruteEvaluator(StabilitySystem(O("w^2+1")))
    with pytest.raises(BoundTooLargeError):
        BruteEvaluator(StabilitySystem(O("w*20+1")))


def test_differential_small_batch():
    rng = random.Random(5)
    for _ in range(80):
        p = random_system(rng, small=True)
        ev = BruteEvaluator(p)
        pts = probe_points(p, extra=ev.limits)
        levels = range(1, min(p.depth + 1, 4) + 1)
        for k in levels:
            for a in pts:
                assert ev.is_k_limit(k, a) == is_k_limit(p, k, a)
                assert ev.pred_set(k, a) == pred_set(p, k, a)
                for b in pts:
                    assert ev.lt(k, a, b) == lt_k(p, k, a, b)


def test_differential_exhaustive_small_systems():
    # every one- and two-exception system over a small menu of positions,
    # values and levels, including plenty of invalid ones (junk keys at
    # successors, values breaking the level order): the scan-based and the
    # enumerating implementations must agree everywhere
    import itertools

    bound = O("w*4+1")
    positions = [O("w"), O("w*2"), O("w*2+1"), O("w*3"), O("w*4"), O("3")]
    values = [O("0"), O("2"), O("w"), O("w+1"), O("w*2"), O("w*3")]
    probe = [O(t) for t in
             ["0", "1", "2", "3", "w", "w+1", "w*2", "w*2+1", "w*3", "w*3+1", "w*4"]]

    def compare(p):
        ev = BruteEvaluator(p)
        for k in (1, 2, 3):
            for a in probe:
                assert ev.is_k_limit(k, a) == is_k_limit(p, k, a)
                assert ev.pred_set(k, a) == pred_set(p, k, a)
                for b in probe:
                    assert ev.lt(k, a, b) == lt_k(p, k, a, b)
        assert ev.validate().valid == validate(p).valid

    for lvl in (1, 2):
        for pos in positions:
            for val in values:
                if val <= pos:
                    compare(StabilitySystem(bound, {lvl: {pos: val}}))
    for pos1, pos2 in itertools.combinations([O("w"), O("w*2"), O("w*3"), O("w*4")], 2):
        for v1 in [O("0"), O("2"), O("w")]:
            for v2 in [O("0"), O("w"), O("w*2"), O("w*2+5")]:
                if v1 <= pos1 and v2 <= pos2:
                    compare(StabilitySystem(bound, {1: {pos1: v1}, 2: {pos2: v2}}))
                    compare(StabilitySystem(bound, {1: {pos1: v1, pos2: v2}}))
                    compare(StabilitySystem(bound, {2: {pos1: v1}, 3: {pos2: v2}}))


def test_differential_validate_on_mutants():
    rng = random.Random(6)
    agree_invalid = 0
    for _ in range(60):
        p = random_system(rng, small=True)
        m = mutate_system(rng, p)
        ours, theirs = validate(m), BruteEvaluator(m).validate()
        assert ours.valid == theirs.valid
        if not ours.valid:
            agree_invalid += 1
            assert ({(v.check, v.level, v.subject) for v in ours.violations}
                    == {(v.check, v.level, v.subject) for v in theirs.violations})
    assert agree_invalid > 20  # the mutator really does break systems
