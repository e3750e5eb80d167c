"""The generators make the same draws, in the same order, as the versions
kept here, so a seed names the same systems, chains and mutants as before."""

import random

from stabforce import StabilitySystem
from stabforce.gen import mutate_system, random_chain, random_step, random_system
from stabforce.ordinal import OMEGA, Ordinal


def reference_random_chain(rng, *, small=False):
    """``random_chain`` as it was, with its own three draws."""
    p = random_system(rng, max_steps=3, small=small)
    q, _ = random_step(rng, p, small=small)
    r, _ = random_step(rng, q, small=small)
    target = r.top + (OMEGA if rng.random() < 0.7 else Ordinal(((1, 2),)))
    return (p, q, r), target


def reference_mutate_system(rng, p):
    """``mutate_system`` as it was, with one key pick per key-editing branch."""
    choice = rng.randrange(3)
    keys = [(k, g, v) for k, entries in p.levels for g, v in entries]
    if choice == 0 and keys:
        k, g, v = keys[rng.randrange(len(keys))]
        d = p._as_dict()
        d[k][g] = g + Ordinal.from_int(rng.randrange(1, 3))
        return StabilitySystem(p.bound, d)
    if choice == 1 and keys:
        k, g, v = keys[rng.randrange(len(keys))]
        d = p._as_dict()
        del d[k][g]
        moved = g + Ordinal.from_int(1)
        if moved < p.bound and moved not in d[k]:
            d[k][moved] = v
        return StabilitySystem(p.bound, d)
    if p.top.is_limit:
        levels = {}
        for k, e in p.levels:
            kept = {g: v for g, v in e if g < p.top}
            if kept:
                levels[k] = kept
        return StabilitySystem(p.top, levels)
    lam = p.top + OMEGA
    return StabilitySystem(lam, p._as_dict())


def test_random_chain_draws_as_before():
    for seed in range(500):
        small = seed % 2 == 1
        old, new = random.Random(seed), random.Random(seed)
        assert random_chain(new, small=small) == reference_random_chain(old, small=small), seed
        assert new.getstate() == old.getstate(), seed


def test_mutate_system_draws_as_before():
    systems = random.Random(3)
    for seed in range(500):
        p = random_system(systems, small=seed % 2 == 1)
        old, new = random.Random(seed), random.Random(seed)
        assert mutate_system(new, p) == reference_mutate_system(old, p), seed
        assert new.getstate() == old.getstate(), seed
