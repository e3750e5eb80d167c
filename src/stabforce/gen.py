"""Seeded random generators for systems, towers, and chains.

Systems are grown the way the library itself grows conditions (canonical
extensions plus single exception placements at fresh tops with values sampled
from the actual predecessor set), so every generated system is valid by
construction.  Mutations deliberately break single checks for the validator
differential.
"""

from __future__ import annotations

import random

from .ordinal import OMEGA, ZERO, Ordinal
from .poset import canonical_extend, extend_to_chain_limit, extend_with_top_exception
from .stability import StabilitySystem, pred_set

W2 = Ordinal(((2, 1),))
W3 = Ordinal(((3, 1),))
MAX_LEVEL, MAX_EXCEPTIONS, MAX_STEP_LEVEL = 4, 6, 3  # random_system's, then random_step's


def _sample_member(rng: random.Random, s, extra=()) -> Ordinal:
    """A member of ``s``, drawn from its intervals' ends and ``extra``.

    Every set sampled here is ``pred_set(q, k, b)`` with b > 0, or its cut from
    0, and holds 0: 0 < b, and 0 <_k b at each level k >= 1 because no map
    value lies below 0.  So there is always a candidate.
    """
    candidates: list[Ordinal] = []
    for iv in s:
        candidates.append(iv.low)
        nxt = iv.low + Ordinal.from_int(1)
        if nxt < iv.high:
            candidates.append(nxt)
        if iv.high.is_successor:
            candidates.append(iv.high.predecessor())
    for a in extra:
        if s.member(a):
            candidates.append(a)
    uniq = sorted(set(candidates), key=lambda a: a.terms)
    return uniq[rng.randrange(len(uniq))]


def random_system(rng: random.Random, *, max_steps: int = 5,
                  small: bool = False) -> StabilitySystem:
    """A valid random system; ``small`` keeps the bound below w*12."""
    p = StabilitySystem(Ordinal.from_int(rng.randrange(1, 4)))
    cap = Ordinal(((1, 11),)) if small else Ordinal(((3, 4),))
    placed = 0
    for _ in range(rng.randrange(1, max_steps + 1)):
        action = rng.random()
        lam = p.top + OMEGA
        if not lam <= cap:
            break
        if action < 0.55 and placed < MAX_EXCEPTIONS:
            level = rng.randrange(1, MAX_LEVEL + 1)
            base = canonical_extend(p, lam)
            value = _sample_member(rng, pred_set(base, level, lam),
                                   extra=[v for _, e in p.levels for _, v in e])
            p = extend_with_top_exception(p, lam, level, value)
            placed += 1
        elif action < 0.85:
            jump = OMEGA if small else rng.choice([OMEGA, Ordinal(((1, 2),)), W2])
            if p.top + jump <= cap:
                p = canonical_extend(p, p.top + jump)
        elif not small and p.top + W3 <= cap:
            p = canonical_extend(p, p.top + W3)
    return p


ALL_LEVELS_GUARANTEE = 8


def random_step(rng: random.Random, p: StabilitySystem, *,
                small: bool = False) -> tuple[StabilitySystem, int]:
    """One extension step; returns (result, level the step is guaranteed to extend at)."""
    if rng.random() < 0.5:
        jump = OMEGA if small else rng.choice([OMEGA, Ordinal(((1, 3),)), W2])
        return canonical_extend(p, p.top + jump), ALL_LEVELS_GUARANTEE
    ell = rng.randrange(1, MAX_STEP_LEVEL + 1)
    lam = p.top + OMEGA
    base = canonical_extend(p, lam)
    reachable = pred_set(base, ell + 1, lam).cut(ZERO, p.top + Ordinal.from_int(1))
    target = _sample_member(rng, reachable)
    return extend_to_chain_limit(p, ell, target), ell + 1


def random_tower(rng: random.Random, *, small: bool = False):
    """(p, q, r, level): r extends q extends p, both guaranteed at the level."""
    p = random_system(rng, max_steps=3, small=small)
    q, g1 = random_step(rng, p, small=small)
    r, g2 = random_step(rng, q, small=small)
    level = min(g1, g2, p.depth + 2)
    return p, q, r, max(level, 1)


def random_chain(rng: random.Random, *, small: bool = False):
    """An eventually-canonical descending chain presentation at level 1."""
    p, q, r, _ = random_tower(rng, small=small)
    target = r.top + (OMEGA if rng.random() < 0.7 else Ordinal(((1, 2),)))
    return (p, q, r), target


def mutate_system(rng: random.Random, p: StabilitySystem) -> StabilitySystem:
    """Break one structural property at random (for validator differentials)."""
    choice = rng.randrange(3)
    keys = [(k, g, v) for k, entries in p.levels for g, v in entries]
    if choice < 2 and keys:
        k, g, v = keys[rng.randrange(len(keys))]
        d = p._as_dict()
        if choice == 0:
            d[k][g] = g + Ordinal.from_int(rng.randrange(1, 3))  # value above key
        else:
            del d[k][g]
            moved = g + Ordinal.from_int(1)  # successor position: outside every domain
            if moved < p.bound and moved not in d[k]:
                d[k][moved] = v
        return StabilitySystem(p.bound, d)
    if p.top.is_limit:
        levels = {}
        for k, e in p.levels:
            kept = {g: v for g, v in e if g < p.top}
            if kept:
                levels[k] = kept
        return StabilitySystem(p.top, levels)  # limit bound: V1 breaks
    lam = p.top + OMEGA
    return StabilitySystem(lam, p._as_dict())  # limit bound: V1 breaks
