"""The flat end tuples of ``IntervalSet`` on the sets the kernel returns.

An ``IntervalSet`` holds its intervals as two parallel tuples of CNF terms,
``lows`` and ``highs``.  On every set that ``pred_set`` returns, over random
systems and their mutants:

- the ends ascend as ``lows[i] < highs[i] < lows[i+1]``, so the set is
  sorted, disjoint, non-adjacent and has no empty interval;
- wrapping its ``intervals`` again gives an equal set with the same hash;
- ``str`` is byte-identical to ``old_text``, the spelling the set had when
  it held ``OrdinalInterval`` objects: ``format_ordinal`` on each end.

The sets of one system spell their ends through the system's table, so
printing all of them spells each distinct end once.
"""

import random

from stabforce import IntervalSet, ordinal, pred_set, probe_points
from stabforce.gen import mutate_system, random_system
from stabforce.ordinal import format_ordinal
from stabforce.simulate import run_construction
from stabforce.stability import system_from_dict, system_to_dict
from test_stability import _chain_pattern, random_invalid_system


def old_text(s):
    return " u ".join([f"[{format_ordinal(iv.low)}, {format_ordinal(iv.high)})"
                       for iv in s.intervals]) or "{}"


def assert_flat(s):
    lows, highs = s.lows, s.highs
    assert type(lows) is tuple and type(highs) is tuple and len(lows) == len(highs)
    ends = [t for pair in zip(lows, highs) for t in pair]
    assert all(a < b for a, b in zip(ends, ends[1:])), str(s)
    again = IntervalSet(s.intervals)
    assert again == s and hash(again) == hash(s)
    assert s._names is not None
    assert str(s) == old_text(s)


def systems():
    """220 random systems, small and large, 110 mutants, 40 systems with keys
    valued at random, most of them invalid, and a 40-point construction, whose
    sets hold up to dozens of intervals."""
    rng = random.Random(1811)
    for _ in range(110):
        yield random_system(rng, small=True)
    for _ in range(110):
        yield random_system(rng)
    for _ in range(110):
        yield mutate_system(rng, random_system(rng, small=rng.random() < 0.5))
    for _ in range(40):
        yield random_invalid_system(rng)
    yield run_construction(_chain_pattern(40)).g


def test_kernel_sets_have_ascending_ends_and_old_text():
    count = 0
    for p in systems():
        pts = probe_points(p) if p.bound.is_successor else ()
        for k in range(1, p.depth + 2):
            for b in pts:
                assert_flat(pred_set(p, k, b))
                count += 1
    assert count > 5000


def test_a_system_spells_each_end_once(monkeypatch):
    # a system read back from its dict shares no rows with a base system
    p = system_from_dict(system_to_dict(run_construction(_chain_pattern(40)).g))
    spelled = []
    real = ordinal._format_terms
    monkeypatch.setattr(ordinal, "_format_terms", lambda t: spelled.append(t) or real(t))
    printed = []
    for k in range(1, p.depth + 2):
        for b in probe_points(p):
            s = pred_set(p, k, b)
            assert s._names is p._names
            printed.append((s, str(s)))
    monkeypatch.undo()
    ends = {t for s, _ in printed for t in s.lows + s.highs}
    assert len(spelled) == len(set(spelled)) == len(ends) > 40
    assert all(text == old_text(s) for s, text in printed)
