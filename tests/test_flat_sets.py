"""The flat end tuples of ``IntervalSet`` on the sets the kernel returns.

An ``IntervalSet`` holds its intervals as two parallel tuples of CNF terms,
``lows`` and ``highs``.  On every set that ``pred_set`` returns, over random
systems and their mutants:

- the ends ascend as ``lows[i] < highs[i] < lows[i+1]``, so the set is
  sorted, disjoint, non-adjacent and has no empty interval;
- wrapping its ``intervals`` again gives an equal set with the same hash;
- ``str`` is byte-identical to ``old_text``, the spelling the set had when
  it held ``OrdinalInterval`` objects: ``format_ordinal`` on each end.

Every end is spelled by ``ordinal._format_terms``, whose cache spells it
once however many sets hold it: printing all the sets of one system misses
the cache once per distinct end.
"""

import random

from hypothesis import given, settings, strategies as st

from stabforce import IntervalSet, ordinal, pred_set, probe_points
from stabforce.gen import mutate_system, random_system
from stabforce.ordinal import Ordinal, format_ordinal
from stabforce.simulate import run_construction
from stabforce.stability import system_from_dict, system_to_dict
from test_stability import _chain_pattern, random_invalid_system, reference_format


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


def test_a_system_spells_each_end_once():
    # a system read back from its dict shares no rows with a base system
    p = system_from_dict(system_to_dict(run_construction(_chain_pattern(40)).g))
    sets = [pred_set(p, k, b) for k in range(1, p.depth + 2) for b in probe_points(p)]
    ends = {t for s in sets for t in s.lows + s.highs}
    ordinal._format_terms.cache_clear()
    printed = [str(s) for s in sets]
    assert ordinal._format_terms.cache_info().misses == len(ends) > 40
    assert printed == [old_text(s) for s in sets]


_terms = st.lists(st.tuples(st.integers(0, 6), st.integers(1, 10**20)), max_size=5).map(
    lambda pairs: tuple(sorted(dict(pairs).items(), reverse=True)))


@settings(max_examples=25, deadline=None)
@given(st.lists(_terms, min_size=2, max_size=12, unique=True), st.integers(1, 10**9))
def test_spellings_past_the_cache_bound_match_an_uncached_speller(first, start):
    """Spell ``first``, then more distinct terms than the cache holds, so that
    ``first`` is evicted, then spell ``first`` again, alone and as set ends;
    ``reference_format`` spells without a cache."""
    spell = ordinal._format_terms
    spell.cache_clear()
    maxsize = spell.cache_info().maxsize
    filler = [((2, start + i), (0, 1)) for i in range(maxsize + 1)]
    for terms in first + filler:
        assert format_ordinal(Ordinal(terms)) == reference_format(Ordinal(terms))
    assert spell.cache_info().currsize == maxsize
    ends = [Ordinal(terms) for terms in sorted(first)]
    s = IntervalSet.of(*zip(ends[0::2], ends[1::2]))
    for a in ends:
        assert format_ordinal(a) == reference_format(a)
    assert str(s) == " u ".join(f"[{reference_format(iv.low)}, {reference_format(iv.high)})"
                                for iv in s.intervals) and len(s.lows) == len(first) // 2
