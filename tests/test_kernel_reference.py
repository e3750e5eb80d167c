"""The compiled kernel against the key-walk kernel it replaced.

``Reference`` is that kernel: at each level, ``level_step`` walks the keys
down from the point to its nearest constraining key g*, and ``descend``
computes an uncached ``P_j(g*)`` with the running minimum of the caps below
it.  Sets are cached per system, at the oldest system on the end-extension
chain whose bound exceeds the point, found by walking the ``_base`` links one
at a time.  Its set operations ``_segment``, ``_join`` and ``_slice`` are
copied here as that kernel had them, so the reference shares no set code
with the kernel it checks.  Every answer of the public API, and every
validation report, must equal the reference's on well over a thousand
systems, linked ones included.
"""

import random
from bisect import bisect_left, bisect_right

from stabforce import (
    StabilitySystem,
    dom_f,
    is_k_lim2,
    is_k_limit,
    le_k,
    lt_k,
    pred_set,
    probe_points,
    validate,
)
from stabforce.errors import TargetNotReachableError
from stabforce.gen import mutate_system, random_system
from stabforce.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    IntervalSet,
    Ordinal,
    OrdinalInterval,
    Terms,
    format_ordinal,
)
from stabforce.poset import canonical_extend, extend_to_chain_limit, extend_with_top_exception
from stabforce.simulate import run_construction
from stabforce.stability import (
    ValidationReport,
    Violation,
    _entry_key,
    _pred,
    system_from_json,
    system_to_json,
)
from test_stability import _chain_pattern, random_invalid_system

GRID = 8  # points queried per system, pairs included


def _segment(beta: Ordinal) -> IntervalSet:
    """[0, beta), the level-0 predecessor set."""
    return IntervalSet((OrdinalInterval(ZERO, beta),) if beta.terms else ())


def _join(head: IntervalSet | None, below: IntervalSet, lo: Ordinal,
          hi: Ordinal) -> IntervalSet:
    """(head u (below n [lo, hi))) n [0, hi), for a ``head`` (None when empty)
    that ends below ``lo``."""
    ivs = head.intervals if head is not None else ()
    if ivs and hi.terms < ivs[-1].high.terms:
        return IntervalSet(_slice(ivs, ZERO, hi))
    if lo.terms < hi.terms:
        ivs += tuple(_slice(below.intervals, lo, hi))
    return IntervalSet(ivs)


# bisection keys of a normalized interval sequence, by low and by high end
def _low_key(iv: OrdinalInterval) -> Terms:
    return iv.low.terms


def _high_key(iv: OrdinalInterval) -> Terms:
    return iv.high.terms


def _slice(ivs: tuple[OrdinalInterval, ...], lo: Ordinal,
           hi: Ordinal) -> list[OrdinalInterval]:
    """The pieces of normalized intervals inside [lo, hi), found by bisection."""
    out = list(ivs[bisect_right(ivs, lo.terms, key=_high_key):
                   bisect_left(ivs, hi.terms, key=_low_key)])
    if out:
        if out[0].low.terms < lo.terms:
            out[0] = OrdinalInterval(lo, out[0].high)
        if hi.terms < out[-1].high.terms:
            out[-1] = OrdinalInterval(out[-1].low, hi)
    return out


def ref_owner(p, beta):
    """The oldest system on p's chain whose bound exceeds beta."""
    base = p._base
    while base is not None and beta.terms < base.bound.terms:
        p, base = base, base._base
    return p


class Reference:
    def __init__(self):
        self.caches = {}  # id(owner) -> (owner, {(level, point): set})

    def cache(self, p):
        return self.caches.setdefault(id(p), (p, {}))[1]

    def pred(self, p, k, beta):
        if k == 0:
            return _segment(beta)
        p = ref_owner(p, beta)
        k = min(k, p.depth)
        cache = self.cache(p)
        result = cache.get((k, beta))
        if result is not None:
            return result
        result = _segment(beta)
        for j, entries in p.levels:
            if j > k:
                break
            below, result = result, cache.get((j, beta))
            if result is None:
                result = cache[(j, beta)] = self.level_step(p, j, entries, beta, below)
        cache[(k, beta)] = result
        return result

    def level_step(self, p, j, entries, beta, below):
        t = beta.terms
        i = bisect_left(entries, t, key=_entry_key)
        cap = beta
        if i < len(entries) and entries[i][0].terms == t:
            v = entries[i][1]
            if v.terms < t and self.constrains(p, j, beta, beta, below):
                cap = v + ONE
        for i in range(i - 1, -1, -1):
            g, v = entries[i]
            if v.terms < g.terms and self.constrains(p, j, g, beta, below):
                cache = self.cache(ref_owner(p, g))
                head = cache.get((j, g))
                if head is None:
                    head = cache[(j, g)] = self.descend(p, j, entries, i, below)
                return _join(head, below, g, cap)
        return _join(None, below, ZERO, cap)

    def descend(self, p, j, entries, i, below):
        top, v = entries[i]
        cap, upper, head, lo = v + ONE, top, None, ZERO
        pieces = []
        for i in range(i - 1, -1, -1):
            g, v = entries[i]
            if v.terms < g.terms and self.constrains(p, j, g, top, below):
                if g.terms < cap.terms:
                    pieces.append(_slice(below.intervals, g, min(upper, cap)))
                upper = g
                head = self.cache(ref_owner(p, g)).get((j, g))
                if head is not None:
                    lo = g
                    break
                if v.terms < cap.terms:
                    cap = v + ONE
        out = list(_join(head, below, lo, min(upper, cap)).intervals)
        for piece in reversed(pieces):
            out += piece
        return IntervalSet(out)

    def constrains(self, p, j, g, beta, below):
        if j == 1:
            return g.is_limit
        return (g == beta or below.member(g)) and self.is_limit(p, j - 1, g)

    def is_limit(self, p, k, beta):
        ivs = self.pred(p, k, beta).intervals
        return bool(ivs) and ivs[-1].high.is_limit

    def is_lim2(self, p, k, beta):
        ivs = self.pred(p, k, beta).intervals
        return beta.is_lim2 and bool(ivs) and ivs[-1].high == beta

    def lt(self, p, k, a, b):
        return a < b and self.pred(p, k, b).member(a)

    def report(self, p):
        """V1-V5 from scratch, in ``validate``'s order and words."""
        out = []
        if not p.bound.is_successor:
            out.append(Violation("V1", 0, format_ordinal(p.bound),
                                 "bound must be a successor ordinal"))
        for k, entries in p.levels:
            for g, v in entries:
                subject = format_ordinal(g)
                if not g < p.bound:
                    out.append(Violation("V2", k, subject, "key not below the bound"))
                    continue
                if not self.is_limit(p, k - 1, g):
                    out.append(Violation("V2", k, subject, f"key not in the level-{k} domain"))
                    continue
                if not v <= g:
                    out.append(Violation("V3", k, subject, f"value {v} exceeds key"))
                if v < g and self.is_lim2(p, k - 1, g):
                    out.append(Violation(
                        "V4", k, subject,
                        f"value {v} at a lim2 point of the level-{k} chain; "
                        f"continuity forces the identity there"))
                if not (v == g or self.lt(p, k, v, g)):
                    out.append(Violation("V5", k, subject,
                                         f"value {v} not below key in the level-{k} order"))
        return ValidationReport(valid=not out, violations=tuple(out))


def grid_of(p):
    """Up to GRID probe points below p's bound, spread evenly, top included."""
    if p.bound.is_successor:
        pts = probe_points(p)
    else:
        lifted = StabilitySystem(p.bound + ONE, p._as_dict())
        pts = tuple(a for a in probe_points(lifted) if a < p.bound)
    step = -(-len(pts) // GRID)
    return pts[::step] + pts[-1:] if len(pts) > GRID else pts


def assert_matches_reference(p, ref):
    pts = grid_of(p)
    for k in range(0, p.depth + 2):
        for b in pts:
            expect = ref.pred(p, k, b)
            got = _pred(p, k, b) if k == 0 else pred_set(p, k, b)
            assert got == expect, (p, k, b, str(got), str(expect))
            assert IntervalSet(got.intervals) == got, (p, k, b)
            for a in pts:
                lt = a < b and expect.member(a)
                assert le_k(p, k, a, b) == (a == b or lt), (p, k, a, b)
                if k:
                    assert lt_k(p, k, a, b) == lt, (p, k, a, b)
            if k:
                assert is_k_limit(p, k, b) == ref.is_limit(p, k, b), (p, k, b)
                assert is_k_lim2(p, k, b) == ref.is_lim2(p, k, b), (p, k, b)
                assert dom_f(p, k, b) == ref.is_limit(p, k - 1, b), (p, k, b)
    assert validate(p) == ref.report(p), p


def siblings(base):
    """Extensions of ``base`` to its next fresh limit at every level and
    reachable target, deepest level first, then for each level the first
    candidate ``extend_with_top_exception`` rejects.  All hold the base's key
    rows, and the deeper ones grow them past the base's depth before the
    shallower ones read them."""
    top = base.top + OMEGA
    rejected = {}
    for ell in range(base.depth + 2, 0, -1):
        for target in probe_points(base):
            try:
                yield extend_to_chain_limit(base, ell, target)
            except TargetNotReachableError:
                rejected.setdefault(ell + 1, target)
    for level, value in rejected.items():
        try:
            extend_with_top_exception(base, top, level, value)
        except TargetNotReachableError:
            yield canonical_extend(base, top).with_exception(level, top, value)
        else:
            raise AssertionError((base, level, value))


def corpus():
    """Random systems, small and large, their mutants, systems with V3-broken
    and misplaced keys, every step of constructions with 40 to 160 keys, and
    sibling extensions of constructions and of random valid systems."""
    rng = random.Random(1203)
    for _ in range(400):
        yield random_system(rng, small=True)
    for _ in range(250):
        yield random_system(rng)
    for _ in range(250):
        yield mutate_system(rng, random_system(rng, small=rng.random() < 0.5))
    for _ in range(200):
        yield random_invalid_system(rng)
    for points in (20, 40, 80):
        result = run_construction(_chain_pattern(points))
        assert result.g.exception_count() == 2 * points
        for step in result.trace:
            yield step.system
    for base in [run_construction(_chain_pattern(n)).g for n in (6, 12)] + [
            p for p in (random_system(rng) for _ in range(20)) if validate(p).valid]:
        yield base
        yield from siblings(base)


def assert_batch_matches_reference(p, ref, rng, count):
    """A seeded mix of ``lt_k``, ``le_k``, ``pred_set``, ``is_k_limit`` and
    ``is_k_lim2`` queries, as the query benchmark asks them, on a cold copy of
    p: levels and points come in random order, so rows grow several levels at
    a time, from any level."""
    q = system_from_json(system_to_json(p))
    pts = probe_points(q)
    for _ in range(count):
        kind, k = rng.randrange(5), rng.randint(1, q.depth + 1)
        a, b = rng.choice(pts), rng.choice(pts)
        if kind == 0:
            assert lt_k(q, k, a, b) == ref.lt(q, k, a, b), (k, a, b)
        elif kind == 1:
            assert le_k(q, k, a, b) == (a == b or ref.lt(q, k, a, b)), (k, a, b)
        elif kind == 2:
            assert str(pred_set(q, k, b)) == str(ref.pred(q, k, b)), (k, b)
        elif kind == 3:
            assert is_k_limit(q, k, b) == ref.is_limit(q, k, b), (k, b)
        else:
            assert is_k_lim2(q, k, b) == ref.is_lim2(q, k, b), (k, b)


def test_compiled_kernel_matches_the_key_walk_kernel():
    ref = Reference()
    count = broken = linked = 0
    for p in corpus():
        assert_matches_reference(p, ref)
        count += 1
        broken += not validate(p).valid
        linked += p._base is not None
    assert count >= 1200 and broken >= 300 and linked >= 600, (count, broken, linked)
    assert_batch_matches_reference(run_construction(_chain_pattern(40)).g, ref,
                                   random.Random(1204), 1500)
