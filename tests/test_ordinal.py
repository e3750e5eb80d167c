import operator
import random

import pytest
from hypothesis import given, strategies as st

from stabforce.errors import EmptySetError, NonCanonicalError, OrdinalSyntaxError
from stabforce.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    IntervalSet,
    Ordinal,
    OrdinalInterval,
    format_ordinal,
    parse_ordinal as O,
)


def test_parse_zero():
    assert O("0") == ZERO
    assert O("0").is_zero


def test_parse_full_term_sequence():
    assert O("w^2*3+w+4").terms == ((2, 3), (1, 1), (0, 4))


def test_parse_rejects_equal_exponents():
    with pytest.raises(NonCanonicalError):
        O("w+w")


@pytest.mark.parametrize("text", ["w^1", "w^0", "w*1", "w*0", "w+0", "0+w", "3+2"])
def test_parse_rejects_noncanonical_spellings(text):
    with pytest.raises(NonCanonicalError):
        O(text)


@pytest.mark.parametrize("text", ["", "w^", "w*", "x", "w ^2", "07", "+w", "w+", "w^2*"])
def test_parse_rejects_bad_tokens(text):
    with pytest.raises(OrdinalSyntaxError):
        O(text)


def test_format_examples():
    assert format_ordinal(ZERO) == "0"
    assert format_ordinal(Ordinal(((1, 2), (0, 3)))) == "w*2+3"
    assert format_ordinal(Ordinal(((3, 1),))) == "w^3"


def test_compare_examples():
    assert O("5") < O("w")
    assert O("w*2+3") < O("w^2")
    a = O("w^2*3+w+4")
    assert a == O("w^2*3+w+4") and not a < a and not a > a
    assert O("w") > O("5")


def test_add_examples():
    assert O("1") + O("w") == O("w")
    assert O("w") + O("1") == O("w+1")
    assert O("w+1") + O("w") == O("w*2")


def test_classify_examples():
    assert O("w").classify() == "limit" and not O("w").is_lim2
    assert O("w^2").classify() == "limit" and O("w^2").is_lim2
    assert O("w*2+3").classify() == "successor"
    assert O("0").classify() == "zero"


def test_predecessor():
    assert O("w*2+3").predecessor() == O("w*2+2")
    assert O("w+1").predecessor() == O("w")
    with pytest.raises(ValueError):
        O("w").predecessor()
    with pytest.raises(ValueError):
        ZERO.predecessor()


@pytest.mark.parametrize("terms", [
    [(0, 0)], [(1, -2)], [(-1, 1)], [(1, 1), (1, 2)], [(0, 1), (1, 1)], [(2, 1), (3, 4)],
])
def test_constructor_rejects_bad_terms(terms):
    with pytest.raises(ValueError):
        Ordinal(terms)


def _is_checked(a):
    """``a`` is what the checking constructor makes of its own terms."""
    b = Ordinal(a.terms)
    return (a == b and hash(a) == hash(b) and type(a.terms) is tuple
            and all(type(t) is tuple and tuple(map(type, t)) == (int, int) for t in a.terms)
            and format_ordinal(a) == format_ordinal(b))


# Test-local copies of two helpers the engine no longer needs: ``is_k_lim2``
# once took the supremum of the limits in every interval of a predecessor set
# with them.  ``test_stability`` keeps that sweep as a reference.


def largest_limit_below(h: Ordinal) -> Ordinal | None:
    """Largest limit ordinal strictly below h, or None.

    None is returned both when there is no limit below h (h <= w) and when the
    limits below h are cofinal in it (h a lim2 point), since then no largest
    one exists; callers distinguish via ``h.is_lim2``.
    """
    if h.is_zero:
        return None
    e_last, c_last = h.terms[-1]
    if e_last == 0:
        body = Ordinal(h.terms[:-1])
        return body if body else None
    if e_last == 1:
        if c_last >= 2:
            return Ordinal(h.terms[:-1] + ((1, c_last - 1),))
        body = Ordinal(h.terms[:-1])
        return body if body else None
    return None


def sup_of_limits_between(lo: Ordinal, hi: Ordinal) -> Ordinal | None:
    """Supremum of the limit ordinals in the open interval (lo, hi), or None."""
    if hi.is_lim2:
        return hi
    s = largest_limit_below(hi)
    if s is not None and s > lo:
        return s
    return None


def test_largest_limit_below():
    assert largest_limit_below(O("w*2+5")) == O("w*2")
    assert largest_limit_below(O("w*3")) == O("w*2")
    assert largest_limit_below(O("w^2+w")) == O("w^2")
    assert largest_limit_below(O("w")) is None
    assert largest_limit_below(O("7")) is None
    assert largest_limit_below(O("w^2")) is None  # cofinal, no largest


def test_sup_of_limits_between():
    assert sup_of_limits_between(O("0"), O("w^2")) == O("w^2")
    assert sup_of_limits_between(O("w"), O("w*3")) == O("w*2")
    assert sup_of_limits_between(O("w*2"), O("w*3")) is None
    assert sup_of_limits_between(O("5"), O("w+1")) == O("w")


# -- interval sets ------------------------------------------------------------


def test_interval_set_has_max_examples():
    s = IntervalSet.of((O("0"), O("6")))
    assert s.has_max() and s.max_element() == O("5") and s.sup() == O("5")
    t = IntervalSet.of((O("0"), O("6")), (O("w*2+1"), O("w*3")))
    assert not t.has_max()
    assert t.sup() == O("w*3")
    assert not t.member(O("w"))


def test_max_element_of_a_set_without_a_maximum_is_refused():
    with pytest.raises(EmptySetError, match="^interval set has no maximum$"):
        IntervalSet.of((ZERO, OMEGA)).max_element()


@pytest.mark.parametrize("low, high", [("w", "w"), ("w+1", "w")])
def test_empty_interval_is_refused(low, high):
    with pytest.raises(ValueError) as info:
        OrdinalInterval(O(low), O(high))
    assert str(info.value) == f"empty interval [{low}, {high})"


def test_negative_integer_is_refused():
    with pytest.raises(ValueError, match="^ordinals are non-negative$"):
        Ordinal.from_int(-1)


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
def test_ordinal_does_not_compare_with_int(op):
    """Each side returns NotImplemented, so Python raises TypeError."""
    for a, b in ((O("w"), 1), (1, O("w"))):
        with pytest.raises(TypeError, match="not supported"):
            op(a, b)


def test_ordinal_does_not_add_an_int():
    for a, b in ((O("w"), 1), (1, O("w"))):
        with pytest.raises(TypeError, match="unsupported operand"):
            a + b


def test_interval_set_normalization():
    s = IntervalSet.of((O("6"), O("10")), (O("0"), O("6")), (O("2"), O("4")))
    assert [str(iv) for iv in s] == ["[0, 10)"]


def test_interval_set_ops():
    a = IntervalSet.of((O("0"), O("w")), (O("w*2"), O("w*3")))
    b = IntervalSet.of((O("5"), O("w*2+5")))
    assert a.intersect(b) == IntervalSet.of((O("5"), O("w")), (O("w*2"), O("w*2+5")))
    assert a.union(b) == IntervalSet.of((O("0"), O("w*3")))
    assert a.cut(ZERO, O("w*2+1")) == IntervalSet.of((O("0"), O("w")), (O("w*2"), O("w*2+1")))
    assert IntervalSet().is_empty
    with pytest.raises(EmptySetError):
        IntervalSet().sup()
    with pytest.raises(EmptySetError):
        IntervalSet().has_max()


# -- properties ----------------------------------------------------------------

_ordinals = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=9)),
    max_size=4,
).map(lambda pairs: Ordinal(sorted({e: c for e, c in pairs}.items(), reverse=True)))


@given(_ordinals)
def test_roundtrip_property(a):
    assert O(format_ordinal(a)) == a


@given(_ordinals, _ordinals, _ordinals)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(_ordinals, _ordinals, st.integers(min_value=0, max_value=10**30))
def test_unchecked_constructions_equal_checked_ones(a, b, n):
    """``+``, ``predecessor``, ``from_int`` and the parser build their terms
    without the constructor's checks; each result is the checked ordinal."""
    results = [a + b, b + a, O(format_ordinal(a)), Ordinal.from_int(n), (a + ONE).predecessor()]
    assert all(_is_checked(r) for r in results)
    assert results[4] == a


@given(_ordinals, _ordinals)
def test_compare_total(a, b):
    # trichotomy: exactly one of <, ==, > holds, and swapping the sides mirrors it
    assert [a < b, a == b, a > b].count(True) == 1
    assert (a < b, a == b, a > b) == (b > a, b == a, b < a)
    assert (a <= b) == (a < b or a == b) and (a >= b) == (a > b or a == b)
    assert (a != b) == (not a == b)


@given(_ordinals)
def test_add_one_is_successor(a):
    s = a + ONE
    assert s.is_successor and s.predecessor() == a and a < s


_interval_sets = st.lists(
    st.tuples(_ordinals, _ordinals).map(lambda ab: tuple(sorted(ab, key=lambda a: a.terms))),
    max_size=4,
).map(lambda pairs: IntervalSet.of(*[(a, b) for a, b in pairs if a < b]))


@given(_interval_sets, _interval_sets, _ordinals)
def test_interval_set_algebra_matches_membership(s, t, x):
    assert s.union(t).member(x) == (s.member(x) or t.member(x))
    assert s.intersect(t).member(x) == (s.member(x) and t.member(x))
    assert s.cut(ZERO, x).member(x) is False


def nested_loop_intersect(s, t):
    """Every pairwise overlap, normalized by the public constructor."""
    out = []
    for a in s.intervals:
        for b in t.intervals:
            lo = max(a.low, b.low, key=lambda x: x.terms)
            hi = min(a.high, b.high, key=lambda x: x.terms)
            if lo < hi:
                out.append(OrdinalInterval(lo, hi))
    return IntervalSet(out)


_wide_interval_sets = st.lists(
    st.tuples(_ordinals, _ordinals).map(lambda ab: tuple(sorted(ab, key=lambda a: a.terms))),
    max_size=10,
).map(lambda pairs: IntervalSet.of(*[(a, b) for a, b in pairs if a < b]))


def intersect_filter_below(s, alpha):
    """``filter_below`` as it was before ``cut``: an intersect with [0, alpha)."""
    if alpha.is_zero:
        return IntervalSet()
    return s.intersect(IntervalSet.of((ZERO, alpha)))


@given(_wide_interval_sets, _wide_interval_sets, _ordinals, _ordinals)
def test_merge_intersect_matches_nested_loop(s, t, x, y):
    """``intersect`` and ``cut`` both match the nested loop.  ``cut`` is asked
    for every pair of ends among 0, x, y and s's interval ends, so its ends
    fall on, inside, between and outside s's intervals, in either order."""
    assert s.intersect(t).intervals == nested_loop_intersect(s, t).intervals
    points = [ZERO, x, y] + [e for iv in s.intervals for e in (iv.low, iv.high)]
    for lo in points:
        for hi in points:
            cut = s.cut(lo, hi)
            if lo < hi:
                assert cut.intervals == nested_loop_intersect(s, IntervalSet.of((lo, hi))).intervals
            else:
                assert cut.is_empty
        assert s.cut(ZERO, lo) == intersect_filter_below(s, lo)


@given(_wide_interval_sets)
def test_interval_set_text_is_cached_and_unchanged(s):
    """``str`` builds the text once from ``_format_terms``; it is the
    spelling of the intervals joined by " u ", and "{}" for the empty set,
    whether the set came from the constructor or from ``intersect``."""
    for t in (s, s.intersect(s)):
        expect = " u ".join(str(iv) for iv in t.intervals) if t.intervals else "{}"
        text = str(t)
        assert text == expect and str(t) is text


@given(_wide_interval_sets, _ordinals)
def test_bisect_member_matches_linear_scan(s, x):
    assert s.member(x) == any(iv.low <= x < iv.high for iv in s.intervals)
    for iv in s.intervals:
        assert s.member(iv.low) and not s.member(iv.high)


@given(_interval_sets)
def test_interval_bounds_classify_max(s):
    if s.is_empty:
        return
    if s.has_max():
        m = s.max_element()
        assert s.member(m) and not s.member(m + ONE) and s.sup() == m
    else:
        assert not s.member(s.sup())


def test_roundtrip_1000_random():
    rng = random.Random(0)
    for _ in range(1000):
        exps = sorted(rng.sample(range(0, 6), rng.randint(0, 4)), reverse=True)
        a = Ordinal([(e, rng.randint(1, 9)) for e in exps])
        assert O(format_ordinal(a)) == a


def test_classify_matches_enumeration():
    # shape w*m+n for m, n <= 20: successor iff n > 0, never lim2 below w^2
    for m in range(21):
        for n in range(21):
            a = Ordinal(((1, m),) if m else ()) + Ordinal.from_int(n)
            if m == 0 and n == 0:
                assert a.classify() == "zero"
            elif n > 0:
                assert a.classify() == "successor"
            else:
                assert a.classify() == "limit"
            assert not a.is_lim2


def test_omega_constants():
    assert OMEGA == O("w")
    assert ZERO + OMEGA == OMEGA
    assert (O("w*3+5") + OMEGA) == O("w*4")
