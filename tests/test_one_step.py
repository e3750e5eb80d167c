"""One derivation per construction step, and the term arithmetic under it.

``extend_with_top_exception`` makes its candidate with one derivation,
``StabilitySystem._with_top_exception``, linked straight to the parent.  It
must be the system the two-step path made, ``canonical_extend`` and then
``with_exception``: the same bound, levels, base and report, and the same
refusals, in the same order.  ``Ordinal.__add__`` finds the absorbed term
in one walk, and ``ordinal._succ`` computes a successor on CNF terms (a
binding key's cap v + 1 in the compile pass, and the new derivation's
bound); both are set against the arithmetic they replace.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from stabforce import StabilitySystem
from stabforce.errors import (
    InvalidConditionError,
    InvalidIntermediateError,
    OutOfBoundsError,
    OutOfRangeError,
    TargetNotReachableError,
)
from stabforce.gen import random_system
from stabforce.ordinal import OMEGA, ONE, ZERO, Ordinal, _succ
from stabforce.ordinal import parse_ordinal as O
from stabforce.poset import _require_valid, canonical_extend, extend_with_top_exception
from stabforce.simulate import run_construction
from stabforce.stability import le_k, pred_set, probe_points, validate
from test_incremental import random_pattern

# -- addition ------------------------------------------------------------------


def reference_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """``Ordinal.__add__`` as it was: two scans of a's terms for b's lead."""
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    lead = b.terms[0][0]
    kept = tuple(t for t in a.terms if t[0] > lead)
    absorbed = next((t for t in a.terms if t[0] == lead), None)
    if absorbed is None:
        return Ordinal(kept + b.terms)
    merged = (lead, absorbed[1] + b.terms[0][1])
    return Ordinal(kept + (merged,) + b.terms[1:])


# small exponents, so b's lead often equals, exceeds or undercuts a's terms
ordinals = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 10**6)), max_size=4).map(
    lambda pairs: Ordinal(sorted(dict(pairs).items(), reverse=True)))


def kind(a: Ordinal, b: Ordinal) -> str:
    if a.is_zero or b.is_zero:
        return "zero"
    lead = b.terms[0][0]
    if lead > a.terms[0][0]:
        return "above every term"
    return "absorbed" if any(e == lead for e, _ in a.terms) else "between terms"


ADD_CASES = [("0", "0"), ("0", "w^3*2+5"), ("w*4+3", "0"),        # zero on either side
             ("w^2*3+w+7", "w*2+1"), ("w^3+w^2+4", "w^2*5"),      # an absorbed lead
             ("w+5", "w^2"), ("w*3", "w^4*2+w"), ("9", "w"),       # a lead above every term
             ("w^4+w*2+1", "w^3*2+6"), ("w^3+5", "w*2"),           # a lead between terms
             ("w^5*2+w^3", "w^5*3+w^2"), ("w^2", "w^2+1")]          # w^k terms


@pytest.mark.parametrize("a, b", ADD_CASES)
def test_addition_matches_the_two_scan_sum_on_each_kind_of_pair(a, b):
    a, b = O(a), O(b)
    got = a + b
    assert got == reference_add(a, b)
    assert Ordinal(got.terms).terms == got.terms and hash(got) == hash(Ordinal(got.terms))


def test_the_addition_cases_cover_every_kind():
    assert {kind(O(a), O(b)) for a, b in ADD_CASES} == {
        "zero", "absorbed", "above every term", "between terms"}


@settings(max_examples=300, deadline=None)
@given(ordinals, ordinals)
@example(ZERO, OMEGA)
@example(OMEGA, ZERO)
def test_addition_matches_the_two_scan_sum(a, b):
    got = a + b
    assert got.terms == reference_add(a, b).terms
    Ordinal(got.terms)  # in CNF: the checking constructor accepts it
    assert hash(got) == hash(got.terms)


@settings(max_examples=200, deadline=None)
@given(ordinals, ordinals, ordinals)
def test_addition_is_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@settings(max_examples=200, deadline=None)
@given(ordinals)
@example(ZERO)
@example(O("7"))
@example(O("w^2*3"))
def test_successor_terms_match_adding_one(v):
    assert _succ(v.terms) == (v + ONE).terms


# -- one derivation against two ---------------------------------------------------


def two_step_extension(p, alpha, level, value):
    """``extend_with_top_exception`` as it was: a canonical extension to alpha,
    then ``with_exception`` on it."""
    _require_valid(p)
    if not alpha > p.top:
        raise OutOfRangeError(f"new top {alpha} must be strictly above {p.top}")
    if not alpha.is_limit:
        raise OutOfRangeError(f"new top {alpha} must be a limit ordinal")
    q = canonical_extend(p, alpha).with_exception(level, alpha, value)
    if not le_k(q, level, value, alpha):
        raise TargetNotReachableError(
            f"{value} does not sit below {alpha} in the level-{level} order")
    report = validate(q)
    if not report.valid:
        raise InvalidIntermediateError(
            "extension produced an invalid system: "
            + "; ".join(str(v) for v in report.violations))
    return q


def assert_same_system(q: StabilitySystem, r: StabilitySystem) -> None:
    assert q.bound == r.bound
    assert q.levels == r.levels
    assert q._base is r._base
    assert validate(q) == validate(r)


def outcome(make):
    """(exception type, message), or the system made."""
    try:
        return make()
    except Exception as exc:  # every refusal path is compared as it is
        return (type(exc), str(exc))


def assert_same_outcome(p, alpha, level, value) -> str:
    got = outcome(lambda: extend_with_top_exception(p, alpha, level, value))
    want = outcome(lambda: two_step_extension(p, alpha, level, value))
    if isinstance(got, tuple):
        assert got == want, (p, alpha, level, value)
        return got[0].__name__
    assert not isinstance(want, tuple), want
    assert_same_system(got, want)
    assert got._base is p
    return "ok"


@pytest.fixture
def steps(monkeypatch):
    """(parent, level, key, value, made system) for every one-step derivation."""
    out: list = []
    original = StabilitySystem._with_top_exception

    def recording(self, k, key, value):
        q = original(self, k, key, value)
        out.append((self, k, key, value, q))
        return q

    monkeypatch.setattr(StabilitySystem, "_with_top_exception", recording)
    return out


def test_every_construction_step_matches_the_two_step_system(steps):
    rng = random.Random(25)
    constructions = unreachable = 0
    for t in range(220):
        pattern = random_pattern(rng, rng.randrange(3, 9), adjacent_only=t % 3 != 0)
        try:
            run_construction(pattern)
        except TargetNotReachableError:
            unreachable += 1
        constructions += 1
    assert constructions >= 200 and unreachable and len(steps) > 2000
    for p, k, key, value, q in steps:
        assert q._base is p
        r = canonical_extend(p, key).with_exception(k, key, value)
        assert_same_system(q, r)


def test_generator_systems_extend_as_the_two_step_path_does():
    rng = random.Random(3)
    seen: set[str] = set()
    for _ in range(120):
        p = random_system(rng)
        for jump in (OMEGA, O("w*2"), O("w^2"), ONE):
            alpha = p.top + jump
            base = canonical_extend(p, alpha + OMEGA)
            grid = probe_points(base)
            values = grid[:: max(1, len(grid) // 6)]
            for level in (rng.randrange(0, 4), rng.randrange(1, p.depth + 3)):
                for value in (*values, alpha, alpha + ONE, ZERO):
                    if value < base.bound:
                        seen.add(assert_same_outcome(p, alpha, level, value))
    assert {"ok", "OutOfRangeError", "TargetNotReachableError", "InvalidIntermediateError",
            "ValueError", "OutOfBoundsError"} <= seen


def test_each_refusal_has_the_two_step_type_and_message():
    p = StabilitySystem(O("w*3+1"), {1: {O("w*2"): O("5")}})
    top = p.top
    cases = {
        "invalid p": (StabilitySystem(O("w*3"), {1: {O("w*2"): O("5")}}), O("w*4"), 1, ZERO),
        "alpha at the top": (p, top, 1, ZERO),
        "alpha below the top": (p, O("w*2"), 1, ZERO),
        "successor alpha": (p, O("w*4+1"), 1, ZERO),
        "level 0": (p, O("w*4"), 0, ZERO),
        "value above alpha": (p, O("w*4"), 1, O("w*4+1")),
        "value not below alpha": (p, O("w*4"), 1, O("w+3")),
        "invalid candidate": (StabilitySystem(ONE), O("w^2"), 1, ZERO),
    }
    raised = {}
    for name, args in cases.items():
        got = outcome(lambda: extend_with_top_exception(*args))
        assert got == outcome(lambda: two_step_extension(*args)), name
        raised[name] = got[0]
    assert raised == {
        "invalid p": InvalidConditionError,
        "alpha at the top": OutOfRangeError,
        "alpha below the top": OutOfRangeError,
        "successor alpha": OutOfRangeError,
        "level 0": ValueError,
        "value above alpha": OutOfBoundsError,
        "value not below alpha": TargetNotReachableError,
        "invalid candidate": InvalidIntermediateError,
    }
    assert not pred_set(canonical_extend(p, O("w*4")), 1, O("w*4")).member(O("w+3"))


def test_an_identity_value_stores_no_key():
    p = StabilitySystem(O("w*3+1"), {1: {O("w*2"): O("5")}})
    q = extend_with_top_exception(p, O("w*5"), 2, O("w*5"))
    assert q.levels is p.levels and q.bound == O("w*5+1") and q._base is p


def test_valid_systems_share_one_report():
    p = StabilitySystem(O("w*3+1"), {1: {O("w*2"): O("5")}})
    q = extend_with_top_exception(p, O("w*4"), 1, O("w*2"))
    bad = StabilitySystem(O("w*3"), {})
    assert validate(p) is validate(q) is validate(StabilitySystem(ONE))
    assert validate(bad) is not validate(StabilitySystem(O("w*2")))
    assert validate(p) == validate(StabilitySystem(O("w*3+1"), {1: {O("w*2"): O("5")}}))
