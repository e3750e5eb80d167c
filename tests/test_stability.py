import random

import pytest
from hypothesis import given, strategies as st

from stabforce import (
    CheckReport,
    IntervalSet,
    StabilitySystem,
    Violation,
    check_predecessor_laws,
    check_tree_properties,
    dom_f,
    f_eval,
    is_k_lim2,
    is_k_limit,
    le_k,
    lt_k,
    pred_set,
    probe_points,
    stability,
    system_from_dict,
    system_from_json,
    system_to_dict,
    system_to_json,
    validate,
)
from stabforce.errors import OutOfBoundsError
from stabforce.gen import mutate_system, random_system
from stabforce.oracle import BruteEvaluator
from stabforce.ordinal import Ordinal, OrdinalInterval, format_ordinal
from stabforce.ordinal import parse_ordinal as O
from stabforce.simulate import make_pattern, run_construction
from stabforce.stability import _compiled, _is_lim2, _pred, disagreeing_levels
from test_ordinal import sup_of_limits_between


def test_dom_f_examples(pstar):
    assert dom_f(pstar, 1, O("w")) is True
    assert dom_f(pstar, 2, O("w*2")) is False  # predecessors [0,5] have a max
    assert dom_f(pstar, 2, O("w*3")) is True
    assert dom_f(pstar, 1, O("7")) is False
    with pytest.raises(OutOfBoundsError):
        dom_f(pstar, 1, O("w*4"))


def test_f_eval_examples(pstar):
    assert f_eval(pstar, 1, O("w*2")) == O("5")
    assert f_eval(pstar, 1, O("w")) == O("w")
    assert f_eval(pstar, 2, O("w*2")) is None


def test_lt_k_examples(pstar):
    assert lt_k(pstar, 1, O("3"), O("w*3")) is True
    assert lt_k(pstar, 1, O("7"), O("w*3")) is False
    for beta in ["0", "5", "w", "w*2", "w*2+9"]:
        b = O(beta)
        assert lt_k(pstar, 1, b, b + O("1")) is True
    assert lt_k(pstar, 1, O("w"), O("w")) is False  # strict
    assert le_k(pstar, 1, O("w"), O("w")) is True


def test_zero_below_everything(pstar):
    for k in (1, 2, 3):
        for b in ["1", "5", "w", "w*2", "w*3"]:
            assert lt_k(pstar, k, O("0"), O(b)) is True


def test_pred_set_examples(pstar):
    # the exception at w*2 caps everything below it at 5; w*2 itself passes
    # the quantifier (only points strictly above constrain), so the upper
    # stretch is closed on the left
    assert pred_set(pstar, 1, O("w*3")) == IntervalSet.of(
        (O("0"), O("6")), (O("w*2"), O("w*3")))
    assert pred_set(pstar, 1, O("w")) == IntervalSet.of((O("0"), O("w")))
    assert pred_set(pstar, 1, O("w*2")) == IntervalSet.of((O("0"), O("6")))
    assert pred_set(pstar, 1, O("0")).is_empty


def test_pred_set_consistent_with_lt(pstar):
    for k in (1, 2):
        for b in ["w", "w*2", "w*2+3", "w*3"]:
            s = pred_set(pstar, k, O(b))
            for a in ["0", "1", "5", "6", "7", "w", "w+1", "w*2", "w*2+1"]:
                if O(a) < O(b):
                    assert s.member(O(a)) == lt_k(pstar, k, O(a), O(b))


def test_is_k_limit_examples(pstar):
    assert is_k_limit(pstar, 1, O("w*3")) is True
    assert is_k_limit(pstar, 1, O("w*2")) is False
    assert is_k_lim2(pstar, 1, O("w*3")) is False


def test_lim2_structure_above_w_squared():
    # at a lim2 ordinal the level limits below are cofinal whenever the
    # predecessor set is unbounded, at every level
    p = StabilitySystem(O("w^2+1"))
    assert is_k_lim2(p, 1, O("w^2")) and is_k_lim2(p, 2, O("w^2"))
    q = StabilitySystem(O("w^2+1"), {1: {O("w*3"): O("2")}})
    assert is_k_lim2(q, 1, O("w^2"))
    assert pred_set(q, 1, O("w^2")) == IntervalSet.of(
        (O("0"), O("3")), (O("w*3"), O("w^2")))
    # non-lim2 ordinals are never level lim2 points
    assert not is_k_lim2(q, 1, O("w*5"))


def test_lim2_points_refuse_below_identity_values():
    # continuity pins the map to the identity at lim2 chain points, at the
    # base level and at derived levels alike
    for level in (1, 2):
        p = StabilitySystem(O("w^2+w+1"), {level: {O("w^2"): O("5")}})
        assert "V4" in [v.check for v in validate(p).violations]


def test_lim2_gate_examples(pstar):
    # a lim2 point of the level-k chain: plain lim2 at k = 0, is_k_lim2 above
    p = StabilitySystem(O("w^2+1"))
    assert O("w^2").is_lim2 and is_k_lim2(p, 1, O("w^2"))
    q = StabilitySystem(O("w^2+1"), {1: {O("w*3"): O("2")}})
    assert is_k_lim2(q, 1, O("w^2"))
    assert not O("w").is_lim2 and not is_k_lim2(pstar, 1, O("w"))


def test_validate_pstar(pstar):
    assert validate(pstar).valid


def test_validate_v5_counterexample(pstar):
    # two-exception system where every other check passes but V5 fails at w*2
    p = StabilitySystem(O("w*3+1"), {1: {O("w"): O("5"), O("w*2"): O("7")}})
    rep = validate(p)
    assert not rep.valid
    assert [(v.check, v.subject) for v in rep.violations] == [("V5", "w*2")]


def test_validate_v1_limit_bound():
    rep = validate(StabilitySystem(O("w*3")))
    assert not rep.valid
    assert [v.check for v in rep.violations] == ["V1"]


def test_validate_v2_v3():
    p = StabilitySystem(O("w*3+1"), {1: {O("w+1"): O("0")}})
    assert [v.check for v in validate(p).violations] == ["V2"]
    q = StabilitySystem(O("w*3+1"), {1: {O("w"): O("w+3")}})
    checks = [v.check for v in validate(q).violations]
    assert "V3" in checks


def test_validate_v4_lim2_key():
    # a below-identity value at a Lim2 point breaks continuity
    p = StabilitySystem(O("w^2+w+1"), {1: {O("w^2"): O("3")}})
    checks = [v.check for v in validate(p).violations]
    assert "V4" in checks
    # identity-valued keys never exist (normalization keeps them out of the
    # map), and a value at a non-lim2 limit is fine
    q = StabilitySystem(O("w^2+w+1"), {1: {O("w*2"): O("3")}})
    assert validate(q).valid


def test_check_tree_properties_examples(pstar):
    probe = probe_points(pstar, extra=[O("0"), O("1"), O("5"), O("w"), O("w*2"), O("w*3")])
    assert check_tree_properties(pstar, 1, probe).passed
    assert check_tree_properties(pstar, 1, [O("0")]).passed
    # the derived orders satisfy the tree laws for arbitrary exception data,
    # so even the V5-violating system yields a clean report
    corrupted = StabilitySystem(O("w*3+1"), {1: {O("w"): O("5"), O("w*2"): O("7")}})
    assert not validate(corrupted).valid
    assert check_tree_properties(corrupted, 1).passed


# level -> the pairs (a, b), a != b, of 0, 1, 2 that a crafted a <=_level b holds
_BROKEN_LAWS = {
    "antisymmetry": {1: {(0, 1), (1, 0)}, 2: {(0, 1), (1, 0)}},
    "transitivity": {1: {(0, 1), (1, 2)}, 2: set()},
    "interpolation": {1: {(0, 1), (1, 2), (0, 2)}, 2: {(0, 2)}},
}


@pytest.mark.parametrize("law", sorted(_BROKEN_LAWS))
def test_check_tree_properties_reports_a_broken_order_law(pstar, monkeypatch, law):
    """Each law's report, reached through a crafted level order, since the
    real orders satisfy every law."""
    pairs = _BROKEN_LAWS[law]
    pts = [O("0"), O("1"), O("2")]
    monkeypatch.setattr(stability, "_le", lambda p, k, a, b:
                        a == b or (pts.index(a), pts.index(b)) in pairs[k])
    report = check_tree_properties(pstar, 1, pts)
    assert report.violations and {v.check for v in report.violations} == {law}


def test_check_tree_properties_reports_a_limit_end(pstar, monkeypatch):
    monkeypatch.setattr(stability, "pred_set",
                        lambda p, k, beta: IntervalSet.of((O("0"), O("w"))))
    report = check_tree_properties(pstar, 1, [O("w*2")])
    assert [(v.check, v.subject) for v in report.violations] == [("closure", "w*2")]


def test_levels_refine(pstar, qstar):
    pts = probe_points(qstar)
    for a in pts:
        for b in pts:
            if lt_k(qstar, 2, a, b):
                assert lt_k(qstar, 1, a, b)


def test_monotone_default(qstar):
    # no exception keys in (5, w) or (w*2+1, w*2+7): lt holds at every level
    for k in (1, 2, 3):
        assert lt_k(qstar, k, O("w*2+1"), O("w*2+7"))
        assert lt_k(qstar, k, O("5"), O("w"))


def test_check_predecessor_laws_examples(pstar):
    rep = check_predecessor_laws(pstar, 1)
    assert rep.passed
    p = StabilitySystem(O("w^2+1"))
    assert check_predecessor_laws(p, 1).passed
    assert is_k_limit(p, 1, O("w^2"))  # predecessors cofinal at the fixed point
    # f1(w*2) = 5 is the largest level-1 predecessor of w*2
    s = pred_set(pstar, 1, O("w*2"))
    assert s.has_max() and s.max_element() == O("5")


def test_multilevel_fixture_hand_values():
    # three levels of exceptions interacting; every expected value below was
    # worked out by hand from the defining quantifiers
    f = StabilitySystem(O("w*6+1"), {
        1: {O("w*2"): O("5"), O("w*5"): O("w*2+1")},
        2: {O("w*3"): O("w*2+2")},
        3: {O("w*4"): O("w*2+1")},
    })
    assert validate(f).valid

    assert pred_set(f, 1, O("w*6")) == IntervalSet.of(
        (O("0"), O("6")), (O("w*2"), O("w*2+2")), (O("w*5"), O("w*6")))
    # the level-2 key at w*3 is not on the level-1 chain of w*6 (the w*5
    # exception cuts it off), so it constrains nothing up there
    assert pred_set(f, 2, O("w*6")) == pred_set(f, 1, O("w*6"))
    assert pred_set(f, 3, O("w*6")) == pred_set(f, 1, O("w*6"))

    assert pred_set(f, 2, O("w*4")) == IntervalSet.of(
        (O("0"), O("6")), (O("w*2"), O("w*2+3")), (O("w*3"), O("w*4")))
    assert lt_k(f, 2, O("w*2+1"), O("w*4"))
    assert not lt_k(f, 2, O("w*2+3"), O("w*4"))
    assert is_k_limit(f, 2, O("w*4"))

    # at w*5 every deeper key falls off the chain and the level-1 exception
    # itself caps the set, leaving its own value as the maximum
    assert pred_set(f, 3, O("w*5")) == IntervalSet.of(
        (O("0"), O("6")), (O("w*2"), O("w*2+2")))
    assert pred_set(f, 3, O("w*5")).max_element() == O("w*2+1") == f_eval(f, 1, O("w*5"))
    assert not is_k_limit(f, 3, O("w*5"))

    for k in range(1, 5):
        assert check_tree_properties(f, k).passed
        assert check_predecessor_laws(f, k).passed


def test_out_of_bounds(pstar):
    with pytest.raises(OutOfBoundsError):
        lt_k(pstar, 1, O("0"), O("w*4"))
    with pytest.raises(OutOfBoundsError):
        pred_set(pstar, 1, O("w^2"))


def test_out_of_bounds_messages(pstar):
    text = "+".join(f"w^{e}*9" for e in range(30, 1, -1))
    brief = f"{text[:24]}... ({len(text)} characters)"
    long = O(text)
    for call, shown, bound in [
            (lambda: lt_k(pstar, 1, O("w*3+1"), O("0")), "w*3+1", "w*3+1"),
            (lambda: le_k(pstar, 0, O("0"), O("w^2")), "w^2", "w*3+1"),
            (lambda: pred_set(pstar, 2, O("w*4")), "w*4", "w*3+1"),
            (lambda: dom_f(pstar, 1, long), brief, "w*3+1"),
            (lambda: is_k_lim2(StabilitySystem(long), 1, long), brief, brief)]:
        with pytest.raises(OutOfBoundsError) as exc:
            call()
        assert str(exc.value) == f"{shown} is not below the bound {bound}"


def test_negative_level_is_rejected(pstar):
    with pytest.raises(ValueError, match="^level must be >= 0$"):
        le_k(pstar, -1, O("1"), O("2"))

def test_is_k_limit_refuses_level_zero_and_a_point_at_the_bound(pstar):
    with pytest.raises(ValueError, match="^level must be >= 1$"):
        is_k_limit(pstar, 0, O("w"))
    with pytest.raises(OutOfBoundsError, match=r"^w\*3\+1 is not below the bound w\*3\+1$"):
        is_k_limit(pstar, 1, pstar.bound)


def test_bound_must_be_an_ordinal():
    with pytest.raises(TypeError, match="^bound must be an Ordinal$"):
        StabilitySystem(5)


def test_level_zero_sets_are_not_cached():
    """``dom_f`` at level 1 and V4 at level 1 read level-0 sets, [0, b); they
    are built on the spot, never stored.  A point's row holds its sets at
    levels that carry keys, keyed by level number, and is never longer than
    their count, even after a query at a level far above them."""
    g = run_construction(_chain_pattern(40)).g
    q = system_from_json(system_to_json(g))  # link-free: every row is memoized on q
    assert validate(q).valid

    def assert_rows():
        assert q._memo
        for b, row in q._memo.items():
            assert 1 <= len(row) <= len(q.levels), (b, len(row))
            assert row.keys() <= {k for k, _ in q.levels}, b
            assert row == {k: pred_set(g, k, Ordinal(b)) for k in row}, b

    assert_rows()
    b = O("w*6+1")
    assert b.terms not in q._memo
    assert not dom_f(q, 1, b) and le_k(q, 0, O("w"), b)
    assert b.terms not in q._memo
    assert is_k_limit(q, 1, O("w*6"))
    assert pred_set(q, 5000, O("w*6")) == pred_set(q, q.depth, O("w*6"))
    assert len(q._memo[O("w*6").terms]) == q.depth
    assert_rows()


def test_depth_and_normalization():
    p = StabilitySystem(O("w*3+1"), {1: {O("w*2"): O("5")}, 2: {}})
    assert p.depth == 1  # empty levels carry no data
    assert p == StabilitySystem(O("w*3+1"), {1: {O("w*2"): O("5")}})
    assert StabilitySystem(O("1")).depth == 1


def test_json_roundtrip(pstar, qstar):
    for p in (pstar, qstar, StabilitySystem(O("1"))):
        assert system_from_dict(system_to_dict(p)) == p
        assert system_from_json(system_to_json(p)) == p
    d = system_to_dict(pstar)
    assert d == {"bound": "w*3+1", "levels": {"1": {"w*2": "5"}}}


def test_json_accepts_empty_levels():
    p = system_from_dict({"bound": "w*3+1", "levels": {"1": {"w*2": "5"}, "2": {}}})
    assert p.depth == 1


def test_json_rejects_unknown_fields():
    with pytest.raises(ValueError):
        system_from_dict({"bound": "1", "extra": 3})
    with pytest.raises(ValueError):
        system_from_dict({"levels": {}})


# -- the pred_set kernel against the per-key scan ----------------------------------


def scan_lt(p, k, a, b, memo):
    """a <_k b by the per-key scan lt_k used before it became a pred_set
    lookup: a <_{k-1} b, and no level-k domain key g in (a, b] on the
    level-(k-1) chain of b has a value below a."""
    if not a < b:
        return False
    key = (k, a, b)
    if key not in memo:
        memo[key] = (k == 1 or scan_lt(p, k - 1, a, b, memo)) and not any(
            a < g <= b and v < a and dom_f(p, k, g)
            and (k == 1 or g == b or scan_lt(p, k - 1, g, b, memo))
            for g, v in p.entries_at(k))
    return memo[key]


def assert_kernel_matches_scan(p, pts, brute=None):
    memo = {}
    for k in range(1, p.depth + 2):
        for b in pts:
            s = pred_set(p, k, b)
            assert IntervalSet(s.intervals) == s, (k, b)
            for a in pts:
                expect = scan_lt(p, k, a, b, memo)
                assert lt_k(p, k, a, b) == expect == s.member(a), (k, a, b)
                assert le_k(p, k, a, b) == (a == b or expect), (k, a, b)
                if brute is not None:
                    assert brute.lt(k, a, b) == expect, (k, a, b)


def test_key_valued_above_itself_binds_nothing():
    # a V3 violation: no point below w is kept from w*2 by the value w+3
    p = StabilitySystem(O("w*3+1"), {1: {O("w"): O("w+3")}, 2: {O("w*2"): O("w*2+1")}})
    grid = probe_points(p, extra=[O("w+3"), O("w+4")])
    for k in (1, 2, 3):
        assert pred_set(p, k, O("w*2")).intervals == IntervalSet.of((O("0"), O("w*2"))).intervals
    assert_kernel_matches_scan(p, grid)


def _chain_pattern(n):
    """n club points w*6, w*10, ...; every third carries cofinality flag 1
    and degree 2 in its successor, the rest degree 1."""
    pos = [f"w*{6 + 4 * i}" for i in range(n)]
    flags = [[1] if i % 3 == 0 else [] for i in range(n)]
    return make_pattern([(pos[i], True, flags[i]) for i in range(n)],
                        [(pos[i], pos[i + 1], 1 + len(flags[i])) for i in range(n - 1)])


@pytest.mark.parametrize("points", [20, 40])
def test_kernel_matches_scan_on_constructions(points):
    g = run_construction(_chain_pattern(points)).g
    assert g.exception_count() == 2 * points and not g.bound < O("w*20")
    grid = probe_points(g)
    step = -(-len(grid) // 40)
    assert_kernel_matches_scan(g, grid[::step] + grid[-1:])


def test_kernel_matches_scan_and_oracle_on_random_systems():
    rng = random.Random(11)
    for _ in range(60):
        p = random_system(rng, small=True)
        brute = BruteEvaluator(p)
        assert_kernel_matches_scan(p, probe_points(p, extra=brute.limits), brute)


# -- the chain-key recurrence against the per-key intersect kernel ------------------


def ref_pred(p, k, beta, memo):
    """pred_set by the kernel the chain-key recurrence replaced: at each level,
    intersect the set below with the thresholds of every key at or below beta."""
    k = min(k, p.depth)
    if (k, beta) not in memo:
        result = IntervalSet.of((O("0"), beta))
        for j, entries in p.levels:
            if j > k:
                break
            result = result.intersect(ref_thresholds(p, j, entries, beta, result, memo))
        memo[k, beta] = result
    return memo[k, beta]


def ref_thresholds(p, j, entries, beta, below, memo):
    """The a < beta kept by every constraining level-j key in (a, beta]: walk
    the keys down with the running minimum of their values."""
    out, upper, cap = [], beta, None
    for g, v in reversed([e for e in entries if e[0] <= beta]):
        if not (v < g and ref_constrains(p, j, g, beta, below, memo)):
            continue
        if g < upper:
            ref_emit(out, g, upper, cap)
            upper = g
        cap = v if cap is None or v < cap else cap
    ref_emit(out, O("0"), upper, cap)
    return IntervalSet(out)


def ref_emit(out, lo, hi, cap):
    if cap is not None and cap + O("1") < hi:
        hi = cap + O("1")
    if lo < hi:
        out.append(OrdinalInterval(lo, hi))


def ref_constrains(p, j, g, beta, below, memo):
    if j == 1:
        return g.is_limit
    if not (g == beta or below.member(g)):
        return False
    s = ref_pred(p, j - 1, g, memo)
    return not s.is_empty and not s.has_max()


def assert_pred_matches_reference(p, pts):
    """pred_set equals the reference at levels 1..depth+1 on every point, on
    p itself and on two link-free copies queried top-down and bottom-up."""
    memo = {}
    expect = {(k, b): ref_pred(p, k, b, memo) for k in range(1, p.depth + 2) for b in pts}
    copies = (p, StabilitySystem(p.bound, p._as_dict()), StabilitySystem(p.bound, p._as_dict()))
    for q, order in zip(copies, (pts, pts[::-1], pts)):
        for b in order:
            for k in range(p.depth + 1, 0, -1):
                got = pred_set(q, k, b)
                assert got == expect[k, b], (p, k, b, str(got), str(expect[k, b]))
                assert IntervalSet(got.intervals) == got, (k, b)


def w_plus(i, c):
    """The ordinal w*i + c."""
    return Ordinal(((1, i),) if i else ()) + Ordinal.from_int(c)


def random_invalid_system(rng):
    """Keys at limits (and a few successors) on up to three levels, valued at
    random: most of these break V2-V5 somewhere."""
    n = rng.randrange(3, 12)
    bound = w_plus(n + 1, 1) if n < 9 else O("w^2+w*3+1")
    points = [w_plus(i, 0) for i in range(1, n + 1)] + [O("w^2"), O("w^2+w")] * (n > 8)
    levels = {}
    for _ in range(rng.randrange(1, 9)):
        g = rng.choice(points)
        if rng.random() < 0.1:
            g = g + O("1")
        if g < bound:
            v = w_plus(rng.randrange(n + 1), rng.randrange(4)) if rng.random() < 0.9 else g + O("2")
            levels.setdefault(rng.randrange(1, 4), {})[g] = v
    return StabilitySystem(bound, levels)


def test_pred_matches_reference_on_random_systems():
    rng = random.Random(23)
    for _ in range(60):
        p = random_system(rng)
        assert_pred_matches_reference(p, probe_points(p))


def test_pred_matches_reference_on_invalid_systems():
    rng = random.Random(29)
    broken = set()
    for _ in range(40):
        m = mutate_system(rng, random_system(rng, small=True))
        pts = probe_points(m) if m.bound.is_successor else tuple(
            a for a in probe_points(StabilitySystem(m.bound + O("1"), m._as_dict())) if a < m.bound)
        assert_pred_matches_reference(m, pts)
        broken.update(v.check for v in validate(m).violations)
    for _ in range(80):
        p = random_invalid_system(rng)
        assert_pred_matches_reference(p, probe_points(p))
        broken.update(v.check for v in validate(p).violations)
    assert broken == {"V1", "V2", "V3", "V4", "V5"}


# -- rows only for binding keys, and a memo keyed by CNF terms ---------------------


def assert_rows_only_for_binding_keys(p) -> set:
    """Each compiled key below the bound has None for its row exactly when
    it binds nothing: it is outside its level's domain or valued at or above
    itself.  Returns the reasons seen, "domain" and "value"."""
    seen = set()
    for j, (entries, _, rows, _) in _compiled(p).items():
        for (g, v), row in zip(entries, rows):
            if not g < p.bound:
                continue
            dom = dom_f(p, j, g)
            assert (row is None) == (not dom or v >= g), (p, j, g, v)
            if row is None:
                seen.add("value" if dom else "domain")
    return seen


def assert_pred_matches_cold_and_brute(p, pts) -> None:
    """_pred at levels 1..depth+1 on every probe point equals a link-free
    rebuild's, queried in the other order, and, below w*20, the oracle's."""
    cold = StabilitySystem(p.bound, p._as_dict())
    brute = BruteEvaluator(p) if p.bound < O("w*20") else None
    levels = range(1, p.depth + 2)
    got = {(k, b): _pred(p, k, b) for b in pts for k in levels}
    for b in pts[::-1]:
        for k in levels[::-1]:
            assert _pred(cold, k, b) == got[k, b], (p, k, b)
            if brute is not None:
                assert brute.pred_set(k, b) == got[k, b], (p, k, b)


def _probe(p):
    """p's probe points, also when a mutant's bound is a limit."""
    if p.bound.is_successor:
        return probe_points(p)
    return tuple(a for a in probe_points(StabilitySystem(p.bound + O("1"), p._as_dict()))
                 if a < p.bound)


def test_keys_that_bind_nothing_store_no_row_in_invalid_systems():
    """Random invalid systems and mutants store None for exactly the keys
    that bind nothing, and answer as their rebuilds and the oracle do."""
    rng = random.Random(37)
    systems = [random_invalid_system(rng) for _ in range(60)]
    systems += [mutate_system(rng, random_system(rng, small=True)) for _ in range(40)]
    seen = set()
    for p in systems:
        seen |= assert_rows_only_for_binding_keys(p)
        assert_pred_matches_cold_and_brute(p, _probe(p))
    assert seen == {"domain", "value"}


def test_keys_that_bind_nothing_along_a_linked_chain():
    """A chain of ``with_exception`` and ``with_bound`` links whose keys
    include a value above its key (V3), a key at a successor position (V2),
    and a point that binds at level 1 but is outside the level-2 domain.
    Later links share those levels with their base, None rows included, and
    a first query at that point scans past its level-2 None to adopt its
    level-1 row."""
    steps = [("bound", "w*4+1"), (1, "w*3", "5"), (2, "w*3", "w*3+2"), (2, "w*4", "w*4+2"),
             ("bound", "w*7+1"), (2, "w*5+1", "w"), ("bound", "w*9+1"), (3, "w*8", "w*6"),
             ("bound", "w*12+1"), (2, "w*11", "w*9+1"), ("bound", "w*14+1")]
    chain = [StabilitySystem(O("w*2+1"), {1: {O("w"): O("3")}, 2: {O("w*2"): O("w+1")}})]
    for step in steps:
        q = chain[-1]
        chain.append(q.with_bound(O(step[1])) if step[0] == "bound"
                     else q.with_exception(step[0], O(step[1]), O(step[2])))
    assert all(q._base is not None for q in chain[1:])
    last = chain[-1]
    rows, old = _compiled(last)[2][2], _compiled(chain[4])[2][2]
    assert rows[1:4] == [None] * 3 and _compiled(last)[1][2][1] is not None
    assert len(rows) > len(old) == 3 and all(x is y for x, y in zip(rows, old))
    w3 = O("w*3")
    assert _pred(last, 2, w3) == _pred(StabilitySystem(last.bound, last._as_dict()), 2, w3)
    assert last._memo[w3.terms] is _compiled(last)[1][2][1]
    seen = set()
    for q in reversed(chain):
        seen |= assert_rows_only_for_binding_keys(q)
        assert_pred_matches_cold_and_brute(q, probe_points(q))
    assert seen == {"domain", "value"}
    assert not validate(last).valid


def test_warm_queries_hash_no_ordinal(monkeypatch):
    """The memo is keyed by CNF terms: once a pass of ``pred_set`` has filled
    the rows, a second pass never calls ``Ordinal.__hash__``."""
    g = run_construction(_chain_pattern(12)).g
    pts = probe_points(g)
    levels = range(1, g.depth + 2)
    first = [pred_set(g, k, b) for b in pts for k in levels]
    calls = []
    unpatched = Ordinal.__hash__

    def counting(self):
        calls.append(self)
        return unpatched(self)

    monkeypatch.setattr(Ordinal, "__hash__", counting)
    assert hash(O("w")) == unpatched(O("w")) and calls  # the counter sees calls
    calls.clear()
    assert [pred_set(g, k, b) for b in pts for k in levels] == first
    assert calls == []


@pytest.mark.parametrize("points", [20, 40, 80])
def test_pred_matches_reference_on_constructions(points):
    g = run_construction(_chain_pattern(points)).g
    assert g.exception_count() == 2 * points
    assert_pred_matches_reference(g, probe_points(g))


def test_long_key_chain_needs_no_deep_stack():
    # every key constrains the top, so the walk below the nearest one passes
    # all the others
    n = 5000
    keys = {w_plus(i, 0): w_plus(i - 1, 1) for i in range(1, n + 1)}
    top = w_plus(n, 0)
    for level in (1, 2):
        p = StabilitySystem(top + O("1"), {level: keys})
        s = pred_set(p, level, top)
        assert len(s.intervals) == n
        assert s.intervals[-1] == OrdinalInterval(w_plus(n - 1, 0), w_plus(n - 1, 2))
        assert lt_k(p, level, w_plus(n - 1, 1), top)
        assert not lt_k(p, level, w_plus(n - 1, 2), top)


# -- limit facts off the top interval, and the probe grid ---------------------------


def sweep_is_k_lim2(p, k, alpha):
    """The interval sweep ``is_k_lim2`` made before it read the top interval
    alone: a level-k limit whose limits' supremum, taken per interval, is alpha."""
    if not is_k_limit(p, k, alpha):
        return False
    best = None
    for iv in pred_set(p, k, alpha):
        s = sup_of_limits_between(iv.low, iv.high)
        if s is not None and (best is None or s > best):
            best = s
    return best == alpha


LIM2_EXTRA = [O("w^2"), O("w^2*2"), O("w^2+w*3")]
LIM2_KEYS = [O(t) for t in ("w^2", "w^2*2", "w^2*3", "w^3", "w^3+w^2", "w^2+w", "w*3")]


def random_lim2_key_system(rng):
    """Keys mostly at lim2 positions on up to three levels, valued at random:
    most of these break V2-V5 somewhere."""
    levels = {}
    for _ in range(rng.randrange(1, 8)):
        g = rng.choice(LIM2_KEYS)
        v = g if rng.random() < 0.2 else rng.choice(LIM2_KEYS + [O("0"), O("5"), O("w")])
        levels.setdefault(rng.randrange(1, 4), {})[g] = v
    return StabilitySystem(O("w^3+w^2+w+1"), levels)


def successor_probe(m, extra=()):
    """Probe points of m, whose bound may be a limit (V1 broken)."""
    if m.bound.is_successor:
        return probe_points(m, extra=extra)
    q = StabilitySystem(m.bound + O("1"), m._as_dict())
    return tuple(a for a in probe_points(q, extra=extra) if a < m.bound)


def test_is_k_lim2_matches_interval_sweep():
    rng = random.Random(8)
    systems = []
    for _ in range(200):
        p = random_system(rng)
        systems += [p, mutate_system(rng, p)]
    lim2_keyed = [random_lim2_key_system(rng) for _ in range(200)]
    systems += lim2_keyed + [run_construction(_chain_pattern(n)).g for n in (20, 40)]
    seen = set()
    for p in systems:
        for a in successor_probe(p, LIM2_EXTRA):
            for k in range(1, p.depth + 2):
                got = is_k_lim2(p, k, a)
                assert got == sweep_is_k_lim2(p, k, a), (p, k, a)
                seen.add(got)
    assert seen == {True, False}
    assert sum(not validate(p).valid for p in lim2_keyed) > 150
    assert any("V4" in {v.check for v in validate(p).violations} for p in lim2_keyed)


def list_probe_points(p, extra=(), cap=None):
    """``probe_points`` as it was, deduplicating by a list scan."""
    top = p.top
    priority, rest = [O("0"), top], [O("1")]
    for _, entries in p.levels:
        for g, v in entries:
            priority += [g, v]
            rest += [g + O("1"), v + O("1")]
    rest.extend(extra)
    seen = []
    for a in priority + rest:
        if a <= top and a not in seen:
            seen.append(a)
        if cap is not None and len(seen) >= cap:
            break
    return tuple(sorted(seen, key=lambda a: a.terms))


def test_probe_points_match_list_scan():
    rng = random.Random(31)
    systems = [random_system(rng) for _ in range(60)]
    systems += [random_lim2_key_system(rng) for _ in range(30)]
    systems += [run_construction(_chain_pattern(n)).g for n in (20, 40)]
    for p in systems:
        for extra in ((), LIM2_EXTRA + [O("1"), p.top]):
            for cap in (None, 1, 2, 5, 12, 40):
                got = probe_points(p, extra=extra, cap=cap)
                assert got == list_probe_points(p, extra=extra, cap=cap), (p, extra, cap)


# -- the agreement helper and the format memo -------------------------------------


def old_disagreeing_levels(q, p, cut) -> list[int]:
    """The per-level filter ``extends`` and R1 used before the shared helper."""
    out = []
    for k in sorted({k for k, _ in q.levels} | {k for k, _ in p.levels}):
        q_below = tuple((g, v) for g, v in q.entries_at(k) if g < cut)
        if q_below != p.entries_at(k):
            out.append(k)
    return out


def test_disagreeing_levels_matches_per_level_filter():
    rng = random.Random(5)
    systems = [random_system(rng) for _ in range(80)]
    pairs = [(rng.choice(systems), rng.choice(systems)) for _ in range(300)]
    for p in systems[:40]:  # extensions: agreeing, rewritten, and with new levels
        q = p.with_bound(p.bound + O("w*3"))
        pairs += [(q, p), (p, q)]
        for k, key, value in ((1, p.top + O("w"), O("0")), (p.depth + 1, p.top + O("w*2"), O("1")),
                              (1, O("w"), O("0")), (2, O("w*2"), O("1"))):
            try:
                pairs.append((q.with_exception(k, key, value), p))
            except ValueError:
                pass
    seen = set()
    for q, p in pairs:
        for cut in (p.bound, q.bound, O("w"), O("w*2+1"), O("0")):
            got = disagreeing_levels(q, p, cut)
            assert got == old_disagreeing_levels(q, p, cut), (q, p, cut)
            seen.add(bool(got))
    assert seen == {True, False}
    assert any({k for k, _ in q.levels} != {k for k, _ in p.levels} for q, p in pairs)


def reference_format(a) -> str:
    if not a.terms:
        return "0"
    return "+".join(str(c) if e == 0 else
                    ("w" if e == 1 else f"w^{e}") + ("" if c == 1 else f"*{c}")
                    for e, c in a.terms)


_terms = st.lists(
    st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=30)),
    max_size=5,
).map(lambda pairs: sorted({e: c for e, c in pairs}.items(), reverse=True))


@given(_terms)
def test_format_ordinal_memo_matches_reference(terms):
    a = Ordinal(terms)
    first = format_ordinal(a)
    assert first == reference_format(a) == str(a)
    assert format_ordinal(a) is first  # cached by terms
    assert format_ordinal(Ordinal(terms)) == first


# -- validation against a from-scratch check ----------------------------------------


def reference_validate(p):
    """V1-V5 checked key by key through the public queries, every level and
    every key, with no base: the report before the compile pass made it."""
    out = []
    if not p.bound.is_successor:
        out.append(("V1", 0, format_ordinal(p.bound), "bound must be a successor ordinal"))
    for k, entries in p.levels:
        for g, v in entries:
            subject = format_ordinal(g)
            if not g < p.bound:
                out.append(("V2", k, subject, "key not below the bound"))
                continue
            if not dom_f(p, k, g):
                out.append(("V2", k, subject, f"key not in the level-{k} domain"))
                continue
            if not v <= g:
                out.append(("V3", k, subject, f"value {v} exceeds key"))
            if v < g and (g.is_lim2 if k == 1 else is_k_lim2(p, k - 1, g)):
                out.append(("V4", k, subject, f"value {v} at a lim2 point of the level-{k} "
                            "chain; continuity forces the identity there"))
            if not (v < g and le_k(p, k, v, g)):  # v == g is never stored
                out.append(("V5", k, subject, f"value {v} not below key in the level-{k} order"))
    return out


def assert_validate_matches_reference(p, seen):
    rep = validate(p)
    got = [(x.check, x.level, x.subject, x.message) for x in rep.violations]
    assert got == reference_validate(p), p
    assert rep.valid == (not got)
    seen.update(x.check for x in rep.violations)


def random_raw_system(rng):
    """A system from a dict: a limit or successor bound, keys at, above and
    below it, lim2 keys and values above their keys, on up to three levels."""
    bound = rng.choice([O("w*5"), O("w*5+1"), O("w^2"), O("w^2+1"), O("w^2*2+w+1")])
    points = [w_plus(i, c) for i in range(1, 7) for c in (0, 0, 0, 1)]
    points += [O("w^2"), O("w^2+w"), O("w^2*2"), O("w^2*2+w"), O("w^3")]
    levels = {}
    for _ in range(rng.randrange(1, 9)):
        g = rng.choice(points)
        roll = rng.random()
        v = g + O(str(rng.randrange(1, 3))) if roll < 0.2 else rng.choice(
            [w_plus(rng.randrange(6), rng.randrange(4)), O("w^2+3")])
        levels.setdefault(rng.randrange(1, 4), {})[g] = v
    return StabilitySystem(bound, levels)


def grow_linked(rng, p, steps=3):
    """p and the systems of a chain grown on it by ``with_bound`` and
    ``with_exception``, with new keys at or above the old bound."""
    out = [p]
    for _ in range(steps):
        top = p.bound if p.bound.is_limit else p.top
        p = p.with_bound(top + O(rng.choice(["w", "w*2", "w^2"])) + O("1"))
        out.append(p)
        for _ in range(rng.randrange(3)):
            key = top + O(rng.choice(["w", "w*2", "1"])) if top.terms else O("w")
            value = rng.choice([O("0"), O("3"), key + O("1"), top, w_plus(1, 2)])
            k = rng.randrange(1, 4)
            if key < p.bound and p.exception_value(k, key) is None:
                p = p.with_exception(k, key, value)
                out.append(p)
    return out


def test_validate_matches_reference_on_random_systems_and_mutants():
    rng = random.Random(61)
    seen = set()
    for _ in range(60):
        p = random_system(rng)
        assert_validate_matches_reference(p, seen)
        assert_validate_matches_reference(mutate_system(rng, p), seen)
    assert seen == {"V1", "V2", "V3", "V5"}


def test_validate_matches_reference_on_chains_over_invalid_bases():
    rng = random.Random(67)
    seen, linked = set(), 0
    for i in range(80):
        base = random_invalid_system(rng) if i % 2 else mutate_system(rng, random_system(rng))
        for q in grow_linked(rng, base):
            assert_validate_matches_reference(q, seen)
            linked += q._base is not None
            assert_validate_matches_reference(StabilitySystem(q.bound, q._as_dict()), seen)
    assert seen == {"V1", "V2", "V3", "V4", "V5"} and linked > 200


def test_validate_matches_reference_on_raw_systems():
    rng = random.Random(71)
    seen = set()
    for _ in range(300):
        p = random_raw_system(rng)
        assert_validate_matches_reference(p, seen)
        for q in grow_linked(rng, p, steps=2):
            assert_validate_matches_reference(q, seen)
    assert seen == {"V1", "V2", "V3", "V4", "V5"}


def test_validate_matches_reference_on_a_long_chain():
    p = StabilitySystem(O("w+1"), {1: {O("w"): O("3")}})
    for i in range(1, 3001):  # each key just above the last bound: one link per step
        p = p.with_bound(w_plus(2 * i + 1, 1))
        key = w_plus(2 * i, 0)
        value = (O("2"), key + O("1"), w_plus(2 * i - 1, 1))[i % 3]
        p = p.with_exception(1 + i % 2, key, value)
    q, links = p, 0
    while q._base is not None:
        q, links = q._base, links + 1
    assert links >= 3000
    seen = set()
    assert_validate_matches_reference(p, seen)
    assert seen == {"V3", "V5"}


# -- predecessor laws against the probe scan ------------------------------------------


def scan_predecessor_laws(p, k, probe=None):
    """``check_predecessor_laws`` as it was before it read the compile pass:
    the largest-predecessor clause through ``dom_f`` and ``pred_set``, and the
    unboundedness clause scanned over the probe grid."""
    violations = []
    for g, v in p.entries_at(k):
        if v < g and dom_f(p, k, g):
            s = pred_set(p, k, g)
            if s.is_empty or not s.has_max() or s.max_element() != v:
                got = "none" if s.is_empty or not s.has_max() else str(s.max_element())
                violations.append(Violation(
                    "largest-predecessor", k, format_ordinal(g),
                    f"value {v} is not the largest strict predecessor (got {got})"))
    pts = tuple(probe if probe is not None else probe_points(p))
    for alpha in pts:
        if _is_lim2(p, k - 1, alpha) and f_eval(p, k, alpha) == alpha \
                and not is_k_limit(p, k, alpha):
            violations.append(Violation(
                "unboundedness", k, format_ordinal(alpha),
                "identity value but predecessors not cofinal"))
    return CheckReport(name=f"largest-predecessor/unboundedness level {k}",
                       violations=tuple(violations))


def predecessor_law_systems(rng):
    """Random systems and their mutants, invalid and raw systems, the chains
    grown on each, and link-free copies of the linked systems."""
    for i in range(200):
        if i % 4 == 0:
            p = random_system(rng)
            bases = [p, mutate_system(rng, p)]
        elif i % 4 == 1:
            bases = [random_invalid_system(rng)]
        elif i % 4 == 2:
            bases = [random_raw_system(rng)]
        else:
            bases = [mutate_system(rng, random_system(rng))]
        for base in bases:
            for q in grow_linked(rng, base, steps=2):
                yield q
                if q._base is not None:
                    yield StabilitySystem(q.bound, q._as_dict())


def test_predecessor_laws_match_probe_scan():
    pairs = found = raised = 0
    for p in predecessor_law_systems(random.Random(5)):
        for k in range(1, p.depth + 2):
            pairs += 1
            got = check_predecessor_laws(p, k)
            try:
                want = scan_predecessor_laws(p, k)
            except ValueError as err:  # a key at or above the bound, or a limit bound
                assert isinstance(err, OutOfBoundsError) or not p.bound.is_successor
                raised += 1
                v5 = {x.subject for x in validate(p).violations
                      if x.check == "V5" and x.level == k}
                assert {x.subject for x in got.violations} <= v5, (p, k)
                continue
            assert got == want, (p, k)
            found += len(got.violations)
    assert pairs > 7000 and found > 200 and raised > 200
