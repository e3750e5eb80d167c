import dataclasses
import random

import pytest

from stabforce import (
    StabilitySystem,
    check_predecessor_laws,
    check_stable_pairs,
    check_requirements,
    check_tree_properties,
    derive_assignments,
    extends,
    le_k,
    lt_k,
    minimality_report,
    pattern_from_dict,
    pattern_to_dict,
    result_to_dict,
    run_construction,
    validate,
    validate_pattern,
)
from stabforce.errors import InvalidConditionError, TargetNotReachableError
from stabforce.ordinal import parse_ordinal as O
from stabforce.poset import canonical_extend
from stabforce.simulate import TraceStep, make_pattern, minimality_to_dict
from stabforce.stability import _pred, dom_f, probe_points
from test_incremental import random_pattern


def levels_of(p: StabilitySystem) -> dict:
    return {k: {str(g): str(v) for g, v in entries} for k, entries in p.levels}


# -- pattern validation ---------------------------------------------------------


def test_validate_pattern_examples(pattern_p1, pattern_p2):
    assert validate_pattern(pattern_p2).passed
    assert validate_pattern(pattern_p1).passed
    bad = make_pattern([("w*6", True, []), ("w*20", True, [])], [("w*6", "w*20", 2)])
    rep = validate_pattern(bad)
    assert [v.check for v in rep.violations] == ["A4"]


def test_validate_pattern_a1():
    rep = validate_pattern(make_pattern([("w^2", True, [])]))  # lim2 position
    assert "A1" in [v.check for v in rep.violations]
    rep = validate_pattern(make_pattern([("w*6+1", True, [])]))  # successor
    assert "A1" in [v.check for v in rep.violations]
    rep = validate_pattern(make_pattern([("w*6", True, []), ("w*7", True, [])]))
    assert "A1" in [v.check for v in rep.violations]  # gap below w*2


def test_validate_pattern_a2_coherence():
    pts = [("w*6", True, [1]), ("w*20", True, [1]), ("w*40", True, [])]
    ok = make_pattern(pts, [("w*6", "w*40", 2), ("w*20", "w*40", 1), ("w*6", "w*20", 2)])
    assert validate_pattern(ok).passed
    bad = make_pattern(pts, [("w*6", "w*40", 2), ("w*20", "w*40", 1), ("w*6", "w*20", 1)])
    assert "A2" in [v.check for v in validate_pattern(bad).violations]


def test_validate_pattern_a3():
    rep = validate_pattern(make_pattern([("w*6", True, [2])]))
    assert "A3" in [v.check for v in rep.violations]
    assert validate_pattern(make_pattern([("w*6", True, [1, 2])])).passed


def test_degree_lookup_matches_scan():
    pts = [("w*6", True, [1]), ("w*20", True, [1]), ("w*40", True, [])]
    st = [("w*6", "w*40", 2), ("w*20", "w*40", 1), ("w*6", "w*20", 2), ("w*6", "w*20", 1)]
    pattern = make_pattern(pts, st)
    fresh = make_pattern(pts, st)
    for i, _, _ in pts:
        for j, _, _ in pts:
            scan = next((d for a, b, d in pattern.st if a == O(i) and b == O(j)), 0)
            assert pattern.degree(O(i), O(j)) == scan
    # the memoized lookup is invisible to equality, hashing and the encoding
    assert pattern == fresh and hash(pattern) == hash(fresh)
    assert pattern_to_dict(pattern) == pattern_to_dict(fresh)
    assert dataclasses.replace(pattern) == fresh


# -- assignments ------------------------------------------------------------------


def test_derive_assignments_examples(pattern_p1, pattern_p2, pattern_p3):
    a2 = derive_assignments(pattern_p2)
    i, j = O("w*6"), O("w*20")
    assert a2[i].ell == 1 and a2[i].sup_stable[1] == O("0")
    assert a2[j].ell == 1 and a2[j].sup_stable[1] == i and a2[j].sup_stable[2] == O("0")

    a1 = derive_assignments(pattern_p1)
    assert a1[i].ell == 1 and a1[i].sup_stable[1] == O("0")

    a3 = derive_assignments(pattern_p3)
    assert a3[i].ell == 2
    assert a3[i].sup_stable[2] == O("0") and a3[i].sup_stable[3] == O("0")
    assert a3[j].ell == 1
    assert a3[j].sup_stable[1] == i and a3[j].sup_stable[2] == i


# -- the construction -------------------------------------------------------------


def test_run_construction_p1(pattern_p1):
    r = run_construction(pattern_p1)
    assert levels_of(r.g) == {1: {"w*6": "0"}, 2: {"w*7": "0"}}
    o = r.per_point[0]
    assert (o.ell, o.gamma, o.alpha) == (1, O("0"), O("w*7"))


def test_run_construction_p2(pattern_p2):
    r = run_construction(pattern_p2)
    assert levels_of(r.g) == {
        1: {"w*6": "0", "w*20": "w*7"},
        2: {"w*7": "0", "w*21": "w*7"},
    }
    oj = r.outcome_at(O("w*20"))
    assert oj.gamma == O("w*7")  # the previous point's alpha


def test_run_construction_p3(pattern_p3):
    r = run_construction(pattern_p3)
    assert levels_of(r.g) == {
        1: {"w*20": "w*7"},
        2: {"w*6": "0", "w*21": "w*7"},
        3: {"w*7": "0"},
    }
    assert r.outcome_at(O("w*6")).ell == 2


def test_construction_intermediates_all_valid(pattern_p3):
    r = run_construction(pattern_p3)
    for step in r.trace:
        assert validate(step.system).valid
    for k in range(1, r.g.depth + 1):
        assert check_tree_properties(r.g, k).passed
        assert check_predecessor_laws(r.g, k).passed


def test_construction_deterministic(pattern_p3):
    assert run_construction(pattern_p3) == run_construction(pattern_p3)


def test_construction_rejects_invalid_pattern():
    bad = make_pattern([("w^2", True, [])])
    with pytest.raises(InvalidConditionError):
        run_construction(bad)


def test_construction_target_not_reachable():
    # c relates to a but the unrelated b in between pinned its level-1 map to
    # 0, so a's alpha is no longer reachable from above
    pattern = make_pattern(
        [("w*6", True, []), ("w*20", True, []), ("w*40", True, [])],
        [("w*6", "w*40", 1)])
    assert validate_pattern(pattern).passed
    with pytest.raises(TargetNotReachableError):
        run_construction(pattern)


def test_construction_nonadjacent_gamma():
    # with b related to a as well, the chain stays open and c's gamma reaches
    # back to a's alpha through b's matching value
    pattern = make_pattern(
        [("w*6", True, []), ("w*20", True, []), ("w*40", True, [])],
        [("w*6", "w*20", 1), ("w*6", "w*40", 1)])
    r = run_construction(pattern)
    assert r.outcome_at(O("w*40")).gamma == O("w*7")


def test_every_construction_step_extends_its_predecessor():
    # run_construction does not re-check the extensions it builds; this is
    # that check, made on seeded constructions of 3 to 10 points
    rng = random.Random(61)
    built = 0
    for n in (3, 3, 3, 3, 6, 6, 10, 10, 10, 10):
        pattern = random_pattern(rng, n, adjacent_only=True)
        try:
            r = run_construction(pattern)
        except TargetNotReachableError:
            continue
        built += 1
        for prev, step in zip(r.trace, r.trace[1:]):
            assert extends(step.system, prev.system, step.level), step.label
        assert not [v for v in check_requirements(r, pattern).violations if v.check == "R1"]
    assert built >= 6


def test_r1_checks_each_valid_step_with_one_agreement_test(monkeypatch, pattern_p2, pattern_p3):
    # R1 asks ``extends`` first and lists the rewritten levels only for a step
    # that fails it, so a valid construction costs one agreement test a step
    import stabforce.poset
    import stabforce.simulate
    from stabforce.stability import disagreeing_levels

    calls = []

    def counting(*args):
        calls.append(args)
        return disagreeing_levels(*args)

    monkeypatch.setattr(stabforce.poset, "disagreeing_levels", counting)
    monkeypatch.setattr(stabforce.simulate, "disagreeing_levels", counting)
    rng = random.Random(62)
    patterns = [pattern_p2, pattern_p3] + [random_pattern(rng, n, adjacent_only=True)
                                           for n in (3, 6, 10)]
    checked = 0
    for pattern in patterns:
        try:
            r = run_construction(pattern)
        except TargetNotReachableError:
            continue
        calls.clear()
        assert check_requirements(r, pattern).passed
        assert len(calls) == len(r.trace) - 1
        checked += 1
    assert checked >= 3


# -- requirement checks ------------------------------------------------------------


def test_check_requirements_pass(pattern_p1, pattern_p2, pattern_p3):
    for pat in (pattern_p1, pattern_p2, pattern_p3):
        r = run_construction(pat)
        rep = check_requirements(r, pat)
        assert rep.passed, [str(v) for v in rep.violations]


def test_check_requirements_r4_witness(pattern_p2):
    r = run_construction(pattern_p2)
    assert lt_k(r.g, 1, O("w*6"), O("w*7"))


def test_check_requirements_detects_tamper(pattern_p2):
    r = run_construction(pattern_p2)
    tampered = dataclasses.replace(
        r, per_point=tuple(
            dataclasses.replace(o, gamma=O("0")) if o.pos == O("w*20") else o
            for o in r.per_point))
    rep = check_requirements(tampered, pattern_p2)
    assert not rep.passed
    assert "R2" in [v.check for v in rep.violations]


def test_check_requirements_detects_stray_zero_exception(pattern_p3):
    # a stray value-0 exception below the point's level must trip R3 even
    # though the ordinal 0 is falsy
    r = run_construction(pattern_p3)
    stray = StabilitySystem(r.g.bound, {**r.g._as_dict(),
                                        1: {**dict(r.g.entries_at(1)), O("w*6"): O("0")}})
    rep = check_requirements(dataclasses.replace(r, g=stray), pattern_p3)
    assert "R3" in [v.check for v in rep.violations]


def test_check_requirements_reports_a_point_outside_the_pattern(pattern_p1):
    r = run_construction(pattern_p1)
    moved = dataclasses.replace(r.per_point[0], pos=O("w*5"))
    rep = check_requirements(dataclasses.replace(r, per_point=(moved,)), pattern_p1)
    assert [(v.check, v.level, v.subject, v.message) for v in rep.violations] == [
        ("R2", 0, "w*5", "point not in the pattern")]


@pytest.mark.parametrize("alpha", ["w*6", "1"])
def test_check_requirements_reports_both_r4_clauses(pattern_p1, alpha):
    """An alpha at or below the point is not above it in the level-1 order,
    and neither w*6 (pinned at level 1) nor 1 is a level-1 limit."""
    r = run_construction(pattern_p1)
    o = r.per_point[0]
    assert (o.pos, o.ell, o.alpha) == (O("w*6"), 1, O("w*7"))
    moved = dataclasses.replace(o, alpha=O(alpha))
    rep = check_requirements(dataclasses.replace(r, per_point=(moved,)), pattern_p1)
    assert [(v.check, v.level, v.subject, v.message) for v in rep.violations] == [
        ("R4", 1, "w*6", f"point not below {alpha} in its level order"),
        ("R4", 2, "w*6", f"{alpha} not in the next level's domain")]


def test_check_requirements_detects_trace_rewrite(pattern_p1):
    r = run_construction(pattern_p1)
    rewritten = StabilitySystem(r.g.bound, {1: {O("w*6"): O("1")}, 2: {O("w*7"): O("0")}})
    tampered = dataclasses.replace(
        r, trace=r.trace[:-1] + (dataclasses.replace(r.trace[-1], system=rewritten),))
    rep = check_requirements(tampered, pattern_p1)
    assert "R1" in [v.check for v in rep.violations]


def test_r1_report_on_a_hand_built_rewriting_trace(pattern_p2):
    r = run_construction(pattern_p2)

    def system(bound, levels):
        return StabilitySystem(O(bound), {k: {O(g): O(v) for g, v in entries.items()}
                                          for k, entries in levels.items()})

    s1 = system("w*3+1", {1: {"w": "0", "w*2": "5"}, 2: {"w*3": "1"}})
    s2 = system("w*5+1", {1: {"w": "0", "w*2": "6", "w*4": "0"}, 3: {"w*2": "0"}})
    s3 = system("w*4+1", {1: {"w": "0"}})
    s4 = s2.with_bound(O("w*7+1")).with_exception(4, O("w*6"), O("0"))
    s5 = system("w*9+1", {2: {"w*8": "1"}, 5: {"w*3": "w*3+1"}})
    trace = (TraceStep("start", r.trace[0].system, None), TraceStep("a", s1, None),
             TraceStep("b", s2, 1), TraceStep("c", s3, None), TraceStep("d", s4, 2),
             TraceStep("e", s5, 1))
    rep = check_requirements(dataclasses.replace(r, trace=trace), pattern_p2)
    r1 = [(v.level, v.subject, v.message) for v in rep.violations if v.check == "R1"]
    rewrites = "trace step rewrites exceptions below the previous bound"
    assert r1 == [
        (1, "w*5", rewrites),
        (2, "w*5", rewrites),
        (3, "w*5", rewrites),
        (1, "w*5", "trace step is not a verified extension"),
        (0, "w*4", "bounds must be non-decreasing along the trace"),
        (1, "w*7", rewrites),
        (3, "w*7", rewrites),
        (2, "w*7", "trace step is not a verified extension"),
        (1, "w*9", rewrites),
        (3, "w*9", rewrites),
        (4, "w*9", rewrites),
        (5, "w*9", rewrites),
        (1, "w*9", "trace step is not a verified extension"),
    ]


# -- stable-pair ordering (eligible pairs) -------------------------------------------


def test_check_stable_pairs_examples(pattern_p1, pattern_p2, pattern_p3):
    r1 = run_construction(pattern_p1)
    assert check_stable_pairs(r1, pattern_p1).passed  # no pairs: vacuous

    r2 = run_construction(pattern_p2)
    assert check_stable_pairs(r2, pattern_p2).passed
    assert le_k(r2.g, 1, O("w*6"), O("w*7")) and lt_k(r2.g, 1, O("w*7"), O("w*20"))

    r3 = run_construction(pattern_p3)
    assert check_stable_pairs(r3, pattern_p3).passed
    assert le_k(r3.g, 2, O("w*6"), O("w*7")) and lt_k(r3.g, 2, O("w*7"), O("w*20"))


def test_check_stable_pairs_detects_violation(pattern_p2):
    r = run_construction(pattern_p2)
    # claim a higher degree than was constructed for: level 2 fails
    stronger = make_pattern([("w*6", True, [1]), ("w*20", True, [])],
                            [("w*6", "w*20", 2)])
    rep = check_stable_pairs(r, stronger)
    assert not rep.passed


@pytest.mark.parametrize("flags", [[], [1]])
def test_check_stable_pairs_level_three_needs_flag_one(flags):
    # above level 2 a pair is checked only where the later point carries the
    # cofinality flag k - 2; a level-3 failure is reported only with flag 1
    pattern = make_pattern([("w*6", True, [1, 2]), ("w*20", True, flags)],
                           [("w*6", "w*20", 3)])
    r = run_construction(pattern)
    assert check_stable_pairs(r, pattern).passed
    tampered = dataclasses.replace(r, g=r.g.with_exception(3, O("w*7"), O("0")))
    assert not le_k(tampered.g, 3, O("w*6"), O("w*7"))
    rep = check_stable_pairs(tampered, pattern)
    assert [(v.check, v.level, v.message) for v in rep.violations] == (
        [("pair-order", 3, "w*6 not at-or-below w*7")] if flags else [])


# -- minimality analogue ---------------------------------------------------------------


GRID = ["1", "5", "w", "w*6", "w*6+3", "w*8", "w*19", "w*20+1"]


def test_minimality_p3_blocked(pattern_p3):
    r = run_construction(pattern_p3)
    rep = minimality_report(r, [O(t) for t in GRID])
    assert rep.survivors == ()
    blocked = {str(f.alpha): f.blocked_at for f in rep.fates}
    assert blocked["w*6"] == (3, O("w*7"), O("0"))
    assert blocked["w*8"] == (1, O("w*20"), O("w*7"))
    assert all(w is not None for w in blocked.values())


def test_minimality_p3_survivors(pattern_p3):
    r = run_construction(pattern_p3)
    rep = minimality_report(r, [O(t) for t in GRID] + [O("0"), O("w*7")])
    assert [str(a) for a in rep.survivors] == ["0", "w*7"]


def test_minimality_p1_unsettled(pattern_p1):
    r = run_construction(pattern_p1)
    rep = minimality_report(r, [O("w*8")])
    fate = rep.fates[0]
    assert fate.blocked_at is None and not fate.settled
    assert rep.survivors == ()


def test_minimality_antimonotone_p2_p3(pattern_p2, pattern_p3):
    grid = [O(t) for t in GRID] + [O("0"), O("w*7"), O("w*21")]
    s2 = set(minimality_report(run_construction(pattern_p2), grid).survivors)
    s3 = set(minimality_report(run_construction(pattern_p3), grid).survivors)
    assert s3 <= s2  # deepening the pattern never unblocks a settled point


def sets_survivors(result, rep):
    """The survivors as ``minimality_report`` read them before the fates: the
    settled grid points in theta's set at the deepest level with keys."""
    ghat = canonical_extend(result.g, rep.theta)
    last = _pred(ghat, ghat.levels[-1][0] if ghat.levels else 0, rep.theta)
    return tuple(f.alpha for f in rep.fates if f.settled and last.member(f.alpha))


def test_survivors_read_off_the_fates_match_the_deepest_set():
    """On 300 constructions, with grids that reach above the last key, the
    survivors read off the fates are the settled points in the deepest set."""
    rng = random.Random(43)
    runs = 0
    kinds = set()
    while runs < 300:
        try:
            r = run_construction(random_pattern(rng, rng.randrange(2, 6), runs % 2 == 0))
        except TargetNotReachableError:
            continue
        runs += 1
        top = r.g.top
        grid = list(probe_points(r.g)) + [top + O("w"), top + O("w*2+3")]
        rep = minimality_report(r, grid)
        assert rep.survivors == sets_survivors(r, rep), r.g
        kinds.update((f.settled, f.survives) for f in rep.fates)
    assert {(True, True), (True, False), (False, True)} <= kinds  # grids reach past last_key


def test_blocking_witness_is_first_constraining_key(pattern_p2, pattern_p3):
    pos = [f"w*{6 + 4 * i}" for i in range(8)]
    deep = make_pattern([(x, True, [1] if i % 3 == 0 else []) for i, x in enumerate(pos)],
                        [(pos[i], pos[i + 1], 2 if i % 3 == 0 else 1) for i in range(7)])
    seen = set()
    for pattern in (pattern_p2, pattern_p3, deep):
        r = run_construction(pattern)
        rep = minimality_report(r, probe_points(r.g))
        theta = rep.theta
        ghat = canonical_extend(r.g, theta)
        for fate in rep.fates:
            a = fate.alpha
            if fate.blocked_at is None:
                assert all(lt_k(ghat, k, a, theta) for k in range(1, ghat.depth + 1))
                continue
            k, key, value = fate.blocked_at
            seen.add(k)
            assert not lt_k(ghat, k, a, theta) and (k == 1 or lt_k(ghat, k - 1, a, theta))
            constraining = [g for g, v in ghat.entries_at(k)
                            if a < g <= theta and v < a and dom_f(ghat, k, g)
                            and le_k(ghat, k - 1, g, theta)]
            assert constraining[0] == key and ghat.exception_value(k, key) == value
    assert seen == {1, 2, 3}


# -- JSON --------------------------------------------------------------------------------


def test_pattern_json_roundtrip(pattern_p3):
    d = pattern_to_dict(pattern_p3)
    assert d == {
        "points": [
            {"pos": "w*6", "inC": True, "cofinalLevels": [1]},
            {"pos": "w*20", "inC": True, "cofinalLevels": []},
        ],
        "st": [["w*6", "w*20", 2]],
    }
    assert pattern_from_dict(d) == pattern_p3


def test_result_and_minimality_dicts(pattern_p3):
    r = run_construction(pattern_p3)
    d = result_to_dict(r)
    assert d["system"]["bound"] == "w*21+1"
    assert d["assignments"][0] == {"pos": "w*6", "ell": 2, "gamma": "0", "alpha": "w*7"}
    m = minimality_to_dict(minimality_report(r, [O("w*6"), O("w*7")]))
    statuses = {pt["alpha"]: pt["status"] for pt in m["points"]}
    assert statuses == {"w*6": "blocked", "w*7": "survives"}


@pytest.mark.parametrize("degrees", [(1, 2), (2, 1), (1, 1)])
def test_pair_declared_twice_is_an_a2_violation(degrees):
    d = {"points": [{"pos": "w*6", "inC": True, "cofinalLevels": [1]},
                    {"pos": "w*20", "inC": True, "cofinalLevels": []}],
         "st": [["w*6", "w*20", deg] for deg in degrees]}
    rep = validate_pattern(pattern_from_dict(d))
    assert [(v.check, v.subject, v.message) for v in rep.violations] == \
        [("A2", "(w*6, w*20)", "pair declared more than once")]
    d["st"] = d["st"][:1]
    assert validate_pattern(pattern_from_dict(d)).passed
