"""Successor rows and the degree table against the code they replaced.

``stability._grow`` reads the row of a successor a + 1 of zero or a limit
off a's row, as ``P_j(a) u [a, a + 1)``, and only a limit looks for a stored
row to adopt.  ``GeneralStep`` is the kernel as it was before: every point,
successors included, takes one ``_step`` per key level, and every first
query scans the compiled levels for a stored row.  It runs on a link-free
copy of each system, with a memo of its own, so nothing the kernel under
test grows is read by it.  Queries come in ascending and then, on freshly
built systems, in descending order, so that successors are asked both
before and after their predecessors.

``StabilityPattern.degree`` looks pairs up by CNF terms; the old table was
keyed by ``Ordinal`` pairs, and is rebuilt here for comparison.
"""

import random
from bisect import bisect_left, bisect_right

from stabforce import (
    IntervalSet,
    StabilitySystem,
    Violation,
    check_predecessor_laws,
    is_k_lim2,
    is_k_limit,
    lt_k,
    pred_set,
    probe_points,
    validate,
)
from stabforce import stability
from stabforce.gen import random_system
from stabforce.oracle import BruteEvaluator
from stabforce.ordinal import ONE, ZERO, Ordinal
from stabforce.ordinal import parse_ordinal as O
from stabforce.simulate import PatternPoint, StabilityPattern, run_construction, validate_pattern
from stabforce.stability import _compiled
from test_stability import _chain_pattern, predecessor_law_systems, scan_predecessor_laws


class GeneralStep:
    """``_pred``, ``_grow`` and ``_step`` as they were before successor rows,
    on a cold link-free copy of p: every point takes the general step."""

    def __init__(self, p: StabilitySystem):
        q = StabilitySystem(p.bound, p._as_dict())
        self.levels = _compiled(q)
        self.ks = [k for k, _ in q.levels]
        self.memo: dict = {}

    def pred(self, k: int, beta: Ordinal) -> IntervalSet:
        r = bisect_right(self.ks, k)
        if not r:
            return IntervalSet.of((ZERO, beta))
        row = self.memo.get(beta.terms)
        if row is not None and (s := row.get(self.ks[r - 1])) is not None:
            return s
        return self.grow(r, beta, row)

    def grow(self, r: int, beta: Ordinal, row: dict | None) -> IntervalSet:
        t = beta.terms
        if row is None:
            row = {}
            for _, terms, rows, _ in reversed(self.levels.values()):
                i = bisect_left(terms, t)
                if i < len(terms) and terms[i] == t and rows[i] is not None:
                    row = rows[i]
                    break
            self.memo[t] = row
        below = None
        for j, (entries, terms, rows, _) in list(self.levels.items())[:r]:
            if (s := row.get(j)) is None:
                s = row[j] = self.step(entries, rows, j, bisect_left(terms, t),
                                       IntervalSet.of((ZERO, beta)) if below is None else below,
                                       beta)
            below = s
        return below

    @staticmethod
    def step(entries, rows, j, i, below, cap):
        for i in range(i - 1, -1, -1):
            if rows[i] is not None and below.member(entries[i][0]):
                head = rows[i][j]
                if head.highs and cap.terms < head.highs[-1]:
                    return head.cut(ZERO, cap)
                tail = below.cut(entries[i][0], cap)
                return IntervalSet._ends(head.lows + tail.lows, head.highs + tail.highs)
        if not below.highs or below.highs[-1] <= cap.terms:
            return below
        return below.cut(ZERO, cap)


def query_points(p: StabilitySystem) -> list[Ordinal]:
    """0, 1, every key and value, and their successors x + 1 and x + 2,
    below the bound, ascending: x + 2 takes the general step."""
    pts = {ZERO, ONE}
    for _, entries in p.levels:
        for g, v in entries:
            pts.update((g, v, g + ONE, v + ONE, g + O("2"), v + O("2")))
    return sorted((x for x in pts if x < p.bound), key=lambda x: x.terms)


def assert_matches_general_step(p, points, descending=False):
    """Every set, and the lt_k answers into every tested point, at levels 1
    to depth + 1, equal the general step's; returns the successors asked."""
    ref = GeneralStep(p)
    order = points[::-1] if descending else points
    levels = range(1, p.depth + 2)
    for b in order:
        for k in levels:
            want = ref.pred(k, b)
            assert pred_set(p, k, b) == want, (p, k, b)
            assert is_k_limit(p, k, b) == (bool(want.highs) and want.highs[-1][-1][0] >= 1)
    for k in levels:
        for b in order[::3]:
            want = ref.pred(k, b)
            assert [lt_k(p, k, a, b) for a in order] == [
                a < b and want.member(a) for a in order], (p, k, b)
    return sum(1 for b in points if b.terms and b.terms[-1] == (0, 1))


def test_kernel_matches_general_step_on_random_invalid_raw_and_linked_systems():
    succ = 0
    for descending in (False, True):
        for p in predecessor_law_systems(random.Random(41)):
            succ += assert_matches_general_step(p, query_points(p), descending)
    assert succ > 10_000


def test_kernel_matches_general_step_on_constructions():
    for n in (10, 20, 40):  # 20, 40 and 80 keys
        for descending in (False, True):
            result = run_construction(_chain_pattern(n))
            g = result.g
            assert g.exception_count() == 2 * n
            mid = result.trace[len(result.trace) // 2].system
            # the output and a trace system, both linked and warm, and a cold copy
            for p in (g, mid, StabilitySystem(g.bound, g._as_dict())):
                assert_matches_general_step(p, query_points(p), descending)


def test_a_first_query_at_a_key_reads_the_row_the_compile_pass_stored(monkeypatch):
    """A fresh system's first query at one of its own keys runs the compile
    pass, which puts the key's row in the memo.  The query reads that row, so
    it bisects no more than compiling first and querying after does; looking
    for a stored row would bisect the compiled levels again."""
    calls = []

    def bisect(*args, **kw):
        calls.append(args)
        return bisect_left(*args, **kw)

    def bisections(query):
        calls.clear()
        query()
        return len(calls)

    monkeypatch.setattr(stability, "bisect_left", bisect)
    g = run_construction(_chain_pattern(6)).g
    keys = [(j, key) for j, entries in g.levels for key, _ in entries]
    assert len({j for j, _ in keys}) == 3
    for j, key in keys:
        compiled_first, cold = (StabilitySystem(g.bound, g._as_dict()) for _ in range(2))
        first = bisections(lambda: _compiled(compiled_first))
        first += bisections(lambda: pred_set(compiled_first, j, key))
        assert bisections(lambda: pred_set(cold, j, key)) == first, (j, key)
        assert pred_set(cold, j, key) == pred_set(compiled_first, j, key)


def test_kernel_matches_the_enumerator_at_successors():
    rng = random.Random(19)
    checked = 0
    for i in range(120):
        p = random_system(rng, small=True)
        ev = BruteEvaluator(p)
        pts = probe_points(p, extra=[x + ONE for x in ev.limits if x + ONE < p.bound])
        for k in range(1, p.depth + 2):
            for b in (pts if i % 2 else pts[::-1]):
                assert pred_set(p, k, b) == ev.pred_set(k, b), (p, k, b)
                assert is_k_lim2(p, k, b) == ev.is_k_lim2(k, b)
                checked += b.terms[-1:] == ((0, 1),)
    assert checked > 1000


def test_successor_rows_wait_for_the_compile_pass():
    """A successor key compiled at level 2 must not give its predecessor, an
    old key whose stored row sits at level 3 of the base, a fresh row before
    level 3 is compiled: that row would never adopt the stored one."""
    base = StabilitySystem(O("w^2+w+1"), {1: {O("w*2"): O("5")}, 3: {O("w^2+w"): O("3")}})
    p = base.with_bound(O("w^2+w*2+1")).with_exception(2, O("w^2+w+1"), O("0"))
    assert p._base is base
    validate(p)  # compiled before w^2+w is first asked for
    assert str(pred_set(p, 3, O("w^2+w"))) == "[0, 4)"
    assert str(pred_set(p, 3, O("w^2+w+1"))) == "[0, 4) u [w^2+w, w^2+w+1)"
    assert check_predecessor_laws(p, 3) == scan_predecessor_laws(p, 3)


def test_no_step_for_a_successor_of_zero_or_a_limit(monkeypatch):
    g = run_construction(_chain_pattern(20)).g
    p = StabilitySystem(g.bound, g._as_dict())
    validate(p)  # the compile pass steps every key, successors included
    caps = []
    step = stability._step

    def counted(terms, rows, j, i, below, c):
        caps.append(c)
        return step(terms, rows, j, i, below, c)

    monkeypatch.setattr(stability, "_step", counted)
    pts = probe_points(p)
    for b in pts:
        for k in range(1, p.depth + 2):
            pred_set(p, k, b)
    assert sum(1 for b in pts if b.terms[-1:] == ((0, 1),)) > 20
    assert caps and not [c for c in caps if c[-1:] == ((0, 1),)]


def random_pattern(rng):
    """Up to 8 points at w*m and up to 12 degree entries drawn from a small
    pool of pairs, so that pairs repeat with different degrees; some pairs
    are out of order or name no point."""
    ms = sorted(rng.sample(range(1, 40), rng.randrange(2, 9)))
    points = tuple(PatternPoint(Ordinal(((1, m),)), rng.random() < 0.6,
                                frozenset(range(1, rng.randrange(1, 4)))) for m in ms)
    pos = [pt.pos for pt in points] + [O("w*41")]
    pool = [(rng.choice(pos), rng.choice(pos)) for _ in range(6)]
    st = tuple((a, b, rng.randrange(0, 4)) for a, b in
               (rng.choice(pool) for _ in range(rng.randrange(1, 13))))
    return StabilityPattern(points=points, st=st)


def test_degree_matches_the_ordinal_keyed_table():
    rng = random.Random(3)
    repeated = coherence = 0
    for _ in range(200):
        pattern = random_pattern(rng)
        table = {(a, b): d for a, b, d in reversed(pattern.st)}  # the first entry wins
        repeated += len(table) < len(pattern.st)
        pos = [pt.pos for pt in pattern.points] + [O("w*41"), O("w*41+1")]
        for i in pos:
            for j in pos:
                assert pattern.degree(i, j) == table.get((i, j), 0)
        old = []
        for i, j, dij in pattern.st:
            for pt in pattern.points:
                jp = pt.pos
                if i < jp < j:
                    k_max = min(dij - 1, table.get((jp, j), 0))
                    if k_max >= 1 and table.get((i, jp), 0) < k_max + 1:
                        old.append(Violation(
                            "A2", k_max, f"({i}, {jp}, {j})",
                            f"coherence forces degree >= {k_max + 1} on ({i}, {jp})"))
        got = [v for v in validate_pattern(pattern).violations if v.check == "A2" and v.level]
        assert got == old
        coherence += len(old)
    assert repeated > 50 and coherence > 20
