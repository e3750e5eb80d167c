"""Replay of the recursive construction against declared stability patterns.

A stability pattern mocks the oracle data the construction consumes: marked
positions with club membership and cofinality flags, plus declared pairwise
stability degrees.  The construction walks the positions in order and grows a
single global stability system: at each point it pins the point's level map to
the alpha-value of its largest declared stable predecessor, then extends to a
fresh chain-limit top recording that same value one level up.  Checkers
machine-verify the bookkeeping, the order relations the construction promises,
and a finite-horizon analogue of the "below infinity" analysis.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .errors import InvalidConditionError
from .ordinal import OMEGA, ZERO, Ordinal, Terms, format_ordinal, parse_ordinal
from .poset import canonical_extend, extend_to_chain_limit, extend_with_top_exception, extends
from .stability import (
    CheckReport,
    StabilitySystem,
    Violation,
    _blocking_witness,
    _json_field,
    _json_object,
    _json_ordinal,
    _json_typed,
    _pred,
    disagreeing_levels,
    dom_f,
    f_eval,
    le_k,
    lt_k,
    system_to_dict,
)

@dataclass(frozen=True)
class PatternPoint:
    pos: Ordinal
    in_c: bool
    cofinal_levels: frozenset[int]


@dataclass(frozen=True)
class StabilityPattern:
    """Declared mock of the stability data: points plus pairwise degrees.

    ``st`` maps an ordered position pair (i, j), i < j, to the maximal
    declared stability degree of i in j (absent means 0: unrelated).  The
    axiom report and the assignments are derived once per pattern and kept
    on it, as the degree table is; they take no part in equality.
    """

    points: tuple[PatternPoint, ...]
    st: tuple[tuple[Ordinal, Ordinal, int], ...]

    def degree(self, i: Ordinal, j: Ordinal) -> int:
        return self._degrees.get((i.terms, j.terms), 0)

    @cached_property
    def _degrees(self) -> dict[tuple[Terms, Terms], int]:
        # keyed by CNF terms, whose hash is a C call; reversed, so the first
        # entry for a pair wins
        return {(a.terms, b.terms): d for a, b, d in reversed(self.st)}

    @cached_property
    def _axioms(self) -> CheckReport:
        return _check_axioms(self)

    @cached_property
    def _assignments(self) -> Mapping[Ordinal, "Assignment"]:
        return MappingProxyType(_derive_assignments(self))


def make_pattern(points: Iterable[tuple[str, bool, Iterable[int]]],
                 st: Iterable[tuple[str, str, int]] = ()) -> StabilityPattern:
    """Convenience builder from ordinal literals."""
    pts = tuple(PatternPoint(parse_ordinal(pos), in_c, frozenset(levels))
                for pos, in_c, levels in points)
    rel = tuple(sorted(((parse_ordinal(a), parse_ordinal(b), int(d)) for a, b, d in st),
                       key=lambda t: (t[0].terms, t[1].terms)))
    return StabilityPattern(points=pts, st=rel)


def validate_pattern(pattern: StabilityPattern) -> CheckReport:
    """Check the pattern axioms A1-A4; computed once per pattern.

    A1 positions ascend, sit in Lim minus Lim2 (last CNF exponent 1) and keep
    gaps of at least w*2; A2 each pair declared once, with a degree >= 1, and
    degree coherence across intermediate points; A3 cofinality flags downward
    closed; A4 a declared degree of a club point is bounded by the level its
    cofinality flags force.
    """
    return pattern._axioms


def _check_axioms(pattern: StabilityPattern) -> CheckReport:
    violations: list[Violation] = []
    pts = pattern.points
    # keyed and compared by CNF terms, in plain tuple order: no Python call
    positions = {pt.pos.terms: pt for pt in reversed(pts)}  # the first point at a position wins
    for pt in pts:
        if not (pt.pos.is_limit and not pt.pos.is_lim2):
            violations.append(Violation("A1", 0, format_ordinal(pt.pos),
                                        "position must be a limit with last exponent 1"))
        for lvl in pt.cofinal_levels:
            if lvl < 1:
                violations.append(Violation("A3", lvl, format_ordinal(pt.pos),
                                            "cofinal levels must be >= 1"))
    for a, b in zip(pts, pts[1:]):
        t, u = a.pos.terms, b.pos.terms
        if not t < u:
            violations.append(Violation("A1", 0, format_ordinal(b.pos),
                                        "positions must strictly increase"))
        # a + w*2 keeps a's terms above w and adds 2 to its coefficient of w
        elif (*[x for x in t if x[0] > 1], (1, next((c for e, c in t if e == 1), 0) + 2)) > u:
            violations.append(Violation("A1", 0, format_ordinal(b.pos),
                                        f"gap below {a.pos} is smaller than w*2"))
    declared: set[tuple[Terms, Terms]] = set()
    for i, j, d in pattern.st:
        pair = (i.terms, j.terms)
        if d < 1:
            violations.append(Violation("A2", 0, f"({i}, {j})",
                                        "declared degrees must be >= 1"))
        if pair[0] not in positions or pair[1] not in positions or not pair[0] < pair[1]:
            violations.append(Violation("A2", 0, f"({i}, {j})",
                                        "degree must relate two listed positions in order"))
        if pair in declared:
            violations.append(Violation("A2", 0, f"({i}, {j})",
                                        "pair declared more than once"))
        declared.add(pair)
    # coherence: st(i,j) >= k+1 and st(j',j) >= k with i < j' force st(i,j') >= k+1
    for i, j, dij in pattern.st:
        for pt in pts:
            jp = pt.pos
            if not (i.terms < jp.terms < j.terms):
                continue
            djj = pattern.degree(jp, j)
            k_max = min(dij - 1, djj)
            if k_max >= 1 and pattern.degree(i, jp) < k_max + 1:
                violations.append(Violation(
                    "A2", k_max, f"({i}, {jp}, {j})",
                    f"coherence forces degree >= {k_max + 1} on ({i}, {jp})"))
    for pt in pts:
        # a finite flag set F is {1..|F|} exactly when its least unflagged level exceeds |F|
        if _least_unflagged(pt) <= len(pt.cofinal_levels):
            violations.append(Violation("A3", 0, format_ordinal(pt.pos),
                                        "cofinal levels must be downward closed"))
    for i, j, d in pattern.st:
        pt = positions.get(i.terms)
        if pt is not None and pt.in_c and _least_unflagged(pt) < d:
            violations.append(Violation(
                "A4", d, f"({i}, {j})",
                f"degree {d} of a club point needs cofinality flags up to {d - 1}"))
    return CheckReport(name="pattern axioms", violations=tuple(violations))


def _least_unflagged(pt: PatternPoint) -> int:
    ell = 1
    while ell in pt.cofinal_levels:
        ell += 1
    return ell


@dataclass(frozen=True)
class Assignment:
    """Derived per-point data: the working level and the stable sups per level."""

    ell: int
    sup_stable: Mapping[int, Ordinal]  # level -> position of largest stable club pt, or 0


def derive_assignments(pattern: StabilityPattern) -> Mapping[Ordinal, Assignment]:
    """Per point: the least unflagged level, and for each level up to one past
    it the largest earlier club position of at least that declared degree
    (the ordinal 0 standing in for "none").  Computed once per pattern; the
    mapping is read-only."""
    return pattern._assignments


def _derive_assignments(pattern: StabilityPattern) -> dict[Ordinal, Assignment]:
    out: dict[Ordinal, Assignment] = {}
    for pt in pattern.points:
        ell = _least_unflagged(pt)
        sup = dict.fromkeys(range(1, ell + 2), ZERO)
        for prev in pattern.points:
            if not prev.pos.terms < pt.pos.terms:
                break
            if prev.in_c:  # the last club point of degree >= level wins each level
                for level in range(1, min(pattern.degree(prev.pos, pt.pos), ell + 1) + 1):
                    sup[level] = prev.pos
        out[pt.pos] = Assignment(ell=ell, sup_stable=sup)
    return out


@dataclass(frozen=True)
class TraceStep:
    label: str
    system: StabilitySystem
    level: int | None  # extension level verified against the previous step


@dataclass(frozen=True)
class PointOutcome:
    pos: Ordinal
    ell: int
    gamma: Ordinal
    alpha: Ordinal


@dataclass(frozen=True)
class SimulationResult:
    g: StabilitySystem
    per_point: tuple[PointOutcome, ...]
    trace: tuple[TraceStep, ...]

    def outcome_at(self, pos: Ordinal) -> PointOutcome:
        if (o := self._outcomes.get(pos.terms)) is None:
            raise KeyError(str(pos))
        return o

    @cached_property
    def _outcomes(self) -> dict[Terms, PointOutcome]:
        # reversed, so the first outcome at a position wins
        return {o.pos.terms: o for o in reversed(self.per_point)}


def run_construction(pattern: StabilityPattern) -> SimulationResult:
    """Grow the single global system through the pattern's points in order.

    At each point: extend canonically to the position and pin its level-ell
    map to gamma (the alpha-value of the largest declared stable club
    predecessor at level ell, 0 for none); then extend to the fresh chain
    limit one w above, recording the same value one level up.  Each new
    system is validated by ``extend_with_top_exception``.  The pin step
    extends g at level ell as the chain step does one level up (proof at
    ``extend_to_chain_limit``), so R1 is the one extension check here.
    """
    report = validate_pattern(pattern)
    if not report.passed:
        raise InvalidConditionError(
            "pattern fails validation: " + "; ".join(str(v) for v in report.violations))
    assignments = derive_assignments(pattern)
    g = StabilitySystem(Ordinal.from_int(1))
    trace: list[TraceStep] = [TraceStep("start", g, None)]
    alpha_of: dict[Ordinal, Ordinal] = {ZERO: ZERO}
    outcomes: list[PointOutcome] = []
    for pt in pattern.points:
        a = assignments[pt.pos]
        gamma = alpha_of[a.sup_stable[a.ell]]
        g1 = extend_with_top_exception(g, pt.pos, a.ell, gamma)
        trace.append(TraceStep(f"pin level {a.ell} at {pt.pos} to {gamma}", g1, a.ell))
        g2 = extend_to_chain_limit(g1, a.ell, gamma)
        alpha = g2.top
        trace.append(TraceStep(
            f"chain limit {alpha}: level {a.ell + 1} value {gamma}", g2, a.ell + 1))
        alpha_of[pt.pos] = alpha
        outcomes.append(PointOutcome(pos=pt.pos, ell=a.ell, gamma=gamma, alpha=alpha))
        g = g2
    return SimulationResult(g=g, per_point=tuple(outcomes), trace=tuple(trace))


def check_requirements(result: SimulationResult, pattern: StabilityPattern) -> CheckReport:
    """Machine-check the construction's four bookkeeping promises.

    R1 the trace never rewrites earlier exceptions (single coherent system);
    R2 the recorded levels and gammas match the derived assignments; R3 the
    point carries no exception below its level and its level map hits gamma;
    R4 the point sits below its alpha in its level order, alpha is in the next
    level's domain, and the next level's value there is the recorded gamma.
    """
    violations: list[Violation] = []
    g = result.g
    for prev, nxt in zip(result.trace, result.trace[1:]):
        if nxt.level is not None and extends(nxt.system, prev.system, nxt.level):
            continue  # so the bound grows and no level disagrees
        if not nxt.system.bound >= prev.system.bound:
            violations.append(Violation("R1", 0, format_ordinal(nxt.system.top),
                                        "bounds must be non-decreasing along the trace"))
            continue
        for k in disagreeing_levels(nxt.system, prev.system, prev.system.bound):
            violations.append(Violation(
                "R1", k, format_ordinal(nxt.system.top),
                "trace step rewrites exceptions below the previous bound"))
        if nxt.level is not None:
            violations.append(Violation("R1", nxt.level, format_ordinal(nxt.system.top),
                                        "trace step is not a verified extension"))
    assignments = derive_assignments(pattern)
    alpha_of: dict[Ordinal, Ordinal] = {ZERO: ZERO}
    for o in result.per_point:
        alpha_of[o.pos] = o.alpha
    for o in result.per_point:
        a = assignments.get(o.pos)
        subject = format_ordinal(o.pos)
        if a is None:
            violations.append(Violation("R2", 0, subject, "point not in the pattern"))
            continue
        expect_gamma = alpha_of.get(a.sup_stable[a.ell], None)
        if o.ell != a.ell or expect_gamma is None or o.gamma != expect_gamma:
            violations.append(Violation("R2", a.ell, subject,
                                        f"recorded (ell, gamma) = ({o.ell}, {o.gamma}) "
                                        f"differ from derived ({a.ell}, {expect_gamma})"))
        for k in range(1, o.ell):
            stray = g.exception_value(k, o.pos)
            if stray is not None:
                violations.append(Violation("R3", k, subject,
                                            f"unexpected exception {stray} below the point's level"))
        if f_eval(g, o.ell, o.pos) != o.gamma:
            violations.append(Violation("R3", o.ell, subject,
                                        f"level-{o.ell} value at the point is not {o.gamma}"))
        if not lt_k(g, o.ell, o.pos, o.alpha):
            violations.append(Violation("R4", o.ell, subject,
                                        f"point not below {o.alpha} in its level order"))
        if not dom_f(g, o.ell + 1, o.alpha):
            violations.append(Violation("R4", o.ell + 1, subject,
                                        f"{o.alpha} not in the next level's domain"))
        elif f_eval(g, o.ell + 1, o.alpha) != o.gamma:
            violations.append(Violation("R4", o.ell + 1, subject,
                                        f"next-level value at {o.alpha} is not {o.gamma}"))
    return CheckReport(name="construction requirements", violations=tuple(violations))


def check_stable_pairs(result: SimulationResult, pattern: StabilityPattern) -> CheckReport:
    """For every eligible pair i < j and level k up to the declared degree:
    the earlier point sits at-or-below its alpha, and that alpha sits strictly
    below the later point, both in the level-k order.

    A pair is eligible at k when the earlier point is in the club and either
    k <= 2 or the later point carries the cofinality flag k - 2.
    """
    violations: list[Violation] = []
    g = result.g
    for ii, pi in enumerate(pattern.points):
        for pj in pattern.points[ii + 1:]:
            degree = pattern.degree(pi.pos, pj.pos)
            if degree < 1 or not pi.in_c:
                continue
            oi = result.outcome_at(pi.pos)
            for k in range(1, degree + 1):
                if k > 2 and (k - 2) not in pj.cofinal_levels:
                    continue
                subject = f"({pi.pos}, {pj.pos})"
                if not le_k(g, k, pi.pos, oi.alpha):
                    violations.append(Violation("pair-order", k, subject,
                                                f"{pi.pos} not at-or-below {oi.alpha}"))
                if not lt_k(g, k, oi.alpha, pj.pos):
                    violations.append(Violation("pair-order", k, subject,
                                                f"{oi.alpha} not strictly below {pj.pos}"))
    return CheckReport(name="stable-pair ordering", violations=tuple(violations))


# -- finite-horizon minimality analogue -----------------------------------------


@dataclass(frozen=True)
class PointFate:
    alpha: Ordinal
    settled: bool
    blocked_at: tuple[int, Ordinal, Ordinal] | None  # (level, key, value)

    @property
    def survives(self) -> bool:
        return self.blocked_at is None


@dataclass(frozen=True)
class MinimalityReport:
    theta: Ordinal
    last_key: Ordinal | None
    fates: tuple[PointFate, ...]
    survivors: tuple[Ordinal, ...]


def minimality_report(result: SimulationResult, grid: Iterable[Ordinal]) -> MinimalityReport:
    """Evaluate the "below infinity" analogue at a fresh top above the system.

    Theta is the first fresh limit above the final top and the grid, and the
    system is extended canonically to it.  A grid point survives level k when
    it sits below theta in the level-k order, that is, when it is in
    ``P_k(theta)``, the level-k predecessor set of theta.  One set per level
    with keys decides every point, as a level without keys keeps the set
    below it.  A point's blocking level is the least k whose set misses it,
    and the blocking witness is the least key that kills it there.  The sets
    are nested and ``sets[0]`` is [0, theta), which holds the whole grid, so
    a point has no blocking level exactly when it is in ``sets[-1]``: the
    survivors are read off the fates.  They are reported only within the
    settled region (at most the last exception key): the canonical tail
    above the keys cannot be blocked by a finite truncation, so survival out
    there carries no information.
    """
    g = result.g
    pts = sorted(set(grid), key=lambda a: a.terms)
    roof = max([g.top] + pts, key=lambda a: a.terms)
    theta = roof + OMEGA
    ghat = canonical_extend(g, theta)
    last_key = g.max_key()
    levels = [0] + [k for k, _ in ghat.levels]  # a set changes only at a key level
    sets = [_pred(ghat, k, theta) for k in levels]
    fates: list[PointFate] = []
    for alpha in pts:
        i = next((i for i in range(1, len(sets)) if not sets[i].member(alpha)), None)
        blocked = None if i is None else _blocking_witness(ghat, levels[i], alpha, sets[i - 1])
        settled = last_key is not None and alpha <= last_key
        fates.append(PointFate(alpha=alpha, settled=settled, blocked_at=blocked))
    survivors = tuple(f.alpha for f in fates if f.settled and f.survives)
    return MinimalityReport(theta=theta, last_key=last_key,
                            fates=tuple(fates), survivors=survivors)


# -- JSON ------------------------------------------------------------------------


def pattern_to_dict(pattern: StabilityPattern) -> dict:
    return {
        "points": [{"pos": format_ordinal(pt.pos), "inC": pt.in_c,
                    "cofinalLevels": sorted(pt.cofinal_levels)}
                   for pt in pattern.points],
        "st": [[format_ordinal(a), format_ordinal(b), d] for a, b, d in pattern.st],
    }


def pattern_from_dict(d: Mapping) -> StabilityPattern:
    _json_object(d, "pattern", ("points", "st"))
    points = []
    for index, entry in enumerate(_json_typed(d.get("points", []), "pattern 'points'", list)):
        _json_object(entry, "each pattern point", ("pos", "inC", "cofinalLevels"), "point")
        pos = _json_field(entry, f"pattern point {index}", "pos")
        in_c = _json_typed(_json_field(entry, f"pattern point {index}", "inC"), "point 'inC'", bool)
        levels = _json_typed(entry.get("cofinalLevels", []), "point 'cofinalLevels'", list)
        points.append(PatternPoint(pos=_json_ordinal(pos, "point 'pos'"), in_c=in_c,
                                   cofinal_levels=frozenset(_json_typed(x, "cofinal level", int)
                                                            for x in levels)))
    st = []
    for rel in _json_typed(d.get("st", []), "pattern 'st'", list):
        if not (isinstance(rel, (list, tuple)) and len(rel) == 3):
            raise ValueError("each 'st' entry must be a list [position, position, degree]")
        a, b, deg = rel
        st.append((_json_ordinal(a, "'st' position"), _json_ordinal(b, "'st' position"),
                   _json_typed(deg, "degree", int)))
    st.sort(key=lambda t: (t[0].terms, t[1].terms))
    return StabilityPattern(points=tuple(points), st=tuple(st))


def result_to_dict(result: SimulationResult) -> dict:
    return result_payload(result, system_to_dict)


def result_payload(result: SimulationResult, system=lambda p: p) -> dict:
    """The layout of a ``simulate`` result, each system as ``system(p)``: the
    system itself for ``stability._json_text``, its dict for ``result_to_dict``."""
    return {
        "system": system(result.g),
        "assignments": [{"pos": format_ordinal(o.pos), "ell": o.ell,
                         "gamma": format_ordinal(o.gamma),
                         "alpha": format_ordinal(o.alpha)}
                        for o in result.per_point],
        "trace": [{"label": step.label, "level": step.level, "system": system(step.system)}
                  for step in result.trace],
    }


def minimality_to_dict(report: MinimalityReport) -> dict:
    return {
        "theta": format_ordinal(report.theta),
        "settledThrough": format_ordinal(report.last_key) if report.last_key else None,
        "points": [{
            "alpha": format_ordinal(f.alpha),
            "status": ("blocked" if f.blocked_at else
                       ("survives" if f.settled else "unsettled")),
            "blockedAt": ({"level": f.blocked_at[0],
                           "key": format_ordinal(f.blocked_at[1]),
                           "value": format_ordinal(f.blocked_at[2])}
                          if f.blocked_at else None),
        } for f in report.fates],
        "survivors": [format_ordinal(a) for a in report.survivors],
    }
