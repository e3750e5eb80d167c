"""The forcing poset of stability systems: membership, extension, limits.

A condition of the poset P(kappa, ell, gamma) is a valid stability system p
with gamma <=_ell top(p) < kappa.  q extends p when q's exception maps agree
with p's below p's bound and top(p) sits below top(q) in q's level-(ell-1)
order.  Canonical extension (all new points default) extends at every level;
targeted extension places a single exception at a fresh chain-limit top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import (
    BadTargetError,
    BudgetExhaustedError,
    InvalidConditionError,
    InvalidIntermediateError,
    NotDescendingError,
    OutOfRangeError,
    TargetNotReachableError,
)
from .ordinal import OMEGA, Ordinal, _brief, format_ordinal
from .stability import (
    StabilitySystem,
    _json_field,
    _json_object,
    _json_ordinal,
    _json_typed,
    _le,
    disagreeing_levels,
    dom_f,
    le_k,
    system_from_dict,
    system_to_dict,
    validate,
)


@dataclass(frozen=True)
class PosetParams:
    """Parameters (kappa, ell, gamma) selecting one forcing poset."""

    kappa: Ordinal
    ell: int
    gamma: Ordinal

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("ell must be >= 1")
        if not self.kappa.is_limit:
            raise ValueError("kappa must be a limit ordinal")
        if not self.gamma < self.kappa:
            raise ValueError("gamma must be below kappa")


def _require_valid(*systems: StabilitySystem) -> None:
    for p in systems:
        if not validate(p).valid:
            raise InvalidConditionError(f"not a valid stability system: {_brief(repr(p))}")


def in_poset(p: StabilitySystem, params: PosetParams) -> bool:
    """Membership test: gamma <=_ell top(p) < kappa."""
    _require_valid(p)
    return p.top < params.kappa and _le(p, params.ell, params.gamma, p.top)


def extends(q: StabilitySystem, p: StabilitySystem, ell: int) -> bool:
    """Does q extend p at level ell?

    Requires (i) bound(q) >= bound(p); (ii) q's exceptions below bound(p)
    coincide with p's (so the finitely presented maps genuinely extend); and
    (iii) top(p) <=_{ell-1} top(q) evaluated in q, where level 0 is plain <=.
    All three clauses are definitional, so the test is decided for arbitrary
    finite presentations without demanding validity first.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if not q.bound >= p.bound:
        return False
    if disagreeing_levels(q, p, p.bound):
        return False
    return le_k(q, ell - 1, p.top, q.top)


def canonical_extend(p: StabilitySystem, alpha: Ordinal) -> StabilitySystem:
    """Extend p to top alpha giving every new limit point its default value.

    The stretch above the old top carries no exceptions, so the result is
    valid and extends p at every level.
    """
    _require_valid(p)
    if not alpha >= p.top:
        raise OutOfRangeError(f"target {_brief(format_ordinal(alpha))} is below the current "
                              f"top {_brief(format_ordinal(p.top))}")
    if alpha == p.top:
        return p
    return p.with_bound(alpha + Ordinal.from_int(1))


def extend_with_top_exception(p: StabilitySystem, alpha: Ordinal, level: int,
                              value: Ordinal) -> StabilitySystem:
    """Extend p canonically to top alpha, then pin the level map there to value.

    alpha must be strictly above the old top, so the new point is reached by a
    fresh default stretch and is a limit point of every level's order; the
    only non-trivial requirement is value <=_level alpha, checked in the
    candidate itself.

    The candidate q is ``canonical_extend(p, alpha).with_exception(level,
    alpha, value)``, made in one derivation: bound alpha + 1, with
    (alpha, value) after every key of its level.  q links straight to p.  p
    is required valid, so V2 puts its keys below its bound, and alpha > top
    gives alpha >= bound.  So q repeats every exception of p below p's
    bound, and p is an end-extension base of q: the one ``_base_at_most``
    returns for the two-step system, whose walk passes the canonical
    extension, as alpha lies below its bound alpha + 1, and stops at p.
    """
    _require_valid(p)
    if not alpha > p.top:
        raise OutOfRangeError(f"new top {_brief(format_ordinal(alpha))} must be strictly "
                              f"above {_brief(format_ordinal(p.top))}")
    if not alpha.is_limit:
        raise OutOfRangeError(f"new top {_brief(format_ordinal(alpha))} must be a limit ordinal")
    q = p._with_top_exception(level, alpha, value)
    if not le_k(q, level, value, alpha):
        raise TargetNotReachableError(
            f"{_brief(format_ordinal(value))} does not sit below "
            f"{_brief(format_ordinal(alpha))} in the level-{level} order")
    report = validate(q)
    if not report.valid:
        raise InvalidIntermediateError(
            "extension produced an invalid system: "
            + "; ".join(str(v) for v in report.violations))
    return q


def extend_to_chain_limit(p: StabilitySystem, ell: int, target: Ordinal) -> StabilitySystem:
    """Extend p so the new top is a level-ell limit whose level-(ell+1) value is target.

    The new top is always top(p) + w: the first fresh limit, whose canonical
    predecessor stretch makes it a level-ell limit but not a lim2 point, so
    the placed exception is continuity-legal.  Raises TargetNotReachableError
    when target cannot sit below the new top in the level-(ell+1) order.
    The result q extends p at ell + 1 by construction: the bound grows, no
    exception below bound(p) changes, and the only new key, at level ell + 1,
    lies above top(p), so top(p) <=_ell top(q).  ``check_requirements``' R1
    is the one extension check on the construction path.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    _require_valid(p)
    if not target <= p.top:
        raise OutOfRangeError(f"target {_brief(format_ordinal(target))} must be at most the "
                              f"top {_brief(format_ordinal(p.top))}")
    lam = p.top + OMEGA
    return extend_with_top_exception(p, lam, ell + 1, target)


# -- descending chains ---------------------------------------------------------


@dataclass(frozen=True)
class ChainPresentation:
    """Finitely presented descending chain with a declared supremum.

    The listed conditions descend under ``extends`` at level ``ell``; the
    implicit continuation beyond the last condition is canonical (no new
    exceptions), and ``target`` is the limit the chain's tops converge to.
    """

    conditions: tuple[StabilitySystem, ...]
    target: Ordinal
    ell: int = 1

    def __post_init__(self):
        if not self.conditions:
            raise ValueError("chain must list at least one condition")
        if self.ell < 1:
            raise ValueError("ell must be >= 1")


def chain_infimum(chain: ChainPresentation) -> StabilitySystem:
    """A condition below every member of the chain, with top = the target.

    Each adjacent pair is re-verified (NotDescendingError otherwise).  Every
    level map at the new top is undefined, the liminf at a lim2 point, or the
    identity; all exception keys lie strictly below the target, so each case
    gives the default, and the result is the canonical extension of the last
    condition: the last itself when the target is its top.
    """
    conds = chain.conditions
    _require_valid(*conds)
    for prev, nxt in zip(conds, conds[1:]):
        if not extends(nxt, prev, chain.ell):
            raise NotDescendingError(
                f"condition with top {_brief(format_ordinal(nxt.top))} does not extend the "
                f"one with top {_brief(format_ordinal(prev.top))}")
    last = conds[-1]
    lam = chain.target
    if not lam.is_limit:
        raise BadTargetError(f"target {_brief(format_ordinal(lam))} must be a limit ordinal")
    if lam < last.top:
        raise BadTargetError(f"target {_brief(format_ordinal(lam))} is below the last "
                             f"condition's top {_brief(format_ordinal(last.top))}")
    if lam == last.top and len(conds) < 2:
        raise BadTargetError("target equals the only condition's top")
    return canonical_extend(last, lam)


def chain_from_trace(trace: Sequence[StabilitySystem], target: Ordinal | None = None,
                     ell: int = 1) -> ChainPresentation:
    """Package a descending trace as a chain; default target is the next fresh limit."""
    conds = tuple(trace)
    if target is None:
        target = conds[-1].top + OMEGA
    return ChainPresentation(conditions=conds, target=target, ell=ell)


def chain_to_dict(chain: ChainPresentation) -> dict:
    return {
        "chain": [system_to_dict(p) for p in chain.conditions],
        "target": format_ordinal(chain.target),
        "ell": chain.ell,
    }


def chain_from_dict(d: Mapping) -> ChainPresentation:
    _json_object(d, "chain", ("chain", "target", "ell"))
    chain = _json_typed(d.get("chain", []), "chain 'chain'", list)
    ell = _json_typed(d.get("ell", 1), "chain 'ell'", int)
    target = _json_field(d, "chain", "target")
    return ChainPresentation(conditions=tuple(system_from_dict(s) for s in chain),
                             target=_json_ordinal(target, "chain 'target'"), ell=ell)


# -- dense sets and the generic engine -----------------------------------------


@dataclass(frozen=True)
class DenseSet:
    """A named dense family: an acceptance predicate plus its refiner.

    ``refine`` produces some extension of its argument that the predicate
    accepts, or fails: raises TargetNotReachableError or OutOfRangeError, or
    returns None.  It is caller code, so ``meet_dense`` checks its result.
    """

    name: str
    accepts: Callable[[StabilitySystem], bool]
    refine: Callable[[StabilitySystem], StabilitySystem | None]


def taller_than(alpha: Ordinal) -> DenseSet:
    """Conditions whose top is at least alpha (dense: extend canonically)."""

    def _refine(p: StabilitySystem) -> StabilitySystem:
        return canonical_extend(p, max(alpha, p.top, key=lambda a: a.terms))

    return DenseSet(name=f"taller_than({alpha})",
                    accepts=lambda p: p.top >= alpha,
                    refine=_refine)


def top_chain_limit(ell: int, target: Ordinal) -> DenseSet:
    """Conditions whose top is a level-ell limit carrying level-(ell+1) value target."""
    if ell < 1:
        raise ValueError("ell must be >= 1")

    def _accepts(p: StabilitySystem) -> bool:
        return dom_f(p, ell + 1, p.top) and p.exception_value(ell + 1, p.top) == target

    def _refine(p: StabilitySystem) -> StabilitySystem:
        return extend_to_chain_limit(p, ell, target)

    return DenseSet(name=f"top_chain_limit({ell}, {target})",
                    accepts=_accepts, refine=_refine)


def meet_dense(p: StabilitySystem, dense: Sequence[DenseSet],
               budget: int) -> tuple[StabilitySystem, tuple[tuple[str, StabilitySystem], ...]]:
    """Descend below p meeting every dense set, within a refinement budget.

    Each round spends one unit on the first unmet set: the refiner's result,
    checked to extend the current condition, or one canonical step to the
    next fresh limit when the refiner fails.  Returns the final condition and
    the descending trace of (step label, condition) pairs, reusable as a
    chain.  Raises BudgetExhaustedError if some set stays unmet.

    A failed refiner leaves nothing to search for.  ``taller_than``'s refiner
    never fails.  Of the single exceptions at p.top + w with value 0 or an
    existing exception value, ``top_chain_limit(ell, target)`` accepts only
    ``extend_with_top_exception(p, p.top + w, ell + 1, target)``: just what
    the failed ``extend_to_chain_limit`` built, or, with target above p.top,
    none, since V3 keeps those values at or below p.top.  The canonical step
    carries no exception at its top, so the failed set cannot accept it.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    _require_valid(p)
    current = p
    trace: list[tuple[str, StabilitySystem]] = [("start", p)]
    remaining = list(dense)
    spent = 0
    while remaining := [d for d in remaining if not d.accepts(current)]:
        if spent >= budget:
            raise BudgetExhaustedError(
                f"budget {budget} exhausted with unmet dense sets: "
                + ", ".join(_brief(d.name) for d in remaining))
        d = remaining[0]
        spent += 1
        try:
            candidate = d.refine(current)
        except (TargetNotReachableError, OutOfRangeError):
            candidate = None
        if candidate is None:
            current = canonical_extend(current, current.top + OMEGA)
            trace.append((f"{d.name}: step", current))
        elif candidate != current:
            if not extends(candidate, current, 1):
                raise InvalidIntermediateError(
                    f"refinement for {_brief(d.name)} does not extend the current condition")
            current = candidate
            trace.append((d.name, current))
    return current, tuple(trace)
