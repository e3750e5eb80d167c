"""Definition-literal reference implementation for small bounds.

Below w*M every level domain is a finite set of limit ordinals (the multiples
of w), so each order quantifier can be evaluated by literal enumeration and
each predecessor set assembled run by run: the stretch between two consecutive
limit ordinals contains no domain points, so membership over a run is decided
by one explicit minimum.  Nothing here shares the key-scan machinery of the
main implementation; agreement between the two is the point.
"""

from __future__ import annotations

from .errors import BoundTooLargeError
from .ordinal import ZERO, IntervalSet, Ordinal, OrdinalInterval, format_ordinal
from .stability import StabilitySystem, ValidationReport, Violation

MAX_MULTIPLE = 20
_BOUND_CAP = Ordinal(((1, MAX_MULTIPLE),))


class BruteEvaluator:
    """Enumerating evaluator for one system with bound < w*M."""

    def __init__(self, p: StabilitySystem):
        if not p.bound < _BOUND_CAP:
            raise BoundTooLargeError(f"bound {p.bound} is not below w*{MAX_MULTIPLE}")
        self.p = p
        self._lt: dict = {}
        self._dom: dict = {}
        self._pred: dict = {}
        self.limits = self._enumerate_limits()

    def _enumerate_limits(self) -> tuple[Ordinal, ...]:
        out = []
        m = 1
        while True:
            lam = Ordinal(((1, m),))
            if not lam < self.p.bound:
                break
            out.append(lam)
            m += 1
        return tuple(out)

    def value(self, k: int, gamma: Ordinal) -> Ordinal:
        v = self.p.exception_value(k, gamma)
        return gamma if v is None else v

    def in_dom(self, k: int, alpha: Ordinal) -> bool:
        key = (k, alpha)
        if key in self._dom:
            return self._dom[key]
        if k == 1:
            res = alpha.is_limit and alpha < self.p.bound
        else:
            res = alpha < self.p.bound and self.is_k_limit(k - 1, alpha)
        self._dom[key] = res
        return res

    def le(self, k: int, alpha: Ordinal, beta: Ordinal) -> bool:
        if alpha == beta:
            return True
        if k == 0:
            return alpha < beta
        return self.lt(k, alpha, beta)

    def lt(self, k: int, alpha: Ordinal, beta: Ordinal) -> bool:
        if not alpha < beta:
            return False
        key = (k, alpha, beta)
        if key in self._lt:
            return self._lt[key]
        if k > 1 and not self.lt(k - 1, alpha, beta):
            res = False
        else:
            res = True
            for gamma in self.limits:
                if not (alpha < gamma <= beta):
                    continue
                if not self.in_dom(k, gamma):
                    continue
                if not self.le(k - 1, gamma, beta):
                    continue
                if self.value(k, gamma) < alpha:
                    res = False
                    break
        self._lt[key] = res
        return res

    def pred_set(self, k: int, beta: Ordinal) -> IntervalSet:
        key = (k, beta)
        if key in self._pred:
            return self._pred[key]
        intervals = []
        starts = [ZERO] + [lam for lam in self.limits if lam < beta]
        for start in starts:
            run_end = min(start + Ordinal(((1, 1),)), beta)
            if not start < run_end:
                continue
            cap: Ordinal | None = None
            for level in range(1, k + 1):
                for gamma in self.limits:
                    if not (start < gamma <= beta):
                        continue
                    if not self.in_dom(level, gamma):
                        continue
                    if not self.le(level - 1, gamma, beta):
                        continue
                    v = self.value(level, gamma)
                    if cap is None or v < cap:
                        cap = v
            hi = run_end
            if cap is not None and cap + Ordinal.from_int(1) < hi:
                hi = cap + Ordinal.from_int(1)
            if start < hi:
                intervals.append(OrdinalInterval(start, hi))
        res = IntervalSet(intervals)
        self._pred[key] = res
        return res

    def is_k_limit(self, k: int, alpha: Ordinal) -> bool:
        s = self.pred_set(k, alpha)
        return not s.is_empty and not s.has_max()

    def is_k_lim2(self, k: int, alpha: Ordinal) -> bool:
        if not self.is_k_limit(k, alpha):
            return False
        members = [lam for lam in self.limits
                   if lam < alpha and self.pred_set(k, alpha).member(lam)
                   and self.is_k_limit(k, lam)]
        if not members:
            return False
        # the member limits form a finite set, so their sup is attained
        return max(members) == alpha

    def validate(self) -> ValidationReport:
        violations: list[Violation] = []
        if not self.p.bound.is_successor:
            violations.append(Violation("V1", 0, format_ordinal(self.p.bound),
                                        "bound must be a successor ordinal"))
        for k, entries in self.p.levels:
            for g, v in entries:
                subject = format_ordinal(g)
                if not (g < self.p.bound and self.in_dom(k, g)):
                    violations.append(Violation("V2", k, subject, "key outside domain"))
                    continue
                if not v <= g:
                    violations.append(Violation("V3", k, subject, "value exceeds key"))
                if v < g:
                    lim2 = g.is_lim2 if k == 1 else self.is_k_lim2(k - 1, g)
                    if lim2:
                        violations.append(Violation("V4", k, subject,
                                                    "non-identity value at a lim2 point"))
                if not self.le(k, v, g):
                    violations.append(Violation("V5", k, subject,
                                                "value not below key in its level order"))
        return ValidationReport(valid=not violations, violations=tuple(violations))
