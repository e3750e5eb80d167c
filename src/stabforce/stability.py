"""Stability systems, their derived level orders, and the validators.

A stability system is a successor bound ``|p|`` together with partial maps
``f_k`` (k >= 1) on ordinals below the bound.  Each map is presented finitely:
the default value is the identity, overridden by a finite per-level exception
map.  The domain of level 1 is the limit ordinals below the bound; the domain
of level k+1 is the set of level-k limit points of the derived order.

The derived orders are::

    a <_1 b  iff  a < b and every limit g in (a, b] has f_1(g) >= a
    a <_k+1 b iff a <_k b and every level-(k+1) domain point g in (a, b]
                  with g <=_k b has f_k+1(g) >= a

Default points satisfy the threshold automatically (f(g) = g > a), so every
quantifier is decided by inspecting only the finitely many exception keys in
range; that is what makes the whole structure exactly computable.

One kernel does that inspection: ``pred_set(p, k, b)``, the interval set of
the a with a <_k b, and every order query is membership in it.  Every level
order is a tree order, for valid and invalid systems alike, so the level-k
keys that constrain b are those that constrain its nearest constraining key
g*, plus b itself.  Each level's set is therefore g*'s set, joined with the
level-(k-1) set cut to [g*, b), and cut by b's own value.  As
a <_k b implies a <_{k-1} b, a point's sets shrink level by level; a level
without keys keeps the set below it, so they form one row, keyed by the
levels L_1 < L_2 < ... that carry keys, ``P_{L_1}(b) >= P_{L_2}(b) >= ...``,
memoized per point under its CNF terms and grown upward on demand.  A level
number costs nothing: a query at level k reads the row at the deepest key
level at or below k.  Each level's keys are compiled once, in ascending
order; a binding key's row is stored (None for one that binds nothing) and
shared by every system linked to the compiling one.  A query adopts a
binding key's row (only a limit can hold one) or takes one step per key
level, except that a successor a + 1 of zero or a limit reads each set off
a's, as ``P_j(a) u [a, a + 1)`` (proofs in ``_pred``).
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Iterable, Mapping

from .errors import OutOfBoundsError
from .ordinal import (
    ONE,
    ZERO,
    IntervalSet,
    Ordinal,
    _brief,
    _cut,
    _from_cnf,
    _nat,
    _succ,
    format_ordinal,
    parse_ordinal,
)

Entries = tuple[tuple[Ordinal, Ordinal], ...]
Levels = tuple[tuple[int, Entries], ...]


def _entry_key(entry: tuple[Ordinal, Ordinal]) -> tuple:
    return entry[0].terms


class StabilitySystem:
    """Finitely presented stability system: bound plus per-level exception maps.

    Immutable value type.  ``depth`` is the largest level carrying exceptions
    (at least 1); queries at deeper levels see all-default maps.

    A system made by ``with_bound``, ``with_exception`` or
    ``_with_top_exception`` keeps a private link ``_base`` to an
    end-extension base: a system on its chain whose keys all lie below its
    own bound and whose exceptions it repeats below that bound.
    The base's keys are therefore the first of its own at every level, so its
    compiled levels (see ``_compiled``) extend the base's, sharing every old
    binding key's row, every violation and every level that gains no key,
    and the compile pass checks only the new keys.  The link is semantically
    invisible and takes no part in equality.  ``_memo`` keys rows by CNF terms.
    A system keeps no spellings: the sets it builds are spelled by
    ``ordinal._format_terms``, one cache for the whole process.

    Such a system is also built from its parent's normalized parts: it shares
    every level tuple and every entry it does not change, so an extension
    costs only its new key.
    """

    __slots__ = ("bound", "levels", "_ks", "_top", "_memo", "_compiled", "_report", "_base")

    def __init__(self, bound: Ordinal, exceptions: Mapping[int, Mapping[Ordinal, Ordinal]] | None = None):
        if not isinstance(bound, Ordinal):
            raise TypeError("bound must be an Ordinal")
        levels: list[tuple[int, Entries]] = []
        for k in sorted(exceptions or ()):
            if int(k) < 1:
                raise ValueError(f"exception level {k} must be >= 1")
            # identity-valued entries are the default and carry no data;
            # dropping them keeps equal systems structurally identical
            entries = tuple(sorted(((g, v) for g, v in (exceptions or {})[k].items() if g != v),
                                   key=_entry_key))
            if entries:
                levels.append((int(k), entries))
        self._init(bound, tuple(levels), None)

    def _init(self, bound: Ordinal, levels: Levels, base: "StabilitySystem | None") -> None:
        self.bound = bound
        self.levels = levels
        self._ks = tuple(k for k, _ in levels)
        self._top = None
        self._memo: dict = {}
        self._compiled: dict | None = None
        self._report: ValidationReport | None = None
        self._base = base

    @classmethod
    def _derived(cls, bound: Ordinal, levels: Levels,
                 base: "StabilitySystem | None") -> "StabilitySystem":
        """A system from already-normalized levels, linked to ``base``."""
        q = cls.__new__(cls)
        q._init(bound, levels, base)
        return q

    @property
    def top(self) -> Ordinal:
        """alpha(p) = bound - 1; requires a successor bound."""
        top = self._top
        if top is None:
            top = self._top = self.bound.predecessor()
        return top

    @property
    def depth(self) -> int:
        return self.levels[-1][0] if self.levels else 1

    def entries_at(self, k: int) -> Entries:
        for lvl, entries in self.levels:
            if lvl == k:
                return entries
        return ()

    def exception_value(self, k: int, alpha: Ordinal) -> Ordinal | None:
        entries = self.entries_at(k)
        t = alpha.terms
        j = bisect_left(entries, t, key=_entry_key)
        return entries[j][1] if j < len(entries) and entries[j][0].terms == t else None

    def exception_count(self) -> int:
        return sum(len(entries) for _, entries in self.levels)

    def max_key(self) -> Ordinal | None:
        keys = [entries[-1][0] for _, entries in self.levels]  # each level's largest key
        return max(keys, key=attrgetter("terms"), default=None)

    def with_bound(self, new_bound: Ordinal) -> "StabilitySystem":
        if not isinstance(new_bound, Ordinal):
            raise TypeError("bound must be an Ordinal")
        return self._derived(new_bound, self.levels, self._base_at_most(new_bound))

    def with_exception(self, k: int, key: Ordinal, value: Ordinal) -> "StabilitySystem":
        return self._derived(self.bound, self._levels_with(k, key, value),
                             self._base_at_most(key))

    def _with_top_exception(self, k: int, key: Ordinal, value: Ordinal) -> "StabilitySystem":
        """self with bound key + 1 and (key, value) at level k, in one
        derivation linked to self; self must be valid and key at or above its
        bound (the proof is at ``poset.extend_with_top_exception``)."""
        return self._derived(_from_cnf(_succ(key.terms)), self._levels_with(k, key, value),
                             self)

    def _levels_with(self, k: int, key: Ordinal, value: Ordinal) -> Levels:
        """self's levels with (key, value) added at level k, sharing every
        level tuple and entry it does not change; an identity value is the
        default and is not stored."""
        lvl = int(k)
        if lvl < 1:
            raise ValueError(f"exception level {k} must be >= 1")
        levels = self.levels
        i = bisect_left(self._ks, lvl)
        has_level = i < len(levels) and levels[i][0] == lvl
        entries = levels[i][1] if has_level else ()
        j = bisect_left(entries, key.terms, key=_entry_key)
        if j < len(entries) and entries[j][0] == key:
            raise ValueError(f"level {k} already has an exception at {key}")
        if key != value:
            level = (lvl, entries[:j] + ((key, value),) + entries[j:])
            levels = levels[:i] + (level,) + levels[i + 1 if has_level else i:]
        return levels

    def _base_at_most(self, cut: Ordinal) -> "StabilitySystem | None":
        """The nearest system on self's chain (self first) whose bound is at
        most ``cut`` and whose keys all lie below its bound.

        A system keeping self's exceptions below ``cut`` repeats the found
        system's exceptions below that system's bound.  Only self can fail the
        key clause: links are made only to systems that pass it.
        """
        t = cut.terms
        node = self
        while node is not None and t < node.bound.terms:
            node = node._base
        return node if node is not self or self._keys_below_bound() else self._base

    def _keys_below_bound(self) -> bool:
        bound = self.bound.terms
        return all(entries[-1][0].terms < bound for _, entries in self.levels)

    def _as_dict(self) -> dict[int, dict[Ordinal, Ordinal]]:
        return {k: dict(entries) for k, entries in self.levels}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, StabilitySystem)
                and self.bound == other.bound and self.levels == other.levels)

    def __hash__(self) -> int:
        return hash((self.bound, self.levels))

    def __repr__(self) -> str:
        lv = {k: {str(g): str(v) for g, v in entries} for k, entries in self.levels}
        return f"StabilitySystem(bound={self.bound}, levels={lv})"


def disagreeing_levels(q: StabilitySystem, p: StabilitySystem, cut: Ordinal) -> list[int]:
    """The levels, ascending, at which q's exceptions below ``cut`` are not
    exactly p's.

    This is the agreement clause of an end-extension, decided here for both
    ``poset.extends`` and check R1 of ``simulate.check_requirements``.  Each of
    q's levels is sliced at the first key at or above ``cut`` and compared
    with p's level as a tuple; entries an extension shares with its parent
    compare by identity.
    """
    t = cut.terms
    q_levels, p_levels = dict(q.levels), dict(p.levels)
    out = []
    for k in sorted(q_levels.keys() | p_levels.keys()):
        entries = q_levels.get(k, ())
        if entries and not entries[-1][0].terms < t:
            entries = entries[:bisect_left(entries, t, key=_entry_key)]
        if entries != p_levels.get(k, ()):
            out.append(k)
    return out


# -- reports -----------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    check: str
    level: int
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.check} @ level {self.level}, {self.subject}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]

    def to_dict(self) -> dict:
        return {"valid": self.valid, "violations": [asdict(v) for v in self.violations]}


_VALID = ValidationReport(valid=True, violations=())  # shared by every valid system


@dataclass(frozen=True)
class CheckReport:
    name: str
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "violations": [asdict(v) for v in self.violations]}


# -- derived orders ----------------------------------------------------------


def _require_args(p: StabilitySystem, k: int, *points: Ordinal, least: int = 1) -> None:
    """Raise for a level below ``least`` or a point not below the bound.  The
    public queries make the same test inline and call this only to raise."""
    if k < least:
        raise ValueError(f"level must be >= {least}")
    t = p.bound.terms
    for a in points:
        if not a.terms < t:
            raise OutOfBoundsError(f"{_brief(format_ordinal(a))} is not below the bound "
                                   f"{_brief(format_ordinal(p.bound))}")


def dom_f(p: StabilitySystem, k: int, alpha: Ordinal) -> bool:
    """Is alpha in the domain of the level-k map: is it a level-(k-1) limit?

    At level 1 that is a limit ordinal, since level 0 is the ordinal order.
    """
    if k < 1 or not alpha.terms < p.bound.terms:
        _require_args(p, k, alpha)
    return _is_limit(p, k - 1, alpha)


def f_eval(p: StabilitySystem, k: int, alpha: Ordinal) -> Ordinal | None:
    """Value of the level-k map at alpha; None when alpha is not in its domain."""
    if not dom_f(p, k, alpha):
        return None
    v = p.exception_value(k, alpha)
    return alpha if v is None else v


def lt_k(p: StabilitySystem, k: int, alpha: Ordinal, beta: Ordinal) -> bool:
    """Strict level-k order: alpha <_k beta iff alpha is in ``pred_set(p, k, beta)``."""
    t = p.bound.terms
    if k < 1 or not (alpha.terms < t and beta.terms < t):
        _require_args(p, k, alpha, beta)
    return _lt(p, k, alpha, beta)


def _lt(p: StabilitySystem, k: int, alpha: Ordinal, beta: Ordinal) -> bool:
    """alpha in ``P_k(beta)``, by one bisection of the set's low ends."""
    t = alpha.terms
    if not t < beta.terms:
        return False
    s = _pred(p, k, beta)
    i = bisect_right(s.lows, t)
    return i > 0 and t < s.highs[i - 1]


def le_k(p: StabilitySystem, k: int, alpha: Ordinal, beta: Ordinal) -> bool:
    """Reflexive level-k order; level 0 is the plain ordinal order."""
    t = p.bound.terms
    if k < 0 or not (alpha.terms < t and beta.terms < t):
        _require_args(p, k, alpha, beta, least=0)
    return _le(p, k, alpha, beta)


def _le(p: StabilitySystem, k: int, alpha: Ordinal, beta: Ordinal) -> bool:
    return alpha.terms == beta.terms or _lt(p, k, alpha, beta)


def pred_set(p: StabilitySystem, k: int, beta: Ordinal) -> IntervalSet:
    """The set { a < beta : a <_k beta } as a normalized interval set.

    The only place exception keys are scanned; ``lt_k``, ``le_k`` and
    ``dom_f`` read their answers off it.  Levels are walked bottom-up in a
    loop, and each point's sets are memoized as one row over the levels that
    carry keys.
    """
    if k < 1 or not beta.terms < p.bound.terms:
        _require_args(p, k, beta)
    return _pred(p, k, beta)


def _pred(p: StabilitySystem, k: int, beta: Ordinal) -> IntervalSet:
    """pred_set without the argument checks, read at L, the deepest of p's
    levels with keys at or below k, found by one bisection of ``p._ks``,
    the tuple of those level numbers.  With no such level the set is
    [0, beta), which is not memoized.

    Write ``P_j(b)`` for the set { a < b : a <_j b } and ``C_j(b)`` for the
    level-j keys g <= b that constrain b: g is a level-j domain point,
    g <=_{j-1} b, and its value v_g is below g (a key valued at or above
    itself binds nothing).  By the definition, ``P_j(b)`` is the set of
    a in ``P_{j-1}(b)`` with a <= v_g for every g in ``C_j(b)`` above a.  Let
    g* be the largest key of ``C_j(b)`` below b.  Then::

        P_j(b) = clip(P_j(g*) u (P_{j-1}(b) n [g*, b)))

    where clip cuts at v_b + 1 when b itself is in ``C_j(b)``.  With no g*,
    ``P_j(b) = clip(P_{j-1}(b))``.

    Tree laws.  For a < b < c and every level j: (T) a <_j b <_j c implies
    a <_j c, and (L) a <_j c and b <_j c imply a <_j b.  The proof is by
    induction on j; at level 0 both are facts of the ordinal order.

    - (T): a <_{j-1} c by induction.  A domain point g in (b, c] with
      g <=_{j-1} c has f_j(g) >= b > a.  A domain point g in (a, b] with
      g <=_{j-1} c has g <=_{j-1} b by (L) at j-1, so f_j(g) >= a.
    - (L): a <_{j-1} b by induction.  A domain point g in (a, b] with
      g <=_{j-1} b has g <=_{j-1} c by (T) at j-1, so f_j(g) >= a.

    Both use that x <_j y implies x <_{j-1} y, which is the first clause of
    the definition.

    Neither step reads a value of f_j or a fact about the domains.  So the
    laws hold in every system, valid or not, and this kernel assumes
    nothing that ``validate`` checks.

    The recurrence.  g* <_{j-1} b, so for g <= g* the laws at j-1 give
    g <=_{j-1} b iff g <=_{j-1} g*.  Hence ``P_{j-1}(b) n [0, g*)`` is
    ``P_{j-1}(g*)``, ``C_j(b) n [0, g*]`` is ``C_j(g*)``, and by the choice
    of g* no key of ``C_j(b)`` lies in (g*, b).  So an a < g* passes at b iff
    it passes at g* and meets b's own cap; an a in [g*, b) has only b's cap
    to meet.  A point that is not a key is the no-cap case: that is the gap
    lemma.

    The two pieces never touch.  A domain point is a limit: a successor
    d + 1 has d <_j d + 1 at every level (by induction, since d + 1 is in no
    domain, d being its largest predecessor), so it is no level limit.  Thus
    ``P_j(g*)`` ends at v_{g*} + 1 < g*, and the union stays normalized.

    Rows.  As x <_j y implies x <_{j-1} y, ``P_j(b)`` is inside
    ``P_{j-1}(b)``.  A level j without keys has ``C_j(b)`` empty, so
    ``P_j(b) = P_{j-1}(b)``, and the set changes only at the levels
    L_1 < L_2 < ... that carry keys: ``P_k(b)`` is ``P_L(b)`` for the
    deepest key level L at or below k.  So ``p._memo`` keeps b's sets as one
    row under b's CNF terms, a dict from level number to set
    ``{L_1: P_{L_1}(b), L_2: ...}``, filled upward on demand by the
    recurrence; its cost grows with the keys, never with a level number.
    Whether a key g binds (is a level-j domain point valued below itself)
    depends on g alone, and a binding g < b is in ``C_j(b)`` iff it is in
    ``P_{j-1}(b)``.  So g* is the largest binding key in ``P_{j-1}(b)``,
    and ``_step`` is the recurrence.  It finds g* by visiting the intervals
    of ``P_{j-1}(b)`` from the top and bisecting the level's keys once in
    each.  A key in a gap of that set is never read, nor is one at or above
    b: the set lies in [0, b), so a bound at b's place among the keys is
    implied.  As every key of a valid system binds (see below), a step there
    costs one bisection per interval of ``P_{j-1}(b)`` down to g*'s, however
    many keys lie below b.  ``_compiled`` takes that step once per key, in
    ascending order, stores the key's ``P_j`` in its row at j, and stores
    the row in the level's array if the key binds, else None: a key that
    binds nothing caps at itself, as a point that is no key does, so
    only a binding key's cap, v + 1, needs the stored row.  In a valid
    system every key binds (V2 puts it in the domain, and V3 makes v < g,
    identity values not being stored), so None appears only in invalid
    systems.  Only a limit can hold a stored row: a binding key is a domain
    point, a level limit, and no successor is one (see above), nor is zero,
    whose set is empty.  So a limit point, and no other, looks on its first
    query for a stored row and adopts the one at its highest binding level;
    that row holds every level where the point binds (every holder has the
    same keys at or below it, see Sharing), so each level a row is filled at
    caps the point at itself.

    Successors.  Let b = a + 1 with a zero or a limit.  Then at every level
    j, ``P_j(b) = P_j(a) u [a, b)``.  Indeed a <_j a + 1 (see above), and
    for x < a, (T) gives x <_j a + 1 from x <_j a, and (L) gives x <_j a
    from x <_j a + 1 and a <_j a + 1.  So ``_grow`` fills b's row at each
    key level from a's, growing a's row first where it lacks the level: one
    append, or a wider top interval when ``P_j(a)`` ends at a.  No walk and
    no cut are needed.  Any other successor, such as w*5+2, takes the
    general step, so a coefficient never sets how deep the growth nests.
    The rule runs only after p's compile pass has finished: during the pass
    a linked system's old keys, whose stored rows sit at levels not yet
    compiled, would get fresh rows that never adopt the stored one.

    Sharing.  ``P_j(g)`` depends only on the exceptions at or below g, at
    every level, since the definition quantifies over keys in (a, g] with
    a < g.  A system q other than the system c that compiled g holds g's
    row only if it extends c's arrays, that is, only if c is on q's chain
    of ``_base`` links.  Each link repeats its base's exceptions below the
    base's bound, and a base's bound is at most its linked system's, so q
    repeats c's exceptions below c's bound.  Links are made only to systems
    whose keys lie below their bound, so g is below c's bound, and q and c
    have the same exceptions at or below g, at every level.

    So the entry at level j of g's row, ``P_j(g)``, is the same set in every
    holder of the row, whichever holder wrote it.  That includes a level the
    compiling system lacks: a holder may have keys at a level c has none
    at, but none of them is at or below g, so g is no key there and its set
    is the one at the key level below, in c as in the holder.

    A point that is no key has a row of p's own, and ``_pred`` reads nothing
    but p's memo and p's compiled arrays: it never walks ``_base``.

    Nothing recurses beyond one level: the compile pass asks ``_pred`` only
    for a lower level, and ``_pred`` only loops, except that growing a
    successor a + 1 may grow a, which is no successor and so takes the
    loop.  The stack never grows with the number of keys, a chain or a
    level.
    """
    ks = p._ks
    r = bisect_right(ks, k)
    t = beta.terms
    if not r:
        return _segment(t)
    row = p._memo.get(t)
    if row is not None and (s := row.get(ks[r - 1])) is not None:
        return s
    return _grow(p, r, t, row)


def _grow(p: StabilitySystem, r: int, t: tuple, row: dict | None) -> IntervalSet:
    """The set of the point b with CNF terms t at p's r-th level with keys,
    after filling b's row, ``row`` as read from p's memo, at every key level
    up to that one.  A call that runs p's compile pass reads the memo again
    after it, as the pass puts a row there for each key it compiles.  A b
    with no row yet (its first query) adopts, if it is a limit, the row
    stored at its highest binding key level, if any, else starts an empty
    one.  Once p's compile pass has finished, a b = a + 1 with a zero or a
    limit reads each set off a's, growing a's row first; any other b takes
    ``_step`` per level (see ``_pred``)."""
    if (levels := p._compiled) is None:
        levels, row = _compiled(p), p._memo.get(t)
    if row is None:
        row = {}
        if t and t[-1][0]:  # only a limit can hold a stored row
            for _, terms, rows, _ in reversed(levels.values()):
                i = bisect_left(terms, t)
                if i < len(terms) and terms[i] == t and rows[i] is not None:
                    row = rows[i]
                    break
        p._memo[t] = row
    if t and t[-1] == (0, 1) and p._report is not None:  # t = a + 1, a zero or a limit
        a = t[:-1]
        before = p._memo.get(a)
        for j in islice(levels, r):
            if (s := row.get(j)) is None:
                if before is None or (s := before.get(j)) is None:
                    _grow(p, r, a, before)  # a is no successor: one level of nesting
                    s = (before := p._memo[a])[j]
                # a top interval [x, a) widens to [x, b); else [a, b) is appended
                lows, highs = ((s.lows, s.highs[:-1]) if s.highs[-1:] == (a,)
                               else (s.lows + (a,), s.highs))
                s = row[j] = IntervalSet._ends(lows, highs + (t,))
        return s
    below = None
    for j, (_, terms, rows, _) in islice(levels.items(), r):
        if (s := row.get(j)) is None:
            s = row[j] = _step(terms, rows, j, len(terms),
                               _segment(t) if below is None else below, t)
        below = s
    return below


def _segment(t: tuple) -> IntervalSet:
    """[0, b), the level-0 predecessor set of the point with CNF terms t."""
    return IntervalSet._ends(((),), (t,)) if t else IntervalSet._ends((), ())


def _compiled(p: StabilitySystem) -> dict:
    """p's levels, each compiled in one ascending pass, and p's validation
    report.  Level j maps to ``(entries, terms, rows, violations)``: per key
    its CNF terms and, if it binds (is a level-j domain point valued below
    itself), its memo row, the dict of its sets by level number, holding at
    least ``P_j``, else None; then the level's V2-V5 violations.  A key that
    binds nothing caps at itself, as a non-key does, so no step reads its
    row; in a valid system every key binds (V2, and V3: see ``_pred``).

    Each of V2-V5 is read off two sets the pass holds for a key g:
    ``below`` = ``P_{j-1}(g)``, whose top ends at a limit iff g is in the
    domain (V2) and at g itself iff a lim2 g is a lim2 point (V4), and
    ``own`` = ``P_j(g)``, which holds v iff v <_j g (V5).  A key's row, and
    its violations once it is below the bound, depend only on the exceptions
    at or below it (see ``_pred``), so a linked system extends its base's
    arrays and violations by its new keys, sharing every old binding key's
    row, and shares a level that gains none.  Its new keys, ``entries[n:]``
    past the base's n, are exactly those at or above the base's bound: the
    base's keys all lie below that bound, and the linked system repeats them
    there.
    ``_report`` holds V1, then the levels in order.  The links are walked in
    a loop, oldest system first.
    """
    pending: list[StabilitySystem] = []
    node: StabilitySystem | None = p
    while node is not None and node._compiled is None:
        pending.append(node)
        node = node._base
    for node in reversed(pending):
        base = node._base._compiled if node._base is not None else {}
        node._compiled = levels = {}
        memo = node._memo
        bound = node.bound.terms
        for j, entries in node.levels:
            old = base.get(j)
            n = len(old[0]) if old else 0
            if n == len(entries):
                levels[j] = old
                continue
            terms, rows = (old[1][:], old[2][:]) if old else ([], [])
            found = list(old[3]) if old else []
            for g, v in entries[n:]:
                # in the memo before _pred runs, so that _grow skips the stored-row
                # search, which finds nothing for a key still being compiled
                row = memo.setdefault(g.terms, {})
                below = _pred(node, j - 1, g)
                highs = below.highs
                dom = bool(highs) and highs[-1][-1][0] >= 1
                bind = dom and v.terms < g.terms
                own = row[j] = _step(terms, rows, j, len(terms), below,
                                     _succ(v.terms) if bind else g.terms)
                terms.append(g.terms)
                rows.append(row if bind else None)
                at_lim2 = bind and g.is_lim2 and highs[-1] == g.terms
                fits = bind and own.member(v)
                if at_lim2 or not (fits and g.terms < bound):  # text only for a violation
                    subject = format_ordinal(g)
                    if not g.terms < bound:
                        found.append(Violation("V2", j, subject, "key not below the bound"))
                    elif not dom:
                        found.append(Violation("V2", j, subject,
                                               f"key not in the level-{j} domain"))
                    else:
                        if not bind:
                            found.append(Violation("V3", j, subject, f"value {v} exceeds key"))
                        if at_lim2:
                            found.append(Violation(
                                "V4", j, subject, f"value {v} at a lim2 point of the level-{j} "
                                "chain; continuity forces the identity there"))
                        if not fits:
                            found.append(Violation("V5", j, subject, f"value {v} not below "
                                                   f"key in the level-{j} order"))
            levels[j] = (entries, terms, rows, tuple(found))
        violations = [] if node.bound.is_successor else [
            Violation("V1", 0, format_ordinal(node.bound), "bound must be a successor ordinal")]
        for level in levels.values():
            violations += level[3]
        node._report = (ValidationReport(valid=False, violations=tuple(violations))
                        if violations else _VALID)
    return p._compiled


def _blocking_witness(g: StabilitySystem, k: int, alpha: Ordinal,
                      below: IntervalSet) -> tuple[int, Ordinal, Ordinal]:
    """(k, key, value) for the least level-k key that keeps alpha out of
    ``P_k(b)``, given alpha in ``below`` = ``P_{k-1}(b)``, at a b above g's keys.

    One always exists: by the definition of the order, such an alpha has a
    level-k key in (alpha, b] valued below alpha that constrains b.  As b is
    above every key, that is: the key has a stored row and is in ``below``.
    The scan starts at the first key above alpha, found by one bisection.
    """
    entries, terms, rows, _ = _compiled(g)[k]
    t = alpha.terms
    i = bisect_right(terms, t)
    return next((k, key, value) for (key, value), row in zip(entries[i:], rows[i:])
                if row is not None and value.terms < t and below.member(key))


def _step(terms: list[tuple], rows: list[dict[int, IntervalSet] | None], j: int, i: int,
          below: IntervalSet, c: tuple) -> IntervalSet:
    """P_j(b) by ``_pred``'s recurrence, for a point b, from the CNF terms
    ``terms`` of level j's keys, of which the first i are searched, their
    ``rows``, ``below`` = P_{j-1}(b) and the CNF terms c of b's cap: v_b + 1
    when b binds, else b.

    g* is the largest key in ``below`` with a stored row.  The intervals of
    ``below`` are visited from the top.  Each bisects the keys once for the
    largest one under its high end, then steps down past keys without a row
    while they stay in the interval.  A key in a gap of ``below`` is never
    read.  Nor is a key at or above b: ``below`` lies in [0, b), so bounding
    the search by b's place among the keys adds nothing, and callers pass
    i = len(terms).  Every key of a valid system has a row, so there a step
    costs one bisection per interval of ``below`` from the top down to g*'s.

    The result is ``P_j(g*)``, read from g*'s row at j, cut at the cap when
    the cap cuts into it or leaves nothing of ``below`` above g*; else
    ``P_j(g*)`` followed by ``below`` cut to [g*, cap), whose ends are read
    straight off ``below``'s.  With no g*, it is ``below`` itself when the
    cap cuts nothing, else ``below`` cut at it.
    """
    lows, highs = below.lows, below.highs
    for x in range(len(lows) - 1, -1, -1):
        lo = lows[x]
        i = bisect_left(terms, highs[x], 0, i)
        while i and lo <= (g := terms[i - 1]):
            i -= 1
            if rows[i] is not None:
                head = rows[i][j]
                if not g < c or head.highs and c < head.highs[-1]:
                    return IntervalSet._ends(*_cut(head.lows, head.highs, (), c))
                y = bisect_left(lows, c, x + 1)  # below's intervals that start under c
                return IntervalSet._ends(head.lows + (g,) + lows[x + 1:y], head.highs
                                         + highs[x:y - 1] + (min(highs[y - 1], c),))
    if not highs or highs[-1] <= c:
        return below
    return IntervalSet._ends(*_cut(lows, highs, (), c))


def _is_limit(p: StabilitySystem, k: int, beta: Ordinal) -> bool:
    """beta is a level-k limit, its set ``P_k(beta)`` nonempty with no max;
    at level 0, a limit ordinal."""
    highs = _pred(p, k, beta).highs
    return bool(highs) and highs[-1][-1][0] >= 1


def _is_lim2(p: StabilitySystem, k: int, beta: Ordinal) -> bool:
    """beta is a level-k limit of level-k limits; at level 0, a lim2 ordinal.

    Only the top interval [lo, h) of ``P_k(beta)`` matters: beta is such a
    point iff beta is a lim2 ordinal and h = beta.

    - If h < beta, every member of ``P_k(beta)`` lies below h, so none are
      cofinal in beta.
    - If h = beta and beta is not lim2, every limit ordinal below beta is at
      most the largest one, which is below beta.
    - If h = beta and beta is lim2, the limit ordinals in (lo, beta) are
      cofinal in beta.  Each such lambda is a level-k limit: [lo, lambda)
      lies in ``P_k(lambda)`` by the tree law (L) of ``_pred``.  And beta is
      one too, as the set's top end beta is a limit.

    Nothing here reads a map value or assumes a check of ``validate``, so the
    identity holds in every system, valid or not.
    """
    if not beta.is_lim2:
        return False
    highs = _pred(p, k, beta).highs
    return bool(highs) and highs[-1] == beta.terms


def is_k_limit(p: StabilitySystem, k: int, alpha: Ordinal) -> bool:
    """alpha is a level-k limit: its strict predecessor set is nonempty with no max."""
    if k < 1 or not alpha.terms < p.bound.terms:
        _require_args(p, k, alpha)
    return _is_limit(p, k, alpha)


def is_k_lim2(p: StabilitySystem, k: int, alpha: Ordinal) -> bool:
    """alpha is a level-k limit of level-k limits, read off the top interval
    of its predecessor set (see ``_is_lim2``)."""
    if k < 1 or not alpha.terms < p.bound.terms:
        _require_args(p, k, alpha)
    return _is_lim2(p, k, alpha)


# -- validation ---------------------------------------------------------------


def validate(p: StabilitySystem) -> ValidationReport:
    """Run the five structural checks and report every violation.

    V1 successor bound; V2 keys in their level's domain; V3 values at most
    their key; V4 continuity (a below-identity value may not sit at a lim2
    point of its level's index chain, where the liminf forces the identity);
    V5 each value sits below its key in the key's own level order.

    The compile pass checks each key once, as it compiles it (see
    ``_compiled``), and stores the report on the system; a system with an
    end-extension base inherits the base's violations.  The report equals a
    from-scratch run, violation order included.
    """
    if p._compiled is None:
        _compiled(p)
    return p._report


def probe_points(p: StabilitySystem, extra: Iterable[Ordinal] = (), cap: int | None = None) -> tuple[Ordinal, ...]:
    """Deterministic probe grid: 0, 1, the top, every key and value, and their
    successors, clipped to the universe.  ``cap`` trims low-priority points."""
    top = p.top
    priority: list[Ordinal] = [ZERO, top]
    rest: list[Ordinal] = [ONE]
    for _, entries in p.levels:
        for g, v in entries:
            priority += [g, v]
            rest += [g + ONE, v + ONE]
    rest.extend(extra)
    seen: dict[Ordinal, None] = {}  # insertion-ordered, so ``cap`` keeps the first
    for a in priority + rest:
        if a <= top:
            seen[a] = None
        if cap is not None and len(seen) >= cap:
            break
    return tuple(sorted(seen, key=lambda a: a.terms))


def check_tree_properties(p: StabilitySystem, k: int,
                          probe: Iterable[Ordinal] | None = None) -> CheckReport:
    """Verify on all probe triples that the level-k order is transitive,
    antisymmetric, interpolates against level k+1, and that predecessor sets
    are closed below their point.

    All of these are theorems, for valid and invalid systems alike; the probe
    scan is their runtime test, as the oracle is the kernel's.  With a <_k b
    written for membership in ``P_k(b)``:

    - (T) and (L), transitivity and the linearity of predecessors, are proved
      in ``_pred``'s docstring, by induction on the level.  Their reflexive
      forms follow, as an equality makes them trivial.
    - Antisymmetry: a <_k b implies a <_{k-1} b by the first clause of the
      definition, and so, down to level 0, a < b.  Both directions would give
      a < b < a.
    - Interpolation: a <= b <=_k c and a <=_{k+1} c imply a <=_{k+1} b.  The
      cases a = b and b = c are trivial, so let a < b <_k c.  Then
      a <_{k+1} c, so a <_k c, and a <_k b by (L).  A level-(k+1) domain
      point g in (a, b] with g <=_k b has g <=_k c by (T) and lies in (a, c],
      so f_{k+1}(g) >= a.  Hence a <_{k+1} b.
    - Closure: every interval of ``P_k(b)`` ends at b or at a successor.  By
      induction on the level and, within a level, on b, over how ``_pred``
      builds the set.  ``_segment(b)`` is the one interval [0, b).  A level
      with no keys copies the set below.  ``_step`` cuts pieces of
      ``P_{j-1}(b)`` and of ``P_j(g*)`` at a cap that is b or v_b + 1; a cut
      moves only the end it cuts, to the cap, and cutting at a low end moves
      no end.  Every end of ``P_{j-1}(b)`` is b or a successor by induction.
      Every end of ``P_j(g*)`` is g* or a successor by induction, and at most
      v_{g*} + 1 < g*, as g* binds and its own step capped it there, so it is
      a successor.  The two pieces never touch (see ``_pred``), so their
      union merges no interval and keeps these ends.  A successor
      b = a + 1 read off a (see ``_pred``) has ``P_j(a) u [a, b)``: the
      ends of ``P_j(a)`` are a or successors by induction, and an end at a
      becomes b.
    """
    pts = tuple(sorted(set(probe if probe is not None else probe_points(p)),
                       key=lambda a: a.terms))
    n = len(pts)
    le_now = [[_le(p, k, pts[i], pts[j]) for j in range(n)] for i in range(n)]
    le_next = [[_le(p, k + 1, pts[i], pts[j]) for j in range(n)] for i in range(n)]
    violations: list[Violation] = []

    for i in range(n):
        for j in range(n):
            if i != j and le_now[i][j] and le_now[j][i]:
                violations.append(Violation("antisymmetry", k,
                                            f"({pts[i]}, {pts[j]})", "both directions hold"))
    for i in range(n):
        for j in range(n):
            if not le_now[i][j]:
                continue
            for m in range(n):
                if le_now[j][m] and not le_now[i][m]:
                    violations.append(Violation(
                        "transitivity", k, f"({pts[i]}, {pts[j]}, {pts[m]})",
                        "composition fails"))
    # interpolation: a <= b <=_k c and a <=_{k+1} c force a <=_{k+1} b
    for i in range(n):
        for j in range(i, n):
            for m in range(n):
                if le_now[j][m] and le_next[i][m] and not le_next[i][j]:
                    violations.append(Violation(
                        "interpolation", k, f"({pts[i]}, {pts[j]}, {pts[m]})",
                        "level k+1 fails to restrict along the level-k chain"))
    for i in range(n):
        beta = pts[i]
        for iv in pred_set(p, k, beta):
            if iv.high != beta and not iv.high.is_successor:
                violations.append(Violation(
                    "closure", k, format_ordinal(beta),
                    f"limit point {iv.high} of the predecessor set is missing"))
    return CheckReport(name=f"tree-properties level {k}", violations=tuple(violations))


def check_predecessor_laws(p: StabilitySystem, k: int) -> CheckReport:
    """Largest-predecessor and unboundedness facts for the level-k map.

    A below-identity value must be the maximum of the predecessor set of its
    key; an identity value at a lim2 point of the level-(k-1) chain must have
    predecessors cofinal in the point.  Both are decided without probing a
    point, from level k of the compile pass (``_compiled``).

    Largest predecessor.  The keys the clause asks about, level-k domain
    points valued below themselves, are the keys with a stored row.  Such a
    key's ``P_k(g)`` is cut at v + 1, so its maximum is v iff v is in
    ``P_k(g)``, which is V5's ``own.member(v)``.  So the violations are
    those keys, below the bound, whose row does not hold v at level k, in
    key order.  A key at or above the bound is V2 in ``validate``.

    Unboundedness holds in every system, so it is never reported.  Let alpha
    be a level-(k-1) lim2 point with f_k(alpha) = alpha.  Identity values are
    not stored, so alpha is no level-k key and caps nothing, and by
    ``_pred``'s recurrence ``P_k(alpha)`` contains ``P_{k-1}(alpha)`` cut to
    [g*, alpha), or all of ``P_{k-1}(alpha)`` when there is no g*.  By
    ``_is_lim2`` the top interval of ``P_{k-1}(alpha)`` ends at alpha, and
    g* < alpha, so ``P_k(alpha)`` ends at the limit alpha too: alpha is a
    level-k limit.
    """
    violations: list[Violation] = []
    entries, _, rows, _ = _compiled(p).get(k) or ((), (), (), ())
    bound = p.bound.terms
    for (g, v), row in zip(entries, rows):
        if row is not None and g.terms < bound and not (s := row[k]).member(v):
            got = s.max_element() if s.highs and s.has_max() else "none"
            violations.append(Violation(
                "largest-predecessor", k, format_ordinal(g),
                f"value {v} is not the largest strict predecessor (got {got})"))
    return CheckReport(name=f"largest-predecessor/unboundedness level {k}",
                       violations=tuple(violations))


# -- JSON encoding -------------------------------------------------------------


def system_to_dict(p: StabilitySystem) -> dict:
    return {
        "bound": format_ordinal(p.bound),
        "levels": {str(k): {format_ordinal(g): format_ordinal(v) for g, v in entries}
                   for k, entries in p.levels},
    }


def system_to_json(p: StabilitySystem) -> str:
    return _json_text(p)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for a payload built of
    dicts with str keys, lists, str, int, bool, None and systems, a system
    standing for its ``system_to_dict``.

    Any ``indent`` sends the standard encoder down its pure-Python path, while
    a payload of the CLI (a trace repeats a whole system per step) is mostly
    ordinal text; here strings go through the C escaper, and a system is
    written from its level tuples.  The systems of a construction share every
    entry and every level tuple that gains no key, so each entry's text and
    each level's text at one indentation is made once per call, cached under
    the tuple's ``id``: the payload keeps the tuples alive until the call
    returns, and the cache dies with it, before an id can be reused.  Any
    other type, a float, a tuple or a non-str key included, raises TypeError:
    the CLI prints none.
    """
    return _encode(obj, "\n", {})


def _encode(obj, nl: str, seen: dict) -> str:
    """``obj`` as JSON text whose lines after the first start with ``nl``."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is dict:
        if not obj:
            return "{}"
        inner = nl + "  "  # _quote raises TypeError on a key that is not a str
        items = [f"{_quote(k)}: {_quote(v) if type(v) is str else _encode(v, inner, seen)}"
                 for k, v in obj.items()]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    if t is list:
        if not obj:
            return "[]"
        inner = nl + "  "
        return f"[{inner}{(',' + inner).join([_encode(v, inner, seen) for v in obj])}{nl}]"
    if t is StabilitySystem:  # ordinal text needs no escaping
        inner, levels = nl + "  ", "{}"
        if obj.levels:
            deep = inner + "  "
            rows = [f'"{k}": {seen.get((id(entries), deep)) or _level_text(entries, deep, seen)}'
                    for k, entries in obj.levels]
            levels = f"{{{deep}{(',' + deep).join(rows)}{inner}}}"
        return f'{{{inner}"bound": "{format_ordinal(obj.bound)}",{inner}"levels": {levels}{nl}}}'
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    if t is int:
        return int.__repr__(obj)
    raise TypeError(f"{t.__name__} is not a JSON type of the CLI")


def _level_text(entries: Entries, nl: str, seen: dict) -> str:
    """A level map written at ``nl``, kept in ``seen`` with each entry's text."""
    items = []
    for e in entries:
        text = seen.get(id(e))
        if text is None:
            g, v = e
            text = seen[id(e)] = f'"{format_ordinal(g)}": "{format_ordinal(v)}"'
        items.append(text)
    inner = nl + "  "
    text = seen[id(entries), nl] = f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    return text


# -- JSON reading --------------------------------------------------------------
# Every document the package reads (a system, a chain, a pattern) is parsed by
# ``_read_json`` and its fields checked by the helpers below, so the library
# and the CLI refuse the same documents with the same messages.


_LEVEL_KEY = re.compile(r"[1-9][0-9]*")


def system_from_dict(d: Mapping) -> StabilitySystem:
    _json_object(d, "system", ("bound", "levels"))
    bound = _json_ordinal(_json_field(d, "system", "bound"), "system 'bound'")
    exceptions: dict[int, dict[Ordinal, Ordinal]] = {}
    for k_text, entries in _json_typed(d.get("levels", {}), "system 'levels'", Mapping).items():
        if not (isinstance(k_text, str) and _LEVEL_KEY.fullmatch(k_text)):
            raise ValueError(f"level key {_brief(repr(k_text))} must be a decimal integer >= 1")
        level = f"level {_brief(k_text)}"
        label = f"{level} value"
        exceptions[_nat(k_text)] = {parse_ordinal(g): _json_ordinal(v, label)
                                    for g, v in _json_typed(entries, level, Mapping).items()}
    return StabilitySystem(bound, exceptions)


def system_from_json(text: str) -> StabilitySystem:
    return system_from_dict(_read_json(text))


def _no_dupes(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate JSON key {_brief(repr(key))}")
        out[key] = value
    return out


def _read_json(text: str):
    """The JSON value of ``text``.  A duplicate key, an integer too long to
    convert and nesting too deep for the parser are each a ValueError."""
    try:
        return json.loads(text, object_pairs_hook=_no_dupes, parse_int=_nat)
    except RecursionError:
        raise ValueError("JSON nesting is too deep") from None


# for each type a JSON field may have to be: the types that pass, and its name in a refusal
_JSON_KINDS = {Mapping: (Mapping, "a JSON object"), list: ((list, tuple), "a JSON array"),
               int: (int, "an integer"), bool: (bool, "true or false"), str: (str, "ordinal text")}


def _json_typed(value, what: str, kind: type):
    """``value`` if it is of ``kind``, a key of ``_JSON_KINDS``, where a bool
    is no integer.  The refusal names ``value`` by its type, never by itself."""
    types, name = _JSON_KINDS[kind]
    if not isinstance(value, types) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{what} must be {name}, got {type(value).__name__}")
    return value


def _json_object(value, what: str, fields: tuple[str, ...], kind: str | None = None) -> None:
    """Refuse ``value`` unless it is an object with no field outside
    ``fields``.  The messages call it ``what`` and its fields ``kind`` fields
    (``what`` fields by default)."""
    if unknown := sorted(set(_json_typed(value, what, Mapping)).difference(fields)):
        raise ValueError(f"unknown {kind or what} fields: {_brief(str(unknown))}")


def _json_field(d: Mapping, what: str, field: str):
    """The required ``field`` of the object ``d``, which the message calls ``what``."""
    if field not in d:
        raise ValueError(f"{what} is missing '{field}'")
    return d[field]


def _json_ordinal(value, what: str) -> Ordinal:
    """The ordinal spelled by ``value``, which must be text."""
    return parse_ordinal(_json_typed(value, what, str))
