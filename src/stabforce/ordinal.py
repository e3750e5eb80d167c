"""Exact ordinal arithmetic below w^w in Cantor normal form, plus interval sets.

An ordinal is a finite sum ``w^e1*c1 + ... + w^en*cn`` with strictly
decreasing natural exponents and positive integer coefficients, stored as a
tuple of ``(exponent, coefficient)`` pairs; the empty tuple is 0.  Because
exponents decrease strictly and coefficients are positive, lexicographic
comparison of the term tuples agrees with ordinal order, so every comparison
here is a plain tuple comparison.

The text notation is the normative format used in JSON files and on the
command line::

    expr := term ("+" term)*
    term := "0" | nat | "w" ["^" nat] ["*" nat]

Every value has exactly one accepted spelling ("w" rather than "w^1", "5"
rather than "w^0*5", no zero coefficients, no whitespace); anything else is
rejected rather than silently normalized, so file formats stay unambiguous
and diffable.  ``parse_ordinal`` reads the short spellings ``0``, ``n``,
``w``, ``w*c``, ``w+n`` and ``w*c+n`` (numbers of at most 18 digits) with one
regular expression, and every other text with the general term parser, which
owns every error message.

An ``IntervalSet`` holds its intervals as two parallel tuples of CNF terms,
``lows`` and ``highs``, so membership and cuts bisect plain tuples;
``OrdinalInterval`` objects are built only for a caller that iterates.

Terms are spelled in one place, ``_format_terms``, a bounded cache of the
text of each tuple of terms: ``format_ordinal`` and ``IntervalSet.__str__``
both read it, so neither an ordinal nor a set nor a stability system keeps
a table of spellings.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import EmptySetError, NonCanonicalError, OrdinalSyntaxError

Terms = tuple[tuple[int, int], ...]


class Ordinal:
    """An ordinal below w^w in Cantor normal form; immutable and hashable.

    The constructor checks its terms; the module's own arithmetic and parser
    build terms that are in CNF by construction and use ``_from_cnf``.
    Its text comes from ``format_ordinal``, which caches spellings by terms.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Iterable[tuple[int, int]] = ()):
        tt: Terms = tuple((int(e), int(c)) for e, c in terms)
        prev = None
        for e, c in tt:
            if e < 0 or c < 1:
                raise ValueError(f"bad CNF term (exponent {e}, coefficient {c})")
            if prev is not None and e >= prev:
                raise ValueError("CNF exponents must be strictly decreasing")
            prev = e
        self.terms = tt
        self._hash = hash(tt)

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        return _from_cnf(((0, n),) if n else ())

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] == 0

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] >= 1

    @property
    def is_lim2(self) -> bool:
        """True when the value is a limit of limit ordinals (last exponent >= 2)."""
        return bool(self.terms) and self.terms[-1][0] >= 2

    def classify(self) -> str:
        if self.is_zero:
            return "zero"
        return "successor" if self.is_successor else "limit"

    def predecessor(self) -> "Ordinal":
        """Largest ordinal below a successor; undefined for 0 and limits."""
        if not self.is_successor:
            raise ValueError(f"{self} is not a successor ordinal")
        e, c = self.terms[-1]
        rest = self.terms[:-1]
        return _from_cnf(rest if c == 1 else rest + ((0, c - 1),))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Ordinal") -> "Ordinal":
        if not isinstance(other, Ordinal):
            return NotImplemented
        o, s = other.terms, self.terms
        if not o:
            return self
        lead, c = o[0]
        # the terms of self above other's lead are kept, one at lead absorbs
        # other's lead, and the rest are swallowed
        for i, (e, d) in enumerate(s):
            if e <= lead:
                return _from_cnf(s[:i] + ((lead, d + c),) + o[1:] if e == lead else s[:i] + o)
        return _from_cnf(s + o)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ordinal) and self.terms == other.terms

    def __lt__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self.terms < other.terms

    def __le__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self.terms <= other.terms

    def __gt__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self.terms > other.terms

    def __ge__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self.terms >= other.terms

    def __hash__(self) -> int:
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"


def _from_cnf(terms: Terms) -> Ordinal:
    """The ordinal of a tuple of int pairs already in CNF (exponents strictly
    decreasing, coefficients positive), without ``Ordinal``'s checks."""
    a = object.__new__(Ordinal)
    a.terms = terms
    a._hash = hash(terms)
    return a


def _succ(t: Terms) -> Terms:
    """The CNF terms of a + 1, for the ordinal a with CNF terms t."""
    return t[:-1] + ((0, t[-1][1] + 1),) if t and not t[-1][0] else t + ((0, 1),)


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((1, 1),))


# -- text notation ----------------------------------------------------------

_NAT_RE = re.compile(r"(?:0|[1-9][0-9]*)")
_TERM_RE = re.compile(r"^w(?:\^(0|[1-9][0-9]*))?(?:\*(0|[1-9][0-9]*))?$")


def _nat(digits: str) -> int:
    """The value of a decimal integer string, refusing one too long to convert."""
    try:
        return int(digits)
    except ValueError:  # only the interpreter's integer-string length limit
        raise OrdinalSyntaxError(
            f"a number of {len(digits.lstrip('-'))} digits is too long "
            f"(at most {sys.get_int_max_str_digits()} digits)") from None


def _brief(text: str) -> str:
    """``text`` for an error message: as it is when short, else its start and
    its length, so a hostile input is never echoed in full."""
    return text if len(text) <= 40 else f"{text[:24]}... ({len(text)} characters)"


def _parse_term(tok: str) -> tuple[int, int]:
    if not tok:
        raise OrdinalSyntaxError("empty term")
    if _NAT_RE.fullmatch(tok):
        return (0, _nat(tok))
    m = _TERM_RE.fullmatch(tok)
    if not m:
        raise OrdinalSyntaxError(f"bad token {_brief(tok)!r}")
    exp = 1 if m.group(1) is None else _nat(m.group(1))
    coef = 1 if m.group(2) is None else _nat(m.group(2))
    if m.group(1) is not None and exp < 2:
        raise NonCanonicalError(f"{_brief(tok)!r}: write plain 'w' / naturals, not w^{exp}")
    if m.group(2) is not None and coef < 2:
        raise NonCanonicalError(f"{_brief(tok)!r}: coefficient must be omitted when 1, never 0")
    return (exp, coef)


# the canonical spellings 0, n, w, w*c, w+n and w*c+n (c >= 2), numbers short
# enough that int() never meets the interpreter's digit limit
_SHORT_RE = re.compile(r"w(?:\*([2-9]|[1-9][0-9]{1,17}))?(?:\+([1-9][0-9]{0,17}))?"
                       r"|(0|[1-9][0-9]{0,17})")


def parse_ordinal(text: str) -> Ordinal:
    """Parse canonical ordinal notation; reject non-canonical spellings.

    Raises OrdinalSyntaxError for bad tokens, NonCanonicalError when the text
    is grammatical but not the single accepted spelling (e.g. "w+w", "w^1").
    A short spelling is read by ``_SHORT_RE`` alone; any other text, every
    error included, goes through the term parser.
    """
    if not isinstance(text, str):
        raise OrdinalSyntaxError(f"expected text, got {type(text).__name__}")
    m = _SHORT_RE.fullmatch(text)
    if m is not None:
        c, n, nat = m.groups()
        if nat is not None:
            return _from_cnf(((0, int(nat)),)) if nat != "0" else ZERO
        omega = ((1, int(c) if c else 1),)
        return _from_cnf(omega + ((0, int(n)),) if n else omega)
    parts = text.split("+")
    terms = [_parse_term(tok) for tok in parts]
    if len(terms) > 1 and any(c == 0 for _, c in terms):
        raise NonCanonicalError(f"{_brief(text)!r}: zero term inside a sum")
    for (e1, _), (e2, _) in zip(terms, terms[1:]):
        if e2 >= e1:
            raise NonCanonicalError(f"{_brief(text)!r}: exponents must strictly decrease")
    return _from_cnf(tuple(terms))


def format_ordinal(a: Ordinal) -> str:
    """Canonical text for an ordinal; inverse of parse_ordinal."""
    return _format_terms(a.terms)


# Bounded so that a long-lived process does not keep every spelling it ever
# printed.  At seed 5 of the benchmark, one query op spells 79-138 distinct
# terms and one construct op 8-67; all 24 query inputs together spell 245.
@lru_cache(maxsize=1024)
def _format_terms(terms: Terms) -> str:
    """Canonical text for the CNF terms of an ordinal, cached by terms."""
    if not terms:
        return "0"
    parts = []
    for e, c in terms:
        if e == 0:
            parts.append(str(c))
        else:
            head = "w" if e == 1 else f"w^{e}"
            parts.append(head if c == 1 else f"{head}*{c}")
    return "+".join(parts)


# -- interval sets -----------------------------------------------------------


@dataclass(frozen=True)
class OrdinalInterval:
    """Half-open interval [low, high) of ordinals, nonempty by construction."""

    low: Ordinal
    high: Ordinal

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError(f"empty interval [{self.low}, {self.high})")

    def __str__(self) -> str:
        return f"[{self.low}, {self.high})"


def _cut(lows: tuple[Terms, ...], highs: tuple[Terms, ...], lo: Terms,
         hi: Terms) -> tuple[tuple[Terms, ...], tuple[Terms, ...]]:
    """The end tuples of the pieces in [lo, hi) of the normalized intervals
    with ends ``lows`` and ``highs``; empty unless lo < hi."""
    if not lo < hi:
        return (), ()
    i = bisect_right(highs, lo)
    j = bisect_left(lows, hi)
    if i == j:
        return (), ()
    lows, highs = lows[i:j], highs[i:j]
    if lows[0] < lo:
        lows = (lo,) + lows[1:]
    if hi < highs[-1]:
        highs = highs[:-1] + (hi,)
    return lows, highs


class IntervalSet:
    """Finite union of disjoint, non-adjacent, sorted half-open intervals.

    The set is stored as two parallel tuples of CNF terms: ``lows[i]`` and
    ``highs[i]`` are the ends of the i-th interval, and
    ``lows[i] < highs[i] < lows[i+1]``, so both tuples ascend strictly and
    equal sets have identical ends.  ``intervals`` builds the
    ``OrdinalInterval`` objects on demand.  The constructor normalizes
    arbitrary input: intervals are sorted, and any overlapping or adjacent
    pair (next.low <= cur.high) is merged.  ``_text`` memoizes the ``str``
    spelling once it is asked for; each end is spelled by ``_format_terms``,
    whose cache spells an end that many sets hold once.
    """

    __slots__ = ("lows", "highs", "_text")

    def __init__(self, intervals: Iterable[OrdinalInterval] = ()):
        lows, highs = [], []
        for lo, hi in sorted((iv.low.terms, iv.high.terms) for iv in intervals):
            if highs and lo <= highs[-1]:
                if hi > highs[-1]:
                    highs[-1] = hi
            else:
                lows.append(lo)
                highs.append(hi)
        self.lows, self.highs, self._text = tuple(lows), tuple(highs), None

    @classmethod
    def of(cls, *pairs: tuple[Ordinal, Ordinal]) -> "IntervalSet":
        return cls(OrdinalInterval(lo, hi) for lo, hi in pairs if lo < hi)

    @property
    def is_empty(self) -> bool:
        return not self.highs

    @property
    def intervals(self) -> tuple[OrdinalInterval, ...]:
        return tuple(OrdinalInterval(_from_cnf(lo), _from_cnf(hi))
                     for lo, hi in zip(self.lows, self.highs))

    @classmethod
    def _ends(cls, lows: tuple[Terms, ...], highs: tuple[Terms, ...]) -> "IntervalSet":
        """Wrap the end tuples of intervals already sorted, disjoint and
        non-adjacent."""
        s = cls.__new__(cls)
        s.lows, s.highs, s._text = lows, highs, None
        return s

    def member(self, alpha: Ordinal) -> bool:
        t = alpha.terms
        i = bisect_right(self.lows, t)
        return i > 0 and t < self.highs[i - 1]

    def sup(self) -> Ordinal:
        """Least upper bound of the member set (attained iff has_max)."""
        if not self.highs:
            raise EmptySetError("sup of empty interval set")
        hi = _from_cnf(self.highs[-1])
        return hi if hi.is_limit else hi.predecessor()

    def has_max(self) -> bool:
        if not self.highs:
            raise EmptySetError("has_max of empty interval set")
        return self.highs[-1][-1][0] == 0

    def max_element(self) -> Ordinal:
        if not self.has_max():
            raise EmptySetError("interval set has no maximum")
        return _from_cnf(self.highs[-1]).predecessor()

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """self cut to each interval of other in turn.  The pieces ascend, and
        pieces cut to two intervals of other are apart, as those intervals
        are, so their concatenation is normalized."""
        lows, highs = (), ()
        for lo, hi in zip(other.lows, other.highs):
            cut_lows, cut_highs = _cut(self.lows, self.highs, lo, hi)
            lows, highs = lows + cut_lows, highs + cut_highs
        return IntervalSet._ends(lows, highs)

    def cut(self, lo: Ordinal, hi: Ordinal) -> "IntervalSet":
        """The members in [lo, hi), found by two bisections; empty unless lo < hi."""
        return IntervalSet._ends(*_cut(self.lows, self.highs, lo.terms, hi.terms))

    def __iter__(self) -> Iterator[OrdinalInterval]:
        return iter(self.intervals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and self.lows == other.lows \
            and self.highs == other.highs

    def __hash__(self) -> int:
        return hash((self.lows, self.highs))

    def __str__(self) -> str:
        text = self._text
        if text is None:
            ends = zip(map(_format_terms, self.lows), map(_format_terms, self.highs))
            text = self._text = " u ".join([f"[{lo}, {hi})" for lo, hi in ends]) or "{}"
        return text

    def __repr__(self) -> str:
        return f"IntervalSet({self})"
