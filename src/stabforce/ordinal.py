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
and diffable.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import EmptySetError, NonCanonicalError, OrdinalSyntaxError

Terms = tuple[tuple[int, int], ...]


class Ordinal:
    """An ordinal below w^w in Cantor normal form; immutable and hashable.

    The constructor checks its terms; the module's own arithmetic and parser
    build terms that are in CNF by construction and use ``_from_cnf``.
    ``_text`` memoizes the ``format_ordinal`` spelling once it is asked for.
    """

    __slots__ = ("terms", "_hash", "_text")

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
        self._text: str | None = None

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
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        lead = other.terms[0][0]
        kept = tuple(t for t in self.terms if t[0] > lead)
        absorbed = next((t for t in self.terms if t[0] == lead), None)
        if absorbed is None:
            return _from_cnf(kept + other.terms)
        merged = (lead, absorbed[1] + other.terms[0][1])
        return _from_cnf(kept + (merged,) + other.terms[1:])

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
    a._text = None
    return a


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
    if tok[0] != "w":
        if not _NAT_RE.fullmatch(tok):
            raise OrdinalSyntaxError(f"bad token {_brief(tok)!r}")
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


def parse_ordinal(text: str) -> Ordinal:
    """Parse canonical ordinal notation; reject non-canonical spellings.

    Raises OrdinalSyntaxError for bad tokens, NonCanonicalError when the text
    is grammatical but not the single accepted spelling (e.g. "w+w", "w^1").
    """
    if not isinstance(text, str):
        raise OrdinalSyntaxError(f"expected text, got {type(text).__name__}")
    parts = text.split("+")
    terms = [_parse_term(tok) for tok in parts]
    if len(terms) > 1 and any(c == 0 for _, c in terms):
        raise NonCanonicalError(f"{_brief(text)!r}: zero term inside a sum")
    if len(terms) == 1 and terms[0][1] == 0:
        return ZERO
    for (e1, _), (e2, _) in zip(terms, terms[1:]):
        if e2 >= e1:
            raise NonCanonicalError(f"{_brief(text)!r}: exponents must strictly decrease")
    return _from_cnf(tuple(terms))


def format_ordinal(a: Ordinal) -> str:
    """Canonical text for an ordinal; inverse of parse_ordinal."""
    text = a._text
    if text is not None:
        return text
    if a.is_zero:
        text = "0"
    else:
        parts = []
        for e, c in a.terms:
            if e == 0:
                parts.append(str(c))
            else:
                head = "w" if e == 1 else f"w^{e}"
                parts.append(head if c == 1 else f"{head}*{c}")
        text = "+".join(parts)
    a._text = text
    return text


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


# bisection keys of a normalized interval sequence, by low and by high end
def _low_key(iv: OrdinalInterval) -> Terms:
    return iv.low.terms


def _high_key(iv: OrdinalInterval) -> Terms:
    return iv.high.terms


def _cut(ivs: tuple[OrdinalInterval, ...], lo: Ordinal, hi: Ordinal) -> tuple[OrdinalInterval, ...]:
    """The pieces in [lo, hi) of the normalized intervals ``ivs``, as a
    normalized tuple; empty unless lo < hi."""
    if not lo.terms < hi.terms:
        return ()
    out = list(ivs[bisect_right(ivs, lo.terms, key=_high_key):
                   bisect_left(ivs, hi.terms, key=_low_key)])
    if out:
        if out[0].low.terms < lo.terms:
            out[0] = OrdinalInterval(lo, out[0].high)
        if hi.terms < out[-1].high.terms:
            out[-1] = OrdinalInterval(out[-1].low, hi)
    return tuple(out)


class IntervalSet:
    """Finite union of disjoint, non-adjacent, sorted half-open intervals.

    The constructor normalizes arbitrary input: intervals are sorted, and any
    overlapping or adjacent pair (next.low <= cur.high) is merged, so equal
    sets have identical representations.  ``_text`` memoizes the ``str``
    spelling once it is asked for.
    """

    __slots__ = ("intervals", "_text")

    def __init__(self, intervals: Iterable[OrdinalInterval] = ()):
        items = sorted(intervals, key=lambda iv: (iv.low.terms, iv.high.terms))
        merged: list[OrdinalInterval] = []
        for iv in items:
            if merged and iv.low <= merged[-1].high:
                if iv.high > merged[-1].high:
                    merged[-1] = OrdinalInterval(merged[-1].low, iv.high)
            else:
                merged.append(iv)
        self.intervals = tuple(merged)
        self._text = None

    @classmethod
    def of(cls, *pairs: tuple[Ordinal, Ordinal]) -> "IntervalSet":
        return cls(OrdinalInterval(lo, hi) for lo, hi in pairs if lo < hi)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @classmethod
    def _normalized(cls, intervals: Iterable[OrdinalInterval]) -> "IntervalSet":
        """Wrap intervals that are already sorted, disjoint and non-adjacent."""
        s = cls.__new__(cls)
        s.intervals = tuple(intervals)
        s._text = None
        return s

    def member(self, alpha: Ordinal) -> bool:
        ivs = self.intervals
        i = bisect_right(ivs, alpha.terms, key=_low_key) - 1
        return i >= 0 and alpha.terms < ivs[i].high.terms

    def sup(self) -> Ordinal:
        """Least upper bound of the member set (attained iff has_max)."""
        if not self.intervals:
            raise EmptySetError("sup of empty interval set")
        hi = self.intervals[-1].high
        return hi if hi.is_limit else hi.predecessor()

    def has_max(self) -> bool:
        if not self.intervals:
            raise EmptySetError("has_max of empty interval set")
        return self.intervals[-1].high.is_successor

    def max_element(self) -> Ordinal:
        if not self.has_max():
            raise EmptySetError("interval set has no maximum")
        return self.intervals[-1].high.predecessor()

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Two-pointer merge; pieces of two normalized sets come out normalized."""
        xs, ys, out = self.intervals, other.intervals, []
        i = j = 0
        while i < len(xs) and j < len(ys):
            a, b = xs[i], ys[j]
            lo = a.low if a.low.terms >= b.low.terms else b.low
            if a.high.terms <= b.high.terms:
                hi, i = a.high, i + 1
            else:
                hi, j = b.high, j + 1
            if lo.terms < hi.terms:
                out.append(OrdinalInterval(lo, hi))
        return IntervalSet._normalized(out)

    def cut(self, lo: Ordinal, hi: Ordinal) -> "IntervalSet":
        """The members in [lo, hi), found by two bisections; empty unless lo < hi."""
        return IntervalSet._normalized(_cut(self.intervals, lo, hi))

    def filter_below(self, alpha: Ordinal) -> "IntervalSet":
        """Members strictly below alpha."""
        return self.cut(ZERO, alpha)

    def __iter__(self) -> Iterator[OrdinalInterval]:
        return iter(self.intervals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = " u ".join([
                f"[{format_ordinal(iv.low)}, {format_ordinal(iv.high)})"
                for iv in self.intervals]) or "{}"
        return text

    def __repr__(self) -> str:
        return f"IntervalSet({self})"
