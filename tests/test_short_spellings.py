"""The short-spelling paths of ``parse_ordinal`` and ``format_ordinal``
against the general code they skip.

``parse_ordinal`` reads ``0``, ``n``, ``w``, ``w*c``, ``w+n`` and ``w*c+n``
with one regular expression before it falls back to the term parser.
``reference_parse`` is ``parse_ordinal`` as it was before that fast path,
copied here with its helpers, so the reference shares no parsing code with
the parser it checks.  On every input, both must return the same terms or
raise the same exception type with the same message.  Likewise
``reference_format`` is the general term loop that ``format_ordinal`` ran on
every ordinal before ``n``, ``w*c`` and ``w*c+n`` got their own spellings.
"""

import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from stabforce.errors import NonCanonicalError, OrdinalSyntaxError
from stabforce.ordinal import Ordinal, format_ordinal, parse_ordinal

_NAT_RE = re.compile(r"(?:0|[1-9][0-9]*)")
_TERM_RE = re.compile(r"^w(?:\^(0|[1-9][0-9]*))?(?:\*(0|[1-9][0-9]*))?$")


def _nat(digits):
    try:
        return int(digits)
    except ValueError:
        raise OrdinalSyntaxError(
            f"a number of {len(digits.lstrip('-'))} digits is too long "
            f"(at most {sys.get_int_max_str_digits()} digits)") from None


def _brief(text):
    return text if len(text) <= 40 else f"{text[:24]}... ({len(text)} characters)"


def _parse_term(tok):
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


def reference_parse(text):
    """The CNF terms of ``text`` by the term parser alone."""
    if not isinstance(text, str):
        raise OrdinalSyntaxError(f"expected text, got {type(text).__name__}")
    terms = [_parse_term(tok) for tok in text.split("+")]
    if len(terms) > 1 and any(c == 0 for _, c in terms):
        raise NonCanonicalError(f"{_brief(text)!r}: zero term inside a sum")
    if len(terms) == 1 and terms[0][1] == 0:
        return ()
    for (e1, _), (e2, _) in zip(terms, terms[1:]):
        if e2 >= e1:
            raise NonCanonicalError(f"{_brief(text)!r}: exponents must strictly decrease")
    return tuple(terms)


def reference_format(a):
    parts = []
    for e, c in a.terms:
        if e == 0:
            parts.append(str(c))
        else:
            head = "w" if e == 1 else f"w^{e}"
            parts.append(head if c == 1 else f"{head}*{c}")
    return "+".join(parts) or "0"


def outcome(parse, text):
    """("ok", terms) or (exception type, message)."""
    try:
        got = parse(text)
    except (OrdinalSyntaxError, NonCanonicalError) as e:
        return type(e), str(e)
    return "ok", got if isinstance(got, tuple) else got.terms


def assert_same_as_reference(text):
    got = outcome(parse_ordinal, text)
    assert got == outcome(reference_parse, text), repr(text)
    if got[0] == "ok":
        assert type(got[1]) is tuple and all(type(t) is tuple for t in got[1])
        assert Ordinal(got[1]).terms == got[1]


EDGE_CASES = [
    "0", "1", "w", "w+1", "w*2", "w*2+3", "w*1", "w*0", "w+0", "01", "w*01", "w*2+01",
    "1+1", "w*2+w", "w+w", "0+1", "w*2+0", "", "+", "w+", "+1", "w*", "w^2", "w^2*3+w+4",
    " w", "w ", "w\n", "w*2 +1", "٣", "w*٣", "w+٣",
    "w*" + "9" * 18, "w*" + "1" * 19, "9" * 18, "1" * 19, "w+" + "9" * 18, "w+" + "1" * 19,
    "w*" + "9" * 18 + "+" + "9" * 18, "w*" + "1" + "0" * 18 + "+1",
    "9" * 5000, "w*" + "9" * 5000, "w+" + "9" * 5000, "w^" + "9" * 5000,
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_parse_matches_reference_on_edge_cases(text):
    assert_same_as_reference(text)


@pytest.mark.parametrize("value", [None, 5, 1.5, b"w", ["w"], Ordinal(((1, 1),))])
def test_parse_matches_reference_on_non_text(value):
    assert_same_as_reference(value)


@settings(max_examples=400)
@given(st.text(alphabet="w^*+0123456789 ", max_size=14))
def test_parse_matches_reference_on_random_text(text):
    assert_same_as_reference(text)


# pieces that join into the short spellings, and into near misses of them
_pieces = st.sampled_from(["w", "*", "+", "^", "0", "1", "2", "9", "15", "07", " ", "9" * 18])


@settings(max_examples=400)
@given(st.lists(_pieces, max_size=6).map("".join))
def test_parse_matches_reference_on_joined_pieces(text):
    assert_same_as_reference(text)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                          st.integers(min_value=1, max_value=10**20)), max_size=4))
def test_format_matches_general_loop(pairs):
    a = Ordinal(sorted(dict(pairs).items(), reverse=True))
    assert format_ordinal(a) == reference_format(a)
    assert_same_as_reference(format_ordinal(a))
