"""The CLI's JSON emitter against ``json.dumps(indent=2)``, byte for byte."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from stabforce.stability import _json_text

# the characters an escaper can get wrong, mixed with arbitrary code points
_text = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é€ ﻿\U0001f600\U0010ffff')
                | st.characters(), max_size=8)
_ints = st.integers(min_value=-10**30, max_value=10**30) | st.sampled_from(
    [10**29, -10**29, 10**30 - 1, -(10**30 - 1), 0, -1])
_payloads = st.recursive(
    st.none() | st.booleans() | _ints | _text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=40)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_payloads)
@example({})
@example([])
@example({"a": {}, "b": [[], {"c": []}], "": [{}]})
@example({"1": {"w*2": "5", "w^2": "w*3"}, "2": {}})
@example(["\"q\" \\ \x00\x1f\x7f é \U0001f600", True, False, None, -123456789012345678901234567890])
def test_matches_json_dumps(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("payload", [
    1.5, (1, 2), object(), {"a": [1, 0.0]}, {"k": (1,)}, [{"v": {"x": 2.5}}], {1: "a"},
    {None: 1}, {("a",): 1}, {"x": {"y": b"z"}}, [set()],
])
def test_refuses_types_the_cli_never_prints(payload):
    with pytest.raises(TypeError):
        _json_text(payload)
