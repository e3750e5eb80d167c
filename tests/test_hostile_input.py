"""Hostile input through the CLI: every file-reading subcommand either answers
(exit 0 or 1) or refuses the file with one line on stderr (exit 2).  An
unexpected exception is exit 3, "internal error", and is a bug.  The library
reader ``system_from_json`` refuses by the same rules, with a ValueError."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stabforce import cli
from stabforce.cli import main
from stabforce.errors import NonCanonicalError, OrdinalSyntaxError
from stabforce.ordinal import parse_ordinal
from stabforce.stability import system_from_json

# argv before the input file, per subcommand; the file is the last argument
FILE_COMMANDS = {
    "validate": ["validate"],
    "rel": ["rel", "--k", "2", "5", "w*2"],
    "preds": ["preds", "--k", "2", "w*3"],
    "extend": ["extend", "--to", "w*5"],
    "extend-chain-limit": ["extend", "--chain-limit", "1", "--target", "5"],
    "infimum": ["infimum"],
    "generic": ["generic", "--dense", "taller_than:w*5", "--budget", "4"],
    "simulate": ["simulate", "--grid", "0,w,w*7"],
    "export-dot": ["export-dot", "--k", "1", "--mark", "w"],
}

SYSTEM = {"bound": "w*3+1", "levels": {"1": {"w*2": "5"}}}
SYSTEM2 = {"bound": "w*4+1", "levels": {"1": {"w*2": "5"}, "2": {"w*4": "5"}}}
PATTERN = {"points": [{"pos": "w*6", "inC": True, "cofinalLevels": [1]},
                      {"pos": "w*20", "inC": True, "cofinalLevels": []}],
           "st": [["w*6", "w*20", 2]]}
CHAIN = {"chain": [SYSTEM, SYSTEM2], "target": "w*5", "ell": 2}
SEEDS = {"infimum": [CHAIN, SYSTEM], "simulate": [PATTERN, SYSTEM]}

HUGE = "9" * 5000


def run(tmp, argv_head, text):
    path = tmp / "input.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv_head, str(path)])
    return code, out.getvalue(), err.getvalue()


def assert_input_error(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["[" * 100_000, '{"1":' * 3000],
                         ids=["lists", "objects"])
@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_deep_nesting_is_an_input_error(tmp_path, command, text):
    code, out, err = run(tmp_path, FILE_COMMANDS[command], text)
    assert_input_error(code, out, err)
    assert "nesting is too deep" in err


@pytest.mark.parametrize("doc", [
    {"bound": HUGE},
    {"bound": f"w^{HUGE}+1"},
    {"bound": f"w*{HUGE}+1"},
    {"bound": "w*3+1", "levels": {"1": {"w*2": f"w+{HUGE}"}}},
    {"bound": "w*3+1", "levels": {HUGE: {"w*2": "5"}}},
    {"bound": "HUGE"},
], ids=["bound", "exponent", "coefficient", "value", "level-key", "json-number"])
def test_huge_integer_is_named_by_its_digit_count(tmp_path, doc):
    code, out, err = run(tmp_path, ["validate"], json.dumps(doc).replace('"HUGE"', HUGE))
    assert_input_error(code, out, err)
    assert "5000 digits" in err and "sys" not in err


LONG = "x" * 100_000
POINT = PATTERN["points"][0]
# a 100,000-character value at each place where a reader checks a field's
# type, or quotes a level key, a field name or a duplicate key
LONG_VALUES = {
    "bound": ("validate", {"bound": LONG}),
    "levels": ("validate", {**SYSTEM, "levels": LONG}),
    "level map": ("validate", {**SYSTEM, "levels": {"1": LONG}}),
    "level value": ("validate", {**SYSTEM, "levels": {"1": {"w*2": LONG}}}),
    "level key": ("validate", {**SYSTEM, "levels": {LONG: {}}}),
    "level key of digits": ("validate", {**SYSTEM, "levels": {"1" * 100_000: {"w*2": 5}}}),
    "system field": ("validate", {**SYSTEM, LONG: 1}),
    "duplicate key": ("validate", f'{{"bound": "w", "{LONG}": 1, "{LONG}": 2}}'),
    "chain": ("infimum", {**CHAIN, "chain": LONG}),
    "ell": ("infimum", {**CHAIN, "ell": LONG}),
    "target": ("infimum", {**CHAIN, "target": LONG}),
    "points": ("simulate", {**PATTERN, "points": LONG}),
    "point": ("simulate", {**PATTERN, "points": [LONG]}),
    "pos": ("simulate", {"points": [{**POINT, "pos": LONG}]}),
    "inC": ("simulate", {"points": [{**POINT, "inC": LONG}]}),
    "cofinalLevels": ("simulate", {"points": [{**POINT, "cofinalLevels": LONG}]}),
    "cofinal level": ("simulate", {"points": [{**POINT, "cofinalLevels": [LONG]}]}),
    "st": ("simulate", {**PATTERN, "st": LONG}),
    "st position": ("simulate", {**PATTERN, "st": [["w*6", LONG, 2]]}),
    "st degree": ("simulate", {**PATTERN, "st": [["w*6", "w*20", LONG]]}),
}


@pytest.mark.parametrize("position", sorted(LONG_VALUES))
def test_long_value_in_a_file_is_refused_briefly(tmp_path, position):
    command, doc = LONG_VALUES[position]
    code, out, err = run(tmp_path, [command], doc if isinstance(doc, str) else json.dumps(doc))
    assert_input_error(code, out, err)
    assert_short_refusal(code, out, err)


@pytest.mark.parametrize("text, message", [
    ("[" * 200_000, "JSON nesting is too deep"),
    ('{"bound": "w+1", "levels": {}, "bound": "w*2+1"}', "duplicate JSON key 'bound'"),
    ('{"bound": ' + HUGE + "}", "a number of 5000 digits is too long"),
], ids=["deep", "duplicate-bound", "huge-integer"])
def test_library_reader_refuses_as_the_cli_does(text, message):
    with pytest.raises(ValueError) as info:
        system_from_json(text)
    assert str(info.value).startswith(message) and "\n" not in str(info.value)


def test_unexpected_exception_is_exit_3(tmp_path, monkeypatch):
    def broken(p):
        raise ZeroDivisionError("division by zero\nsecond line")

    monkeypatch.setattr(cli, "validate", broken)
    code, out, err = run(tmp_path, ["validate"], json.dumps(SYSTEM))
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ZeroDivisionError: ")
    assert "Traceback" not in err


def test_key_error_from_the_kernel_is_exit_3(tmp_path, monkeypatch):
    """Every document field is read through a checked accessor, so a
    KeyError is a bug, such as a missing memo row, and not bad input."""
    def broken(p, k, beta):
        raise KeyError(beta.terms)

    monkeypatch.setattr(cli, "pred_set", broken)
    code, out, err = run(tmp_path, ["preds", "--k", "1", "w*2"], json.dumps(SYSTEM))
    assert (code, out, err) == (3, "", "internal error: KeyError: ((1, 2),)\n")


@pytest.mark.parametrize("message", ["division by zero\nsecond line", "a\r\nb", "\ta  b\n",
                                     "\n\n"])
def test_internal_error_message_is_one_line(tmp_path, monkeypatch, message):
    def broken(p):
        raise ZeroDivisionError(message)

    monkeypatch.setattr(cli, "validate", broken)
    code, out, err = run(tmp_path, ["validate"], json.dumps(SYSTEM))
    assert (code, out) == (3, "")
    assert err == f"internal error: ZeroDivisionError: {' '.join(message.split())}\n"
    assert err.count("\n") == 1


# -- fuzz ------------------------------------------------------------------------

_ORDINAL_TEXT = st.sampled_from([
    "0", "1", "5", "w", "w+1", "w*2", "w*2+5", "w*3", "w*3+1", "w*5", "w*6", "w*7",
    "w*20", "w^2", "w^2+1", "w^3*2+w", "w+w", "w^1", "", "-1", "01", HUGE,
    f"w^{HUGE}", f"w*{HUGE}+1",
])
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 10**6)
            | st.floats(allow_nan=False, allow_infinity=False) | st.just("HUGE")
            | _ORDINAL_TEXT | st.text(max_size=6))
_KEYS = _ORDINAL_TEXT | st.sampled_from(["1", "2", "bound", "levels", "points", "st",
                                         "pos", "inC", "cofinalLevels", "chain",
                                         "target", "ell", HUGE])
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(_KEYS, inner, max_size=4), max_leaves=12)
# replacements lean to well-typed values, so that mutants reach the engine
_REPLACEMENT = st.one_of(_ORDINAL_TEXT, st.integers(0, 4), _JSON)


@st.composite
def _mutated(draw, doc):
    """doc with one node replaced, one key dropped or one entry added."""
    if not (isinstance(doc, (dict, list)) and doc) or draw(st.integers(0, 4)) == 4:
        return draw(_REPLACEMENT)
    if isinstance(doc, list):
        i = draw(st.integers(0, len(doc) - 1))
        return doc[:i] + [draw(_mutated(doc[i]))] + doc[i + 1:]
    key = draw(st.sampled_from(sorted(doc)))
    out = dict(doc)
    op = draw(st.sampled_from(["recurse", "recurse", "drop", "add"]))
    if op == "drop":
        del out[key]
    elif op == "add":
        out[draw(_KEYS)] = draw(_REPLACEMENT)
    else:
        out[key] = draw(_mutated(doc[key]))
    return out


_FIELDS = {"bound", "levels", "points", "st", "pos", "inC", "cofinalLevels", "chain",
           "target", "ell"}


@st.composite
def _retokened(draw, doc):
    """doc, same shape and field names, with some ordinals, level keys and
    integers swapped for others."""
    if isinstance(doc, dict):
        return {k if k in _FIELDS else draw(_retokened(k)): draw(_retokened(v))
                for k, v in doc.items()}
    if isinstance(doc, list):
        return [draw(_retokened(v)) for v in doc]
    if isinstance(doc, bool) or draw(st.integers(0, 3)) < 3:
        return doc
    return draw(_ORDINAL_TEXT if isinstance(doc, str) else st.integers(0, 4))


@st.composite
def _file_text(draw, seeds):
    kind = draw(st.sampled_from(["retokened", "mutated", "random", "truncated", "deep"]))
    if kind == "deep":
        opener = draw(st.sampled_from(["[", '{"1":', '{"levels":']))
        depth = draw(st.sampled_from([40, 3000, 100_000]))
        closer = {"[": "]"}.get(opener, "}")
        return opener * depth + draw(st.sampled_from(["", "1" + closer * depth]))
    if kind == "random":
        doc = draw(_JSON)
    elif kind == "retokened":
        doc = draw(_retokened(draw(st.sampled_from(seeds))))
    else:
        doc = draw(st.sampled_from(seeds))
        for _ in range(draw(st.integers(1, 3))):
            doc = draw(_mutated(doc))
    # "HUGE" stands for a 5000-digit JSON number, which json.dumps cannot write
    text = json.dumps(doc).replace('"HUGE"', HUGE)
    if kind == "truncated":
        text = text[:draw(st.integers(0, len(text)))]
    return text


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_fuzzed_files_never_crash(fuzz_dir, command):
    seeds = SEEDS.get(command, [SYSTEM, SYSTEM2])

    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(_file_text(seeds))
    def check(text):
        code, out, err = run(fuzz_dir, FILE_COMMANDS[command], text)
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.count("\n") == 1, err

    check()


# -- command-line arguments ------------------------------------------------------

# argv per slot; "{}" is the hostile value.  Options take it as "--opt={}", so
# that a value starting with "-" still reaches the option, and positionals
# follow "--" for the same reason.  The file, where there is one, is PATTERN for
# simulate and SYSTEM otherwise.
INTEGER_SLOTS = {
    "rel --k": ["rel", "--k={}", "5", "w*2"],
    "preds --k": ["preds", "--k={}", "w*2"],
    "extend --chain-limit": ["extend", "--chain-limit={}", "--target", "5"],
    "generic --budget": ["generic", "--budget={}"],
    "generic --ell": ["generic", "--kappa", "w*5", "--ell={}"],
    "export-dot --k": ["export-dot", "--k={}"],
    "selftest --seed": ["selftest", "--seed={}"],
    "selftest --systems": ["selftest", "--systems={}"],
}
# a count below 0 is refused with one line that does not echo it; 0 is a count
COUNT_SLOTS = {
    "generic --budget": (["generic", "--budget={}", "--dense", "taller_than:w*5"],
                         "budget must be >= 0"),
    "selftest --systems": (["selftest", "--systems={}"], "systems must be >= 0"),
}
ORDINAL_SLOTS = {
    "rel a": ["rel", "--k", "1", "--", "{}", "w*2"],
    "rel b": ["rel", "--k", "1", "--", "5", "{}"],
    "preds b": ["preds", "--k", "1", "--", "{}"],
    "extend --to": ["extend", "--to={}"],
    "extend --target": ["extend", "--chain-limit", "1", "--target={}"],
}
LIST_SLOTS = {
    "simulate --grid": ["simulate", "--grid={}"],
    "export-dot --mark": ["export-dot", "--k", "1", "--mark={}"],
}
LONG_SUM = "+".join(f"w^{e}" for e in range(600, 1, -1))  # valid, 3487 characters

_ARG_TEXT = st.one_of(
    st.sampled_from([HUGE, "-" + HUGE, "x" * 5000, "-" + "x" * 5000, f"w^{HUGE}",
                     f"w*{HUGE}+1", "w+" * 3000 + "w", "+".join(["1"] * 3000), LONG_SUM + "+w^9",
                     "", "-", "--", "-h", "--json", " 5", "5_0", "0x1f", "1e3", "1.5", "٣",
                     "w^1", "w+w", "w*0", "5\n6"]),
    st.text(max_size=12),
    st.text(alphabet="0123456789w^*+-_ .", max_size=12),
)


def _is_integer(text):
    return re.fullmatch(r"-?[0-9]+", text) is not None and len(text.lstrip("-")) <= 4300


def _is_ordinal(text):
    try:
        parse_ordinal(text)
    except (OrdinalSyntaxError, NonCanonicalError):
        return False
    return True


def _is_ordinal_list(text):
    return text == "" or all(_is_ordinal(term) for term in text.split(","))


def run_args(tmp, argv):
    if argv[0] != "selftest":
        path = tmp / "input.json"
        path.write_text(json.dumps(PATTERN if argv[0] == "simulate" else SYSTEM),
                        encoding="utf-8")
        argv = [*argv, str(path)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argument
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_short_refusal(code, out, err):
    assert (code, out) == (2, ""), err
    assert "Traceback" not in err
    assert len(err.encode()) < 300, err


@pytest.mark.parametrize("slot", sorted(INTEGER_SLOTS) + sorted(ORDINAL_SLOTS))
def test_fuzzed_arguments_are_refused_briefly(fuzz_dir, slot):
    argv, valid = ((INTEGER_SLOTS[slot], _is_integer) if slot in INTEGER_SLOTS
                   else (ORDINAL_SLOTS[slot], _is_ordinal))

    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_ARG_TEXT.filter(lambda text: not valid(text)))
    def check(text):
        assert_short_refusal(*run_args(fuzz_dir, [a.replace("{}", text) for a in argv]))

    check()


_LIST_TEXT = st.one_of(_ARG_TEXT, st.lists(_ARG_TEXT | _ORDINAL_TEXT | st.just(LONG_SUM),
                                           min_size=1, max_size=4).map(",".join))


@pytest.mark.parametrize("slot", sorted(LIST_SLOTS))
def test_fuzzed_ordinal_lists_never_crash(fuzz_dir, slot):
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_LIST_TEXT)
    def check(text):
        code, out, err = run_args(fuzz_dir, [a.replace("{}", text) for a in LIST_SLOTS[slot]])
        if _is_ordinal_list(text):  # answered, or a point outside the system
            assert code in (0, 1, 2) and "Traceback" not in err, err
            assert len(err.encode()) < 300, err
        else:
            assert_short_refusal(code, out, err)

    check()


@pytest.mark.parametrize("text", [",", "w,", ",w", "w,,w*2"])
@pytest.mark.parametrize("slot", sorted(LIST_SLOTS))
def test_empty_term_in_an_ordinal_list_is_refused(tmp_path, slot, text):
    code, out, err = run_args(tmp_path, [a.replace("{}", text) for a in LIST_SLOTS[slot]])
    assert_short_refusal(code, out, err)
    assert err == "input error: empty term\n"


def test_bad_grid_is_refused_before_the_construction(tmp_path):
    # w*7, the alpha of w*6, cannot sit below w*13: the construction exits 1
    unreachable = {"points": [{"pos": "w*6", "inC": True, "cofinalLevels": [1]},
                              {"pos": "w*10", "inC": False}, {"pos": "w*13", "inC": True}],
                   "st": [["w*6", "w*13", 1]]}
    assert run(tmp_path, ["simulate"], json.dumps(unreachable))[0] == 1
    code, out, err = run(tmp_path, ["simulate", "--grid", "w,"], json.dumps(unreachable))
    assert_input_error(code, out, err)


@pytest.mark.parametrize("slot", sorted(LIST_SLOTS))
def test_empty_ordinal_list_is_no_points(tmp_path, slot):
    without = [a for a in LIST_SLOTS[slot] if "{}" not in a]
    assert run_args(tmp_path, [a.replace("{}", "") for a in LIST_SLOTS[slot]]) \
        == run_args(tmp_path, without)
    assert run_args(tmp_path, without)[0] == 0


@pytest.mark.parametrize("slot", sorted(INTEGER_SLOTS))
def test_huge_integer_option_is_named_not_echoed(tmp_path, slot):
    code, out, err = run_args(tmp_path, [a.replace("{}", HUGE) for a in INTEGER_SLOTS[slot]])
    assert_short_refusal(code, out, err)
    assert "5000 digits" in err and "9" * 50 not in err


@pytest.mark.parametrize("value", ["-1", "-4", "-5", "-123456789"])
@pytest.mark.parametrize("slot", sorted(COUNT_SLOTS))
def test_negative_count_is_an_input_error(tmp_path, slot, value):
    argv, message = COUNT_SLOTS[slot]
    code, out, err = run_args(tmp_path, [a.replace("{}", value) for a in argv])
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("slot", sorted(COUNT_SLOTS))
def test_zero_count_is_allowed(tmp_path, slot):
    code, out, err = run_args(tmp_path, [a.replace("{}", "0") for a in COUNT_SLOTS[slot][0]])
    assert code in (0, 1) and "input error" not in err, err


@pytest.mark.parametrize("slot", ["rel a", "rel b", "preds b"])
def test_long_ordinal_out_of_bounds_is_not_echoed(tmp_path, slot):
    code, out, err = run_args(tmp_path, [a.replace("{}", LONG_SUM) for a in ORDINAL_SLOTS[slot]])
    assert_short_refusal(code, out, err)
    assert "not below the bound" in err and "3487 characters" in err


def test_long_mark_above_the_top_is_not_echoed(tmp_path):
    code, out, err = run_args(tmp_path, ["export-dot", "--k", "1", f"--mark=w,{LONG_SUM}"])
    assert_short_refusal(code, out, err)
    assert "above the top" in err and "3487 characters" in err


@pytest.mark.parametrize("option", ["--k", "--dense", "--to", "--seed"])
def test_lone_double_dash_option_value_is_missing(tmp_path, option):
    head = {"--k": ["rel"], "--dense": ["generic"], "--to": ["extend"], "--seed": ["selftest"]}
    tail = ["5", "w*2"] if option == "--k" else []
    code, out, err = run_args(tmp_path, [*head[option], f"{option}=--", *tail])
    assert_short_refusal(code, out, err)
    assert f"argument {option}: expected one argument" in err


N4000 = "9" * 4000
# a valid ordinal of about 4,000 characters at each place where a refusal or a
# failed check names an ordinal or a dense set: (argv before the file, file,
# exit code)
LONG_ORDINALS = {
    "extend --to below the top": (["extend", f"--to=w*2+{N4000}"], SYSTEM, 2),
    "extend --target above the top":
        (["extend", "--chain-limit", "1", f"--target=w*3+{N4000}"], SYSTEM, 2),
    "extend --target unreachable":
        (["extend", "--chain-limit", "1", f"--target=w+{N4000}"], SYSTEM, 1),
    "infimum target below the top":
        (["infimum"], {"chain": [{"bound": "w^2+1", "levels": {}}], "target": f"w*{N4000}"}, 2),
    "infimum target no limit": (["infimum"], {"chain": [SYSTEM], "target": f"w*3+{N4000}"}, 2),
    "infimum not descending":
        (["infimum"], {"chain": [{**SYSTEM, "bound": f"w*3+{N4000}"}, SYSTEM], "target": "w*5"},
         1),
    "generic --gamma": (["generic", "--kappa", "w^2", f"--gamma=w+{N4000}"], SYSTEM, 1),
    "generic taller_than":
        (["generic", "--budget", "0", "--dense", f"taller_than:w*3+{N4000}"], SYSTEM, 1),
    "generic top_chain_limit":
        (["generic", "--budget", "0", "--dense", f"top_chain_limit:1:w+{N4000}"], SYSTEM, 1),
}


@pytest.mark.parametrize("position", sorted(LONG_ORDINALS))
def test_long_ordinal_in_a_message_is_named_briefly(tmp_path, position):
    argv, doc, expect = LONG_ORDINALS[position]
    code, out, err = run(tmp_path, argv, json.dumps(doc))
    assert (code, out) == (expect, ""), err[:300]
    assert err.count("\n") == 1 and len(err.encode()) < 300, err[:300]
    assert "characters)" in err, err
