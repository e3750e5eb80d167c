import json
import os
import subprocess
import sys

import pytest

from stabforce import StabilitySystem, cli, system_to_json
from stabforce.cli import main
from stabforce.ordinal import ONE, IntervalSet
from stabforce.ordinal import parse_ordinal as O
from stabforce.poset import chain_to_dict, ChainPresentation
from stabforce.simulate import make_pattern, pattern_to_dict
from stabforce.stability import CheckReport, ValidationReport, Violation


@pytest.fixture
def system_file(tmp_path, pstar):
    path = tmp_path / "p.json"
    path.write_text(system_to_json(pstar), encoding="utf-8")
    return str(path)


@pytest.fixture
def p3_file(tmp_path, pattern_p3):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(pattern_to_dict(pattern_p3)), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rel(capsys, system_file):
    code, out, _ = run_cli(capsys, "rel", "--k", "1", "7", "w*3", system_file)
    assert (code, out.strip()) == (0, "false")
    code, out, _ = run_cli(capsys, "rel", "--k", "1", "3", "w*3", system_file)
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run_cli(capsys, "rel", "--json", "--k", "1", "3", "w*3", system_file)
    assert json.loads(out)["lt"] is True


def test_preds(capsys, system_file):
    code, out, _ = run_cli(capsys, "preds", "--k", "1", "w*3", system_file)
    assert code == 0 and out.strip() == "[0, 6) u [w*2, w*3)"
    code, out, _ = run_cli(capsys, "preds", "--json", "--k", "1", "w*3", system_file)
    assert json.loads(out)["intervals"] == [["0", "6"], ["w*2", "w*3"]]


def test_validate_exit_codes(capsys, tmp_path, system_file):
    code, out, _ = run_cli(capsys, "validate", system_file)
    assert (code, out.strip()) == (0, "valid")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bound": "w*3", "levels": {}}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1 and "V1" in out
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(garbled))
    assert code == 2 and "input error" in err
    noncanon = tmp_path / "noncanon.json"
    noncanon.write_text(json.dumps({"bound": "w+w", "levels": {}}), encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(noncanon))
    assert code == 2


def test_extend(capsys, system_file):
    code, out, _ = run_cli(capsys, "extend", "--to", "w*4", system_file)
    assert code == 0 and json.loads(out)["bound"] == "w*4+1"
    code, out, _ = run_cli(capsys, "extend", "--chain-limit", "1", "--target", "5",
                           system_file)
    assert code == 0
    assert json.loads(out)["levels"]["2"] == {"w*4": "5"}
    code, _, err = run_cli(capsys, "extend", "--chain-limit", "1", "--target", "7",
                           system_file)
    assert code == 1 and "not reachable" in err
    code, _, err = run_cli(capsys, "extend", system_file)
    assert code == 2


def test_infimum(capsys, tmp_path, pstar, qstar):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(chain_to_dict(
        ChainPresentation((pstar, qstar), O("w*5"), ell=2))), encoding="utf-8")
    code, out, _ = run_cli(capsys, "infimum", str(chain))
    assert code == 0 and json.loads(out)["bound"] == "w*5+1"


def test_generic(capsys, system_file):
    code, out, _ = run_cli(capsys, "generic", system_file,
                           "--dense", "taller_than:w^2", "--budget", "16", "--json")
    assert code == 0
    assert json.loads(out)["system"]["bound"] == "w^2+1"
    code, _, err = run_cli(capsys, "generic", system_file,
                           "--dense", "top_chain_limit:1:7", "--budget", "6")
    assert code == 1 and "budget exhausted" in err
    code, _, err = run_cli(capsys, "generic", system_file, "--dense", "bogus:1")
    assert code == 2


def test_generic_poset_params(capsys, system_file):
    code, out, _ = run_cli(capsys, "generic", system_file, "--json",
                           "--kappa", "w^3", "--ell", "2", "--gamma", "0",
                           "--dense", "taller_than:w*5", "--budget", "8")
    assert code == 0 and json.loads(out)["inPoset"] is True
    code, _, err = run_cli(capsys, "generic", system_file,
                           "--kappa", "w^3", "--ell", "1", "--gamma", "7")
    assert code == 1 and "not in P(" in err


def test_selftest_prints_each_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_selftest_failures", lambda seed, systems: ["a", 'b "é"'])
    assert run_cli(capsys, "selftest") == (1, 'FAIL a\nFAIL b "é"\n', "")
    assert run_cli(capsys, "selftest", "--json") == (
        1, '{\n  "failures": [\n    "a",\n    "b \\"\\u00e9\\""\n  ],\n  "passed": false\n}\n', "")


def _liars():
    """A wrong stand-in for each name that ``selftest`` checks against the
    oracle or the laws, with the failures it must report."""
    real = {name: getattr(cli, name) for name in (
        "is_k_limit", "pred_set", "lt_k", "validate", "check_tree_properties",
        "check_predecessor_laws", "extends", "canonical_extend")}
    lie = CheckReport("lie", (Violation("lie", 1, "0", "lie"),))
    return {
        "is_k_limit": (lambda p, k, a: not real["is_k_limit"](p, k, a),
                       ["oracle is_k_limit mismatch (system 0, k=1, 0)"]),
        "pred_set": (lambda p, k, a: real["pred_set"](p, k, a).union(IntervalSet.of((a, a + ONE))),
                     ["oracle pred_set mismatch (system 0, k=1, 0)"]),
        "lt_k": (lambda p, k, a, b: not real["lt_k"](p, k, a, b),
                 ["oracle lt mismatch (system 0, k=1, 0, 0)"]),
        "validate": (lambda p: ValidationReport(not real["validate"](p).valid, ()),
                     ["oracle validate mismatch (system 0)"]),
        "check_tree_properties": (lambda p, k, probe: lie,
                                  ["tree property violation (system 0, k=1)"]),
        "check_predecessor_laws": (lambda p, k: lie,
                                   ["largest-predecessor violation (system 0, k=1)"]),
        "extends": (lambda q, p, ell: False,
                    ["extension transitivity failure (tower 0, ell=1)",
                     "chain infimum does not extend member (chain 0)"]),
        "canonical_extend": (lambda p, alpha: p, ["chain infimum mismatch (chain 0)"]),
    }


@pytest.mark.parametrize("name", list(_liars()))
def test_selftest_reports_a_lying_callee(capsys, monkeypatch, name):
    liar, expected = _liars()[name]
    monkeypatch.setattr(cli, name, liar)
    code, out, err = run_cli(capsys, "selftest", "--systems", "2")
    lines = out.splitlines()
    assert (code, err) == (1, "") and all(line.startswith("FAIL ") for line in lines)
    for failure in expected:
        assert f"FAIL {failure}" in lines


def test_simulate(capsys, p3_file):
    code, out, _ = run_cli(capsys, "simulate", p3_file, "--grid", "1,w,w*8")
    assert code == 0
    assert "requirements: PASS" in out
    assert "stable-pair ordering: PASS" in out
    assert "survivors: none" in out
    code, out, _ = run_cli(capsys, "simulate", p3_file, "--json", "--grid", "0,w*7")
    payload = json.loads(out)
    assert payload["requirements"]["passed"] is True
    assert payload["minimality"]["survivors"] == ["0", "w*7"]


def test_simulate_invalid_pattern(capsys, tmp_path):
    bad = tmp_path / "bad_pattern.json"
    bad.write_text(json.dumps(pattern_to_dict(make_pattern([("w^2", True, [])]))),
                   encoding="utf-8")
    code, out, _ = run_cli(capsys, "simulate", str(bad))
    assert code == 1 and "A1" in out


def test_export_dot(capsys, system_file):
    code, out, _ = run_cli(capsys, "export-dot", "--k", "1", system_file)
    assert code == 0
    assert out.startswith("digraph level1 {")
    assert '"w*2" -> "w*3";' in out
    assert '"w*2" [shape=box];' in out
    code, out2, _ = run_cli(capsys, "export-dot", "--k", "1", "--mark", "5", system_file)
    assert '"5" [penwidth=2];' in out2


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--seed", "2", "--systems", "8")
    assert code == 0 and out.startswith("PASS")


def test_cli_determinism(capsys, system_file, p3_file):
    runs = []
    for _ in range(2):
        chunks = []
        for argv in (["validate", "--json", system_file],
                     ["preds", "--json", "--k", "2", "w*3", system_file],
                     ["export-dot", "--k", "1", system_file],
                     ["simulate", "--json", p3_file, "--grid", "0,w,w*7"]):
            code, out, err = run_cli(capsys, *argv)
            chunks.append((code, out, err))
        runs.append(chunks)
    assert runs[0] == runs[1]


def test_console_entry_point(tmp_path, pstar):
    path = tmp_path / "p.json"
    path.write_text(system_to_json(pstar), encoding="utf-8")
    res = subprocess.run([sys.executable, "-m", "stabforce", "rel", "--k", "1",
                          "5", "w*3", str(path)], capture_output=True, text=True)
    assert res.returncode == 0 and res.stdout.strip() == "true"


def test_rel_level_far_above_depth(capsys, system_file):
    for a, b in (("3", "w*3"), ("7", "w*3")):
        _, expect, _ = run_cli(capsys, "rel", "--k", "1", a, b, system_file)
        code, out, err = run_cli(capsys, "rel", "--k", "5000", a, b, system_file)
        assert (code, out, err) == (0, expect, "")


def test_level_far_above_one_in_file(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"bound": "w*3+1", "levels": {"5000": {"w*2": "5"}}}),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert (code, out, err) == (0, "valid\n", "")
    for a, expect in (("3", "true\n"), ("7", "false\n")):
        assert run_cli(capsys, "rel", "--k", "5000", a, "w*2", str(path)) == (0, expect, "")
    assert run_cli(capsys, "rel", "--k", "4999", "7", "w*2", str(path)) == (0, "true\n", "")
    assert run_cli(capsys, "preds", "--k", "5000", "w*3", str(path)) == \
        (0, "[0, 6) u [w*2, w*3)\n", "")
    assert run_cli(capsys, "preds", "--k", "4999", "w*3", str(path)) == (0, "[0, w*3)\n", "")


_S = {"bound": "w*3+1", "levels": {"1": {"w*2": "5"}}}
_P = {"pos": "w*6", "inC": True, "cofinalLevels": []}
_D = json.dumps

# (command, file contents, the whole stderr line after "input error: "); a
# case id with "-and-" holds several faults and pins which one is reported
_REFUSALS = {
    "json-syntax": ("validate", "{not json",
                    "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "duplicate-key": ("validate", '{"bound": "w+1", "levels": {}, "bound": "w+1"}',
                      "duplicate JSON key 'bound'"),
    "duplicate-entry": ("validate", '{"bound": "w*3+1", "levels": {"1": {"w*2": "5", "w*2": "6"}}}',
                        "duplicate JSON key 'w*2'"),
    "deep-lists": ("validate", "[" * 100_000, "JSON nesting is too deep"),
    "huge-integer": ("validate", '{"bound": ' + "9" * 5000 + "}",
                     "a number of 5000 digits is too long (at most 4300 digits)"),
    "not-utf8": ("validate", b'{"bound": "\xff"}',
                 "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"),
    "system-not-object": ("validate", _D([_S]), "system must be a JSON object, got list"),
    "system-unknown": ("validate", _D({**_S, "top": "w"}), "unknown system fields: ['top']"),
    "system-missing-bound": ("validate", _D({"levels": {}}), "system is missing 'bound'"),
    "system-bound-not-text": ("validate", _D({"bound": 5}),
                              "system 'bound' must be ordinal text, got int"),
    "system-bound-noncanonical": ("validate", _D({"bound": "w+w"}),
                                  "'w+w': exponents must strictly decrease"),
    "system-levels-not-object": ("validate", _D({"bound": "w*3+1", "levels": ["w*2"]}),
                                 "system 'levels' must be a JSON object, got list"),
    "system-levels-null": ("validate", _D({**_S, "levels": None}),
                           "system 'levels' must be a JSON object, got NoneType"),
    "system-level-key": ("validate", _D({"bound": "w*3+1", "levels": {"0": {"w*2": "5"}}}),
                         "level key '0' must be a decimal integer >= 1"),
    "system-level-key-negative": ("validate", _D({**_S, "levels": {"-1": {"w*2": "5"}}}),
                                  "level key '-1' must be a decimal integer >= 1"),
    "system-level-key-leading-zero": ("validate", _D({**_S, "levels": {"01": {"w*2": "5"}}}),
                                      "level key '01' must be a decimal integer >= 1"),
    "system-level-key-fraction": ("validate", _D({**_S, "levels": {"1.5": {"w*2": "5"}}}),
                                  "level key '1.5' must be a decimal integer >= 1"),
    "system-level-key-word": ("validate", _D({**_S, "levels": {"one": {"w*2": "5"}}}),
                              "level key 'one' must be a decimal integer >= 1"),
    "system-level-not-object": ("validate", _D({"bound": "w*3+1", "levels": {"1": ["w*2"]}}),
                                "level 1 must be a JSON object, got list"),
    "system-value-not-text": ("validate", _D({"bound": "w*3+1", "levels": {"1": {"w*2": 5}}}),
                              "level 1 value must be ordinal text, got int"),
    "system-value-not-text-and-bound": (
        "validate", _D({"bound": "w+w", "levels": {"2": {"w*2": ["5"]}}}),
        "'w+w': exponents must strictly decrease"),
    "system-key-syntax": ("validate", _D({"bound": "w*3+1", "levels": {"1": {"2*w": "5"}}}),
                          "bad token '2*w'"),
    "system-unknown-and-missing": ("validate", _D({"top": "w", "levels": []}),
                                   "unknown system fields: ['top']"),
    "system-bound-and-levels": ("validate", _D({"bound": "w+w", "levels": []}),
                                "'w+w': exponents must strictly decrease"),
    "system-level-and-level": ("validate", _D({"bound": "w*3+1", "levels": {"0": [], "1": []}}),
                               "level key '0' must be a decimal integer >= 1"),
    "chain-not-object": ("infimum", _D([_S]), "chain must be a JSON object, got list"),
    "chain-unknown": ("infimum", _D({"chain": [_S], "target": "w*5", "limit": 1}),
                      "unknown chain fields: ['limit']"),
    "chain-not-array": ("infimum", _D({"chain": _S, "target": "w*5"}),
                        "chain 'chain' must be a JSON array, got dict"),
    "chain-not-array-text": ("infimum", _D({"chain": "w*3+1", "target": "w*5"}),
                             "chain 'chain' must be a JSON array, got str"),
    "chain-ell": ("infimum", _D({"chain": [_S], "target": "w*5", "ell": 0}),
                  "ell must be >= 1"),
    "chain-ell-bool": ("infimum", _D({"chain": [_S], "target": "w*5", "ell": True}),
                       "chain 'ell' must be an integer, got bool"),
    "chain-ell-float": ("infimum", _D({"chain": [_S], "target": "w*5", "ell": 1.7}),
                        "chain 'ell' must be an integer, got float"),
    "chain-ell-text": ("infimum", _D({"chain": [_S], "target": "w*5", "ell": "1"}),
                       "chain 'ell' must be an integer, got str"),
    "chain-missing-target": ("infimum", _D({"chain": [_S], "ell": 1}),
                             "chain is missing 'target'"),
    "chain-target-syntax": ("infimum", _D({"chain": [_S], "target": "w*w"}), "bad token 'w*w'"),
    "chain-target-not-text": ("infimum", _D({"chain": [_S], "target": {"w": 5}}),
                              "chain 'target' must be ordinal text, got dict"),
    "chain-bad-system": ("infimum", _D({"chain": [{"levels": {}}], "target": "w*5"}),
                         "system is missing 'bound'"),
    "chain-not-array-and-missing-target": ("infimum", _D({"chain": _S, "ell": 1}),
                                           "chain 'chain' must be a JSON array, got dict"),
    "chain-ell-and-missing-target": ("infimum", _D({"chain": [_S], "ell": "1"}),
                                     "chain 'ell' must be an integer, got str"),
    "chain-bad-system-and-missing-target": ("infimum", _D({"chain": [{"levels": {}}]}),
                                            "chain is missing 'target'"),
    "chain-bad-system-and-target": ("infimum", _D({"chain": [{"levels": {}}], "target": "w*w"}),
                                    "system is missing 'bound'"),
    "chain-unknown-and-ell": ("infimum", _D({"chains": [], "ell": 0}),
                              "unknown chain fields: ['chains']"),
    "pattern-not-object": ("simulate", _D([_P]), "pattern must be a JSON object, got list"),
    "pattern-unknown": ("simulate", _D({"points": [_P], "club": []}),
                        "unknown pattern fields: ['club']"),
    "pattern-points-not-list": ("simulate", _D({"points": _P}),
                                "pattern 'points' must be a JSON array, got dict"),
    "pattern-st-not-list": ("simulate", _D({"points": [_P], "st": {}}),
                            "pattern 'st' must be a JSON array, got dict"),
    "pattern-st-entry": ("simulate", _D({"points": [_P], "st": [["w*6", "w*20"]]}),
                         "each 'st' entry must be a list [position, position, degree]"),
    "pattern-st-entry-not-list": ("simulate", _D({"points": [_P], "st": ["w*6"]}),
                                  "each 'st' entry must be a list [position, position, degree]"),
    "pattern-degree": ("simulate", _D({"points": [_P], "st": [["w*6", "w*20", 1.5]]}),
                       "degree must be an integer, got float"),
    "pattern-degree-bool": ("simulate", _D({"points": [_P], "st": [["w*6", "w*20", True]]}),
                            "degree must be an integer, got bool"),
    "pattern-st-position": ("simulate", _D({"points": [_P], "st": [["w*6", "w+w", 1]]}),
                            "'w+w': exponents must strictly decrease"),
    "pattern-st-position-not-text": ("simulate", _D({"points": [_P], "st": [["w*6", 20, 1]]}),
                                     "'st' position must be ordinal text, got int"),
    "pattern-st-position-not-text-and-degree": (
        "simulate", _D({"points": [_P], "st": [[None, "w*20", 1.5]]}),
        "'st' position must be ordinal text, got NoneType"),
    "pattern-points-and-st": ("simulate", _D({"points": {}, "st": {}}),
                              "pattern 'points' must be a JSON array, got dict"),
    "pattern-position-and-degree": ("simulate", _D({"points": [_P], "st": [["w*6", "w+w", True]]}),
                                    "'w+w': exponents must strictly decrease"),
    "point-not-object": ("simulate", _D({"points": ["w*6"]}),
                         "each pattern point must be a JSON object, got str"),
    "point-unknown": ("simulate", _D({"points": [{**_P, "level": 1}]}),
                      "unknown point fields: ['level']"),
    "point-missing-pos": ("simulate", _D({"points": [_P, {"inC": True}]}),
                          "pattern point 1 is missing 'pos'"),
    "point-missing-inC": ("simulate", _D({"points": [{"pos": "w*6"}]}),
                          "pattern point 0 is missing 'inC'"),
    "point-third-empty": ("simulate", _D({"points": [_P, {**_P, "pos": "w*20"}, {}]}),
                          "pattern point 2 is missing 'pos'"),
    "point-inC": ("simulate", _D({"points": [{**_P, "inC": "true"}]}),
                  "point 'inC' must be true or false, got str"),
    "point-inC-int": ("simulate", _D({"points": [{**_P, "inC": 0}]}),
                      "point 'inC' must be true or false, got int"),
    "point-cofinal-not-list": ("simulate", _D({"points": [{**_P, "cofinalLevels": 1}]}),
                               "point 'cofinalLevels' must be a JSON array, got int"),
    "point-cofinal-text": ("simulate", _D({"points": [{**_P, "cofinalLevels": "1"}]}),
                           "point 'cofinalLevels' must be a JSON array, got str"),
    "point-cofinal-level": ("simulate", _D({"points": [{**_P, "cofinalLevels": [True]}]}),
                            "cofinal level must be an integer, got bool"),
    "point-cofinal-level-float": ("simulate", _D({"points": [{**_P, "cofinalLevels": [1.0]}]}),
                                  "cofinal level must be an integer, got float"),
    "point-pos-syntax": ("simulate", _D({"points": [{**_P, "pos": "w^1"}]}),
                         "'w^1': write plain 'w' / naturals, not w^1"),
    "point-pos-not-text": ("simulate", _D({"points": [{**_P, "pos": 6.5}]}),
                           "point 'pos' must be ordinal text, got float"),
    "point-pos-not-text-and-level": (
        "simulate", _D({"points": [{**_P, "pos": True, "cofinalLevels": [0.5]}]}),
        "point 'pos' must be ordinal text, got bool"),
    "point-missing-pos-and-inC": ("simulate", _D({"points": [_P, {}]}),
                                  "pattern point 1 is missing 'pos'"),
    "point-unknown-and-missing": ("simulate", _D({"points": [{"inC": 1, "x": 0}]}),
                                  "unknown point fields: ['x']"),
    "point-inC-and-pos-and-cofinal": (
        "simulate", _D({"points": [{"pos": "w^1", "inC": 0, "cofinalLevels": 1}]}),
        "point 'inC' must be true or false, got int"),
    "point-cofinal-and-pos": (
        "simulate", _D({"points": [{"pos": "w^1", "inC": True, "cofinalLevels": 1}]}),
        "point 'cofinalLevels' must be a JSON array, got int"),
    "point-pos-and-level": (
        "simulate", _D({"points": [{"pos": "w^1", "inC": True, "cofinalLevels": [0.5]}]}),
        "'w^1': write plain 'w' / naturals, not w^1"),
    "point-and-next-point": ("simulate", _D({"points": [{"pos": "w^1"}, 3]}),
                             "pattern point 0 is missing 'inC'"),
    "point-and-st": ("simulate", _D({"points": [{"inC": True}], "st": 5}),
                     "pattern point 0 is missing 'pos'"),
}


def _assert_refused(capsys, tmp_path, command, text, message):
    path = tmp_path / "input.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    assert run_cli(capsys, command, str(path)) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("command, text, message", list(_REFUSALS.values()), ids=list(_REFUSALS))
def test_every_reader_refusal_has_its_exact_message(capsys, tmp_path, command, text, message):
    _assert_refused(capsys, tmp_path, command, text, message)


# Older names for some of the rows above, kept so that their history stays
# traceable; each runs its row and asserts the whole stderr line.
def test_duplicate_json_keys_rejected(capsys, tmp_path):
    _assert_refused(capsys, tmp_path, *_REFUSALS["duplicate-key"])


@pytest.mark.parametrize("row", ["system-level-not-object", "system-levels-not-object",
                                 "system-level-key"], ids=["levels0", "levels1", "levels3"])
def test_malformed_levels_rejected(capsys, tmp_path, row):
    _assert_refused(capsys, tmp_path, *_REFUSALS[row])


@pytest.mark.parametrize("row", [
    "point-inC", "point-not-object", "pattern-points-not-list", "point-cofinal-level",
    "pattern-degree", "pattern-st-entry",
], ids=["pattern0", "pattern2", "pattern3", "pattern4", "pattern8", "pattern9"])
def test_malformed_pattern_rejected(capsys, tmp_path, row):
    _assert_refused(capsys, tmp_path, *_REFUSALS[row])


@pytest.mark.parametrize("row", ["point-missing-inC", "point-missing-pos"],
                         ids=["points0-pattern point 0 is missing 'inC'",
                              "points1-pattern point 1 is missing 'pos'"])
def test_missing_point_field_is_named(capsys, tmp_path, row):
    _assert_refused(capsys, tmp_path, *_REFUSALS[row])


@pytest.mark.parametrize("row", ["chain-not-array", "chain-ell", "chain-missing-target"],
                         ids=["chain0-'chain' must be a JSON array", "chain5-ell must be >= 1",
                              "chain6-missing 'target'"])
def test_malformed_chain_rejected(capsys, tmp_path, row):
    _assert_refused(capsys, tmp_path, *_REFUSALS[row])


def test_pair_declared_twice_fails_simulate(capsys, tmp_path):
    path = tmp_path / "twice.json"
    path.write_text(json.dumps({
        "points": [{"pos": "w*6", "inC": True, "cofinalLevels": [1]},
                   {"pos": "w*20", "inC": True, "cofinalLevels": []}],
        "st": [["w*6", "w*20", 1], ["w*6", "w*20", 2]]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert (code, err) == (1, "")
    assert out == "A2 @ level 0, (w*6, w*20): pair declared more than once\n"


def test_closed_stdout_is_not_an_input_error(p3_file):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        res = subprocess.run([sys.executable, "-m", "stabforce", "simulate", "--json",
                              p3_file, "--grid", "0,w,w*7"],
                             stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (res.returncode, res.stderr) == (141, b"")


# -- exit paths: a failed check is exit 1 with its prefix, bad input exit 2 -------


def test_simulate_target_not_reachable(capsys, tmp_path):
    path = tmp_path / "unreachable.json"
    path.write_text(json.dumps({
        "points": [{"pos": "w*6", "inC": True, "cofinalLevels": [1]},
                   {"pos": "w*10", "inC": False, "cofinalLevels": []},
                   {"pos": "w*13", "inC": True, "cofinalLevels": []}],
        "st": [["w*6", "w*13", 1]]}), encoding="utf-8")
    assert run_cli(capsys, "simulate", str(path)) == (
        1, "", "target not reachable: w*7 does not sit below w*13 in the level-1 order\n")


def test_extend_target_not_reachable_message(capsys, system_file):
    assert run_cli(capsys, "extend", "--chain-limit", "1", "--target", "7",
                   system_file) == (
        1, "", "target not reachable: 7 does not sit below w*4 in the level-2 order\n")


def test_infimum_of_a_rewriting_chain(capsys, tmp_path, pstar):
    rewrite = StabilitySystem(O("w*4+1"), {1: {O("w*2"): O("4")}})
    path = tmp_path / "rewrite.json"
    path.write_text(json.dumps(chain_to_dict(
        ChainPresentation((pstar, rewrite), O("w*5")))), encoding="utf-8")
    assert run_cli(capsys, "infimum", str(path)) == (
        1, "", "not a descending chain: condition with top w*4 does not extend "
               "the one with top w*3\n")


def test_generic_poset_params_need_kappa(capsys, system_file):
    assert run_cli(capsys, "generic", "--gamma", "0", system_file) == (
        2, "", "input error: poset membership checks need --kappa\n")


@pytest.mark.parametrize("argv", [[], ["--to", "w*4", "--chain-limit", "1"],
                                  ["--chain-limit", "1"]])
def test_extend_needs_one_target(capsys, system_file, argv):
    assert run_cli(capsys, "extend", *argv, system_file) == (
        2, "", "input error: extend needs either --to, or --chain-limit with --target\n")


@pytest.mark.parametrize("argv", [["--to", "w*4"], ["--chain-limit", "1", "--target", "0"]])
def test_extend_of_an_invalid_system_fails_like_generic(capsys, tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bound": "w*3", "levels": {}}), encoding="utf-8")
    message = ("check failed: not a valid stability system: "
               "StabilitySystem(bound=w*3, levels={})\n")
    assert run_cli(capsys, "extend", *argv, str(bad)) == (1, "", message)
    assert run_cli(capsys, "generic", str(bad)) == (1, "", message)


def test_invalid_system_is_named_briefly(capsys, tmp_path):
    # 2,998 level-1 keys, each valued above itself (V3)
    bad = {"bound": "w*4000+1",
           "levels": {"1": {f"w*{i}": f"w*{i}+1" for i in range(2, 3000)}}}
    system = tmp_path / "bad.json"
    system.write_text(json.dumps(bad), encoding="utf-8")
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"chain": [bad], "target": "w*4001"}), encoding="utf-8")
    for argv in (["generic", str(system)], ["extend", "--to", "w*4001", str(system)],
                 ["infimum", str(chain)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("check failed: not a valid stability system: "), argv
        assert err.count("\n") == 1 and len(err.encode()) < 100, (argv, err[:200])


@pytest.mark.parametrize("argv", [
    ["rel", "--k", "0", "1", "w"],
    ["preds", "--k", "0", "w"],
    ["export-dot", "--k", "0"],
])
def test_level_zero_is_an_input_error(capsys, system_file, argv):
    assert run_cli(capsys, *argv, system_file) == (
        2, "", "input error: level must be >= 1\n")


@pytest.mark.parametrize("ell", ["0", "-1"])
@pytest.mark.parametrize("levels", [{"1": {"w*3": "5"}}, {"1": {"w*2": "5"}}, {}])
def test_top_chain_limit_below_level_one_is_an_input_error(capsys, tmp_path, levels, ell):
    # the first system's top already carries a level-1 exception, so a level-0
    # dense set would be met at once, without its refiner ever being asked
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"bound": "w*3+1", "levels": levels}), encoding="utf-8")
    assert run_cli(capsys, "generic", "--dense", f"top_chain_limit:{ell}:5", str(path)) == (
        2, "", "input error: ell must be >= 1\n")
