"""Byte goldens: CLI and demo stdout for fixed inputs, compared byte for byte.

The files under ``tests/golden/`` hold the stdout of each CLI case below, and
``tests/golden/demos/`` the stdout of each script in ``demos/``.  To
regenerate them after a deliberate output change, run this module as a
script from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from stabforce import StabilitySystem, extend_to_chain_limit, system_to_json
from stabforce.cli import build_parser, main
from stabforce.ordinal import parse_ordinal as O
from stabforce.poset import ChainPresentation, chain_to_dict
from stabforce.simulate import make_pattern, pattern_to_dict

GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
GRID = "0,1,5,w,w*6,w*6+3,w*7,w*8,w*19,w*20+1,w*21"

PATTERNS = {
    "p1": make_pattern([("w*6", True, [])]),
    "p2": make_pattern([("w*6", True, []), ("w*20", True, [])], [("w*6", "w*20", 1)]),
    "p3": make_pattern([("w*6", True, [1]), ("w*20", True, [])], [("w*6", "w*20", 2)]),
    # fails A1 (w^2 is a lim2 position, w*7 is too close to w*6), A2 (degree 0)
    # and A3 (level 2 flagged without level 1)
    "bad": make_pattern([("w*6", True, []), ("w*7", False, []), ("w^2", True, [2])],
                        [("w*6", "w^2", 0)]),
}
# the ``system_file`` fixture of test_cli: bound w*3+1, level 1 w*2 -> 5
PSTAR = StabilitySystem(O("w*3+1"), {1: {O("w*2"): O("5")}})
SYSTEMS = {
    "system": PSTAR,
    # V4 at level 1: a below-identity value at the lim2 ordinal w^2
    "v4_level1": StabilitySystem(O("w^2*2+1"), {1: {O("w*2"): O("5"), O("w^2"): O("w*3"),
                                                     O("w^2+w"): O("w^2")}}),
    # V4 at level 2, twice: w^2 and w^2*2 are lim2 points of the level-1 chain,
    # w^2+w*2 is not
    "v4_level2": StabilitySystem(O("w^2*2+1"), {
        1: {O("w*3"): O("5")},
        2: {O("w^2"): O("w*4"), O("w^2+w*2"): O("w^2+w"), O("w^2*2"): O("w^2+w*5")}}),
}
CHAINS = {
    # the chain of test_cli's infimum test: PSTAR and its level-1 chain-limit
    # extension, to the target w*5 at level 2
    "chain": ChainPresentation((PSTAR, extend_to_chain_limit(PSTAR, 1, O("5"))),
                               O("w*5"), ell=2),
}

CASES = {
    **{f"simulate_{name}": ["simulate", "--json", f"{name}.json", "--grid", GRID]
       for name in PATTERNS},
    "validate": ["validate", "--json", "system.json"],
    "validate_v4_level1": ["validate", "--json", "v4_level1.json"],
    "validate_v4_level2": ["validate", "--json", "v4_level2.json"],
    **{f"preds_k{k}": ["preds", "--k", str(k), "w*3", "system.json"] for k in (1, 2, 3)},
    "rel_json": ["rel", "--json", "--k", "1", "3", "w*3", "system.json"],
    "preds_json": ["preds", "--json", "--k", "1", "w*3", "system.json"],
    "extend_json": ["extend", "--json", "--chain-limit", "1", "--target", "5", "system.json"],
    "extend_text": ["extend", "--to", "w*4", "system.json"],
    "infimum_json": ["infimum", "--json", "chain.json"],
    "generic_json": ["generic", "--json", "system.json", "--kappa", "w^3", "--ell", "2",
                     "--dense", "taller_than:w*5", "--dense", "top_chain_limit:1:5",
                     "--budget", "16"],
    "generic_text": ["generic", "system.json", "--kappa", "w^3", "--ell", "2",
                     "--dense", "taller_than:w*5", "--dense", "top_chain_limit:1:5",
                     "--budget", "16"],
    "selftest_json": ["selftest", "--json", "--systems", "20"],
}


def write_inputs(directory: Path) -> None:
    for name, pattern in PATTERNS.items():
        (directory / f"{name}.json").write_text(json.dumps(pattern_to_dict(pattern)),
                                                encoding="utf-8")
    for name, system in SYSTEMS.items():
        (directory / f"{name}.json").write_text(system_to_json(system), encoding="utf-8")
    for name, chain in CHAINS.items():
        (directory / f"{name}.json").write_text(json.dumps(chain_to_dict(chain)),
                                                encoding="utf-8")


def run_case(directory: Path, argv: list[str]) -> bytes:
    args = [str(directory / a) if a.endswith(".json") else a for a in argv]
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(args)
    return buf.getvalue().encode("utf-8")


def run_demo(demo: Path) -> bytes:
    return subprocess.run([sys.executable, str(demo)], capture_output=True,
                          check=True).stdout


@pytest.fixture
def inputs(tmp_path):
    write_inputs(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(inputs, name):
    assert run_case(inputs, CASES[name]) == (GOLDEN / f"{name}.out").read_bytes()


def test_goldens_survive_a_parse_error_in_between(inputs, capsys):
    """``main`` twice in one process with a parse error in between: the
    parser, built once per process, still gives identical bytes."""
    first = {name: run_case(inputs, argv) for name, argv in CASES.items()}
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    second = {name: run_case(inputs, argv) for name, argv in CASES.items()}
    assert first == second
    assert first == {name: (GOLDEN / f"{name}.out").read_bytes() for name in CASES}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_matches_golden(demo):
    assert run_demo(demo) == (GOLDEN / "demos" / f"{demo.stem}.out").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for name, argv in CASES.items():
            (GOLDEN / f"{name}.out").write_bytes(run_case(Path(tmp), argv))
            print(f"wrote {name}.out", file=sys.stderr)
    (GOLDEN / "demos").mkdir(exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / "demos" / f"{demo.stem}.out").write_bytes(run_demo(demo))
        print(f"wrote demos/{demo.stem}.out", file=sys.stderr)
