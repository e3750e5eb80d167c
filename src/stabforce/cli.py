"""Command-line surface: validation, order queries, extensions, simulation.

Exit codes: 0 success, 1 a validator or check failed (or an extension target
is unreachable), 2 malformed input, 3 internal error (an unexpected exception,
which is a bug; one line on stderr), 141 (128 + SIGPIPE) stdout was closed
before the output was written, e.g. by ``| head``; nothing is printed then.
Every command takes --json for machine output; identical invocations produce
identical bytes.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from functools import cache
from typing import Callable

from .dot import export_dot
from .errors import (
    BudgetExhaustedError,
    InvalidConditionError,
    InvalidIntermediateError,
    NotDescendingError,
    OrdinalSyntaxError,
    TargetNotReachableError,
)
from .gen import mutate_system, random_chain, random_system, random_tower
from .oracle import BruteEvaluator
from .ordinal import Ordinal, _brief, _format_terms, _nat, format_ordinal, parse_ordinal
from .poset import (
    ChainPresentation,
    PosetParams,
    canonical_extend,
    chain_from_dict,
    chain_infimum,
    extend_to_chain_limit,
    extends,
    in_poset,
    meet_dense,
    taller_than,
    top_chain_limit,
)
from .simulate import (
    check_stable_pairs,
    check_requirements,
    minimality_report,
    minimality_to_dict,
    pattern_from_dict,
    result_payload,
    run_construction,
    validate_pattern,
)
from .stability import (
    StabilitySystem,
    _json_text,
    _read_json,
    check_predecessor_laws,
    check_tree_properties,
    is_k_limit,
    lt_k,
    pred_set,
    probe_points,
    system_from_dict,
    system_to_json,
    validate,
)

OK, CHECK_FAILED, INPUT_ERROR, INTERNAL_ERROR, BROKEN_PIPE = 0, 1, 2, 3, 141

# exit 1 with this stderr prefix; matched before the ValueErrors of _INPUT_ERRORS
_CHECK_FAILURES = {TargetNotReachableError: "target not reachable",
                   NotDescendingError: "not a descending chain",
                   BudgetExhaustedError: "budget exhausted",
                   InvalidConditionError: "check failed",
                   InvalidIntermediateError: "check failed"}
_INPUT_ERRORS = (ValueError, OSError, argparse.ArgumentTypeError)
_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """A decimal integer argument.  The error names the text's length or digit
    count and never echoes it, however long it is."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not a decimal integer ({len(text)} characters)")
    try:
        return _nat(text)
    except OrdinalSyntaxError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _ordinals(text: str | None) -> list[Ordinal]:
    """A comma-separated ordinal list option.  An empty or absent value is no
    points; an empty term inside a list is an input error."""
    return [parse_ordinal(t) for t in text.split(",")] if text else []


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _read_json(fh.read())


def _load_system(path: str) -> StabilitySystem:
    return system_from_dict(_load_json(path))


def _emit(as_json: bool, payload: Callable[[], dict], human: Callable[[], str]) -> None:
    """Print ``payload()`` as JSON text under --json, else the text
    ``human()``; only the one printed is built."""
    if as_json:
        print(_json_text(payload()))
    else:
        text = human()
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_validate(args) -> int:
    p = _load_system(args.system)
    report = validate(p)
    _emit(args.json, report.to_dict,
          lambda: "valid" if report.valid else "\n".join(map(str, report.violations)))
    return OK if report.valid else CHECK_FAILED


def cmd_rel(args) -> int:
    p = _load_system(args.system)
    a = parse_ordinal(args.a)
    b = parse_ordinal(args.b)
    res = lt_k(p, args.k, a, b)
    _emit(args.json, lambda: {"k": args.k, "a": args.a, "b": args.b, "lt": res},
          lambda: "true" if res else "false")
    return OK


def cmd_preds(args) -> int:
    p = _load_system(args.system)
    b = parse_ordinal(args.b)
    s = pred_set(p, args.k, b)
    _emit(args.json,
          lambda: {"k": args.k, "b": args.b,
                   "intervals": [[_format_terms(lo), _format_terms(hi)]
                                 for lo, hi in zip(s.lows, s.highs)]},
          lambda: str(s))
    return OK


def cmd_extend(args) -> int:
    if (args.to is None) == (args.chain_limit is None) or \
            (args.chain_limit is not None and args.target is None):
        raise ValueError("extend needs either --to, or --chain-limit with --target")
    p = _load_system(args.system)
    if args.to is not None:
        q = canonical_extend(p, parse_ordinal(args.to))
    else:
        q = extend_to_chain_limit(p, args.chain_limit, parse_ordinal(args.target))
    print(system_to_json(q))  # a system file, with or without --json
    return OK


def cmd_infimum(args) -> int:
    chain = chain_from_dict(_load_json(args.chain))
    q = chain_infimum(chain)
    print(system_to_json(q))  # a system file, with or without --json
    return OK


def _parse_dense(spec: str):
    parts = spec.split(":")
    if parts[0] == "taller_than" and len(parts) == 2:
        return taller_than(parse_ordinal(parts[1]))
    if parts[0] == "top_chain_limit" and len(parts) == 3:
        return top_chain_limit(_integer(parts[1]), parse_ordinal(parts[2]))
    raise ValueError(f"unknown dense-set spec {_brief(spec)!r} "
                     "(use taller_than:<ord> or top_chain_limit:<ell>:<ord>)")


def cmd_generic(args) -> int:
    p = _load_system(args.system)
    dense = [_parse_dense(s) for s in args.dense or ()]
    params = None
    if any(v is not None for v in (args.kappa, args.ell, args.gamma)):
        if args.kappa is None:
            raise ValueError("poset membership checks need --kappa")
        params = PosetParams(kappa=parse_ordinal(args.kappa),
                             ell=args.ell if args.ell is not None else 1,
                             gamma=parse_ordinal(args.gamma or "0"))
        if not in_poset(p, params):
            print(f"condition is not in P({_brief(format_ordinal(params.kappa))}, {params.ell}, "
                  f"{_brief(format_ordinal(params.gamma))})", file=sys.stderr)
            return CHECK_FAILED
    q, trace = meet_dense(p, dense, args.budget)
    member = in_poset(q, params) if params is not None else None

    def payload() -> dict:
        out = {"system": q,
               "trace": [{"step": label, "top": format_ordinal(s.top)}
                         for label, s in trace]}
        if params is not None:
            out["inPoset"] = member
        return out

    def human() -> str:
        lines = [f"{label}: top {s.top}" for label, s in trace]
        if params is not None:
            lines.append(f"result in P({params.kappa}, {params.ell}, {params.gamma}): "
                         f"{'yes' if member else 'no'}")
        return "\n".join(lines) + "\n" + system_to_json(q)

    _emit(args.json, payload, human)
    return OK


def cmd_simulate(args) -> int:
    pattern = pattern_from_dict(_load_json(args.pattern))
    grid = _ordinals(args.grid)
    pat_report = validate_pattern(pattern)
    if not pat_report.passed:
        _emit(args.json, pat_report.to_dict,
              lambda: "\n".join(map(str, pat_report.violations)))
        return CHECK_FAILED
    result = run_construction(pattern)
    reqs = check_requirements(result, pattern)
    pairs = check_stable_pairs(result, pattern)
    rep = minimality_report(result, grid) if args.grid else None

    def payload() -> dict:
        out = result_payload(result)
        out["requirements"] = reqs.to_dict()
        out["stablePairs"] = pairs.to_dict()
        if rep is not None:
            out["minimality"] = minimality_to_dict(rep)
        return out

    def human() -> str:
        lines = [f"point {o.pos}: ell={o.ell} gamma={o.gamma} alpha={o.alpha}"
                 for o in result.per_point]
        lines.append(f"requirements: {'PASS' if reqs.passed else 'FAIL'}")
        lines.append(f"stable-pair ordering: {'PASS' if pairs.passed else 'FAIL'}")
        if rep is not None:
            for f in rep.fates:
                if f.blocked_at:
                    lvl, key, value = f.blocked_at
                    lines.append(f"{f.alpha}: blocked at level {lvl} by {key} -> {value}")
                else:
                    lines.append(f"{f.alpha}: "
                                 f"{'survives' if f.settled else 'beyond settled region'}")
            lines.append("survivors: " + (", ".join(str(a) for a in rep.survivors) or "none"))
        return "\n".join(lines)

    _emit(args.json, payload, human)
    return OK if reqs.passed and pairs.passed else CHECK_FAILED


def cmd_export_dot(args) -> int:
    p = _load_system(args.system)
    sys.stdout.write(export_dot(p, args.k, _ordinals(args.mark)))
    return OK


def _selftest_failures(seed: int, systems: int) -> list[str]:
    if systems < 0:
        raise ValueError("systems must be >= 0")
    rng = random.Random(seed)
    failures: list[str] = []

    for i in range(systems):
        p = random_system(rng, small=True)
        ev = BruteEvaluator(p)
        pts = probe_points(p, extra=ev.limits)
        for k in range(1, min(p.depth + 1, 4) + 1):
            for a in pts:
                if ev.is_k_limit(k, a) != is_k_limit(p, k, a):
                    failures.append(f"oracle is_k_limit mismatch (system {i}, k={k}, {a})")
                if ev.pred_set(k, a) != pred_set(p, k, a):
                    failures.append(f"oracle pred_set mismatch (system {i}, k={k}, {a})")
                for b in pts:
                    if ev.lt(k, a, b) != lt_k(p, k, a, b):
                        failures.append(f"oracle lt mismatch (system {i}, k={k}, {a}, {b})")
        mutant = mutate_system(rng, p)
        if BruteEvaluator(mutant).validate().valid != validate(mutant).valid:
            failures.append(f"oracle validate mismatch (system {i})")

    for i in range(systems):
        p = random_system(rng)
        probe = probe_points(p, cap=12)
        for k in range(1, p.depth + 1):
            rep = check_tree_properties(p, k, probe)
            if not rep.passed:
                failures.append(f"tree property violation (system {i}, k={k})")
            rep2 = check_predecessor_laws(p, k)
            if not rep2.passed:
                failures.append(f"largest-predecessor violation (system {i}, k={k})")

    for i in range(max(systems // 2, 20)):
        p, q, r, level = random_tower(rng)
        for ell in range(1, level + 1):
            if not (extends(q, p, ell) and extends(r, q, ell) and extends(r, p, ell)):
                failures.append(f"extension transitivity failure (tower {i}, ell={ell})")

    for i in range(max(systems // 2, 20)):
        (p, q, r), target = random_chain(rng)
        chain = ChainPresentation(conditions=(p, q, r), target=target)
        inf = chain_infimum(chain)
        for cond in (p, q, r):
            if not extends(inf, cond, 1):
                failures.append(f"chain infimum does not extend member (chain {i})")
    return failures


def cmd_selftest(args) -> int:
    failures = _selftest_failures(args.seed, args.systems)
    suites = ["oracle differential", "tree/order properties",
              "extension towers", "chain infima"]
    _emit(args.json, lambda: {"failures": failures, "passed": not failures},
          lambda: "\n".join(f"FAIL {f}" for f in failures)
          or f"PASS {', '.join(suites)} ({args.systems} systems, seed {args.seed})")
    return OK if not failures else CHECK_FAILED


class _ArgumentParser(argparse.ArgumentParser):
    """argparse drops the "--" of "--opt=--" and hands the option an empty
    list; this parser reports it as the missing value it is."""

    def _get_values(self, action, arg_strings):
        if arg_strings == ["--"] and action.option_strings:
            self.error(f"argument {action.option_strings[-1]}: expected one argument")
        return super()._get_values(action, arg_strings)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process and reused by ``main``."""
    parser = _ArgumentParser(
        prog="stabforce",
        description="Exact queries over stability systems and their forcing poset.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", cmd_validate, "run the structural checks on a system file")
    sp.add_argument("system")

    sp = add("rel", cmd_rel, "decide a <_k b")
    sp.add_argument("--k", type=_integer, required=True)
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("system")

    sp = add("preds", cmd_preds, "predecessor interval set of b at level k")
    sp.add_argument("--k", type=_integer, required=True)
    sp.add_argument("b")
    sp.add_argument("system")

    sp = add("extend", cmd_extend, "canonical or chain-limit extension")
    sp.add_argument("--to", help="canonical extension target top")
    sp.add_argument("--chain-limit", type=_integer, help="level for a chain-limit extension")
    sp.add_argument("--target", help="value recorded at the new top")
    sp.add_argument("system")

    sp = add("infimum", cmd_infimum, "infimum of a finitely presented chain")
    sp.add_argument("chain")

    sp = add("generic", cmd_generic, "descend below a condition meeting dense sets")
    sp.add_argument("system")
    sp.add_argument("--dense", action="append",
                    help="taller_than:<ord> or top_chain_limit:<ell>:<ord>")
    sp.add_argument("--budget", type=_integer, default=32)
    sp.add_argument("--kappa", help="poset bound for a membership check")
    sp.add_argument("--ell", type=_integer, help="poset level (default 1)")
    sp.add_argument("--gamma", help="poset threshold (default 0)")

    sp = add("simulate", cmd_simulate, "replay the construction over a pattern file")
    sp.add_argument("pattern")
    sp.add_argument("--grid", help="comma-separated ordinals for the survivor analysis")

    sp = add("export-dot", cmd_export_dot, "Graphviz view of a level order")
    sp.add_argument("--k", type=_integer, required=True)
    sp.add_argument("--mark", help="comma-separated ordinals to highlight")
    sp.add_argument("system")

    sp = add("selftest", cmd_selftest, "differential and property suites")
    sp.add_argument("--seed", type=_integer, default=0)
    sp.add_argument("--systems", type=_integer, default=60)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at
        # interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except tuple(_CHECK_FAILURES) as exc:
        print(f"{_CHECK_FAILURES[type(exc)]}: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as exc:  # a bug, not bad input: one line, and never exit 1
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
