"""One op and one correctness check per workload.

An op takes an input item (JSON text made at set-up) and returns an outcome
``(code, stdout, stderr)``: code 0 is a normal verdict, 1 is "a check failed"
(the CLI's exit 1: a failed check, budget exhausted, target unreachable), and
anything else is an error.  The checks run outside the timed region on fresh
objects and never reuse the op's objects or caches.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from stabforce import cli
from stabforce.errors import BudgetExhaustedError
from stabforce.oracle import BruteEvaluator, MAX_MULTIPLE
from stabforce.ordinal import ONE, Ordinal, parse_ordinal
from stabforce.poset import (
    chain_from_dict,
    chain_infimum,
    extends,
    meet_dense,
    taller_than,
    top_chain_limit,
)
from stabforce.stability import (
    check_predecessor_laws,
    check_tree_properties,
    is_k_lim2,
    is_k_limit,
    le_k,
    lt_k,
    pred_set,
    probe_points,
    system_from_dict,
    system_from_json,
    system_to_dict,
    validate,
)

Outcome = tuple[int, str, str]


def _spread(points, count: int) -> list:
    """``count`` points spread evenly over a sorted sequence."""
    step = max(1, len(points) // count)
    return list(points[::step])


def _lt_matches_pred(text: str, cap: int) -> bool:
    """lt_k(g, k, a, b) equals pred_set(g, k, b).member(a) on a probe sample.

    The two sides run on separately parsed systems so neither sees the other's
    caches."""
    g_lt, g_pred = system_from_json(text), system_from_json(text)
    pts = _spread(probe_points(g_lt), cap)
    for k in range(1, g_lt.depth + 2):
        for b in pts:
            s = pred_set(g_pred, k, b)
            if any(lt_k(g_lt, k, a, b) != s.member(a) for a in pts):
                return False
    return True


# -- construct: cli simulate on a pattern file ---------------------------------


def construct_op(item: dict) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["simulate", item["path"], "--grid", item["grid"], "--json"])
    return code, out.getvalue(), err.getvalue()


def construct_check(item: dict, outcome: Outcome) -> bool:
    code, out, err = outcome
    if code == 1 and not out:
        return err.startswith("target not reachable")
    payload = json.loads(out)
    passed = payload["requirements"]["passed"] and payload["stablePairs"]["passed"]
    if (code == 0) != passed or "minimality" not in payload:
        return False
    return _lt_matches_pred(json.dumps(payload["system"]), cap=10)


# -- query: a batch of order queries on one large system ---------------------------


def query_op(item: dict) -> Outcome:
    g = system_from_json(item["system"])
    batch = json.loads(item["batch"])
    pts = [parse_ordinal(t) for t in batch["points"]]
    answers: list = []
    for q in batch["queries"]:
        kind, k = q[0], q[1]
        if kind == "lt":
            answers.append(lt_k(g, k, pts[q[2]], pts[q[3]]))
        elif kind == "le":
            answers.append(le_k(g, k, pts[q[2]], pts[q[3]]))
        elif kind == "pred":
            answers.append(str(pred_set(g, k, pts[q[2]])))
        elif kind == "lim":
            answers.append(is_k_limit(g, k, pts[q[2]]))
        else:
            answers.append(is_k_lim2(g, k, pts[q[2]]))
    return 0, json.dumps(answers), ""


def query_check(item: dict, outcome: Outcome) -> bool:
    """Each lt/le answer against pred_set membership, and each predecessor set
    against lt_k on a sample of points, on separately parsed systems."""
    code, out, _ = outcome
    if code != 0:
        return False
    g_lt, g_pred = system_from_json(item["system"]), system_from_json(item["system"])
    batch = json.loads(item["batch"])
    pts = [parse_ordinal(t) for t in batch["points"]]
    sample = _spread(pts, 8)
    preds: dict = {}

    def pred(k: int, j: int):
        if (k, j) not in preds:
            preds[k, j] = pred_set(g_pred, k, pts[j])
        return preds[k, j]

    for q, answer in zip(batch["queries"], json.loads(out), strict=True):
        kind, k, j = q[0], q[1], q[-1]
        s = pred(k, j)
        if kind in ("lt", "le"):
            a = pts[q[2]]
            if answer != (s.member(a) or (kind == "le" and a == pts[j])):
                return False
        elif kind == "pred":
            if answer != str(s) or any(s.member(a) != lt_k(g_lt, k, a, pts[j]) for a in sample):
                return False
        elif kind == "lim":
            if answer != (not s.is_empty and not s.has_max()):
                return False
        elif answer and not (not s.is_empty and not s.has_max()):
            return False  # a lim2 point is in particular a limit point
    return _lt_matches_pred(item["system"], cap=12)


# -- corpus: the selftest path on one tiny system ----------------------------------


def _dense_sets(d: dict):
    return [taller_than(parse_ordinal(d["taller"])),
            top_chain_limit(d["ell"], parse_ordinal(d["value"]))]


def corpus_op(item: dict) -> Outcome:
    d = json.loads(item["item"])
    p = system_from_dict(d["system"])
    result: dict = {"valid": validate(p).valid}
    pts = probe_points(p, extra=[parse_ordinal(t) for t in d["limits"]])
    grid = []
    for k in range(1, min(p.depth + 1, 4) + 1):
        for a in pts:
            grid.append([is_k_limit(p, k, a), str(pred_set(p, k, a)),
                         [lt_k(p, k, a, b) for b in pts]])
    result["grid"] = grid
    probe = probe_points(p, cap=12)
    result["laws"] = [check_tree_properties(p, k, probe).passed
                      and check_predecessor_laws(p, k).passed
                      for k in range(1, p.depth + 1)]
    tp, tq, tr = (system_from_dict(s) for s in d["tower"])
    result["tower"] = [extends(tq, tp, ell) and extends(tr, tq, ell) and extends(tr, tp, ell)
                       for ell in range(1, d["level"] + 1)]
    result["infimum"] = system_to_dict(chain_infimum(chain_from_dict(d["chain"])))
    dense = d["dense"]
    try:
        q, trace = meet_dense(p, _dense_sets(dense), dense["budget"])
        result["generic"] = [[label, system_to_dict(s)] for label, s in trace]
    except BudgetExhaustedError:
        result["generic"] = None
    ok = all(result["laws"]) and all(result["tower"]) and result["generic"] is not None
    return (0 if ok else 1), json.dumps(result), ""


_BRUTE_CAP = Ordinal(((1, MAX_MULTIPLE),))


def corpus_check(item: dict, outcome: Outcome) -> bool:
    """Every grid answer and the validity verdict against BruteEvaluator; the
    infimum and the generic descent against their definitions."""
    code, out, _ = outcome
    if code not in (0, 1):
        return False
    d = json.loads(item["item"])
    result = json.loads(out)
    p = system_from_dict(d["system"])
    ev = BruteEvaluator(p)
    if result["valid"] != ev.validate().valid:
        return False
    pts = probe_points(p, extra=[parse_ordinal(t) for t in d["limits"]])
    expect = [[ev.is_k_limit(k, a), str(ev.pred_set(k, a)), [ev.lt(k, a, b) for b in pts]]
              for k in range(1, min(p.depth + 1, 4) + 1) for a in pts]
    if result["grid"] != expect:
        return False
    # the infimum of an eventually canonical chain adds no exception: the last
    # condition's maps, with the target as the new top
    chain = d["chain"]
    last = system_from_dict(chain["chain"][-1])
    inf = system_from_dict(result["infimum"])
    if inf.levels != last.levels or inf.bound != parse_ordinal(chain["target"]) + ONE:
        return False
    if result["generic"] is None:
        return code == 1
    # a generic descent meets each dense set somewhere along its trace, which
    # starts at p and only adds exceptions at or above each previous bound
    trace = [system_from_dict(s) for _, s in result["generic"]]
    if trace[0] != p or not all(any(ds.accepts(q) for q in trace) for ds in _dense_sets(d["dense"])):
        return False
    for prev, nxt in zip(trace, trace[1:]):
        kept = {(k, g, v) for k, e in nxt.levels for g, v in e if g < prev.bound}
        if not prev.bound <= nxt.bound or kept != {(k, g, v) for k, e in prev.levels for g, v in e}:
            return False
    return all(q.bound >= _BRUTE_CAP or BruteEvaluator(q).validate().valid for q in trace)


# name -> (op, check, whether the op's stdout is the CLI's)
WORKLOADS = {
    "construct": (construct_op, construct_check, True),
    "query": (query_op, query_check, False),
    "corpus": (corpus_op, corpus_check, False),
}
