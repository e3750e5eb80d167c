import itertools
import random

import pytest

from stabforce import (
    ChainPresentation,
    DenseSet,
    PosetParams,
    StabilitySystem,
    canonical_extend,
    chain_from_dict,
    chain_infimum,
    chain_to_dict,
    dom_f,
    extend_to_chain_limit,
    extends,
    f_eval,
    in_poset,
    meet_dense,
    taller_than,
    top_chain_limit,
    validate,
)
from stabforce.errors import (
    BadTargetError,
    BudgetExhaustedError,
    InvalidIntermediateError,
    NotDescendingError,
    OutOfRangeError,
    TargetNotReachableError,
)
from stabforce.gen import random_chain, random_step, random_system, random_tower
from stabforce.ordinal import OMEGA, Ordinal
from stabforce.ordinal import parse_ordinal as O
from stabforce.poset import _require_valid, extend_with_top_exception
from stabforce.stability import lt_k, probe_points


def test_poset_params_invariants():
    PosetParams(O("w^3"), 1, O("0"))
    with pytest.raises(ValueError):
        PosetParams(O("w^3"), 0, O("0"))
    with pytest.raises(ValueError):
        PosetParams(O("w+1"), 1, O("0"))
    with pytest.raises(ValueError):
        PosetParams(O("w"), 1, O("w"))


def test_in_poset_examples(pstar):
    assert in_poset(pstar, PosetParams(O("w^3"), 1, O("0"))) is True
    assert in_poset(pstar, PosetParams(O("w^3"), 1, O("7"))) is False
    assert in_poset(pstar, PosetParams(O("w*2"), 1, O("0"))) is False
    assert in_poset(pstar, PosetParams(O("w^3"), 1, O("w*3"))) is True  # gamma == top


def _old_in_poset(p, params):
    """``in_poset`` as three branches: the top below kappa, then gamma equal
    to the top or below it in the level-ell order."""
    top = p.top
    if not top < params.kappa:
        return False
    if params.gamma == top:
        return True
    return params.gamma < top and lt_k(p, params.ell, params.gamma, top)


def test_in_poset_matches_the_three_branch_rule():
    """Also with gamma above the top, or at or above the bound, and with ell
    above the depth."""
    rng = random.Random(28)
    checked = 0
    for _ in range(40):
        p = random_system(rng, max_steps=3)
        gammas = probe_points(p, cap=12) + (p.bound, p.top + OMEGA)
        kappas = [k for k in (p.top, p.top + OMEGA, O("w^30")) if k.is_limit]
        for kappa, ell, gamma in itertools.product(kappas, range(1, p.depth + 2), gammas):
            if gamma < kappa:
                params = PosetParams(kappa, ell, gamma)
                assert in_poset(p, params) == _old_in_poset(p, params), (p, params)
                checked += 1
    assert checked > 1000


def test_extends_refuses_level_zero(pstar):
    with pytest.raises(ValueError, match="^ell must be >= 1$"):
        extends(pstar, pstar, 0)


def test_a_lower_bound_never_extends(pstar):
    """The taller system repeats every exception of pstar, so only the bound
    test refuses, before the order test would ask about a point past pstar."""
    taller = canonical_extend(pstar, O("w*5"))
    assert extends(taller, pstar, 1) and not extends(pstar, taller, 1)


def test_extends_examples(pstar, qstar):
    assert extends(pstar, pstar, 1)
    assert extends(pstar, pstar, 3)
    assert extends(qstar, pstar, 2)
    qprime = StabilitySystem(qstar.bound, {**qstar._as_dict(), 1: {O("w*2"): O("5"), O("w"): O("3")}})
    assert extends(qprime, pstar, 2) is False  # new exception below bound(p)


def test_canonical_extend_examples(pstar):
    q = canonical_extend(pstar, O("w*4"))
    assert q.bound == O("w*4+1") and q.levels == pstar.levels
    assert validate(q).valid
    assert canonical_extend(pstar, pstar.top) == pstar
    assert extends(canonical_extend(pstar, O("w^2")), pstar, 3)
    with pytest.raises(OutOfRangeError):
        canonical_extend(pstar, O("w"))


def test_extend_to_chain_limit_examples(pstar, qstar):
    assert extend_to_chain_limit(pstar, 1, O("5")) == qstar
    assert qstar.bound == O("w*4+1")
    assert f_eval(qstar, 2, O("w*4")) == O("5")
    with pytest.raises(TargetNotReachableError):
        extend_to_chain_limit(pstar, 1, O("7"))
    base = StabilitySystem(O("w+1"))
    q = extend_to_chain_limit(base, 1, O("0"))
    assert q.bound == O("w*2+1") and f_eval(q, 2, O("w*2")) == O("0")
    with pytest.raises(OutOfRangeError):
        extend_to_chain_limit(pstar, 1, O("w*4"))


def test_chain_limit_refuses_level_zero(pstar):
    with pytest.raises(ValueError, match="^ell must be >= 1$"):
        extend_to_chain_limit(pstar, 0, O("5"))


def test_chain_presentation_invariants(pstar):
    with pytest.raises(ValueError, match="^chain must list at least one condition$"):
        ChainPresentation(conditions=(), target=O("w*5"))
    with pytest.raises(ValueError, match="^ell must be >= 1$"):
        ChainPresentation(conditions=(pstar,), target=O("w*5"), ell=0)


def test_chain_infimum_examples(pstar, qstar):
    inf = chain_infimum(ChainPresentation((pstar, qstar), O("w*5"), ell=2))
    assert inf.bound == O("w*5+1")
    assert f_eval(inf, 1, O("w*5")) == O("w*5")  # identity at the new top
    assert inf == canonical_extend(qstar, O("w*5"))
    assert extends(inf, pstar, 2) and extends(inf, qstar, 2)

    single = chain_infimum(ChainPresentation((pstar,), O("w^2")))
    assert f_eval(single, 1, O("w^2")) == O("w^2")  # liminf case, identity tail

    corrupted = StabilitySystem(O("w*3+1"), {1: {O("w*2"): O("4")}})
    with pytest.raises(NotDescendingError):
        chain_infimum(ChainPresentation((pstar, corrupted), O("w*5")))


def test_chain_infimum_target_rules(pstar, qstar):
    with pytest.raises(BadTargetError):
        chain_infimum(ChainPresentation((pstar,), O("w")))  # below the top
    with pytest.raises(BadTargetError):
        chain_infimum(ChainPresentation((pstar,), O("w*5+1")))  # successor target
    with pytest.raises(BadTargetError):
        chain_infimum(ChainPresentation((pstar,), O("w*3")))  # equals only top
    # target equal to the last top is allowed once the chain has length >= 2,
    # and gives the last condition itself
    assert chain_infimum(ChainPresentation((pstar, qstar), O("w*4"), ell=2)) is qstar


def test_chain_json_roundtrip(pstar, qstar):
    chain = ChainPresentation((pstar, qstar), O("w*5"), ell=2)
    assert chain_from_dict(chain_to_dict(chain)) == chain
    assert chain_to_dict(chain)["target"] == "w*5"


def test_dense_families(pstar, qstar):
    assert taller_than(O("w*9")).accepts(pstar) is False
    assert taller_than(O("w")).accepts(pstar) is True
    assert top_chain_limit(1, O("5")).accepts(qstar) is True
    assert top_chain_limit(1, O("5")).accepts(pstar) is False


def test_meet_dense_examples(pstar):
    q, trace = meet_dense(pstar, [taller_than(O("w^2"))], 16)
    assert q.top >= O("w^2")
    assert trace[0] == ("start", pstar)

    q2, _ = meet_dense(pstar, [], 4)
    assert q2 == pstar

    with pytest.raises(BudgetExhaustedError):
        meet_dense(pstar, [top_chain_limit(1, O("7"))], 8)


def test_meet_dense_refuses_a_refinement_that_does_not_extend(pstar):
    shorter = StabilitySystem(O("w+1"))
    liar = DenseSet(name="liar", accepts=lambda p: p == shorter, refine=lambda p: shorter)
    with pytest.raises(InvalidIntermediateError,
                       match="^refinement for liar does not extend the current condition$"):
        meet_dense(pstar, [liar], 4)


def test_meet_dense_multiple(pstar):
    dense = [taller_than(O("w*6")), top_chain_limit(1, O("5"))]
    q, trace = meet_dense(pstar, dense, 32)
    assert q.top >= O("w*6")
    # both sets were met at some intermediate step of the descending trace
    assert any(top_chain_limit(1, O("5")).accepts(s) for _, s in trace)
    for (_, a), (_, b) in zip(trace, trace[1:]):
        assert extends(b, a, 1)


def test_meet_dense_trace_reusable_as_chain(pstar):
    from stabforce import chain_from_trace

    q, trace = meet_dense(pstar, [taller_than(O("w*5"))], 16)
    chain = chain_from_trace([s for _, s in trace])
    inf = chain_infimum(chain)
    assert inf == canonical_extend(q, chain.target)


def test_extension_not_membership_preserving(pstar):
    # targeted extensions can leave the poset even though they extend:
    # the new top-level exception cuts the old gamma threshold
    params = PosetParams(O("w^3"), 2, O("5"))
    assert in_poset(pstar, params)
    q = extend_to_chain_limit(pstar, 1, O("0"))
    assert extends(q, pstar, 2)
    assert not in_poset(q, params)
    # canonical extensions add no keys and do preserve membership
    c = canonical_extend(pstar, O("w*9"))
    assert extends(c, pstar, 2) and in_poset(c, params)


def test_extension_transitivity_random_towers():
    rng = random.Random(13)
    for _ in range(120):
        p, q, r, level = random_tower(rng)
        for ell in range(1, level + 1):
            assert extends(q, p, ell)
            assert extends(r, q, ell)
            assert extends(r, p, ell)


def test_random_canonical_extensions_always_extend():
    rng = random.Random(14)
    for _ in range(120):
        p = random_system(rng)
        alpha = p.top + O("w*2")
        q = canonical_extend(p, alpha)
        assert validate(q).valid
        for ell in range(1, p.depth + 3):
            assert extends(q, p, ell)


def test_random_chain_infima_match_canonical():
    rng = random.Random(15)
    for _ in range(80):
        (p, q, r), target = random_chain(rng)
        inf = chain_infimum(ChainPresentation((p, q, r), target))
        assert inf == canonical_extend(r, target)
        for cond in (p, q, r):
            assert extends(inf, cond, 1)
        assert chain_infimum(ChainPresentation((p, q, r), r.top)) is r
        with pytest.raises(BadTargetError):
            chain_infimum(ChainPresentation((r,), r.top))


def test_random_chain_limits_extend_at_the_next_level():
    # extend_to_chain_limit does not re-check its result; this is that check
    rng = random.Random(18)
    made = 0
    for _ in range(25):
        p = random_system(rng, max_steps=4)
        targets = [t for t in probe_points(p) if t <= p.top]
        for ell in range(1, p.depth + 2):
            for t in targets:
                try:
                    q = extend_to_chain_limit(p, ell, t)
                except TargetNotReachableError:
                    continue
                made += 1
                assert extends(q, p, ell + 1)
    assert made >= 200


def test_top_chain_limit_accepts_as_the_guarded_test():
    rng = random.Random(19)
    seen = set()
    for _ in range(40):
        p = random_system(rng)
        top = p.top
        for ell in range(1, p.depth + 2):
            for target in {top, *(v for _, e in p.levels for _, v in e)}:
                guarded = (dom_f(p, ell + 1, top) if top < p.bound else False) and \
                    p.exception_value(ell + 1, top) == target
                assert top_chain_limit(ell, target).accepts(p) == guarded
                seen.add(guarded)
    assert seen == {True, False}


def test_chain_limit_top_is_fresh_limit():
    rng = random.Random(16)
    for _ in range(60):
        p = random_system(rng, max_steps=3)
        q, level = random_step(rng, p)
        if level <= 4:  # chain-limit step
            lam = q.top
            assert lam == p.top + O("w")
            assert dom_f(q, level, lam)


# -- meet_dense against the engine with a search fallback ---------------------------


def _reference_meet_dense(p, dense, budget):
    """Reference engine with a search fallback: when a refiner fails, try one
    canonical step, then a single exception at the new top with value 0 or an
    existing exception value, at every level up to depth + 1."""
    _require_valid(p)
    current = p
    trace = [("start", p)]
    remaining = list(dense)
    spent = 0
    for d in list(remaining):
        if d.accepts(current):
            remaining.remove(d)
    while remaining:
        if spent >= budget:
            raise BudgetExhaustedError(
                f"budget {budget} exhausted with unmet dense sets: "
                + ", ".join(d.name for d in remaining))
        d = remaining[0]
        spent += 1
        try:
            candidate = d.refine(current)
        except (TargetNotReachableError, OutOfRangeError):
            candidate = None
        if candidate is None:
            candidate = _reference_search_step(current, d)
        if candidate is not None and candidate != current:
            if not extends(candidate, current, 1):
                raise InvalidIntermediateError(
                    f"refinement for {d.name} does not extend the current condition")
            current = candidate
            trace.append((d.name, current))
        elif candidate is None:
            current = canonical_extend(current, current.top + OMEGA)
            trace.append((f"{d.name}: step", current))
        for met in list(remaining):
            if met.accepts(current):
                remaining.remove(met)
    return current, tuple(trace)


def _reference_search_step(p, d):
    lam = p.top + OMEGA
    taller = canonical_extend(p, lam)
    if d.accepts(taller):
        return taller
    values = [Ordinal()]
    for _, entries in p.levels:
        values.extend(v for _, v in entries)
    seen = set()
    for value in values:
        if value in seen or not value < lam:
            continue
        seen.add(value)
        for level in range(1, p.depth + 2):
            try:
                q = extend_with_top_exception(p, lam, level, value)
            except (TargetNotReachableError, OutOfRangeError, InvalidIntermediateError):
                continue
            if d.accepts(q):
                return q
    return None


def _random_dense_sets(rng, p):
    values = [O("0"), O("1"), O("5"), p.top, p.top + O("3"), p.top + O("w*2")]
    values += [v for _, entries in p.levels for key, v in entries]
    values += [key for _, entries in p.levels for key, v in entries]
    dense = []
    for _ in range(rng.randrange(1, 4)):
        if rng.random() < 0.4:
            dense.append(taller_than(rng.choice([p.top + Ordinal(((1, rng.randrange(1, 4)),)),
                                                 *values])))
        else:
            dense.append(top_chain_limit(rng.randrange(1, 4), rng.choice(values)))
    return dense


def _outcome(engine, p, dense):
    try:
        return engine(p, dense, 6)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "trace", None)


def test_meet_dense_equals_the_search_fallback_engine():
    rng = random.Random(2718)
    raised = 0
    for _ in range(320):
        p = random_system(rng)
        dense = _random_dense_sets(rng, p)
        got = _outcome(meet_dense, p, dense)
        assert got == _outcome(_reference_meet_dense, p, dense), [d.name for d in dense]
        raised += isinstance(got[0], type)
    assert 0 < raised < 320
