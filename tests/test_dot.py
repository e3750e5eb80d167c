import random
import time

from stabforce import StabilitySystem, dot, lt_k
from stabforce.dot import _display_nodes, export_dot
from stabforce.gen import random_system
from stabforce.ordinal import Ordinal, format_ordinal
from stabforce.ordinal import parse_ordinal as O


def scan_edges(p, k, marks):
    """The parent edges of ``export_dot`` as the scan over every smaller node
    found them before the search walked each node's predecessor set."""
    nodes = _display_nodes(p, marks)
    lines = []
    for j, beta in enumerate(nodes):
        parent = None
        for alpha in nodes[:j]:
            if lt_k(p, k, alpha, beta):
                parent = alpha  # predecessors are linearly ordered; keep the largest
        if parent is not None:
            lines.append(f'  "{format_ordinal(parent)}" -> "{format_ordinal(beta)}";')
    return lines


def edges(text):
    return [line for line in text.splitlines() if " -> " in line and "//" not in line]


def test_parent_search_matches_scan():
    rng = random.Random(13)
    systems = [StabilitySystem(O("w*3+1"), {1: {O("w*2"): O("5")}}),
               StabilitySystem(O("w*40+1"))]
    systems += [random_system(rng) for _ in range(300)]
    cases = parented = 0
    for p in systems:
        top, small = p.top, Ordinal.from_int(rng.randrange(4))
        marks = (top, small) if small <= top else (top,)
        for k in range(1, p.depth + 2):
            for m in ((), marks):
                got = edges(export_dot(p, k, m))
                assert got == scan_edges(p, k, m), (p, k, m)
                cases += 1
                parented += len(got)
    assert cases > 2000 and parented > 7000


def uncapped_display_nodes(p, marks):
    """``_display_nodes`` as it was before the cap on listed limits: every
    w*m up to any top below w^2."""
    top = p.top
    nodes = {top} | {x for _, entries in p.levels for entry in entries for x in entry}
    nodes |= set(marks)
    if top < O("w^2"):
        m = 1
        while Ordinal(((1, m),)) <= top:
            nodes.add(Ordinal(((1, m),)))
            m += 1
    return sorted(nodes, key=lambda a: a.terms)


def test_listed_limits_below_the_cap_are_unchanged(monkeypatch):
    """Up to 10,000 listed limits, the output is byte for byte the uncapped
    one, here for tops up to w*1600 and every random system."""
    rng = random.Random(17)
    systems = [StabilitySystem(O("w*1600+1")),
               StabilitySystem(O("w*1600+1"), {1: {O("w*1500"): O("w*7+3")},
                                               2: {O("w*9"): O("4")}})]
    systems += [random_system(rng) for _ in range(40)]
    for p in systems:
        for k in (1, 2):
            got = export_dot(p, k, (p.top,))
            with monkeypatch.context() as m:
                m.setattr(dot, "_display_nodes", uncapped_display_nodes)
                assert got == export_dot(p, k, (p.top,)), (p, k)


def test_a_top_above_the_cap_lists_no_limits():
    """At most 10,000 limits are listed; a top with a larger w-coefficient
    lists none, so the output holds only its keys, values and top."""
    assert len(_display_nodes(StabilitySystem(O("w*10000+1")), ())) == 10000
    assert len(_display_nodes(StabilitySystem(O("w*10000+6")), ())) == 10001
    assert len(_display_nodes(StabilitySystem(O("w*10001+1")), ())) == 1
    p = StabilitySystem(O("w*100000000+1"), {1: {O("w*3"): O("5")}})
    start = time.perf_counter()
    text = export_dot(p, 1)
    assert time.perf_counter() - start < 2.0  # 10^8 listed limits would take minutes
    assert [line for line in text.splitlines() if line.startswith('  "')] == [
        '  "5";', '  "w*3" [shape=box];', '  "w*100000000";', '  "5" -> "w*3";',
        '  "w*3" -> "w*100000000";']
