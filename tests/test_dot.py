import random

from stabforce import StabilitySystem, lt_k
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
