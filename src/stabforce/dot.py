"""Deterministic Graphviz export of a level order restricted to display nodes.

The displayed node set is: every exception key, every limit ordinal up to the
top when those are finitely enumerable (top below w^2), plus any caller-marked
points.  An edge alpha -> beta is drawn when beta is the immediate successor
of alpha in the level order among displayed nodes; the tree property makes the
result a forest.  Output lines are sorted, so equal inputs give equal bytes.
"""

from __future__ import annotations

from typing import Iterable

from .errors import OutOfBoundsError
from .ordinal import Ordinal, _brief, format_ordinal
from .stability import StabilitySystem, lt_k

W_SQUARED = Ordinal(((2, 1),))


def _display_nodes(p: StabilitySystem, marks: Iterable[Ordinal]) -> list[Ordinal]:
    top = p.top
    nodes = {top}
    for _, entries in p.levels:
        for g, v in entries:
            nodes.add(g)
            nodes.add(v)
    for m in marks:
        if not m <= top:
            raise OutOfBoundsError(f"mark {_brief(format_ordinal(m))} is above the top "
                                   f"{_brief(format_ordinal(top))}")
        nodes.add(m)
    if top < W_SQUARED:
        m = 1
        while True:
            lam = Ordinal(((1, m),))
            if not lam <= top:
                break
            nodes.add(lam)
            m += 1
    return sorted(nodes, key=lambda a: a.terms)


def export_dot(p: StabilitySystem, k: int, marks: Iterable[Ordinal] = ()) -> str:
    marks = tuple(marks)
    nodes = _display_nodes(p, marks)
    keys = {g: (lvl, v) for lvl, entries in p.levels for g, v in entries}
    lines = [f"digraph level{k} {{", "  rankdir=BT;"]
    for lvl, entries in p.levels:
        for g, v in entries:
            lines.append(f"  // exception: level {lvl}, {format_ordinal(g)} -> {format_ordinal(v)}")
    for node in nodes:
        attrs = []
        if node in keys:
            attrs.append("shape=box")
        if node in marks:
            attrs.append("penwidth=2")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{format_ordinal(node)}"{suffix};')
    for j, beta in enumerate(nodes):
        parent = None
        for alpha in nodes[:j]:
            if lt_k(p, k, alpha, beta):
                parent = alpha  # predecessors are linearly ordered; keep the largest
        if parent is not None:
            lines.append(f'  "{format_ordinal(parent)}" -> "{format_ordinal(beta)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
