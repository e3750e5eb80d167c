"""Deterministic Graphviz export of a level order restricted to display nodes.

The displayed node set is: every exception key and value, every limit
ordinal up to the top when there are at most 10,000 of them (a top below
w*10001), plus any caller-marked points.  Above that no limit is listed, so
the output grows with the keys, not with the top.  An edge alpha -> beta is
drawn when beta is the immediate successor of alpha in the level order among
displayed nodes; the tree property makes the result a forest.  Output lines
are sorted, so equal inputs give equal bytes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from .errors import OutOfBoundsError
from .ordinal import Ordinal, _brief, format_ordinal
from .stability import StabilitySystem, pred_set

LIMITS_BELOW = Ordinal(((1, 10001),))  # w*10001: tops below it list their limits


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
    if top < LIMITS_BELOW:  # top is w*c + n or n, so its limits are w*1 .. w*c
        nodes.update(Ordinal(((1, m),)) for m in range(1, dict(top.terms).get(1, 0) + 1))
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
    terms = [node.terms for node in nodes]
    for j in range(1, len(nodes)):
        # predecessors are linearly ordered, so the parent is the largest
        # smaller node in beta's predecessor set: walk its intervals down
        beta = nodes[j]
        s = pred_set(p, k, beta)
        for lo, hi in zip(reversed(s.lows), reversed(s.highs)):
            i = bisect_left(terms, hi, 0, j) - 1
            if i >= 0 and lo <= terms[i]:
                lines.append(f'  "{format_ordinal(nodes[i])}" -> "{format_ordinal(beta)}";')
                break
    lines.append("}")
    return "\n".join(lines) + "\n"
