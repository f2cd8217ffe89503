"""The row-building build_aux that the ranked one replaced, kept as the
reference for its named views, its kept edges and its pair graph.

Every unordered pair of hyperedges through a common apex is a row
(u, w, apex, pairing, h1, h2) in AuxEdge field order; the rows are sorted, and
the pair graph is a plain Graph with one edge per joined pair of
pair-vertices. It runs none of the self-checks.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import combinations
from operator import itemgetter
from types import SimpleNamespace

from besforge import AuxEdge, Graph

_pair = itemgetter(0, 1)


def reference_aux(lts):
    """The multigraph of lts as a namespace of a_vertices, b_vertices, rows,
    edges, multi_edge_count, multiplicities, graph and kept_edge(u, w)."""
    by_apex = {}
    for h in lts.edges:
        by_apex.setdefault(h[2], []).append(h)
    rows = []
    for c, hs in by_apex.items():
        for h1, h2 in combinations(hs, 2):
            (a1, b1, _), (a2, b2, _) = h1, h2
            pairing = "S" if b1 < b2 else "X"
            rows.append((("A", a1, a2), ("B", min(b1, b2), max(b1, b2)), c, pairing, h1, h2))
    rows.sort()
    a_vertices = tuple(sorted({row[0] for row in rows}))
    b_vertices = tuple(sorted({row[1] for row in rows}))
    graph = Graph(vertices=a_vertices + b_vertices, edges=map(_pair, rows))

    def kept_edge(u, w):
        """The first straight row of the pair's run, else its first, found
        by two bisects keyed on each row's (u, w)."""
        lo = bisect_left(rows, (u, w), key=_pair)
        hi = bisect_right(rows, (u, w), lo, key=_pair)
        if lo == hi:
            return None
        return AuxEdge._make(next((r for r in rows[lo:hi] if r[3] == "S"), rows[lo]))

    return SimpleNamespace(
        a_vertices=a_vertices, b_vertices=b_vertices, rows=tuple(rows),
        edges=tuple(map(AuxEdge._make, rows)), multi_edge_count=len(rows),
        multiplicities=Counter(map(_pair, rows)), graph=graph, kept_edge=kept_edge,
    )
