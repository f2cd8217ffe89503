"""The auxiliary bipartite multigraph on pair-vertices and its simple subgraph.

A pair-vertex is a tuple ('A', p, q) or ('B', p, q) with p < q part-local ids.
Each multigraph edge records the shared apex c, the pairing type ('S' for
straight, 'X' for crossed, relative to sorted pair order) and the two
underlying hyperedges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import validate_linear
from .errors import IntegrityError, LinearityError
from .graphs import Graph


@dataclass(frozen=True, order=True)
class AuxEdge:
    u: tuple  # A-side pair-vertex
    w: tuple  # B-side pair-vertex
    apex: int
    pairing: str  # 'S' | 'X'
    h1: tuple
    h2: tuple

    def hyperedges(self):
        return (self.h1, self.h2)


@dataclass(frozen=True)
class AuxGraph:
    a_vertices: tuple  # supported A-side pair-vertices
    b_vertices: tuple
    edges: tuple  # AuxEdge multiset, canonically sorted

    @property
    def multi_edge_count(self):
        return len(self.edges)

    def multiplicities(self):
        mult = {}
        for ed in self.edges:
            mult[(ed.u, ed.w)] = mult.get((ed.u, ed.w), 0) + 1
        return mult


@dataclass
class SimpleSubgraph:
    """One kept AuxEdge per pair of pair-vertices, with the annotation map."""

    graph: Graph
    annot: dict  # (u, w) -> AuxEdge


def build_aux(lts):
    """Build the pair-vertex multigraph: one edge per unordered pair of
    hyperedges through a common apex.

    Raises LinearityError on a non-linear input. Asserts the multiplicity
    law (at most 2 parallel edges, distinct pairing types) and the lower
    bound 4*|C|*|E'| >= |E|^2 which linearity guarantees.
    """
    verdict = validate_linear(lts)
    if not verdict:
        raise LinearityError(verdict)

    by_apex = {}
    for a, b, c in lts.edges:
        by_apex.setdefault(c, []).append((a, b))

    rows = []
    for c in sorted(by_apex):
        incident = sorted(by_apex[c])
        for (a1, b1), (a2, b2) in combinations(incident, 2):
            # linearity makes the a's and b's distinct; a1 < a2 by sorting
            if a1 == a2 or b1 == b2:
                raise IntegrityError(f"apex {c} shares a pair between two hyperedges")
            u = ("A", a1, a2)
            w = ("B", min(b1, b2), max(b1, b2))
            pairing = "S" if b1 < b2 else "X"
            h1, h2 = sorted(((a1, b1, c), (a2, b2, c)))
            rows.append((u, w, c, pairing, h1, h2))
    # plain tuples sort in C; (u, w, apex) is unique by linearity, so this is
    # the AuxEdge field order
    rows.sort()
    edges = [AuxEdge(*row) for row in rows]

    mult = {}
    for ed in edges:
        mult.setdefault((ed.u, ed.w), []).append(ed)
    for (u, w), parallel in mult.items():
        if len(parallel) > 2:
            raise IntegrityError(f"multiplicity {len(parallel)} between {u} and {w}")
        if len(parallel) == 2 and parallel[0].pairing == parallel[1].pairing:
            raise IntegrityError(f"parallel edges between {u} and {w} share pairing type")

    degrees = lts.apex_degrees()
    expected = sum(d * (d - 1) // 2 for d in degrees)
    if len(edges) != expected:
        raise IntegrityError(f"multi-edge count {len(edges)} != sum of C(d(c),2) = {expected}")
    # the |E|^2/(4|C|) lower bound needs average apex degree >= 2
    n_c = lts.sizes[2]
    if n_c > 0 and lts.m >= 2 * n_c and 4 * n_c * len(edges) < lts.m * lts.m:
        raise IntegrityError("multi-edge count fell below |E|^2 / (4|C|)")

    a_vs = tuple(sorted({ed.u for ed in edges}))
    b_vs = tuple(sorted({ed.w for ed in edges}))
    return AuxGraph(a_vs, b_vs, tuple(edges))


def simple_subgraph(aux):
    """Keep one parallel edge per pair-vertex pair: prefer straight pairing,
    then the smaller apex id."""
    groups = {}
    for ed in aux.edges:
        groups.setdefault((ed.u, ed.w), []).append(ed)
    g = Graph(vertices=aux.a_vertices + aux.b_vertices)
    annot = {}
    for (u, w), parallel in sorted(groups.items()):
        kept = min(parallel, key=lambda ed: (ed.pairing != "S", ed.apex))
        g.add_edge(u, w)
        annot[(u, w)] = kept
    return SimpleSubgraph(g, annot)
