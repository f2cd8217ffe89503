"""The auxiliary bipartite multigraph on pair-vertices and its simple subgraph.

A pair-vertex is a tuple ('A', p, q) or ('B', p, q) with p < q part-local ids.
Each multigraph edge records the shared apex c, the pairing type ('S' for
straight, 'X' for crossed, relative to sorted pair order) and the two
underlying hyperedges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

from .core import validate_linear
from .errors import IntegrityError, LinearityError
from .graphs import Graph


class AuxEdge(NamedTuple):
    """One multigraph edge. A tuple of its fields, so ordering, equality
    and hashing follow the field order."""

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
    """One kept AuxEdge per pair of pair-vertices, with the annotation map.

    `multi_edges` are the multigraph edges it was built from and
    `multi_edge_count` counts those that remain; `remove_hyperedges` shrinks
    the graph, the annotation and the count in place. simple_subgraph sets
    both; a subgraph built without them can be read but not shrunk.
    """

    graph: Graph
    annot: dict  # (u, w) -> AuxEdge
    multi_edge_count: int = None
    multi_edges: tuple = field(default=None, repr=False, compare=False)
    # the index the first remove_hyperedges call builds over multi_edges:
    # hyperedge -> its multigraph edges (removed ones included),
    # (u, w) -> its remaining parallel edges
    _by_hyperedge: dict = field(default=None, repr=False, compare=False)
    _parallel: dict = field(default=None, repr=False, compare=False)

    def remove_hyperedges(self, used, residual):
        """Shrink to the simple subgraph of `residual`, the system this one
        describes without the hyperedges `used`.

        Drops the multigraph edges through a used hyperedge, re-picks the kept
        edge of each pair that lost one, and deletes a pair's edge once it has
        none left and a pair-vertex once it has no edge. The result equals
        simple_subgraph(build_aux(residual)). Then runs build_aux's
        self-checks on `residual` against the remaining multigraph edges:
        linearity, the count law and the lower bound, each raising
        IntegrityError.
        """
        if self.multi_edges is None:
            raise IntegrityError("cannot shrink a simple subgraph built without its multigraph edges")
        if self._by_hyperedge is None:
            self._by_hyperedge = by_hyperedge = {}
            self._parallel = parallel = {}
            for ed in self.multi_edges:
                by_hyperedge.setdefault(ed.h1, []).append(ed)
                by_hyperedge.setdefault(ed.h2, []).append(ed)
                parallel.setdefault((ed.u, ed.w), []).append(ed)
        used = set(used)
        touched = {(ed.u, ed.w) for h in used for ed in self._by_hyperedge.pop(h, ())}
        graph = self.graph
        for key in touched:
            parallel = self._parallel.get(key)
            if parallel is None:
                continue  # emptied by an earlier call
            rest = [ed for ed in parallel if ed.h1 not in used and ed.h2 not in used]
            self.multi_edge_count -= len(parallel) - len(rest)
            if rest:
                # a pair has at most two parallel edges and this one has just
                # lost one, so the kept-edge rule picks the survivor
                self._parallel[key] = rest
                self.annot[key] = rest[0]
                continue
            del self._parallel[key]
            del self.annot[key]
            u, w = key
            graph.remove_edge(u, w)
            for v in key:
                if not graph.degree(v):
                    graph.remove_vertex(v)

        verdict = validate_linear(residual)
        if not verdict:
            raise IntegrityError(f"residual system is not linear: {LinearityError(verdict)}")
        _check_count(residual, self.multi_edge_count)


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
            # linearity makes the a's and b's distinct; a1 < a2 by sorting,
            # so (a1, b1, c) is the smaller hyperedge
            if a1 == a2 or b1 == b2:
                raise IntegrityError(f"apex {c} shares a pair between two hyperedges")
            if b1 < b2:
                rows.append((("A", a1, a2), ("B", b1, b2), c, "S", (a1, b1, c), (a2, b2, c)))
            else:
                rows.append((("A", a1, a2), ("B", b2, b1), c, "X", (a1, b1, c), (a2, b2, c)))
    # plain tuples sort in C; (u, w, apex) is unique by linearity, so this is
    # the AuxEdge field order
    rows.sort()
    edges = list(map(AuxEdge._make, rows))

    mult = {}
    for ed in edges:
        mult.setdefault((ed.u, ed.w), []).append(ed)
    for (u, w), parallel in mult.items():
        if len(parallel) > 2:
            raise IntegrityError(f"multiplicity {len(parallel)} between {u} and {w}")
        if len(parallel) == 2 and parallel[0].pairing == parallel[1].pairing:
            raise IntegrityError(f"parallel edges between {u} and {w} share pairing type")

    _check_count(lts, len(edges))

    a_vs = tuple(sorted({ed.u for ed in edges}))
    b_vs = tuple(sorted({ed.w for ed in edges}))
    return AuxGraph(a_vs, b_vs, tuple(edges))


def _check_count(lts, count):
    """The count law (count = sum of C(d(c), 2)) and the lower bound
    4*|C|*count >= |E|^2 for `count` multigraph edges on lts."""
    expected = sum(d * (d - 1) // 2 for d in lts.apex_degrees())
    if count != expected:
        raise IntegrityError(f"multi-edge count {count} != sum of C(d(c),2) = {expected}")
    # the |E|^2/(4|C|) lower bound needs average apex degree >= 2
    n_c = lts.sizes[2]
    if n_c > 0 and lts.m >= 2 * n_c and 4 * n_c * count < lts.m * lts.m:
        raise IntegrityError("multi-edge count fell below |E|^2 / (4|C|)")


def simple_subgraph(aux):
    """Keep one parallel edge per pair-vertex pair: prefer straight pairing,
    then the smaller apex id.

    aux.edges are sorted by (u, w, apex), so the parallel edges of a pair
    come in a run ordered by apex; the kept edge is the run's first straight
    edge, or else its first edge.
    """
    g = Graph(vertices=aux.a_vertices + aux.b_vertices)
    adj = g.adjacency()
    annot = {}
    for ed in aux.edges:
        key = (ed.u, ed.w)
        kept = annot.get(key)
        if kept is None:
            annot[key] = ed
            adj[ed.u].add(ed.w)
            adj[ed.w].add(ed.u)
        elif ed.pairing == "S" and kept.pairing != "S":
            annot[key] = ed
    return SimpleSubgraph(g, annot, len(aux.edges), aux.edges)
