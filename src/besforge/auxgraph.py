"""The auxiliary bipartite multigraph on pair-vertices and its simple subgraph.

A pair-vertex is a tuple ('A', p, q) or ('B', p, q) with p < q part-local ids.
Each multigraph edge records the shared apex c, the pairing type ('S' for
straight, 'X' for crossed, relative to sorted pair order) and the two
underlying hyperedges.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
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


_pair = itemgetter(0, 1)  # an AuxEdge's (u, w)


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

    def kept_edge(self, u, w):
        """The multigraph edge that the pair graph's u-w edge stands for: the
        first straight edge of the pair's run in the sorted edges, else the
        run's first (the smaller apex); None when no edge joins u and w."""
        lo = bisect_left(self.edges, (u, w), key=_pair)
        run = self.edges[lo : bisect_right(self.edges, (u, w), lo, key=_pair)]
        return next((ed for ed in run if ed.pairing == "S"), run[0] if run else None)

    def restricted(self, residual):
        """The multigraph of `residual`, a system whose edges are some of the
        host's: the edges whose two hyperedges are both in residual, on the
        pair-vertices they support. Equals build_aux(residual).

        Runs build_aux's self-checks on residual against the kept edges:
        linearity, the count law and the lower bound, each raising
        IntegrityError.
        """
        verdict = validate_linear(residual)
        if not verdict:
            raise IntegrityError(f"residual system is not linear: {LinearityError(verdict)}")
        left = set(residual.edges)
        edges = tuple(ed for ed in self.edges if ed.h1 in left and ed.h2 in left)
        _check_count(residual, len(edges))
        return AuxGraph(
            tuple(sorted({ed.u for ed in edges})), tuple(sorted({ed.w for ed in edges})), edges
        )


def build_aux(lts):
    """Build the pair-vertex multigraph: one edge per unordered pair of
    hyperedges through a common apex.

    Raises LinearityError on a non-linear input. Asserts the multiplicity
    law (at most 2 parallel edges, distinct pairing types) and the lower
    bound 4*|C|*|E'| >= |E|^2 which linearity guarantees.

    Every edge through a pair-vertex holds the same tuple for it, and h1/h2
    are the host's own edge tuples.
    """
    verdict = validate_linear(lts)
    if not verdict:
        raise LinearityError(verdict)

    by_apex = {}
    for h in lts.edges:
        by_apex.setdefault(h[2], []).append(h)

    a_pairs = {}  # (p, q) -> its pair-vertex
    b_pairs = {}
    rows = []
    for c in sorted(by_apex):
        # the hyperedges share c, so this sorts them by (a, b)
        for h1, h2 in combinations(sorted(by_apex[c]), 2):
            a1, b1, _ = h1
            a2, b2, _ = h2
            # linearity makes the a's and b's distinct; a1 < a2 by sorting,
            # so h1 is the smaller hyperedge
            if a1 == a2 or b1 == b2:
                raise IntegrityError(f"apex {c} shares a pair between two hyperedges")
            u = a_pairs.get((a1, a2))
            if u is None:
                u = a_pairs[a1, a2] = ("A", a1, a2)
            pairing = "S"
            if b2 < b1:
                pairing = "X"
                b1, b2 = b2, b1
            w = b_pairs.get((b1, b2))
            if w is None:
                w = b_pairs[b1, b2] = ("B", b1, b2)
            rows.append((u, w, c, pairing, h1, h2))
    # plain tuples sort in C; (u, w, apex) is unique by linearity, so this is
    # the AuxEdge field order
    rows.sort()
    edges = tuple(map(AuxEdge._make, rows))

    # sorted by (u, w, apex), the parallel edges of a pair are consecutive
    run = 1
    for prev, ed in zip(edges, edges[1:]):
        if ed.u != prev.u or ed.w != prev.w:
            run = 1
            continue
        run += 1
        if run > 2:
            raise IntegrityError(f"more than 2 parallel edges between {ed.u} and {ed.w}")
        if ed.pairing == prev.pairing:
            raise IntegrityError(f"parallel edges between {ed.u} and {ed.w} share pairing type")

    _check_count(lts, len(edges))

    return AuxGraph(tuple(sorted(a_pairs.values())), tuple(sorted(b_pairs.values())), edges)


def _check_count(lts, count):
    """The count law (count = sum of C(d(c), 2)) and the lower bound
    4*|C|*count >= |E|^2 for `count` multigraph edges on lts.

    Degrees are counted over the apexes in lts.edges, not over all of C,
    whose size comes from the input header."""
    degrees = Counter(c for _, _, c in lts.edges)
    expected = sum(d * (d - 1) // 2 for d in degrees.values())
    if count != expected:
        raise IntegrityError(f"multi-edge count {count} != sum of C(d(c),2) = {expected}")
    # the |E|^2/(4|C|) lower bound needs average apex degree >= 2
    n_c = lts.sizes[2]
    if n_c > 0 and lts.m >= 2 * n_c and 4 * n_c * count < lts.m * lts.m:
        raise IntegrityError("multi-edge count fell below |E|^2 / (4|C|)")


def simple_subgraph(aux):
    """The pair graph: one u-w edge for each pair of pair-vertices the
    multigraph joins, on all of its pair-vertices. aux.kept_edge(u, w) is
    the multigraph edge it stands for."""
    g = Graph(vertices=aux.a_vertices + aux.b_vertices)
    adj = g.adjacency()
    for ed in aux.edges:
        adj[ed.u].add(ed.w)
        adj[ed.w].add(ed.u)
    return g
