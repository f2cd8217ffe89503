"""The auxiliary bipartite multigraph on pair-vertices and its simple subgraph.

A pair-vertex is a tuple ('A', p, q) or ('B', p, q) with p < q part-local ids.
Each multigraph edge records the shared apex c, the pairing type ('S' for
straight, 'X' for crossed, relative to sorted pair order) and the two
underlying hyperedges.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .core import validate_linear
from .errors import IntegrityError, LinearityError
from .graphs import Graph


class AuxEdge(NamedTuple):
    """One multigraph edge. A tuple of its fields, so ordering, equality
    and hashing follow the field order, and it equals its plain row."""

    u: tuple  # A-side pair-vertex
    w: tuple  # B-side pair-vertex
    apex: int
    pairing: str  # 'S' | 'X'
    h1: tuple
    h2: tuple

    def hyperedges(self):
        return (self.h1, self.h2)


_pair = itemgetter(0, 1)  # a row's (u, w)


@dataclass(frozen=True)
class AuxGraph:
    """The multigraph as sorted plain rows (u, w, apex, pairing, h1, h2), in
    AuxEdge field order, and its pair graph.

    build_aux makes the pair graph in the pass that makes the rows; an
    AuxGraph built by hand from rows or AuxEdges gets it from its rows. The
    pair graph is not compared, so equal rows on equal pair-vertices make
    equal AuxGraphs.
    """

    a_vertices: tuple  # supported A-side pair-vertices
    b_vertices: tuple
    rows: tuple  # the multigraph edges, canonically sorted
    graph: Graph = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.graph is None:
            graph = Graph(vertices=self.a_vertices + self.b_vertices)
            for u, w, *_ in self.rows:
                graph.add_edge(u, w)
            object.__setattr__(self, "graph", graph)

    @cached_property
    def edges(self):
        """The rows as AuxEdges, made the first time they are read."""
        return tuple(map(AuxEdge._make, self.rows))

    @property
    def multi_edge_count(self):
        return len(self.rows)

    def multiplicities(self):
        return Counter(map(_pair, self.rows))

    def kept_edge(self, u, w):
        """The multigraph edge that the pair graph's u-w edge stands for, as an
        AuxEdge: the first straight edge of the pair's run in the sorted rows,
        else the run's first (the smaller apex); None when no edge joins u
        and w. A row that already is an AuxEdge is returned as it is.

        The pair (u, w) sorts before every row it prefixes, so one bisect
        with no key finds the run, and by the multiplicity law the run holds
        at most one more row."""
        rows = self.rows
        pair = (u, w)
        lo = bisect_left(rows, pair)
        if lo == len(rows) or _pair(rows[lo]) != pair:
            return None
        row = rows[lo]
        if row[3] != "S" and lo + 1 < len(rows):
            after = rows[lo + 1]
            if after[3] == "S" and _pair(after) == pair:
                row = after
        return row if isinstance(row, AuxEdge) else AuxEdge._make(row)


def build_aux(lts):
    """Build the pair-vertex multigraph: one row per unordered pair of
    hyperedges through a common apex, and its pair graph in the same pass.

    Raises LinearityError on a non-linear input. Checks the multiplicity law
    (at most 2 parallel edges, distinct pairing types) and the lower bound
    4*|C|*|E'| >= |E|^2 which linearity guarantees, raising IntegrityError.

    Every row through a pair-vertex holds the same tuple for it, and h1/h2
    are the host's own edge tuples.
    """
    verdict = validate_linear(lts)
    if not verdict:
        raise LinearityError(verdict)

    by_apex = {}
    for h in lts.edges:
        by_apex.setdefault(h[2], []).append(h)

    # (p, q) -> its pair-vertex, the pair graph's neighbours of it and, for
    # an A-side pair, the rows through it
    a_pairs = {}
    b_pairs = {}
    parallel = []  # (u, w) of each row whose pair an earlier row joins
    for c in sorted(by_apex):
        # lts.edges is sorted, so the hyperedges through c are in (a, b) order
        for h1, h2 in combinations(by_apex[c], 2):
            a1, b1, _ = h1
            a2, b2, _ = h2
            # linearity makes the a's and b's distinct; a1 < a2 by sorting,
            # so h1 is the smaller hyperedge
            if a1 == a2 or b1 == b2:
                raise IntegrityError(f"apex {c} shares a pair between two hyperedges")
            u_entry = a_pairs.get((a1, a2))
            if u_entry is None:
                u_entry = a_pairs[a1, a2] = (("A", a1, a2), set(), [])
            pairing = "S"
            if b2 < b1:
                pairing = "X"
                b1, b2 = b2, b1
            w_entry = b_pairs.get((b1, b2))
            if w_entry is None:
                w_entry = b_pairs[b1, b2] = (("B", b1, b2), set())
            u, u_nbrs, u_rows = u_entry
            w, w_nbrs = w_entry
            if w in u_nbrs:
                parallel.append((u, w))
            else:
                u_nbrs.add(w)
                w_nbrs.add(u)
            u_rows.append((u, w, c, pairing, h1, h2))
    # the rows sorted as plain tuples, in C: (u, w, apex) is unique by
    # linearity, so this is the AuxEdge field order. Each u's rows are sorted
    # on their own, where comparing two rows starts at w, and joined in u order.
    a_entries = sorted(a_pairs.values())
    rows = []
    for _, _, u_rows in a_entries:
        u_rows.sort()
        rows += u_rows

    # sorted by (u, w, apex), the parallel edges of a pair are consecutive;
    # checked in that order, the first pair that breaks the law is named
    for pair in sorted(parallel):
        lo = bisect_left(rows, pair)  # (u, w) sorts before every row it prefixes
        if rows[lo][3] == rows[lo + 1][3]:
            raise IntegrityError(f"parallel edges between {pair[0]} and {pair[1]} share pairing type")
        if lo + 2 < len(rows) and _pair(rows[lo + 2]) == pair:
            raise IntegrityError(f"more than 2 parallel edges between {pair[0]} and {pair[1]}")

    _check_count(lts, len(rows))

    # the pair graph's adjacency holds its vertices sorted, as
    # Graph(vertices=...) would; the peel sorts its vertices again, which costs
    # little on sorted input
    b_entries = sorted(b_pairs.values())
    graph = Graph()
    graph.adjacency().update([(u, nbrs) for u, nbrs, _ in a_entries] + b_entries)
    return AuxGraph(tuple(u for u, _, _ in a_entries), tuple(w for w, _ in b_entries),
                    tuple(rows), graph)


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
    the multigraph edge it stands for.

    It is the graph that aux was made with, not a copy, so it is read, never
    changed."""
    return aux.graph
