"""The auxiliary bipartite multigraph on pair-vertices and its simple subgraph.

A pair-vertex is a tuple ('A', p, q) or ('B', p, q) with p < q part-local ids.
Each multigraph edge records the shared apex c, the pairing type ('S' for
straight, 'X' for crossed, relative to sorted pair order) and the two
underlying hyperedges.

In a linear system a pair (a, b) lies in at most one hyperedge. So the
straight edge between ('A', a1, a2) and ('B', b1, b2) exists iff the
hyperedges at (a1, b1) and (a2, b2) share an apex, and the crossed edge iff
those at (a1, b2) and (a2, b1) do. A multigraph is therefore kept as its
pair-vertices, its pair graph by rank, its edge count and the host's
(a, b) -> hyperedge index; its edges are read from the index when asked for.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import combinations, groupby
from operator import itemgetter
from typing import NamedTuple

from .core import validate_linear
from .errors import IntegrityError, LinearityError
from .graphs import RankedGraph


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


_pair = itemgetter(0, 1)  # an edge's (u, w); a hyperedge's (a, b)


class AuxGraph:
    """The multigraph of a host that build_aux has checked: its supported
    pair-vertices (each side sorted), its pair graph as a RankedGraph on
    a_vertices + b_vertices, its edge count, and the host's (a, b) ->
    hyperedge index, which kept_edge reads.

    edges, like the pair graph's named adjacency, is a view made the first
    time it is read (by the CLI, the dump and the tests); a solve reads
    neither. Nothing built is changed.
    """

    def __init__(self, a_vertices, b_vertices, graph, multi_edge_count, at):
        self.a_vertices = a_vertices
        self.b_vertices = b_vertices
        self.graph = graph
        self.multi_edge_count = multi_edge_count
        self._at = at

    def __eq__(self, other):
        """Equal edges on equal pair-vertices."""
        if not isinstance(other, AuxGraph):
            return NotImplemented
        return ((self.a_vertices, self.b_vertices, self.edges)
                == (other.a_vertices, other.b_vertices, other.edges))

    __hash__ = None

    def _joins(self, u, w):
        """The rows joining u and w, as a list, the straight one first: at
        most one of each pairing, as the index holds one hyperedge per
        (a, b). Rows join an A pair-vertex u to a B pair-vertex w, so any
        other pair of sides has none."""
        side_u, a1, a2 = u
        side_w, b1, b2 = w
        if side_u != "A" or side_w != "B":
            return []
        at = self._at
        rows = []
        for pairing, x, y in (("S", b1, b2), ("X", b2, b1)):
            h1 = at.get((a1, x))
            h2 = at.get((a2, y))
            if h1 is not None and h2 is not None and h1[2] == h2[2]:
                rows.append((u, w, h1[2], pairing, h1, h2))
        return rows

    def has_vertex(self, v):
        """Whether v is one of the supported pair-vertices."""
        return self.graph.has_vertex(v)

    def kept_edge(self, u, w):
        """The multigraph edge that the pair graph's u-w edge stands for, as an
        AuxEdge: the straight one, else the crossed one; None when no edge
        joins u and w, and always None unless u is an A pair-vertex and w a
        B pair-vertex. It is the first row of _joins, which states the side
        rule and the straight/crossed law once, for kept_edge and edges
        alike."""
        rows = self._joins(u, w)
        return AuxEdge._make(rows[0]) if rows else None

    @cached_property
    def edges(self):
        """The multigraph edges as AuxEdges, sorted."""
        names, nbrs = self.graph.names, self.graph.nbrs
        edges = []
        for u, ws in zip(self.a_vertices, nbrs):
            for j in sorted(ws):
                edges += sorted(map(AuxEdge._make, self._joins(u, names[j])))
        return tuple(edges)


def build_aux(lts):
    """Build the pair-vertex multigraph, one edge per unordered pair of
    hyperedges through a common apex, in one pass over each apex's pairs.

    Raises LinearityError on a non-linear input. Checks the multiplicity law
    (at most 2 parallel edges, distinct pairing types), the count law and
    the lower bound 4*|C|*|E'| >= |E|^2 which linearity guarantees, raising
    IntegrityError.

    The pass keys a pair (p, q) of part-local ids as the integer p*n + q,
    with n the size of its part, so keys sort as pairs do. Pair-vertex ranks
    are the sorted A keys, then the sorted B keys, which is the sorted order
    of the pair-vertices; each gets one name tuple.
    """
    verdict = validate_linear(lts)
    if not verdict:
        raise LinearityError(verdict)

    by_apex = {}
    for h in lts.edges:
        by_apex.setdefault(h[2], []).append(h)

    na, nb, _ = lts.sizes
    # A key -> {B key -> the pairing of the pair's first row}, rows taken in
    # apex order; parallel holds (A key, B key, pairing) of every later row
    joined = {}
    parallel = []
    for c in sorted(by_apex):
        # lts.edges is sorted, so the hyperedges through c are in (a, b) order
        for h1, h2 in combinations(by_apex[c], 2):
            a1, b1, _ = h1
            a2, b2, _ = h2
            # linearity makes the a's and b's distinct; a1 < a2 by sorting,
            # so h1 is the smaller hyperedge
            if a1 == a2 or b1 == b2:
                raise IntegrityError(f"apex {c} shares a pair between two hyperedges")
            if b1 < b2:
                wkey, pairing = b1 * nb + b2, "S"
            else:
                wkey, pairing = b2 * nb + b1, "X"
            ukey = a1 * na + a2
            ws = joined.get(ukey)
            if ws is None:
                joined[ukey] = {wkey: pairing}
            elif wkey in ws:
                parallel.append((ukey, wkey, pairing))
            else:
                ws[wkey] = pairing

    # sorted by pair (a stable sort, so each pair's rows stay in apex order),
    # the first pair that breaks the law is named
    parallel.sort(key=_pair)
    for (ukey, wkey), run in groupby(parallel, _pair):
        pairings = [joined[ukey][wkey]] + [p for _, _, p in run]
        u, w = ("A", *divmod(ukey, na)), ("B", *divmod(wkey, nb))
        if pairings[0] == pairings[1]:
            raise IntegrityError(f"parallel edges between {u} and {w} share pairing type")
        if len(pairings) > 2:
            raise IntegrityError(f"more than 2 parallel edges between {u} and {w}")

    count = sum(map(len, joined.values())) + len(parallel)
    _check_count(lts, count)

    a_keys = sorted(joined)
    b_keys = sorted(set().union(*joined.values()))
    n_a = len(a_keys)
    b_rank = dict(zip(b_keys, range(n_a, n_a + len(b_keys))))
    nbrs = [[b_rank[w] for w in joined[u]] for u in a_keys]
    b_nbrs = [[] for _ in b_keys]
    for r, ws in enumerate(nbrs):
        for j in ws:
            b_nbrs[j - n_a].append(r)
    a_vertices = tuple([("A", *divmod(key, na)) for key in a_keys])
    b_vertices = tuple([("B", *divmod(key, nb)) for key in b_keys])
    return AuxGraph(a_vertices, b_vertices, RankedGraph(a_vertices + b_vertices, nbrs + b_nbrs),
                    count, dict(zip(map(_pair, lts.edges), lts.edges)))


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
    multigraph joins, on all of its pair-vertices, as a RankedGraph.
    aux.kept_edge(u, w) is the multigraph edge it stands for.

    It is the graph that aux was made with, not a copy, so it is read, never
    changed."""
    return aux.graph
