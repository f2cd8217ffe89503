"""Small simple-graph containers shared by the pair-graph, search and girth code."""

from __future__ import annotations

from functools import cached_property


def canon_edge(u, v):
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected simple graph on hashable, mutually comparable vertices."""

    __slots__ = ("_adj",)

    def __init__(self, vertices=(), edges=()):
        self._adj = {}
        for v in vertices:
            self._adj.setdefault(v, set())
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u, v):
        if u == v:
            raise ValueError("loops are not allowed")
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)

    @property
    def vertices(self):
        return tuple(sorted(self._adj))

    @property
    def edges(self):
        return tuple(sorted(canon_edge(u, v) for u in self._adj for v in self._adj[u] if u < v))

    @property
    def n(self):
        return len(self._adj)

    @property
    def m(self):
        return sum(len(s) for s in self._adj.values()) // 2

    def has_edge(self, u, v):
        return u in self._adj and v in self._adj[u]

    def adjacency(self):
        return self._adj


class RankedGraph:
    """Undirected simple graph held by rank: vertex i is names[i], with names
    sorted, and nbrs[i] lists the ranks of its neighbours, so comparing ranks
    compares vertices. The searches read only the ranks.

    It answers every read-only Graph query (vertices, edges, n, m, has_edge
    and adjacency), which the CLI, the tests and CandidateF.validate make of
    a pair graph, and has_vertex, which unpack makes. The name -> rank dict
    behind has_vertex and has_edge and the named adjacency are made the
    first time they are read.
    """

    def __init__(self, names, nbrs):
        self.names = names
        self.nbrs = nbrs

    @property
    def vertices(self):
        return self.names

    @property
    def edges(self):
        names = self.names
        pairs = sorted((i, j) for i, ws in enumerate(self.nbrs) for j in ws if i < j)
        return tuple((names[i], names[j]) for i, j in pairs)

    @property
    def n(self):
        return len(self.names)

    @property
    def m(self):
        return sum(map(len, self.nbrs)) // 2

    @cached_property
    def _rank(self):
        return dict(zip(self.names, range(len(self.names))))

    def has_vertex(self, v):
        return v in self._rank

    def has_edge(self, u, v):
        rank = self._rank
        i, j = rank.get(u), rank.get(v)
        return i is not None and j is not None and j in self.nbrs[i]

    @cached_property
    def _adj(self):
        names = self.names
        return {v: {names[j] for j in ws} for v, ws in zip(names, self.nbrs)}

    def adjacency(self):
        return self._adj


def ranked(g):
    """g as a RankedGraph: g itself if it is one, else ranked once."""
    if isinstance(g, RankedGraph):
        return g
    adj = g.adjacency()
    names = tuple(sorted(adj))
    rank = {v: i for i, v in enumerate(names)}
    return RankedGraph(names, [[rank[w] for w in adj[v]] for v in names])


def within_distance(g, u, v, limit):
    """True iff there is a u-v path of length at most limit.

    A name that is not a vertex of g, on either side, is reached by no path
    unless u == v, where the path of length 0 needs no vertex.

    Limits up to 4 are set tests on neighbour sets: limit 2 asks whether
    adj[u] meets adj[v]; limits 3 and 4 take the ball of radius 2 around u
    as one union of neighbour sets and ask whether it meets adj[v] (limit 3)
    or adj[b] for some b in adj[v] (limit 4).

    Larger limits meet in the middle: collect the ball of radius
    ceil(limit/2) around u, then search out from v to radius floor(limit/2)
    and stop at the first vertex inside that ball. Each search does its
    outermost level as set operations: the ball's last level is one set
    update per vertex of the level before it, and a vertex x that the search
    from v has reached closes a path iff the ball meets adj[x], so the last
    level of that search is one isdisjoint test per frontier vertex, with no
    loop over its neighbours.
    """
    if u == v:
        return True
    if limit <= 0:
        return False
    adj = g.adjacency()
    near = adj.get(u)
    target = adj.get(v)
    if near is None or target is None:
        return False
    if v in near:
        return True
    if limit == 1:
        return False
    if limit == 2:
        return not near.isdisjoint(target)
    if limit <= 4:
        ball = set(near)
        for x in near:
            ball |= adj[x]
        if limit == 3:
            return not ball.isdisjoint(target)
        for b in target:
            if not ball.isdisjoint(adj[b]):
                return True
        return False
    ball = {u}
    frontier = [u]
    for _ in range((limit - 1) // 2):
        nxt = []
        for x in frontier:
            for w in adj[x]:
                if w not in ball:
                    ball.add(w)
                    nxt.append(w)
        frontier = nxt
    for x in frontier:
        ball.update(adj[x])
    if v in ball:
        return True
    seen = {v}
    frontier = [v]
    for _ in range(limit // 2 - 1):
        nxt = []
        for x in frontier:
            nbrs = adj[x]
            if not ball.isdisjoint(nbrs):
                return True
            for w in nbrs:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    for x in frontier:
        if not ball.isdisjoint(adj[x]):
            return True
    return False
