"""Growth of exactly-(2,t)-degenerate bipartite graphs of prescribed girth.

Vertices are labeled 0..k-1 in construction order. The first t form an
independent set; each later vertex joins the smaller bipartition side and
attaches to two vertices of the larger side that have degree at most 7 and
no path of length at most g-2 between them. So a GrowthCertificate holds only
t and the lines (v, u1, u2) for v = t, t+1, ...; side_of is the side rule.

Each side keeps an open list of its members of degree at most 7, in
insertion order, updated as vertices join and fill up, so a step does not
rescan the side. The distance test is graphs.within_distance, which meets
in the middle: a ball of half the radius around one end, then a search of
the other half from the other end.

girth_of checks a grown graph without that test. It runs a breadth-first
search from each root in descending (degree, vertex) order and deletes each
root from a private copy of the adjacency once its search is done, so the
hubs go first and every later search explores a smaller graph.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .errors import GrowthError, IntegrityError, ParameterError
from .graphs import Graph, within_distance

_MAX_DEGREE = 8
_PAIR_DEGREE_CAP = 7
_RANDOM_ATTEMPTS = 128


@dataclass(frozen=True)
class GrowthCertificate:
    t: int  # seed count: vertices 0..t-1
    attachments: tuple  # (v, u1, u2) for v = t, t+1, ... in order


def side_of(v):
    """The side vertex v joins: the smaller one, A on ties, so A and B alternate."""
    return "AB"[v % 2]


def grow_girth_graph(k, t, g, seed=0):
    """Grow a k-vertex graph of girth >= g; returns (Graph, GrowthCertificate).

    Raises GrowthError when no valid attachment pair exists at some step,
    which signals that t is too small for this g at this size.
    """
    if not (k >= t >= 1):
        raise ParameterError("need k >= t >= 1")
    if g < 3:
        raise ParameterError("girth target must be at least 3")
    rng = random.Random(seed)
    graph = Graph()
    # per side, the members of degree at most _PAIR_DEGREE_CAP in insertion
    # order: exactly the vertices a new vertex of the other side may attach to
    open_members = {"A": [], "B": []}
    attachments = []

    for v in range(t):
        s = side_of(v)
        graph.add_vertex(v)
        open_members[s].append(v)

    for v in range(t, k):
        s = side_of(v)
        other = "B" if s == "A" else "A"
        eligible = open_members[other]
        pair = _pick_pair(graph, eligible, g, rng)
        if pair is None:
            raise GrowthError(v, graph.n)
        u1, u2 = pair
        graph.add_vertex(v)
        graph.add_edge(v, u1)
        graph.add_edge(v, u2)
        attachments.append((v, u1, u2))
        open_members[s].append(v)
        for u in (u1, u2):
            # degrees grow by one per attachment, so u leaves the open list
            # at the attachment that takes it one past the cap
            if graph.degree(u) == _PAIR_DEGREE_CAP + 1:
                eligible.remove(u)
        if graph.degree(u1) > _MAX_DEGREE or graph.degree(u2) > _MAX_DEGREE:
            raise IntegrityError(f"degree cap {_MAX_DEGREE} violated at step {v}")

    return graph, GrowthCertificate(t, tuple(attachments))


def _pick_pair(graph, eligible, g, rng):
    limit = g - 2
    if len(eligible) < 2:
        return None
    for _ in range(_RANDOM_ATTEMPTS):
        u, w = rng.sample(eligible, 2)
        if not within_distance(graph, u, w, limit):
            return (min(u, w), max(u, w))
    pairs = [(u, w) for i, u in enumerate(eligible) for w in eligible[i + 1 :]]
    rng.shuffle(pairs)
    for u, w in pairs:
        if not within_distance(graph, u, w, limit):
            return (u, w)
    return None


def girth_of(graph):
    """Exact girth; None for acyclic graphs. The caller's graph is not changed.

    Roots are searched in descending (degree, vertex) order, and each root is
    deleted from a working copy of the adjacency after its search. A search
    stops at the first vertex u with 2 * dist[u] >= best. This is exact:
    deletion adds no edge, so every reported length is that of a closed walk
    in the input and at least the girth; a shortest cycle stays whole until
    the first of its vertices in root order is searched; and a search from a
    vertex on a shortest cycle reports exactly the girth.
    """
    best = None
    adj = {v: list(nbrs) for v, nbrs in graph.adjacency().items()}
    for root in sorted(adj, key=lambda v: (len(adj[v]), v), reverse=True):
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best:
                break
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cycle = dist[u] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
        for w in adj.pop(root):
            adj[w].remove(root)
    return best


def verify_certificate(graph, cert):
    """Replay a growth certificate against a graph; True iff it checks out."""
    t = cert.t
    k = t + len(cert.attachments)
    # compare the counts before building anything sized by t, which is input
    if t < 0 or graph.n != k or graph.adjacency().keys() != set(range(k)):
        return False
    for v, (w, u1, u2) in enumerate(cert.attachments, start=t):
        if w != v or u1 == u2 or not (0 <= u1 < v and 0 <= u2 < v):
            return False
        # each built edge is in the graph and joins an A and a B vertex
        if not (graph.has_edge(v, u1) and graph.has_edge(v, u2)):
            return False
        if side_of(v) == side_of(u1) or side_of(v) == side_of(u2):
            return False
    # the built edges are distinct (each joins a new v to two distinct earlier
    # vertices), so the simple graph has no other edge iff it has 2(k - t):
    # seeds are then mutually non-adjacent, and the sides are a 2-colouring,
    # so the graph is bipartite without a search
    return graph.m == 2 * (k - t)


def find_growth_t(k, g, seed=0):
    """Double t until growth succeeds for the requested k and g.

    Returns (t, graph, certificate). The existence threshold t(g) is not
    known in closed form, so this is the practical substitute.
    """
    t = 2
    while t <= k:
        try:
            graph, cert = grow_girth_graph(k, t, g, seed=seed)
            return t, graph, cert
        except GrowthError:
            t *= 2
    graph, cert = grow_girth_graph(k, k, g, seed=seed)
    return k, graph, cert
