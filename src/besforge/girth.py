"""Growth of exactly-(2,t)-degenerate bipartite graphs of prescribed girth.

Vertices are labeled 0..k-1 in construction order. The first t form an
independent set; each later vertex joins the smaller bipartition side and
attaches to two vertices of the larger side that have degree at most 7 and
no path of length at most g-2 between them. So a GrowthCertificate holds only
t and the lines (v, u1, u2) for v = t, t+1, ...; side_of is the side rule.

Each side keeps an open list of its members of degree at most 7, in
insertion order, updated as vertices join and fill up, so a step does not
rescan the side. A step draws its candidate pairs as rng.sample(open, 2)
would, with the same random draws, and writes the new vertex straight into
the graph's adjacency sets. The two candidates lie on one side, so their
distance is even, and the test asks for distance at most g - 2 rounded down
to even: the same pairs pass, and g = 2j + 1 costs what g = 2j costs. The
distance test is graphs.within_distance. Up to distance 4 (g <= 7) it is a
few set operations: the ball of radius 2 around one end is a union of
neighbour sets, tested for a shared vertex with the other end's neighbours'
neighbour sets. Beyond that it meets in the middle: a ball of half the
radius around one end, then a search of the other half from the other end,
each with its outermost level done as set operations.

girth_of checks a grown graph without that test. It numbers the vertices in
descending (degree, vertex) order, with rank-indexed neighbour lists, and
decides bipartiteness by one stack 2-colouring of those lists. It runs a
breadth-first search from each root in that order, and a search skips the
roots before its own, as if each were deleted once its search is done, so
the hubs go first and every later search explores a smaller graph. A search
expanding depth d can only close cycles of length 2d + 1 or 2d + 2, so it
stops at the first depth with 2d + 1 >= best, or 2d + 2 >= best in a
bipartite graph, which has no odd cycle.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .errors import GrowthError, IntegrityError, ParameterError
from .graphs import Graph, within_distance

_PAIR_DEGREE_CAP = 7
_MAX_DEGREE = _PAIR_DEGREE_CAP + 1  # what the open lists let a degree reach
_RANDOM_ATTEMPTS = 128


@dataclass(frozen=True)
class GrowthCertificate:
    t: int  # seed count: vertices 0..t-1
    attachments: tuple  # (v, u1, u2) for v = t, t+1, ... in order


def side_of(v):
    """The side vertex v joins: the smaller one, A on ties, so A and B alternate."""
    return "AB"[v % 2]


def grow_girth_graph(k, t, g, seed=0):
    """Grow a k-vertex graph of girth > g; returns (Graph, GrowthCertificate).

    A new vertex's two anchors are more than g - 2 apart, so no cycle through
    it has length g or less.

    Raises GrowthError when no valid attachment pair exists at some step,
    which signals that t is too small for this g at this size.
    """
    if not (k >= t >= 1):
        raise ParameterError("need k >= t >= 1")
    if g < 3:
        raise ParameterError("girth target must be at least 3")
    rng = random.Random(seed)
    graph = Graph()
    # the growth writes the graph's own adjacency sets, vertex by vertex, so
    # graph.n and graph.degree stay current for _pick_pair
    adj = graph.adjacency()
    # per side, the members of degree at most _PAIR_DEGREE_CAP in insertion
    # order: exactly the vertices a new vertex of the other side may attach to
    open_members = {"A": [], "B": []}
    attachments = []

    for v in range(t):
        adj[v] = set()
        open_members[side_of(v)].append(v)

    for v in range(t, k):
        s = side_of(v)
        other = "B" if s == "A" else "A"
        eligible = open_members[other]
        pair = _pick_pair(graph, eligible, g, rng)
        if pair is None:
            raise GrowthError(v, graph.n)
        u1, u2 = pair
        adj[v] = {u1, u2}
        adj[u1].add(v)
        adj[u2].add(v)
        attachments.append((v, u1, u2))
        open_members[s].append(v)
        for u in (u1, u2):
            # degrees grow by one per attachment, so u leaves the open list
            # at the attachment that takes it one past the cap
            if len(adj[u]) == _PAIR_DEGREE_CAP + 1:
                eligible.remove(u)
        if len(adj[u1]) > _MAX_DEGREE or len(adj[u2]) > _MAX_DEGREE:
            raise IntegrityError(f"degree cap {_MAX_DEGREE} violated at step {v}")

    return graph, GrowthCertificate(t, tuple(attachments))


def _pick_pair(graph, eligible, g, rng):
    # the candidates all lie on one side, so their distance is even and
    # "at most g - 2" is "at most g - 2 rounded down to even"
    limit = g - 2 - g % 2
    if len(eligible) < 2:
        return None
    for _ in range(_RANDOM_ATTEMPTS):
        u, w = _draw_two(eligible, rng)
        if not within_distance(graph, u, w, limit):
            return (min(u, w), max(u, w))
    pairs = [(u, w) for i, u in enumerate(eligible) for w in eligible[i + 1 :]]
    rng.shuffle(pairs)
    for u, w in pairs:
        if not within_distance(graph, u, w, limit):
            return (u, w)
    return None


def _draw_two(seq, rng):
    """The two items rng.sample(seq, 2) returns, taken from the same random
    draws by rng.randrange, without sample's type check and pool copy."""
    n = len(seq)
    i = rng.randrange(n)
    if n <= 21:
        # sample's pool branch: the second draw is from the n - 1 items left
        # once the last item has moved into the first one's place
        j = rng.randrange(n - 1)
        if j == i:
            j = n - 1
    else:
        # sample's set branch: redraw until the index is new
        j = rng.randrange(n)
        while j == i:
            j = rng.randrange(n)
    return seq[i], seq[j]


def two_coloring(nbrs):
    """A stack 2-colouring of rank-indexed neighbour lists as a list rank ->
    0/1, or None if the graph is not bipartite: graphs.two_coloring over the
    lists girth_of builds, with no vertex names."""
    color = [-1] * len(nbrs)
    for root in range(len(nbrs)):
        if color[root] >= 0:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            c = 1 - color[u]
            for w in nbrs[u]:
                if color[w] < 0:
                    color[w] = c
                    stack.append(w)
                elif color[w] != c:
                    return None
    return color


def girth_of(graph):
    """Exact girth; None for acyclic graphs. The caller's graph is not changed.

    Roots are searched in descending (degree, vertex) order. The vertices are
    numbered once in that order, with rank-indexed neighbour lists, and the
    search from rank r skips every rank below r, which deletes each root from
    the graph once its search is done. Expanding u at depth d, a search
    reports d + dist[w] + 1 for each neighbour w already reached at depth d
    or d + 1.

    This is exact:
    - Deletion adds no edge, and a report closes a walk of two search-tree
      paths and an edge outside the tree, which holds a cycle, so every
      report is at least the girth.
    - A shortest cycle stays whole until the first of its vertices in root
      order is searched, and in what is left it is still a shortest cycle,
      so its vertices are as far apart there as along it. That search
      reports a cycle of length 2j + 1 through the edge joining its two
      vertices at depth j, and one of length 2j when the second of the
      antipode's two cycle neighbours (at depth j - 1) is expanded.
    - A neighbour w at depth d - 1 is u's parent, or reported 2d when it was
      expanded, since u was reached by then, so skipping it loses nothing.
    - So while depth d is expanded, every report still to come is 2d + 1 (an
      edge within level d) or 2d + 2, and a search stops at the first u with
      2 * dist[u] + 1 >= best. A bipartite graph has no closed walk of odd
      length, so there the rule is 2 * dist[u] + 2 >= best; one two_coloring
      pass over the rank lists decides which rule applies. The depth d that
      reports a shortest cycle of length L has 2d + 1 <= L, and 2d + 2 <= L
      when L is even, so the search that reports L runs until it has.
    """
    adj = graph.adjacency()
    order = sorted(adj, key=lambda v: (len(adj[v]), v), reverse=True)
    rank = dict(zip(order, range(len(order)))).__getitem__
    nbrs = [list(map(rank, adj[v])) for v in order]
    slack = 1 if two_coloring(nbrs) is None else 2
    # dist[w] is w's depth in the search whose root rank is seen[w]
    dist = [0] * len(order)
    seen = [-1] * len(order)
    best = None
    for root in range(len(order)):
        seen[root] = root
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            d = dist[u]
            if best is not None and 2 * d + slack >= best:
                break
            for w in nbrs[u]:
                if w < root:
                    continue
                if seen[w] != root:
                    seen[w] = root
                    dist[w] = d + 1
                    queue.append(w)
                elif dist[w] >= d:
                    cycle = d + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
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
