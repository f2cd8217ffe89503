"""Degeneracy machinery and the search for dense 2-degenerate subgraphs.

A candidate is an ordered vertex list v1..vk and, per vertex, the at most
two earlier neighbours it keeps: the 2-degeneracy certificate itself, read
as it is by validate and by the unpacking. The quality measure is the number
of kept edges (equivalently achieved_t = 2k - kept edges, smaller is denser).

Every search turns a vertex ordering into a candidate through _candidate,
the one place that keeps at most two back-edges per vertex. The 'peel'
search scans windows of the degeneracy ordering, trims each window it peels
once, and stops at the first trim that meets the target t, not at the
densest window overall; when no window meets it, it returns the densest
trim. The 'exhaustive' search is exact and serves as the oracle on small
hosts; the tests check it against a reference that enumerates vertex
subsets (tests/reference_degsearch.py).

A bipartite 2-degenerate graph on k >= 3 vertices has at most 2k - 4 edges:
in a certifying order the first three vertices add at most 2 edges between
them, as a triangle is not bipartite, and every later vertex at most 2. A
pair graph is bipartite, so on it achieved_t >= 4 for k >= 3, and a target
t < 4 is never met there; the goal is not capped, so such a 'peel' scan
runs to its last window.

The searches work on a RankedGraph: vertex ranks follow vertex order, so
the (degree, rank) tie-breaks and the order of window vertices are those of
the vertices themselves, and a window is a list of ranks with no dict of
names. A plain Graph is ranked once at entry; a pair graph already is one.
Names are made only for the vertices of a candidate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import accumulate

from .errors import GuardExceededError, ParameterError
from .graphs import canon_edge, ranked

STRATEGIES = ("peel", "exhaustive")
_DP_VERTEX_CAP = 20


@dataclass(frozen=True)
class DegeneracyOrdering:
    order: tuple
    back_degrees: tuple  # edges to earlier vertices, per position
    degeneracy: int
    ranks: tuple = field(default=None, compare=False, repr=False)  # order by rank


@dataclass(frozen=True)
class CandidateF:
    vertices: tuple  # construction order v1..vk
    back: tuple  # back[i]: the earlier neighbours vertices[i] keeps, at most two

    @property
    def k(self):
        return len(self.vertices)

    @property
    def achieved_t(self):
        return 2 * self.k - sum(map(len, self.back))

    @cached_property
    def edges(self):
        """The kept edges as sorted canonical pairs, made when first read."""
        return tuple(sorted(canon_edge(u, v) for v, us in zip(self.vertices, self.back) for u in us))

    def validate(self, host):
        """Raise if the candidate is not a 2-degeneracy-certified subgraph of
        host, which may be any graph; on a RankedGraph host, each edge is
        read from the rank lists. No side rule is checked: a pair graph
        joins only A to B pair-vertices, so an edge it has crosses sides."""
        pos = {v: i for i, v in enumerate(self.vertices)}
        if len(pos) != self.k:
            raise ParameterError("repeated vertices in candidate")
        if len(self.back) != self.k:
            raise ParameterError(f"{len(self.back)} back-neighbour lists for {self.k} vertices")
        for i, (v, us) in enumerate(zip(self.vertices, self.back)):
            if len(us) > 2 or len(set(us)) != len(us):
                raise ParameterError(f"vertex {v} keeps {us}, not at most 2 distinct vertices")
            for u in us:
                if pos.get(u, i) >= i:  # u is later, v itself or not a vertex
                    raise ParameterError(f"back-neighbour {u} of {v} is not an earlier vertex")
                if not host.has_edge(u, v):
                    raise ParameterError(f"edge {canon_edge(u, v)} not in host graph")


@dataclass(frozen=True)
class SearchResult:
    candidate: CandidateF
    success: bool
    # True iff the deadline stopped the 'peel' window scan with windows unscanned
    budget_exhausted: bool = False

    @property
    def achieved_t(self):
        return self.candidate.achieved_t


def _induced(nbrs, verts):
    """Neighbour lists, by position, of the subgraph induced on verts, an
    ascending list of ranks into the neighbour lists nbrs.

    Positions follow rank order, so comparing positions compares vertices.
    """
    pos = {v: i for i, v in enumerate(verts)}
    return [[pos[w] for w in nbrs[v] if w in pos] for v in verts]


def _peel_core(nbrs):
    """Smallest-last peeling (Matula-Beck) of rank-indexed neighbour lists.

    Repeatedly removes the vertex of least (degree, rank), found with a
    bucket queue: one min-heap of ranks per degree, and a current degree
    that steps back by at most one after each removal, since a removal
    lowers its neighbours' degrees by one. The buckets take O(n + m) steps
    in all, each heap operation logarithmic in its bucket. An entry whose
    degree has dropped since it was pushed is skipped; a removed vertex's
    degree stays at its removal degree, whose one entry was the one popped.
    Returns the removal order and each vertex's degree at removal, which is
    its number of neighbours removed after it.
    """
    deg = [len(ws) for ws in nbrs]
    # ranks go in ascending, so each bucket starts as a sorted list: a heap
    buckets = [[] for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        buckets[d].append(v)
    alive = [True] * len(nbrs)
    removal = []
    removal_deg = []
    d = 0
    for _ in range(len(nbrs)):
        bucket = buckets[d]
        while True:
            while bucket and deg[bucket[0]] != d:
                heappop(bucket)  # stale entry: its degree dropped since
            if bucket:
                break
            d += 1
            bucket = buckets[d]
        v = heappop(bucket)
        alive[v] = False
        removal.append(v)
        removal_deg.append(d)
        for w in nbrs[v]:
            if alive[w]:
                deg[w] -= 1
                heappush(buckets[deg[w]], w)
        if d:
            d -= 1
    return removal, removal_deg


def _candidate(verts, order, nbrs, key=None):
    """Ordering -> at most two back-edges: the candidate on `order` (indices
    into the names verts and the neighbour lists nbrs) in which each vertex
    keeps its first two earlier neighbours under `key`, a sequence indexed
    by vertex (default: the index itself), in that order. One pass over a
    vertex's neighbours finds the two.
    """
    if key is None:
        key = range(len(nbrs))
    seen = [False] * len(nbrs)
    back = []
    for v in order:
        first = second = None
        for u in nbrs[v]:
            if seen[u]:
                if first is None or key[u] < key[first]:
                    first, second = u, first
                elif second is None or key[u] < key[second]:
                    second = u
        if first is None:
            back.append(())
        elif second is None:
            back.append((verts[first],))
        else:
            back.append((verts[first], verts[second]))
        seen[v] = True
    return CandidateF(tuple(verts[v] for v in order), tuple(back))


def degeneracy_ordering(g):
    """Smallest-last ordering of g, ties to the smallest vertex. The order
    reverses removal, so each back-degree is the vertex's degree at removal.
    `ranks` is the same order by rank in ranked(g)."""
    g = ranked(g)
    removal, removal_deg = _peel_core(g.nbrs)
    ranks = tuple(reversed(removal))
    return DegeneracyOrdering(
        tuple(map(g.names.__getitem__, ranks)),
        tuple(reversed(removal_deg)),
        max(removal_deg, default=0),
        ranks,
    )


def _trim_on_set(g, vertex_set):
    """Best-effort densest 2-degenerate subgraph of the RankedGraph g on a
    fixed set of ranks: peel the induced subgraph, then keep up to 2
    earliest back-neighbors per vertex. Only the set's vertices are named.

    Exact whenever the induced subgraph is itself 2-degenerate.
    """
    verts = sorted(vertex_set)
    nbrs = _induced(g.nbrs, verts)
    order = _peel_core(nbrs)[0][::-1]
    pos = [0] * len(verts)
    for i, v in enumerate(order):
        pos[v] = i
    names = g.names
    return _candidate([names[v] for v in verts], order, nbrs, key=pos)


def _window_counts(nbrs, order, k):
    """The induced edge count of every window order[s : s + k], by s.

    An edge at positions i < j with j - i < k lies in the windows s in
    [max(0, j - k + 1), min(i, last)]. One pass over the order's edges marks
    each such range in a difference array shifted by k - 1, +1 at j and -1
    at i + k, so the prefix sum at s + k - 1 is window s's count: O(n + m)
    for all windows together. `order` is a permutation of the ranks of the
    neighbour lists nbrs.
    """
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    diff = [0] * (len(order) + k)
    for i, v in enumerate(order):
        hi = i + k
        for w in nbrs[v]:
            j = pos[w]
            if i < j < hi:
                diff[j] += 1
                diff[hi] -= 1
    return list(accumulate(diff))[k - 1 : len(order)]


def _window_candidates(g, k, goal, budget_end, order=None):
    """Scan the windows of k consecutive vertices of the degeneracy ordering
    of the RankedGraph g and return (trim, budget_exhausted), where trim is
    the trim of the first window whose edge count reaches `goal` and
    budget_exhausted says whether the deadline `budget_end` stopped the scan
    before its last window. `order` is that ordering's rank order if the
    caller already has it.

    Each window that is peeled is trimmed once, by _trim_on_set, and that
    trim is both its score and, if it wins, the result. If no window reaches
    the goal, return the densest trim, ties to the smallest vertex order
    (windows have distinct vertex sets, so the orders differ). In a
    smallest-last order the first windows hold the densest core.

    A trim keeps only edges of its window, so a window's induced edge count
    bounds its trim's. The scan keeps the best trim's edge count as a bar
    and peels only windows whose count reaches it; ties are still peeled,
    so the fallback is the choice of a full scan. Trims are ranked by
    (achieved_t, vertices), which is (-edges, vertices) at a fixed k.

    The first window is peeled without a count, as there is no best count
    to bound yet and most scans stop there; once the scan slides,
    _window_counts counts every window's in one pass.
    """
    if order is None:
        order = degeneracy_ordering(g).ranks
    best = best_key = None
    last = len(order) - k
    for s in range(last + 1):
        if s == 1:
            counts = _window_counts(g.nbrs, order, k)
        # window 0 always sets best, so every later window has a bar
        if s and counts[s] < bar:
            continue
        trim = _trim_on_set(g, order[s : s + k])
        count = 2 * k - trim.achieved_t
        if count >= goal:
            return trim, False
        key = (trim.achieved_t, trim.vertices)
        if best is None or key < best_key:
            best, best_key, bar = trim, key, count
        if budget_end is not None and s < last and time.monotonic() > budget_end:
            return best, True
    return best, False


def _exhaustive_best(g, k):
    """Exact maximum via bottom-up DP over vertex subsets up to size k.

    f(S) = max over v in S of f(S - v) + min(2, |N(v) & (S - v)|); a set S
    realizes a 2-degenerate subgraph with f(S) edges and any ordering
    achieving the max certifies it. g is a RankedGraph on at most
    _DP_VERTEX_CAP vertices, so a level holds at most C(20, 10) = 184,756
    subsets.
    """
    n = g.n
    if n > _DP_VERTEX_CAP:
        raise GuardExceededError(f"exhaustive search infeasible for n={n}, k={k}")
    nbr = [sum(1 << j for j in ws) for ws in g.nbrs]
    f = {0: 0}
    choice = {}
    frontier = [0]
    for _size in range(k):
        nxt = {}
        for mask in frontier:
            base = f[mask]
            for i in range(n):
                bit = 1 << i
                if mask & bit:
                    continue
                new = mask | bit
                val = base + min(2, bin(nbr[i] & mask).count("1"))
                prev = nxt.get(new)
                if prev is None or val > prev[0] or (val == prev[0] and i < prev[1]):
                    nxt[new] = (val, i)
        for mask, (val, i) in nxt.items():
            f[mask] = val
            choice[mask] = i
        frontier = list(nxt)
    rev = []
    mask = max(frontier, key=f.__getitem__)  # the first of the best, as k <= n
    while mask:
        i = choice[mask]
        rev.append(i)
        mask ^= 1 << i
    return _candidate(g.names, rev[::-1], g.nbrs)


def find_dense_2deg(g, k, t_target, strategy="peel", budget_ms=None, *, order=None):
    """Search for a k-vertex 2-degenerate subgraph with >= 2k - t_target edges.

    Strategies: 'peel' (the first degeneracy window that reaches the goal,
    else the densest window) and 'exhaustive' (exact, on at most 20 vertices).
    Failure is first-class: on a miss the densest candidate found is returned.

    `budget_ms` caps only the 'peel' window scan: once it has passed, the
    densest window peeled so far is returned, with budget_exhausted set if
    windows were left unscanned. 'exhaustive' ignores it.
    `order`, if given, must be degeneracy_ordering(g).ranks; 'peel' then
    scans it instead of peeling g again, and 'exhaustive' ignores it.

    g is ranked once at entry (a RankedGraph, such as a pair graph, is read
    as it is), and the search reads its rank lists.
    """
    if strategy not in STRATEGIES:
        raise ParameterError(f"unknown strategy {strategy!r}")
    if k < 2:
        raise ParameterError("k must be at least 2")
    g = ranked(g)
    if k > g.n:
        raise ParameterError(f"k={k} exceeds host order {g.n}")
    budget_end = None
    if budget_ms is not None:
        if budget_ms <= 0:
            raise ParameterError("budget_ms must be positive (None for unlimited)")
        budget_end = time.monotonic() + budget_ms / 1000.0

    exhausted = False
    if strategy == "exhaustive":
        cand = _exhaustive_best(g, k)
    else:
        cand, exhausted = _window_candidates(g, k, 2 * k - t_target, budget_end, order)

    cand.validate(g)
    return SearchResult(cand, cand.achieved_t <= t_target, exhausted)
