"""Degeneracy machinery and the search for dense 2-degenerate subgraphs.

A candidate is an ordered vertex list v1..vk plus an edge list where every
vertex has at most 2 edges to earlier vertices; the quality measure is the
edge count (equivalently achieved_t = 2k - |edges|, smaller is denser).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import GuardExceededError, ParameterError
from .graphs import canon_edge

STRATEGIES = ("peel", "greedy", "exhaustive")
_ENUM_GUARD = 10**7
_DP_VERTEX_CAP = 20


@dataclass(frozen=True)
class DegeneracyOrdering:
    order: tuple
    back_degrees: tuple  # edges to earlier vertices, per position
    degeneracy: int


@dataclass(frozen=True)
class CandidateF:
    vertices: tuple  # construction order v1..vk
    edges: tuple  # canonical pairs, each joining a vertex to an earlier one

    @property
    def k(self):
        return len(self.vertices)

    @property
    def achieved_t(self):
        return 2 * self.k - len(self.edges)

    def sort_key(self):
        return (-len(self.edges), self.vertices, self.edges)

    def validate(self, host):
        """Raise if the candidate is not a 2-degeneracy-certified subgraph of host."""
        if len(set(self.vertices)) != self.k:
            raise ParameterError("repeated vertices in candidate")
        pos = {v: i for i, v in enumerate(self.vertices)}
        back = [0] * self.k
        seen = set()
        for u, v in self.edges:
            if (u, v) in seen:
                raise ParameterError(f"repeated edge {(u, v)}")
            seen.add((u, v))
            if not host.has_edge(u, v):
                raise ParameterError(f"edge {(u, v)} not in host graph")
            if u not in pos or v not in pos:
                raise ParameterError(f"edge {(u, v)} leaves the vertex set")
            later = max(u, v, key=pos.get)
            back[pos[later]] += 1
        if any(b > 2 for b in back):
            raise ParameterError("a vertex has back-degree above 2")
        sides = {v[0] for v in self.vertices if isinstance(v, tuple)}
        if sides:
            for u, v in self.edges:
                if u[0] == v[0]:
                    raise ParameterError(f"edge {(u, v)} does not cross sides")


@dataclass(frozen=True)
class SearchResult:
    candidate: CandidateF
    success: bool

    @property
    def achieved_t(self):
        return self.candidate.achieved_t


def _peel(adj, restrict=None):
    """Min-degree peeling with smallest-id tie-break.

    Returns (order, back_degrees, degeneracy) where order reverses removal,
    so each back-degree equals the vertex's degree at removal time.
    """
    verts = sorted(restrict) if restrict is not None else sorted(adj)
    vert_set = set(verts)
    deg = {v: sum(1 for w in adj.get(v, ()) if w in vert_set) for v in verts}
    alive = set(verts)
    removal = []
    removal_deg = []
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        removal.append(v)
        removal_deg.append(deg[v])
        alive.remove(v)
        for w in adj.get(v, ()):
            if w in alive:
                deg[w] -= 1
    order = tuple(reversed(removal))
    back = tuple(reversed(removal_deg))
    return order, back, (max(removal_deg) if removal_deg else 0)


def degeneracy_ordering(g):
    order, back, degen = _peel(g.adjacency())
    return DegeneracyOrdering(order, back, degen)


def _trim_on_set(g, vertex_set):
    """Best-effort densest 2-degenerate subgraph on a fixed vertex set:
    peel the induced subgraph, then keep up to 2 earliest back-neighbors per vertex.

    Exact whenever the induced subgraph is itself 2-degenerate.
    """
    adj = g.adjacency()
    order, _, _ = _peel(adj, restrict=vertex_set)
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    for i, v in enumerate(order):
        earlier = sorted((u for u in adj[v] if u in pos and pos[u] < i), key=pos.get)
        for u in earlier[:2]:
            edges.append(canon_edge(u, v))
    return CandidateF(order, tuple(sorted(edges)))


def _greedy_candidate(g, k, rng):
    adj = g.adjacency()
    edges = g.edges
    if not edges:
        verts = sorted(g.vertices)
        chosen = verts[:k] if len(verts) >= k else verts
        return CandidateF(tuple(chosen), ())
    best_score = max(len(adj[u]) + len(adj[v]) for u, v in edges)
    seeds = [e for e in edges if len(adj[e[0]]) + len(adj[e[1]]) == best_score]
    u0, v0 = seeds[rng.randrange(len(seeds))]
    chosen = {u0, v0}
    while len(chosen) < k:
        best = None
        best_sc = -1
        outside = [v for v in g.vertices if v not in chosen]
        scored = []
        for v in outside:
            sc = min(2, sum(1 for w in adj[v] if w in chosen))
            scored.append((sc, v))
            if sc > best_sc:
                best_sc = sc
        pool = [v for sc, v in scored if sc == best_sc]
        best = pool[rng.randrange(len(pool))]
        chosen.add(best)
    return _trim_on_set(g, chosen)


def _window_candidates(g, k, budget_end):
    ordering = degeneracy_ordering(g)
    order = ordering.order
    best = None
    for s in range(len(order) - k + 1):
        cand = _trim_on_set(g, order[s : s + k])
        if best is None or cand.sort_key() < best.sort_key():
            best = cand
        if budget_end is not None and time.monotonic() > budget_end:
            break
    return best


def _local_search(g, cand, k, budget_end):
    """Single-swap hill climbing around a candidate's vertex set."""
    adj = g.adjacency()
    current = cand
    improved = True
    while improved:
        improved = False
        inside = set(current.vertices)
        boundary = sorted({w for v in inside for w in adj[v] if w not in inside})
        for u in boundary:
            for v in sorted(inside):
                trial = _trim_on_set(g, (inside - {v}) | {u})
                if trial.sort_key() < current.sort_key() and len(trial.edges) > len(
                    current.edges
                ):
                    current = trial
                    improved = True
                    break
            if improved or (budget_end is not None and time.monotonic() > budget_end):
                break
        if budget_end is not None and time.monotonic() > budget_end:
            break
    return current


def _exhaustive_best(g, k):
    """Exact maximum via bottom-up DP over vertex subsets up to size k.

    f(S) = max over v in S of f(S - v) + min(2, |N(v) & (S - v)|); a set S
    realizes a 2-degenerate subgraph with f(S) edges and any ordering
    achieving the max certifies it.
    """
    verts = list(g.vertices)
    n = len(verts)
    if n > _DP_VERTEX_CAP or comb(n, k) > _ENUM_GUARD:
        raise GuardExceededError(f"exhaustive search infeasible for n={n}, k={k}")
    adj = g.adjacency()
    idx = {v: i for i, v in enumerate(verts)}
    nbr = [0] * n
    for i, v in enumerate(verts):
        for w in adj[v]:
            nbr[i] |= 1 << idx[w]
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
    best_mask = None
    best_val = -1
    for mask in frontier:
        if f[mask] > best_val:
            best_val = f[mask]
            best_mask = mask
    if best_mask is None:
        return CandidateF((), ())
    rev = []
    mask = best_mask
    while mask:
        i = choice[mask]
        rev.append(i)
        mask ^= 1 << i
    order_idx = list(reversed(rev))
    order = []
    edges = []
    seen_mask = 0
    for i in order_idx:
        cands = sorted(j for j in range(n) if (nbr[i] >> j) & 1 and (seen_mask >> j) & 1)
        for j in cands[:2]:
            edges.append(canon_edge(verts[i], verts[j]))
        seen_mask |= 1 << i
        order.append(verts[i])
    return CandidateF(tuple(order), tuple(sorted(edges)))


def brute_force_best_2deg(g, k, guard=_ENUM_GUARD):
    """Oracle: enumerate every k-vertex subset and solve each exactly by a
    per-subset DP over orderings. Returns (max_edges, witness)."""
    verts = list(g.vertices)
    n = len(verts)
    if k < 0 or k > n:
        raise ParameterError(f"k={k} outside [0, {n}]")
    if comb(n, k) > guard:
        raise GuardExceededError(f"C({n},{k}) exceeds guard {guard}")
    if comb(n, k) * (1 << k) * max(k, 1) > 4 * 10**8:
        raise GuardExceededError("per-subset DP work exceeds the feasibility cap")
    adj = g.adjacency()
    best_val = -1
    best_subset = None
    best_table = None
    for subset in combinations(range(n), k):
        local_nbr = []
        for pos, i in enumerate(subset):
            m = 0
            for qos, j in enumerate(subset):
                if verts[j] in adj[verts[i]]:
                    m |= 1 << qos
            local_nbr.append(m)
        size = 1 << k
        f = [0] * size
        ch = [0] * size
        for mask in range(1, size):
            bv = -1
            bi = -1
            rest_bits = mask
            while rest_bits:
                low = rest_bits & -rest_bits
                i = low.bit_length() - 1
                rest_bits ^= low
                rest = mask ^ low
                val = f[rest] + min(2, bin(local_nbr[i] & rest).count("1"))
                if val > bv:
                    bv = val
                    bi = i
            f[mask] = bv
            ch[mask] = bi
        full = size - 1
        if f[full] > best_val:
            best_val = f[full]
            best_subset = subset
            best_table = (list(local_nbr), list(ch))
    if best_subset is None:
        return 0, CandidateF((), ())
    local_nbr, ch = best_table
    rev = []
    mask = (1 << k) - 1
    while mask:
        i = ch[mask]
        rev.append(i)
        mask ^= 1 << i
    order_local = list(reversed(rev))
    order = []
    edges = []
    seen = 0
    for i in order_local:
        earlier = sorted(j for j in range(k) if (local_nbr[i] >> j) & 1 and (seen >> j) & 1)
        for j in earlier[:2]:
            edges.append(canon_edge(verts[best_subset[i]], verts[best_subset[j]]))
        seen |= 1 << i
        order.append(verts[best_subset[i]])
    witness = CandidateF(tuple(order), tuple(sorted(edges)))
    return best_val, witness


def find_dense_2deg(g, k, t_target, strategy="peel", seed=0, budget_ms=None):
    """Search for a k-vertex 2-degenerate subgraph with >= 2k - t_target edges.

    Strategies: 'peel' (degeneracy windows + local search), 'greedy' (seeded
    growth from a high-degree edge), 'exhaustive' (exact, small hosts only).
    Failure is first-class: the densest candidate found is always returned.
    """
    if strategy not in STRATEGIES:
        raise ParameterError(f"unknown strategy {strategy!r}")
    if k < 2:
        raise ParameterError("k must be at least 2")
    if k > g.n:
        raise ParameterError(f"k={k} exceeds host order {g.n}")
    budget_end = None
    if budget_ms is not None:
        if budget_ms <= 0:
            raise ParameterError("budget_ms must be positive (None for unlimited)")
        budget_end = time.monotonic() + budget_ms / 1000.0

    if strategy == "exhaustive":
        cand = _exhaustive_best(g, k)
    elif strategy == "greedy":
        rng = random.Random(seed)
        cand = None
        for _ in range(3):
            trial = _greedy_candidate(g, k, rng)
            if cand is None or trial.sort_key() < cand.sort_key():
                cand = trial
            if budget_end is not None and time.monotonic() > budget_end:
                break
    else:
        cand = _window_candidates(g, k, budget_end)
        if cand is None:
            cand = _trim_on_set(g, g.vertices[:k])
        if cand.achieved_t > t_target:
            cand2 = _local_search(g, cand, k, budget_end)
            if cand2.sort_key() < cand.sort_key():
                cand = cand2

    cand.validate(g)
    return SearchResult(cand, cand.achieved_t <= t_target)
