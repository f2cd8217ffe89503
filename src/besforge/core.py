"""Core hypergraph types: triple systems, tripartite linear systems, configurations.

Vertex addressing conventions:
  * TripleSystem uses global 0-based ids in [0, n).
  * TripartiteLinearSystem uses 0-based part-local ids; a vertex is addressed
    by a key ('A', i), ('B', i) or ('C', i) wherever parts can mix (spans,
    pair maps).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import DegenerateInputError, ParameterError


@dataclass(frozen=True)
class TripleSystem:
    """A 3-uniform hypergraph on global vertex ids 0..n-1."""

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ParameterError("vertex count must be non-negative")
        canon = []
        for e in self.edges:
            t = tuple(sorted(e))
            if len(t) != 3 or len(set(t)) != 3:
                raise ParameterError(f"edge {e} does not have three distinct vertices")
            if not all(isinstance(x, int) and 0 <= x < self.n for x in t):
                raise ParameterError(f"edge {e} has a vertex outside [0, {self.n})")
            canon.append(t)
        if len(set(canon)) != len(canon):
            raise ParameterError("duplicate triples")
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @cached_property
    def edge_set(self):
        """The edges as a frozenset, made the first time it is read."""
        return frozenset(self.edges)

    def edge_keys(self, edge):
        return edge

    @property
    def m(self):
        return len(self.edges)


@dataclass(frozen=True)
class TripartiteLinearSystem:
    """A linear 3-partite 3-graph with parts A, B, C and part-local edges (a, b, c).

    Linearity itself is not enforced at construction (validate_linear checks
    it); tripartiteness and range checks are.
    """

    sizes: tuple  # (nA, nB, nC)
    edges: tuple  # (a, b, c), part-local

    def __post_init__(self):
        na, nb, nc = self.sizes
        if min(na, nb, nc) < 0:
            raise ParameterError("part sizes must be non-negative")
        canon = []
        for e in self.edges:
            a, b, c = e
            if not (0 <= a < na and 0 <= b < nb and 0 <= c < nc):
                raise ParameterError(f"edge {e} has a vertex outside its part")
            canon.append((a, b, c))
        if len(set(canon)) != len(canon):
            raise ParameterError("duplicate triples")
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @cached_property
    def edge_set(self):
        """The edges as a frozenset, made the first time it is read."""
        return frozenset(self.edges)

    @cached_property
    def key_index(self):
        """(edge -> id, key -> ids), made the first time it is read: each
        edge's id, its position in the sorted edges, and each vertex key with
        the ids of the edges through it, in ascending order.

        The edge ids are grouped by part-local vertex id, one dict per part,
        and keyed as edge_keys names them only at the end. Dicts rather than
        lists indexed by vertex id, so that the index is sized by the edges
        and not by the part sizes that the input header declares.
        """
        ids = {}
        parts = ({}, {}, {})
        by_a, by_b, by_c = parts
        for i, x in enumerate(self.edges):
            ids[x] = i
            a, b, c = x
            by_a.setdefault(a, []).append(i)
            by_b.setdefault(b, []).append(i)
            by_c.setdefault(c, []).append(i)
        return ids, {(name, v): xs for name, part in zip("ABC", parts) for v, xs in part.items()}

    @cached_property
    def is_linear(self):
        """Whether validate_linear accepts the system, checked the first time
        it is read."""
        return bool(validate_linear(self))

    @cached_property
    def part_degrees(self):
        """Per part, the degrees of its vertices that lie in an edge, largest
        first, as a tuple: read from key_index the first time it is read."""
        degrees = {"A": [], "B": [], "C": []}
        for (part, _), ids in self.key_index[1].items():
            degrees[part].append(len(ids))
        return tuple(tuple(sorted(ds, reverse=True)) for ds in degrees.values())

    def edge_keys(self, edge):
        a, b, c = edge
        return (("A", a), ("B", b), ("C", c))

    @property
    def n(self):
        return sum(self.sizes)

    @property
    def m(self):
        return len(self.edges)


@dataclass(frozen=True)
class Configuration:
    """A set of hyperedges of some host system together with its span."""

    edges: tuple
    span: frozenset

    @classmethod
    def from_edges(cls, host, edges):
        """The configuration of `edges`, distinct edges of host, in sorted order."""
        edges = tuple(sorted(edges))
        span = frozenset(k for e in edges for k in host.edge_keys(e))
        return cls(edges, span)

    @property
    def e(self):
        return len(self.edges)

    @property
    def v(self):
        return len(self.span)


@dataclass(frozen=True)
class LinearityVerdict:
    ok: bool
    pair: tuple = None
    edges: tuple = None

    def __bool__(self):
        return self.ok


def pair_map(system):
    """Map each unordered vertex-key pair to the list of edges containing it."""
    pm = {}
    for e in system.edges:
        keys = system.edge_keys(e)
        for p, q in combinations(sorted(keys), 2):
            pm.setdefault((p, q), []).append(e)
    return pm


def validate_linear(system):
    """Check that no pair of vertices lies in two or more edges.

    Total function over TripleSystem and TripartiteLinearSystem; returns a
    verdict carrying the smallest violating pair, if any, and its two
    smallest edges.

    A TripartiteLinearSystem first gets a cheap pass: its pairs are AB, AC
    and BC pairs, coded as the integers a*nB+b, a*nC+c and b*nC+c, as
    random_linear codes them, so it is linear when no code repeats. The
    pair map is built only when one does, to name the smallest violation.
    """
    if isinstance(system, TripartiteLinearSystem):
        _, nb, nc = system.sizes
        m = len(system.edges)
        if (len({a * nb + b for a, b, _ in system.edges}) == m
                and len({a * nc + c for a, _, c in system.edges}) == m
                and len({b * nc + c for _, b, c in system.edges}) == m):
            return LinearityVerdict(True)
    pm = pair_map(system)
    shared = [pair for pair, hits in pm.items() if len(hits) >= 2]
    if not shared:
        return LinearityVerdict(True)
    pair = min(shared)
    return LinearityVerdict(False, pair, tuple(sorted(pm[pair])[:2]))


def verify_configuration(host, cfg, v, e):
    """True iff cfg has exactly e distinct host edges spanning at most v vertices."""
    edges = cfg.edges
    if len(edges) != e or len(set(edges)) != e:
        return False
    host_edges = host.edge_set
    if any(x not in host_edges for x in edges):
        return False
    span = {k for x in edges for k in host.edge_keys(x)}
    return len(span) <= v


def to_triple_system(lts):
    """Flatten a tripartite system to global ids (A first, then B, then C)."""
    na, nb, _ = lts.sizes
    edges = [(a, na + b, na + nb + c) for a, b, c in lts.edges]
    return TripleSystem(lts.n, tuple(edges))


def draw_below(bits, n, k):
    """rng.randrange(n), drawn from bits = rng.getrandbits and k = n.bit_length().

    It redraws bits(k) until the value is below n, which is the rule of
    CPython's randrange (Random._randbelow_with_getrandbits), so a generator
    gives the same values and is left in the same state, without randrange's
    two Python-level calls per draw.

    Needs n >= 1: at n = 0, bits(0) is 0 and the loop never ends, where
    randrange(0) raises. Each caller has n >= 1 already: random_linear checks
    its part sizes and picks from its list of fitting triples only while it
    is non-empty, and girth._pick_pair returns before it draws from fewer
    than two vertices.
    """
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


@dataclass(frozen=True)
class ReduceOrWin:
    """Result of reduce_or_win: exactly one of win / reduction is set."""

    win: Configuration = None
    reduction: TripartiteLinearSystem = None
    tripartite_edges: int = 0
    kept_edges: int = 0
    coloring: tuple = ()

    @property
    def is_win(self):
        return self.win is not None


def _sweep_coloring(ts):
    """Sweep the vertices that edges name, in id order, until a sweep moves
    none. An uncoloured vertex takes the colour that makes the most of its
    edges rainbow, or able to become so while an end is uncoloured; a
    coloured one moves only to a colour that makes strictly more of them
    rainbow. Ties go to the smallest colour. Any other vertex x gets x % 3."""
    ends = {}
    for a, b, c in ts.edges:
        ends.setdefault(a, []).append((b, c))
        ends.setdefault(b, []).append((a, c))
        ends.setdefault(c, []).append((a, b))
    named = sorted(ends)
    color = {}
    moved = True
    while moved:
        moved = False
        for v in named:
            # score[k]: v's edges that are rainbow, or can still become so,
            # if v takes colour k; an uncoloured end (None) takes any colour
            score = [0, 0, 0]
            for p, q in ends[v]:
                cp, cq = color.get(p), color.get(q)
                if cp is None or cp != cq:
                    for k in {0, 1, 2} - {cp, cq}:
                        score[k] += 1
            best = score.index(max(score))
            old = color.get(v)
            if old is None or score[best] > score[old]:
                color[v] = best
                moved = True
    return tuple([color.get(x, x % 3) for x in range(ts.n)])


def reduce_or_win(ts, e):
    """Either find e edges through one pair (a trivial (e+2, e)-configuration)
    or reduce ts to a linear tripartite subsystem.

    The reduction 3-colours the vertices (_sweep_coloring) and keeps the
    rainbow edges greedily, in sorted order, so that no vertex pair repeats.
    The sweeps end: the first colours each named vertex once, and every
    later move raises the number of rainbow edges, which is at most m. Since
    in the reduction branch every pair lies in at most e-1 edges, each kept
    edge blocks at most 3(e-2) others, so at least a 1/(3e-5) fraction of
    the rainbow edges is retained.
    """
    if e < 1:
        raise ParameterError("e must be positive")
    pm = pair_map(ts)
    heavy = sorted(p for p, hits in pm.items() if len(hits) >= e)
    if heavy:
        pair = heavy[0]
        chosen = sorted(pm[pair])[:e]
        return ReduceOrWin(win=Configuration.from_edges(ts, chosen))

    coloring = _sweep_coloring(ts)
    tri_edges = [x for x in ts.edges if len({coloring[v] for v in x}) == 3]
    used_pairs = set()
    kept = []
    for x in tri_edges:
        # a TripleSystem edge is a sorted triple, so its pairs come sorted
        pairs = list(combinations(x, 2))
        if any(p in used_pairs for p in pairs):
            continue
        kept.append(x)
        used_pairs.update(pairs)

    if not kept:
        raise DegenerateInputError("no win available and the reduction is empty")

    # a vertex's part-local id: the number of earlier vertices of its colour
    sizes = [0, 0, 0]
    local = []
    for c in coloring:
        local.append(sizes[c])
        sizes[c] += 1
    edges = []
    for x in kept:
        a, b, c = sorted(x, key=coloring.__getitem__)
        edges.append((local[a], local[b], local[c]))
    lts = TripartiteLinearSystem(tuple(sizes), tuple(edges))
    return ReduceOrWin(
        reduction=lts,
        tripartite_edges=len(tri_edges),
        kept_edges=len(kept),
        coloring=coloring,
    )
