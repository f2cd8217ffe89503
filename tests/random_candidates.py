"""Random 2-degenerate candidates for the tests of the unpacking laws."""

from besforge.degsearch import _trim_on_set
from besforge.graphs import ranked


def trim_by_name(g, vertex_set):
    """The trim of g on a set of its vertices given by name: _trim_on_set
    on their ranks in ranked(g)."""
    g = ranked(g)
    return _trim_on_set(g, [g._rank[v] for v in vertex_set])


def random_candidate(g, k, rng):
    """The trim of a random k-set of g's vertices (g needs an edge).

    The set starts as a random edge and grows by a random vertex adjacent to
    it, so it is connected while its component has vertices left; after that
    a random vertex outside the set joins instead.
    """
    adj = g.adjacency()
    chosen = set(rng.choice(g.edges))
    boundary = set().union(*(adj[v] for v in chosen)) - chosen
    while len(chosen) < k:
        # sorted, so the draw does not depend on set iteration order
        pool = sorted(boundary) or [v for v in g.vertices if v not in chosen]
        v = rng.choice(pool)
        chosen.add(v)
        boundary |= adj[v]
        boundary -= chosen
    return trim_by_name(g, chosen)
