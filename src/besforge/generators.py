"""Deterministic and seeded sources of dense linear tripartite systems."""

from __future__ import annotations

import random

from .core import TripartiteLinearSystem, draw_below
from .errors import ParameterError

_REJECTION_RUN = 1000  # consecutive rejections before listing what still fits


def group_system(m):
    """The cyclic-group system: parts Z_m, edges {(a, b, a+b mod m)}.

    Linear because any two coordinates determine the third; exactly m^2 edges,
    every vertex of degree m.
    """
    if m < 1:
        raise ParameterError("m must be positive")
    edges = tuple((a, b, (a + b) % m) for a in range(m) for b in range(m))
    return TripartiteLinearSystem((m, m, m), edges)


def random_linear(na, nb, nc, target_edges, seed=0):
    """Greedy partial linear system: sample triples, accept if all 3 pairs are fresh.

    After a run of consecutive rejections, the triples that still fit are
    listed and sampled from directly, so generation stops at target_edges or
    exactly when the system is maximal (no triple can be added). Fewer edges
    than requested therefore means maximal. Deterministic in (sizes, target,
    seed).

    Each bounded draw is core.draw_below on the generator's getrandbits, the
    rule rng.randrange(n) follows, so the random stream and the systems are
    those that randrange draws would give.
    """
    if min(na, nb, nc) < 1:
        raise ParameterError("part sizes must be positive")
    if target_edges < 0:
        raise ParameterError("target_edges must be non-negative")
    rng = random.Random(f"{na},{nb},{nc},{target_edges},{seed}")
    # covered pairs a*nb+b, a*nc+c, b*nc+c: int hashes ignore the hash seed
    ab, ac, bc = set(), set(), set()
    edges = []
    rejections = 0
    bits = rng.getrandbits
    ka, kb, kc = na.bit_length(), nb.bit_length(), nc.bit_length()
    while len(edges) < target_edges and rejections < _REJECTION_RUN:
        a = draw_below(bits, na, ka)
        b = draw_below(bits, nb, kb)
        c = draw_below(bits, nc, kc)
        if a * nb + b in ab or a * nc + c in ac or b * nc + c in bc:
            rejections += 1
            continue
        rejections = 0
        edges.append((a, b, c))
        ab.add(a * nb + b)
        ac.add(a * nc + c)
        bc.add(b * nc + c)
    if len(edges) < target_edges:
        free_a = [{c for c in range(nc) if a * nc + c not in ac} for a in range(na)]
        free_b = [{c for c in range(nc) if b * nc + c not in bc} for b in range(nb)]
        # every triple that still fits: a free (a, b) pair and a c free for both
        fits = [
            (a, b, c)
            for a in range(na)
            for b in range(nb)
            if a * nb + b not in ab
            for c in sorted(free_a[a] & free_b[b])
        ]
        while fits and len(edges) < target_edges:
            a, b, c = fits[draw_below(bits, len(fits), len(fits).bit_length())]
            edges.append((a, b, c))
            fits = [
                (x, y, z)
                for x, y, z in fits
                if (x, y) != (a, b) and (x, z) != (a, c) and (y, z) != (b, c)
            ]
    return TripartiteLinearSystem((na, nb, nc), tuple(edges))
