"""The random_linear that ends every saturating run with a 1,000-rejection
tail, kept as the reference for the edge lists of the one that stops at
maximality checkpoints.

It draws triples until the target is met or 1,000 draws in a row are
rejected, then lists the triples that still fit and draws from that list.
"""

import random

from besforge import TripartiteLinearSystem
from besforge.core import draw_below
from besforge.errors import ParameterError

_REJECTION_RUN = 1000


def random_linear(na, nb, nc, target_edges, seed=0):
    if min(na, nb, nc) < 1:
        raise ParameterError("part sizes must be positive")
    if target_edges < 0:
        raise ParameterError("target_edges must be non-negative")
    rng = random.Random(f"{na},{nb},{nc},{target_edges},{seed}")
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
