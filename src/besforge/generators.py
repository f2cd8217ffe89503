"""Deterministic and seeded sources of dense linear tripartite systems."""

from __future__ import annotations

import random

from .core import TripartiteLinearSystem, draw_below
from .errors import ParameterError

# consecutive rejections after which the triples that still fit are listed
# and drawn from; it only switches the method, as the maximality checkpoints
# of random_linear end generation
_REJECTION_RUN = 1000


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

    Generation ends at target_edges or exactly when the system is maximal (no
    triple can be added), so fewer edges than requested means maximal.
    Deterministic in (sizes, target, seed).

    Inside a run of consecutive rejections, maximality is checked at the run
    length s = na*nb + na*nc + nb*nc, the cost of one check, and at each
    doubling below _REJECTION_RUN; a maximal system is returned at once. A run
    of _REJECTION_RUN rejections switches to listing the triples that still
    fit and sampling from them directly. Every draw after a checkpoint that
    finds no fitting triple would be rejected and the listing would be empty,
    so the checkpoints change no output.

    Each bounded draw is core.draw_below on the generator's getrandbits, the
    rule rng.randrange(n) follows, so the random stream and the systems are
    those that randrange draws would give.
    """
    if min(na, nb, nc) < 1:
        raise ParameterError("part sizes must be positive")
    if target_edges < 0:
        raise ParameterError("target_edges must be non-negative")
    sizes = (na, nb, nc)
    rng = random.Random(f"{na},{nb},{nc},{target_edges},{seed}")
    # covered pairs a*nb+b, a*nc+c, b*nc+c: int hashes ignore the hash seed
    ab, ac, bc = covered = set(), set(), set()
    edges = []
    rejections = 0
    # the run length of the first checkpoint: where s >= _REJECTION_RUN no
    # checkpoint comes before the listing
    first = min(na * nb + na * nc + nb * nc, _REJECTION_RUN)
    checkpoint = first
    bits = rng.getrandbits
    ka, kb, kc = na.bit_length(), nb.bit_length(), nc.bit_length()
    while len(edges) < target_edges:
        a = draw_below(bits, na, ka)
        b = draw_below(bits, nb, kb)
        c = draw_below(bits, nc, kc)
        if a * nb + b in ab or a * nc + c in ac or b * nc + c in bc:
            rejections += 1
            if rejections == checkpoint:
                if checkpoint == _REJECTION_RUN:
                    break
                if next(_fitting(sizes, *covered), None) is None:
                    return TripartiteLinearSystem(sizes, tuple(edges))
                checkpoint = min(2 * checkpoint, _REJECTION_RUN)
            continue
        rejections = 0
        checkpoint = first
        edges.append((a, b, c))
        ab.add(a * nb + b)
        ac.add(a * nc + c)
        bc.add(b * nc + c)
    if len(edges) < target_edges:
        fits = list(_fitting(sizes, *covered))
        while fits and len(edges) < target_edges:
            a, b, c = fits[draw_below(bits, len(fits), len(fits).bit_length())]
            edges.append((a, b, c))
            fits = [
                (x, y, z)
                for x, y, z in fits
                if (x, y) != (a, b) and (x, z) != (a, c) and (y, z) != (b, c)
            ]
    return TripartiteLinearSystem(sizes, tuple(edges))


def _fitting(sizes, ab, ac, bc):
    """The triples that fit beside the covered pair codes ab, ac and bc, in
    sorted order: a free (a, b) pair and a c free for both a and b. The free
    c's of each a and each b are found first, so the first triple, or that
    there is none, costs about one pass over na*nb + na*nc + nb*nc pairs."""
    na, nb, nc = sizes
    free_a = [{c for c in range(nc) if a * nc + c not in ac} for a in range(na)]
    free_b = [{c for c in range(nc) if b * nc + c not in bc} for b in range(nb)]
    return (
        (a, b, c)
        for a in range(na)
        for b in range(nb)
        if a * nb + b not in ab
        for c in sorted(free_a[a] & free_b[b])
    )
