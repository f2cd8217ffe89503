"""The subset-enumerating oracle for the densest 2-degenerate subgraph, kept
as the reference for the exact search (degsearch._exhaustive_best, the
'exhaustive' strategy) and as the bound that every other search meets.
"""

from itertools import combinations
from math import comb

from besforge.degsearch import _candidate, _induced
from besforge.errors import GuardExceededError, ParameterError
from besforge.graphs import ranked

_ENUM_GUARD = 10**7  # the most k-vertex subsets it enumerates


def brute_force_best_2deg(g, k, guard=_ENUM_GUARD):
    """Oracle: enumerate every k-vertex subset and solve each exactly by a
    per-subset DP over orderings. Returns (max_edges, witness)."""
    g = ranked(g)
    n = g.n
    if k < 0 or k > n:
        raise ParameterError(f"k={k} outside [0, {n}]")
    if comb(n, k) > guard:
        raise GuardExceededError(f"C({n},{k}) exceeds guard {guard}")
    if comb(n, k) * (1 << k) * max(k, 1) > 4 * 10**8:
        raise GuardExceededError("per-subset DP work exceeds the feasibility cap")
    adj = [set(ws) for ws in g.nbrs]
    best_val = -1
    best_subset = best_ch = None
    for subset in combinations(range(n), k):
        local_nbr = []
        for pos, i in enumerate(subset):
            m = 0
            for qos, j in enumerate(subset):
                if j in adj[i]:
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
            best_subset, best_ch = subset, ch
    # every k-subset has f >= 0 > -1, so the first one sets best_subset
    rev = []
    mask = (1 << k) - 1
    while mask:
        i = best_ch[mask]
        rev.append(i)
        mask ^= 1 << i
    sub_verts = [g.names[i] for i in best_subset]
    return best_val, _candidate(sub_verts, rev[::-1], _induced(g.nbrs, best_subset))
