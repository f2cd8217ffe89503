"""Exhaustive ground truth: minimum span over all e-edge sub-collections.

A depth-first branch and bound over the lexicographic edge order. A node
holds the edges picked so far; its children pick one more edge, in
increasing index order, from the node's first unvisited index on. A
configuration is recorded only when its span is strictly below ``best_v``,
the best so far. The search keeps its own stack, one frame per open node,
so e may be as large as the host's edge count.

Bit coding. Each vertex key gets one bit, in first-seen order over
``host.edges``. An edge is the int of its keys' bits, the running union of a
branch is an int, and its size is ``int.bit_count()``. The search assumes
nothing of three keys per edge, three parts or linearity, so ``p ts`` hosts
are searched the same way. Only the lower bound below assumes them, and it
is gated on them.

Lower bound. Let e edges of a linear tripartite host meet x, y and z
vertices of parts A, B and C. A pair lies in at most one edge, so
e <= min(xy, xz, yz). Each edge has one A vertex, so e is at most the sum
of the x largest A-degrees of the host; likewise for B and C. And x is at
most the number of A vertices of positive degree; likewise y and z. The
least x + y + z meeting all of these is ``span_lower_bound``. A host that
is not tripartite, or that ``validate_linear`` rejects, gets ``None``: on
the non-linear edges (0, 0, 0) and (0, 0, 1) two edges span 4, but x = y = 1
breaks the pair rule. The verdict and the sorted degrees are kept with the
host (``is_linear`` and ``part_degrees``, as ``key_index`` is kept), so a
ladder of queries on one host computes them once.

Pruning. Let ``r`` be the number of edges still to pick and
``slack = best_v - 1 - |union|``: a strictly better completion adds at most
``slack`` new vertices. The union only grows along a branch, so each edge
of such a completion also adds at most ``slack`` new vertices on its own.

- slack < 0: no completion is better; the node is pruned.
- Exactly ``r`` edges left: the one completion takes them all, and its span
  is read from the union of the edges from each index on.
- slack = 0: every edge of a better completion lies inside the union. The
  node has one iff at least ``r`` edges from its first index on do, and the
  first in DFS order takes the first ``r`` of them. It is recorded without
  descending; every other completion of the node then spans at least the
  new ``best_v``.
- slack = 1: the children are the edges that add at most one new vertex;
  any other pick leaves slack below 0. The node is pruned when fewer than
  ``r`` of them remain. If ``best_v`` falls later, the list still holds
  every child that can win, and each child checks the new bound itself.
- slack >= 2: every later edge is a child. Listing only the edges that add
  at most ``slack`` new vertices cost more time than it saved.

Witness. Each prune removes only subtrees with no configuration below the
best so far. The order and the strict-improvement rule are those of the
plain branch and bound, so the witness is still the first configuration in
DFS order that attains the minimum. ``best_v`` starts one above the number
of vertex keys, a span no configuration reaches, so the first complete
configuration is always recorded.

Stop. The search stops at the first record at or below its stop, which is
again the first such configuration in that order. ``min_span`` stops at the
lower bound. No configuration spans less, so such a record is an optimum.
Records strictly improve, so it is the first optimum in DFS order: the
witness the full search returns. So ``(v, witness)`` is unchanged by the
stop. ``exists_config`` stops at its v, the first record that answers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .core import Configuration, TripartiteLinearSystem
from .errors import GuardExceededError, ParameterError

DEFAULT_GUARD = 10**7


@dataclass(frozen=True)
class OracleResult:
    v: int
    witness: Configuration


def min_span(host, e, guard=DEFAULT_GUARD):
    """Exact minimum v admitting a (v, e)-configuration in host, with witness.

    The search stops at the first record at or below span_lower_bound,
    which changes neither v nor the witness.
    """
    _check_query(host, e, guard)
    return _min_span(host, e, span_lower_bound(host, e))


def exists_config(host, v, e, guard=DEFAULT_GUARD):
    """True iff host contains an (v, e)-configuration; short-circuits, and
    answers below span_lower_bound without searching."""
    _check_query(host, e, guard)
    bound = span_lower_bound(host, e)
    if bound is not None and v < bound:
        return False
    return _min_span(host, e, v).v <= v


def span_lower_bound(host, e):
    """A lower bound on the span of any e edges of a linear tripartite host
    (the counting argument of the module docstring); None for any other
    host."""
    _check_query(host, e)
    if not isinstance(host, TripartiteLinearSystem) or not host.is_linear:
        return None
    # per part: the least count whose largest degrees sum to e or more, and
    # the count of vertices of positive degree
    lows = []
    for ds in host.part_degrees:
        total = 0
        for least, d in enumerate(ds, 1):
            total += d
            if total >= e:
                break
        lows.append((least, len(ds)))
    (xa, na), (xb, nb), (xc, nc) = lows
    best = na + nb + nc  # the whole host meets every rule
    for x in range(xa, na + 1):
        if x + xb + xc >= best:
            break
        z_low = max(xc, -(-e // x))
        for y in range(max(xb, -(-e // x)), nb + 1):
            if x + y + z_low >= best:
                break
            z = max(z_low, -(-e // y))
            if z <= nc:
                best = min(best, x + y + z)
    return best


def _check_query(host, e, guard=None):
    m = host.m
    if e < 1:
        raise ParameterError("e must be positive")
    if e > m:
        raise ParameterError(f"e={e} exceeds the host's {m} edges")
    if guard is not None and comb(m, e) > guard:
        raise GuardExceededError(f"C({m},{e}) exceeds guard {guard}")


def _min_span(host, e, stop):
    edges = list(host.edges)
    bit = {}
    masks = []
    for x in edges:
        mask = 0
        for k in host.edge_keys(x):
            mask |= 1 << bit.setdefault(k, len(bit))
        masks.append(mask)
    best_v, best_pick = _search(masks, e, len(bit) + 1, stop)
    witness = Configuration.from_edges(host, [edges[i] for i in best_pick])
    return OracleResult(best_v, witness)


def _search(masks, e, best_v, stop):
    """(best span, picked indices) of the first configuration in DFS order
    with the least span below best_v, or the first at or below stop."""
    m = len(masks)
    tails = [0] * (m + 1)  # tails[i]: the union of masks[i:]
    for i in range(m - 1, -1, -1):
        tails[i] = tails[i + 1] | masks[i]
    best_pick = None
    picked = []
    # one frame per open node: its union, the union's size, its children's
    # indices and the position of the child being searched
    frames = []
    union = size = start = 0
    while True:
        # enter the node that extends `picked` with edges from `start` on
        r = e - len(picked)
        slack = best_v - 1 - size
        children = completion = None
        if r == 0:
            completion, span = (), size
        elif m - start == r:
            # one completion is left: every remaining edge
            completion, span = range(start, m), (union | tails[start]).bit_count()
        elif slack >= 2:
            children = range(start, m)
        elif slack == 1:
            outside = ~union
            children = [j for j in range(start, m) if (masks[j] & outside).bit_count() <= 1]
        elif slack == 0:
            outside = ~union
            inside = [j for j in range(start, m) if not masks[j] & outside]
            if len(inside) >= r:
                completion, span = inside[:r], size
        if completion is not None and span < best_v:
            best_v, best_pick = span, picked + list(completion)
            if stop is not None and best_v <= stop:
                return best_v, best_pick
        if children is not None and len(children) >= r:
            frames.append([union, size, children, 0])
            j = children[0]
        else:
            # back up to the deepest open node with a child left to search
            while frames:
                frame = frames[-1]
                union, size, children, pos = frame
                picked.pop()
                pos += 1
                if size >= best_v or len(children) - pos < e - len(picked):
                    frames.pop()
                    continue
                frame[3] = pos
                j = children[pos]
                break
            else:
                return best_v, best_pick
        picked.append(j)
        union |= masks[j]
        size = union.bit_count()
        start = j + 1

