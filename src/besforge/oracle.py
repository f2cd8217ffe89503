"""Exhaustive ground truth: minimum span over all e-edge sub-collections.

Branch and bound over the lexicographic edge order; pruning is sound because
the running union of vertices only grows along a branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .core import Configuration
from .errors import GuardExceededError, ParameterError

DEFAULT_GUARD = 10**7


@dataclass(frozen=True)
class OracleResult:
    v: int
    witness: Configuration


def min_span(host, e, guard=DEFAULT_GUARD, _target=None):
    """Exact minimum v admitting a (v, e)-configuration in host, with witness.

    If _target is given the search stops as soon as some configuration with
    span <= _target is found (the returned v is then only an upper bound,
    sufficient for existence queries).
    """
    edges = list(host.edges)
    m = len(edges)
    if e < 1:
        raise ParameterError("e must be positive")
    if e > m:
        raise ParameterError(f"e={e} exceeds the host's {m} edges")
    if comb(m, e) > guard:
        raise GuardExceededError(f"C({m},{e}) exceeds guard {guard}")
    keys = [frozenset(host.edge_keys(x)) for x in edges]

    best_v = None
    best_pick = None

    def rec(idx, picked, union):
        nonlocal best_v, best_pick
        if len(picked) == e:
            if best_v is None or len(union) < best_v:
                best_v = len(union)
                best_pick = list(picked)
            return
        # skipping idx goes on to idx + 1 here, not in a call: depth <= e
        while True:
            if best_v is not None and _target is not None and best_v <= _target:
                return
            if m - idx < e - len(picked):
                return
            if best_v is not None and len(union) >= best_v:
                return
            picked.append(idx)
            rec(idx + 1, picked, union | keys[idx])
            picked.pop()
            idx += 1

    rec(0, [], frozenset())
    witness = Configuration.from_edges(host, [edges[i] for i in best_pick])
    return OracleResult(best_v, witness)


def exists_config(host, v, e, guard=DEFAULT_GUARD):
    """True iff host contains an (v, e)-configuration; short-circuits."""
    result = min_span(host, e, guard=guard, _target=v)
    return result.v <= v
