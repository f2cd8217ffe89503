"""The assembly loop: exactly e hyperedges on few vertices via repeated
find-candidate / unpack / remove / recurse, with a greedy base case.

Paper mode uses the literal thresholds (which at desk scale collapse every
run to the base case); practical mode takes small configurable thresholds so
the recursive machinery is actually exercised.

Every frame builds the pair multigraph of what is left of the host with
build_aux: frame 0 of the host itself, each later frame of its residual.
Each multigraph comes with its pair graph as rank-indexed neighbour lists,
which the search reads without naming a vertex; the solve builds no row of
the multigraph, and the only AuxEdges it makes are the kept edges that
unpack reads from the host index. No frame changes what it reads.

An edge's id is its position in the sorted host edges, so the smallest id
is the smallest edge. The residual is a flag per id and a count: a kept
frame clears the flags of its edges, a later frame reads the live edges in
sorted order, and the greedy base pick works on ids. The key index (each
edge's id, and the ids of the edges through each vertex key) is the host's
key_index, made the first time it is read and kept on the host object, so
a host's solves build it once, whether or not they build frame 0.

A solve keeps the ids of the edges it chooses and the set of their vertex
keys as it goes: a kept frame adds its unpacked edges, the greedy pick its
picks. The report's configuration is those edges in id order, which is
sorted order, with that set as its span; verify_configuration is the one
step that recomputes the span from the edges.

A host whose frame 0 is built keeps its pair multigraph and the degeneracy
order of its pair graph by rank until another host's frame 0 is built. So
solving one host at many e builds them once, not per solve, and a warm
solve builds nothing that depends only on the host: its finish does work
sized by the edges it picks and the edges that meet them. The cache entry
holds no key index, which stays with its host object, so solving another
host in between, with or without building its frame 0, costs neither host
its index.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress

from . import degsearch
from .auxgraph import build_aux, simple_subgraph
from .core import Configuration, TripartiteLinearSystem, verify_configuration
from .degsearch import STRATEGIES, find_dense_2deg
from .errors import ExhaustionError, IntegrityError, ParameterError
from .unpack import unpack


def paper_constant_d(t, k0):
    """The deficiency constant max{24*k0, 3(4t + 10^4 t^3)}."""
    if t < 1 or k0 < 1:
        raise ParameterError("t and k0 must be positive")
    return max(24 * k0, 3 * (4 * t + 10**4 * t**3))


@dataclass(frozen=True)
class DriverParams:
    t: int = 4
    k0: int = 1
    tau_max: int = 4
    base_e: int = 4
    paper_mode: bool = False
    budget_ms: int = None
    strategy: str = "peel"

    def __post_init__(self):
        if self.t < 1 or self.k0 < 1:
            raise ParameterError("t and k0 must be positive")
        if self.budget_ms is not None and self.budget_ms <= 0:
            raise ParameterError("budget_ms must be positive (None for unlimited)")
        if self.strategy not in STRATEGIES:
            raise ParameterError(f"unknown strategy {self.strategy!r}")
        if self.tau_max < 0:
            raise ParameterError("tau_max must be non-negative")
        if self.base_e < 1:
            raise ParameterError("base_e must be positive")

    @property
    def base_threshold(self):
        if self.paper_mode:
            return max(8 * self.k0, 4 * self.t + 10**4 * self.t**3)
        return self.base_e


@dataclass(frozen=True)
class FrameReport:
    e_prime: int
    branch: str  # base | top_up | recurse
    flagged: bool
    residual_edges: int
    k: int = 0
    f_edges: int = 0
    achieved_t: int = 0
    unpack_v: int = 0
    unpack_e: int = 0
    note: str = ""
    budget_exhausted: bool = False  # the budget cut this frame's search

    def to_json_dict(self):
        out = dict(vars(self))  # every field is a scalar, so no asdict deep copy
        # only a cut search makes the frame depend on the clock; an uncut one
        # reports exactly as if no budget had been set
        if not self.budget_exhausted:
            del out["budget_exhausted"]
        return out


@dataclass(frozen=True)
class DriverReport:
    e: int
    configuration: Configuration
    d_achieved: int
    d_paper: int
    frames: tuple
    any_flagged: bool

    @property
    def span(self):
        return self.configuration.v

    def to_json_dict(self):
        return {
            "e": self.e,
            "span": self.span,
            "d_achieved": self.d_achieved,
            "d_paper": self.d_paper,
            "edges": [list(x) for x in self.configuration.edges],
            "frames": [f.to_json_dict() for f in self.frames],
            "any_flagged": self.any_flagged,
        }


def _greedy_pick(alive, count, span, edges, edge_keys, by_key):
    """Pick `count` edges, each maximizing overlap with the running span;
    ties go to the lexicographically smallest edge. Returns their ids and
    adds their keys to the set `span`.

    Edges are named by id, their position in the sorted host edges `edges`,
    so the smallest id is the smallest edge. alive[i] is 1 when edge i may be
    picked; the flags are copied, not changed. `by_key` maps each key to the
    ids of the host edges through it, live or not. Edges meeting the span wait
    in one min-heap per overlap (1-3): a live id gets an entry each time its
    overlap reaches a new value, both in the pass that counts the overlaps
    with the starting span and when a key joins the span, and the entries it
    leaves behind in lower heaps are skipped. When the heaps hold no live
    edge, none meets the span, and the pick is the smallest live id, found by
    a pointer that only moves forward.
    Raises ExhaustionError when fewer than `count` edges are live.
    """
    live = bytearray(alive)  # 1 = not yet chosen
    overlap = [0] * len(live)  # a live id's overlap with the span
    heaps = [[], [], [], []]
    for key in span:
        for i in by_key[key]:
            if live[i]:
                ov = overlap[i] = overlap[i] + 1
                heaps[ov].append(i)
    for heap in heaps:
        heapify(heap)
    chosen = []
    p = 0
    while len(chosen) < count:
        for ov in (3, 2, 1):
            heap = heaps[ov]
            while heap and overlap[heap[0]] != ov:
                heappop(heap)  # moved up since this entry was pushed
            if heap:
                i = heappop(heap)
                break
        else:
            try:
                p = i = live.index(1, p)
            except ValueError:
                raise ExhaustionError(count, len(chosen)) from None
        live[i] = 0
        chosen.append(i)
        for key in edge_keys(edges[i]):
            if key not in span:
                span.add(key)
                for j in by_key[key]:
                    if live[j]:
                        overlap[j] += 1
                        heappush(heaps[overlap[j]], j)
    return chosen


# (host, its AuxGraph, the degeneracy order of its pair graph by rank) for
# the last host whose frame 0 was built. Replaced whole, so two entries are
# never mixed, and no solve changes what a slot holds. Hosts are frozen: a
# host equal to the cached one has passed build_aux's checks.
_last_host = None


def _frame0(lts):
    """The multigraph of lts and the degeneracy order of its pair graph, by
    rank.

    They come from the one-entry cache when lts is, or equals, the last host
    cached; otherwise the cache is emptied first, so that two multigraphs are
    never resident at once, and then they are built and cached.
    'exhaustive' ignores the order, which costs little on its pair graphs of
    at most 20 vertices.
    """
    global _last_host
    entry = _last_host
    if entry is not None and (entry[0] is lts or entry[0] == lts):
        return entry[1:]
    _last_host = entry = None  # the local too, or the old entry outlives the build
    aux = build_aux(lts)
    order = degsearch.degeneracy_ordering(simple_subgraph(aux)).ranks
    _last_host = (lts, aux, order)
    return aux, order


# The note of the designed end of the recursion: no frame at this e' can keep
# its candidate, so nothing was missed and the base frame is not flagged.
_END_NOTE = "no frame can recurse or top up; base"

# The note of a finish inside the span: the base pick adds no vertex, which
# no frame can beat, so nothing was missed and it is not flagged either.
_FREE_NOTE = "the span already holds the rest; base"


def _frame_can_succeed(e_prime, k, tau_max):
    """Whether a frame at e_prime, with k = e_prime // 4, can keep its
    candidate: recurse (fe >= v) or top up (e_prime - fe <= tau_max).

    There is no search at k = 1. The pair graph is bipartite, so a candidate
    on k <= 3 vertices has no cycle and at most k - 1 edges, each unpacking
    into at most two hyperedges: fe <= 2(k - 1), below v (at least 5 at
    k = 2 and 6 at k = 3), so only a top-up can keep it.
    """
    if k < 2:
        return False
    return k > 3 or e_prime - 2 * (k - 1) <= tau_max


def find_be_s_configuration(lts, e, params=None):
    """Produce exactly e hyperedges of lts with small span; see module docstring.

    Each pass records a top_up or recurse frame and removes its hyperedges from
    the residual, or stops with a note; one greedy base pick supplies the rest
    from the span of the kept frames' edges. Once a frame has been kept, a pass
    makes that pick on a copy of the span before building its frame, and stops
    if the copy did not grow. Otherwise the pick is the finish unless the
    frame is kept: it depends only on the residual, e' and the span, which a
    frame that is not kept leaves as they were. The base frame is flagged when
    its note names a miss, not when no frame could have kept a candidate or
    improved on the pick.
    """
    if params is None:
        params = DriverParams()
    if e < 1:
        raise ParameterError("e must be positive")
    if lts.m < e:
        raise ExhaustionError(e, lts.m)

    ids, by_key = lts.key_index
    # the residual: alive[i] is 1 while host edge i is left; left counts them
    alive = bytearray(b"\x01") * lts.m
    left = lts.m
    chosen = []  # the ids of the edges chosen so far
    span = set()  # their vertex keys
    frames = []
    e_prime = e
    note = ""
    cut = False  # whether the budget cut the search of a discarded candidate
    finish = None  # (picks, grown span): the base pick from the current residual
    while e_prime > params.base_threshold:
        k = e_prime // 4
        if not _frame_can_succeed(e_prime, k, params.tau_max):
            note = _END_NOTE
            break
        if k < params.k0:
            note = "k below minimum; base fallback"
            break
        if not frames:
            sub = lts
            aux, order = _frame0(lts)
        else:
            grown = set(span)
            finish = _greedy_pick(alive, e_prime, grown, lts.edges, lts.edge_keys, by_key), grown
            if len(grown) == len(span):
                note = _FREE_NOTE
                break
            sub = TripartiteLinearSystem(lts.sizes, tuple(compress(lts.edges, alive)))
            aux, order = build_aux(sub), None
        graph = simple_subgraph(aux)
        if graph.n < k:
            note = "pair graph too small; base fallback"
            break
        result = find_dense_2deg(
            graph, k, params.t, strategy=params.strategy,
            budget_ms=params.budget_ms, order=order,
        )
        cand = result.candidate
        cfg, trace = unpack(cand, aux, sub)
        fe = trace.e_total
        top_up = e_prime - fe <= params.tau_max
        if not top_up and fe < trace.v_total:
            note = "candidate neither dense nor self-sustaining"
            cut = result.budget_exhausted
            break
        span |= cfg.span
        finish = None
        before = left
        for x in cfg.edges:
            i = ids[x]
            alive[i] = 0
            chosen.append(i)
        left -= len(cfg.edges)
        frames.append(
            FrameReport(
                e_prime, "top_up" if top_up else "recurse", not result.success,
                before if top_up else left,
                k=k, f_edges=2 * k - cand.achieved_t, achieved_t=cand.achieved_t,
                unpack_v=trace.v_total, unpack_e=fe,
                budget_exhausted=result.budget_exhausted,
            )
        )
        e_prime -= fe
        if top_up:
            break

    if finish is None:
        finish = _greedy_pick(alive, e_prime, span, lts.edges, lts.edge_keys, by_key), span
    picks, span = finish
    chosen += picks
    if not (frames and frames[-1].branch == "top_up"):
        frames.append(FrameReport(
            e_prime, "base", note not in ("", _END_NOTE, _FREE_NOTE), left, note=note,
            budget_exhausted=cut))

    # ids sort as their edges do; verify_configuration recomputes the span
    cfg = Configuration(tuple(map(lts.edges.__getitem__, sorted(chosen))), frozenset(span))
    if not verify_configuration(lts, cfg, cfg.v, e):
        raise IntegrityError(f"assembled configuration fails the contract for e={e}")
    return DriverReport(
        e=e,
        configuration=cfg,
        d_achieved=cfg.v - cfg.e,
        d_paper=paper_constant_d(params.t, params.k0),
        frames=tuple(frames),
        any_flagged=any(f.flagged for f in frames),
    )
