"""The assembly loop: exactly e hyperedges on few vertices via repeated
find-candidate / unpack / remove / recurse, with a greedy base case.

Paper mode uses the literal thresholds (which at desk scale collapse every
run to the base case); practical mode takes small configurable thresholds so
the recursive machinery is actually exercised.

Every frame builds the pair multigraph of what is left of the host with
build_aux: frame 0 of the host itself, each later frame of its residual.
Each multigraph comes with its pair graph, made in the pass that makes its
rows, and the solve reads the rows as plain tuples: the only AuxEdges it
makes are the kept edges that unpack asks for. No frame changes what it
reads.

A host solved again keeps its pair multigraph, the degeneracy order of its
pair graph and an index of its edges by vertex key (which seeds the greedy
base pick) until another host is solved. So solving one host at many e
builds them twice (once for the first solve, once to keep), not per solve,
and frame 0 of a warm solve builds nothing that depends only on the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

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


def _greedy_pick(available, count, span, edge_keys, by_key):
    """Pick `count` edges, each maximizing overlap with the running span;
    ties go to the lexicographically smallest edge.

    `available` must be sorted, as the driver's residual is: it starts as
    the host's sorted edges and each frame only filters it. `by_key` maps
    each key to the host edges through it and may list edges outside
    `available`. Edges meeting the span wait in one min-heap per overlap
    (1-3); a key joining the span moves the available edges through it one
    heap up, and the entries they leave behind are skipped. When the heaps
    hold no available edge, none meets the span, and the pick is the first
    edge of `available` not yet chosen, found by a pointer that only moves
    forward.
    """
    if len(available) < count:
        raise ExhaustionError(count, len(available))
    live = set(available)  # not yet chosen
    span = set(span)
    overlap = {}  # live edge meeting the span -> its overlap with the span
    for key in span:
        for y in by_key[key]:
            if y in live:
                overlap[y] = overlap.get(y, 0) + 1
    heaps = [[], [], [], []]
    for y, ov in overlap.items():
        heaps[ov].append(y)
    for heap in heaps:
        heapify(heap)
    chosen = []
    p = 0
    while len(chosen) < count:
        for ov in (3, 2, 1):
            heap = heaps[ov]
            while heap and overlap.get(heap[0]) != ov:
                heappop(heap)  # chosen, or moved up since this entry was pushed
            if heap:
                x = heappop(heap)
                del overlap[x]
                break
        else:
            while available[p] not in live:
                p += 1
            x = available[p]
        live.remove(x)
        chosen.append(x)
        for key in edge_keys(x):
            if key not in span:
                span.add(key)
                for y in by_key[key]:
                    if y in live:
                        up = overlap[y] = overlap.get(y, 0) + 1
                        heappush(heaps[up], y)
    return chosen


def _key_index(lts):
    """Each vertex key of lts -> the host edges through it, in sorted order.

    The edges are grouped by part-local id, one dict per part, and keyed as
    lts.edge_keys names them only at the end. Dicts rather than lists indexed
    by id, so that the index is sized by the edges and not by the part sizes
    that the input header declares.
    """
    parts = ({}, {}, {})
    by_a, by_b, by_c = parts
    for x in lts.edges:
        a, b, c = x
        by_a.setdefault(a, []).append(x)
        by_b.setdefault(b, []).append(x)
        by_c.setdefault(c, []).append(x)
    return {(name, i): xs for name, part in zip("ABC", parts) for i, xs in part.items()}


# (host, its AuxGraph, the degeneracy order of its pair graph, its key index)
# for the last host solved; every slot after the host is None until the host
# is solved a second time. Replaced whole, so two entries are never mixed, and
# no solve changes what a slot holds. Hosts are frozen: a host equal to the
# cached one has passed build_aux's checks.
_last_host = None


def _cache_entry(lts):
    """The cache entry when lts is, or equals, the last host solved, else None."""
    entry = _last_host
    if entry is not None and (entry[0] is lts or entry[0] == lts):
        return entry
    return None


def _frame0(lts):
    """The multigraph of lts and the degeneracy order of its pair graph.

    They come from the one-entry cache when lts is, or equals, the last host
    solved and was solved before that too; otherwise they are built. The
    first solve of a host keeps only the host, so a host solved once leaves
    nothing resident; the second also keeps the two and the key index.
    'exhaustive' ignores the order, which costs little on its pair graphs of
    at most 20 vertices.
    """
    global _last_host
    entry = _cache_entry(lts)
    if entry is not None and entry[1] is not None:
        return entry[1:3]
    aux = build_aux(lts)
    order = degsearch.degeneracy_ordering(simple_subgraph(aux)).order
    if entry is None:
        _last_host = (lts, None, None, None)
    else:
        _last_host = (lts, aux, order, _key_index(lts))
    return aux, order


# The note of the designed end of the recursion: no frame at this e' can keep
# its candidate, so nothing was missed and the base frame is not flagged.
_END_NOTE = "no frame can recurse or top up; base"

# The note of a finish inside the span (see _free_finish): no frame can make
# a smaller configuration, so nothing was missed and it is not flagged either.
_FREE_NOTE = "the span already holds the rest; base"


def _free_finish(residual, e_prime, span, edge_keys):
    """Whether at least e_prime residual edges lie entirely inside span, that
    is, whether the greedy base pick of e_prime edges adds no vertex.

    The pick takes overlap-3 edges first, smallest first, and taking one does
    not grow the span, so no other edge's overlap changes. So it adds no vertex
    exactly when at least e_prime edges have all three keys in the span, and
    it then takes the e_prime smallest of them. The span of the edges already
    chosen cannot shrink, and a finish cannot add fewer than zero vertices, so
    no frame could give a smaller configuration than this pick.
    """
    inside = 0
    for x in residual:
        if span.issuperset(edge_keys(x)):
            inside += 1
            if inside >= e_prime:
                return True
    return False


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
    first stops if that pick would add no vertex (_free_finish), before
    building its frame. The base frame is flagged when its note names a miss,
    not when no frame could have kept a candidate or improved on the pick.
    """
    if params is None:
        params = DriverParams()
    if e < 1:
        raise ParameterError("e must be positive")
    if lts.m < e:
        raise ExhaustionError(e, lts.m)

    residual = list(lts.edges)
    chosen = []
    span = set()  # the vertex keys of chosen
    frames = []
    e_prime = e
    note = ""
    cut = False  # whether the budget cut the search of a discarded candidate
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
        elif _free_finish(residual, e_prime, span, lts.edge_keys):
            note = _FREE_NOTE
            break
        else:
            sub = TripartiteLinearSystem(lts.sizes, tuple(residual))
            aux, order = build_aux(sub), None
        graph = simple_subgraph(aux)
        if graph.n < k or not aux.rows:
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
        if not top_up and not (fe >= trace.v_total and fe > 0):
            note = "candidate neither dense nor self-sustaining"
            cut = result.budget_exhausted
            break
        chosen.extend(cfg.edges)
        span |= cfg.span
        before = len(residual)
        used = set(cfg.edges)
        residual = [x for x in residual if x not in used]
        frames.append(
            FrameReport(
                e_prime, "top_up" if top_up else "recurse", not result.success,
                before if top_up else len(residual),
                k=k, f_edges=len(cand.edges), achieved_t=cand.achieved_t,
                unpack_v=trace.v_total, unpack_e=fe,
                budget_exhausted=result.budget_exhausted,
            )
        )
        e_prime -= fe
        if top_up:
            break

    entry = _cache_entry(lts)
    by_key = _key_index(lts) if entry is None or entry[3] is None else entry[3]
    chosen.extend(_greedy_pick(residual, e_prime, span, lts.edge_keys, by_key))
    if not (frames and frames[-1].branch == "top_up"):
        frames.append(FrameReport(
            e_prime, "base", note not in ("", _END_NOTE, _FREE_NOTE), len(residual), note=note,
            budget_exhausted=cut))

    cfg = Configuration.from_edges(lts, chosen)
    if cfg.e != e or not verify_configuration(lts, cfg, cfg.v, e):
        raise IntegrityError(f"assembled configuration fails the contract for e={e}")
    return DriverReport(
        e=e,
        configuration=cfg,
        d_achieved=cfg.v - cfg.e,
        d_paper=paper_constant_d(params.t, params.k0),
        frames=tuple(frames),
        any_flagged=any(f.flagged for f in frames),
    )
