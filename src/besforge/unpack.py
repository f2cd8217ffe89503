"""Unpack a 2-degenerate pair-graph candidate into a hyperedge configuration.

Walking the candidate's certificate one vertex at a time, each step adds the
pair's two part elements and, per back-neighbour the vertex keeps, the apex
and the two hyperedges of the multigraph edge that the pair graph keeps for
their edge. Every step is recorded, classified and checked against the
per-step accounting rules and the involvement theorems, which hold for
well-formed inputs. A kept edge is at most four reads of the host index
behind aux (see auxgraph), so a walk names only the candidate's own
vertices.

A step is a StepRecord, an immutable NamedTuple: it compares equal to the
plain tuple of its fields. The configuration's span is collected as its
hyperedges join the walk, so no second pass over them is made.

The involvement theorems are checked once, step by step, inside the walk;
the audit of a whole trace that the tests compare it with lives in
tests/reference_unpack.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .core import Configuration
from .errors import AuditError, IntegrityError
from .graphs import canon_edge

CLASS_SINGULAR = "singular"
CLASS_ZERO = "zero_step"
CLASS_FOUR = "four_step"
CLASS_GOOD = "good_regular"


class StepRecord(NamedTuple):
    i: int  # 1-based step index
    vertex: tuple  # the pair-vertex added
    side: str
    d: int  # back-neighbours the vertex keeps (0, 1 or 2)
    cls: str
    delta_e: int
    delta_v: int
    apexes: tuple  # apexes of the step's kept multigraph edges (<= 2)
    involved: tuple  # all hyperedges playing a role, new or not (<= 4)
    new_edges: tuple
    new_vertices: tuple

    @property
    def is_regular(self):
        return self.d == 2

    @property
    def is_good(self):
        """Good in the aggregate-counting sense: good regular or singular."""
        return self.cls in (CLASS_GOOD, CLASS_SINGULAR)

    def to_json_dict(self):
        return {
            "i": self.i,
            "vertex": list(self.vertex[1:]),
            "side": self.side,
            "d": self.d,
            "class": self.cls,
            "dE": self.delta_e,
            "dV": self.delta_v,
            "apexes": list(self.apexes),
            "new_edges": [list(e) for e in self.new_edges],
            "new_vertices": [list(v) for v in self.new_vertices],
        }


@dataclass(frozen=True)
class UnpackTrace:
    steps: tuple
    v_total: int  # includes pair elements of isolated candidate vertices
    e_total: int


@dataclass(frozen=True)
class LemmaBoundsReport:
    assertion1_ok: bool
    assertion2_branch: str  # near_4k | self_sustaining | violated | empty
    within_hypotheses: bool


def _classify(d, delta_e, delta_v):
    if d <= 1:
        return CLASS_SINGULAR
    if delta_e == 0:
        return CLASS_ZERO
    if delta_e == 4 and delta_v == 4:
        return CLASS_FOUR
    return CLASS_GOOD


# a regular step's largest dV, by its dE
_DV_CAPS = (0, 0, 1, 2, 4)

_apex = attrgetter("apex")


def _check_step_laws(rec):
    if not 0 <= rec.delta_e <= 2 * rec.d <= 4:
        raise IntegrityError(f"step {rec.i}: dE={rec.delta_e} out of range for d={rec.d}")
    if rec.is_regular:
        cap = _DV_CAPS[rec.delta_e]
        if rec.delta_v > cap:
            raise IntegrityError(
                f"step {rec.i}: regular with dE={rec.delta_e} but dV={rec.delta_v} > {cap}"
            )
        if len(set(rec.apexes)) != 2:
            raise IntegrityError(f"step {rec.i}: regular step must involve two distinct apexes")
    else:
        if rec.delta_e < rec.delta_v - 2:
            raise IntegrityError(
                f"step {rec.i}: singular with dE={rec.delta_e} < dV-2={rec.delta_v - 2}"
            )


def _check_involvement(rec, pairs, good_apexes):
    """The involvement theorems for step rec, given the apex-sharing
    hyperedge pairs of the earlier steps (pair -> its first step) and the
    apexes of the earlier good steps: (i) no apex-sharing hyperedge pair is
    involved in two steps, and (ii) every 0-step apex was involved in an
    earlier good (good-regular or singular) step. A violation raises
    AuditError naming the steps; otherwise rec's pairs and, if it is good,
    its apexes are added."""
    i = rec.i
    involved = iter(rec.involved)  # a kept edge's two hyperedges, edge by edge
    for pair in map(frozenset, zip(involved, involved)):
        first = pairs.setdefault(pair, i)
        if first != i:
            raise AuditError(
                f"hyperedge pair {tuple(sorted(pair))} involved in steps {[first, i]}",
                [first, i],
            )
    if rec.cls == CLASS_ZERO:
        for apex in set(rec.apexes):
            if apex not in good_apexes:
                raise AuditError(
                    f"0-step {i} involves apex {apex} with no preceding good step",
                    (i,),
                )
    elif rec.is_good:
        good_apexes.update(rec.apexes)


def unpack(candidate, aux, host):
    """Run the unpacking process and return (Configuration, UnpackTrace).

    `aux` is the multigraph whose pair graph the candidate was found in;
    each kept back-edge unpacks into aux.kept_edge of its pair. A vertex that
    is not a pair-vertex of aux, a repeated vertex, a back-neighbour no
    earlier step walked, or a back-edge that aux does not join (two
    pair-vertices of one side among them) raises IntegrityError.
    Each step is checked against the step laws and then the involvement
    theorems, which raise AuditError, so a trace that unpack returns obeys
    both theorems.
    """
    host_edges = host.edge_set
    kept_edge = aux.kept_edge
    pair_vertex = aux.has_vertex

    walked = set()  # the vertices of the steps so far
    span_keys = set()
    hyperedges = set()
    # the part-local vertices of those hyperedges by part: the configuration's span
    span_a, span_b, span_c = parts = (set(), set(), set())
    pairs = {}  # each apex-sharing hyperedge pair involved so far -> its step
    good_apexes = set()  # the apexes of the good steps so far
    steps = []
    for i, (v, us) in enumerate(zip(candidate.vertices, candidate.back), start=1):
        if v in walked:
            raise IntegrityError(f"vertex {v} repeats in the candidate")
        if not pair_vertex(v):
            raise IntegrityError(f"vertex {v} is not a pair-vertex of the multigraph")
        anns = []
        for u in us:
            if u not in walked:
                raise IntegrityError(f"back-neighbour {u} of {v} is not an earlier vertex")
            fe = canon_edge(u, v)
            ann = kept_edge(*fe)
            if ann is None:
                raise IntegrityError(f"candidate edge {fe} is not in the pair multigraph")
            for h in ann.hyperedges():
                if h not in host_edges:
                    raise IntegrityError(f"hyperedge {h} absent from the host system")
            anns.append(ann)
        anns.sort(key=_apex)

        side, p, q = v
        new_vertices = []
        for key in ((side, p), (side, q)):
            if key not in span_keys:
                span_keys.add(key)
                new_vertices.append(key)
        new_edges = []
        involved = []
        apexes = []
        for ann in anns:
            apexes.append(ann.apex)
            for h in ann.hyperedges():
                involved.append(h)
                if h not in hyperedges:
                    hyperedges.add(h)
                    new_edges.append(h)
                    a, b, c = h
                    span_a.add(a)
                    span_b.add(b)
                    span_c.add(c)
            ckey = ("C", ann.apex)
            if ckey not in span_keys:
                span_keys.add(ckey)
                new_vertices.append(ckey)

        d, delta_e, delta_v = len(anns), len(new_edges), len(new_vertices)
        rec = StepRecord(i, v, side, d, _classify(d, delta_e, delta_v), delta_e, delta_v,
                         tuple(apexes), tuple(involved), tuple(new_edges), tuple(new_vertices))
        _check_step_laws(rec)
        _check_involvement(rec, pairs, good_apexes)
        steps.append(rec)
        walked.add(v)

    span = frozenset((name, x) for name, part in zip("ABC", parts) for x in part)
    cfg = Configuration(tuple(sorted(hyperedges)), span)
    return cfg, UnpackTrace(tuple(steps), len(span_keys), len(hyperedges))


def check_lemma_bounds(trace, k, t):
    """Evaluate the two lemma assertions literally on a trace.

    The guarantee assumes k >= t >= 4; smaller parameters are still processed
    but flagged as outside the hypotheses.
    """
    within = t >= 4 and k >= t
    if k == 0:
        return LemmaBoundsReport(True, "empty", within)
    v_count = trace.v_total
    e_count = trace.e_total
    assertion1 = v_count - 4 * t <= e_count <= 4 * k
    if e_count >= 4 * k - 10**4 * t**3:
        branch = "near_4k"
    elif e_count >= v_count > 0:
        branch = "self_sustaining"
    else:
        branch = "violated"
    return LemmaBoundsReport(assertion1, branch, within)
