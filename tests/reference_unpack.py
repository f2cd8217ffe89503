"""The record-building unpack that the NamedTuple walk replaced, kept as the
reference for its configuration, its trace and its errors.

Each step is a frozen dataclass with the fields of unpack.StepRecord, built
from keyword arguments; the step laws read a dict of dV caps per call, a
kept edge's hyperedges are walked twice, and the configuration's span is
taken from its edges after the walk by Configuration.from_edges. Every
self-check raises the exception, with the message, that unpack raises.

audit_involvement re-checks the involvement theorems on a whole trace, the
reference for the check that unpack makes at every step.
"""

from dataclasses import dataclass, fields

from besforge.core import Configuration
from besforge.errors import AuditError, IntegrityError
from besforge.graphs import canon_edge

CLASS_SINGULAR = "singular"
CLASS_ZERO = "zero_step"
CLASS_FOUR = "four_step"
CLASS_GOOD = "good_regular"


@dataclass(frozen=True)
class ReferenceStep:
    i: int
    vertex: tuple
    side: str
    d: int
    cls: str
    delta_e: int
    delta_v: int
    apexes: tuple
    involved: tuple
    new_edges: tuple
    new_vertices: tuple

    @property
    def is_regular(self):
        return self.d == 2

    @property
    def is_good(self):
        return self.cls in (CLASS_GOOD, CLASS_SINGULAR)

    def fields(self):
        """The field values, in field order."""
        return tuple(getattr(self, f.name) for f in fields(self))

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


def _classify(d, delta_e, delta_v):
    if d <= 1:
        return CLASS_SINGULAR
    if delta_e == 0:
        return CLASS_ZERO
    if delta_e == 4 and delta_v == 4:
        return CLASS_FOUR
    return CLASS_GOOD


def _check_step_laws(rec):
    if not 0 <= rec.delta_e <= 2 * rec.d <= 4:
        raise IntegrityError(f"step {rec.i}: dE={rec.delta_e} out of range for d={rec.d}")
    if rec.is_regular:
        cap = {4: 4, 3: 2, 2: 1, 1: 0, 0: 0}[rec.delta_e]
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
    for j in range(0, len(rec.involved), 2):
        pair = frozenset(rec.involved[j : j + 2])
        first = pairs.setdefault(pair, rec.i)
        if first != rec.i:
            raise AuditError(
                f"hyperedge pair {tuple(sorted(pair))} involved in steps {[first, rec.i]}",
                [first, rec.i],
            )
    if rec.cls == CLASS_ZERO:
        for apex in set(rec.apexes):
            if apex not in good_apexes:
                raise AuditError(
                    f"0-step {rec.i} involves apex {apex} with no preceding good step",
                    (rec.i,),
                )
    if rec.is_good:
        good_apexes.update(rec.apexes)


def reference_unpack(candidate, aux, host):
    """(Configuration, v_total, e_total, steps) of the walk, or the
    exception of its first failed check."""
    host_edges = host.edge_set

    walked = set()
    span_keys = set()
    hyperedges = set()
    pairs = {}
    good_apexes = set()
    steps = []
    for i, (v, us) in enumerate(zip(candidate.vertices, candidate.back), start=1):
        if v in walked:
            raise IntegrityError(f"vertex {v} repeats in the candidate")
        if not aux.has_vertex(v):
            raise IntegrityError(f"vertex {v} is not a pair-vertex of the multigraph")
        anns = []
        for u in us:
            if u not in walked:
                raise IntegrityError(f"back-neighbour {u} of {v} is not an earlier vertex")
            fe = canon_edge(u, v)
            ann = aux.kept_edge(*fe)
            if ann is None:
                raise IntegrityError(f"candidate edge {fe} is not in the pair multigraph")
            for h in ann.hyperedges():
                if h not in host_edges:
                    raise IntegrityError(f"hyperedge {h} absent from the host system")
            anns.append(ann)
        anns.sort(key=lambda a: a.apex)

        side = v[0]
        new_vertices = []
        for key in ((side, v[1]), (side, v[2])):
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
            ckey = ("C", ann.apex)
            if ckey not in span_keys:
                span_keys.add(ckey)
                new_vertices.append(ckey)

        rec = ReferenceStep(
            i=i,
            vertex=v,
            side=side,
            d=len(anns),
            cls=_classify(len(anns), len(new_edges), len(new_vertices)),
            delta_e=len(new_edges),
            delta_v=len(new_vertices),
            apexes=tuple(apexes),
            involved=tuple(involved),
            new_edges=tuple(new_edges),
            new_vertices=tuple(new_vertices),
        )
        _check_step_laws(rec)
        _check_involvement(rec, pairs, good_apexes)
        steps.append(rec)
        walked.add(v)

    cfg = Configuration.from_edges(host, hyperedges)
    return cfg, len(span_keys), len(hyperedges), tuple(steps)


def audit_involvement(trace):
    """Verify the involvement theorems on a whole trace and return Z, the
    frozenset of the apexes involved in 0-steps: the reference for the check
    that unpack makes at every step (unpack._check_involvement).

    (i) no apex-sharing hyperedge pair is involved in two steps;
    (ii) every 0-step apex was involved in an earlier good (good-regular or
    singular) step. Violations raise AuditError naming the steps.
    """
    apex_steps = {}
    pair_steps = {}
    step_by_index = {s.i: s for s in trace.steps}
    for s in trace.steps:
        for apex in set(s.apexes):
            apex_steps.setdefault(apex, []).append(s.i)
        seen_pairs = set()
        for j in range(0, len(s.involved), 2):
            pair = frozenset(s.involved[j : j + 2])
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            pair_steps.setdefault(pair, []).append(s.i)

    for pair, where in pair_steps.items():
        if len(where) > 1:
            raise AuditError(
                f"hyperedge pair {tuple(sorted(pair))} involved in steps {where}", where
            )

    zero_apexes = set()
    for s in trace.steps:
        if s.cls != CLASS_ZERO:
            continue
        zero_apexes.update(s.apexes)
        for apex in set(s.apexes):
            if not any(j < s.i and step_by_index[j].is_good for j in apex_steps[apex]):
                raise AuditError(
                    f"0-step {s.i} involves apex {apex} with no preceding good step",
                    (s.i,),
                )
    return frozenset(zero_apexes)
