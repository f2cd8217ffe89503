import importlib
import random
import re
from itertools import combinations
from types import SimpleNamespace

import pytest

import besforge.driver
from besforge import (
    AuditError,
    AuxEdge,
    CandidateF,
    IntegrityError,
    StepRecord,
    TripartiteLinearSystem,
    UnpackTrace,
    build_aux,
    check_lemma_bounds,
    find_dense_2deg,
    group_system,
    random_linear,
    simple_subgraph,
    unpack,
    verify_configuration,
)
from besforge.graphs import canon_edge
from random_candidates import random_candidate, trim_by_name
from reference_unpack import audit_involvement, reference_unpack

# the module; the package's `unpack` attribute is the function
unpack_module = importlib.import_module("besforge.unpack")

DELTA_CAPS = {4: 4, 3: 2, 2: 1, 1: 0, 0: 0}


def _fixture(m):
    lts = group_system(m)
    aux = build_aux(lts)
    return lts, aux, simple_subgraph(aux)


def test_single_edge_unpacks_to_two_hyperedges_on_five_vertices():
    lts, aux, graph = _fixture(3)
    u, w = graph.edges[0]
    F = CandidateF((u, w), ((), (u,)))
    cfg, trace = unpack(F, aux, lts)
    assert trace.e_total == 2 and trace.v_total == 5
    assert trace.steps[0].cls == "singular" and trace.steps[1].cls == "singular"


def test_worked_4_cycle_example():
    lts, aux, graph = _fixture(3)
    F = CandidateF(
        (("A", 0, 1), ("B", 0, 2), ("A", 1, 2), ("B", 1, 2)),
        ((), (("A", 0, 1),), (("B", 0, 2),), (("A", 1, 2), ("A", 0, 1))),
    )
    F.validate(graph)
    assert F.edges == (
        (("A", 0, 1), ("B", 0, 2)),
        (("A", 0, 1), ("B", 1, 2)),
        (("A", 1, 2), ("B", 0, 2)),
        (("A", 1, 2), ("B", 1, 2)),
    )
    cfg, trace = unpack(F, aux, lts)
    assert [(s.delta_v, s.delta_e) for s in trace.steps] == [(2, 0), (3, 2), (2, 2), (2, 3)]
    assert trace.v_total == 9 and trace.e_total == 7
    assert verify_configuration(lts, cfg, 9, 7)

    bounds = check_lemma_bounds(trace, 4, 4)
    assert bounds.assertion1_ok  # 9 - 16 <= 7 <= 16
    assert bounds.assertion2_branch == "near_4k"  # 7 >= 16 - 640000
    assert bounds.within_hypotheses

    assert audit_involvement(trace) == frozenset()


def _zero_step_trace():
    # group_system(5) holds the hyperedges (a, b, a + b mod 5). Steps 3-6
    # are singular and add {(0,0,0), (4,1,0)}, {(1,0,1), (2,4,1)},
    # {(0,1,1), (4,2,1)} and {(1,4,0), (2,3,0)}. Step 7 then joins ('A', 0, 1)
    # to ('B', 0, 1) by {(0,1,1), (1,0,1)} at apex 1 and to ('B', 0, 4) by
    # {(0,0,0), (1,4,0)} at apex 0: all four are already there, so it is a
    # 0-step on apexes 0 and 1, each involved in an earlier singular step.
    lts, aux, graph = _fixture(5)
    a01, a04, a12 = ("A", 0, 1), ("A", 0, 4), ("A", 1, 2)
    b01, b04, b12, b34 = ("B", 0, 1), ("B", 0, 4), ("B", 1, 2), ("B", 3, 4)
    F = CandidateF(
        (a04, a12, b01, b04, b12, b34, a01),
        ((), (), (a04,), (a12,), (a04,), (a12,), (b01, b04)),
    )
    F.validate(graph)
    assert F.edges == ((a01, b01), (a01, b04), (a04, b01), (a04, b12), (a12, b04), (a12, b34))
    return unpack(F, aux, lts)[1]


def test_a_zero_step_puts_its_apexes_in_z():
    trace = _zero_step_trace()
    assert [s.cls for s in trace.steps] == ["singular"] * 6 + ["zero_step"]
    assert trace.steps[-1].apexes == (0, 1)
    assert trace.steps[-1].delta_e == trace.steps[-1].delta_v == 0
    assert audit_involvement(trace) == frozenset({0, 1})


def test_audit_rejects_a_repeated_pair_and_a_zero_step_without_a_good_one():
    steps = _zero_step_trace().steps
    with pytest.raises(AuditError, match=r"involved in steps \[3, 8\]"):
        audit_involvement(UnpackTrace((*steps, steps[2]._replace(i=8)), 0, 0))
    with pytest.raises(AuditError, match="0-step 7 involves apex 0 with no preceding good step"):
        audit_involvement(UnpackTrace(steps[-1:], 0, 0))


def test_isolated_vertices_inflate_v_only():
    lts, aux, _graph = _fixture(3)
    F = CandidateF((("A", 0, 1), ("B", 0, 1)), ((), ()))
    cfg, trace = unpack(F, aux, lts)
    assert trace.e_total == 0 and trace.v_total == 4
    assert all(s.cls == "singular" and s.delta_e == 0 for s in trace.steps)
    assert cfg.e == 0


def test_empty_candidate_reports_empty_branch():
    lts, aux, _graph = _fixture(3)
    F = CandidateF((), ())
    _cfg, trace = unpack(F, aux, lts)
    report = check_lemma_bounds(trace, 0, 0)
    assert report.assertion2_branch == "empty"


def test_small_t_flagged_outside_hypotheses():
    lts, aux, graph = _fixture(3)
    u, w = graph.edges[0]
    F = CandidateF((u, w), ((), (u,)))
    _cfg, trace = unpack(F, aux, lts)
    report = check_lemma_bounds(trace, 2, F.achieved_t)
    assert F.achieved_t == 3
    assert not report.within_hypotheses
    assert report.assertion1_ok  # 5 - 12 <= 2 <= 8


def test_missing_annotation_raises():
    lts, aux, _graph = _fixture(3)
    u, w = ("A", 0, 1), ("B", 0, 1)
    F = CandidateF((u, w), ((), (u,)))
    # the multigraph of the host less one hyperedge of that edge, which
    # lacks the edge
    gone = aux.kept_edge(u, w).h1
    lacking = build_aux(TripartiteLinearSystem(lts.sizes, tuple(x for x in lts.edges if x != gone)))
    assert lacking.kept_edge(u, w) is None
    with pytest.raises(IntegrityError, match="not in the pair multigraph"):
        unpack(F, lacking, lts)


def test_a_same_side_back_edge_is_not_in_the_pair_multigraph():
    lts = group_system(4)
    aux = build_aux(lts)
    a01, a23 = ("A", 0, 1), ("A", 2, 3)
    assert aux.kept_edge(a01, a23) is None
    with pytest.raises(IntegrityError, match="is not in the pair multigraph"):
        unpack(CandidateF((a01, a23), ((), (a01,))), aux, lts)


def test_a_hyperedge_missing_from_the_host_raises():
    lts, aux, graph = _fixture(3)
    u, w = graph.edges[0]
    F = CandidateF((u, w), ((), (u,)))
    gone = aux.kept_edge(u, w).hyperedges()[0]
    # the host that the multigraph was built from, less one of that edge's hyperedges
    lacking = TripartiteLinearSystem(lts.sizes, tuple(x for x in lts.edges if x != gone))
    with pytest.raises(IntegrityError, match=re.escape(f"hyperedge {gone} absent from the host system")):
        unpack(F, aux, lacking)


@pytest.mark.parametrize("v_total, e_total, branch", [
    (5, 10, "self_sustaining"), (10, 10, "self_sustaining"), (10, 5, "violated"), (0, 0, "violated"),
])
def test_lemma_bounds_below_the_near_4k_threshold(v_total, e_total, branch):
    # at t = 1 and k = 5000, near_4k needs e >= 4k - 10**4 = 10**4, far above
    # what a desk-scale unpacking reaches, so the trace is made up
    report = check_lemma_bounds(UnpackTrace((), v_total, e_total), 5000, 1)
    assert report.assertion2_branch == branch
    assert not report.within_hypotheses
    assert report.assertion1_ok == (v_total - 4 <= e_total)


def _by_later_endpoint(candidate):
    """The candidate with each vertex's back-neighbours re-derived from its
    edges, grouped by their later endpoint in edge order, as unpack found
    them before candidates stored their back-neighbours."""
    pos = {v: i for i, v in enumerate(candidate.vertices)}
    back = [[] for _ in candidate.vertices]
    for u, w in candidate.edges:
        earlier, later = sorted((u, w), key=pos.get)
        back[pos[later]].append(earlier)
    return CandidateF(candidate.vertices, tuple(map(tuple, back)))


@pytest.mark.parametrize("strategy", ["peel", "exhaustive"])
def test_unpack_matches_the_later_endpoint_grouping(strategy):
    hosts = [group_system(3), group_system(4), random_linear(4, 4, 4, 9, 3)]
    if strategy == "peel":
        hosts += [group_system(6), random_linear(12, 12, 12, 90, 0)]
    for lts in hosts:
        aux = build_aux(lts)
        graph = simple_subgraph(aux)
        for k in range(2, min(graph.n, 9) + 1):
            cand = find_dense_2deg(graph, k, 4, strategy=strategy).candidate
            assert unpack(cand, aux, lts) == unpack(_by_later_endpoint(cand), aux, lts)


def test_a_later_back_neighbour_or_a_repeated_vertex_raises():
    lts, aux, graph = _fixture(3)
    u, w = graph.edges[0]
    with pytest.raises(IntegrityError, match=re.escape(f"back-neighbour {w} of {u} is not an earlier vertex")):
        unpack(CandidateF((u, w), ((w,), ())), aux, lts)
    with pytest.raises(IntegrityError, match=re.escape(f"vertex {u} repeats in the candidate")):
        unpack(CandidateF((u, w, u), ((), (u,), ())), aux, lts)


# candidates on group_system(4) with one vertex that is not a pair-vertex of
# its multigraph: a C-side name, an unsupported name and two malformed ones,
# walked alone, at the end of a back-edge or as a back-edge's later end
_NOT_PAIR_VERTICES = [
    (("C", 0, 1), CandidateF((("C", 0, 1),), ((),))),
    (("A", 0, 0), CandidateF((("A", 0, 0),), ((),))),
    (("A", 0), CandidateF((("A", 0), ("B", 0, 1)), ((), (("A", 0),)))),
    (("B", 0, 1, 2), CandidateF((("B", 0, 1, 2), ("A", 0, 1)), ((), (("B", 0, 1, 2),)))),
    (("B", 0, 1, 2), CandidateF((("A", 0, 1), ("B", 0, 1, 2)), ((), (("A", 0, 1),)))),
]


@pytest.mark.parametrize("bad, cand", _NOT_PAIR_VERTICES)
def test_a_vertex_that_is_not_a_pair_vertex_raises(bad, cand):
    lts = group_system(4)
    aux = build_aux(lts)
    assert bad not in aux.a_vertices + aux.b_vertices
    message = f"vertex {bad} is not a pair-vertex of the multigraph"
    with pytest.raises(IntegrityError, match=re.escape(message)):
        unpack(cand, aux, lts)
    assert not aux.has_vertex(bad)
    assert _walk(cand, aux, lts) == _reference_walk(cand, aux, lts)


def test_prefix_sums_match_totals():
    lts, aux, graph = _fixture(4)
    res = find_dense_2deg(graph, 6, 12, strategy="peel")
    _cfg, trace = unpack(res.candidate, aux, lts)
    assert sum(s.delta_e for s in trace.steps) == trace.e_total
    assert sum(s.delta_v for s in trace.steps) == trace.v_total


@pytest.mark.parametrize("m", [4, 5])
def test_random_candidates_obey_step_laws_and_audit(m):
    lts, aux, graph = _fixture(m)
    rng = random.Random(m)
    for _ in range(40):
        cand = random_candidate(graph, rng.randint(2, 8), rng)
        _cfg, trace = unpack(cand, aux, lts)
        singulars = 0
        for s in trace.steps:
            assert 0 <= s.delta_e <= 2 * s.d <= 4
            if s.is_regular:
                assert s.delta_v <= DELTA_CAPS[s.delta_e]
                assert len(set(s.apexes)) == 2
            else:
                singulars += 1
                assert s.delta_e >= s.delta_v - 2
        assert singulars <= 2 * cand.achieved_t
        report = check_lemma_bounds(trace, cand.k, cand.achieved_t)
        assert report.assertion1_ok
        audit_involvement(trace)  # raises on violation


def test_trace_json_field_names():
    lts, aux, graph = _fixture(3)
    u, w = graph.edges[0]
    F = CandidateF((u, w), ((), (u,)))
    _cfg, trace = unpack(F, aux, lts)
    d = trace.steps[1].to_json_dict()
    assert set(d) == {
        "i", "vertex", "side", "d", "class", "dE", "dV",
        "apexes", "new_edges", "new_vertices",
    }


def _stand_in(kept):
    """A multigraph stand-in whose kept edge of each candidate edge comes
    from the dict kept, keyed by the canonical pair, and whose pair-vertices
    are the ends of those edges."""
    return SimpleNamespace(has_vertex={v for pair in kept for v in pair}.__contains__,
                           kept_edge=lambda u, w: kept[u, w])


A01, A02, A23, B01, B02 = ("A", 0, 1), ("A", 0, 2), ("A", 2, 3), ("B", 0, 1), ("B", 0, 2)

# stand-ins whose kept edges break one involvement theorem each, with the
# host that holds their hyperedges and a candidate that walks them: (host,
# candidate, kept edges, the AuditError's message)
_BROKEN_THEOREMS = {
    # steps 2 and 3 both unpack the apex-0 pair of hyperedges
    "a pair in two steps": (
        TripartiteLinearSystem((2, 3, 1), ((0, 0, 0), (1, 1, 0))),
        CandidateF((A01, B01, B02), ((), (A01,), (A01,))),
        {(A01, B01): AuxEdge(A01, B01, 0, "S", (0, 0, 0), (1, 1, 0)),
         (A01, B02): AuxEdge(A01, B02, 0, "S", (0, 0, 0), (1, 1, 0))},
        "hyperedge pair ((0, 0, 0), (1, 1, 0)) involved in steps [2, 3]",
    ),
    # step 3 is a four-step on apexes 1 and 2, and step 4 a 0-step on them
    "a 0-step apex with no earlier good step": (
        TripartiteLinearSystem((4, 2, 3), ((0, 0, 1), (1, 1, 1), (2, 0, 2), (3, 1, 2))),
        CandidateF((A01, B01, A23, A02), ((), (), (A01, B01), (A01, A23))),
        {(A01, A23): AuxEdge(A01, A23, 1, "S", (0, 0, 1), (1, 1, 1)),
         (A23, B01): AuxEdge(A23, B01, 2, "S", (2, 0, 2), (3, 1, 2)),
         (A01, A02): AuxEdge(A01, A02, 1, "S", (0, 0, 1), (2, 0, 2)),
         (A02, A23): AuxEdge(A02, A23, 2, "S", (1, 1, 1), (3, 1, 2))},
        "0-step 4 involves apex 1 with no preceding good step",
    ),
    # the same walk on apexes 2 and 9, which a set holds in the order 9, 2:
    # neither has an earlier good step, and the error names the apex that
    # comes first in the set of the step's apexes
    "two 0-step apexes with no earlier good step": (
        TripartiteLinearSystem((4, 2, 10), ((0, 0, 2), (1, 1, 2), (2, 0, 9), (3, 1, 9))),
        CandidateF((A01, B01, A23, A02), ((), (), (A01, B01), (A01, A23))),
        {(A01, A23): AuxEdge(A01, A23, 2, "S", (0, 0, 2), (1, 1, 2)),
         (A23, B01): AuxEdge(A23, B01, 9, "S", (2, 0, 9), (3, 1, 9)),
         (A01, A02): AuxEdge(A01, A02, 2, "S", (0, 0, 2), (2, 0, 9)),
         (A02, A23): AuxEdge(A02, A23, 9, "S", (1, 1, 2), (3, 1, 9))},
        "0-step 4 involves apex 9 with no preceding good step",
    ),
}


@pytest.mark.parametrize("case", list(_BROKEN_THEOREMS))
def test_unpack_raises_on_a_broken_involvement_theorem(monkeypatch, case):
    host, cand, kept, message = _BROKEN_THEOREMS[case]
    with pytest.raises(AuditError) as inline:
        unpack(cand, _stand_in(kept), host)
    assert str(inline.value) == message
    # without the walk's check, the walk ends and the audit of its trace
    # raises the same error
    monkeypatch.setattr(unpack_module, "_check_involvement", lambda *args: None)
    _cfg, trace = unpack(cand, _stand_in(kept), host)
    with pytest.raises(AuditError) as audited:
        audit_involvement(trace)
    assert str(audited.value) == message and audited.value.steps == inline.value.steps


def test_a_solve_checks_the_involvement_theorems_at_every_step(monkeypatch):
    checked, walked = [], []
    check, unpack_frame = unpack_module._check_involvement, besforge.driver.unpack

    def recording_check(rec, pairs, good_apexes):
        checked.append(rec)
        return check(rec, pairs, good_apexes)

    def recording_unpack(cand, aux, sub):
        cfg, trace = unpack_frame(cand, aux, sub)
        walked.extend(trace.steps)
        return cfg, trace

    monkeypatch.setattr(unpack_module, "_check_involvement", recording_check)
    monkeypatch.setattr(besforge.driver, "unpack", recording_unpack)
    besforge.driver.find_be_s_configuration(group_system(11), 63)
    assert len(walked) > 0 and checked == walked


def test_steps_are_named_tuples_equal_to_their_fields():
    steps = _zero_step_trace().steps
    for s in steps:
        assert type(s) is StepRecord and s == tuple(s)
        assert s == StepRecord(*s) and hash(s) == hash(tuple(s))
    moved = steps[2]._replace(i=8)
    assert moved.i == 8 and moved[1:] == steps[2][1:]
    with pytest.raises(AttributeError):
        steps[0].i = 2


# a phrase of each message that unpack's checks raise
_CHECKS = ("repeats in the candidate", "is not a pair-vertex", "is not an earlier vertex",
           "is not in the pair multigraph", "absent from the host system", "out of range for d",
           "but dV=", "two distinct apexes", "singular with dE=", "involved in steps",
           "no preceding good step")


def _outcome(walk):
    """Which check a walk's result failed, or 'walked'."""
    if len(walk) == 5:
        return "walked"
    return next(check for check in _CHECKS if check in walk[1])


def _error(err):
    return type(err), str(err), getattr(err, "steps", None)


def _walk(cand, aux, host):
    """unpack's configuration, totals, step fields and step JSON, or the
    type, message and steps of the error it raised."""
    try:
        cfg, trace = unpack(cand, aux, host)
    except Exception as err:
        return _error(err)
    assert all(type(s) is StepRecord for s in trace.steps)
    return (cfg, trace.v_total, trace.e_total, [tuple(s) for s in trace.steps],
            [(s.is_regular, s.is_good, s.to_json_dict()) for s in trace.steps])


def _reference_walk(cand, aux, host):
    try:
        cfg, v_total, e_total, steps = reference_unpack(cand, aux, host)
    except Exception as err:
        return _error(err)
    return (cfg, v_total, e_total, [s.fields() for s in steps],
            [(s.is_regular, s.is_good, s.to_json_dict()) for s in steps])


def _without(lts, gone):
    return TripartiteLinearSystem(lts.sizes, tuple(x for x in lts.edges if x != gone))


def _broken_copies(cand, aux, lts, graph, rng):
    """(candidate, multigraph, host) triples that fail one check each on the
    way through cand: a repeated vertex, a C-side last vertex, a later
    back-neighbour, an unjoined pair, a multigraph or a host without one of
    the walk's hyperedges."""
    vs, back = cand.vertices, cand.back
    yield CandidateF(vs + (rng.choice(vs),), back + ((),)), aux, lts
    yield CandidateF(vs[:-1] + (("C", *vs[-1][1:]),), back), aux, lts
    yield CandidateF(vs, ((vs[-1],),) + back[1:]), aux, lts
    far = [u for u in vs[:-1] if u[0] != vs[-1][0] and not graph.has_edge(u, vs[-1])]
    if far:
        yield CandidateF(vs, back[:-1] + ((*back[-1][:1], rng.choice(far)),)), aux, lts
    kept = [aux.kept_edge(*canon_edge(u, v)) for v, us in zip(vs, back) for u in us]
    if kept:
        gone = rng.choice(rng.choice(kept).hyperedges())
        yield cand, build_aux(_without(lts, gone)), lts
        yield cand, aux, _without(lts, gone)


def test_unpack_matches_the_record_building_reference():
    rng = random.Random(32)
    hosts = [group_system(m) for m in range(2, 9)]
    hosts += [random_linear(8, 8, 8, 40, seed) for seed in range(5)]
    outcomes = {"walked": 0}
    for lts in hosts:
        aux = build_aux(lts)
        graph = simple_subgraph(aux)
        if not graph.m:
            continue
        cands = [find_dense_2deg(graph, k, t).candidate
                 for k in range(2, min(graph.n, 10) + 1) for t in (0, 4)]
        cands += [trim_by_name(graph, rng.sample(graph.vertices, rng.randint(1, min(graph.n, 10))))
                  for _ in range(10)]
        cands += [random_candidate(graph, rng.randint(2, min(graph.n, 10)), rng) for _ in range(10)]
        for cand in cands:
            for case in ((cand, aux, lts), *_broken_copies(cand, aux, lts, graph, rng)):
                got = _walk(*case)
                assert got == _reference_walk(*case)
                outcomes[_outcome(got)] = outcomes.get(_outcome(got), 0) + 1
    # the walks ran into a repeated vertex, a vertex that is not a
    # pair-vertex, a later back-neighbour, an unjoined pair and a hyperedge
    # missing from the host
    assert set(outcomes) == {"walked", *_CHECKS[:5]} and min(outcomes.values()) >= 20, outcomes
    # and into each involvement theorem, broken by a stand-in
    for host, cand, kept, message in _BROKEN_THEOREMS.values():
        got = _walk(cand, _stand_in(kept), host)
        assert got == _reference_walk(cand, _stand_in(kept), host) and got[1] == message


def _random_stand_in(rng, drops):
    """A small host, a candidate and a stand-in multigraph whose kept edges
    are drawn at random: some vertices repeat or keep later ones, some pairs
    are unjoined, and some hyperedges lie outside the host. The random
    stream drops decides which candidates have a vertex that the stand-in
    does not hold, so the other draws follow rng alone."""
    pool = rng.sample([(a, b, c) for a in range(3) for b in range(3) for c in range(4)], 8)
    host = TripartiteLinearSystem((3, 3, 4), tuple(pool[:6]))
    names = [(side, p, q) for side in "AB" for p, q in combinations(range(3), 2)]
    vertices = rng.sample(names, rng.randint(1, 6))
    if rng.random() < 0.1:
        vertices.append(rng.choice(vertices))
    back = []
    for j in range(len(vertices)):
        earlier = vertices[:j] if rng.random() < 0.95 else vertices
        back.append(tuple(rng.sample(earlier, min(len(earlier), rng.choice((0, 1, 2, 2, 2, 3))))))
    kept = {}
    for u, w in combinations(names, 2):
        if rng.random() < 0.95:
            h1, h2 = (rng.choice(pool[:6] if rng.random() < 0.97 else pool) for _ in range(2))
            kept[u, w] = AuxEdge(u, w, rng.randrange(4), "S", h1, h2)
    pair_vertices = set(names)
    if drops.random() < 0.05:
        pair_vertices.discard(drops.choice(vertices))
    stand_in = SimpleNamespace(has_vertex=pair_vertices.__contains__,
                               kept_edge=lambda u, w: kept.get((u, w)))
    return CandidateF(tuple(vertices), tuple(back)), stand_in, host


def test_unpack_matches_the_reference_on_every_check():
    rng, drops = random.Random(3232), random.Random(3233)
    outcomes = {}
    for _ in range(6000):
        case = _random_stand_in(rng, drops)
        got = _walk(*case)
        assert got == _reference_walk(*case)
        outcomes[_outcome(got)] = outcomes.get(_outcome(got), 0) + 1
    # each check but the 0-step one raised, and some walks ended; a random
    # walk does not reach a 0-step whose apex only non-good steps involved,
    # which the _BROKEN_THEOREMS stand-ins walk into
    assert set(outcomes) == {"walked", *_CHECKS[:-1]} and min(outcomes.values()) >= 5, outcomes
