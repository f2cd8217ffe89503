import random
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import combinations
from operator import itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besforge import auxgraph
from besforge import (
    AuxEdge,
    Graph,
    IntegrityError,
    LinearityError,
    LinearityVerdict,
    TripartiteLinearSystem,
    build_aux,
    degeneracy_ordering,
    find_dense_2deg,
    group_system,
    random_linear,
    simple_subgraph,
)
from reference_aux import reference_aux


def test_group2_multiplicity_two_with_both_pairings():
    aux = build_aux(group_system(2))
    assert aux.multi_edge_count == 2
    (e1, e2) = aux.edges
    assert e1.u == e2.u == ("A", 0, 1)
    assert e1.w == e2.w == ("B", 0, 1)
    by_apex = {e.apex: e.pairing for e in aux.edges}
    assert by_apex == {0: "S", 1: "X"}


def test_group3_is_k33_on_pair_vertices():
    aux = build_aux(group_system(3))
    assert aux.multi_edge_count == 9
    assert len(aux.a_vertices) == 3 and len(aux.b_vertices) == 3
    assert all(m == 1 for m in Counter((e.u, e.w) for e in aux.edges).values())
    # bound check in integers: 4 * |C| * count >= |E|^2
    assert 4 * 3 * aux.multi_edge_count >= 9 * 9


def test_empty_system_gives_empty_aux():
    aux = build_aux(TripartiteLinearSystem((2, 2, 2), ()))
    assert aux.multi_edge_count == 0
    assert aux.a_vertices == () and aux.b_vertices == ()
    assert simple_subgraph(aux).n == 0


def test_count_law_does_not_allocate_by_the_declared_apex_part():
    # the count law's degrees are counted over the apexes in the edges; a list
    # indexed by every c in a part of 10**12 apexes would not fit in memory
    assert build_aux(TripartiteLinearSystem((1, 1, 10**12), ())).multi_edge_count == 0
    one = TripartiteLinearSystem((1, 1, 10**12), ((0, 0, 10**12 - 1),))
    assert build_aux(one).multi_edge_count == 0


def test_nonlinear_input_raises_with_witness():
    bad = TripartiteLinearSystem((2, 2, 2), ((0, 0, 0), (0, 0, 1)))
    with pytest.raises(LinearityError) as err:
        build_aux(bad)
    assert err.value.verdict.pair == (("A", 0), ("B", 0))


def test_multi_edge_count_matches_apex_degrees():
    for lts in (group_system(4), random_linear(8, 8, 8, 25, seed=2)):
        aux = build_aux(lts)
        expected = sum(d * (d - 1) // 2 for d in Counter(c for _, _, c in lts.edges).values())
        assert aux.multi_edge_count == expected


def test_aux_edges_revalidate_against_source():
    lts = random_linear(6, 6, 6, 15, seed=11)
    aux = build_aux(lts)
    host = set(lts.edges)
    for ed in aux.edges:
        assert ed.h1 in host and ed.h2 in host and ed.h1 != ed.h2
        assert ed.h1[2] == ed.h2[2] == ed.apex
        assert {ed.h1[0], ed.h2[0]} == {ed.u[1], ed.u[2]}
        assert {ed.h1[1], ed.h2[1]} == {ed.w[1], ed.w[2]}


def test_simple_subgraph_prefers_straight_pairing():
    aux = build_aux(group_system(2))
    assert simple_subgraph(aux).m == 1
    u, w = ("A", 0, 1), ("B", 0, 1)
    kept = aux.kept_edge(u, w)
    assert kept.pairing == "S" and kept.apex == 0
    # with only the crossed edge left, it is kept
    crossed = build_aux(TripartiteLinearSystem((2, 2, 2), aux.edges[1].hyperedges()))
    assert crossed.kept_edge(u, w) == aux.edges[1]
    # a straight edge wins over a crossed one of smaller apex
    straight_last = build_aux(TripartiteLinearSystem((2, 2, 2), ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))))
    assert straight_last.edges == (AuxEdge(u, w, 0, "X", (0, 1, 0), (1, 0, 0)),
                                   AuxEdge(u, w, 1, "S", (0, 0, 1), (1, 1, 1)))
    assert straight_last.kept_edge(u, w) == straight_last.edges[1]


def _reference_kept_edge(aux, u, w):
    """AuxGraph.kept_edge as two bisects keyed on each row's (u, w) in the
    edges view, kept as the reference for the reads of the host index."""
    rows = aux.edges
    pair = itemgetter(0, 1)
    lo = bisect_left(rows, (u, w), key=pair)
    hi = bisect_right(rows, (u, w), lo, key=pair)
    if lo == hi:
        return None
    return AuxEdge._make(next((r for r in rows[lo:hi] if r[3] == "S"), rows[lo]))


def test_kept_edge_matches_the_keyed_bisect():
    hosts = [group_system(m) for m in range(1, 8)]
    hosts += [random_linear(8, 8, 8, 40, seed=s) for s in range(6)]
    seen = {"straight first": 0, "crossed first": 0, "after the last row": 0, "u without w": 0}
    for lts in hosts:
        aux = build_aux(lts)
        if not aux.edges:
            continue
        last_u = aux.edges[-1][0]
        past = ("A", lts.sizes[0], lts.sizes[0] + 1)
        probes = [(u, w) for u in aux.a_vertices for w in aux.b_vertices]
        # part-local ids past the header: no key of them may alias another pair
        probes += [(last_u, ("B", lts.sizes[1], lts.sizes[1] + 1)), (past, aux.b_vertices[0])]
        # rows join an A pair-vertex to a B one: same-side and (B, A) pairs have none
        probes += [pair for side in (aux.a_vertices, aux.b_vertices) for pair in combinations(side, 2)]
        probes += [(w, u) for u in aux.a_vertices for w in aux.b_vertices]
        for u, w in probes:
            want = _reference_kept_edge(aux, u, w)
            assert aux.kept_edge(u, w) == want
            assert want is None or type(aux.kept_edge(u, w)) is AuxEdge
            run = [r[3] for r in aux.edges if r[:2] == (u, w)]
            seen["straight first"] += run == ["S", "X"]
            seen["crossed first"] += run == ["X", "S"]
            seen["u without w"] += not run
            seen["after the last row"] += (u, w) > aux.edges[-1][:2]
    assert min(seen.values()) >= 2, seen


def test_kept_edge_on_tiny_hosts():
    u, w, w2 = ("A", 0, 1), ("B", 0, 1), ("B", 2, 3)
    rows = (AuxEdge(u, w, 0, "X", (0, 1, 0), (1, 0, 0)),
            AuxEdge(u, w, 1, "S", (0, 0, 1), (1, 1, 1)),
            AuxEdge(u, w2, 2, "S", (0, 2, 2), (1, 3, 2)))

    def host(rows):
        return TripartiteLinearSystem((2, 4, 3), tuple(sorted(h for row in rows for h in row.hyperedges())))

    aux = build_aux(host(rows))
    assert aux.edges == rows
    # crossed first: the straight row after it wins
    assert aux.kept_edge(u, w) == rows[1]
    assert aux.kept_edge(u, w2) == rows[2]
    # a lone crossed row is kept, though the straight row after it, of
    # another pair, sorts next
    assert build_aux(host(rows[:1] + rows[2:])).kept_edge(u, w) == rows[0]
    for probe in ((u, ("B", 0, 2)), (u, ("B", 4, 5)), (("A", 0, 2), w), (("A", 5, 6), w)):
        assert aux.kept_edge(*probe) is None
        assert _reference_kept_edge(aux, *probe) is None


def test_simple_subgraph_keeps_all_when_already_simple():
    aux = build_aux(group_system(3))
    graph = simple_subgraph(aux)
    assert graph.m == 9
    assert 2 * graph.m >= aux.multi_edge_count


def test_multiplicity_law_on_random_instances():
    for seed in range(25):
        lts = random_linear(7, 9, 8, 30, seed=seed)
        aux = build_aux(lts)
        groups = {}
        for ed in aux.edges:
            groups.setdefault((ed.u, ed.w), []).append(ed.pairing)
        for pairings in groups.values():
            assert len(pairings) <= 2
            assert len(set(pairings)) == len(pairings)


def _reference_simple_subgraph(aux):
    """The grouping build of the pair graph and its kept edge per pair, kept
    as the reference for simple_subgraph and AuxGraph.kept_edge."""
    groups = {}
    for ed in aux.edges:
        groups.setdefault((ed.u, ed.w), []).append(ed)
    g = Graph(vertices=aux.a_vertices + aux.b_vertices)
    annot = {}
    for (u, w), parallel in sorted(groups.items()):
        g.add_edge(u, w)
        annot[(u, w)] = min(parallel, key=lambda ed: (ed.pairing != "S", ed.apex))
    return g, annot


def _assert_pair_graph_is_the_reference(aux):
    """The pair graph that aux was made with, against the grouping build."""
    g, _ = _reference_simple_subgraph(aux)
    assert simple_subgraph(aux).adjacency() == g.adjacency()


def _reference_restriction(aux, residual):
    """The rows of aux whose two hyperedges are both in residual, the
    pair-vertices they support and the pair graph of their pairs: the
    multigraph of residual made by filtering a larger one, kept as the
    reference for build_aux on a later frame."""
    left = set(residual.edges)
    rows = tuple(row for row in aux.edges if row[4] in left and row[5] in left)
    a_vertices = tuple(sorted({row[0] for row in rows}))
    b_vertices = tuple(sorted({row[1] for row in rows}))
    graph = Graph(vertices=a_vertices + b_vertices, edges=map(itemgetter(0, 1), rows))
    return a_vertices, b_vertices, rows, graph


def _assert_same_restriction(aux, residual):
    """build_aux(residual) against the restriction of aux to residual, as
    multigraphs and as pair graphs, and its pair graph against the grouping
    build; returns the build."""
    fresh = build_aux(residual)
    *restricted, restricted_graph = _reference_restriction(aux, residual)
    assert [fresh.a_vertices, fresh.b_vertices, fresh.edges] == restricted
    graph = simple_subgraph(fresh)
    assert graph.vertices == restricted_graph.vertices
    assert graph.edges == restricted_graph.edges
    _assert_pair_graph_is_the_reference(fresh)
    return fresh


def _restrict_to_empty(lts, rng):
    """Remove random batches of hyperedges until none is left, building the
    multigraph of what is left after every batch and checking it against the
    restriction of the previous one."""
    aux = build_aux(lts)
    left = list(lts.edges)
    while left:
        used = set(rng.sample(left, rng.randint(1, max(1, len(left) // 3))))
        left = [x for x in left if x not in used]
        aux = _assert_same_restriction(aux, TripartiteLinearSystem(lts.sizes, tuple(left)))
    assert aux.a_vertices == aux.b_vertices == aux.edges == ()


def test_one_pass_simple_subgraph_matches_the_grouping_reference():
    hosts = [group_system(m) for m in range(1, 9)]
    hosts += [random_linear(9, 9, 9, 40, seed=s) for s in range(10)]
    unjoined = 0
    for lts in hosts:
        aux = build_aux(lts)
        _assert_pair_graph_is_the_reference(aux)
        # and on a later frame's residual
        residual = TripartiteLinearSystem(lts.sizes, lts.edges[::2])
        _assert_pair_graph_is_the_reference(build_aux(residual))
        _, annot = _reference_simple_subgraph(aux)
        for u in aux.a_vertices:
            for w in aux.b_vertices:
                assert aux.kept_edge(u, w) == annot.get((u, w))
                unjoined += (u, w) not in annot
    assert unjoined > 0  # kept_edge returned None for each of them


@pytest.mark.parametrize("m", range(1, 9))
def test_shrinking_equals_rebuilding_on_group_systems(m):
    for seed in range(10):
        _restrict_to_empty(group_system(m), random.Random(f"{m}:{seed}"))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.integers(0, 60),
       st.integers(0, 10**6))
def test_shrinking_equals_rebuilding_on_random_hosts(na, nb, nc, target, seed):
    _restrict_to_empty(random_linear(na, nb, nc, target, seed=seed), random.Random(seed))


def _reference_hosts():
    """Seeded group systems and random hosts, each with its residual after
    every other edge is taken."""
    hosts = [group_system(m) for m in range(2, 9)]
    hosts += [random_linear(n, n, n, target, seed=seed)
              for seed, (n, target) in enumerate([(6, 15), (8, 40), (9, 60), (12, 90), (24, 320)])]
    return hosts + [TripartiteLinearSystem(lts.sizes, lts.edges[::2]) for lts in hosts]


def test_build_aux_matches_the_row_building_reference():
    searched = 0
    for lts in _reference_hosts():
        aux, ref = build_aux(lts), reference_aux(lts)
        assert (aux.a_vertices, aux.b_vertices) == (ref.a_vertices, ref.b_vertices)
        assert aux.edges == ref.rows and aux.edges == ref.edges
        assert aux.multi_edge_count == ref.multi_edge_count
        assert Counter((e.u, e.w) for e in aux.edges) == ref.multiplicities
        graph = simple_subgraph(aux)
        assert graph.adjacency() == ref.graph.adjacency()
        assert (graph.vertices, graph.edges, graph.n, graph.m) == (
            ref.graph.vertices, ref.graph.edges, ref.graph.n, ref.graph.m)
        for u in aux.a_vertices:
            for w in aux.b_vertices:
                joined = ref.graph.has_edge(u, w)
                assert graph.has_edge(u, w) == joined
                kept = aux.kept_edge(u, w)
                assert kept == ref.kept_edge(u, w)
                assert (kept is not None) == joined
        # the ranked pair graph and a plain Graph copy of it search alike
        assert degeneracy_ordering(graph) == degeneracy_ordering(ref.graph)
        for k in range(2, min(graph.n, 12) + 1):
            for t in (0, 4):
                assert find_dense_2deg(graph, k, t) == find_dense_2deg(ref.graph, k, t)
                searched += 1
        if graph.n <= 20:
            for k in range(2, min(graph.n, 5) + 1):
                assert (find_dense_2deg(graph, k, 4, strategy="exhaustive")
                        == find_dense_2deg(ref.graph, k, 4, strategy="exhaustive"))
    assert searched > 300


def test_build_aux_shares_pair_vertices_and_host_edges():
    lts = group_system(5)
    aux = build_aux(lts)
    pair_vertices = {id(v) for v in aux.a_vertices + aux.b_vertices}
    host_edges = {id(h) for h in lts.edges}
    for ed in aux.edges:
        assert id(ed.u) in pair_vertices and id(ed.w) in pair_vertices
        assert id(ed.h1) in host_edges and id(ed.h2) in host_edges


def test_count_law_raises_on_a_wrong_count():
    lts = group_system(4)
    count = build_aux(lts).multi_edge_count
    auxgraph._check_count(lts, count)
    # 0 is also below the lower bound (|E| = 16 >= 2|C| = 8), but the count
    # law is checked first
    for wrong in (count - 1, count + 1, 0):
        with pytest.raises(IntegrityError) as raised:
            auxgraph._check_count(lts, wrong)
        assert str(raised.value) == f"multi-edge count {wrong} != sum of C(d(c),2) = {count}"


def test_lower_bound_raises_on_a_count_below_it():
    # A count that keeps the count law keeps the bound on any system whose
    # header counts every apex its edges use: 4|C| sum C(d,2) >= 2|E|^2 -
    # 2|E||C| >= |E|^2 once |E| >= 2|C|. TripartiteLinearSystem refuses any
    # other header, so a stand-in declares 2 apexes for edges on 4; each apex
    # has degree 1, so the count law asks for 0 multigraph edges.
    stand_in = SimpleNamespace(sizes=(4, 4, 2), edges=tuple((i, i, i) for i in range(4)), m=4)
    with pytest.raises(IntegrityError) as raised:
        auxgraph._check_count(stand_in, 0)
    assert str(raised.value) == "multi-edge count fell below |E|^2 / (4|C|)"


# Non-linear inputs that reach each multiplicity self-check of build_aux once
# its linearity check is made to pass: (edges, the IntegrityError's message)
_BROKEN_LAWS = {
    # (0, 0, 0) and (1, 0, 0) share the pair (B0, C0) at apex 0
    "shared pair at one apex": (((0, 0, 0), (1, 0, 0)), "shares a pair"),
    # apexes 0, 1 and 2 each join ('A', 0, 1) to ('B', 0, 1): S, X, S
    "three parallel edges": (((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 2), (1, 1, 2)),
                             "more than 2 parallel edges"),
    # apexes 0 and 1 both join ('A', 0, 1) to ('B', 0, 1) straight
    "two parallel edges, one pairing": (((0, 0, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)),
                                        "share pairing type"),
}


@pytest.mark.parametrize("case", list(_BROKEN_LAWS))
def test_multiplicity_self_checks_raise_behind_a_passing_linearity_check(monkeypatch, case):
    edges, message = _BROKEN_LAWS[case]
    lts = TripartiteLinearSystem((2, 2, 3), edges)
    assert not auxgraph.validate_linear(lts)
    monkeypatch.setattr(auxgraph, "validate_linear", lambda system: LinearityVerdict(True))
    with pytest.raises(IntegrityError, match=message):
        build_aux(lts)
