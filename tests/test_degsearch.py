import random
import time
from heapq import heapify, heappop, heappush
from itertools import count
from types import SimpleNamespace

import pytest

from besforge import (
    CandidateF,
    Graph,
    GuardExceededError,
    ParameterError,
    TripartiteLinearSystem,
    build_aux,
    degeneracy_ordering,
    find_dense_2deg,
    group_system,
    random_linear,
    simple_subgraph,
)
from besforge import degsearch
from besforge.degsearch import (
    DegeneracyOrdering,
    SearchResult,
    _peel_core,
    _trim_on_set,
    _window_candidates,
    _window_counts,
)
from besforge.graphs import ranked
from random_candidates import trim_by_name
from reference_degsearch import brute_force_best_2deg


def path3():
    return Graph(edges=[(0, 1), (1, 2)])


def c4():
    return Graph(edges=[(0, 1), (1, 2), (2, 3), (0, 3)])


def k4():
    return Graph(edges=[(i, j) for i in range(4) for j in range(i + 1, 4)])


def k33():
    return Graph(edges=[(i, j) for i in range(3) for j in range(3, 6)])


def test_degeneracy_values():
    assert degeneracy_ordering(path3()).degeneracy == 1
    assert degeneracy_ordering(c4()).degeneracy == 2
    assert degeneracy_ordering(k33()).degeneracy == 3


def test_degeneracy_back_degrees_consistent():
    g = k33()
    ordering = degeneracy_ordering(g)
    pos = {v: i for i, v in enumerate(ordering.order)}
    for i, v in enumerate(ordering.order):
        back = sum(1 for u in g.adjacency()[v] if pos[u] < i)
        assert back == ordering.back_degrees[i]
    assert ordering.degeneracy == max(ordering.back_degrees)


def test_find_on_aux_k33_hits_a_4_cycle():
    graph = simple_subgraph(build_aux(group_system(3)))
    res = find_dense_2deg(graph, 4, 4, strategy="exhaustive")
    assert res.success
    assert res.candidate.k == 4 and len(res.candidate.edges) == 4


def test_find_single_edge():
    g = Graph(edges=[(0, 1)])
    res = find_dense_2deg(g, 2, 3, strategy="exhaustive")
    assert res.success and len(res.candidate.edges) == 1


def test_find_c4_k4_t3_fails_with_best_found():
    res = find_dense_2deg(c4(), 4, 3, strategy="exhaustive")
    assert not res.success
    assert len(res.candidate.edges) == 4 and res.achieved_t == 4


def test_parameter_errors():
    with pytest.raises(ParameterError):
        find_dense_2deg(c4(), 5, 3)
    with pytest.raises(ParameterError):
        find_dense_2deg(c4(), 1, 3)
    with pytest.raises(ParameterError):
        find_dense_2deg(c4(), 2, 3, strategy="anneal")
    with pytest.raises(ParameterError):
        find_dense_2deg(c4(), 2, 3, strategy="greedy")
    for budget_ms in (0, -1):
        with pytest.raises(ParameterError):
            find_dense_2deg(c4(), 2, 3, budget_ms=budget_ms)


def test_brute_force_trivia():
    assert brute_force_best_2deg(k4(), 4)[0] == 5
    assert brute_force_best_2deg(c4(), 4)[0] == 4
    assert brute_force_best_2deg(Graph(vertices=range(4)), 3)[0] == 0


def test_brute_force_witness_validates():
    val, witness = brute_force_best_2deg(k33(), 5)
    witness.validate(k33())
    assert len(witness.edges) == val


def _random_bipartite(rng, max_side=5):
    na = rng.randint(1, max_side)
    nb = rng.randint(1, max_side)
    left = list(range(na))
    right = list(range(na, na + nb))
    g = Graph(vertices=left + right)
    for u in left:
        for v in right:
            if rng.random() < 0.5:
                g.add_edge(u, v)
    return g


def test_exhaustive_matches_brute_force_and_heuristics_never_exceed():
    rng = random.Random(42)
    for _ in range(60):
        g = _random_bipartite(rng)
        k = rng.randint(2, g.n) if g.n >= 2 else 2
        if g.n < 2:
            continue
        opt, witness = brute_force_best_2deg(g, k)
        assert len(witness.edges) == opt
        exact = find_dense_2deg(g, k, 0, strategy="exhaustive")
        assert len(exact.candidate.edges) == opt
        res = find_dense_2deg(g, k, 0, strategy="peel")
        res.candidate.validate(g)
        assert len(res.candidate.edges) <= opt


def test_a_bipartite_2_degenerate_graph_has_at_most_2k_minus_4_edges():
    # the first three vertices of a certifying order add at most 2 edges, as
    # a triangle is not bipartite, and every later vertex at most 2
    rng = random.Random(44)
    reached = set()
    for _ in range(40):
        g = _random_bipartite(rng)
        for k in range(3, g.n + 1):
            opt, _witness = brute_force_best_2deg(g, k)
            assert opt <= 2 * k - 4
            if opt == 2 * k - 4:
                reached.add(k)
    assert reached == set(range(3, 11))  # the bound is met at every k


def test_no_pair_graph_search_beats_t_4():
    # a pair graph is bipartite, so achieved_t >= 4 at every k >= 3 and a
    # target below 4 is never met
    hosts = [group_system(m) for m in range(3, 9)] + [random_linear(8, 8, 8, 40)]
    achieved = []
    for lts in hosts:
        graph = simple_subgraph(build_aux(lts))
        for k in range(3, min(graph.n, 14) + 1):
            for t in (0, 3, 4):
                res = find_dense_2deg(graph, k, t)
                assert res.success == (t == 4 and res.achieved_t == 4)
                achieved.append(res.achieved_t)
    assert len(achieved) > 200 and min(achieved) == 4


def test_candidate_revalidates_by_reverse_peeling():
    graph = simple_subgraph(build_aux(group_system(4)))
    res = find_dense_2deg(graph, 6, 6, strategy="peel")
    cand = res.candidate
    pos = {v: i for i, v in enumerate(cand.vertices)}
    for v in cand.vertices:
        back = sum(1 for u, w in cand.edges if max(u, w, key=pos.get) == v)
        assert back <= 2


@pytest.mark.parametrize("vertices, back, message", [
    ((0, 3, 0), ((), (0,), ()), "repeated vertices"),
    ((0, 3), ((),), "1 back-neighbour lists for 2 vertices"),
    ((0, 1, 2, 3), ((), (), (), (0, 1, 2)), r"keeps \(0, 1, 2\), not at most 2 distinct"),
    ((0, 3), ((), (0, 0)), r"keeps \(0, 0\), not at most 2 distinct"),
    ((0, 3), ((3,), ()), "back-neighbour 3 of 0 is not an earlier vertex"),
    ((0, 3), ((), (4,)), "back-neighbour 4 of 3 is not an earlier vertex"),
    ((0, 3), ((), (3,)), "back-neighbour 3 of 3 is not an earlier vertex"),
    ((0, 1), ((), (0,)), r"edge \(0, 1\) not in host graph"),
])
def test_validate_rejects_a_malformed_certificate(vertices, back, message):
    # k33 joins each of 0, 1, 2 to each of 3, 4, 5
    with pytest.raises(ParameterError, match=message):
        CandidateF(vertices, back).validate(k33())


def test_validate_on_a_pair_graph_rejects_what_a_graph_copy_rejects():
    graph = simple_subgraph(build_aux(group_system(3)))
    copy = Graph(vertices=graph.vertices, edges=graph.edges)
    a01, a02, b01 = ("A", 0, 1), ("A", 0, 2), ("B", 0, 1)
    for vertices, message in [((0, 3), r"edge \(0, 3\) not in host graph"),
                              ((a01, ("B", 7, 8)), "not in host graph"),
                              ((a01, a02), "not in host graph")]:
        cand = CandidateF(vertices, ((), (vertices[0],)))
        for host in (graph, copy):
            with pytest.raises(ParameterError, match=message):
                cand.validate(host)
    CandidateF((a01, b01), ((), (a01,))).validate(graph)


def test_validate_accepts_a_same_side_edge_its_host_has():
    # validate checks the certificate on any graph; only a pair graph's own
    # edges cross sides, and build_aux makes them so
    a01, a02 = ("A", 0, 1), ("A", 0, 2)
    CandidateF((a01, a02), ((), (a01,))).validate(Graph(edges=[(a01, a02)]))
    triangle = Graph(edges=[((0, 1), (0, 2)), ((0, 2), (1, 3)), ((0, 1), (1, 3))])
    assert find_dense_2deg(triangle, 3, 3).achieved_t == 3


@pytest.mark.parametrize("strategy", ["peel", "exhaustive"])
@pytest.mark.parametrize("k", [3, 4])
def test_tuple_names_search_as_their_order_preserving_relabelling(strategy, k):
    rng = random.Random(k)
    # names (i // 3, i % 3): each triple sharing a first coordinate is a
    # triangle, and other pairs are joined at random
    names = [divmod(i, 3) for i in range(9)]
    ints = Graph(edges=[(i, j) for i in range(9) for j in range(i + 1, 9)
                        if i // 3 == j // 3 or rng.random() < 0.5])
    tuples = Graph(vertices=names, edges=[(names[i], names[j]) for i, j in ints.edges])
    want = find_dense_2deg(ints, k, 2 * k - 3, strategy=strategy)
    got = find_dense_2deg(tuples, k, 2 * k - 3, strategy=strategy)
    assert got.candidate == CandidateF(tuple(names[v] for v in want.candidate.vertices),
                                       tuple(tuple(names[u] for u in us) for us in want.candidate.back))
    assert (got.success, got.budget_exhausted) == (want.success, want.budget_exhausted)
    assert any(u[0] == v[0] for u, v in got.candidate.edges)


def test_exhaustive_runs_to_20_vertices_and_refuses_more():
    graph = simple_subgraph(build_aux(group_system(5)))
    assert graph.n == 20
    res = find_dense_2deg(graph, 4, 4, strategy="exhaustive")
    assert res.success and res.achieved_t == 4
    graph = simple_subgraph(build_aux(group_system(6)))
    assert graph.n == 30
    with pytest.raises(GuardExceededError, match=r"exhaustive search infeasible for n=30, k=4"):
        find_dense_2deg(graph, 4, 4, strategy="exhaustive")


def _parent_candidate_edges(verts, order, nbrs, key=None):
    """The edges of _candidate(verts, order, nbrs, key) as the pair-building
    _candidate made them before candidates stored their back-neighbours:
    sorted canonical pairs, kept as the reference for CandidateF.edges."""
    seen = [False] * len(nbrs)
    pairs = []
    for v in order:
        for u in sorted((u for u in nbrs[v] if seen[u]), key=None if key is None else key.__getitem__)[:2]:
            pairs.append((u, v) if u < v else (v, u))
        seen[v] = True
    pairs.sort()
    return tuple((verts[a], verts[b]) for a, b in pairs)


def test_search_candidates_validate_and_derive_the_reference_edges(monkeypatch):
    made = []
    candidate = degsearch._candidate

    def recorded(verts, order, nbrs, key=None):
        cand = candidate(verts, order, nbrs, key)
        made.append((cand, _parent_candidate_edges(verts, order, nbrs, key)))
        return cand

    monkeypatch.setattr(degsearch, "_candidate", recorded)
    rng = random.Random(42)
    hosts = [g for g in (_random_bipartite(rng) for _ in range(60)) if g.n >= 2]
    hosts += [_pair_graph(seed) for seed in range(3)]
    checked = 0
    for g in hosts:
        for k in range(2, min(g.n, 8) + 1):
            made.clear()
            find_dense_2deg(g, k, 0, strategy="peel")
            if g.n <= 10:
                find_dense_2deg(g, k, 0, strategy="exhaustive")
                brute_force_best_2deg(g, k)
            for cand, edges in made:
                cand.validate(g)
                assert cand.edges == edges
                assert cand.achieved_t == 2 * cand.k - len(edges)
            checked += len(made)
    assert checked > 1000


def _reference_peel(adj, restrict=None):
    """The quadratic min-degree peel that the heap and then the bucket
    core replaced, kept as the reference for its (degree, id) tie-break."""
    verts = sorted(restrict) if restrict is not None else sorted(adj)
    vert_set = set(verts)
    deg = {v: sum(1 for w in adj.get(v, ()) if w in vert_set) for v in verts}
    alive = set(verts)
    removal = []
    removal_deg = []
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        removal.append(v)
        removal_deg.append(deg[v])
        alive.remove(v)
        for w in adj.get(v, ()):
            if w in alive:
                deg[w] -= 1
    order = tuple(reversed(removal))
    back = tuple(reversed(removal_deg))
    return order, back, (max(removal_deg) if removal_deg else 0)


def _tied_graph(rng):
    """A small random graph; low edge probabilities and regular pieces give
    many equal degrees, so the id tie-break decides most removals."""
    n = rng.randint(1, 14)
    p = rng.choice((0.15, 0.3, 0.5))
    g = Graph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    if n >= 6 and rng.random() < 0.3:
        for i in range(6):  # a 6-cycle: six vertices of equal degree
            if not g.has_edge(i, (i + 1) % 6):
                g.add_edge(i, (i + 1) % 6)
    return g


def test_peel_core_matches_the_min_based_peel():
    rng = random.Random(7)
    for _ in range(300):
        g = _tied_graph(rng)
        adj = g.adjacency()
        assert degeneracy_ordering(g) == DegeneracyOrdering(*_reference_peel(adj))
        subset = [v for v in g.vertices if rng.random() < 0.6]
        order, back, _ = _reference_peel(adj, restrict=subset)
        trim = trim_by_name(g, subset)
        trim.validate(g)
        assert trim.vertices == order
        # the trim keeps min(back-degree, 2) back-edges per vertex
        assert len(trim.edges) == sum(min(d, 2) for d in back)


def test_peel_on_pair_graph_vertices_matches_reference():
    g = simple_subgraph(build_aux(group_system(5)))
    assert degeneracy_ordering(g) == DegeneracyOrdering(*_reference_peel(g.adjacency()))


def _heap_peel(nbrs):
    """The lazy-deletion heap of (degree, rank) pairs that the bucket queue
    replaced, kept as the reference for _peel_core."""
    deg = [len(ws) for ws in nbrs]
    alive = [True] * len(nbrs)
    heap = [(d, v) for v, d in enumerate(deg)]
    heapify(heap)
    removal = []
    removal_deg = []
    while heap:
        d, v = heappop(heap)
        if d != deg[v] or not alive[v]:
            continue
        alive[v] = False
        removal.append(v)
        removal_deg.append(d)
        for w in nbrs[v]:
            if alive[w]:
                deg[w] -= 1
                heappush(heap, (deg[w], w))
    return removal, removal_deg


def _random_deep_pair_graphs(count=10):
    """The pair graphs of `count` random-deep hosts, random_linear(24, 24,
    24, 320), and of one later frame's residual of the first."""
    hosts = [random_linear(24, 24, 24, 320, seed=seed) for seed in range(count)]
    auxes = [build_aux(lts) for lts in hosts]
    residual = TripartiteLinearSystem(hosts[0].sizes, hosts[0].edges[::3] + hosts[0].edges[1::3])
    auxes.append(build_aux(residual))
    return [simple_subgraph(aux) for aux in auxes]


def _regular_graphs():
    """K12, in which every removal is a tie, and two circulants, in which
    every vertex starts at one degree."""
    complete = Graph(edges=[(i, j) for i in range(12) for j in range(i + 1, 12)])
    circulants = [
        Graph(edges=[(i, (i + d) % n) for i in range(n) for d in steps])
        for n, steps in ((60, (1, 2, 5)), (200, (1,)))
    ]
    return [complete] + circulants


def test_bucket_peel_matches_the_references_at_scale():
    graphs = _random_deep_pair_graphs() + _regular_graphs()
    assert min(g.n for g in graphs[:11]) > 400
    for g in graphs:
        adj = g.adjacency()
        ordering = degeneracy_ordering(g)
        assert ordering == DegeneracyOrdering(*_reference_peel(adj))
        # the core alone, on neighbour lists in the graph's set order
        verts = g.vertices
        rank = {v: i for i, v in enumerate(verts)}
        nbrs = [[rank[w] for w in adj[v]] for v in verts]
        assert _peel_core(nbrs) == _heap_peel(nbrs)
        # a window's trim peels the same way
        window = ordering.order[: min(g.n, 40)]
        order, back, _ = _reference_peel(adj, restrict=window)
        trim = trim_by_name(g, window)
        assert trim.vertices == order
        assert len(trim.edges) == sum(min(d, 2) for d in back)
    # every removal from K12 is a tie, so ranks decide the whole order: the
    # smallest vertex goes first and the ordering reverses the removals
    assert degeneracy_ordering(graphs[-3]).order == tuple(range(11, -1, -1))


def _direct_window_counts(g, order, k):
    return [
        sum(1 for i, v in enumerate(order[s : s + k]) for w in order[s + i + 1 : s + k] if g.has_edge(v, w))
        for s in range(len(order) - k + 1)
    ]


def _by_rank(g, order):
    """The neighbour lists of ranked(g) and the vertex order as ranks."""
    g = ranked(g)
    return g.nbrs, [g._rank[v] for v in order]


def test_window_counts_match_a_direct_count():
    rng = random.Random(37)
    cases = []
    for _ in range(120):
        g = _tied_graph(rng)
        if g.n < 2:
            continue
        order = list(degeneracy_ordering(g).order)
        cases.append((g, tuple(order), (2, rng.randint(2, g.n), g.n)))
        rng.shuffle(order)  # the counts hold for any order
        cases.append((g, tuple(order), (2, rng.randint(2, g.n), g.n)))
    for g in _random_deep_pair_graphs(2)[:2]:
        cases.append((g, degeneracy_ordering(g).order, (2, 20, g.n)))
    for g, order, ks in cases:
        for k in ks:
            counts = _window_counts(*_by_rank(g, order), k)
            assert counts == _direct_window_counts(g, order, k)
    # k = n: one window, holding every edge
    assert all(_window_counts(*_by_rank(g, order), g.n) == [g.m] for g, order, _ in cases)


def test_window_counts_are_made_once_and_only_when_the_scan_slides(monkeypatch):
    calls = []

    def counted(adj, order, k):
        calls.append(k)
        return _window_counts(adj, order, k)

    monkeypatch.setattr(degsearch, "_window_counts", counted)
    g = _k4_and_strip(14)
    # the K4 opens the ordering and its first window reaches t = 3
    assert find_dense_2deg(g, 4, 3).success
    # one window: nothing to slide over
    find_dense_2deg(g, g.n, 0)
    assert calls == []
    # out of reach, so the scan slides over every window
    find_dense_2deg(g, 6, 0)
    assert calls == [6]


def _sliding_scan(g, k, goal, budget_end, order=None):
    """The scan whose window counts slid by the leaving and joining
    vertices' edges, kept as the reference for _window_candidates."""
    if order is None:
        order = degeneracy_ordering(g).order
    adj = g.adjacency()
    cap = 2 * k - 3
    window = set(order[:k])
    induced = sum(1 for v in window for w in adj[v] if w in window) // 2
    best = best_key = None
    last = len(order) - k
    for s in range(last + 1):
        if s:
            if s == 1:
                pos = {v: i for i, v in enumerate(order)}
            hi = s + k - 1
            induced -= sum(1 for w in adj[order[s - 1]] if s <= pos[w] < hi)
            induced += sum(1 for w in adj[order[hi]] if s <= pos[w] < hi)
        if best is not None and min(induced, cap) < len(best.edges):
            continue
        trim = trim_by_name(g, order[s : s + k])
        if len(trim.edges) >= goal:
            return trim, False
        key = (-len(trim.edges), trim.vertices)
        if best is None or key < best_key:
            best, best_key = trim, key
        if budget_end is not None and s < last and time.monotonic() > budget_end:
            return best, True
    return best, False


def test_peel_search_matches_the_sliding_scan():
    rng = random.Random(41)
    cases = [(g, k, t) for g in (_tied_graph(rng) for _ in range(60))
             for k in range(2, g.n + 1) for t in range(0, 2 * k + 1, 2)]
    cases += [(g, k, t) for g in _random_deep_pair_graphs(4)[:4]
              for k in (2, 5, 12, 20) for t in range(0, 2 * k + 1, 3)]
    g = simple_subgraph(build_aux(group_system(6)))
    cases += [(g, k, t) for k in range(2, 14) for t in range(2 * k + 1)]
    for g, k, t in cases:
        cand, exhausted = _sliding_scan(g, k, 2 * k - t, None)
        assert find_dense_2deg(g, k, t) == SearchResult(cand, cand.achieved_t <= t, exhausted)


def _reference_window_scan(g, k):
    """The scan that peeled every window and kept the densest, kept as the
    reference for the (-count, order) tie-break when no window reaches the
    goal."""
    order = degeneracy_ordering(g).order
    trims = [trim_by_name(g, order[s : s + k]) for s in range(len(order) - k + 1)]
    return min(trims, key=lambda trim: (-len(trim.edges), trim.vertices))


def _first_window_reaching(g, k, goal):
    """The trim of the first window, in scan order, with at least goal edges,
    or None."""
    order = degeneracy_ordering(g).order
    for s in range(len(order) - k + 1):
        trim = trim_by_name(g, order[s : s + k])
        if len(trim.edges) >= goal:
            return trim
    return None


def _k4_and_strip(n):
    """K4 on 0..3 beside a triangle strip on 4..n+3, in which each vertex
    joins the two before it. The strip is peeled first, so the ordering
    starts with the K4, yet the densest windows lie inside the strip."""
    g = k4()
    for v in range(5, n + 4):
        g.add_edge(v - 1, v)
        if v >= 6:
            g.add_edge(v - 2, v)
    return g


def _pair_graph(seed, size=12, edges=60):
    return simple_subgraph(build_aux(random_linear(size, size, size, edges, seed=seed)))


def test_window_scan_out_of_reach_matches_the_full_scan():
    # a trim has at most 2k - 3 edges, so the goal 2k - 2 is never reached
    rng = random.Random(19)
    for _ in range(150):
        g = _tied_graph(rng)
        for k in range(2, g.n + 1):
            assert _window_candidates(ranked(g), k, 2 * k - 2, None) == (_reference_window_scan(g, k), False)
    for seed in range(4):
        g = _pair_graph(seed)
        for k in range(2, min(g.n, 24) + 1, 3):
            assert _window_candidates(ranked(g), k, 2 * k - 2, None) == (_reference_window_scan(g, k), False)


def test_window_scan_stops_at_the_first_window_reaching_the_goal():
    rng = random.Random(23)
    graphs = [_tied_graph(rng) for _ in range(80)]
    graphs += [simple_subgraph(build_aux(group_system(m))) for m in (4, 5)]
    graphs.append(_k4_and_strip(14))
    reached = 0
    for g in graphs:
        for k in range(2, min(g.n, 16) + 1):
            for goal in range(2 * k - 2):
                first = _first_window_reaching(g, k, goal)
                cand, _ = _window_candidates(ranked(g), k, goal, None)
                if first is None:
                    assert cand == _reference_window_scan(g, k)
                else:
                    reached += 1
                    assert cand == first
    assert reached > 1000


def _assert_search_is_the_scan(g, k, t):
    """Check that peel's result is the window scan's, and return whether a
    window reached t."""
    res = find_dense_2deg(g, k, t)
    assert (res.candidate, res.budget_exhausted) == _window_candidates(ranked(g), k, 2 * k - t, None)
    first = _first_window_reaching(g, k, 2 * k - t)
    if first is None:
        assert not res.success and res.candidate == _reference_window_scan(g, k)
    else:
        assert res.success and res.candidate == first
    return first is not None


def test_peel_search_is_the_window_scan():
    rng = random.Random(29)
    graphs = [_tied_graph(rng) for _ in range(40)]
    graphs += [simple_subgraph(build_aux(group_system(6))), _k4_and_strip(14)]
    reached = [
        _assert_search_is_the_scan(g, k, t)
        for g in graphs
        for k in range(2, min(g.n, 14) + 1)
        for t in range(2 * k + 1)
    ]
    assert reached.count(True) > 500 and reached.count(False) > 500
    # every window misses t here, and the densest one is returned as it is
    # (achieved_t 9), not improved towards t
    assert not _assert_search_is_the_scan(_pair_graph(0, size=24, edges=320), 20, 4)


def test_budget_stops_the_scan_after_the_first_window(monkeypatch):
    # each clock reading is 1 s after the last, so a 1 ms budget has passed
    # at the first check, which follows the first peeled window
    clock = count()
    monkeypatch.setattr(degsearch, "time", SimpleNamespace(monotonic=lambda: float(next(clock))))
    calls = []

    def counted(graph, vertex_set):
        calls.append(vertex_set)
        return _trim_on_set(graph, vertex_set)

    monkeypatch.setattr(degsearch, "_trim_on_set", counted)
    g = _k4_and_strip(14)
    k, t = 6, 2
    res = find_dense_2deg(g, k, t, budget_ms=1)
    assert len(calls) == 1
    assert res.candidate == trim_by_name(g, degeneracy_ordering(g).order[:k])
    assert not res.success
    assert res.budget_exhausted
    # unbudgeted, the scan goes on to a denser window in the strip
    full = find_dense_2deg(g, k, t)
    assert full.achieved_t < res.achieved_t
    assert not full.budget_exhausted
    exact = find_dense_2deg(g, k, t, strategy="exhaustive")
    assert not exact.budget_exhausted
    assert find_dense_2deg(g, k, t, strategy="exhaustive", budget_ms=1) == exact
    # a deadline that passes at the last window leaves nothing unscanned
    assert not find_dense_2deg(g, g.n, t, budget_ms=1).budget_exhausted


def test_pruned_window_scan_peels_few_windows(monkeypatch):
    g = _pair_graph(0, size=24, edges=320)
    k = 20
    calls = []

    def counted(graph, vertex_set):
        calls.append(vertex_set)
        return _trim_on_set(graph, vertex_set)

    monkeypatch.setattr(degsearch, "_trim_on_set", counted)
    cand, _ = _window_candidates(g, k, 2 * k - 2, None)
    windows = g.n - k + 1
    assert len(calls) * 10 <= windows
    monkeypatch.undo()
    assert cand == _reference_window_scan(g, k)


def test_scan_peels_a_window_that_reaches_the_goal_once(monkeypatch):
    # the K4 opens the ordering and its trim has 2k - 3 = 5 edges, so the
    # first window reaches t = 3 and is the result, trimmed only once
    g = _k4_and_strip(14)
    k, t = 4, 3
    ordering = degeneracy_ordering(g)
    peel_core = degsearch._peel_core
    calls = []

    def counted(nbrs):
        calls.append(len(nbrs))
        return peel_core(nbrs)

    monkeypatch.setattr(degsearch, "_peel_core", counted)
    res = find_dense_2deg(g, k, t, order=ordering.ranks)
    assert calls == [k]
    monkeypatch.undo()
    assert res.success
    assert res.candidate == trim_by_name(g, ordering.order[:k])
