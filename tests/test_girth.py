import hashlib
import itertools
import random
import tracemalloc
from collections import Counter, deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import besforge.girth
from besforge import (
    Graph,
    GrowthCertificate,
    GrowthError,
    IntegrityError,
    ParameterError,
    degeneracy_ordering,
    find_growth_t,
    girth_of,
    grow_girth_graph,
    verify_certificate,
    within_distance,
)
from besforge.girth import side_of
from reference_graphs import two_coloring


def test_k_equals_t_is_isolated():
    g, cert = grow_girth_graph(5, 5, 7)
    assert g.n == 5 and g.m == 0
    assert verify_certificate(g, cert)


def test_one_growth_step():
    g, cert = grow_girth_graph(4, 3, 3, seed=0)
    assert g.m == 2
    assert girth_of(g) is None  # a single degree-2 vertex creates no cycle
    assert verify_certificate(g, cert)


def test_worked_200_vertex_example():
    g, cert = grow_girth_graph(200, 64, 6, seed=3)
    assert g.n == 200 and g.m == 2 * (200 - 64) == 272
    assert girth_of(g) >= 6
    assert max(map(len, g.adjacency().values())) <= 8
    assert cert.t + len(cert.attachments) == 200
    assert Counter(map(side_of, range(200))) == {"A": 100, "B": 100}
    assert two_coloring(g) is not None
    assert verify_certificate(g, cert)


def test_growth_failure_when_t_too_small():
    with pytest.raises(GrowthError):
        grow_girth_graph(60, 2, 8, seed=0)


def test_growth_failure_names_its_step_and_the_graph_size():
    # step v would add vertex v, so the graph it fails on has v vertices
    with pytest.raises(GrowthError) as failed:
        grow_girth_graph(200, 10, 8, seed=0)
    assert failed.value.step == 22
    assert str(failed.value) == "no valid attachment pair at step 22 (graph has 22 vertices)"


def test_degree_cap_violation_is_an_integrity_error(monkeypatch):
    monkeypatch.setattr(besforge.girth, "_PAIR_DEGREE_CAP", 100)
    # always the first two eligible vertices, so their degrees pass the cap
    monkeypatch.setattr(besforge.girth, "_pick_pair", lambda graph, eligible, g, rng: eligible[:2])
    with pytest.raises(IntegrityError, match="degree cap"):
        grow_girth_graph(40, 4, 3)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        grow_girth_graph(3, 4, 5)
    with pytest.raises(ParameterError):
        grow_girth_graph(4, 2, 2)


def _reference_girth_of(graph):
    """Exact girth by a full breadth-first search from every vertex."""
    best = None
    adj = graph.adjacency()
    for root in graph.vertices:
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best:
                break
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cycle = dist[u] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def _assert_girths_agree(graph):
    """Check girth_of against the reference, leaving the graph as it was."""
    before = {v: set(nbrs) for v, nbrs in graph.adjacency().items()}
    girth = girth_of(graph)
    assert graph.adjacency() == before
    assert girth == _reference_girth_of(graph)
    return girth


def test_girth_of_basics():
    c6 = Graph(edges=[(i, (i + 1) % 6) for i in range(6)])
    assert _assert_girths_agree(c6) == 6
    tree = Graph(edges=[(0, 1), (1, 2), (1, 3)])
    assert _assert_girths_agree(tree) is None
    k33 = Graph(edges=[(i, j) for i in range(3) for j in range(3, 6)])
    assert _assert_girths_agree(k33) == 4
    k4 = Graph(edges=[(u, w) for u in range(4) for w in range(u + 1, 4)])
    assert _assert_girths_agree(k4) == 3
    petersen = Graph(edges=[(i, (i + 1) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    assert _assert_girths_agree(petersen) == 5
    # a search from a vertex of a (2j + 1)-cycle reports it through the edge
    # between its two vertices at depth j, just before the stop rule fires
    for length in (3, 5, 7, 9, 11):
        assert _assert_girths_agree(_odd_cycle_with_pendant_paths(length)) == length


def test_girth_of_matches_enumeration_oracle():
    def cycle_oracle(g):
        # shortest cycle by DFS enumeration over simple cycles via edge subsets
        for L in range(3, g.n + 1):
            for cyc in _cycles_of_length(g, L):
                return L
        return None

    def _cycles_of_length(g, L):
        for start in g.vertices:
            stack = [(start, [start])]
            while stack:
                cur, path = stack.pop()
                if len(path) == L:
                    if g.has_edge(cur, start) and start == min(path):
                        yield path
                    continue
                for nxt in g.adjacency()[cur]:
                    if nxt in path:
                        continue
                    stack.append((nxt, path + [nxt]))

    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(4, 8)
        g = Graph(vertices=range(n))
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.35:
                    g.add_edge(u, v)
        assert girth_of(g) == cycle_oracle(g)


def _graph_of_girth(rng, girth):
    """A random graph of girth exactly `girth` on 20-200 vertices: two
    components, one around a planted girth-cycle and one around a
    (girth + 1)-cycle, each filled out with a random tree and random edges
    that close no cycle shorter than `girth`, plus 1-3 isolated vertices."""
    n = rng.randint(20, 200)
    rest = n - rng.randint(1, 3)
    split = rng.randint(girth, rest - girth - 1)
    graph = Graph(vertices=range(n))
    for lo, hi, length in ((0, split, girth), (split, rest, girth + 1)):
        for i in range(length):
            graph.add_edge(lo + i, lo + (i + 1) % length)
        for v in range(lo + length, hi):
            graph.add_edge(v, rng.randrange(lo, v))
        for _ in range(2 * (hi - lo)):
            u, w = rng.sample(range(lo, hi), 2)
            if not _reference_within_distance(graph, u, w, girth - 2):
                graph.add_edge(u, w)
    return graph


def test_girth_of_matches_the_reference_on_grown_graphs():
    for g, girth in ((4, 6), (5, 6), (6, 8)):
        _t, graph, _cert = find_growth_t(2000, g, seed=1)
        assert _assert_girths_agree(graph) == girth


def test_girth_of_matches_the_reference_on_random_graphs_of_known_girth():
    rng = random.Random(41)
    for girth in (4, 5, 6, 7, 8):
        for _ in range(4):
            graph = _graph_of_girth(rng, girth)
            assert any(not ws for ws in graph.adjacency().values())
            assert _assert_girths_agree(graph) == girth
    # tuple labels, shuffled so that label order is not construction order
    graph = _graph_of_girth(rng, 5)
    labels = list(range(graph.n))
    rng.shuffle(labels)
    relabelled = Graph(vertices=[(labels[v] % 3, labels[v]) for v in graph.vertices],
                       edges=[((labels[u] % 3, labels[u]), (labels[w] % 3, labels[w]))
                              for u, w in graph.edges])
    assert _assert_girths_agree(relabelled) == 5


def _odd_cycle_with_pendant_paths(length):
    """A cycle of odd length with a path of two pendant vertices on each
    cycle vertex, so that its only cycle is odd and its searches go deep."""
    graph = Graph(edges=[(i, (i + 1) % length) for i in range(length)])
    for i in range(length):
        leaf = length + 2 * i
        graph.add_edge(i, leaf)
        graph.add_edge(leaf, leaf + 1)
    return graph


def _bipartite_part(half_girth):
    """A bipartite graph of girth 2 * half_girth with a vertex of degree at
    least 3."""
    if half_girth == 2:
        return Graph(edges=[(i, j) for i in range(3) for j in range(3, 6)])
    if half_girth == 3:
        # the Heawood graph
        return Graph(edges=[(i, (i + 1) % 14) for i in range(14)]
                     + [(i, (i + 5) % 14) for i in range(0, 14, 2)])
    _t, graph, _cert = find_growth_t(300, 6, seed=2)
    return graph


@pytest.mark.parametrize("half_girth, length", [(2, 3), (3, 5), (4, 7), (3, 4), (4, 6)])
def test_girth_of_finds_a_shorter_cycle_after_its_hubs(monkeypatch, half_girth, length):
    # a bipartite part of girth 2L and degrees up to at least 3, whose hubs
    # are searched first and report 2L, next to a cycle of length 2L - 1 or,
    # keeping the union bipartite, 2L - 2, whose searches must still expand
    # the level that closes it
    bipartite = _bipartite_part(half_girth)
    assert two_coloring(bipartite) is not None
    assert _reference_girth_of(bipartite) == 2 * half_girth
    assert max(map(len, bipartite.adjacency().values())) >= 3
    cycle = [(bipartite.n + i, bipartite.n + (i + 1) % length) for i in range(length)]
    union = Graph(vertices=bipartite.vertices, edges=bipartite.edges + tuple(cycle))
    assert (two_coloring(union) is not None) == (length % 2 == 0)
    assert _assert_girths_agree(union) == length
    if length % 2:
        # taking the union for bipartite would stop the odd cycle's searches
        # one level early and report the bipartite part's girth instead
        monkeypatch.setattr(besforge.girth, "two_coloring", lambda graph: {})
        assert girth_of(union) == 2 * half_girth


def test_girth_of_deletes_each_root_after_its_search(monkeypatch):
    popped = []

    class CountingDeque(deque):
        def popleft(self):
            popped.append(super().popleft())
            return popped[-1]

    monkeypatch.setattr(besforge.girth, "deque", CountingDeque)
    star = Graph(edges=[(0, leaf) for leaf in range(1, 51)])
    assert girth_of(star) is None
    # the hub goes first and reaches all 51 vertices; each leaf is then
    # alone, so its search pops only itself
    assert popped[0] == 0 and len(popped) == 51 + 50


# sides alternate by side_of: even vertices are A, odd ones B
C4_BY_HAND = GrowthCertificate(4, ((4, 1, 3), (5, 0, 2), (6, 1, 3)))
C4_EDGES = [(1, 4), (3, 4), (0, 5), (2, 5), (1, 6), (3, 6)]


def test_verify_certificate_c4_by_hand():
    g = Graph(vertices=range(7), edges=C4_EDGES)
    assert girth_of(g) == 4  # 1-4-3-6
    assert verify_certificate(g, C4_BY_HAND)
    # the vertex set must be exactly 0..k-1
    assert not verify_certificate(Graph(vertices=range(8), edges=C4_EDGES), C4_BY_HAND)


def test_verify_certificate_rejects_triangle():
    g = Graph(edges=[(0, 1), (0, 2), (1, 2)])
    assert not verify_certificate(g, GrowthCertificate(2, ((2, 0, 1),)))


def test_verify_certificate_rejects_an_edge_inside_a_side():
    # the path 0-2-1 is bipartite and every edge is built, but 0 and 2 are
    # both on side A, so only the side check rejects it
    g = Graph(edges=[(0, 2), (1, 2)])
    assert two_coloring(g) is not None
    assert not verify_certificate(g, GrowthCertificate(2, ((2, 0, 1),)))
    # here only the edge to the second anchor, 0-2, lies inside a side
    assert not verify_certificate(g, GrowthCertificate(2, ((2, 1, 0),)))
    # the path 0-3-2 with 1 isolated: 3 is on side B, so it is accepted
    path = Graph(vertices=range(4), edges=[(0, 3), (2, 3)])
    assert verify_certificate(path, GrowthCertificate(3, ((3, 0, 2),)))
    # without the isolated seed the vertex set is not 0..k-1
    assert not verify_certificate(Graph(edges=path.edges), GrowthCertificate(3, ((3, 0, 2),)))


def test_verify_certificate_rejects_edge_mismatch():
    # 4-5 joins two sides and keeps the graph bipartite, but was not built
    g = Graph(vertices=range(7), edges=[*C4_EDGES, (4, 5)])
    assert two_coloring(g) is not None
    assert not verify_certificate(g, C4_BY_HAND)


def test_verify_certificate_rejects_an_edge_between_seeds():
    # seeds 0, 1, 2 and vertex 3 on 0 and 2; the seed edge 0-1 joins two
    # sides and closes no cycle, so only the edge comparison rejects it
    cert = GrowthCertificate(3, ((3, 0, 2),))
    assert verify_certificate(Graph(vertices=range(4), edges=[(0, 3), (2, 3)]), cert)
    assert not verify_certificate(Graph(edges=[(0, 1), (0, 3), (2, 3)]), cert)
    # as many edges as were built, but the seed edge stands in for 2-3
    assert not verify_certificate(Graph(vertices=range(4), edges=[(0, 1), (0, 3)]), cert)


# K6 minus the edge 0-1: neither bipartite nor 2-degenerate, with a
# certificate whose seed count is negative
K6_MINUS_EDGE = Graph(edges=[e for e in itertools.combinations(range(6), 2) if e != (0, 1)])
NEGATIVE_SEED_CERT = GrowthCertificate(-1, ((5, 0, 2),) + ((0, 0, 0),) * 6)


def test_verify_certificate_rejects_a_negative_seed_count():
    # t + len(attachments) = 6 vertices and 2 * 7 = 14 edges, as the graph has
    assert K6_MINUS_EDGE.m == 14
    assert not verify_certificate(K6_MINUS_EDGE, NEGATIVE_SEED_CERT)


def test_verify_certificate_is_not_sized_by_the_seed_count():
    # a loaded t comes from the file; set(range(10**6)) alone takes tens of MB
    tracemalloc.start()
    try:
        assert not verify_certificate(Graph(vertices=range(1)), GrowthCertificate(10**6, ()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# the cube Q3, labelled so that side_of is its 2-colouring with the
# antipodal seeds 0 and 1; each later vertex owns two edges, but 2, 3 and 4
# name an anchor that comes after them, so no peeling order replays the lines
CUBE = Graph(edges=[(0, 3), (0, 5), (0, 7), (1, 2), (1, 4), (1, 6),
                    (2, 3), (3, 4), (4, 7), (6, 7), (5, 6), (2, 5)])
CUBE_FORWARD_CERT = GrowthCertificate(2, ((2, 1, 3), (3, 0, 4), (4, 1, 7),
                                          (5, 0, 2), (6, 1, 5), (7, 0, 6)))


def test_verify_certificate_rejects_an_anchor_after_its_vertex():
    assert CUBE.m == 2 * (8 - 2) and degeneracy_ordering(CUBE).degeneracy == 3
    assert not verify_certificate(CUBE, CUBE_FORWARD_CERT)


@st.composite
def _mutated_certificates(draw):
    """A small grown graph and its certificate, with at most one change."""
    k = draw(st.integers(2, 14))
    _t, graph, cert = find_growth_t(k, draw(st.integers(4, 6)), seed=draw(st.integers(0, 3)))
    t, lines = cert.t, list(cert.attachments)
    change = draw(st.sampled_from(["none", "t", "line", "edge"]))
    if change == "t":
        t = draw(st.integers(-3, k + 2))
    elif change == "line" and lines:
        vertex = st.integers(-1, k + 1)
        lines[draw(st.integers(0, len(lines) - 1))] = (draw(vertex), draw(vertex), draw(vertex))
    elif change == "edge":
        u, w = draw(st.lists(st.integers(0, k), min_size=2, max_size=2, unique=True))
        graph = Graph(vertices=graph.vertices, edges=[*graph.edges, (u, w)])
    if change in ("t", "line") and draw(st.booleans()):
        # the graph the changed certificate describes, so that only the
        # certificate's own rules can reject it
        graph = Graph(vertices=range(max(t + len(lines), 0)),
                      edges=[(v, u) for v, *anchors in lines for u in anchors if u != v])
    return change, graph, GrowthCertificate(t, tuple(lines))


@settings(max_examples=300, deadline=None)
@given(_mutated_certificates())
@example(("repro", K6_MINUS_EDGE, NEGATIVE_SEED_CERT))
@example(("cube", CUBE, CUBE_FORWARD_CERT))
def test_verified_certificates_are_sound(case):
    change, graph, cert = case
    ok = verify_certificate(graph, cert)
    if change == "none":
        assert ok
    if ok:
        k = cert.t + len(cert.attachments)
        assert two_coloring(graph) is not None
        assert graph.m == 2 * (k - cert.t)
        assert degeneracy_ordering(graph).degeneracy <= 2


def test_find_growth_t_doubles_until_success():
    t, g, cert = find_growth_t(50, 5, seed=1)
    assert g.n == 50 and g.m == 2 * (50 - t)
    # the growth rule keeps every cycle longer than g
    assert girth_of(g) is None or girth_of(g) > 5
    assert verify_certificate(g, cert)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(3, 300), st.integers(4, 7), st.integers(0, 5))
@example(300, 4, 1)
@example(300, 5, 1)
@example(300, 6, 1)
@example(300, 7, 1)
def test_growth_anchors_are_more_than_g_minus_2_apart(k, g, seed):
    # replay the attachments: each pair of anchors is farther apart than
    # g - 2 in the graph built before its vertex, so no cycle of length at
    # most g passes through that vertex
    t, grown, cert = find_growth_t(k, g, seed=seed)
    graph = Graph(vertices=range(t))
    for v, u1, u2 in cert.attachments:
        assert not _reference_within_distance(graph, u1, u2, g - 2), (v, u1, u2)
        graph.add_edge(v, u1)
        graph.add_edge(v, u2)
    assert graph.edges == grown.edges
    girth = girth_of(grown)
    assert girth is None or girth > g


def test_growth_makes_the_same_distance_tests(monkeypatch):
    # counts measured before the distance test took an even limit: the same
    # calls, so the even limit tests the same pairs, and the calls still go
    # through the module global that perfbench/spans.py counts
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return within_distance(*args)

    monkeypatch.setattr(besforge.girth, "within_distance", counting)
    counts = {}
    for g in (4, 5, 6, 7):
        calls = 0
        find_growth_t(2000, g, seed=1)
        counts[g] = calls
    assert counts == {4: 2274, 5: 2274, 6: 4615, 7: 4615}


@pytest.mark.parametrize(
    "k, g, seed, digest",
    [
        (2000, 4, 0, "eaacb28e3b11495e282c2c9d673d3347c2d9615bbc8ad4583c07cdba4f4b687e"),
        (2000, 4, 1, "0c7441a8c03acda61dee9b6dbc4490b8b35000d81cd2877d0170ab5ccf8475d2"),
        (2000, 5, 0, "eaacb28e3b11495e282c2c9d673d3347c2d9615bbc8ad4583c07cdba4f4b687e"),
        (2000, 5, 1, "0c7441a8c03acda61dee9b6dbc4490b8b35000d81cd2877d0170ab5ccf8475d2"),
        (2000, 6, 0, "71200d87f5afe1bf4e13b5ca452f76fd28b87d163f34409b2f7f5b6896c23ce9"),
        (2000, 6, 1, "b46863ad5f64af56849fe01b2b963d7c859df1d4287f0efe941b8e5de9e1e574"),
        (2000, 7, 0, "71200d87f5afe1bf4e13b5ca452f76fd28b87d163f34409b2f7f5b6896c23ce9"),
        (2000, 7, 1, "b46863ad5f64af56849fe01b2b963d7c859df1d4287f0efe941b8e5de9e1e574"),
        (5000, 6, 1, "d75e0b27a92bc340c158b95386abbb9434f8806c19abd07941b70d4d39922a1a"),
        # limits 0 and 6, which the distance test's set shortcuts leave to its
        # general search; g = 8 also runs the all-pairs fallback
        (2000, 3, 1, "29b96b2a4640fd6f352a274632d8e43a0076349110129c0766a88f0a8419d8e1"),
        (2000, 8, 1, "56d619717e190bc397ba0cca2fb87dffcebb3d44186785c824a9b6e1808edde3"),
        (2000, 9, 1, "56d619717e190bc397ba0cca2fb87dffcebb3d44186785c824a9b6e1808edde3"),
    ],
)
def test_growth_outputs_are_pinned(k, g, seed, digest):
    # each growth fills vertices past the pair-degree cap and restarts after
    # at least one GrowthError; in a bipartite graph g = 2j and 2j + 1 agree
    t, graph, cert = find_growth_t(k, g, seed=seed)
    assert t > 2
    assert hashlib.sha256(repr((t, graph.edges, cert.attachments)).encode()).hexdigest() == digest


def test_open_lists_equal_the_degree_filter(monkeypatch):
    pick = besforge.girth._pick_pair
    cap = besforge.girth._PAIR_DEGREE_CAP
    steps = 0
    shorter = 0

    def checked(graph, eligible, g, rng):
        nonlocal steps, shorter
        # vertices 0..graph.n-1 are placed and graph.n is about to join; the
        # members of the other side, in insertion order, are its candidates
        members = [u for u in range(graph.n) if side_of(u) != side_of(graph.n)]
        expected = [u for u in members if len(graph.adjacency()[u]) <= cap]
        assert len(eligible) == len(expected)
        assert eligible == expected
        steps += 1
        shorter += len(expected) < len(members)
        return pick(graph, eligible, g, rng)

    monkeypatch.setattr(besforge.girth, "_pick_pair", checked)
    final_steps = 0
    for g in (4, 5, 6):
        t, graph, _cert = find_growth_t(2000, g, seed=g)
        final_steps += 2000 - t
    assert steps > final_steps  # failed attempts before each final one
    assert shorter > 1000  # the lists did lose full vertices


def _reference_within_distance(g, u, v, limit):
    """Breadth-first search of radius limit from u, stopping at v."""
    if u == v:
        return True
    if limit <= 0:
        return False
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if dist[x] == limit:
            continue
        for w in g.adjacency()[x]:
            if w in dist:
                continue
            if w == v:
                return True
            dist[w] = dist[x] + 1
            queue.append(w)
    return False


def _assert_distance_tests_agree(graph, u, v, limits=range(-1, 9)):
    for limit in limits:
        expected = _reference_within_distance(graph, u, v, limit)
        assert within_distance(graph, u, v, limit) == expected, (u, v, limit)
        assert within_distance(graph, v, u, limit) == expected, (v, u, limit)


def test_within_distance_matches_the_reference_bfs():
    rng = random.Random(31)
    queries = 0
    for _ in range(60):
        n = rng.randint(2, 40)
        graph = Graph(vertices=range(n))
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.sample(range(n), 2)
            graph.add_edge(u, v)
        for _ in range(10):
            _assert_distance_tests_agree(graph, rng.randrange(n), rng.randrange(n))
            queries += 1
        u = rng.randrange(n)
        _assert_distance_tests_agree(graph, u, u)
    assert queries == 600


def test_within_distance_across_components_and_on_grown_graphs():
    # two 8-cycles: every pair across them is out of reach at any limit
    graph = Graph(vertices=[16], edges=[(i, (i + 1) % 8) for i in range(8)])
    for i in range(8):
        graph.add_edge(8 + i, 8 + (i + 1) % 8)
    # a target outside the graph is out of reach, as for the reference
    assert not within_distance(graph, 0, 99, 4) and not _reference_within_distance(graph, 0, 99, 4)
    for u in range(8):
        for v in (8 + u, 15 - u, 16):
            _assert_distance_tests_agree(graph, u, v, limits=range(0, 20))
            assert not within_distance(graph, u, v, 19)
    rng = random.Random(37)
    for g in (4, 6, 7):
        _t, grown, _cert = find_growth_t(300, g, seed=g)
        for _ in range(200):
            _assert_distance_tests_agree(grown, *rng.sample(range(300), 2))


def test_within_distance_on_odd_cycles_and_adjacent_pairs():
    # triangles and 5-cycles make odd distances and several shortest paths,
    # which the grown bipartite graphs never have
    petersen = Graph(edges=[(i, (i + 1) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    wheel = Graph(edges=[(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)])
    # a triangle and a 5-cycle sharing vertex 0, with a path hanging off each
    bowtie = Graph(edges=[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 0),
                          (2, 7), (7, 8), (5, 9), (9, 10), (10, 11)])
    for graph in (petersen, wheel, bowtie):
        for u, v in itertools.combinations(graph.vertices, 2):
            _assert_distance_tests_agree(graph, u, v)
        for u, v in graph.edges:
            assert all(within_distance(graph, u, v, limit) for limit in range(1, 9))
            assert not within_distance(graph, u, v, 0)


def test_within_distance_to_a_target_that_is_not_a_vertex():
    graph = Graph(vertices=[5], edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    for limit in range(-1, 9):
        for u in graph.vertices:
            assert not within_distance(graph, u, 99, limit), (u, limit)
            assert not _reference_within_distance(graph, u, 99, limit)
            # and from it: the reference BFS would ask for the neighbours of 99
            assert not within_distance(graph, 99, u, limit), (u, limit)
        # a path of length 0 needs no vertex
        assert within_distance(graph, 99, 99, limit)


@pytest.mark.parametrize("n", range(2, 65))
def test_draw_two_is_random_sample(n):
    # the same two items as rng.sample(seq, 2), and the generator left in
    # the same state, on both sides of sample's 21-item switch
    seq = [10 * i + 7 for i in range(n)]
    for seed in range(8):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(40):
            assert besforge.girth._draw_two(seq, ours) == tuple(theirs.sample(seq, 2))
            assert ours.getstate() == theirs.getstate()


def _rank_lists(graph):
    names = graph.vertices
    rank = {v: i for i, v in enumerate(names)}
    adj = graph.adjacency()
    return [[rank[w] for w in adj[v]] for v in names]


@pytest.mark.parametrize("even, odd", [(4, 3), (6, 5), (12, 11), (30, 29), (30, 5)])
def test_girth_of_finds_an_odd_cycle_late_in_root_order(even, odd):
    # every cycle vertex has degree 2, so roots go in descending label
    # order: the long even cycle on the high labels first, then the odd
    # cycle on the low labels, whose component the colouring reaches last;
    # the isolated vertices go last of all. Taken for bipartite, the odd
    # cycle's searches would stop one level early and, for odd = even - 1,
    # report the even cycle.
    graph = Graph(vertices=range(odd, odd + 3),
                  edges=[(i, (i + 1) % odd) for i in range(odd)]
                  + [(100 + i, 100 + (i + 1) % even) for i in range(even)])
    assert besforge.girth.two_coloring(_rank_lists(graph)) is None
    assert _assert_girths_agree(graph) == odd
    # without the odd cycle the same colouring finds the graph bipartite
    bipartite = Graph(vertices=range(odd + 3), edges=graph.edges[odd:])
    assert besforge.girth.two_coloring(_rank_lists(bipartite)) is not None
    assert _assert_girths_agree(bipartite) == even


def test_rank_list_coloring_agrees_with_two_coloring():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 16)
        graph = Graph(vertices=range(n))
        for _ in range(rng.randint(0, 2 * n)):
            if n > 1:
                graph.add_edge(*rng.sample(range(n), 2))
        nbrs = _rank_lists(graph)
        color = besforge.girth.two_coloring(nbrs)
        assert (color is None) == (two_coloring(graph) is None)
        if color is not None:
            assert all(color[i] != color[j] for i, ws in enumerate(nbrs) for j in ws)
