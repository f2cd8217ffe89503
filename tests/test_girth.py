import pytest

import besforge.girth
from besforge import (
    Graph,
    GrowthCertificate,
    GrowthError,
    IntegrityError,
    ParameterError,
    find_growth_t,
    girth_of,
    grow_girth_graph,
    two_coloring,
    verify_certificate,
)


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
    assert max(g.degree(v) for v in g.vertices) <= 8
    sides = {}
    for v, s in zip(cert.order, cert.sides):
        sides.setdefault(s, []).append(v)
    assert sorted(len(x) for x in sides.values()) == [100, 100]
    assert two_coloring(g) is not None
    assert verify_certificate(g, cert)


def test_growth_failure_when_t_too_small():
    with pytest.raises(GrowthError):
        grow_girth_graph(60, 2, 8, seed=0)


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


def test_girth_of_basics():
    c6 = Graph(edges=[(i, (i + 1) % 6) for i in range(6)])
    assert girth_of(c6) == 6
    tree = Graph(edges=[(0, 1), (1, 2), (1, 3)])
    assert girth_of(tree) is None
    k33 = Graph(edges=[(i, j) for i in range(3) for j in range(3, 6)])
    assert girth_of(k33) == 4


def test_girth_of_matches_enumeration_oracle():
    import random

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
                for nxt in g.neighbors(cur):
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


def test_verify_certificate_c4_by_hand():
    g = Graph(edges=[(0, 2), (0, 3), (1, 2), (1, 3)])
    cert = GrowthCertificate(2, (0, 1, 2, 3), ((2, 0, 1), (3, 0, 1)), ("A", "A", "B", "B"))
    assert verify_certificate(g, cert)


def test_verify_certificate_rejects_triangle():
    g = Graph(edges=[(0, 1), (0, 2), (1, 2)])
    cert = GrowthCertificate(2, (0, 1, 2), ((2, 0, 1),), ("A", "B", "A"))
    assert not verify_certificate(g, cert)


def test_verify_certificate_rejects_edge_mismatch():
    g = Graph(edges=[(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    cert = GrowthCertificate(2, (0, 1, 2, 3), ((2, 0, 1), (3, 0, 1)), ("A", "A", "B", "B"))
    assert not verify_certificate(g, cert)


def test_find_growth_t_doubles_until_success():
    t, g, cert = find_growth_t(50, 5, seed=1)
    assert g.n == 50 and g.m == 2 * (50 - t)
    assert girth_of(g) is None or girth_of(g) >= 5
    assert verify_certificate(g, cert)
