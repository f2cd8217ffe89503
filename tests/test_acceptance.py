"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import random
import time
from collections import Counter

import pytest

from besforge import (
    DriverParams,
    Graph,
    build_aux,
    check_lemma_bounds,
    find_be_s_configuration,
    find_dense_2deg,
    find_growth_t,
    girth_of,
    group_system,
    min_span,
    paper_constant_d,
    random_linear,
    simple_subgraph,
    unpack,
    verify_certificate,
    verify_configuration,
)
from besforge.girth import side_of
from random_candidates import random_candidate
from reference_degsearch import brute_force_best_2deg
from reference_graphs import two_coloring
from reference_unpack import audit_involvement

DELTA_CAPS = {4: 4, 3: 2, 2: 1, 1: 0, 0: 0}
PRACTICAL = DriverParams(t=4, tau_max=4, base_e=4)


@pytest.fixture(scope="module")
def unpack_corpus():
    """>= 10^4 traces from random candidates over group and random systems."""
    hosts = [group_system(m) for m in (3, 4, 5, 6)]
    hosts += [random_linear(8, 8, 8, 28, seed=s) for s in range(4)]
    prepared = []
    for lts in hosts:
        aux = build_aux(lts)
        prepared.append((lts, aux, simple_subgraph(aux)))
    rng = random.Random(0)
    traces = []
    runs = 10_000
    start = time.monotonic()
    for i in range(runs):
        lts, aux, graph = prepared[i % len(prepared)]
        k = rng.randint(2, min(12, graph.n))
        cand = random_candidate(graph, k, rng)
        _cfg, trace = unpack(cand, aux, lts)
        traces.append((cand, trace))
    return traces, time.monotonic() - start


def test_criterion_1_aux_identity_and_bound():
    for m in range(2, 31):
        start = time.monotonic()
        lts = group_system(m)
        aux = build_aux(lts)
        expected = m * (m * (m - 1) // 2)
        assert aux.multi_edge_count == expected
        assert aux.multi_edge_count == sum(
            d * (d - 1) // 2 for d in Counter(c for _, _, c in lts.edges).values()
        )
        # |E(G')| >= |E|^2 / (4|C|), in integers: 4m * count >= (m^2)^2
        assert 4 * m * aux.multi_edge_count >= m**4
        assert time.monotonic() - start < 1.0
    print("PASS criterion 1: aux multi-edge identity and lower bound, m=2..30")


def test_criterion_2_multiplicity_law():
    rng = random.Random(1)
    violations = 0
    for i in range(1000):
        na, nb, nc = (rng.randint(2, 15) for _ in range(3))
        lts = random_linear(na, nb, nc, rng.randint(0, 40), seed=i)
        aux = build_aux(lts)  # build_aux itself asserts the law; recheck anyway
        groups = {}
        for ed in aux.edges:
            groups.setdefault((ed.u, ed.w), []).append(ed.pairing)
        for pairings in groups.values():
            if len(pairings) > 2 or len(set(pairings)) != len(pairings):
                violations += 1
    assert violations == 0
    print("PASS criterion 2: multiplicity <= 2 with distinct pairings, 1000 instances")


def test_criterion_3_step_case_law(unpack_corpus):
    traces, build_seconds = unpack_corpus
    start = time.monotonic()
    assert len(traces) >= 10_000
    for cand, trace in traces:
        singulars = 0
        for s in trace.steps:
            assert 0 <= s.delta_e <= 2 * s.d <= 4
            if s.is_regular:
                assert s.delta_v <= DELTA_CAPS[s.delta_e]
            else:
                singulars += 1
                assert s.delta_e >= s.delta_v - 2
        assert singulars <= 2 * cand.achieved_t
        report = check_lemma_bounds(trace, cand.k, cand.achieved_t)
        assert report.assertion1_ok
    elapsed = build_seconds + time.monotonic() - start
    assert elapsed < 60.0
    print(f"PASS criterion 3: step case law over {len(traces)} unpack runs")


def test_criterion_4_involvement_audit(unpack_corpus):
    traces, _ = unpack_corpus
    for _cand, trace in traces:
        audit_involvement(trace)  # raises AuditError on any violation
    print(f"PASS criterion 4: involvement audit clean over {len(traces)} runs")


def test_criterion_5_oracle_dominance_and_exact_matches():
    assert min_span(group_system(2), 4).v == 6
    g3 = group_system(3)
    report = find_be_s_configuration(g3, 7, PRACTICAL)
    assert report.span == 9 == min_span(g3, 7).v
    hosts = [group_system(2), g3, group_system(4)]
    hosts += [random_linear(6, 6, 6, 20, seed=s) for s in range(3)]
    checked = 0
    for lts in hosts:
        assert lts.m <= 25
        for e in range(1, min(10, lts.m) + 1):
            rep = find_be_s_configuration(lts, e, PRACTICAL)
            assert rep.span >= min_span(lts, e).v
            checked += 1
    print(f"PASS criterion 5: oracle dominance on {checked} instances; exact matches hold")


def test_criterion_6_driver_contract():
    assert paper_constant_d(4, 1) == 1920048
    rng = random.Random(6)
    import json

    for run in range(200):
        m = rng.randint(3, 20)
        lts = group_system(m)
        e = rng.randint(1, min(60, lts.m))
        report = find_be_s_configuration(lts, e, PRACTICAL)
        assert report.configuration.e == e
        assert verify_configuration(lts, report.configuration, report.span, e)
        if run % 40 == 0:  # determinism spot checks
            again = find_be_s_configuration(lts, e, PRACTICAL)
            assert json.dumps(report.to_json_dict()) == json.dumps(again.to_json_dict())
    print("PASS criterion 6: 200 driver runs exact, verified, deterministic; d(4,1)=1920048")


def test_criterion_7_girth_growth():
    for g in (4, 5, 6):
        start = time.monotonic()
        t, graph, cert = find_growth_t(500, g, seed=g)
        assert graph.n == 500
        assert graph.m == 2 * (500 - t)
        assert two_coloring(graph) is not None
        assert max(map(len, graph.adjacency().values())) <= 8
        assert cert.t + len(cert.attachments) == 500
        assert Counter(map(side_of, range(500))) == {"A": 250, "B": 250}
        girth = girth_of(graph)
        assert girth is None or girth > g
        assert verify_certificate(graph, cert)
        assert time.monotonic() - start < 10.0
        print(f"PASS criterion 7 (g={g}): t={t}, girth {girth}, 500 vertices verified")


def test_criterion_8_degeneracy_oracle_equivalence():
    rng = random.Random(8)
    for _ in range(500):
        na = rng.randint(1, 5)
        nb = rng.randint(1, 9 - na) if na < 8 else 1
        left = list(range(na))
        right = list(range(na, na + nb))
        g = Graph(vertices=left + right)
        for u in left:
            for v in right:
                if rng.random() < 0.5:
                    g.add_edge(u, v)
        if g.n < 2:
            continue
        k = rng.randint(2, g.n)
        opt, witness = brute_force_best_2deg(g, k)
        witness.validate(g)
        exact = find_dense_2deg(g, k, 0, strategy="exhaustive")
        assert len(exact.candidate.edges) == opt
        res = find_dense_2deg(g, k, 0, strategy="peel")
        assert len(res.candidate.edges) <= opt
    print("PASS criterion 8: exhaustive equals oracle on 500 graphs; peel never exceeds")
