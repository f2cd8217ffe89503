import gc
import json
import random
import weakref
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import combinations, count
from types import SimpleNamespace

import pytest

import besforge.driver
from besforge import (
    DriverParams,
    ExhaustionError,
    IntegrityError,
    ParameterError,
    TripartiteLinearSystem,
    find_be_s_configuration,
    group_system,
    min_span,
    paper_constant_d,
    random_linear,
    verify_configuration,
)
from besforge import auxgraph, degsearch
from besforge import io as textio
from besforge.auxgraph import AuxEdge, AuxGraph, build_aux, simple_subgraph
from besforge.cli import main
from besforge.driver import _frame_can_succeed, _greedy_pick
from besforge.unpack import unpack

import test_golden
from random_candidates import trim_by_name
from test_auxgraph import _reference_simple_subgraph

PRACTICAL = DriverParams(t=4, tau_max=4, base_e=4)


def test_paper_constant_values():
    assert paper_constant_d(4, 1) == 1920048
    assert paper_constant_d(1, 10**6) == 24_000_000
    assert paper_constant_d(4, 80002) == 1920048  # both branches equal


def test_paper_constant_rejects_bad_input():
    with pytest.raises(ParameterError):
        paper_constant_d(0, 1)


def test_single_edge():
    report = find_be_s_configuration(group_system(4), 1, PRACTICAL)
    assert report.span == 3 and report.d_achieved == 2


def test_group3_e7_matches_oracle():
    lts = group_system(3)
    report = find_be_s_configuration(lts, 7, PRACTICAL)
    assert report.configuration.e == 7
    assert report.span == 9 == min_span(lts, 7).v
    assert report.d_achieved == 2


def test_group20_e40_contract():
    lts = group_system(20)
    report = find_be_s_configuration(lts, 40, PRACTICAL)
    assert report.configuration.e == 40
    assert verify_configuration(lts, report.configuration, report.span, 40)
    assert report.span <= 2 * 40  # greedy base alone achieves span <= 3e


def test_exact_edge_count_and_distinctness():
    lts = group_system(8)
    for e in (5, 11, 23):
        report = find_be_s_configuration(lts, e, PRACTICAL)
        assert len(report.configuration.edges) == e
        assert len(set(report.configuration.edges)) == e
        assert report.d_achieved == report.span - e


def test_recurse_frames_were_self_sustaining():
    lts = group_system(10)
    report = find_be_s_configuration(lts, 30, PRACTICAL)
    for frame in report.frames:
        if frame.branch == "recurse":
            assert frame.unpack_e >= frame.unpack_v > 0


def test_a_solve_never_builds_a_candidate_edge_tuple(monkeypatch):
    # CandidateF.edges sorts the kept edges; a solve reads only the stored
    # back-neighbours and achieved_t
    def unread(cand):
        raise AssertionError("a solve read CandidateF.edges")

    monkeypatch.setattr(degsearch.CandidateF, "edges", property(unread))
    branches = set()
    for lts in (group_system(8), random_linear(12, 12, 12, 90, 0)):
        for e in range(16, 41, 4):
            for params in (PRACTICAL, DriverParams(tau_max=8)):
                report = find_be_s_configuration(lts, e, params)
                branches |= {f.branch for f in report.frames}
    assert {"recurse", "top_up"} <= branches


def test_determinism_per_seed():
    lts = group_system(9)
    a = find_be_s_configuration(lts, 25, PRACTICAL)
    b = find_be_s_configuration(lts, 25, PRACTICAL)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_paper_mode_short_circuits_to_base():
    lts = group_system(5)
    params = DriverParams(t=4, k0=1, paper_mode=True)
    report = find_be_s_configuration(lts, 10, params)
    assert [f.branch for f in report.frames] == ["base"]
    assert not report.any_flagged
    assert report.d_achieved <= report.d_paper


def test_e_below_one_is_rejected():
    with pytest.raises(ParameterError, match="e must be positive"):
        find_be_s_configuration(group_system(3), 0)


@pytest.mark.parametrize("lts, es, strategy", [
    (group_system(8), (1, 9, 23, 40, 64), "peel"),
    (random_linear(8, 8, 8, 60, seed=5), (5, 17, 30, 45), "peel"),
    (group_system(4), (6, 12, 16), "exhaustive"),
    (random_linear(5, 5, 5, 20, seed=2), (7, 12), "exhaustive"),
])
def test_report_span_is_the_span_of_its_sorted_distinct_edges(lts, es, strategy):
    # the driver reports the span it kept while choosing, not one recomputed
    # from the final edges, so this pins the two together
    params = DriverParams(tau_max=8, strategy=strategy)
    kept = 0
    for e in es:
        report = find_be_s_configuration(lts, e, params)
        cfg = report.configuration
        assert list(cfg.edges) == sorted(set(cfg.edges)) and cfg.e == e
        assert cfg.span == {key for x in cfg.edges for key in lts.edge_keys(x)}
        kept += sum(f.branch != "base" for f in report.frames)
    assert kept  # some frame's unpacked edges reached the span


def test_exhaustion_error():
    with pytest.raises(ExhaustionError):
        find_be_s_configuration(group_system(2), 5, PRACTICAL)


@pytest.mark.parametrize("fields", [
    {"t": 0}, {"k0": 0}, {"budget_ms": 0}, {"budget_ms": -1}, {"strategy": "anneal"},
    {"tau_max": -1}, {"base_e": 0}, {"strategy": "greedy"},
])
def test_params_rejected_when_built(fields):
    with pytest.raises(ParameterError):
        DriverParams(**fields)


def test_failed_contract_raises_integrity_error(monkeypatch, tmp_path):
    monkeypatch.setattr(besforge.driver, "verify_configuration", lambda *args: False)
    with pytest.raises(IntegrityError):
        find_be_s_configuration(group_system(3), 4, PRACTICAL)
    g3 = tmp_path / "g3.tls"
    g3.write_text(textio.dumps_system(group_system(3)))
    assert main(["solve", "--input", str(g3), "--e", "4"]) == 1


def test_oracle_dominance_small():
    lts = group_system(3)
    for e in range(1, 9):
        report = find_be_s_configuration(lts, e, PRACTICAL)
        assert report.span >= min_span(lts, e).v


def _reference_greedy_pick(available, count, span, edge_keys):
    """The rescanning pick that the overlap heaps replaced, kept as the
    reference for its choices."""
    chosen = []
    span = set(span)
    pool = sorted(available)
    for _ in range(count):
        best = None
        best_ov = -1
        for x in pool:
            ov = sum(1 for key in edge_keys(x) if key in span)
            if ov > best_ov:
                best_ov = ov
                best = x
        chosen.append(best)
        pool.remove(best)
        span.update(edge_keys(best))
    return chosen


def _pick_edges(pool, count, span, lts, index=None):
    """_greedy_pick with the host edges in pool live, its ids mapped back to
    edges; checks that the pick leaves the live flags as they were and adds
    its picks' keys to (a copy of) span."""
    ids, by_key = lts.key_index if index is None else index
    alive = bytearray(lts.m)
    for x in pool:
        alive[ids[x]] = 1
    flags = bytes(alive)
    grown = set(span)
    picked = [lts.edges[i] for i in _greedy_pick(alive, count, grown, lts.edges, lts.edge_keys, by_key)]
    assert alive == flags
    assert grown == set(span).union(*map(lts.edge_keys, picked))
    return picked


def test_greedy_pick_matches_the_rescanning_reference():
    rng = random.Random(7)
    seen = {"superset index": 0, "empty span": 0}
    for _ in range(300):
        n = rng.randint(1, 6)
        lts = TripartiteLinearSystem((n, n, n), tuple(
            x for x in ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
            if rng.random() < 0.4))
        if not lts.m:
            continue
        # the index covers every host edge, as the driver's does
        index = lts.key_index
        pool = rng.sample(lts.edges, rng.randint(1, lts.m))
        count = rng.randint(0, len(pool))
        span = {key for x in rng.sample(lts.edges, rng.randint(0, min(3, lts.m))) for key in lts.edge_keys(x)}
        seen["superset index"] += len(pool) < lts.m
        seen["empty span"] += not span and count > 0
        assert (_pick_edges(pool, count, span, lts, index)
                == _reference_greedy_pick(pool, count, span, lts.edge_keys))
    assert min(seen.values()) >= 20
    # a pick never makes another of these pairwise disjoint edges meet the
    # span, so after the edges the span meets, every pick goes through the
    # overlap-0 pointer, which must skip those already taken
    lts = TripartiteLinearSystem((6, 6, 6), tuple((i, i, i) for i in range(6)) + ((0, 1, 2), (5, 4, 3)))
    pool = [(i, i, i) for i in range(6)]
    for span in (set(), {("A", 1), ("C", 5)}):
        assert (_pick_edges(pool, 6, span, lts)
                == _reference_greedy_pick(pool, 6, span, lts.edge_keys))


def test_greedy_pick_raises_when_the_live_edges_run_out():
    lts = group_system(3)
    pool = lts.edges[2:5]
    assert sorted(_pick_edges(pool, 3, set(), lts)) == list(pool)
    for span in (set(), set(lts.edge_keys(pool[0]))):
        with pytest.raises(ExhaustionError) as err:
            _pick_edges(pool, 4, span, lts)
        assert (err.value.needed, err.value.available) == (4, 3)


def _two_pass_greedy_pick(alive, count, span, edges, edge_keys, by_key):
    """The greedy pick as it filled its overlap heaps before the one-pass
    fill, kept as the reference for its picks: one pass counts the overlap
    of each live id with the span and lists the ids that meet it, and a
    second pass puts each listed id in the heap of its overlap."""
    live = bytearray(alive)
    overlap = [0] * len(live)
    met = []
    for key in span:
        for i in by_key[key]:
            if live[i]:
                if not overlap[i]:
                    met.append(i)
                overlap[i] += 1
    heaps = [[], [], [], []]
    for i in met:
        heaps[overlap[i]].append(i)
    for heap in heaps:
        heapify(heap)
    chosen = []
    p = 0
    while len(chosen) < count:
        for ov in (3, 2, 1):
            heap = heaps[ov]
            while heap and overlap[heap[0]] != ov:
                heappop(heap)
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


def test_greedy_pick_matches_the_two_pass_fill():
    rng = random.Random(3232)
    hosts = [group_system(m) for m in range(4, 11)]
    hosts += [random_linear(10, 10, 10, 60, seed) for seed in range(5)]
    seen = {"picked": 0, "exhausted": 0}
    for lts in hosts:
        _, by_key = lts.key_index
        for _ in range(40):
            share = rng.random()
            alive = bytearray(rng.random() < share for _ in range(lts.m))
            span = {key for x in rng.sample(lts.edges, rng.randint(0, 8)) for key in lts.edge_keys(x)}
            count = rng.randint(0, sum(alive) + 2)
            outcomes = []
            for pick in (_greedy_pick, _two_pass_greedy_pick):
                grown = set(span)
                try:
                    outcome = pick(alive, count, grown, lts.edges, lts.edge_keys, by_key)
                except ExhaustionError as err:
                    outcome = ("exhausted", err.needed, err.available)
                outcomes.append((outcome, grown))
            assert outcomes[0] == outcomes[1]
            seen["exhausted" if type(outcomes[0][0]) is tuple else "picked"] += 1
    assert min(seen.values()) >= 50, seen


def test_key_index_numbers_the_sorted_host_edges():
    lts = random_linear(6, 6, 6, 30, seed=3)
    ids, by_key = lts.key_index
    # made once and kept on the host
    assert lts.key_index is lts.key_index
    assert ids == {x: i for i, x in enumerate(lts.edges)}
    for key, through in by_key.items():
        assert through == sorted(through)
        assert through == [i for i, x in enumerate(lts.edges) if key in lts.edge_keys(x)]
    assert sum(map(len, by_key.values())) == 3 * lts.m


def _reference_free_finish(residual, e_prime, span, edge_keys):
    """Whether at least e_prime residual edges lie entirely inside span, by
    the inside-count scan that the driver once ran before its base pick."""
    inside = 0
    for x in residual:
        if span.issuperset(edge_keys(x)):
            inside += 1
            if inside >= e_prime:
                return True
    return False


def test_free_finish_holds_exactly_when_the_base_pick_adds_no_vertex():
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(2, 5)
        lts = TripartiteLinearSystem((n, n, n), tuple(
            x for x in ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
            if rng.random() < 0.5))
        if lts.m < 2:
            continue
        # as in the driver, the span is that of edges outside the residual,
        # and the residual is sorted
        edges = list(lts.edges)
        rng.shuffle(edges)
        cut = rng.randint(0, lts.m - 1)
        span = {key for x in edges[:cut] for key in lts.edge_keys(x)}
        residual = sorted(edges[cut:])
        e_prime = rng.randint(1, len(residual))
        free = _reference_free_finish(residual, e_prime, span, lts.edge_keys)
        # _pick_edges checks that the pick adds the picks' keys to its copy of
        # the span, so the copy, as in the driver, stays as it was exactly
        # when they all lie in the span
        picked = _pick_edges(residual, e_prime, span, lts)
        assert free == span.issuperset(key for x in picked for key in lts.edge_keys(x))
        if free:
            # the pick is then the e' smallest residual edges inside the span
            inside = sorted(x for x in residual if span.issuperset(lts.edge_keys(x)))
            assert picked == inside[:e_prime]
        seen[free] += 1
    assert min(seen.values()) >= 50


def test_a_solve_makes_the_base_pick_once_plus_once_per_kept_later_frame(monkeypatch):
    calls = []
    pick = besforge.driver._greedy_pick
    monkeypatch.setattr(besforge.driver, "_greedy_pick", lambda *args: calls.append(1) or pick(*args))
    runs = [(random_linear(24, 24, 24, 320, seed), 80) for seed in range(40)]
    runs += [(group_system(30), e) for e in range(8, 113)]
    runs += [(group_system(11), e) for e in range(8, 121)]
    seen = {"two picks": 0, "later frame discarded": 0}
    for i, (lts, e) in enumerate(runs):
        calls.clear()
        frames = find_be_s_configuration(lts, e, DriverParams()).frames
        kept = sum(f.branch != "base" for f in frames)
        assert len(calls) == 1 + max(kept - 1, 0), (i, frames)
        seen["two picks"] += len(calls) == 2
        # a later frame was built and not kept: the pick made before it is the finish
        discarded = kept > 0 and frames[-1].note == "candidate neither dense nor self-sustaining"
        seen["later frame discarded"] += discarded
    assert min(seen.values()) >= 1, seen


def test_random_deep_solves_finish_inside_the_span_of_their_kept_frame(monkeypatch):
    unpacked = []

    def recording(*args):
        out = unpack(*args)
        unpacked.append(out[0].edges)
        return out

    monkeypatch.setattr(besforge.driver, "unpack", recording)
    for seed in range(3):
        unpacked.clear()
        lts = random_linear(24, 24, 24, 320, seed)
        report = find_be_s_configuration(lts, 80, DriverParams())
        assert [(f.branch, f.note) for f in report.frames] == [
            ("recurse", ""), ("base", besforge.driver._FREE_NOTE)]
        # frame 0 misses t, so the solve stays flagged, but the exit does not
        assert report.frames[0].flagged and not report.frames[-1].flagged
        assert report.any_flagged
        # the exit built no second frame, and the finish adds no vertex
        assert len(unpacked) == 1
        kept = set(unpacked[0])
        span = {key for x in kept for key in lts.edge_keys(x)}
        assert report.span == len(span)
        rest = sorted(set(report.configuration.edges) - kept)
        inside = sorted(x for x in lts.edges if x not in kept and span.issuperset(lts.edge_keys(x)))
        assert rest == inside[:report.frames[-1].e_prime]


def test_pair_graph_is_built_once_per_solve(monkeypatch):
    built, kept, checked = [], [], []
    build, unpack_frame = besforge.driver.build_aux, besforge.driver.unpack
    linear, count = auxgraph.validate_linear, auxgraph._check_count

    def recording_build(lts):
        built.append((lts, build(lts)))
        return built[-1][1]

    def recording_unpack(cand, aux, sub):
        cfg, trace = unpack_frame(cand, aux, sub)
        kept.append(cfg.edges)
        return cfg, trace

    monkeypatch.setattr(besforge.driver, "build_aux", recording_build)
    monkeypatch.setattr(besforge.driver, "unpack", recording_unpack)
    monkeypatch.setattr(auxgraph, "validate_linear",
                        lambda system: checked.append(("linear", system)) or linear(system))
    monkeypatch.setattr(auxgraph, "_check_count",
                        lambda system, n: checked.append(("count", system, n)) or count(system, n))
    lts = group_system(11)
    report = find_be_s_configuration(lts, 63, PRACTICAL)
    # frame 1 builds the multigraph of its residual; the stop rule builds no frame 2
    assert [(f.branch, f.note) for f in report.frames] == [
        ("recurse", ""), ("recurse", ""), ("base", besforge.driver._END_NOTE)]
    assert len(built) == 2 and built[0][0] is lts
    used = set(kept[0])
    residual = TripartiteLinearSystem(lts.sizes, tuple(x for x in lts.edges if x not in used))
    assert built[1][0] == residual
    # each build ran the linearity check and the count law with its lower bound
    assert checked == [("linear", lts), ("count", lts, built[0][1].multi_edge_count),
                       ("linear", residual), ("count", residual, built[1][1].multi_edge_count)]
    assert built[1][1] == build_aux(residual)


def test_each_frame_searches_the_pair_graph_of_its_multigraph(monkeypatch):
    frames = []
    search, unpack_frame = besforge.driver.find_dense_2deg, besforge.driver.unpack

    def recording_search(graph, *args, **kwargs):
        frames.append([graph])
        return search(graph, *args, **kwargs)

    def recording_unpack(cand, aux, sub):
        frames[-1].append(aux)
        return unpack_frame(cand, aux, sub)

    monkeypatch.setattr(besforge.driver, "find_dense_2deg", recording_search)
    monkeypatch.setattr(besforge.driver, "unpack", recording_unpack)
    report = find_be_s_configuration(group_system(11), 63, PRACTICAL)
    assert [f.branch for f in report.frames] == ["recurse", "recurse", "base"]
    assert len(frames) == 2
    for graph, aux in frames:
        # the pair graph made with the frame's multigraph, one edge per joined pair
        assert graph is simple_subgraph(aux)
        g, _ = _reference_simple_subgraph(aux)
        assert (graph.vertices, graph.edges) == (g.vertices, g.edges)


def test_solves_make_no_aux_edge_but_the_kept_ones(monkeypatch):
    made = {"aux": [], "kept": 0, "edges": 0}
    build, kept_edge = besforge.driver.build_aux, AuxGraph.kept_edge
    make = AuxEdge._make

    def recording_build(lts):
        made["aux"].append(build(lts))
        return made["aux"][-1]

    def counting_kept_edge(aux, u, w):
        made["kept"] += 1
        return kept_edge(aux, u, w)

    def counting_make(iterable):
        made["edges"] += 1
        return make(iterable)

    monkeypatch.setattr(besforge.driver, "build_aux", recording_build)
    monkeypatch.setattr(AuxGraph, "kept_edge", counting_kept_edge)
    monkeypatch.setattr(AuxEdge, "_make", counting_make)
    lts = group_system(11)
    besforge.driver._last_host = None
    # cold (which fills the cache), then warm twice; each builds frame 1
    for _ in range(3):
        report = find_be_s_configuration(lts, 63, PRACTICAL)
        assert [f.branch for f in report.frames] == ["recurse", "recurse", "base"]
    assert besforge.driver._last_host[1] is made["aux"][0]
    assert len(made["aux"]) == 4
    find_be_s_configuration(random_linear(24, 24, 24, 320, seed=1), 80, PRACTICAL)
    assert len(made["aux"]) >= 5 and made["kept"] > 0
    # no multigraph's AuxEdge view was filled, whether cached or not
    assert not any("edges" in vars(aux) for aux in made["aux"])
    assert made["edges"] <= made["kept"]


def test_a_cold_solve_names_no_row(monkeypatch):
    built = []
    build = besforge.driver.build_aux
    monkeypatch.setattr(besforge.driver, "build_aux", lambda lts: built.append(build(lts)) or built[-1])
    # a cold random-deep solve builds frame 0 only; this group solve also
    # builds frame 1 of its residual
    for lts, e, frames in ((random_linear(24, 24, 24, 320, seed=5), 80, 1), (group_system(11), 63, 2)):
        besforge.driver._last_host = None
        built.clear()
        find_be_s_configuration(lts, e, PRACTICAL)
        assert len(built) == frames and besforge.driver._last_host[1] is built[0]
        # no multigraph built its rows, its AuxEdges or its pair graph's
        # named adjacency
        for aux in built:
            assert "rows" not in vars(aux) and "edges" not in vars(aux)
            assert "_adj" not in vars(aux.graph)


def _cold_solve(lts, e, params):
    besforge.driver._last_host = None
    return find_be_s_configuration(lts, e, params).to_json_dict()


def test_solves_through_the_host_cache_equal_cold_solves():
    a, b = group_system(10), group_system(9)
    # the exhaustive search needs a pair graph of at most 20 vertices
    c = group_system(4)
    a_copy, c_copy = (textio.loads_system(textio.dumps_system(x)) for x in (a, c))
    assert a_copy == a and a_copy is not a
    exhaustive = DriverParams(tau_max=8, strategy="exhaustive")
    # A, B, then A again, then an equal copy of A; then C, whose second solve
    # is exhaustive and keeps the multigraph and the order that the peel
    # solves after it read
    runs = [(a, 94, PRACTICAL), (b, 40, PRACTICAL), (a, 60, PRACTICAL), (a, 61, PRACTICAL),
            (a, 30, PRACTICAL), (a_copy, 94, PRACTICAL), (c, 16, PRACTICAL), (c, 12, exhaustive),
            (c, 15, PRACTICAL), (c, 13, PRACTICAL), (c_copy, 10, exhaustive)]
    warm = [find_be_s_configuration(lts, e, params).to_json_dict() for lts, e, params in runs]
    assert warm == [_cold_solve(lts, e, params) for lts, e, params in runs]


def _count_key_indexes(monkeypatch):
    """Record each host whose key index is made, by a counting copy of the
    key_index cached property."""
    made = []
    make = TripartiteLinearSystem.key_index.func

    def counting(lts):
        made.append(lts)
        return make(lts)

    prop = cached_property(counting)
    prop.__set_name__(TripartiteLinearSystem, "key_index")
    monkeypatch.setattr(TripartiteLinearSystem, "key_index", prop)
    return made


def _count_frame0_builds(monkeypatch):
    """Record each host whose multigraph _frame0 builds, each order built from
    such a multigraph, and each host whose key index is made; later frames'
    multigraphs are not counted."""
    built = {"aux": [], "order": [], "index": _count_key_indexes(monkeypatch)}
    frame0, build_aux = besforge.driver._frame0, besforge.driver.build_aux
    ordering = degsearch.degeneracy_ordering
    in_frame0 = []

    def counting_frame0(lts):
        in_frame0.append(lts)
        try:
            return frame0(lts)
        finally:
            in_frame0.pop()

    def counting_build(lts):
        aux = build_aux(lts)
        if in_frame0:
            built["aux"].append((lts, aux))
        return aux

    def counting_ordering(g):
        if any(g is aux.graph for _, aux in built["aux"]):
            built["order"].append(g)
        return ordering(g)

    monkeypatch.setattr(besforge.driver, "_frame0", counting_frame0)
    monkeypatch.setattr(besforge.driver, "build_aux", counting_build)
    monkeypatch.setattr(degsearch, "degeneracy_ordering", counting_ordering)
    return built


def test_build_aux_runs_once_per_host(monkeypatch):
    built = _count_frame0_builds(monkeypatch)

    def builds():
        # each frame-0 multigraph gets one order
        assert len(built["order"]) == len(built["aux"])
        return [lts for lts, _ in built["aux"]]

    def indexed():
        return list(map(id, built["index"]))

    a, b = group_system(8), group_system(7)
    find_be_s_configuration(a, 20, PRACTICAL)
    # the first solve of a host fills the whole entry, and makes its key index
    host, aux, order = besforge.driver._last_host
    assert host is a and aux is built["aux"][0][1]
    assert built["order"] == [aux.graph] and order is not None
    assert indexed() == [id(a)]
    for e in (40, 50, 60):
        find_be_s_configuration(a, e, PRACTICAL)
    assert builds() == [a]
    find_be_s_configuration(b, 20, PRACTICAL)
    find_be_s_configuration(b, 30, PRACTICAL)
    find_be_s_configuration(b, 40, PRACTICAL)
    assert builds() == [a, b]
    find_be_s_configuration(a, 20, PRACTICAL)
    assert len(builds()) == 3
    # the key index is kept with its host, so rebuilding a's frame 0 made
    # none: one index per host object
    assert indexed() == [id(a), id(b)]
    # an equal host counts as the same host, whatever object it is
    a_copy = textio.loads_system(textio.dumps_system(a))
    find_be_s_configuration(a_copy, 30, PRACTICAL)
    find_be_s_configuration(a, 40, PRACTICAL)
    find_be_s_configuration(a_copy, 50, PRACTICAL)
    assert len(builds()) == 3
    # but another object makes its own key index, once
    assert indexed() == [id(a), id(b), id(a_copy)]
    assert a_copy.key_index == a.key_index


def test_the_last_hosts_multigraph_is_dead_when_the_next_is_built(monkeypatch):
    a, b = group_system(8), group_system(7)
    find_be_s_configuration(a, 20, PRACTICAL)
    find_be_s_configuration(a, 21, PRACTICAL)
    ref = weakref.ref(besforge.driver._last_host[1])
    build = besforge.driver.build_aux
    alive_at_build = []

    def recording_build(lts):
        alive_at_build.append(ref() is not None)
        return build(lts)

    monkeypatch.setattr(besforge.driver, "build_aux", recording_build)
    find_be_s_configuration(b, 20, PRACTICAL)
    assert alive_at_build == [False]
    assert besforge.driver._last_host[0] is b


def test_solves_leave_the_cached_pair_multigraph_unchanged():
    lts = group_system(11)
    find_be_s_configuration(lts, 20, PRACTICAL)
    entry = besforge.driver._last_host
    _, aux, order = entry
    index = lts.key_index
    edges = aux.edges
    report = find_be_s_configuration(lts, 63, PRACTICAL)
    assert [f.branch for f in report.frames] == ["recurse", "recurse", "base"]
    assert besforge.driver._last_host is entry
    assert aux.edges is edges and aux == build_aux(lts)
    fresh = simple_subgraph(build_aux(lts))
    assert aux.graph.adjacency() == fresh.adjacency()
    assert order == degsearch.degeneracy_ordering(fresh).ranks
    assert lts.key_index is index
    assert index == TripartiteLinearSystem(lts.sizes, lts.edges).key_index


def test_the_host_cache_holds_only_the_last_host():
    hosts = [group_system(m) for m in (4, 5, 6)]
    refs = [weakref.ref(lts) for lts in hosts]
    for lts in hosts:
        # k = 4, so frame 0 runs
        find_be_s_configuration(lts, 16, PRACTICAL)
    del hosts, lts
    gc.collect()
    assert [ref() is None for ref in refs] == [True, True, False]


def test_a_solve_stopped_before_frame_0_builds_nothing_and_keeps_the_cache(monkeypatch):
    a, b = group_system(8), group_system(7)
    find_be_s_configuration(a, 20, PRACTICAL)
    entry = besforge.driver._last_host
    assert entry[0] is a and entry[1] is not None

    def no_build(*args):
        raise AssertionError("a solve that stops before frame 0 built a pair graph")

    monkeypatch.setattr(besforge.driver, "build_aux", no_build)
    monkeypatch.setattr(besforge.driver, "simple_subgraph", no_build)
    indexed = _count_key_indexes(monkeypatch)
    # e' <= 15 at the default tau_max: k <= 3 and e' - 2(k - 1) > 4
    for lts, e in ((b, 15), (b, 8), (a, 12), (b, 5)):
        report = find_be_s_configuration(lts, e, PRACTICAL)
        assert [f.branch for f in report.frames] == ["base"]
        assert report.frames[0].note == besforge.driver._END_NOTE
        assert not report.any_flagged
        assert besforge.driver._last_host is entry
    # every base pick reads its host's key index: a's, made by its frame-0
    # solve, and b's, made on b's first solve and kept with b
    assert len(indexed) == 1 and indexed[0] is b


def _connected_sets(g, k):
    """Every connected k-set of g's vertices, for k in (2, 3)."""
    adj = g.adjacency()
    if k == 2:
        return [set(edge) for edge in g.edges]
    # a bipartite graph has no triangle, so a connected 3-set is a path u-w-x
    return [{u, w, x} for w in g.vertices for u, x in combinations(sorted(adj[w]), 2)]


def test_no_frame_at_k_up_to_3_can_keep_its_candidate():
    hosts = [group_system(m) for m in range(3, 7)]
    hosts += [random_linear(8, 8, 8, 40, seed) for seed in range(3)]
    checked = 0
    for lts in hosts:
        aux = build_aux(lts)
        graph = simple_subgraph(aux)
        for k in (2, 3):
            for vertex_set in _connected_sets(graph, k):
                cand = trim_by_name(graph, vertex_set)
                trace = unpack(cand, aux, lts)[1]
                fe, v = trace.e_total, trace.v_total
                assert 0 < fe <= 2 * (k - 1) and fe < v
                for e_prime in range(4 * k, 4 * k + 4):
                    for tau_max in range(12):
                        if not _frame_can_succeed(e_prime, k, tau_max):
                            assert e_prime - fe > tau_max
                checked += 1
    assert checked > 1000


def _without_last_note_and_flags(report):
    out = report.to_json_dict()
    del out["any_flagged"]
    last = out["frames"][-1]
    del last["note"], last["flagged"]
    return out


def test_the_stop_rule_changes_only_the_last_frames_note_and_flag(monkeypatch):
    hosts = [make(*args) for make, args in test_golden.HOSTS.values()]
    runs = [(lts, e, params) for lts in hosts for params in (DriverParams(), DriverParams(tau_max=8))
            for e in range(1, min(lts.m, 40) + 1)]
    ruled = [find_be_s_configuration(*run) for run in runs]
    # every frame with a search to run is built, as before the rule
    monkeypatch.setattr(besforge.driver, "_frame_can_succeed", lambda e_prime, k, tau_max: k >= 2)
    unruled = [find_be_s_configuration(*run) for run in runs]
    assert ([_without_last_note_and_flags(r) for r in ruled]
            == [_without_last_note_and_flags(r) for r in unruled])
    # the rule unflags the solves whose only miss was the discarded last frame
    assert sum(r.any_flagged for r in ruled) < sum(r.any_flagged for r in unruled)


def _step_clock(monkeypatch):
    # as in test_degsearch's budget case on _k4_and_strip(14): each clock
    # reading is 1 s after the last, so a 1 ms budget stops every window scan
    # after its first peeled window
    clock = count()
    monkeypatch.setattr(degsearch, "time", SimpleNamespace(monotonic=lambda: float(next(clock))))


def test_frames_report_a_search_the_budget_cut(monkeypatch):
    lts = random_linear(12, 12, 12, 90, seed=1)
    free = find_be_s_configuration(lts, 41, DriverParams())
    _step_clock(monkeypatch)
    cut = find_be_s_configuration(lts, 41, DriverParams(budget_ms=1))
    # the kept frame and the frame whose candidate is discarded both say so
    discarded = "candidate neither dense nor self-sustaining"
    for report in (free, cut):
        assert [(f.branch, f.note) for f in report.frames] == [("recurse", ""), ("base", discarded)]
    assert [f.budget_exhausted for f in cut.frames] == [True, True]
    assert [f["budget_exhausted"] for f in cut.to_json_dict()["frames"]] == [True, True]
    assert not any(f.budget_exhausted for f in free.frames)
    assert all("budget_exhausted" not in f for f in free.to_json_dict()["frames"])
    # e = 38 keeps a candidate only when the scan runs to the end
    assert [(f.branch, f.budget_exhausted) for f in
            find_be_s_configuration(lts, 38, DriverParams(budget_ms=1)).frames] == [("base", True)]
    # a budget that cuts no scan reports exactly as no budget: on group hosts
    # every scan stops at its first window, which reaches t
    host = group_system(6)
    for e in (9, 20, 33):
        assert (json.dumps(find_be_s_configuration(host, e, DriverParams(budget_ms=1)).to_json_dict())
                == json.dumps(find_be_s_configuration(host, e, DriverParams()).to_json_dict()))


def test_cli_shows_a_search_the_budget_cut(monkeypatch, tmp_path, capsys):
    host = tmp_path / "r.tls"
    host.write_text(textio.dumps_system(random_linear(12, 12, 12, 90, seed=1)))
    report = tmp_path / "report.json"
    runs = {  # command: its flags, the end of its text line when cut
        "solve": (["--e", "41"], "; budget exhausted in 2 of 2 frames\n"),
        "findf": (["--k", "10", "--t", "4"], "; budget exhausted\n"),
        "unpack": (["--k", "10", "--t", "4"], "; budget exhausted\n"),
    }
    for budget in ([], ["--budget-ms", "1"]):
        if budget:
            _step_clock(monkeypatch)
        for command, (flags, note) in runs.items():
            assert main([command, "--input", str(host), *flags, *budget,
                         "--report", str(report), "--no-timestamp"]) == 0
            text, payload = capsys.readouterr().out, report.read_text()
            if not budget:
                assert "budget" not in text and "budget" not in payload
                continue
            assert text.endswith(note)
            payload = json.loads(payload)
            if command == "solve":
                assert [f["budget_exhausted"] for f in payload["frames"]] == [True, True]
            else:
                assert payload["budget_exhausted"] is True
