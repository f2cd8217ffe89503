import random
import tracemalloc
from dataclasses import fields, replace
from itertools import combinations

import pytest

from besforge import (
    Configuration,
    DegenerateInputError,
    LinearityError,
    ParameterError,
    TripartiteLinearSystem,
    TripleSystem,
    build_aux,
    group_system,
    random_linear,
    reduce_or_win,
    to_triple_system,
    validate_linear,
    verify_configuration,
)
from besforge import auxgraph, core, driver
from besforge.core import LinearityVerdict, ReduceOrWin, draw_below, pair_map
from besforge.unpack import unpack


def test_triple_system_rejects_bad_edges():
    with pytest.raises(ParameterError):
        TripleSystem(3, ((0, 1, 1),))
    with pytest.raises(ParameterError):
        TripleSystem(3, ((0, 1, 3),))
    with pytest.raises(ParameterError):
        TripleSystem(4, ((0, 1, 2), (2, 1, 0)))


def test_tls_rejects_out_of_part():
    with pytest.raises(ParameterError):
        TripartiteLinearSystem((1, 1, 1), ((0, 0, 1),))


def test_validate_linear_ok_on_disjoint_pair_edges():
    ts = TripleSystem(5, ((0, 1, 2), (0, 3, 4)))
    assert validate_linear(ts).ok


def test_validate_linear_witness():
    ts = TripleSystem(4, ((0, 1, 2), (0, 1, 3)))
    verdict = validate_linear(ts)
    assert not verdict.ok
    assert verdict.pair == (0, 1)
    assert set(verdict.edges) == {(0, 1, 2), (0, 1, 3)}


def test_validate_linear_group_system():
    # exhaustive pair-map check over the m=3 group system
    assert validate_linear(group_system(3)).ok


def _reference_validate_linear(system):
    """The verdict as it was found before: sort every pair key and take the
    first one with two or more hits."""
    pm = pair_map(system)
    for pair in sorted(pm):
        hits = pm[pair]
        if len(hits) >= 2:
            return LinearityVerdict(False, pair, tuple(sorted(hits)[:2]))
    return LinearityVerdict(True)


def test_validate_linear_matches_the_sorting_reference():
    rng = random.Random(5)
    systems = [group_system(m) for m in range(1, 7)]
    for _ in range(150):
        n = rng.randint(1, 7)
        lts = random_linear(n, n, n, rng.randint(0, 3 * n), seed=rng.randrange(10**6))
        systems.append(lts)
        # dense random systems, almost all of them non-linear
        edges = {(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
        systems.append(TripartiteLinearSystem((n, n, n), tuple(edges)))
        systems.append(to_triple_system(systems[-1]))
    verdicts = [validate_linear(s) for s in systems]
    assert verdicts == [_reference_validate_linear(s) for s in systems]
    assert sum(v.ok for v in verdicts) > 50 and sum(not v.ok for v in verdicts) > 50


def _with_one_repeat(lts, kind):
    """lts plus one edge that shares exactly one pair with an edge of lts:
    its AB, AC or BC pair, by kind."""
    _, nb, nc = lts.sizes
    ab = {(a, b) for a, b, _ in lts.edges}
    ac = {(a, c) for a, _, c in lts.edges}
    bc = {(b, c) for _, b, c in lts.edges}
    for a, b, c in lts.edges:
        if kind == "AB":
            new = [(a, b, z) for z in range(nc) if (a, z) not in ac and (b, z) not in bc]
        elif kind == "AC":
            new = [(a, y, c) for y in range(nb) if (a, y) not in ab and (y, c) not in bc]
        else:
            new = [(x, b, c) for x in range(lts.sizes[0]) if (x, b) not in ab and (x, c) not in ac]
        if new:
            return TripartiteLinearSystem(lts.sizes, lts.edges + (new[0],))
    raise AssertionError(f"no {kind} repeat fits")


def test_validate_linear_first_pass_names_the_reference_violation():
    systems = []
    for seed in range(4):
        host = random_linear(24, 24, 24, 320, seed=seed)
        assert validate_linear(host) == LinearityVerdict(True)
        for kind in ("AB", "AC", "BC"):
            lts = _with_one_repeat(host, kind)
            verdict = validate_linear(lts)
            assert not verdict.ok
            assert (verdict.pair[0][0], verdict.pair[1][0]) == tuple(kind)
            systems.append(lts)
    # several repeats, one of each kind: the smallest pair is (A0, C3)
    several = TripartiteLinearSystem((4, 4, 4), (
        (1, 1, 1), (1, 1, 2), (0, 2, 3), (0, 3, 3), (2, 0, 0), (3, 0, 0)))
    assert validate_linear(several) == LinearityVerdict(
        False, (("A", 0), ("C", 3)), ((0, 2, 3), (0, 3, 3)))
    systems.append(several)
    for lts in systems:
        reference = _reference_validate_linear(lts)
        assert validate_linear(lts) == reference
        # the pair multigraph's checks raise on the same violation
        with pytest.raises(LinearityError) as raised:
            build_aux(lts)
        assert raised.value.verdict == reference
        assert str(raised.value) == str(LinearityError(reference))


def test_pair_multigraph_checks_linearity_through_its_module_name(monkeypatch):
    # perfbench wraps auxgraph.validate_linear to time it, so build_aux must
    # look it up there, on frame 0's host and on a later frame's residual
    calls = []

    def counted(system):
        calls.append(system)
        return validate_linear(system)

    monkeypatch.setattr(auxgraph, "validate_linear", counted)
    lts = group_system(4)
    build_aux(lts)
    residual = TripartiteLinearSystem(lts.sizes, lts.edges[3:])
    build_aux(residual)
    assert calls == [lts, residual]


def test_verify_configuration_basic():
    ts = TripleSystem(7, ((0, 1, 2), (3, 4, 5), (0, 1, 6)))
    one = Configuration.from_edges(ts, [(0, 1, 2)])
    assert verify_configuration(ts, one, 3, 1)
    two = Configuration.from_edges(ts, [(0, 1, 2), (3, 4, 5)])
    assert not verify_configuration(ts, two, 5, 2)  # span is 6
    assert verify_configuration(ts, two, 6, 2)
    foreign = Configuration.from_edges(ts, [(0, 1, 2)])
    assert not verify_configuration(TripleSystem(7, ((3, 4, 5),)), foreign, 3, 1)


def test_verify_configuration_rejects_a_repeated_edge():
    ts = TripleSystem(7, ((0, 1, 2), (3, 4, 5), (0, 1, 6)))
    # from_edges keeps what it is given, so the repeat reaches the check
    twice = Configuration.from_edges(ts, [(0, 1, 2), (0, 1, 2)])
    assert twice.edges == ((0, 1, 2), (0, 1, 2)) and twice.v == 3
    assert not verify_configuration(ts, twice, 7, 2)
    assert verify_configuration(ts, Configuration.from_edges(ts, [(0, 1, 2), (0, 1, 6)]), 4, 2)


def test_verify_configuration_reads_the_edge_set_of_a_triple_system():
    ts = to_triple_system(group_system(4))
    assert "edge_set" not in vars(ts)
    cfg = Configuration.from_edges(ts, ts.edges[:3])
    assert verify_configuration(ts, cfg, cfg.v, 3)
    assert vars(ts)["edge_set"] == frozenset(ts.edges)
    foreign = Configuration.from_edges(ts, [ts.edges[0], (0, 1, 2)])
    assert (0, 1, 2) not in ts.edge_set
    assert not verify_configuration(ts, foreign, foreign.v, 2)


@pytest.mark.parametrize("host", [TripleSystem(7, ((0, 1, 2), (3, 4, 5), (0, 1, 6))),
                                  random_linear(6, 6, 6, 20, seed=4)])
def test_edge_set_is_made_once_per_host(host):
    edge_set = host.edge_set
    assert type(edge_set) is frozenset and edge_set == frozenset(host.edges)
    assert host.edge_set is edge_set
    # a copy makes its own; the kept set changes neither equality nor hashing
    copy = replace(host)
    assert copy == host and hash(copy) == hash(host)
    assert "edge_set" not in vars(copy)
    assert copy.edge_set == edge_set and copy.edge_set is not edge_set


def test_solves_read_one_edge_set_per_host(monkeypatch):
    hosts = []

    def recording_unpack(cand, aux, host):
        hosts.append(host)
        return unpack(cand, aux, host)

    monkeypatch.setattr(driver, "unpack", recording_unpack)
    lts = group_system(11)
    driver.find_be_s_configuration(lts, 63, driver.DriverParams())
    edge_set = lts.edge_set
    for e in (40, 63):
        driver.find_be_s_configuration(lts, e, driver.DriverParams())
    assert lts.edge_set is edge_set
    # frame 0 unpacks against the host, a later frame against its residual
    assert hosts[0] is lts and hosts[1] is not lts
    assert all(vars(host)["edge_set"] == frozenset(host.edges) for host in hosts)


def test_draw_below_is_randrange():
    # the same values as rng.randrange(n), and the generator left in the same
    # state, for every n up to 300 and on both sides of each power of two,
    # where a draw of n.bit_length() bits is most and least often redrawn
    sizes = sorted({*range(1, 301), *(2**j + d for j in range(21) for d in (-1, 0, 1))} - {0})
    for seed in range(4):
        ours, theirs = random.Random(seed), random.Random(seed)
        bits = ours.getrandbits
        for n in sizes:
            k = n.bit_length()
            for _ in range(8):
                assert draw_below(bits, n, k) == theirs.randrange(n), (seed, n)
            assert ours.getstate() == theirs.getstate(), (seed, n)


def test_reduce_or_win_star_wins():
    edges = tuple((0, 1, x) for x in range(2, 7))
    ts = TripleSystem(7, edges)
    result = reduce_or_win(ts, 5)
    assert result.is_win
    assert result.win.e == 5 and result.win.v == 7
    assert verify_configuration(ts, result.win, 7, 5)


def test_reduce_or_win_identity_on_tripartite_linear_input():
    # A ids come before B ids, which come before C ids, so the first sweep
    # colours A, B and C one colour each and every edge is rainbow
    for m in range(1, 11):
        lts = group_system(m)
        for e in (2, 5):
            result = reduce_or_win(to_triple_system(lts), e)
            assert result.reduction == lts, (m, e)
            assert result.kept_edges == result.tripartite_edges == lts.m
    for seed in range(6):
        # some vertices lie in no edge and take x % 3
        ts = to_triple_system(random_linear(9, 10, 11, 60, seed=seed))
        result = reduce_or_win(ts, 3)
        assert result.kept_edges == result.tripartite_edges == ts.m, seed
        assert validate_linear(result.reduction).ok


def test_reduce_or_win_random_reduction_is_linear_tripartite():
    rng = random.Random(99)
    edges = set()
    while len(edges) < 200:
        edges.add(tuple(sorted(rng.sample(range(30), 3))))
    ts = TripleSystem(30, tuple(edges))
    result = reduce_or_win(ts, 10)
    if result.is_win:
        assert verify_configuration(ts, result.win, 12, 10)
        return
    lts = result.reduction
    assert validate_linear(lts).ok
    # independent recount: kept edges are tripartite under the reported coloring
    tri = sum(
        1
        for x in ts.edges
        if len({result.coloring[v] for v in x}) == 3
    )
    assert tri == result.tripartite_edges
    assert lts.m == result.kept_edges
    # retention bound: kept >= tripartite / (3e - 5)
    assert result.kept_edges * (3 * 10 - 5) >= result.tripartite_edges


def test_reduce_or_win_degenerate_input():
    with pytest.raises(DegenerateInputError):
        reduce_or_win(TripleSystem(5, ()), 3)


def _reference_win(ts, e):
    """The win of reduce_or_win, or None when no pair lies in e edges."""
    pm = pair_map(ts)
    heavy = sorted(p for p, hits in pm.items() if len(hits) >= e)
    if heavy:
        return ReduceOrWin(win=Configuration.from_edges(ts, sorted(pm[heavy[0]])[:e]))
    return None


def _reference_reduction(ts, coloring, shuffle=None):
    """The reduction that keeps the rainbow edges of coloring greedily, in
    sorted order or after shuffle(edges), and renumbers each part through a
    sorted list and a dict."""
    tri_edges = [x for x in ts.edges if len({coloring[v] for v in x}) == 3]
    order = list(tri_edges)
    if shuffle is not None:
        shuffle(order)
    used_pairs = set()
    kept = []
    for x in order:
        pairs = [tuple(sorted(p)) for p in combinations(x, 2)]
        if any(p in used_pairs for p in pairs):
            continue
        kept.append(x)
        used_pairs.update(pairs)

    parts = [sorted(v for v in range(ts.n) if coloring[v] == c) for c in range(3)]
    local = [{v: i for i, v in enumerate(part)} for part in parts]
    edges = []
    for x in kept:
        a, b, c = sorted(x, key=lambda v: coloring[v])
        edges.append((local[0][a], local[1][b], local[2][c]))
    lts = TripartiteLinearSystem(tuple(len(p) for p in parts), tuple(edges))
    return ReduceOrWin(reduction=lts, tripartite_edges=len(tri_edges),
                       kept_edges=len(kept), coloring=coloring)


def _first_fit(ts):
    """First-fit rainbow 3-colouring in edge order; x % 3 for a vertex no
    edge names."""
    color = {}
    for e in ts.edges:
        used = {color[x] for x in e if x in color}
        for x in e:
            if x in color:
                continue
            avail = [c for c in range(3) if c not in used]
            c = avail[0] if avail else len(color) % 3
            color[x] = c
            used.add(c)
    return tuple(color.get(x, x % 3) for x in range(ts.n))


def _reference_reduce_or_win(ts, e, seed=0):
    """reduce_or_win as it scored 21 candidate colourings (first-fit, then 20
    seeded uniform ones), kept the first best and blocked its rainbow edges
    in a seeded shuffle; returns the result and each candidate's tripartite
    edge count."""
    win = _reference_win(ts, e)
    if win is not None:
        return win, []

    def tripartite_count(coloring):
        return sum(1 for x in ts.edges if len({coloring[v] for v in x}) == 3)

    candidates = [_first_fit(ts)]
    for i in range(20):
        bits = random.Random(f"{seed}:{i}").getrandbits
        candidates.append(tuple([draw_below(bits, 3, 2) for _ in range(ts.n)]))
    counts = [tripartite_count(c) for c in candidates]
    coloring = max(candidates, key=tripartite_count)
    return _reference_reduction(ts, coloring, random.Random(f"{seed}:block").shuffle), counts


def _naive_sweep_coloring(ts):
    """_sweep_coloring's rule, with each trial colour of a vertex scored by
    recounting every edge of ts: an edge counts when the colours of its
    coloured vertices are distinct, so a fully coloured edge counts when it
    is rainbow. Edges away from the vertex add the same to every trial."""
    def live(color):
        count = 0
        for x in ts.edges:
            cs = [color[v] for v in x if v in color]
            count += len(set(cs)) == len(cs)
        return count

    named = sorted({v for x in ts.edges for v in x})
    color = {}
    changed = True
    while changed:
        changed = False
        for v in named:
            scores = [live({**color, v: k}) for k in range(3)]
            best = scores.index(max(scores))
            old = color.get(v)
            if old is None or scores[best] > scores[old]:
                color[v] = best
                changed = True
    return tuple(color.get(x, x % 3) for x in range(ts.n))


def _relabelled(ts, n, seed):
    """ts with its vertices sent to n >= ts.n vertices by a seeded injection."""
    image = random.Random(seed).sample(range(n), ts.n)
    return TripleSystem(n, tuple(tuple(image[v] for v in x) for x in ts.edges))


def _random_triples(n, m, seed, linear):
    """m seeded random triples on n vertices; a linear draw rejects a triple
    that repeats a pair."""
    rng = random.Random(seed)
    edges, pairs = set(), set()
    while len(edges) < m:
        x = tuple(sorted(rng.sample(range(n), 3)))
        new = set(combinations(x, 2))
        if linear and new & pairs:
            continue
        edges.add(x)
        pairs |= new
    return TripleSystem(n, tuple(edges))


def _seeded_corpus():
    """Group and random_linear hosts, plain and relabelled, and random
    linear and non-linear 3-graphs."""
    hosts = []
    for m in range(4, 9):
        ts = to_triple_system(group_system(m))
        hosts += [ts, _relabelled(ts, 3 * m, m)]
    for s in range(3):
        ts = to_triple_system(random_linear(8, 8, 8, 40, seed=s))
        hosts += [ts, _relabelled(ts, 24, s)]
    ts = to_triple_system(random_linear(12, 12, 12, 90, seed=0))
    hosts += [ts, _relabelled(ts, 36, 1)]
    # 16 of 40 vertices named by no edge
    hosts.append(_relabelled(to_triple_system(random_linear(4, 4, 4, 12, seed=5)), 40, 5))
    hosts += [_random_triples(30, 60, s, linear=True) for s in range(2)]
    hosts += [_random_triples(12, 60, s, linear=False) for s in range(2)]
    return hosts


def test_reduce_or_win_is_never_below_the_all_candidates_reference():
    wins = better = 0
    for ts in _seeded_corpus():
        for e in (1, 3, 12):
            got = reduce_or_win(ts, e)
            for seed in range(4):
                want, _ = _reference_reduce_or_win(ts, e, seed)
                if want.is_win:
                    assert got == want, (ts, e)
                    wins += 1
                    continue
                assert not got.is_win
                assert got.tripartite_edges >= want.tripartite_edges, (ts, e, seed)
                better += got.tripartite_edges > want.tripartite_edges
    assert wins >= len(_seeded_corpus()) * 4
    assert better >= 1


def test_reduce_or_win_colours_as_the_naive_reference():
    hosts = [_relabelled(to_triple_system(group_system(m)), 3 * m + 2, m) for m in (4, 5)]
    hosts += [_relabelled(to_triple_system(random_linear(6, 6, 6, 20, seed=s)), 20, s)
              for s in range(3)]
    hosts += [_random_triples(16, 24, s, linear=True) for s in range(3)]
    hosts += [_random_triples(10, 40, s, linear=False) for s in range(3)]
    for ts in hosts:
        want = _naive_sweep_coloring(ts)
        assert core._sweep_coloring(ts) == want, ts
        for e in (3, 12):
            got = reduce_or_win(ts, e)
            ref = _reference_win(ts, e) or _reference_reduction(ts, want)
            for field in fields(ReduceOrWin):
                assert getattr(got, field.name) == getattr(ref, field.name), (ts, e, field.name)


def test_reduce_or_win_holds_one_best_colouring():
    ts = TripleSystem(10**5, ((0, 1, 2),))
    peaks = []
    for run in (_reference_reduce_or_win, reduce_or_win):
        tracemalloc.start()
        try:
            run(ts, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    reference, ours = peaks
    assert 2 * ours <= reference, peaks


def test_configuration_span_idempotent():
    ts = to_triple_system(group_system(2))
    cfg = Configuration.from_edges(ts, ts.edges[:3])
    again = Configuration.from_edges(ts, cfg.edges)
    assert cfg.span == again.span


def test_to_triple_system_offsets():
    lts = group_system(2)
    ts = to_triple_system(lts)
    assert ts.n == 6 and ts.m == 4
    assert validate_linear(ts).ok
