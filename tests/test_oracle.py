import random
from collections import Counter
from itertools import product
from math import comb

import pytest

from besforge import (
    GuardExceededError,
    ParameterError,
    TripartiteLinearSystem,
    TripleSystem,
    exists_config,
    group_system,
    min_span,
    random_linear,
    span_lower_bound,
    validate_linear,
    verify_configuration,
)
from besforge import core, oracle
from besforge.oracle import DEFAULT_GUARD


def test_group2_all_edges():
    assert min_span(group_system(2), 4).v == 6


def test_single_edge_spans_three():
    assert min_span(group_system(5), 1).v == 3


def test_group3_seven_edges_span_nine():
    assert min_span(group_system(3), 7).v == 9


def test_witness_revalidates():
    lts = group_system(3)
    result = min_span(lts, 5)
    assert verify_configuration(lts, result.witness, result.v, 5)


def test_monotone_in_e():
    lts = group_system(3)
    values = [min_span(lts, e).v for e in range(1, 10)]
    assert values == sorted(values)


def test_exists_config():
    lts = group_system(2)
    assert exists_config(lts, 6, 4)
    assert not exists_config(lts, 5, 4)
    # any e edges span at most 3e
    assert exists_config(lts, 9, 3)


def test_guard_and_parameter_errors():
    lts = group_system(3)
    with pytest.raises(GuardExceededError):
        min_span(lts, 4, guard=10)
    with pytest.raises(ParameterError):
        min_span(lts, 10)
    with pytest.raises(ParameterError):
        min_span(lts, 0)


def test_brute_force_cross_check_on_random_instance():
    from itertools import combinations

    lts = random_linear(5, 5, 5, 10, seed=4)
    e = 4
    expected = min(
        len({k for x in sub for k in lts.edge_keys(x)})
        for sub in combinations(lts.edges, e)
    )
    assert min_span(lts, e).v == expected


def _reference_min_span(host, e, _target=None):
    """The branch and bound that recursed once per skipped edge, kept as the
    reference for min_span's value and witness."""
    edges = list(host.edges)
    m = len(edges)
    keys = [frozenset(host.edge_keys(x)) for x in edges]
    best_v = None
    best_pick = None

    def rec(idx, picked, union):
        nonlocal best_v, best_pick
        if best_v is not None and _target is not None and best_v <= _target:
            return
        if len(picked) == e:
            if best_v is None or len(union) < best_v:
                best_v = len(union)
                best_pick = list(picked)
            return
        if m - idx < e - len(picked):
            return
        if best_v is not None and len(union) >= best_v:
            return
        picked.append(idx)
        rec(idx + 1, picked, union | keys[idx])
        picked.pop()
        rec(idx + 1, picked, union)

    rec(0, [], frozenset())
    return best_v, tuple(sorted(edges[i] for i in best_pick))


def _random_triple_system(seed):
    """A seeded TripleSystem on few vertices, so triples share pairs: not
    linear, and not tripartite."""
    rng = random.Random(seed)
    n = rng.randrange(7, 11)
    edges = set()
    while len(edges) < rng.randrange(14, 21):
        edges.add(tuple(sorted(rng.sample(range(n), 3))))
    return TripleSystem(n, tuple(sorted(edges)))


def _queries(host, max_e):
    return [e for e in range(1, min(host.m, max_e) + 1) if comb(host.m, e) <= DEFAULT_GUARD]


def test_min_span_matches_the_recursive_reference():
    g5 = group_system(5)
    small = [group_system(4), g5]
    small += [random_linear(6, 6, 6, 20, seed=s) for s in range(6)]
    # the sizes the benchmark queries, where the slack prune fires most
    r8 = random_linear(8, 8, 8, 28, seed=11)
    assert r8.m == 28
    triple_systems = [_random_triple_system(s) for s in range(4)]
    assert not any(validate_linear(ts) for ts in triple_systems)
    queries = [(lts, e) for lts in small for e in _queries(lts, 6)]
    queries += [(g5, e) for e in range(7, 11)]
    queries += [(r8, e) for e in _queries(r8, 10)]
    queries += [(ts, e) for ts in triple_systems for e in _queries(ts, 10)]
    checked = 0
    for lts, e in queries:
        got = min_span(lts, e)
        assert (got.v, got.witness.edges) == _reference_min_span(lts, e)
        targets = [None, 3 * e - 2, 2 * e, e + 3]
        bound = span_lower_bound(lts, e)
        if bound is not None:
            targets += [bound - 1, bound]
        for target in targets:
            got = oracle._min_span(lts, e, target)
            assert (got.v, got.witness.edges) == _reference_min_span(lts, e, target)
            checked += 1
    assert checked > 400


def test_target_at_or_above_every_span_still_returns_a_witness():
    lts = group_system(3)
    for e in range(1, lts.m + 1):
        least = min_span(lts, e).v
        for v in (3 * e, 3 * e + 1, 3 * e + 5):
            assert exists_config(lts, v, e)
            got = oracle._min_span(lts, e, v)
            assert got.witness.e == e and got.v == got.witness.v <= v
            assert (got.v, got.witness.edges) == _reference_min_span(lts, e, v)
        assert exists_config(lts, least, e)
        assert not exists_config(lts, least - 1, e)


@pytest.mark.parametrize("e", [1598, 1599, 1600])
def test_min_span_with_e_close_to_the_edge_count(e):
    lts = group_system(40)
    assert lts.m == 1600 and comb(lts.m, e) <= DEFAULT_GUARD
    result = min_span(lts, e)
    assert result.v == 120 and result.witness.e == e


def test_min_span_on_a_host_with_over_a_thousand_edges():
    lts = group_system(40)
    assert lts.m > 1000
    assert min_span(lts, 1).v == 3
    assert min_span(lts, 2).v == 5
    assert exists_config(lts, 5, 2)


def test_exists_config_below_the_lower_bound_answers_without_searching():
    lts = group_system(40)
    assert span_lower_bound(lts, 1598) == 120
    assert not exists_config(lts, 119, 1598)
    assert exists_config(lts, 120, 1598)
    # the argument and guard checks come first, whatever v is
    with pytest.raises(GuardExceededError):
        exists_config(lts, 1, 4, guard=10)
    with pytest.raises(ParameterError):
        exists_config(lts, 1, 0)
    with pytest.raises(ParameterError):
        exists_config(lts, 1, 1601)


def test_span_lower_bound_is_sound_and_mostly_tight():
    hosts = [group_system(k) for k in range(3, 7)]
    hosts += [random_linear(6, 6, 6, 30, seed=s) for s in range(4)]
    checked = tight = 0
    for lts in hosts:
        for e in _queries(lts, 9):
            bound, least = span_lower_bound(lts, e), min_span(lts, e).v
            assert bound <= least
            checked += 1
            tight += bound == least
    assert (checked, tight) == (66, 54)


def _naive_lower_bound(lts, e):
    """The least x + y + z over every triple of part counts that meets the
    bound's rules, with degrees counted from the edges."""
    degrees = [sorted(Counter(x[p] for x in lts.edges).values(), reverse=True) for p in range(3)]
    return min(
        x + y + z
        for x, y, z in product(*(range(1, len(ds) + 1) for ds in degrees))
        if min(x * y, x * z, y * z) >= e
        and all(sum(ds[:k]) >= e for ds, k in zip(degrees, (x, y, z)))
    )


def test_span_lower_bound_matches_the_naive_minimum():
    rng = random.Random(5)
    for seed in range(20):
        lts = random_linear(7, 5, 9, rng.randrange(5, 30), seed=seed)
        for e in range(1, lts.m + 1):
            assert span_lower_bound(lts, e) == _naive_lower_bound(lts, e)


def test_span_lower_bound_is_gated_on_linear_tripartite_hosts():
    assert span_lower_bound(_random_triple_system(0), 2) is None
    # two edges through the pair (A0, B0) span 4, which x = y = 1 cannot meet
    shared = TripartiteLinearSystem((1, 1, 2), ((0, 0, 0), (0, 0, 1)))
    assert not validate_linear(shared)
    assert span_lower_bound(shared, 2) is None
    assert min_span(shared, 2).v == 4
    with pytest.raises(ParameterError):
        span_lower_bound(group_system(3), 0)
    with pytest.raises(ParameterError):
        span_lower_bound(group_system(3), 10)


def test_a_ladder_of_queries_checks_its_host_once(monkeypatch):
    calls = []
    check = core.validate_linear

    def counting(system):
        calls.append(system)
        return check(system)

    # the oracle's own name too, where a module holds one
    for module in (core, oracle):
        monkeypatch.setattr(module, "validate_linear", counting, raising=False)
    lts = random_linear(6, 6, 6, 20, seed=4)
    ladder = range(1, 9)
    bounds = [span_lower_bound(lts, e) for e in ladder]
    assert all(min_span(lts, e).v >= bound for e, bound in zip(ladder, bounds))
    assert not any(exists_config(lts, bound - 1, e) for e, bound in zip(ladder, bounds))
    assert calls == [lts]
    # a host read for the first time is checked once more
    assert span_lower_bound(random_linear(6, 6, 6, 20, seed=4), 3) == bounds[2]
    assert len(calls) == 2
