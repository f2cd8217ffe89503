import pytest

from besforge import (
    GuardExceededError,
    ParameterError,
    exists_config,
    group_system,
    min_span,
    random_linear,
    verify_configuration,
)


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
    reference for min_span's value, witness and visiting order."""
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


def test_min_span_matches_the_recursive_reference():
    hosts = [group_system(4), group_system(5)]
    hosts += [random_linear(6, 6, 6, 20, seed=s) for s in range(6)]
    checked = 0
    for lts in hosts:
        for e in range(1, min(lts.m, 6) + 1):
            for target in (None, 3 * e - 2, 2 * e, e + 3):
                got = min_span(lts, e, _target=target)
                assert (got.v, got.witness.edges) == _reference_min_span(lts, e, target)
                checked += 1
    assert checked > 150


def test_min_span_on_a_host_with_over_a_thousand_edges():
    lts = group_system(40)
    assert lts.m > 1000
    assert min_span(lts, 1).v == 3
    assert min_span(lts, 2).v == 5
    assert exists_config(lts, 5, 2)
