import hashlib
from collections import Counter
from itertools import combinations

import pytest

from besforge import generators, group_system, pair_map, random_linear, validate_linear
from besforge.errors import ParameterError
from reference_generators import random_linear as reference_random_linear


def test_group_system_smallest():
    lts = group_system(1)
    assert lts.n == 3 and lts.edges == ((0, 0, 0),)


def test_group_system_counts():
    lts = group_system(5)
    assert lts.n == 15 and lts.m == 25


def test_group_system_degrees_and_linearity():
    lts = group_system(3)
    assert validate_linear(lts).ok
    assert Counter(c for _, _, c in lts.edges) == {0: 3, 1: 3, 2: 3}


@pytest.mark.parametrize("m", [2, 3, 4, 7])
def test_group_system_invariants(m):
    lts = group_system(m)
    assert lts.m == m * m
    degree = {}
    for x in lts.edges:
        for key in lts.edge_keys(x):
            degree[key] = degree.get(key, 0) + 1
    assert set(degree.values()) == {m}
    assert all(len(v) <= 1 for v in pair_map(lts).values())


def test_random_linear_empty_target():
    assert random_linear(4, 4, 4, 0, seed=5).m == 0


def test_random_linear_deterministic_and_linear():
    a = random_linear(10, 10, 10, 30, seed=7)
    b = random_linear(10, 10, 10, 30, seed=7)
    assert a == b
    assert validate_linear(a).ok


def _max_linear_on_2_2_2():
    # brute-force maximum partial system on parts of size 2
    triples = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
    best = 0
    for r in range(len(triples), 0, -1):
        for subset in combinations(triples, r):
            pairs = set()
            ok = True
            for a, b, c in subset:
                for p in ((0, a, 1, b), (0, a, 2, c), (1, b, 2, c)):
                    if p in pairs:
                        ok = False
                        break
                    pairs.add(p)
                if not ok:
                    break
            if ok:
                return r
    return best


def test_random_linear_respects_pair_capacity():
    cap = _max_linear_on_2_2_2()
    assert cap == 4
    lts = random_linear(2, 2, 2, 100, seed=3)
    assert lts.m <= cap


def test_random_linear_rejects_bad_params():
    with pytest.raises(ParameterError):
        random_linear(0, 2, 2, 1)
    with pytest.raises(ParameterError):
        random_linear(2, 2, 2, -1)


def _can_add_a_triple(lts):
    used = {p for a, b, c in lts.edges for p in ((0, a, b), (1, a, c), (2, b, c))}
    na, nb, nc = lts.sizes
    return any(
        (0, a, b) not in used and (1, a, c) not in used and (2, b, c) not in used
        for a in range(na)
        for b in range(nb)
        for c in range(nc)
    )


@pytest.mark.parametrize(
    "sizes", [(2, 2, 2), (3, 3, 3), (4, 5, 3), (6, 6, 6), (10, 10, 10), (30, 30, 30)]
)
def test_random_linear_stops_short_only_when_maximal(sizes):
    # on (30, 30, 30) random sampling stops with about 100 triples still fitting
    target = sizes[0] * sizes[1] + 1  # more than any linear system on these parts holds
    for seed in range(20):
        lts = random_linear(*sizes, target, seed=seed)
        assert validate_linear(lts).ok
        assert lts.m < target
        assert not _can_add_a_triple(lts)


def test_random_linear_listing_phase_honours_the_target():
    # this seed leaves random sampling with 82 edges and 4 triples that still
    # fit, so the target is reached while sampling from the listed triples
    lts = random_linear(10, 10, 10, 85, seed=26)
    assert lts.m == 85
    assert validate_linear(lts).ok
    assert _can_add_a_triple(lts)


@pytest.mark.parametrize(
    "sizes, target, digest",
    [
        ((5, 5, 5), 40, "20a40a55dd9ea90e51cad8dee07eabe50973d1942cfa74e0a292e50cb55b31db"),
        ((4, 5, 3), 21, "96cc8c1b87aca399e8a47817227ff34e9759b39621a91ac21fb30e3f93c58b06"),
        ((10, 10, 10), 101, "1141c1fc5da46bce9f95d6c1c994603d69ffe11ac555d5f2b39680a6dc969944"),
    ],
)
def test_saturating_edge_lists_are_pinned(sizes, target, digest):
    # every call stops short of its target, so each one ends at a maximality
    # checkpoint or after the listing phase
    h = hashlib.sha256()
    for seed in range(10):
        lts = random_linear(*sizes, target, seed=seed)
        assert lts.m < target
        h.update(repr(lts.edges).encode())
    assert h.hexdigest() == digest


# (sizes, target, seeds): saturating systems on small parts, the target
# reached from the listed triples (seed 26 of (10, 10, 10), 85), and parts
# where s = na*nb + na*nc + nb*nc >= 1,000, so no checkpoint fires, with a
# saturating (30, 30, 30) target among them
_CORPUS = [
    ((2, 2, 2), 5, 40), ((4, 5, 3), 21, 40), ((5, 5, 5), 40, 40), ((8, 8, 8), 64, 40),
    ((10, 10, 10), 85, 40), ((10, 10, 10), 101, 40), ((24, 24, 24), 320, 10),
    ((30, 30, 30), 901, 4), ((60, 60, 60), 2000, 4),
]


@pytest.mark.parametrize("sizes, target, seeds", _CORPUS)
def test_random_linear_matches_the_rejection_run_reference(sizes, target, seeds):
    for seed in range(seeds):
        lts = random_linear(*sizes, target, seed=seed)
        assert lts == reference_random_linear(*sizes, target, seed=seed)


def test_saturating_small_systems_stop_soon_after_their_last_edge(monkeypatch):
    log = []
    draw = generators.draw_below

    def logged(bits, n, k):
        r = draw(bits, n, k)
        log.append(r)
        return r

    monkeypatch.setattr(generators, "draw_below", logged)
    sampled = 0
    for sizes, target in (((2, 2, 2), 5), ((4, 5, 3), 21), ((5, 5, 5), 40), ((10, 10, 10), 101)):
        for seed in range(10):
            log.clear()
            lts = random_linear(*sizes, target, seed=seed)
            assert lts.m < target
            # sampling draws a triple at a time; an accepted triple is never
            # drawn before, as its pairs were free then, and a triple drawn
            # by sampling and rejected is never listed later
            drawn = [tuple(log[i:i + 3]) for i in range(0, len(log) - 2, 3)]
            accepted = [drawn.index(x) for x in lts.edges if x in drawn]
            if len(accepted) < lts.m:
                continue  # the last edges came from the listed triples
            sampled += 1
            after = len(log) - 3 * (max(accepted) + 1)
            assert after < 3 * generators._REJECTION_RUN, (sizes, seed, after)
    assert sampled >= 20
