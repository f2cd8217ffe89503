"""The traced benchmark run (perfbench/spans.py) times the program by
replacing module attributes that callers look up. A rename of any wrapped
attribute, or a call that no longer goes through it, would make the traced
run fail or lose a stage; these solve hosts under that instrumentation. The
traced run also reads `.n` of each searched graph and `multi_edge_count` of
each multigraph, which must count what an untraced solve builds.
"""

from collections import Counter
from pathlib import Path

import besforge
import besforge.driver
from besforge import DriverParams, group_system, random_linear

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_a_traced_solve_records_every_stage(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    rec = spans.Recorder()
    undo = spans.instrument(rec)
    try:
        sid = rec.begin_op("solve")
        report = besforge.find_be_s_configuration(
            group_system(11), 63, DriverParams(budget_ms=None, strategy="peel"))
        rec.close(sid)
    finally:
        undo()
    assert [f.branch for f in report.frames] == ["recurse", "recurse", "base"]
    names = {row[3] for row in rec.spans}
    for name in ("driver.find_be_s_configuration", "auxgraph.build_aux",
                 "auxgraph.simple_subgraph", "degsearch.find_dense_2deg",
                 "degsearch.degeneracy_ordering", "unpack.unpack",
                 "core.verify_configuration"):
        assert name in names
    metrics, _ = rec.layer_metrics()
    assert metrics["driver.recurse_frames"] == 2 and metrics["driver.base_frames"] == 1


def test_a_traced_cold_random_deep_solve_counts_as_an_untraced_one(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    lts = random_linear(24, 24, 24, 320, seed=3)
    params = DriverParams(budget_ms=None, strategy="peel")
    # untraced: what each multigraph and each searched pair graph hold,
    # counted from the host and the pair-vertices
    built, searched = [], []
    build, search = besforge.driver.build_aux, besforge.driver.find_dense_2deg
    with monkeypatch.context() as patched:
        patched.setattr(besforge.driver, "build_aux", lambda sub: built.append((sub, build(sub))) or built[-1][1])
        patched.setattr(besforge.driver, "find_dense_2deg",
                        lambda graph, *args, **kwargs: searched.append(graph) or search(graph, *args, **kwargs))
        besforge.driver._last_host = None
        untraced = besforge.find_be_s_configuration(lts, 80, params)
    multi_edges = sum(d * (d - 1) // 2 for sub, _ in built for d in Counter(c for _, _, c in sub.edges).values())
    host_vertices = sum(len(aux.a_vertices) + len(aux.b_vertices)
                        for graph in searched for _, aux in built if graph is aux.graph)
    assert len(built) >= 1 and len(searched) >= 1

    rec = spans.Recorder()
    undo = spans.instrument(rec)
    try:
        besforge.driver._last_host = None
        sid = rec.begin_op("solve")
        traced = besforge.find_be_s_configuration(lts, 80, params)
        rec.close(sid)
    finally:
        undo()
    assert traced == untraced
    names = {row[3] for row in rec.spans}
    for name in ("driver.find_be_s_configuration", "auxgraph.build_aux", "core.validate_linear",
                 "auxgraph.simple_subgraph", "degsearch.degeneracy_ordering",
                 "degsearch.find_dense_2deg", "unpack.unpack", "core.verify_configuration"):
        assert name in names
    metrics, _ = rec.layer_metrics()
    assert metrics["auxgraph.multi_edges"] == multi_edges
    assert metrics["degsearch.host_vertices"] == host_vertices
    assert metrics["auxgraph.build_aux_calls"] == len(built)
    assert metrics["degsearch.calls"] == len(searched)
