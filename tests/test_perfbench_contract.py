"""The traced benchmark run (perfbench/spans.py) times the program by
replacing module attributes that callers look up. A rename of any wrapped
attribute, or a call that no longer goes through it, would make the traced
run fail or lose a stage; this solves one host under that instrumentation.
"""

from pathlib import Path

import besforge
from besforge import DriverParams, group_system

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
