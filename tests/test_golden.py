"""Byte-identity of solver and CLI outputs against recorded SHA-256 digests.

Refactors that must not change behaviour are checked here: every case below
hashes the exact output text of a corpus of solves, unpackings or CLI runs,
and the recorded digests in golden_digests.json were produced by the code
before the refactor. The default and tau8 solve corpora reach every driver frame kind
(base, top_up and recurse) and every base note but `k below minimum`, which
needs k0 >= 3 and which cli/sweep/flags reaches, as
test_corpus_reaches_every_branch_and_note checks. The corpus runs every
subcommand at least once.
cli_flags.json lists every subcommand's options with their defaults, types,
choices and required flags, so a CLI refactor can show that it added or
dropped no flag.

To record the digests and the flag table of a checkout, run from its root:

    PYTHONPATH=src python tests/test_golden.py
"""

import argparse
import ast
import contextlib
import hashlib
import inspect
import io
import json
import os
import tempfile
from itertools import combinations
from pathlib import Path

import pytest

from besforge import (
    DriverParams,
    TripartiteLinearSystem,
    TripleSystem,
    build_aux,
    find_be_s_configuration,
    find_dense_2deg,
    group_system,
    grow_girth_graph,
    random_linear,
    simple_subgraph,
    unpack,
)
from besforge import driver
from besforge import io as textio
from besforge.cli import build_parser, main

DIGESTS = Path(__file__).with_name("golden_digests.json")
FLAGS = Path(__file__).with_name("cli_flags.json")

HOSTS = {
    **{f"group{m}": (group_system, (m,)) for m in range(2, 11)},
    "random12s0": (random_linear, (12, 12, 12, 90, 0)),
    "random12s1": (random_linear, (12, 12, 12, 90, 1)),
    # no two edges share a vertex, so the pair graph has no edges at all
    "apex_disjoint12": (TripartiteLinearSystem, ((12, 12, 12), tuple((i, i, i) for i in range(12)))),
}

PARAMS = {
    "default": DriverParams(),
    "tau8": DriverParams(tau_max=8),
    "paper": DriverParams(paper_mode=True),
}

STRATEGIES = ("peel", "exhaustive")


def _solve_corpus(host_name, params_name):
    make, args = HOSTS[host_name]
    lts = make(*args)
    lines = []
    for e in range(1, min(lts.m, 40) + 1):
        report = find_be_s_configuration(lts, e, PARAMS[params_name])
        lines.append(json.dumps(report.to_json_dict()))
    return "\n".join(lines)


def _ladder_solve(e):
    """One solve on the benchmark's group-ladder host, group_system(30)."""
    report = find_be_s_configuration(group_system(30), e, DriverParams(budget_ms=None))
    return json.dumps(report.to_json_dict())


def _deep_solve(seed):
    """One solve of a random-deep-shaped host, random_linear(24,24,24,320), at
    e = 80, with the unpack trace of its frame-0 candidate (k = 20)."""
    lts = random_linear(24, 24, 24, 320, seed)
    params = PARAMS["default"]
    report = find_be_s_configuration(lts, 80, params)
    aux = build_aux(lts)
    cand = find_dense_2deg(simple_subgraph(aux), 80 // 4, params.t).candidate
    _cfg, trace = unpack(cand, aux, lts)
    return "\n".join([json.dumps(report.to_json_dict()),
                      json.dumps([trace.v_total, trace.e_total]),
                      json.dumps([s.to_json_dict() for s in trace.steps])])


def _cli_output(argv_of):
    """Run the CLI on a group host written to a scratch dir; return the output file."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        code = main(argv_of(tmp, out))
        return f"exit {code}\n" + out.read_text()


def _sweep_csv():
    def argv(tmp, out):
        (tmp / "g6.tls").write_text(textio.dumps_system(group_system(6)))
        return ["sweep", "--input", str(tmp / "g6.tls"), "--e-min", "1",
                "--e-max", "36", "--csv", str(out)]
    return _cli_output(argv)


def _unpack_trace(strategy):
    def argv(tmp, out):
        (tmp / "g5.tls").write_text(textio.dumps_system(group_system(5)))
        return ["unpack", "--input", str(tmp / "g5.tls"), "--k", "6", "--t", "4",
                "--strategy", strategy, "--trace", str(out)]
    return _cli_output(argv)


# the pair graphs of the unpack corpus, by strategy: 'exhaustive' runs on
# at most 15 pair-vertices, where its subset DP stays cheap up to k = 8
UNPACK_HOSTS = {
    "peel": [HOSTS[h] for h in ("group4", "group5", "group7", "random12s0", "random12s1")]
    + [(random_linear, (6, 6, 6, 18, 2))],
    "exhaustive": [HOSTS["group3"], HOSTS["group4"], (random_linear, (4, 4, 4, 9, 3)),
                   (random_linear, (4, 4, 4, 9, 4)), (random_linear, (5, 5, 5, 12, 0))],
}


def _unpack_corpus(strategy):
    """The step JSON of unpacking every candidate the search finds on the
    UNPACK_HOSTS pair graphs, one line per (host, k, t)."""
    k_max = 24 if strategy == "peel" else 8
    lines = []
    for make, args in UNPACK_HOSTS[strategy]:
        lts = make(*args)
        aux = build_aux(lts)
        graph = simple_subgraph(aux)
        for k in range(2, min(graph.n, k_max) + 1):
            # t = 0 is out of reach, so 'peel' returns its densest trim; at
            # t = 4 it stops at the first window that reaches the goal
            for t in (0, 4):
                cand = find_dense_2deg(graph, k, t, strategy=strategy).candidate
                _cfg, trace = unpack(cand, aux, lts)
                lines.append(json.dumps([s.to_json_dict() for s in trace.steps]))
    return "\n".join(lines)


def _cli_inputs():
    """Input files for the CLI cases, by name."""
    g, cert = grow_girth_graph(60, 16, 5, seed=4)
    return {
        "g3.tls": textio.dumps_system(group_system(3)),
        "g5.tls": textio.dumps_system(group_system(5)),
        # 20 triples on 8 vertices; every vertex pair lies in at most 3 of them
        "mod3.ts": textio.dumps_system(TripleSystem(
            8, tuple(x for x in combinations(range(8), 3) if sum(x) % 3 == 0))),
        "girth.graph": textio.dumps_graph(g, cert),
        "cfg.txt": "e 0 0 0\ne 0 1 1\n",
    }


def _cli_run(*argv):
    """Run the CLI in a scratch dir holding _cli_inputs(); '{tmp}' in argv names
    that dir. Returns the exit code, stdout and every file the run wrote."""
    inputs = _cli_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in inputs.items():
            (tmp / name).write_text(text)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([arg.format(tmp=tmp) for arg in argv])
        written = sorted(f for f in tmp.iterdir() if f.name not in inputs)
        return f"exit {code}\n{stdout.getvalue()}" + "".join(
            f"== {f.name}\n{f.read_text()}" for f in written)


_REPORT = ("--report", "{tmp}/report.json", "--no-timestamp")

CLI_CASES = {
    "gen/group": ("gen", "group", "--m", "4"),
    "gen/random": ("gen", "random", "--na", "6", "--nb", "7", "--nc", "8",
                   "--target", "20", "--seed", "5", "--out", "{tmp}/out.tls"),
    "reduce/win": ("reduce", "--input", "{tmp}/mod3.ts", "--e", "3", *_REPORT),
    "reduce/reduction": ("reduce", "--input", "{tmp}/mod3.ts", "--e", "4",
                         "--out", "{tmp}/out.tls", *_REPORT),
    "aux": ("aux", "--input", "{tmp}/g5.tls", "--out", "{tmp}/out.aux", *_REPORT),
    **{f"findf/{s}": ("findf", "--input", "{tmp}/g5.tls", "--k", "7", "--t", "3",
                      "--strategy", s, *_REPORT) for s in STRATEGIES},
    "unpack/peel": ("unpack", "--input", "{tmp}/g5.tls", "--k", "7", "--t", "3",
                    "--strategy", "peel", "--budget-ms", "600000",
                    "--trace", "{tmp}/trace.json", *_REPORT),
    # flag values picked so that the output changes when any of t, tau_max or
    # strategy (solve/flags), base_e (solve/base-e) or k0 (sweep) is left out
    "solve/flags": ("solve", "--input", "{tmp}/g5.tls", "--e", "25", "--t", "3", "--k0", "2",
                    "--tau-max", "8", "--base-e", "5", "--strategy", "exhaustive",
                    "--budget-ms", "600000", *_REPORT),
    "solve/base-e": ("solve", "--input", "{tmp}/g5.tls", "--e", "5", "--base-e", "5", *_REPORT),
    "solve/paper": ("solve", "--input", "{tmp}/g5.tls", "--e", "20", "--paper-mode", *_REPORT),
    "solve/plain": ("solve", "--input", "{tmp}/g5.tls", "--e", "20"),
    "sweep/flags": ("sweep", "--input", "{tmp}/g5.tls", "--e-min", "3", "--e-max", "25",
                    "--t", "3", "--k0", "4", "--tau-max", "10", "--base-e", "5"),
    "oracle/min": ("oracle", "--input", "{tmp}/g3.tls", "--e", "4"),
    "oracle/v": ("oracle", "--input", "{tmp}/g3.tls", "--e", "4", "--v", "6", "--guard", "100000"),
    "girth/grow": ("girth", "grow", "--k", "60", "--t", "16", "--g", "5", "--seed", "4",
                   "--out", "{tmp}/out.graph"),
    "girth/check": ("girth", "check", "--input", "{tmp}/girth.graph", "--g", "6"),
    "verify": ("verify", "--input", "{tmp}/g3.tls", "--config", "{tmp}/cfg.txt",
               "--v", "5", "--e", "2"),
}

CASES = {
    **{f"solve/{h}/{p}": (_solve_corpus, (h, p)) for h in HOSTS for p in PARAMS},
    # one and two recurse frames; e=103 shrinks the pair graph twice
    **{f"solve/group30/e{e}": (_ladder_solve, (e,)) for e in (28, 60, 103)},
    **{f"solve/random24/s{s}": (_deep_solve, (s,)) for s in range(5)},
    "sweep/group6": (_sweep_csv, ()),
    **{f"unpack/group5/{s}": (_unpack_trace, (s,)) for s in STRATEGIES},
    **{f"unpack/corpus/{s}": (_unpack_corpus, (s,)) for s in STRATEGIES},
    **{f"cli/{name}": (_cli_run, argv) for name, argv in CLI_CASES.items()},
}


# The span sum of the default and tau8 solve corpora since the driver stops
# once the span holds the rest (10,677 when the window scan kept the densest
# window, 10,625 when it stopped at the first window that reaches t). The
# digests above are re-recorded whenever outputs change on purpose; this bound
# keeps such a change from buying speed with larger configurations.
SPAN_SUM_BOUND = 10623


def test_solve_corpus_span_sum_does_not_grow():
    total = sum(
        json.loads(line)["span"]
        for h in HOSTS
        for p in ("default", "tau8")
        for line in _solve_corpus(h, p).splitlines()
    )
    assert total <= SPAN_SUM_BOUND


def _base_notes():
    """Every note find_be_s_configuration can give a base frame."""
    tree = ast.parse(inspect.getsource(driver.find_be_s_configuration))
    values = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["note"]]
    return {v.value if isinstance(v, ast.Constant) else getattr(driver, v.id) for v in values}


def _frames(reports):
    return [frame for report in reports for frame in report["frames"]]


def test_corpus_reaches_every_branch_and_note():
    k0_note = "k below minimum; base fallback"
    notes = _base_notes()
    assert k0_note in notes
    frames = _frames(json.loads(line) for h in HOSTS for p in ("default", "tau8")
                     for line in _solve_corpus(h, p).splitlines())
    assert {f["branch"] for f in frames} == {"base", "top_up", "recurse"}
    assert {f["note"] for f in frames} == notes - {k0_note}
    # the driver parameters of cli/sweep/flags
    params = DriverParams(t=3, k0=4, tau_max=10, base_e=5)
    sweep = _frames(find_be_s_configuration(group_system(5), e, params).to_json_dict()
                    for e in range(3, 26))
    assert k0_note in {f["note"] for f in sweep}
    # a base frame is flagged when its note names a miss
    for f in frames + sweep:
        if f["branch"] == "base":
            assert f["flagged"] == (f["note"] not in ("", driver._END_NOTE, driver._FREE_NOTE))


def _leaf_parsers(parser, path=()):
    """Yield (command path, parser) for every parser that takes no subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*path, name))


def cli_flags():
    """Every subcommand's options with their default, type, choices and required flag."""
    return {
        command: {
            option: {
                "dest": a.dest,
                "default": a.default,
                "type": getattr(a.type, "__name__", None),
                "choices": None if a.choices is None else list(a.choices),
                "required": a.required,
                "nargs": a.nargs,
                "const": a.const,
            }
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
            for option in a.option_strings
        }
        for command, parser in _leaf_parsers(build_parser())
    }


def digest(case):
    fn, args = CASES[case]
    return hashlib.sha256(fn(*args).encode()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_recorded_cases_match_corpus(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_byte_identical(case, recorded, monkeypatch):
    monkeypatch.delenv("BESFORGE_SEED", raising=False)
    assert digest(case) == recorded[case]


def test_cli_flags_match_the_recorded_table(monkeypatch):
    monkeypatch.delenv("BESFORGE_SEED", raising=False)
    assert cli_flags() == json.loads(FLAGS.read_text())


if __name__ == "__main__":
    os.environ.pop("BESFORGE_SEED", None)
    DIGESTS.write_text(json.dumps({case: digest(case) for case in sorted(CASES)}, indent=1) + "\n")
    FLAGS.write_text(json.dumps(cli_flags(), indent=1) + "\n")
