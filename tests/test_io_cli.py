import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besforge import (
    Graph,
    TripartiteLinearSystem,
    TripleSystem,
    group_system,
    grow_girth_graph,
    min_span,
    random_linear,
    to_triple_system,
)
from besforge import io as textio
from besforge.cli import main
from besforge.errors import FormatError, GrowthError


def test_system_round_trip_tls():
    lts = random_linear(6, 7, 8, 20, seed=3)
    assert textio.loads_system(textio.dumps_system(lts)) == lts


def test_system_round_trip_ts():
    ts = to_triple_system(group_system(3))
    assert textio.loads_system(textio.dumps_system(ts)) == ts


def test_comments_and_blank_lines_ignored():
    text = "# hello\n\np tls 1 1 1 1\n# mid\ne 0 0 0\n"
    assert textio.loads_system(text) == group_system(1)


def test_format_errors():
    with pytest.raises(FormatError):
        textio.loads_system("e 0 1 2\n")
    with pytest.raises(FormatError):
        textio.loads_system("p tls 1 1 1 2\ne 0 0 0\n")
    with pytest.raises(FormatError):
        textio.loads_system("p ts x 1\n")


MALFORMED_SYSTEMS = {
    "bare_header": "p\n",
    "vertex_outside_its_part": "p tls 2 2 2 1\ne 0 0 5\n",
    "duplicate_triple": "p tls 2 2 2 2\ne 0 0 0\ne 0 0 0\n",
    "repeated_vertex": "p ts 3 1\ne 0 1 1\n",
    "negative_part_size": "p tls -1 2 2 0\n",
    "short_edge": "p tls 1 1 1 1\ne 0 0\n",
    "duplicate_header": "p tls 1 1 1 1\np tls 1 1 1 1\ne 0 0 0\n",
}

MALFORMED_GRAPHS = {
    "three_endpoints": "p graph 3 1\ng 0 1 2\n",
    "loop": "p graph 3 1\ng 1 1\n",
    "endpoint_outside_the_graph": "p graph 3 1\ng 0 99\n",
    "declared_edge_count_disagrees": "p graph 3 2\ng 0 1\n",
    "repeated_edge": "p graph 3 2\ng 0 1\ng 1 0\n",
    "attachment_without_a_certificate_line": "p graph 3 0\na 2 0 1\n",
    # K6 minus the edge 0-1 is neither bipartite nor 2-degenerate, but its 6
    # vertices and 14 edges are what 'c -1' and seven 'a' lines would build
    "negative_seed_count": "p graph 6 14\n"
    + "".join(f"g {u} {v}\n" for u, v in itertools.combinations(range(6), 2) if (u, v) != (0, 1))
    + "c -1\na 5 0 2\n" + "a 0 0 0\n" * 6,
    "no_header": "g 0 1\n",
}


@pytest.mark.parametrize("text", MALFORMED_SYSTEMS.values(), ids=MALFORMED_SYSTEMS)
def test_malformed_system_is_a_format_error(text):
    with pytest.raises(FormatError):
        textio.loads_system(text)


@pytest.mark.parametrize("text", MALFORMED_GRAPHS.values(), ids=MALFORMED_GRAPHS)
def test_malformed_graph_is_a_format_error(text):
    with pytest.raises(FormatError):
        textio.loads_graph(text)


def test_config_edges_need_three_integers():
    assert textio.loads_edges("# cfg\ne 0 1 2\n") == [(0, 1, 2)]
    for text in ("e x 0 0\n", "e 0 0\n", "f 0 0 0\n"):
        with pytest.raises(FormatError):
            textio.loads_edges(text)


_VALID_SYSTEM = textio.dumps_system(random_linear(4, 4, 4, 6, seed=1))
_VALID_GRAPH = textio.dumps_graph(*grow_girth_graph(8, 4, 4, seed=1))
_TOKENS = st.sampled_from(["", "p", "e", "g", "a", "c", "ts", "tls", "graph", "#",
                           "-1", "0", "1", "2", "3", "7", "x", "1.5"])


def _mutate(text, data):
    lines = [line.split() for line in text.splitlines()]
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(lines) - 1))
        j = data.draw(st.integers(0, len(lines[i])))
        token = data.draw(_TOKENS)
        action = data.draw(st.sampled_from(["replace", "insert", "delete", "drop_line"]))
        if action == "replace" and j < len(lines[i]):
            lines[i][j] = token
        elif action == "insert":
            lines[i].insert(j, token)
        elif action == "delete" and j < len(lines[i]):
            del lines[i][j]
        elif action == "drop_line" and len(lines) > 1:
            del lines[i]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_files_raise_only_format_errors(data):
    for loads, text in ((textio.loads_system, _VALID_SYSTEM), (textio.loads_graph, _VALID_GRAPH)):
        try:
            loads(_mutate(text, data))
        except FormatError:
            pass


def test_graph_cert_round_trip():
    g, cert = grow_girth_graph(40, 8, 5, seed=2)
    text = textio.dumps_graph(g, cert)
    g2, cert2 = textio.loads_graph(text)
    assert g2.edges == g.edges
    assert cert2 == cert


@st.composite
def _systems(draw):
    if draw(st.booleans()):
        sizes = draw(st.tuples(*[st.integers(0, 5)] * 3))
        edges = []
        if min(sizes):
            triple = st.tuples(*(st.integers(0, n - 1) for n in sizes))
            edges = draw(st.lists(triple, unique=True, max_size=25))
        return TripartiteLinearSystem(sizes, tuple(edges))
    n = draw(st.integers(0, 9))
    edges = []
    if n >= 3:
        triple = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
        edges = draw(st.lists(triple.map(tuple), unique_by=lambda x: tuple(sorted(x)),
                              max_size=25))
    return TripleSystem(n, tuple(edges))


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_every_system_round_trips(system):
    assert textio.loads_system(textio.dumps_system(system)) == system


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(3, 6), st.integers(0, 99))
def test_grown_graphs_round_trip(k, t, g, seed):
    try:
        graph, cert = grow_girth_graph(k, min(t, k), g, seed=seed)
    except GrowthError:
        return
    graph2, cert2 = textio.loads_graph(textio.dumps_graph(graph, cert))
    assert (graph2.vertices, graph2.edges, cert2) == (graph.vertices, graph.edges, cert)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_plain_graphs_round_trip(data):
    n = data.draw(st.integers(0, 12))
    pairs = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 2))) if n else []
    graph = Graph(vertices=range(n), edges=[(u, v) for u, v in pairs if u != v])
    graph2, cert = textio.loads_graph(textio.dumps_graph(graph))
    assert (graph2.vertices, graph2.edges, cert) == (graph.vertices, graph.edges, None)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-5, 10**6)] * 3)))
def test_config_edges_round_trip(edges):
    assert textio.loads_edges("".join(f"e {a} {b} {c}\n" for a, b, c in edges)) == edges


def test_cli_gen_and_oracle(tmp_path, capsys):
    path = tmp_path / "g5.tls"
    assert main(["gen", "group", "--m", "5", "--out", str(path)]) == 0
    assert main(["oracle", "--input", str(path), "--e", "1"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_cli_oracle_on_a_triple_system(tmp_path, capsys):
    # two triples on each of the pairs {0, 1} and {2, 3}: not linear
    ts = TripleSystem(8, ((0, 1, 2), (0, 1, 3), (0, 4, 5), (1, 4, 6), (2, 3, 4),
                          (2, 3, 7), (3, 5, 6), (4, 6, 7)))
    path = tmp_path / "h.ts"
    path.write_text(textio.dumps_system(ts))
    assert path.read_text().startswith("p ts 8 8")
    for e in range(1, ts.m + 1):
        v = min_span(ts, e).v
        assert main(["oracle", "--input", str(path), "--e", str(e)]) == 0
        assert capsys.readouterr().out.strip() == str(v)
        for asked, answer in ((v, "true"), (v - 1, "false")):
            assert main(["oracle", "--input", str(path), "--e", str(e), "--v", str(asked)]) == 0
            assert capsys.readouterr().out.strip() == answer


def test_cli_oracle_with_e_close_to_the_edge_count(tmp_path, capsys):
    path = tmp_path / "g40.tls"
    assert main(["gen", "group", "--m", "40", "--out", str(path)]) == 0
    capsys.readouterr()
    for e in ("1599", "1600"):
        assert main(["oracle", "--input", str(path), "--e", e]) == 0
        assert capsys.readouterr().out.strip() == "120"


def test_cli_solve_report(tmp_path, capsys):
    g3 = tmp_path / "g3.tls"
    report = tmp_path / "r.json"
    main(["gen", "group", "--m", "3", "--out", str(g3)])
    code = main([
        "solve", "--input", str(g3), "--e", "7", "--t", "4",
        "--tau-max", "4", "--base-e", "4", "--report", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["e"] == 7 and payload["span"] == 9
    assert isinstance(payload["timestamp"], int)


def test_cli_girth_grow_isolated(capsys):
    assert main(["girth", "grow", "--k", "10", "--t", "10", "--g", "5"]) == 0
    out = capsys.readouterr().out
    assert "10 vertices, 0 edges" in out


def test_cli_girth_grow_check_round_trip(tmp_path, capsys):
    path = tmp_path / "g.graph"
    assert main(["girth", "grow", "--k", "60", "--t", "16", "--g", "5",
                 "--seed", "4", "--out", str(path)]) == 0
    assert main(["girth", "check", "--input", str(path), "--g", "5"]) == 0
    assert "certificate ok" in capsys.readouterr().out


def test_cli_girth_check_with_a_seed_count_beyond_the_graph(tmp_path, capsys):
    path = tmp_path / "g.graph"
    # at c 10**6 the check must stay small, so the run at 10**12 below cannot
    # size anything by the seed count
    path.write_text("p graph 1 0\nc 1000000\n")
    tracemalloc.start()
    try:
        assert main(["girth", "check", "--input", str(path)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    path.write_text(f"p graph 1 0\nc {10**12}\n")
    assert main(["girth", "check", "--input", str(path)]) == 1
    assert capsys.readouterr().out == "girth acyclic, certificate FAILED\n" * 2


_GEN_RANDOM = ["gen", "random", "--na", "6", "--nb", "7", "--nc", "8", "--target", "20"]


def test_cli_seed_determinism(tmp_path):
    outs = [tmp_path / "a.tls", tmp_path / "b.tls"]
    for out in outs:
        assert main([*_GEN_RANDOM, "--seed", "3", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_cli_seed_defaults_to_besforge_seed(tmp_path, monkeypatch):
    outs = {}
    for name, env, flags in (("unset", None, []), ("flag", None, ["--seed", "3"]),
                             ("env", "3", []), ("flag_over_bad_env", "x", ["--seed", "3"])):
        if env is None:
            monkeypatch.delenv("BESFORGE_SEED", raising=False)
        else:
            monkeypatch.setenv("BESFORGE_SEED", env)
        outs[name] = tmp_path / f"{name}.tls"
        # seeds 0 and 3 generate different systems
        assert main([*_GEN_RANDOM, *flags, "--out", str(outs[name])]) == 0
    assert outs["unset"].read_bytes() != outs["flag"].read_bytes()
    assert outs["env"].read_bytes() == outs["flag"].read_bytes()
    assert outs["flag_over_bad_env"].read_bytes() == outs["flag"].read_bytes()


def test_cli_malformed_besforge_seed_is_a_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BESFORGE_SEED", "x")
    with pytest.raises(SystemExit) as exc:
        main([*_GEN_RANDOM, "--out", str(tmp_path / "out.tls")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: invalid int value: 'x'" in err
    assert "Traceback" not in err
    # solve takes no seed, so it does not read BESFORGE_SEED
    g3 = tmp_path / "g3.tls"
    g3.write_text(textio.dumps_system(group_system(3)))
    assert main(["solve", "--input", str(g3), "--e", "4"]) == 0


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.tls"
    bad.write_text("p tls 1 1\n")
    assert main(["aux", "--input", str(bad)]) == 2
    g2 = tmp_path / "g2.tls"
    main(["gen", "group", "--m", "2", "--out", str(g2)])
    # asking for more edges than exist is a domain failure
    assert main(["solve", "--input", str(g2), "--e", "9"]) == 1
    assert main(["oracle", "--input", str(tmp_path / "nope.tls"), "--e", "1"]) == 2


@pytest.mark.parametrize("command, text", [
    *[pytest.param(["aux"], text, id=f"aux-{name}") for name, text in MALFORMED_SYSTEMS.items()],
    *[pytest.param(["girth", "check"], text, id=f"girth-{name}")
      for name, text in MALFORMED_GRAPHS.items()],
    pytest.param(["verify", "--v", "3", "--e", "1", "--config"], "e x 0 0\n", id="verify-config"),
])
def test_cli_malformed_input_exits_2(tmp_path, capsys, command, text):
    host = tmp_path / "g3.tls"
    host.write_text(textio.dumps_system(group_system(3)))
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    if command[0] == "verify":
        argv = ["verify", "--input", str(host), *command[1:], str(bad)]
    else:
        argv = [*command, "--input", str(bad)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("format error:")


@pytest.mark.parametrize("flags", [["--budget-ms", "0"], ["--budget-ms", "-5"],
                                   ["--strategy", "anneal"], ["--strategy", "greedy"]])
def test_cli_rejects_bad_driver_flags_as_usage_errors(tmp_path, flags):
    g3 = tmp_path / "g3.tls"
    g3.write_text(textio.dumps_system(group_system(3)))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(g3), "--e", "2", *flags])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["aux", "solve --e 2", "girth check"])
def test_cli_directory_input_exits_2(tmp_path, capsys, command):
    assert main([*command.split(), "--input", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot open {tmp_path}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["aux", "girth check", "findf --k 2 --t 1"])
def test_cli_binary_input_exits_2(tmp_path, capsys, command):
    binary = tmp_path / "binary.tls"
    # an ELF header: not UTF-8 from its fifth byte on
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    assert main([*command.split(), "--input", str(binary)]) == 2
    assert capsys.readouterr().err.startswith("format error: input is not UTF-8 text")


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    g3 = tmp_path / "g3.tls"
    g3.write_text(textio.dumps_system(group_system(3)))
    assert main(["aux", "--input", str(g3), "--out", str(tmp_path / "no" / "x.aux")]) == 2
    assert capsys.readouterr().err.startswith("cannot open")


class _BrokenPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_cli_passes_on_os_errors_without_a_file(tmp_path, capsys, monkeypatch):
    g3 = tmp_path / "g3.tls"
    g3.write_text(textio.dumps_system(group_system(3)))
    monkeypatch.setattr("sys.stdout", _BrokenPipe())
    with pytest.raises(BrokenPipeError):
        main(["aux", "--input", str(g3)])
    assert "cannot open" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["findf", "unpack"])
def test_cli_search_rejects_t_below_one(tmp_path, capsys, command):
    g3 = tmp_path / "g3.tls"
    g3.write_text(textio.dumps_system(group_system(3)))
    assert main([command, "--input", str(g3), "--k", "2", "--t", "0"]) == 1
    assert capsys.readouterr().err == "error: t must be positive\n"
    assert main([command, "--input", str(g3), "--k", "2", "--t", "1"]) == 0


def test_cli_rejects_bad_t_before_solving(tmp_path, capsys):
    g3 = tmp_path / "g3.tls"
    g3.write_text(textio.dumps_system(group_system(3)))
    assert main(["solve", "--input", str(g3), "--e", "2", "--t", "0"]) == 1
    assert "t and k0 must be positive" in capsys.readouterr().err


def test_cli_verify_and_unpack(tmp_path, capsys):
    g3 = tmp_path / "g3.tls"
    main(["gen", "group", "--m", "3", "--out", str(g3)])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("e 0 0 0\ne 0 1 1\n")
    assert main(["verify", "--input", str(g3), "--config", str(cfg),
                 "--v", "5", "--e", "2"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    trace = tmp_path / "trace.json"
    assert main(["unpack", "--input", str(g3), "--k", "4", "--t", "4",
                 "--strategy", "exhaustive", "--trace", str(trace)]) == 0
    steps = json.loads(trace.read_text())
    assert len(steps) == 4
    assert {"i", "vertex", "side", "d", "class", "dE", "dV",
            "apexes", "new_edges", "new_vertices"} == set(steps[0])


def test_cli_sweep(tmp_path):
    g4 = tmp_path / "g4.tls"
    main(["gen", "group", "--m", "4", "--out", str(g4)])
    csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--input", str(g4), "--e-min", "1", "--e-max", "5",
                 "--csv", str(csv)]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "e,span,d_achieved"
    assert len(lines) == 6


def test_cli_reduce(tmp_path, capsys):
    ts_path = tmp_path / "flat.ts"
    ts = to_triple_system(group_system(3))
    ts_path.write_text(textio.dumps_system(ts))
    out = tmp_path / "red.tls"
    assert main(["reduce", "--input", str(ts_path), "--e", "4",
                 "--out", str(out)]) == 0
    reduced = textio.loads_system(out.read_text())
    assert reduced.m == 9


def test_cli_reduce_flattens_a_tls_input(tmp_path, capsys):
    g3 = tmp_path / "g3.tls"
    main(["gen", "group", "--m", "3", "--out", str(g3)])
    capsys.readouterr()
    out = tmp_path / "red.tls"
    assert main(["reduce", "--input", str(g3), "--e", "4", "--out", str(out)]) == 0
    assert "kept 9 of 9" in capsys.readouterr().out
    assert textio.loads_system(out.read_text()).m == 9


def test_cli_verify_ts_host_ignores_triple_order(tmp_path, capsys):
    host = tmp_path / "g3.ts"
    host.write_text(textio.dumps_system(to_triple_system(group_system(3))))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("e 6 3 0\n")  # the host edge (0, 3, 6), written backwards
    assert main(["verify", "--input", str(host), "--config", str(cfg),
                 "--v", "3", "--e", "1"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_cli_verify_rejects_a_repeated_edge(tmp_path, capsys):
    host = tmp_path / "g5.tls"
    host.write_text(textio.dumps_system(group_system(5)))
    lines = ["e 0 0 0", "e 0 1 1", "e 0 2 2", "e 0 3 3", "e 1 0 1", "e 1 1 2", "e 1 2 3"]
    cfg = tmp_path / "cfg.txt"
    argv = ["verify", "--input", str(host), "--config", str(cfg), "--v", "10", "--e", "7"]
    cfg.write_text("\n".join(lines) + "\n")
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "true"
    # eight lines, seven distinct edges: a format error, not a true
    cfg.write_text("\n".join(lines + [lines[3]]) + "\n")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("format error:")
    # on a 'p ts' host a triple is the same edge in any order
    ts_host = tmp_path / "g3.ts"
    ts_host.write_text(textio.dumps_system(to_triple_system(group_system(3))))
    cfg.write_text("e 0 3 6\ne 6 3 0\n")
    assert main(["verify", "--input", str(ts_host), "--config", str(cfg),
                 "--v", "3", "--e", "1"]) == 2
    assert capsys.readouterr().err.startswith("format error:")


def test_cli_solve_rejects_a_triple_system(tmp_path, capsys):
    host = tmp_path / "g3.ts"
    host.write_text(textio.dumps_system(to_triple_system(group_system(3))))
    assert main(["solve", "--input", str(host), "--e", "4"]) == 2
    assert "needs a 'p tls' input" in capsys.readouterr().err


def test_cli_reduce_rejects_e_below_one(tmp_path, capsys):
    host = tmp_path / "g3.ts"
    host.write_text(textio.dumps_system(to_triple_system(group_system(3))))
    assert main(["reduce", "--input", str(host), "--e", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: e must be positive")
