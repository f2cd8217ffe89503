"""Command-line entry point exposing the whole pipeline.

Exit codes: 0 success, 1 domain failure (growth failure, exhaustion,
degenerate input, failed verification), 2 usage or format error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import io as textio
from .auxgraph import build_aux, simple_subgraph
from .core import (
    TripartiteLinearSystem,
    to_triple_system,
    verify_configuration,
    Configuration,
    reduce_or_win,
)
from .degsearch import STRATEGIES, find_dense_2deg
from .driver import DriverParams, find_be_s_configuration
from .errors import BesforgeError, FormatError, ParameterError
from .girth import girth_of, grow_girth_graph, verify_certificate
from .oracle import DEFAULT_GUARD, exists_config, min_span
from .unpack import check_lemma_bounds, unpack


def _read_system(path):
    with open(path, "r", encoding="utf-8") as fh:
        return textio.loads_system(fh.read())


def _read_tls(path):
    system = _read_system(path)
    if not isinstance(system, TripartiteLinearSystem):
        raise FormatError("this command needs a 'p tls' input")
    return system


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_report(args, payload):
    """Write payload as JSON to --report, if given, stamped unless --no-timestamp."""
    if args.report is None:
        return
    if not args.no_timestamp:
        payload = dict(payload)
        payload["timestamp"] = int(time.time())
    _write_text(args.report, json.dumps(payload, indent=2, sort_keys=False) + "\n")


def _positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _options():
    """An empty parent parser for a group of options that subcommands share."""
    return argparse.ArgumentParser(add_help=False)


def build_parser():
    inp = _options()
    inp.add_argument("--input", required=True)
    target = _options()
    target.add_argument("--e", type=int, required=True)
    report = _options()
    report.add_argument("--report", default=None)
    report.add_argument("--no-timestamp", action="store_true")
    seed = _options()
    # a string default goes through type=int, so a malformed BESFORGE_SEED
    # is a usage error (exit 2), and an explicit --seed still overrides it
    seed.add_argument("--seed", type=int, default=os.environ.get("BESFORGE_SEED", "0"),
                      help="RNG seed (default: BESFORGE_SEED or 0)")
    search = _options()
    search.add_argument("--strategy", default="peel", choices=STRATEGIES)
    search.add_argument("--budget-ms", type=_positive_int, default=None)
    size = _options()
    size.add_argument("--k", type=int, required=True)
    size.add_argument("--t", type=int, required=True)
    driver = _options()
    driver.add_argument("--t", type=int, default=DriverParams.t)
    driver.add_argument("--k0", type=int, default=DriverParams.k0)
    driver.add_argument("--tau-max", type=int, default=DriverParams.tau_max)
    driver.add_argument("--base-e", type=int, default=DriverParams.base_e)

    p = argparse.ArgumentParser(prog="besforge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a test system")
    gsub = gen.add_subparsers(dest="kind", required=True)
    gg = gsub.add_parser("group", help="cyclic-group system with m^2 edges")
    gg.add_argument("--m", type=int, required=True)
    gg.add_argument("--out", default=None)
    gr = gsub.add_parser("random", parents=[seed], help="greedy partial linear system")
    gr.add_argument("--na", type=int, required=True)
    gr.add_argument("--nb", type=int, required=True)
    gr.add_argument("--nc", type=int, required=True)
    gr.add_argument("--target", type=int, required=True)
    gr.add_argument("--out", default=None)

    red = sub.add_parser("reduce", parents=[inp, target, report],
                         help="reduce a triple system or win a trivial configuration")
    red.add_argument("--out", default=None, help="path for the reduced system")

    aux = sub.add_parser("aux", parents=[inp, report], help="build the pair-vertex multigraph")
    aux.add_argument("--out", default=None, help="path for the multigraph dump")

    sub.add_parser("findf", parents=[inp, size, search, report],
                   help="search for a dense 2-degenerate pair-graph subgraph")

    up = sub.add_parser("unpack", parents=[inp, size, search, report],
                        help="find a candidate and unpack it into hyperedges")
    up.add_argument("--trace", default=None, help="path for the JSON step trace")

    so = sub.add_parser("solve", parents=[inp, target, driver, search, report],
                        help="assemble exactly e hyperedges with small span")
    so.add_argument("--paper-mode", action="store_true")

    orc = sub.add_parser("oracle", parents=[inp, target],
                         help="exact minimum span by branch and bound")
    orc.add_argument("--v", type=int, default=None, help="existence query instead of minimum")
    orc.add_argument("--guard", type=int, default=DEFAULT_GUARD)

    gi = sub.add_parser("girth", help="grow or check high-girth degenerate graphs")
    gisub = gi.add_subparsers(dest="action", required=True)
    gg2 = gisub.add_parser("grow", parents=[size, seed])
    gg2.add_argument("--g", type=int, required=True)
    gg2.add_argument("--out", default=None)
    gc = gisub.add_parser("check", parents=[inp])
    gc.add_argument("--g", type=int, default=None, help="required girth, if any")

    ver = sub.add_parser("verify", parents=[inp, target],
                         help="verify a configuration against a host system")
    ver.add_argument("--config", required=True, help="file of 'e a b c' lines")
    ver.add_argument("--v", type=int, required=True)

    sw = sub.add_parser("sweep", parents=[inp, driver],
                        help="run solve over a range of e, emit CSV")
    sw.add_argument("--e-min", type=int, required=True)
    sw.add_argument("--e-max", type=int, required=True)
    sw.add_argument("--csv", default=None)

    return p


def _cmd_gen(args):
    from .generators import group_system, random_linear

    if args.kind == "group":
        system = group_system(args.m)
    else:
        system = random_linear(args.na, args.nb, args.nc, args.target, seed=args.seed)
    _write_text(args.out, textio.dumps_system(system))
    return 0


def _cmd_reduce(args):
    system = _read_system(args.input)
    if isinstance(system, TripartiteLinearSystem):
        # reduce_or_win reads global ids; 'p tls' ids are part-local
        system = to_triple_system(system)
    result = reduce_or_win(system, args.e)
    if result.is_win:
        payload = {
            "branch": "win",
            "e": result.win.e,
            "span": result.win.v,
            "edges": [list(x) for x in result.win.edges],
        }
        _write_report(args, payload)
        print(f"win: {result.win.e} edges on {result.win.v} vertices")
        return 0
    payload = {
        "branch": "reduction",
        "tripartite_edges": result.tripartite_edges,
        "kept_edges": result.kept_edges,
    }
    if args.out:
        _write_text(args.out, textio.dumps_system(result.reduction))
    _write_report(args, payload)
    print(
        f"reduction: kept {result.kept_edges} of {result.tripartite_edges} tripartite edges"
    )
    return 0


def _cmd_aux(args):
    lts = _read_tls(args.input)
    aux = build_aux(lts)
    if args.out:
        _write_text(args.out, textio.dumps_aux(aux))
    payload = {
        "a_vertices": len(aux.a_vertices),
        "b_vertices": len(aux.b_vertices),
        "multi_edges": aux.multi_edge_count,
        "simple_edges": simple_subgraph(aux).m,
    }
    _write_report(args, payload)
    print(f"aux: {aux.multi_edge_count} multi-edges on "
          f"{len(aux.a_vertices)}+{len(aux.b_vertices)} pair-vertices")
    return 0


def _find_candidate(args, lts):
    # as in DriverParams; find_dense_2deg itself takes t_target=0 as "best found"
    if args.t < 1:
        raise ParameterError("t must be positive")
    aux = build_aux(lts)
    result = find_dense_2deg(
        simple_subgraph(aux), args.k, args.t,
        strategy=args.strategy, budget_ms=args.budget_ms,
    )
    return aux, result


def _mark_budget_cut(payload, result):
    """Add budget_exhausted to payload, and return a note for the text line,
    when the budget cut the search; an uncut search reports exactly as if no
    budget had been set."""
    if not result.budget_exhausted:
        return ""
    payload["budget_exhausted"] = True
    return "; budget exhausted"


def _cmd_findf(args):
    lts = _read_tls(args.input)
    _aux, result = _find_candidate(args, lts)
    cand = result.candidate
    payload = {
        "success": result.success,
        "k": cand.k,
        "edges": len(cand.edges),
        "achieved_t": cand.achieved_t,
        "vertices": [list(v[1:]) + [v[0]] for v in cand.vertices],
    }
    cut = _mark_budget_cut(payload, result)
    _write_report(args, payload)
    print(f"candidate: k={cand.k} edges={len(cand.edges)} achieved_t={cand.achieved_t} "
          f"({'ok' if result.success else 'best-found'}){cut}")
    return 0


def _cmd_unpack(args):
    lts = _read_tls(args.input)
    aux, result = _find_candidate(args, lts)
    cand = result.candidate
    cfg, trace = unpack(cand, aux, lts)
    bounds = check_lemma_bounds(trace, cand.k, cand.achieved_t)
    if args.trace:
        steps = [s.to_json_dict() for s in trace.steps]
        _write_text(args.trace, json.dumps(steps, indent=2) + "\n")
    payload = {
        "k": cand.k,
        "achieved_t": cand.achieved_t,
        "config_edges": trace.e_total,
        "config_vertices": trace.v_total,
        "assertion1_ok": bounds.assertion1_ok,
        "assertion2_branch": bounds.assertion2_branch,
        "within_hypotheses": bounds.within_hypotheses,
    }
    cut = _mark_budget_cut(payload, result)
    _write_report(args, payload)
    print(f"unpacked: {trace.e_total} hyperedges on {trace.v_total} vertices "
          f"(branch {bounds.assertion2_branch}){cut}")
    return 0


def _driver_params(args, **solve_only):
    return DriverParams(
        t=args.t, k0=args.k0, tau_max=args.tau_max, base_e=args.base_e, **solve_only,
    )


def _cmd_solve(args):
    lts = _read_tls(args.input)
    params = _driver_params(
        args, paper_mode=args.paper_mode, budget_ms=args.budget_ms, strategy=args.strategy,
    )
    report = find_be_s_configuration(lts, args.e, params)
    _write_report(args, report.to_json_dict())
    cut = sum(f.budget_exhausted for f in report.frames)
    print(f"solved: {report.e} edges on {report.span} vertices (d={report.d_achieved})"
          + (f"; budget exhausted in {cut} of {len(report.frames)} frames" if cut else ""))
    return 0


def _cmd_oracle(args):
    system = _read_system(args.input)
    if args.v is not None:
        ok = exists_config(system, args.v, args.e, guard=args.guard)
        print("true" if ok else "false")
        return 0
    result = min_span(system, args.e, guard=args.guard)
    print(result.v)
    return 0


def _cmd_girth(args):
    if args.action == "grow":
        graph, cert = grow_girth_graph(args.k, args.t, args.g, seed=args.seed)
        girth = girth_of(graph)
        if args.out:
            _write_text(args.out, textio.dumps_graph(graph, cert))
        print(f"grown: {graph.n} vertices, {graph.m} edges, "
              f"girth {'acyclic' if girth is None else girth}")
        return 0
    with open(args.input, "r", encoding="utf-8") as fh:
        graph, cert = textio.loads_graph(fh.read())
    girth = girth_of(graph)
    # each check names its own outcome, so a short girth is not reported as
    # a failed certificate and a file without one is not reported as ok
    line = f"girth {'acyclic' if girth is None else girth}"
    ok = args.g is None or girth is None or girth >= args.g
    if not ok:
        line += f" (below --g {args.g})"
    if cert is None:
        line += ", no certificate"
    elif verify_certificate(graph, cert):
        line += ", certificate ok"
    else:
        line += ", certificate FAILED"
        ok = False
    print(line)
    return 0 if ok else 1


def _cmd_verify(args):
    system = _read_system(args.input)
    with open(args.config, "r", encoding="utf-8") as fh:
        edges = textio.loads_edges(fh.read())
    if not isinstance(system, TripartiteLinearSystem):
        # 'p ts' hosts store each triple sorted; 'p tls' triples are positional
        edges = [tuple(sorted(x)) for x in edges]
    if len(set(edges)) != len(edges):
        raise FormatError("the configuration repeats an edge")
    cfg = Configuration.from_edges(system, edges)
    ok = verify_configuration(system, cfg, args.v, args.e)
    print("true" if ok else "false")
    return 0


def _cmd_sweep(args):
    lts = _read_tls(args.input)
    params = _driver_params(args)
    rows = ["e,span,d_achieved"]
    for e in range(args.e_min, args.e_max + 1):
        report = find_be_s_configuration(lts, e, params)
        rows.append(f"{e},{report.span},{report.d_achieved}")
    _write_text(args.csv, "\n".join(rows) + "\n")
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "reduce": _cmd_reduce,
    "aux": _cmd_aux,
    "findf": _cmd_findf,
    "unpack": _cmd_unpack,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "girth": _cmd_girth,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except FormatError as err:
        print(f"format error: {err}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as err:
        print(f"format error: input is not UTF-8 text ({err.reason} at byte {err.start})",
              file=sys.stderr)
        return 2
    except OSError as err:
        if err.filename is None:
            raise  # not about a file, e.g. a broken stdout pipe
        # input and output files alike
        print(f"cannot open {err.filename}: {err.strerror}", file=sys.stderr)
        return 2
    except BesforgeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
