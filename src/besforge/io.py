"""Text formats for systems, pair-graph dumps, graphs and growth certificates.

All formats are line-based; '#' starts a comment line; tokens are
whitespace-separated and every record line is newline-terminated.
"""

from __future__ import annotations

from .core import TripartiteLinearSystem, TripleSystem
from .errors import FormatError, ParameterError
from .girth import GrowthCertificate
from .graphs import Graph


def _records(text, arity):
    """Yield (lineno, tag, ints) per record line.

    `arity` maps each allowed tag ('e', or a two-token header tag such as
    'p tls') to the number of integer tokens that must follow it.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        tag, rest = tokens[0], tokens[1:]
        if tag not in arity:
            tag, rest = " ".join(tokens[:2]), tokens[2:]
        if tag not in arity:
            raise FormatError(f"line {lineno}: unknown record {line.strip()!r}")
        if len(rest) != arity[tag]:
            raise FormatError(f"line {lineno}: '{tag}' needs {arity[tag]} integers, got {rest}")
        try:
            ints = tuple(map(int, rest))
        except ValueError:
            raise FormatError(f"line {lineno}: expected integers, got {rest}") from None
        yield lineno, tag, ints


def _header_and_body(records, header_tags):
    """Split parsed records into the single header and the remaining records."""
    header = None
    body = []
    for lineno, tag, ints in records:
        if tag not in header_tags:
            if header is None:
                raise FormatError(f"line {lineno}: record before header")
            body.append((tag, ints))
        elif header is not None:
            raise FormatError(f"line {lineno}: duplicate header")
        else:
            header = (tag, ints)
    if header is None:
        raise FormatError(f"missing header ({' or '.join(header_tags)})")
    return header, body


def dumps_system(system):
    if isinstance(system, TripleSystem):
        lines = [f"p ts {system.n} {system.m}"]
        lines += [f"e {u} {v} {w}" for u, v, w in system.edges]
    elif isinstance(system, TripartiteLinearSystem):
        na, nb, nc = system.sizes
        lines = [f"p tls {na} {nb} {nc} {system.m}"]
        lines += [f"e {a} {b} {c}" for a, b, c in system.edges]
    else:
        raise FormatError(f"cannot serialize {type(system).__name__}")
    return "\n".join(lines) + "\n"


def loads_system(text):
    """Parse a 'p ts' or 'p tls' system; out-of-range or repeated edges are format errors."""
    (kind, (*sizes, m)), body = _header_and_body(
        _records(text, {"p ts": 2, "p tls": 4, "e": 3}), ("p ts", "p tls")
    )
    edges = tuple(ints for _, ints in body)
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, found {len(edges)}")
    try:
        if kind == "p ts":
            return TripleSystem(sizes[0], edges)
        return TripartiteLinearSystem(tuple(sizes), edges)
    except ParameterError as err:
        raise FormatError(str(err)) from None


def loads_edges(text):
    """Parse a configuration file of 'e a b c' lines; returns the triples."""
    return [ints for _, _, ints in _records(text, {"e": 3})]


def dumps_aux(aux):
    lines = [f"p aux {len(aux.a_vertices)} {len(aux.b_vertices)} {aux.multi_edge_count}"]
    for ed in aux.edges:
        lines.append(
            f"x {ed.u[1]} {ed.u[2]} {ed.w[1]} {ed.w[2]} {ed.apex} {ed.pairing}"
        )
    return "\n".join(lines) + "\n"


def dumps_graph(graph, cert=None):
    lines = [f"p graph {graph.n} {graph.m}"]
    lines += [f"g {u} {v}" for u, v in graph.edges]
    if cert is not None:
        lines.append(f"c {cert.t}")
        lines += [f"a {v} {u1} {u2}" for v, u1, u2 in cert.attachments]
    return "\n".join(lines) + "\n"


def loads_graph(text):
    """Parse a graph file; returns (Graph, GrowthCertificate | None).

    A certificate is a non-negative 'c' seed count t and 'a' lines for t, t+1, ...
    """
    (_, (n, m)), body = _header_and_body(
        _records(text, {"p graph": 2, "g": 2, "c": 1, "a": 3}), ("p graph",)
    )
    edges = [ints for tag, ints in body if tag == "g"]
    if n < 0 or any(not (0 <= u < n and 0 <= v < n) or u == v for u, v in edges):
        raise FormatError(f"graph on {n} vertices has an edge outside [0, {n}) or a loop")
    graph = Graph(vertices=range(n), edges=edges)
    if len(edges) != m or graph.m != m:
        raise FormatError(f"header declares {m} edges, found {len(edges)} ({graph.m} distinct)")
    certs = [ints[0] for tag, ints in body if tag == "c"]
    attachments = tuple(ints for tag, ints in body if tag == "a")
    if len(certs) > 1 or (attachments and not certs) or min(certs, default=0) < 0:
        raise FormatError("a certificate needs exactly one 'c' line, with a seed count >= 0")
    return graph, (GrowthCertificate(certs[0], attachments) if certs else None)
