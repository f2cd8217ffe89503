"""The three benchmark workloads and the checks applied to every output.

A workload has a `setup(seed)`, which generates the round-0 inputs and sends
each host through the `io` dumps/loads round trip, and `steps(state, seed, r)`,
which returns round r as a list of steps; a step is a callable that performs
one or more timed operations on a `Run`. Round 0 uses the set-up inputs; round
r >= 1 draws fresh inputs from (seed, r). Quality metrics and the output digest
cover round 0 only, so they do not depend on how many rounds fit in the
measured time.

The machine's speed drifts by up to 2x over fractions of a second, so the
steps of different kinds are interleaved evenly over the round: every median
then samples the whole measured window.

Solver workloads also run a fixed control set (repeated exact-oracle queries
on `group_system(5)` and growth to 2000 vertices, the same on every seed) so
that every workload reports every end-to-end metric; `tools` runs these paths
at full size on seeded inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter, defaultdict
from functools import partial
from math import comb
from time import perf_counter

import besforge as bf
import besforge.io as bfio
from besforge.core import validate_linear, verify_configuration
from besforge.oracle import DEFAULT_GUARD

PARAMS = bf.DriverParams(budget_ms=None, strategy="peel")

LADDER_M = 30  # group-ladder host: group_system(30), 900 edges
LADDER_E = (8, 112)  # e range, scaled from [8, 200] on group_system(40)
LADDER_RUNGS = 20
DEEP_SIZES = (24, 24, 24)
DEEP_EDGES = 320
DEEP_E = 80
DEEP_HOSTS = 20
TOOLS_R6 = 144  # seeded random_linear(6,6,6,20) hosts
TOOLS_R8 = 4  # seeded random_linear(8,8,8,28) hosts
TOOLS_GROW_K = 5000
TOOLS_GROW_SEEDS = 2  # growths per girth target
GIRTHS = (4, 5, 6)
SATURATING = ((5, 5, 5), 40)  # admits at most 25 edges, so generation saturates
SATURATING_RUNS = 2
# The machine runs fast or slow in episodes of 0.1-0.5 s. A sample shorter
# than that lands in one episode, and its median jumps with the episode mix,
# so short calls are timed in batches of about 0.2-0.3 s.
GEN_BATCHES = 8  # timed generator batches per solver-workload round
LADDER_GEN_BATCH = 400  # group_system(30) takes about 0.5 ms
DEEP_GEN_BATCH = 40  # random_linear(24,24,24,320) takes about 5 ms
# control set of the solver workloads
CONTROL_ORACLE_E = (7, 8, 9, 10)  # on group_system(5), the solver's span is 1 above exact
CONTROL_ORACLE_REPS = 16
CONTROL_GROW_K = 2000
# one girth, so that grow_s.p50 is the median of like samples, not a value
# that falls between the times of two girths
CONTROL_GROW_G = 6
CONTROL_GROW_SEEDS = 5


class CheckFailed(Exception):
    """An output failed a check made from outside the program."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def rng_for(seed, r, purpose):
    return random.Random(f"besforge-bench:{seed}:{r}:{purpose}")


class Run:
    """Timings, quality sums, failures and the output digest of one run."""

    def __init__(self, recorder=None):
        self.rec = recorder
        self.timed = defaultdict(list)  # operation kind -> (start, end, calls)
        self.quality = Counter()  # round-0 quality sums
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = hashlib.sha256()
        self.round = 0
        self.seen = {}  # repeated query -> its first answer

    def op(self, kind, fn, check, per=1):
        """Time fn(), then run check(output) outside the timed region. When fn
        makes `per` calls of one kind, the sample is the time per call.

        A raised exception or a failed check counts as a failed operation;
        returns the output, or None when the operation failed.
        """
        self.attempted += 1
        sid = self.rec.begin_op(kind) if self.rec else None
        t0 = perf_counter()
        try:
            out = fn()
            t1 = perf_counter()
        except Exception as exc:  # a raising operation is a failure, never a crash
            self.fail(kind, exc)
            return None
        finally:
            if sid is not None:
                self.rec.close(sid)
        self.timed[kind].append((t0, t1, per))
        try:
            check(out)
        except Exception as exc:  # includes CheckFailed
            self.fail(kind, exc)
            return None
        return out

    def seconds(self, clock=None):
        """Seconds per call of each sample, by kind: wall seconds, or
        reference seconds when a RefClock ran during the operations."""
        span = clock.scale if clock else (lambda t0, t1: t1 - t0)
        return {kind: [span(t0, t1) / per for t0, t1, per in samples] for kind, samples in self.timed.items()}

    def fail(self, kind, exc):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")

    def record(self, obj):
        """Add a deterministic round-0 output to the digest."""
        if self.round == 0:
            self.digest.update(json.dumps(obj, sort_keys=True).encode() + b"\n")


def roundtrip(system):
    """Send a host through the text format and back; the copy must be equal."""
    back = bfio.loads_system(bfio.dumps_system(system))
    require(back == system, "io round trip changed the system")
    return back


def solve(run, host, e, kind="solve"):
    """One driver solve, re-verified from outside; returns the report."""

    def check(rep):
        cfg = rep.configuration
        require(rep.e == e and cfg.e == e, f"asked for {e} edges, got {cfg.e}")
        require(verify_configuration(host, cfg, rep.span, e), "verify_configuration rejected")
        span = {key for x in cfg.edges for key in host.edge_keys(x)}
        require(len(span) == rep.span, "reported span differs from the edges' span")
        require(rep.d_achieved == rep.span - e, "d_achieved != span - e")

    rep = run.op(kind, lambda: bf.find_be_s_configuration(host, e, PARAMS), check)
    if rep is not None:
        run.record(rep.to_json_dict())
        if run.round == 0 and kind == "solve":
            run.quality["solves"] += 1
            run.quality["span_sum"] += rep.span
            run.quality["flagged"] += rep.any_flagged
    return rep


def oracle_steps(name, host, solve_kind):
    """One step per e <= 10 whose C(m, e) fits the default guard."""
    es = [e for e in range(1, min(10, host.m) + 1) if comb(host.m, e) <= DEFAULT_GUARD]
    return [partial(oracle_batch, name=name, host=host, es=(e,), solve_kind=solve_kind) for e in es]


def oracle_batch(run, name, host, es, solve_kind):
    """Exact min_span for each e in es as one timed operation (a sample is the
    time per query). The first time a query runs it is checked against a
    solve: the solver's span may never beat the exact minimum. A repeated
    query must return the same answer."""

    def check(results):
        for e, res in zip(es, results):
            require(res.witness.e == e, "oracle witness has the wrong edge count")
            require(verify_configuration(host, res.witness, res.v, e), "oracle witness rejected")
            require(res.witness.v == res.v, "oracle v differs from its witness span")
            require(run.seen.get((name, e), res.v) == res.v, "oracle answer changed on repeat")

    results = run.op("oracle", lambda: [bf.min_span(host, e) for e in es], check, per=len(es))
    for e, res in zip(es, results or ()):
        if (name, e) in run.seen:
            continue
        run.seen[(name, e)] = res.v
        run.record({"host": name, "e": e, "v": res.v, "witness": [list(x) for x in res.witness.edges]})
        rep = solve(run, host, e, solve_kind)
        if rep is None:
            continue
        if rep.span < res.v:
            run.fail("oracle", CheckFailed(f"{name} e={e}: solver span {rep.span} < oracle {res.v}"))
        elif run.round == 0:
            run.quality["oracle_gap"] += rep.span - res.v


def grow(run, k, g, seed):
    """find_growth_t, then girth_of and verify_certificate, as one operation."""

    def op():
        t, graph, cert = bf.find_growth_t(k, g, seed=seed)
        return t, graph, cert, bf.girth_of(graph), bf.verify_certificate(graph, cert)

    def check(out):
        t, graph, cert, girth, cert_ok = out
        require(graph.n == k, f"grown graph has {graph.n} vertices, not {k}")
        require(graph.m == 2 * (k - t), "edge count is not 2(k - t)")
        require(girth is None or girth >= g, f"girth {girth} below {g}")
        require(cert_ok, "certificate did not verify")

    out = run.op("grow", op, check)
    if out is not None:
        t, graph, cert = out[:3]
        run.record({"k": k, "g": g, "seed": seed, "t": t, "edges": [list(x) for x in graph.edges],
                    "attachments": [list(x) for x in cert.attachments]})
        if run.round == 0:
            run.quality["growth_t_sum"] += t


def control_steps(g5):
    """The fixed control set every solver workload also runs: repeated
    exact-oracle queries and growth with fixed seeds, the same on every seed."""
    steps = [partial(oracle_batch, name="g5", host=g5, es=CONTROL_ORACLE_E, solve_kind="control_solve")
             for _ in range(CONTROL_ORACLE_REPS)]
    steps += [partial(grow, k=CONTROL_GROW_K, g=CONTROL_GROW_G, seed=i) for i in range(CONTROL_GROW_SEEDS)]
    return steps


def interleave(*lists):
    """Merge lists so that the items of each are spread evenly over the result,
    keeping each list's own order."""
    keyed = [((i + 0.5) / len(items), j, i) for j, items in enumerate(lists) for i in range(len(items))]
    return [lists[j][i] for _, j, i in sorted(keyed)]


class GroupLadder:
    """One group_system host, solved at an ascending stratified ladder of e."""

    name = "group-ladder"

    def setup(self, seed):
        return {"host": roundtrip(bf.group_system(LADDER_M)), "g5": roundtrip(bf.group_system(5))}

    def steps(self, state, seed, r):
        host = state["host"]
        lo, hi = LADDER_E
        width = hi - lo + 1
        rng = rng_for(seed, r, "ladder")
        ladder = [rng.randrange(lo + width * i // LADDER_RUNGS, lo + width * (i + 1) // LADDER_RUNGS)
                  for i in range(LADDER_RUNGS)]

        def regenerate(run):
            run.op("gen", lambda: [bf.group_system(LADDER_M) for _ in range(LADDER_GEN_BATCH)],
                   lambda out: require(all(g == host for g in out), "group_system output changed"),
                   per=LADDER_GEN_BATCH)

        return interleave([partial(solve, host=host, e=e) for e in ladder],
                          [regenerate] * GEN_BATCHES, control_steps(state["g5"]))


class RandomDeep:
    """A fresh random_linear host per solve; windows miss the target, so local
    search does most of the work and nothing repeats across solves."""

    name = "random-deep"

    def _hosts(self, seed, r):
        rng = rng_for(seed, r, "deep-hosts")
        hosts = []
        for _ in range(DEEP_HOSTS):
            s = rng.randrange(2**31)
            host = roundtrip(bf.random_linear(*DEEP_SIZES, DEEP_EDGES, seed=s))
            require(host.m == DEEP_EDGES, "random-deep host saturated below its target")
            hosts.append((s, host))
        return hosts

    def setup(self, seed):
        return {"hosts": self._hosts(seed, 0), "g5": roundtrip(bf.group_system(5))}

    def steps(self, state, seed, r):
        hosts = state["hosts"] if r == 0 else self._hosts(seed, r)

        def regenerate(run, s, host):
            run.op("gen", lambda: [bf.random_linear(*DEEP_SIZES, DEEP_EDGES, seed=s)
                                   for _ in range(DEEP_GEN_BATCH)],
                   lambda out: require(all(g == host for g in out), "random_linear output changed"),
                   per=DEEP_GEN_BATCH)

        return interleave([partial(solve, host=host, e=DEEP_E) for _, host in hosts],
                          [partial(regenerate, s=s, host=host) for s, host in hosts[:GEN_BATCHES]],
                          control_steps(state["g5"]))


class Tools:
    """The non-solver paths at full size: exact oracle, girth growth, and
    generation that saturates below its target."""

    name = "tools"

    def _hosts(self, seed, r):
        rng = rng_for(seed, r, "tools-hosts")
        hosts = [("g4", bf.group_system(4)), ("g5", bf.group_system(5))]
        for n, m, count in ((6, 20, TOOLS_R6), (8, 28, TOOLS_R8)):
            for _ in range(count):
                s = rng.randrange(2**31)
                hosts.append((f"r{n}:{s}", bf.random_linear(n, n, n, m, seed=s)))
        return [(name, roundtrip(host)) for name, host in hosts]

    def setup(self, seed):
        return {"hosts": self._hosts(seed, 0)}

    def steps(self, state, seed, r):
        hosts = state["hosts"] if r == 0 else self._hosts(seed, r)
        queries = [step for name, host in hosts for step in oracle_steps(name, host, "solve")]
        rng = rng_for(seed, r, "tools-grow")
        grows = [partial(grow, k=TOOLS_GROW_K, g=g, seed=rng.randrange(2**31))
                 for _ in range(TOOLS_GROW_SEEDS) for g in GIRTHS]
        rng = rng_for(seed, r, "tools-saturate")
        gens = [partial(saturate, seed=rng.randrange(2**31)) for _ in range(SATURATING_RUNS)]
        return interleave(queries, grows, gens)


def saturate(run, seed):
    sizes, target = SATURATING
    out = run.op("gen", lambda: bf.random_linear(*sizes, target, seed=seed),
                 lambda lts: check_saturated(lts, target))
    if out is not None:
        run.record({"sizes": list(sizes), "target": target, "seed": seed,
                    "edges": [list(x) for x in out.edges]})


def check_saturated(lts, target):
    """Linear, short of its target, and maximal: no triple can be added."""
    require(validate_linear(lts), "generated system is not linear")
    require(lts.m < target, "generation reached a target the sizes cannot admit")
    used = {p for x in lts.edges for p in ((0, x[0], x[1]), (1, x[0], x[2]), (2, x[1], x[2]))}
    na, nb, nc = lts.sizes
    for a in range(na):
        for b in range(nb):
            if (0, a, b) in used:
                continue
            for c in range(nc):
                require((1, a, c) in used or (2, b, c) in used,
                        f"triple {(a, b, c)} could still be added")


WORKLOADS = {w.name: w for w in (GroupLadder(), RandomDeep(), Tools())}
