"""Run one besforge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload group-ladder --seed 1 --seconds 30 --trace 0

The benchmark imports the package from `src/` of the checkout it lives in, so
it measures exactly that source tree. One process, one thread, one closed-loop
client. Untraced runs (`--trace 0`) report the end-to-end metrics; traced runs
(`--trace 1`) run set-up and round 0 with every step once untraced and once
traced, and report the per-layer metrics. Metric names and units come from
`BENCHMARK.json`. Untraced timings are in reference seconds: a reference
computation sampled all through the run measures the machine's speed, and
each operation's time is scaled by it (see `refclock.py`). The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the line before it, starting with `# info`, carries
the stamp, sample counts, wall-clock medians and output digest. Results, with
every timing sample, and spans are also written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from refclock import RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 9

# operation kind each timing metric is a statistic of; the others are round-0 sums
SAMPLE_KIND = {
    "setup_s": "setup",
    "solve_s.p50": "solve",
    "solves_per_s": "solve",
    "oracle_s.p50": "oracle",
    "oracle_s.p90": "oracle",
    "grow_s.p50": "grow",
    "gen_s.p50": "gen",
}


def import_package():
    """Import besforge from this checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "besforge" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import besforge

    if Path(besforge.__file__).resolve().parent != (src / "besforge").resolve():
        return None
    return besforge


def stamp(args, pkg_dir):
    """Commit (when the checkout is a git repository), source digest, platform."""
    commit = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        head = (git / "HEAD").read_text().strip()
        commit = head
        if head.startswith("ref: "):
            ref = head[5:]
            commit = None
            if (git / ref).is_file():
                commit = (git / ref).read_text().strip()
            elif (git / "packed-refs").is_file():
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
    src = hashlib.sha256()
    for path in sorted(pkg_dir.glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end(t, q):
    """The end-to-end metrics from seconds per call by kind and quality sums."""
    t = {kind: t.get(kind, []) for kind in set(SAMPLE_KIND.values())}

    def med(kind):
        return statistics.median(t[kind]) if t[kind] else 0.0

    return {
        "setup_s": med("setup"),
        "solve_s.p50": med("solve"),
        "solves_per_s": len(t["solve"]) / sum(t["solve"]) if t["solve"] else 0.0,
        "span_sum": q["span_sum"],
        "flagged_ratio": q["flagged"] / q["solves"] if q["solves"] else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "oracle_s.p50": med("oracle"),
        "oracle_s.p90": p90(t["oracle"]) if t["oracle"] else 0.0,
        "oracle_gap": q["oracle_gap"],
        "grow_s.p50": med("grow"),
        "growth_t_sum": q["growth_t_sum"],
        "gen_s.p50": med("gen"),
    }


def measure(wl, args, clock):
    """Set up, then run whole rounds until --seconds is used, all while the
    reference clock samples the machine's speed. Further set-up repetitions
    are spread over round 0, so that setup_s, like every other median,
    samples the whole measured window."""
    from workloads import Run, interleave, require

    run = Run()
    with clock:
        state = run.op("setup", lambda: wl.setup(args.seed), lambda s: None)
        if state is None:
            return run, None

        def setup_again(run):
            run.op("setup", lambda: wl.setup(args.seed),
                   lambda again: require(again == state, "set-up is not deterministic"))

        start = perf_counter()
        round_times = []
        while True:
            run.round = len(round_times)
            t0 = perf_counter()
            steps = wl.steps(state, args.seed, run.round)
            if run.round == 0:
                steps = interleave(steps, [setup_again] * (SETUP_REPS - 1))
            for step in steps:
                step(run)
            round_times.append(perf_counter() - t0)
            if perf_counter() - start + statistics.mean(round_times) > args.seconds:
                break
    return run, len(round_times)


def measure_traced(wl, args, spans_path):
    """Run set-up and round 0 step by step, each step once untraced and once
    traced; per-layer metrics come from the traced spans, and the overhead is
    the difference of the two sums. A step's second run tends to be a little
    faster, so the side that goes first is the one that has so far spent less
    time going first."""
    from spans import SELF_TIME, Recorder, instrument
    from workloads import Run

    rec = Recorder()
    plain, traced = Run(), Run(rec)
    walls = {plain: 0.0, traced: 0.0}
    lead = {plain: 0.0, traced: 0.0}  # time each side spent going first

    def paired(step):
        first = traced if lead[plain] > lead[traced] else plain
        for run in (first, plain if first is traced else traced):
            undo = instrument(rec) if run is traced else None
            t0 = perf_counter()
            try:
                step(run)
            finally:
                dt = perf_counter() - t0
                walls[run] += dt
                if run is first:
                    lead[run] += dt
                if undo is not None:
                    undo()

    states = []
    paired(lambda run: states.append(run.op("setup", lambda: wl.setup(args.seed), lambda s: None)))
    if None in states:
        return [plain, traced], None
    for step in wl.steps(states[0], args.seed, 0):
        paired(step)

    rec.write(spans_path, rec.spans[0][4])
    layers, ops_total = rec.layer_metrics()
    accounted = sum(layers[m] for m in SELF_TIME)
    if abs(accounted - ops_total) > 1e-6 * max(1.0, ops_total):
        traced.fail("trace", RuntimeError(f"layer self times sum to {accounted}, operations to {ops_total}"))
    if plain.digest.hexdigest() != traced.digest.hexdigest():
        traced.fail("trace", RuntimeError("traced outputs differ from untraced outputs"))
    layers["trace.overhead_s"] = walls[traced] - walls[plain]
    layers["fail_ratio"] = (plain.failed + traced.failed) / (plain.attempted + traced.attempted)
    return [plain, traced], layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    besforge = import_package()
    if besforge is None:
        print(f"error: no besforge package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        runs, metrics = measure_traced(wl, args, out_dir / f"spans-{tag}.jsonl")
        rounds, seconds = 1, runs[-1].seconds()
    else:
        clock = RefClock()
        run, rounds = measure(wl, args, clock)
        runs = [run]
        seconds = run.seconds(clock)
        metrics = end_to_end(seconds, run.quality) if rounds else None
    if metrics is None:
        for run in runs:
            for line in run.failures:
                print(f"setup failed: {line}", file=sys.stderr)
        print("error: set-up failed; no result", file=sys.stderr)
        return 1

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    info = stamp(args, Path(besforge.__file__).resolve().parent)
    info["rounds"] = rounds
    info["samples"] = {kind: len(v) for kind, v in sorted(seconds.items())}
    if not args.trace:
        walls = runs[-1].seconds()
        info["wall_s.p50"] = {kind: statistics.median(v) for kind, v in sorted(walls.items())}
        info["reference_s"] = statistics.quantiles(clock.refs, n=4)
    info["round0_solves"] = runs[-1].quality["solves"]
    info["outputs_sha256"] = runs[-1].digest.hexdigest()
    info["failures"] = [line for r in runs for line in r.failures]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"info": info, **result, "samples_s": seconds}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, m in result["metrics"].items():
        kind = None if args.trace else SAMPLE_KIND.get(name)
        samples = f"n={info['samples'].get(kind, 0)}" if kind else ""
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']:6s} {samples}")
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
