"""Benchmark glf's sentence -> models pipeline on one seeded workload.

    python3 perfbench/run.py --workload coordination --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; glf is imported from its `src/`. One
process, one thread. After the oracles' self-check and an untimed warm-up
pass that also checks every parse tree, whole passes over the workload's
sentences run until `--seconds` have gone by. Every operation's rendered
readings and models are checked against `oracle.py`. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` -- the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`. Details go to `perfbench/results/`.

Each operation's time is the median of its passes, each pass's time scaled
by the reference probe of `speed.py` measured around it, and set-up time
the median of loads spread over the run, scaled the same way.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLE_EVERY_S = 0.25  # a speed probe and a set-up sample between operations this often

STAGE_SPANS = ("earley.chart", "earley.parse", "theory.apply_view", "reduce.normalize",
               "terms.alpha_normal", "typecheck.check", "bridge.gate", "syntax.print",
               "tableau.init", "tableau.ground", "tableau.update", "tableau.extract")
LOAD_SPANS = ("loader.load", "modsys.parse_theory", "grammar.parse_grammar", "grammar.compile_cfg")
OP_COUNTERS = ("earley.tokens", "earley.trees", "theory.raw_nodes", "reduce.normal_nodes",
               "bridge.readings", "tableau.steps", "tableau.open_branches", "tableau.models")


def median_sum(per_op) -> float:
    """Sum over operations of each operation's median over passes."""
    return sum(statistics.median(xs) for xs in per_op if xs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "glf" / "__init__.py").is_file():
        print(f"error: no glf source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import selfcheck
    import speed
    import stages
    from glf.corpus import fragment_dir
    from glf.shell.loader import load_fragment
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    directory = fragment_dir(workload.fragment)
    tracer = stages.Tracer() if args.trace else None
    meter = speed.Speedometer()
    setups: list = []  # (start, ns) per load; with tracing, (start, ns per span, counts)

    def sample():
        meter.probe()
        start = time.perf_counter_ns()
        if tracer:
            tracer.begin(f"setup/{len(setups)}")
            fragment = stages.load_traced(directory, tracer)
            setups.append((start, tracer.times, tracer.counts))
        else:
            fragment = load_fragment(directory)
            setups.append((start, time.perf_counter_ns() - start))
        return fragment

    fragment = sample()
    last_sample = time.perf_counter()

    def between_ops():
        nonlocal last_sample
        if time.perf_counter() - last_sample >= SAMPLE_EVERY_S:
            sample()
            last_sample = time.perf_counter()

    selfcheck_failures = selfcheck.run(fragment_dir)
    run = stages.Run(workload, fragment, between_ops)

    def plain(op, text, state):
        outcome, construct_ns, analyze_ns, total_ns = stages.run_plain(fragment, text, state)
        return outcome, (construct_ns, analyze_ns, total_ns)

    def traced(op, text, state):
        tracer.begin(op)
        t0 = time.perf_counter_ns()
        outcome = stages.run_traced(fragment, text, state, tracer)
        wall = time.perf_counter_ns() - t0
        return outcome, (wall - tracer.side_ns, tracer.side_ns, tracer.times, tracer.counts)

    run.one_pass(plain, check_trees=True)  # warm-up, untimed
    plain_passes, traced_passes = [], []
    start = time.perf_counter()
    while not plain_passes or (tracer and not traced_passes) or time.perf_counter() - start < args.seconds:
        plain_passes.append(run.one_pass(plain))
        if tracer:
            traced_passes.append(run.one_pass(traced))

    meter.probe()

    def per_op(passes, pick):
        """Per operation, the scaled seconds `pick` takes from each pass's measurements."""
        return [[meter.scale(pick(p[i][1]), p[i][0]) for p in passes if p[i] is not None]
                for i in range(len(run.ops))]

    totals = per_op(plain_passes, lambda m: m[2])
    metrics: dict[str, tuple[float, str]] = {}
    if not tracer:
        timed = sum(1 for xs in totals if xs)  # every operation, unless some raised every time

        def rate(pick) -> float:
            return timed / median_sum(per_op(plain_passes, pick)) if timed else 0.0

        metrics["setup_s"] = (statistics.median(meter.scale(ns, t) for t, ns in setups), "s")
        metrics["construct_per_s"] = (rate(lambda m: m[0]), "sentences/s")
        metrics["analyze_per_s"] = (rate(lambda m: m[1]), "sentences/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        for name in LOAD_SPANS:
            ms = statistics.median(meter.scale(times[name], t) for t, times, _ in setups) * 1e3
            metrics[f"{name}_ms"] = (ms, "ms")
        metrics["grammar.cfg_productions"] = (setups[0][2]["grammar.cfg_productions"], "count")
        for name in STAGE_SPANS:
            ms = median_sum(per_op(traced_passes, lambda m: m[2].get(name, 0))) * 1e3
            metrics[f"{name}_ms"] = (ms, "ms")
        # Counts repeat exactly from pass to pass; the first traced pass has them.
        counts = {name: sum(m[1][3].get(name, 0) for m in traced_passes[0] if m)
                  for name in OP_COUNTERS}
        for name in OP_COUNTERS:
            metrics[name] = (counts[name], "count")
        metrics["bridge.readings_per_tree"] = (counts["bridge.readings"] / max(counts["earley.trees"], 1), "ratio")
        metrics["tableau.models_per_branch"] = (
            counts["tableau.models"] / max(counts["tableau.open_branches"], 1), "ratio")
        traced_total = median_sum(per_op(traced_passes, lambda m: m[0]))
        metrics["trace.overhead_ms"] = ((traced_total - median_sum(totals)) * 1e3, "ms")
        metrics["trace.side_calls_ms"] = (median_sum(per_op(traced_passes, lambda m: m[1])) * 1e3, "ms")

    result = {
        "correct": not run.wrong and not selfcheck_failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    by_size: dict[str, float] = {}
    for (_, _, sentence), xs in zip(run.ops, totals):
        by_size[sentence.size] = by_size.get(sentence.size, 0) + (statistics.median(xs) if xs else 0)
    details = dict(
        result, workload=args.workload, seed=args.seed, seconds=args.seconds,
        sentences=len(run.ops), plain_passes=len(plain_passes), traced_passes=len(traced_passes),
        setup_samples=len(setups), probe_ms=[round(ns / 1e6, 3) for ns in meter.took],
        pass_seconds=[round(sum(m[1][2] for m in p if m) / 1e9, 4) for p in plain_passes],
        size_shares={size: round(t / (sum(by_size.values()) or 1), 4) for size, t in by_size.items()},
        wrong=run.wrong[:20], errors=run.errors[:20], selfcheck_failures=selfcheck_failures,
    )
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(details, indent=1, ensure_ascii=False) + "\n")
    if tracer:
        tracer.write(out_dir / f"{stem}.trace.jsonl")
    for line in (run.wrong + run.errors)[:10] + selfcheck_failures:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
