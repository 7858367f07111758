"""cfotfs benchmark.

One caller drives the library through its public functions in a closed
loop: each operation starts after the previous one returns. Run from the
repository root:

    python3 bench/run.py --workload paper-40x20 --seed 1 --seconds 35 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
runs the same loop with spans around every layer and reports the
per-layer metrics instead. Outputs are checked in both modes. Human
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOADS = ["paper-40x20", "distinct-50x40-corr", "oracle-16x8"]
# BLAS and OpenMP run on one thread: with default threads the eigh of the
# correlated shadowing field made distinct-50x40-corr swing by about 40%
# between repetitions.
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
# Set-up is timed in this many fresh processes plus this one.
SETUP_PROBES = 6
TAIL_BEYOND = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time set-up and print it (used internally)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(args):
    """Import cfotfs, build the workload's inputs and run one untimed
    warm-up operation. Returns (workload, seconds taken, warm-up output)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and cfotfs
    import cfotfs
    if not Path(cfotfs.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported cfotfs from {cfotfs.__file__}, "
                         f"not from {SRC}")
    workload = workloads.make(args.workload, args.seed)
    warm = workload.run(0)
    return workload, time.perf_counter() - start, warm


def probe_set_up(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          env={**os.environ, **PINNED}, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop over operations 1, 2, ... until ``seconds`` elapse.
    Only operations that neither raise nor fail a check are timed."""
    durations, problems, failed, first = {}, [], 0, None
    index = 0
    start = end = time.perf_counter()
    while end < start + seconds:
        index += 1
        began = time.perf_counter()
        try:
            if tracer is None:
                output = workload.run(index)
            else:
                with tracer.operation(index, workload.root):
                    output = workload.run(index)
        except Exception as exc:  # a failed operation is counted, not fatal
            end = time.perf_counter()
            problems.append(f"op {index} raised {exc!r}")
            failed += 1
            continue
        end = time.perf_counter()
        found = workload.check(index, output)
        if found:
            problems += found
            failed += 1
            continue
        durations[index] = end - began
        first = first or (index, output)
    return {"durations": durations, "attempted": index, "failed": failed,
            "problems": problems, "elapsed": end - start, "first": first}


def tail(values: list):
    """Highest percentile with at least TAIL_BEYOND samples above it,
    i.e. the (TAIL_BEYOND + 1)-th largest sample, but never below the
    median (short runs). Returns (value, percentile, samples beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND - 1, n // 2)
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


def environment(args, ops: dict) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {name: os.environ.get(name) for name in PINNED},
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
    }


def end_to_end(workload, run: dict, setup_samples: list) -> dict:
    durations = list(run["durations"].values())
    tail_s, tail_pct, beyond = tail(durations)
    units = "realizations" if workload.units_per_op == 1 else "oracle trials"
    return {
        "ops_per_s": (len(durations) * workload.units_per_op / run["elapsed"],
                      "1/s", f"{units} per second"),
        "op_s.p50": (statistics.median(durations), "s",
                     f"median time per operation, {len(durations)} operations"),
        "op_s.tail": (tail_s, "s", f"p{tail_pct:.1f}, {beyond} samples "
                      f"beyond it, {len(durations)} in all"),
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of {len(setup_samples)} fresh processes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", "this process, set-up included"),
    }


def per_layer(workload, run: dict, tracer, span_cost: float) -> dict:
    import workloads
    table, covered = tracer.per_op()
    ops = sorted(run["durations"])

    def median_of(name, column):
        return statistics.median(table[op][name][column]
                                 if name in table[op] else 0 for op in ops)

    metrics = {}
    for name in workloads.REPORTED:
        suffix = ".self_s" if name in workloads.SELF_TIMED else ".s"
        metrics[name + suffix] = (median_of(name, 2), "s",
                                  "median per operation")
        metrics[name + ".calls"] = (median_of(name, 0), "count",
                                    "median per operation")
    if workload.static_counts:  # counted on the fixed instance
        counts = workload.static_counts
    else:  # counted at the sample_all_paths boundary, per operation
        counts = {}
        for (op, key), value in tracer.counts.items():
            if op in run["durations"]:
                counts[key] = counts.get(key, 0) + value
        counts = {key: total / len(ops) for key, total in counts.items()}
    pairs = counts.get("pairs", 0)
    metrics["channel.links"] = (counts.get("links", 0), "count",
                                "AP-user links per operation")
    metrics["operators.same_delay_pair_share"] = (
        counts.get("same_delay_pairs", 0) / pairs if pairs else 0.0, "share",
        "off-diagonal path pairs that share a delay tap")
    metrics["montecarlo.dense_bytes"] = (
        counts.get("dense_bytes", 0), "bytes_computed",
        "operator stacks plus one trial batch, from array shapes")
    summary = workload.summary()
    for term in workloads.TERMS:
        metrics[f"montecarlo.term_z.{term}"] = (
            summary.get(f"term_z.{term}", 0.0), "z",
            "worst |z| against rate.closed_form_terms (not a failure)")
    metrics["montecarlo.terms_outside_3se"] = (
        summary.get("terms_outside_3se", 0), "count",
        "(user, bin, term) cells beyond 3 standard errors (not a failure)")
    roots = [table[op][workload.root][1] for op in ops]
    metrics["trace.coverage_share"] = (
        statistics.median(covered[op] / root for op, root in zip(ops, roots)),
        "share", "operation time covered by the traced layers")
    spans_per_op = [sum(row[0] for row in table[op].values()) for op in ops]
    metrics["trace.overhead_share"] = (
        statistics.median(n * span_cost / root
                          for n, root in zip(spans_per_op, roots)), "share",
        f"spans per operation x measured span cost "
        f"{span_cost * 1e6:.2f} us, over operation time")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED)
    if not (SRC / "cfotfs" / "__init__.py").is_file():
        print(f"bench: no cfotfs sources at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(set_up(args)[1]))
        return 0

    # setup_s is an end-to-end metric, so traced runs skip the probes.
    # Half of them run after the timed loop, so that their median spans
    # more than one phase of load on a shared machine.
    probes = 0 if args.trace else SETUP_PROBES
    setup_samples = [probe_set_up(args) for _ in range(probes // 2)]
    workload, own_setup, warm = set_up(args)
    setup_samples.append(own_setup)

    problems = [f"warm-up: {p}" for p in workload.check(0, warm)]
    failed = 1 if problems else 0
    tracer, span_cost = None, 0.0
    if args.trace:
        import workloads
        span_cost = spans.span_cost_s()
        tracer = spans.Tracer()
        workloads.install_tracer(tracer)
    try:
        run = measure(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    problems += run["problems"]
    failed += run["failed"]
    attempted = 1 + run["attempted"]
    if run["first"] is not None:
        found = workload.final_checks(*run["first"])
        problems += found
        attempted += 1
        failed += 1 if found else 0
    workload.close()
    setup_samples += [probe_set_up(args) for _ in range(probes - probes // 2)]

    if not run["durations"]:
        problems.append("no operation completed")
        metrics = {}
    elif args.trace:
        metrics = per_layer(workload, run, tracer, span_cost)
    else:
        metrics = end_to_end(workload, run, setup_samples)

    ops = {"warm_up": 1, "timed": run["attempted"],
           "re_checked": attempted - 1 - run["attempted"],
           "setup_processes": len(setup_samples)}
    print(f"# cfotfs benchmark: {args.workload}")
    print("env " + json.dumps(environment(args, ops)))
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"{'failed_share':38s} {failed / attempted:<14.6g} share")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:38s} {value:<14.6g} {unit:14s} {note}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
