"""qnav benchmark: one seeded workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload eval_llm --seed 0 --seconds 15 --trace 0

Run from the root of a qnav source tree; the package is imported from src/.
The LLM workloads' stub endpoint starts once per run, before anything is
timed. --trace 0 sets the workload up several times (setup_s is the
median), then repeats its unit until --seconds have passed, and reports the
end-to-end metrics as medians over units. --trace 1 runs one unit plain and
one under the tracer, reports the per-layer metrics of the traced one, and
writes its spans to perfbench/out/trace-<workload>.jsonl. Both check every
unit's outputs, print the workload's own metrics first, and print a JSON
result as the last line; the exit code is 1 if a check failed. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 0.5  # cheap set-ups repeat until this much time is spent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["synth_train", "eval_llm", "train_llm", "mine_llm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_workloads():
    """Import the benchmark modules against the qnav sources of this tree."""
    if not (SRC / "qnav" / "__init__.py").is_file():
        sys.exit(f"error: no qnav sources at {SRC}; run from the root of a qnav checkout")
    sys.path.insert(0, str(SRC))
    # The stub listens on loopback; a proxy from the environment must not intercept it.
    os.environ["no_proxy"] = ",".join(filter(None, [os.environ.get("no_proxy"), "127.0.0.1"]))
    import qnav
    import workloads

    if Path(qnav.__file__).resolve().parent != SRC / "qnav":
        sys.exit(f"error: imported qnav from {qnav.__file__}, not from {SRC}")
    # Malformed stub replies are deliberate; their warnings are not news.
    logging.getLogger("qnav").setLevel(logging.ERROR)
    return workloads


def set_up(make, seed, stub):
    """Build the workload repeatedly; return the last instance and the median time."""
    times, started, instance = [], time.perf_counter(), None
    while len(times) < SETUP_MIN_REPEATS or time.perf_counter() - started < SETUP_MIN_SECONDS:
        if instance is not None:
            instance.close()
        t0 = time.perf_counter()
        instance = make(seed, stub)
        times.append(time.perf_counter() - t0)
    return instance, statistics.median(times)


def run_units(instance, seconds):
    """Repeat the unit, at least twice, for about `seconds`."""
    units, started = [], time.perf_counter()
    while True:
        units.append(instance.run_unit())
        elapsed = time.perf_counter() - started
        if len(units) >= 2 and elapsed + 0.5 * elapsed / len(units) >= seconds:
            return units


def end_to_end(workloads, make, args, stub):
    instance, setup_s = set_up(make, args.seed, stub)
    try:
        units = run_units(instance, args.seconds)
    finally:
        instance.close()
    # Client CPU per op swings with the host's load far more than wall time
    # does, so it is printed but not a gated metric.
    print(f"{args.workload} cpu_ms_per_op = {statistics.median(u.cpu_s * 1e3 / u.ops for u in units):.6g} ms")
    return units, {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_per_s": (statistics.median(u.ops / u.wall_s for u in units), "1/s"),
    }


def per_layer(workloads, make, args, stub):
    from tracing import Tracer

    instance = make(args.seed, stub)
    try:
        plain = instance.run_unit()
        tracer = Tracer()
        traced = instance.run_unit(tracer)
    finally:
        instance.close()
    # Block shares describe the policy's mix, which no speed change should
    # move, so they are printed for reference and not reported as metrics.
    show(args.workload, tracer.block_shares())
    out = tracer.metrics(traced.wall_s, traced.stub_stats)
    out["trace.overhead_frac"] = (traced.wall_s / plain.wall_s, "ratio")
    tracer.write(HERE / "out" / f"trace-{args.workload}.jsonl")
    return [plain, traced], out


def show(workload, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    make = workloads.WORKLOADS[args.workload]
    make.prepare()
    stub = workloads.Stub(args.seed) if make.needs_stub else None
    try:
        units, out = (per_layer if args.trace else end_to_end)(workloads, make, args, stub)
    finally:
        if stub is not None:
            stub.close()

    problems: list[str] = []
    for i, u in enumerate(units):
        problems += [f"unit {i}: {p}" for p in u.problems]
        if u.failed:
            # The stub never fails a call for good, so nothing should abort.
            problems.append(f"unit {i}: {u.failed} of {u.attempted} operations failed")
        if u.fingerprint != units[0].fingerprint:
            problems.append(f"unit {i}: outputs differ from unit 0")
    plain = units[:1] if args.trace else units  # rates from untraced units only
    info = {name: (statistics.median(u.info[name][0] for u in plain) if name.endswith("_per_s") else value, unit)
            for name, (value, unit) in units[0].info.items()}
    show(args.workload, info)
    show(args.workload, out)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{args.workload}: {len(units)} units, {units[0].ops} {make.op}s each, "
          f"{'all checks passed' if not problems else f'{len(problems)} checks failed'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
