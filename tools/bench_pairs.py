"""Run perfbench in alternating parent/change pairs and write BENCH_<workload>.json.

    python3 tools/bench_pairs.py --workload train_llm --parent <commit> [--pairs 10]

The parent side is a clean export (git archive) of --parent; the change
side is this working tree. Both run their own, unmodified perfbench/run.py
with --trace 0 for BENCHMARK.json's run_seconds. Pair k runs seed
SEEDS[k % 3] on both sides, and the side that runs first alternates. The
summary holds, per end-to-end metric named in BENCHMARK.json, each side's
median and quartiles (inclusive method), the number of pairs the change won,
the ratio of the medians (null when the parent's median is 0), and three
verdicts:

- worse_beyond_bound: the change's median is worse than the parent's by more
  than the metric's bound, as a fraction of the parent's median.
- gain_shown: the change was better in at least 9 of every 10 pairs, and its
  median is better than the parent's by more than the parent's quartile
  spread (q3 - q1).
- unresolved: the parent's quartile spread exceeds the metric's bound times
  the parent's median, and not every change run beats every parent run. The
  runs then spread too widely to tell the two sides apart.

failed_share holds, per side, the share of operations that failed: the sum
of failed over the sum of attempted, over all that side's runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True,
                          env=env).stdout.strip()


def export(commit: str, into: Path) -> Path:
    """The files of commit, as git archive writes them, under into/<commit>."""
    tree = into / commit
    tree.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, "git archive")
    return tree


def src_tree_id(scratch: Path) -> str:
    """Git tree id of the working tree's src/, uncommitted edits included."""
    env = {**os.environ, "GIT_INDEX_FILE": str(scratch / "index")}
    git("add", "-A", "--", "src", env=env)
    return git("write-tree", "--prefix=src/", env=env)


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """run.py's JSON result line; a run that printed none counts as failed checks."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(proc.stderr, file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "exit_code": proc.returncode}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def spread(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "n": len(values)}


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        both = [p for p in pairs if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if len(both) < 2:
            continue
        parent = [p["parent"]["metrics"][name]["value"] for p in both]
        change = [p["change"]["metrics"][name]["value"] for p in both]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        beats_all = min(change) > max(parent) if higher else max(change) < min(parent)
        (q1, parent_median, q3), change_median = quartiles(parent), statistics.median(change)
        gain = change_median - parent_median if higher else parent_median - change_median
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": spread(parent),
            "change": spread(change),
            "change_better_pairs": wins,
            "change_over_parent_median": round(change_median / parent_median, 4) if parent_median else None,
            "worse_beyond_bound": -gain > metric["bound"] * abs(parent_median),
            "gain_shown": 10 * wins >= 9 * len(both) and gain > q3 - q1,
            "unresolved": q3 - q1 > metric["bound"] * abs(parent_median) and not beats_all,
        }
    return summary


def failed_share(pairs: list[dict], side: str) -> float:
    """Failed operations over attempted ones, summed over the side's runs."""
    attempted = sum(p[side]["attempted"] for p in pairs)
    return sum(p[side]["failed"] for p in pairs) / attempted if attempted else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="commit to measure as the parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--note", default="", help="host note for the record")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parent_commit = git("rev-parse", args.parent)
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        scratch = Path(tmp)
        parent_tree = export(parent_commit, scratch)
        change = {"tree": "working tree", "head": git("rev-parse", "HEAD"), "src_tree": src_tree_id(scratch)}
        for k in range(args.pairs):
            seed = SEEDS[k % len(SEEDS)]
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            result = {}
            for side in order:
                result[side] = run_side(parent_tree if side == "parent" else ROOT, args.workload, seed, seconds)
            pairs.append({"pair": k, "seed": seed, "ran_first": order[0],
                          "parent": result["parent"], "change": result["change"]})
            ops = [result[s]["metrics"].get("ops_per_s", {}).get("value", float("nan")) for s in ("parent", "change")]
            print(f"pair {k} seed {seed}: ops_per_s parent {ops[0]:.3f} change {ops[1]:.3f}", flush=True)

    doc = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed <seed> --seconds {seconds:g} --trace 0",
        "seconds": seconds,
        "seeds": list(SEEDS),
        "seed_rule": f"pair k runs seed k % {len(SEEDS)} on both sides; the side that runs first alternates",
        "host": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "note": args.note,
        },
        "parent_commit": parent_commit,
        "change": change,
        "all_checks_passed": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
        "failed_share": {s: failed_share(pairs, s) for s in ("parent", "change")},
        "summary": summarise(pairs, bench["end_to_end"]),
        "pairs": pairs,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, s in doc["summary"].items():
        print(f"{name}: parent {s['parent']['median']} change {s['change']['median']} "
              f"(x{s['change_over_parent_median']}, change better in {s['change_better_pairs']}/{len(pairs)}; "
              f"worse beyond bound: {s['worse_beyond_bound']}, gain shown: {s['gain_shown']}, "
              f"unresolved: {s['unresolved']})")
    print(f"failed share: parent {doc['failed_share']['parent']:.4f} change {doc['failed_share']['change']:.4f}")
    print(f"wrote {out}")
    return 0 if doc["all_checks_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
