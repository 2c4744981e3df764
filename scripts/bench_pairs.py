#!/usr/bin/env python3
"""Alternating perfbench pairs of two revisions, summarized for a speed claim.

Exports --parent and --change with `git archive` to two sibling directories
whose paths have the same length (the serialize.*_json.bytes counters depend
on the length of the checkout's path), then runs

    perfbench/run.py --workload W --seed S --seconds T --trace 0

in each export, --pairs times, alternating which side runs first.  Each run
starts in a fresh process and reads its own tree's perfbench and sources.

Writes the per-pair end-to-end values to --out under workloads[W], with each
side's median and quartiles, the number of pairs the change wins, the failed
operations against all attempted, and a verdict per metric.  An existing
--out keeps its other workloads, so the rows of several workloads share one
file.  The verdicts, in this order:

    gain              the change is better in at least nine tenths of the
                      pairs (ties count for neither side) and its median is
                      better than the parent's by more than the parent's
                      interquartile range;
    worse than bound  the change's median is worse than the parent's by more
                      than the metric's bound in BENCHMARK.json;
    unresolved        the parent's interquartile range is wider than that
                      bound, and not every run of the change is better than
                      every run of the parent;
    within bound      otherwise.

The exports are removed at the end, and every run ends before the script
does.

Usage: python scripts/bench_pairs.py --parent REV --change REV --workload W
           [--pairs N] [--seed S] [--seconds T] --out FILE
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 3600


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(rev: str, dest: Path):
    """The files of rev, as committed, under dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in tree: its end-to-end values and counts."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"perfbench in {tree.name} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
    return {**values, "attempted": result["attempted"], "failed": result["failed"]}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, wins and the verdict of one metric over the pairs."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    (p_q1, p_q3), (c_q1, c_q3) = quartiles(parent), quartiles(change)
    iqr = p_q3 - p_q1
    if wins >= 0.9 * len(parent) and sign * (p_med - c_med) > iqr:
        verdict = "gain"
    elif sign * (c_med - p_med) > bound * p_med:
        verdict = "worse than bound"
    elif iqr > bound * p_med and not all(sign * (p - c) > 0 for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent_median": round(p_med, 4),
        "change_median": round(c_med, 4),
        "parent_quartiles": [round(p_q1, 4), round(p_q3, 4)],
        "change_quartiles": [round(c_q1, 4), round(c_q3, 4)],
        "parent_iqr": round(iqr, 4),
        f"change_{better}_in": f"{wins} of {len(parent)}",
        "delta_pct": round(100.0 * (c_med - p_med) / p_med, 2) if p_med else None,
        "bound_pct": round(100.0 * bound, 2),
        "verdict": verdict,
    }


def host() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    commits = {
        side: git("rev-parse", "--short", f"{rev}^{{commit}}").decode().strip()
        for side, rev in (("parent", args.parent), ("change", args.change))
    }

    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {"parent": scratch / "parent", "change": scratch / "change"}
        for side, tree in trees.items():
            export(commits[side], tree)
        pairs = []
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": args.seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], args.workload, args.seed, args.seconds)
            pairs.append(pair)
            print(json.dumps(pair), flush=True)
        metrics = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    except (subprocess.CalledProcessError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = {
        m["name"]: summarize([p["parent"][m["name"]] for p in pairs],
                             [p["change"][m["name"]] for p in pairs], m["better"], m["bound"])
        for m in metrics
    }
    summary["failed"] = {
        side: f"{sum(p[side]['failed'] for p in pairs)} of {sum(p[side]['attempted'] for p in pairs)}"
        for side in ("parent", "change")
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["what"] = (
        "perfbench/run.py --trace 0, alternating pairs of the parent and the change, each side "
        "run from a git archive export of its tree at paths of equal length; 'first' names the "
        "side that ran first. Written by scripts/bench_pairs.py."
    )
    doc["host"] = host()
    doc.setdefault("workloads", {})[args.workload] = {
        "parent": commits["parent"], "change": commits["change"],
        "seed": args.seed, "seconds": args.seconds, "pairs": pairs, "summary": summary,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, row in summary.items():
        print(f"{args.workload} {name}: {json.dumps(row)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
