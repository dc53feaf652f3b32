#!/usr/bin/env python3
"""Alternating A/B pairs of the end-to-end benchmark: a git ref against the
working tree.

    python benchmarks/ab_pairs.py --workload pipeline --pairs 10 --seconds 30
    python benchmarks/ab_pairs.py --workload curate_pool --ref HEAD~1 --pairs 5

The base side is a temporary `git worktree` of `--ref` (default HEAD), made
under `.perfbench_work/` and removed at the end; the change side is the
working tree, uncommitted edits included. Each pair runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once in each
tree, one after the other, the base first in even pairs and the change first
in odd ones, so a slow or fast phase of the host falls on both sides. For
each end-to-end metric of BENCHMARK.json it prints the median and quartiles
of each side, the change in the median, the gap against the base's
interquartile range, and the pairs in which the change was better. Every
run's result line is saved to `.perfbench_work/ab_pairs/<W>-seed<S>.json`.
Nothing is fetched over the network; the worktree is made from the local
repository.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("pipeline", "curate_pool", "score_explain")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), interpolated as
    numpy.percentile does."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs: list[dict], spec: list[dict]) -> list[str]:
    """Report lines for pairs `runs`, each {"base": result, "change": result}
    with perfbench's result objects, over the end-to-end metrics `spec`."""
    lines = []
    for side in ("base", "change"):
        failed = sum(run[side]["failed"] for run in runs)
        attempted = sum(run[side]["attempted"] for run in runs)
        correct = sum(run[side]["correct"] for run in runs)
        lines.append(f"{side}: {correct}/{len(runs)} runs correct, "
                     f"{failed} of {attempted} operations failed")
    for metric in spec:
        name, unit, lower = metric["name"], metric["unit"], metric["better"] == "lower"
        base = [run["base"]["metrics"][name]["value"] for run in runs]
        change = [run["change"]["metrics"][name]["value"] for run in runs]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        rel = (cmed - bmed) / bmed * 100 if bmed else float("nan")
        lines.append(f"{name}: base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}] -> change {cmed:.6g} "
                     f"[{cq1:.6g}, {cq3:.6g}] {unit} ({rel:+.1f}%); median gap "
                     f"{abs(cmed - bmed):.3g} against the base IQR {bq3 - bq1:.3g}; "
                     f"change {'lower' if lower else 'higher'} in {wins}/{len(runs)} pairs")
    return lines


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's result object of one untraced run in checkout `tree`."""
    proc = subprocess.run([sys.executable, os.path.join(tree, "perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed), "--seconds",
                           str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {tree} (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--ref", default="HEAD", help="git ref of the base side")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["end_to_end"]

    commit = git("rev-parse", "--verify", args.ref + "^{commit}")
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="ab-worktree-", dir=WORK)
    base_tree = os.path.join(tmp, "tree")
    runs = []
    try:
        git("worktree", "add", "--detach", base_tree, commit)
        trees = {"base": base_tree, "change": ROOT}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {side: run_bench(trees[side], args.workload, args.seed, args.seconds)
                    for side in order}
            runs.append(pair)
            print(f"pair {i + 1}/{args.pairs}: chain_s " + ", ".join(
                f"{side} {pair[side]['metrics']['chain_s']['value']:.6g}"
                for side in ("base", "change")), flush=True)
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", base_tree],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"], capture_output=True)

    out_dir = os.path.join(WORK, "ab_pairs")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "base_ref": args.ref, "base_commit": commit, "runs": runs}, fh, indent=1)
    print(f"{args.workload} seed {args.seed}, {args.pairs} alternating pairs of "
          f"{args.seconds:g} s runs; base {args.ref} ({commit[:7]}), change the working tree")
    print("\n".join(summarize(runs, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
