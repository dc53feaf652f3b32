#!/usr/bin/env python3
"""Benchmark of the patternconv system, end to end and per layer.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload curate_pool --seed 0 --seconds 35 --trace 1
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 0

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer metrics from traced rounds. `all` runs every workload, each in
a fresh process. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it are a
human-readable summary. Inputs, outputs, the result file (with the
environment stamp) and the span file go under `.perfbench_work/` in the
repository root. See perfbench/BENCHMARK.md.
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

# numpy (and so the package) is imported only in run_one, after the BLAS and
# OpenMP thread counts are fixed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("pipeline", "curate_pool", "score_explain")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 7


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def git_stamp() -> dict:
    """Commit and dirty flag of the checkout, or None outside a git work tree
    (the search stops at the checkout's root)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode != 0:
            return {"git_commit": None, "git_dirty": None}
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                                env=env, capture_output=True, text=True, timeout=30)
        return {"git_commit": head.stdout.strip(), "git_dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}


def environment() -> dict:
    import numpy as np
    from patternconv import kernels

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "kernel_path": "numba" if kernels.USE_NUMBA else "numpy",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}, **git_stamp()}


def import_seconds(clock) -> float:
    """Median time to import the package in a fresh interpreter, scaled to
    the reference host's speed."""
    code = ("import time; t = time.perf_counter(); import patternconv.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)

    def one_import() -> float:
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True, cwd=ROOT)
        return float(out.stdout.strip())

    timed = [clock.time(one_import) for _ in range(IMPORT_REPEATS)]
    # the child's own import time, scaled by the probes taken meanwhile
    return statistics.median(took * scaled / wall for took, wall, scaled in timed)


def percentile(values: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def traced_layers(b, chain_s: float) -> dict:
    """Per-layer metrics of the traced rounds, with the tracing overhead
    measured (traced against untraced rounds) and estimated (spans times the
    cost of one span)."""
    import tracer

    layers = tracer.layer_metrics(b.tracer, len(b.chain_traced))
    traced_s = statistics.median(b.chain_traced)
    span_cost_us = tracer.span_cost_s() * 1e6
    layers.update({
        "trace.iteration_s": traced_s,
        "trace.untraced_iteration_s": chain_s,
        "trace.untraced_iteration_wall_s": statistics.median(b.chain_wall),
        "host.probe_ms": statistics.median(b.clock.probes) * 1e3,
        "trace.overhead_frac": (traced_s - chain_s) / chain_s,
        "trace.span_cost_us": span_cost_us,
        "trace.est_overhead_frac": (layers["trace.chain_spans"] * span_cost_us * 1e-6
                                    / (chain_s * b.passes)),
        "trace.attributed_frac": layers["trace.root_s"] * len(b.chain_traced) / b.traced_wall,
    })
    return layers


def run_one(args) -> int:
    # One BLAS/OpenMP thread: the kernels' matrices are small, and a second
    # thread gains nothing measurable while its spin-waits add jitter.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import patternconv
    if not os.path.abspath(patternconv.__file__).startswith(SRC + os.sep):
        print(f"error: patternconv was imported from {patternconv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads as wl

    spec = metric_spec()
    env = environment()
    # one work directory per workload, emptied by each run, bounds the disk used
    work = wl.fresh_dir(os.path.join(WORK, args.workload))
    b = wl.Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    import_s = import_seconds(b.clock)
    prepare, setup, run = {
        "pipeline": (lambda b: {}, lambda b, f: 0.0, wl.run_pipeline),
        "curate_pool": (wl.prepare_curate_pool, wl.setup_curate_pool, wl.run_curate_pool),
        "score_explain": (wl.prepare_score_explain, wl.setup_score_explain,
                          wl.run_score_explain),
    }[args.workload]
    files = prepare(b)
    load_s = setup(b, files)
    run(b, files)

    chain_s = statistics.median(b.chain)
    b.check(b.kappa is not None, "bank kappa is undefined")
    # explanation latencies come from untraced calls only
    layers = {"analysis.explain.p50_ms": percentile(b.explain_ms, 50),
              "analysis.explain.p99_ms": percentile(b.explain_ms, 99),
              "analysis.explain.samples": len(b.explain_ms),
              "quality.bank_test_kappa": b.kappa if b.kappa is not None else 0.0}
    summary = {
        "rounds": b.rounds, "import_s": import_s, "load_s": load_s, "chain_n": len(b.chain),
        "chain_wall_s": statistics.median(b.chain_wall), "host_speed": b.clock.speed(),
        "funnel": b.funnel, "bank_test_kappa": b.kappa,
        **{k: statistics.median(v) for k, v in b.stages.items()},
        **{k: v for k, v in layers.items() if k.startswith("analysis.explain") and b.explain_ms},
        "failed_frac": b.failed / b.attempted,
    }
    if args.workload == "score_explain":
        summary["score_clips_per_s"] = len(files["dataset"]) / chain_s
    if args.trace:
        layers.update(traced_layers(b, chain_s))
        b.tracer.save(os.path.join(WORK, f"trace-{args.workload}.npz"))
        values, names = layers, spec["per_layer"]
    else:
        values = {"setup_s": import_s + load_s, "chain_s": chain_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        names = spec["end_to_end"]
    metrics = {n: {"value": float(values[n]), "unit": u} for n, u in names.items()}
    result = {"correct": b.failed == 0, "attempted": b.attempted, "failed": b.failed,
              "metrics": metrics}

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "env": env, "summary": summary, "result": result,
                   "all_layers": layers if args.trace else {}, "rounds_s": {"untraced": b.chain, "traced": b.chain_traced},
                   "failures": b.failures[:50]}, fh, indent=1)
    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(summary)}")
    for failure in b.failures[:10]:
        print(f"# FAILED {failure}")
    for n, m in metrics.items():
        print(f"# {n} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{w}.{n}": m for n, m in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for required in (os.path.join(SRC, "patternconv", "__init__.py"),
                     os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.isfile(required):
            print(f"error: {required} is missing; run from a full checkout", file=sys.stderr)
            return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
