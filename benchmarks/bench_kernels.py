#!/usr/bin/env python3
"""Time the hot kernels: conv forward and backward over clip windows,
discrete first-window matching, and the curation passes (subsumption pruning
and filter harvesting) on seeded pattern pools.

Run with defaults (benchmark-sized shapes) or adjust via flags:

    python benchmarks/bench_kernels.py --clips 2000 --filters 64 --repeats 20

`clip_windows` pads the clips once and views them as the windows that both
the convolution and matching read. The convolution is one matrix multiply
each way, and matching is a float32 product of the windows, each with a
trailing 1, and the patterns, each with its minus cell count, thresholded at
0, one block of window rows at a time. Window building and first-window
matching are timed on the whole batch and on a single clip, the shape of
`explain`; `match_any` is timed on the steps of a single clip, the shape of
synth's candidate test in its rejection sampling.
`bank_predict_batch`, the bank scoring of `eval`, is timed over the batch
for banks of 7, 8, 131 and 132 sparse random patterns, and for the
7-pattern bank over as many 20-step clips, each row with the tracemalloc
peak of one call. `match_any` matches a narrow bank over short clips (7 and
8 patterns here) by clip rows: one GEMM row per clip against a cached
shift-stacked pattern matrix, in blocks of at most 2**17 products, so the
peak is one block's float32 clips and products. The wider banks and the
20-step clips are matched by window rows, in blocks of at most 4,096 window
rows and 2**17 row-by-pattern products, so the peak is the one zero-padded
uint8 copy of the clips that their windows view, (L + 2·padding)·d bytes a
clip, plus about 1 MB for a block.
`evalmetrics.evaluate` of the 7-pattern bank over the batch (a fifth of the
clips labelled positive) is timed as `eval` runs it: the scoring plus the
metrics report of its bool scores.
`trainer.eval_filter_precision` is timed over the batch at 64 and 2,048
random filters, the acceptance model's and the source paper's, each row
with the tracemalloc peak of one call: it counts each block's matches, so
the peak stays near one block at either count. The
curation pools default to 300 and 1,359 unique patterns; 1,359 is the
unique count of the source paper's funnel. The `prune_subsumed` row prints
the patterns it keeps and the tracemalloc peak of one call: pruning matches
the patterns over themselves as zero-padded clips, one block at a time, so
its peak beyond one block is the n x n dominance matrix, 1.8 MB at 1,359
patterns. The `rank+curve` row ranks the pool on the batch and draws
its kappa curve over the batch, with the tracemalloc peak of one call:
ranking counts each block's matched and positive clips, and the curve keeps
each clip's lowest matching rank, so neither holds a clips x patterns
matrix. `harvest+dedup` harvests 19
shuffled, jittered raw filters per pool pattern (a quarter pushed
off-binary, precisions uniform on [0, 1]; 25,821 filters at 1,359, about
the 25,981 the paper harvests) and deduplicates what it keeps.
`evalmetrics.auc` is timed on tie-heavy float scores and on bool scores, a
bank's, of the batch and of 100,000 clips, the clip count of a paper-scale
run. `corpus.load_dataset` is timed
on a file of the batch's clip count (legal unplanted synth clips) in the
canonical form that `write_dataset` writes, and on the same clips with
spaces after the separators, which the loader parses line by line as JSON.
One training step (forward with dropout, backward, the regularizer
gradient, then the SGD step and clamp) is timed at the training batch size
of 64 clips, or the batch if smaller, with alpha 1 as after the first era;
then two of its pieces alone: `bce` plus `bce_grad` on the step's outputs,
and `regularizer_grad` with every loss weight 0 and with every weight at its
schedule target.

Times are printed in microseconds. A host can run a whole process fast or
slow, by more than a single-clip row or a training step changes, so each
single-clip row (window building, first-window matching and `match_any` of
one clip) and each step row (the training step, `bce` plus `bce_grad`, and
both `regularizer_grad` rows) is the median over `ROW_PROCESSES` (5) short
processes, each reporting its best of `--repeats` calls; the row also prints
the quartiles over those processes. Every other row is the best of
`--repeats` calls in this process.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # One BLAS/OpenMP thread unless the caller sets one, set before numpy is
    # imported: with threads free the GEMM rows swing by up to 9x between runs
    # on a 2-CPU host.
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")

import numpy as np
from ab_pairs import quartiles  # this script's directory is on sys.path

import patternconv
from patternconv import corpus, curator, evalmetrics, kernels, netcore, objective, trainer
from patternconv.corpus import FeatureVocabulary
from patternconv.objective import LossWeights
from patternconv.schedule import DEFAULT_TARGETS


# banks on either side of a multiple of 4 patterns, the width the match
# GEMM's pattern matrix is padded to; 132 is the source paper's selected bank
BANK_SIZES = (7, 8, 131, 132)
# the clip length of the last bank row, long enough that its 7-pattern bank
# is matched by window rows
LONG_CLIP = 20
# raw filters per unique pattern in the harvest+dedup pool: the source
# paper's funnel harvests 25,981 filters of 1,359 unique patterns
RAW_PER_UNIQUE = 19
# fresh processes whose median each single-clip row and step row reports
ROW_PROCESSES = 5
# filters of the filter-precision rows: the acceptance model's and the
# source paper's
PRECISION_FILTERS = (64, 2048)


def _time(fn, *args, repeats=10):
    fn(*args)  # warm-up (caches)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _traced(fn, *args):
    """One call's result and its tracemalloc peak in MB. Called after a
    row's timing, which tracing would slow."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:>10.1f}us"


def kernel_inputs(args):
    """The seeded clips, windows, filters and patterns that the kernel rows
    time, and the generator that later rows draw from."""
    rng = np.random.default_rng(0)
    B, M, L, d, k = args.clips, args.filters, args.clip_length, args.features, args.kernel
    X = (rng.random((B, L, d)) < 0.25).astype(np.uint8)
    W = rng.random((M, k, d))
    cells = (rng.random((M, k, d)) < 0.2).astype(np.uint8)
    return rng, X, W, cells


def process_rows(args) -> dict:
    """{row name: best time in s} of the single-clip rows and the step rows,
    in this process."""
    _, X, _, cells = kernel_inputs(args)
    Xu = kernels.clip_windows(X, args.kernel, 1)
    rows = {name: _time(fn, *a, repeats=args.repeats)
            for name, fn, a in [("clip_windows", kernels.clip_windows, (X[:1], args.kernel, 1)),
                                ("match_first_window", kernels.match_first_window,
                                 (cells, Xu[:1])),
                                ("match_any", kernels.match_any, (cells, X[:1]))]}
    return rows | step_rows(X, args.filters, args.kernel, args.repeats)


def process_quartiles(argv: list[str]) -> dict:
    """{row name: (lower quartile, median, upper quartile)} of the rows of
    `process_rows` over ROW_PROCESSES fresh processes of this script."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(patternconv.__file__)),
         *filter(None, [os.environ.get("PYTHONPATH")])]))
    runs = [json.loads(subprocess.run([sys.executable, os.path.abspath(__file__),
                                       "--process-rows", *argv], env=env, capture_output=True,
                                      text=True, check=True).stdout)
            for _ in range(ROW_PROCESSES)]
    return {name: quartiles([run[name] for run in runs]) for name in runs[0]}


def _median_row(name: str, count, q: tuple, note: str = "") -> None:
    """Print a row of `process_quartiles`: its median and quartiles."""
    q1, median, q3 = q
    print(f"{name:<20} {count:>9} {_us(median)}  median of {ROW_PROCESSES} processes, "
          f"quartiles {q1 * 1e6:.1f}-{q3 * 1e6:.1f}us{note}")


def pattern_pool(n: int, k: int, vocab: FeatureVocabulary, rng) -> np.ndarray:
    """n unique legal patterns (n, k, d): sparse random patterns and one-cell
    extensions of earlier ones, so that pruning has subsumed pairs to find."""
    pool, seen = [], set()
    while len(pool) < n:
        if pool and rng.random() < 0.5:
            cells = pool[rng.integers(len(pool))].copy()
            cells[rng.integers(k), rng.integers(vocab.d)] = 1
        else:
            cells = (rng.random((k, vocab.d)) < 0.08).astype(np.uint8)
        if cells.tobytes() not in seen and curator.pattern_violation(cells, vocab) is None:
            seen.add(cells.tobytes())
            pool.append(cells)
    return np.stack(pool)


def bench_load(n: int, L: int, repeats: int) -> None:
    ds = corpus.synth_generate(FeatureVocabulary.default(), [], n, 0.0, 0.0, seed=n,
                               clip_length=L)
    with tempfile.TemporaryDirectory() as tmp:
        canonical, spaced = os.path.join(tmp, "canonical.jsonl"), os.path.join(tmp, "json.jsonl")
        corpus.write_dataset(ds, canonical)
        with open(canonical) as src, open(spaced, "w") as dst:
            dst.writelines(json.dumps(json.loads(line)) + "\n" for line in src)
        for form, path in (("canonical", canonical), ("json", spaced)):
            t = _time(corpus.load_dataset, path, repeats=repeats)
            print(f"{'load_dataset':<20} {n:>9} {_us(t)}  {form}")


def step_batch(X: np.ndarray) -> int:
    """The clips of a training step: the training batch size, or the batch
    if smaller."""
    return min(trainer.BATCH_SIZE, len(X))


def step_rows(X: np.ndarray, M: int, k: int, repeats: int) -> dict:
    """{row name: best time in s} of one training step and of two of its
    pieces: `bce` plus `bce_grad`, and `regularizer_grad` with its weights
    off and on."""
    vocab = FeatureVocabulary.default()
    B = step_batch(X)
    rng = np.random.default_rng(1)
    state = netcore.init_state(M, k, vocab.d, rng=rng)
    state.alpha = 1.0
    dropout = 0.2  # a rate inside the range trainer.anneal_at sweeps
    Xw = kernels.clip_windows(X[:B], k)
    labels = (rng.random(B) < 0.2).astype(np.float64)
    on = LossWeights(**{name: DEFAULT_TARGETS[name] for name in ("bin", "min", "sub", "poss")})

    def step():
        y, cache = netcore.forward_batch(state, Xw, dropout, rng)
        dW = netcore.backward_batch(state, cache, objective.bce_grad(y, labels) / B)["W"]
        dW += objective.regularizer_grad(state.W, on, vocab)
        dW *= trainer.LEARNING_RATE
        state.W -= dW
        np.maximum(0.0, state.W, out=state.W)
        np.minimum(state.W, 1.0, out=state.W)

    rows = {"train step": _time(step, repeats=repeats)}
    y = netcore.forward_batch(state, Xw, dropout, rng)[0]

    def bce_pair():
        objective.bce(y, labels)
        objective.bce_grad(y, labels)

    rows["bce+bce_grad"] = _time(bce_pair, repeats=repeats)
    for name, weights in (("off", LossWeights()), ("on", on)):
        rows[f"regularizer_grad {name}"] = _time(objective.regularizer_grad, state.W, weights,
                                                 vocab, repeats=repeats)
    return rows


def bench_curation(sizes, k: int, repeats: int, ds: corpus.Dataset) -> None:
    vocab = ds.vocabulary
    print(f"{'curation pass':<20} {'patterns':>9} {'time':>12} {'out':>7}")
    for n in sizes:
        rng = np.random.default_rng(n)
        cells = pattern_pool(n, k, vocab, rng)
        pats = [curator.Pattern(cells=c, pattern_id=f"p{i:05d}") for i, c in enumerate(cells)]
        t = _time(curator.prune_subsumed, pats, repeats=repeats)
        kept, peak = _traced(curator.prune_subsumed, pats)
        print(f"{'prune_subsumed':<20} {n:>9} {_us(t)} {len(kept):>7}  {peak:.2f}MB peak")
        t = _time(curator.cumulative_kappa_curve, pats, ds, ds, repeats=repeats)
        peak = _traced(curator.cumulative_kappa_curve, pats, ds, ds)[1]
        print(f"{'rank+curve':<20} {n:>9} {_us(t)} {len(ds):>7}  {peak:.2f}MB peak")
        # four raw filters per pattern: near-binary jitter, a quarter pushed off-binary
        W = np.repeat(cells, 4, axis=0).astype(np.float64)
        W = np.abs(W - rng.random(W.shape) * 0.04)
        W[rng.random(len(W)) < 0.25, 0, 0] = 0.5
        prec = rng.random(len(W))
        t = _time(trainer.harvest_filters, W, prec, 0, vocab, repeats=repeats)
        got = len(trainer.harvest_filters(W, prec, 0, vocab))
        print(f"{'harvest_filters':<20} {len(W):>9} {_us(t)} {got:>7}")
        # in shuffled order, so most harvested filters repeat an earlier one
        W = np.repeat(cells, RAW_PER_UNIQUE, axis=0)[rng.permutation(n * RAW_PER_UNIQUE)]
        W = np.abs(W - rng.random(W.shape) * 0.04)
        W[rng.random(len(W)) < 0.25, 0, 0] = 0.5
        prec = rng.random(len(W))

        def harvest_dedup():
            return curator.dedup(trainer.harvest_filters(W, prec, 0, vocab))

        t = _time(harvest_dedup, repeats=repeats)
        print(f"{'harvest+dedup':<20} {len(W):>9} {_us(t)} {len(harvest_dedup()):>7}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--clips", type=int, default=2000)
    ap.add_argument("--filters", type=int, default=64)
    ap.add_argument("--clip-length", type=int, default=5)
    ap.add_argument("--features", type=int, default=13)
    ap.add_argument("--kernel", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--pool-sizes", default="300,1359",
                    help="comma-separated unique-pattern counts for the curation passes")
    ap.add_argument("--process-rows", action="store_true",
                    help="print only this process's single-clip and step times, as JSON in s")
    args = ap.parse_args(argv)
    if args.process_rows:
        print(json.dumps(process_rows(args)))
        return

    rng, X, W, cells = kernel_inputs(args)
    B, M, L, d, k = (args.clips, args.filters, args.clip_length,
                     args.features, args.kernel)
    Xu = kernels.clip_windows(X, k, 1)
    Xw = Xu.astype(np.float64)
    dh = rng.standard_normal((B, Xw.shape[1], M))
    per_process = process_quartiles([f"--{name}={getattr(args, name.replace('-', '_'))}"
                                     for name in ("clips", "filters", "clip-length", "features",
                                                  "kernel", "repeats")])

    print(f"B={B} M={M} L={L} d={d} k={k}")
    print("threads: " + " ".join(f"{var}={os.environ.get(var)}" for var in THREAD_VARS))
    print(f"{'kernel':<20} {'clips':>9} {'time':>12}")
    for name, fn, a in [("conv_forward", kernels.conv_forward_batch, (W, Xw)),
                        ("conv_backward", kernels.conv_backward_batch, (dh, Xw, k)),
                        ("clip_windows", kernels.clip_windows, (X, k, 1)),
                        ("match_first_window", kernels.match_first_window, (cells, Xu))]:
        t = _time(fn, *a, repeats=args.repeats)
        clips = a[0 if fn is kernels.clip_windows else 1].shape[0]
        print(f"{name:<20} {clips:>9} {_us(t)}")
    for name in ("clip_windows", "match_first_window", "match_any"):
        _median_row(name, 1, per_process[name])
    vocab = FeatureVocabulary.default()
    ds = corpus.Dataset(vocabulary=vocab, steps=X, labels=rng.random(B) < 0.2)
    bank_cells = (rng.random((max(BANK_SIZES), k, d)) < 0.08).astype(np.uint8)
    long_steps = np.random.default_rng(LONG_CLIP).random((B, LONG_CLIP, d)) < 0.25
    long_ds = corpus.Dataset(vocabulary=vocab, steps=long_steps.astype(np.uint8),
                             labels=np.zeros(B, dtype=bool))
    for n, scored, note in [*((n, ds, "") for n in BANK_SIZES),
                            (BANK_SIZES[0], long_ds, f"  {LONG_CLIP}-step clips")]:
        bank = curator.PatternBank(patterns=tuple(
            curator.Pattern(cells=c, pattern_id=f"p{i}") for i, c in enumerate(bank_cells[:n])),
            vocabulary=vocab)
        t = _time(curator.bank_predict_batch, bank, scored, repeats=args.repeats)
        peak = _traced(curator.bank_predict_batch, bank, scored)[1]
        print(f"{'bank_predict_batch':<20} {B:>9} {_us(t)}  {n} patterns  {peak:.2f}MB peak{note}")
        if n == BANK_SIZES[0] and scored is ds:
            t = _time(evalmetrics.evaluate, bank, ds, repeats=args.repeats)
            print(f"{'evaluate':<20} {B:>9} {_us(t)}  {n} patterns")
    for n in (B, 100_000):
        scores = rng.integers(0, 1000, n) / 1000
        labels = rng.random(n) < 0.2
        for kind, values in (("tie-heavy", scores), ("bool", rng.random(n) < 0.1)):
            t = _time(evalmetrics.auc, values, labels, repeats=args.repeats)
            print(f"{'auc':<20} {n:>9} {_us(t)}  {kind}")
    windowed = trainer.WindowedSet.build(ds, k)
    for n in PRECISION_FILTERS:
        filters = (rng.random((n, k, d)) < 0.1).astype(np.float64)
        t = _time(trainer.eval_filter_precision, filters, windowed, repeats=args.repeats)
        peak = _traced(trainer.eval_filter_precision, filters, windowed)[1]
        print(f"{'eval_filter_precision':<20} {B:>9} {_us(t)}  {n} filters  {peak:.2f}MB peak")
    bench_load(B, L, args.repeats)
    step_clips = step_batch(X)
    _median_row("train step", step_clips, per_process["train step"])
    _median_row("bce+bce_grad", step_clips, per_process["bce+bce_grad"])
    for name in ("off", "on"):
        _median_row("regularizer_grad", "", per_process[f"regularizer_grad {name}"],
                    f"  {M} filters, weights {name}")

    bench_curation([int(n) for n in args.pool_sizes.split(",")], k, args.repeats, ds)


if __name__ == "__main__":
    main()
