#!/usr/bin/env python3
"""Time the hot kernels: conv forward and backward over clip windows,
discrete first-window matching, and the curation passes (subsumption pruning
and filter harvesting) on seeded pattern pools.

Run with defaults (benchmark-sized shapes) or adjust via flags:

    python benchmarks/bench_kernels.py --clips 2000 --filters 64 --repeats 20

`clip_windows` pads the clips once and views them as the windows that both
the convolution and matching read. The convolution is one matrix multiply
each way, and matching is a float32 window product with the patterns,
thresholded at each pattern's cell count, one block of window rows at a
time. Window building and first-window matching are timed on the whole
batch and on a single clip, the shape of `explain`; `match_any` is timed on
a single clip, the shape of synth's candidate test in its rejection sampling.
`bank_predict_batch`, the bank scoring of `eval`, is timed over the batch
for banks of 7, 8, 131 and 132 sparse random patterns, each row with the
tracemalloc peak of one call: matching runs in blocks of about 4,096 window
rows, so the peak is the one zero-padded uint8 copy of the clips that their
windows view, (L + 2·padding)·d bytes a clip, plus a few MB for a block. The
curation pools default to 300 and 1,359 unique patterns; 1,359 is the
unique count of the source paper's funnel. `harvest+dedup` harvests 19
shuffled, jittered raw filters per pool pattern (a quarter pushed
off-binary, precisions uniform on [0, 1]; 25,821 filters at 1,359, about
the 25,981 the paper harvests) and deduplicates what it keeps.
`evalmetrics.auc` is timed on tie-heavy scores of the batch and of 100,000
clips, the clip count of a paper-scale run. `corpus.load_dataset` is timed
on a file of the batch's clip count (legal unplanted synth clips) in the
canonical form that `write_dataset` writes, and on the same clips with
spaces after the separators, which the loader parses line by line as JSON.
One training step (forward with dropout, backward, the regularizer
gradient, then the SGD step and clamp) is timed at the training batch size
of 64 clips, or the batch if smaller, with alpha 1 as after the first era,
and `regularizer_grad` alone with every loss weight 0 and with every weight
at its schedule target.
"""

import argparse
import json
import os
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

from patternconv import corpus, curator, evalmetrics, kernels, netcore, objective, trainer
from patternconv.corpus import FeatureVocabulary
from patternconv.objective import LossWeights
from patternconv.schedule import DEFAULT_TARGETS


# banks on either side of a multiple of 4 patterns, the width the match
# GEMM's pattern matrix is padded to; 132 is the source paper's selected bank
BANK_SIZES = (7, 8, 131, 132)
# raw filters per unique pattern in the harvest+dedup pool: the source
# paper's funnel harvests 25,981 filters of 1,359 unique patterns
RAW_PER_UNIQUE = 19


def _time(fn, *args, repeats=10):
    fn(*args)  # warm-up (caches)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


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
            print(f"{'load_dataset':<20} {n:>9} {t * 1e3:>10.3f}ms  {form}")


def bench_step(X: np.ndarray, M: int, k: int, repeats: int) -> None:
    vocab = FeatureVocabulary.default()
    B = min(trainer.TrainConfig().batch_size, len(X))
    rng = np.random.default_rng(1)
    # a model's padding is at most k - 1
    state = netcore.init_state(M, k, vocab.d, padding=min(netcore.DEFAULT_PADDING, k - 1),
                               rng=rng, alpha=1.0, fc_frozen=True)
    Xw = kernels.clip_windows(X[:B], k, state.padding)
    labels = (rng.random(B) < 0.2).astype(np.float64)
    on = LossWeights(**{name: DEFAULT_TARGETS[name] for name in ("bin", "min", "sub", "poss")})

    def step():
        y, cache = netcore.forward_batch(state, Xw, training=True, rng=rng)
        dW = netcore.backward_batch(state, cache, objective.bce_grad(y, labels) / B)["W"]
        dW += objective.regularizer_grad(state.W, on, vocab)
        dW *= 0.05
        state.W -= dW
        np.clip(state.W, 0.0, 1.0, out=state.W)

    t = _time(step, repeats=repeats)
    print(f"{'train step':<20} {B:>9} {t * 1e3:>10.3f}ms")
    for name, weights in (("off", LossWeights()), ("on", on)):
        t = _time(objective.regularizer_grad, state.W, weights, vocab, repeats=repeats)
        print(f"{'regularizer_grad':<20} {'':>9} {t * 1e3:>10.3f}ms  {M} filters, weights {name}")


def bench_curation(sizes, k: int, repeats: int) -> None:
    vocab = FeatureVocabulary.default()
    print(f"{'curation pass':<20} {'patterns':>9} {'time':>12} {'out':>7}")
    for n in sizes:
        rng = np.random.default_rng(n)
        cells = pattern_pool(n, k, vocab, rng)
        pats = [curator.Pattern(cells=c, pattern_id=f"p{i:05d}") for i, c in enumerate(cells)]
        t = _time(curator.prune_subsumed, pats, repeats=repeats)
        kept = len(curator.prune_subsumed(pats))
        print(f"{'prune_subsumed':<20} {n:>9} {t * 1e3:>10.2f}ms {kept:>7}")
        # four raw filters per pattern: near-binary jitter, a quarter pushed off-binary
        W = np.repeat(cells, 4, axis=0).astype(np.float64)
        W = np.abs(W - rng.random(W.shape) * 0.04)
        W[rng.random(len(W)) < 0.25, 0, 0] = 0.5
        prec = rng.random(len(W))
        t = _time(trainer.harvest_filters, W, prec, 0, vocab, 0.3, repeats=repeats)
        got = len(trainer.harvest_filters(W, prec, 0, vocab, 0.3))
        print(f"{'harvest_filters':<20} {len(W):>9} {t * 1e3:>10.2f}ms {got:>7}")
        # in shuffled order, so most harvested filters repeat an earlier one
        W = np.repeat(cells, RAW_PER_UNIQUE, axis=0)[rng.permutation(n * RAW_PER_UNIQUE)]
        W = np.abs(W - rng.random(W.shape) * 0.04)
        W[rng.random(len(W)) < 0.25, 0, 0] = 0.5
        prec = rng.random(len(W))

        def harvest_dedup():
            return curator.dedup(trainer.harvest_filters(W, prec, 0, vocab, 0.3))

        t = _time(harvest_dedup, repeats=repeats)
        print(f"{'harvest+dedup':<20} {len(W):>9} {t * 1e3:>10.2f}ms {len(harvest_dedup()):>7}")


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
    args = ap.parse_args(argv)

    rng = np.random.default_rng(0)
    B, M, L, d, k = (args.clips, args.filters, args.clip_length,
                     args.features, args.kernel)
    X = (rng.random((B, L, d)) < 0.25).astype(np.uint8)
    Xu = kernels.clip_windows(X, k, 1)
    Xw = Xu.astype(np.float64)
    W = rng.random((M, k, d))
    cells = (rng.random((M, k, d)) < 0.2).astype(np.uint8)
    dh = rng.standard_normal((B, Xw.shape[1], M))

    print(f"B={B} M={M} L={L} d={d} k={k}")
    print("threads: " + " ".join(f"{var}={os.environ.get(var)}" for var in THREAD_VARS))
    print(f"{'kernel':<20} {'clips':>9} {'time':>12}")
    for name, fn, a in [("conv_forward", kernels.conv_forward_batch, (W, Xw)),
                        ("conv_backward", kernels.conv_backward_batch, (dh, Xw, k)),
                        ("clip_windows", kernels.clip_windows, (X, k, 1)),
                        ("clip_windows", kernels.clip_windows, (X[:1], k, 1)),
                        ("match_first_window", kernels.match_first_window, (cells, Xu)),
                        ("match_first_window", kernels.match_first_window, (cells, Xu[:1])),
                        ("match_any", kernels.match_any, (cells, Xu[:1]))]:
        t = _time(fn, *a, repeats=args.repeats)
        clips = a[0 if fn is kernels.clip_windows else 1].shape[0]
        print(f"{name:<20} {clips:>9} {t * 1e3:>10.3f}ms")
    vocab = FeatureVocabulary.default()
    ds = corpus.Dataset(vocabulary=vocab, steps=X, labels=np.zeros(B, bool))
    bank_cells = (rng.random((max(BANK_SIZES), k, d)) < 0.08).astype(np.uint8)
    for n in BANK_SIZES:
        bank = curator.PatternBank(patterns=tuple(
            curator.Pattern(cells=c, pattern_id=f"p{i}") for i, c in enumerate(bank_cells[:n])),
            vocabulary=vocab)
        t = _time(curator.bank_predict_batch, bank, ds, repeats=args.repeats)
        tracemalloc.start()  # after the timing, which it would slow
        try:
            curator.bank_predict_batch(bank, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"{'bank_predict_batch':<20} {B:>9} {t * 1e3:>10.3f}ms  {n} patterns"
              f"  {peak / 1e6:.2f}MB peak")
    for n in (B, 100_000):
        scores = rng.integers(0, 1000, n) / 1000
        labels = rng.random(n) < 0.2
        t = _time(evalmetrics.auc, scores, labels, repeats=args.repeats)
        print(f"{'auc':<20} {n:>9} {t * 1e3:>10.3f}ms")
    bench_load(B, L, args.repeats)
    bench_step(X, M, k, args.repeats)

    bench_curation([int(n) for n in args.pool_sizes.split(",")], k, args.repeats)


if __name__ == "__main__":
    main()
