#!/usr/bin/env python3
"""Margin of the seed-based acceptance criteria over ten seeds.

`tests/test_acceptance.py` runs the planted benchmark (2,000 clips, M=64,
k=3, 5 eras x 50 epochs) over seeds 0-4 and gates on two criteria:

- criterion 4, constraint convergence: at least 95% of the cells of the
  harvest candidates (filters of precision above 0.3 in any era snapshot)
  lie within 0.05 of 0 or 1, and every harvested pattern is legal;
- criterion 5, planted recovery: test kappa of at least 0.8 and at least 2
  planted patterns found exactly in the bank.

Five seeds say little about whether a change to the training bits changed
learning, so this script runs the same configuration through the same
package functions over more seeds and prints, per seed, test kappa, planted
patterns recovered, filters harvested, bank size and the near-binary
fraction, then how many seeds pass each criterion, with the Wilson 95%
interval of that share. The run is the CLI's default one, built from the
library's defaults: `synth_generate`'s rates, `TrainConfig`'s schedule and
`cli.DEFAULT_CONFIG`'s clip count, split and model size. Only the era count
may be changed. Ten seeds take about a minute on a 2-CPU host:

    python benchmarks/criteria_margin.py                       # seeds 0-9
    python benchmarks/criteria_margin.py --seeds 5             # seeds 0-4, the test's
    python benchmarks/criteria_margin.py --first 10 --eras 15  # seeds 10-19 at 15 eras
"""

import argparse
import math
import os
import time

if __name__ == "__main__":
    # one BLAS/OpenMP thread unless the caller sets one, before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

import numpy as np

from patternconv import analysis, cli, corpus, evalmetrics, trainer
from patternconv.corpus import FeatureVocabulary
from patternconv.curator import (cumulative_kappa_curve, dedup, pattern_violation,
                                 prune_subsumed, select_bank)
from patternconv.schedule import ConstraintSchedule

NEAR_BINARY = 0.95   # criterion 4: share of candidate cells within 0.05 of 0 or 1
MIN_KAPPA = 0.8      # criterion 5: test kappa ...
MIN_RECOVERED = 2    # ... and planted patterns found exactly in the bank
DEFAULTS = cli.DEFAULT_CONFIG


def run_seed(seed: int, vocab: FeatureVocabulary, planted, eras: int) -> dict:
    """The default run of one seed at `eras` eras, and what the two criteria
    read."""
    data, split, model = DEFAULTS["data"], DEFAULTS["split"], DEFAULTS["model"]
    ds = corpus.synth_generate(vocab, planted, data["n_clips"], data["label_noise"],
                               data["feature_noise"], seed=seed)
    train_set, val_set, test_set = corpus.stratified_split(
        ds, split["test_fraction"], split["val_fraction"], seed=seed)
    tc = trainer.TrainConfig(schedule=ConstraintSchedule.default(eras=eras), seed=seed)
    _, snapshots, harvested = trainer.train_full(tc, train_set, val_set, model["M"],
                                                 model["k"], vocab.d)
    ranked, curve = cumulative_kappa_curve(prune_subsumed(dedup(harvested)), train_set, val_set)
    bank = select_bank(curve, ranked, vocab)
    kappa = evalmetrics.evaluate(bank, test_set).kappa

    cells = np.concatenate([
        snap.W[~np.isnan(snap.per_filter_precision) & (snap.per_filter_precision > 0.3)].ravel()
        for snap in snapshots])
    near = float((np.minimum(np.abs(cells), np.abs(cells - 1.0)) <= 0.05).mean()) \
        if cells.size else 0.0
    legal = all(pattern_violation(p.cells, vocab) is None for p in harvested)

    experts = [analysis.expert_from_names(
        p.pattern_id, [[vocab.feature_names[j] for j in np.flatnonzero(row)] for row in p.cells],
        vocab) for p in planted]
    recovered = sum(rec["distance"] == 0 for rec in
                    analysis.compare_banks(bank, experts)["per_expert_nearest"])
    return {"kappa": kappa, "recovered": recovered, "harvested": len(harvested),
            "bank": len(bank), "near": near,
            "c4": cells.size > 0 and near >= NEAR_BINARY and legal,
            "c5": kappa is not None and kappa >= MIN_KAPPA and recovered >= MIN_RECOVERED}


def wilson(passed: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """The Wilson score interval of a share `passed` of `n`, 95% at z = 1.96."""
    p, z2 = passed / n, z * z
    centre = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    return max(centre - half, 0.0), min(centre + half, 1.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10, help="how many seeds to run")
    ap.add_argument("--first", type=int, default=0,
                    help="run seeds FIRST .. FIRST+SEEDS-1")
    ap.add_argument("--eras", type=int, default=DEFAULTS["train"]["eras"],
                    help="eras of training, each of the default epochs")
    args = ap.parse_args(argv)
    if args.first < 0 or args.seeds < 1 or args.eras < 1:
        ap.error("--first must be at least 0, and --seeds and --eras at least 1")
    vocab = FeatureVocabulary.default()
    planted = cli.default_planted_patterns(vocab)
    print(f"{'seed':>4} {'kappa':>7} {'recovered':>9} {'harvested':>9} {'bank':>5} "
          f"{'near-binary':>11} {'c4':>3} {'c5':>3} {'time':>7}")
    runs = []
    for seed in range(args.first, args.first + args.seeds):
        t0 = time.perf_counter()
        run = run_seed(seed, vocab, planted, args.eras)
        runs.append(run)
        kappa = "-" if run["kappa"] is None else f"{run['kappa']:.3f}"
        print(f"{seed:>4} {kappa:>7} {run['recovered']:>7}/{len(planted)} "
              f"{run['harvested']:>9} {run['bank']:>5} {run['near']:>11.4f} "
              f"{'ok' if run['c4'] else 'no':>3} {'ok' if run['c5'] else 'no':>3} "
              f"{time.perf_counter() - t0:>6.1f}s", flush=True)
    for key, rule in (("c4", f"near-binary >= {NEAR_BINARY}, legal harvest"),
                      ("c5", f"kappa >= {MIN_KAPPA}, >= {MIN_RECOVERED} planted recovered")):
        passed = sum(r[key] for r in runs)
        lo, hi = wilson(passed, len(runs))
        print(f"criterion {key[1]} ({rule}): {passed}/{len(runs)} seeds "
              f"(Wilson 95% {lo:.2f}-{hi:.2f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
