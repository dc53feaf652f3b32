"""Training loop: epoch mechanics, the freeze contract, precision evaluation,
annealing schedules, era protocol structure, and reproducibility."""

import json

import numpy as np
import pytest

from conftest import random_legal_clip_batch, traced_peak
from patternconv import cli, corpus, kernels, netcore, trainer
from patternconv.curator import Pattern
from patternconv.errors import DataError, NumericalError
from patternconv.objective import LossWeights
from patternconv.schedule import PRECISION_THRESHOLD, ConstraintSchedule, era_reset
from patternconv.trainer import (TrainConfig, WindowedSet, anneal_at,
                                 eval_filter_precision, harvest_filters, train_epoch,
                                 train_full)


def _small_config(eras=1, epochs=2, **kw):
    sched = ConstraintSchedule.default(eras=eras, epochs_per_era=epochs)
    return TrainConfig(schedule=sched, **kw)


def _dataset(vocab, planted, n=120, seed=0):
    return corpus.synth_generate(vocab, planted, n, 0.0, 0.0, seed=seed,
                                 p_plant=0.2)


# --------------------------------------------------------------- train_epoch

def test_windowed_set_holds_a_contiguous_copy_of_the_windows(vocab, planted):
    """Training gathers each batch from WindowedSet.X; the kernels' windows
    are a read-only strided view, so the set keeps a C-contiguous copy."""
    ds = _dataset(vocab, planted)
    windows = WindowedSet.build(ds, 3)
    assert windows.X.flags.c_contiguous
    assert (windows.X == kernels.clip_windows(ds.steps_array(), 3, 1)).all()


def test_zero_learning_rate_leaves_params(vocab, planted):
    ds = _dataset(vocab, planted)
    windows = WindowedSet.build(ds, 3)
    st_ = netcore.init_state(4, 3, vocab.d, rng=np.random.default_rng(0))
    W0, fc0 = st_.W.copy(), st_.fc_trad.copy()
    rec = train_epoch(st_, windows, LossWeights(), 0.0, False, np.random.default_rng(1), 1.0,
                      0.0, 0.2)
    assert (st_.W == W0).all() and (st_.fc_trad == fc0).all()
    assert np.isfinite(rec["bce"])


def test_freeze_keeps_fc_trad(vocab, planted):
    ds = _dataset(vocab, planted)
    windows = WindowedSet.build(ds, 3)
    st_ = netcore.init_state(4, 3, vocab.d, rng=np.random.default_rng(0))
    fc0 = st_.fc_trad.copy()
    train_epoch(st_, windows, LossWeights(), 0.5, True, np.random.default_rng(1), 1.0,
                trainer.LEARNING_RATE, 0.2)
    assert (st_.fc_trad == fc0).all()


def test_plain_training_reduces_bce(vocab, planted):
    ds = _dataset(vocab, planted, n=200, seed=1)
    windows = WindowedSet.build(ds, 3)
    st_ = netcore.init_state(8, 3, vocab.d, rng=np.random.default_rng(0))
    rng = np.random.default_rng(2)
    lr = trainer.LEARNING_RATE
    first = train_epoch(st_, windows, LossWeights(), 0.0, False, rng, 1.0, lr, 0.0)["bce"]
    last = None
    for _ in range(50):
        last = train_epoch(st_, windows, LossWeights(), 0.0, False, rng, 1.0, lr, 0.0)["bce"]
    assert last < first


def test_weights_stay_clamped(vocab, planted):
    ds = _dataset(vocab, planted)
    windows = WindowedSet.build(ds, 3)
    st_ = netcore.init_state(4, 3, vocab.d, rng=np.random.default_rng(0))
    for _ in range(5):
        train_epoch(st_, windows, LossWeights(bin=2.0), 0.5, False, np.random.default_rng(1),
                    1.0, 0.5, 0.2)
    assert st_.W.min() >= 0.0 and st_.W.max() <= 1.0


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_nan_weight_raises_numerical_error(vocab, planted, alpha):
    """A NaN in W makes the batch BCE non-finite through either head, so the
    BCE check alone catches it; the regularizers need no check of their own."""
    windows = WindowedSet.build(_dataset(vocab, planted), 3)
    st_ = netcore.init_state(4, 3, vocab.d, rng=np.random.default_rng(0))
    st_.W[1, 2, 3] = np.nan
    with pytest.raises(NumericalError, match="non-finite loss"):
        train_epoch(st_, windows, LossWeights(bin=1.0, min=1.0, sub=1.0, poss=1.0), alpha,
                    False, np.random.default_rng(1), 1.0, 0.05, 0.2)


def test_sgd_clamp_is_bit_for_bit_np_clip(vocab, planted, monkeypatch):
    """With every gradient 0 the SGD step leaves W as it was, so what
    train_epoch writes back is its clamp to [0, 1] alone: np.maximum then
    np.minimum in place, the bits of np.clip(W, 0, 1) on a signed zero, on
    values either side of the box and on a NaN."""
    windows = WindowedSet.build(_dataset(vocab, planted), 3)  # two batches
    st_ = netcore.init_state(4, 3, vocab.d, rng=np.random.default_rng(0))
    st_.W[:] = np.resize([-0.0, -0.2, 0.0, 1.0, 1.3, np.nan, 0.25], st_.W.shape)
    W0 = st_.W.copy()
    monkeypatch.setattr(trainer, "forward_batch",
                        lambda state, X, dropout, rng: (np.full(len(X), 0.5), None))
    monkeypatch.setattr(trainer, "backward_batch", lambda state, cache, d_y: {
        "W": np.zeros(state.W.shape), "fc_trad": np.zeros(state.M)})
    monkeypatch.setattr(trainer.objective, "regularizer_grad",
                        lambda W, weights, vocab: np.zeros(W.shape))
    train_epoch(st_, windows, LossWeights(), 0.5, False, np.random.default_rng(1), 1.0, 0.05,
                0.2)
    assert st_.W.tobytes() == np.clip(W0, 0.0, 1.0).tobytes()


# ------------------------------------------------------- filter precision

def test_filter_precision_fixture(vocab, planted):
    """Hand-built set: the planted filter matches 3 positives and 7 negatives
    after labels are overridden -> precision 0.3."""
    ds = _dataset(vocab, planted, n=400, seed=3)
    pat = planted[0]
    W = pat.cells[None].astype(np.float64)
    hits = [c for c in ds.clips if bool(
        trainer.kernels.match_first_window(pat.cells[None],
            trainer.kernels.clip_windows(c.steps[None], 3, 1))[0, 0] >= 0)]
    assert len(hits) >= 10
    chosen = hits[:10]
    relabeled = corpus.Dataset(vocabulary=vocab, clips=tuple(
        corpus.Clip(clip_id=c.clip_id, steps=c.steps, label=i < 3)
        for i, c in enumerate(chosen)))
    prec = eval_filter_precision(W, WindowedSet.build(relabeled, 3))
    assert prec[0] == pytest.approx(0.3)


def test_filter_precision_no_match_is_nan(vocab, planted):
    ds = _dataset(vocab, planted, n=50)
    W = np.ones((1, 3, vocab.d))  # demands everything: matches nothing
    assert np.isnan(eval_filter_precision(W, WindowedSet.build(ds, 3))[0])


def test_filter_precision_pure_positive(vocab, planted):
    ds = _dataset(vocab, [planted[0]], n=400, seed=4)
    W = planted[0].cells[None].astype(np.float64)
    assert eval_filter_precision(W, WindowedSet.build(ds, 3))[0] == 1.0


def test_filter_precision_at_2048_filters_holds_no_clips_by_filters_matrix(vocab):
    """Filter precision counts matches block by block: at the source paper's
    2,048 filters over 1,200 clips its tracemalloc peak stays below 4 MB,
    where a clips x filters int64 first-window matrix alone is 19.7 MB. The
    precisions are those of the first windows."""
    rng = np.random.default_rng(31)
    X = random_legal_clip_batch(vocab, 1200, 5, rng)
    ds = corpus.Dataset(vocabulary=vocab, steps=X, labels=rng.random(1200) < 0.3)
    windowed = WindowedSet.build(ds, 3)
    W = rng.random((2048, 3, vocab.d)) ** 8  # about 1 cell in 12 rounds to 1
    prec, peak = traced_peak(eval_filter_precision, W, windowed)
    assert peak < 4e6
    hits = kernels.match_first_window((W >= 0.5).astype(np.uint8), windowed.X) >= 0
    matched = hits.sum(axis=1)
    with np.errstate(invalid="ignore"):
        want = (hits & windowed.labels).sum(axis=1) / matched
    assert np.array_equal(prec, want, equal_nan=True) and 0 < (matched > 0).sum() < 2048


# ----------------------------------------------------------------- harvest

def test_harvest_respects_threshold_and_binarization(vocab, planted):
    W = np.stack([
        planted[0].cells.astype(np.float64),          # clean, harvestable
        planted[1].cells.astype(np.float64) * 0.6,    # non-binary -> dropped
        planted[2].cells.astype(np.float64),          # below threshold
    ])
    prec = np.array([0.9, 0.9, 0.2])
    got = harvest_filters(W, prec, era=1, vocab=vocab)
    assert len(got) == 1
    assert (got[0].cells == planted[0].cells).all()
    assert got[0].source_era == 1 and got[0].precision_train == pytest.approx(0.9)


def test_one_precision_threshold_splits_harvest_and_redraw(vocab, planted):
    """At an era end a binary, legal filter above 0.3 is harvested, one below
    it or matching no clip (NaN) is redrawn, and one at exactly 0.3 is
    neither: it is carried over into the next era."""
    cells = [p.cells for p in planted] + [planted[0].cells[::-1]]
    state = netcore.init_state(4, 3, vocab.d, rng=np.random.default_rng(0))
    state.W = np.stack(cells).astype(np.float64)
    prec = np.array([0.29, 0.3, 0.31, np.nan])
    assert PRECISION_THRESHOLD == 0.3

    got = harvest_filters(state.W, prec, era=0, vocab=vocab)
    assert [p.pattern_id for p in got] == ["e000f0002"]

    out = era_reset(state, prec, PRECISION_THRESHOLD, np.random.default_rng(1))
    redrawn = [m for m in range(4) if not (out.W[m] == state.W[m]).all()]
    assert redrawn == [0, 3]


# ----------------------------------------------------------------- annealing

def test_anneal_endpoints():
    cfg = _small_config(eras=5, epochs=50)
    p0, lr0 = anneal_at(cfg, 0, 0)
    assert p0 == pytest.approx(trainer.DROPOUT_BASE + trainer.DROPOUT_ERA_AMP)
    assert lr0 == pytest.approx(trainer.LEARNING_RATE)
    p_end, lr_end = anneal_at(cfg, 49, 4)
    assert p_end == pytest.approx(0.0)
    assert lr_end == pytest.approx(trainer.FINAL_LEARNING_RATE)


def test_anneal_era_amplitude_reopens():
    cfg = _small_config(eras=5, epochs=50)
    p_last_of_era0, _ = anneal_at(cfg, 49, 0)
    p_first_of_era1, _ = anneal_at(cfg, 0, 1)
    assert p_first_of_era1 > p_last_of_era0 + 0.2


def _anneal_formula(eras, epochs, epoch_in_era, era, lr0, lr1):
    """The anneal with its shape written out: base 0.35, era amplitude 0.45,
    both decays ending at 0.9 of their span, and the rate clamped to [0, 0.99]."""
    g = era * epochs + epoch_in_era
    frac = min(1.0, g / max(0.9 * (eras * epochs), 1.0))
    lr = lr0 + (lr1 - lr0) * frac
    era_frac = min(1.0, epoch_in_era / max(0.9 * epochs, 1.0))
    p = 0.35 * (1.0 - frac) + 0.45 * (1.0 - era_frac)
    return min(max(p, 0.0), 0.99), lr


@pytest.mark.parametrize("eras,epochs", [(5, 50), (3, 7)])
@pytest.mark.parametrize("lr1", [trainer.FINAL_LEARNING_RATE, trainer.LEARNING_RATE])
def test_anneal_matches_its_formula_bit_for_bit(monkeypatch, eras, epochs, lr1):
    """Every epoch's (dropout, learning rate) is the formula's, to the bit,
    at the final rate the trainer uses and at one equal to the initial rate."""
    monkeypatch.setattr(trainer, "FINAL_LEARNING_RATE", lr1)
    cfg = _small_config(eras=eras, epochs=epochs)
    for era in range(eras):
        for epoch in range(epochs):
            got = anneal_at(cfg, epoch, era)
            want = _anneal_formula(eras, epochs, epoch, era, trainer.LEARNING_RATE, lr1)
            assert [x.hex() for x in got] == [x.hex() for x in want], (era, epoch)


def test_anneal_validation(tmp_path, capsys):
    """The anneal's shape and rates are fixed: a config that sets one of
    their former keys, to a number or to null, exits 1 naming the key."""
    for key, value in [("dropout_base", 0.35), ("dropout_era_amp", 0.45),
                       ("anneal_end_fraction", 0.9), ("dropout_base", None),
                       ("final_learning_rate", None)]:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {key: value}}))
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "o"), "synth"]) == 1
        assert f"'train.{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------- train_full

def test_train_full_structure(vocab, planted):
    ds = _dataset(vocab, planted, n=120)
    cfg = _small_config(eras=1, epochs=1, seed=5)
    state, snaps, harvested = train_full(cfg, ds, None, 4, 3, vocab.d)
    assert len(snaps) == 1
    assert snaps[0].W.shape == (4, 3, vocab.d)
    snap_keys = {(p.cells >= 0.5).astype(np.uint8).tobytes()
                 for p in [Pattern(cells=(snaps[0].W[m] >= 0.5).astype(np.uint8),
                                   pattern_id=str(m)) for m in range(4)]}
    for p in harvested:
        assert p.cells.tobytes() in snap_keys


def test_train_full_reproducible(vocab, planted):
    ds = _dataset(vocab, planted, n=120)
    runs = []
    for _ in range(2):
        cfg = _small_config(eras=2, epochs=3, seed=9)
        _, snaps, harvested = train_full(cfg, ds, None, 6, 3, vocab.d)
        runs.append(([s.W.tobytes() for s in snaps],
                     [p.cells.tobytes() for p in harvested]))
    assert runs[0] == runs[1]


def test_train_full_logs_trajectory(vocab, planted):
    ds = _dataset(vocab, planted, n=120)
    cfg = _small_config(eras=2, epochs=3, seed=9, log_val_metrics=False)
    records = []
    train_full(cfg, ds, None, 4, 3, vocab.d, log=records.append)
    assert len(records) == 6
    assert {"era", "epoch", "bce", "alpha", "gamma", "reg_terms",
            "grad_norm_conv", "dropout_rate", "learning_rate"} <= set(records[0])


def test_train_full_dimension_check(vocab, planted):
    ds = _dataset(vocab, planted, n=120)
    with pytest.raises(DataError):
        train_full(_small_config(), ds, None, 4, 3, vocab.d + 1)


def test_freeze_monotone_over_run(vocab, planted):
    """Once alpha passes the threshold, fc_trad never changes again."""
    ds = _dataset(vocab, planted, n=120)
    cfg = _small_config(eras=1, epochs=12, seed=3)
    records = []
    orig = trainer.train_epoch

    def spy(state, *a, **kw):
        rec = orig(state, *a, **kw)
        records.append((rec["frozen"], state.fc_trad.copy()))
        return rec

    trainer.train_epoch = spy
    try:
        train_full(cfg, ds, None, 4, 3, vocab.d)
    finally:
        trainer.train_epoch = orig
    frozen_fc = [fc for fr, fc in records if fr]
    assert len(frozen_fc) >= 2
    for fc in frozen_fc[1:]:
        assert (fc == frozen_fc[0]).all()
