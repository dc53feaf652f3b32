"""Training loop: epoch mechanics, the freeze contract, precision evaluation,
annealing schedules, era protocol structure, and reproducibility."""

import numpy as np
import pytest

from patternconv import corpus, kernels, netcore, trainer
from patternconv.curator import Pattern
from patternconv.errors import DataError, NumericalError
from patternconv.objective import LossWeights
from patternconv.schedule import ConstraintSchedule
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
    windows = WindowedSet.build(ds, 3, 1)
    assert windows.X.flags.c_contiguous
    assert (windows.X == kernels.clip_windows(ds.steps_array(), 3, 1)).all()


def test_zero_learning_rate_leaves_params(vocab, planted):
    ds = _dataset(vocab, planted)
    windows = WindowedSet.build(ds, 3, 1)
    cfg = _small_config(learning_rate=0.0)
    st_ = netcore.init_state(4, 3, vocab.d, rng=np.random.default_rng(0))
    W0, fc0 = st_.W.copy(), st_.fc_trad.copy()
    rec = train_epoch(st_, windows, LossWeights(), 0.0, False, cfg,
                      np.random.default_rng(1), learning_rate=0.0)
    assert (st_.W == W0).all() and (st_.fc_trad == fc0).all()
    assert np.isfinite(rec["bce"])


def test_freeze_keeps_fc_trad(vocab, planted):
    ds = _dataset(vocab, planted)
    windows = WindowedSet.build(ds, 3, 1)
    cfg = _small_config()
    st_ = netcore.init_state(4, 3, vocab.d, rng=np.random.default_rng(0))
    fc0 = st_.fc_trad.copy()
    train_epoch(st_, windows, LossWeights(), 0.5, True, cfg, np.random.default_rng(1))
    assert (st_.fc_trad == fc0).all()


def test_plain_training_reduces_bce(vocab, planted):
    ds = _dataset(vocab, planted, n=200, seed=1)
    windows = WindowedSet.build(ds, 3, 1)
    cfg = _small_config(dropout_base=None)
    st_ = netcore.init_state(8, 3, vocab.d, rng=np.random.default_rng(0))
    st_.dropout_rate = 0.0
    rng = np.random.default_rng(2)
    first = train_epoch(st_, windows, LossWeights(), 0.0, False, cfg, rng)["bce"]
    last = None
    for _ in range(50):
        last = train_epoch(st_, windows, LossWeights(), 0.0, False, cfg, rng)["bce"]
    assert last < first


def test_weights_stay_clamped(vocab, planted):
    ds = _dataset(vocab, planted)
    windows = WindowedSet.build(ds, 3, 1)
    cfg = _small_config(learning_rate=0.5)
    st_ = netcore.init_state(4, 3, vocab.d, rng=np.random.default_rng(0))
    for _ in range(5):
        train_epoch(st_, windows, LossWeights(bin=2.0), 0.5, False, cfg,
                    np.random.default_rng(1))
    assert st_.W.min() >= 0.0 and st_.W.max() <= 1.0


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_nan_weight_raises_numerical_error(vocab, planted, alpha):
    """A NaN in W makes the batch BCE non-finite through either head, so the
    BCE check alone catches it; the regularizers need no check of their own."""
    windows = WindowedSet.build(_dataset(vocab, planted), 3, 1)
    st_ = netcore.init_state(4, 3, vocab.d, rng=np.random.default_rng(0))
    st_.W[1, 2, 3] = np.nan
    with pytest.raises(NumericalError, match="non-finite loss"):
        train_epoch(st_, windows, LossWeights(bin=1.0, min=1.0, sub=1.0, poss=1.0), alpha,
                    False, _small_config(), np.random.default_rng(1))


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
    prec = eval_filter_precision(W, WindowedSet.build(relabeled, 3, 1))
    assert prec[0] == pytest.approx(0.3)


def test_filter_precision_no_match_is_nan(vocab, planted):
    ds = _dataset(vocab, planted, n=50)
    W = np.ones((1, 3, vocab.d))  # demands everything: matches nothing
    assert np.isnan(eval_filter_precision(W, WindowedSet.build(ds, 3, 1))[0])


def test_filter_precision_pure_positive(vocab, planted):
    ds = _dataset(vocab, [planted[0]], n=400, seed=4)
    W = planted[0].cells[None].astype(np.float64)
    assert eval_filter_precision(W, WindowedSet.build(ds, 3, 1))[0] == 1.0


# ----------------------------------------------------------------- harvest

def test_harvest_respects_threshold_and_binarization(vocab, planted):
    W = np.stack([
        planted[0].cells.astype(np.float64),          # clean, harvestable
        planted[1].cells.astype(np.float64) * 0.6,    # non-binary -> dropped
        planted[2].cells.astype(np.float64),          # below threshold
    ])
    prec = np.array([0.9, 0.9, 0.2])
    got = harvest_filters(W, prec, era=1, vocab=vocab, threshold=0.3)
    assert len(got) == 1
    assert (got[0].cells == planted[0].cells).all()
    assert got[0].source_era == 1 and got[0].precision_train == pytest.approx(0.9)


# ----------------------------------------------------------------- annealing

def test_anneal_endpoints():
    cfg = _small_config(eras=5, epochs=50)
    p0, lr0 = anneal_at(cfg, 0, 0)
    assert p0 == pytest.approx(cfg.dropout_base + cfg.dropout_era_amp)
    assert lr0 == pytest.approx(cfg.learning_rate)
    p_end, lr_end = anneal_at(cfg, 49, 4)
    assert p_end == pytest.approx(0.0)
    assert lr_end == pytest.approx(cfg.final_learning_rate)


def test_anneal_era_amplitude_reopens():
    cfg = _small_config(eras=5, epochs=50)
    p_last_of_era0, _ = anneal_at(cfg, 49, 0)
    p_first_of_era1, _ = anneal_at(cfg, 0, 1)
    assert p_first_of_era1 > p_last_of_era0 + 0.2


def test_anneal_disabled(vocab):
    cfg = _small_config(dropout_base=None, final_learning_rate=None)
    p, lr = anneal_at(cfg, 10, 0)
    assert p is None and lr == cfg.learning_rate


def test_anneal_validation():
    with pytest.raises(DataError):
        _small_config(anneal_end_fraction=0.0)


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
