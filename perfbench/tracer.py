"""Span tracing of the package's public functions from outside the package.

While a `Tracer` is installed, each traced function is replaced by a wrapper
at every module attribute that refers to it, so names that another module
imported by value (`trainer.forward_batch`, `analysis.match_matrix`, ...) are
traced at the place their caller looks them up. Spans are kept in flat
in-memory arrays and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

MODULES = ("corpus", "kernels", "netcore", "objective", "schedule", "trainer",
           "curator", "evalmetrics", "analysis", "cli")

TRACED = {
    "corpus": ["synth_generate", "write_dataset", "load_dataset", "stratified_split",
               "check_steps", "Dataset.steps_array"],
    "kernels": ["conv_forward_batch", "conv_backward_batch", "match_first_window"],
    "netcore": ["init_state", "forward_batch", "backward_batch", "state_to_json",
                "filters_to_json", "filters_from_json"],
    "objective": ["bce", "bce_grad", "regularizer_value", "regularizer_grad",
                  "regularizer_terms"],
    "schedule": ["weights_at", "era_reset"],
    "trainer": ["train_full", "train_epoch", "eval_filter_precision", "harvest_filters"],
    "curator": ["binarize", "discrete_match", "match_matrix", "bank_predict_batch", "dedup",
                "subsumes", "prune_subsumed", "rank_by_precision", "cumulative_kappa_curve",
                "select_bank", "bank_to_json", "bank_from_json"],
    "evalmetrics": ["evaluate"],
    "analysis": ["explain"],
    "cli": ["main", "cmd_synth", "cmd_train", "cmd_curate", "cmd_eval"],
}


def _shape_flops(args, _kwargs, _result):
    # conv_forward_batch(W (M,k,d), Xp (B,Lp,d)); conv_backward_batch(dh (B,M,C), Xp, k)
    if args[0].ndim == 3 and len(args) == 2:
        M, k, d = args[0].shape
        B, Lp, _ = args[1].shape
        C = Lp - k + 1
    else:
        B, M, C = args[0].shape
        k, d = args[2], args[1].shape[2]
    return {"flop": 2.0 * B * M * C * k * d}


def _match_bytes(args, _kwargs, result):
    cells, Xp = args[0], args[1]
    return {"bytes": float(cells.shape[0] * cells[0].size + Xp.size + result.nbytes)}


def _era_reset(args, _kwargs, result):
    state = args[0]
    changed = (state.W != result.W).reshape(state.M, -1).any(axis=1)
    return {"redrawn": int(changed.sum()), "filters": state.M}


def _in_out(args, _kwargs, result):
    return {"n_in": len(args[0]), "n_out": len(result)}


def _harvest(args, _kwargs, result):
    return {"n_in": int(args[0].shape[0]), "n_out": len(result)}


OBSERVERS = {
    "kernels.conv_forward_batch": _shape_flops,
    "kernels.conv_backward_batch": _shape_flops,
    "kernels.match_first_window": _match_bytes,
    "schedule.era_reset": _era_reset,
    "curator.binarize": lambda a, k, r: {"accepted": int(r[0] is not None)},
    "trainer.harvest_filters": _harvest,
    "corpus.synth_generate": lambda a, k, r: {"clips": len(r)},
    "corpus.load_dataset": lambda a, k, r: {"clips": len(r)},
    "curator.dedup": _in_out,
    "curator.prune_subsumed": _in_out,
    "curator.select_bank": lambda a, k, r: {"n_out": len(r)},
    "analysis.explain": lambda a, k, r: {"flagged": int(bool(r.matched_pattern_ids))},
}


class Tracer:
    """Records spans (name, start, end, parent, run) while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of: dict[str, int] = {}
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.run = array("i")
        self.attrs: dict[int, dict] = {}
        self.runs: list[str] = []
        self._stack = [-1]
        self._run = -1
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install
    def _wrap(self, span_name: str, fn):
        name_id = self.name_of.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        observe = OBSERVERS.get(span_name)
        t0, t1, parent, names, runs, stack = (self.t0, self.t1, self.parent, self.name,
                                              self.run, self._stack)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(t0)
            parent.append(stack[-1])
            names.append(name_id)
            runs.append(tracer._run)
            t1.append(0.0)
            stack.append(idx)
            t0.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = perf()
                stack.pop()
            if observe is not None:
                tracer.attrs[idx] = observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every module attribute naming it."""
        mods = {m: importlib.import_module(f"patternconv.{m}") for m in MODULES}
        for mod_name, funcs in TRACED.items():
            for qual in funcs:
                owner = mods[mod_name]
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(owner, cls_name)
                    sites = [owner]
                else:
                    attr = qual
                    sites = list(mods.values())
                orig = getattr(owner, attr)
                wrapper = self._wrap(f"{mod_name}.{qual}", orig)
                for site in sites:
                    for key, val in list(vars(site).items()):
                        if val is orig:
                            self._restore.append((site, key, orig))
                            setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, orig in reversed(self._restore):
            setattr(site, key, orig)
        self._restore.clear()

    def begin_run(self, run_id: str) -> None:
        self.runs.append(run_id)
        self._run = len(self.runs) - 1

    # ------------------------------------------------------------- output
    def arrays(self) -> dict:
        return {"t0": np.array(self.t0, dtype=np.float64),
                "t1": np.array(self.t1, dtype=np.float64),
                "parent": np.array(self.parent, dtype=np.int64),
                "name": np.array(self.name, dtype=np.int32),
                "run": np.array(self.run, dtype=np.int32)}

    def save(self, path: str) -> None:
        """Write every span (columns t0, t1, parent, name, run) as .npz."""
        np.savez(path, names=np.array(self.names), runs=np.array(self.runs),
                 **self.arrays())


def span_cost_s(n: int = 20000) -> float:
    """Added time per traced call, from a wrapped no-op timed against the
    bare one (median of five trials)."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        costs.append((time.perf_counter() - t1 - (t1 - t0)) / n)
    return float(np.median(costs))


def self_times(a: dict) -> np.ndarray:
    """Span duration minus the time its direct children cover."""
    dur = a["t1"] - a["t0"]
    has_parent = a["parent"] >= 0
    covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def root_of(a: dict) -> np.ndarray:
    """Index of each span's outermost ancestor (itself for a root)."""
    root = np.arange(a["parent"].size)
    up = a["parent"].copy()
    while (up >= 0).any():
        has = up >= 0
        root[has] = up[has]
        up[has] = a["parent"][up[has]]
    return root


def layer_metrics(tr: Tracer, n_iter: int) -> dict[str, float]:
    """Per-layer metrics over the traced iterations, per iteration."""
    a = tr.arrays()
    dur = a["t1"] - a["t0"]
    self_s = self_times(a)
    ids = tr.name_of
    per = max(n_iter, 1)
    out: dict[str, float] = {}

    def sel(name):
        return a["name"] == ids[name] if name in ids else np.zeros(dur.size, bool)

    def attr_sum(name, key, mask=None):
        m = sel(name) if mask is None else sel(name) & mask
        return float(sum(tr.attrs[i][key] for i in np.flatnonzero(m)))

    def ratio(x, y):
        return x / y if y else 0.0

    def child_of(name):
        has = a["parent"] >= 0
        out = np.zeros(dur.size, bool)
        out[has] = sel(name)[a["parent"][has]]
        return out

    for name in ids:
        m = sel(name)
        out[f"{name}.calls"] = m.sum() / per
        out[f"{name}.s"] = dur[m].sum() / per
        out[f"{name}.self_s"] = self_s[m].sum() / per
    for mod in MODULES:
        mask = np.isin(a["name"], [i for n, i in ids.items() if n.split(".")[0] == mod])
        out[f"{mod}.self_s"] = self_s[mask].sum() / per

    # a training step runs from one training forward pass to the next one in
    # the same epoch, or to the end of the epoch
    steps = []
    fwd = sel("netcore.forward_batch")
    for e in np.flatnonzero(sel("trainer.train_epoch")):
        starts = a["t0"][fwd & (a["parent"] == e)]
        steps.extend(np.diff(np.append(starts, a["t1"][e])))
    out["trainer.step_ms_p50"] = float(np.median(steps)) * 1e3 if steps else 0.0

    for name in ("kernels.conv_forward_batch", "kernels.conv_backward_batch"):
        out[f"{name}.gflop"] = attr_sum(name, "flop") / 1e9 / per
    out["kernels.match_first_window.computed_mb"] = (
        attr_sum("kernels.match_first_window", "bytes") / 1e6 / per)
    out["schedule.era_reset.redrawn_frac"] = ratio(attr_sum("schedule.era_reset", "redrawn"),
                                                   attr_sum("schedule.era_reset", "filters"))
    out["curator.binarize.accept_frac"] = ratio(attr_sum("curator.binarize", "accepted"),
                                                sel("curator.binarize").sum())
    out["trainer.harvest_filters.yield"] = ratio(attr_sum("trainer.harvest_filters", "n_out"),
                                                 attr_sum("trainer.harvest_filters", "n_in"))
    out["corpus.synth_generate.match_calls_per_clip"] = ratio(
        (sel("curator.discrete_match") & child_of("corpus.synth_generate")).sum(),
        attr_sum("corpus.synth_generate", "clips"))
    out["corpus.load_dataset.clips_per_s"] = ratio(attr_sum("corpus.load_dataset", "clips"),
                                                   dur[sel("corpus.load_dataset")].sum())
    out["curator.dedup.unique_frac"] = ratio(attr_sum("curator.dedup", "n_out"),
                                             attr_sum("curator.dedup", "n_in"))
    out["curator.prune_subsumed.kept_frac"] = ratio(attr_sum("curator.prune_subsumed", "n_out"),
                                                    attr_sum("curator.prune_subsumed", "n_in"))
    out["analysis.explain.flagged_frac"] = ratio(attr_sum("analysis.explain", "flagged"),
                                                 sel("analysis.explain").sum())

    # the curation funnel, counted in the curate command only (training
    # harvests too)
    in_curate = child_of("cli.cmd_curate")
    out["funnel.raw"] = attr_sum("trainer.harvest_filters", "n_in", in_curate) / per
    out["funnel.harvested"] = attr_sum("curator.dedup", "n_in", in_curate) / per
    out["funnel.unique"] = attr_sum("curator.dedup", "n_out", in_curate) / per
    out["funnel.non_subsumed"] = attr_sum("curator.prune_subsumed", "n_out", in_curate) / per
    out["funnel.selected"] = attr_sum("curator.select_bank", "n_out", in_curate) / per

    roots = a["parent"] < 0
    out["trace.spans"] = dur.size / per
    explained = a["name"][root_of(a)] == ids.get("analysis.explain", -1)
    out["trace.chain_spans"] = (~explained).sum() / per
    out["trace.root_s"] = dur[roots].sum() / per
    return out
