"""The three benchmark workloads.

Each workload writes its inputs from the seed, sets up (timed separately as
`setup_s`), then runs rounds of timed work until the run's time is spent.
Every timed piece runs with the host-speed probe of `hostspeed.py` alongside
and is reported scaled to the reference speed; wall times are kept too.
A round's outputs are checked against the brute-force oracles in
`oracles.py`; every check and every operation counts as attempted, and each
failed check or raised operation counts as failed. In a traced run, rounds
alternate between untraced and traced, so the run also measures the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import time

import numpy as np

import hostspeed
import inputs
import oracles
from tracer import Tracer

from patternconv import analysis, cli, corpus, curator, evalmetrics, netcore

perf = time.perf_counter

FUNNEL_RE = re.compile(r"harvested (\d+) -> unique (\d+) -> non-redundant (\d+) -> selected (\d+)")
SETUP_REPEATS = 3


class Bench:
    """State of one benchmark run: counters, samples and the tracer."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: str):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.chain: list[float] = []          # untraced round work, scaled seconds
        self.chain_wall: list[float] = []     # the same, wall seconds
        self.chain_traced: list[float] = []
        self.passes = 1                       # timed passes per round; chain times are per pass
        self.clock = hostspeed.Clock()
        self.stages: dict[str, list[float]] = {}
        self.explain_ms: list[float] = []
        self.kappa: float | None = None
        self.funnel: tuple[int, ...] | None = None
        self.tracer = Tracer() if trace else None
        self.traced_wall = 0.0                # seconds spent with the tracer installed
        self.rounds = 0

    # ------------------------------------------------------------ checks
    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def op(self, fn, *args, **kwargs):
        """Run one operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # the benchmark must report, not stop, on a failure
            self.failures.append(f"{fn.__name__}: {type(e).__name__}: {e}")
            return None

    @property
    def failed(self) -> int:
        return len(self.failures)

    def cli(self, argv: list[str]) -> tuple[int | None, str]:
        """`cli.main(argv)` with the run's seed; returns (exit code, stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.op(cli.main, ["--seed", str(self.seed)] + argv)
        self.check(rc == 0, f"cli {' '.join(argv)} exited {rc}")
        return rc, buf.getvalue()

    @contextlib.contextmanager
    def traced(self, on: bool):
        if not on:
            yield
            return
        self.tracer.install()
        t0 = perf()
        try:
            yield
        finally:
            self.traced_wall += perf() - t0
            self.tracer.uninstall()

    # ------------------------------------------------------------- loops
    def rounds_for(self, round_fn, min_rounds: int) -> None:
        """Run rounds until the run's seconds are spent (at least
        `min_rounds`, and two in a traced run: one untraced, one traced).
        A round is not started when the last one says it would overrun.
        `round_fn(traced)` returns its work's (scaled, wall) seconds."""
        min_rounds = max(min_rounds, 2 if self.trace else 1)
        start, last = perf(), 0.0
        while self.rounds < min_rounds or perf() - start + last < self.seconds:
            traced = self.trace and self.rounds % 2 == 1
            if traced:
                self.tracer.begin_run(f"{self.workload}-{self.seed}-{self.rounds}")
            t0 = perf()
            scaled, wall = round_fn(traced)
            last = perf() - t0
            if traced:
                self.chain_traced.append(scaled)
            else:
                self.chain.append(scaled)
                self.chain_wall.append(wall)
            self.rounds += 1

    def explain_sweep(self, clips, bank, traced: bool) -> list:
        """Explain every clip once; latencies of untraced calls are kept."""
        out = []
        with self.traced(traced):
            for clip in clips:
                t0 = perf()
                exp = self.op(analysis.explain, clip, bank, bank.vocabulary, padding=1)
                dt = perf() - t0
                if not traced:
                    self.explain_ms.append(dt * 1e3)
                out.append(exp)
        return out

    def check_explanations(self, clips, exps, bank, first: np.ndarray) -> None:
        """Each explanation names exactly the patterns the oracle finds in
        the clip (`first`: oracle first windows, patterns x clips) and cites
        only features present in the clip."""
        ids = [p.pattern_id for p in bank.patterns]
        names = {n: j for j, n in enumerate(bank.vocabulary.feature_names)}
        for clip, exp, row in zip(clips, exps, first.T):
            if exp is None:
                continue
            expected = {pid for pid, w in zip(ids, row) if w >= 0}
            ok = set(exp.matched_pattern_ids) == expected
            for block in exp.blocks:
                for req in block["requirements"]:
                    t = req["step_index"]
                    ok &= 0 <= t < clip.length and clip.steps[t, names[req["feature"]]] == 1
            self.check(bool(ok), f"explanation of {clip.clip_id} is not faithful")


def cells_of(bank) -> list[np.ndarray]:
    return [p.cells for p in bank.patterns]


def funnel_of(stdout: str, raw: int) -> tuple[int, ...] | None:
    m = FUNNEL_RE.search(stdout)
    return (raw,) + tuple(int(x) for x in m.groups()) if m else None


def read_bank(path: str):
    with open(path) as fh:
        return curator.bank_from_json(fh.read())


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def splits(dataset, seed: int):
    split = cli.DEFAULT_CONFIG["split"]
    return corpus.stratified_split(dataset, split["test_fraction"], split["val_fraction"], seed)


# ================================================================ pipeline

def run_pipeline(b: Bench, _files: dict) -> None:
    """synth -> train -> curate -> eval through `cli.main` on the acceptance
    config."""
    out = os.path.join(b.work, "run")
    ds_path = os.path.join(out, "dataset.jsonl")
    chain = [("synth", ["synth"]),
             ("train", ["train", ds_path]),
             ("curate", ["curate", os.path.join(out, "snapshots"), ds_path]),
             ("eval", ["eval", os.path.join(out, "bank.json"), ds_path])]
    funnels = []

    def command(argv: list[str], traced: bool):
        def go():
            with b.traced(traced):
                return b.cli(["--out", out] + argv)[1]
        return go

    def one_round(traced: bool) -> tuple[float, float]:
        timed = [b.clock.time(command(argv, traced)) for _, argv in chain]
        outs = {stage: stdout for (stage, _), (stdout, _, _) in zip(chain, timed)}
        if not traced:
            for (stage, _), (_, _, scaled) in zip(chain, timed):
                b.stages.setdefault(f"{stage}_s", []).append(scaled)
        took = (sum(s for _, _, s in timed), sum(w for _, w, _ in timed))
        bank = b.op(read_bank, os.path.join(out, "bank.json"))
        dataset = b.op(corpus.load_dataset, ds_path)
        if bank is None or dataset is None:
            return took
        cfg = cli.DEFAULT_CONFIG
        raw = cfg["model"]["M"] * cfg["train"]["eras"]
        funnel = funnel_of(outs["curate"], raw)
        b.check(funnel is not None and all(x >= y for x, y in zip(funnel, funnel[1:])),
                f"curation funnel {funnel} increases")
        funnels.append(funnel)
        b.funnel = funnel
        b.check(funnel == funnels[0], f"funnel {funnel} differs from {funnels[0]}")

        _, _, test = splits(dataset, b.seed)
        truth = (oracles.predict(cells_of(bank), test.steps_array()) >= 0).any(axis=0)
        pred = b.op(curator.bank_predict_batch, bank, test)
        b.check(pred is not None and np.array_equal(pred, truth),
                "bank predictions on the test split differ from brute force")
        metrics = b.op(read_json, os.path.join(out, "metrics.json")) or {}
        reported = metrics.get("test", {}).get("kappa")
        b.check(reported is not None and oracles.close(reported, oracles.kappa(truth, test.labels())),
                f"reported test kappa {reported} differs from brute force")
        b.kappa = reported
        return took

    b.rounds_for(one_round, min_rounds=2)


# ============================================================= curate_pool

POOL_UNIQUE = 300
POOL_ERAS = 12
POOL_M = 500
POOL_CLIPS = 2000


def prepare_curate_pool(b: Bench) -> dict:
    vocab = corpus.FeatureVocabulary.default()
    rng = np.random.default_rng(b.seed)
    pool, n_general = inputs.unique_pool(vocab, POOL_UNIQUE, rng)
    snap_dir = os.path.join(b.work, "snapshots")
    expected = inputs.write_snapshots(snap_dir, vocab, pool, POOL_ERAS, POOL_M, rng)
    expected["non_subsumed"] = n_general
    X, labels = inputs.clip_log(vocab, POOL_CLIPS, b.seed + 1, p_plant=0.06, p_distract=0.7)
    ds_path = os.path.join(b.work, "dataset.jsonl")
    inputs.write_clip_log(ds_path, vocab, X, labels)
    return {"snap_dir": snap_dir, "ds_path": ds_path, "expected": expected}


def setup_curate_pool(b: Bench, files: dict) -> float:
    def load():
        dataset = corpus.load_dataset(files["ds_path"])
        for name in sorted(os.listdir(files["snap_dir"])):
            with open(os.path.join(files["snap_dir"], name)) as fh:
                netcore.filters_from_json(fh.read())
        return dataset

    took, files["dataset"] = b.clock.median_scaled(load, SETUP_REPEATS)
    return took


def run_curate_pool(b: Bench, files: dict) -> None:
    """`cli.main(["curate", ...])` over the era snapshot pool."""
    out = os.path.join(b.work, "run")
    argv = ["--out", out, "curate", files["snap_dir"], files["ds_path"]]
    exp = files["expected"]
    _, _, test = splits(files["dataset"], b.seed)

    # the kept set is the whole ranked list when every prefix is selected
    ref_out = os.path.join(b.work, "reference")
    ref_cfg = os.path.join(b.work, "select_all.json")
    with open(ref_cfg, "w") as fh:
        json.dump({"curate": {"n_override": 10 ** 9}}, fh)
    _, ref_stdout = b.cli(["--config", ref_cfg, "--out", ref_out, "curate",
                           files["snap_dir"], files["ds_path"]])
    kept = b.op(read_bank, os.path.join(ref_out, "bank.json"))
    ref_funnel = funnel_of(ref_stdout, exp["raw"])
    if kept is not None:
        pairs = oracles.subsuming_pairs(cells_of(kept))
        b.check(not pairs, f"kept set has {len(pairs)} subsuming pairs")
        b.check(ref_funnel is not None and ref_funnel[3] == len(kept),
                f"kept set of {len(kept)} patterns, funnel says {ref_funnel}")
    b.check(ref_funnel is not None and ref_funnel[:4] ==
            (exp["raw"], exp["harvested"], exp["unique"], exp["non_subsumed"]),
            f"funnel {ref_funnel} does not start {exp}")
    funnels = []

    def go(traced: bool):
        with b.traced(traced):
            return b.cli(argv)[1]

    def one_round(traced: bool) -> tuple[float, float]:
        stdout, wall, scaled = b.clock.time(lambda: go(traced))
        took = scaled, wall
        funnel = funnel_of(stdout, exp["raw"])
        funnels.append(funnel)
        b.funnel = funnel
        b.check(funnel is not None and funnel[:4] == (ref_funnel or ())[:4]
                and funnel == funnels[0], f"funnel {funnel} does not repeat {funnels[0]}")
        bank = b.op(read_bank, os.path.join(out, "bank.json"))
        curve = (b.op(read_json, os.path.join(out, "kappa_curve.json")) or {}).get("curve")
        if bank is None or kept is None or not curve:
            b.check(False, "curate left no bank, kept set or kappa curve")
            return took
        best = max(k for _, k in curve)
        n_best = next(n for n, k in curve if k == best)
        b.check(len(bank) == n_best, f"selected {len(bank)} patterns, curve argmax is {n_best}")
        b.check([p.pattern_id for p in bank.patterns] ==
                [p.pattern_id for p in kept.patterns[:len(bank)]],
                "selected bank is not a prefix of the ranked kept set")
        truth = (oracles.predict(cells_of(bank), test.steps_array()) >= 0).any(axis=0)
        rep = b.op(evalmetrics.evaluate, bank, test)
        b.kappa = rep.kappa if rep is not None else None
        b.check(rep is not None and oracles.close(rep.kappa, oracles.kappa(truth, test.labels())),
                "selected bank's test kappa differs from brute force")
        return took

    b.rounds_for(one_round, min_rounds=3)


# ============================================================ score_explain

LOG_CLIPS = 10000
# evaluate passes per timed round: a round of a few hundred milliseconds
# holds enough host-speed probes
EVAL_PASSES = 40
EXPLAIN_SAMPLE = 2000
# Flagged clips take about twice as long to explain. A fifth of the sample
# is flagged, so p50 falls well inside the unflagged calls and p99 inside
# the flagged ones, rather than on the edge between the two.
EXPLAIN_FLAGGED = 400


def prepare_score_explain(b: Bench) -> dict:
    vocab = corpus.FeatureVocabulary.default()
    X, labels = inputs.clip_log(vocab, LOG_CLIPS, b.seed)
    log_path = os.path.join(b.work, "log.jsonl")
    inputs.write_clip_log(log_path, vocab, X, labels)
    cells, ids, precisions = inputs.scoring_bank(vocab)
    bank_path = os.path.join(b.work, "bank.json")
    inputs.write_bank(bank_path, vocab, cells, ids, precisions)
    return {"log_path": log_path, "bank_path": bank_path, "cells": cells}


def setup_score_explain(b: Bench, files: dict) -> float:
    def load():
        return corpus.load_dataset(files["log_path"]), read_bank(files["bank_path"])

    took, (files["dataset"], files["bank"]) = b.clock.median_scaled(load, SETUP_REPEATS)
    return took


def run_score_explain(b: Bench, files: dict) -> None:
    """Repeated `evaluate` passes of a fixed bank over a large clip log, and
    explanations of a fixed sample of flagged and unflagged clips."""
    dataset, bank = files["dataset"], files["bank"]
    X = dataset.steps_array()
    first = oracles.predict(files["cells"], X)
    truth = (first >= 0).any(axis=0)
    rng = np.random.default_rng(b.seed)
    flagged, clean = np.flatnonzero(truth), np.flatnonzero(~truth)
    n_flag = min(flagged.size, EXPLAIN_FLAGGED)
    sample = np.sort(np.concatenate([rng.choice(flagged, n_flag, replace=False),
                                     rng.choice(clean, EXPLAIN_SAMPLE - n_flag, replace=False)]))
    clips = [dataset.clips[i] for i in sample]
    reports = []
    b.passes = EVAL_PASSES

    def go(traced: bool):
        with b.traced(traced):
            return [b.op(evalmetrics.evaluate, bank, dataset) for _ in range(EVAL_PASSES)]

    def one_round(traced: bool) -> tuple[float, float]:
        reps, wall, scaled = b.clock.time(lambda: go(traced))
        took = scaled / b.passes, wall / b.passes
        for rep in reps:
            reports.append(rep)
            b.check(rep is not None and rep == reports[0], "evaluate differs between passes")
        exps = b.explain_sweep(clips, bank, traced)
        if len(reports) == EVAL_PASSES:
            b.check_explanations(clips, exps, bank, first[:, sample])
        return took

    b.rounds_for(one_round, min_rounds=3)

    want = oracles.report(truth, dataset.labels())
    rep = reports[0]
    b.kappa = rep.kappa if rep is not None else None
    b.check(rep is not None and all(oracles.close(getattr(rep, k), v) for k, v in want.items()),
            f"evaluate report {rep} differs from brute force {want}")
    sub = corpus.Dataset(vocabulary=dataset.vocabulary, clips=tuple(clips))
    pred = b.op(curator.bank_predict_batch, bank, sub)
    b.check(pred is not None and np.array_equal(pred, truth[sample]),
            "sample predictions differ from brute force")
    sub_rep = b.op(evalmetrics.evaluate, bank, sub)
    sub_want = oracles.report(truth[sample], sub.labels())
    b.check(sub_rep is not None and all(oracles.close(getattr(sub_rep, k), v)
                                        for k, v in sub_want.items()),
            "evaluate on the sample differs from brute force")


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
