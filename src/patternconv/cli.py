"""Operator surface: synth, train, curate, eval, compare, explain subcommands
driven by a single JSON config file with reproducible seeds."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import analysis, corpus, curator, evalmetrics, kernels, netcore, trainer
from .errors import (INTEGER, OBJECT, STRING, ConfigError, DataError, NumericalError,
                     atomic_write, fields, json_object, nullable, read_text, within)
from .schedule import ConstraintSchedule

_COUNT, _INDEX = within("[1, inf)", INTEGER), within("[0, inf)", INTEGER)
# at most 2**53, the largest integer a float holds exactly, so that
# eras * epochs_per_era stays a finite float
_ERA_COUNT = within("[1, 9007199254740992]", INTEGER)
_UNIT, _NOISE = within("[0, 1]"), within("[0, 0.5)")
# Every key a config may set, with its rule and default as errors.fields reads
# them. A null planted_bank plants the default patterns and a null n_override
# selects by kappa; no other key takes null. The values no run varies are
# constants: the learning rates and batch size in trainer, and synth's
# background rates as synth_generate's defaults.
_SCHEMA = {
    "model": {"M": (*_COUNT, 64), "k": (*_COUNT, 3)},
    "data": {
        "clip_length": (*_COUNT, 5),
        "n_clips": (*_COUNT, 2000),
        "p_plant": (*_UNIT, 0.06),
        "label_noise": (*_NOISE, 0.0),
        "feature_noise": (*_NOISE, 0.0),
        "p_distract": (*_UNIT, 0.7),
        "planted_bank": (*nullable(STRING), None),
    },
    "split": {"test_fraction": (*within("(0, 1)"), 0.25),
              "val_fraction": (*within("(0, 1)"), 0.2)},
    "train": {
        "eras": (*_ERA_COUNT, 5),
        "epochs_per_era": (*_ERA_COUNT, 50),
        "seed": (*_INDEX, 0),
    },
    "curate": {"n_override": (*nullable(_INDEX), None)},
}


def _defaults(schema: dict) -> dict:
    """A fresh config tree of the defaults in `schema`."""
    return {key: _defaults(entry) if isinstance(entry, dict) else entry[2]
            for key, entry in schema.items()}


DEFAULT_CONFIG = _defaults(_SCHEMA)


def _merged(override, base: dict, schema: dict = _SCHEMA, path: str = "") -> dict:
    """`base` deep-merged with `override`; ConfigError naming the first key of
    `override` that `schema` does not list or whose value breaks its rule."""
    out = dict(base)
    for key, value in override.items():
        name = path + key
        if key not in schema:
            raise ConfigError(f"unknown config key '{name}'")
        section = isinstance(schema[key], dict)
        fields({name: value}, {name: OBJECT if section else schema[key]}, "config key",
               ConfigError)
        out[key] = _merged(value, base[key], schema[key], name + ".") if section else value
    return out


def load_config(path: str | None, seed: int | None = None) -> dict:
    cfg = _defaults(_SCHEMA)  # every default passes its own rule
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                override = json.load(fh)
        # ValueError: not JSON, or not UTF-8; RecursionError: nested too deeply
        except (OSError, ValueError, RecursionError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        if not isinstance(override, dict):
            raise ConfigError("config must be a JSON object")
        cfg = _merged(override, cfg)
    return cfg if seed is None else _merged({"train": {"seed": seed}}, cfg)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def default_planted_patterns(vocab: corpus.FeatureVocabulary) -> list[curator.Pattern]:
    """Three mutually non-subsuming planted patterns over the default vocabulary."""
    steps = {
        "planted-0": [["help", "bottom_out_search"], ["incorrect"],
                      ["incorrect", "similar_answer"]],
        "planted-1": [["help"], ["help", "repeated_help"], ["incorrect", "guess_like_entry"]],
        "planted-2": [["incorrect", "similar_answer"], ["incorrect", "similar_answer"],
                      ["correct", "quick_attempt"]],
    }
    # a 3-step expert pattern expands to itself alone, named as the expert
    return [analysis.expand_expert(analysis.expert_from_names(name, named, vocab), vocab)[0]
            for name, named in steps.items()]


def build_train_config(cfg: dict) -> trainer.TrainConfig:
    """The TrainConfig of the config's train section: of the default config,
    TrainConfig()."""
    tcfg = cfg["train"]
    return trainer.TrainConfig(
        schedule=ConstraintSchedule(tcfg["eras"], tcfg["epochs_per_era"]), seed=tcfg["seed"])


def _write(path: str, text: str) -> None:
    """Write an output file atomically."""
    with atomic_write(path) as fh:
        fh.write(text)


def _parse(parse, path: str):
    """parse(text) of the bank, model or snapshot file at path; a DataError
    names the file."""
    text = read_text(path)
    try:
        return parse(text)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def _planted(cfg: dict, vocab: corpus.FeatureVocabulary,
             clip_path: str) -> list[curator.Pattern]:
    """The patterns synth plants: a planted bank's must be legal and over the
    vocabulary of the clips it writes to clip_path."""
    path = cfg["data"]["planted_bank"]
    if not path:
        return default_planted_patterns(vocab)
    bank = _parse(curator.bank_from_json, path)
    _same_vocabulary(bank, path, vocab, clip_path)
    for pat in bank.patterns:
        fault = curator.pattern_violation(pat.cells, vocab)
        if fault:
            raise DataError(f"{path}: planted pattern '{pat.pattern_id}' violates "
                            f"invariants: {fault}")
    return list(bank.patterns)


def _addressable(*arrays) -> None:
    """MemoryError, in numpy's words, for the first (shape, dtype) array past the
    address space, which numpy refuses with a ValueError (np.sqrt, a TypeError)."""
    for shape, dtype in arrays:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if nbytes > np.iinfo(np.intp).max:
            raise MemoryError(f"Unable to allocate {nbytes / 2 ** 60:.3g} EiB for an array "
                              f"with shape {shape} and data type {np.dtype(dtype)}")


def cmd_synth(cfg: dict, out: str) -> int:
    # data.clip_length steers synth alone; other commands window the clips they load
    k, data = cfg["model"]["k"], cfg["data"]
    padding = kernels.padding_for(k)
    if k > data["clip_length"] + 2 * padding:
        raise ConfigError(f"config key 'model.k' must be <= data.clip_length + 2 * {padding} "
                          f"= {data['clip_length'] + 2 * padding}, not {k}")
    vocab = corpus.FeatureVocabulary.default()
    _addressable(((data["n_clips"], data["clip_length"], vocab.d), np.uint8))  # the clips
    clip_path = os.path.join(out, "dataset.jsonl")
    planted = _planted(cfg, vocab, clip_path)
    # every data key but planted_bank is a synth_generate parameter
    dataset = corpus.synth_generate(
        vocab, planted, seed=cfg["train"]["seed"],
        **{key: data[key] for key in data if key != "planted_bank"})
    h = config_hash(cfg)
    corpus.write_dataset(dataset, clip_path, meta={"config_hash": h})
    bank = curator.PatternBank(patterns=tuple(planted), vocabulary=vocab)
    _write(os.path.join(out, "planted_bank.json"), curator.bank_to_json(bank, {"config_hash": h}))
    print(f"wrote {len(dataset)} clips (positive rate {dataset.positive_rate:.3f}) to {out}")
    return 0


def _check_kernel(source: str | None, what: str, shape: tuple, clips: corpus.Dataset,
                  clip_path: str) -> None:
    """DataError, naming the clip file and `source` (the file that holds the
    kernel, or None for the config's), unless `what` of shape (k, d) read the
    clips: d must be their width, and k find a window in each padded clip."""
    k, d = shape
    padding = kernels.padding_for(k)
    clip_length, width = clips.steps_array().shape[1:]
    source = f"{source}: " if source else ""
    if d != width:
        raise DataError(f"{source}the {what} have {d} features, the clips in {clip_path} "
                        f"have {width}")
    if k > clip_length + 2 * padding:
        raise DataError(f"{source}clip too short for the kernel even with padding: {k}-step "
                        f"{what} at padding {padding}, {clip_length}-step clips in {clip_path}")


def _load_splits(cfg: dict, dataset_path: str):
    dataset = corpus.load_dataset(dataset_path)
    split = cfg["split"]
    return corpus.stratified_split(dataset, split["test_fraction"], split["val_fraction"],
                                   seed=cfg["train"]["seed"])


def cmd_train(cfg: dict, out: str, dataset_path: str) -> int:
    train_set, val_set, _test_set = _load_splits(cfg, dataset_path)
    tc = build_train_config(cfg)
    model = cfg["model"]
    _addressable(((model["M"], model["k"], train_set.vocabulary.d), np.float64))  # the filters
    _check_kernel(None, "filters", (model["k"], train_set.vocabulary.d), train_set,
                  dataset_path)
    h = config_hash(cfg)

    log_path = os.path.join(out, "training_log.jsonl")
    with atomic_write(log_path) as log_fh:
        def log(rec):
            log_fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

        state, snapshots, harvested = trainer.train_full(
            tc, train_set, val_set, model["M"], model["k"], train_set.vocabulary.d, log=log)

    for snap in snapshots:
        _write(os.path.join(out, "snapshots", f"era_{snap.era:03d}.json"),
               netcore.filters_to_json(snap, {"config_hash": h}))

    _write(os.path.join(out, "model.json"), netcore.state_to_json(state, {"config_hash": h}))
    bank = curator.PatternBank(patterns=tuple(harvested), vocabulary=train_set.vocabulary)
    _write(os.path.join(out, "harvested.json"), curator.bank_to_json(bank, {"config_hash": h}))
    _write(os.path.join(out, "manifest.json"),
           json.dumps({"config_hash": h, "config": cfg, "eras": len(snapshots),
                       "harvested": len(harvested)}, indent=2))
    print(f"trained {len(snapshots)} eras; harvested {len(harvested)} filters")
    return 0


def cmd_curate(cfg: dict, out: str, snapshots_dir: str, dataset_path: str) -> int:
    train_set, val_set, _ = _load_splits(cfg, dataset_path)
    vocab = train_set.vocabulary

    files = sorted(f for f in os.listdir(snapshots_dir) if f.endswith(".json"))
    if not files:
        raise DataError(f"no snapshot files in {snapshots_dir}")
    harvests = []
    first = None  # the first snapshot file and its k, which every other must share
    era_file = {}  # each era's snapshot file: two files of one era give one pattern id twice
    for fname in files:
        path = os.path.join(snapshots_dir, fname)
        snap = _parse(netcore.filters_from_json, path)
        # an empty harvest windows no clip, so check here
        _check_kernel(path, "filters", snap.W.shape[1:], train_set, dataset_path)
        k = snap.W.shape[1]
        first = first or (path, k)
        if k != first[1]:
            raise DataError(f"snapshots disagree on k: {first[0]} has {first[1]}, {path} has {k}")
        if snap.era in era_file:
            raise DataError(f"snapshots share era {snap.era}: {era_file[snap.era]} and {path}")
        era_file[snap.era] = path
        harvests.append(trainer.harvest_filters(snap.W, snap.per_filter_precision, snap.era, vocab))

    harvested = curator.Harvest.concat(harvests)
    unique = curator.dedup(harvested)
    pruned = curator.prune_subsumed(unique, clip_length=train_set.steps_array().shape[1])
    ranked, curve = curator.cumulative_kappa_curve(pruned, train_set, val_set)
    bank = curator.select_bank(curve, ranked, vocab, n_override=cfg["curate"]["n_override"])
    h = config_hash(cfg)
    _write(os.path.join(out, "bank.json"), curator.bank_to_json(bank, {"config_hash": h}))
    _write(os.path.join(out, "kappa_curve.json"), json.dumps({"config_hash": h, "curve": curve}))
    print(f"harvested {len(harvested)} -> unique {len(unique)} -> "
          f"non-redundant {len(pruned)} -> selected {len(bank)}")
    return 0


def _predictor(text: str):
    """The pattern bank or model a predictor file holds, parsed once."""
    doc = json_object(text, "predictor file")
    form = doc.get("format")
    if form == "patternconv-bank":
        return curator.bank_from_json(doc)
    if form == "patternconv-model":
        return netcore.state_from_json(doc)
    raise DataError("neither a bank nor a model file")


def _same_vocabulary(bank: curator.PatternBank, bank_path: str,
                     vocab: corpus.FeatureVocabulary, clip_path: str) -> None:
    """DataError unless a bank's features are the clip file's: a bank matched
    or planted on other columns flags, explains or plants by the wrong
    features."""
    if bank.vocabulary != vocab:
        raise DataError(f"{bank_path}: the bank's vocabulary differs from the vocabulary "
                        f"header of {clip_path}")


def _check_predictor(predictor, predictor_path: str, clips: corpus.Dataset,
                     clip_path: str) -> None:
    """DataError, naming both files, unless a bank or model reads the clips:
    a bank's features must be theirs, and its patterns or the model's filters
    must fit them."""
    if isinstance(predictor, netcore.ModelState):
        _check_kernel(predictor_path, "filters", predictor.W.shape[1:], clips, clip_path)
        return
    _same_vocabulary(predictor, predictor_path, clips.vocabulary, clip_path)
    if predictor.patterns:
        _check_kernel(predictor_path, "patterns", predictor.patterns[0].cells.shape, clips,
                      clip_path)


def cmd_eval(cfg: dict, out: str, predictor_path: str, dataset_path: str) -> int:
    predictor = _parse(_predictor, predictor_path)
    train_set, val_set, test_set = _load_splits(cfg, dataset_path)
    _check_predictor(predictor, predictor_path, train_set, dataset_path)
    rows = {name: evalmetrics.evaluate(predictor, ds)
            for name, ds in (("train", train_set), ("val", val_set), ("test", test_set))}
    print(evalmetrics.render_table(rows))
    _write(os.path.join(out, "metrics.json"),
           json.dumps({"config_hash": config_hash(cfg),
                       **{name: dataclasses.asdict(rep) for name, rep in rows.items()}}))
    return 0


def cmd_compare(cfg: dict, out: str, bank_path: str, expert_path: str) -> int:
    bank = _parse(curator.bank_from_json, bank_path)
    experts = analysis.load_expert_patterns(expert_path, bank.vocabulary)
    # experts expand to the bank's pattern length; an empty bank has none
    k = bank.patterns[0].cells.shape[0] if bank.patterns else cfg["model"]["k"]
    try:
        report = analysis.compare_banks(bank, experts, k=k)
    except DataError as e:  # an expert that does not expand to k steps
        raise DataError(f"{expert_path}: {e}") from None
    report["config_hash"] = config_hash(cfg)
    report["stats"] = analysis.pattern_stats(bank)
    _write(os.path.join(out, "comparison.json"), json.dumps(report, indent=2))
    mean = report["all_pairs"]["mean"]
    print(f"compared {len(bank)} learned patterns with "
          f"{len(report['expanded_experts'])} expanded expert patterns; "
          f"mean distance {mean if mean is None else round(mean, 2)}")
    for rec in report["per_expert_nearest"]:
        print(f"  {rec['expert_id']}: nearest {rec['nearest_pattern']} "
              f"at distance {rec['distance']}")
    return 0


def cmd_explain(cfg: dict, out: str, bank_path: str, clip_path: str, clip_id: str) -> int:
    bank = _parse(curator.bank_from_json, bank_path)
    dataset = corpus.load_dataset(clip_path)
    _check_predictor(bank, bank_path, dataset, clip_path)
    if clip_id not in dataset.clip_ids:
        raise DataError(f"clip '{clip_id}' not found in {clip_path}")
    i = dataset.clip_ids.index(clip_id)
    clip = corpus.Clip(clip_id, dataset.steps_array()[i], bool(dataset.labels()[i]))
    exp = analysis.explain(clip, bank, dataset.vocabulary)
    print(exp.bullet_text)
    print()
    print(exp.matrix_text)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, per the documented codes
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="patternconv")
    parser.add_argument("--config", default=None, help="JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="runs/out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's `run` looks its cmd_ function up by name when it runs,
    # so a wrapper set on the module attribute is the one called
    p = sub.add_parser("synth", help="generate a planted-pattern dataset")
    p.set_defaults(run=lambda cfg, a: cmd_synth(cfg, a.out))
    p = sub.add_parser("train", help="run the multi-era training loop")
    p.add_argument("dataset", help="clip file (from synth or external)")
    p.set_defaults(run=lambda cfg, a: cmd_train(cfg, a.out, a.dataset))
    p = sub.add_parser("curate", help="curate era snapshots into a pattern bank")
    p.add_argument("snapshots", help="snapshot directory from train")
    p.add_argument("dataset", help="clip file used for ranking/selection splits")
    p.set_defaults(run=lambda cfg, a: cmd_curate(cfg, a.out, a.snapshots, a.dataset))
    p = sub.add_parser("eval", help="evaluate a bank or model on the splits")
    p.add_argument("predictor", help="bank.json or model.json")
    p.add_argument("dataset")
    p.set_defaults(run=lambda cfg, a: cmd_eval(cfg, a.out, a.predictor, a.dataset))
    p = sub.add_parser("compare", help="compare a bank with expert patterns")
    p.add_argument("bank")
    p.add_argument("experts", help="line-delimited expert pattern file")
    p.set_defaults(run=lambda cfg, a: cmd_compare(cfg, a.out, a.bank, a.experts))
    p = sub.add_parser("explain", help="explain the prediction for one clip")
    p.add_argument("bank")
    p.add_argument("clips")
    p.add_argument("clip_id")
    p.set_defaults(run=lambda cfg, a: cmd_explain(cfg, a.out, a.bank, a.clips, a.clip_id))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(load_config(args.config, args.seed), args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # numpy's message names the shape it could not allocate
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
