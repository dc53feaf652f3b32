"""Operator surface: synth, train, curate, eval, compare, explain subcommands
driven by a single JSON config file with reproducible seeds."""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import operator
import os
import sys

import numpy as np

from . import analysis, corpus, curator, evalmetrics, netcore, trainer
from .errors import (ConfigError, DataError, NumericalError, atomic_write, json_object,
                     padding_field, read_text)
from .schedule import DEFAULT_TARGETS, ConstraintSchedule

DEFAULT_CONFIG = {
    "model": {"M": 64, "k": 3, "padding": 1},
    "data": {
        "clip_length": 5,
        "n_clips": 2000,
        "p_plant": 0.06,
        "label_noise": 0.0,
        "feature_noise": 0.0,
        "p_help": 0.3,
        "p_feature": 0.10,
        "p_distract": 0.7,
        "planted_bank": None,
    },
    "split": {"test_fraction": 0.25, "val_fraction": 0.2},
    "train": {
        "learning_rate": 0.05,
        "final_learning_rate": 0.015,
        "batch_size": 64,
        "eras": 5,
        "epochs_per_era": 50,
        "targets": {},
        "harvest_precision_threshold": 0.3,
        "dropout_base": 0.35,
        "dropout_era_amp": 0.45,
        "anneal_end_fraction": 0.9,
        "seed": 0,
    },
    "curate": {"n_override": None},
}

# The type a set value must have where the default alone does not say it:
# these leaves may also be null (null planted_bank plants the default
# patterns, null n_override selects by kappa, null final_learning_rate keeps
# the rate flat and null dropout_base keeps the model's flat dropout).
_NULLABLE = {("data", "planted_bank"): str, ("curate", "n_override"): int,
             ("train", "final_learning_rate"): float, ("train", "dropout_base"): float}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}
# The bounds a set value must lie within, as (comparison, bound) pairs.
_AT_LEAST_0, _AT_LEAST_1 = (">=", 0), (">=", 1)
_UNIT, _OPEN_UNIT = (">=", 0, "<=", 1), (">", 0, "<", 1)
_RANGES = {
    ("model", "M"): _AT_LEAST_1, ("model", "k"): _AT_LEAST_1, ("model", "padding"): _AT_LEAST_0,
    ("data", "clip_length"): _AT_LEAST_1, ("data", "n_clips"): _AT_LEAST_1,
    ("data", "p_plant"): _UNIT, ("data", "p_help"): _UNIT, ("data", "p_feature"): _UNIT,
    ("data", "p_distract"): _UNIT,
    ("data", "label_noise"): (">=", 0, "<", 0.5), ("data", "feature_noise"): (">=", 0, "<", 0.5),
    ("split", "test_fraction"): _OPEN_UNIT, ("split", "val_fraction"): _OPEN_UNIT,
    ("train", "learning_rate"): _AT_LEAST_0, ("train", "final_learning_rate"): _AT_LEAST_0,
    ("train", "batch_size"): _AT_LEAST_1, ("train", "eras"): _AT_LEAST_1,
    ("train", "epochs_per_era"): _AT_LEAST_1, ("train", "harvest_precision_threshold"): _UNIT,
    ("train", "dropout_base"): _UNIT, ("train", "dropout_era_amp"): _UNIT,
    ("train", "anneal_end_fraction"): (">", 0, "<=", 1), ("train", "seed"): _AT_LEAST_0,
    **{("train", "targets", name): _UNIT if name == "alpha" else _AT_LEAST_0
       for name in DEFAULT_TARGETS},
    ("curate", "n_override"): _AT_LEAST_0,
}
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _fits(value, kind: type) -> bool:
    """JSON type check: no leaf takes a bool, and a float leaf takes any
    number."""
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _check_keys(override, defaults: dict, path: tuple = ()) -> None:
    """ConfigError naming the first key of `override` that is not in
    `defaults` or whose value has the wrong type."""
    where = ".".join(path) or "config"
    if not isinstance(override, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key, value in override.items():
        leaf = path + (key,)
        name = ".".join(leaf)
        if key not in defaults:
            raise ConfigError(f"unknown config key '{name}'")
        if leaf == ("train", "targets"):
            _check_keys(value, DEFAULT_TARGETS, leaf)
        elif isinstance(defaults[key], dict):
            _check_keys(value, defaults[key], leaf)
        elif value is None and leaf in _NULLABLE:
            continue
        else:
            kind = _NULLABLE.get(leaf, type(defaults[key]))
            if not _fits(value, kind):
                raise ConfigError(f"config key '{name}' must be {_TYPE_NAMES[kind]}, "
                                  f"not {json.dumps(value)}")


def _check_ranges(cfg: dict) -> None:
    """ConfigError naming the first set value outside its _RANGES bounds."""
    for leaf, spec in _RANGES.items():
        value = cfg
        for key in leaf:
            value = value.get(key)  # a target the config leaves unset is None
        bounds = list(zip(spec[::2], spec[1::2]))
        if value is not None and not all(_COMPARE[op](value, b) for op, b in bounds):
            rule = " and ".join(f"{op} {b}" for op, b in bounds)
            raise ConfigError(f"config key '{'.'.join(leaf)}' must be {rule}, "
                              f"not {json.dumps(value)}")


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def load_config(path: str | None, seed: int | None = None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                override = json.load(fh)
        except (OSError, ValueError) as e:  # ValueError: not JSON, or not UTF-8
            raise ConfigError(f"cannot read config {path}: {e}") from None
        _check_keys(override, DEFAULT_CONFIG)
        cfg = _merge(cfg, override)
    if seed is not None:
        cfg["train"]["seed"] = seed
    _check_ranges(cfg)
    model = cfg["model"]
    if model["padding"] > model["k"] - 1:
        # a window past k - 1 padding steps holds no clip step
        raise ConfigError(f"config key 'model.padding' must be <= model.k - 1 = "
                          f"{model['k'] - 1}, not {model['padding']}")
    if model["k"] > cfg["data"]["clip_length"] + 2 * model["padding"]:
        raise ConfigError("kernel length exceeds clip length plus padding")
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def default_planted_patterns(vocab: corpus.FeatureVocabulary) -> list[curator.Pattern]:
    """Three mutually non-subsuming planted patterns over the default vocabulary."""
    def mk(pid, step_features):
        cells = np.zeros((3, vocab.d), dtype=np.uint8)
        for n, names in enumerate(step_features):
            for name in names:
                cells[n, vocab.feature_names.index(name)] = 1
        return curator.Pattern(cells=cells, pattern_id=pid)

    return [
        mk("planted-0", [["help", "bottom_out_search"], ["incorrect"],
                         ["incorrect", "similar_answer"]]),
        mk("planted-1", [["help"], ["help", "repeated_help"],
                         ["incorrect", "guess_like_entry"]]),
        mk("planted-2", [["incorrect", "similar_answer"], ["incorrect", "similar_answer"],
                         ["correct", "quick_attempt"]]),
    ]


def build_schedule(tcfg: dict) -> ConstraintSchedule:
    return ConstraintSchedule.default(eras=tcfg["eras"], epochs_per_era=tcfg["epochs_per_era"],
                                      targets=tcfg["targets"])


def build_train_config(cfg: dict) -> trainer.TrainConfig:
    tcfg = cfg["train"]
    return trainer.TrainConfig(
        learning_rate=tcfg["learning_rate"],
        final_learning_rate=tcfg["final_learning_rate"],
        batch_size=tcfg["batch_size"],
        schedule=build_schedule(tcfg),
        harvest_precision_threshold=tcfg["harvest_precision_threshold"],
        dropout_base=tcfg["dropout_base"],
        dropout_era_amp=tcfg["dropout_era_amp"],
        anneal_end_fraction=tcfg["anneal_end_fraction"],
        seed=tcfg["seed"],
    )


def _parse(parse, path: str):
    """parse(text) of the bank, model or snapshot file at path; a DataError
    names the file."""
    text = read_text(path)
    try:
        return parse(text)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def _planted(cfg: dict, vocab: corpus.FeatureVocabulary) -> list[curator.Pattern]:
    path = cfg["data"]["planted_bank"]
    if path:
        return list(_parse(curator.bank_from_json, path).patterns)
    return default_planted_patterns(vocab)


def cmd_synth(cfg: dict, out: str) -> int:
    os.makedirs(out, exist_ok=True)
    vocab = corpus.FeatureVocabulary.default()
    planted = _planted(cfg, vocab)
    data = cfg["data"]
    dataset = corpus.synth_generate(
        vocab, planted, data["n_clips"], data["label_noise"], data["feature_noise"],
        seed=cfg["train"]["seed"], clip_length=data["clip_length"],
        p_plant=data["p_plant"], p_help=data["p_help"], p_feature=data["p_feature"],
        p_distract=data["p_distract"], match_padding=cfg["model"]["padding"],
    )
    h = config_hash(cfg)
    corpus.write_dataset(dataset, os.path.join(out, "dataset.jsonl"),
                         meta={"config_hash": h})
    bank = curator.PatternBank(patterns=tuple(planted), vocabulary=vocab,
                               padding=cfg["model"]["padding"])
    with atomic_write(os.path.join(out, "planted_bank.json")) as fh:
        fh.write(curator.bank_to_json(bank, extra={"config_hash": h}))
    print(f"wrote {len(dataset)} clips (positive rate {dataset.positive_rate:.3f}) to {out}")
    return 0


def _load_splits(cfg: dict, dataset_path: str):
    dataset = corpus.load_dataset(dataset_path)
    split = cfg["split"]
    return corpus.stratified_split(dataset, split["test_fraction"], split["val_fraction"],
                                   seed=cfg["train"]["seed"])


def cmd_train(cfg: dict, out: str, dataset_path: str) -> int:
    os.makedirs(out, exist_ok=True)
    train_set, val_set, _test_set = _load_splits(cfg, dataset_path)
    tc = build_train_config(cfg)
    model = cfg["model"]
    h = config_hash(cfg)

    log_path = os.path.join(out, "training_log.jsonl")
    with atomic_write(log_path) as log_fh:
        def log(rec):
            log_fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

        state, snapshots, harvested = trainer.train_full(
            tc, train_set, val_set, model["M"], model["k"], train_set.vocabulary.d,
            padding=model["padding"], log=log)

    snap_dir = os.path.join(out, "snapshots")
    os.makedirs(snap_dir, exist_ok=True)
    for snap in snapshots:
        extra = {
            "era": snap.era,
            "per_filter_precision": [None if np.isnan(p) else float(p)
                                     for p in snap.per_filter_precision],
            "config_hash": h,
        }
        with atomic_write(os.path.join(snap_dir, f"era_{snap.era:03d}.json")) as fh:
            fh.write(netcore.filters_to_json(snap.W, model["padding"], extra))

    with atomic_write(os.path.join(out, "model.json")) as fh:
        fh.write(netcore.state_to_json(state))
    bank = curator.PatternBank(patterns=tuple(harvested), vocabulary=train_set.vocabulary,
                               padding=model["padding"])
    with atomic_write(os.path.join(out, "harvested.json")) as fh:
        fh.write(curator.bank_to_json(bank, extra={"config_hash": h}))
    with atomic_write(os.path.join(out, "manifest.json")) as fh:
        json.dump({"config_hash": h, "config": cfg, "eras": len(snapshots),
                   "harvested": len(harvested)}, fh, indent=2)
    print(f"trained {len(snapshots)} eras; harvested {len(harvested)} filters")
    return 0


def _snapshot_fields(doc: dict, M: int, path: str) -> tuple[int, np.ndarray]:
    """A snapshot's era (-1 when it has none) and per-filter precisions, null
    read as NaN."""
    era = doc.get("era", -1)
    if "era" in doc and (type(era) is not int or era < 0):
        raise DataError(f"{path}: era must be a non-negative integer, not {json.dumps(era)}")
    if "per_filter_precision" not in doc:
        raise DataError(f"{path}: filter snapshot file missing key 'per_filter_precision'")
    try:
        prec = np.array([np.nan if p is None else p for p in doc["per_filter_precision"]],
                        dtype=np.float64)
    except (TypeError, ValueError):
        prec = None
    if prec is None or prec.shape != (M,) or ((prec < 0) | (prec > 1)).any():
        raise DataError(f"{path}: per_filter_precision must list a number in [0, 1] "
                        f"or null for each of the {M} filters")
    return era, prec


def cmd_curate(cfg: dict, out: str, snapshots_dir: str, dataset_path: str) -> int:
    os.makedirs(out, exist_ok=True)
    train_set, val_set, _ = _load_splits(cfg, dataset_path)
    vocab = train_set.vocabulary
    tcfg = cfg["train"]

    files = sorted(f for f in os.listdir(snapshots_dir) if f.endswith(".json"))
    if not files:
        raise DataError(f"no snapshot files in {snapshots_dir}")
    harvested = []
    padding, first = None, None  # the padding the snapshots' model was trained with
    for fname in files:
        path = os.path.join(snapshots_dir, fname)
        W, doc = _parse(netcore.filters_from_json, path)
        if W.shape[2] != vocab.d:
            raise DataError(f"{path}: filters have {W.shape[2]} features, the clips "
                            f"have {vocab.d}")
        snap_padding = padding_field(doc, path, W.shape[1])
        if padding is None:
            padding, first = snap_padding, path
        elif snap_padding != padding:
            raise DataError(f"snapshots disagree on padding: {first} has {padding}, "
                            f"{path} has {snap_padding}")
        era, precisions = _snapshot_fields(doc, len(W), path)
        harvested.extend(trainer.harvest_filters(W, precisions, era, vocab,
                                                 tcfg["harvest_precision_threshold"]))

    unique = curator.dedup(harvested)
    pruned = curator.prune_subsumed(unique, clip_length=cfg["data"]["clip_length"],
                                    padding=padding)
    ranked, curve = curator.cumulative_kappa_curve(pruned, train_set, val_set,
                                                  padding=padding)
    bank = curator.select_bank(curve, ranked, vocab, n_override=cfg["curate"]["n_override"],
                               padding=padding)
    h = config_hash(cfg)
    with atomic_write(os.path.join(out, "bank.json")) as fh:
        fh.write(curator.bank_to_json(bank, extra={"config_hash": h}))
    with atomic_write(os.path.join(out, "kappa_curve.json")) as fh:
        json.dump({"config_hash": h, "curve": curve}, fh)
    print(f"harvested {len(harvested)} -> unique {len(unique)} -> "
          f"non-redundant {len(pruned)} -> selected {len(bank)}")
    return 0


def _predictor(text: str):
    """The pattern bank or model a predictor file holds."""
    form = json_object(text, "predictor file").get("format")
    if form == "patternconv-bank":
        return curator.bank_from_json(text)
    if form == "patternconv-model":
        return netcore.state_from_json(text)
    raise DataError("neither a bank nor a model file")


def cmd_eval(cfg: dict, out: str, predictor_path: str, dataset_path: str) -> int:
    os.makedirs(out, exist_ok=True)
    predictor = _parse(_predictor, predictor_path)
    train_set, val_set, test_set = _load_splits(cfg, dataset_path)
    rows = {name: evalmetrics.evaluate(predictor, ds)
            for name, ds in (("train", train_set), ("val", val_set), ("test", test_set))}
    print(evalmetrics.render_table(rows))
    with atomic_write(os.path.join(out, "metrics.json")) as fh:
        json.dump({"config_hash": config_hash(cfg),
                   **{name: json.loads(rep.to_json()) for name, rep in rows.items()}}, fh)
    return 0


def cmd_compare(cfg: dict, out: str, bank_path: str, expert_path: str) -> int:
    os.makedirs(out, exist_ok=True)
    bank = _parse(curator.bank_from_json, bank_path)
    experts = analysis.load_expert_patterns(expert_path, bank.vocabulary)
    # experts expand to the bank's pattern length; an empty bank has none
    k = bank.patterns[0].cells.shape[0] if bank.patterns else cfg["model"]["k"]
    report = analysis.compare_banks(bank, experts, k=k)
    report["config_hash"] = config_hash(cfg)
    report["stats"] = analysis.pattern_stats(bank)
    with atomic_write(os.path.join(out, "comparison.json")) as fh:
        json.dump(report, fh, indent=2)
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
    if clip_id not in dataset.clip_ids:
        raise DataError(f"clip '{clip_id}' not found in {clip_path}")
    i = dataset.clip_ids.index(clip_id)
    clip = corpus.Clip(clip_id, dataset.steps_array()[i], bool(dataset.labels()[i]))
    exp = analysis.explain(clip, bank, bank.vocabulary, padding=bank.padding)
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

    sub.add_parser("synth", help="generate a planted-pattern dataset")
    p_train = sub.add_parser("train", help="run the multi-era training loop")
    p_train.add_argument("dataset", help="clip file (from synth or external)")
    p_curate = sub.add_parser("curate", help="curate era snapshots into a pattern bank")
    p_curate.add_argument("snapshots", help="snapshot directory from train")
    p_curate.add_argument("dataset", help="clip file used for ranking/selection splits")
    p_eval = sub.add_parser("eval", help="evaluate a bank or model on the splits")
    p_eval.add_argument("predictor", help="bank.json or model.json")
    p_eval.add_argument("dataset")
    p_cmp = sub.add_parser("compare", help="compare a bank with expert patterns")
    p_cmp.add_argument("bank")
    p_cmp.add_argument("experts", help="line-delimited expert pattern file")
    p_exp = sub.add_parser("explain", help="explain the prediction for one clip")
    p_exp.add_argument("bank")
    p_exp.add_argument("clips")
    p_exp.add_argument("clip_id")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args.seed)
        if args.command == "synth":
            return cmd_synth(cfg, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.out, args.dataset)
        if args.command == "curate":
            return cmd_curate(cfg, args.out, args.snapshots, args.dataset)
        if args.command == "eval":
            return cmd_eval(cfg, args.out, args.predictor, args.dataset)
        if args.command == "compare":
            return cmd_compare(cfg, args.out, args.bank, args.experts)
        if args.command == "explain":
            return cmd_explain(cfg, args.out, args.bank, args.clips, args.clip_id)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
