"""Command-line pipeline: config handling, exit codes, and an end-to-end
synth -> train -> curate -> eval -> compare -> explain run on a tiny config."""

import copy
import dataclasses
import inspect
import json
import os

import numpy as np
import pytest

from conftest import random_legal_steps
from patternconv import analysis, cli, corpus, curator, netcore, trainer
from patternconv.errors import DataError
from patternconv.schedule import ConstraintSchedule

TINY_CONFIG = {
    "model": {"M": 8},
    "data": {"n_clips": 240, "p_plant": 0.2, "p_distract": 0.0},
    "train": {"eras": 1, "epochs_per_era": 4},
}

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


@pytest.fixture()
def tiny_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


def _run(argv):
    return cli.main(argv)


# --------------------------------------------------------------- config layer

def test_load_config_defaults_and_merge(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"train": {"eras": 2}}))
    cfg = cli.load_config(str(path), seed=7)
    assert cfg["train"]["eras"] == 2
    assert cfg["train"]["epochs_per_era"] == 50  # untouched default
    assert cfg["train"]["seed"] == 7


def test_load_config_leaves_defaults_unchanged():
    before = copy.deepcopy(cli.DEFAULT_CONFIG)
    first = cli.load_config(None, seed=7)
    second = cli.load_config(None, seed=11)
    assert first["train"]["seed"] == 7 and second["train"]["seed"] == 11
    assert cli.DEFAULT_CONFIG == before


def test_config_hash_stable_under_key_order(tmp_path):
    a = cli.config_hash({"x": 1, "y": 2})
    b = cli.config_hash({"y": 2, "x": 1})
    assert a == b and len(a) == 16


def test_invalid_kernel_config_exits_1(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": {"k": 9}}))
    code = _run(["--config", str(path), "--out", str(tmp_path / "o"), "synth"])
    assert code == 1
    assert "error" in capsys.readouterr().err


# each case is a config the schema rejects, and the key path its error names
BAD_CONFIGS = {
    "removed_data_dataset": ({"data": {"dataset": "clips.jsonl"}}, "data.dataset"),
    "removed_model_d": ({"model": {"d": 13}}, "model.d"),
    "removed_model_padding": ({"model": {"padding": 1}}, "model.padding"),
    # the learning rates, the batch size and synth's background rates are constants
    "removed_learning_rate": ({"train": {"learning_rate": 0.05}}, "train.learning_rate"),
    "removed_final_learning_rate": ({"train": {"final_learning_rate": 0.015}},
                                    "train.final_learning_rate"),
    "removed_batch_size": ({"train": {"batch_size": 64}}, "train.batch_size"),
    "removed_p_help": ({"data": {"p_help": 0.3}}, "data.p_help"),
    "removed_p_feature": ({"data": {"p_feature": 0.1}}, "data.p_feature"),
    "removed_class_weighting": ({"train": {"class_weighting": True}}, "train.class_weighting"),
    "removed_check_shifts": ({"curate": {"check_shifts": False}}, "curate.check_shifts"),
    "removed_targets": ({"train": {"targets": {"bin": 2.0}}}, "train.targets"),
    "removed_harvest_threshold": ({"train": {"harvest_precision_threshold": 0.3}},
                                  "train.harvest_precision_threshold"),
    "typo_epoch_per_era": ({"train": {"epoch_per_era": 2}}, "train.epoch_per_era"),
    "unknown_section": ({"eval": {}}, "eval"),
    "string_count": ({"train": {"eras": "2"}}, "train.eras"),
    "float_count": ({"model": {"M": 8.0}}, "model.M"),
    "bool_count": ({"data": {"clip_length": True}}, "data.clip_length"),
    "string_rate": ({"data": {"p_distract": "0.1"}}, "data.p_distract"),
    "bool_rate": ({"data": {"p_plant": False}}, "data.p_plant"),
    "null_count": ({"data": {"n_clips": None}}, "data.n_clips"),
    "null_rate": ({"data": {"p_plant": None}}, "data.p_plant"),
    "numeric_path": ({"data": {"planted_bank": 3}}, "data.planted_bank"),
    "float_override": ({"curate": {"n_override": 2.5}}, "curate.n_override"),
    "section_not_object": ({"model": 3}, "model"),
    "targets_not_object": ({"train": {"targets": [1.0]}}, "train.targets"),
    "not_object": ([], "config"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_config_schema_violations_exit_1(tmp_path, capsys, case):
    config, key = BAD_CONFIGS[case]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    code = _run(["--config", str(path), "--out", str(tmp_path / "o"), "synth"])
    err = capsys.readouterr().err
    assert code == 1
    assert f"'{key}'" in err or f"error: {key} must be" in err
    assert not (tmp_path / "o").exists()


def test_config_accepts_nulls_and_numbers_where_meant(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "data": {"planted_bank": None, "p_plant": 1, "p_distract": 0, "label_noise": 0},
        "curate": {"n_override": 2}}))
    cfg = cli.load_config(str(path))
    assert cfg["curate"]["n_override"] == 2 and cfg["data"]["planted_bank"] is None
    assert [cfg["data"][key] for key in ("p_plant", "p_distract", "label_noise")] == [1, 0, 0]


def _out_of_range(key):
    return f"config key '{key}' must be"


# the padding follows from model.k, so a padding the code could not run with
# is now an unknown key rather than a value out of range
_UNKNOWN_PADDING = "unknown config key 'model.padding'"

# each case is a config value the code could not run with, the command that
# failed on it, and the text its error holds
OUT_OF_RANGE = {
    "no_filters": ({"model": {"M": 0}}, "train", _out_of_range("model.M")),
    "negative_clip_count": ({"data": {"n_clips": -5}}, "synth", _out_of_range("data.n_clips")),
    # no clips: 0 is below a count's lower bound
    "empty_batch": ({"data": {"n_clips": 0}}, "train", _out_of_range("data.n_clips")),
    "test_fraction_above_one": ({"split": {"test_fraction": 2}}, "train",
                                _out_of_range("split.test_fraction")),
    "kernel_longer_than_padded_clip": ({"model": {"k": 8}}, "synth", _out_of_range("model.k")),
    "negative_padding": ({"model": {"padding": -1}}, "synth", _UNKNOWN_PADDING),
    "padding_above_k_minus_1": ({"model": {"k": 3, "padding": 3}}, "train", _UNKNOWN_PADDING),
    # above the 2**53 bound; at 10**400 the era arithmetic overflowed a float
    "huge_eras": ({"train": {"eras": 10 ** 400}}, "synth", _out_of_range("train.eras")),
    "huge_epochs_per_era": ({"train": {"epochs_per_era": 10 ** 400}}, "synth",
                            _out_of_range("train.epochs_per_era")),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_config_values_out_of_range_exit_1(tmp_path, capsys, vocab, case):
    config, command, message = OUT_OF_RANGE[case]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    argv = {"synth": ["synth"],
            "train": ["train", _write_clips(tmp_path / "d.jsonl", vocab, 40, 5)]}[command]
    code = _run(["--config", str(path), "--out", str(tmp_path / "o")] + argv)
    err = capsys.readouterr().err
    assert code == 1
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_kernel_is_checked_against_the_clips_train_loads(tmp_path, capsys, vocab):
    """data.clip_length steers synth alone: train fits an 8-step kernel to the
    10-step clips it loads, and clips shorter than the padded kernel exit 2."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": {"M": 4, "k": 8},
                                "train": {"eras": 1, "epochs_per_era": 2}}))
    argv = ["--config", str(path), "--out", str(tmp_path / "o"), "train"]
    assert _run(argv + [_write_clips(tmp_path / "long.jsonl", vocab, 40, 10)]) == 0
    short = _write_clips(tmp_path / "short.jsonl", vocab, 40, 5)
    assert _run(argv + [short]) == 2
    err = capsys.readouterr().err
    assert (f"data error: clip too short for the kernel even with padding: 8-step filters at "
            f"padding 1, 5-step clips in {short}\n") in err
    assert "Traceback" not in err


# each case is a config whose arrays are far past any address space, so they
# are refused at once without touching memory, and the command it fails in
OVERSIZED = {
    "clips": ({"data": {"n_clips": 10 ** 13}}, "synth"),   # 591 TiB of clip steps
    "filters": ({"model": {"M": 10 ** 12}}, "train"),     # 284 TiB of filter weights
    # past the 8 EiB address space: numpy itself raises ValueError for these
    "clips_past_address_space": ({"data": {"n_clips": 10 ** 18}}, "synth"),
    "clip_length_past_address_space": ({"data": {"clip_length": 10 ** 15}}, "synth"),
    "filters_past_address_space": ({"model": {"M": 10 ** 18}}, "train"),
    "filters_past_int64": ({"model": {"M": 10 ** 23}}, "train"),  # np.sqrt(M) a TypeError
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_config_exits_1_out_of_memory(tmp_path, capsys, vocab, case):
    config, command = OVERSIZED[case]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    argv = {"synth": ["synth"],
            "train": ["train", _write_clips(tmp_path / "d.jsonl", vocab, 40, 5)]}[command]
    code = _run(["--config", str(path), "--out", str(tmp_path / "o")] + argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "error: out of memory: Unable to allocate" in err and "shape" in err
    assert "Traceback" not in err


def test_schema_has_the_shape_of_the_default_config():
    """_SCHEMA lists the keys of DEFAULT_CONFIG at every level, and every
    default passes its own rule. It has 15 settable values: a value no run
    varies is a constant, not a key."""
    defaults = copy.deepcopy(cli.DEFAULT_CONFIG)

    def walk(schema, default, path):
        assert schema.keys() == default.keys(), path
        values = 0
        for key, entry in schema.items():
            if isinstance(entry, dict):
                values += walk(entry, default[key], path + (key,))
            else:
                test, rule, *_ = entry
                assert test(default[key]), (path + (key,), rule)
                values += 1
        return values
    assert walk(cli._SCHEMA, defaults, ()) == 15


def test_cli_defaults_are_the_acceptance_configuration():
    """DEFAULT_CONFIG trains, synthesizes and splits as the planted benchmark
    of tests/test_acceptance.py does, so a default CLI run is that run; and
    its training and synth settings are the library's defaults, so
    TrainConfig() and synth_generate's defaults are that run too."""
    cfg = cli.DEFAULT_CONFIG
    assert cli.build_train_config(cfg) == trainer.TrainConfig()
    assert [f.name for f in dataclasses.fields(trainer.TrainConfig)] == [
        "schedule", "log_val_metrics", "seed"]
    assert trainer.TrainConfig().schedule == ConstraintSchedule(eras=5, epochs_per_era=50)
    params = inspect.signature(corpus.synth_generate).parameters
    defaults = {key: p.default for key, p in params.items() if p.default is not p.empty}
    data = {key: cfg["data"][key] for key in cfg["data"].keys() - {"planted_bank"}}
    # every defaulted key the config sets is at its default; the rest are constants
    assert {key: data[key] for key in defaults.keys() & data.keys()} == \
        {key: defaults[key] for key in defaults.keys() & data.keys()}
    assert defaults.keys() - data.keys() == {"p_help", "p_feature"}
    # the keys synth_generate requires, as the acceptance benchmark passes them
    assert {key: data[key] for key in data.keys() - defaults.keys()} == {
        "n_clips": 2000, "label_noise": 0.0, "feature_noise": 0.0}
    assert cfg["split"] == {"test_fraction": 0.25, "val_fraction": 0.2}
    assert cfg["model"] == {"M": 64, "k": 3}


def test_non_utf8_config_exits_1(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_bytes(b"\xff\xfe{}")
    code = _run(["--config", str(path), "--out", str(tmp_path / "o"), "synth"])
    err = capsys.readouterr().err
    assert code == 1
    assert "cannot read config" in err and "utf-8" in err


def test_unreadable_config_exits_1(tmp_path, capsys):
    code = _run(["--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o"), "synth"])
    assert code == 1


def test_usage_error_exits_1(tmp_path, capsys):
    code = _run(["frobnicate"])
    assert code == 1


def test_bad_dataset_exits_2(tmp_path, tiny_config_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    code = _run(["--config", tiny_config_path, "--out", str(tmp_path / "o"),
                 "train", str(bad)])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def _write_clips(path, vocab, n_clips, length):
    rng = np.random.default_rng(0)
    clips = tuple(corpus.Clip(clip_id=f"c{i}", label=bool(i % 2),
                              steps=random_legal_steps(vocab, length, rng))
                  for i in range(n_clips))
    corpus.write_dataset(corpus.Dataset(vocabulary=vocab, clips=clips), path)
    return str(path)


def _write_bank(path, vocab, k=3, edit=None):
    cells = np.zeros((k, vocab.d), dtype=np.uint8)
    cells[0, vocab.help_index] = 1
    bank = curator.PatternBank(patterns=(curator.Pattern(cells=cells, pattern_id="p"),),
                               vocabulary=vocab)
    doc = json.loads(curator.bank_to_json(bank))
    if edit:
        edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def _set_cell(value):
    def mutate(steps):
        steps[1][4] = value
    return mutate


# each case edits the steps of the second clip of a legal file: (edit, message)
BAD_STEPS = {
    "negative": (_set_cell(-1), "non-binary feature value"),
    "too_large": (_set_cell(300), "non-binary feature value"),
    "string": (_set_cell("a"), "non-binary feature value"),
    "fraction_above_one": (_set_cell(1.7), "non-binary feature value"),
    "fraction_below_one": (_set_cell(0.5), "non-binary feature value"),
    "uneven_rows": (lambda steps: steps[2].pop(), "not a rectangular"),
    "short_clip": (lambda steps: steps.pop(), "4 steps, where earlier clips have 5"),
}


@pytest.mark.parametrize("case", sorted(BAD_STEPS))
def test_bad_step_values_exit_2(tmp_path, tiny_config_path, capsys, vocab, case):
    path = tmp_path / "clips.jsonl"
    _write_clips(path, vocab, 4, 5)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[2])
    edit, message = BAD_STEPS[case]
    edit(rec["steps"])
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    code = _run(["--config", tiny_config_path, "--out", str(tmp_path / "o"),
                 "train", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"data error: {path}:3: clip 'c1': " in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_clips_shorter_than_the_kernel_exit_2(tmp_path, capsys, vocab, command):
    """One-step clips, padded to three steps, under a 4-step kernel for train
    and a 4-step pattern for eval of a bank."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"model": {"k": 4}}))
    data = _write_clips(tmp_path / "d.jsonl", vocab, 40, 1)
    argv = {"train": ["--config", str(config), "train", data],
            "eval": ["eval", _write_bank(tmp_path / "bank.json", vocab, k=4), data]}[command]
    code = _run(["--out", str(tmp_path / "o")] + argv)
    err = capsys.readouterr().err
    assert code == 2
    source, what = {"train": ("", "filters"), "eval": (f"{argv[1]}: ", "patterns")}[command]
    assert (f"data error: {source}clip too short for the kernel even with padding: 4-step "
            f"{what} at padding 1, 1-step clips in {data}\n") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("precision", [None, 0.9])
def test_curate_of_clips_shorter_than_the_kernel_exits_2(tmp_path, capsys, vocab, precision):
    """One-step clips under a snapshot of 4-step filters exit 2, naming both
    files, whether every filter is harvested or none is."""
    data = _write_clips(tmp_path / "d.jsonl", vocab, 200, 1)
    W = np.zeros((2, 4, vocab.d))
    W[:, 0, vocab.help_index] = 1.0  # a legal pattern, harvested at precision 0.9
    snaps = _snapshot(tmp_path / "snaps", W, lambda doc: doc.update(
        per_filter_precision=[precision] * 2))
    code = _run(["--out", str(tmp_path / "o"), "curate", snaps, data])
    err = capsys.readouterr().err
    assert code == 2
    assert (f"data error: {os.path.join(snaps, 'era_000.json')}: clip too short for the "
            f"kernel even with padding: 4-step filters at padding 1, 1-step clips in {data}"
            in err)
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "bank.json").exists()


def _missing_dataset(tmp, vocab, data):
    return ["train", str(tmp / "missing.jsonl")]


def _bank_without_patterns(tmp, vocab, data):
    return ["eval", _write_bank(tmp / "b.json", vocab, edit=lambda d: d.pop("patterns")), data]


def _bank_not_json(tmp, vocab, data):
    path = tmp / "b.json"
    path.write_text('{"format": "patternconv-bank", ')
    return ["eval", str(path), data]


def _clips_with(line_no, edit):
    """An eval of a legal bank over the clip file with its line `line_no`
    (the header is 0) replaced by edit(record)."""
    def build(tmp, vocab, data):
        with open(data, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[line_no] = json.dumps(edit(json.loads(lines[line_no])))
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return ["eval", _write_bank(tmp / "b.json", vocab), data]
    return build


def _repeat_feature_name(rec):
    """A vocabulary record whose column 4 takes the name of column 3."""
    rec["feature_names"][4] = rec["feature_names"][3]
    return rec


def _two_submission_types(rec):
    rec["steps"][0][:3] = [1, 1, 0]
    return rec


def _not_utf8(path):
    path.write_bytes(b"\xff\xfe" + "{}\n".encode("utf-16-le"))
    return str(path)


def _bank_not_utf8(tmp, vocab, data):
    return ["eval", _not_utf8(tmp / "b.json"), data]


def _clips_not_utf8(tmp, vocab, data):
    return ["train", _not_utf8(tmp / "clips.jsonl")]


def _experts_not_utf8(tmp, vocab, data):
    return ["compare", _write_bank(tmp / "b.json", vocab), _not_utf8(tmp / "experts.jsonl")]


def _snapshot_not_utf8(tmp, vocab, data):
    os.makedirs(tmp / "snaps")
    _not_utf8(tmp / "snaps" / "era_000.json")
    return ["curate", str(tmp / "snaps"), data]


def _snapshot_without_precision(tmp, vocab, data):
    return ["curate", _snapshot(tmp / "snaps", np.zeros((2, 3, vocab.d)),
                                lambda doc: doc.pop("per_filter_precision")), data]


# each case writes one unreadable input and returns the command that reads it
UNREADABLE = {
    "missing_dataset": (_missing_dataset, "No such file"),
    "bank_without_patterns": (_bank_without_patterns, "pattern bank file missing key 'patterns'"),
    "bank_not_json": (_bank_not_json, "is not JSON"),
    "bank_not_utf8": (_bank_not_utf8, "b.json is not UTF-8 text"),
    "clips_not_utf8": (_clips_not_utf8, "clips.jsonl is not UTF-8 text"),
    "experts_not_utf8": (_experts_not_utf8, "experts.jsonl is not UTF-8 text"),
    "snapshot_not_utf8": (_snapshot_not_utf8, "era_000.json is not UTF-8 text"),
    "snapshot_without_precision": (_snapshot_without_precision,
                                   "era_000.json: filter snapshot file missing key "
                                   "'per_filter_precision'"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_inputs_exit_2(tmp_path, capsys, vocab, case):
    build, message = UNREADABLE[case]
    argv = build(tmp_path, vocab, _write_clips(tmp_path / "d.jsonl", vocab, 40, 5))
    code = _run(["--out", str(tmp_path / "o")] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err


def _add_pattern(steps, features):
    def edit(doc):
        doc["patterns"].append({"pattern_id": "q",
                                "cells": np.zeros((steps, features), int).tolist()})
    return edit


def _snapshot(snaps, W, edit=None):
    """An era snapshot of filters W, each with precision 0.9 so that curate
    harvests it, in a new directory; `edit` changes the document first."""
    os.makedirs(snaps)
    snap = netcore.EraSnapshot(era=0, W=W, per_filter_precision=np.full(len(W), 0.9))
    doc = json.loads(netcore.filters_to_json(snap))
    if edit:
        edit(doc)
    (snaps / "era_000.json").write_text(json.dumps(doc))
    return str(snaps)


def _model(path, vocab, edit=None, k=3, d=None):
    state = netcore.init_state(4, k, vocab.d if d is None else d, rng=0)
    doc = json.loads(netcore.state_to_json(state))
    if edit:
        edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


def _bank_of_mixed_step_counts(tmp, vocab, data):
    return ["eval", _write_bank(tmp / "b.json", vocab, edit=_add_pattern(4, vocab.d)), data]


def _bank_of_10_features(tmp, vocab, data):
    def edit(doc):
        doc["patterns"].clear()
        _add_pattern(3, 10)(doc)
    return ["eval", _write_bank(tmp / "b.json", vocab, edit=edit), data]


def _snapshot_of_wrong_size(tmp, vocab, data):
    def edit(doc):
        doc["M"] = 3
    return ["curate", _snapshot(tmp / "snaps", np.ones((2, 3, vocab.d)), edit), data]


def _snapshot_of_10_features(tmp, vocab, data):
    return ["curate", _snapshot(tmp / "snaps", np.ones((2, 3, 10))), data]


def _model_with_unknown_thresh_key(tmp, vocab, data):
    def edit(doc):
        doc["thresh"]["sharpness"] = 1.0
    return ["eval", _model(tmp / "m.json", vocab, edit), data]


def _model_with_negative_padding(tmp, vocab, data):
    def edit(doc):
        doc["padding"] = -1
    return ["eval", _model(tmp / "m.json", vocab, edit), data]


_HUGE = 10**12  # windows of this padding would need petabytes


def _model_with(path, value):
    """An eval of a model whose field at `path` (keys and indices) is `value`."""
    def build(tmp, vocab, data):
        return ["eval", _model(tmp / "m.json", vocab, _set_field(path, value)), data]
    return build


def _snapshot_field(key, value):
    """A curate of a snapshot whose `key` is `value`."""
    def build(tmp, vocab, data):
        return ["curate", _snapshot(tmp / "snaps", np.zeros((2, 3, vocab.d)),
                                    lambda doc: doc.update({key: value})), data]
    return build


def _bank_with_huge_padding(command):
    def build(tmp, vocab, data):
        bank = _write_bank(tmp / "b.json", vocab, edit=_set_field(("padding",), _HUGE))
        return {"eval": ["eval", bank, data], "explain": ["explain", bank, data, "c0"]}[command]
    return build


def _model_with_huge_padding(tmp, vocab, data):
    return ["eval", _model(tmp / "m.json", vocab, _set_field(("padding",), _HUGE)), data]


def _model_of_7_features(tmp, vocab, data):
    return ["eval", _model(tmp / "m.json", vocab, d=7), data]


def _model_of_9_steps(tmp, vocab, data):
    return ["eval", _model(tmp / "m.json", vocab, k=9), data]


def _bank_of_9_steps(command):
    def build(tmp, vocab, data):
        bank = _write_bank(tmp / "b.json", vocab, k=9)
        return {"eval": ["eval", bank, data], "explain": ["explain", bank, data, "c0"]}[command]
    return build


def _snapshot_with_huge_padding(tmp, vocab, data):
    return ["curate", _snapshot(tmp / "snaps", np.ones((2, 3, vocab.d)),
                                _set_field(("padding",), _HUGE)), data]


# each case writes a bank, model or snapshot that parses but cannot be used,
# and the message that names the fault; <clips> stands for the clip file
UNUSABLE = {
    "bank_of_mixed_step_counts": (_bank_of_mixed_step_counts,
                                  "b.json: pattern bank pattern 1 'cells' must be a 0/1 array "
                                  "of one (steps, 13) shape for every pattern, not [["),
    "bank_of_10_features": (_bank_of_10_features,
                            "b.json: pattern bank pattern 0 'cells' must be a 0/1 array"),
    "snapshot_of_wrong_size": (_snapshot_of_wrong_size,
                               "era_000.json: filter snapshot file 'W' must be a list of 117 "
                               "finite numbers, not [1.0, "),
    "snapshot_of_10_features": (_snapshot_of_10_features,
                                "era_000.json: the filters have 10 features, the clips in "
                                "<clips> have 13\n"),
    "model_with_unknown_thresh_key": (_model_with_unknown_thresh_key,
                                      "m.json: model file 'thresh' must be an object of "
                                      "steepness, offset, temperature, epsilon, not {"),
    # a file may record only the padding of its k: 1, or 0 at k = 1
    "model_with_negative_padding": (_model_with_negative_padding,
                                    "m.json: model file 'padding' must be 1 at k = 3, not -1"),
    "bank_with_huge_padding_eval": (_bank_with_huge_padding("eval"),
                                    "b.json: pattern bank file 'padding' must be 1 at k = 3, "
                                    f"not {_HUGE}"),
    "bank_with_huge_padding_explain": (_bank_with_huge_padding("explain"),
                                       "b.json: pattern bank file 'padding' must be 1 at k = 3"),
    "model_with_huge_padding": (_model_with_huge_padding,
                                f"m.json: model file 'padding' must be 1 at k = 3, not {_HUGE}"),
    "snapshot_with_huge_padding": (_snapshot_with_huge_padding,
                                   "era_000.json: filter snapshot file 'padding' must be "
                                   f"1 at k = 3, not {_HUGE}"),
    "bank_of_1_step_patterns_at_padding_1": (
        lambda tmp, vocab, data: ["eval", _write_bank(tmp / "b.json", vocab, k=1,
                                                      edit=_set_field(("padding",), 1)), data],
        "b.json: pattern bank file 'padding' must be 0 at k = 1, not 1"),
    "model_with_padding_0": (_model_with(("padding",), 0),
                             "m.json: model file 'padding' must be 1 at k = 3, not 0"),
    "model_with_string_alpha": (_model_with(("alpha",), "0.5"),
                                "m.json: model file 'alpha' must be a finite number in [0, 1], "
                                'not "0.5"'),
    # a model or bank that does not fit the clips names both files
    "model_of_7_features": (_model_of_7_features,
                            "m.json: the filters have 7 features, the clips in <clips> have "
                            "13\n"),
    "model_of_9_steps": (_model_of_9_steps,
                         "m.json: clip too short for the kernel even with padding: 9-step "
                         "filters at padding 1, 5-step clips in <clips>\n"),
    **{f"bank_of_9_steps_{command}": (_bank_of_9_steps(command),
                                      "b.json: clip too short for the kernel even with "
                                      "padding: 9-step patterns at padding 1, 5-step clips in "
                                      "<clips>\n")
       for command in ("eval", "explain")},
    # numpy would read these array elements as numbers: "0.5" as 0.5, true as 1.0
    "model_with_string_weight": (_model_with(("W", 0), "0.5"),
                                 "m.json: model file 'W' must be a list of 156 finite numbers, "
                                 'not ["0.5", '),
    "model_with_bool_fc_trad": (_model_with(("fc_trad", 1), True),
                                "m.json: model file 'fc_trad' must be a list of 4 finite "
                                "numbers, not ["),
    "model_with_nested_weight": (_model_with(("W", 2), [0.5]),
                                 "m.json: model file 'W' must be a list of 156 finite numbers"),
    "model_with_weight_past_float_range": (_model_with(("W", 0), 10 ** 400),
                                           "m.json: model file 'W' must be a list of 156 "
                                           "finite numbers, not [1000"),
    # the head's settings are constants: a model file may only repeat them
    **{f"model_with_other_{key}": (_model_with(("thresh", key), 2 * fixed),
                                   f"m.json: model file thresh '{key}' must be {fixed!r}, "
                                   f"not {json.dumps(2 * fixed)}")
       for key, fixed in netcore.THRESH.items()},
    "snapshot_with_bool_precision": (_snapshot_field("per_filter_precision", [True, 0.9]),
                                     "era_000.json: filter snapshot file 'per_filter_precision' "
                                     "must be a list of 2 numbers in [0, 1] or nulls, not [true, "),
    # a clip or bank fault names its file: eval reads a bank and a clip file
    "clips_header_of_one_submission_type": (
        _clips_with(0, lambda rec: {**rec, "submission_indices": [0]}),
        "d.jsonl:1: clip file header: vocabulary must have exactly 3 submission types"),
    # an expert step naming a repeated feature would resolve to one of its columns
    "clips_header_repeating_a_feature_name": (
        _clips_with(0, _repeat_feature_name),
        "d.jsonl:1: clip file header: vocabulary repeats feature name 'quick_help_request'"),
    "clip_of_two_wide_steps": (_clips_with(2, lambda rec: {**rec, "steps": [[0, 1]] * 5}),
                               "d.jsonl:3: clip 'c1': feature count 2 does not match "
                               "vocabulary d=13"),
    "clip_of_two_submission_types": (_clips_with(2, _two_submission_types),
                                     "d.jsonl: clip 'c1': step 0: multiple submission types"),
    # an id that is not a string would load as its str(), one clip with "5"
    "clip_id_null": (_clips_with(2, lambda rec: {**rec, "clip_id": None}),
                     "d.jsonl:3: clip record 'clip_id' must be a string, not null"),
    "clip_id_number": (_clips_with(2, lambda rec: {**rec, "clip_id": 5}),
                       "d.jsonl:3: clip record 'clip_id' must be a string, not 5"),
    # clips c0 (label 0) and c1 (label 1) under one id: explain would find the first
    "repeated_clip_id": (_clips_with(2, lambda rec: {**rec, "clip_id": "c0"}),
                         "d.jsonl: clip id 'c0' appears more than once"),
    "bank_vocabulary_of_one_submission_type": (
        lambda tmp, vocab, data: ["eval", _write_bank(
            tmp / "b.json", vocab,
            edit=lambda doc: doc["vocabulary"].update(submission_indices=[0])), data],
        "b.json: pattern bank file vocabulary: vocabulary must have exactly 3 submission "
        "types"),
    "bank_vocabulary_repeating_a_feature_name": (
        lambda tmp, vocab, data: ["eval", _write_bank(
            tmp / "b.json", vocab, edit=lambda doc: _repeat_feature_name(doc["vocabulary"])),
            data],
        "b.json: pattern bank file vocabulary: vocabulary repeats feature name "
        "'quick_help_request'"),
}


@pytest.mark.parametrize("case", sorted(UNUSABLE))
def test_unusable_documents_exit_2(tmp_path, capsys, vocab, case):
    build, message = UNUSABLE[case]
    data = _write_clips(tmp_path / "d.jsonl", vocab, 40, 5)
    code = _run(["--out", str(tmp_path / "o")] + build(tmp_path, vocab, data))
    err = capsys.readouterr().err
    assert code == 2
    assert message.replace("<clips>", data) in err
    assert "Traceback" not in err


def _expert_line(line):
    """A compare of an expert file whose second line is `line`."""
    def build(tmp, vocab, data):
        path = tmp / "experts.jsonl"
        path.write_text('{"name":"ok","steps":[["help"],["incorrect"]]}\n' + line + "\n")
        return ["compare", _write_bank(tmp / "b.json", vocab), str(path)]
    return build


_STEPS_NOT_NAMES = ("experts.jsonl:2: expert pattern 'steps' must be a list of lists of "
                    "feature names, not ")
_ERA = "era_000.json: filter snapshot file 'era' must be an integer in [0, inf), not "
_PRECISION = ("era_000.json: filter snapshot file 'per_filter_precision' must be a list of 2 "
              "numbers in [0, 1] or nulls, not ")
# each case writes an expert file or snapshot with a malformed field, and the
# message that names the file (and the line of an expert file)
MALFORMED_FIELDS = {
    "expert_list": (_expert_line("[1, 2]"), "experts.jsonl:2: expert pattern is not a JSON object"),
    "expert_string": (_expert_line('"str"'), "experts.jsonl:2: expert pattern is not a JSON object"),
    "expert_steps_number": (_expert_line('{"name":"x","steps":5}'), _STEPS_NOT_NAMES),
    "expert_feature_not_a_name": (_expert_line('{"name":"x","steps":[["help",["a"]],["help"]]}'),
                                  _STEPS_NOT_NAMES),
    "expert_step_a_name": (_expert_line('{"name":"x","steps":["incorrect",["help"]]}'),
                           _STEPS_NOT_NAMES),
    "snapshot_era_string": (_snapshot_field("era", "x"), _ERA),
    "snapshot_era_fraction": (_snapshot_field("era", 3.5), _ERA),
    "snapshot_era_bool": (_snapshot_field("era", True), _ERA),
    "snapshot_precision_above_one": (_snapshot_field("per_filter_precision", [2.0, 0.5]),
                                     _PRECISION),
    "snapshot_precision_negative": (_snapshot_field("per_filter_precision", [0.5, -1]),
                                    _PRECISION),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FIELDS))
def test_malformed_expert_and_snapshot_fields_exit_2(tmp_path, capsys, vocab, case):
    build, message = MALFORMED_FIELDS[case]
    argv = build(tmp_path, vocab, _write_clips(tmp_path / "d.jsonl", vocab, 40, 5))
    code = _run(["--out", str(tmp_path / "o")] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err


_DEEP = '{"a":' + "[" * 100_000 + "]" * 100_000 + "}"  # past any recursion limit


def _deep_predictor(tmp, vocab, data):
    (tmp / "b.json").write_text(_DEEP)
    return ["eval", str(tmp / "b.json"), data]


def _deep_snapshot(tmp, vocab, data):
    os.makedirs(tmp / "snaps")
    (tmp / "snaps" / "era_000.json").write_text(_DEEP)
    return ["curate", str(tmp / "snaps"), data]


def _deep_clip_line(tmp, vocab, data):
    header = json.dumps(vocab.to_record(), separators=(",", ":"))
    (tmp / "clips.jsonl").write_text(header + "\n" + _DEEP + "\n")
    return ["train", str(tmp / "clips.jsonl")]


def _deep_config(tmp, vocab, data):
    (tmp / "c.json").write_text(_DEEP)
    return ["--config", str(tmp / "c.json"), "synth"]


# each case writes a document nested deeper than the parser can follow and
# returns the command that reads it, its exit code and the message naming it
DEEPLY_NESTED = {
    "predictor": (_deep_predictor, 2, "b.json: predictor file is not JSON"),
    "snapshot": (_deep_snapshot, 2, "era_000.json: filter snapshot file is not JSON"),
    "clip_line": (_deep_clip_line, 2, "clips.jsonl:2: malformed record"),
    "expert_file": (_expert_line(_DEEP), 2, "experts.jsonl:2: expert pattern is not JSON"),
    "config": (_deep_config, 1, "c.json: maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("case", sorted(DEEPLY_NESTED))
def test_deeply_nested_json_exits_with_a_code(tmp_path, capsys, vocab, case):
    build, expect, message = DEEPLY_NESTED[case]
    argv = build(tmp_path, vocab, _write_clips(tmp_path / "d.jsonl", vocab, 40, 5))
    code = _run(["--out", str(tmp_path / "o")] + argv)
    err = capsys.readouterr().err
    assert code == expect
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", [curator.PatternBank, netcore.ModelState])
def test_eval_parses_the_predictor_file_once(tmp_path, monkeypatch, vocab, kind):
    if kind is curator.PatternBank:
        _write_bank(tmp_path / "b.json", vocab)
        text = (tmp_path / "b.json").read_text()
    else:
        text = netcore.state_to_json(netcore.init_state(4, 3, vocab.d, rng=0))
    loads, calls = json.loads, []
    monkeypatch.setattr(json, "loads", lambda s, *a, **k: calls.append(s) or loads(s, *a, **k))
    assert isinstance(cli._predictor(text), kind)
    assert calls == [text]


def test_eval_of_a_model_file_that_records_fc_frozen_and_dropout_rate(tmp_path, capsys, vocab):
    """Model files once recorded the freeze flag and the dropout rate; eval
    reads past both keys and prints the table it prints without them."""
    data = _write_clips(tmp_path / "d.jsonl", vocab, 200, 5)
    tables = []
    for name, edit in (("new.json", None),
                       ("old.json", lambda doc: doc.update(fc_frozen=True, dropout_rate=0.2))):
        model = _model(tmp_path / name, vocab, edit)
        assert _run(["--out", str(tmp_path / "o"), "eval", model, data]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1] and "kappa" in tables[0]


def _set_field(path, value):
    """An edit that sets the document field at `path` (keys and indices)."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _non_finite_snapshot(tmp, vocab, data):
    return ["curate", _snapshot(tmp / "snaps", np.zeros((2, 3, vocab.d)),
                                _set_field(("W", 4), float("nan"))), data]


_NAN, _INF = float("nan"), float("inf")
# each case writes a model or snapshot holding a JSON NaN or Infinity, and
# the message that names the file
NON_FINITE = {
    "model_W": (_model_with(("W", 0), _NAN),
                "m.json: model file 'W' must be a list of 156 finite numbers, not [NaN, "),
    "model_fc_trad": (_model_with(("fc_trad", 1), -_INF),
                      "m.json: model file 'fc_trad' must be a list of 4 finite numbers, not ["),
    "model_temperature": (_model_with(("thresh", "temperature"), _NAN),
                          "m.json: model file thresh 'temperature' must be 0.01, not NaN"),
    "model_steepness": (_model_with(("thresh", "steepness"), _INF),
                        "m.json: model file thresh 'steepness' must be 200.0, not Infinity"),
    "model_alpha": (_model_with(("alpha",), _NAN),
                    "m.json: model file 'alpha' must be a finite number in [0, 1], not NaN"),
    "snapshot_W": (_non_finite_snapshot,
                   "era_000.json: filter snapshot file 'W' must be a list of 78 finite numbers, "
                   "not [0.0, "),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_model_and_snapshot_numbers_exit_2(tmp_path, capsys, vocab, case):
    build, message = NON_FINITE[case]
    argv = build(tmp_path, vocab, _write_clips(tmp_path / "d.jsonl", vocab, 40, 5))
    code = _run(["--out", str(tmp_path / "o")] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err


# each case sets one field of the bank's pattern "p", and the fault named
BAD_PATTERN_FIELDS = {
    "pattern_id_number": ("pattern_id", 5, "pattern 0 'pattern_id' must be a string, not 5"),
    "pattern_id_list": ("pattern_id", [1], "pattern 0 'pattern_id' must be a string, not [1]"),
    "precision_string": ("precision_train", "x",
                         "pattern 0 'precision_train' must be null or a finite number in [0, 1], "
                         'not "x"'),
    "precision_above_one": ("precision_train", 1.5,
                            "pattern 0 'precision_train' must be null or a finite number in "
                            "[0, 1], not 1.5"),
    "precision_nan": ("precision_train", float("nan"),
                      "pattern 0 'precision_train' must be null or a finite number in [0, 1], "
                      "not NaN"),
    "precision_bool": ("precision_train", True,
                       "pattern 0 'precision_train' must be null or a finite number in [0, 1], "
                       "not true"),
    "source_era_fraction": ("source_era", 1.5,
                            "pattern 0 'source_era' must be an integer, not 1.5"),
    "low_support_number": ("low_support", 1,
                           "pattern 0 'low_support' must be true or false, not 1"),
}


@pytest.mark.parametrize("command", ["eval", "explain", "compare"])
@pytest.mark.parametrize("case", sorted(BAD_PATTERN_FIELDS))
def test_bank_pattern_fields_are_checked_at_load(tmp_path, capsys, vocab, command, case):
    key, value, fault = BAD_PATTERN_FIELDS[case]
    bank = _write_bank(tmp_path / "b.json", vocab, edit=_set_field(("patterns", 0, key), value))
    data = _write_clips(tmp_path / "d.jsonl", vocab, 40, 5)
    experts = tmp_path / "experts.jsonl"
    experts.write_text('{"name":"e","steps":[["help"],["incorrect"]]}\n')
    argv = {"eval": ["eval", bank, data], "explain": ["explain", bank, data, "c0"],
            "compare": ["compare", bank, str(experts)]}[command]
    code = _run(["--out", str(tmp_path / "o")] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"b.json: pattern bank {fault}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "explain"])
def test_bank_vocabulary_must_match_the_clip_file(tmp_path, capsys, vocab, command):
    """A clip file whose header swaps two help-related feature names: a bank
    of the default vocabulary would flag and explain its clips by the wrong
    features, so the command exits 2 naming both files."""
    names = list(vocab.feature_names)
    i, j = names.index("bottom_out_search"), names.index("repeated_help")
    names[i], names[j] = names[j], names[i]
    data = _write_clips(tmp_path / "d.jsonl",
                        dataclasses.replace(vocab, feature_names=tuple(names)), 40, 5)
    bank = _write_bank(tmp_path / "b.json", vocab)
    argv = {"eval": ["eval", bank, data], "explain": ["explain", bank, data, "c0"]}[command]
    code = _run(["--out", str(tmp_path / "o")] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bank}: the bank's vocabulary differs from the vocabulary header of {data}" in err
    assert "Traceback" not in err


def _set_version(version):
    def edit(doc):
        if version is None:
            del doc["version"]
        else:
            doc["version"] = version
    return edit


def _versioned_clips(tmp, vocab, edit):
    path = tmp / "v.jsonl"
    _write_clips(path, vocab, 40, 5)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    edit(header)
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    return ["eval", _write_bank(tmp / "b.json", vocab), str(path)], "v.jsonl:1: clip file header"


def _versioned_bank(tmp, vocab, edit):
    return (["eval", _write_bank(tmp / "v.json", vocab, edit=edit),
             _write_clips(tmp / "d.jsonl", vocab, 40, 5)], "v.json: pattern bank file")


def _versioned_model(tmp, vocab, edit):
    return (["eval", _model(tmp / "v.json", vocab, edit),
             _write_clips(tmp / "d.jsonl", vocab, 40, 5)], "v.json: model file")


def _versioned_snapshot(tmp, vocab, edit):
    snaps = _snapshot(tmp / "snaps", np.zeros((2, 3, vocab.d)), edit)
    return (["curate", snaps, _write_clips(tmp / "d.jsonl", vocab, 40, 5)],
            "era_000.json: filter snapshot file")


@pytest.mark.parametrize("version,code", [(99, 2), ("1", 2), (None, 0)],
                         ids=["99", "string_1", "missing"])
@pytest.mark.parametrize("build", [_versioned_clips, _versioned_bank, _versioned_model,
                                   _versioned_snapshot],
                         ids=["clips", "bank", "model", "snapshot"])
def test_readers_check_the_format_version(tmp_path, capsys, vocab, build, version, code):
    """Every format is at version 1. A file without the field reads as 1; any
    other version exits 2 and names the file."""
    argv, where = build(tmp_path, vocab, _set_version(version))
    assert _run(["--out", str(tmp_path / "o")] + argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert f"{where} has format version {json.dumps(version)}, this reader reads " \
               "version 1" in err


def _edge_help_files(tmp, vocab, padding):
    """A bank that records `padding`, of one pattern whose rows 0 and 2 are
    empty and whose row 1 asks for help, and clips whose only help step is
    the last: the pattern reaches that step only through the padding."""
    cells = np.zeros((3, vocab.d), dtype=np.uint8)
    cells[1, vocab.help_index] = 1
    bank = curator.PatternBank(patterns=(curator.Pattern(cells=cells, pattern_id="edge"),),
                               vocabulary=vocab)
    doc = json.loads(curator.bank_to_json(bank))
    doc["padding"] = padding
    bank_path = tmp / "bank.json"
    bank_path.write_text(json.dumps(doc))
    steps = np.zeros((5, vocab.d), dtype=np.uint8)
    steps[:4, vocab.attempt_indices[0]] = 1
    steps[4, vocab.help_index] = 1
    clips = tuple(corpus.Clip(clip_id=f"c{i}", steps=steps.copy(), label=bool(i % 2))
                  for i in range(40))
    data_path = tmp / "clips.jsonl"
    corpus.write_dataset(corpus.Dataset(vocabulary=vocab, clips=clips), data_path)
    return str(bank_path), str(data_path)


@pytest.mark.parametrize("padding", [0, 1])
def test_eval_and_explain_match_with_the_bank_padding(tmp_path, capsys, vocab, padding):
    """The edge pattern reaches the help step through the padding of 1 that
    3-step patterns take. A bank that records padding 0 for them exits 2 from
    eval and explain, naming the file and the field."""
    bank_path, data_path = _edge_help_files(tmp_path, vocab, padding)
    out = str(tmp_path / "o")
    if padding == 0:
        for argv in (["eval", bank_path, data_path], ["explain", bank_path, data_path, "c1"]):
            assert _run(["--out", out] + argv) == 2
            assert (f"data error: {bank_path}: pattern bank file 'padding' must be 1 at k = 3, "
                    "not 0\n") in capsys.readouterr().err
        assert not os.path.exists(out)
        return
    assert _run(["--out", out, "eval", bank_path, data_path]) == 0
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert [metrics[s]["recall"] for s in ("train", "val", "test")] == [1.0] * 3
    capsys.readouterr()
    assert _run(["--out", out, "explain", bank_path, data_path, "c1"]) == 0
    assert "flagged" in capsys.readouterr().out


def _snapshot_files(snaps, vocab, paddings):
    """One two-filter era snapshot per padding; None leaves the field out."""
    os.makedirs(snaps)
    W = np.zeros((2, 3, vocab.d))
    for era, padding in enumerate(paddings):
        snap = netcore.EraSnapshot(era=era, W=W, per_filter_precision=np.full(2, np.nan))
        doc = json.loads(netcore.filters_to_json(snap))
        if padding is None:
            del doc["padding"]
        else:
            doc["padding"] = padding
        (snaps / f"era_{era:03d}.json").write_text(json.dumps(doc))
    return str(snaps)


@pytest.mark.parametrize("paddings,bad", [((0, 0), "era_000.json"), ((None, 1), None),
                                          ((1, 0), "era_001.json"), ((None, 0), "era_001.json")],
                         ids=["both_0", "missing_and_1", "1_and_0", "missing_and_0"])
def test_curate_takes_the_snapshot_padding(tmp_path, capsys, vocab, paddings, bad):
    """Snapshots of 3-step filters that record padding 1, or no padding, give
    a bank that records padding 1; a snapshot that records padding 0 exits 2,
    naming the file and the field."""
    snaps = _snapshot_files(tmp_path / "snaps", vocab, paddings)
    data = _write_clips(tmp_path / "d.jsonl", vocab, 40, 5)
    out = tmp_path / "o"
    code = _run(["--out", str(out), "curate", snaps, data])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if bad:
        assert code == 2
        assert (f"data error: {os.path.join(snaps, bad)}: filter snapshot file 'padding' must "
                "be 1 at k = 3, not 0\n") in err
        assert not out.exists()
    else:
        assert code == 0
        assert json.loads((out / "bank.json").read_text())["padding"] == 1


def test_curate_rejects_snapshots_of_different_k(tmp_path, capsys, vocab, planted):
    """Harvested patterns of 3 and 2 steps cannot be pruned or ranked
    together, so snapshots that disagree on k exit 2 naming both files."""
    snaps = tmp_path / "snaps"
    os.makedirs(snaps)
    for era, cells in enumerate((planted[0].cells, planted[1].cells[:2])):
        snap = netcore.EraSnapshot(era=era, W=cells[None].astype(np.float64),
                                   per_filter_precision=np.array([0.9]))
        (snaps / f"era_{era:03d}.json").write_text(netcore.filters_to_json(snap))
    data = _write_clips(tmp_path / "d.jsonl", vocab, 40, 5)
    code = _run(["--out", str(tmp_path / "o"), "curate", str(snaps), data])
    err = capsys.readouterr().err
    assert code == 2
    assert (f"snapshots disagree on k: {snaps / 'era_000.json'} has 3, "
            f"{snaps / 'era_001.json'} has 2") in err
    assert "Traceback" not in err


def test_curate_rejects_two_snapshots_of_one_era(tmp_path, capsys, vocab, planted):
    """Two files that both record era 0 would give their harvested filters the
    same pattern ids, so curate exits 2 naming both files and writes no bank."""
    snaps = tmp_path / "snaps"
    os.makedirs(snaps)
    snap = netcore.EraSnapshot(era=0, W=planted[0].cells[None].astype(np.float64),
                               per_filter_precision=np.array([0.9]))
    for name in ("era_000.json", "era_001.json"):
        (snaps / name).write_text(netcore.filters_to_json(snap))
    data = _write_clips(tmp_path / "d.jsonl", vocab, 40, 5)
    code = _run(["--out", str(tmp_path / "o"), "curate", str(snaps), data])
    err = capsys.readouterr().err
    assert code == 2
    assert (f"snapshots share era 0: {snaps / 'era_000.json'} and "
            f"{snaps / 'era_001.json'}") in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "bank.json").exists()


def test_curate_of_snapshots_that_harvest_nothing(tmp_path, capsys, vocab):
    """Filters that match no clip (NaN precision) harvest nothing: curate
    still exits 0, prints an all-zero funnel and writes an empty bank and an
    empty kappa curve."""
    snaps = _snapshot_files(tmp_path / "snaps", vocab, (1, 1))
    data = _write_clips(tmp_path / "d.jsonl", vocab, 40, 5)
    out = tmp_path / "o"
    assert _run(["--seed", "0", "--out", str(out), "curate", snaps, data]) == 0
    assert capsys.readouterr().out == \
        "harvested 0 -> unique 0 -> non-redundant 0 -> selected 0\n"
    h = cli.config_hash(cli.load_config(None, seed=0))
    assert json.loads((out / "bank.json").read_text()) == {
        "format": "patternconv-bank", "version": curator.BANK_FORMAT_VERSION, "padding": 1,
        "vocabulary": vocab.to_record(), "patterns": [], "config_hash": h}
    assert (out / "kappa_curve.json").read_text() == json.dumps({"config_hash": h, "curve": []})


def test_curate_prunes_by_the_length_of_its_clips(tmp_path, capsys, vocab):
    """Pruning reads the clip length from the clips curate loads, not from
    the synth setting data.clip_length. On 2-step clips [[help], [], [correct]]
    has no window, so [[], [help], []] does not subsume it; on 5-step clips
    it would."""
    snaps = tmp_path / "snaps"
    os.makedirs(snaps)
    help_, correct = (vocab.feature_names.index(name) for name in ("help", "correct"))
    W = np.zeros((2, 3, vocab.d))
    W[0, 1, help_] = W[1, 0, help_] = W[1, 2, correct] = 1.0
    snap = netcore.EraSnapshot(era=0, W=W, per_filter_precision=np.full(2, 0.9))
    (snaps / "era_000.json").write_text(netcore.filters_to_json(snap))
    data = _write_clips(tmp_path / "d.jsonl", vocab, 40, 2)
    runs = []
    for clip_length in (5, 2):
        config = tmp_path / f"c{clip_length}.json"
        config.write_text(json.dumps({"data": {"clip_length": clip_length}}))
        out = tmp_path / f"o{clip_length}"
        assert _run(["--config", str(config), "--out", str(out), "curate", str(snaps),
                     data]) == 0
        bank = json.loads((out / "bank.json").read_text())
        del bank["config_hash"]
        runs.append((capsys.readouterr().out, bank))
    assert "non-redundant 2 " in runs[0][0]
    assert runs[0] == runs[1]


def _synth_with_bank(tmp, bank, p_plant):
    config = tmp / "c.json"
    config.write_text(json.dumps({"data": {"planted_bank": bank, "n_clips": 40,
                                           "p_plant": p_plant}}))
    return _run(["--config", str(config), "--out", str(tmp / "o"), "synth"])


def test_synth_plants_the_bank_it_wrote(tmp_path, capsys):
    """The planted bank synth writes passes its own checks and plants the
    same clips as the default patterns it holds."""
    first = tmp_path / "first"
    os.makedirs(first)
    assert _synth_with_bank(first, None, 0.2) == 0
    assert _synth_with_bank(tmp_path, str(first / "o" / "planted_bank.json"), 0.2) == 0
    capsys.readouterr()
    again = corpus.load_dataset(tmp_path / "o" / "dataset.jsonl")
    want = corpus.load_dataset(first / "o" / "dataset.jsonl")
    assert (again.steps_array() == want.steps_array()).all()
    assert (again.labels() == want.labels()).all() and want.labels().any()


def test_eval_reads_the_planted_bank_of_1_step_patterns_synth_wrote(tmp_path, capsys, vocab):
    """synth writes a planted bank of 1-step patterns with padding 0, the
    padding of one step, so eval reads it back under the default config."""
    def help_and_bottom_out(doc):
        doc["patterns"][0]["cells"][0][vocab.feature_names.index("bottom_out_search")] = 1
    bank = _write_bank(tmp_path / "b.json", vocab, k=1, edit=help_and_bottom_out)
    assert _synth_with_bank(tmp_path, bank, 0.5) == 0
    out = tmp_path / "o"
    assert json.loads((out / "planted_bank.json").read_text())["padding"] == 0
    code = _run(["--out", str(tmp_path / "e"), "eval", str(out / "planted_bank.json"),
                 str(out / "dataset.jsonl")])
    err = capsys.readouterr().err
    assert code == 0, err
    metrics = json.loads((tmp_path / "e" / "metrics.json").read_text())
    assert all(metrics[s]["kappa"] == 1.0 for s in ("train", "val", "test"))


def test_synth_rejects_a_planted_bank_of_another_vocabulary(tmp_path, capsys, vocab):
    """A bank whose feature names are swapped would be planted by column
    index on the wrong features, so synth exits 2 naming the bank."""
    names = list(vocab.feature_names)
    i, j = names.index("bottom_out_search"), names.index("repeated_help")
    names[i], names[j] = names[j], names[i]
    other = dataclasses.replace(vocab, feature_names=tuple(names))
    bank = _write_bank(tmp_path / "b.json", other)
    code = _synth_with_bank(tmp_path, bank, 1.0)
    err = capsys.readouterr().err
    assert code == 2
    assert (f"{bank}: the bank's vocabulary differs from the vocabulary header of "
            f"{tmp_path / 'o' / 'dataset.jsonl'}") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("p_plant", [1.0, 0.0])
def test_synth_rejects_an_illegal_planted_pattern(tmp_path, capsys, vocab, p_plant):
    """A planted pattern with two submissions in one step exits 2 naming the
    bank and the pattern, whether or not a clip would be stamped with it."""
    def two_submissions(doc):
        doc["patterns"][0]["cells"][1][vocab.attempt_indices[0]] = 1
        doc["patterns"][0]["cells"][1][vocab.attempt_indices[1]] = 1
    bank = _write_bank(tmp_path / "b.json", vocab, edit=two_submissions)
    code = _synth_with_bank(tmp_path, bank, p_plant)
    err = capsys.readouterr().err
    assert code == 2
    assert (f"{bank}: planted pattern 'p' violates invariants: step 1: "
            "submission invariant") in err
    assert "Traceback" not in err


def test_compare_expands_experts_to_the_bank_pattern_length(tmp_path, capsys, vocab):
    """A bank of 4-step patterns under the default config (k 3): a 3-step
    expert is padded to 4 steps and a 4-step expert is kept as it is."""
    experts = tmp_path / "experts.jsonl"
    experts.write_text(
        '{"name":"three","steps":[["help"],["incorrect"],["correct"]]}\n'
        '{"name":"four","steps":[["help"],["help"],["incorrect"],["correct"]]}\n')
    out = tmp_path / "o"
    code = _run(["--out", str(out), "compare", _write_bank(tmp_path / "b.json", vocab, k=4),
                 str(experts)])
    assert code == 0, capsys.readouterr().err
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["expanded_experts"] == ["three/pad-front", "three/pad-back", "four"]
    assert [r["distance"] for r in comparison["per_expert_nearest"]] == [4, 2, 3]


def test_compare_names_the_expert_file_an_expert_cannot_expand_from(tmp_path, capsys, vocab):
    """A 3-step expert expands to 2, 3 or 4 steps only: a 9-step bank exits 2
    naming the expert file."""
    experts = os.path.join(FIXTURES, "expert_patterns.jsonl")
    code = _run(["--out", str(tmp_path / "o"), "compare",
                 _write_bank(tmp_path / "b.json", vocab, k=9), experts])
    err = capsys.readouterr().err
    assert code == 2
    assert (f"data error: {experts}: expert pattern 'help-abuse-bottom-out' has unsupported "
            "length 3 for k=9\n") in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "comparison.json").exists()


def test_compare_with_an_empty_bank_expands_to_the_config_k(tmp_path, capsys, vocab):
    bank = _write_bank(tmp_path / "b.json", vocab, edit=lambda d: d["patterns"].clear())
    experts = os.path.join(FIXTURES, "expert_patterns.jsonl")
    out = tmp_path / "o"
    assert _run(["--out", str(out), "compare", bank, experts]) == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert len(comparison["expanded_experts"]) == 5
    assert comparison["per_expert_nearest"] == []


def _leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


class _RecordedReads(dict):
    """A config (or one of its sections) that records the key path of every
    read; serialising it reads nothing."""

    def __init__(self, tree, path, seen):
        super().__init__({k: _RecordedReads(v, path + (k,), seen) if isinstance(v, dict) else v
                          for k, v in tree.items()})
        self._path, self._seen = path, seen

    def __getitem__(self, key):
        self._seen.add(self._path + (key,))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._seen.add(self._path + (key,))
        return super().get(key, default)


def test_every_config_leaf_is_read(tmp_path, tiny_config_path, monkeypatch, capsys):
    """Guard against dead options: some command reads every leaf of
    DEFAULT_CONFIG."""
    seen = set()
    load = cli.load_config
    monkeypatch.setattr(cli, "load_config",
                        lambda *a, **kw: _RecordedReads(load(*a, **kw), (), seen))
    out = str(tmp_path / "run")
    base = ["--config", tiny_config_path, "--seed", "0", "--out", out]
    data = os.path.join(out, "dataset.jsonl")
    bank = os.path.join(out, "bank.json")
    for argv in (["synth"], ["train", data], ["curate", os.path.join(out, "snapshots"), data],
                 ["eval", bank, data], ["explain", bank, data, "synth-000000"]):
        assert _run(base + argv) == 0, argv
    capsys.readouterr()
    assert set(_leaves(cli.DEFAULT_CONFIG)) - seen == set()


# ---------------------------------------------------------------- end to end

def test_pipeline_end_to_end(tmp_path, tiny_config_path, capsys, vocab):
    out = str(tmp_path / "run")
    base = ["--config", tiny_config_path, "--seed", "0", "--out", out]

    assert _run(base + ["synth"]) == 0
    dataset_path = os.path.join(out, "dataset.jsonl")
    assert os.path.exists(dataset_path)
    assert os.path.exists(os.path.join(out, "planted_bank.json"))
    assert "wrote 240 clips" in capsys.readouterr().out

    assert _run(base + ["train", dataset_path]) == 0
    assert os.path.exists(os.path.join(out, "model.json"))
    assert os.path.exists(os.path.join(out, "snapshots", "era_000.json"))
    log_lines = open(os.path.join(out, "training_log.jsonl")).read().splitlines()
    assert len(log_lines) == 4  # 1 era x 4 epochs
    assert {"era", "epoch", "bce"} <= set(json.loads(log_lines[0]))
    # every JSON output of train records the run's config hash
    h = cli.config_hash(cli.load_config(tiny_config_path, seed=0))
    for name in ("model.json", "harvested.json", "manifest.json", "snapshots/era_000.json"):
        with open(os.path.join(out, name)) as fh:
            assert json.load(fh)["config_hash"] == h, name
    capsys.readouterr()

    assert _run(base + ["curate", os.path.join(out, "snapshots"), dataset_path]) == 0
    funnel = capsys.readouterr().out
    assert "harvested" in funnel and "->" in funnel and "selected" in funnel
    bank_path = os.path.join(out, "bank.json")
    with open(bank_path) as fh:
        doc = json.load(fh)
    bank = curator.bank_from_json(doc)
    assert doc["padding"] == 1
    curve = json.load(open(os.path.join(out, "kappa_curve.json")))["curve"]
    assert len(bank) <= len(curve)

    assert _run(base + ["eval", bank_path, dataset_path]) == 0
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert {"train", "val", "test"} <= set(metrics)
    assert "test" in capsys.readouterr().out

    # eval also accepts the continuous model file
    assert _run(base + ["eval", os.path.join(out, "model.json"), dataset_path]) == 0
    capsys.readouterr()

    experts = os.path.join(FIXTURES, "expert_patterns.jsonl")
    assert _run(base + ["compare", bank_path, experts]) == 0
    comparison = json.load(open(os.path.join(out, "comparison.json")))
    assert len(comparison["expanded_experts"]) == 5
    if len(bank):  # the tiny run may legitimately harvest nothing
        assert len(comparison["per_expert_nearest"]) == len(comparison["expanded_experts"])
    else:
        assert comparison["per_expert_nearest"] == []
    capsys.readouterr()

    clip_id = corpus.load_dataset(dataset_path).clips[0].clip_id
    assert _run(base + ["explain", bank_path, dataset_path, clip_id]) == 0
    assert clip_id in capsys.readouterr().out


def test_synth_deterministic(tmp_path, tiny_config_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert _run(["--config", tiny_config_path, "--seed", "3", "--out", out,
                     "synth"]) == 0
        outs.append(open(os.path.join(out, "dataset.jsonl")).read())
    assert outs[0] == outs[1]


def test_explain_unknown_clip_exits_2(tmp_path, tiny_config_path, capsys):
    out = str(tmp_path / "run")
    base = ["--config", tiny_config_path, "--seed", "0", "--out", out]
    assert _run(base + ["synth"]) == 0
    dataset_path = os.path.join(out, "dataset.jsonl")
    vocab = corpus.FeatureVocabulary.default()
    planted = cli.default_planted_patterns(vocab)
    bank = curator.PatternBank(patterns=tuple(planted), vocabulary=vocab)
    bank_path = str(tmp_path / "bank.json")
    with open(bank_path, "w") as fh:
        fh.write(curator.bank_to_json(bank))
    assert _run(base + ["explain", bank_path, dataset_path, "no-such-clip"]) == 2


def test_explain_finds_clips_past_the_first(tmp_path, tiny_config_path, capsys):
    out = str(tmp_path / "run")
    base = ["--config", tiny_config_path, "--seed", "0", "--out", out]
    assert _run(base + ["synth"]) == 0
    dataset_path = os.path.join(out, "dataset.jsonl")
    bank_path = os.path.join(out, "planted_bank.json")
    bank = curator.bank_from_json(open(bank_path).read())
    ds = corpus.load_dataset(dataset_path)
    capsys.readouterr()
    for i in (len(ds) // 2, len(ds) - 1):  # the middle clip and the last
        clip = ds.clips[i]
        assert _run(base + ["explain", bank_path, dataset_path, clip.clip_id]) == 0
        exp = analysis.explain(clip, bank, bank.vocabulary)
        assert capsys.readouterr().out == f"{exp.bullet_text}\n\n{exp.matrix_text}\n"


def test_failed_curate_keeps_the_earlier_outputs(tmp_path, tiny_config_path, capsys,
                                                 monkeypatch):
    """Outputs are replaced only once written whole: a curate that fails while
    writing leaves the earlier bank.json and no temporary file."""
    out = tmp_path / "run"
    base = ["--config", tiny_config_path, "--seed", "0", "--out", str(out)]
    dataset_path = str(out / "dataset.jsonl")
    curate = base + ["curate", str(out / "snapshots"), dataset_path]
    assert _run(base + ["synth"]) == 0
    assert _run(base + ["train", dataset_path]) == 0
    assert _run(curate) == 0
    files = sorted(os.listdir(out))
    bank = (out / "bank.json").read_bytes()

    def fail(*args, **kwargs):
        raise DataError("cannot encode the bank")
    monkeypatch.setattr(curator, "bank_to_json", fail)
    assert _run(curate) == 2
    assert "cannot encode the bank" in capsys.readouterr().err
    assert (out / "bank.json").read_bytes() == bank
    assert sorted(os.listdir(out)) == files


def _probe_eval(tmp, vocab, data):
    return ["eval", _write_bank(tmp / "b.json", vocab), str(tmp / "missing.jsonl")]


def _probe_compare(tmp, vocab, data):
    return ["compare", _write_bank(tmp / "b.json", vocab), str(tmp / "missing.jsonl")]


def _probe_curate(tmp, vocab, data):
    return ["curate", str(tmp / "missing_dir"), data]


def _probe_synth(tmp, vocab, data):
    config = tmp / "c.json"
    config.write_text(json.dumps({"data": {"planted_bank": str(tmp / "missing.json")}}))
    return ["--config", str(config), "synth"]


# each builds a command whose input is missing, and returns its arguments
MISSING_INPUT = {"train": _missing_dataset, "eval": _probe_eval, "compare": _probe_compare,
                 "curate": _probe_curate, "synth": _probe_synth}


@pytest.mark.parametrize("case", sorted(MISSING_INPUT))
def test_input_errors_leave_no_output_directory(tmp_path, capsys, vocab, case):
    """A command reads and checks its inputs before it writes, and the
    output directory is made at the first write, so a command that exits on
    its inputs leaves no --out behind."""
    argv = MISSING_INPUT[case](tmp_path, vocab, _write_clips(tmp_path / "d.jsonl", vocab, 40, 5))
    code = _run(["--out", str(tmp_path / "o")] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "No such file" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,n_args", [("synth", 0), ("train", 1), ("curate", 2),
                                            ("eval", 2), ("compare", 2), ("explain", 3)])
def test_each_command_calls_its_module_attribute(monkeypatch, command, n_args):
    """main calls cli.cmd_<command> as the module holds it when main runs (a
    wrapper set there is the one called) with the config, --out and the
    positional arguments in the order they are given."""
    name = f"cmd_{command}"
    assert len(inspect.signature(getattr(cli, name)).parameters) == 2 + n_args
    calls = []
    monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or 0)
    positionals = [f"arg{i}" for i in range(n_args)]
    assert _run(["--seed", "3", "--out", "o", command] + positionals) == 0
    assert calls == [(cli.load_config(None, 3), "o", *positionals)]


def test_eval_rejects_unknown_predictor_format(tmp_path, tiny_config_path, capsys):
    out = str(tmp_path / "run")
    base = ["--config", tiny_config_path, "--seed", "0", "--out", out]
    assert _run(base + ["synth"]) == 0
    stray = tmp_path / "stray.json"
    stray.write_text(json.dumps({"format": "something-else"}))
    code = _run(base + ["eval", str(stray), os.path.join(out, "dataset.jsonl")])
    assert code == 2
