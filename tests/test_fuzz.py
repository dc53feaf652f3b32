"""Fuzzed inputs through `cli.main`: mutated and truncated clip, bank,
model, snapshot, expert and config files end in a documented exit code
(0, 1, 2 or 3), never in an exception that escapes."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_legal_steps
from patternconv import cli, corpus, curator, netcore
from patternconv.corpus import FeatureVocabulary


def _valid_files() -> dict:
    """Name -> text of one valid input of each kind, small enough that a
    command over them takes milliseconds."""
    vocab = FeatureVocabulary.default()
    rng = np.random.default_rng(0)
    clips = tuple(corpus.Clip(clip_id=f"c{i}", steps=random_legal_steps(vocab, 5, rng),
                              label=i % 3 == 0) for i in range(24))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "clips.jsonl")
        corpus.write_dataset(corpus.Dataset(vocabulary=vocab, clips=clips), path)
        with open(path, encoding="utf-8") as fh:
            clip_text = fh.read()
    planted = cli.default_planted_patterns(vocab)
    bank = curator.PatternBank(patterns=tuple(planted), vocabulary=vocab)
    W = np.stack([p.cells for p in planted]).astype(np.float64)
    return {
        "clips.jsonl": clip_text,
        "bank.json": curator.bank_to_json(bank),
        "model.json": netcore.state_to_json(netcore.init_state(4, 3, vocab.d, rng=0)),
        "snaps/era_000.json": netcore.filters_to_json(netcore.EraSnapshot(
            era=0, W=W, per_filter_precision=np.array([0.9, np.nan, 0.5]))),
        "experts.jsonl": '{"name":"e","steps":[["help"],["incorrect","similar_answer"]]}\n',
        "config.json": json.dumps({"split": {"test_fraction": 0.3, "val_fraction": 0.3},
                                   "curate": {"n_override": 2}}),
    }


VALID = _valid_files()

# each fuzzed file and the commands that read it
COMMANDS = {
    "clips.jsonl": [["eval", "bank.json", "clips.jsonl"],
                    ["explain", "bank.json", "clips.jsonl", "c3"]],
    "bank.json": [["eval", "bank.json", "clips.jsonl"],
                  ["explain", "bank.json", "clips.jsonl", "c0"],
                  ["compare", "bank.json", "experts.jsonl"]],
    "model.json": [["eval", "model.json", "clips.jsonl"]],
    "snaps/era_000.json": [["curate", "snaps", "clips.jsonl"]],
    "experts.jsonl": [["compare", "bank.json", "experts.jsonl"]],
    "config.json": [["eval", "bank.json", "clips.jsonl"]],
}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=2),
    max_leaves=4)


def _paths(node, path=()):
    """Every path of keys and indices into a JSON document."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replace(node, path, value):
    if not path:
        return value
    node[path[0]] = _replace(node[path[0]], path[1:], value)
    return node


def _mutate_value(draw, text: str) -> str:
    """One JSON value of one line of `text` replaced by a drawn value."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    doc = json.loads(lines[i])
    path = draw(st.sampled_from(list(_paths(doc))))
    lines[i] = json.dumps(_replace(doc, path, draw(_json_values)))
    return "\n".join(lines) + "\n"


def _mutate_text(draw, text: str) -> str:
    """The text truncated, or with a span deleted, replaced or inserted."""
    n = len(text)
    at = draw(st.integers(0, n))
    kind = draw(st.sampled_from(["truncate", "delete", "replace", "insert"]))
    if kind == "truncate":
        return text[:at]
    cut = at if kind == "insert" else min(n, at + draw(st.integers(1, 8)))
    fill = "" if kind == "delete" else draw(st.text(alphabet='{}[],:"0123456789.-eE tfnNI\\xé\n',
                                                    min_size=1, max_size=4))
    return text[:at] + fill + text[cut:]


@st.composite
def _mutated(draw, name):
    mutate = draw(st.sampled_from([_mutate_value, _mutate_text]))
    return mutate(draw, VALID[name])


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_inputs_exit_with_a_documented_code(name, data):
    text = data.draw(_mutated(name), label="text")
    argv = data.draw(st.sampled_from(COMMANDS[name]), label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "snaps"))
        for fname, valid in VALID.items():
            with open(os.path.join(tmp, fname), "w", encoding="utf-8") as fh:
                fh.write(text if fname == name else valid)
        args = [os.path.join(tmp, a) if a in VALID or a == "snaps" else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["--config", os.path.join(tmp, "config.json"),
                             "--out", os.path.join(tmp, "out")] + args)
    assert code in (0, 1, 2, 3), err.getvalue()
